"""Offline optimization loop: initialization, determinism, known optima."""

import dataclasses

import numpy as np
import pytest

from viaplan import planner
from viaplan.costs import CostWeights
from viaplan.planner import (PlanningProblem, evaluate_candidates, make_es, score,
                             solve, straight_line_init)
from viaplan.spline import BoundaryConditions, build_basis, via_timings
from viaplan.timing import (InfeasibleError, KinodynamicLimits, PhaseGrid, Trajectory,
                            boundary_half)
from viaplan.worlds import World2D

from conftest import bundled_world


def make_1d_problem(n_via=5, pop_size=16, seed=0, **kw):
    bc = BoundaryConditions([0.0], [0.0], [1.0], [0.0])
    lim = KinodynamicLimits.symmetric(0.1, 0.2, 1)
    return PlanningProblem(bc, lim, n_via=n_via, pop_size=pop_size, seed=seed, **kw)


def test_straight_line_init_midpoint():
    bc = BoundaryConditions([0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0])
    np.testing.assert_allclose(straight_line_init(bc, 1), [0.5, 0.5])


def test_straight_line_init_fractions():
    bc = BoundaryConditions([0.0], [0.0], [1.0], [0.0])
    np.testing.assert_allclose(straight_line_init(bc, 3), [0.25, 0.5, 0.75])


def test_straight_line_init_interpolates():
    rng = np.random.default_rng(1)
    bc = BoundaryConditions(rng.standard_normal(2), np.zeros(2),
                            rng.standard_normal(2), np.zeros(2))
    n_via = 4
    mean = straight_line_init(bc, n_via).reshape(n_via, 2)
    basis = build_basis(n_via, 2)
    vals = Trajectory(basis, mean, bc, 1.0).evaluate(via_timings(n_via))
    segment = bc.q0 + np.outer(via_timings(n_via), bc.qT - bc.q0)
    np.testing.assert_allclose(vals, segment, atol=1e-9)


def test_problem_validation():
    bc = BoundaryConditions([0.0], [0.0], [1.0], [0.0])
    lim = KinodynamicLimits.symmetric(0.1, 0.2, 1)
    with pytest.raises(ValueError):
        PlanningProblem(bc, lim, n_via=0)
    with pytest.raises(ValueError):
        PlanningProblem(bc, lim, n_via=2, pop_size=3)
    # max_iterations=0 used to surface from solve as InfeasibleError("no
    # candidate admitted a finite duration"), having run no generation.
    with pytest.raises(ValueError, match="max_iterations"):
        PlanningProblem(bc, lim, n_via=2, max_iterations=0)
    with pytest.raises(ValueError, match="mode"):
        PlanningProblem(bc, lim, n_via=2, mode="diag")
    # A NaN or negative tol never passes the stall test, so the solve would
    # silently run every iteration, and an infinite one always does, so it
    # would stop after two; 0 runs every iteration by request.
    for tol in (np.nan, -1e-6, np.inf):
        with pytest.raises(ValueError, match="tol"):
            PlanningProblem(bc, lim, n_via=2, tol=tol)
    assert PlanningProblem(bc, lim, n_via=2, tol=0.0).tol == 0.0
    assert solve(PlanningProblem(bc, lim, n_via=2, max_iterations=1)).iterations == 1


def test_solve_1d_reaches_near_bang_bang():
    res = solve(make_1d_problem(n_via=5, pop_size=16, seed=0))
    assert 10.5 < res.trajectory.duration <= 12.5
    assert res.report.valid


def test_solve_deterministic():
    a = solve(make_1d_problem(seed=3))
    b = solve(make_1d_problem(seed=3))
    assert a.history_best == b.history_best and a.iterations == b.iterations
    np.testing.assert_array_equal(a.trajectory.q_via, b.trajectory.q_via)
    assert a.trajectory.duration == b.trajectory.duration


def test_solve_result_fields():
    # A solve reports what its readers use: no per-generation history and no
    # convergence flag.
    assert [f.name for f in dataclasses.fields(planner.SolveResult)] == [
        "trajectory", "report", "best_trajectory", "best_report",
        "history_best", "iterations", "first_valid_iter"]


def test_best_so_far_non_increasing():
    res = solve(make_1d_problem(seed=5, max_iterations=120))
    hist = np.array(res.history_best)
    assert np.all(np.diff(hist) <= 0.0)


def test_goal_equals_start_collapses_to_rest():
    bc = BoundaryConditions([0.4, 0.4], [0.0, 0.0], [0.4, 0.4], [0.0, 0.0])
    lim = KinodynamicLimits.symmetric(0.5, 2.0, 2)
    problem = PlanningProblem(bc, lim, n_via=2, pop_size=16, seed=0,
                              max_iterations=150)
    res = solve(problem)
    assert res.best_trajectory.duration < 0.2


def test_infeasible_boundary_velocity_raises():
    bc = BoundaryConditions([0.0], [5.0], [1.0], [0.0])
    lim = KinodynamicLimits.symmetric(0.1, 0.2, 1)
    problem = PlanningProblem(bc, lim, n_via=2, pop_size=8, max_iterations=5)
    with pytest.raises(InfeasibleError):
        solve(problem)


@pytest.mark.parametrize("tol", [0.0, 1e-6])
def test_solve_over_infeasible_boundary_runs_no_generation(monkeypatch, tol):
    # A start above qd_max leaves no candidate a duration, so solve runs no
    # generation whatever its tol and raises after the mean's one synthesis,
    # which raises at once over that boundary; a stall test over
    # all-infeasible generations would stop after 2 at tol 1e-6 and run all
    # 500 at tol 0.
    calls = {"evaluate_candidates": 0, "synthesize": 0}

    def counting(name):
        real = getattr(planner, name)

        def spy(*args):
            calls[name] += 1
            return real(*args)
        return spy

    for name in calls:
        monkeypatch.setattr(planner, name, counting(name))
    bc = BoundaryConditions([0.1, 0.5], [0.8, 0.0], [0.9, 0.5], [0.0, 0.0])
    problem = PlanningProblem(bc, KinodynamicLimits.symmetric(0.5, 2.0, 2), n_via=3,
                              grid=PhaseGrid(20), tol=tol)
    assert problem.pop_size == 16 and problem.max_iterations == 500
    with pytest.raises(InfeasibleError, match="no candidate"):
        solve(problem)
    assert calls == {"evaluate_candidates": 0, "synthesize": 1}


def test_score_of_infeasible_boundary_is_none():
    # The start velocity exceeds qd_max: score says so with (None, None), as
    # evaluate_candidates does for each candidate, and raises nothing.
    bc = BoundaryConditions([0.0], [5.0], [1.0], [0.0])
    lim = KinodynamicLimits.symmetric(0.1, 0.2, 1)
    problem = PlanningProblem(bc, lim, n_via=2, pop_size=8, max_iterations=5)
    boundary = boundary_half(build_basis(2, 1), bc, lim, problem.grid)
    assert score(boundary, [[0.3], [0.6]], problem) == (None, None)
    trajs, reports, _ = evaluate_candidates(boundary, np.array([[0.3, 0.6]]), problem)
    assert trajs == [None] and reports == [None]


def test_score_of_non_finite_via_points_is_none():
    # NaN via-points used to score as valid, with totals 0.0 and nan.
    bc = BoundaryConditions([0.1, 0.5], [0.0, 0.0], [0.9, 0.5], [0.0, 0.0])
    lim = KinodynamicLimits.symmetric(0.5, 2.0, 2, q_range=(0.0, 1.0))
    problem = PlanningProblem(bc, lim, n_via=2, pop_size=4, grid=PhaseGrid(20))
    boundary = boundary_half(build_basis(2, 2), bc, lim, problem.grid)
    line = straight_line_init(bc, 2)
    one_nan = line.copy()
    one_nan[0] = np.nan
    for x in (np.full_like(line, np.nan), one_nan):
        assert score(boundary, x, problem) == (None, None)
    trajs, reports, costs = evaluate_candidates(
        boundary, np.array([line, one_nan, np.full_like(line, np.nan)]), problem)
    assert trajs[0] is not None and reports[0].valid
    assert trajs[1:] == [None, None] and reports[1:] == [None, None]
    assert (costs[1:] == np.finfo(float).max).all()


# (sigma / scale)**2 of the last three overflows or rounds to zero: no
# finite positive ES variance.
@pytest.mark.parametrize("sigma", [0.0, -0.4, np.inf, np.nan, 1e200, 1e300, 1e-300])
def test_make_es_rejects_a_sigma_scale_that_is_not_finite_and_positive(sigma):
    problem = make_1d_problem(n_via=2)
    with pytest.raises(ValueError, match="sigma_scale"):
        make_es(problem, straight_line_init(problem.bc, 2), sigma)
    with pytest.raises(ValueError, match="sigma_scale"):
        solve(problem, init_sigma_scale=sigma)


def test_first_valid_iter_with_world():
    world = World2D(disks=[[0.5, 0.5, 0.18]], robot_radius=0.02)
    bc = BoundaryConditions([0.1, 0.5], [0.0, 0.0], [0.9, 0.5], [0.0, 0.0])
    lim = KinodynamicLimits.symmetric(0.5, 2.0, 2, q_range=(0.0, 1.0))
    problem = PlanningProblem(bc, lim, n_via=6, pop_size=16, seed=0,
                              checker=world, max_iterations=60)
    res = solve(problem, init_sigma_scale=0.4)
    assert res.first_valid_iter is not None
    assert 1 <= res.first_valid_iter <= 60


def test_evaluate_candidates_penalizes_infeasible():
    problem = make_1d_problem(n_via=1, pop_size=4)
    basis = build_basis(1, 1)
    # One candidate fine, nothing infeasible here; check the cost path shape.
    boundary = boundary_half(basis, problem.bc, problem.limits, problem.grid)
    trajs, reports, costs = evaluate_candidates(
        boundary, np.array([[0.5], [0.2], [0.9], [0.4]]), problem)
    assert len(trajs) == 4 and costs.shape == (4,)
    assert all(r is not None for r in reports)


def cluttered_problem(**kw):
    world, q0, qT = bundled_world()
    bc = BoundaryConditions(q0, [0.0, 0.0], qT, [0.0, 0.0])
    lim = KinodynamicLimits.symmetric(0.5, 2.0, 2, q_range=(0.0, 1.0))
    return PlanningProblem(bc, lim, grid=PhaseGrid(20), checker=world, **kw)


@pytest.mark.parametrize("penalty", [1.0, 1e6, 1e308])
def test_candidate_with_no_duration_ranks_last(penalty):
    # At invalid_penalty 1 the candidate with no duration used to cost
    # 10 x invalid_penalty = 10, below the colliding candidate's 18.67, and
    # rank third of four.
    problem = cluttered_problem(n_via=2, weights=CostWeights(invalid_penalty=penalty))
    boundary = boundary_half(build_basis(2, 2), problem.bc, problem.limits, problem.grid)
    cands = np.array([[0.5, 0.5, 0.6, 0.5], [np.nan, 0.5, 0.6, 0.5],
                      [0.3, 0.8, 0.7, 0.8], [0.3, 0.2, 0.7, 0.2]])
    _, reports, costs = evaluate_candidates(boundary, cands, problem)
    assert reports[1] is None
    assert [r.valid for r in reports[::2]] == [False, True]
    assert costs[1] == np.finfo(float).max > costs[0]
    assert np.argsort(costs, kind="stable")[-1] == 1


def test_solve_reports_the_best_ever_candidate_when_only_it_is_valid(monkeypatch):
    # Seed 0 at 5 iterations ends on a colliding mean while its best-ever
    # candidate is valid: the solve reports the best-ever candidate, which
    # the plan command used to pick for itself.  A valid mean is reported.
    means = []
    real = planner.score

    def recording(*args):
        means.append(real(*args))
        return means[-1]

    monkeypatch.setattr(planner, "score", recording)
    res = solve(cluttered_problem(n_via=3, pop_size=16, max_iterations=5),
                init_sigma_scale=0.4)
    (_, mean_report), = means
    assert not mean_report.valid and res.best_report.valid
    assert res.trajectory is res.best_trajectory and res.report is res.best_report
    res = solve(make_1d_problem(n_via=2, max_iterations=20))
    mean_traj, mean_report = means[-1]
    assert mean_report.valid
    assert res.trajectory is mean_traj and res.report is mean_report


def test_solve_respects_iteration_budget():
    res = solve(make_1d_problem(seed=1, max_iterations=7, tol=0.0))
    assert res.iterations == 7


def test_boundary_built_once_per_solve(monkeypatch):
    # A solve builds its boundary half once, for every candidate of every
    # generation and for the final mean's score.
    built = []
    real = planner.boundary_half

    def counting(*args):
        built.append(args)
        return real(*args)

    used = []
    real_synthesize = planner.synthesize

    def recording(boundary, q_via):
        used.append(boundary)
        return real_synthesize(boundary, q_via)

    monkeypatch.setattr(planner, "boundary_half", counting)
    monkeypatch.setattr(planner, "synthesize", recording)
    problem = make_1d_problem(n_via=3, pop_size=8, max_iterations=6, tol=0.0)
    res = solve(problem)
    assert res.iterations == 6
    assert len(built) == 1
    basis, bc, limits, grid = built[0]
    assert basis is build_basis(problem.n_via, 1)
    assert bc is problem.bc and limits is problem.limits and grid is problem.grid
    # Every candidate and the final mean are synthesized from that one value.
    assert len(used) == res.iterations * problem.pop_size + 1
    assert len({id(b) for b in used}) == 1


def test_problem_rejects_limits_of_another_dof():
    # One limit per axis used to be broadcast over a 2-DoF move, which then
    # solved and reported valid; three failed inside boundary_half with a
    # numpy broadcast error.
    _, q0, goal = bundled_world()
    bc = BoundaryConditions(q0, np.zeros(2), goal, np.zeros(2))
    two = KinodynamicLimits.symmetric(0.5, 2.0, 2)
    for limits in (KinodynamicLimits.symmetric(0.5, 2.0, 1),
                   KinodynamicLimits.symmetric(0.5, 2.0, 3),
                   dataclasses.replace(two, q_min=np.zeros(1), q_max=np.ones(1))):
        with pytest.raises(ValueError, match="one value per DoF"):
            PlanningProblem(bc, limits, n_via=3, pop_size=8)
    PlanningProblem(bc, two, n_via=3, pop_size=8)
