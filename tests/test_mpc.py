"""MPC step logic: direct gate, warm-start shift, budgets, closed loop."""

import dataclasses
import inspect
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import viaplan.mpc as mpc
import viaplan.planner as planner
from viaplan.mpc import (MAX_REFERENCE_SAMPLES, ExactPlant, LagPlant, MpcConfig,
                         MpcStepResult, extract_reference, greedy_step, mpc_step,
                         run_closed_loop, select_n_via, step_problem, warm_start)
from viaplan.planner import PlanningProblem, solve
from viaplan.spline import BoundaryConditions, build_basis
from viaplan.timing import (KinodynamicLimits, PhaseGrid, Trajectory, boundary_half,
                            synthesize)

from conftest import bundled_world, direct_plan


LIMITS_2D = KinodynamicLimits.symmetric(0.5, 2.0, 2, q_range=(0.0, 1.0))


def test_config_validation():
    with pytest.raises(ValueError):
        MpcConfig(dt_mpc=0.0)
    # A NaN alpha would fail in select_n_via, a NaN t_stop would turn the
    # direct gate off, and an infinite goal_tol or vel_tol would count any
    # state as the goal.
    for key in ("dt_mpc", "t_stop", "alpha", "goal_tol", "vel_tol"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and positive"):
                MpcConfig(**{key: value})
    with pytest.raises(ValueError):
        MpcConfig(n_max=0)
    # Each of these used to be accepted, and then either ran one generation
    # anyway (iterations_per_step=0) or failed inside the first mpc_step.
    for bad in ({"iterations_per_step": 0}, {"iterations_per_step": -1},
                {"pop_size": 3}, {"grid_k": 1},
                {"plant_dt": 0.1, "dt_mpc": 0.08}, {"plant_dt": 0.0}):
        with pytest.raises(ValueError):
            MpcConfig(**bad)
    MpcConfig(iterations_per_step=1, pop_size=4, grid_k=2, plant_dt=0.08)
    # More reference samples per step than MAX_REFERENCE_SAMPLES: a plant_dt
    # of 1e-300 used to ask np.arange for about 8e298 samples in the first
    # step's extract_reference.
    assert MAX_REFERENCE_SAMPLES == 100_000
    for bad in ({"plant_dt": 1e-300}, {"plant_dt": 5e-324},
                {"dt_mpc": 1.0, "plant_dt": 2.0**-17}):
        with pytest.raises(ValueError, match="dt_mpc / plant_dt"):
            MpcConfig(**bad)
    MpcConfig(dt_mpc=1.0, plant_dt=1e-5)
    MpcConfig(dt_mpc=1.0, plant_dt=2.0**-16)


def test_config_builds_its_grid_once():
    # Every step shares the config's one grid, which only grid_k sets.
    config = MpcConfig(grid_k=30)
    assert config.grid == PhaseGrid(30)
    assert dataclasses.replace(config, grid_k=12).grid == PhaseGrid(12)
    with pytest.raises(TypeError):
        MpcConfig(grid=PhaseGrid(30))
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.grid_k = 12
    with pytest.raises(ValueError, match="K >= 2"):
        MpcConfig(grid_k=1)
    problem = mpc.step_problem([0.0], [0.0], [1.0], [0.0],
                               KinodynamicLimits.symmetric(0.5, 2.0, 1), config, None, 0)
    assert problem.grid is config.grid


@pytest.mark.parametrize("step", [mpc_step, greedy_step])
@pytest.mark.parametrize("dof", [1, 3])
def test_step_rejects_limits_of_another_dof(step, dof):
    # One limit per axis used to be broadcast over the 2-DoF move; three
    # failed with a numpy broadcast error.  The loop's step_problem rejects
    # them before the step function runs.
    calls = []

    def recording_step(*args):
        calls.append(args)
        return step(*args)

    with pytest.raises(ValueError, match="one value per DoF"):
        run_closed_loop([0.1, 0.1], np.zeros(2), [0.9, 0.9], np.zeros(2),
                        KinodynamicLimits.symmetric(0.5, 2.0, dof),
                        MpcConfig(iterations_per_step=1, pop_size=8), max_steps=1,
                        step=recording_step)
    assert calls == []


def test_select_n_via_formula():
    assert select_n_via(0.3, alpha=2.0, n_max=4) == 1
    assert select_n_via(1.2, alpha=2.0, n_max=4) == 3
    assert select_n_via(5.0, alpha=2.0, n_max=4) == 4
    assert select_n_via(0.0, alpha=2.0, n_max=4) == 1


def test_direct_mode_near_goal():
    q = np.array([0.88, 0.5])
    goal = np.array([0.9, 0.5])
    config = MpcConfig()
    result = mpc_step(step_problem(q, np.zeros(2), goal, np.zeros(2), LIMITS_2D, config,
                                   None, 0), config)
    assert result.mode == "direct"
    assert result.iterations_run == 0
    assert result.valid
    assert result.solution.duration <= MpcConfig().t_stop


def test_explore_on_first_step():
    world, q0, goal = bundled_world()
    config = MpcConfig(iterations_per_step=2)
    result = mpc_step(step_problem(q0, np.zeros(2), goal, np.zeros(2), LIMITS_2D, config,
                                   world, 0), config)
    assert result.mode == "explore"
    assert result.iterations_run == 2


def test_es_step_builds_one_boundary(monkeypatch):
    # An ES step builds the direct trajectory's boundary half and one for
    # its own basis, which every generation and the final mean share.
    built = []

    def spying(real):
        def spy(*args):
            built.append(args)
            return real(*args)
        return spy

    # The planner is the only module that builds one, for the direct gate and
    # for the ES alike; mpc holds no boundary_half of its own.
    assert not hasattr(mpc, "boundary_half")
    monkeypatch.setattr(planner, "boundary_half", spying(planner.boundary_half))
    world, q0, goal = bundled_world()
    config = MpcConfig(iterations_per_step=5)
    result = mpc_step(step_problem(q0, np.zeros(2), goal, np.zeros(2), LIMITS_2D, config,
                                   world, 0), config)
    assert result.mode == "explore" and result.iterations_run == 5
    bases = [args[0] for args in built]
    assert bases == [build_basis(0, 2), build_basis(config.n_max, 2)]
    for _, bc, limits, grid in built:
        assert np.array_equal(bc.q0, q0) and np.array_equal(bc.qT, goal)
        assert limits is LIMITS_2D and grid.k == config.grid_k


def test_step_above_qd_max_runs_no_generation(monkeypatch):
    # A start beyond qd_max leaves no candidate a duration, so the step runs
    # no generation: it synthesizes the direct plan and the mean, both
    # infeasible, and scores no population.
    calls = {"synthesize": 0, "evaluate_candidates": 0}

    def counting(name):
        real = getattr(planner, name)

        def spy(*args):
            calls[name] += 1
            return real(*args)
        return spy

    for name in calls:
        monkeypatch.setattr(planner, name, counting(name))
    world, q0, goal = bundled_world()
    config = MpcConfig(iterations_per_step=5)
    result = mpc_step(step_problem(q0, np.array([0.8, 0.0]), goal, np.zeros(2), LIMITS_2D,
                                   config, world, 0), config)
    assert result.mode == "explore" and result.iterations_run == 0
    assert result.solution is None and result.report is None and not result.valid
    assert calls == {"synthesize": 2, "evaluate_candidates": 0}


def test_step_above_qd_max_takes_the_rule_from_optimize(monkeypatch):
    # mpc_step has no infeasible-boundary guard of its own: it enters
    # planner.optimize, the one generation loop, which runs no generation
    # over such a boundary.  mpc holds no generation loop of its own.
    assert not hasattr(mpc, "score") and not hasattr(planner, "generations")
    entered, evaluated = [], []
    real_optimize, real_evaluate = mpc.optimize, planner.evaluate_candidates

    def optimize_spy(es, boundary, *args, **kwargs):
        entered.append(boundary.lanes.feasible)
        return real_optimize(es, boundary, *args, **kwargs)

    def evaluate_spy(*args):
        evaluated.append(args)
        return real_evaluate(*args)

    monkeypatch.setattr(mpc, "optimize", optimize_spy)
    monkeypatch.setattr(planner, "evaluate_candidates", evaluate_spy)
    world, q0, goal = bundled_world()
    config = MpcConfig(iterations_per_step=5)
    result = mpc_step(step_problem(q0, np.array([0.8, 0.0]), goal, np.zeros(2), LIMITS_2D,
                                   config, world, 0), config)
    assert entered == [False] and evaluated == [] and result.iterations_run == 0


def test_step_reports_the_best_ever_candidate_when_only_it_is_valid(monkeypatch):
    # The first step of configs/mpc2d.json at 4 iterations of 16 candidates
    # ends on a colliding mean (total 1000006.53) while one of its
    # generations held a valid candidate: the step reports that candidate by
    # solve's rule, where it used to report the mean and be invalid.
    returned = []
    real = planner.evaluate_candidates

    def spy(boundary, candidates, problem):
        trajs, reports, costs = real(boundary, candidates, problem)
        returned.extend(trajs)
        return trajs, reports, costs

    monkeypatch.setattr(planner, "evaluate_candidates", spy)
    world, q0, goal = bundled_world()
    config = MpcConfig(iterations_per_step=4, pop_size=16)
    result = mpc_step(step_problem(q0, np.zeros(2), goal, np.zeros(2), LIMITS_2D, config,
                                   world, 0), config)
    assert result.mode == "explore" and result.iterations_run == 4
    assert result.valid and result.report.valid
    assert result.report.total == pytest.approx(3.656, abs=1e-3)
    assert len(returned) == 4 * 16
    assert any(result.solution is t for t in returned)


def test_direct_step_at_its_goal_emits_rest_reference():
    # At rest on its own goal, the direct trajectory is degenerate and the
    # reference holds the state with zero velocity for the whole step.
    for goal in ([0.9, 0.5], [0.3, 0.7, 0.1]):
        goal = np.array(goal)
        dof = goal.size
        lim = KinodynamicLimits.symmetric(0.5, 2.0, dof, q_range=(0.0, 1.0))
        config = MpcConfig()
        result = mpc_step(step_problem(goal, np.zeros(dof), goal, np.zeros(dof), lim,
                                       config, None, 0), config)
        assert result.mode == "direct" and result.valid
        assert result.solution.duration == 0.0 and result.solution.degenerate
        ref = extract_reference(result.solution, 0.0, config.dt_mpc, config.plant_dt)
        assert np.array_equal(ref.times, 1e-3 * np.arange(81))
        assert np.array_equal(ref.q, np.tile(goal, (81, 1)))
        assert not ref.qd.any()


def test_explore_after_invalid_step():
    # The loop passes a step's plan on only when the step was valid, so the
    # step after an invalid one explores, and the one after that warm-starts.
    world, q0, goal = bundled_world()
    config = MpcConfig(iterations_per_step=2)
    prev_plans, results = [], []

    def first_invalid(problem, config, prev_plan=None):
        prev_plans.append(prev_plan)
        results.append(mpc_step(problem, config, prev_plan))
        results[-1].valid = len(results) > 1
        return results[-1]

    run_closed_loop(q0, np.zeros(2), goal, np.zeros(2), LIMITS_2D, config,
                    checker=world, max_steps=3, step=first_invalid)
    assert results[0].solution is not None
    assert [r.mode for r in results] == ["explore", "explore", "warmstart"]
    assert prev_plans == [None, None, results[1].solution]


def test_closed_loop_builds_its_plant_once_from_the_start_state():
    built = []

    def plant(q, qd):
        built.append((q, qd))
        return ExactPlant(q, qd)

    def hold(problem, config, prev_plan=None):
        return MpcStepResult(None, None, False, "explore", 0)

    q0, qd0 = np.array([0.1, 0.5]), np.array([0.05, -0.02])
    log = run_closed_loop(q0, qd0, [0.9, 0.5], np.zeros(2), LIMITS_2D, MpcConfig(),
                          max_steps=3, plant=plant, step=hold)
    assert log.steps == 3 and len(built) == 1
    np.testing.assert_array_equal(built[0][0], q0)
    np.testing.assert_array_equal(built[0][1], qd0)


def test_a_step_gets_the_last_plan_only_when_that_step_was_valid():
    # The loop keeps one plan state, the followed plan and its offset; the
    # step warm-starts from that plan only at offset 0.0, just after a valid
    # step.  An invalid step, with or without a plan, and a disturbance each
    # leave the next step None.
    valid = [True, True, False, True, True, True, False, False, True, True]
    has_plan = [True, True, True, True, True, True, False, True, True, True]
    disturb_at = 4
    received, results = [], []

    def step(problem, config, prev_plan=None):
        received.append(prev_plan)
        k = len(results)
        plan = mpc.rest_plan(problem.bc.q0) if has_plan[k] else None
        results.append(MpcStepResult(plan, None, valid[k], "explore", 0))
        return results[-1]

    run_closed_loop([0.1, 0.5], np.zeros(2), [0.9, 0.5], np.zeros(2), LIMITS_2D,
                    MpcConfig(), max_steps=len(valid),
                    disturbances={disturb_at: np.array([0.01, 0.0])}, step=step)
    expected = [None] + [results[k - 1].solution if valid[k - 1] and k != disturb_at
                         else None for k in range(1, len(valid))]
    assert len(received) == len(valid)
    assert all(got is want for got, want in zip(received, expected))
    assert [plan is None for plan in received] == [
        True, False, False, True, True, False, False, True, True, False]


def test_warm_start_zero_elapsed_preserves_cost():
    bc = BoundaryConditions([0.0], [0.0], [1.0], [0.0])
    lim = KinodynamicLimits.symmetric(0.1, 0.2, 1)
    prev = solve(PlanningProblem(bc, lim, n_via=4, pop_size=16, seed=0)).trajectory
    mean, n_via = warm_start(prev, 0.0, alpha=0.5, n_max=4)
    assert n_via == select_n_via(prev.duration, 0.5, 4)
    resampled = synthesize(boundary_half(build_basis(n_via, 1), bc, lim, PhaseGrid(50)),
                           mean.reshape(-1, 1))
    assert abs(resampled.duration - prev.duration) / prev.duration < 0.05


def test_warm_start_expired():
    # A plan with no remaining tail gives no warm start, from its very end on.
    bc = BoundaryConditions([0.0], [0.0], [1.0], [0.0])
    lim = KinodynamicLimits.symmetric(0.1, 0.2, 1)
    prev = solve(PlanningProblem(bc, lim, n_via=2, pop_size=16, seed=0)).trajectory
    for elapsed in (prev.duration, prev.duration + 1.0):
        assert warm_start(prev, elapsed, 2.0, 4) is None
    assert warm_start(prev, 0.5 * prev.duration, 2.0, 4) is not None


def test_step_after_an_expired_plan_explores():
    # The previous step was valid, but its plan ends within dt_mpc, so the
    # next step that fails the direct gate explores instead of warm-starting.
    world, q0, goal = bundled_world()
    short = direct_plan(BoundaryConditions(q0, np.zeros(2), q0 + [0.001, 0.0],
                                           np.zeros(2)), LIMITS_2D, PhaseGrid(20))
    config = MpcConfig(iterations_per_step=2)
    assert 0.0 < short.duration < config.dt_mpc
    result = mpc_step(step_problem(q0, np.zeros(2), goal, np.zeros(2), LIMITS_2D, config,
                                   world, 0), config, short)
    assert result.mode == "explore" and result.iterations_run == 2


def es_start(es):
    """The state an ES starts from: its mean, sigma_diag and step size."""
    return es.mean.copy(), np.array(es.sigma_diag), es.step_size


def record_es_inits(monkeypatch):
    """(problem, mean, sigma_scale, es_start) of every ES that mpc_step
    builds from now on, with mean and sigma_scale as the step passed them."""
    inits = []

    def recording_make_es(problem, mean=None, sigma_scale=None):
        es, boundary = make_es(problem, mean, sigma_scale)
        inits.append((problem, mean, sigma_scale, es_start(es)))
        return es, boundary

    make_es = mpc.make_es
    monkeypatch.setattr(mpc, "make_es", recording_make_es)
    return inits


def test_explore_init_straight_line(monkeypatch):
    # An explore step takes make_es's cold start: the straight line with n_max
    # via-points at half the start-goal distance.  A warm-start step starts
    # from the shifted previous solution at a twentieth of that distance.
    inits = record_es_inits(monkeypatch)
    lim = KinodynamicLimits.symmetric(0.5, 2.0, 2)
    config = MpcConfig(iterations_per_step=1, pop_size=8)
    distance = float(np.linalg.norm([1.0, 1.0]))
    problem = step_problem([0.0, 0.0], np.zeros(2), [1.0, 1.0], np.zeros(2), lim, config,
                           None, 0)
    first = mpc_step(problem, config)
    assert first.mode == "explore" and first.valid
    (problem, mean, sigma, start), = inits
    assert mean is None and sigma is None and problem.n_via == config.n_max
    line = planner.straight_line_init(problem.bc, config.n_max)
    expected = es_start(planner.make_es(problem, line, 0.5 * distance)[0])
    assert all(np.array_equal(a, b) for a, b in zip(start, expected))
    assert start[0].shape == (8,)
    np.testing.assert_allclose(start[0].reshape(4, 2)[1], [0.4, 0.4], atol=1e-12)
    second = mpc_step(problem, config, first.solution)
    assert second.mode == "warmstart"
    _, mean, sigma, _ = inits[1]
    expected, _ = warm_start(first.solution, config.dt_mpc, config.alpha, config.n_max)
    assert sigma == 0.05 * distance and np.array_equal(mean, expected)


def test_warm_start_on_the_goal_samples_at_a_twentieth(monkeypatch):
    # At q == qT the warm start samples at 0.05, a twentieth of the 1.0 that
    # stands in for the zero distance left.  Here the direct plan, which has
    # to turn the start velocity around, fails the t_stop gate.
    inits = record_es_inits(monkeypatch)
    lim = KinodynamicLimits.symmetric(0.5, 2.0, 2)
    config = MpcConfig(iterations_per_step=1, pop_size=8, t_stop=1e-3)
    prev = direct_plan(BoundaryConditions([0.2, 0.2], np.zeros(2), [0.8, 0.8],
                                          np.zeros(2)), lim, PhaseGrid(20))
    assert prev.duration > config.dt_mpc
    problem = step_problem([0.5, 0.5], [0.1, 0.0], [0.5, 0.5], np.zeros(2), lim,
                           config, None, 0)
    assert mpc_step(problem, config, prev).mode == "warmstart"
    (_, _, sigma, _), = inits
    assert sigma == 0.05


def test_explore_variance_exceeds_warmstart():
    # The first explore population spreads at least (ratio)^2 wider in trace.
    from viaplan.optimizer import EvolutionStrategy

    rng_dim = 8
    draws = {}
    for name, sigma in (("explore", 0.4), ("warm", 0.04)):
        es = EvolutionStrategy(np.zeros(rng_dim), sigma**2, pop_size=4000, seed=0)
        draws[name] = np.trace(np.cov(es.sample().T))
    assert draws["explore"] >= 0.9 * (0.4 / 0.04)**2 * draws["warm"]


def test_extract_short_horizon_sampling():
    bc = BoundaryConditions([0.0], [0.0], [1.0], [0.0])
    lim = KinodynamicLimits.symmetric(0.1, 0.2, 1)
    traj = direct_plan(bc, lim, PhaseGrid(50))
    horizon = extract_reference(traj, 0.0, 0.08, plant_dt=1e-3)
    assert horizon.times.tobytes() == (1e-3 * np.arange(81)).tobytes()
    np.testing.assert_allclose(horizon.q[0], [0.0], atol=1e-12)
    # Samples at k plant_dt while that is below the window, then the window's
    # end itself.  A 0.3 s window at 0.1 s used to end at 3 * 0.1 =
    # 0.30000000000000004, which an absolute 1e-12 s epsilon took for 0.3.
    times = extract_reference(traj, 0.0, 0.3, 0.1).times
    assert times.tolist() == [0.0, 0.1, 0.2, 0.3]
    # A plant step longer than the MPC step is a config error.
    with pytest.raises(ValueError):
        MpcConfig(dt_mpc=0.01, plant_dt=0.02)


@settings(deadline=None, max_examples=200, derandomize=True)
@given(st.floats(1e-9, 1e3), st.floats(1e-4, 1.0))
def test_reference_window_rule(duration, fraction):
    plant_dt = duration * fraction
    times = extract_reference(mpc.rest_plan(np.zeros(1)), 0.0, duration, plant_dt).times
    n = times.size - 1
    assert times[-1] == duration
    assert times[:-1].tobytes() == (plant_dt * np.arange(n)).tobytes()
    assert (times[:-1] < duration).all() and n * plant_dt >= duration


def test_extract_reference_samples_equal_at_time():
    # Sample k of the reference is traj.at_time(t0 + times[k], order) bit for
    # bit, for positions and velocities, from the start of a plan and from
    # inside it (a replayed window), rest-to-rest or with boundary velocities,
    # and for a degenerate trajectory.
    rng = np.random.default_rng(21)
    grid = PhaseGrid(20)
    basis = build_basis(3, 2)
    trajs = []
    for qd_scale in (0.0, 0.2):
        for _ in range(5):
            q0, qT, qd0, qdT = rng.uniform(0.1, 0.9, (4, 2))
            bc = BoundaryConditions(q0, qd_scale * qd0, qT, qd_scale * qdT)
            x = (q0 + np.outer([0.25, 0.5, 0.75], qT - q0)
                 + rng.normal(scale=0.05, size=(3, 2)))
            trajs.append(synthesize(boundary_half(basis, bc, LIMITS_2D, grid), x))
    rest = BoundaryConditions(q0, np.zeros(2), q0, np.zeros(2))
    trajs.append(direct_plan(rest, LIMITS_2D, grid))
    assert trajs[-1].degenerate
    for traj in trajs:
        for t0, plant_dt in ((0.0, 1e-3), (0.37 * traj.duration, 1e-3),
                             (0.61 * traj.duration, 7e-3)):
            horizon = extract_reference(traj, t0, 0.08, plant_dt)
            for order, rows in enumerate((horizon.q, horizon.qd)):
                want = np.stack([traj.at_time(t0 + t, order) for t in horizon.times])
                assert np.array_equal(rows, want), (t0, order)


def test_extract_short_horizon_holds_the_end_past_duration():
    # A plan shorter than the window: the reference still spans the whole
    # window, and every sample past T is the plan's end state.
    bc = BoundaryConditions([0.0], [0.0], [0.001], [0.0])
    lim = KinodynamicLimits.symmetric(1.0, 50.0, 1)
    traj = direct_plan(bc, lim, PhaseGrid(50))
    assert traj.duration < 0.08
    horizon = extract_reference(traj, 0.0, 0.08, 1e-3)
    assert horizon.times.shape == (81,) and horizon.times[-1] == 0.08
    past = horizon.times > traj.duration
    assert past.sum() > 40
    assert np.all(horizon.q[past] == traj.at_time(traj.duration))
    assert np.all(horizon.qd[past] == traj.at_time(traj.duration, 1))
    np.testing.assert_allclose(horizon.q[-1], [0.001], atol=1e-12)


def test_step_budget_wall_clock():
    world, q0, goal = bundled_world()
    config = MpcConfig()  # wall-clock budget
    row, = run_closed_loop(q0, np.zeros(2), goal, np.zeros(2), LIMITS_2D, config,
                           checker=world, max_steps=1).rows
    assert row["mode"] == "explore" and row["iterations"] >= 1
    per_gen = row["step_seconds"] / row["iterations"]
    assert row["step_seconds"] <= config.dt_mpc + max(2 * per_gen, 0.05)


def test_closed_loop_free_space():
    config = MpcConfig(iterations_per_step=8, seed=0)
    log = run_closed_loop([0.1, 0.1], np.zeros(2), [0.9, 0.9], np.zeros(2),
                          LIMITS_2D, config, max_steps=120)
    assert log.goal_reached
    assert log.rows[-1]["mode"] == "direct"
    assert np.linalg.norm(log.rows[-1]["qd"]) < config.vel_tol + 1e-9


def test_closed_loop_disturbance_recovery():
    config = MpcConfig(iterations_per_step=8, seed=0)
    log = run_closed_loop([0.1, 0.1], np.zeros(2), [0.9, 0.9], np.zeros(2),
                          LIMITS_2D, config, max_steps=150,
                          disturbances={8: np.array([-0.05, 0.2])})
    assert log.goal_reached


@pytest.mark.parametrize("k, dq", [(1, [0.05]), (1, [0.05, 0.0, 0.0]), (1, [np.nan, 0.0]),
                                   (1, [0.0, -np.inf]), (3, [0.05, 0.0]),
                                   (-1, [0.05, 0.0])],
                         ids=[f"dq{i}" for i in range(6)])
def test_closed_loop_rejects_bad_disturbances_before_any_step(k, dq):
    # A (1,) dq used to be broadcast over both axes, a NaN one to fail
    # mid-episode, in the step after it, once earlier steps had run, and one
    # at a step outside range(max_steps) to be ignored.
    steps = []

    def recording_step(*args, **kwargs):
        steps.append(args)
        return greedy_step(*args, **kwargs)

    with pytest.raises(ValueError, match="disturbance"):
        run_closed_loop([0.1, 0.1], np.zeros(2), [0.9, 0.9], np.zeros(2), LIMITS_2D,
                        MpcConfig(), max_steps=3, disturbances={k: np.array(dq)},
                        step=recording_step)
    assert steps == []


def test_a_plant_exactly_goal_tol_from_the_goal_runs_a_step():
    # The goal test is strict: a plant at rest exactly goal_tol = 2**-10 from
    # the goal (a distance with no rounding) is not there yet.
    config = MpcConfig(iterations_per_step=1, pop_size=4, goal_tol=2.0**-10)
    goal = np.array([0.5, 0.5])
    log = run_closed_loop(goal + [2.0**-10, 0.0], np.zeros(2), goal, np.zeros(2),
                          LIMITS_2D, config, max_steps=1)
    assert log.steps == 1


def test_closed_loop_defaults():
    # The CLI's max_steps default is MAX_STEPS; it leaves the lag time
    # constant to LagPlant's default.
    assert inspect.signature(run_closed_loop).parameters["max_steps"].default == 150
    assert LagPlant([0.0], [0.0]).time_constant == 0.05


def test_closed_loop_lag_plant():
    config = MpcConfig(iterations_per_step=8, seed=0, goal_tol=0.02,
                       vel_tol=0.05)
    log = run_closed_loop([0.1, 0.1], np.zeros(2), [0.9, 0.9], np.zeros(2),
                          LIMITS_2D, config, max_steps=200,
                          plant=lambda q, qd: LagPlant(q, qd, time_constant=0.01))
    assert log.goal_reached


def test_closed_loop_calls_mpc_step_by_name(monkeypatch):
    # viabench captures each step by patching viaplan.mpc.mpc_step, so the
    # default step must be looked up when the loop runs.
    import viaplan.mpc as mpc

    calls = []

    def counting_step(*args, **kwargs):
        calls.append(mpc_step(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(mpc, "mpc_step", counting_step)
    log = run_closed_loop([0.1, 0.1], np.zeros(2), [0.9, 0.9], np.zeros(2),
                          LIMITS_2D, MpcConfig(iterations_per_step=2, pop_size=8),
                          max_steps=3)
    assert len(calls) == len(log.rows) == 3


def test_episode_steps_count_rows_when_budget_runs_out():
    # Too few steps to reach the goal: every step ran and wrote a row.
    config = MpcConfig(iterations_per_step=2, pop_size=8, seed=0)
    for step in (mpc_step, greedy_step):
        log = run_closed_loop([0.1, 0.1], np.zeros(2), [0.9, 0.9], np.zeros(2),
                              LIMITS_2D, config, max_steps=3, step=step)
        assert not log.goal_reached
        assert log.steps == len(log.rows) == 3


def test_greedy_goal_checked_after_last_step():
    # Start within one greedy step of the goal: the single allowed step
    # reaches it, and only the check after the loop can see that.
    config = MpcConfig(seed=0)
    q0 = np.array([0.5, 0.5])
    goal = np.array([0.501, 0.5])
    log = run_closed_loop(q0, np.zeros(2), goal, np.zeros(2), LIMITS_2D,
                          config, max_steps=1, step=greedy_step)
    assert log.steps == len(log.rows) == 1
    assert log.goal_reached
    assert log.rows[0]["mode"] == "greedy" and log.rows[0]["iterations"] == 0


def test_failed_greedy_step_holds_or_replays():
    # A failed greedy step used to leave the plant as it was: q stood still
    # while qd kept its last nonzero value.  Now the closed loop replays the
    # last valid greedy motion past its first step, and holds at zero
    # velocity once that motion has run out.
    config = MpcConfig(seed=0)
    results = []

    def recording_step(*args, **kwargs):
        results.append(greedy_step(*args, **kwargs))
        return results[-1]

    log = run_closed_loop([0.1, 0.5], np.zeros(2), [0.9, 0.5], np.zeros(2),
                          LIMITS_2D, config, checker=bundled_world()[0],
                          max_steps=40, step=recording_step)
    assert len(results) == len(log.rows)
    replayed = held = 0
    prev_q, last_valid, since = np.array([0.1, 0.5]), None, 0
    for row, result in zip(log.rows, results):
        assert result.mode == "greedy" and result.report is None
        assert result.iterations_run == 0 and row["step_seconds"] > 0.0
        if result.valid:
            last_valid, since = result.solution, 0
        else:
            assert not row["valid"]
            since += 1
            if last_valid is not None and since * config.dt_mpc < last_valid.duration:
                t_end = min((since + 1) * config.dt_mpc, last_valid.duration)
                np.testing.assert_allclose(row["q"], last_valid.at_time(t_end),
                                           rtol=0, atol=1e-9)
                np.testing.assert_allclose(row["qd"], last_valid.at_time(t_end, 1),
                                           rtol=0, atol=1e-9)
                replayed += 1
            else:
                np.testing.assert_array_equal(row["q"], prev_q)
                assert np.all(row["qd"] == 0.0)
                held += 1
        prev_q = row["q"]
    assert replayed > 0 and held > 0


def test_invalid_step_with_nothing_to_replay_runs_its_own_reference():
    # With no valid plan to replay, the plant runs the invalid step's own
    # reference, and holds at zero velocity only when the step has no
    # solution.  Pinned: holding instead would change the episode CSVs.
    config = MpcConfig(iterations_per_step=2, pop_size=8, seed=0)
    results = []

    def invalid_step(*args, **kwargs):
        result = mpc_step(*args, **kwargs)
        result.valid = False
        if len(results) % 2:
            result.solution = result.report = None
        results.append(result)
        return result

    log = run_closed_loop([0.1, 0.1], np.zeros(2), [0.9, 0.9], np.zeros(2),
                          LIMITS_2D, config, max_steps=4, step=invalid_step)
    assert len(results) == len(log.rows) == 4
    prev_q = np.array([0.1, 0.1])
    for row, result in zip(log.rows, results):
        assert not row["valid"]
        if result.solution is None:
            np.testing.assert_array_equal(row["q"], prev_q)
            assert np.all(row["qd"] == 0.0)
        else:
            own = extract_reference(result.solution, 0.0, config.dt_mpc, config.plant_dt)
            np.testing.assert_array_equal(row["q"], own.q[-1])
            np.testing.assert_array_equal(row["qd"], own.qd[-1])
            assert not np.array_equal(row["q"], prev_q)
        prev_q = row["q"]


def test_loop_samples_one_reference_per_step_inside_its_time(monkeypatch):
    # The loop extracts one reference per step, from the plan it picked, and
    # a row's step_seconds covers that extraction.  A hold is a plan too, the
    # degenerate one at the plant's position, and is sampled the same way.  A
    # replay step used to extract its own reference in the step and then the
    # replay, and the replay's extraction went untimed; a hold used to build
    # its two-sample reference by hand.
    config = MpcConfig(iterations_per_step=2, pop_size=8, seed=0)
    calls, entries, results, built = [], [], [], []
    sleep = 0.002
    real_extract, real_horizon = mpc.extract_reference, mpc.ShortHorizon

    def slow_extract(*args):
        calls.append(args)
        time.sleep(sleep)
        return real_extract(*args)

    def counted_horizon(**fields):
        built.append(fields)
        return real_horizon(**fields)

    def step(problem, *args):
        # Step 0 is invalid with a plan (its own plan runs), step 1 invalid
        # without one (a hold), step 2 valid, and every later step invalid
        # with a plan, so the last valid plan is replayed.
        entries.append(len(calls))
        result = mpc_step(problem, *args)
        result.valid = len(results) == 2
        if len(results) == 1:
            result.solution = result.report = None
        results.append(result)
        return result

    monkeypatch.setattr(mpc, "extract_reference", slow_extract)
    monkeypatch.setattr(mpc, "ShortHorizon", counted_horizon)
    log = run_closed_loop([0.1, 0.1], np.zeros(2), [0.9, 0.9], np.zeros(2), LIMITS_2D,
                          config, max_steps=7, step=step)
    assert len(results) == len(log.rows) == 7
    assert list(np.diff(entries + [len(calls)])) == [1] * 7
    assert len(built) == len(calls)   # every reference is extract_reference's
    plan = results[2].solution
    assert plan.duration > 5 * config.dt_mpc
    for k, row in enumerate(log.rows):
        assert row["step_seconds"] >= sleep
        traj, t0, duration, plant_dt = calls[entries[k]]
        assert (duration, plant_dt) == (config.dt_mpc, config.plant_dt)
        if k >= 2:
            assert traj is plan and t0 == (k - 2) * config.dt_mpc
        elif k == 1:
            assert traj.degenerate and t0 == 0.0
            assert np.array_equal(traj.bc.q0, log.rows[0]["q"])
            assert np.array_equal(row["q"], log.rows[0]["q"])
            assert np.all(row["qd"] == 0.0) and not np.signbit(row["qd"]).any()
        else:
            assert traj is results[k].solution and t0 == 0.0


def test_every_plant_horizon_spans_one_step():
    # The plant advances by exactly dt_mpc on a valid step's reference, on
    # each replayed window of the last valid plan (the last one reaching past
    # the plan's end), on a hold, and on an invalid step's own reference.
    # A window used to end at the plan's end, so a lag plant near the goal
    # ran a few ms per 80 ms step.
    config = MpcConfig(iterations_per_step=2, pop_size=8, seed=0)
    spans, results = [], []

    class SpyPlant(ExactPlant):
        def advance(self, horizon):
            spans.append(horizon.times[-1])
            super().advance(horizon)

    disturb_at = 16
    q0, qT, waypoint = np.array([0.1, 0.5]), np.array([0.9, 0.5]), np.array([0.3, 0.5])

    def step(problem, *args):
        # Plans end at the waypoint, short of the goal, so the episode runs on.
        bc = problem.bc
        result = mpc_step(dataclasses.replace(problem, bc=BoundaryConditions(
            bc.q0, bc.qd0, waypoint, bc.qdT)), *args)
        if results:
            # Invalid from here on: the first plan is replayed, then held;
            # after the disturbance the step runs its own plan once.
            result.valid = False
            if len(results) != disturb_at:
                result.solution = result.report = None
        results.append(result)
        return result

    log = run_closed_loop(q0, np.zeros(2), qT, np.zeros(2), LIMITS_2D, config,
                          max_steps=disturb_at + 2, plant=SpyPlant,
                          disturbances={disturb_at: np.zeros(2)}, step=step)
    plan = results[0].solution
    replays = int(np.ceil(plan.duration / config.dt_mpc)) - 1
    assert 0 < plan.duration % config.dt_mpc < config.dt_mpc
    assert 2 <= replays < disturb_at - 2
    assert log.steps == len(spans) == disturb_at + 2
    assert spans == [config.dt_mpc] * len(spans)
    np.testing.assert_array_equal(log.rows[replays]["q"], plan.at_time(plan.duration))
    for row in log.rows[replays + 1:disturb_at]:
        np.testing.assert_array_equal(row["q"], log.rows[replays]["q"])
        assert np.all(row["qd"] == 0.0)
    assert results[disturb_at].solution is not None


def test_a_replay_that_reaches_the_plan_end_exactly_holds(monkeypatch):
    # A valid plan of exactly two steps runs for one step and is replayed for
    # one; the next replay would start at its end, so the plant holds.  In
    # binary fractions every offset is exact, and the replay sampled from
    # the plan's end (a `>` test against its duration) fails here.
    config = MpcConfig(dt_mpc=2**-4, plant_dt=2**-10, iterations_per_step=1, pop_size=4)
    bc = BoundaryConditions(np.array([0.1, 0.5]), np.zeros(2), np.array([0.2, 0.5]),
                            np.zeros(2))
    plan = Trajectory(build_basis(0, 2), np.zeros((0, 2)), bc, 2 * config.dt_mpc)
    calls = []
    real_extract = mpc.extract_reference

    def spy(traj, t0, *args):
        calls.append((traj, t0))
        return real_extract(traj, t0, *args)

    def step(problem, *args):
        # Step 0 is valid with the plan; every later step has no solution.
        if calls:
            return MpcStepResult(None, None, False, "explore", 0)
        return MpcStepResult(plan, None, True, "direct", 0)

    monkeypatch.setattr(mpc, "extract_reference", spy)
    log = run_closed_loop(bc.q0, bc.qd0, [0.9, 0.5], np.zeros(2), LIMITS_2D, config,
                          max_steps=4, step=step)
    assert log.steps == len(calls) == 4
    assert [(traj is plan, t0) for traj, t0 in calls[:2]] == [(True, 0.0),
                                                              (True, config.dt_mpc)]
    for traj, t0 in calls[2:]:
        assert traj.degenerate and t0 == 0.0
        np.testing.assert_array_equal(traj.bc.q0, bc.qT)


def test_lag_episode_reaches_the_goal(tmp_path):
    # The bundled MPC episode with the lag plant settles at the goal.  Its
    # references used to end at the plan's end, so near the goal the plant
    # ran about 1 ms per step and the episode ran out its 150 steps at exit 1.
    import json

    from viaplan.cli import main

    cfg = json.loads((Path(__file__).parent.parent / "configs" / "mpc2d.json").read_text())
    cfg["mpc"]["plant"] = "lag"
    path = tmp_path / "lag.json"
    path.write_text(json.dumps(cfg))
    assert main(["mpc", str(path), "--out-dir", str(tmp_path), "--quiet"]) == 0
    summary = (tmp_path / "summary.csv").read_text().splitlines()[1].split(",")
    assert summary[0] == "true" and int(summary[1]) < 150


def test_short_horizon_fields():
    # A reference holds what the plants read: times, positions, velocities.
    assert [f.name for f in dataclasses.fields(mpc.ShortHorizon)] == ["times", "q", "qd"]


def test_exact_plant_advances_to_horizon_end():
    plant = ExactPlant([0.0, 0.0], [0.0, 0.0])
    from viaplan.mpc import ShortHorizon
    horizon = ShortHorizon(times=np.array([0.0, 0.01]),
                           q=np.array([[0.0, 0.0], [0.1, 0.2]]),
                           qd=np.array([[0.0, 0.0], [0.3, 0.0]]))
    plant.advance(horizon)
    np.testing.assert_allclose(plant.q, [0.1, 0.2])
    np.testing.assert_allclose(plant.qd, [0.3, 0.0])
