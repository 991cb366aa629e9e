"""Cost-term formulas, validity rules and invalid-candidate dominance."""

import numpy as np
import pytest

from viaplan.costs import CostWeights, cost_collision, cost_jla
from viaplan.spline import BoundaryConditions, build_basis, smoothness_cost
from viaplan.timing import KinodynamicLimits, PhaseGrid, boundary_half, synthesize
from viaplan.worlds import World2D

from conftest import direct_plan, evaluate_trajectories


def make_limits(q_min, q_max, dof=1):
    return KinodynamicLimits.symmetric(1.0, 1.0, dof, q_range=(q_min, q_max))


def test_weights_validation():
    with pytest.raises(ValueError):
        CostWeights(duration=-1.0)
    with pytest.raises(ValueError):
        CostWeights(smooth=float("nan"))
    for penalty in (0.0, -1e6, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="invalid_penalty"):
            CostWeights(invalid_penalty=penalty)


def test_cost_duration_identity():
    # The duration term is the trajectory's duration, before its weight: with
    # smoothness weighted 0 and no position limit or checker, the total is
    # the weighted duration.
    bc = BoundaryConditions([0.0], [0.0], [1.0], [0.0])
    lim = KinodynamicLimits.symmetric(0.1, 0.2, 1)
    traj = direct_plan(bc, lim, PhaseGrid(50))
    report, = evaluate_trajectories([traj], CostWeights(duration=2.0, smooth=0.0),
                                    lim, PhaseGrid(50))
    assert report.total == 2.0 * traj.duration
    assert abs(traj.duration - 15.0) < 1e-9


def stacked(*grids):
    """Grid positions of several trajectories, stacked to (M, K+1, D)."""
    return np.stack([np.atleast_2d(np.asarray(q, dtype=float)) for q in grids])


def test_jla_upper_violation():
    cost, count = cost_jla(stacked([[0.0], [3.0], [0.5]]), make_limits(-2.8, 2.8))
    assert abs(cost[0] - 1.2) < 1e-12
    assert count.tolist() == [1]


def test_jla_lower_violation():
    cost, count = cost_jla(stacked([[0.0], [-3.1], [0.5]]), make_limits(-2.8, 2.8))
    assert abs(cost[0] - 1.3) < 1e-12
    assert count.tolist() == [1]


def test_jla_interior_is_zero():
    cost, count = cost_jla(stacked([[0.1], [2.0], [-2.0]]), make_limits(-2.8, 2.8))
    assert cost.tolist() == [0.0] and count.tolist() == [0]


def test_jla_is_per_trajectory():
    cost, count = cost_jla(stacked([[0.0], [3.0], [0.5]], [[0.1], [2.0], [-2.0]],
                                   [[-3.1], [-3.1], [2.9]]),
                           make_limits(-2.8, 2.8))
    np.testing.assert_allclose(cost, [1.2, 0.0, 1.3 + 1.3 + 1.1], atol=1e-12)
    assert count.tolist() == [1, 0, 3]
    # The padded block sum agrees with a sum over each trajectory's own
    # violating entries up to rounding in the order of summation.
    q = np.random.default_rng(0).uniform(-3.5, 3.5, (40, 51, 2))
    lim = KinodynamicLimits.symmetric(1.0, 1.0, 2, q_range=(-2.8, 2.8))
    cost, _ = cost_jla(q, lim)
    masked = [np.sum((1.0 + x - lim.q_max)[x >= lim.q_max])
              + np.sum((1.0 + lim.q_min - x)[x <= lim.q_min]) for x in q]
    np.testing.assert_allclose(cost, masked, rtol=1e-13, atol=0)


def test_jla_jump_is_exactly_one():
    cost, count = cost_jla(stacked([[2.8]]), make_limits(-2.8, 2.8))
    assert abs(cost[0] - 1.0) < 1e-12 and count.tolist() == [1]


def test_jla_no_position_bounds():
    lim = KinodynamicLimits.symmetric(1.0, 1.0, 1)
    cost, count = cost_jla(stacked([[1e9]], [[-1e9]]), lim)
    assert cost.tolist() == [0.0, 0.0] and count.tolist() == [0, 0]


def test_collision_count():
    world = World2D(disks=[[0.5, 0.5, 0.1]])
    q = np.array([[0.1, 0.1], [0.5, 0.5], [0.52, 0.5], [0.9, 0.9]])
    free = np.array([[0.1, 0.1], [0.2, 0.2], [0.3, 0.3], [0.9, 0.9]])
    assert cost_collision(stacked(q, free, q[::-1]), world).tolist() == [2, 0, 2]


def test_collision_count_refines_with_grid():
    bc = BoundaryConditions([0.1, 0.5], [0.0, 0.0], [0.9, 0.5], [0.0, 0.0])
    lim = KinodynamicLimits.symmetric(0.5, 2.0, 2)
    world = World2D(disks=[[0.5, 0.5, 0.15]])
    basis = build_basis(0, 2)

    def hits(k):
        traj = synthesize(boundary_half(basis, bc, lim, PhaseGrid(k)), None)
        q, _, _ = traj.sample_grid(PhaseGrid(k))
        return int(cost_collision(q[None], world)[0])

    coarse, fine = hits(40), hits(80)
    assert coarse > 0
    assert abs(fine - 2 * coarse) <= 2


def test_total_weighted_sum_for_valid():
    bc = BoundaryConditions([0.0], [0.0], [1.0], [0.0])
    lim = KinodynamicLimits.symmetric(0.1, 0.2, 1)
    grid = PhaseGrid(50)
    traj = direct_plan(bc, lim, grid)
    weights = CostWeights(duration=1.0, smooth=0.01, jla=1.0, collision=1.0)
    report, = evaluate_trajectories([traj], weights, lim, grid)
    expected = traj.duration + 0.01 * smoothness_cost(traj.basis, traj.q_via,
                                                      bc, traj.duration)
    assert report.valid
    assert abs(report.total - expected) < 1e-9


def test_invalid_gets_penalty():
    world = World2D(disks=[[0.5, 0.5, 0.2]])
    bc = BoundaryConditions([0.1, 0.5], [0.0, 0.0], [0.9, 0.5], [0.0, 0.0])
    lim = KinodynamicLimits.symmetric(0.5, 2.0, 2)
    grid = PhaseGrid(50)
    traj = direct_plan(bc, lim, grid)
    report, = evaluate_trajectories([traj], CostWeights(), lim, grid, checker=world)
    assert not report.valid
    assert report.total >= CostWeights().invalid_penalty
    # With every term weighted 0, the total is the penalty plus the number of
    # colliding grid points.
    hits = np.count_nonzero(world.colliding_mask(traj.sample_grid(grid)[0]))
    zero = CostWeights(duration=0.0, smooth=0.0, jla=0.0, collision=0.0)
    report, = evaluate_trajectories([traj], zero, lim, grid, checker=world)
    assert hits > 0 and report.total == zero.invalid_penalty + hits


def test_invalid_dominance_over_population():
    rng = np.random.default_rng(13)
    world = World2D(disks=[[0.5, 0.5, 0.12]])
    bc = BoundaryConditions([0.1, 0.5], [0.0, 0.0], [0.9, 0.5], [0.0, 0.0])
    lim = KinodynamicLimits.symmetric(0.5, 2.0, 2)
    grid = PhaseGrid(50)
    boundary = boundary_half(build_basis(3, 2), bc, lim, grid)
    trajs = [synthesize(boundary, bc.q0 + np.outer([0.25, 0.5, 0.75], bc.qT - bc.q0)
                        + rng.normal(scale=0.3, size=(3, 2)))
             for _ in range(60)]
    valid_totals, invalid_totals = [], []
    for report in evaluate_trajectories(trajs, CostWeights(), lim, grid, checker=world):
        (valid_totals if report.valid else invalid_totals).append(report.total)
    assert valid_totals and invalid_totals
    assert max(valid_totals) < min(invalid_totals)


def test_report_deterministic():
    bc = BoundaryConditions([0.0], [0.0], [1.0], [0.0])
    lim = KinodynamicLimits.symmetric(0.1, 0.2, 1)
    grid = PhaseGrid(50)
    traj = synthesize(boundary_half(build_basis(2, 1), bc, lim, grid), [[0.3], [0.7]])
    r1, = evaluate_trajectories([traj], CostWeights(), lim, grid)
    r2, = evaluate_trajectories([traj], CostWeights(), lim, grid)
    assert r1 == r2
