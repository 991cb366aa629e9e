"""Minimal-duration synthesis: closed forms, saturation, and a bisection oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viaplan.spline import BoundaryConditions, build_basis
from viaplan.timing import (BoundaryLanes, InfeasibleError, KinodynamicLimits,
                            PhaseGrid, boundary_half, min_duration, synthesize,
                            synthesize_direct)


def min_duration_at_point(a, b, c, d, limits):
    """The two halves of the duration kernel on one evaluation point of a
    1-DoF trajectory."""
    a, b, c, d = (np.array([[v]]) for v in (a, b, c, d))
    return BoundaryLanes.from_splits(b, d, limits).duration(a, c)


def admissible(basis, q_via, bc, limits, grid, duration, slack=1e-9):
    """Check grid-point velocity and acceleration bounds for a trial duration."""
    _, e1, e2 = basis.grid_matrices(grid.n_points)
    u = basis.pack(q_via, bc, duration)
    qd = e1 @ u / duration
    qdd = e2 @ u / duration**2
    return (np.all(qd <= limits.qd_max + slack) and np.all(qd >= limits.qd_min - slack)
            and np.all(qdd <= limits.qdd_max + slack)
            and np.all(qdd >= limits.qdd_min - slack))


def bisect_duration(basis, q_via, bc, limits, grid, t_hi=1e4, tol=1e-8):
    """Brute-force oracle: bisect the smallest admissible duration."""
    if not admissible(basis, q_via, bc, limits, grid, t_hi, slack=0.0):
        raise AssertionError("oracle upper bound too small")
    t_lo = 1e-9
    while t_hi - t_lo > tol:
        mid = 0.5 * (t_lo + t_hi)
        if admissible(basis, q_via, bc, limits, grid, mid, slack=0.0):
            t_hi = mid
        else:
            t_lo = mid
    return t_hi


def test_limits_validation():
    with pytest.raises(ValueError):
        KinodynamicLimits([0.1], [0.2], [-1.0], [1.0])
    with pytest.raises(ValueError):
        KinodynamicLimits([-0.1], [0.1], [-1.0], [1.0], q_min=[0.0], q_max=None)
    lim = KinodynamicLimits.symmetric(0.5, 2.0, 3, q_range=(-1.0, 1.0))
    np.testing.assert_allclose(lim.qd_min, [-0.5] * 3)
    np.testing.assert_allclose(lim.q_max, [1.0] * 3)


def test_phase_grid():
    grid = PhaseGrid(4)
    np.testing.assert_allclose(grid.points, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        PhaseGrid(1)


def test_point_closed_form_velocity_limited():
    lim = KinodynamicLimits.symmetric(0.1, 100.0, 1)
    t = min_duration_at_point(1.5, 0.0, 0.0, 0.0, lim)
    assert abs(t - 15.0) < 1e-12


def test_point_closed_form_acceleration_limited():
    lim = KinodynamicLimits.symmetric(100.0, 0.2, 1)
    t = min_duration_at_point(0.0, 0.0, 6.0, 0.0, lim)
    assert abs(t - np.sqrt(30.0)) < 1e-9


def test_point_closed_form_stationary():
    lim = KinodynamicLimits.symmetric(0.1, 0.2, 1)
    assert min_duration_at_point(0.0, 0.0, 0.0, 0.0, lim) == 0.0


def test_point_infeasible_boundary_velocity():
    lim = KinodynamicLimits.symmetric(0.1, 0.2, 1)
    with pytest.raises(InfeasibleError):
        min_duration_at_point(0.0, 0.5, 0.0, 0.0, lim)


def test_direct_1d_velocity_limited():
    bc = BoundaryConditions([0.0], [0.0], [1.0], [0.0])
    lim = KinodynamicLimits.symmetric(0.1, 0.2, 1)
    basis = build_basis(0, 1)
    t = min_duration(basis, None, bc, lim, PhaseGrid(100))
    # Velocity binds at s = 1/2 (peak slope 1.5); acceleration alone would
    # allow sqrt(30).
    assert abs(t - 15.0) < 1e-9
    oracle = bisect_duration(basis, np.zeros((0, 1)), bc, lim, PhaseGrid(100))
    assert abs(t - oracle) < 1e-6


def test_direct_rest_degenerate():
    bc = BoundaryConditions([0.3], [0.0], [0.3], [0.0])
    lim = KinodynamicLimits.symmetric(0.1, 0.2, 1)
    traj = synthesize_direct(bc, lim, PhaseGrid(50))
    assert traj.duration == 0.0
    assert traj.degenerate
    np.testing.assert_allclose(traj.at_time(0.0), [0.3])
    np.testing.assert_allclose(traj.at_time(1.0, order=1), [0.0])


def test_synthesized_profile_matches_cubic():
    bc = BoundaryConditions([0.0], [0.0], [1.0], [0.0])
    lim = KinodynamicLimits.symmetric(0.1, 0.2, 1)
    traj = synthesize_direct(bc, lim, PhaseGrid(100))
    t = np.linspace(0.0, traj.duration, 31)
    for t_k in t:
        s = t_k / traj.duration
        np.testing.assert_allclose(traj.at_time(t_k), [3 * s**2 - 2 * s**3],
                                   atol=1e-12)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 3))
def test_admissibility_and_saturation(seed, n_via, dof):
    rng = np.random.default_rng(seed)
    basis = build_basis(n_via, dof)
    bc = BoundaryConditions(rng.standard_normal(dof), np.zeros(dof),
                            rng.standard_normal(dof), np.zeros(dof))
    q_via = rng.standard_normal((n_via, dof))
    lim = KinodynamicLimits.symmetric(0.5, 2.0, dof)
    grid = PhaseGrid(50)
    traj = synthesize(basis, q_via, bc, lim, grid)
    if traj.degenerate:
        return
    _, qd, qdd = traj.sample_grid(grid)
    assert np.all(qd <= lim.qd_max + 1e-9) and np.all(qd >= lim.qd_min - 1e-9)
    assert np.all(qdd <= lim.qdd_max + 1e-9) and np.all(qdd >= lim.qdd_min - 1e-9)
    margins = np.concatenate([
        np.abs(qd / lim.qd_max - 1.0).ravel(), np.abs(qd / lim.qd_min - 1.0).ravel(),
        np.abs(qdd / lim.qdd_max - 1.0).ravel(),
        np.abs(qdd / lim.qdd_min - 1.0).ravel()])
    assert np.min(margins) < 1e-6


def test_bisection_oracle_agreement():
    rng = np.random.default_rng(5)
    grid = PhaseGrid(30)
    for _ in range(30):
        n_via, dof = int(rng.integers(0, 4)), int(rng.integers(1, 3))
        basis = build_basis(n_via, dof)
        qd_lim = float(rng.uniform(0.2, 1.0))
        bc = BoundaryConditions(rng.standard_normal(dof),
                                rng.uniform(-0.9, 0.9, dof) * qd_lim,
                                rng.standard_normal(dof),
                                rng.uniform(-0.9, 0.9, dof) * qd_lim)
        q_via = rng.standard_normal((n_via, dof))
        lim = KinodynamicLimits.symmetric(qd_lim, float(rng.uniform(0.5, 4.0)), dof)
        t = min_duration(basis, q_via, bc, lim, grid)
        oracle = bisect_duration(basis, q_via, bc, lim, grid)
        assert abs(t - oracle) < 1e-6 * max(1.0, oracle)


def test_velocity_limited_scaling():
    # With zero boundary velocities, doubling both limits halves the duration
    # of a velocity-limited instance.
    bc = BoundaryConditions([0.0], [0.0], [1.0], [0.0])
    basis = build_basis(0, 1)
    grid = PhaseGrid(100)
    t1 = min_duration(basis, None, bc, KinodynamicLimits.symmetric(0.1, 0.2, 1), grid)
    t2 = min_duration(basis, None, bc, KinodynamicLimits.symmetric(0.2, 0.4, 1), grid)
    assert abs(t1 - 2.0 * t2) < 1e-9


def test_bang_bang_lower_bound():
    # Any admissible trajectory for the 1D benchmark takes at least 10.5 s.
    rng = np.random.default_rng(19)
    bc = BoundaryConditions([0.0], [0.0], [1.0], [0.0])
    lim = KinodynamicLimits.symmetric(0.1, 0.2, 1)
    grid = PhaseGrid(50)
    for n_via in (1, 3, 8):
        basis = build_basis(n_via, 1)
        for _ in range(20):
            q_via = np.sort(rng.uniform(-0.2, 1.2, (n_via, 1)), axis=0)
            traj = synthesize(basis, q_via, bc, lim, grid)
            assert traj.duration >= 10.5 - 1e-9


def test_duration_splits_consistency():
    # b and d from the boundary half, with a and c from U_a, give the
    # time-domain velocity and acceleration at any duration, and min_duration
    # is the candidate half applied to them.
    rng = np.random.default_rng(2)
    basis = build_basis(3, 2)
    bc = BoundaryConditions(*rng.standard_normal((4, 2)))
    q_via = rng.standard_normal((3, 2))
    grid = PhaseGrid(20)
    lim = KinodynamicLimits.symmetric(5.0, 5.0, 2)
    tail, lanes = boundary_half(basis, bc, lim, grid)
    u_a, _ = basis.pack_split(q_via, bc)
    np.testing.assert_array_equal(tail, u_a[3:])
    _, e1, e2 = basis.grid_matrices(grid.n_points)
    a, c = e1 @ u_a, e2 @ u_a
    duration = 3.7
    u = basis.pack(q_via, bc, duration)
    np.testing.assert_allclose(a / duration + lanes.b, e1 @ u / duration, atol=1e-9)
    np.testing.assert_allclose(c / duration**2 + lanes.d / duration,
                               e2 @ u / duration**2, atol=1e-9)
    assert min_duration(basis, q_via, bc, lim, grid) == lanes.duration(a, c)


def test_limits_are_read_only_copies():
    qd = np.array([1.0, 2.0])
    lim = KinodynamicLimits(-qd, qd, -qd, qd, q_min=-qd, q_max=qd)
    qd[0] = 9.0
    assert lim.qd_max[0] == 1.0 and lim.q_max[0] == 1.0
    for name in ("qd_min", "qd_max", "qdd_min", "qdd_max", "q_min", "q_max"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(lim, name)[0] = 0.5


def test_boundary_half_memo_follows_its_key():
    # One entry per basis, keyed by the identity of bc, limits and grid: a
    # new object is a miss even when equal, and the old entry is not served
    # after another key has replaced it.
    basis = build_basis(2, 1)
    bc = BoundaryConditions([0.0], [0.1], [1.0], [0.0])
    lim = KinodynamicLimits.symmetric(0.5, 1.0, 1)
    grid = PhaseGrid(10)
    _, first = boundary_half(basis, bc, lim, grid)
    assert boundary_half(basis, bc, lim, grid)[1] is first
    other_bc = BoundaryConditions([0.0], [0.2], [1.0], [0.0])
    _, second = boundary_half(basis, other_bc, lim, grid)
    assert second is not first and second.b[0, 0] != first.b[0, 0]
    assert boundary_half(basis, bc, lim, PhaseGrid(10))[1] is not first
    assert boundary_half(basis, bc, lim, grid)[1] is not first
