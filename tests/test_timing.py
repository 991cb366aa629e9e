"""Minimal-duration synthesis: closed forms, saturation, and a bisection oracle."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viaplan.mpc import extract_reference
from viaplan.optimizer import build_prior
from viaplan.spline import BoundaryConditions, build_basis
from viaplan.timing import (BoundaryLanes, InfeasibleError, KinodynamicLimits,
                            PhaseGrid, Trajectory, boundary_half, min_duration,
                            synthesize)
from viaplan.worlds import Disk, Rect, bundled_cluttered_world

from conftest import direct_plan


def duration_of(basis, q_via, bc, limits, grid):
    """min_duration through a boundary half built for this call alone."""
    return min_duration(boundary_half(basis, bc, limits, grid), q_via)


def min_duration_at_point(a, b, c, d, limits):
    """The two halves of the duration kernel on one evaluation point of a
    1-DoF trajectory."""
    a, b, c, d = (np.array([[v]]) for v in (a, b, c, d))
    return BoundaryLanes.from_splits(b, d, limits).duration(a, c)


def admissible(basis, q_via, bc, limits, grid, duration, slack=1e-9):
    """Check grid-point velocity and acceleration bounds for a trial duration."""
    _, (e1, e2, _) = basis.grid_matrices(grid.n_points)
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
    # An unbounded velocity or acceleration bound, on either side, would let
    # every move take zero time; unbounded positions are fine.
    for i in range(4):
        for inf in (-np.inf, np.inf):
            bounds = [[-0.1], [0.1], [-1.0], [1.0]]
            bounds[i] = [inf]
            with pytest.raises(ValueError):
                KinodynamicLimits(*bounds)
    with pytest.raises(ValueError, match="must be finite"):
        KinodynamicLimits.symmetric(np.inf, np.inf, 2)
    lim = KinodynamicLimits.symmetric(0.5, 2.0, 2, q_range=(-np.inf, np.inf))
    assert np.all(np.isinf(lim.q_max))
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
    t = duration_of(basis, None, bc, lim, PhaseGrid(100))
    # Velocity binds at s = 1/2 (peak slope 1.5); acceleration alone would
    # allow sqrt(30).
    assert abs(t - 15.0) < 1e-9
    oracle = bisect_duration(basis, np.zeros((0, 1)), bc, lim, PhaseGrid(100))
    assert abs(t - oracle) < 1e-6


def test_direct_rest_degenerate():
    bc = BoundaryConditions([0.3], [0.0], [0.3], [0.0])
    lim = KinodynamicLimits.symmetric(0.1, 0.2, 1)
    traj = direct_plan(bc, lim, PhaseGrid(50))
    assert traj.duration == 0.0
    assert traj.degenerate
    np.testing.assert_allclose(traj.at_time(0.0), [0.3])
    np.testing.assert_allclose(traj.at_time(1.0, order=1), [0.0])


@settings(deadline=None, max_examples=60, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(2, 60))
def test_move_at_rest_is_degenerate(seed, dof, k):
    # q0 == qT with zero boundary velocities: the clamped cubic stands still,
    # so its duration is 0.0 exactly, although E1 U_a and E2 U_a round to
    # about 1e-16 and gave about 1.5e-8 s for every 2-DoF point.  Via-points
    # at q0 stand still too; one via-point off q0, or a boundary velocity,
    # moves.
    rng = np.random.default_rng(seed)
    q = rng.uniform(-2.0, 2.0, dof)
    if rng.random() < 0.2:
        q[rng.random(dof) < 0.5] = -0.0
    rest = np.zeros(dof)
    bc = BoundaryConditions(q, rest, q.copy(), rest)
    lim = KinodynamicLimits.symmetric(rng.uniform(0.1, 2.0), rng.uniform(0.1, 4.0), dof)
    grid = PhaseGrid(k)
    traj = direct_plan(bc, lim, grid)
    assert traj.duration == 0.0 and traj.degenerate
    n_via = int(rng.integers(1, 5))
    boundary = boundary_half(build_basis(n_via, dof), bc, lim, grid)
    assert synthesize(boundary, np.tile(q, (n_via, 1))).duration == 0.0
    off = np.tile(q, (n_via, 1))
    off[rng.integers(n_via), rng.integers(dof)] += 0.1
    assert synthesize(boundary, off).duration > 0.0
    moving = rest.copy()
    moving[rng.integers(dof)] = 0.5 * lim.qd_max[0]
    for vels in ((moving, rest), (rest, moving)):
        assert direct_plan(BoundaryConditions(q, vels[0], q, vels[1]),
                                 lim, grid).duration > 0.0


def test_zero_duration_rests_at_q0():
    # Duration 0.0 alone makes a trajectory degenerate, however it was built:
    # every evaluator gives q0 at rest and none divides by the duration.
    rng = np.random.default_rng(5)
    bc = BoundaryConditions(*rng.standard_normal((4, 2)))
    traj = Trajectory(build_basis(2, 2), rng.standard_normal((2, 2)), bc, 0.0)
    assert traj.degenerate
    rest = (bc.q0, np.zeros(2), np.zeros(2))
    s = np.linspace(0.0, 1.0, 7)
    for order in range(3):
        assert np.array_equal(traj.evaluate(0.4, order), rest[order])
        assert np.array_equal(traj.evaluate(s, order), np.tile(rest[order], (7, 1)))
        assert np.array_equal(traj.at_time(0.5, order), rest[order])
    for order, values in enumerate(traj.sample_grid(PhaseGrid(4))):
        assert np.array_equal(values, np.tile(rest[order], (5, 1)))
    horizon = extract_reference(traj, 0.0, 0.08, 1e-3)
    assert np.array_equal(horizon.times, [0.0])
    assert np.array_equal(horizon.q, [bc.q0])
    assert np.array_equal(horizon.qd, np.zeros((1, 2)))


def test_synthesized_profile_matches_cubic():
    bc = BoundaryConditions([0.0], [0.0], [1.0], [0.0])
    lim = KinodynamicLimits.symmetric(0.1, 0.2, 1)
    traj = direct_plan(bc, lim, PhaseGrid(100))
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
    traj = synthesize(boundary_half(basis, bc, lim, grid), q_via)
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
        t = duration_of(basis, q_via, bc, lim, grid)
        oracle = bisect_duration(basis, q_via, bc, lim, grid)
        assert abs(t - oracle) < 1e-6 * max(1.0, oracle)


def test_velocity_limited_scaling():
    # With zero boundary velocities, doubling both limits halves the duration
    # of a velocity-limited instance.
    bc = BoundaryConditions([0.0], [0.0], [1.0], [0.0])
    basis = build_basis(0, 1)
    grid = PhaseGrid(100)
    t1 = duration_of(basis, None, bc, KinodynamicLimits.symmetric(0.1, 0.2, 1), grid)
    t2 = duration_of(basis, None, bc, KinodynamicLimits.symmetric(0.2, 0.4, 1), grid)
    assert abs(t1 - 2.0 * t2) < 1e-9


def test_bang_bang_lower_bound():
    # Any admissible trajectory for the 1D benchmark takes at least 10.5 s.
    rng = np.random.default_rng(19)
    bc = BoundaryConditions([0.0], [0.0], [1.0], [0.0])
    lim = KinodynamicLimits.symmetric(0.1, 0.2, 1)
    grid = PhaseGrid(50)
    for n_via in (1, 3, 8):
        boundary = boundary_half(build_basis(n_via, 1), bc, lim, grid)
        for _ in range(20):
            q_via = np.sort(rng.uniform(-0.2, 1.2, (n_via, 1)), axis=0)
            traj = synthesize(boundary, q_via)
            assert traj.duration >= 10.5 - 1e-9


def test_duration_splits_consistency():
    # b and d = E2 U_b of the boundary half, with a and c from U_a, give the
    # time-domain velocity and acceleration at any duration, and min_duration
    # is the candidate half applied to them.
    rng = np.random.default_rng(2)
    basis = build_basis(3, 2)
    bc = BoundaryConditions(*rng.standard_normal((4, 2)))
    q_via = rng.standard_normal((3, 2))
    grid = PhaseGrid(20)
    lim = KinodynamicLimits.symmetric(5.0, 5.0, 2)
    boundary = boundary_half(basis, bc, lim, grid)
    lanes = boundary.lanes
    u_a, u_b = basis.pack_split(q_via, bc)
    np.testing.assert_array_equal(boundary.tail, u_a[3:])
    _, (e1, e2, _) = basis.grid_matrices(grid.n_points)
    np.testing.assert_array_equal(boundary.e_stack, [e1, e2, e2])
    # E0 and the stack are the basis's cached ones, not copies per boundary.
    e0, e_stack = basis.grid_matrices(grid.n_points)
    assert boundary.e0 is e0 and boundary.e_stack is e_stack
    assert boundary.bc is bc and boundary.limits is lim
    a, b, c, d = e1 @ u_a, e1 @ u_b, e2 @ u_a, e2 @ u_b
    np.testing.assert_array_equal(lanes.vel_hi, lim.qd_max - b)
    np.testing.assert_array_equal(lanes.vel_lo, lim.qd_min - b)
    duration = 3.7
    u = basis.pack(q_via, bc, duration)
    np.testing.assert_allclose(a / duration + b, e1 @ u / duration, atol=1e-9)
    np.testing.assert_allclose(c / duration**2 + d / duration,
                               e2 @ u / duration**2, atol=1e-9)
    assert min_duration(boundary, q_via) == lanes.duration(a, c)


def test_a_duration_whose_square_overflows_evaluates():
    # qd_max = 1e-300 synthesizes T of about 8e299 s, and T**2 of a duration
    # of 1e200 already overflows a float: evaluate and at_time divide by inf
    # there, so accelerations come out zero, and positions and velocities
    # stay those of the spline.
    bc = BoundaryConditions([0.1, 0.5], [0.0, 0.0], [0.9, 0.5], [0.0, 0.0])
    basis = build_basis(2, 2)
    q_via = np.array([[0.3, 0.6], [0.6, 0.4]])
    traj = Trajectory(basis, q_via, bc, 1e200)
    grid = PhaseGrid(10)
    q, qd, qdd = traj.sample_grid(grid)
    u = basis.pack(q_via, bc, 1e200)
    np.testing.assert_array_equal(q, basis.eval_matrix(grid.points, 0) @ u)
    np.testing.assert_array_equal(qd, basis.eval_matrix(grid.points, 1) @ u / 1e200)
    assert (qdd == 0.0).all()
    for order, values in enumerate((q, qd, qdd)):
        at = traj.at_time(grid.points * 1e200, order)
        np.testing.assert_allclose(at, values, rtol=1e-12, atol=0.0)
        assert traj.at_time(5e199, order).shape == (2,)


EXTREME_BC = BoundaryConditions([0.1, 0.5], [0.0, 0.0], [0.9, 0.5], [0.0, 0.0])
EXTREME_VIA = np.array([[0.3, 0.6], [0.6, 0.4]])


@pytest.mark.parametrize("qdd_max", [1e300, 1e307, 1e308])
def test_an_overflowing_discriminant_keeps_its_acceleration_roots(qdd_max):
    # With qd_max 1e300 only the acceleration lanes bound this rest-to-rest
    # move, whose duration then scales as 1/sqrt(qdd_max).  At 1e307
    # c * 4 qdd_max overflows, and at 1e308 4 qdd_max itself: those lanes
    # used to be dropped, for a duration that broke qdd_max.
    basis, grid = build_basis(2, 2), PhaseGrid(20)
    unit = duration_of(basis, EXTREME_VIA, EXTREME_BC,
                       KinodynamicLimits.symmetric(1e300, 1.0, 2), grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = synthesize(boundary_half(basis, EXTREME_BC,
                                        KinodynamicLimits.symmetric(1e300, qdd_max, 2),
                                        grid), EXTREME_VIA)
    assert traj.duration == pytest.approx(unit / np.sqrt(qdd_max), rel=1e-12)
    _, _, qdd = traj.sample_grid(grid)
    assert 0.99 * qdd_max < np.abs(qdd).max() <= qdd_max * (1.0 + 1e-12)


def test_an_overflowing_velocity_lane_gives_the_duration_of_one_that_does_not():
    # At qd_max 1e300 a velocity lane's quotient overflows to the correctly
    # rounded inf.  The candidate is recomputed with overflows ignored, so
    # it warns of nothing and gets the duration that a lower qd_max, whose
    # lanes stay finite and which the velocity lanes do not bound either,
    # gives.
    basis, grid = build_basis(2, 2), PhaseGrid(20)
    boundary = boundary_half(basis, EXTREME_BC, KinodynamicLimits.symmetric(1e300, 2.0, 2),
                             grid)
    ac = boundary.e_stack @ np.concatenate((EXTREME_VIA, boundary.tail))
    with np.errstate(over="raise", divide="ignore"), pytest.raises(FloatingPointError):
        boundary.lanes.vel_hi / ac[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        duration = min_duration(boundary, EXTREME_VIA)
    assert duration == duration_of(basis, EXTREME_VIA, EXTREME_BC,
                                   KinodynamicLimits.symmetric(1e3, 2.0, 2), grid)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(0, 4), st.integers(1, 3),
       st.sampled_from([1e-300, 1e-3, 1.0, 1e3, 1e300]))
def test_wide_roots_are_the_plain_roots_where_nothing_overflows(seed, n_via, dof, qdd):
    # The path an overflowing candidate takes gives the bits of the plain
    # path on every lane of a candidate that does not overflow.
    rng = np.random.default_rng(seed)
    basis = build_basis(n_via, dof)
    bc = BoundaryConditions(rng.uniform(0.0, 1.0, dof), rng.uniform(-0.2, 0.2, dof),
                            rng.uniform(0.0, 1.0, dof), rng.uniform(-0.2, 0.2, dof))
    boundary = boundary_half(basis, bc, KinodynamicLimits.symmetric(1.0, qdd, dof),
                             PhaseGrid(int(rng.integers(2, 40))))
    pts = rng.uniform(0.0, 1.0, (n_via, dof))
    ac = boundary.e_stack @ np.concatenate((pts, boundary.tail))
    with np.errstate(divide="ignore", invalid="ignore"):
        try:
            with np.errstate(over="raise"):
                plain = boundary.lanes._roots(ac[0], ac[1:], wide=False)
        except FloatingPointError:
            return
        wide = boundary.lanes._roots(ac[0], ac[1:], wide=True)
    np.testing.assert_array_equal(wide.view(np.int64), plain.view(np.int64))


def test_a_duration_whose_reciprocal_overflows_is_infeasible():
    # At qd_max 1e-310 the smallest x is about 1e-311, whose reciprocal
    # overflows: synthesize used to return T = inf.  At 1e-300 T is finite.
    basis, grid = build_basis(2, 2), PhaseGrid(20)
    for qd_max in (1e-310, 5e-324):
        boundary = boundary_half(basis, EXTREME_BC,
                                 KinodynamicLimits.symmetric(qd_max, 2.0, 2), grid)
        with pytest.raises(InfeasibleError, match="overflows"):
            synthesize(boundary, EXTREME_VIA)
    assert 1e299 < duration_of(basis, EXTREME_VIA, EXTREME_BC,
                               KinodynamicLimits.symmetric(1e-300, 2.0, 2), grid) < np.inf


@pytest.mark.parametrize("duration", [-1.0, -1e-300, np.nan, np.inf, -np.inf])
def test_trajectory_takes_only_a_finite_non_negative_duration(duration):
    # Only evaluate used to reject a negative duration, and only for orders
    # 1 and 2: at_time(0.5, 1) of T = -1 returned [-0.], and a NaN duration
    # ended in an IndexError inside eval_matrix.
    bc = BoundaryConditions([0.0], [0.0], [1.0], [0.0])
    with pytest.raises(ValueError, match="finite non-negative duration"):
        Trajectory(build_basis(1, 1), [[0.5]], bc, duration)


def test_limits_are_read_only_copies():
    qd = np.array([1.0, 2.0])
    lim = KinodynamicLimits(-qd, qd, -qd, qd, q_min=-qd, q_max=qd)
    qd[0] = 9.0
    assert lim.qd_max[0] == 1.0 and lim.q_max[0] == 1.0
    for name in ("qd_min", "qd_max", "qdd_min", "qdd_max", "q_min", "q_max"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(lim, name)[0] = 0.5


@pytest.mark.parametrize("make", [
    lambda line: np.full_like(line, np.nan),
    lambda line: np.where([[True, False], [False, False]], np.nan, line),
    lambda line: np.where([[False, True], [False, False]], np.nan, line),
    lambda line: np.where([[False, False], [True, False]], np.inf, line),
    lambda line: np.where([[False, False], [False, True]], -np.inf, line),
], ids=["all_nan", "nan_x", "nan_y", "inf_x", "minus_inf_y"])
def test_non_finite_via_points_have_no_duration(make):
    # All-NaN via-points used to take 0.0 s and a NaN x coordinate 5.2e-8 s,
    # because the kernel skips the NaN lanes they reach.
    bc = BoundaryConditions([0.1, 0.5], [0.0, 0.0], [0.9, 0.5], [0.0, 0.0])
    lim = KinodynamicLimits.symmetric(0.5, 2.0, 2)
    boundary = boundary_half(build_basis(2, 2), bc, lim, PhaseGrid(20))
    line = bc.q0 + np.outer([1.0 / 3.0, 2.0 / 3.0], bc.qT - bc.q0)
    assert min_duration(boundary, line) > 0.0
    for call in (min_duration, synthesize):
        with pytest.raises(InfeasibleError, match="via-points must be finite"):
            call(boundary, make(line))

def test_boundary_arrays_are_read_only():
    # A slip that writes into a shared array raises instead of changing what
    # every later candidate of the boundary sees.
    bc = BoundaryConditions([0.1, 0.5], [0.2, 0.0], [0.9, 0.5], [0.0, -0.1])
    basis = build_basis(3, 2)
    lim = KinodynamicLimits.symmetric(0.5, 2.0, 2)
    boundary = boundary_half(basis, bc, lim, PhaseGrid(12))
    lanes = boundary.lanes
    arrays = {name: value for name, value in vars(lanes).items()
              if isinstance(value, np.ndarray)}
    assert len(arrays) == 8
    arrays["tail"] = boundary.tail
    arrays["e_stack"] = boundary.e_stack
    arrays["E0"], arrays["E1_E2_E2"] = basis.grid_matrices(13)
    for name, arr in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            arr += 1.0
    for name in ("r4", "neg_half_d", "neg_half_sign", "neg_r", "d2", "x_lin"):
        assert arrays[name].shape == (2, 13, 2), name
        assert arrays[name].flags.c_contiguous, name


def test_boundaries_on_one_basis_keep_their_own_durations():
    # Boundaries for two bcs, two limits and two grids on one basis, used
    # interleaved, each give the durations of a boundary built alone.
    rng = np.random.default_rng(11)
    basis = build_basis(2, 1)
    bcs = [BoundaryConditions([0.0], [0.1], [1.0], [0.0]),
           BoundaryConditions([0.0], [0.2], [1.0], [0.0])]
    lims = [KinodynamicLimits.symmetric(0.5, 1.0, 1),
            KinodynamicLimits.symmetric(0.7, 0.8, 1)]
    grids = [PhaseGrid(10), PhaseGrid(17)]
    keys = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    boundaries = [boundary_half(basis, bcs[i], lims[j], grids[k]) for i, j, k in keys]
    cands = rng.uniform(0.0, 1.0, (6, 2, 1))
    got = [[min_duration(b, x) for b in boundaries] for x in cands]
    for row, x in zip(got, cands):
        alone = [duration_of(basis, x, bcs[i], lims[j], grids[k]) for i, j, k in keys]
        assert row == alone
    # No two of the boundaries give the same durations.
    assert len({tuple(col) for col in zip(*got)}) == len(keys)


def _boundary():
    bc = BoundaryConditions([0.1, 0.5], [0.0, 0.0], [0.9, 0.5], [0.0, 0.0])
    return boundary_half(build_basis(2, 2), bc, KinodynamicLimits.symmetric(0.5, 2.0, 2),
                         PhaseGrid(10))


@pytest.mark.parametrize("make", [
    bundled_cluttered_world,
    lambda: Disk([0.5, 0.5], 0.1),
    lambda: Rect([0.2, 0.2], [0.4, 0.6]),
    lambda: BoundaryConditions([0.1, 0.5], [0.0, 0.0], [0.9, 0.5], [0.0, 0.0]),
    lambda: KinodynamicLimits.symmetric(0.5, 2.0, 2, q_range=(0.0, 1.0)),
    lambda: synthesize(_boundary(), np.full((2, 2), 0.5)),
    _boundary,
    lambda: _boundary().lanes,
    lambda: build_prior(build_basis(3, 2)),
], ids=["World2D", "Disk", "Rect", "BoundaryConditions", "KinodynamicLimits",
        "Trajectory", "Boundary", "BoundaryLanes", "SmoothnessPrior"])
def test_array_dataclasses_compare_and_hash_by_identity(make):
    # Frozen dataclasses with array fields: an equal copy is another object.
    a, b = make(), make()
    assert a == a and a != b
    keys = {a: "a", b: "b"}
    assert keys[a] == "a" and keys[b] == "b"
