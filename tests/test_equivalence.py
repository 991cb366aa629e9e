"""The population-wide paths against per-item reference code, bit for bit.

Each reference below is a test-local copy of earlier code: per-trajectory
scoring through `Trajectory.sample_grid` (its joint-limit term summed over
each trajectory's padded (K+1, D) block), the two-call acceleration root
finder, the per-candidate duration path that recomputed the boundary parts
for every candidate, the obstacle loop of `World2D.colliding_mask` over
(P, 2) temporaries, and `Trajectory.at_time` per reference sample.  The new
paths must reproduce them exactly (`==`, not a tolerance), because any
rounding difference in a cost can change the ES ranking and hence every
CSV written downstream.  The pre-scaled lanes of the duration kernel, the
joint-limit pass that stops at its masks when no grid point touches a limit,
and the tuple `CostReport` are held to copies of the code they replaced
(the broadcast kernel with separate E1 and E2 products, the two-pass
`cost_jla` and the frozen-dataclass report), on the bits of every float.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from viaplan import planner
from viaplan.costs import CostReport, CostWeights, cost_jla, evaluate_total
from viaplan.mpc import extract_reference
from viaplan.planner import PlanningProblem, evaluate_candidates
from viaplan.spline import BoundaryConditions, build_basis, via_timings
from viaplan.timing import (BoundaryLanes, InfeasibleError, KinodynamicLimits,
                            PhaseGrid, boundary_half, min_duration, synthesize)
from viaplan.worlds import Disk, Rect, World2D

from conftest import is_colliding


def lanes_min_duration(a, b, c, d, limits):
    """Minimal duration over lane arrays through the two halves of the kernel."""
    return BoundaryLanes.from_splits(b, d, limits).duration(a, c)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


# -- reference: per-trajectory scoring ---------------------------------------


def ref_smoothness(traj):
    u = traj.basis.pack(traj.q_via, traj.bc, traj.duration)
    return 0.5 * float(np.einsum("id,ij,jd->", u, traj.basis.gram, u))


def ref_jla(traj, limits, grid):
    if limits.q_min is None:
        return 0.0, 0
    q, _, _ = traj.sample_grid(grid)
    over = q >= limits.q_max
    under = q <= limits.q_min
    # The padded (K+1, D) block sum, zeros where no limit is hit.
    cost = float(np.where(over, 1.0 + q - limits.q_max, 0.0).sum()
                 + np.where(under, 1.0 + limits.q_min - q, 0.0).sum())
    return cost, int(np.count_nonzero(over) + np.count_nonzero(under))


def ref_collision(traj, checker, grid):
    q, _, _ = traj.sample_grid(grid)
    hits = int(np.count_nonzero(checker.colliding_mask(q)))
    return float(hits), hits


def ref_evaluate(traj, weights, limits, grid, checker=None):
    """The per-report loop: one trajectory's terms, then its total."""
    per_term = {"duration": traj.duration,
                "smooth": 0.0 if traj.degenerate else ref_smoothness(traj)}
    violations = 0
    valid = True
    jla, jla_count = ref_jla(traj, limits, grid)
    per_term["jla"] = jla
    violations += jla_count
    valid &= jla_count == 0
    if checker is not None:
        coll, hits = ref_collision(traj, checker, grid)
        per_term["collision"] = coll
        violations += hits
        valid &= hits == 0
    total = (weights.duration * per_term["duration"]
             + weights.smooth * per_term["smooth"]
             + weights.jla * per_term["jla"]
             + weights.collision * per_term.get("collision", 0.0))
    if not valid:
        total += weights.invalid_penalty + violations
    return float(total), per_term, bool(valid), violations


def ref_evaluate_candidates(basis, candidates, problem):
    out = []
    for x in candidates:
        try:
            traj = planner.synthesize(boundary_of(basis, problem), x)
        except InfeasibleError:
            out.append(None)
            continue
        out.append(ref_evaluate(traj, problem.weights, problem.limits,
                                problem.grid, problem.checker))
    return out


def boundary_of(basis, problem):
    return boundary_half(basis, problem.bc, problem.limits, problem.grid)


def assert_same_report(report, ref):
    total, per_term, valid, violations = ref
    assert report.total == total and type(report.total) is float
    assert type(report.violation_count) is int
    assert list(report.per_term) == list(per_term)
    for key, value in per_term.items():
        assert report.per_term[key] == value, key
        assert type(report.per_term[key]) is type(value), key
    assert report.valid is valid
    assert report.violation_count == violations


# -- reference: two-call acceleration roots ----------------------------------


def ref_roots(c, d, r):
    out = np.full(np.broadcast(c, d, r).shape, np.inf)
    c, d, r = np.broadcast_arrays(c, d, r)
    lin = (c == 0.0) & (d != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_lin = r / np.where(d == 0.0, 1.0, d)
    out = np.where(lin & (x_lin > 0.0), x_lin, out)
    quad = c != 0.0
    disc = d**2 + 4.0 * c * r
    ok = quad & (disc >= 0.0)
    sq = np.sqrt(np.where(ok, disc, 0.0))
    sgn = np.where(d >= 0.0, 1.0, -1.0)
    qv = -0.5 * (d + sgn * sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        x1 = qv / np.where(c == 0.0, 1.0, c)
        x2 = -r / np.where(qv == 0.0, 1.0, qv)
    for x, extra in ((x1, ok), (x2, ok & (qv != 0.0))):
        out = np.minimum(out, np.where(extra & (x > 0.0), x, np.inf))
    return out


def ref_min_duration_arrays(a, b, c, d, limits):
    if np.any(b > limits.qd_max) or np.any(b < limits.qd_min):
        raise InfeasibleError("boundary velocities exceed the velocity limits")
    with np.errstate(divide="ignore", invalid="ignore"):
        safe_a = np.where(a == 0.0, 1.0, a)
        x_vel = np.where(a > 0.0, (limits.qd_max - b) / safe_a,
                         np.where(a < 0.0, (limits.qd_min - b) / safe_a, np.inf))
    x_hi = ref_roots(c, d, np.broadcast_to(limits.qdd_max, c.shape))
    x_lo = ref_roots(c, d, np.broadcast_to(limits.qdd_min, c.shape))
    x_min = float(np.min(np.minimum(np.minimum(x_vel, x_hi), x_lo)))
    if np.isinf(x_min):
        return 0.0
    if x_min <= 0.0:
        raise InfeasibleError("a kinodynamic limit is active at infinite duration")
    return 1.0 / x_min


# -- reference: per-candidate duration with its own boundary parts -----------


def ref_duration_splits(basis, q_via, bc, grid):
    _, e1, e2 = basis.grid_matrices(grid.n_points)
    u_a, u_b = basis.pack_split(q_via, bc)
    return e1 @ u_a, e1 @ u_b, e2 @ u_a, e2 @ u_b


def ref_single_pass_arrays(a, b, c, d, limits):
    """The one-pass kernel that took all four parts for every candidate."""
    if (b > limits.qd_max).any() or (b < limits.qd_min).any():
        raise InfeasibleError("boundary velocities exceed the velocity limits")
    r = np.array([limits.qdd_max, limits.qdd_min])
    r = r.reshape((2,) + (1,) * (np.ndim(c) - 1) + r.shape[1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        x_vel = np.where(a > 0.0, (limits.qd_max - b) / a,
                         np.where(a < 0.0, (limits.qd_min - b) / a, np.inf))
        x_lin = r / d
        x_acc = np.where((c == 0.0) & (x_lin > 0.0), x_lin, np.inf)
        qv = -0.5 * (d + np.where(d >= 0.0, 1.0, -1.0) * np.sqrt(d**2 + 4.0 * c * r))
        x1 = qv / c
        x2 = -r / qv
    x_acc = np.minimum(x_acc, np.where(x1 > 0.0, x1, np.inf))
    x_acc = np.minimum(x_acc, np.where((c != 0.0) & (x2 > 0.0), x2, np.inf))
    x_min = float(np.minimum(np.minimum(x_vel, x_acc[0]), x_acc[1]).min())
    if np.isinf(x_min):
        return 0.0
    if x_min <= 0.0:
        raise InfeasibleError("a kinodynamic limit is active at infinite duration")
    return 1.0 / x_min


def ref_min_duration(basis, q_via, bc, limits, grid):
    return ref_single_pass_arrays(*ref_duration_splits(basis, q_via, bc, grid),
                                  limits)


# -- reference: obstacle loop over (P, 2) temporaries -------------------------


def ref_colliding_mask(world, points):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rr = world.robot_radius
    out = np.any(pts - rr < world.bounds_lo, axis=1)
    out |= np.any(pts + rr > world.bounds_hi, axis=1)
    for obs in world.obstacles:
        if isinstance(obs, Disk):
            d2 = np.sum((pts - obs.center) ** 2, axis=1)
            out |= d2 < (obs.radius + rr) ** 2
        else:
            delta = np.maximum(np.maximum(obs.lo - pts, pts - obs.hi), 0.0)
            out |= np.sum(delta**2, axis=1) < rr**2 if rr > 0.0 else \
                np.all((pts > obs.lo) & (pts < obs.hi), axis=1)
    return out


# -- reference: per-sample reference extraction ------------------------------


def ref_extract_reference(traj, t0, duration, plant_dt):
    t_end = min(t0 + duration, traj.duration)
    n_whole = int(np.floor((t_end - t0) / plant_dt + 1e-12))
    times = t0 + plant_dt * np.arange(n_whole + 1)
    if times[-1] < t_end - 1e-12:
        times = np.append(times, t_end)
    q = np.stack([traj.at_time(t, 0) for t in times])
    qd = np.stack([traj.at_time(t, 1) for t in times])
    qdd = np.stack([traj.at_time(t, 2) for t in times])
    return times - t0, q, qd, qdd


# -- random problems ---------------------------------------------------------


class Band1D:
    """1D checker: configurations inside an open interval collide."""

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi

    def colliding_mask(self, points):
        return (points[:, 0] > self.lo) & (points[:, 0] < self.hi)


def random_problem(rng, dof, n_via, degenerate, with_bounds, with_checker,
                   pop_size):
    qd_max, qdd_max = rng.uniform(0.3, 1.5), rng.uniform(0.5, 3.0)
    q0 = rng.uniform(0.2, 0.8, dof)
    if degenerate and rng.random() < 0.5:
        # With q0 == qT == 0 the straight-line candidates have zero duration.
        q0 = np.zeros(dof)
    if degenerate:
        qT, qd0, qdT = q0.copy(), np.zeros(dof), np.zeros(dof)
    else:
        qT = rng.uniform(0.2, 0.8, dof)
        qd0 = rng.uniform(-0.5, 0.5, dof) * qd_max
        qdT = rng.uniform(-0.5, 0.5, dof) * qd_max
    bc = BoundaryConditions(q0, qd0, qT, qdT)
    # Resting (degenerate) problems get a bound that q0 often violates, so
    # their grid rows enter the joint-limit sums.
    q_range = None if not with_bounds else (0.1, 0.5) if degenerate else (0.1, 0.9)
    limits = KinodynamicLimits.symmetric(qd_max, qdd_max, dof, q_range=q_range)
    checker = None
    if with_checker:
        checker = (World2D(obstacles=(Disk(rng.uniform(0.3, 0.7, 2), 0.12),
                                      Rect([0.45, 0.1], [0.55, 0.35])),
                           robot_radius=rng.choice([0.0, 0.02]))
                   if dof == 2 else Band1D(0.45, 0.55))
    return PlanningProblem(bc, limits, n_via=n_via, pop_size=pop_size,
                           grid=PhaseGrid(int(rng.integers(2, 60))),
                           weights=CostWeights(smooth=rng.uniform(0.0, 0.1)),
                           checker=checker)


def random_candidates(rng, problem, basis, spread):
    bc = problem.bc
    line = bc.q0 + np.outer(via_timings(basis.n_via), bc.qT - bc.q0)
    cands = line.reshape(-1) + spread * rng.standard_normal(
        (problem.pop_size, basis.n_via * bc.dof))
    # Some candidates sit exactly on the straight line; with q0 == qT and
    # zero boundary velocities these synthesize to zero duration.
    cands[rng.random(problem.pop_size) < 0.3] = line.reshape(-1)
    return cands


problems = st.tuples(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]),
                     st.integers(0, 6), st.booleans(), st.booleans(),
                     st.booleans())


@SETTINGS
@given(problems, st.sampled_from([0.02, 0.2, 0.6]))
def test_population_scoring_matches_per_trajectory(params, spread):
    seed, dof, n_via, degenerate, with_bounds, with_checker = params
    rng = np.random.default_rng(seed)
    n_via = max(n_via, 1)
    problem = random_problem(rng, dof, n_via, degenerate, with_bounds,
                             with_checker, pop_size=int(rng.integers(4, 24)))
    basis = build_basis(n_via, dof)
    cands = random_candidates(rng, problem, basis, spread)
    boundary = boundary_of(basis, problem)
    trajs = [synthesize(boundary, x) for x in cands]
    # Zero-duration trajectories whose via-points are off q0: their grid rows
    # must be the rest state q0, not the spline through the via-points.
    for m in np.flatnonzero(rng.random(len(trajs)) < 0.2):
        trajs[m] = dataclasses.replace(trajs[m], duration=0.0)
    reports = evaluate_total(trajs, problem.weights, problem.limits,
                             problem.grid, problem.checker)
    assert len(reports) == len(trajs)
    for traj, report in zip(trajs, reports):
        assert_same_report(report, ref_evaluate(traj, problem.weights,
                                                problem.limits, problem.grid,
                                                problem.checker))


@SETTINGS
@given(problems, st.sets(st.integers(0, 23)))
def test_evaluate_candidates_matches_per_candidate(params, infeasible):
    seed, dof, n_via, degenerate, with_bounds, with_checker = params
    rng = np.random.default_rng(seed)
    problem = random_problem(rng, dof, max(n_via, 1), degenerate, with_bounds,
                             with_checker, pop_size=24)
    basis = build_basis(problem.n_via, dof)
    cands = random_candidates(rng, problem, basis, 0.2)
    real = planner.synthesize
    calls = iter(range(2 * problem.pop_size))

    def flaky(*args, **kwargs):
        # Reject the candidates in `infeasible`, the same way in both passes.
        if next(calls) % problem.pop_size in infeasible:
            raise InfeasibleError("rejected by the test")
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(planner, "synthesize", flaky)
        # One boundary for the whole population, against one per candidate.
        trajs, reports, costs = evaluate_candidates(boundary_of(basis, problem),
                                                    cands, problem)
        refs = ref_evaluate_candidates(basis, cands, problem)
    for i, (traj, report, ref) in enumerate(zip(trajs, reports, refs)):
        if i in infeasible:
            assert traj is None and report is None and ref is None
            assert costs[i] == 10.0 * problem.weights.invalid_penalty
        else:
            assert_same_report(report, ref)
            assert costs[i] == ref[0]


def test_evaluate_total_empty_population():
    lim = KinodynamicLimits.symmetric(1.0, 1.0, 1)
    assert evaluate_total([], CostWeights(), lim, PhaseGrid(4)) == []


def test_evaluate_total_rejects_two_boundary_conditions():
    # A scored population shares one BoundaryConditions object; equal values
    # in a second object do not make it the same boundary.
    lim = KinodynamicLimits.symmetric(1.0, 1.0, 1)
    grid = PhaseGrid(4)
    basis = build_basis(1, 1)
    bcs = [BoundaryConditions([0.0], [0.0], [1.0], [0.0]) for _ in range(2)]
    trajs = [synthesize(boundary_half(basis, bc, lim, grid), [[0.5]]) for bc in bcs]
    with pytest.raises(ValueError, match="one BoundaryConditions"):
        evaluate_total(trajs, CostWeights(), lim, grid)


def special_lanes(rng, shape):
    """Random values with exact zeros, negative zeros and tiny values mixed in."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 3, shape)
    pick = rng.random(shape)
    x[pick < 0.15] = 0.0
    x[(pick >= 0.15) & (pick < 0.25)] = -0.0
    x[(pick >= 0.25) & (pick < 0.3)] = 1e-300
    return x


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.integers(1, 3),
       st.sampled_from(["on", "ulp", "inf"]))
def test_min_duration_arrays_matches_two_root_calls(seed, n_points, dof, edges):
    rng = np.random.default_rng(seed)
    a, c, d = (special_lanes(rng, (n_points, dof)) for _ in range(3))
    b = np.clip(special_lanes(rng, (n_points, dof)), -0.6, 0.6)
    limits = KinodynamicLimits(-rng.uniform(0.5, 2.0, dof), rng.uniform(0.5, 2.0, dof),
                               -rng.uniform(0.5, 2.0, dof), rng.uniform(0.5, 2.0, dof))
    # Lanes where b sits exactly on a velocity limit: with a == 0 or -0.0
    # there, (limit - b) / a is 0/0.
    edge = rng.random((n_points, dof))
    b = np.where(edge < 0.1, limits.qd_max, np.where(edge < 0.2, limits.qd_min, b))
    hi, lo = limits.qd_max, limits.qd_min
    if edges == "ulp":
        # Lanes one ulp inside a limit, and in one case of two lanes one ulp
        # outside it, in place of half the lanes on it.
        inside = np.nextafter(hi, -np.inf), np.nextafter(lo, np.inf)
        outside = np.nextafter(hi, np.inf), np.nextafter(lo, -np.inf)
        near_hi, near_lo = outside if rng.random() < 0.5 else inside
        b = np.where(edge < 0.05, near_hi, np.where(edge < 0.1, near_lo, b))
        b = np.where((edge >= 0.2) & (edge < 0.25), inside[0], b)
        b = np.where((edge >= 0.25) & (edge < 0.3), inside[1], b)
    elif edges == "inf":
        # Unbounded velocity on some DoFs: qd_max - b and qd_min - b are
        # infinities of the limit's sign, whatever (finite) b is.
        free = rng.random((2, dof)) < 0.5
        limits = dataclasses.replace(limits, qd_max=np.where(free[0], np.inf, hi),
                                     qd_min=np.where(free[1], -np.inf, lo))
    # The feasibility test of the b-based kernel.
    b_feasible = not ((b > limits.qd_max).any() or (b < limits.qd_min).any())
    assert BoundaryLanes.from_splits(b, d, limits).feasible == b_feasible
    try:
        ref = ref_min_duration_arrays(a, b, c, d, limits)
    except InfeasibleError as err:
        with pytest.raises(InfeasibleError, match=str(err)):
            lanes_min_duration(a, b, c, d, limits)
    else:
        got = lanes_min_duration(a, b, c, d, limits)
        assert got == ref and type(got) is float


@pytest.mark.filterwarnings("ignore:overflow encountered in square")
def test_min_duration_arrays_branch_lanes():
    # One lane per branch: c == 0 (linear), d == 0, d == -0.0, disc < 0, and
    # linear lanes whose d^2 overflows, where only r/d gives the root.
    lim = KinodynamicLimits.symmetric(1.0, 1.0, 1)
    c = np.array([[0.0], [2.0], [-2.0], [-3.0], [0.0], [0.0], [0.0], [0.0]])
    d = np.array([[0.5], [0.0], [-0.0], [0.1], [-0.0], [0.0], [1e200], [-1e200]])
    a = np.array([[0.3], [0.0], [-0.2], [0.0], [0.0], [1e-3], [0.0], [0.0]])
    b = np.zeros_like(a)
    for rows in ([0], [1], [2], [3], [4], [5], [6], [7], list(range(8))):
        args = [x[rows] for x in (a, b, c, d)]
        assert lanes_min_duration(*args, lim) == ref_min_duration_arrays(*args, lim)


def random_bc(rng, dof, qd_max, speed):
    """Boundary conditions whose velocities are `speed` times the limit in
    size: below 1 feasible, exactly 1 on the limit, above 1 infeasible."""
    def vel():
        return rng.choice([-1.0, 1.0], dof) * speed * qd_max

    return BoundaryConditions(rng.uniform(0.2, 0.8, dof), vel(),
                              rng.uniform(0.2, 0.8, dof), vel())


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(0, 6), st.integers(1, 3))
def test_min_duration_matches_per_candidate_splits(seed, n_via, dof):
    """The boundary half and the candidate half give what computing all of
    (a, b, c, d) per candidate gave.  Boundaries for two boundary
    conditions, limits and grids on one basis, differing in one of the three
    at a time, take turns, so a boundary that kept another's parts would
    show."""
    rng = np.random.default_rng(seed)
    basis = build_basis(n_via, dof)
    bcs, lims, grids = [], [], []
    for _ in range(2):
        qd_max = rng.uniform(0.3, 1.5, dof)
        lims.append(KinodynamicLimits(-qd_max, qd_max, -rng.uniform(0.5, 3.0, dof),
                                      rng.uniform(0.5, 3.0, dof)))
        bcs.append(random_bc(rng, dof, qd_max, rng.choice([0.0, 0.2, 0.9, 1.0, 1.3])))
        grids.append(PhaseGrid(int(rng.integers(2, 60))))
    setups = [(bcs[0], lims[0], grids[0]), (bcs[0], lims[1], grids[0]),
              (bcs[0], lims[1], grids[1]), (bcs[1], lims[1], grids[1]),
              (bcs[1], lims[1], PhaseGrid(grids[1].k)), (bcs[1], lims[0], grids[0])]
    boundaries = [boundary_half(basis, *setup) for setup in setups]
    cands = rng.uniform(0.0, 1.0, (5, n_via, dof))
    for i in range(18):
        bc, limits, grid = setups[i % len(setups)]
        boundary = boundaries[i % len(setups)]
        x = None if n_via == 0 and i % 2 else cands[i % len(cands)]
        try:
            ref = ref_min_duration(basis, x, bc, limits, grid)
        except InfeasibleError as err:
            with pytest.raises(InfeasibleError, match=str(err)):
                min_duration(boundary, x)
            with pytest.raises(InfeasibleError, match=str(err)):
                synthesize(boundary, x)
        else:
            got = min_duration(boundary, x)
            assert got == ref and type(got) is float
            traj = synthesize(boundary, x)
            assert traj.duration == ref and traj.degenerate is (ref == 0.0)


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.02, 0.0625]))
def test_colliding_mask_matches_obstacle_loop(seed, robot_radius):
    """Column-wise colliding_mask against the loop over (P, 2) temporaries,
    with points exactly tangent to disks, on rectangle edges and corners, on
    inflated rectangle faces and on the shrunken workspace bounds."""
    rng = np.random.default_rng(seed)
    rr = robot_radius
    # Dyadic centers, corners and radii: the edge points below are exact.
    ticks = np.arange(1, 16) / 16.0
    obstacles = []
    probes = [rng.uniform(-0.1, 1.1, (200, 2)), [[rr, rr], [1.0 - rr, 1.0 - rr]]]
    for _ in range(rng.integers(0, 4)):
        center = rng.choice(ticks, 2)
        radius = float(rng.choice([0.0625, 0.125, 0.1]))
        obstacles.append(Disk(center, radius))
        reach = radius + rr
        probes.append(center + [[reach, 0.0], [-reach, 0.0], [0.0, reach],
                                [0.0, -reach]])
    for _ in range(rng.integers(0, 4)):
        lo = rng.choice(ticks, 2)
        hi = lo + rng.choice([0.0625, 0.125, 0.25], 2)
        obstacles.append(Rect(lo, hi))
        mid = 0.5 * (lo + hi)
        probes.append([lo, hi, [lo[0], hi[1]], [hi[0], lo[1]],
                       [lo[0], mid[1]], [hi[0], mid[1]], [mid[0], lo[1]],
                       [mid[0], hi[1]], [lo[0] - rr, mid[1]], [hi[0] + rr, mid[1]],
                       [mid[0], lo[1] - rr], [mid[0], hi[1] + rr], mid])
    rng.shuffle(obstacles)
    world = World2D(obstacles=tuple(obstacles), robot_radius=rr)
    points = np.concatenate([np.asarray(p, dtype=float) for p in probes])
    got = world.colliding_mask(points)
    assert got.dtype == bool and got.shape == (len(points),)
    np.testing.assert_array_equal(got, ref_colliding_mask(world, points))
    for p in points[-8:]:
        assert is_colliding(world, p) == ref_colliding_mask(world, p[None])[0]


@SETTINGS
@given(problems, st.floats(0.0, 0.95), st.sampled_from([1e-3, 7e-3, 0.013]),
       st.sampled_from([0.08, 0.2, 5.0]))
def test_extract_reference_matches_at_time(params, t0_frac, plant_dt, horizon):
    seed, dof, n_via, degenerate, _, _ = params
    rng = np.random.default_rng(seed)
    problem = random_problem(rng, dof, max(n_via, 1), degenerate, False, False,
                             pop_size=4)
    basis = build_basis(problem.n_via, dof)
    x = random_candidates(rng, problem, basis, 0.2)[0]
    traj = synthesize(boundary_of(basis, problem), x)
    t0 = t0_frac * traj.duration
    ref = ref_extract_reference(traj, t0, horizon, plant_dt)
    got = extract_reference(traj, t0, horizon, plant_dt)
    for name, want in zip(("times", "q", "qd", "qdd"), ref):
        value = getattr(got, name)
        assert value.shape == want.shape, name
        assert np.array_equal(value, want), name


# -- reference: the broadcast duration kernel and the two-pass cost_jla -------


@dataclasses.dataclass(frozen=True, eq=False)
class RefLanes:
    """BoundaryLanes before its lanes were pre-scaled and pre-broadcast."""

    feasible: bool
    d: np.ndarray
    vel_hi: np.ndarray
    vel_lo: np.ndarray
    x_lin: np.ndarray
    sign_d: np.ndarray
    d2: np.ndarray
    r: np.ndarray
    neg_r: np.ndarray

    @classmethod
    def from_splits(cls, b, d, limits):
        vel_hi, vel_lo = limits.qd_max - b, limits.qd_min - b
        r = np.array([limits.qdd_max, limits.qdd_min])
        r = r.reshape((2,) + (1,) * (np.ndim(d) - 1) + r.shape[1:])
        with np.errstate(divide="ignore", invalid="ignore"):
            x_lin = r / d
        return cls(not ((vel_hi < 0.0).any() or (vel_lo > 0.0).any()), d,
                   vel_hi, vel_lo, np.where(x_lin > 0.0, x_lin, np.inf),
                   np.where(d >= 0.0, 1.0, -1.0), d**2, r, -r)

    def duration(self, a, c):
        if not self.feasible:
            raise InfeasibleError("boundary velocities exceed the velocity limits")
        with np.errstate(divide="ignore", invalid="ignore"):
            x_vel = np.where(np.signbit(a), self.vel_lo, self.vel_hi) / a
            qv = -0.5 * (self.d + self.sign_d * np.sqrt(self.d2 + 4.0 * c * self.r))
            x_acc = np.empty((2,) + qv.shape)
            np.divide(qv, c, out=x_acc[0])
            np.divide(self.neg_r, qv, out=x_acc[1])
        np.copyto(x_acc[1], self.x_lin, where=c == 0.0)
        x_min = min(np.fmin.reduce(x_vel, axis=None, initial=np.inf),
                    np.where(x_acc > 0.0, x_acc, np.inf).min())
        if x_min <= 0.0:
            raise InfeasibleError("a kinodynamic limit is active at infinite duration")
        return 1.0 / float(x_min)


def ref_kernel_min_duration(basis, q_via, bc, limits, grid):
    """boundary_half and min_duration with separate E1 and E2 products."""
    _, e1, e2 = basis.grid_matrices(grid.n_points)
    u_a0, u_b = basis.pack_split(np.zeros((basis.n_via, basis.dof)), bc)
    lanes = RefLanes.from_splits(e1 @ u_b, e2 @ u_b, limits)
    rest = bool((bc.q0 == bc.qT).all() and not (bc.qd0.any() or bc.qdT.any()))
    pts = basis.via_matrix(q_via)
    if rest and (pts == bc.q0).all():
        return 0.0
    u_a = np.concatenate((pts, u_a0[basis.n_via:]))
    return lanes.duration(e1 @ u_a, e2 @ u_a)


def ref_cost_jla(q, limits):
    """cost_jla with both passes over every population."""
    if limits.q_min is None:
        return np.zeros(q.shape[0]), np.zeros(q.shape[0], dtype=int)
    over = q >= limits.q_max
    under = q <= limits.q_min
    counts = np.count_nonzero(over, axis=(1, 2)) + np.count_nonzero(under, axis=(1, 2))
    costs = (np.where(over, 1.0 + q - limits.q_max, 0.0).sum(axis=(1, 2))
             + np.where(under, 1.0 + limits.q_min - q, 0.0).sum(axis=(1, 2)))
    return costs, counts


def outcome(f, *args):
    """A float's hex, or the type and message of the error it raised."""
    try:
        value = f(*args)
    except InfeasibleError as err:
        return "InfeasibleError", str(err)
    assert type(value) is float
    return value.hex()


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(0, 6),
       st.sampled_from(["rest", "moving", "on_limit", "tiny", "beyond"]))
def test_min_duration_matches_broadcast_kernel(seed, dof, n_via, boundary):
    """The pre-scaled kernel against the broadcast one, on the bits of the
    duration or the error raised: rest-to-rest moves and moves with
    boundary velocities, a boundary velocity at +-qd_max (its velocity lane
    at s = 0 is 0/0), velocities so small that d^2 underflows (the linear
    lanes take r/d), velocities beyond the limits, DoFs that stay at 0 (their
    c lanes are exactly zero), candidates at rest and infeasible ones."""
    rng = np.random.default_rng(seed)
    qd_max = rng.uniform(0.3, 1.5, dof)
    limits = KinodynamicLimits(-rng.uniform(0.3, 1.5, dof), qd_max,
                               -rng.uniform(0.5, 3.0, dof), rng.uniform(0.5, 3.0, dof))
    q0, qT = rng.uniform(0.2, 0.8, (2, dof))
    speed = {"rest": 0.0, "moving": rng.uniform(0.0, 0.9), "on_limit": 1.0,
             "tiny": 1e-170, "beyond": rng.uniform(1.01, 2.0)}[boundary]
    qd0 = rng.choice([-1.0, 1.0], dof) * speed * np.where(rng.random(dof) < 0.5,
                                                         qd_max, -limits.qd_min)
    qdT = np.where(rng.random(dof) < 0.5, 0.0, -qd0)
    if boundary == "rest":
        qT = np.where(rng.random(dof) < 0.3, q0, qT)
    still = rng.random(dof) < 0.3
    q0, qT = np.where(still, 0.0, q0), np.where(still, 0.0, qT)
    bc = BoundaryConditions(q0, qd0, qT, qdT)
    basis = build_basis(n_via, dof)
    grid = PhaseGrid(int(rng.integers(2, 60)))
    boundary_ = boundary_half(basis, bc, limits, grid)
    line = q0 + np.outer(via_timings(n_via), qT - q0)
    for spread in (0.0, 0.01, 0.3, 3.0):
        x = line + spread * rng.standard_normal((n_via, dof))
        x[:, still] = 0.0
        assert (outcome(min_duration, boundary_, x)
                == outcome(ref_kernel_min_duration, basis, x, bc, limits, grid))
    at_q0 = np.tile(q0, (n_via, 1))
    assert (outcome(min_duration, boundary_, at_q0)
            == outcome(ref_kernel_min_duration, basis, at_q0, bc, limits, grid))


@pytest.mark.filterwarnings("ignore:overflow encountered in square")
@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.integers(1, 7),
       st.sampled_from(["c_zero", "d_zero", "d_tiny", "d_huge", "special"]))
def test_duration_lanes_match_broadcast_kernel(seed, n_points, dof, kind):
    """BoundaryLanes.duration against the broadcast kernel on raw lanes, with
    exact zeros, negative zeros and 1e-300 mixed in, c given plain or
    stacked twice, and b on, inside and beyond the velocity limits.  d^2
    underflows at d = 1e-170 (the linear lanes must take r/d), and overflows
    at d = 1e200, where the second roots are exactly +-0 and must be
    dropped."""
    rng = np.random.default_rng(seed)
    a, b, c, d = (special_lanes(rng, (n_points, dof)) for _ in range(4))
    if kind == "c_zero":
        c[rng.random(c.shape) < 0.5] = 0.0
    elif kind == "d_zero":
        d[...] = 0.0
    elif kind == "d_tiny":
        d = np.where(rng.random(d.shape) < 0.5, 1e-170, d)
    elif kind == "d_huge":
        d = np.where(rng.random(d.shape) < 0.3, rng.choice([-1e200, 1e200], d.shape), d)
    limits = KinodynamicLimits(-rng.uniform(0.5, 2.0, dof), rng.uniform(0.5, 2.0, dof),
                               -rng.uniform(0.5, 2.0, dof), rng.uniform(0.5, 2.0, dof))
    edge = rng.random((n_points, dof))
    b = np.clip(b, -0.4, 0.4)
    if kind != "d_huge":
        # With b inside the limits, the +-0 roots decide the duration.
        b = np.where(edge < 0.05, limits.qd_max, np.where(edge < 0.1, limits.qd_min, b))
    if rng.random() < 0.2:
        b = np.where(edge > 0.95, 2.0 * limits.qd_max, b)
    lanes = BoundaryLanes.from_splits(b, d, limits)
    want = outcome(RefLanes.from_splits(b, d, limits).duration, a, c)
    assert outcome(lanes.duration, a, c) == want
    assert outcome(lanes.duration, a, np.stack((c, c))) == want


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 24), st.integers(2, 40),
       st.integers(1, 7), st.sampled_from(["inside", "touch", "beyond", "none"]))
def test_cost_jla_matches_two_passes(seed, pop, n_points, dof, where):
    """cost_jla, which returns at its masks when no grid point is on or
    beyond a limit, against the two passes over every population."""
    rng = np.random.default_rng(seed)
    q = rng.uniform(0.1, 0.9, (pop, n_points, dof))
    q_range = None if where == "none" else (0.0, 1.0)
    limits = KinodynamicLimits.symmetric(1.0, 1.0, dof, q_range=q_range)
    if where == "touch":
        # Exactly on a limit counts as a hit.
        q.flat[rng.integers(q.size)] = rng.choice([0.0, 1.0])
    elif where == "beyond":
        hits = rng.random(q.shape) < 0.05
        hits.flat[rng.integers(q.size)] = True
        q[hits] = rng.choice([-0.3, 1.2], hits.sum())
    got, want = cost_jla(q, limits), ref_cost_jla(q, limits)
    for g, w in zip(got, want):
        assert_same_bits(g, w)
    if where in ("inside", "none"):
        assert not got[0].any() and not got[1].any()
    else:
        assert got[1].any()


@dataclasses.dataclass(frozen=True)
class RefCostReport:
    total: float
    per_term: dict
    valid: bool
    violation_count: int


def test_cost_report_fields_and_types():
    # The tuple report has the dataclass's fields, in order, with the same
    # values and types, and cannot be changed.
    lim = KinodynamicLimits.symmetric(1.0, 2.0, 1, q_range=(0.0, 0.5))
    grid = PhaseGrid(10)
    basis = build_basis(1, 1)
    bc = BoundaryConditions([0.1], [0.0], [0.4], [0.0])
    boundary = boundary_half(basis, bc, lim, grid)
    trajs = [synthesize(boundary, x) for x in ([[0.25]], [[0.9]])]
    reports = evaluate_total(trajs, CostWeights(), lim, grid)
    assert [r.valid for r in reports] == [True, False]
    names = [f.name for f in dataclasses.fields(RefCostReport)]
    assert list(CostReport._fields) == names
    for report in reports:
        assert type(report) is CostReport
        ref = RefCostReport(*report)
        for name in names:
            got, want = getattr(report, name), getattr(ref, name)
            assert got == want and type(got) is type(want)
        assert type(report.total) is float and type(report.valid) is bool
        assert type(report.violation_count) is int
        assert all(type(v) is float for v in report.per_term.values())
        with pytest.raises(AttributeError):
            report.total = 0.0

