"""The population-wide paths against per-item reference code, bit for bit.

Each reference below is a test-local copy of earlier code: per-trajectory
scoring through `Trajectory.sample_grid`, the two-call acceleration root
finder, the per-candidate duration path that recomputed the boundary parts
for every candidate, the obstacle loop of `World2D.colliding_mask` over
(P, 2) temporaries, and `Trajectory.at_time` per reference sample.  The new
paths must reproduce them exactly (`==`, not a tolerance), because any
rounding difference in a cost can change the ES ranking and hence every
CSV written downstream.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from viaplan import planner
from viaplan.costs import CostWeights, cost_duration, evaluate_total
from viaplan.mpc import extract_reference
from viaplan.planner import PlanningProblem, evaluate_candidates
from viaplan.spline import BoundaryConditions, build_basis, via_timings
from viaplan.timing import (BoundaryLanes, InfeasibleError, KinodynamicLimits,
                            PhaseGrid, min_duration, synthesize)
from viaplan.worlds import Disk, Rect, World2D


def lanes_min_duration(a, b, c, d, limits):
    """Minimal duration over lane arrays through the two halves of the kernel."""
    return BoundaryLanes.from_splits(b, d, limits).duration(a, c)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


# -- reference: per-trajectory scoring ---------------------------------------


def ref_smoothness(traj):
    u = traj.basis.pack(traj.q_via, traj.bc, traj.duration)
    return 0.5 * float(np.einsum("id,ij,jd->", u, traj.basis.gram_full, u))


def ref_jla(traj, limits, grid):
    if limits.q_min is None:
        return 0.0, 0
    q, _, _ = traj.sample_grid(grid)
    over = q >= limits.q_max
    under = q <= limits.q_min
    cost = float(np.sum((1.0 + q - limits.q_max)[over])
                 + np.sum((1.0 + limits.q_min - q)[under]))
    return cost, int(np.count_nonzero(over) + np.count_nonzero(under))


def ref_collision(traj, checker, grid):
    q, _, _ = traj.sample_grid(grid)
    hits = int(np.count_nonzero(checker.colliding_mask(q)))
    return float(hits), hits


def ref_evaluate(traj, weights, limits, grid, checker=None):
    per_term = {"duration": cost_duration(traj),
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
             + weights.collision * per_term.get("collision", 0.0)
             + weights.push * per_term.get("push", 0.0))
    if not valid:
        total += weights.invalid_penalty + violations
    return float(total), per_term, bool(valid), violations


def ref_evaluate_candidates(basis, candidates, problem):
    out = []
    for x in candidates:
        try:
            traj = planner.synthesize(basis, x, problem.bc, problem.limits,
                                      problem.grid)
        except InfeasibleError:
            out.append(None)
            continue
        out.append(ref_evaluate(traj, problem.weights, problem.limits,
                                problem.grid, problem.checker))
    return out


def assert_same_report(report, ref):
    total, per_term, valid, violations = ref
    assert report.total == total
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
    trajs = [synthesize(basis, x, problem.bc, problem.limits, problem.grid)
             for x in cands]
    # Zero-duration trajectories whose via-points are off q0: their grid rows
    # must be the rest state q0, not the spline through the via-points.
    for m in np.flatnonzero(rng.random(len(trajs)) < 0.2):
        trajs[m] = dataclasses.replace(trajs[m], duration=0.0, degenerate=True)
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
        trajs, reports, costs = evaluate_candidates(basis, cands, problem)
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


def special_lanes(rng, shape):
    """Random values with exact zeros, negative zeros and tiny values mixed in."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 3, shape)
    pick = rng.random(shape)
    x[pick < 0.15] = 0.0
    x[(pick >= 0.15) & (pick < 0.25)] = -0.0
    x[(pick >= 0.25) & (pick < 0.3)] = 1e-300
    return x


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.integers(1, 3))
def test_min_duration_arrays_matches_two_root_calls(seed, n_points, dof):
    rng = np.random.default_rng(seed)
    a, c, d = (special_lanes(rng, (n_points, dof)) for _ in range(3))
    b = np.clip(special_lanes(rng, (n_points, dof)), -0.6, 0.6)
    limits = KinodynamicLimits(-rng.uniform(0.5, 2.0, dof), rng.uniform(0.5, 2.0, dof),
                               -rng.uniform(0.5, 2.0, dof), rng.uniform(0.5, 2.0, dof))
    # Lanes where b sits exactly on a velocity limit: with a == 0 or -0.0
    # there, (limit - b) / a is 0/0.
    edge = rng.random((n_points, dof))
    b = np.where(edge < 0.1, limits.qd_max, np.where(edge < 0.2, limits.qd_min, b))
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
    """The boundary half, memoized on the basis, and the candidate half give
    what computing all of (a, b, c, d) per candidate gave.  Two boundary
    conditions, limits and grids take turns on one basis, changing one of
    the three at a time, so a memo entry served for the wrong key would show."""
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
    cands = rng.uniform(0.0, 1.0, (5, n_via, dof))
    for i in range(18):
        bc, limits, grid = setups[i % len(setups)]
        x = None if n_via == 0 and i % 2 else cands[i % len(cands)]
        try:
            ref = ref_min_duration(basis, x, bc, limits, grid)
        except InfeasibleError as err:
            with pytest.raises(InfeasibleError, match=str(err)):
                min_duration(basis, x, bc, limits, grid)
            with pytest.raises(InfeasibleError, match=str(err)):
                synthesize(basis, x, bc, limits, grid)
        else:
            got = min_duration(basis, x, bc, limits, grid)
            assert got == ref and type(got) is float
            traj = synthesize(basis, x, bc, limits, grid)
            assert traj.duration == ref and traj.degenerate is (ref == 0.0)


@SETTINGS
@given(problems)
def test_population_with_differing_boundary_conditions(params):
    """A population whose trajectories have different boundary conditions,
    as mpc.greedy_step builds it, scores as each trajectory does alone."""
    seed, dof, n_via, degenerate, with_bounds, with_checker = params
    rng = np.random.default_rng(seed)
    problem = random_problem(rng, dof, max(n_via, 1), degenerate, with_bounds,
                             with_checker, pop_size=int(rng.integers(4, 16)))
    basis = build_basis(n_via, dof)
    qd_max = problem.limits.qd_max
    trajs = []
    for m in range(problem.pop_size):
        bc = (problem.bc if m % 4 == 0
              else random_bc(rng, dof, qd_max, rng.choice([0.0, 0.5])))
        x = rng.uniform(0.2, 0.8, (n_via, dof))
        if m % 5 == 1:
            # At rest at q0 == qT: zero duration.
            bc = BoundaryConditions(bc.q0, np.zeros(dof), bc.q0, np.zeros(dof))
            x = np.tile(bc.q0, (n_via, 1))
        trajs.append(synthesize(basis, x, bc, problem.limits, problem.grid))
    assert len({id(t.bc) for t in trajs}) > 1
    reports = evaluate_total(trajs, problem.weights, problem.limits,
                             problem.grid, problem.checker)
    for traj, report in zip(trajs, reports):
        alone = evaluate_total([traj], problem.weights, problem.limits,
                               problem.grid, problem.checker)[0]
        assert_same_report(report, (alone.total, alone.per_term, alone.valid,
                                    alone.violation_count))
        assert_same_report(report, ref_evaluate(traj, problem.weights,
                                                problem.limits, problem.grid,
                                                problem.checker))


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
        assert world.is_colliding(p) == ref_colliding_mask(world, p[None])[0]


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
    traj = synthesize(basis, x, problem.bc, problem.limits, problem.grid)
    t0 = t0_frac * traj.duration
    ref = ref_extract_reference(traj, t0, horizon, plant_dt)
    got = extract_reference(traj, t0, horizon, plant_dt)
    for name, want in zip(("times", "q", "qd", "qdd"), ref):
        value = getattr(got, name)
        assert value.shape == want.shape, name
        assert np.array_equal(value, want), name
