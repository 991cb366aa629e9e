"""Power-of-two unit changes as an exact oracle.

Measuring positions in units 2^-p times the old ones and time in units 2^-t
times the old ones multiplies every position by 2^p and every time by 2^t:
velocity limits and boundary velocities by 2^(p-t), acceleration limits by
2^(p-2t), the world's obstacles, bounds and robot radius by 2^p.  The
duration weight then scales by 2^-t and the smoothness weight by 2^-2p, so
each cost term is unchanged.  Scaling by a power of two is exact in floats
away from overflow and subnormals, so for p and t in [-60, 60] every
minimal duration must be exactly T * 2^t, every total and validity flag
identical, and a whole solve's via-points, duration and iteration count
must scale exactly.

Position limits stay out of these draws: `costs.cost_jla` adds 1 to an
overshoot in configuration units (`1 + q - q_max`), which breaks the
property, and measuring the overshoot without units is a planned behaviour
change of its own.  The ES clips its variances at 0, not at an absolute
floor, so a solve scales with nothing in `optimizer` patched.

The closed loop scales its step period, plant period and direct-plan gate
`t_stop` by 2^t, the via-point rate `alpha` by 2^-t, `goal_tol` by 2^p,
`vel_tol` by 2^(p-t) and the greedy baseline's reach `mpc.GREEDY_HORIZON`
by 2^p; its rows' positions, velocities and times then scale exactly, and
their modes, validity, iterations and step costs are unchanged.  A step of
2^-4 at a plant period of 2^-10 is 64 whole samples at every scale.  Two
unit-dependent constants are exempt, being unreachable here:
`mpc.extract_reference`'s absolute 1e-12 s epsilons, which only round a
window that is not a whole number of samples, and the `or 1.0` spread of
`mpc.mpc_step`'s warm start, reached only at q == qT.
"""

import dataclasses
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from viaplan import mpc
from viaplan.costs import CostWeights, evaluate_total
from viaplan.mpc import MpcConfig, greedy_step, mpc_step, run_closed_loop
from viaplan.planner import PlanningProblem, solve
from viaplan.spline import BoundaryConditions, build_basis
from viaplan.timing import (InfeasibleError, KinodynamicLimits, PhaseGrid,
                            boundary_half, min_duration)
from viaplan.worlds import World2D, bundled_cluttered_world, bundled_start_goal

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
EXPONENT = st.integers(-60, 60)


def scale_bc(bc, p, t):
    return BoundaryConditions(np.ldexp(bc.q0, p), np.ldexp(bc.qd0, p - t),
                              np.ldexp(bc.qT, p), np.ldexp(bc.qdT, p - t))


def scale_limits(limits, p, t):
    return KinodynamicLimits(np.ldexp(limits.qd_min, p - t), np.ldexp(limits.qd_max, p - t),
                             np.ldexp(limits.qdd_min, p - 2 * t),
                             np.ldexp(limits.qdd_max, p - 2 * t))


def scale_world(world, p):
    return World2D(np.ldexp(world.disks, p), np.ldexp(world.rects, p),
                   np.ldexp(world.bounds_lo, p), np.ldexp(world.bounds_hi, p),
                   float(np.ldexp(world.robot_radius, p)))


def scale_weights(weights, p, t):
    return CostWeights(duration=float(np.ldexp(weights.duration, -t)),
                       smooth=float(np.ldexp(weights.smooth, -2 * p)),
                       jla=weights.jla, collision=weights.collision,
                       invalid_penalty=weights.invalid_penalty)


def random_limits(rng, dof):
    return KinodynamicLimits(-rng.uniform(0.2, 2.0, dof), rng.uniform(0.2, 2.0, dof),
                             -rng.uniform(0.5, 4.0, dof), rng.uniform(0.5, 4.0, dof))


def random_bc(rng, dof, moving):
    q0, qT = rng.uniform(-1.0, 1.0, (2, dof))
    qd0, qdT = rng.uniform(-0.3, 0.3, (2, dof)) if moving else np.zeros((2, dof))
    return BoundaryConditions(q0, qd0, qT, qdT)


def duration_or_none(boundary, q_via):
    try:
        return min_duration(boundary, q_via)
    except InfeasibleError:
        return None


def durations_of(boundary, q_vias):
    """min_duration of each candidate, NaN where it has none."""
    return [np.nan if (d := duration_or_none(boundary, x)) is None else d for x in q_vias]


@SETTINGS
@given(st.integers(0, 2**32 - 1), EXPONENT, EXPONENT, st.integers(1, 7),
       st.integers(1, 6), st.integers(2, 59), st.booleans())
def test_min_duration_scales_by_exactly_two_to_the_t(seed, p, t, dof, n_via, k, moving):
    rng = np.random.default_rng(seed)
    bc, limits = random_bc(rng, dof, moving), random_limits(rng, dof)
    basis, grid = build_basis(n_via, dof), PhaseGrid(k)
    boundary = boundary_half(basis, bc, limits, grid)
    scaled = boundary_half(basis, scale_bc(bc, p, t), scale_limits(limits, p, t), grid)
    assert scaled.lanes.feasible == boundary.lanes.feasible
    timed = 0
    for q_via in rng.uniform(-1.5, 1.5, (4, n_via, dof)):
        duration = duration_or_none(boundary, q_via)
        got = duration_or_none(scaled, np.ldexp(q_via, p))
        assert (got is None) == (duration is None)
        if duration is not None:
            assert got == np.ldexp(duration, t)
            timed += 1
    assert timed or moving


@SETTINGS
@given(st.integers(0, 2**32 - 1), EXPONENT, EXPONENT, st.integers(1, 7),
       st.integers(1, 5), st.booleans(), st.sampled_from([None, 0.0, 0.02]))
def test_evaluate_total_is_unchanged_by_a_unit_change(seed, p, t, dof, n_via, moving,
                                                      radius):
    # radius None prices without a checker; otherwise the bundled world, at
    # its robot radius (the inflated rectangles) or at 0.0 (strict interiors),
    # in the first two DoFs' plane.
    dof = 2 if radius is not None else dof
    rng = np.random.default_rng(seed)
    bc = random_bc(rng, dof, moving)
    bc = BoundaryConditions(0.5 + 0.4 * bc.q0, bc.qd0, 0.5 + 0.4 * bc.qT, bc.qdT)
    limits, grid = random_limits(rng, dof), PhaseGrid(int(rng.integers(2, 40)))
    weights = CostWeights(duration=rng.uniform(0.1, 2.0), smooth=rng.uniform(0.0, 0.1))
    bundled = bundled_cluttered_world()
    world = None if radius is None else World2D(bundled.disks, bundled.rects,
                                                robot_radius=radius)
    basis = build_basis(n_via, dof)
    boundary = boundary_half(basis, bc, limits, grid)
    scaled = boundary_half(basis, scale_bc(bc, p, t), scale_limits(limits, p, t), grid)
    q_via = rng.uniform(0.0, 1.0, (8, n_via, dof))
    durations = durations_of(boundary, q_via)
    scaled_q_via = np.ldexp(q_via, p)
    scaled_durations = durations_of(scaled, scaled_q_via)
    np.testing.assert_array_equal(scaled_durations, np.ldexp(durations, t))
    reports, costs = evaluate_total(boundary, q_via, durations, weights, world)
    got, got_costs = evaluate_total(
        scaled, scaled_q_via, scaled_durations, scale_weights(weights, p, t),
        None if world is None else scale_world(world, p))
    assert got == reports
    np.testing.assert_array_equal(got_costs, costs)


@settings(max_examples=6, deadline=None, derandomize=True)
@given(EXPONENT, EXPONENT)
@example(-22, 0)   # an absolute 1e-12 floor on the ES variance bound here
def test_solve_scales_exactly(p, t):
    q0, qT = bundled_start_goal()
    bc = BoundaryConditions(q0, np.zeros(2), qT, np.zeros(2))
    limits = KinodynamicLimits.symmetric(0.5, 2.0, 2)
    world, weights = bundled_cluttered_world(), CostWeights()
    for seed in (0, 1):
        problem = PlanningProblem(bc, limits, n_via=4, pop_size=8, grid=PhaseGrid(30),
                                  weights=weights, checker=world, max_iterations=30,
                                  seed=seed)
        res = solve(problem)
        got = solve(dataclasses.replace(
            problem, bc=scale_bc(bc, p, t), limits=scale_limits(limits, p, t),
            weights=scale_weights(weights, p, t), checker=scale_world(world, p)))
        assert got.iterations == res.iterations
        assert got.history_best == res.history_best
        assert got.report == res.report
        np.testing.assert_array_equal(got.trajectory.q_via,
                                      np.ldexp(res.trajectory.q_via, p))
        assert got.trajectory.duration == np.ldexp(res.trajectory.duration, t)


def scale_config(config, p, t):
    return dataclasses.replace(
        config, dt_mpc=float(np.ldexp(config.dt_mpc, t)),
        plant_dt=float(np.ldexp(config.plant_dt, t)),
        t_stop=float(np.ldexp(config.t_stop, t)), alpha=float(np.ldexp(config.alpha, -t)),
        goal_tol=float(np.ldexp(config.goal_tol, p)),
        vel_tol=float(np.ldexp(config.vel_tol, p - t)),
        weights=scale_weights(config.weights, p, t))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(EXPONENT, EXPONENT)
@example(-22, 0)   # an absolute 1e-12 floor on the ES variance bound here
def test_closed_loop_scales_exactly(p, t):
    q0, qT = bundled_start_goal()
    zero = np.zeros(2)
    limits = KinodynamicLimits.symmetric(0.5, 2.0, 2)
    world = bundled_cluttered_world()
    config = MpcConfig(dt_mpc=2.0**-4, plant_dt=2.0**-10, pop_size=8,
                       iterations_per_step=2)
    for step in (mpc_step, greedy_step):
        log = run_closed_loop(q0, zero, qT, zero, limits, config, world, max_steps=4,
                              step=step)
        with mock.patch.object(mpc, "GREEDY_HORIZON", float(np.ldexp(mpc.GREEDY_HORIZON, p))):
            got = run_closed_loop(np.ldexp(q0, p), zero, np.ldexp(qT, p), zero,
                                  scale_limits(limits, p, t), scale_config(config, p, t),
                                  scale_world(world, p), max_steps=4, step=step)
        assert (got.steps, got.goal_reached) == (log.steps, log.goal_reached)
        assert got.final_distance == np.ldexp(log.final_distance, p)
        for row, want in zip(got.rows, log.rows, strict=True):
            assert [row[key] for key in ("step", "mode", "valid", "iterations")] == [
                want[key] for key in ("step", "mode", "valid", "iterations")]
            assert row["t"] == np.ldexp(want["t"], t)
            np.testing.assert_array_equal(row["step_cost"], want["step_cost"])
            np.testing.assert_array_equal(row["q"], np.ldexp(want["q"], p))
            np.testing.assert_array_equal(row["qd"], np.ldexp(want["qd"], p - t))
