"""Shared pytest hooks and helpers: surface acceptance-criterion lines in the
summary, test one configuration for collision, build the no-via-point plan,
price synthesized trajectories, count a path's half-turns around a point,
and condition the smoothness prior's mean on boundary conditions."""

import numpy as np

from viaplan.costs import evaluate_total
from viaplan.spline import build_basis, smoothness_gram
from viaplan.timing import boundary_half, synthesize

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def is_colliding(world, q) -> bool:
    """Whether the single configuration q collides in world."""
    return bool(world.colliding_mask(np.asarray(q, dtype=float)[None, :])[0])


def direct_plan(bc, limits, grid):
    """The no-via-point trajectory: the unique clamped cubic between bc's
    states, of minimal duration."""
    return synthesize(boundary_half(build_basis(0, bc.dof), bc, limits, grid), None)


def evaluate_trajectories(trajs, weights, limits, grid, checker=None):
    """evaluate_total's reports of trajectories that share a basis and bc,
    priced as one population of their boundary under limits and grid."""
    boundary = boundary_half(trajs[0].basis, trajs[0].bc, limits, grid)
    return evaluate_total(boundary, np.array([t.q_via for t in trajs]),
                          [t.duration for t in trajs], weights, checker)[0]


def path_winding(points, reference) -> int:
    """Net half-turns of a path around a reference point, rounded.

    Paths in different homotopy classes relative to a single blocking region
    get different values (e.g. passing above vs. below it).
    """
    pts = np.asarray(points, dtype=float) - np.asarray(reference, dtype=float)
    ang = np.unwrap(np.arctan2(pts[:, 1], pts[:, 0]))
    return int(np.round((ang[-1] - ang[0]) / np.pi))


def gram_cross(basis):
    """The ND x 4D Gram block between the stacked via-points and the boundary
    parameters [q0, q'0, qT, q'T], stacked like smoothness_gram's."""
    n = basis.n_via
    return np.kron(basis.gram[:n, n:], np.eye(basis.dof))


def conditioned_mean(basis, bc):
    """Stacked via-points that minimize the smoothness cost given bc, with
    the boundary slopes taken at unit duration."""
    w_bc = np.concatenate([bc.q0, bc.qd0, bc.qT, bc.qdT])
    return np.linalg.solve(smoothness_gram(basis), -gram_cross(basis) @ w_bc)
