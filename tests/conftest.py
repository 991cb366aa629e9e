"""Shared pytest hooks and helpers: surface acceptance-criterion lines in the
summary, test one configuration for collision, and condition the smoothness
prior's mean on boundary conditions."""

import numpy as np

from viaplan.spline import smoothness_gram

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def is_colliding(world, q) -> bool:
    """Whether the single configuration q collides in world."""
    return bool(world.colliding_mask(np.asarray(q, dtype=float)[None, :])[0])


def conditioned_mean(basis, bc):
    """Stacked via-points that minimize the smoothness cost given bc, with
    the boundary slopes taken at unit duration."""
    gram_via, gram_cross = smoothness_gram(basis)
    w_bc = np.concatenate([bc.q0, bc.qd0, bc.qT, bc.qdT])
    return np.linalg.solve(gram_via, -gram_cross @ w_bc)
