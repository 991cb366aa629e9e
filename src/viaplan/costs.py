"""Phase-grid cost evaluation of a population of trajectories.

Task-agnostic terms (duration, smoothness, joint-limit avoidance) plus the
task-specific collision count.  `evaluate_total` scores a population that
shares one BoundaryConditions object, as every ES population and every
scored trajectory does, at once: one `SplineBasis.pack` of the stacked
(M, N+4, D) parameters, one stacked position pass on the phase grid, one
collision query over every grid point, one joint-limit mask and one
smoothness quadratic form give one column per term, and the totals,
validity flags and violation counts are sums over those columns.  Most
populations touch no joint limit at any grid point; for them `cost_jla`
returns its zero columns straight after the masks.  Invalid
candidates (joint-limit hit or collision) are not discarded; they receive a
large penalty plus their violation count so the evolution strategy can
still rank them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .spline import stacked_smoothness
from .timing import KinodynamicLimits, PhaseGrid


@dataclass(frozen=True)
class CostWeights:
    duration: float = 1.0
    smooth: float = 0.02
    jla: float = 1.0
    collision: float = 1.0
    invalid_penalty: float = 1e6

    def __post_init__(self):
        vals = (self.duration, self.smooth, self.jla, self.collision)
        if not all(np.isfinite(v) and v >= 0.0 for v in vals):
            raise ValueError("cost weights must be finite and non-negative")
        if not 0.0 < self.invalid_penalty < np.inf:
            raise ValueError("invalid_penalty must be finite and positive")


class CostReport(NamedTuple):
    """One trajectory's score: a tuple, since evaluate_total builds one per
    candidate of every generation."""

    total: float
    per_term: dict
    valid: bool
    violation_count: int


def cost_jla(q: np.ndarray, limits: KinodynamicLimits) -> tuple[np.ndarray, np.ndarray]:
    """Discontinuous joint-limit metric of stacked grid positions (M, K+1, D):
    per trajectory, 1 + overshoot summed over its (K+1, D) block with zeros
    where no limit is hit, and the number of violations.  A population with
    no grid point on or beyond a limit, as most are, gets the zero columns
    that the sums would give, without them."""
    if limits.q_min is not None:
        over = q >= limits.q_max
        under = q <= limits.q_min
        if over.any() or under.any():
            counts = (np.count_nonzero(over, axis=(1, 2))
                      + np.count_nonzero(under, axis=(1, 2)))
            costs = (np.where(over, 1.0 + q - limits.q_max, 0.0).sum(axis=(1, 2))
                     + np.where(under, 1.0 + limits.q_min - q, 0.0).sum(axis=(1, 2)))
            return costs, counts
    return np.zeros(q.shape[0]), np.zeros(q.shape[0], dtype=int)


def cost_collision(q: np.ndarray, checker) -> np.ndarray:
    """Number of grid configurations in collision, per trajectory of the
    stacked grid positions q (M, K+1, D).

    checker.colliding_mask(points) takes a (P, D) array of configurations and
    returns P booleans, true where a configuration is in collision.
    """
    mask = checker.colliding_mask(q.reshape(-1, q.shape[-1]))
    return np.count_nonzero(mask.reshape(q.shape[:2]), axis=1)


def evaluate_total(trajs, weights: CostWeights, limits: KinodynamicLimits,
                   grid: PhaseGrid, checker=None) -> list[CostReport]:
    """One CostReport per trajectory of a population, which shares n_via,
    dof and one BoundaryConditions object; a population with two raises
    ValueError.

    Every term is a column over the population.  The total adds the weighted
    terms that are present in the order duration, smooth, jla, collision,
    and an invalid trajectory gets invalid_penalty plus its violation count
    on top.  A zero duration, found by a mask over the durations, rests at
    bc.q0.
    """
    if not trajs:
        return []
    basis, bc = trajs[0].basis, trajs[0].bc
    if any(t.bc is not bc for t in trajs):
        raise ValueError("a scored population shares one BoundaryConditions")
    durations = np.array([t.duration for t in trajs])
    u = basis.pack(np.array([t.q_via for t in trajs]), bc, durations)
    q = np.matmul(basis.grid_matrices(grid.n_points)[0], u)
    smooth = stacked_smoothness(basis, u)
    rest = durations == 0.0
    if rest.any():
        q[rest] = bc.q0
        smooth[rest] = 0.0
    jla, violations = cost_jla(q, limits)
    terms = {"duration": durations, "smooth": smooth, "jla": jla}
    if checker is not None:
        hits = cost_collision(q, checker)
        terms["collision"] = hits.astype(float)
        violations = violations + hits
    weighted = [getattr(weights, name) * col for name, col in terms.items()]
    total = sum(weighted[1:], weighted[0])
    valid = violations == 0
    total = np.where(valid, total, total + (weights.invalid_penalty + violations))
    rows = zip(*(col.tolist() for col in terms.values()))
    return [CostReport(t, dict(zip(terms, row)), ok, n)
            for t, row, ok, n in zip(total.tolist(), rows, valid.tolist(),
                                     violations.tolist())]
