"""Phase-grid cost evaluation of a population, and the rank it induces.

Task-agnostic terms (duration, smoothness, joint-limit avoidance) plus the
task-specific collision count.  `evaluate_total` scores a sampled
population of one `timing.Boundary` at once, on its limits and grid: one
`SplineBasis.pack` of the candidates with a duration, one stacked position
pass through its E0, one collision query over every grid point, one
joint-limit mask and one smoothness quadratic form give one column per
term, and the totals and validity flags are sums over those columns.  Most
populations touch no joint limit, so for them `cost_jla` returns its zero
columns straight after the masks.  Its cost column is the whole rank rule,
since the evolution strategy uses nothing of a cost but its rank; a
candidate with no duration, even in a population with none, ranks last.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .spline import stacked_smoothness
from .timing import Boundary, KinodynamicLimits


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
    """One candidate's score: its total, penalty included, and whether it is
    valid.  A tuple, since evaluate_total builds one per candidate of every
    generation."""

    total: float
    valid: bool


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


def evaluate_total(boundary: Boundary, q_via, durations, weights: CostWeights,
                   checker=None) -> tuple[list, np.ndarray]:
    """(reports, costs) of a sampled population of boundary, given its
    (M, N, D) via-point stack, or M rows of N*D, and its M durations, NaN
    where a candidate has none, priced on the grid and limits that the
    durations were synthesized under.  The total adds the weighted terms
    that are present in the order duration, smooth, jla, collision; a zero
    duration rests at bc.q0.  The cost is the total of a valid candidate; an
    invalid one (joint-limit hit or collision) is kept, at its total plus
    invalid_penalty plus its violation count; a candidate with no duration
    has no report and costs np.finfo(float).max, after every finite total.
    """
    durations = np.asarray(durations, dtype=float)
    timed = ~np.isnan(durations)
    costs = np.full(durations.shape, np.finfo(float).max)
    basis, bc, durations = boundary.basis, boundary.bc, durations[timed]
    pts = np.reshape(q_via, (len(timed), basis.n_via, basis.dof))[timed]
    u = basis.pack(pts, bc, durations)
    q = np.matmul(boundary.e0, u)
    smooth = stacked_smoothness(basis, u)
    rest = durations == 0.0
    if rest.any():
        q[rest] = bc.q0
        smooth[rest] = 0.0
    jla, violations = cost_jla(q, boundary.limits)
    total = weights.duration * durations + weights.smooth * smooth + weights.jla * jla
    if checker is not None:
        hits = cost_collision(q, checker)
        total = total + weights.collision * hits
        violations = violations + hits
    valid = violations == 0
    costs[timed] = np.where(valid, total, total + (weights.invalid_penalty + violations))
    scored = map(CostReport, costs[timed].tolist(), valid.tolist())
    return [next(scored) if t else None for t in timed.tolist()], costs
