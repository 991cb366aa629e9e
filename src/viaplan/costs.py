"""Phase-grid cost evaluation of a population of trajectories.

Task-agnostic terms (duration, smoothness, joint-limit avoidance) plus the
task-specific collision count and box-pushing progress.  `evaluate_total`
scores a whole generation at once: one pass packing the (M, N+4, D)
parameters (`SplineBasis.pack_stack`), one stacked position pass on the phase
grid, one collision query over every grid point, one joint-limit mask and one
smoothness quadratic form; only the push rollout runs per trajectory.
Invalid candidates (joint-limit hit, collision, or non-improving push) are
not discarded; they receive a large penalty plus their violation count so the
evolution strategy can still rank them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spline import stacked_smoothness
from .timing import KinodynamicLimits, PhaseGrid, Trajectory


@dataclass(frozen=True)
class CostWeights:
    duration: float = 1.0
    smooth: float = 0.02
    jla: float = 1.0
    collision: float = 1.0
    push: float = 10.0
    invalid_penalty: float = 1e6

    def __post_init__(self):
        vals = (self.duration, self.smooth, self.jla, self.collision, self.push)
        if not all(np.isfinite(v) and v >= 0.0 for v in vals):
            raise ValueError("cost weights must be finite and non-negative")


@dataclass(frozen=True)
class CostReport:
    total: float
    per_term: dict
    valid: bool
    violation_count: int


@dataclass(frozen=True)
class PushContext:
    """Hooks for the box-pushing progress term."""

    world: "object"          # worlds.PushWorld
    target: np.ndarray       # desired box position
    step_dt: float = 0.02    # rollout resolution in seconds

    def __post_init__(self):
        object.__setattr__(self, "target", np.asarray(self.target, dtype=float))


def cost_duration(traj: Trajectory) -> float:
    return traj.duration


def cost_jla(q: np.ndarray, limits: KinodynamicLimits) -> tuple[np.ndarray, np.ndarray]:
    """Discontinuous joint-limit metric of stacked grid positions (M, K+1, D):
    per trajectory, 1 + overshoot summed over violating points/DoFs, and the
    number of violations."""
    costs = np.zeros(q.shape[0])
    if limits.q_min is None:
        return costs, np.zeros(q.shape[0], dtype=int)
    over = q >= limits.q_max
    under = q <= limits.q_min
    counts = np.count_nonzero(over, axis=(1, 2)) + np.count_nonzero(under, axis=(1, 2))
    over_by = 1.0 + q - limits.q_max
    under_by = 1.0 + limits.q_min - q
    # One sum per violating trajectory over its own masked values: a sum over
    # the padded (K+1, D) block would round differently.
    for m in np.flatnonzero(counts):
        costs[m] = np.sum(over_by[m][over[m]]) + np.sum(under_by[m][under[m]])
    return costs, counts


def cost_collision(q: np.ndarray, checker) -> np.ndarray:
    """Number of grid configurations in collision, per trajectory of the
    stacked grid positions q (M, K+1, D).

    checker.colliding_mask(points) takes a (P, D) array of configurations and
    returns P booleans, true where a configuration is in collision.
    """
    mask = checker.colliding_mask(q.reshape(-1, q.shape[-1]))
    return np.count_nonzero(mask.reshape(q.shape[:2]), axis=1)


def cost_push(traj: Trajectory, push_ctx: PushContext) -> tuple[float, bool]:
    """exp(e_T - e_0) of squared box-target errors; valid iff the box got closer."""
    from .worlds import simulate_push

    if traj.degenerate:
        return 1.0, False
    n_steps = max(2, int(np.ceil(traj.duration / push_ctx.step_dt)) + 1)
    s = np.linspace(0.0, 1.0, n_steps)
    robot = traj.position(s)
    box = simulate_push(push_ctx.world, robot)
    e0 = float(np.sum((box[0] - push_ctx.target) ** 2))
    eT = float(np.sum((box[-1] - push_ctx.target) ** 2))
    return float(np.exp(eT - e0)), eT < e0


def evaluate_total(trajs, weights: CostWeights, limits: KinodynamicLimits,
                   grid: PhaseGrid, checker=None,
                   push_ctx: PushContext | None = None) -> list[CostReport]:
    """One CostReport per trajectory of a population (sharing n_via and dof).

    Positions, joint limits, collisions and smoothness are evaluated for the
    whole population at once; the push rollout runs per trajectory.
    """
    if not trajs:
        return []
    basis = trajs[0].basis
    u = basis.pack_stack([t.q_via for t in trajs], [t.bc for t in trajs],
                         [t.duration for t in trajs])
    q = np.matmul(basis.grid_matrices(grid.n_points)[0], u)
    smooth = stacked_smoothness(basis, u)
    for m, traj in enumerate(trajs):
        if traj.degenerate:
            # Zero duration: the trajectory rests at q0.
            q[m] = traj.bc.q0
            smooth[m] = 0.0
    jla, jla_counts = (x.tolist() for x in cost_jla(q, limits))
    hits = cost_collision(q, checker).tolist() if checker is not None else None
    smooth = smooth.tolist()
    reports = []
    for m, traj in enumerate(trajs):
        per_term: dict[str, float] = {"duration": cost_duration(traj),
                                      "smooth": smooth[m], "jla": jla[m]}
        violations = jla_counts[m]
        valid = violations == 0
        if hits is not None:
            per_term["collision"] = float(hits[m])
            violations += hits[m]
            valid &= hits[m] == 0
        if push_ctx is not None:
            push, push_valid = cost_push(traj, push_ctx)
            per_term["push"] = push
            if not push_valid:
                violations += 1
            valid &= push_valid

        total = (weights.duration * per_term["duration"]
                 + weights.smooth * per_term["smooth"]
                 + weights.jla * per_term["jla"]
                 + weights.collision * per_term.get("collision", 0.0)
                 + weights.push * per_term.get("push", 0.0))
        if not valid:
            total += weights.invalid_penalty + violations
        reports.append(CostReport(total=float(total), per_term=per_term,
                                  valid=bool(valid), violation_count=violations))
    return reports
