"""Phase-grid cost evaluation of candidate trajectories.

Task-agnostic terms (duration, smoothness, joint-limit avoidance) plus the
task-specific collision count and box-pushing progress.  Invalid candidates
(joint-limit hit, collision, or non-improving push) are not discarded; they
receive a large penalty plus their violation count so the evolution strategy
can still rank them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spline import smoothness_cost
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


def cost_jla(traj: Trajectory, limits: KinodynamicLimits,
             grid: PhaseGrid) -> tuple[float, int]:
    """Discontinuous joint-limit metric: 1 + overshoot per violating point/DoF."""
    if limits.q_min is None:
        return 0.0, 0
    q, _, _ = traj.sample_grid(grid)
    over = q >= limits.q_max
    under = q <= limits.q_min
    cost = float(np.sum((1.0 + q - limits.q_max)[over])
                 + np.sum((1.0 + limits.q_min - q)[under]))
    return cost, int(np.count_nonzero(over) + np.count_nonzero(under))


def cost_collision(traj: Trajectory, checker, grid: PhaseGrid) -> tuple[float, int]:
    """Number of grid configurations in collision.

    checker.colliding_mask(points) takes an (M, D) array of configurations and
    returns M booleans, true where a configuration is in collision.
    """
    q, _, _ = traj.sample_grid(grid)
    hits = int(np.count_nonzero(checker.colliding_mask(q)))
    return float(hits), hits


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


def evaluate_total(traj: Trajectory, weights: CostWeights,
                   limits: KinodynamicLimits, grid: PhaseGrid,
                   checker=None, push_ctx: PushContext | None = None) -> CostReport:
    """Aggregate all configured cost terms into a CostReport."""
    per_term: dict[str, float] = {}
    per_term["duration"] = cost_duration(traj)
    per_term["smooth"] = 0.0 if traj.degenerate else smoothness_cost(
        traj.basis, traj.q_via, traj.bc, traj.duration)
    violations = 0
    valid = True

    jla, jla_count = cost_jla(traj, limits, grid)
    per_term["jla"] = jla
    violations += jla_count
    valid &= jla_count == 0

    if checker is not None:
        coll, hits = cost_collision(traj, checker, grid)
        per_term["collision"] = coll
        violations += hits
        valid &= hits == 0
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
    return CostReport(total=float(total), per_term=per_term,
                      valid=bool(valid), violation_count=violations)
