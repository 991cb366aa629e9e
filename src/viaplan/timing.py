"""Minimal admissible duration synthesis under velocity and acceleration limits.

Given a spline in phase space, the time-domain profiles are
q-dot(s) = a(s)/T + b(s) and q-ddot(s) = c(s)/T^2 + d(s)/T, where a, c collect
the position-dependent parts and b, d the boundary-velocity parts.  On a
uniform phase grid each evaluation point admits a closed-form minimal duration
(linear inequalities in 1/T for velocities, quadratics for accelerations); the
synthesized duration is the most conservative of these, which saturates at
least one bound at one grid point.  `min_duration_arrays` solves the upper
and lower acceleration quadratics together on a leading axis.  Durations are
synthesized one candidate per `synthesize` call; costs are scored per
population in `costs.evaluate_total`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spline import BoundaryConditions, SplineBasis, build_basis, evaluate


class InfeasibleError(Exception):
    """No finite duration can satisfy the kinodynamic limits."""


@dataclass(frozen=True)
class KinodynamicLimits:
    """Per-DoF box bounds on velocity, acceleration and (optionally) position."""

    qd_min: np.ndarray
    qd_max: np.ndarray
    qdd_min: np.ndarray
    qdd_max: np.ndarray
    q_min: np.ndarray | None = None
    q_max: np.ndarray | None = None

    def __post_init__(self):
        for name in ("qd_min", "qd_max", "qdd_min", "qdd_max", "q_min", "q_max"):
            val = getattr(self, name)
            if val is not None:
                object.__setattr__(self, name, np.atleast_1d(np.asarray(val, dtype=float)))
        if not (np.all(self.qd_min < 0.0) and np.all(self.qd_max > 0.0)):
            raise ValueError("velocity bounds must straddle zero")
        if not (np.all(self.qdd_min < 0.0) and np.all(self.qdd_max > 0.0)):
            raise ValueError("acceleration bounds must straddle zero")
        if (self.q_min is None) != (self.q_max is None):
            raise ValueError("q_min and q_max must be given together")
        if self.q_min is not None and not np.all(self.q_min < self.q_max):
            raise ValueError("q_min must be below q_max")

    @classmethod
    def symmetric(cls, qd: float, qdd: float, dof: int,
                  q_range: tuple[float, float] | None = None) -> "KinodynamicLimits":
        ones = np.ones(dof)
        q_min = q_max = None
        if q_range is not None:
            q_min, q_max = q_range[0] * ones, q_range[1] * ones
        return cls(-qd * ones, qd * ones, -qdd * ones, qdd * ones, q_min, q_max)


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform evaluation grid s_k = k/K, k = 0..K."""

    k: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("phase grid needs K >= 2")

    @property
    def n_points(self) -> int:
        return self.k + 1

    @property
    def points(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.k + 1)


@dataclass(frozen=True)
class Trajectory:
    """A synthesized trajectory: spline shape plus total duration."""

    basis: SplineBasis
    q_via: np.ndarray  # (N, D)
    bc: BoundaryConditions
    duration: float
    degenerate: bool = False

    def position(self, s) -> np.ndarray:
        return self._evaluate(s, 0)

    def velocity(self, s) -> np.ndarray:
        return self._evaluate(s, 1)

    def acceleration(self, s) -> np.ndarray:
        return self._evaluate(s, 2)

    def _evaluate(self, s, order: int) -> np.ndarray:
        if not self.degenerate:
            return evaluate(self.basis, self.q_via, self.bc, self.duration, s, order)
        # Zero duration: the trajectory rests at q0.
        rest = self.bc.q0 if order == 0 else np.zeros(self.bc.dof)
        if np.ndim(s) == 0:
            return rest.copy()
        return np.tile(rest, (np.size(s), 1))

    def at_time(self, t: float, order: int = 0) -> np.ndarray:
        """Evaluate at absolute time t in [0, T] (clamped)."""
        s = 0.0 if self.degenerate else min(max(t / self.duration, 0.0), 1.0)
        return self._evaluate(s, order)

    def sample_grid(self, grid: PhaseGrid):
        """(positions, velocities, accelerations) on the phase grid."""
        if self.degenerate:
            return tuple(self._evaluate(grid.points, order) for order in range(3))
        e0, e1, e2 = self.basis.grid_matrices(grid.n_points)
        u = self.basis.pack(self.q_via, self.bc, self.duration)
        return (e0 @ u, e1 @ u / self.duration, e2 @ u / self.duration**2)


def min_duration_arrays(a, b, c, d, limits: KinodynamicLimits) -> float:
    """Minimal duration over stacked evaluation points, shape (..., D).

    At each point q-dot = a/T + b and q-ddot = c/T^2 + d/T.  With x = 1/T the
    velocity bounds are linear in x and the acceleration bounds are the
    quadratics c x^2 + d x = r, solved for r = qdd_max and r = qdd_min at once
    on a leading axis; the result is 1/x for the smallest admissible x > 0.
    """
    if (b > limits.qd_max).any() or (b < limits.qd_min).any():
        raise InfeasibleError("boundary velocities exceed the velocity limits")
    r = np.array([limits.qdd_max, limits.qdd_min])
    r = r.reshape((2,) + (1,) * (np.ndim(c) - 1) + r.shape[1:])
    # Lanes that divide by zero or take the root of a negative discriminant
    # give inf, or NaN or a negative x, which the `> 0` tests drop: each
    # lane's smallest positive x is the one the formulas give where they apply.
    with np.errstate(divide="ignore", invalid="ignore"):
        x_vel = np.where(a > 0.0, (limits.qd_max - b) / a,
                         np.where(a < 0.0, (limits.qd_min - b) / a, np.inf))
        # Linear lanes (c == 0): x = r / d.
        x_lin = r / d
        x_acc = np.where((c == 0.0) & (x_lin > 0.0), x_lin, np.inf)
        # Quadratic lanes (c != 0): both roots in the cancellation-free form.
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


def duration_splits(basis: SplineBasis, q_via, bc: BoundaryConditions, grid: PhaseGrid):
    """(a, b, c, d) arrays of shape (K+1, D) for the duration closed form."""
    _, e1, e2 = basis.grid_matrices(grid.n_points)
    u_a, u_b = basis.pack_split(q_via, bc)
    return e1 @ u_a, e1 @ u_b, e2 @ u_a, e2 @ u_b


def min_duration(basis: SplineBasis, q_via, bc: BoundaryConditions,
                 limits: KinodynamicLimits, grid: PhaseGrid) -> float:
    """Most conservative per-point minimal duration over the phase grid."""
    a, b, c, d = duration_splits(basis, q_via, bc, grid)
    return min_duration_arrays(a, b, c, d, limits)


def synthesize(basis: SplineBasis, q_via, bc: BoundaryConditions,
               limits: KinodynamicLimits, grid: PhaseGrid) -> Trajectory:
    """Build the kinodynamically admissible trajectory of minimal duration."""
    pts = np.zeros((0, bc.dof)) if q_via is None else np.asarray(q_via, dtype=float)
    pts = pts.reshape(basis.n_via, bc.dof)
    duration = min_duration(basis, pts, bc, limits, grid)
    return Trajectory(basis, pts, bc, duration, degenerate=(duration == 0.0))


def synthesize_direct(bc: BoundaryConditions, limits: KinodynamicLimits,
                      grid: PhaseGrid) -> Trajectory:
    """No-via-point trajectory: the unique clamped cubic between the states."""
    basis = build_basis(0, bc.dof)
    return synthesize(basis, None, bc, limits, grid)
