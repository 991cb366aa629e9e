"""Minimal admissible duration synthesis under velocity and acceleration limits.

Given a spline in phase space, the time-domain profiles are
q-dot(s) = a(s)/T + b(s) and q-ddot(s) = c(s)/T^2 + d(s)/T, where a, c collect
the position-dependent parts and b, d the boundary-velocity parts.  On a
uniform phase grid each evaluation point admits a closed-form minimal duration
(linear inequalities in 1/T for velocities, quadratics for accelerations); the
synthesized duration is the most conservative of these, which saturates at
least one bound at one grid point.  The kernel comes in two halves: the
boundary half (`Boundary`, from b and d) is built by `boundary_half` from
exactly what a whole solve or MPC step shares, the basis, boundary
conditions, limits and grid, once per solve or MPC step, and is passed to
every `synthesize` of it; the candidate half (`BoundaryLanes.duration`) takes
a and c and solves the upper and lower acceleration quadratics together on a
leading axis.  A move that stays at one rest state (q0 == qT, zero boundary
velocities, every via-point at q0) has duration 0.0 exactly, whatever the
rounding of a and c.  Durations are synthesized one candidate per
`synthesize` call; costs are scored per population in
`costs.evaluate_total`.  The resulting `Trajectory` has one evaluator,
`Trajectory.evaluate(s, order)`, which `at_time` and `sample_grid` call; a
zero duration is degenerate and rests at q0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spline import BoundaryConditions, SplineBasis, build_basis, frozen_array


class InfeasibleError(Exception):
    """No finite duration can satisfy the kinodynamic limits."""


@dataclass(frozen=True, eq=False)
class KinodynamicLimits:
    """Per-DoF box bounds on velocity, acceleration and (optionally) position,
    held as read-only copies like BoundaryConditions."""

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
                object.__setattr__(self, name, frozen_array(val))
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


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A synthesized trajectory: spline shape plus total duration.  A zero
    duration is a degenerate trajectory, which rests at q0."""

    basis: SplineBasis
    q_via: np.ndarray  # (N, D)
    bc: BoundaryConditions
    duration: float

    @property
    def degenerate(self) -> bool:
        return self.duration == 0.0

    def evaluate(self, s, order: int = 0) -> np.ndarray:
        """q, q-dot or q-ddot at phase s, one row per phase of an array s.

        Order 1 and 2 return time-domain derivatives, i.e. the phase
        derivatives divided by T and T^2 respectively.
        """
        if self.degenerate:
            rest = self.bc.q0 if order == 0 else np.zeros(self.bc.dof)
            return rest.copy() if np.ndim(s) == 0 else np.tile(rest, (np.size(s), 1))
        if order >= 1 and self.duration < 0.0:
            raise ValueError("time-domain derivatives need a positive duration")
        u = self.basis.pack(self.q_via, self.bc, self.duration)
        values = self.basis.eval_matrix(s, order) @ u / self.duration**order
        return values[0] if np.ndim(s) == 0 else values

    def at_time(self, t: float, order: int = 0) -> np.ndarray:
        """Evaluate at absolute time t in [0, T] (clamped)."""
        s = 0.0 if self.degenerate else min(max(t / self.duration, 0.0), 1.0)
        return self.evaluate(s, order)

    def sample_grid(self, grid: PhaseGrid):
        """(positions, velocities, accelerations) on the phase grid."""
        return tuple(self.evaluate(grid.points, k) for k in range(3))


@dataclass(frozen=True, eq=False)
class BoundaryLanes:
    """The half of the duration closed form that depends only on the boundary
    conditions, the limits and the grid, which a whole ES generation shares.

    At each point q-dot = a/T + b and q-ddot = c/T^2 + d/T.  With x = 1/T the
    velocity bounds are linear in x and the acceleration bounds are the
    quadratics c x^2 + d x = r, for r = qdd_max and r = qdd_min on a leading
    axis.  From the boundary parts b and d, shape (..., D), this holds
    everything that does not involve a or c: qd_max - b, qd_min - b, the
    positive part of r/d (the root of the linear lanes, c == 0), sign(d), d^2,
    r and -r.  `duration(a, c)` is the other half.  b exceeds a velocity limit
    iff qd_max - b < 0 or qd_min - b > 0: a float difference has the sign of
    the exact one, and an infinite limit gives an infinity of its own sign.
    """

    feasible: bool           # b within the velocity limits
    d: np.ndarray
    vel_hi: np.ndarray       # qd_max - b
    vel_lo: np.ndarray       # qd_min - b
    x_lin: np.ndarray        # r/d where positive, else inf
    sign_d: np.ndarray       # 1 where d >= 0, else -1
    d2: np.ndarray           # d^2
    r: np.ndarray            # (qdd_max, qdd_min), shape (2, 1.., D)
    neg_r: np.ndarray        # -r

    @classmethod
    def from_splits(cls, b, d, limits: KinodynamicLimits) -> "BoundaryLanes":
        vel_hi, vel_lo = limits.qd_max - b, limits.qd_min - b
        r = np.array([limits.qdd_max, limits.qdd_min])
        r = r.reshape((2,) + (1,) * (np.ndim(d) - 1) + r.shape[1:])
        with np.errstate(divide="ignore", invalid="ignore"):
            x_lin = r / d
        return cls(not ((vel_hi < 0.0).any() or (vel_lo > 0.0).any()), d,
                   vel_hi, vel_lo, np.where(x_lin > 0.0, x_lin, np.inf),
                   np.where(d >= 0.0, 1.0, -1.0), d**2, r, -r)

    def duration(self, a, c) -> float:
        """Minimal duration given the position parts a and c, shape (..., D):
        1/x for the smallest admissible x > 0 over every point and DoF."""
        if not self.feasible:
            raise InfeasibleError("boundary velocities exceed the velocity limits")
        # Root lanes that divide by zero or take the root of a negative
        # discriminant give inf, NaN or a negative x, which the `> 0` test
        # drops.  Velocity lanes with a == +-0 divide the limit that the sign
        # bit picks, which is never of the opposite sign, so they give +inf,
        # or NaN when b sits on that limit, which fmin skips.  Each lane's
        # smallest positive x is the one the formulas give where they apply.
        with np.errstate(divide="ignore", invalid="ignore"):
            x_vel = np.where(np.signbit(a), self.vel_lo, self.vel_hi) / a
            # Quadratic lanes (c != 0): both roots in the cancellation-free
            # form; linear lanes (c == 0) take r/d in place of the second.
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


@dataclass(frozen=True, eq=False)
class Boundary:
    """What every candidate of one (basis, bc, limits, grid) shares: the
    boundary rows of U_a, the grid matrices E1 and E2, the BoundaryLanes of
    the boundary parts b = E1 U_b and d = E2 U_b, and whether bc is one rest
    state (q0 == qT with zero velocities)."""

    basis: SplineBasis
    bc: BoundaryConditions
    tail: np.ndarray         # rows N.. of U_a: q0, 0, qT, 0
    e1: np.ndarray
    e2: np.ndarray
    lanes: BoundaryLanes
    rest: bool


def boundary_half(basis: SplineBasis, bc: BoundaryConditions,
                  limits: KinodynamicLimits, grid: PhaseGrid) -> Boundary:
    """The boundary half of the duration kernel, built once per solve or
    MPC step and shared by all its candidates."""
    _, e1, e2 = basis.grid_matrices(grid.n_points)
    u_a, u_b = basis.pack_split(np.zeros((basis.n_via, basis.dof)), bc)
    rest = bool((bc.q0 == bc.qT).all() and not (bc.qd0.any() or bc.qdT.any()))
    return Boundary(basis, bc, u_a[basis.n_via:], e1, e2,
                    BoundaryLanes.from_splits(e1 @ u_b, e2 @ u_b, limits), rest)


def min_duration(boundary: Boundary, q_via) -> float:
    """Most conservative per-point minimal duration over the phase grid.

    Per call only the via-points are packed into U_a = [q_via; boundary rows]
    and a = E1 U_a, c = E2 U_a are formed; the rest is the boundary half.
    A trajectory that never leaves its rest state takes 0.0: exactly, a and c
    are zero, but E1 U_a and E2 U_a round to about 1e-16, which would give a
    duration of about 1e-8 s.
    """
    pts = boundary.basis.via_matrix(q_via)
    if boundary.rest and (pts == boundary.bc.q0).all():
        return 0.0
    u_a = np.concatenate((pts, boundary.tail))
    return boundary.lanes.duration(boundary.e1 @ u_a, boundary.e2 @ u_a)


def synthesize(boundary: Boundary, q_via) -> Trajectory:
    """Build the kinodynamically admissible trajectory of minimal duration."""
    pts = boundary.basis.via_matrix(q_via)
    return Trajectory(boundary.basis, pts, boundary.bc, min_duration(boundary, pts))


def synthesize_direct(bc: BoundaryConditions, limits: KinodynamicLimits,
                      grid: PhaseGrid) -> Trajectory:
    """No-via-point trajectory: the unique clamped cubic between the states."""
    return synthesize(boundary_half(build_basis(0, bc.dof), bc, limits, grid), None)
