"""Minimal admissible duration synthesis under velocity and acceleration limits.

Given a spline in phase space, the time-domain profiles are
q-dot(s) = a(s)/T + b(s) and q-ddot(s) = c(s)/T^2 + d(s)/T, where a, c collect
the position-dependent parts and b, d the boundary-velocity parts.  On a
uniform phase grid each evaluation point admits a closed-form minimal duration
(linear inequalities in 1/T for velocities, quadratics for accelerations); the
synthesized duration is the most conservative of these, which saturates at
least one bound at one grid point.  The kernel comes in two halves: the
boundary half (`Boundary`, from b and d) is built by `boundary_half` from
exactly what a whole solve or MPC step shares, the basis, boundary conditions,
limits and grid, once per solve or MPC step, with the grid matrices that
`SplineBasis.grid_matrices` caches, and is passed to every `synthesize` of it
and to `costs.evaluate_total`, which prices its candidates on the same limits
and grid.  The boundary half holds its lanes read-only and already
in the shape of the acceleration roots, so the candidate half
(`BoundaryLanes.duration`), which takes a and c, writes the velocity lane and
the roots of the upper and lower acceleration quadratics into one buffer in
about fifteen numpy calls that broadcast nothing.  A move that stays at one
rest state (q0 == qT, zero boundary velocities, every via-point at q0) has
duration 0.0 exactly, whatever the rounding of a and c; via-points with a
non-finite entry have no duration.  The no-via-point plan between two
states is `synthesize` over the boundary half of `build_basis(0, D)` with
None for its via-points, as `planner.score_direct` builds it.  A `Trajectory`
has one evaluator, `evaluate`, which takes each phase as if alone;
`sample_grid` calls it on the phase grid and `at_time` at the clamped phase
of a time.  A zero duration is degenerate and rests at q0, and one whose T^2
overflows divides by inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spline import BoundaryConditions, SplineBasis, frozen_array


class InfeasibleError(Exception):
    """No finite duration can satisfy the kinodynamic limits."""


@dataclass(frozen=True, eq=False)
class KinodynamicLimits:
    """Per-DoF box bounds on velocity, acceleration and (optionally) position,
    held as read-only copies like BoundaryConditions.  Velocity and
    acceleration bounds are finite: an unbounded one would let every move
    take zero time.  Position bounds may be infinite."""

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
        if not all(np.isfinite(v).all() for v in (self.qd_min, self.qd_max,
                                                  self.qdd_min, self.qdd_max)):
            raise ValueError("velocity and acceleration bounds must be finite")
        if (self.q_min is None) != (self.q_max is None):
            raise ValueError("q_min and q_max must be given together")
        if self.q_min is not None and not np.all(self.q_min < self.q_max):
            raise ValueError("q_min must be below q_max")

    def check_dof(self, dof: int) -> None:
        """Raise ValueError unless every limit holds one value per DoF."""
        if any(v is not None and v.shape != (dof,) for v in vars(self).values()):
            raise ValueError("every limit needs one value per DoF of q0")

    @classmethod
    def symmetric(cls, qd: float, qdd: float, dof: int,
                  q_range: tuple[float, float] | None = None) -> "KinodynamicLimits":
        ones = np.ones(dof)
        q_min = q_max = None
        if q_range is not None:
            q_min, q_max = q_range[0] * ones, q_range[1] * ones
        return cls(-qd * ones, qd * ones, -qdd * ones, qdd * ones, q_min, q_max)


def power_or_inf(x: float, n: int) -> float:
    """x**n, or inf where that float power overflows and would raise."""
    try:
        return x**n
    except OverflowError:
        return np.inf


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
    """A synthesized trajectory: spline shape plus total duration, finite
    and non-negative.  A zero duration is a degenerate trajectory, which
    rests at q0."""

    basis: SplineBasis
    q_via: np.ndarray  # (N, D)
    bc: BoundaryConditions
    duration: float

    def __post_init__(self):
        if not 0.0 <= self.duration < np.inf:
            raise ValueError(f"a trajectory needs a finite non-negative duration, "
                             f"not {self.duration:g}")

    @property
    def degenerate(self) -> bool:
        return self.duration == 0.0

    def evaluate(self, s, order: int = 0) -> np.ndarray:
        """q, q-dot or q-ddot at phase s, one row per phase of an array s.

        Order 1 and 2 return time-domain derivatives, i.e. the phase
        derivatives divided by T and T^2 respectively.  Each row is its own
        (1, N+4) @ (N+4, D) product, as for that phase alone; one (S, N+4)
        product would round differently.
        """
        if self.degenerate:
            rest = self.bc.q0 if order == 0 else np.zeros(self.bc.dof)
            return rest.copy() if np.ndim(s) == 0 else np.tile(rest, (np.size(s), 1))
        u = self.basis.pack(self.q_via, self.bc, self.duration)
        rows = np.matmul(self.basis.eval_matrix(s, order)[:, None, :], u)[:, 0]
        rows /= power_or_inf(self.duration, order)
        return rows[0] if np.ndim(s) == 0 else rows

    def at_time(self, t, order: int = 0) -> np.ndarray:
        """`evaluate` at the phase t/T of absolute time t, clamped to [0, 1],
        one row per time of an array t; T is 1 for a degenerate trajectory."""
        return self.evaluate(np.clip(np.divide(t, self.duration or 1.0), 0.0, 1.0), order)

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
    everything that does not involve a or c, read-only: qd_max - b and
    qd_min - b in b's shape, and the acceleration lanes 4r, -d/2, -sign(d)/2,
    -r and d^2, each a contiguous array of the roots' shape (2, ..., D),
    where sign(d) is 1 for d >= 0, else -1.  `duration(a, c)` is the other half.

    `feasible` is the one rule for a boundary no candidate can be timed on:
    b within the velocity limits, qd_max - b >= 0 and qd_min - b <= 0 (a float
    difference has the sign of the exact one, an infinite limit gives an
    infinity of its sign), and the closed form holding on every lane: 4r
    finite and sqrt(d^2) == |d| (a boundary velocity of 1e160 or 1e-160
    breaks it), so at c == 0 the second root, -r/qv = r/d, is the linear lane's.
    """

    feasible: bool             # b within the velocity limits, closed form holds
    vel_hi: np.ndarray         # qd_max - b
    vel_lo: np.ndarray         # qd_min - b
    r4: np.ndarray             # 4r, r = (qdd_max, qdd_min) on the leading axis
    neg_half_d: np.ndarray     # -d/2
    neg_half_sign: np.ndarray  # -sign(d)/2
    neg_r: np.ndarray          # -r
    d2: np.ndarray             # d^2

    @classmethod
    def from_splits(cls, b, d, limits: KinodynamicLimits) -> "BoundaryLanes":
        # r and d as new C-ordered arrays of the roots' shape, so that every
        # lane computed from them is one too.
        r, d_ = np.empty((2, 2) + np.shape(d))
        r[0], r[1], d_[...] = limits.qdd_max, limits.qdd_min, d
        # An infinite 4r, d^2 or qd_max - b is the correctly rounded value.
        with np.errstate(over="ignore"):
            lanes = (np.subtract(limits.qd_max, b), np.subtract(limits.qd_min, b),
                     4.0 * r, -0.5 * d_, np.where(d_ >= 0.0, -0.5, 0.5), -r, d_**2)
        for lane in lanes:
            lane.flags.writeable = False
        vel_hi, vel_lo, r4, *_, d2 = lanes
        within = not ((vel_hi < 0.0).any() or (vel_lo > 0.0).any())
        closed = np.isfinite(r4).all() and (np.sqrt(d2) == np.abs(d_)).all()
        return cls(bool(within and closed), *lanes)

    @np.errstate(divide="ignore", invalid="ignore", over="raise")
    def duration(self, a, c) -> float:
        """Minimal duration given the position parts a, shape (..., D), and c,
        of that shape or stacked twice on a leading axis: 1/x for the smallest
        admissible x > 0 over every point and DoF.  InfeasibleError when the
        boundary is not `feasible`, when a lane's discriminant c (4r) + d^2 or
        root overflows, when a limit is active at infinite duration, or when
        1/x overflows: what the closed form cannot represent in floats has no
        duration, rather than one that breaks the limits.

        One (5, ..., D) buffer takes the velocity lane and the four
        acceleration roots, each quadratic's in the cancellation-free form
        qv/c and -r/qv, qv = -(d + sign(d) sqrt(d^2 + 4cr))/2, computed as
        (-d/2) + (-sign(d)/2) sqrt(c (4r) + d^2): scaling by 4 and by 1/2 is
        exact unless a value overflows or is subnormal, so every root is the
        float that -0.5 * (d + sign(d) * sqrt(d^2 + 4.0 * c * r)) gives.
        """
        if not self.feasible:
            raise InfeasibleError("boundary velocities exceed the velocity limits or "
                                  "the float range of the closed form")
        try:
            x = self._roots(a, c)
        except FloatingPointError:
            raise InfeasibleError("the acceleration closed form overflows") from None
        x_min = np.fmin.reduce(x, axis=None, initial=np.inf)
        if x_min <= 0.0:
            raise InfeasibleError("a kinodynamic limit is active at infinite duration")
        duration = 1.0 / float(x_min)
        if duration == np.inf:
            raise InfeasibleError(f"the minimal duration 1/{x_min:g} overflows")
        return duration

    def _roots(self, a, c) -> np.ndarray:
        """The (5, ..., D) buffer of admissible x per lane, inf where a lane
        sets no bound.  An overflowing velocity quotient is recomputed as the
        inf it rounds to, no bound; any other overflow raises FloatingPointError."""
        # Velocity lanes with a == +-0 divide the limit that the sign bit
        # picks, which is never of the opposite sign, so they give +inf, or
        # NaN when b sits on that limit, which fmin skips; a velocity lane of
        # 0 makes the move infeasible.  Root lanes that divide by zero or take
        # the root of a negative discriminant give inf, NaN or a negative x:
        # roots <= 0 become inf and fmin skips NaN.  Each lane's smallest
        # positive x is the one the formulas give where they apply.
        x = np.empty((5,) + a.shape)
        vel = np.where(np.signbit(a), self.vel_lo, self.vel_hi)
        try:
            np.divide(vel, a, out=x[0])
        except FloatingPointError:
            with np.errstate(over="ignore"):
                np.divide(vel, a, out=x[0])
        qv = np.multiply(c, self.r4)
        qv += self.d2
        np.sqrt(qv, out=qv)
        qv *= self.neg_half_sign
        qv += self.neg_half_d
        np.divide(qv, c, out=x[1:3])
        np.divide(self.neg_r, qv, out=x[3:])
        roots = x[1:]
        np.putmask(roots, roots <= 0.0, np.inf)
        return x


@dataclass(frozen=True, eq=False)
class Boundary:
    """What every candidate of one (basis, bc, limits, grid) shares: the
    limits, the boundary rows of U_a, the grid matrix E0 that costs are
    priced with, E1 and E2 stacked as (E1, E2, E2), so that one matmul gives
    a = E1 U_a and c = E2 U_a twice, in the roots' shape, the BoundaryLanes
    of the boundary parts b = E1 U_b and d = E2 U_b, and whether bc is one
    rest state (q0 == qT with zero velocities).  Its arrays are read-only,
    so no candidate can change what the next sees."""

    basis: SplineBasis
    bc: BoundaryConditions
    limits: KinodynamicLimits
    tail: np.ndarray         # rows N.. of U_a: q0, 0, qT, 0
    e0: np.ndarray           # E0, the grid positions of U
    e_stack: np.ndarray      # (E1, E2, E2) on a leading axis
    lanes: BoundaryLanes
    rest: bool


def boundary_half(basis: SplineBasis, bc: BoundaryConditions,
                  limits: KinodynamicLimits, grid: PhaseGrid) -> Boundary:
    """The boundary half of the duration kernel, built once per solve or
    MPC step and shared by all its candidates."""
    e0, e_stack = basis.grid_matrices(grid.n_points)
    e1, e2, _ = e_stack
    u_a, u_b = basis.pack_split(np.zeros((basis.n_via, basis.dof)), bc)
    rest = bool((bc.q0 == bc.qT).all() and not (bc.qd0.any() or bc.qdT.any()))
    return Boundary(basis, bc, limits, frozen_array(u_a[basis.n_via:]), e0, e_stack,
                    BoundaryLanes.from_splits(e1 @ u_b, e2 @ u_b, limits), rest)


def min_duration(boundary: Boundary, q_via) -> float:
    """Most conservative per-point minimal duration over the phase grid.

    Per call only the via-points are packed into U_a = [q_via; boundary rows]
    and a = E1 U_a, c = E2 U_a are formed, in one stacked matmul whose slices
    are the products E1 U_a and E2 U_a bit for bit; the rest is the boundary
    half.  A trajectory that never leaves its rest state takes 0.0: exactly,
    a and c are zero, but E1 U_a and E2 U_a round to about 1e-16, which would
    give a duration of about 1e-8 s.  Via-points with a non-finite entry raise
    InfeasibleError: the lanes they reach are NaN, which the kernel skips, so
    the others would give a finite duration (0.0 when all are NaN).
    """
    pts = boundary.basis.via_matrix(q_via)
    if not np.isfinite(pts).all():
        raise InfeasibleError("via-points must be finite")
    if boundary.rest and (pts == boundary.bc.q0).all():
        return 0.0
    u_a = np.concatenate((pts, boundary.tail))
    ac = boundary.e_stack @ u_a
    return boundary.lanes.duration(ac[0], ac[1:])


def synthesize(boundary: Boundary, q_via) -> Trajectory:
    """Build the kinodynamically admissible trajectory of minimal duration."""
    pts = boundary.basis.via_matrix(q_via)
    return Trajectory(boundary.basis, pts, boundary.bc, min_duration(boundary, pts))
