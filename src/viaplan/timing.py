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
evaluates at phases (`evaluate`, as `sample_grid` does) and at one time or
an array of times (`at_time`, each time as if alone); a zero duration is
degenerate and rests at q0, and one whose T^2 overflows divides by inf.
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
        derivatives divided by T and T^2 respectively.
        """
        if self.degenerate:
            rest = self.bc.q0 if order == 0 else np.zeros(self.bc.dof)
            return rest.copy() if np.ndim(s) == 0 else np.tile(rest, (np.size(s), 1))
        u = self.basis.pack(self.q_via, self.bc, self.duration)
        values = (self.basis.eval_matrix(s, order) @ u
                  / power_or_inf(self.duration, order))
        return values[0] if np.ndim(s) == 0 else values

    def at_time(self, t, order: int = 0) -> np.ndarray:
        """Evaluate at absolute time t in [0, T] (clamped), one row per time
        of an array t.  Each row is its own (1, N+4) @ (N+4, D) product, as
        for that time alone; one (S, N+4) product would round differently."""
        if self.degenerate:
            return self.evaluate(np.zeros(np.shape(t)), order)
        s = np.clip(np.divide(t, self.duration), 0.0, 1.0)
        u = self.basis.pack(self.q_via, self.bc, self.duration)
        rows = np.matmul(self.basis.eval_matrix(s, order)[:, None, :], u)[:, 0]
        rows /= power_or_inf(self.duration, order)
        return rows[0] if np.ndim(t) == 0 else rows

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
    everything that does not involve a or c: qd_max - b and qd_min - b in b's
    shape, and the acceleration lanes 4r, -d/2, -sign(d)/2, -r, d^2 and the
    positive part of r/d (the root of the linear lanes, c == 0), each a
    contiguous array of the roots' shape (2, ..., D), where sign(d) is 1 for
    d >= 0, else -1.  Every array is read-only.  `duration(a, c)` is the other
    half.

    b exceeds a velocity limit iff qd_max - b < 0 or qd_min - b > 0: a float
    difference has the sign of the exact one, and an infinite limit gives an
    infinity of its own sign.  `exact` says that 4r is finite and that
    sqrt(d^2) == |d| on every lane (d^2 neither overflows nor underflows), so
    that at c == 0 the second root, -r / -(d + sign(d) |d|)/2 = r/d, already
    is the linear lane's root.
    """

    feasible: bool             # b within the velocity limits
    vel_hi: np.ndarray         # qd_max - b
    vel_lo: np.ndarray         # qd_min - b
    r4: np.ndarray             # 4r, r = (qdd_max, qdd_min) on the leading axis
    neg_half_d: np.ndarray     # -d/2
    neg_half_sign: np.ndarray  # -sign(d)/2
    neg_r: np.ndarray          # -r
    d2: np.ndarray             # d^2
    x_lin: np.ndarray          # r/d where positive, else inf
    exact: bool                # 4r finite and sqrt(d^2) == |d| on every lane

    @classmethod
    def from_splits(cls, b, d, limits: KinodynamicLimits) -> "BoundaryLanes":
        # r and d as new C-ordered arrays of the roots' shape, so that every
        # lane computed from them is one too.
        r, d_ = np.empty((2, 2) + np.shape(d))
        r[0], r[1], d_[...] = limits.qdd_max, limits.qdd_min, d
        d2 = d_**2
        # An infinite 4r or r/d, or qd_max - b, is the correctly rounded value.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x_lin = r / d_
            lanes = (np.subtract(limits.qd_max, b), np.subtract(limits.qd_min, b),
                     4.0 * r, -0.5 * d_, np.where(d_ >= 0.0, -0.5, 0.5), -r, d2,
                     np.where(x_lin > 0.0, x_lin, np.inf))
        for lane in lanes:
            lane.flags.writeable = False
        vel_hi, vel_lo, r4 = lanes[:3]
        return cls(not ((vel_hi < 0.0).any() or (vel_lo > 0.0).any()), *lanes,
                   bool(np.isfinite(r4).all() and (np.sqrt(d2) == np.abs(d_)).all()))

    @np.errstate(divide="ignore", invalid="ignore", over="raise")
    def duration(self, a, c) -> float:
        """Minimal duration given the position parts a, shape (..., D), and c,
        of that shape or stacked twice on a leading axis: 1/x for the smallest
        admissible x > 0 over every point and DoF.  InfeasibleError when the
        boundary breaks the velocity limits, when a limit is active at
        infinite duration, or when 1/x overflows.

        One (5, ..., D) buffer takes the velocity lane and the four
        acceleration roots, both roots of each quadratic in the
        cancellation-free form qv/c and -r/qv with
        qv = -(d + sign(d) sqrt(d^2 + 4cr))/2.  qv is computed as
        (-d/2) + (-sign(d)/2) sqrt(c (4r) + d^2): scaling by 4 and by 1/2 is
        exact unless a value overflows or is subnormal, so every root is the
        float that -0.5 * (d + sign(d) * sqrt(d^2 + 4.0 * c * r)) gives.
        Where the boundary is `exact` and no step overflows, as on every
        candidate of a usual problem, that is all; otherwise the candidate is
        recomputed by `_roots(a, c, wide=True)`, with overflows ignored.
        """
        if not self.feasible:
            raise InfeasibleError("boundary velocities exceed the velocity limits")
        try:
            x = self._roots(a, c) if self.exact else None
        except FloatingPointError:
            x = None
        if x is None:
            with np.errstate(over="ignore"):
                x = self._roots(a, c, wide=True)
        x_min = np.fmin.reduce(x, axis=None, initial=np.inf)
        if x_min <= 0.0:
            raise InfeasibleError("a kinodynamic limit is active at infinite duration")
        duration = 1.0 / float(x_min)
        if duration == np.inf:
            raise InfeasibleError(f"the minimal duration 1/{x_min:g} overflows")
        return duration

    def _roots(self, a, c, wide: bool = False) -> np.ndarray:
        """The (5, ..., D) buffer of admissible x per lane, inf where a lane
        sets no bound.  wide also gives the linear lanes r/d, and takes qv
        from `_wide_qv` where d^2 is finite but d^2 + 4cr is not, the lanes
        whose roots an overflow on the way would lose; an overflowed
        quotient is the inf it rounds to."""
        # Velocity lanes with a == +-0 divide the limit that the sign bit
        # picks, which is never of the opposite sign, so they give +inf, or
        # NaN when b sits on that limit, which fmin skips; a velocity lane of
        # 0 makes the move infeasible.  Root lanes that divide by zero or take
        # the root of a negative discriminant give inf, NaN or a negative x:
        # roots <= 0 become inf and fmin skips NaN.  Each lane's smallest
        # positive x is the one the formulas give where they apply.
        x = np.empty((5,) + a.shape)
        np.divide(np.where(np.signbit(a), self.vel_lo, self.vel_hi), a, out=x[0])
        qv = np.multiply(c, self.r4)
        qv += self.d2
        lost = wide and ~np.isfinite(qv) & np.isfinite(self.d2)
        np.sqrt(qv, out=qv)
        qv *= self.neg_half_sign
        qv += self.neg_half_d
        if wide and lost.any():
            np.copyto(qv, self._wide_qv(c), where=lost)
        np.divide(qv, c, out=x[1:3])
        np.divide(self.neg_r, qv, out=x[3:])
        if wide:
            # Linear lanes (c == 0) take r/d in place of the second root.
            np.copyto(x[3:], self.x_lin, where=c == 0.0)
        roots = x[1:]
        np.putmask(roots, roots <= 0.0, np.inf)
        return x

    def _wide_qv(self, c) -> np.ndarray:
        """qv = -(h + sign(d) sqrt(h^2 + c r)), h = d/2, on every lane, with
        the square root taken as m sqrt((h/m)^2 +- (g/m)^2) for
        g = sqrt|c| sqrt|r| and m = max(|h|, g): no step overflows unless
        |c r| is near the square of the largest float."""
        h = -self.neg_half_d
        g = np.sqrt(np.abs(c)) * np.sqrt(np.abs(self.neg_r))
        m = np.maximum(np.abs(h), g)
        root = m * np.sqrt((h / m)**2 - np.sign(c) * np.sign(self.neg_r) * (g / m)**2)
        return self.neg_half_d + 2.0 * self.neg_half_sign * root


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
