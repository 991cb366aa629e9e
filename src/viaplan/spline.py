"""Minimum-effort cubic-spline trajectories over via-points and boundary conditions.

A trajectory is parameterized on the phase interval [0, 1] by N via-points at
uniform phase timings s_n = n/(N+1) plus boundary positions and velocities.
The curve is the clamped C^2 cubic spline through these constraints, which is
the unique minimizer of the integrated squared second phase-derivative among
all C^2 interpolants.  Everything is linear in the stacked parameter vector,
so evaluation (`SplineBasis.eval_matrix`, applied by `timing.Trajectory.evaluate`)
and the smoothness Gram matrix (`SplineBasis.gram`) reduce to precomputed
matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


# d^k/dtau^k of (1, tau, tau^2, tau^3) for k = 0, 1, 2, each term as
# (coefficient, exponent) of tau.  The exponents stay Python ints, so tau**2
# is a square and tau**3 a power, as numpy rounds them.
_DERIVATIVES = (((1, 0), (1, 1), (1, 2), (1, 3)),
               ((0, 0), (1, 0), (2, 1), (3, 2)),
               ((0, 0), (0, 0), (2, 0), (6, 1)))


def via_timings(n_via: int) -> np.ndarray:
    """Uniform via-point phase timings s_n = n/(N+1), n = 1..N."""
    return np.arange(1, n_via + 1) / (n_via + 1)


def frozen_array(values) -> np.ndarray:
    """A read-only float copy of values, at least 1-D."""
    arr = np.array(values, dtype=float, ndmin=1)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class BoundaryConditions:
    """Boundary positions and velocities (velocities in units per second).

    Velocities are stored in the time domain; they map to phase derivatives by
    multiplication with the total duration T at evaluation time.  The arrays
    are read-only copies, so a BoundaryConditions never changes after it is
    built.
    """

    q0: np.ndarray
    qd0: np.ndarray
    qT: np.ndarray
    qdT: np.ndarray

    def __post_init__(self):
        for name in ("q0", "qd0", "qT", "qdT"):
            object.__setattr__(self, name, frozen_array(getattr(self, name)))
        shapes = {self.q0.shape, self.qd0.shape, self.qT.shape, self.qdT.shape}
        if len(shapes) != 1 or self.q0.ndim != 1:
            raise ValueError("boundary vectors must share one dimension D")
        if self.dof == 0:
            raise ValueError("boundary vectors need at least one DoF")
        if not all(np.all(np.isfinite(v)) for v in (self.q0, self.qd0, self.qT, self.qdT)):
            raise ValueError("boundary conditions must be finite")

    @property
    def dof(self) -> int:
        return self.q0.shape[0]


class SplineBasis:
    """Linear maps from (via-points, boundary params) to the clamped cubic spline.

    The scalar parameter vector has length N+4 and is ordered
    [v_1 .. v_N, q0, q'0, qT, q'T] with boundary slopes given as phase
    derivatives.  Multi-DoF trajectories stack one such vector per DoF; since
    the interpolation problem decouples across DoFs the same scalar maps apply
    columnwise.
    """

    def __init__(self, n_via: int, dof: int):
        if n_via < 0 or dof < 1:
            raise ValueError("need n_via >= 0 and dof >= 1")
        self.n_via = n_via
        self.dof = dof
        self.n_coef = n_via + 4
        self.n_segments = n_via + 1
        self.h = 1.0 / (n_via + 1)
        self._coeffs = self._build_coeffs(n_via)
        self.gram = self._build_gram()   # (N+4, N+4), of the scalar vector
        self._grid_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @staticmethod
    def _build_coeffs(n: int) -> np.ndarray:
        """Per-segment cubic coefficient maps, shape (N+1, 4, N+4).

        Segment j covers [j*h, (j+1)*h]; coefficients are in the local
        variable tau = (s - j*h)/h.
        """
        h = 1.0 / (n + 1)
        n_coef = n + 4
        # Knot-value selector rows y_0 .. y_{N+1}.
        Y = np.zeros((n + 2, n_coef))
        Y[0, n] = 1.0       # q0
        Y[n + 1, n + 2] = 1.0  # qT
        for i in range(1, n + 1):
            Y[i, i - 1] = 1.0
        # Knot-slope rows m_0 .. m_{N+1} (phase derivatives).
        M = np.zeros((n + 2, n_coef))
        M[0, n + 1] = 1.0   # q'0
        M[n + 1, n + 3] = 1.0  # q'T
        if n > 0:
            # C^2 condition at interior knots: m_{i-1} + 4 m_i + m_{i+1}
            # = 3 (y_{i+1} - y_{i-1}) / h, with boundary slopes known.
            A = np.diag(np.full(n, 4.0))
            A += np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
            R = (3.0 / h) * (Y[2:] - Y[:-2])
            R[0] -= M[0]
            R[-1] -= M[n + 1]
            M[1:n + 1] = np.linalg.solve(A, R)
        coeffs = np.zeros((n + 1, 4, n_coef))
        for j in range(n + 1):
            y0, y1 = Y[j], Y[j + 1]
            m0, m1 = h * M[j], h * M[j + 1]
            coeffs[j, 0] = y0
            coeffs[j, 1] = m0
            coeffs[j, 2] = 3.0 * (y1 - y0) - 2.0 * m0 - m1
            coeffs[j, 3] = 2.0 * (y0 - y1) + m0 + m1
        return coeffs

    def _build_gram(self) -> np.ndarray:
        """Exact Gram matrix of second phase-derivatives, shape (N+4, N+4)."""
        G = np.zeros((self.n_coef, self.n_coef))
        inv_h3 = 1.0 / self.h**3
        for j in range(self.n_segments):
            c2 = self._coeffs[j, 2]
            c3 = self._coeffs[j, 3]
            G += inv_h3 * (4.0 * np.outer(c2, c2)
                           + 6.0 * (np.outer(c2, c3) + np.outer(c3, c2))
                           + 12.0 * np.outer(c3, c3))
        return G

    # -- evaluation -------------------------------------------------------

    def eval_matrix(self, s, order: int = 0) -> np.ndarray:
        """Rows mapping the scalar parameter vector to q^(order)(s), per phase."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if np.any(s < 0.0) or np.any(s > 1.0):
            raise ValueError("phase values must lie in [0, 1]")
        seg = np.minimum((s * self.n_segments).astype(int), self.n_segments - 1)
        tau = s * self.n_segments - seg
        if order not in (0, 1, 2):
            raise ValueError("order must be 0, 1 or 2")
        powers = np.stack([coef * tau**exp for coef, exp in _DERIVATIVES[order]], axis=1)
        return np.einsum("sk,skc->sc", powers, self._coeffs[seg]) / self.h**order

    def grid_matrices(self, n_points: int):
        """Cached evaluation matrices on a uniform phase grid: E0, and E1 and
        E2 stacked as (E1, E2, E2) on a leading axis, the shape the duration
        kernel multiplies by.  Read-only, since every caller on this basis
        shares them."""
        cached = self._grid_cache.get(n_points)
        if cached is None:
            s = np.linspace(0.0, 1.0, n_points)
            e1, e2 = (self.eval_matrix(s, order) for order in (1, 2))
            cached = (frozen_array(self.eval_matrix(s, 0)),
                      frozen_array(np.stack((e1, e2, e2))))
            self._grid_cache[n_points] = cached
        return cached

    # -- parameter packing ------------------------------------------------

    def via_matrix(self, q_via) -> np.ndarray:
        """Via-points as an (N, D) float array, or (..., N, D) for a stack of
        them; None stands for no via-points."""
        pts = np.zeros((0, self.dof)) if q_via is None else np.asarray(q_via, dtype=float)
        lead = pts.shape[:-2] if pts.ndim > 2 else ()
        return pts.reshape(lead + (self.n_via, self.dof))

    def pack_split(self, q_via, bc: BoundaryConditions):
        """Split parameter matrices (U_a, U_b) with U = U_a + T * U_b.

        U_a carries via-points and boundary positions, with the leading axes
        of a stack of via-points; U_b, shape (N+4, D), carries boundary
        velocities in the phase-slope slots (their phase derivatives scale
        with the duration T).
        """
        n = self.n_via
        pts = self.via_matrix(q_via)
        u_a = np.zeros(pts.shape[:-2] + (self.n_coef, self.dof))
        u_b = np.zeros((self.n_coef, self.dof))
        u_a[..., :n, :] = pts
        u_a[..., n, :] = bc.q0
        u_a[..., n + 2, :] = bc.qT
        u_b[n + 1] = bc.qd0
        u_b[n + 3] = bc.qdT
        return u_a, u_b

    def pack(self, q_via, bc: BoundaryConditions, duration) -> np.ndarray:
        """U = U_a + T * U_b: (N+4, D) for (N, D) via-points and a float
        duration, or (M, N+4, D) for (M, N, D) via-points and M durations, all
        with the one bc.  Slice m of a stack is the same U_a + T * U_b, element
        by element, as pack of via-point matrix m and duration m alone, so the
        two agree bit for bit, signed zeros included."""
        u_a, u_b = self.pack_split(q_via, bc)
        return u_a + np.asarray(duration, dtype=float)[..., None, None] * u_b


@lru_cache(maxsize=None)
def build_basis(n_via: int, dof: int) -> SplineBasis:
    """Construct (and cache) the spline basis for a given via count and DoF."""
    return SplineBasis(n_via, dof)


def smoothness_gram(basis: SplineBasis) -> np.ndarray:
    """The ND x ND Gram block of the stacked via-points, stacked via-major /
    DoF-minor, i.e. an (N, D) via-point matrix flattened row by row."""
    n = basis.n_via
    return np.kron(basis.gram[:n, :n], np.eye(basis.dof))


def smoothness_cost(basis: SplineBasis, q_via, bc: BoundaryConditions,
                    duration: float = 1.0) -> float:
    """Half the integrated squared second phase-derivative of the spline.

    Boundary velocities enter as phase derivatives (scaled by the duration);
    the metric itself is evaluated in phase space and is otherwise
    duration-independent.
    """
    return float(stacked_smoothness(basis, basis.pack(q_via, bc, duration)[None])[0])


def stacked_smoothness(basis: SplineBasis, u: np.ndarray) -> np.ndarray:
    """smoothness_cost of each packed parameter matrix in u, shape (M, N+4, D)."""
    return 0.5 * np.einsum("mid,ij,mjd->m", u, basis.gram, u)
