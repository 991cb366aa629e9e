"""Evolution-strategy engine over stacked via-point vectors.

Candidates are sampled as x = mean + step * L @ (sqrt(sigma_diag) * z) with z
standard normal.  L is the Cholesky factor of the smoothness covariance (the
inverse Gram matrix of second phase-derivatives), which `build_prior` returns
with the covariance's largest marginal standard deviation; with unit diagonal
scale the very first population is spread like the smoothness prior, which
depends on the basis alone.  The diagonal scale is adapted by sep-CMA-ES; a
full-covariance mode is kept for ablations.  All randomness comes from one
seeded generator, and updates depend on cost ranks only: `update(costs)` ranks
the standard-normal z that the last `sample()` drew (as CMA-ES does), so no
candidate is mapped back through L.
"""

from __future__ import annotations

import numpy as np

from .spline import SplineBasis, smoothness_gram

SIGMA_FLOOR = 1e-12


def build_prior(basis: SplineBasis) -> tuple[np.ndarray, float]:
    """(chol, scale) of the smoothness prior, the Gaussian over via-points
    with covariance sigma = G_via^-1: the lower-triangular L with
    sigma = L L^T, and sigma's largest marginal standard deviation, which
    expresses initial sampling scales in configuration units."""
    sigma = np.linalg.inv(smoothness_gram(basis))
    sigma = 0.5 * (sigma + sigma.T)
    return np.linalg.cholesky(sigma), float(np.sqrt(np.max(np.diag(sigma))))


class EvolutionStrategy:
    """sep-CMA-ES (default) or full CMA-ES behind a fixed linear transform L."""

    def __init__(self, mean: np.ndarray, sigma_diag: float | np.ndarray,
                 pop_size: int, transform: np.ndarray | None = None,
                 mode: str = "sep", seed: int = 0):
        if mode not in ("sep", "full"):
            raise ValueError("mode must be 'sep' or 'full'")
        self.mean = np.asarray(mean, dtype=float).copy()
        self.dim = self.mean.shape[0]
        if pop_size < 4:
            raise ValueError("population size must be at least 4")
        self.pop_size = pop_size
        self.mode = mode
        self.transform = np.eye(self.dim) if transform is None else np.asarray(transform, dtype=float)
        self.sigma_diag = np.full(self.dim, sigma_diag, dtype=float) \
            if np.ndim(sigma_diag) == 0 else np.asarray(sigma_diag, dtype=float).copy()
        if np.any(self.sigma_diag <= 0.0):
            raise ValueError("sigma_diag must be positive")
        self.step_size = 1.0
        self.rng = np.random.default_rng(seed)
        self.iteration = 0

        n = self.dim
        self.mu = pop_size // 2
        w = np.log(self.mu + 0.5) - np.log(np.arange(1, self.mu + 1))
        self.weights = w / np.sum(w)
        self.mu_eff = 1.0 / np.sum(self.weights**2)
        self.c_sigma = (self.mu_eff + 2.0) / (n + self.mu_eff + 5.0)
        self.d_sigma = 1.0 + 2.0 * max(0.0, np.sqrt((self.mu_eff - 1.0) / (n + 1.0)) - 1.0) \
            + self.c_sigma
        self.c_c = (4.0 + self.mu_eff / n) / (n + 4.0 + 2.0 * self.mu_eff / n)
        c1 = 2.0 / ((n + 1.3) ** 2 + self.mu_eff)
        cmu = min(1.0 - c1, 2.0 * (self.mu_eff - 2.0 + 1.0 / self.mu_eff)
                  / ((n + 2.0) ** 2 + self.mu_eff))
        if mode == "sep":
            # Separable variant: enlarged covariance learning rate.
            boost = (n + 2.0) / 3.0
            c1, cmu = c1 * boost, cmu * boost
            scale = c1 + cmu
            if scale > 1.0:
                c1, cmu = c1 / scale, cmu / scale
        self.c_1, self.c_mu = c1, cmu
        self.chi_n = np.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n**2))

        self.p_sigma = np.zeros(n)
        self.p_c = np.zeros(n)
        if mode == "full":
            self.cov = np.diag(self.sigma_diag)
            self._cov_half = np.diag(np.sqrt(self.sigma_diag))
        self._z: np.ndarray | None = None     # the pending sample's draws

    # -- sampling ---------------------------------------------------------

    def sample(self) -> np.ndarray:
        """Draw a population, shape (pop_size, dim); its z waits for update."""
        z = self._z = self.rng.standard_normal((self.pop_size, self.dim))
        y = self._shape(z)
        return self.mean + self.step_size * (y @ self.transform.T)

    def _shape(self, z: np.ndarray) -> np.ndarray:
        if self.mode == "sep":
            return z * np.sqrt(self.sigma_diag)
        return z @ self._cov_half.T

    # -- update -----------------------------------------------------------

    def update(self, costs: np.ndarray) -> None:
        """One generation update from the costs of the last sample, in order."""
        costs = np.asarray(costs, dtype=float)
        if self._z is None:
            raise ValueError("update needs a sample drawn since the last update")
        if costs.shape != (self.pop_size,):
            raise ValueError("need one cost per sampled candidate")
        order = np.argsort(costs, kind="stable")
        z = self._z[order[:self.mu]]              # (mu, dim)
        self._z = None
        y = self._shape(z)                        # pre-transform displacements
        z_w = self.weights @ z
        y_w = self.weights @ y

        self.mean = self.mean + self.step_size * (self.transform @ y_w)

        cs, ds = self.c_sigma, self.d_sigma
        self.p_sigma = (1.0 - cs) * self.p_sigma \
            + np.sqrt(cs * (2.0 - cs) * self.mu_eff) * z_w
        self.iteration += 1
        ps_norm = float(np.linalg.norm(self.p_sigma))
        denom = np.sqrt(1.0 - (1.0 - cs) ** (2 * self.iteration))
        h_sigma = ps_norm / denom / self.chi_n < 1.4 + 2.0 / (self.dim + 1.0)

        cc = self.c_c
        self.p_c = (1.0 - cc) * self.p_c
        if h_sigma:
            self.p_c = self.p_c + np.sqrt(cc * (2.0 - cc) * self.mu_eff) * y_w
        delta_h = (1.0 - float(h_sigma)) * cc * (2.0 - cc)

        if self.mode == "sep":
            rank_mu = self.weights @ (y**2)
            self.sigma_diag = ((1.0 - self.c_1 - self.c_mu) * self.sigma_diag
                               + self.c_1 * (self.p_c**2 + delta_h * self.sigma_diag)
                               + self.c_mu * rank_mu)
            self.sigma_diag = np.maximum(self.sigma_diag, SIGMA_FLOOR)
        else:
            rank_mu = np.einsum("m,mi,mj->ij", self.weights, y, y)
            self.cov = ((1.0 - self.c_1 - self.c_mu) * self.cov
                        + self.c_1 * (np.outer(self.p_c, self.p_c) + delta_h * self.cov)
                        + self.c_mu * rank_mu)
            self.cov = 0.5 * (self.cov + self.cov.T)
            evals, evecs = np.linalg.eigh(self.cov)
            evals = np.maximum(evals, SIGMA_FLOOR)
            self.cov = (evecs * evals) @ evecs.T
            self._cov_half = (evecs * np.sqrt(evals)) @ evecs.T

        self.step_size *= float(np.exp((cs / ds) * (ps_norm / self.chi_n - 1.0)))


def converged(cost_history, tol: float = 1e-6) -> bool:
    """Successive best-cost stall test: |c_k - c_{k-1}| < tol."""
    if len(cost_history) < 2:
        return False
    return abs(cost_history[-1] - cost_history[-2]) < tol
