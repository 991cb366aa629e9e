"""Evolution strategy behavior and the smoothness prior."""

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from viaplan.optimizer import EvolutionStrategy, build_prior, converged
from viaplan.spline import BoundaryConditions, build_basis

from conftest import conditioned_mean


def test_prior_single_via_value():
    chol, scale = build_prior(build_basis(1, 1))
    assert abs((chol @ chol.T)[0, 0] - 1.0 / 192.0) < 1e-10
    assert abs(scale - np.sqrt(1.0 / 192.0)) < 1e-10


def test_sampling_deterministic():
    es1 = EvolutionStrategy(np.zeros(4), 1.0, pop_size=8, seed=42)
    es2 = EvolutionStrategy(np.zeros(4), 1.0, pop_size=8, seed=42)
    np.testing.assert_array_equal(es1.sample(), es2.sample())


def test_sampling_collapses_with_step_size():
    mean = np.array([1.0, -2.0, 0.5])
    es = EvolutionStrategy(mean, 1.0, pop_size=6, seed=0)
    assert es.step_size == 1.0
    es.step_size = 1e-200
    np.testing.assert_allclose(es.sample(), np.tile(mean, (6, 1)), atol=1e-12)


class WhitenUpdateES(EvolutionStrategy):
    """Test-local copy of the earlier update, which ranked the candidates and
    recovered each one's z by solving through L and the covariance root."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.mode == "full":
            self.cov_half_inv = np.diag(1.0 / np.sqrt(self.sigma_diag))

    def whiten(self, candidates):
        delta = (np.atleast_2d(candidates) - self.mean) / self.step_size
        y = solve_triangular(self.transform, delta.T, lower=True).T
        if self.mode == "sep":
            return y / np.sqrt(self.sigma_diag)
        return y @ self.cov_half_inv.T

    def update_from(self, candidates, costs):
        order = np.argsort(costs, kind="stable")
        z = self.whiten(candidates[order[:self.mu]])
        y = self._shape(z)
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
            self.sigma_diag = np.maximum(
                (1.0 - self.c_1 - self.c_mu) * self.sigma_diag
                + self.c_1 * (self.p_c**2 + delta_h * self.sigma_diag)
                + self.c_mu * rank_mu, 1e-12)
        else:
            rank_mu = np.einsum("m,mi,mj->ij", self.weights, y, y)
            self.cov = ((1.0 - self.c_1 - self.c_mu) * self.cov
                        + self.c_1 * (np.outer(self.p_c, self.p_c) + delta_h * self.cov)
                        + self.c_mu * rank_mu)
            self.cov = 0.5 * (self.cov + self.cov.T)
            evals, evecs = np.linalg.eigh(self.cov)
            evals = np.maximum(evals, 1e-12)
            self.cov = (evecs * evals) @ evecs.T
            self._cov_half = (evecs * np.sqrt(evals)) @ evecs.T
            self.cov_half_inv = (evecs / np.sqrt(evals)) @ evecs.T
        self.step_size *= float(np.exp((cs / ds) * (ps_norm / self.chi_n - 1.0)))


def test_update_from_drawn_z_matches_whitened_update():
    # Ranking the drawn z gives the state that recovering z from the ranked
    # candidates gave, up to the rounding of the triangular solve.
    rng = np.random.default_rng(8)
    basis = build_basis(3, 2)
    bc = BoundaryConditions(*rng.standard_normal((4, 2)))
    chol, _ = build_prior(basis)
    mean = conditioned_mean(basis, bc)
    target = rng.standard_normal(6)
    sigma_diag = rng.uniform(0.5, 2.0, 6)
    for mode in ("sep", "full"):
        args = dict(mean=mean, sigma_diag=sigma_diag, pop_size=8,
                    transform=chol, mode=mode, seed=1)
        es, ref = EvolutionStrategy(**args), WhitenUpdateES(**args)
        es.step_size = ref.step_size = 0.7
        for _ in range(12):
            x, x_ref = es.sample(), ref.sample()
            np.testing.assert_allclose(x, x_ref, rtol=0, atol=1e-12)
            es.update(np.sum((x - target)**2, axis=1))
            ref.update_from(x_ref, np.sum((x_ref - target)**2, axis=1))
            for name in ("mean", "sigma_diag", "p_sigma", "step_size"):
                np.testing.assert_allclose(getattr(es, name), getattr(ref, name),
                                           rtol=0, atol=1e-12,
                                           err_msg=f"{mode} {name}")
            if mode == "full":
                np.testing.assert_allclose(es.cov, ref.cov, rtol=0, atol=1e-12)


def test_rank_invariance():
    def run(shift):
        es = EvolutionStrategy(np.zeros(5), 1.0, pop_size=10, seed=3)
        for _ in range(5):
            x = es.sample()
            costs = np.sum(x**2, axis=1) + shift
            es.update(costs)
        return es

    a, b = run(0.0), run(1234.5)
    np.testing.assert_array_equal(a.mean, b.mean)
    np.testing.assert_array_equal(a.sigma_diag, b.sigma_diag)
    assert a.step_size == b.step_size


def test_equal_costs_stable_tie_break():
    es = EvolutionStrategy(np.zeros(3), 1.0, pop_size=8, seed=9)
    x = es.sample()
    es.update(np.zeros(8))
    expected = es_weights_recombination = EvolutionStrategy(np.zeros(3), 1.0,
                                                            pop_size=8, seed=9)
    x2 = expected.sample()
    np.testing.assert_array_equal(x, x2)
    # Ties resolved by index: the recombined mean uses the first mu candidates.
    recomb = expected.weights @ x2[:expected.mu]
    np.testing.assert_allclose(es.mean, recomb, atol=1e-12)


def test_update_dimension_mismatch():
    es = EvolutionStrategy(np.zeros(3), 1.0, pop_size=8)
    with pytest.raises(ValueError):
        es.update(np.zeros(8))          # no sample pending
    es.sample()
    for bad in (np.zeros(7), np.zeros(9), np.zeros((8, 1))):
        with pytest.raises(ValueError):
            es.update(bad)
    mean = es.mean.copy()
    es.update(np.arange(8.0))
    assert not np.array_equal(es.mean, mean)
    with pytest.raises(ValueError):
        es.update(np.arange(8.0))       # one update per sample


def test_sphere_convergence():
    target = np.linspace(-1.0, 1.0, 12)
    finals = []
    for seed in range(20):
        es = EvolutionStrategy(np.zeros(12), 1.0, pop_size=12, seed=seed)
        best = np.inf
        for _ in range(300):
            x = es.sample()
            costs = np.sum((x - target)**2, axis=1)
            es.update(costs)
            best = min(best, float(np.min(costs)))
            if best < 1e-6:
                break
        finals.append(best)
    assert np.median(finals) < 1e-6


def test_sep_and_full_reach_same_optimum_on_separable_quadratic():
    # The separable variant adapts faster (boosted learning rate), so the two
    # modes are compared on the optimum they reach, not on fixed-budget costs.
    scales = np.array([1.0, 4.0, 0.5, 2.0, 1.5])
    target = np.array([0.3, -1.0, 0.7, 0.1, -0.4])

    def final_mean(mode, seed):
        es = EvolutionStrategy(np.ones(5), 1.0, pop_size=10, mode=mode, seed=seed)
        for _ in range(150):
            x = es.sample()
            costs = np.sum(scales * (x - target)**2, axis=1)
            es.update(costs)
        return es.mean

    for seed in range(10):
        np.testing.assert_allclose(final_mean("sep", seed), target, atol=1e-3)
        np.testing.assert_allclose(final_mean("full", seed + 100), target, atol=1e-3)


def test_full_mode_initial_population_matches_sep():
    sigma = np.array([0.5, 2.0, 1.0])
    a = EvolutionStrategy(np.zeros(3), sigma, pop_size=6, mode="sep", seed=7)
    b = EvolutionStrategy(np.zeros(3), sigma, pop_size=6, mode="full", seed=7)
    np.testing.assert_allclose(a.sample(), b.sample(), atol=1e-12)


def test_converged_examples():
    assert converged([5.0, 5.0])
    assert not converged([5.0, 4.0])
    assert not converged([5.0])
    assert converged([9.0, 5.0, 5.0 + 1e-9], tol=1e-6)


def test_invalid_construction():
    with pytest.raises(ValueError):
        EvolutionStrategy(np.zeros(3), 1.0, pop_size=3)
    with pytest.raises(ValueError):
        EvolutionStrategy(np.zeros(3), -1.0, pop_size=8)
    with pytest.raises(ValueError):
        EvolutionStrategy(np.zeros(3), 1.0, pop_size=8, mode="banana")
