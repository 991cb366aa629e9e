"""Evolution strategy behavior and the smoothness prior."""

import numpy as np
import pytest

from viaplan.optimizer import (EvolutionStrategy, SmoothnessPrior, build_prior,
                               converged)
from viaplan.spline import BoundaryConditions, build_basis, smoothness_cost


def test_prior_single_via_value():
    basis = build_basis(1, 1)
    bc = BoundaryConditions([0.0], [0.0], [0.0], [0.0])
    prior = build_prior(basis, bc)
    assert abs(prior.sigma[0, 0] - 1.0 / 192.0) < 1e-10
    np.testing.assert_allclose(prior.chol @ prior.chol.T, prior.sigma, atol=1e-8)
    np.testing.assert_allclose(prior.mean_via, [0.0], atol=1e-12)


def test_prior_mean_minimizes_smoothness():
    rng = np.random.default_rng(4)
    basis = build_basis(4, 2)
    bc = BoundaryConditions(*rng.standard_normal((4, 2)))
    prior = build_prior(basis, bc)
    base = smoothness_cost(basis, prior.mean_via.reshape(4, 2), bc)
    for _ in range(30):
        delta = rng.normal(scale=0.1, size=prior.mean_via.shape)
        perturbed = smoothness_cost(basis, (prior.mean_via + delta).reshape(4, 2), bc)
        assert perturbed > base


def test_prior_conditioned_mean_scales_with_duration():
    basis = build_basis(2, 1)
    bc = BoundaryConditions([0.0], [0.3], [1.0], [-0.1])
    mean_t1 = build_prior(basis, bc).mean_via
    mean_t2 = build_prior(basis, bc, duration=2.0).mean_via
    np.testing.assert_allclose(mean_t1, build_prior(basis, bc, duration=1.0).mean_via,
                               atol=1e-12)
    assert not np.allclose(mean_t1, mean_t2)
    # Only the boundary slopes scale with the duration: without them the
    # conditioned mean does not depend on it.
    rest = BoundaryConditions([0.0], [0.0], [1.0], [0.0])
    np.testing.assert_allclose(build_prior(basis, rest, duration=2.0).mean_via,
                               build_prior(basis, rest).mean_via, atol=1e-12)


def test_sampling_deterministic():
    es1 = EvolutionStrategy(np.zeros(4), 1.0, pop_size=8, seed=42)
    es2 = EvolutionStrategy(np.zeros(4), 1.0, pop_size=8, seed=42)
    np.testing.assert_array_equal(es1.sample(), es2.sample())


def test_sampling_collapses_with_step_size():
    mean = np.array([1.0, -2.0, 0.5])
    es = EvolutionStrategy(mean, 1.0, pop_size=6, step_size=1e-200, seed=0)
    np.testing.assert_allclose(es.sample(), np.tile(mean, (6, 1)), atol=1e-12)


def test_whitening_roundtrip():
    rng = np.random.default_rng(8)
    basis = build_basis(3, 2)
    bc = BoundaryConditions(*rng.standard_normal((4, 2)))
    prior = build_prior(basis, bc)
    es = EvolutionStrategy(prior.mean_via, rng.uniform(0.5, 2.0, 6), pop_size=8,
                           transform=prior.chol, step_size=0.7, seed=1)
    x = es.sample()
    z = es.whiten(x)
    rebuilt = es.mean + es.step_size * ((z * np.sqrt(es.sigma_diag)) @ es.transform.T)
    np.testing.assert_allclose(rebuilt, x, atol=1e-10)


def test_rank_invariance():
    def run(shift):
        es = EvolutionStrategy(np.zeros(5), 1.0, pop_size=10, seed=3)
        for _ in range(5):
            x = es.sample()
            costs = np.sum(x**2, axis=1) + shift
            es.update(x, costs)
        return es

    a, b = run(0.0), run(1234.5)
    np.testing.assert_array_equal(a.mean, b.mean)
    np.testing.assert_array_equal(a.sigma_diag, b.sigma_diag)
    assert a.step_size == b.step_size


def test_equal_costs_stable_tie_break():
    es = EvolutionStrategy(np.zeros(3), 1.0, pop_size=8, seed=9)
    x = es.sample()
    es.update(x, np.zeros(8))
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
        es.update(np.zeros((8, 4)), np.zeros(8))
    with pytest.raises(ValueError):
        es.update(np.zeros((8, 3)), np.zeros(7))


def test_sphere_convergence():
    target = np.linspace(-1.0, 1.0, 12)
    finals = []
    for seed in range(20):
        es = EvolutionStrategy(np.zeros(12), 1.0, pop_size=12, seed=seed)
        best = np.inf
        for _ in range(300):
            x = es.sample()
            costs = np.sum((x - target)**2, axis=1)
            es.update(x, costs)
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
            es.update(x, costs)
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
