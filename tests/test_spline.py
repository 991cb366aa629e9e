"""Spline construction, interpolation exactness and smoothness Gram oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viaplan.spline import (BoundaryConditions, build_basis, evaluate,
                            smoothness_cost, smoothness_gram, via_timings)


def qp_reference(n_via, q0, m0, qT, mT, q_via, n_grid=200):
    """Discrete minimizer of the squared-second-difference energy.

    Equality-constrained QP on a uniform grid with one ghost node past each
    end: the energy sums second differences at all grid points (endpoint rows
    carry trapezoid weight 1/2), the slope constraints are central differences
    through the ghosts, and via values are pinned at their (grid-aligned)
    phases.  n_grid must be divisible by n_via + 1.
    """
    assert n_grid % (n_via + 1) == 0
    h = 1.0 / n_grid
    n_tot = n_grid + 3  # y_{-1} .. y_{n_grid+1}

    def idx(i):
        return i + 1

    d2 = np.zeros((n_grid + 1, n_tot))
    for i in range(n_grid + 1):
        w = 0.5 if i in (0, n_grid) else 1.0
        d2[i, idx(i) - 1:idx(i) + 2] = np.sqrt(w) * np.array([1.0, -2.0, 1.0])
    Q = d2.T @ d2

    rows, rhs = [], []

    def point_row(i, value):
        r = np.zeros(n_tot)
        r[idx(i)] = 1.0
        rows.append(r)
        rhs.append(value)

    point_row(0, q0)
    point_row(n_grid, qT)
    for (i_plus, i_minus), slope in (((1, -1), m0), ((n_grid + 1, n_grid - 1), mT)):
        r = np.zeros(n_tot)
        r[idx(i_plus)] = 1.0 / (2.0 * h)
        r[idx(i_minus)] = -1.0 / (2.0 * h)
        rows.append(r)
        rhs.append(slope)
    for n, v in enumerate(np.atleast_1d(q_via), start=1):
        point_row(n * n_grid // (n_via + 1), v)

    A = np.stack(rows)
    kkt = np.block([[Q, A.T], [A, np.zeros((A.shape[0], A.shape[0]))]])
    sol = np.linalg.solve(kkt, np.concatenate([np.zeros(n_tot), np.asarray(rhs)]))
    return sol[1:n_grid + 2]


def test_via_timings_uniform():
    np.testing.assert_allclose(via_timings(3), [0.25, 0.5, 0.75])
    assert via_timings(0).shape == (0,)


def test_bc_validation():
    with pytest.raises(ValueError):
        BoundaryConditions([0.0, 0.0], [0.0], [1.0, 1.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        BoundaryConditions([np.nan], [0.0], [1.0], [0.0])


def test_bc_arrays_are_read_only_copies():
    q = np.array([0.1, 0.2])
    bc = BoundaryConditions(q, np.zeros(2), np.ones(2), np.zeros(2))
    q[0] = 5.0
    assert bc.q0[0] == 0.1
    for name in ("q0", "qd0", "qT", "qdT"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(bc, name)[0] = 1.0


def test_via_points_stacking():
    # A stacked via-point vector is the (N, D) matrix flattened row by row
    # (via-major, DoF-minor), and the stacked Gram blocks use that order.
    rng = np.random.default_rng(5)
    basis = build_basis(2, 2)
    bc = BoundaryConditions(*rng.standard_normal((4, 2)))
    pts = np.array([[1.0, 2.0], [3.0, 4.0]])
    x = pts.reshape(-1)
    np.testing.assert_allclose(x, [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(via_timings(2), [1 / 3, 2 / 3])
    gram_via, gram_cross = smoothness_gram(basis)
    w_bc = np.concatenate([bc.q0, bc.qd0, bc.qT, bc.qdT])
    via_part = smoothness_cost(basis, pts, bc) - smoothness_cost(basis, 0 * pts, bc)
    assert abs(via_part - (0.5 * x @ gram_via @ x + x @ gram_cross @ w_bc)) < 1e-9


def test_direct_cubic_is_smoothstep():
    bc = BoundaryConditions([0.0], [0.0], [1.0], [0.0])
    basis = build_basis(0, 1)
    s = np.linspace(0.0, 1.0, 101)
    q = evaluate(basis, None, bc, 1.0, s)
    np.testing.assert_allclose(q[:, 0], 3 * s**2 - 2 * s**3, atol=1e-12)
    qd = evaluate(basis, None, bc, 15.0, 0.5, order=1)
    np.testing.assert_allclose(qd, [0.1], atol=1e-12)


def test_single_via_symmetry():
    bc = BoundaryConditions([0.0], [0.0], [0.0], [0.0])
    basis = build_basis(1, 1)
    s = np.linspace(0.0, 0.5, 40)
    left = evaluate(basis, [[1.0]], bc, 1.0, s)
    right = evaluate(basis, [[1.0]], bc, 1.0, 1.0 - s)
    np.testing.assert_allclose(left, right, atol=1e-12)
    np.testing.assert_allclose(evaluate(basis, [[1.0]], bc, 1.0, 0.5), [1.0],
                               atol=1e-12)


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 6), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_interpolation_exactness(n_via, dof, seed):
    rng = np.random.default_rng(seed)
    basis = build_basis(n_via, dof)
    bc = BoundaryConditions(*rng.standard_normal((4, dof)))
    q_via = rng.standard_normal((n_via, dof))
    vals = evaluate(basis, q_via, bc, 1.0, via_timings(n_via))
    np.testing.assert_allclose(vals, q_via, atol=1e-9)


def test_boundary_exactness():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n_via, dof = rng.integers(0, 5), rng.integers(1, 4)
        duration = float(rng.uniform(0.2, 9.0))
        basis = build_basis(int(n_via), int(dof))
        bc = BoundaryConditions(*rng.standard_normal((4, dof)))
        q_via = rng.standard_normal((n_via, dof))
        np.testing.assert_allclose(evaluate(basis, q_via, bc, duration, 0.0),
                                   bc.q0, atol=1e-9)
        np.testing.assert_allclose(evaluate(basis, q_via, bc, duration, 1.0),
                                   bc.qT, atol=1e-9)
        np.testing.assert_allclose(
            evaluate(basis, q_via, bc, duration, 0.0, order=1), bc.qd0, atol=1e-9)
        np.testing.assert_allclose(
            evaluate(basis, q_via, bc, duration, 1.0, order=1), bc.qdT, atol=1e-9)


def test_c2_continuity_at_knots():
    rng = np.random.default_rng(3)
    for n_via in (1, 2, 5):
        basis = build_basis(n_via, 2)
        bc = BoundaryConditions(*rng.standard_normal((4, 2)))
        q_via = rng.standard_normal((n_via, 2))
        eps = 1e-9
        for s_n in via_timings(n_via):
            left = evaluate(basis, q_via, bc, 1.0, s_n - eps, order=2)
            right = evaluate(basis, q_via, bc, 1.0, s_n + eps, order=2)
            np.testing.assert_allclose(left, right, atol=1e-5)


def test_gram_via_single_point():
    basis = build_basis(1, 1)
    gram_via, gram_cross = smoothness_gram(basis)
    assert gram_via.shape == (1, 1)
    assert abs(gram_via[0, 0] - 192.0) < 1e-8
    assert gram_cross.shape == (1, 4)


def test_smoothness_cost_examples():
    basis = build_basis(1, 1)
    bc = BoundaryConditions([0.0], [0.0], [0.0], [0.0])
    assert abs(smoothness_cost(basis, [[1.0]], bc) - 96.0) < 1e-8
    assert abs(smoothness_cost(basis, [[2.0]], bc) - 4 * 96.0) < 1e-8


def test_smoothness_cost_zero_on_linear_curve():
    # Via-points on the line and matching boundary slopes give q'' = 0.
    bc = BoundaryConditions([0.0, 1.0], [2.0, -1.0], [2.0, 0.0], [2.0, -1.0])
    basis = build_basis(3, 2)
    q_via = bc.q0 + np.outer(via_timings(3), bc.qT - bc.q0)
    assert smoothness_cost(basis, q_via, bc, duration=1.0) < 1e-10


def test_gram_symmetric_positive_definite():
    for n_via, dof in ((1, 1), (3, 2), (6, 2)):
        gram_via, _ = smoothness_gram(build_basis(n_via, dof))
        np.testing.assert_allclose(gram_via, gram_via.T, atol=1e-9)
        assert np.all(np.linalg.eigvalsh(gram_via) > 0.0)


def test_gram_symbolic_quadrature():
    sp = pytest.importorskip("sympy")
    s, v = sp.symbols("s v")
    h = sp.Rational(1, 2)
    # Interior slope from the C^2 knot condition with clamped zero-slope ends.
    m1 = sp.symbols("m1")
    m1 = sp.solve(sp.Eq(0 + 4 * m1 + 0, 3 * (0 - 0) / h), m1)[0]
    energy = sp.Integer(0)
    for j, (y0, y1, s0, s1) in enumerate(((0, v, 0, h), (v, 0, h, 1))):
        tau = (s - s0) / h
        slopes = (0, m1) if j == 0 else (m1, 0)
        p = (y0 * (1 - 3 * tau**2 + 2 * tau**3) + y1 * (3 * tau**2 - 2 * tau**3)
             + h * slopes[0] * (tau - 2 * tau**2 + tau**3)
             + h * slopes[1] * (tau**3 - tau**2))
        energy += sp.integrate(sp.diff(p, s, 2)**2, (s, s0, s1))
    coeff = sp.simplify(energy / v**2)
    basis = build_basis(1, 1)
    assert abs(float(coeff) - basis.gram_via_scalar[0, 0]) < 1e-8


def test_gram_matches_numeric_quadrature():
    # q'' is piecewise linear, so a fine Simpson rule aligned with the knots
    # integrates |q''|^2 exactly up to roundoff.
    from scipy.integrate import simpson

    rng = np.random.default_rng(11)
    for n_via in (1, 2, 4):
        basis = build_basis(n_via, 1)
        u = rng.standard_normal((basis.n_coef, 1))
        n = 4 * (n_via + 1) * 25
        s = np.linspace(0.0, 1.0, n + 1)
        qpp = (basis.eval_matrix(s, 2) @ u)[:, 0]
        energy = simpson(qpp**2, x=s)
        quad_form = float(u[:, 0] @ basis.gram_full @ u[:, 0])
        np.testing.assert_allclose(quad_form, energy, rtol=1e-9, atol=1e-9)


def test_spline_matches_discretized_qp():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n_via = int(rng.choice([1, 3, 4]))
        basis = build_basis(n_via, 1)
        q0, m0, qT, mT = rng.standard_normal(4)
        q_via = rng.standard_normal(n_via)
        bc = BoundaryConditions([q0], [m0], [qT], [mT])
        y_ref = qp_reference(n_via, q0, m0, qT, mT, q_via)
        s = np.linspace(0.0, 1.0, y_ref.shape[0])
        q = evaluate(basis, q_via[:, None], bc, 1.0, s)[:, 0]
        np.testing.assert_allclose(q, y_ref, atol=1e-3)


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 4), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
       st.integers(0, 2**32 - 1))
def test_evaluation_linearity(n_via, alpha, beta, seed):
    rng = np.random.default_rng(seed)
    basis = build_basis(n_via, 2)
    bc0 = BoundaryConditions(np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2))
    v1, v2 = rng.standard_normal((2, n_via, 2))
    s = rng.uniform(0.0, 1.0, 9)
    combined = evaluate(basis, alpha * v1 + beta * v2, bc0, 1.0, s)
    parts = (alpha * evaluate(basis, v1, bc0, 1.0, s)
             + beta * evaluate(basis, v2, bc0, 1.0, s))
    np.testing.assert_allclose(combined, parts, atol=1e-9)


def test_evaluate_rejects_bad_inputs():
    basis = build_basis(1, 1)
    bc = BoundaryConditions([0.0], [0.0], [1.0], [0.0])
    with pytest.raises(ValueError):
        evaluate(basis, [[0.5]], bc, 1.0, 1.5)
    with pytest.raises(ValueError):
        evaluate(basis, [[0.5]], bc, 1.0, 0.5, order=3)
    with pytest.raises(ValueError):
        evaluate(basis, [[0.5]], bc, 0.0, 0.5, order=1)


def test_build_basis_cached():
    assert build_basis(4, 2) is build_basis(4, 2)
