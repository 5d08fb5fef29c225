"""Chebyshev kernel: Robin basis construction, evaluation, quadrature.

Every check goes through the public evaluation, ``basis_matrix``, and
``basis_table`` must equal it bit for bit. Oracles:
the trigonometric identity P_k(x) = cos(k arccos x) with
phi_k = P_k + a_k P_{k+1} + b_k P_{k+2}, the endpoint identity
P'_k(+-1) = (+-1)^(k+1) k^2, central finite differences for derivatives,
scipy adaptive quadrature for integrals, and the boundary-residual check
for the Robin combination coefficients.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from celltherm.chebyshev import (
    basis_matrix,
    basis_table,
    build_basis,
    gauss_quadrature,
    robin_residuals,
)
from celltherm.exceptions import BasisConstructionError
from celltherm.particular import robin_pairs
from strategies import cells_and_coolings

# paper-cell radial Robin pair under surface cooling (physical convention):
# alpha k_r = (2 / 0.028) * 0.67
ALPHA_KR = 2.0 / 0.028 * 0.67
SC_RADIAL = ((0.0, -ALPHA_KR), (400.0, ALPHA_KR))
DIRICHLET = ((1.0, 0.0), (1.0, 0.0))
NEUMANN = ((0.0, 1.0), (0.0, 1.0))


def trig_phi(bs, k, x):
    """phi_k(x) from the combination coefficients and cos(j arccos x)."""
    theta = math.acos(x)
    a_k, b_k = bs.combo[k]
    return (math.cos(k * theta) + a_k * math.cos((k + 1) * theta)
            + b_k * math.cos((k + 2) * theta))


def endpoint_slopes(bs, k):
    """(phi'_k(-1), phi'_k(+1)) from P'_j(+-1) = (+-1)^(j+1) j^2."""
    terms = list(zip((k, k + 1, k + 2), (1.0, *bs.combo[k])))
    return tuple(sum(c * s ** (j + 1) * j * j for j, c in terms) for s in (-1, 1))


def scalar_phi(bs, k):
    """phi_k as a scalar function, for scipy's adaptive quadrature."""
    return lambda x: float(basis_matrix(bs, x)[0, k])


class TestChebEval:
    """The Chebyshev evaluation inside basis_matrix."""

    def test_degree_zero(self):
        # phi_0 = P_0 + a_0 P_1 + b_0 P_2 with P_0 = 1, P_1 = x, P_2 = 2x^2 - 1
        bs = build_basis(3, *SC_RADIAL)
        a_0, b_0 = bs.combo[0]
        x = np.array([-1.0, -0.3, 0.0, 0.7, 1.0])
        expected = 1.0 + a_0 * x + b_0 * (2.0 * x**2 - 1.0)
        assert np.allclose(basis_matrix(bs, x)[:, 0], expected, rtol=0, atol=1e-14)

    def test_analytic_identity(self):
        # P_1(1/2) = 1/2, P_2(1/2) = -1/2, P_3(1/2) = cos(pi) = -1
        bs = build_basis(3, *SC_RADIAL)
        a_1, b_1 = bs.combo[1]
        assert basis_matrix(bs, 0.5)[0, 1] == pytest.approx(
            0.5 - 0.5 * a_1 - b_1, abs=1e-14 * (1 + abs(a_1) + abs(b_1)))

    def test_trig_oracle(self):
        bs = build_basis(8, *SC_RADIAL)
        for k in range(8):
            size = 1.0 + np.abs(bs.combo[k]).sum()
            assert basis_matrix(bs, 0.123)[0, k] == pytest.approx(
                trig_phi(bs, k, 0.123), abs=1e-13 * size)

    def test_domain_error(self):
        bs = build_basis(3, *SC_RADIAL)
        with pytest.raises(ValueError):
            basis_matrix(bs, [-1.0, 0.0, 1.5])
        with pytest.raises(ValueError):
            basis_matrix(bs, [-1.5], deriv=1)


class TestEndpointDerivatives:
    """basis_matrix(..., 1) at x = +-1 against the endpoint identity."""

    def test_degree_zero(self):
        # the Neumann phi_0 is P_0 itself, whose slope vanishes
        bs = build_basis(3, *NEUMANN)
        assert tuple(basis_matrix(bs, [-1.0, 1.0], 1)[:, 0]) == (0.0, 0.0)

    def test_degree_three(self):
        # Dirichlet phi_1 = P_1 - P_3: slope 1 - 9 at both ends
        bs = build_basis(3, *DIRICHLET)
        slopes = basis_matrix(bs, [-1.0, 1.0], 1)[:, 1]
        assert slopes == pytest.approx([-8.0, -8.0], abs=1e-12)

    def test_degree_five_finite_difference(self):
        # Dirichlet phi_3 = P_3 - P_5: slope 9 - 25 at both ends
        bs = build_basis(4, *DIRICHLET)
        dm, dp = basis_matrix(bs, [-1.0, 1.0], 1)[:, 3]
        assert (dm, dp) == pytest.approx((-16.0, -16.0), abs=1e-12)
        h = 1e-7
        vals = basis_matrix(bs, [-1.0, -1.0 + h, 1.0 - h, 1.0])[:, 3]
        fd_minus = (vals[1] - vals[0]) / h
        fd_plus = (vals[3] - vals[2]) / h
        assert fd_plus == pytest.approx(dp, rel=1e-5)
        assert fd_minus == pytest.approx(dm, rel=1e-5)

    def test_parity(self):
        for pair in (SC_RADIAL, DIRICHLET, ((30.0, -672.7), (400.0, 672.7))):
            bs = build_basis(8, *pair)
            slopes = basis_matrix(bs, [-1.0, 1.0], 1)
            for k in range(8):
                size = (k + 2) ** 2 * (1.0 + np.abs(bs.combo[k]).sum())
                assert slopes[:, k] == pytest.approx(
                    endpoint_slopes(bs, k), abs=1e-12 * size)


class TestBuildBasis:
    def test_dirichlet_combination(self):
        bs = build_basis(5, *DIRICHLET)
        for k in range(5):
            a_k, b_k = bs.combo[k]
            assert a_k == pytest.approx(0.0, abs=1e-14)
            assert b_k == pytest.approx(-1.0, abs=1e-14)

    def test_neumann_residuals(self):
        bs = build_basis(7, *NEUMANN)
        slopes = basis_matrix(bs, [-1.0, 1.0], 1)
        for k in range(1, 7):
            bound = 1e-10 * (1 + np.abs(bs.combo[k]).sum()) * (k + 2) ** 2
            assert abs(slopes[0, k]) <= bound
            assert abs(slopes[1, k]) <= bound

    def test_neumann_first_function_is_constant(self):
        bs = build_basis(3, *NEUMANN)
        x = np.linspace(-1, 1, 9)
        assert np.allclose(basis_matrix(bs, x)[:, 0], 1.0, atol=1e-14)

    def test_paper_robin_pair_residuals(self):
        bs = build_basis(11, *SC_RADIAL)
        res = robin_residuals(bs)
        assert res[1:11].max() <= 1e-10

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(cells_and_coolings(), st.integers(1, 30), st.integers(1, 30))
    def test_random_cell_residuals_at_rounding(self, cell, M, N):
        """Both bases of random physical cylinder and pouch cells meet their
        Robin conditions to rounding, every function, both ends."""
        r_pair, z_pair = robin_pairs(*cell)
        for count, pair in ((M, r_pair), (N, z_pair)):
            res = robin_residuals(build_basis(count, *pair))
            assert res.shape == (count, 2)
            assert res.max() <= 1e-12

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(cells_and_coolings(), st.integers(1, 30), st.integers(1, 200),
           st.integers(0, 2**32 - 1))
    def test_table_equals_basis_matrix(self, cell, count, n_nodes, seed):
        """Each derivative of a table, built from one Vandermonde matrix of
        its nodes, equals basis_matrix of that derivative bit for bit."""
        x = np.random.default_rng(seed).uniform(-1.0, 1.0, n_nodes)
        for pair in robin_pairs(*cell):
            bs = build_basis(count, *pair)
            table = basis_table(bs, x, (0, 1, 2))
            assert np.array_equal(table.nodes, x)
            for d in (0, 1, 2):
                assert np.array_equal(table[d], basis_matrix(bs, x, d))

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(cells_and_coolings(), st.integers(1, 30), st.data())
    def test_leading_functions_are_the_smaller_basis(self, cell, count, data):
        """phi_k depends only on k and the Robin pairs: the first functions
        of a basis, and their table's leading columns, are bit for bit
        those of the smaller basis."""
        small = data.draw(st.integers(1, count))
        x = np.linspace(-1.0, 1.0, 7)
        for pair in robin_pairs(*cell):
            big, want = build_basis(count, *pair), build_basis(small, *pair)
            got = big.leading(small)
            assert got.count == small
            assert (got.robin_minus, got.robin_plus) == (want.robin_minus, want.robin_plus)
            assert np.array_equal(got.combo, want.combo)
            assert np.array_equal(got.coeffs, want.coeffs)
            table = basis_table(big, x, (0, 2)).leading(small)
            assert table[0].shape == table[2].shape == (x.size, small)
            np.testing.assert_allclose(table[0], basis_matrix(want, x), rtol=0,
                                       atol=1e-13 * np.abs(table[0]).max())

    def test_degenerate_pair_rejected(self):
        with pytest.raises(BasisConstructionError):
            build_basis(3, (0.0, 0.0), (1.0, 0.0))

    def test_count_validated(self):
        with pytest.raises(ValueError):
            build_basis(0, (1.0, 0.0), (1.0, 0.0))


class TestQuadrature:
    def test_degree_three_exact_with_two_nodes(self):
        q = gauss_quadrature(2)
        assert np.sum(q.weights * q.nodes**2) == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_weights_sum_to_two(self):
        for order in range(1, 65):
            q = gauss_quadrature(order)
            assert np.all(q.weights > 0)
            assert np.sum(q.weights) == pytest.approx(2.0, rel=1e-13)

    def test_monomial_exactness(self):
        for order in (1, 2, 3, 5, 8, 13):
            q = gauss_quadrature(order)
            for deg in range(2 * order):
                exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
                got = float(np.sum(q.weights * q.nodes**deg))
                assert got == pytest.approx(exact, abs=1e-13)

    def test_rational_integrand_vs_adaptive_oracle(self):
        # gamma-like integrand with the paper's alpha and R_in
        shift = 1.0 + (2.0 / 0.028) * 0.004 + 1e-3
        f = lambda x: 1.0 / (x + shift)
        q = gauss_quadrature(32)
        ref, _ = quad(f, -1, 1, epsabs=1e-13, epsrel=1e-13)
        assert float(np.sum(q.weights * f(q.nodes))) == pytest.approx(ref, abs=1e-12)

    def test_order_validated(self):
        with pytest.raises(ValueError):
            gauss_quadrature(0)


class TestInnerProduct:
    """Galerkin inner products: a Gauss rule over basis_matrix tables."""

    def test_p1_squared(self):
        # Dirichlet phi_1 = P_1 - P_3 = 4x - 4x^3; its square integrates to 256/105
        bs = build_basis(2, *DIRICHLET)
        q = gauss_quadrature(8)
        phi = basis_matrix(bs, q.nodes)[:, 1]
        val = float(np.sum(q.weights * phi * phi))
        ref, _ = quad(lambda x: scalar_phi(bs, 1)(x) ** 2, -1, 1,
                      epsabs=1e-13, epsrel=1e-13)
        assert val == pytest.approx(256.0 / 105.0, rel=1e-13)
        assert val == pytest.approx(ref, rel=1e-13)

    def test_odd_parity_vanishes(self):
        # Dirichlet phi_0 is even and phi_1 odd
        bs = build_basis(2, *DIRICHLET)
        q = gauss_quadrature(8)
        phi = basis_matrix(bs, q.nodes)
        val = float(np.sum(q.weights * phi[:, 0] * phi[:, 1]))
        ref, _ = quad(lambda x: scalar_phi(bs, 0)(x) * scalar_phi(bs, 1)(x), -1, 1,
                      epsabs=1e-13)
        assert val == pytest.approx(0.0, abs=1e-14)
        assert ref == pytest.approx(0.0, abs=1e-13)

    def test_weighted_robin_product_vs_adaptive(self):
        bs = build_basis(4, *SC_RADIAL)
        alpha = 2.0 / 0.028
        c0 = (0.032 + 0.004) / 0.028
        radius = lambda x: (x + c0) / alpha
        q = gauss_quadrature(24)
        phi = basis_matrix(bs, q.nodes)[:, 1]
        got = float(np.sum(q.weights * radius(q.nodes) * phi * phi))
        ref, _ = quad(lambda x: radius(x) * scalar_phi(bs, 1)(x) ** 2, -1, 1,
                      epsabs=1e-13, epsrel=1e-13)
        assert got == pytest.approx(ref, abs=1e-10)


class TestBasisDerivatives:
    def test_dirichlet_boundary_values(self):
        bs = build_basis(6, *DIRICHLET)
        vals = basis_matrix(bs, [-1.0, 1.0])
        assert np.abs(vals).max() <= 1e-12

    def test_first_derivative_finite_difference(self):
        bs = build_basis(5, *SC_RADIAL)
        h = 1e-5
        left, right = basis_matrix(bs, [0.3 - h, 0.3 + h])
        fd = (right - left) / (2 * h)
        got = basis_matrix(bs, 0.3, 1)[0]
        for k in range(5):
            assert got[k] == pytest.approx(fd[k], rel=1e-8)

    def test_second_derivative_finite_difference(self):
        bs = build_basis(5, *SC_RADIAL)
        h = 1e-4
        left, mid, right = basis_matrix(bs, [-h, 0.0, h])
        fd = (right - 2 * mid + left) / h**2
        got = basis_matrix(bs, 0.0, 2)[0]
        for k in range(5):
            assert got[k] == pytest.approx(fd[k], rel=1e-6, abs=1e-6)

    def test_derivatives_at_random_interior_points(self):
        rng = np.random.default_rng(42)
        bs = build_basis(6, (30.0, -672.7), (400.0, 672.7))
        pts = rng.uniform(-0.95, 0.95, size=20)
        h = 1e-5
        left, mid, right = (basis_matrix(bs, pts + s) for s in (-h, 0.0, h))
        d1 = basis_matrix(bs, pts, 1)
        d2 = basis_matrix(bs, pts, 2)
        for i in range(pts.size):
            for k in (0, 2, 5):
                fd1 = (right[i, k] - left[i, k]) / (2 * h)
                assert d1[i, k] == pytest.approx(fd1, rel=1e-6, abs=1e-8)
                fd2 = (right[i, k] - 2 * mid[i, k] + left[i, k]) / h**2
                assert d2[i, k] == pytest.approx(fd2, rel=1e-6, abs=1e-4)

    def test_domain_error(self):
        bs = build_basis(3, *SC_RADIAL)
        with pytest.raises(ValueError):
            basis_matrix(bs, 1.2)

    def test_basis_matrix_agrees_with_scalar_eval(self):
        bs = build_basis(4, *SC_RADIAL)
        x = np.linspace(-1, 1, 7)
        mat = basis_matrix(bs, x)
        for k in range(4):
            size = 1.0 + np.abs(bs.combo[k]).sum()
            expected = [trig_phi(bs, k, xi) for xi in x]
            assert np.allclose(mat[:, k], expected, rtol=0, atol=1e-14 * size)


def test_chebyshev_orthogonality_sanity():
    """P_m orthogonality under 1/sqrt(1-x^2), via a Chebyshev-Gauss rule
    (test-only rule; the package itself integrates with Gauss-Legendre):
    the Dirichlet functions P_k - P_{k+2} then have the Gram matrix
    diag(c_k + pi/2) - pi/2 (delta_{m,k+2} + delta_{m+2,k}), c_0 = pi and
    c_k = pi/2 otherwise."""
    n = 40
    nodes = np.cos((2 * np.arange(1, n + 1) - 1) * np.pi / (2 * n))
    weight = np.pi / n
    phi = basis_matrix(build_basis(13, *DIRICHLET), nodes)
    gram = weight * phi.T @ phi
    c = np.full(13, np.pi / 2)
    c[0] = np.pi
    expected = np.diag(c + np.pi / 2) - np.pi / 2 * (np.eye(13, k=2) + np.eye(13, k=-2))
    assert np.abs(gram - expected).max() <= 1e-12 * np.pi
