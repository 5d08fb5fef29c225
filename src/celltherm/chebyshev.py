"""Chebyshev polynomial kernel: construction of Robin-compatible composite
basis functions, their evaluation as tables at given points, and
Gauss-Legendre quadrature.

A basis function is the compact combination

    phi_k(x) = P_k(x) + a_k P_{k+1}(x) + b_k P_{k+2}(x),   k = 0, 1, ...

with P_k the Chebyshev polynomial of the first kind. The pair (a_k, b_k) is
chosen so that phi_k satisfies a homogeneous Robin condition

    p_minus * phi(-1) + q_minus * phi'(-1) = 0
    p_plus  * phi(+1) + q_plus  * phi'(+1) = 0

at both endpoints. The coefficients are obtained by solving the per-k 2x2
linear system numerically (using P_j(+-1) = (+-1)^j and
P'_j(+-1) = (+-1)^(j+1) j^2) rather than from a transcribed closed form; the
basis is validated by its boundary-condition residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.polynomial import chebyshev as ncheb
from numpy.polynomial import legendre as nleg

from .exceptions import BasisConstructionError


def _check_domain(x):
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + 1e-12):
        raise ValueError("argument outside the Chebyshev domain [-1, 1]")
    return x


@dataclass(frozen=True, eq=False)
class Quadrature:
    """Gauss-Legendre nodes and weights on [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int


def gauss_quadrature(order: int) -> Quadrature:
    """Gauss-Legendre rule with `order` nodes; exact through degree 2*order - 1.

    Rules are computed once per order and shared, so their arrays are
    read-only.
    """
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    return _legendre_rule(order)


@cache
def _legendre_rule(order: int) -> Quadrature:
    nodes, weights = nleg.leggauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return Quadrature(nodes, weights, order)


@dataclass(frozen=True, eq=False)
class BasisSet:
    """Robin-compatible composite Chebyshev basis for one spatial direction.

    ``combo[k] = (a_k, b_k)`` and ``coeffs[k]`` is the Chebyshev-series
    coefficient row of phi_k (length count + 2), which ``basis_matrix`` and
    ``basis_table`` evaluate and differentiate.
    """

    count: int
    robin_minus: tuple     # (coefficient on value, coefficient on derivative) at x = -1
    robin_plus: tuple      # same at x = +1
    combo: np.ndarray      # (count, 2)
    coeffs: np.ndarray     # (count, count + 2)

    @property
    def max_degree(self) -> int:
        return self.count + 1


def build_basis(count: int, robin_minus, robin_plus) -> BasisSet:
    """Construct the first `count` basis functions for the given Robin pairs.

    The 2x2 systems, one per k, are solved at once, with rows normalized to
    unit maximum coefficient, which keeps the residuals at rounding level
    even when the value and derivative coefficients differ by orders of
    magnitude.
    """
    if count < 1:
        raise ValueError("basis count must be >= 1")
    p_m, q_m = float(robin_minus[0]), float(robin_minus[1])
    p_p, q_p = float(robin_plus[0]), float(robin_plus[1])
    if (p_m == 0.0 and q_m == 0.0) or (p_p == 0.0 and q_p == 0.0):
        raise BasisConstructionError("Robin pair must have a nonzero coefficient")

    def plus_term(j):
        return p_p + q_p * j * j

    def minus_term(j):
        # (coefficient of P_j in p*phi + q*phi' at x=-1) / (-1)^j
        return p_m - q_m * j * j

    k = np.arange(count)
    # one 2x2 system per k, stacked: mat (count, 2, 2), rhs (count, 2)
    mat = np.stack([
        np.stack([plus_term(k + 1), plus_term(k + 2)], axis=-1),
        np.stack([-minus_term(k + 1), minus_term(k + 2)], axis=-1),
    ], axis=1)
    rhs = np.stack([-plus_term(k), -minus_term(k)], axis=-1)
    scale = np.abs(mat).max(axis=2)
    scale[scale == 0.0] = 1.0
    mat_n = mat / scale[:, :, None]
    singular = np.abs(np.linalg.det(mat_n)) < 1e-12
    if singular.any():
        raise BasisConstructionError(
            f"singular combination system for basis index k={np.argmax(singular)}")
    combo = np.linalg.solve(mat_n, (rhs / scale)[..., None])[..., 0]
    coeffs = np.zeros((count, count + 2))
    coeffs[k, k] = 1.0
    coeffs[k, k + 1] = combo[:, 0]
    coeffs[k, k + 2] = combo[:, 1]
    return BasisSet(count, (p_m, q_m), (p_p, q_p), combo, coeffs)


def basis_matrix(bs: BasisSet, x, deriv: int = 0) -> np.ndarray:
    """Matrix of phi-k values (or derivatives) at the points x, shape (len(x), count)."""
    x = _check_domain(np.atleast_1d(x))
    return ncheb.chebvander(x, bs.max_degree) @ _series(bs, deriv)


def _series(bs: BasisSet, deriv: int) -> np.ndarray:
    """Chebyshev-series coefficients of the deriv-th derivative of every basis
    function, one column each, differentiated in coefficient space; a
    Vandermonde product sums them at given points."""
    series = bs.coeffs.T
    if deriv:
        series = np.linalg.matrix_power(_derivative_map(bs.max_degree), deriv) @ series
    return series


def _derivative_map(degree: int) -> np.ndarray:
    """Map from the coefficients of a Chebyshev series of the given degree
    to those of its derivative: (sum_j c_j P_j)' = sum_i (D c)_i P_i with
    D[i, j] = 2j for j > i and j - i odd, halved on row 0."""
    i, j = np.indices((degree + 1, degree + 1))
    d = np.where((j > i) & ((j - i) % 2 == 1), 2.0 * j, 0.0)
    d[0] *= 0.5
    return d


@dataclass(frozen=True, eq=False)
class BasisTable:
    """A basis and some of its derivatives at fixed points: ``table[d]`` is
    the d-th derivative as basis_matrix returns it, (len(nodes), count)."""

    nodes: np.ndarray
    derivs: dict

    def __getitem__(self, deriv: int) -> np.ndarray:
        return self.derivs[deriv]


def basis_table(bs: BasisSet, x, derivs=(0,)) -> BasisTable:
    """Evaluate the basis at the points x for every requested derivative,
    all from one Chebyshev-Vandermonde matrix of the points."""
    x = _check_domain(np.atleast_1d(x))
    vander = ncheb.chebvander(x, bs.max_degree)
    return BasisTable(x, {d: vander @ _series(bs, d) for d in derivs})


def robin_residuals(bs: BasisSet) -> np.ndarray:
    """Scaled Robin residuals of every basis function at both endpoints.

    Residuals are normalized by the magnitude of the largest term entering
    the boundary sum, (|p| + |q| (k+2)^2) (1 + |a_k| + |b_k|), so a value of
    order machine epsilon means the condition is satisfied to rounding.
    Shape (count, 2): column 0 at x = -1, column 1 at x = +1.
    """
    ends = np.array([-1.0, 1.0])
    # value and derivative coefficients, one row per end
    p, q = (np.array(c)[:, None] for c in zip(bs.robin_minus, bs.robin_plus))
    size = 1.0 + np.abs(bs.combo).sum(axis=1)
    scale = (np.abs(p) + np.abs(q) * (np.arange(bs.count) + 2) ** 2) * size
    table = basis_table(bs, ends, (0, 1))
    res = p * table[0] + q * table[1]
    return (np.abs(res) / scale).T
