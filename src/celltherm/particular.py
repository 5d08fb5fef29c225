"""Decomposed particular solution absorbing the non-homogeneous Robin data.

The boundary-lifting field is sought in the polynomial space

    span{r, r^2} (x) {phi_n^z}   (+)   span{z, z^2} (x) {phi_m^r}

(scaled coordinates everywhere). Imposing the four Robin conditions in the
Galerkin sense decouples into two 2x2-coupled linear systems because the
basis functions themselves satisfy the homogeneous conditions, and the
resulting coefficient vectors are linear in the per-side inputs:

    D1 = d1_s u_s + d1_c u_c,   D2 = d2_s u_s + d2_c u_c,
    D3 = d1_t u_t + d1_b u_b,   D4 = d2_t u_t + d2_b u_b.

That linearity is what separates the field into four per-side components,
one per cooling channel, each evaluable per unit input.

Sign convention: the scaled Robin conditions are

    h_s T + (alpha k_r) dT/dr = u_s   at r = +1,
    h_c T - (alpha k_r) dT/dr = u_c   at r = -1,

and analogously with (beta k_z) in z, with u_side = h_side * T_inf,side.
This is the standard convection (cooling) convention: heat conducted out of
each face equals h (T - T_inf).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CellSpec, CoolingConfig, input_sides
from .chebyshev import BasisSet, BasisTable, Quadrature, basis_matrix, basis_table
from .exceptions import DegenerateBoundaryError, IllConditionedBasisError

# Relative threshold below which a 2x2 boundary system counts as singular.
_DEGENERATE_RTOL = 1e-12


def radial_scale(spec: CellSpec) -> float:
    """alpha = 2/(R_out - R_in) for cylinders, lambda = 2/D for pouches."""
    if spec.is_cylindrical:
        return 2.0 / (spec.R_out - spec.R_in)
    return 2.0 / spec.D


def axial_scale(spec: CellSpec) -> float:
    """beta = 2/L (pouch: zeta = 2/H)."""
    return 2.0 / spec.L


def radius_from_scaled(spec: CellSpec, r_scaled) -> np.ndarray:
    """Physical radius r as a function of the scaled coordinate in [-1, 1]."""
    alpha = radial_scale(spec)
    c0 = (spec.R_out + spec.R_in) / (spec.R_out - spec.R_in)
    return (np.asarray(r_scaled, dtype=float) + c0) / alpha


def radial_weight(spec: CellSpec, r_scaled) -> np.ndarray:
    """Inner-product weight along the radial direction: the physical radius
    for cylindrical cells (volume element), 1 for pouch cells."""
    r_scaled = np.asarray(r_scaled, dtype=float)
    if spec.is_cylindrical:
        return radius_from_scaled(spec, r_scaled)
    return np.ones_like(r_scaled)


def robin_pairs(spec: CellSpec, cooling: CoolingConfig):
    """Homogeneous Robin pairs ((p_minus, q_minus), (p_plus, q_plus)) for the
    radial and axial directions, in scaled coordinates."""
    a_r = radial_scale(spec) * spec.k_r
    a_z = axial_scale(spec) * spec.k_z
    r_pair = ((cooling.core.h, -a_r), (cooling.surface.h, a_r))
    z_pair = ((cooling.bottom.h, -a_z), (cooling.top.h, a_z))
    return r_pair, z_pair


@dataclass(frozen=True)
class BoundaryScalars:
    """Per-side coefficients of the boundary Galerkin systems.

    The surface/core rows read s1 D1 + s2 D2 = u_s E and c1 D1 + c2 D2 = u_c E
    with E = Phi_v^-1 S_v, and analogously (t, b) for D3, D4.
    """

    s1: float
    s2: float
    c1: float
    c2: float
    t1: float
    t2: float
    b1: float
    b2: float

    @property
    def vertical(self) -> np.ndarray:
        return np.array([[self.s1, self.s2], [self.c1, self.c2]])

    @property
    def horizontal(self) -> np.ndarray:
        return np.array([[self.t1, self.t2], [self.b1, self.b2]])


def _check_not_degenerate(mat: np.ndarray, label: str):
    scale = np.abs(mat).max()
    if scale == 0.0 or abs(np.linalg.det(mat)) < _DEGENERATE_RTOL * scale**2:
        raise DegenerateBoundaryError(f"degenerate {label} boundary system")


def boundary_scalars(spec: CellSpec, cooling: CoolingConfig) -> BoundaryScalars:
    """Coefficients obtained by substituting (D1 r + D2 r^2) and (D3 z + D4 z^2)
    into the four scaled Robin conditions."""
    a_r = radial_scale(spec) * spec.k_r
    a_z = axial_scale(spec) * spec.k_z
    h_s, h_c = cooling.surface.h, cooling.core.h
    h_t, h_b = cooling.top.h, cooling.bottom.h
    sc = BoundaryScalars(
        s1=h_s + a_r, s2=h_s + 2.0 * a_r,
        c1=-(h_c + a_r), c2=h_c + 2.0 * a_r,
        t1=h_t + a_z, t2=h_t + 2.0 * a_z,
        b1=-(h_b + a_z), b2=h_b + 2.0 * a_z,
    )
    _check_not_degenerate(sc.vertical, "surface/core")
    _check_not_degenerate(sc.horizontal, "top/bottom")
    return sc


@dataclass(frozen=True, eq=False)
class SideCoefficients:
    """Per-unit-input coefficient vectors of the four field components.

    d1_* / d2_* multiply r and r^2 for the vertical sides (length N, paired
    with the z-basis); d1_t ... d2_b multiply z and z^2 for the horizontal
    sides (length M, paired with the r-basis).
    """

    d1_s: np.ndarray
    d2_s: np.ndarray
    d1_c: np.ndarray
    d2_c: np.ndarray
    d1_t: np.ndarray
    d2_t: np.ndarray
    d1_b: np.ndarray
    d2_b: np.ndarray


def _gram_and_source(basis: BasisSet, quad: Quadrature, weight: np.ndarray):
    P = basis_matrix(basis, quad.nodes)
    wq = quad.weights * weight
    gram = P.T @ (wq[:, None] * P)
    source = P.T @ wq
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > 1e12:
        raise IllConditionedBasisError(
            f"basis Gram matrix is numerically singular (cond={cond:.3g})")
    return gram, source


def solve_side_coefficients(basis_r: BasisSet, basis_z: BasisSet,
                            scalars: BoundaryScalars, quad: Quadrature,
                            spec: CellSpec) -> SideCoefficients:
    """Solve the four boundary Galerkin systems for unit inputs.

    Phi_v is the unweighted Gram matrix of the z-basis; Phi_h carries the
    radius weight for cylindrical cells. The two 2x2 systems are solved
    directly (not via transcribed closed forms).
    """
    ones = np.ones_like(quad.nodes)
    phi_v, s_v = _gram_and_source(basis_z, quad, ones)
    phi_h, s_h = _gram_and_source(basis_r, quad, radial_weight(spec, quad.nodes))
    e_v = np.linalg.solve(phi_v, s_v)
    e_h = np.linalg.solve(phi_h, s_h)

    mv = scalars.vertical
    mh = scalars.horizontal
    _check_not_degenerate(mv, "surface/core")
    _check_not_degenerate(mh, "top/bottom")
    unit_s = np.linalg.solve(mv, [1.0, 0.0])
    unit_c = np.linalg.solve(mv, [0.0, 1.0])
    unit_t = np.linalg.solve(mh, [1.0, 0.0])
    unit_b = np.linalg.solve(mh, [0.0, 1.0])
    return SideCoefficients(
        d1_s=unit_s[0] * e_v, d2_s=unit_s[1] * e_v,
        d1_c=unit_c[0] * e_v, d2_c=unit_c[1] * e_v,
        d1_t=unit_t[0] * e_h, d2_t=unit_t[1] * e_h,
        d1_b=unit_b[0] * e_h, d2_b=unit_b[1] * e_h,
    )


def _power_series(x: np.ndarray, deriv: int) -> np.ndarray:
    """(d/dx)^deriv of x and x^2, stacked: shape (2, len(x))."""
    if deriv == 0:
        return np.array([x, x * x])
    if deriv == 1:
        return np.array([np.ones_like(x), 2.0 * x])
    if deriv == 2:
        return np.array([np.zeros_like(x), np.full_like(x, 2.0)])
    return np.zeros((2, x.size))


_VERTICAL_SIDES = ("surface", "core")


@dataclass(frozen=True, eq=False)
class ParticularComponents:
    """The four per-side boundary-lifting fields, each per unit input.

    Each field is separable, a sum of two products g(r) f(z): r and r^2
    times a z-basis combination for a vertical side, an r-basis combination
    times z and z^2 for a horizontal one. ``factors`` gives those 1D factors
    from basis tables, so grids and Galerkin projections need no 2D work.
    For a cylindrical cell the core component exists but is never excited
    (u_core = 0); pouch cells excite all four.
    """

    spec: CellSpec
    basis_r: BasisSet
    basis_z: BasisSet
    coeffs: SideCoefficients

    def factors(self, side: str, r: BasisTable, z: BasisTable,
                dr: int = 0, dz: int = 0) -> tuple:
        """1D factors (fr (2, len(r.nodes)), fz (2, len(z.nodes))) such that
        (d/dr)^dr (d/dz)^dz T_p^side at (r_i, z_j) per unit input is
        sum_k fr[k, i] fz[k, j]. ``r`` and ``z`` are tables of basis_r and
        basis_z; a vertical side reads z[dz], a horizontal one r[dr]."""
        cf = self.coeffs
        pairs = {"surface": (cf.d1_s, cf.d2_s), "core": (cf.d1_c, cf.d2_c),
                 "top": (cf.d1_t, cf.d2_t), "bottom": (cf.d1_b, cf.d2_b)}
        if side not in pairs:
            raise ValueError(f"unknown side {side!r}")
        d = np.array(pairs[side]).T
        if side in _VERTICAL_SIDES:
            return _power_series(r.nodes, dr), (z[dz] @ d).T
        return (r[dr] @ d).T, _power_series(z.nodes, dz)

    def component_grid(self, side: str, r_nodes, z_nodes,
                       dr: int = 0, dz: int = 0) -> np.ndarray:
        """Tensor-grid values of (d/dr)^dr (d/dz)^dz T_p^side per unit input,
        in scaled coordinates. Shape (len(r_nodes), len(z_nodes))."""
        vertical = side in _VERTICAL_SIDES
        r = basis_table(self.basis_r, r_nodes, () if vertical else (dr,))
        z = basis_table(self.basis_z, z_nodes, (dz,) if vertical else ())
        fr, fz = self.factors(side, r, z, dr, dz)
        return fr.T @ fz

    def point_values(self, r: BasisTable, z: BasisTable) -> np.ndarray:
        """Per-unit-input value of each input side's component at the points
        (r.nodes[i], z.nodes[i]), shape (points, n_inputs)."""
        return np.column_stack([np.einsum("ki,ki->i", *self.factors(side, r, z))
                                for side in input_sides(self.spec.shape)])

