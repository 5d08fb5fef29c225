"""Decomposed particular solution absorbing the non-homogeneous Robin data.

The boundary-lifting field is sought in the polynomial space

    span{r, r^2} (x) {phi_n^z}   (+)   span{z, z^2} (x) {phi_m^r}

(scaled coordinates everywhere). Imposing the four Robin conditions in the
Galerkin sense decouples into two 2x2-coupled linear systems because the
basis functions themselves satisfy the homogeneous conditions. All four
rows share one right-hand side, the Galerkin projection of 1 onto a basis
(e_z = Gz^-1 s_z, e_r = Gr^-1 s_r), so per unit input each side's component
is one separable product,

    (a r + b r^2) (phi^z . e_z)  for surface and core,
    (phi^r . e_r) (a z + b z^2)  for top and bottom,

with (a, b) the side's column of the inverted 2x2 system: the Robin pairs
of ``robin_pairs``, which the basis satisfies, applied to x and x^2
(``robin_rows``). The field is linear in the inputs, which is what
separates it into four per-side components, one per cooling channel.

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

from .core import SIDES, CellSpec, CoolingConfig, input_sides
from .chebyshev import BasisSet, BasisTable, Quadrature, basis_table
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


def _power_series(x: np.ndarray, deriv: int) -> np.ndarray:
    """(d/dx)^deriv of x and x^2, stacked: shape (2, len(x))."""
    if deriv == 0:
        return np.array([x, x * x])
    if deriv == 1:
        return np.array([np.ones_like(x), 2.0 * x])
    if deriv == 2:
        return np.array([np.zeros_like(x), np.full_like(x, 2.0)])
    return np.zeros((2, x.size))


def robin_rows(robin_minus, robin_plus) -> np.ndarray:
    """The Robin conditions p T(s) + q T'(s) of the end s = +1 (row 0) and
    s = -1 (row 1), applied to T = x and T = x^2 (columns)."""
    (p_m, q_m), (p_p, q_p) = robin_minus, robin_plus
    ends = np.array([1.0, -1.0])
    return (np.array([[p_p], [p_m]]) * _power_series(ends, 0).T
            + np.array([[q_p], [q_m]]) * _power_series(ends, 1).T)


def _lifting_pairs(basis: BasisSet, label: str) -> np.ndarray:
    """The (x, x^2) pairs per unit input at s = +1 (row 0) and s = -1 (row
    1): the columns of the inverted Robin rows of the basis."""
    mat = robin_rows(basis.robin_minus, basis.robin_plus)
    scale = np.abs(mat).max()
    if scale == 0.0 or abs(np.linalg.det(mat)) < _DEGENERATE_RTOL * scale**2:
        raise DegenerateBoundaryError(f"degenerate {label} boundary system")
    return np.linalg.solve(mat, np.eye(2)).T


_VERTICAL_SIDES = ("surface", "core")


@dataclass(frozen=True, eq=False)
class ParticularComponents:
    """The four per-side boundary-lifting fields, each per unit input.

    Each field is one separable product g(r) f(z): a polynomial in r times
    a z-basis combination for a vertical side, an r-basis combination times a
    polynomial in z for a horizontal one. e_r (M,) and e_z (N,) are the
    Galerkin projections of 1 onto the r- and z-bases; each side's pair (2,)
    multiplies (r, r^2) for a vertical side and (z, z^2) for a horizontal
    one. ``factors`` gives the 1D factors from basis tables, so grids and
    Galerkin projections need no 2D work. For a cylindrical cell the core
    component exists but is never excited (u_core = 0); pouch cells excite
    all four.
    """

    spec: CellSpec
    basis_r: BasisSet
    basis_z: BasisSet
    e_r: np.ndarray
    e_z: np.ndarray
    surface: np.ndarray
    core: np.ndarray
    top: np.ndarray
    bottom: np.ndarray

    @classmethod
    def solve(cls, spec: CellSpec, basis_r: BasisSet, basis_z: BasisSet,
              quad: Quadrature) -> "ParticularComponents":
        """Solve the four boundary Galerkin systems for unit inputs.

        Its Gram matrices are bitwise the Gr and Gz ``assemble`` builds at
        the same order, so this is the package's one conditioning check:
        cond(G) = cond(Gr) cond(Gz) must not exceed 1e12.
        """
        x, wz = quad.nodes, quad.weights
        wr = wz * radial_weight(spec, x)
        r = basis_table(basis_r, x)[0]
        z = basis_table(basis_z, x)[0]
        gram_r = r.T @ (wr[:, None] * r)
        gram_z = z.T @ (wz[:, None] * z)
        cond = np.linalg.cond(gram_r) * np.linalg.cond(gram_z)
        if not np.isfinite(cond) or cond > 1e12:
            raise IllConditionedBasisError(
                f"basis Gram matrices are numerically singular (cond={cond:.3g})")
        surface, core = _lifting_pairs(basis_r, "surface/core")
        top, bottom = _lifting_pairs(basis_z, "top/bottom")
        return cls(spec, basis_r, basis_z,
                   e_r=np.linalg.solve(gram_r, r.T @ wr),
                   e_z=np.linalg.solve(gram_z, z.T @ wz),
                   surface=surface, core=core, top=top, bottom=bottom)

    def factors(self, side: str, r: BasisTable, z: BasisTable,
                dr: int = 0, dz: int = 0) -> tuple:
        """1D factors (fr (1, len(r.nodes)), fz (1, len(z.nodes))) such that
        (d/dr)^dr (d/dz)^dz T_p^side at (r_i, z_j) per unit input is
        fr[0, i] fz[0, j]. ``r`` and ``z`` are tables of basis_r and
        basis_z; a vertical side reads z[dz], a horizontal one r[dr]."""
        if side not in SIDES:
            raise ValueError(f"unknown side {side!r}")
        pair = getattr(self, side)
        if side in _VERTICAL_SIDES:
            return (pair @ _power_series(r.nodes, dr))[None], (z[dz] @ self.e_z)[None]
        return (r[dr] @ self.e_r)[None], (pair @ _power_series(z.nodes, dz))[None]

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

