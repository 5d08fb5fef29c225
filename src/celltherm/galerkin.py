"""Assembly of the reduced state-space thermal model.

The homogeneous field is expanded as T_h = sum_{m,n} c_mn phi_m^r phi_n^z
with Robin-adapted composite Chebyshev bases in each direction, and the
weighted residual of the scaled heat equation is projected onto the same
tensor products, giving

    G dX/dt = A X + B u + F w,      Y = C X + Dft u,

with X = [c_11, ..., c_1N, c_21, ..., c_MN]^T (row-major over (m, n)),
u the per-side cooling powers, and w the volumetric heat rate. The inner
product carries the physical radius as weight for cylindrical cells; the
first-derivative (gamma) term then has constant integrand alpha*k_r, so all
assembled integrands are polynomials and the fixed-order Gauss rule is exact
(verified by an order-doubling check).

Both operators are Kronecker products of 1D Galerkin matrices,

    G = rho cp (Gr (x) Gz),      A = Sr (x) Gz + Gr (x) Sz,

with Gr, Gz the weighted Gram (mass) matrices and Sr, Sz the stiffness
matrices of the two directions, so G^-1 A = (Gr^-1 Sr (x) I + I (x) Gz^-1 Sz)
/ (rho cp) is a Kronecker sum. The model keeps only these four factors. Each
symmetric-definite 1D pencil (Sr, Gr), (Sz, Gz) is diagonalized once (fast
diagonalization: Lynch, Rice & Thomas, Numer. Math. 6, 1964, here on Shen's
compact Robin-adapted Chebyshev-Galerkin bases); its modes give the exact
step map and the dissipativity check, and cond(G) = cond(Gr) cond(Gz), so no
(MN)^2 matrix is formed. G and A are derived properties, for inspection.
``to_modal`` and ``from_modal`` map states to and from the modal coordinates
(V_r (x) V_z)^-1 X in which ``simulate`` steps.

B columns apply the same spatial operator to the per-side particular
components; Dft adds their direct contribution to the four mid-side outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import eigh

from .core import CYLINDRICAL, CellSpec, CoolingConfig, Modes, input_sides
from .chebyshev import BasisSet, build_basis, basis_matrix, gauss_quadrature
from .exceptions import AssemblyError
from .particular import (
    ParticularComponents,
    axial_scale,
    boundary_scalars,
    feedthrough_matrix,
    radial_scale,
    radial_weight,
    robin_pairs,
    solve_side_coefficients,
)

# Mid-points of the surface, core, top, and bottom sides in scaled coordinates.
OUTPUT_LOCATIONS = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))

# Samples per block when ReducedModel.from_modal maps a trajectory.
_MODAL_BLOCK = 16


@dataclass(frozen=True, eq=False)
class ReducedModel:
    """Assembled state-space system plus everything needed to reconstruct
    the full temperature field.

    The operators are held as their 1D Kronecker factors (see the module
    docstring): ``gram_r``/``stiff_r`` are M x M, ``gram_z``/``stiff_z``
    N x N, and the stiffness factors are symmetric.
    """

    spec: CellSpec
    cooling: CoolingConfig
    M: int
    N: int
    gram_r: np.ndarray
    stiff_r: np.ndarray
    gram_z: np.ndarray
    stiff_z: np.ndarray
    B: np.ndarray
    F: np.ndarray
    C: np.ndarray
    Dft: np.ndarray
    basis_r: BasisSet
    basis_z: BasisSet
    particular: ParticularComponents
    quad_order: int

    @property
    def order(self) -> int:
        return self.M * self.N

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]

    @property
    def sides(self) -> tuple:
        return input_sides(self.spec.shape)

    @property
    def rho_cp(self) -> float:
        return self.spec.rho * self.spec.cp

    @property
    def G(self) -> np.ndarray:
        """Dense mass matrix rho cp (Gr (x) Gz); O(order^2) memory."""
        return self.rho_cp * np.kron(self.gram_r, self.gram_z)

    @property
    def A(self) -> np.ndarray:
        """Dense stiffness matrix Sr (x) Gz + Gr (x) Sz; O(order^2) memory."""
        return np.kron(self.stiff_r, self.gram_z) + np.kron(self.gram_r, self.stiff_z)

    @cached_property
    def modes_r(self) -> Modes:
        """Modes of the radial pencil: Gr^-1 Sr = V diag(lam) V_inv."""
        return _pencil_modes(self.stiff_r, self.gram_r)

    @cached_property
    def modes_z(self) -> Modes:
        """Modes of the axial pencil: Gz^-1 Sz = V diag(lam) V_inv."""
        return _pencil_modes(self.stiff_z, self.gram_z)

    def to_modal(self, X) -> np.ndarray:
        """Modal coordinates (V_r (x) V_z)^-1 X of states X (..., order)."""
        X = np.asarray(X, dtype=float)
        x = X.reshape(-1, self.M, self.N)
        return (self.modes_r.V_inv @ x @ self.modes_z.V_inv.T).reshape(X.shape)

    def from_modal(self, Y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """States (V_r (x) V_z) Y of modal coordinates Y (..., order).

        The result goes to ``out`` (C-contiguous; it may be Y itself) one
        block of samples at a time, so that mapping a long trajectory in
        place needs no temporary of its size.
        """
        y = Y.reshape(-1, self.M, self.N)
        x = np.empty_like(y) if out is None else out.reshape(y.shape)
        for i in range(0, y.shape[0], _MODAL_BLOCK):
            x[i:i + _MODAL_BLOCK] = (self.modes_r.V @ y[i:i + _MODAL_BLOCK]
                                     @ self.modes_z.V.T)
        return x.reshape(Y.shape)

    def outputs(self, X: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Mid-side temperatures Y = C X + Dft u of one sample or a stack."""
        # einsum's own loops: a threaded BLAS GEMM over a long high-order
        # trajectory starts the BLAS thread pool, whose buffers add about
        # 2 MB of resident memory
        return np.einsum("...o,po->...p", X, self.C) + u @ self.Dft.T


def _pencil_modes(stiff: np.ndarray, gram: np.ndarray) -> Modes:
    """Diagonalize the symmetric-definite pencil (stiff, gram).

    ``eigh`` returns gram-orthonormal eigenvectors Q (Q^T gram Q = I), so
    gram^-1 stiff = Q diag(lam) Q^T gram: V = Q and V_inv = Q^T gram, with a
    real spectrum and no matrix inverse.
    """
    try:
        lam, q = eigh(stiff, gram)
    except np.linalg.LinAlgError as exc:
        raise AssemblyError(f"1D Galerkin pencil not diagonalizable: {exc}") from exc
    return Modes(lam, q, q.T @ gram)


def default_quad_order(M: int, N: int) -> int:
    """4 * (max basis degree + 2); generous for the polynomial integrands."""
    return 4 * (max(M, N) + 3)


def _operator_times_weight(spec: CellSpec, components: ParticularComponents,
                           side: str, xr: np.ndarray, xz: np.ndarray) -> np.ndarray:
    """w(r) * L[T_p^side] on the tensor grid, where L is the scaled diffusion
    operator. For cylinders w*gamma = alpha*k_r exactly, so the product is
    assembled without evaluating the rational gamma."""
    alpha = radial_scale(spec)
    beta = axial_scale(spec)
    w = radial_weight(spec, xr)[:, None]
    d2r = components.component_grid(side, xr, xz, dr=2)
    d2z = components.component_grid(side, xr, xz, dz=2)
    out = alpha**2 * spec.k_r * w * d2r + beta**2 * spec.k_z * w * d2z
    if spec.is_cylindrical:
        d1r = components.component_grid(side, xr, xz, dr=1)
        out = out + alpha * spec.k_r * d1r
    return out


def _assemble_matrices(spec, cooling, basis_r, basis_z, components, order):
    quad = gauss_quadrature(order)
    x, wq = quad.nodes, quad.weights
    wvals = radial_weight(spec, x)
    alpha, beta = radial_scale(spec), axial_scale(spec)

    pr0 = basis_matrix(basis_r, x)
    pr1 = basis_matrix(basis_r, x, deriv=1)
    pr2 = basis_matrix(basis_r, x, deriv=2)
    pz0 = basis_matrix(basis_z, x)
    pz2 = basis_matrix(basis_z, x, deriv=2)

    wr = wq * wvals
    gram_r = pr0.T @ (wr[:, None] * pr0)
    gram_z = pz0.T @ (wq[:, None] * pz0)
    diff_rr = pr0.T @ (wr[:, None] * pr2)
    diff_zz = pz0.T @ (wq[:, None] * pz2)
    s_h = pr0.T @ wr
    s_v = pz0.T @ wq

    stiff_r = alpha**2 * spec.k_r * diff_rr
    if spec.is_cylindrical:
        diff_r1 = pr0.T @ (wq[:, None] * pr1)  # w * gamma == alpha k_r, unweighted here
        stiff_r = stiff_r + alpha * spec.k_r * diff_r1
    stiff_z = beta**2 * spec.k_z * diff_zz
    # Symmetric in exact arithmetic: integrating by parts leaves -<w phi', phi'>
    # plus Robin boundary terms that are symmetric in (i, j).
    stiff_r = 0.5 * (stiff_r + stiff_r.T)
    stiff_z = 0.5 * (stiff_z + stiff_z.T)
    F = np.kron(s_h, s_v)

    sides = input_sides(spec.shape)
    B = np.empty((F.size, len(sides)))
    for col, side in enumerate(sides):
        lw = _operator_times_weight(spec, components, side, x, x)
        B[:, col] = (pr0.T @ ((wq[:, None] * wq[None, :]) * lw) @ pz0).ravel()
    return gram_r, stiff_r, gram_z, stiff_z, B, F


def assemble(spec: CellSpec, cooling: CoolingConfig, M: int, N: int,
             quad_order: int | None = None) -> ReducedModel:
    """Build the reduced model of order M*N for one cell and cooling setup.

    The basis depends on the convection coefficients (it absorbs the
    homogeneous Robin conditions), so a new cooling configuration requires a
    full reassembly; see reassemble_cooling.
    """
    if M < 1 or N < 1:
        raise ValueError("basis counts M, N must be >= 1")
    if spec.shape == CYLINDRICAL and cooling.core.h != 0.0:
        raise ValueError("cylindrical cells require core h = 0")
    order = quad_order if quad_order is not None else default_quad_order(M, N)

    r_pair, z_pair = robin_pairs(spec, cooling)
    basis_r = build_basis(M, *r_pair)
    basis_z = build_basis(N, *z_pair)
    scalars = boundary_scalars(spec, cooling)
    quad = gauss_quadrature(order)
    coeffs = solve_side_coefficients(basis_r, basis_z, scalars, quad, spec)
    components = ParticularComponents(spec, basis_r, basis_z, coeffs)

    names = ("gram_r", "stiff_r", "gram_z", "stiff_z", "B", "F")
    mats = _assemble_matrices(spec, cooling, basis_r, basis_z, components, order)
    check = _assemble_matrices(spec, cooling, basis_r, basis_z, components, 2 * order)
    for name, m1, m2 in zip(names, mats, check):
        scale = np.abs(m2).max()
        if scale > 0.0 and np.abs(m1 - m2).max() > 1e-8 * scale:
            raise AssemblyError(f"quadrature not converged for matrix {name}")
    factors = dict(zip(names, mats))

    # the 2-norm condition number of a Kronecker product of SPD matrices is
    # the product of theirs
    cond = np.linalg.cond(factors["gram_r"]) * np.linalg.cond(factors["gram_z"])
    if not np.isfinite(cond) or cond > 1e12:
        raise AssemblyError(f"singular mass matrix (cond={cond:.3g})")

    out_r = np.array([loc[0] for loc in OUTPUT_LOCATIONS])
    out_z = np.array([loc[1] for loc in OUTPUT_LOCATIONS])
    pr_out = basis_matrix(basis_r, out_r)
    pz_out = basis_matrix(basis_z, out_z)
    C = np.empty((len(OUTPUT_LOCATIONS), M * N))
    for i in range(len(OUTPUT_LOCATIONS)):
        C[i] = np.kron(pr_out[i], pz_out[i])
    Dft = feedthrough_matrix(components, OUTPUT_LOCATIONS)

    model = ReducedModel(spec=spec, cooling=cooling, M=M, N=N, **factors,
                         C=C, Dft=Dft, basis_r=basis_r, basis_z=basis_z,
                         particular=components, quad_order=order)

    # Dissipativity: every eigenvalue lam_r[i] + lam_z[j] of the Kronecker sum
    # is <= 0. Zero is legal: an insulated cell conserves its mean.
    lam = np.add.outer(model.modes_r.lam, model.modes_z.lam)
    if lam.max() > 1e-9 * np.abs(lam).max():
        raise AssemblyError(
            f"model is not dissipative: largest eigenvalue {lam.max():.3g} > 0 "
            f"(largest magnitude {np.abs(lam).max():.3g})")
    return model


def project_initial_state(model: ReducedModel, T_init: float, u0) -> np.ndarray:
    """Galerkin projection of the homogeneous part of a uniform initial field.

    Solves G X(0) = rho cp < w (T_init - T_p(.) u0), eta > so that the
    reconstruction T_h(0) + T_p u0 approximates the uniform T_init. With
    G = rho cp (Gr (x) Gz) this is X(0) = Gr^-1 R Gz^-1 for the M x N moment
    matrix R, two small solves instead of one with G.
    """
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (model.n_inputs,):
        raise ValueError(f"u0 must have shape ({model.n_inputs},)")
    quad = gauss_quadrature(model.quad_order)
    x, wq = quad.nodes, quad.weights
    pr0 = basis_matrix(model.basis_r, x)
    pz0 = basis_matrix(model.basis_z, x)
    wr = wq * radial_weight(model.spec, x)

    field = np.full((x.size, x.size), float(T_init))
    field -= model.particular.eval_total(u0, x, x)
    moments = pr0.T @ ((wr[:, None] * wq[None, :]) * field) @ pz0
    return np.linalg.solve(model.gram_r,
                           np.linalg.solve(model.gram_z, moments.T).T).ravel()


def reassemble_cooling(model: ReducedModel, cooling: CoolingConfig) -> ReducedModel:
    """Rebuild basis and matrices for a new cooling configuration; the
    original model is untouched."""
    return assemble(model.spec, cooling, model.M, model.N, model.quad_order)
