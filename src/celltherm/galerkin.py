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
assembled integrands are polynomials, of degree at most 2 max(M, N) + 3, and
the Gauss rule of order n = max(M, N) + 3 integrates them exactly (Shen,
SIAM J. Sci. Comput. 15, 1994). ``assemble`` repeats the assembly at 2n and
rejects the model if any factor moves beyond 1e-8 relative, which catches a
quadrature order passed in too small.

Each basis is evaluated once per node set, as a 1D table of values and
derivatives, and every particular component is one separable product (see
``particular``), so all Galerkin moments are outer products of 1D
projections and no 2D quadrature grid is formed.

Both operators are Kronecker products of 1D Galerkin matrices,

    G = rho cp (Gr (x) Gz),      A = Sr (x) Gz + Gr (x) Sz,

with Gr, Gz the weighted Gram (mass) matrices and Sr, Sz the stiffness
matrices of the two directions, so G^-1 A = (Gr^-1 Sr (x) I + I (x) Gz^-1 Sz)
/ (rho cp) is a Kronecker sum. The model keeps only these four factors. Each
symmetric-definite 1D pencil (Sr, Gr), (Sz, Gz) is diagonalized once (fast
diagonalization: Lynch, Rice & Thomas, Numer. Math. 6, 1964, here on Shen's
compact Robin-adapted Chebyshev-Galerkin bases); its modes give the exact
step map and the dissipativity check, and cond(G) = cond(Gr) cond(Gz), so no
(MN)^2 matrix is formed; ``particular.ParticularComponents.solve`` checks it
on Gram matrices bitwise equal to Gr and Gz. G and A are derived properties,
for inspection.
``to_modal`` and ``from_modal`` map states to and from the modal coordinates
(V_r (x) V_z)^-1 X in which ``simulate`` steps, and ``modal_C`` carries the
output map over to them, so that the outputs of a modal trajectory need no
state (``modal_outputs``); ``simulate.FieldEvaluator`` reads modal
coordinates too.

B columns apply the same spatial operator to the per-side particular
components; Dft adds their direct contribution to the four mid-side outputs.
The components are solved once, at order n; re-solving them in the 2n pass
would move B by about 1e-11 relative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import CYLINDRICAL, CellSpec, CoolingConfig, Modes, input_sides
from .chebyshev import BasisSet, BasisTable, basis_table, build_basis, gauss_quadrature
from .exceptions import AssemblyError
from .particular import (
    ParticularComponents,
    axial_scale,
    radial_scale,
    radial_weight,
    robin_pairs,
)

# Mid-points of the surface, core, top, and bottom sides in scaled coordinates.
OUTPUT_LOCATIONS = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))


def map_modes(Y: np.ndarray, V_r: np.ndarray, V_z: np.ndarray) -> np.ndarray:
    """States (V_r (x) V_z) Y of modal coordinates Y (..., M N), as
    V_r y V_z^T per M x N sample."""
    y = Y.reshape(-1, V_r.shape[0], V_z.shape[0])
    return (V_r @ y @ V_z.T).reshape(Y.shape)


def _outputs(X: np.ndarray, C: np.ndarray, Dft: np.ndarray, u: np.ndarray) -> np.ndarray:
    """C X + Dft u of one sample or a stack.

    einsum's own loops: a threaded BLAS GEMM over a long high-order
    trajectory starts the BLAS thread pool, whose buffers add about 2 MB of
    resident memory.
    """
    return np.einsum("...o,po->...p", X, C) + u @ Dft.T


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

    @cached_property
    def evaluators(self) -> dict:
        """Field evaluators of this model by grid (n_r, n_z); filled by
        ``simulate.FieldEvaluator.of``."""
        return {}

    def to_modal(self, X) -> np.ndarray:
        """Modal coordinates (V_r (x) V_z)^-1 X of states X (..., order)."""
        X = np.asarray(X, dtype=float)
        x = X.reshape(-1, self.M, self.N)
        return (self.modes_r.V_inv @ x @ self.modes_z.V_inv.T).reshape(X.shape)

    def from_modal(self, Y: np.ndarray) -> np.ndarray:
        """States (V_r (x) V_z) Y of modal coordinates Y (..., order)."""
        return map_modes(Y, self.modes_r.V, self.modes_z.V)

    @cached_property
    def modal_C(self) -> np.ndarray:
        """The output map C (V_r (x) V_z), (4, order), on modal coordinates:
        C X = (C (V_r (x) V_z)) Y."""
        c = self.C.reshape(-1, self.M, self.N)
        return (self.modes_r.V.T @ c @ self.modes_z.V).reshape(self.C.shape)

    def outputs(self, X: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Mid-side temperatures Y = C X + Dft u of Galerkin states X, one
        sample or a stack; the dense reference of ``modal_outputs``."""
        return _outputs(X, self.C, self.Dft, u)

    def modal_outputs(self, Y: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Mid-side temperatures C (V_r (x) V_z) Y + Dft u of modal
        coordinates Y, one sample or a stack."""
        return _outputs(Y, self.modal_C, self.Dft, u)


def _pencil_modes(stiff: np.ndarray, gram: np.ndarray) -> Modes:
    """Diagonalize the symmetric-definite pencil (stiff, gram).

    With gram = L L^T (Cholesky), the pencil reduces to the standard
    symmetric problem C = L^-1 stiff L^-T = W diag(lam) W^T, the reduction
    LAPACK's ``sygvd`` performs (Golub & Van Loan, Matrix Computations, 4th
    ed., 8.7). Q = L^-T W is gram-orthonormal (Q^T gram Q = I), so
    gram^-1 stiff = Q diag(lam) Q^T gram: V = Q and V_inv = Q^T gram, with a
    real spectrum and no matrix inverse. C is symmetrized explicitly, since
    numpy's ``eigh`` reads only one triangle. On the paper cell's pencils at
    M = N = 30, Q^T gram Q = I to 1.3e-14, against 1.6e-14 through ``sygvd``.
    """
    try:
        low = np.linalg.cholesky(gram)
        half = np.linalg.solve(low, stiff)          # L^-1 stiff
        c = np.linalg.solve(low, half.T)            # L^-1 stiff L^-T
        lam, w = np.linalg.eigh(0.5 * (c + c.T))
    except np.linalg.LinAlgError as exc:
        raise AssemblyError(f"1D Galerkin pencil not diagonalizable: {exc}") from exc
    q = np.linalg.solve(low.T, w)
    return Modes(lam, q, q.T @ gram)


def default_quad_order(M: int, N: int) -> int:
    """The Gauss order that integrates every assembled integrand exactly.

    The basis has degree at most max(M, N) + 1, so the integrands reach
    degree 2 max(M, N) + 3 (two basis functions times the radius weight); a
    particular component adds at most the r^2 or z^2 of one factor to a
    basis function. An n-point rule is exact through degree 2n - 1, so
    max(M, N) + 2 nodes suffice; the rule keeps one more.
    """
    return max(M, N) + 3


def _moments(r: BasisTable, z: BasisTable, w_r: np.ndarray, w_z: np.ndarray,
             fr: np.ndarray, fz: np.ndarray) -> np.ndarray:
    """Galerkin moments <phi_m^r phi_n^z, sum_k fr[k] fz[k]>, shape (M, N),
    of a separable field given by its 1D factors at the quadrature nodes,
    under the 1D quadrature weights w_r and w_z."""
    return (r[0].T @ (w_r * fr).T) @ (z[0].T @ (w_z * fz).T).T


# bench/tracer.py reads the 6th positional argument as the quadrature order
def _assemble_matrices(spec, cooling, basis_r, basis_z, components, order):
    quad = gauss_quadrature(order)
    x, wq = quad.nodes, quad.weights
    wr = wq * radial_weight(spec, x)
    alpha, beta = radial_scale(spec), axial_scale(spec)
    cylindrical = spec.is_cylindrical
    r = basis_table(basis_r, x, (0, 1, 2) if cylindrical else (0, 2))
    z = basis_table(basis_z, x, (0, 2))

    gram_r = r[0].T @ (wr[:, None] * r[0])
    gram_z = z[0].T @ (wq[:, None] * z[0])
    stiff_r = alpha**2 * spec.k_r * (r[0].T @ (wr[:, None] * r[2]))
    if cylindrical:
        # w * gamma == alpha k_r, so this term carries no radius weight
        stiff_r = stiff_r + alpha * spec.k_r * (r[0].T @ (wq[:, None] * r[1]))
    stiff_z = beta**2 * spec.k_z * (z[0].T @ (wq[:, None] * z[2]))
    # Symmetric in exact arithmetic: integrating by parts leaves -<w phi', phi'>
    # plus Robin boundary terms that are symmetric in (i, j).
    stiff_r = 0.5 * (stiff_r + stiff_r.T)
    stiff_z = 0.5 * (stiff_z + stiff_z.T)
    F = np.kron(r[0].T @ wr, z[0].T @ wq)

    # w L[T_p], L the scaled diffusion operator, as (coefficient, radial
    # quadrature weight, dr, dz) terms of the separable components
    terms = [(alpha**2 * spec.k_r, wr, 2, 0), (beta**2 * spec.k_z, wr, 0, 2)]
    if cylindrical:
        terms.append((alpha * spec.k_r, wq, 1, 0))
    sides = input_sides(spec.shape)
    B = np.empty((F.size, len(sides)))
    for col, side in enumerate(sides):
        B[:, col] = sum(coef * _moments(r, z, w_r, wq,
                                        *components.factors(side, r, z, dr, dz))
                        for coef, w_r, dr, dz in terms).ravel()
    return gram_r, stiff_r, gram_z, stiff_z, B, F


def assemble(spec: CellSpec, cooling: CoolingConfig, M: int, N: int,
             quad_order: int | None = None) -> ReducedModel:
    """Build the reduced model of order M*N for one cell and cooling setup.

    The basis depends on the convection coefficients (it absorbs the
    homogeneous Robin conditions), so a new cooling configuration needs a
    new call: a model is never updated in place.
    """
    if M < 1 or N < 1:
        raise ValueError("basis counts M, N must be >= 1")
    if spec.shape == CYLINDRICAL and cooling.core.h != 0.0:
        raise ValueError("cylindrical cells require core h = 0")
    order = quad_order if quad_order is not None else default_quad_order(M, N)

    r_pair, z_pair = robin_pairs(spec, cooling)
    basis_r = build_basis(M, *r_pair)
    basis_z = build_basis(N, *z_pair)
    components = ParticularComponents.solve(spec, basis_r, basis_z,
                                            gauss_quadrature(order))

    names = ("gram_r", "stiff_r", "gram_z", "stiff_z", "B", "F")
    mats = _assemble_matrices(spec, cooling, basis_r, basis_z, components, order)
    check = _assemble_matrices(spec, cooling, basis_r, basis_z, components, 2 * order)
    for name, m1, m2 in zip(names, mats, check):
        scale = np.abs(m2).max()
        if scale > 0.0 and np.abs(m1 - m2).max() > 1e-8 * scale:
            raise AssemblyError(f"quadrature not converged for matrix {name}")
    factors = dict(zip(names, mats))

    out_r, out_z = np.array(OUTPUT_LOCATIONS).T
    r_out = basis_table(basis_r, out_r)
    z_out = basis_table(basis_z, out_z)
    C = np.einsum("im,in->imn", r_out[0], z_out[0]).reshape(len(out_r), M * N)
    Dft = components.point_values(r_out, z_out)

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
    wr = wq * radial_weight(model.spec, x)
    r = basis_table(model.basis_r, x)
    z = basis_table(model.basis_z, x)

    moments = float(T_init) * np.outer(r[0].T @ wr, z[0].T @ wq)
    for value, side in zip(u0, model.sides):
        moments -= value * _moments(r, z, wr, wq,
                                    *model.particular.factors(side, r, z))
    return np.linalg.solve(model.gram_r,
                           np.linalg.solve(model.gram_z, moments.T).T).ravel()

