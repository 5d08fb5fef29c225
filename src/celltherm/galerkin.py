"""Assembly of the reduced state-space thermal model.

The homogeneous field is expanded as T_h = sum_{m,n} c_mn phi_m^r phi_n^z
with Robin-adapted composite Chebyshev bases in each direction, and the
weighted residual of the scaled heat equation is projected onto the same
tensor products, giving

    G dX/dt = A X + B u + F w,      Y = C X + Dft u,

with X = [c_11, ..., c_1N, c_21, ..., c_MN]^T (row-major over (m, n)),
u the input sides' cooling powers h T_inf, and w the heat rate. The inner
product carries the physical radius as weight for cylindrical cells; the
first-derivative (gamma) term then has constant integrand alpha*k_r, so all
assembled integrands are polynomials, of degree at most 2 max(M, N) + 3, and
the Gauss rule of order n = max(M, N) + 3 integrates them exactly (Shen,
SIAM J. Sci. Comput. 15, 1994). ``test_default_order_is_exact`` proves the
rule exact on random cells: a second pass at 2n moves no factor beyond
rounding. ``assemble_library`` runs one pass at the order of its largest
M and N and slices every smaller model out of it; ``assemble`` is the
library of one model.

Each basis is evaluated once per node set, as a 1D table of values and
derivatives, and every particular component is one separable product (see
``particular``), so all Galerkin moments are outer products of 1D
projections and no 2D quadrature grid is formed.

Both operators are Kronecker products of 1D Galerkin matrices,

    G = rho cp (Gr (x) Gz),      A = Sr (x) Gz + Gr (x) Sz,

with Gr, Gz the weighted Gram (mass) matrices and Sr, Sz the stiffness
matrices of the two directions, so G^-1 A = (Gr^-1 Sr (x) I + I (x) Gz^-1 Sz)
/ (rho cp) is a Kronecker sum. The model keeps only these four factors. Each
symmetric-definite 1D pencil (Sr, Gr), (Sz, Gz) is diagonalized once by
``core.pencil_modes`` (fast diagonalization: Lynch, Rice & Thomas, Numer.
Math. 6, 1964, here on Shen's compact Robin-adapted Chebyshev-Galerkin
bases); its modes give the exact step map and the dissipativity check, and
cond(G) = cond(Gr) cond(Gz), so no (MN)^2 matrix is formed; the assembly
pass checks it once (``_check_conditioning``). G and A are derived
properties, for inspection.
Outside this assembly every state is in the modal coordinates
Y = (V_r (x) V_z)^-1 X of these modes: ``project_initial_state`` returns them,
``simulate`` steps them, ``modal_C`` carries the output map over to them
(``modal_outputs``) and ``simulate.FieldEvaluator`` reads them. No Galerkin
state is formed on the way.

B columns apply the same spatial operator to the per-side particular
components, P holds their plain Galerkin moments for ``project_initial_state``,
and Dft adds their direct contribution to the four mid-side outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (CYLINDRICAL, SIDES, CellSpec, CoolingConfig, Modes, check_count,
                   input_sides, pencil_modes, per_step_rows)
from .chebyshev import BasisSet, BasisTable, basis_table, build_basis, gauss_quadrature
from .exceptions import AssemblyError, IllConditionedBasisError
from .particular import (
    ParticularComponents,
    axial_scale,
    radial_scale,
    radial_weight,
    robin_pairs,
)

# Mid-points of the surface, core, top, and bottom sides in scaled coordinates.
OUTPUT_LOCATIONS = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))


@dataclass(frozen=True, eq=False)
class ReducedModel:
    """Assembled state-space system plus everything needed to reconstruct
    the full temperature field.

    The operators are held as their 1D Kronecker factors (see the module
    docstring): ``gram_r``/``stiff_r`` are M x M, ``gram_z``/``stiff_z``
    N x N, and the stiffness factors are symmetric. Column i of ``P``
    holds the Galerkin moments of input side i's particular component.
    The inputs u are formed from coolant temperatures by ``cooling_powers``.
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
    P: np.ndarray
    C: np.ndarray
    Dft: np.ndarray
    basis_r: BasisSet
    basis_z: BasisSet
    particular: ParticularComponents

    @property
    def order(self) -> int:
        return self.M * self.N

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]

    @property
    def sides(self) -> tuple:
        return input_sides(self.spec.shape)

    @cached_property
    def _coolant_gains(self) -> np.ndarray:
        """diag(h) over ``SIDES``, cut to the input sides' columns."""
        return np.diag([self.cooling.side(s).h for s in SIDES])[
            :, [SIDES.index(s) for s in self.sides]]

    def cooling_powers(self, tinf, out=None) -> np.ndarray:
        """The inputs u = h T_inf (..., n_inputs) over ``sides`` of finite
        coolant temperatures (..., 4) in ``SIDES`` order: T_inf @ diag(h),
        each entry one exact product, and a cylinder's core has no effect."""
        return np.matmul(tinf, self._coolant_gains, out=out)

    def inputs(self, tinf, n_times: int, name: str = "tinf") -> np.ndarray:
        """The inputs u (n_times, n_inputs) of coolant temperatures in
        ``SIDES`` order: None for the cooling config's own, one (4,) row held
        over n_times samples, or n_times rows (``per_step_rows``)."""
        # a held row is converted once, then held; the config's own (checked
        # by SideCooling) once per model
        u = (self._config_inputs if tinf is None else
             self.cooling_powers(per_step_rows(tinf, len(SIDES), n_times, name)))
        return np.broadcast_to(u, (n_times, self.n_inputs))

    @cached_property
    def _config_inputs(self) -> np.ndarray:
        return self.cooling_powers(self.cooling.T_inf)

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
        return pencil_modes(self.stiff_r, self.gram_r)

    @cached_property
    def modes_z(self) -> Modes:
        """Modes of the axial pencil: Gz^-1 Sz = V diag(lam) V_inv."""
        return pencil_modes(self.stiff_z, self.gram_z)

    @cached_property
    def evaluators(self) -> dict:
        """Field evaluators of this model by grid (n_r, n_z); filled by
        ``simulate.FieldEvaluator.of``."""
        return {}

    @cached_property
    def modal_C(self) -> np.ndarray:
        """The output map C (V_r (x) V_z), (4, order), on modal coordinates:
        C X = (C (V_r (x) V_z)) Y."""
        c = self.C.reshape(-1, self.M, self.N)
        return (self.modes_r.V.T @ c @ self.modes_z.V).reshape(self.C.shape)

    def modal_outputs(self, Y: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Mid-side temperatures C (V_r (x) V_z) Y + Dft u of modal
        coordinates Y, one sample or a stack.

        The product runs in einsum's own loops, whose result for a row does
        not depend on the rows stacked with it: ``simulate.run`` passes its
        trajectory in blocks, whose outputs must not depend on the block
        size.
        """
        return np.einsum("...o,po->...p", Y, self.modal_C) + u @ self.Dft.T


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


def _gauss_tables(spec: CellSpec, basis_r: BasisSet, basis_z: BasisSet, order: int):
    """The 1D tables of the Gauss rule with ``order`` nodes: basis_r's values,
    first (cylinders only) and second derivatives, basis_z's values and
    second derivatives, the radially weighted weights and the plain ones."""
    quad = gauss_quadrature(order)
    x, wq = quad.nodes, quad.weights
    r = basis_table(basis_r, x, (0, 1, 2) if spec.is_cylindrical else (0, 2))
    z = basis_table(basis_z, x, (0, 2))
    return r, z, wq * radial_weight(spec, x), wq


def _lifting_moments(spec: CellSpec, r: BasisTable, z: BasisTable, wr: np.ndarray,
                     wq: np.ndarray, components: ParticularComponents):
    """(B, P) of one model from the tables of its bases: B applies the scaled
    diffusion operator to each input side's particular component, P holds
    the component's plain Galerkin moments, one column per side."""
    alpha, beta = radial_scale(spec), axial_scale(spec)
    # w L[T_p], L the scaled diffusion operator, as (coefficient, radial
    # quadrature weight, dr, dz) terms of the separable components
    terms = [(alpha**2 * spec.k_r, wr, 2, 0), (beta**2 * spec.k_z, wr, 0, 2)]
    if spec.is_cylindrical:
        terms.append((alpha * spec.k_r, wq, 1, 0))
    sides = input_sides(spec.shape)
    B = np.empty((r[0].shape[1] * z[0].shape[1], len(sides)))
    P = np.empty_like(B)
    for col, side in enumerate(sides):
        B[:, col] = sum(coef * _moments(r, z, w_r, wq,
                                        *components.factors(side, r, z, dr, dz))
                        for coef, w_r, dr, dz in terms).ravel()
        P[:, col] = _moments(r, z, wr, wq, *components.factors(side, r, z)).ravel()
    return B, P


def _check_conditioning(gram_r: np.ndarray, gram_z: np.ndarray) -> None:
    """Reject bases whose Gram matrix G ~ Gr (x) Gz is numerically singular:
    cond(G) = cond(Gr) cond(Gz) must not exceed 1e12. The eigenvalues of a
    leading block of an SPD matrix lie between the whole matrix's extreme
    ones (Cauchy interlacing), so a check at a library's top size covers
    every member."""
    cond = np.linalg.cond(gram_r) * np.linalg.cond(gram_z)
    if not np.isfinite(cond) or cond > 1e12:
        raise IllConditionedBasisError(
            f"basis Gram matrices are numerically singular (cond={cond:.3g})")


# bench/tracer.py reads the 6th positional argument as the quadrature order
def _assemble_matrices(spec, cooling, basis_r, basis_z, sizes, order):
    """One Gauss pass with ``order`` nodes over the bases basis_r, basis_z, and
    from it the factors of every basis size (M, N) in ``sizes``, none larger
    than the bases: {(M, N): (factors by ReducedModel field name, particular
    components)}. The Gram, stiffness and F factors of a size are leading
    blocks of the pass's; B and P are contracted from its leading table
    columns with the size's own particular components."""
    r, z, wr, wq = _gauss_tables(spec, basis_r, basis_z, order)
    alpha, beta = radial_scale(spec), axial_scale(spec)
    gram_r = r[0].T @ (wr[:, None] * r[0])
    gram_z = z[0].T @ (wq[:, None] * z[0])
    stiff_r = alpha**2 * spec.k_r * (r[0].T @ (wr[:, None] * r[2]))
    if spec.is_cylindrical:
        # w * gamma == alpha k_r, so this term carries no radius weight
        stiff_r = stiff_r + alpha * spec.k_r * (r[0].T @ (wq[:, None] * r[1]))
    stiff_z = beta**2 * spec.k_z * (z[0].T @ (wq[:, None] * z[2]))
    # Symmetric in exact arithmetic: integrating by parts leaves -<w phi', phi'>
    # plus Robin boundary terms that are symmetric in (i, j).
    stiff_r = 0.5 * (stiff_r + stiff_r.T)
    stiff_z = 0.5 * (stiff_z + stiff_z.T)
    load_r, load_z = r[0].T @ wr, z[0].T @ wq   # F = load_r (x) load_z
    _check_conditioning(gram_r, gram_z)

    members = {}
    for M, N in sizes:
        components = ParticularComponents.solve(
            spec, basis_r.leading(M), basis_z.leading(N),
            gram_r[:M, :M], load_r[:M], gram_z[:N, :N], load_z[:N])
        B, P = _lifting_moments(spec, r.leading(M), z.leading(N), wr, wq, components)
        factors = dict(gram_r=gram_r[:M, :M], stiff_r=stiff_r[:M, :M],
                       gram_z=gram_z[:N, :N], stiff_z=stiff_z[:N, :N],
                       B=B, F=np.kron(load_r[:M], load_z[:N]), P=P)
        members[M, N] = factors, components
    return members


def assemble_library(spec: CellSpec, cooling: CoolingConfig, sizes) -> dict:
    """The reduced models of one cell and cooling setup for every basis size
    (M, N) in ``sizes``, by size, from one exact Gauss pass at the largest
    M and N.

    A basis function phi_k depends only on k and the Robin pairs
    (``chebyshev.build_basis``), so each member's bases are the leading
    functions of the largest ones, and its Gram, stiffness, F and C factors
    are leading blocks of theirs (Shen, SIAM J. Sci. Comput. 16(1), 1995).
    Each member's particular components project 1 onto its own bases, so B,
    P and Dft are contracted per member. A member is the model ``assemble``
    gives for its size up to round-off: its integrals come from a rule exact
    to a higher degree. The conditioning check runs once, at the top size;
    each member is checked for dissipativity.
    """
    sizes = list(dict.fromkeys(sizes))
    if not sizes:
        raise ValueError("a model library needs at least one basis size")
    for M, N in sizes:
        check_count(M, "basis count M", 1)
        check_count(N, "basis count N", 1)
    if spec.shape == CYLINDRICAL and cooling.core.h != 0.0:
        raise ValueError("cylindrical cells require core h = 0")
    top_M, top_N = max(M for M, _ in sizes), max(N for _, N in sizes)

    r_pair, z_pair = robin_pairs(spec, cooling)
    basis_r = build_basis(top_M, *r_pair)
    basis_z = build_basis(top_N, *z_pair)
    members = _assemble_matrices(spec, cooling, basis_r, basis_z, sizes,
                                 default_quad_order(top_M, top_N))

    out_r, out_z = np.array(OUTPUT_LOCATIONS).T
    r_out = basis_table(basis_r, out_r)
    z_out = basis_table(basis_z, out_z)
    library = {}
    for (M, N), (factors, components) in members.items():
        r_m, z_m = r_out.leading(M), z_out.leading(N)
        C = np.einsum("im,in->imn", r_m[0], z_m[0]).reshape(len(out_r), M * N)
        model = ReducedModel(spec=spec, cooling=cooling, M=M, N=N, **factors,
                             C=C, Dft=components.point_values(r_m, z_m),
                             basis_r=components.basis_r, basis_z=components.basis_z,
                             particular=components)
        # Dissipativity: every eigenvalue lam_r[i] + lam_z[j] of the Kronecker
        # sum is <= 0. Zero is legal: an insulated cell conserves its mean.
        lam = np.add.outer(model.modes_r.lam, model.modes_z.lam)
        if lam.max() > 1e-9 * np.abs(lam).max():
            raise AssemblyError(
                f"model is not dissipative: largest eigenvalue {lam.max():.3g} > 0 "
                f"(largest magnitude {np.abs(lam).max():.3g})")
        library[M, N] = model
    return library


def assemble(spec: CellSpec, cooling: CoolingConfig, M: int, N: int) -> ReducedModel:
    """Build the reduced model of order M*N for one cell and cooling setup:
    the library of that one size (``assemble_library``).

    The basis depends on the convection coefficients (it absorbs the
    homogeneous Robin conditions), so a new cooling configuration needs a
    new call: a model is never updated in place.
    """
    return assemble_library(spec, cooling, [(M, N)])[M, N]


def project_initial_state(model: ReducedModel, T_init: float,
                          tinf0=None) -> np.ndarray:
    """Modal coordinates Y(0) of the Galerkin projection of the homogeneous
    part of a uniform initial field, under the coolant temperatures ``tinf0``
    in ``SIDES`` order (None: the config's own), whose inputs u0 it carries.

    The projection solves G X(0) = rho cp < w (T_init - T_p(.) u0), eta > so
    that the reconstruction T_h(0) + T_p u0 approximates the uniform T_init;
    the moments R = T_init F - P u0 come from the model's own assembly pass.
    With G = rho cp (Gr (x) Gz), X(0) = Gr^-1 R Gz^-1 for R as an M x N
    matrix, and with V_inv = Q^T gram per direction (``core.pencil_modes``) its
    modal coordinates V_inv,r X(0) V_inv,z^T are Q_r^T R Q_z: two products,
    no solve.
    """
    if not np.isfinite(T_init):
        raise ValueError("T_init must be finite")
    u0 = model.inputs(tinf0, 1, "tinf0")[0]
    moments = float(T_init) * model.F.reshape(model.M, model.N)
    for col, value in enumerate(u0):
        moments -= value * model.P[:, col].reshape(model.M, model.N)
    return (model.modes_r.V.T @ moments @ model.modes_z.V).ravel()
