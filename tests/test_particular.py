"""Particular-solution decomposition: the Robin rows, the lifting solve,
component evaluation, and the feedthrough map Dft that ``assemble`` builds
from the components.

Oracles: hand-evaluated Robin-row formulas, residuals of the boundary
Galerkin systems recomputed without inverting anything, quadrature
projection of the boundary conditions, Cramer's-rule closed forms, the
Gram matrices and sources of the assembled model, and the feedthrough of the
assembled model at the mid-side nodes of the reconstruction grid.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from celltherm.chebyshev import (
    BasisSet,
    basis_matrix,
    basis_table,
    build_basis,
    gauss_quadrature,
)
from celltherm.core import (
    CYLINDRICAL,
    POUCH,
    SIDES,
    CellSpec,
    CoolingConfig,
    SideCooling,
    input_sides,
    scenario_cooling,
)
from celltherm.exceptions import DegenerateBoundaryError, IllConditionedBasisError
from celltherm import galerkin
from celltherm.galerkin import assemble, default_quad_order
from celltherm.particular import (
    ParticularComponents,
    axial_scale,
    radial_scale,
    radial_weight,
    radius_from_scaled,
    robin_pairs,
    robin_rows,
)
from celltherm.simulate import FieldEvaluator
from strategies import cells_and_coolings

PAPER = CellSpec(shape=CYLINDRICAL, L=0.198, R_out=0.032, R_in=0.004,
                 rho=2118.0, cp=795.0, k_r=0.67, k_z=66.6)


def _a_r(spec):
    """alpha k_r"""
    return radial_scale(spec) * spec.k_r


def _a_z(spec):
    """beta k_z"""
    return axial_scale(spec) * spec.k_z


A_R = _a_r(PAPER)
A_Z = _a_z(PAPER)


def _scalars(spec, cooling):
    """The entries of the two Robin systems by name: s, c are the surface
    and core rows on (r, r^2), t, b the top and bottom rows on (z, z^2)."""
    r_pair, z_pair = robin_pairs(spec, cooling)
    (s1, s2), (c1, c2) = robin_rows(*r_pair)
    (t1, t2), (b1, b2) = robin_rows(*z_pair)
    return SimpleNamespace(s1=s1, s2=s2, c1=c1, c2=c2, t1=t1, t2=t2, b1=b1, b2=b2)


def _solve(spec, basis_r, basis_z, quad):
    """The components solved with the Gram matrices and sources of the
    rule ``quad``."""
    w_r = quad.weights * radial_weight(spec, quad.nodes)
    pr = basis_matrix(basis_r, quad.nodes)
    pz = basis_matrix(basis_z, quad.nodes)
    return ParticularComponents.solve(
        spec, basis_r, basis_z, pr.T @ (w_r[:, None] * pr), pr.T @ w_r,
        pz.T @ (quad.weights[:, None] * pz), pz.T @ quad.weights)


def _build(spec, cooling, M, N, quad_order=40):
    r_pair, z_pair = robin_pairs(spec, cooling)
    basis_r = build_basis(M, *r_pair)
    basis_z = build_basis(N, *z_pair)
    quad = gauss_quadrature(quad_order)
    return _solve(spec, basis_r, basis_z, quad), _scalars(spec, cooling), quad


def _d_vectors(comps):
    """The per-unit-input coefficient vectors of r, r^2 (vertical sides) and
    z, z^2 (horizontal sides): each is a coefficient of the side's pair times
    the Galerkin projection of 1, e_z or e_r."""
    d = {}
    for side in SIDES:
        e = comps.e_z if side in ("surface", "core") else comps.e_r
        pair = getattr(comps, side)
        d["d1_" + side[0]], d["d2_" + side[0]] = pair[0] * e, pair[1] * e
    return d


def _total(comps, u, r_nodes, z_nodes, dr=0, dz=0):
    """Sum of the per-side component grids weighted by the input vector u
    (model input order)."""
    sides = input_sides(comps.spec.shape)
    return sum(value * comps.component_grid(side, r_nodes, z_nodes, dr, dz)
               for value, side in zip(u, sides))


class TestGeometryHelpers:
    def test_radius_endpoints(self):
        assert radius_from_scaled(PAPER, 1.0) == pytest.approx(0.032)
        assert radius_from_scaled(PAPER, -1.0) == pytest.approx(0.004)

    def test_scales(self):
        assert radial_scale(PAPER) == pytest.approx(2.0 / 0.028)
        assert axial_scale(PAPER) == pytest.approx(2.0 / 0.198)

    def test_pouch_weight_is_one(self):
        pouch = CellSpec(shape=POUCH, L=0.2, D=0.1, rho=1.0, cp=1.0, k_r=1.0, k_z=1.0)
        assert np.all(radial_weight(pouch, np.linspace(-1, 1, 5)) == 1.0)


class TestBoundaryScalars:
    """The entries of the two boundary systems, the Robin rows."""

    def test_core_side_with_zero_h(self):
        sc = _scalars(PAPER, scenario_cooling("SC"))
        assert sc.c1 == pytest.approx(-A_R)
        assert sc.c2 == pytest.approx(2 * A_R)

    def test_surface_side_hand_evaluation(self):
        sc = _scalars(PAPER, scenario_cooling("SC"))
        # h_s + alpha k_r and h_s + 2 alpha k_r with alpha = 2/0.028
        assert sc.s1 == pytest.approx(400.0 + 2.0 / 0.028 * 0.67, rel=1e-14)
        assert sc.s2 == pytest.approx(400.0 + 2.0 * 2.0 / 0.028 * 0.67, rel=1e-14)

    def test_equal_tab_cooling_symmetry(self):
        for h in (12.5, 77.0, 400.0):
            cooling = CoolingConfig(SideCooling(100.0, 15.0), SideCooling(0.0, 15.0),
                                    SideCooling(h, 15.0), SideCooling(h, 15.0))
            sc = _scalars(PAPER, cooling)
            assert sc.t1 == pytest.approx(-sc.b1, rel=1e-14)
            assert sc.t2 == pytest.approx(sc.b2, rel=1e-14)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4))
    def test_rows_are_the_robin_conditions_on_x_and_x2(self, pq):
        """Row 0 is p T(1) + q T'(1) of the plus pair, row 1 p T(-1) + q T'(-1)
        of the minus pair, for T = x (column 0) and T = x^2 (column 1)."""
        p_m, q_m, p_p, q_p = pq
        rows = robin_rows((p_m, q_m), (p_p, q_p))
        expected = [[p_p * 1.0 + q_p * 1.0, p_p * 1.0 + q_p * 2.0],
                     [p_m * -1.0 + q_m * 1.0, p_m * 1.0 + q_m * -2.0]]
        assert np.array_equal(rows, expected)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(cells_and_coolings())
    @example((PAPER, scenario_cooling("SC")))
    @example((PAPER, scenario_cooling("bTC")))
    @example((PAPER, scenario_cooling("bTSC")))
    @example((PAPER, scenario_cooling("btTC")))
    @example((PAPER, scenario_cooling("aTSC")))
    def test_determinants_positive_for_valid_cooling(self, cell):
        """det = (h_s + a)(h_c + 2a) + (h_s + 2a)(h_c + a) > 0 for a > 0 and
        h >= 0, so no physical cell reaches the degeneracy check; the side
        pairs of the solve are the columns of the inverse."""
        spec, cooling = cell
        r_pair, z_pair = robin_pairs(spec, cooling)
        comps, _, _ = _build(spec, cooling, 1, 1)
        for mat, inv, (h_plus, h_minus), a in (
                (robin_rows(*r_pair), np.column_stack([comps.surface, comps.core]),
                 (cooling.surface.h, cooling.core.h), _a_r(spec)),
                (robin_rows(*z_pair), np.column_stack([comps.top, comps.bottom]),
                 (cooling.top.h, cooling.bottom.h), _a_z(spec))):
            det = np.linalg.det(mat)
            assert det > 0
            closed = (h_plus + a) * (h_minus + 2 * a) + (h_plus + 2 * a) * (h_minus + a)
            assert det == pytest.approx(closed, rel=1e-12)
            assert np.linalg.det(inv) == pytest.approx(1.0 / closed, rel=1e-12)

    def test_degenerate_system_rejected(self):
        """Robin pairs (3, 2) at -1 and (1, 0) at +1 give the rows (1, 1)
        and (-1, -1): the basis exists, its lifting system is singular."""
        robin = ((3.0, 2.0), (1.0, 0.0))
        assert np.linalg.det(robin_rows(*robin)) == 0.0
        basis = build_basis(2, *robin)
        with pytest.raises(DegenerateBoundaryError):
            _solve(PAPER, basis, basis, gauss_quadrature(16))


class TestSideCoefficients:
    def test_zero_inputs_give_zero_field(self):
        comps, _, _ = _build(PAPER, scenario_cooling("SC"), 3, 3)
        grid = _total(comps, np.zeros(3), np.linspace(-1, 1, 5),
                      np.linspace(-1, 1, 5))
        assert np.all(grid == 0.0)

    def test_core_component_exists_but_unexcited(self):
        comps, _, _ = _build(PAPER, scenario_cooling("SC"), 2, 2)
        core = comps.component_grid("core", [0.5], [0.0])
        assert np.isfinite(core).all()
        # the cylindrical input vector carries no core entry
        assert "core" not in input_sides(CYLINDRICAL)

    def test_boundary_galerkin_residuals(self):
        """Reconstructed D vectors satisfy all four boundary systems,
        checked by multiplying back without inverting."""
        cooling = scenario_cooling("SC")
        comps, scalars, quad = _build(PAPER, cooling, 2, 2)
        cf = _d_vectors(comps)
        u = {"surface": 6000.0, "core": 0.0, "top": 450.0, "bottom": 450.0}
        d1 = cf["d1_s"] * u["surface"] + cf["d1_c"] * u["core"]
        d2 = cf["d2_s"] * u["surface"] + cf["d2_c"] * u["core"]
        d3 = cf["d1_t"] * u["top"] + cf["d1_b"] * u["bottom"]
        d4 = cf["d2_t"] * u["top"] + cf["d2_b"] * u["bottom"]

        pz = basis_matrix(comps.basis_z, quad.nodes)
        pr = basis_matrix(comps.basis_r, quad.nodes)
        w_z = quad.weights
        w_r = quad.weights * radial_weight(PAPER, quad.nodes)
        phi_v = pz.T @ (w_z[:, None] * pz)
        s_v = pz.T @ w_z
        phi_h = pr.T @ (w_r[:, None] * pr)
        s_h = pr.T @ w_r

        checks = [
            (phi_v @ (scalars.s1 * d1 + scalars.s2 * d2), u["surface"] * s_v),
            (phi_v @ (scalars.c1 * d1 + scalars.c2 * d2), u["core"] * s_v),
            (phi_h @ (scalars.t1 * d3 + scalars.t2 * d4), u["top"] * s_h),
            (phi_h @ (scalars.b1 * d3 + scalars.b2 * d4), u["bottom"] * s_h),
        ]
        scale = max(np.abs(np.concatenate([rhs for _, rhs in checks])).max(), 1.0)
        for lhs, rhs in checks:
            assert np.abs(lhs - rhs).max() <= 1e-9 * scale

    def test_matches_cramers_rule_closed_forms(self):
        cooling = scenario_cooling("btTC")
        comps, sc, quad = _build(PAPER, cooling, 3, 3)
        pz = basis_matrix(comps.basis_z, quad.nodes)
        pr = basis_matrix(comps.basis_r, quad.nodes)
        e_v = np.linalg.solve(pz.T @ (quad.weights[:, None] * pz), pz.T @ quad.weights)
        w_r = quad.weights * radial_weight(PAPER, quad.nodes)
        e_h = np.linalg.solve(pr.T @ (w_r[:, None] * pr), pr.T @ w_r)
        det_v = sc.s1 * sc.c2 - sc.s2 * sc.c1
        det_h = sc.t1 * sc.b2 - sc.t2 * sc.b1
        cf = _d_vectors(comps)
        assert np.allclose(cf["d1_s"], sc.c2 / det_v * e_v, rtol=1e-12)
        assert np.allclose(cf["d2_s"], -sc.c1 / det_v * e_v, rtol=1e-12)
        assert np.allclose(cf["d1_c"], -sc.s2 / det_v * e_v, rtol=1e-12)
        assert np.allclose(cf["d2_c"], sc.s1 / det_v * e_v, rtol=1e-12)
        assert np.allclose(cf["d1_t"], sc.b2 / det_h * e_h, rtol=1e-12)
        assert np.allclose(cf["d2_t"], -sc.b1 / det_h * e_h, rtol=1e-12)
        assert np.allclose(cf["d1_b"], -sc.t2 / det_h * e_h, rtol=1e-12)
        assert np.allclose(cf["d2_b"], sc.t1 / det_h * e_h, rtol=1e-12)

    def test_singular_gram_rejected(self):
        cooling = scenario_cooling("SC")
        r_pair, z_pair = robin_pairs(PAPER, cooling)
        good = build_basis(3, *z_pair)
        dup = BasisSet(3, good.robin_minus, good.robin_plus,
                       np.vstack([good.combo[0], good.combo[0], good.combo[2]]),
                       np.vstack([good.coeffs[0], good.coeffs[0], good.coeffs[2]]))
        # the assembly pass checks the Gram matrices the lifting solves with
        with pytest.raises(IllConditionedBasisError):
            galerkin._assemble_matrices(PAPER, cooling, build_basis(3, *r_pair), dup,
                                        [(3, 3)], 16)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(cells_and_coolings(), st.integers(1, 30), st.integers(1, 30))
    @example((PAPER, scenario_cooling("SC")), 1, 1)
    @example((PAPER, scenario_cooling("aTSC")), 10, 10)
    @example((PAPER, scenario_cooling("btTC")), 30, 30)
    def test_projections_of_one_solve_the_assembled_gram_systems(self, cell, M, N):
        """e_r and e_z are bit for bit the solves with the model's own Gram
        factors against the 1D sources of F = s_r (x) s_z, so the assembly
        pass's conditioning check of those Gram factors covers the lifting."""
        spec, cooling = cell
        model = assemble(spec, cooling, M, N)
        quad = gauss_quadrature(default_quad_order(M, N))
        r = basis_table(model.basis_r, quad.nodes)[0]
        z = basis_table(model.basis_z, quad.nodes)[0]
        s_r = r.T @ (quad.weights * radial_weight(spec, quad.nodes))
        s_z = z.T @ quad.weights
        assert np.array_equal(model.F, np.kron(s_r, s_z))
        assert np.array_equal(model.particular.e_r, np.linalg.solve(model.gram_r, s_r))
        assert np.array_equal(model.particular.e_z, np.linalg.solve(model.gram_z, s_z))


class TestComponentEvaluation:
    def test_vertical_components_vanish_on_axis_line(self):
        comps, _, _ = _build(PAPER, scenario_cooling("aTSC"), 3, 3)
        z = np.linspace(-1, 1, 9)
        assert np.allclose(comps.component_grid("surface", [0.0], z), 0.0, atol=1e-15)
        assert np.allclose(comps.component_grid("core", [0.0], z), 0.0, atol=1e-15)

    def test_horizontal_components_vanish_on_midplane(self):
        comps, _, _ = _build(PAPER, scenario_cooling("aTSC"), 3, 3)
        r = np.linspace(-1, 1, 9)
        assert np.allclose(comps.component_grid("top", r, [0.0]), 0.0, atol=1e-15)
        assert np.allclose(comps.component_grid("bottom", r, [0.0]), 0.0, atol=1e-15)

    def test_surface_robin_condition_projected(self):
        """Under u_surface = 1, h_s T_p + alpha k_r dT_p/dr - 1 at r = 1 has
        Galerkin projections onto the z-basis below 1e-9."""
        cooling = scenario_cooling("SC")
        comps, _, quad = _build(PAPER, cooling, 3, 3)
        u = np.array([1.0, 0.0, 0.0])
        z = quad.nodes
        vals = _total(comps, u, [1.0], z)[0]
        dvals = _total(comps, u, [1.0], z, dr=1)[0]
        residual = cooling.surface.h * vals + A_R * dvals - 1.0
        pz = basis_matrix(comps.basis_z, z)
        proj = pz.T @ (quad.weights * residual)
        assert np.abs(proj).max() <= 1e-9

    def test_all_four_conditions_projected_any_inputs(self):
        rng = np.random.default_rng(3)
        cooling = scenario_cooling("btTC")
        for count in (1, 2, 3, 4, 5):
            comps, _, quad = _build(PAPER, cooling, count, count)
            u = rng.uniform(-2000.0, 8000.0, size=3)
            x = quad.nodes
            pr = basis_matrix(comps.basis_r, x)
            pz = basis_matrix(comps.basis_z, x)
            w_r = quad.weights * radial_weight(PAPER, x)
            scale = max(np.abs(u).max(), 1.0)

            vals = _total(comps, u, [1.0], x)[0]
            dvals = _total(comps, u, [1.0], x, dr=1)[0]
            res = cooling.surface.h * vals + A_R * dvals - u[0]
            assert np.abs(pz.T @ (quad.weights * res)).max() <= 1e-9 * scale

            vals = _total(comps, u, [-1.0], x)[0]
            dvals = _total(comps, u, [-1.0], x, dr=1)[0]
            res = cooling.core.h * vals - A_R * dvals - 0.0
            assert np.abs(pz.T @ (quad.weights * res)).max() <= 1e-9 * scale

            vals = _total(comps, u, x, [1.0])[:, 0]
            dvals = _total(comps, u, x, [1.0], dz=1)[:, 0]
            res = cooling.top.h * vals + A_Z * dvals - u[1]
            assert np.abs(pr.T @ (w_r * res)).max() <= 1e-9 * scale

            vals = _total(comps, u, x, [-1.0])[:, 0]
            dvals = _total(comps, u, x, [-1.0], dz=1)[:, 0]
            res = cooling.bottom.h * vals - A_Z * dvals - u[2]
            assert np.abs(pr.T @ (w_r * res)).max() <= 1e-9 * scale

    def test_superposition_exact(self):
        comps, _, _ = _build(PAPER, scenario_cooling("aTSC"), 3, 3)
        r = np.linspace(-1, 1, 7)
        z = np.linspace(-1, 1, 7)
        u1 = np.array([100.0, -40.0, 7.0])
        u2 = np.array([-3.0, 55.0, 20.0])
        combined = _total(comps, u1 + u2, r, z)
        split = _total(comps, u1, r, z) + _total(comps, u2, r, z)
        assert np.allclose(combined, split, rtol=0, atol=1e-12 * np.abs(split).max())

    def test_mirror_symmetry_top_bottom(self):
        """Swapping top/bottom cooling and reflecting z leaves the total
        lifting field invariant."""
        base = CoolingConfig(SideCooling(120.0, 15.0), SideCooling(0.0, 15.0),
                             SideCooling(300.0, 18.0), SideCooling(45.0, 9.0))
        swapped = CoolingConfig(base.surface, base.core, base.bottom, base.top)
        comps_a, _, _ = _build(PAPER, base, 4, 4)
        comps_b, _, _ = _build(PAPER, swapped, 4, 4)
        r = np.linspace(-1, 1, 9)
        z = np.linspace(-1, 1, 9)
        u_a = np.array([120.0 * 15.0, 300.0 * 18.0, 45.0 * 9.0])
        u_b = np.array([120.0 * 15.0, 45.0 * 9.0, 300.0 * 18.0])
        field_a = _total(comps_a, u_a, r, z)
        field_b = _total(comps_b, u_b, r, z[::-1])
        assert np.allclose(field_a, field_b, atol=1e-11 * np.abs(field_a).max())


class TestRandomCells:
    """The rank-one lifting of random physical cylinder and pouch cells."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(cells_and_coolings(), st.integers(1, 6), st.integers(1, 6),
           st.integers(2, 40), st.integers(2, 40))
    def test_every_side_is_one_product(self, cell, M, N, n_r, n_z):
        comps, _, _ = _build(*cell, M, N)
        r = basis_table(comps.basis_r, np.linspace(-1.0, 1.0, n_r), (0, 1, 2))
        z = basis_table(comps.basis_z, np.linspace(-1.0, 1.0, n_z), (0, 1, 2))
        for side in SIDES:
            for dr in (0, 1, 2):
                for dz in (0, 1, 2):
                    fr, fz = comps.factors(side, r, z, dr, dz)
                    assert fr.shape == (1, n_r) and fz.shape == (1, n_z)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(cells_and_coolings(), st.integers(1, 6), st.integers(1, 6),
           st.integers(0, 2**32 - 1))
    def test_four_conditions_projected_any_inputs(self, cell, M, N, seed):
        """Under random inputs the lifting meets each side's Robin condition
        in the Galerkin sense, projected onto the other direction's basis."""
        spec, cooling = cell
        comps, _, quad = _build(spec, cooling, M, N)
        sides = input_sides(spec.shape)
        u = np.random.default_rng(seed).uniform(-2000.0, 8000.0, len(sides))
        given_u = dict(zip(sides, u))
        x = quad.nodes
        pr = basis_matrix(comps.basis_r, x)
        pz = basis_matrix(comps.basis_z, x)
        w_z = quad.weights
        w_r = quad.weights * radial_weight(spec, x)
        a_r, a_z = _a_r(spec), _a_z(spec)
        scale = max(np.abs(u).max(), 1.0)
        for side, sign, at in (("surface", 1, 1.0), ("core", -1, -1.0)):
            vals = _total(comps, u, [at], x)[0]
            dvals = _total(comps, u, [at], x, dr=1)[0]
            res = cooling.side(side).h * vals + sign * a_r * dvals - given_u.get(side, 0.0)
            assert np.abs(pz.T @ (w_z * res)).max() <= 1e-9 * scale
        for side, sign, at in (("top", 1, 1.0), ("bottom", -1, -1.0)):
            vals = _total(comps, u, x, [at])[:, 0]
            dvals = _total(comps, u, x, [at], dz=1)[:, 0]
            res = cooling.side(side).h * vals + sign * a_z * dvals - given_u[side]
            assert np.abs(pr.T @ (w_r * res)).max() <= 1e-9 * scale

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(cells_and_coolings(), st.integers(1, 5), st.integers(1, 5),
           st.integers(1, 20), st.integers(1, 20), st.integers(0, 2**32 - 1))
    def test_zero_state_field_is_feedthrough_at_mid_sides(self, cell, M, N,
                                                          half_r, half_z, seed):
        """On an odd grid the reconstructed field of a zero state, read at
        the four mid-side nodes, is Dft u."""
        spec, cooling = cell
        model = assemble(spec, cooling, M, N)
        n_r, n_z = 2 * half_r + 1, 2 * half_z + 1
        u = np.random.default_rng(seed).uniform(-2000.0, 8000.0, model.n_inputs)
        values = FieldEvaluator(model, n_r, n_z).field(np.zeros(model.order), u).values
        mid_sides = values[[-1, 0, half_r, half_r], [half_z, half_z, -1, 0]]
        expected = model.Dft @ u
        scale = np.abs(model.Dft).max() * np.abs(u).max()
        assert np.abs(mid_sides - expected).max() <= 1e-12 * scale


class TestFeedthrough:
    """``assemble(...).Dft``: entry (i, j) is side j's component at output
    location i, so that Y = C X + Dft u."""

    def test_cylindrical_shape_drops_core_column(self):
        dft = assemble(PAPER, scenario_cooling("SC"), 2, 2).Dft
        assert dft.shape == (4, 3)

    def test_pouch_keeps_four_columns(self):
        pouch = CellSpec(shape=POUCH, L=0.2, D=0.1, rho=2118.0, cp=795.0,
                         k_r=0.9, k_z=30.0)
        assert assemble(pouch, scenario_cooling("aTSC", POUCH), 2, 2).Dft.shape == (4, 4)

    def test_zero_inputs_leave_only_cx(self):
        model = assemble(PAPER, scenario_cooling("SC"), 2, 2)
        assert np.all(model.Dft @ np.zeros(3) == 0.0)
        y = np.linspace(-1.0, 2.0, model.order)
        assert np.array_equal(model.modal_outputs(y, np.zeros(3)),
                              np.einsum("o,po->p", y, model.modal_C))

    def test_top_output_dominated_by_top_input(self):
        dft = assemble(PAPER, scenario_cooling("btTC"), 3, 3).Dft
        top_row = np.abs(dft[2])   # output at (0, 1); columns [u_s, u_t, u_b]
        assert np.argmax(top_row) == 1

    def test_entries_match_component_eval(self):
        model = assemble(PAPER, scenario_cooling("aTSC"), 3, 3)
        comps, dft = model.particular, model.Dft
        assert dft[0, 0] == pytest.approx(comps.component_grid("surface", [1.0], [0.0])[0, 0])
        assert dft[3, 2] == pytest.approx(comps.component_grid("bottom", [0.0], [-1.0])[0, 0])
