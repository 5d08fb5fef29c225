"""Particular-solution decomposition: boundary scalars, side coefficients,
component evaluation, and the feedthrough map Dft that ``assemble`` builds
from the components.

Oracles: hand-evaluated scalar formulas, residuals of the boundary Galerkin
systems recomputed without inverting anything, quadrature projection of the
boundary conditions, and Cramer's-rule closed forms.
"""

import numpy as np
import pytest

from celltherm.chebyshev import BasisSet, basis_matrix, build_basis, gauss_quadrature
from celltherm.core import (
    CYLINDRICAL,
    POUCH,
    CellSpec,
    CoolingConfig,
    SideCooling,
    input_sides,
    scenario_cooling,
)
from celltherm.exceptions import DegenerateBoundaryError, IllConditionedBasisError
from celltherm.galerkin import assemble
from celltherm.particular import (
    BoundaryScalars,
    ParticularComponents,
    axial_scale,
    boundary_scalars,
    radial_scale,
    radial_weight,
    radius_from_scaled,
    robin_pairs,
    solve_side_coefficients,
)

PAPER = CellSpec(shape=CYLINDRICAL, L=0.198, R_out=0.032, R_in=0.004,
                 rho=2118.0, cp=795.0, k_r=0.67, k_z=66.6)
A_R = radial_scale(PAPER) * PAPER.k_r   # alpha k_r
A_Z = axial_scale(PAPER) * PAPER.k_z    # beta k_z


def _build(spec, cooling, M, N, quad_order=40):
    r_pair, z_pair = robin_pairs(spec, cooling)
    basis_r = build_basis(M, *r_pair)
    basis_z = build_basis(N, *z_pair)
    scalars = boundary_scalars(spec, cooling)
    quad = gauss_quadrature(quad_order)
    coeffs = solve_side_coefficients(basis_r, basis_z, scalars, quad, spec)
    return ParticularComponents(spec, basis_r, basis_z, coeffs), scalars, quad


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
    def test_core_side_with_zero_h(self):
        sc = boundary_scalars(PAPER, scenario_cooling("SC"))
        assert sc.c1 == pytest.approx(-A_R)
        assert sc.c2 == pytest.approx(2 * A_R)

    def test_surface_side_hand_evaluation(self):
        sc = boundary_scalars(PAPER, scenario_cooling("SC"))
        # h_s + alpha k_r and h_s + 2 alpha k_r with alpha = 2/0.028
        assert sc.s1 == pytest.approx(400.0 + 2.0 / 0.028 * 0.67, rel=1e-14)
        assert sc.s2 == pytest.approx(400.0 + 2.0 * 2.0 / 0.028 * 0.67, rel=1e-14)

    def test_equal_tab_cooling_symmetry(self):
        for h in (12.5, 77.0, 400.0):
            cooling = CoolingConfig(SideCooling(100.0, 15.0), SideCooling(0.0, 15.0),
                                    SideCooling(h, 15.0), SideCooling(h, 15.0))
            sc = boundary_scalars(PAPER, cooling)
            assert sc.t1 == pytest.approx(-sc.b1, rel=1e-14)
            assert sc.t2 == pytest.approx(sc.b2, rel=1e-14)

    def test_determinants_positive_for_valid_cooling(self):
        for name in ("SC", "bTC", "bTSC", "btTC", "aTSC"):
            sc = boundary_scalars(PAPER, scenario_cooling(name))
            assert np.linalg.det(sc.vertical) > 0
            assert np.linalg.det(sc.horizontal) > 0

    def test_degenerate_system_rejected(self):
        bad = BoundaryScalars(s1=1.0, s2=2.0, c1=2.0, c2=4.0,
                              t1=1.0, t2=1.0, b1=-1.0, b2=1.0)
        cooling = scenario_cooling("SC")
        r_pair, z_pair = robin_pairs(PAPER, cooling)
        basis_r = build_basis(2, *r_pair)
        basis_z = build_basis(2, *z_pair)
        with pytest.raises(DegenerateBoundaryError):
            solve_side_coefficients(basis_r, basis_z, bad,
                                    gauss_quadrature(16), PAPER)


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
        cf = comps.coeffs
        u = {"surface": 6000.0, "core": 0.0, "top": 450.0, "bottom": 450.0}
        d1 = cf.d1_s * u["surface"] + cf.d1_c * u["core"]
        d2 = cf.d2_s * u["surface"] + cf.d2_c * u["core"]
        d3 = cf.d1_t * u["top"] + cf.d1_b * u["bottom"]
        d4 = cf.d2_t * u["top"] + cf.d2_b * u["bottom"]

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
        assert np.allclose(comps.coeffs.d1_s, sc.c2 / det_v * e_v, rtol=1e-12)
        assert np.allclose(comps.coeffs.d2_s, -sc.c1 / det_v * e_v, rtol=1e-12)
        assert np.allclose(comps.coeffs.d1_c, -sc.s2 / det_v * e_v, rtol=1e-12)
        assert np.allclose(comps.coeffs.d2_c, sc.s1 / det_v * e_v, rtol=1e-12)
        assert np.allclose(comps.coeffs.d1_t, sc.b2 / det_h * e_h, rtol=1e-12)
        assert np.allclose(comps.coeffs.d2_t, -sc.b1 / det_h * e_h, rtol=1e-12)
        assert np.allclose(comps.coeffs.d1_b, -sc.t2 / det_h * e_h, rtol=1e-12)
        assert np.allclose(comps.coeffs.d2_b, sc.t1 / det_h * e_h, rtol=1e-12)

    def test_singular_gram_rejected(self):
        cooling = scenario_cooling("SC")
        r_pair, z_pair = robin_pairs(PAPER, cooling)
        good = build_basis(3, *z_pair)
        dup = BasisSet(3, good.robin_minus, good.robin_plus,
                       np.vstack([good.combo[0], good.combo[0], good.combo[2]]),
                       np.vstack([good.coeffs[0], good.coeffs[0], good.coeffs[2]]))
        scalars = boundary_scalars(PAPER, cooling)
        with pytest.raises(IllConditionedBasisError):
            solve_side_coefficients(build_basis(3, *r_pair), dup, scalars,
                                    gauss_quadrature(16), PAPER)


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
        x = np.linspace(-1.0, 2.0, model.order)
        assert np.array_equal(model.outputs(x, np.zeros(3)),
                              np.einsum("o,po->p", x, model.C))

    def test_top_output_dominated_by_top_input(self):
        dft = assemble(PAPER, scenario_cooling("btTC"), 3, 3).Dft
        top_row = np.abs(dft[2])   # output at (0, 1); columns [u_s, u_t, u_b]
        assert np.argmax(top_row) == 1

    def test_entries_match_component_eval(self):
        model = assemble(PAPER, scenario_cooling("aTSC"), 3, 3)
        comps, dft = model.particular, model.Dft
        assert dft[0, 0] == pytest.approx(comps.component_grid("surface", [1.0], [0.0])[0, 0])
        assert dft[3, 2] == pytest.approx(comps.component_grid("bottom", [0.0], [-1.0])[0, 0])
