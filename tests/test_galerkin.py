"""Reduced-model assembly: mass/stiffness structure, inputs, outputs,
initial-state projection, and assembly under a new cooling.

Oracles: scipy adaptive quadrature for individual matrix entries, dense
generalized eigenvalues for dissipativity, reconstruction error for the initial
projection, and a thin-annulus slab limit for the cylindrical/pouch
agreement.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from celltherm.chebyshev import basis_matrix, build_basis, gauss_quadrature
from celltherm.core import (
    CYLINDRICAL,
    POUCH,
    CellSpec,
    CoolingConfig,
    SideCooling,
    scenario_cooling,
)
from celltherm import galerkin
from celltherm.exceptions import AssemblyError, IllConditionedBasisError
from celltherm.galerkin import (
    OUTPUT_LOCATIONS,
    assemble,
    default_quad_order,
    project_initial_state,
)
from celltherm.particular import (
    axial_scale,
    radial_scale,
    radial_weight,
    radius_from_scaled,
    robin_pairs,
)
from celltherm.simulate import FieldEvaluator, discretize, run
from strategies import cells_and_coolings, cooling_powers, to_modal

PAPER = CellSpec(shape=CYLINDRICAL, L=0.198, R_out=0.032, R_in=0.004,
                 rho=2118.0, cp=795.0, k_r=0.67, k_z=66.6)
POUCH_CELL = CellSpec(shape=POUCH, L=0.2, D=0.1, rho=2118.0, cp=795.0,
                      k_r=0.9, k_z=30.0)


def scalar_phi(bs, k):
    """phi_k as a scalar function, for scipy's adaptive quadrature."""
    return lambda x: float(basis_matrix(bs, x)[0, k])


class TestAssembleStructure:
    def test_pouch_mass_entry_vs_adaptive_oracle(self):
        cooling = scenario_cooling("SC", POUCH)
        model = assemble(POUCH_CELL, cooling, 1, 1)
        fr = scalar_phi(model.basis_r, 0)
        fz = scalar_phi(model.basis_z, 0)
        ref_r, _ = quad(lambda x: fr(x) ** 2, -1, 1, epsabs=1e-13)
        ref_z, _ = quad(lambda z: fz(z) ** 2, -1, 1, epsabs=1e-13)
        expected = POUCH_CELL.rho * POUCH_CELL.cp * ref_r * ref_z
        assert model.G[0, 0] == pytest.approx(expected, rel=1e-10)

    def test_cylindrical_mass_entry_vs_adaptive_oracle(self):
        cooling = scenario_cooling("SC")
        model = assemble(PAPER, cooling, 2, 2)
        fr = scalar_phi(model.basis_r, 1)
        fz = scalar_phi(model.basis_z, 0)
        ref, _ = dblquad(
            lambda z, x: radius_from_scaled(PAPER, x) * fr(x) ** 2 * fz(z) ** 2,
            -1, 1, -1, 1, epsabs=1e-12)
        # state index (m=1, n=0) -> row 1*N + 0 = 2
        assert model.G[2, 2] == pytest.approx(PAPER.rho * PAPER.cp * ref, rel=1e-9)

    def test_state_ordering_row_major(self):
        model = assemble(PAPER, scenario_cooling("SC"), 2, 3)
        # C row for the surface midpoint: phi_m(1) phi_n(0) at index m*N + n
        phi_r = basis_matrix(model.basis_r, 1.0)[0]
        phi_z = basis_matrix(model.basis_z, 0.0)[0]
        for m in range(2):
            for n in range(3):
                expected = phi_r[m] * phi_z[n]
                assert model.C[0, m * 3 + n] == pytest.approx(expected, abs=1e-13)

    def test_mass_matrix_symmetric(self):
        model = assemble(PAPER, scenario_cooling("aTSC"), 3, 3)
        scale = np.abs(model.G).max()
        assert np.abs(model.G - model.G.T).max() <= 1e-12 * scale

    def test_output_row_vanishes_for_dirichlet_basis(self):
        bs = build_basis(4, (1.0, 0.0), (1.0, 0.0))
        vals = basis_matrix(bs, 1.0)[0]
        assert np.abs(vals).max() < 1e-12   # a C row built from these is zero

    def test_dissipativity_generalized_eigenvalues(self):
        for name in ("SC", "btTC", "aTSC"):
            cooling = scenario_cooling(name)
            for count in (1, 2, 3):
                model = assemble(PAPER, cooling, count, count)
                eig = np.linalg.eigvals(np.linalg.solve(model.G, model.A))
                assert eig.real.max() <= 1e-9

    def test_non_dissipative_model_rejected(self, monkeypatch):
        real = galerkin._assemble_matrices

        def sign_flipped(*args):
            members = real(*args)
            for factors, _ in members.values():
                factors["stiff_r"] = -factors["stiff_r"]
            return members

        monkeypatch.setattr(galerkin, "_assemble_matrices", sign_flipped)
        with pytest.raises(AssemblyError, match="not dissipative"):
            assemble(PAPER, scenario_cooling("SC"), 3, 3)

    def test_energy_decay_on_random_states(self):
        rng = np.random.default_rng(11)
        model = assemble(PAPER, scenario_cooling("SC"), 3, 3)
        for _ in range(5):
            x = rng.standard_normal(model.order)
            res = run(model, to_modal(model, x), np.zeros(4), 0.0, dt=5.0,
                      horizon=100.0, grid_shape=(5, 5), metrics_stride=1)
            states = to_modal(model, res.states, inverse=True)
            energy = np.einsum("ki,ij,kj->k", states, model.G, states)
            assert np.all(energy[1:] <= energy[:-1] * (1 + 1e-12))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(cells_and_coolings(), st.integers(1, 12), st.integers(1, 12),
           st.floats(0.05, 50.0))
    @example((PAPER, CoolingConfig(*[SideCooling(0.0, 15.0)] * 4)), 1, 1, 1.0)
    def test_random_cells_dissipative(self, cell, M, N, dt):
        """Every eigenvalue of the Kronecker sum is <= 0 to 1e-9 of the
        largest magnitude (an insulated O=1 cell's spectrum is all zero), so
        every modal gain of the exact step lies in [0, 1]."""
        model = assemble(*cell, M, N)
        lam = np.add.outer(model.modes_r.lam, model.modes_z.lam)
        assert lam.max() <= 1e-9 * np.abs(lam).max()
        gain = discretize(model, dt).gain
        assert np.all((gain >= 0.0) & (gain <= 1.0))

    def test_deterministic_assembly(self):
        a = assemble(PAPER, scenario_cooling("bTSC"), 3, 3)
        b = assemble(PAPER, scenario_cooling("bTSC"), 3, 3)
        for name in ("G", "A", "B", "F", "C", "Dft"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_input_counts(self):
        assert assemble(PAPER, scenario_cooling("SC"), 2, 2).n_inputs == 3
        assert assemble(POUCH_CELL, scenario_cooling("SC", POUCH), 2, 2).n_inputs == 4

    def test_cylindrical_core_h_must_be_zero(self):
        bad = CoolingConfig(SideCooling(400.0, 15.0), SideCooling(10.0, 15.0),
                            SideCooling(30.0, 15.0), SideCooling(30.0, 15.0))
        with pytest.raises(ValueError):
            assemble(PAPER, bad, 2, 2)

    def test_rectangular_basis_counts(self):
        model = assemble(PAPER, scenario_cooling("SC"), 2, 4)
        assert model.order == 8
        assert model.G.shape == (8, 8)


class TestBConsistency:
    def test_b_columns_match_independent_quadrature(self):
        """Each B column is the projection of the diffusion operator applied
        to that side's lifting component; recomputed here with an
        independent high-order tensor rule built from numpy directly."""
        cooling = scenario_cooling("btTC")
        model = assemble(PAPER, cooling, 2, 2)
        alpha = radial_scale(PAPER)
        beta = axial_scale(PAPER)
        nodes, weights = np.polynomial.legendre.leggauss(60)
        comp = model.particular
        for col, side in enumerate(model.sides):
            d2r = comp.component_grid(side, nodes, nodes, dr=2)
            d1r = comp.component_grid(side, nodes, nodes, dr=1)
            d2z = comp.component_grid(side, nodes, nodes, dz=2)
            w = radius_from_scaled(PAPER, nodes)[:, None]
            lw = (alpha**2 * PAPER.k_r * w * d2r
                  + alpha * PAPER.k_r * d1r
                  + beta**2 * PAPER.k_z * w * d2z)
            for m in range(2):
                for n in range(2):
                    eta = np.outer(basis_matrix(model.basis_r, nodes)[:, m],
                                   basis_matrix(model.basis_z, nodes)[:, n])
                    val = np.einsum("i,j,ij->", weights, weights, lw * eta)
                    assert model.B[m * 2 + n, col] == pytest.approx(
                        val, rel=1e-10, abs=1e-12)

    def test_f_vector_vs_adaptive_oracle(self):
        model = assemble(PAPER, scenario_cooling("SC"), 2, 2)
        fr = scalar_phi(model.basis_r, 0)
        fz = scalar_phi(model.basis_z, 1)
        ref, _ = dblquad(lambda z, x: radius_from_scaled(PAPER, x) * fr(x) * fz(z),
                         -1, 1, -1, 1, epsabs=1e-12)
        assert model.F[1] == pytest.approx(ref, rel=1e-9, abs=1e-12)


class TestQuadratureGuard:
    def test_rank_deficient_quadrature_rejected(self):
        # three nodes cannot tell four basis functions apart
        cooling = scenario_cooling("SC")
        r_pair, z_pair = robin_pairs(PAPER, cooling)
        with pytest.raises(IllConditionedBasisError):
            galerkin._assemble_matrices(PAPER, cooling, build_basis(4, *r_pair),
                                        build_basis(4, *z_pair), [(4, 4)], 3)

    def test_default_order_formula(self):
        assert default_quad_order(4, 4) == 7

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(cells_and_coolings(), st.integers(1, 30), st.integers(1, 30))
    def test_default_order_is_exact(self, cell, M, N):
        """Every assembled integrand is a polynomial that the default rule
        integrates exactly, so doubling the order moves no factor beyond
        rounding, on random cells, coolings and M, N <= 30. This is the
        proof that ``assemble``'s one pass at the default order is exact.

        B applies the second derivatives of the particular components, whose
        terms cancel: at N = 30, k_z = 100 W/m/K and L = 5 cm they are 1e4
        times larger than B, and B's rounding reaches 5e-12 relative (the
        same at 4n against 8n with the full-grid assembly this replaced), so
        B is held to 1e-11 and the other factors to 1e-12. B and P are the
        moments of the model's own particular components under both rules: a
        pass's own components solve with its own Gram matrices, whose
        rounding would move them too."""
        spec, cooling = cell
        model = assemble(spec, cooling, M, N)
        n = default_quad_order(M, N)

        def factors(order):
            tables = galerkin._gauss_tables(spec, model.basis_r, model.basis_z, order)
            B, P = galerkin._lifting_moments(spec, *tables, model.particular)
            members = galerkin._assemble_matrices(spec, cooling, model.basis_r,
                                                  model.basis_z, [(M, N)], order)
            return {**members[M, N][0], "B": B, "P": P}

        exact, doubled = factors(n), factors(2 * n)
        for name in ("gram_r", "stiff_r", "gram_z", "stiff_z", "B", "F", "P"):
            a, b = exact[name], doubled[name]
            rtol = 1e-11 if name == "B" else 1e-12
            assert np.abs(a - b).max() <= rtol * np.abs(b).max(), name

    def test_cached_rule_is_read_only(self):
        quad = gauss_quadrature(7)
        assert gauss_quadrature(7) is quad
        with pytest.raises(ValueError, match="read-only"):
            quad.nodes[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            quad.weights[0] = 0.0


class TestInitialState:
    def test_zero_everything(self):
        model = assemble(PAPER, scenario_cooling("SC"), 2, 2)
        y0 = project_initial_state(model, 0.0, np.zeros(4))
        assert np.abs(y0).max() < 1e-12

    def test_uniform_field_reconstruction_improves_with_order(self):
        """With coolant at 0 degC, u0 = 0, the bare constant violates the
        Robin data, so the projection defect is a boundary layer; its
        volume-weighted mean shrinks steadily with order."""
        errors = []
        for count in (1, 2, 3, 4, 5):
            model = assemble(PAPER, scenario_cooling("SC"), count, count)
            y0 = project_initial_state(model, 15.0, np.zeros(4))
            ev = FieldEvaluator(model, 21, 21)
            grid = ev.field(y0, np.zeros(3))
            errors.append(float(np.sum(ev._vol_weights * np.abs(grid.values - 15.0))))
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 1.0

    def test_paper_baseline_within_tenth_degree_for_order_nine(self):
        cooling = scenario_cooling("SC")
        for count in (3, 4):
            model = assemble(PAPER, cooling, count, count)
            y0 = project_initial_state(model, 15.0)
            ev = FieldEvaluator(model, 3, 3)
            grid = ev.field(y0, model.cooling_powers(cooling.T_inf))
            assert np.abs(grid.values - 15.0).max() <= 0.1

    @pytest.mark.parametrize("shape", [(3,), (5,), (2, 4)])
    def test_wrong_input_size_rejected(self, shape):
        """A cylinder, too, takes all four coolant temperatures: a row of
        its three input sides is an error that names the argument."""
        model = assemble(PAPER, scenario_cooling("SC"), 2, 2)
        with pytest.raises(ValueError, match=r"tinf0 must broadcast to \(1, 4\)"):
            project_initial_state(model, 15.0, np.zeros(shape))

    @pytest.mark.parametrize("T_init, tinf0", [
        (np.nan, [15.0, 15.0, 15.0, 15.0]),
        (np.inf, [15.0, 15.0, 15.0, 15.0]),
        (15.0, [15.0, np.nan, 15.0, 15.0]),
        (15.0, [-np.inf, 15.0, 15.0, 15.0]),
    ], ids=["nan-T", "inf-T", "nan-tinf0", "inf-tinf0"])
    def test_non_finite_initial_data_rejected(self, T_init, tinf0):
        model = assemble(PAPER, scenario_cooling("SC"), 2, 2)
        with pytest.raises(ValueError, match="finite"):
            project_initial_state(model, T_init, tinf0)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(cells_and_coolings(), st.integers(1, 8), st.integers(1, 8),
           st.floats(-20.0, 60.0), st.integers(0, 2**32 - 1))
    def test_random_cells_projection_is_the_modal_image_of_the_dense_solve(
            self, cell, M, N, T_init, seed):
        """The modal projection Q_r^T R Q_z is (V_r (x) V_z)^-1 of the
        Galerkin state that the dense mass matrix gives:
        G X(0) = rho cp vec(R), R = T_init F - P u0."""
        model = assemble(*cell, M, N)
        tinf0 = 40.0 * np.random.default_rng(seed).standard_normal(4)
        moments = T_init * model.F - model.P @ cooling_powers(model, tinf0)
        x0 = np.linalg.solve(model.G, model.rho_cp * moments)
        want = to_modal(model, x0)
        got = project_initial_state(model, T_init, tinf0)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(cells_and_coolings(), st.integers(1, 12), st.integers(1, 12))
    def test_component_moments_match_their_grids(self, cell, M, N):
        """Column i of P, from which the initial projection reads its
        moments, is the Galerkin moment of side i's component grid at the
        default rule's nodes."""
        model = assemble(*cell, M, N)
        quad = gauss_quadrature(default_quad_order(M, N))
        x, wq = quad.nodes, quad.weights
        wr = wq * radial_weight(model.spec, x)
        r = basis_matrix(model.basis_r, x)
        z = basis_matrix(model.basis_z, x)
        for col, side in enumerate(model.sides):
            grid = model.particular.component_grid(side, x, x)
            want = (r.T @ (wr[:, None] * grid * wq) @ z).ravel()
            assert np.abs(model.P[:, col] - want).max() <= 1e-12 * np.abs(want).max()


class TestLibrary:
    """``assemble_library``: one Gauss pass at the largest size, every member
    sliced from it."""

    # Bounds on the largest move of a member against ``assemble`` at its
    # size, relative to the factor's largest entry (outputs: degC). Over 400
    # undirected random examples (tops up to 30 x 30, two smaller members
    # each) the worst were: Gram and stiffness factors 1.2e-14, F 5.1e-15,
    # P 1.1e-14, C 0 (bit for bit), Dft 1.6e-15, B 2.1e-12 (B applies the
    # cancelling second derivatives, see test_default_order_is_exact), the
    # pencil eigenvalues 1.1e-13, a 20-step run's outputs 3.9e-12 degC.
    BOUNDS = {"gram_r": 1e-13, "stiff_r": 1e-13, "gram_z": 1e-13, "stiff_z": 1e-13,
              "F": 1e-13, "P": 1e-13, "C": 1e-13, "Dft": 1e-13, "B": 2e-11,
              "lam_r": 1e-12, "lam_z": 1e-12, "outputs_C": 1e-10}

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(cells_and_coolings(), st.integers(1, 30), st.integers(1, 30), st.data())
    def test_members_match_standalone_assembly(self, cell, M, N, data):
        spec, cooling = cell
        sizes = [(M, N), *((data.draw(st.integers(1, M)), data.draw(st.integers(1, N)))
                           for _ in range(2))]
        library = galerkin.assemble_library(spec, cooling, sizes)
        assert set(library) == set(sizes)
        tinf = 0.5 * np.array(cooling.T_inf)
        for size, member in library.items():
            alone = assemble(spec, cooling, *size)
            assert (member.M, member.N) == size
            moves = {name: (getattr(member, name), getattr(alone, name))
                     for name in self.BOUNDS if hasattr(alone, name)}
            moves["lam_r"] = member.modes_r.lam, alone.modes_r.lam
            moves["lam_z"] = member.modes_z.lam, alone.modes_z.lam
            for name, (a, b) in moves.items():
                assert a.shape == b.shape, name
                scale = np.abs(b).max() or 1.0
                assert np.abs(a - b).max() <= self.BOUNDS[name] * scale, (name, size)
            a, b = (run(m, project_initial_state(m, 15.0, tinf), tinf, 1e5, 5.0, 100.0,
                        metrics_stride=None).outputs for m in (member, alone))
            assert np.abs(a - b).max() <= self.BOUNDS["outputs_C"], size

    def test_top_member_is_the_standalone_model(self):
        """The largest member is assembled exactly as ``assemble`` does it."""
        library = galerkin.assemble_library(PAPER, scenario_cooling("aTSC"),
                                            [(2, 3), (4, 5), (1, 1)])
        alone = assemble(PAPER, scenario_cooling("aTSC"), 4, 5)
        for name in ("gram_r", "stiff_r", "gram_z", "stiff_z", "B", "F", "P", "C", "Dft"):
            assert np.array_equal(getattr(library[4, 5], name), getattr(alone, name)), name

    def test_one_conditioning_check_per_library(self, monkeypatch):
        checked = []
        real = galerkin._check_conditioning
        monkeypatch.setattr(galerkin, "_check_conditioning",
                            lambda gr, gz: checked.append((len(gr), len(gz))) or real(gr, gz))
        galerkin.assemble_library(PAPER, scenario_cooling("SC"), [(1, 1), (3, 3), (5, 4)])
        assert checked == [(5, 4)]

    def test_ill_conditioned_top_size_rejected(self):
        """cond(Gr) cond(Gz) of the paper cell passes 1e12 near 450 x 450
        (2.9e12); the small member is never built."""
        with pytest.raises(IllConditionedBasisError):
            galerkin.assemble_library(PAPER, scenario_cooling("SC"), [(1, 1), (450, 450)])

    @pytest.mark.parametrize("sizes", [[], [(0, 2)], [(3, 3), (2, 0)]])
    def test_bad_sizes_rejected(self, sizes):
        with pytest.raises(ValueError):
            galerkin.assemble_library(PAPER, scenario_cooling("SC"), sizes)

    @pytest.mark.parametrize("M,N,name", [(True, 2, "M"), (2.0, 2, "M"), (2.5, 2, "M"),
                                          (2, np.float64(3.0), "N"), (2, "3", "N")])
    def test_non_integral_sizes_rejected_by_name(self, M, N, name):
        """A bool or non-integral basis count is an error naming it, from
        ``assemble`` and ``assemble_library`` alike."""
        with pytest.raises(ValueError, match=f"basis count {name} must be an integer >= 1"):
            assemble(PAPER, scenario_cooling("SC"), M, N)
        with pytest.raises(ValueError, match=f"basis count {name} must be an integer >= 1"):
            galerkin.assemble_library(PAPER, scenario_cooling("SC"), [(1, 1), (M, N)])

    def test_numpy_integer_sizes_accepted(self):
        model = assemble(PAPER, scenario_cooling("SC"), np.int64(2), np.int32(3))
        assert model.order == 6


class TestReassemble:
    """A new cooling configuration is a new ``assemble`` call."""

    def test_identity_reassembly_is_bit_identical(self):
        model = assemble(PAPER, scenario_cooling("SC"), 3, 3)
        again = assemble(PAPER, scenario_cooling("SC"), 3, 3)
        assert again.cooling is not model.cooling
        for name in ("G", "A", "B", "F", "C", "Dft"):
            assert np.array_equal(getattr(model, name), getattr(again, name))

    def test_scenario_switch_changes_input_structure(self):
        model = assemble(PAPER, scenario_cooling("SC"), 3, 3)
        before = model.B.copy()
        switched = assemble(PAPER, scenario_cooling("aTSC"), 3, 3)
        assert switched.B.shape == model.B.shape
        # top/bottom convection changed 30 -> 400: those columns must move
        assert not np.allclose(switched.B[:, 1], model.B[:, 1])
        assert not np.allclose(switched.B[:, 2], model.B[:, 2])
        # the first model is untouched
        assert np.array_equal(model.B, before)
        assert model.cooling.top.h == 30.0

    def test_outputs_at_spec_locations(self):
        assert OUTPUT_LOCATIONS == ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))


class TestThinShellLimit:
    def test_cylinder_approaches_slab(self):
        thin = CellSpec(shape=CYLINDRICAL, L=0.2, R_out=1.01, R_in=1.0,
                        rho=2118.0, cp=795.0, k_r=0.67, k_z=66.6)
        slab = CellSpec(shape=POUCH, L=0.2, D=0.01, rho=2118.0, cp=795.0,
                        k_r=0.67, k_z=66.6)
        cooling = CoolingConfig(SideCooling(400.0, 15.0), SideCooling(0.0, 15.0),
                                SideCooling(30.0, 15.0), SideCooling(30.0, 15.0))
        mc = assemble(thin, cooling, 4, 4)
        mp = assemble(slab, cooling, 4, 4)
        xc = project_initial_state(mc, 15.0)
        xp = project_initial_state(mp, 15.0)
        rc = run(mc, xc, None, 1e5, dt=2.0, horizon=300.0, metrics_stride=10**9)
        rp = run(mp, xp, None, 1e5, dt=2.0, horizon=300.0, metrics_stride=10**9)
        rise_c = rc.outputs - 15.0
        rise_p = rp.outputs - 15.0
        rel = np.abs(rise_c - rise_p).max() / np.abs(rise_p).max()
        assert rel < 0.02
