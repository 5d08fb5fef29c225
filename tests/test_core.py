"""Domain types: heat generation, volumes, profiles, scenario presets, and
the one diagonalization of every model's 1D pencil (against scipy)."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh, eigh_tridiagonal

from celltherm.core import (
    CYLINDRICAL,
    POUCH,
    SCENARIOS,
    SIDES,
    CellSpec,
    HeatProfile,
    SideCooling,
    bernardi_q,
    cell_volume,
    constant_profile,
    pencil_modes,
    per_step,
    per_step_rows,
    resample_profile,
    scenario_cooling,
    step_count,
)
from celltherm.control import closed_loop_run
from celltherm.exceptions import AssemblyError
from celltherm.galerkin import assemble
from celltherm.reference import FdConfig, TecModel, _ghost_node_operator, fd_solve, tec_run
from celltherm.simulate import run
from strategies import cells_and_coolings

PAPER = CellSpec(shape=CYLINDRICAL, L=0.198, R_out=0.032, R_in=0.004,
                 rho=2118.0, cp=795.0, k_r=0.67, k_z=66.6)
POUCH_CELL = CellSpec(shape=POUCH, L=0.2, D=0.1, rho=2118.0, cp=795.0,
                      k_r=0.9, k_z=30.0)
SC = scenario_cooling("SC")

# Every stepped run as a call of (dt, horizon), on the smallest model or grid.
STEPPED_RUNS = {
    "step_count": lambda dt, horizon: step_count(horizon, dt),
    "run": lambda dt, horizon: run(assemble(PAPER, SC, 1, 1), np.zeros(1),
                                   None, 0.0, dt, horizon),
    "tec_run": lambda dt, horizon: tec_run(TecModel(), 1.0, dt, horizon),
    "fd_solve": lambda dt, horizon: fd_solve(PAPER, SC, None, 0.0,
                                             FdConfig(3, 3, dt), horizon=horizon),
    "closed_loop_run": lambda dt, horizon: closed_loop_run(
        assemble(PAPER, SC, 1, 1), "SC", 20.0, 0.0, dt, horizon),
    "resample_profile": lambda dt, horizon: resample_profile(
        constant_profile(1.0), dt, horizon),
}


class TestBernardi:
    def test_zero_current(self):
        assert bernardi_q(0.0, 3.3, 3.3, 6.27e-4) == 0.0

    def test_discharge_overpotential(self):
        # (-90 A) * (-0.2 V) / 6.27e-4 m^3, checked by hand
        q = bernardi_q(-90.0, 3.1, 3.3, 6.27e-4)
        assert q == pytest.approx(18.0 / 6.27e-4, rel=1e-12)
        assert q == pytest.approx(2.871e4, rel=1e-3)

    def test_zero_volume_rejected(self):
        with pytest.raises(ValueError):
            bernardi_q(1.0, 3.3, 3.2, 0.0)

    def test_linear_in_current(self):
        base = bernardi_q(10.0, 3.2, 3.3, 1e-3)
        assert bernardi_q(30.0, 3.2, 3.3, 1e-3) == pytest.approx(3 * base)

    def test_sign_flips(self):
        fwd = bernardi_q(25.0, 3.4, 3.3, 1e-3)
        # flipping the current alone negates the heat ...
        assert bernardi_q(-25.0, 3.4, 3.3, 1e-3) == pytest.approx(-fwd)
        # ... and jointly flipping current and overpotential restores it
        assert bernardi_q(-25.0, 3.2, 3.3, 1e-3) == pytest.approx(fwd)

    def test_negative_heat_passes_through(self):
        assert bernardi_q(50.0, 3.2, 3.3, 1e-3) < 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_profile_conversion_matches_per_sample_calls(self, seed):
        """An electrical profile converts in one elementwise call, bit for bit
        the per-sample scalar conversions."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        values = np.column_stack([200.0 * rng.standard_normal(n),
                                  3.3 + 0.3 * rng.standard_normal(n),
                                  3.3 + 0.1 * rng.standard_normal(n)])
        profile = HeatProfile(np.arange(n, dtype=float), values, "electrical_ivo")
        vol = 1e-4 + 1e-3 * rng.random()
        q = profile.to_volumetric(vol)
        assert q.kind == "volumetric_q"
        assert np.array_equal(q.values, [bernardi_q(i, v, vo, vol) for i, v, vo in values])

    @pytest.mark.parametrize("vol", [0.0, -1e-3])
    def test_profile_conversion_rejects_non_positive_volume(self, vol):
        profile = HeatProfile(np.arange(3.0), np.full((3, 3), 3.3), "electrical_ivo")
        with pytest.raises(ValueError, match="cell_volume must be positive"):
            profile.to_volumetric(vol)


class TestCellVolume:
    def test_paper_cell(self):
        vol = cell_volume(PAPER)
        assert vol == pytest.approx(np.pi * (0.032**2 - 0.004**2) * 0.198, rel=1e-14)
        assert vol == pytest.approx(6.27e-4, rel=1e-3)

    def test_degenerate_annulus_rejected(self):
        with pytest.raises(ValueError):
            CellSpec(shape=CYLINDRICAL, L=0.1, R_out=0.03, R_in=0.03,
                     rho=1.0, cp=1.0, k_r=1.0, k_z=1.0)

    def test_pouch_unit_depth(self):
        pouch = CellSpec(shape=POUCH, L=0.2, D=0.1, rho=1.0, cp=1.0,
                         k_r=1.0, k_z=1.0)
        assert cell_volume(pouch) == pytest.approx(0.02)


class TestResample:
    def test_constant_profile(self):
        series = resample_profile(constant_profile(7.5), dt=0.5, horizon=3.0)
        assert series.shape == (7,)
        assert np.all(series == 7.5)

    def test_single_sample_holds(self):
        p = HeatProfile(np.array([0.0]), np.array([5.0]))
        series = resample_profile(p, dt=1.0, horizon=10.0)
        assert np.all(series == 5.0)

    def test_hold_semantics(self):
        p = HeatProfile(np.array([0.0, 1.0]), np.array([0.0, 10.0]))
        series = resample_profile(p, dt=0.5, horizon=2.0)
        # hand-enumerated zero-order hold: t = 0, .5 -> 0; t = 1, 1.5, 2 -> 10
        assert list(series) == [0.0, 0.0, 10.0, 10.0, 10.0]

    def test_idempotent_on_uniform(self):
        times = np.arange(6) * 2.0
        values = np.array([1.0, 4.0, 2.0, 8.0, 5.0, 7.0])
        p = HeatProfile(times, values)
        once = resample_profile(p, dt=2.0, horizon=10.0)
        again = resample_profile(HeatProfile(times, once), dt=2.0, horizon=10.0)
        assert np.array_equal(once, again)

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            HeatProfile(np.array([]), np.array([]))

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError):
            HeatProfile(np.array([0.0, 2.0, 1.0]), np.array([1.0, 2.0, 3.0]))

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            HeatProfile(np.array([1.0, 2.0]), np.array([1.0, 2.0]))

    def test_bad_dt_rejected(self):
        with pytest.raises(ValueError):
            resample_profile(constant_profile(1.0), dt=0.0, horizon=1.0)


class TestStepGrid:
    @pytest.mark.parametrize("quantity, dt, horizon", [
        ("horizon", 1.0, -1.0), ("horizon", 1.0, np.inf), ("horizon", 1.0, np.nan),
        ("dt", 0.0, 10.0), ("dt", -1.0, 10.0), ("dt", np.inf, 10.0),
        ("dt", np.nan, 10.0),
    ], ids=["horizon-negative", "horizon-inf", "horizon-nan", "dt-zero",
            "dt-negative", "dt-inf", "dt-nan"])
    @pytest.mark.parametrize("caller", list(STEPPED_RUNS))
    def test_bad_step_grid_rejected_by_name(self, caller, quantity, dt, horizon):
        """A negative or non-finite horizon, or a dt that is not positive and
        finite, is a ValueError that names the quantity, from every stepped
        run: not an IndexError, an OverflowError or a negative dimension."""
        with pytest.raises(ValueError, match=quantity):
            STEPPED_RUNS[caller](dt, horizon)

    @pytest.mark.parametrize("caller, name", [
        ("run", "w"), ("tec_run", "q"), ("fd_solve", "q"), ("closed_loop_run", "q")])
    def test_non_finite_last_heat_sample_rejected_by_name(self, caller, name):
        """The last heat sample is read by no step, but a NaN there is still
        a ValueError that names the series."""
        q = np.r_[np.full(10, 1e4), np.nan]
        calls = {
            "run": lambda: run(assemble(PAPER, SC, 1, 1), np.zeros(1), None, q,
                               1.0, 10.0),
            "tec_run": lambda: tec_run(TecModel(), q, 1.0, 10.0),
            "fd_solve": lambda: fd_solve(PAPER, SC, None, q, FdConfig(3, 3, 1.0),
                                         horizon=10.0),
            "closed_loop_run": lambda: closed_loop_run(
                assemble(PAPER, SC, 1, 1), "SC", 20.0, q, 1.0, 10.0),
        }
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            calls[caller]()

    def test_step_count_forgives_rounding_of_a_multiple(self):
        assert 0.3 / 0.1 < 3.0   # rounds below the multiple
        assert step_count(0.3, 0.1) == 3
        assert step_count(0.29, 0.1) == 2
        assert step_count(10.0, 1.0) == 10
        assert step_count(0.0, 1.0) == 0

    def test_per_step_holds_a_scalar_and_checks_an_array(self):
        assert np.array_equal(per_step(2.5, 4, "q"), np.full(4, 2.5))
        values = np.arange(4.0)
        assert np.array_equal(per_step(values, 4, "q"), values)
        for bad in (np.ones(3), np.ones(5), np.ones((4, 1))):
            with pytest.raises(ValueError, match=r"q must broadcast to \(4,\)"):
                per_step(bad, 4, "q")

    def test_per_step_rows_checks_one_row_or_every_row(self):
        """One row comes back as it is, for the caller to hold; n_times rows
        as they are; any other shape is an error naming the argument."""
        row = [1.0, 2.0, 3.0, 4.0]
        assert np.array_equal(per_step_rows(row, 4, 3, "tinf"), row)
        rows = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(per_step_rows(rows, 4, 3, "tinf"), rows)
        for bad in (np.ones(3), np.ones(5), np.ones((2, 4)), np.ones((3, 3)), 1.0):
            with pytest.raises(ValueError, match=r"tinf must broadcast to \(3, 4\)"):
                per_step_rows(bad, 4, 3, "tinf")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected_by_name(self, bad):
        """A non-finite entry anywhere, a held value or the last sample
        included, is a ValueError naming the argument; a held row is
        checked before it is held."""
        for values in (bad, np.r_[1.0, 2.0, 3.0, bad]):
            with pytest.raises(ValueError, match="w must be finite"):
                per_step(values, 4, "w")
        with pytest.raises(ValueError, match="tinf must be finite"):
            per_step_rows([15.0, bad, 15.0, 15.0], 4, 10**9, "tinf")
        rows = np.full((3, 4), 15.0)
        rows[-1, 1] = bad
        with pytest.raises(ValueError, match="tinf must be finite"):
            per_step_rows(rows, 4, 3, "tinf")


class TestScenarios:
    def test_exactly_five_presets(self):
        assert sorted(SCENARIOS) == sorted(["SC", "bTC", "bTSC", "btTC", "aTSC"])

    def test_atsc_all_active_except_core(self):
        cfg = scenario_cooling("aTSC")
        assert cfg.core.h == 0.0
        for side in ("surface", "top", "bottom"):
            assert cfg.side(side).h == 400.0

    def test_btc_single_active_side(self):
        cfg = scenario_cooling("bTC")
        active = [s for s in SIDES if cfg.side(s).h == 400.0]
        assert active == ["bottom"]

    def test_passive_level(self):
        cfg = scenario_cooling("SC")
        assert cfg.top.h == 30.0 and cfg.bottom.h == 30.0

    def test_pouch_surface_maps_to_both_faces(self):
        cfg = scenario_cooling("SC", shape=POUCH)
        assert cfg.surface.h == 400.0 and cfg.core.h == 400.0

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            scenario_cooling("XYZ")


class TestValidation:
    def test_negative_h_rejected(self):
        with pytest.raises(ValueError):
            SideCooling(-1.0, 15.0)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            CellSpec(shape="prism", L=1.0, rho=1.0, cp=1.0, k_r=1.0, k_z=1.0)

    def test_nonpositive_property_rejected(self):
        with pytest.raises(ValueError):
            CellSpec(shape=POUCH, L=0.2, D=0.1, rho=-1.0, cp=1.0, k_r=1.0, k_z=1.0)

    @pytest.mark.parametrize("field,value", [
        ("L", np.nan), ("k_r", np.inf), ("R_out", np.nan), ("R_in", -np.inf)])
    def test_nonfinite_cell_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"CellSpec.{field} must be finite"):
            replace(PAPER, **{field: value})

    @pytest.mark.parametrize("h,T_inf,field", [
        (np.nan, 15.0, "h"), (np.inf, 15.0, "h"), (400.0, np.inf, "T_inf"),
        (400.0, np.nan, "T_inf")])
    def test_nonfinite_cooling_rejected(self, h, T_inf, field):
        with pytest.raises(ValueError, match=f"SideCooling.{field} must be finite"):
            SideCooling(h, T_inf)

    @pytest.mark.parametrize("field", ["L", "rho", "cp", "k_r", "k_z", "R_out", "R_in", "D"])
    def test_bool_cell_value_rejected(self, field):
        # True == 1: a bool would pass every range check as 1 m, 1 kg m^-3, ...
        with pytest.raises(ValueError, match=f"CellSpec.{field} must be a number"):
            replace(PAPER, **{field: True})

    @pytest.mark.parametrize("h,T_inf,field", [
        (True, 15.0, "h"), (400.0, False, "T_inf")])
    def test_bool_cooling_value_rejected(self, h, T_inf, field):
        with pytest.raises(ValueError, match=f"SideCooling.{field} must be a number"):
            SideCooling(h, T_inf)

    @pytest.mark.parametrize("times,values,kind,field", [
        ([0.0, 1.0], [np.nan, 1.0], "volumetric_q", "values"),
        ([0.0, np.inf], [1.0, 1.0], "volumetric_q", "times"),
        ([0.0, np.nan], [1.0, 1.0], "volumetric_q", "times"),
        ([0.0], [[10.0, np.inf, 3.3]], "electrical_ivo", "values")])
    def test_nonfinite_heat_profile_rejected(self, times, values, kind, field):
        with pytest.raises(ValueError, match=f"HeatProfile.{field} must be finite"):
            HeatProfile(np.array(times), np.array(values), kind=kind)

    def test_electrical_profile_conversion(self):
        p = HeatProfile(np.array([0.0, 1.0]),
                        np.array([[-90.0, 3.1, 3.3], [0.0, 3.3, 3.3]]),
                        kind="electrical_ivo")
        vq = p.to_volumetric(6.27e-4)
        assert vq.values[0] == pytest.approx(2.871e4, rel=1e-3)
        assert vq.values[1] == 0.0

    def test_coolant_temperatures_in_sides_order(self):
        cfg = replace(scenario_cooling("SC"), top=SideCooling(30.0, 25.0))
        assert cfg.T_inf == (15.0, 15.0, 25.0, 15.0)
        assert SIDES == ("surface", "core", "top", "bottom")

    def test_cooling_side_lookup(self):
        cfg = scenario_cooling("btTC")
        assert cfg.side("top").h == 400.0
        with pytest.raises(ValueError):
            cfg.side("front")


def assert_pencil_modes(stiff, mass):
    """``pencil_modes`` against scipy's generalized symmetric eigensolver:
    eigenvalues to 1e-12 of the largest, V^T M V = I and V_inv V = I to
    1e-12, with M the dense mass or the diagonal of a mass vector."""
    modes = pencil_modes(stiff, mass)
    dense = np.diag(mass) if np.ndim(mass) == 1 else mass
    lam = eigh(stiff, dense, eigvals_only=True)
    n = lam.size
    assert np.isrealobj(modes.lam)
    assert np.abs(modes.lam - lam).max() <= 1e-12 * np.abs(lam).max()
    np.testing.assert_allclose(modes.V.T @ dense @ modes.V, np.eye(n), rtol=0, atol=1e-12)
    np.testing.assert_allclose(modes.V_inv @ modes.V, np.eye(n), rtol=0, atol=1e-12)
    return modes


def fd_pencils(spec, n, h_r, h_z):
    """The FD oracle's radial and axial pencils (diag(w) L, rho cp w) at n
    nodes, with (low, high) convection coefficients h_r and h_z."""
    cyl = spec.is_cylindrical
    r_lo, r_hi = (spec.R_in, spec.R_out) if cyl else (0.0, spec.D)
    rho_cp = spec.rho * spec.cp
    for nodes, k, h, radial in ((np.linspace(r_lo, r_hi, n), spec.k_r, h_r, cyl),
                                (np.linspace(0.0, spec.L, n), spec.k_z, h_z, False)):
        stiff, w, _, _ = _ghost_node_operator(nodes, k, *h, radial)
        yield stiff, rho_cp * w


class TestPencilModes:
    """One diagonalization for every model: dense Galerkin Gram masses and
    diagonal FD and TEC masses."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 30), st.floats(0.0, 3.0), st.integers(0, 2**32 - 1))
    def test_random_spd_pencils_match_scipy(self, n, decades, seed):
        """Random symmetric stiffness over a random SPD mass whose
        eigenvalues span ``decades`` decades."""
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        gram = (q * 10.0 ** -rng.uniform(0.0, decades, n)) @ q.T
        stiff = rng.standard_normal((n, n))
        assert_pencil_modes(stiff + stiff.T, 0.5 * (gram + gram.T))

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(cells_and_coolings(), st.integers(1, 30), st.integers(1, 30))
    def test_assembled_pencils_match_scipy(self, cell, M, N):
        model = assemble(*cell, M, N)
        assert_pencil_modes(model.stiff_r, model.gram_r)
        assert_pencil_modes(model.stiff_z, model.gram_z)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 256), st.floats(0.0, 3.0), st.integers(0, 2**32 - 1))
    def test_random_diagonal_masses_match_scipy(self, n, decades, seed):
        rng = np.random.default_rng(seed)
        stiff = rng.standard_normal((n, n))
        assert_pencil_modes(stiff + stiff.T, 10.0 ** -rng.uniform(0.0, decades, n))

    def test_reconstructs_symmetrizable_tridiagonal_operator(self):
        """A random tridiagonal L with positive off-diagonal products, as the
        pencil (diag(w) L, w): V diag(lam) V_inv = L, with a real spectrum."""
        rng = np.random.default_rng(2)
        n = 40
        sub, sup = rng.uniform(0.2, 3.0, n - 1), rng.uniform(0.2, 3.0, n - 1)
        op = np.diag(-rng.uniform(2.0, 8.0, n)) + np.diag(sup, 1) + np.diag(sub, -1)
        w = np.concatenate(([1.0], np.cumprod(sup / sub)))
        modes = pencil_modes(w[:, None] * op, w)
        assert np.isrealobj(modes.lam)
        np.testing.assert_allclose(modes.V_inv @ modes.V, np.eye(n), atol=1e-12)
        np.testing.assert_allclose(modes.V @ np.diag(modes.lam) @ modes.V_inv, op,
                                   atol=1e-12)

    @pytest.mark.parametrize("n", [3, 128, 256])
    @pytest.mark.parametrize("spec", [PAPER, POUCH_CELL], ids=["cylinder", "pouch"])
    def test_fd_operators_match_scipy(self, spec, n):
        """Both FD directions, every side cooled, against scipy's generalized
        solver and against LAPACK's tridiagonal solver on the symmetrized
        operator D L D^-1, D = diag(sqrt(w))."""
        for stiff, mass in fd_pencils(spec, n, (120.0, 400.0), (250.0, 30.0)):
            modes = assert_pencil_modes(stiff, mass)
            sym = stiff / np.sqrt(np.outer(mass, mass))
            lam = eigh_tridiagonal(np.diag(sym), np.diag(sym, -1), eigvals_only=True,
                                   lapack_driver="stev")
            assert np.abs(modes.lam - lam).max() <= 1e-12 * np.abs(lam).max()

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(cells_and_coolings(), st.integers(3, 128))
    def test_fd_operators_of_random_cells_match_scipy(self, cell, n):
        spec, cooling = cell
        h = [cooling.side(s).h for s in SIDES]   # surface, core, top, bottom
        for stiff, mass in fd_pencils(spec, n, (h[1], h[0]), (h[3], h[2])):
            assert_pencil_modes(stiff, mass)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.floats(10.0, 1e4), st.floats(1.0, 1e3), st.floats(0.01, 10.0),
           st.floats(0.01, 1.0))
    @example(1079.6, 48.35, 0.65, 0.08)   # the default circuit
    def test_tec_matches_scipy(self, C_c, C_s, R_c, R_u):
        """The TEC as the pencil (C A, C): scipy's eigenvalues, and
        V diag(lam) V_inv = A."""
        model = TecModel(C_c, C_s, R_c, R_u)
        a, _ = model.continuous()
        cap = np.array([C_c, C_s])
        modes = assert_pencil_modes(cap[:, None] * a, cap)
        np.testing.assert_allclose(modes.V @ np.diag(modes.lam) @ modes.V_inv, a,
                                   rtol=0, atol=1e-12 * np.abs(a).max())

    @pytest.mark.parametrize("mass", [
        -np.eye(3),
        np.diag([1.0, 0.0, 1.0]),
        np.array([[1.0, 2.0], [2.0, 1.0]]),
        np.array([1.0, -1.0, 1.0]),
        np.array([1.0, 0.0, 1.0]),
        np.array([1.0, np.nan, 1.0]),
        np.array([1.0, np.inf, 1.0]),
        np.array([[1.0, np.nan], [np.nan, 1.0]]),
        np.diag([np.inf, 1.0]),
    ], ids=["negative", "singular", "indefinite", "diagonal-negative",
            "diagonal-zero", "diagonal-nan", "diagonal-inf", "nan", "inf"])
    def test_mass_not_positive_definite_rejected(self, mass):
        with pytest.raises(AssemblyError, match="not diagonalizable"):
            pencil_modes(np.eye(len(mass)), mass)

    def test_non_symmetrizable_tridiagonal_rejected(self):
        """sub * sup < 0 makes a weight of w = [1, cumprod(sup / sub)]
        negative: the pencil's mass is not positive definite."""
        sub, sup = np.array([1.0, -1.0]), np.array([1.0, 1.0])
        op = np.diag([-2.0, -2.0, -2.0]) + np.diag(sup, 1) + np.diag(sub, -1)
        w = np.concatenate(([1.0], np.cumprod(sup / sub)))
        with pytest.raises(AssemblyError, match="not diagonalizable"):
            pencil_modes(w[:, None] * op, w)
