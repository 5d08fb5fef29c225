"""Domain types: heat generation, volumes, profiles, scenario presets."""

from dataclasses import replace

import numpy as np
import pytest

from celltherm.core import (
    CYLINDRICAL,
    POUCH,
    SCENARIOS,
    SIDES,
    BoundaryInput,
    CellSpec,
    HeatProfile,
    SideCooling,
    bernardi_q,
    boundary_input_from_cooling,
    cell_volume,
    constant_profile,
    per_step,
    resample_profile,
    scenario_cooling,
    step_count,
)

PAPER = CellSpec(shape=CYLINDRICAL, L=0.198, R_out=0.032, R_in=0.004,
                 rho=2118.0, cp=795.0, k_r=0.67, k_z=66.6)


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


class TestBoundaryInput:
    def test_cylindrical_drops_core(self):
        u = BoundaryInput(surface=1.0, top=2.0, bottom=3.0)
        assert list(u.as_vector(CYLINDRICAL)) == [1.0, 2.0, 3.0]

    def test_cylindrical_core_must_be_zero(self):
        with pytest.raises(ValueError):
            BoundaryInput(surface=1.0, core=5.0).as_vector(CYLINDRICAL)

    def test_pouch_keeps_four(self):
        u = BoundaryInput(1.0, 2.0, 3.0, 4.0)
        assert list(u.as_vector(POUCH)) == [1.0, 2.0, 3.0, 4.0]

    def test_baseline_from_cooling(self):
        cfg = scenario_cooling("SC", T_inf=15.0)
        u = boundary_input_from_cooling(cfg)
        assert u.surface == pytest.approx(400.0 * 15.0)
        assert u.core == 0.0
        assert u.top == pytest.approx(30.0 * 15.0)


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

    def test_cooling_side_lookup(self):
        cfg = scenario_cooling("btTC")
        assert cfg.side("top").h == 400.0
        with pytest.raises(ValueError):
            cfg.side("front")
