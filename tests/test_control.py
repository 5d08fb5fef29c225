"""PI regulation of the mean temperature with an open-loop model estimator.

Oracles: hand-iterated PI update law, estimator/plant identity in the
nominal case, the FD solver as an independent plant, and closed-loop
tracking-band checks.
"""

import numpy as np
import pytest

from celltherm import control
from celltherm.control import (
    OpenLoopEstimator,
    PiController,
    closed_loop_run,
    pi_step,
)
from celltherm.core import (
    CYLINDRICAL,
    SIDES,
    CellSpec,
    scenario_cooling,
)
from celltherm.galerkin import assemble, project_initial_state
from celltherm.reference import FdConfig, FdSolver, fd_solve
from celltherm.simulate import FieldEvaluator, discretize, run
from strategies import cooling_powers, record_metric_names

def commanded_coolant(trace, cooling):
    """The commanded coolant temperatures (K+1, 4) of a trace in ``SIDES``
    order: the cylinder's core is no model input and keeps its baseline."""
    return np.column_stack([trace.coolant[:, trace.sides.index(s)]
                            if s in trace.sides else
                            np.full(len(trace.times), cooling.side(s).T_inf)
                            for s in SIDES])


PAPER = CellSpec(shape=CYLINDRICAL, L=0.198, R_out=0.032, R_in=0.004,
                 rho=2118.0, cp=795.0, k_r=0.67, k_z=66.6)


class TestPiStep:
    def test_zero_error_zero_command(self):
        c = PiController(kp=2.0, ki=0.1, output_limits=(-100.0, 100.0))
        assert pi_step(c, 0.0, 1.0) == 0.0
        assert c.integral == 0.0

    def test_hand_iterated_update(self):
        c = PiController(kp=2.0, ki=0.1, output_limits=(-100.0, 100.0))
        assert pi_step(c, 1.0, 1.0) == pytest.approx(2.1)
        assert pi_step(c, 1.0, 1.0) == pytest.approx(2.2)

    def test_baseline_offsets_command(self):
        c = PiController(kp=2.0, ki=0.0, baseline=15.0,
                         output_limits=(-20.0, 40.0))
        assert pi_step(c, 1.0, 1.0) == pytest.approx(17.0)

    def test_anti_windup_freezes_integral(self):
        c = PiController(kp=1.0, ki=1.0, output_limits=(-1.0, 1.0))
        out = pi_step(c, -10.0, 1.0)
        assert out == -1.0
        assert c.integral == 0.0
        out = pi_step(c, -10.0, 1.0)
        assert out == -1.0
        assert c.integral == 0.0

    @pytest.mark.parametrize("dt", [np.nan, np.inf])
    def test_non_finite_dt_rejected(self, dt):
        c = PiController(kp=2.0, ki=0.1)
        with pytest.raises(ValueError, match="finite"):
            pi_step(c, 1.0, dt)
        assert c.integral == 0.0

    @pytest.mark.parametrize("kwargs, name", [
        ({"kp": np.nan}, "kp"), ({"kp": True}, "kp"), ({"ki": -np.inf}, "ki"),
        ({"baseline": np.nan}, "baseline"), ({"integral": np.inf}, "integral"),
        ({"output_limits": (np.nan, np.nan)}, "output_limits"),
        ({"output_limits": (-20.0, np.inf)}, "output_limits"),
    ], ids=["nan-kp", "bool-kp", "inf-ki", "nan-baseline", "inf-integral", "nan-limits",
            "inf-hi"])
    def test_non_finite_data_is_named(self, kwargs, name):
        """Each of kp, ki, baseline, the integral and the limits must be
        finite: NaN limits fail every comparison, so pi_step would return its
        raw command unclamped."""
        with pytest.raises(ValueError, match=f"PiController.{name}"):
            PiController(**{"kp": 2.0, "ki": 0.05, **kwargs})

    def test_validation(self):
        with pytest.raises(ValueError):
            PiController(1.0, 1.0, output_limits=(2.0, 1.0))
        c = PiController(1.0, 1.0)
        with pytest.raises(ValueError):
            pi_step(c, 0.0, 0.0)


class TestEstimator:
    def test_nominal_estimator_equals_plant(self):
        model = assemble(PAPER, scenario_cooling("aTSC"), 3, 3)
        trace = closed_loop_run(model, "aTSC", 20.0, 4e4, dt=2.0, horizon=100.0)
        assert np.abs(trace.T_mean - trace.T_hat_mean).max() <= 1e-9

    def test_estimate_mean_steps_the_state(self):
        model = assemble(PAPER, scenario_cooling("SC"), 2, 2)
        tinf = np.array(model.cooling.T_inf)
        est = OpenLoopEstimator(model, dt=5.0, T_init=15.0, tinf0=tinf)
        y_before = est.y.copy()
        est.step(tinf, 5e4)
        assert not np.allclose(est.y, y_before)
        assert est.mean_temperature() > 15.0

    def test_zero_heat_equilibrium_estimate_constant(self):
        model = assemble(PAPER, scenario_cooling("SC"), 3, 3)
        tinf = np.array(model.cooling.T_inf)
        est = OpenLoopEstimator(model, dt=10.0, T_init=15.0)
        first = est.mean_temperature()
        for _ in range(20):
            est.step(tinf, 0.0)
        assert est.mean_temperature() == pytest.approx(first, abs=5e-3)

    def test_low_order_estimator_tracks_fd_plant_steady(self):
        """Open-loop O=4 estimate vs the FD field under constant heat:
        steady mean-temperature mismatch stays below 0.3 degC."""
        cooling = scenario_cooling("SC")
        solver = FdSolver(PAPER, cooling, FdConfig(48, 48, 2.0))
        model = assemble(PAPER, cooling, 2, 2)
        est = OpenLoopEstimator(model, dt=2.0, T_init=15.0)
        field = solver.uniform_field(15.0)
        tinf = np.array(cooling.T_inf)
        for _ in range(3000):
            field = solver.step(field, tinf, 5e4)
            est.step(tinf, 5e4)
        fd_mean = solver.metrics(field).T_mean
        assert abs(est.mean_temperature() - fd_mean) <= 0.3


class TestClosedLoop:
    def test_zero_error_keeps_baseline(self):
        model = assemble(PAPER, scenario_cooling("SC"), 2, 2)
        trace = closed_loop_run(model, "SC", 15.0, 0.0, dt=5.0, horizon=100.0)
        baseline = 400.0 * 15.0
        surf = trace.u[:, trace.sides.index("surface")]
        # commands stay within the initial projection defect of the estimate
        assert np.abs(surf - baseline).max() <= 0.02 * baseline
        assert np.abs(trace.T_mean - 15.0).max() <= 0.1

    def test_inactive_sides_hold_baseline_exactly(self):
        model = assemble(PAPER, scenario_cooling("SC"), 2, 2)
        trace = closed_loop_run(model, "SC", 20.0, 5e4, dt=2.0, horizon=200.0)
        for side in ("top", "bottom"):
            j = trace.sides.index(side)
            baseline = model.cooling.side(side).h * model.cooling.side(side).T_inf
            assert np.all(trace.u[:, j] == baseline)

    def test_last_row_repeats_the_last_command(self):
        """Row K of the record repeats the command of the last step; with no
        step at all it is the baseline."""
        model = assemble(PAPER, scenario_cooling("bTC"), 2, 2)
        trace = closed_loop_run(model, "bTC", 20.0, 1.2e5, dt=2.0, horizon=20.0)
        j = trace.sides.index("bottom")
        assert trace.coolant[-2, j] != 15.0
        assert np.array_equal(trace.coolant[-1], trace.coolant[-2])
        assert np.array_equal(trace.u[-1], trace.u[-2])
        trace = closed_loop_run(model, "bTC", 20.0, 1.2e5, dt=2.0, horizon=0.0)
        assert np.array_equal(trace.coolant, [[15.0, 15.0, 15.0]])

    def test_commands_respect_limits(self):
        model = assemble(PAPER, scenario_cooling("bTC"), 2, 2)
        trace = closed_loop_run(model, "bTC", 20.0, 1.2e5, dt=2.0,
                                horizon=400.0, limits=(-20.0, 40.0))
        j = trace.sides.index("bottom")
        assert trace.coolant[:, j].min() >= -20.0 - 1e-12
        assert trace.coolant[:, j].max() <= 40.0 + 1e-12

    def test_tracking_band_and_gradient_ordering(self):
        traces = {}
        for name in ("aTSC", "btTC", "SC"):
            model = assemble(PAPER, scenario_cooling(name), 3, 3)
            traces[name] = closed_loop_run(model, name, 20.0, 4e4, dt=2.0,
                                           horizon=1200.0)
        tail = slice(int(0.8 * len(traces["aTSC"].times)), None)
        assert np.abs(traces["aTSC"].T_mean[tail] - 20.0).max() <= 0.5
        assert (traces["btTC"].dTr_mean[tail].mean()
                < traces["SC"].dTr_mean[tail].mean())

    def test_error_decays_after_first_overshoot(self):
        model = assemble(PAPER, scenario_cooling("aTSC"), 3, 3)
        trace = closed_loop_run(model, "aTSC", 20.0, 4e4, dt=2.0, horizon=900.0)
        err = np.abs(trace.T_mean - 20.0)
        peak = int(np.argmax(trace.T_mean))
        after = err[peak:]
        assert np.all(np.diff(after) <= 1e-3)

    def test_steady_state_error_vanishes_with_integral_action(self):
        model = assemble(PAPER, scenario_cooling("aTSC"), 3, 3)
        trace = closed_loop_run(model, "aTSC", 20.0, 4e4, dt=2.0, horizon=2000.0)
        assert abs(trace.T_hat_mean[-1] - 20.0) <= 1e-3

    def test_fd_plant_runs(self):
        cooling = scenario_cooling("aTSC")
        solver = FdSolver(PAPER, cooling, FdConfig(32, 32, 2.0))
        est_model = assemble(PAPER, cooling, 3, 3)
        trace = closed_loop_run(solver, "aTSC", 20.0, 4e4, dt=2.0,
                                horizon=600.0, estimator_model=est_model)
        tail = slice(int(0.8 * len(trace.times)), None)
        # the estimator is open loop, so tracking holds up to model mismatch
        assert np.abs(trace.T_mean[tail] - 20.0).max() <= 0.8

    def test_fd_plant_holds_each_command_over_its_fd_steps(self):
        """At an FD step of a quarter control step, the plant record equals
        ``fd_solve`` under the recorded commands, each held for four FD
        steps and sampled at the control steps."""
        cooling = scenario_cooling("aTSC")
        cfg = FdConfig(16, 16, 0.5)
        q = np.linspace(2e4, 8e4, 31)
        trace = closed_loop_run(FdSolver(PAPER, cooling, cfg), "aTSC", 20.0, q,
                                dt=2.0, horizon=60.0,
                                estimator_model=assemble(PAPER, cooling, 2, 2))
        tinf = commanded_coolant(trace, cooling)
        fd = fd_solve(PAPER, cooling, np.repeat(tinf, 4, axis=0)[:121],
                      np.repeat(q, 4)[:121], cfg, horizon=60.0)
        np.testing.assert_allclose(trace.T_mean, fd.T_mean[::4], rtol=0, atol=1e-12)
        np.testing.assert_allclose(trace.dTr_mean, fd.dTr_mean[::4], rtol=1e-12)
        np.testing.assert_allclose(trace.outputs, fd.outputs[::4], rtol=0, atol=1e-12)

    def test_fd_plant_builds_one_fd_solver(self, monkeypatch):
        """The plant's own solver steps the plant run; no second solver is
        built from its spec, cooling and grid."""
        built = []
        init = FdSolver.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(FdSolver, "__init__", counting_init)
        cooling = scenario_cooling("aTSC")
        plant = FdSolver(PAPER, cooling, FdConfig(16, 16, 0.5))
        closed_loop_run(plant, "aTSC", 20.0, 4e4, dt=2.0, horizon=20.0,
                        estimator_model=assemble(PAPER, cooling, 2, 2))
        assert built == [plant]

    @pytest.mark.parametrize("plant", ["fd", "rom"])
    def test_plant_takes_only_the_metrics_the_trace_keeps(self, monkeypatch, plant):
        """Either plant asks for T_mean, dTr_mean and dTz_mean, the metrics a
        ControlTrace keeps; the estimator asks for none."""
        cooling = scenario_cooling("aTSC")
        model = assemble(PAPER, cooling, 2, 2)
        plant = FdSolver(PAPER, cooling, FdConfig(16, 16, 0.5)) if plant == "fd" else model
        received = record_metric_names(monkeypatch)
        closed_loop_run(plant, "aTSC", 20.0, 4e4, dt=2.0, horizon=20.0,
                        estimator_model=model)
        names = ("T_mean", "dTr_mean", "dTz_mean")
        if isinstance(plant, FdSolver):
            assert received == {"rom": [], "fd": [names] * 11}
        else:
            assert received == {"rom": [names], "fd": []}

    def test_fd_plant_rejects_a_fractional_fd_step_count(self):
        cooling = scenario_cooling("SC")
        solver = FdSolver(PAPER, cooling, FdConfig(16, 16, 0.3))
        with pytest.raises(ValueError, match=r"1\.0 s .* 0\.3 s"):
            closed_loop_run(solver, "SC", 20.0, 1e4, dt=1.0, horizon=10.0,
                            estimator_model=assemble(PAPER, cooling, 2, 2))

    def test_short_heat_series_and_bad_dt_rejected(self):
        model = assemble(PAPER, scenario_cooling("SC"), 2, 2)
        for n in (5, 50):
            with pytest.raises(ValueError, match=r"q must broadcast to \(11,\)"):
                closed_loop_run(model, "SC", 20.0, np.full(n, 1e4), dt=1.0,
                                horizon=10.0)
        for dt in (0.0, -1.0):
            with pytest.raises(ValueError, match="dt must be positive"):
                closed_loop_run(model, "SC", 20.0, 1e4, dt=dt, horizon=10.0)

    @pytest.mark.parametrize("plant", ["fd", "rom"])
    @pytest.mark.parametrize("horizon", [-1.0, np.inf, np.nan])
    def test_bad_horizon_raises_before_any_build(self, monkeypatch, plant, horizon):
        """The step grid is checked first: no estimator model is assembled
        and no estimator is built for a run that cannot start."""
        cooling = scenario_cooling("aTSC")
        plant = (FdSolver(PAPER, cooling, FdConfig(16, 16, 0.5)) if plant == "fd"
                 else assemble(PAPER, cooling, 2, 2))
        built = []
        assemble_, init = control.assemble, OpenLoopEstimator.__init__
        monkeypatch.setattr(control, "assemble",
                            lambda *a: built.append("assemble") or assemble_(*a))
        monkeypatch.setattr(OpenLoopEstimator, "__init__",
                            lambda *a: built.append("estimator") or init(*a))
        with pytest.raises(ValueError, match="horizon"):
            closed_loop_run(plant, "aTSC", 20.0, 4e4, dt=2.0, horizon=horizon)
        assert built == []

    @pytest.mark.parametrize("plant", ["fd", "rom"])
    @pytest.mark.parametrize("bad, match", [
        ({"setpoint": np.nan}, "setpoint"),
        ({"setpoint": np.inf}, "setpoint"),
        ({"gains": (np.nan, 0.05)}, "kp"),
        ({"gains": (2.0, np.inf)}, "ki"),
        ({"limits": (np.nan, 40.0)}, "output_limits"),
        ({"limits": (-20.0, np.inf)}, "output_limits"),
        ({"limits": (np.nan, np.nan)}, "output_limits"),
        ({"scenario": (), "gains": (np.nan, np.nan)}, "kp"),
        ({"scenario": (), "limits": (np.nan, np.nan)}, "output_limits"),
    ], ids=["nan-setpoint", "inf-setpoint", "nan-kp", "inf-ki", "nan-lo", "inf-hi",
            "nan-limits", "no-side-nan-gains", "no-side-nan-limits"])
    def test_bad_controller_data_raises_before_any_build(self, monkeypatch, plant,
                                                         bad, match):
        """A non-finite setpoint, gain or limit is named, and no estimator
        model is assembled and no estimator built for it, also when no side
        is under control and so no controller is built."""
        cooling = scenario_cooling("aTSC")
        plant = (FdSolver(PAPER, cooling, FdConfig(16, 16, 0.5)) if plant == "fd"
                 else assemble(PAPER, cooling, 2, 2))
        built = []
        assemble_, init = control.assemble, OpenLoopEstimator.__init__
        monkeypatch.setattr(control, "assemble",
                            lambda *a: built.append("assemble") or assemble_(*a))
        monkeypatch.setattr(OpenLoopEstimator, "__init__",
                            lambda *a: built.append("estimator") or init(*a))
        kwargs = {"scenario": "aTSC", "setpoint": 20.0, **bad}
        with pytest.raises(ValueError, match=match):
            closed_loop_run(plant, q=4e4, dt=2.0, horizon=10.0, **kwargs)
        assert built == []

    def test_estimated_mean_is_the_reconstructed_mean(self):
        """The estimator's precomputed modal row gives the volume mean of the
        reconstructed field along a driven trajectory."""
        model = assemble(PAPER, scenario_cooling("btTC"), 3, 3)
        tinf = np.array(model.cooling.T_inf)
        est = OpenLoopEstimator(model, dt=4.0, T_init=15.0, tinf0=tinf)
        means = [est.mean_temperature()]
        for k in range(10):
            est.step(tinf * (1.0 + 0.1 * k), 6e4)
            means.append(est.mean_temperature())
        u_rows = cooling_powers(
            model, np.vstack([tinf] + [tinf * (1.0 + 0.1 * k) for k in range(10)]))
        modal = discretize(model, 4.0).trajectory(
            project_initial_state(model, 15.0, tinf),
            np.column_stack([u_rows[1:], np.full(10, 6e4)]))
        metrics = FieldEvaluator(model).metrics(modal, u_rows)
        np.testing.assert_allclose(means, metrics.T_mean, rtol=1e-13)

    @pytest.mark.parametrize("est_count", [None, 2], ids=["nominal", "O4-estimator"])
    def test_rom_plant_replays_its_commands(self, est_count):
        """The plant record is, bit for bit, an open-loop ``run`` of the
        plant model under the recorded commands from the baseline, whether or
        not the estimator is the plant itself: each row is recorded under the
        command applied up to that step, and step 0 under the baseline."""
        model = assemble(PAPER, scenario_cooling("aTSC"), 3, 3)
        est = None if est_count is None else \
            assemble(PAPER, scenario_cooling("aTSC"), est_count, est_count)
        q = np.linspace(2e4, 8e4, 61)
        trace = closed_loop_run(model, "aTSC", 20.0, q, dt=2.0, horizon=120.0,
                                estimator_model=est)
        tinf = commanded_coolant(trace, model.cooling)
        res = run(model, project_initial_state(model, 15.0), tinf, q,
                  dt=2.0, horizon=120.0, metrics_stride=1, tinf0=model.cooling.T_inf)
        assert np.array_equal(trace.u, cooling_powers(model, tinf))
        for name in ("outputs", "T_mean", "dTr_mean", "dTz_mean"):
            assert np.array_equal(getattr(trace, name), getattr(res, name)), name
        assert (np.abs(trace.T_mean - trace.T_hat_mean).max() <= 1e-9) == (est is None)

    def test_unknown_active_side_rejected(self):
        model = assemble(PAPER, scenario_cooling("SC"), 2, 2)
        with pytest.raises(ValueError):
            closed_loop_run(model, ("core",), 20.0, 0.0, dt=1.0, horizon=10.0)

    def test_plant_of_another_type_rejected(self):
        """The plant's type is checked before any of its fields is read."""
        with pytest.raises(TypeError, match="plant must be a ReducedModel or FdSolver"):
            closed_loop_run(object(), "SC", 20.0, 1e4, 1.0, 10.0)
