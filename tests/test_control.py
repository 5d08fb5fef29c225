"""PI regulation of the mean temperature with an open-loop model estimator.

Oracles: hand-iterated PI update law, estimator/plant identity in the
nominal case, the FD solver as an independent plant, and closed-loop
tracking-band checks.
"""

import numpy as np
import pytest

from celltherm.control import (
    OpenLoopEstimator,
    PiController,
    closed_loop_run,
    pi_step,
)
from celltherm.core import (
    CYLINDRICAL,
    CellSpec,
    boundary_input_from_cooling,
    scenario_cooling,
)
from celltherm.galerkin import assemble, project_initial_state
from celltherm.reference import FdConfig, FdSolver, fd_solve
from celltherm.simulate import FieldEvaluator, discretize, run

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

    def test_validation(self):
        with pytest.raises(ValueError):
            PiController(1.0, 1.0, output_limits=(2.0, 1.0))
        c = PiController(1.0, 1.0)
        with pytest.raises(ValueError):
            pi_step(c, 0.0, 0.0)


class TestEstimator:
    def test_nominal_estimator_equals_plant(self):
        model = assemble(PAPER, scenario_cooling("aTSC"), 3, 3)
        u = boundary_input_from_cooling(model.cooling).as_vector(CYLINDRICAL)
        trace = closed_loop_run(model, "aTSC", 20.0, 4e4, dt=2.0, horizon=100.0)
        assert np.abs(trace.T_mean - trace.T_hat_mean).max() <= 1e-9

    def test_estimate_mean_steps_the_state(self):
        model = assemble(PAPER, scenario_cooling("SC"), 2, 2)
        u = boundary_input_from_cooling(model.cooling).as_vector(CYLINDRICAL)
        est = OpenLoopEstimator(model, dt=5.0, T_init=15.0, u0=u)
        y_before = est.y.copy()
        est.step(u, 5e4)
        assert not np.allclose(est.y, y_before)
        assert est.mean_temperature(u) > 15.0

    def test_zero_heat_equilibrium_estimate_constant(self):
        model = assemble(PAPER, scenario_cooling("SC"), 3, 3)
        u = boundary_input_from_cooling(model.cooling).as_vector(CYLINDRICAL)
        est = OpenLoopEstimator(model, dt=10.0, T_init=15.0, u0=u)
        first = est.mean_temperature(u)
        for _ in range(20):
            est.step(u, 0.0)
        assert est.mean_temperature(u) == pytest.approx(first, abs=5e-3)

    def test_low_order_estimator_tracks_fd_plant_steady(self):
        """Open-loop O=4 estimate vs the FD field under constant heat:
        steady mean-temperature mismatch stays below 0.3 degC."""
        cooling = scenario_cooling("SC")
        solver = FdSolver(PAPER, cooling, FdConfig(48, 48, 2.0))
        model = assemble(PAPER, cooling, 2, 2)
        u = boundary_input_from_cooling(cooling).as_vector(CYLINDRICAL)
        est = OpenLoopEstimator(model, dt=2.0, T_init=15.0, u0=u)
        field = solver.uniform_field(15.0)
        tinf = solver.tinf_from_inputs(u)
        for _ in range(3000):
            field = solver.step(field, tinf, 5e4)
            est.step(u, 5e4)
        fd_mean = solver.metrics(field).T_mean
        assert abs(est.mean_temperature(u) - fd_mean) <= 0.3


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
        fd = fd_solve(PAPER, cooling, np.repeat(trace.u, 4, axis=0)[:121],
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

    def test_estimated_mean_is_the_reconstructed_mean(self):
        """The estimator's precomputed modal row gives the volume mean of the
        reconstructed field along a driven trajectory."""
        model = assemble(PAPER, scenario_cooling("btTC"), 3, 3)
        u = boundary_input_from_cooling(model.cooling).as_vector(CYLINDRICAL)
        est = OpenLoopEstimator(model, dt=4.0, T_init=15.0, u0=u)
        means = [est.mean_temperature(u)]
        for k in range(10):
            est.step(u * (1.0 + 0.1 * k), 6e4)
            means.append(est.mean_temperature(u * (1.0 + 0.1 * k)))
        u_rows = np.vstack([u] + [u * (1.0 + 0.1 * k) for k in range(10)])
        modal = discretize(model, 4.0).trajectory(
            model.to_modal(project_initial_state(model, 15.0, u)),
            np.column_stack([u_rows[1:], np.full(10, 6e4)]))
        metrics = FieldEvaluator(model).metrics(modal, u_rows)
        np.testing.assert_allclose(means, metrics.T_mean, rtol=1e-13)

    @pytest.mark.parametrize("est_count", [None, 2], ids=["nominal", "O4-estimator"])
    def test_rom_plant_replays_its_commands(self, est_count):
        """The plant record equals an open-loop ``run`` of the plant model
        under the recorded commands, whether or not the estimator is the
        plant itself; each row is reconstructed with the input applied up to
        that step."""
        model = assemble(PAPER, scenario_cooling("aTSC"), 3, 3)
        est = None if est_count is None else \
            assemble(PAPER, scenario_cooling("aTSC"), est_count, est_count)
        q = np.linspace(2e4, 8e4, 61)
        trace = closed_loop_run(model, "aTSC", 20.0, q, dt=2.0, horizon=120.0,
                                estimator_model=est)
        u0 = boundary_input_from_cooling(model.cooling).as_vector(CYLINDRICAL)
        res = run(model, project_initial_state(model, 15.0, u0), trace.u, q,
                  dt=2.0, horizon=120.0, metrics_stride=10**9)
        u_rec = np.vstack([u0, trace.u[:-1]])
        np.testing.assert_allclose(trace.outputs - u_rec @ model.Dft.T,
                                   res.outputs - trace.u @ model.Dft.T,
                                   rtol=0, atol=1e-10)
        assert (np.abs(trace.T_mean - trace.T_hat_mean).max() <= 1e-9) == (est is None)

    def test_unknown_active_side_rejected(self):
        model = assemble(PAPER, scenario_cooling("SC"), 2, 2)
        with pytest.raises(ValueError):
            closed_loop_run(model, ("core",), 20.0, 0.0, dt=1.0, horizon=10.0)
