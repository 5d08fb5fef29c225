"""Finite-difference oracle and two-state lumped benchmark.

Oracles for the oracles: equilibrium fixed points, the adiabatic energy
balance, Richardson self-convergence, the analytic steady state of the
2-ODE lumped system, a fine-step RK4 integrator, and a global surface
energy balance.
"""

import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator
from scipy.linalg import expm

from celltherm.core import (
    CYLINDRICAL,
    POUCH,
    SIDES,
    CellSpec,
    CoolingConfig,
    SideCooling,
    scenario_cooling,
)
from celltherm.exceptions import NumericalError, UnsupportedShapeError
from celltherm.reference import (
    BACKWARD_EULER,
    CRANK_NICOLSON,
    FdConfig,
    FdSolver,
    TecModel,
    _differences,
    fd_solve,
    tec_metrics,
    tec_run,
    timing_harness,
)
from celltherm.simulate import METRIC_NAMES, _reduce_fields
from strategies import cells_and_coolings

PAPER = CellSpec(shape=CYLINDRICAL, L=0.198, R_out=0.032, R_in=0.004,
                 rho=2118.0, cp=795.0, k_r=0.67, k_z=66.6)
RADIAL_ONLY = CoolingConfig(SideCooling(400.0, 15.0), SideCooling(0.0, 15.0),
                            SideCooling(0.0, 15.0), SideCooling(0.0, 15.0))
INSULATED = CoolingConfig(*(SideCooling(0.0, 15.0) for _ in range(4)))
POUCH_CELL = CellSpec(shape=POUCH, L=0.2, D=0.1, rho=2118.0, cp=795.0,
                      k_r=0.9, k_z=30.0)
# four distinct nonzero convection coefficients, core / back face included
ALL_SIDES = CoolingConfig(SideCooling(400.0, 15.0), SideCooling(120.0, 15.0),
                          SideCooling(30.0, 15.0), SideCooling(250.0, 15.0))


def _dense_fd_operator(spec, cooling, cfg):
    """The FD scheme built node by node from the 5-point ghost-node stencil:
    returns (r, z, rate, binp) with d(vec T)/dt = rate vec T + binp T_inf
    + q / (rho cp), T_inf ordered [surface, core, top, bottom]."""
    r = (np.linspace(spec.R_in, spec.R_out, cfg.n_r) if spec.is_cylindrical
         else np.linspace(0.0, spec.D, cfg.n_r))
    z = np.linspace(0.0, spec.L, cfg.n_z)
    dr, dz = r[1] - r[0], z[1] - z[0]
    n_r, n_z = cfg.n_r, cfg.n_z
    h = [cooling.surface.h, cooling.core.h, cooling.top.h, cooling.bottom.h]
    rate = np.zeros((n_r * n_z, n_r * n_z))
    binp = np.zeros((n_r * n_z, 4))
    for i in range(n_r):
        conv = spec.k_r / (2.0 * r[i] * dr) if spec.is_cylindrical else 0.0
        for j in range(n_z):
            row = i * n_z + j
            # (neighbour, coefficient, input column, spacing, conductivity)
            for (ni, nj), c, col, d, k in (
                    ((i + 1, j), spec.k_r / dr**2 + conv, 0, dr, spec.k_r),
                    ((i - 1, j), spec.k_r / dr**2 - conv, 1, dr, spec.k_r),
                    ((i, j + 1), spec.k_z / dz**2, 2, dz, spec.k_z),
                    ((i, j - 1), spec.k_z / dz**2, 3, dz, spec.k_z)):
                rate[row, row] -= c
                if 0 <= ni < n_r and 0 <= nj < n_z:
                    rate[row, ni * n_z + nj] += c
                else:
                    # T_ghost = T_mirror - (2 d h / k)(T_node - T_inf)
                    mi, mj = 2 * i - ni, 2 * j - nj
                    rate[row, mi * n_z + mj] += c
                    g = c * 2.0 * d * h[col] / k
                    rate[row, row] -= g
                    binp[row, col] += g
    rho_cp = spec.rho * spec.cp
    return r, z, rate / rho_cp, binp / rho_cp


def _dense_theta_step(spec, cfg, rate, binp, field, tinf, q):
    """One theta-method step of the dense scheme, by a dense solve."""
    theta = 1.0 if cfg.scheme == BACKWARD_EULER else 0.5
    ident = np.eye(rate.shape[0])
    rhs = ((ident + (1.0 - theta) * cfg.dt * rate) @ field.reshape(-1)
           + cfg.dt * (binp @ tinf + q / (spec.rho * spec.cp)))
    return np.linalg.solve(ident - theta * cfg.dt * rate, rhs).reshape(field.shape)


def _dense_fd_reference(spec, cooling, cfg, tinf, q, T_init):
    """Fields of the theta-method FD scheme, built node by node from the
    5-point ghost-node stencil as a dense matrix and stepped with a dense
    solve. ``tinf`` is (K, 4) [surface, core, top, bottom], ``q`` (K,)."""
    r, z, rate, binp = _dense_fd_operator(spec, cooling, cfg)
    fields = [np.full((cfg.n_r, cfg.n_z), float(T_init))]
    for k in range(len(q)):
        fields.append(_dense_theta_step(spec, cfg, rate, binp, fields[-1],
                                        tinf[k], q[k]))
    return r, z, fields


class TestFdBasics:
    def test_equilibrium_stays_constant(self):
        fd = fd_solve(PAPER, scenario_cooling("SC"), None, 0.0,
                      FdConfig(24, 24, 0.5), T_init=15.0, horizon=20.0,
                      metrics_stride=10)
        assert np.abs(fd.outputs - 15.0).max() <= 1e-10
        assert np.abs(fd.final_field - 15.0).max() <= 1e-10

    def test_equilibrium_with_cooled_core(self):
        """With tinf = None every coolant temperature comes from the config,
        the core's included, although a cylinder's model input vector has no
        core entry."""
        fd = fd_solve(PAPER, ALL_SIDES, None, 0.0, FdConfig(32, 32, 0.5),
                      T_init=15.0, horizon=100.0, metrics_stride=10**9)
        assert np.abs(fd.outputs - 15.0).max() <= 1e-9
        assert np.abs(fd.final_field - 15.0).max() <= 1e-9

    def test_explicit_baseline_temperatures_equal_the_config_run(self):
        """On a cylinder with a cooled core, the config's own coolant
        temperatures passed as one row, or as one row per step, give the
        None run bit for bit: the core keeps its coolant."""
        cooling = CoolingConfig(SideCooling(400.0, 15.0), SideCooling(120.0, 25.0),
                                SideCooling(30.0, 10.0), SideCooling(250.0, 20.0))
        cfg, horizon = FdConfig(16, 16, 0.5), 600.0
        baseline = [cooling.side(s).T_inf for s in SIDES]
        runs = [fd_solve(PAPER, cooling, tinf, 5e4, cfg, 15.0, horizon, 100)
                for tinf in (None, baseline, np.tile(baseline, (1201, 1)))]
        for fd in runs[1:]:
            for name in ("outputs", "final_field", "T_mean", "dTr_max"):
                assert getattr(fd, name).tobytes() == getattr(runs[0], name).tobytes()

    @pytest.mark.parametrize("args", [
        dict(horizon=-1.0), dict(horizon=np.inf), dict(horizon=np.nan),
        dict(q=np.full(5, 1e5)), dict(tinf=[15.0] * 3)],
        ids=["negative", "inf", "nan", "short-q", "narrow-tinf"])
    def test_bad_grid_or_series_raises_before_the_solver_is_built(self, monkeypatch,
                                                                  args):
        built = []
        init = FdSolver.__init__
        monkeypatch.setattr(FdSolver, "__init__",
                            lambda self, *a: built.append(1) or init(self, *a))
        run = {"tinf": None, "q": 1e5, "horizon": 10.0, **args}
        with pytest.raises(ValueError, match="horizon|must broadcast"):
            fd_solve(PAPER, ALL_SIDES, run["tinf"], run["q"],
                     FdConfig(16, 16, 0.5), horizon=run["horizon"])
        assert built == []

    @pytest.mark.parametrize("args, match", [
        (dict(output_stride=0), "output_stride"), (dict(metrics_stride=0), "metrics_stride"),
        (dict(output_stride=2.5), "output_stride"), (dict(metric_names=()), "at least one"),
        (dict(metric_names=("dTr_avg",)), "dTr_avg")],
        ids=["zero-output-stride", "zero-metrics-stride", "float-output-stride",
             "no-names", "unknown-name"])
    def test_bad_stride_or_names_raise_before_the_solver_is_built(self, monkeypatch,
                                                                  args, match):
        built = []
        init = FdSolver.__init__
        monkeypatch.setattr(FdSolver, "__init__",
                            lambda self, *a: built.append(1) or init(self, *a))
        with pytest.raises(ValueError, match=match):
            fd_solve(PAPER, ALL_SIDES, None, 1e5, FdConfig(64, 64, 0.05), horizon=1.0,
                     **args)
        assert built == []

    @pytest.mark.parametrize("horizon,stride", [(0.0, 1), (4.0, 1), (5.0, 3), (5.0, 10**9)])
    def test_one_field_reconstruction_per_metric_sample(self, monkeypatch, horizon,
                                                        stride):
        """The last step is always a metric sample, so the final field is
        that sample's field, not a second reconstruction of the same state."""
        calls = []
        grid = FdSolver.grid
        monkeypatch.setattr(FdSolver, "grid",
                            lambda self, state: calls.append(1) or grid(self, state))
        fd = fd_solve(PAPER, ALL_SIDES, None, 1e5, FdConfig(12, 10, 0.5),
                      T_init=15.0, horizon=horizon, metrics_stride=stride)
        assert len(calls) == len(fd.metrics_times)
        solver = FdSolver(PAPER, ALL_SIDES, FdConfig(12, 10, 0.5))
        state = solver.uniform_field(15.0)
        for _ in range(len(fd.times) - 1):
            state = solver.step(state, np.full(4, 15.0), 1e5)
        np.testing.assert_array_equal(fd.final_field, grid(solver, state))

    @pytest.mark.parametrize("stride", [1, 5])
    def test_outputs_only_run(self, monkeypatch, stride):
        """``metrics_stride=None`` gives the outputs and the final field of
        a run sampled at the same steps bit for bit, calls no
        ``FdSolver.metrics``, reconstructs the field once, for
        ``final_field``, and leaves the metric arrays empty."""
        q = np.linspace(0.0, 1e5, 21)
        sampled = fd_solve(PAPER, ALL_SIDES, None, q, FdConfig(12, 10, 0.5),
                           horizon=10.0, metrics_stride=stride, output_stride=stride)
        calls = []
        grid, metrics = FdSolver.grid, FdSolver.metrics
        monkeypatch.setattr(FdSolver, "grid",
                            lambda self, state: calls.append("grid") or grid(self, state))
        monkeypatch.setattr(FdSolver, "metrics",
                            lambda self, *a: calls.append("metrics") or metrics(self, *a))
        fd = fd_solve(PAPER, ALL_SIDES, None, q, FdConfig(12, 10, 0.5),
                      horizon=10.0, metrics_stride=None, output_stride=stride)
        assert calls == ["grid"]
        np.testing.assert_array_equal(fd.times, sampled.times)
        np.testing.assert_array_equal(fd.outputs, sampled.outputs)
        np.testing.assert_array_equal(fd.final_field, sampled.final_field)
        assert fd.metrics_times.shape == fd.T_mean.shape == fd.dTz_mean.shape == (0,)

    def test_insulated_energy_balance(self):
        fd = fd_solve(PAPER, INSULATED, None, 5e4, FdConfig(64, 64, 0.1),
                      T_init=15.0, horizon=50.0, metrics_stride=50)
        slope = (fd.T_mean[-1] - fd.T_mean[0]) / (
            fd.metrics_times[-1] - fd.metrics_times[0])
        expected = 5e4 / (PAPER.rho * PAPER.cp)
        assert slope == pytest.approx(expected, rel=1e-3)

    def test_backward_euler_matches_cn_at_steady(self):
        cfg_cn = FdConfig(32, 32, 1.0, CRANK_NICOLSON)
        cfg_be = FdConfig(32, 32, 1.0, BACKWARD_EULER)
        a = fd_solve(PAPER, RADIAL_ONLY, None, 1e5, cfg_cn, 15.0, 20000.0,
                     metrics_stride=10**9)
        b = fd_solve(PAPER, RADIAL_ONLY, None, 1e5, cfg_be, 15.0, 20000.0,
                     metrics_stride=10**9)
        assert np.abs(a.outputs[-1] - b.outputs[-1]).max() <= 1e-3

    def test_grid_refinement_second_order(self):
        """Richardson self-convergence on a smooth constant-q run: the
        observed order against a 256x256 reference is at least 1.8."""
        cooling = scenario_cooling("SC")
        horizon, dt = 50.0, 0.05
        ref = fd_solve(PAPER, cooling, None, 1e5, FdConfig(256, 256, dt),
                       15.0, horizon, metrics_stride=10**9)
        errs = []
        for n in (32, 64):
            sol = fd_solve(PAPER, cooling, None, 1e5, FdConfig(n, n, dt),
                           15.0, horizon, metrics_stride=10**9)
            errs.append(np.abs(sol.outputs[-1] - ref.outputs[-1]).max())
        order = np.log2(errs[0] / errs[1])
        assert order >= 1.8

    def test_surface_flux_energy_balance(self):
        """At steady state the convective surface flux carries the full
        volumetric generation: q (R_out^2 - R_in^2) / (2 R_out)."""
        solver = FdSolver(PAPER, RADIAL_ONLY, FdConfig(64, 64, 5.0))
        field = solver.uniform_field(15.0)
        tinf = np.array([15.0, 0.0, 0.0, 0.0])
        for _ in range(4000):
            field = solver.step(field, tinf, 1e5)
        expected = 1e5 * (0.032**2 - 0.004**2) / (2 * 0.032)
        assert solver.surface_flux(field, tinf) == pytest.approx(expected, rel=0.01)

    def test_surface_flux_uses_the_stepped_coolant(self):
        """A cell held on 25 degC surface coolant, not its config's 15 degC,
        settles at 25 degC and sheds no heat: the flux is taken against the
        coolant the state was stepped with (measured 1.3e-11 W m^-2; against
        the config's T_inf it would read 4000)."""
        solver = FdSolver(PAPER, RADIAL_ONLY, FdConfig(16, 16, 10.0))
        tinf = np.array([25.0, 15.0, 15.0, 15.0])
        field = solver.step(solver.uniform_field(15.0), tinf, 0.0, 3000)
        assert np.allclose(solver.outputs(field), 25.0, rtol=0.0, atol=1e-9)
        assert abs(solver.surface_flux(field, tinf)) <= 1e-9

    def test_pouch_grid(self):
        pouch = CellSpec(shape=POUCH, L=0.2, D=0.1, rho=2118.0, cp=795.0,
                         k_r=0.9, k_z=30.0)
        fd = fd_solve(pouch, scenario_cooling("SC", POUCH), None, 0.0,
                      FdConfig(16, 16, 1.0), T_init=15.0, horizon=5.0)
        assert np.abs(fd.outputs - 15.0).max() <= 1e-10

    @pytest.mark.parametrize("args, match", [
        ((2, 16, 0.1), "n_r"),
        ((16, 16, -1.0), "dt"),
        ((16, 16, 0.1, "leapfrog"), "scheme"),
        ((16.0, 16, 0.1), "n_r"),
        ((16, 16.5, 0.1), "n_z"),
        ((True, 16, 0.1), "n_r"),
        ((16, 16, True), "dt"),
    ], ids=["too-few-nodes", "negative-dt", "scheme", "float-n_r", "float-n_z",
            "bool-n_r", "bool-dt"])
    def test_config_validation(self, args, match):
        with pytest.raises(ValueError, match=match):
            FdConfig(*args)

    def test_numpy_integer_counts_accepted(self):
        solver = FdSolver(PAPER, ALL_SIDES, FdConfig(np.int64(8), np.int32(5), 2.0))
        state = solver.step(solver.uniform_field(15.0), [15.0] * 4, 1e5, np.int64(3))
        assert solver.grid(state).shape == (8, 5)

    @pytest.mark.parametrize("dt", [np.nan, np.inf])
    def test_nonfinite_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="FdConfig.dt"):
            FdConfig(16, 16, dt)

    def test_input_series_need_one_row_per_time(self):
        """A 10 s horizon at dt 1 s has 11 sample times: a heat series of 50
        or 10 samples and an input vector of the wrong width are rejected,
        not truncated or read short."""
        cooling, cfg = scenario_cooling("SC"), FdConfig(8, 8, 1.0)
        for n in (50, 10):
            with pytest.raises(ValueError, match=r"q must broadcast to \(11,\)"):
                fd_solve(PAPER, cooling, None, np.full(n, 1e4), cfg, horizon=10.0)
        with pytest.raises(ValueError, match=r"tinf must broadcast to \(11, 4\)"):
            fd_solve(PAPER, cooling, np.full(5, 6000.0), 1e4, cfg, horizon=10.0)
        held = fd_solve(PAPER, cooling, None, 1e4, cfg, horizon=10.0)
        series = fd_solve(PAPER, cooling, None, np.full(11, 1e4), cfg, horizon=10.0)
        assert np.array_equal(series.outputs, held.outputs)


class TestFdEquivalence:
    """fd_solve against a dense matrix built straight from the stencil, on a
    non-square grid (a swapped r/z index order fails) with per-step inputs."""

    @pytest.mark.parametrize("spec", [PAPER, POUCH_CELL], ids=["cylinder", "pouch"])
    @pytest.mark.parametrize("scheme", [CRANK_NICOLSON, BACKWARD_EULER])
    def test_matches_dense_stencil(self, spec, scheme):
        cfg = FdConfig(8, 5, 2.0, scheme)
        n_steps = 30
        rng = np.random.default_rng(11)
        # every side cooled, a cylinder's core too, by its own coolant
        tinf_all = rng.uniform(5.0, 30.0, (n_steps + 1, 4))
        q = rng.uniform(0.0, 2e5, n_steps + 1)
        fd = fd_solve(spec, ALL_SIDES, tinf_all, q, cfg, T_init=20.0,
                      horizon=n_steps * cfg.dt, metrics_stride=4)
        r, z, fields = _dense_fd_reference(spec, ALL_SIDES, cfg,
                                           tinf_all[:-1], q[:-1], 20.0)

        pts = [(r[-1], z.mean()), (r[0], z.mean()), (r.mean(), z[-1]),
               (r.mean(), z[0])]
        ref_out = np.array([RegularGridInterpolator((r, z), f)(pts) for f in fields])
        np.testing.assert_allclose(fd.outputs, ref_out, rtol=0, atol=1e-10)
        np.testing.assert_allclose(fd.final_field, fields[-1], rtol=0, atol=1e-10)

        idx = list(range(0, n_steps + 1, 4)) + [n_steps]
        np.testing.assert_array_equal(fd.metrics_times, fd.times[idx])
        w_r = r if spec.is_cylindrical else np.ones_like(r)
        for m, k in enumerate(idx):
            f = fields[k]
            t_mean = (np.trapezoid(np.trapezoid(f, z, axis=1) * w_r, r)
                      / np.trapezoid(np.trapezoid(np.ones_like(f), z, axis=1) * w_r, r))
            g_r = np.abs(np.gradient(f, r, axis=0))
            g_z = np.abs(np.gradient(f, z, axis=1))
            got = [fd.T_mean[m], fd.T_max[m], fd.T_min[m], fd.dT[m]]
            want = [t_mean, f.max(), f.min(), f.max() - f.min()]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
            got = [fd.dTr_max[m], fd.dTz_max[m], fd.dTr_mean[m], fd.dTz_mean[m]]
            want = [g_r.max(), g_z.max(), g_r.mean(), g_z.mean()]
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

        solver = FdSolver(spec, ALL_SIDES, cfg)
        state = solver.uniform_field(20.0)
        for k in range(n_steps):
            state = solver.step(state, tinf_all[k], q[k])
            np.testing.assert_allclose(solver.outputs(state), fd.outputs[k + 1],
                                       rtol=0, atol=1e-12)
        np.testing.assert_allclose(solver.grid(state), fd.final_field,
                                   rtol=0, atol=1e-12)


@st.composite
def fd_cases(draw):
    """A random physical cell and cooling (any side cooled or insulated, a
    cylinder's core too), a small grid, a scheme and a step, and the seed of
    a per-step input sequence."""
    unit = st.floats(0.0, 1.0)
    shape = draw(st.sampled_from([CYLINDRICAL, POUCH]))
    props = dict(L=0.05 + 0.25 * draw(unit), rho=1500.0 + 1500.0 * draw(unit),
                 cp=700.0 + 500.0 * draw(unit), k_r=0.3 + 3.0 * draw(unit),
                 k_z=1.0 + 99.0 * draw(unit))
    if shape == CYLINDRICAL:
        # R_in > R_out / 5 keeps dr < 2 R_in on 3 radial nodes, so the
        # stencil's inner radial coefficient k/dr^2 - k/(2 r dr) stays positive
        r_out = 0.01 + 0.04 * draw(unit)
        spec = CellSpec(shape=shape, R_out=r_out,
                        R_in=r_out * (0.25 + 0.5 * draw(unit)), **props)
    else:
        spec = CellSpec(shape=shape, D=0.005 + 0.1 * draw(unit), **props)
    sides = [SideCooling(5.0 + 995.0 * draw(unit) if draw(st.booleans()) else 0.0,
                         40.0 * draw(unit)) for _ in range(4)]
    cfg = FdConfig(draw(st.integers(3, 12)), draw(st.integers(3, 12)),
                   0.05 + 10.0 * draw(unit),
                   draw(st.sampled_from([CRANK_NICOLSON, BACKWARD_EULER])))
    return spec, CoolingConfig(*sides), cfg, draw(st.integers(0, 2**32 - 1))


def _held_inputs(seed, n_runs=6):
    """Per-step (tinf, q) rows in runs of 1 to 4 repeated rows, as a
    staircase input resampled to a finer step gives."""
    rng = np.random.default_rng(seed)
    rows = []
    for length in rng.integers(1, 5, n_runs):
        tinf, q = rng.uniform(0.0, 40.0, 4), float(rng.uniform(0.0, 3e5))
        rows += [(tinf.copy(), q) for _ in range(length)]
    return rows


class TestFactoredStep:
    """The factored step and outputs against the dense stencil, over random
    cells, coolings, grids and held inputs."""

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(fd_cases())
    def test_step_and_outputs_match_dense_stencil(self, case):
        spec, cooling, cfg, seed = case
        solver = FdSolver(spec, cooling, cfg)
        r, z, rate, binp = _dense_fd_operator(spec, cooling, cfg)
        pts = [(r[-1], z.mean()), (r[0], z.mean()), (r.mean(), z[-1]),
               (r.mean(), z[0])]
        state = solver.uniform_field(20.0)
        for tinf, q in _held_inputs(seed):
            field = solver.grid(state)
            interp = RegularGridInterpolator((r, z), field)(pts)
            assert np.abs(solver.outputs(state) - interp).max() <= (
                1e-12 * np.abs(field).max())
            state = solver.step(state, tinf, q)
            want = _dense_theta_step(spec, cfg, rate, binp, field, tinf, q)
            assert np.abs(solver.grid(state) - want).max() <= 1e-12 * np.abs(want).max()

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(fd_cases())
    def test_remembered_term_is_bit_identical_to_a_fresh_one(self, case):
        spec, cooling, cfg, seed = case
        solver = FdSolver(spec, cooling, cfg)
        state = solver.uniform_field(20.0)
        for tinf, q in _held_inputs(seed):
            fresh = FdSolver(spec, cooling, cfg).step(state, tinf, q)
            state = solver.step(state, tinf, q)
            assert state.tobytes() == fresh.tobytes()

    def test_threads_sharing_a_solver_get_the_terms_of_their_own_inputs(self):
        """Threads stepping one solver, each with its own held inputs, end
        in the states a solver of their own gives."""
        cfg = FdConfig(64, 64, 2.0)   # steps long enough for threads to interleave
        shared = FdSolver(PAPER, ALL_SIDES, cfg)
        seeds = range(6)   # more threads than cores

        def trajectory(solver, seed):
            state = solver.uniform_field(20.0)
            for tinf, q in _held_inputs(seed, n_runs=200):
                state = solver.step(state, tinf, q)
            return state

        want = {s: trajectory(FdSolver(PAPER, ALL_SIDES, cfg), s) for s in seeds}
        got = {}
        threads = [threading.Thread(
            target=lambda s=s: got.__setitem__(s, trajectory(shared, s)))
            for s in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)   # interleave the threads often
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(got[s].tobytes() == want[s].tobytes() for s in seeds)

    @pytest.mark.parametrize("n", [0, -3, 2.0, True])
    def test_non_positive_step_count_rejected(self, n):
        solver = FdSolver(PAPER, ALL_SIDES, FdConfig(8, 5, 2.0))
        with pytest.raises(ValueError, match="step count"):
            solver.step(solver.uniform_field(15.0), [15.0] * 4, 1e5, n)

    @pytest.mark.parametrize("tinf, q", [
        ([15.0] * 4, float("nan")),
        ([15.0] * 4, float("inf")),
        ([15.0] * 4, -float("inf")),
        ([15.0, 15.0, float("nan"), 15.0], 1e5),
        ([float("inf"), 15.0, 15.0, 15.0], 1e5),
    ], ids=["q-nan", "q-inf", "q-minus-inf", "tinf-nan", "tinf-inf"])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_input_raises(self, tinf, q):
        solver = FdSolver(PAPER, ALL_SIDES, FdConfig(8, 5, 2.0))
        state = solver.uniform_field(15.0)
        state = solver.step(state, [15.0] * 4, 1e5)
        for _ in range(2):   # a fresh input term, then a remembered one
            with pytest.raises(NumericalError):
                solver.step(state, tinf, q)

    @pytest.mark.parametrize("tinf", [[15.0] * 3, [[15.0] * 4], 15.0],
                             ids=["three", "one-by-four", "scalar"])
    def test_tinf_of_wrong_shape_is_named(self, tinf):
        """A cylinder's three-entry input row, a (1, 4) row or a scalar is a
        ValueError naming ``tinf``, not a failure deeper in the step."""
        solver = FdSolver(PAPER, ALL_SIDES, FdConfig(8, 5, 2.0))
        with pytest.raises(ValueError, match=r"^tinf must have shape \(4,\)"):
            solver.step(solver.uniform_field(15.0), tinf, 1e5)

    @pytest.mark.parametrize("name", [*SIDES, "q"])
    def test_non_finite_input_is_named(self, name):
        """A NaN input is rejected with its name: ``q`` or the ``tinf`` side,
        the insulated core of a cylinder included, where it would not reach
        the field."""
        solver = FdSolver(PAPER, scenario_cooling("SC"), FdConfig(8, 5, 2.0))
        inputs = [15.0] * 4 + [1e5]
        inputs[[*SIDES, "q"].index(name)] = float("nan")
        label = "q" if name == "q" else f"tinf[{name}]"
        with pytest.raises(NumericalError, match=rf"input {re.escape(label)} is not finite"):
            solver.step(solver.uniform_field(15.0), inputs[:4], inputs[4])


class TestHeldSteps:
    """n steps of one held input taken at once against n single steps, and
    strided outputs against every-step outputs, over random cells, coolings
    (an insulated cell's zero mode has g = 1 exactly), grids and schemes."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(fd_cases(), st.integers(1, 200), st.booleans())
    def test_n_steps_at_once_match_n_single_steps(self, case, n, insulated):
        spec, cooling, cfg, seed = case
        if insulated:
            cooling = CoolingConfig(*(SideCooling(0.0, cooling.side(s).T_inf)
                                      for s in SIDES))
        solver = FdSolver(spec, cooling, cfg)
        state = solver.uniform_field(20.0)
        for tinf, q in _held_inputs(seed, n_runs=3):
            want = state
            for _ in range(n):
                want = solver.step(want, tinf, q)
            state = solver.step(state, tinf, q, n)
            assert np.abs(state - want).max() <= 1e-12 * np.abs(want).max()
            state = want

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(fd_cases(), st.integers(2, 7), st.integers(1, 9), st.booleans())
    def test_strided_outputs_match_every_step_outputs(self, case, stride,
                                                      metrics_stride, hold_q):
        spec, cooling, cfg, seed = case
        rows = _held_inputs(seed, n_runs=12)   # runs of 1-4 steps: off the stride
        tinf = np.array([t for t, _ in rows])
        # with q held, only the coolant temperatures change
        q = np.array([rows[0][1] if hold_q else q for _, q in rows])
        horizon = (len(rows) - 1) * cfg.dt
        every = fd_solve(spec, cooling, tinf, q, cfg, 20.0, horizon, metrics_stride)
        strided = fd_solve(spec, cooling, tinf, q, cfg, 20.0, horizon, metrics_stride,
                           output_stride=stride)
        idx = list(range(0, len(every.times), stride))
        idx += [] if idx[-1] == len(every.times) - 1 else [len(every.times) - 1]
        np.testing.assert_array_equal(strided.times, every.times[idx])
        scale = np.abs(every.outputs).max()
        assert np.abs(strided.outputs - every.outputs[idx]).max() <= 1e-12 * scale
        np.testing.assert_array_equal(strided.metrics_times, every.metrics_times)
        for m in ("T_mean", "T_max", "T_min"):
            assert np.abs(getattr(strided, m) - getattr(every, m)).max() <= 1e-12 * scale
        assert np.abs(strided.final_field - every.final_field).max() <= 1e-12 * scale

    def test_held_input_takes_one_step_per_output_sample(self, monkeypatch):
        """A constant input over 40 FD steps with outputs every 8th step is
        stepped in 5 calls."""
        calls = []
        step = FdSolver.step
        monkeypatch.setattr(FdSolver, "step",
                            lambda self, *a: calls.append(a[3]) or step(self, *a))
        fd_solve(PAPER, ALL_SIDES, None, 1e5, FdConfig(12, 10, 0.5), 15.0, 20.0,
                 metrics_stride=10**9, output_stride=8)
        assert calls == [8] * 5


class TestBlockedGrid:
    @pytest.mark.parametrize("n_r, n_z", [
        *((n_r, n_z) for n_r in (3, 33, 130, 256) for n_z in (3, 33, 130, 256)),
        (301, 301), (400, 400), (401, 3)])
    def test_grid_matches_dense_product(self, n_r, n_z):
        """Row blocks cover the grid in order, each of at least two rows and,
        up to about 295^2 nodes, each GEMM within OpenBLAS's single-thread
        size; the blocked product equals V_r X V_z^T."""
        solver = FdSolver(PAPER, ALL_SIDES, FdConfig(n_r, n_z, 0.5))
        blocks = solver._row_blocks
        assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
        assert blocks[-1].stop == n_r
        for b in blocks:
            assert b.stop - b.start >= min(2, n_r)
            if n_z * max(n_r, n_z) <= 87_381:
                assert (b.stop - b.start) * n_z * max(n_r, n_z) <= 262_144
        state = np.random.default_rng(n_r * n_z).standard_normal((n_r, n_z))
        dense = solver._modes_r.V @ state @ solver._modes_z.V.T
        assert np.abs(solver.grid(state) - dense).max() <= 1e-13 * np.abs(dense).max()


class TestFdMetrics:
    @pytest.mark.parametrize("spec", [PAPER, POUCH_CELL], ids=["cylinder", "pouch"])
    @pytest.mark.parametrize("n_r, n_z", [(3, 3), (7, 33), (33, 7), (128, 128)])
    def test_differences_are_np_gradient_bit_for_bit(self, spec, n_r, n_z):
        """The gradients written into the metrics block are np.gradient's, so
        the metrics equal the reduction of the stacked field and
        np.gradient arrays bit for bit, on random fields and grids."""
        rng = np.random.default_rng(n_r * n_z)
        solver = FdSolver(spec, ALL_SIDES, FdConfig(n_r, n_z, 0.5))
        field = rng.uniform(-20.0, 60.0, (n_r, n_z))
        h = rng.uniform(1e-4, 1e-2, 2)
        d_r, d_z = np.empty_like(field), np.empty_like(field)
        _differences(field, h[0], d_r)
        _differences(field.T, h[1], d_z.T)
        want = np.gradient(field, *h)
        assert np.array_equal(d_r, want[0]) and np.array_equal(d_z, want[1])

        state = rng.standard_normal((n_r, n_z))
        field = solver.grid(state)
        block = np.stack([field, *np.gradient(field, solver.dr, solver.dz)])[:, None]
        want = _reduce_fields(np.sum(solver._vol_weights * field), [block], single=True)
        for got in (solver.metrics(state), solver.metrics(state, field)):
            assert vars(got) == vars(want)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(cells_and_coolings(), st.integers(3, 20), st.integers(3, 20),
           st.lists(st.sampled_from(METRIC_NAMES), min_size=1, unique=True),
           st.integers(0, 2**32 - 1))
    def test_named_metrics_are_those_of_the_full_call(self, cell, n_r, n_z, names,
                                                      seed):
        """For random cells, grids and name subsets, each named metric is
        the float of a call for all eight, bit for bit, and each other is
        None; the field passed in or formed gives the same record."""
        solver = FdSolver(*cell, FdConfig(n_r, n_z, 0.5))
        state = np.random.default_rng(seed).standard_normal((n_r, n_z))
        full = solver.metrics(state)
        for part in (solver.metrics(state, names=tuple(names)),
                     solver.metrics(state, solver.grid(state), tuple(names))):
            for name in METRIC_NAMES:
                want = getattr(full, name) if name in names else None
                assert getattr(part, name) == want, name

    def test_run_takes_the_named_metrics(self):
        """fd_solve's named metric series are those of a run for all eight,
        its outputs and final field the same, and the others None."""
        q = np.linspace(0.0, 1e5, 21)
        names = ("T_mean", "T_max", "dTr_max")
        full = fd_solve(PAPER, ALL_SIDES, None, q, FdConfig(12, 10, 0.5), horizon=10.0,
                        metrics_stride=4)
        part = fd_solve(PAPER, ALL_SIDES, None, q, FdConfig(12, 10, 0.5), horizon=10.0,
                        metrics_stride=4, metric_names=names)
        for name in ("times", "outputs", "final_field", "metrics_times", *names):
            assert np.array_equal(getattr(part, name), getattr(full, name)), name
        for name in set(METRIC_NAMES) - set(names):
            assert getattr(part, name) is None, name


def expm_tec_run(model, q, dt, n_steps, T0):
    """TEC trajectory stepped with the ZOH map from the matrix exponential of
    the augmented system [[A, B], [0, 0]] (Van Loan, IEEE TAC 1978)."""
    a, b = model.continuous()
    aug = np.zeros((4, 4))
    aug[:2, :2] = a
    aug[:2, 2:] = b
    phi = expm(aug * dt)
    x = np.empty((n_steps + 1, 2))
    x[0] = T0
    for k in range(n_steps):
        x[k + 1] = phi[:2, :2] @ x[k] + phi[:2, 2:] @ np.array([q[k], model.T_inf])
    return x[:, 0], x[:, 1]


class TestTec:
    def test_fixed_point(self):
        m = TecModel()
        _, t_c, t_s = tec_run(m, 0.0, 10.0, 10.0)
        assert t_c[-1] == pytest.approx(15.0, abs=1e-12)
        assert t_s[-1] == pytest.approx(15.0, abs=1e-12)

    def test_modal_zoh_matches_augmented_expm_random_params(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(50):
            m = TecModel(C_c=float(rng.uniform(100, 5000)),
                         C_s=float(rng.uniform(5, 500)),
                         R_c=float(rng.uniform(0.05, 2.0)),
                         R_u=float(rng.uniform(0.01, 1.0)),
                         T_inf=float(rng.uniform(0, 40)))
            dt = float(rng.uniform(0.1, 20.0))
            q = rng.uniform(0.0, 50.0, 21)
            t0 = float(rng.uniform(0, 40))
            _, t_c, t_s = tec_run(m, q, dt, 20 * dt, T0=t0)
            ref_c, ref_s = expm_tec_run(m, q, dt, 20, t0)
            worst = max(worst, np.abs(t_c - ref_c).max() / np.abs(ref_c).max(),
                        np.abs(t_s - ref_s).max() / np.abs(ref_s).max())
        assert worst <= 1e-12

    @pytest.mark.parametrize("dt", [np.inf, np.nan])
    def test_non_finite_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="finite"):
            tec_run(TecModel(), 10.0, dt, 10.0)

    def test_analytic_steady_state(self):
        m = TecModel()
        assert m.steady_state(10.0) == pytest.approx((22.3, 15.8))
        _, t_c, t_s = tec_run(m, 10.0, 1.0, 30000.0)
        assert t_c[-1] == pytest.approx(22.3, abs=1e-6)
        assert t_s[-1] == pytest.approx(15.8, abs=1e-6)

    def test_superposition_in_q(self):
        m = TecModel()
        _, c1, s1 = tec_run(m, 4.0, 2.0, 300.0)
        _, c2, s2 = tec_run(m, 6.0, 2.0, 300.0)
        _, c3, s3 = tec_run(m, 10.0, 2.0, 300.0)
        # responses are affine in q around the T_inf equilibrium
        assert np.allclose(c1 + c2 - 15.0, c3, atol=1e-9)
        assert np.allclose(s1 + s2 - 15.0, s3, atol=1e-9)

    def test_zoh_matches_fine_rk4_random_params(self):
        rng = np.random.default_rng(5)
        for _ in range(4):
            m = TecModel(C_c=float(rng.uniform(500, 2000)),
                         C_s=float(rng.uniform(20, 100)),
                         R_c=float(rng.uniform(0.2, 1.0)),
                         R_u=float(rng.uniform(0.05, 0.3)),
                         T_inf=15.0)
            a, b = m.continuous()
            q = 25.0
            x = np.array([18.0, 18.0])
            rhs = lambda s: a @ s + b @ np.array([q, m.T_inf])
            h = 0.001
            for _ in range(2000):
                k1 = rhs(x)
                k2 = rhs(x + h / 2 * k1)
                k3 = rhs(x + h / 2 * k2)
                k4 = rhs(x + h * k3)
                x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            _, t_c, t_s = tec_run(m, q, 1.0, 2.0, T0=18.0)
            assert t_c[-1] == pytest.approx(x[0], abs=1e-8)
            assert t_s[-1] == pytest.approx(x[1], abs=1e-8)

    def test_metrics_formulas(self):
        t_mean, grad = tec_metrics(20.0, 20.0, PAPER)
        assert (t_mean, grad) == (20.0, 0.0)
        t_mean, grad = tec_metrics(22.3, 15.8, PAPER)
        assert t_mean == pytest.approx(19.05)
        assert grad == pytest.approx(6.5 / 0.028, rel=1e-12)

    def test_metrics_reject_pouch(self):
        pouch = CellSpec(shape=POUCH, L=0.2, D=0.1, rho=1.0, cp=1.0,
                         k_r=1.0, k_z=1.0)
        with pytest.raises(UnsupportedShapeError):
            tec_metrics(20.0, 19.0, pouch)

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            TecModel(C_c=-1.0)
        with pytest.raises(ValueError, match="dt"):
            tec_run(TecModel(), 0.0, -1.0, 10.0)

    @pytest.mark.parametrize("name", ["C_c", "C_s", "R_c", "R_u", "T_inf"])
    @pytest.mark.parametrize("bad, match", [(np.nan, "finite"), (np.inf, "finite"),
                                            (-np.inf, "finite"), (True, "bool")])
    def test_non_finite_or_bool_field_is_named(self, name, bad, match):
        """Every field is a finite number, checked before positivity: a NaN
        capacity would surface as an undiagonalizable pencil, and True or an
        infinite resistance would run."""
        with pytest.raises(ValueError, match=f"TecModel.{name} must .*{match}"):
            TecModel(**{name: bad})

    def test_heat_series_needs_one_sample_per_time(self):
        """A 10 s horizon at dt 1 s has 11 sample times: a short series and a
        long one are rejected, not failed on or truncated."""
        for n in (3, 50):
            with pytest.raises(ValueError, match=r"q must broadcast to \(11,\)"):
                tec_run(TecModel(), np.full(n, 10.0), 1.0, 10.0)
        times, t_c, t_s = tec_run(TecModel(), np.full(11, 10.0), 1.0, 10.0)
        _, ref_c, ref_s = tec_run(TecModel(), 10.0, 1.0, 10.0)
        assert times.shape == (11,)
        assert np.array_equal(t_c, ref_c) and np.array_equal(t_s, ref_s)


class TestTimingHarness:
    def test_table_format(self):
        m = TecModel()
        entries = [("TEC", lambda: tec_run(m, 10.0, 1.0, 50.0)),
                   ("TEC-again", lambda: tec_run(m, 10.0, 1.0, 50.0))]
        table = timing_harness(entries, repetitions=3)
        assert [row["model"] for row in table] == ["TEC", "TEC-again"]
        for row in table:
            assert row["mean_ms"] > 0.0

    def test_repetitions_validated(self):
        with pytest.raises(ValueError):
            timing_harness([], repetitions=2)
