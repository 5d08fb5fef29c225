"""Time stepping, reconstruction, and metrics.

Oracles: the matrix exponential of the dense augmented system, a fine-step
explicit RK4 integrator, closed-form radial steady states of the annulus, the
adiabatic energy balance q/(rho cp), exact ZOH semigroup identities,
second-order finite differences and trapezoid sums of the reconstructed field.
"""

import gc
import sys
import threading
import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from celltherm import simulate
from celltherm.core import (
    CYLINDRICAL,
    POUCH,
    CellSpec,
    CoolingConfig,
    SideCooling,
    cell_volume,
    scenario_cooling,
)
from celltherm.chebyshev import basis_matrix
from celltherm.control import OpenLoopEstimator
from celltherm.exceptions import NumericalError
from celltherm.galerkin import assemble, project_initial_state
from celltherm.particular import axial_scale, radial_scale
from celltherm.reference import FdConfig, fd_solve
from celltherm.simulate import (
    METRIC_NAMES,
    METRICS_BLOCK,
    FieldEvaluator,
    MetricsRecord,
    SimResult,
    Stepper,
    discretize,
    metric_steps,
    run,
)
from strategies import cells_and_coolings, cooling_powers, to_modal

PAPER = CellSpec(shape=CYLINDRICAL, L=0.198, R_out=0.032, R_in=0.004,
                 rho=2118.0, cp=795.0, k_r=0.67, k_z=66.6)
SC = scenario_cooling("SC")
# SC's own cooling powers h T_inf on the surface, top and bottom, W m^-2
U_SC = np.array([400.0, 30.0, 30.0]) * 15.0

# closed-form radial steady state with insulated tabs, q = 1e5:
# surface rise q (R_out^2 - R_in^2) / (2 h R_out)
SURFACE_RISE = 1e5 * (0.032**2 - 0.004**2) / (2 * 400.0 * 0.032)
# core-minus-surface q (R_out^2 - R_in^2)/(4 k_r) + q R_in^2/(2 k_r) ln(R_in/R_out)
CORE_MINUS_SURF = (1e5 * (0.032**2 - 0.004**2) / (4 * 0.67)
                   + 1e5 * 0.004**2 / (2 * 0.67) * np.log(0.004 / 0.032))

RADIAL_ONLY = CoolingConfig(SideCooling(400.0, 15.0), SideCooling(0.0, 15.0),
                            SideCooling(0.0, 15.0), SideCooling(0.0, 15.0),
                            scenario_name="SC-radial")
INSULATED = CoolingConfig(SideCooling(0.0, 15.0), SideCooling(0.0, 15.0),
                          SideCooling(0.0, 15.0), SideCooling(0.0, 15.0),
                          scenario_name="insulated")
POUCH_CELL = CellSpec(shape=POUCH, L=0.2, D=0.1, rho=2118.0, cp=795.0,
                      k_r=0.9, k_z=30.0)


def expm_zoh(model, dt):
    """Reference ZOH map (Ad, Bd) from the matrix exponential of the dense
    augmented system [[G^-1 A, G^-1 [B F]], [0, 0]] (Van Loan, IEEE TAC 1978)."""
    n, n_in = model.order, model.n_inputs + 1
    aug = np.zeros((n + n_in, n + n_in))
    aug[:n, :n] = np.linalg.solve(model.G, model.A)
    aug[:n, n:] = np.linalg.solve(model.G, np.column_stack([model.B, model.F]))
    phi = expm(aug * dt)
    return phi[:n, :n], phi[:n, n:]


def galerkin_run(model, x0, *args, **kwargs):
    """Galerkin states (S, order) of a ``run`` from the Galerkin state x0."""
    res = run(model, to_modal(model, x0), *args, **kwargs)
    return to_modal(model, res.states, inverse=True)


def one_step(model, x, u, w, dt):
    """Galerkin state after one exact step of length dt of the discretized
    model (``discretize``) under the inputs [u; w]."""
    y = discretize(model, dt).trajectory(to_modal(model, x), np.append(u, w)[None])
    return to_modal(model, y[1], inverse=True)


def step_zoh(model, dt):
    """(Ad, Bd) read off the discretized model, one step from each unit state
    and each unit input [u; w]."""
    n, m = model.order, model.n_inputs
    ad = np.column_stack([one_step(model, e, np.zeros(m), 0.0, dt)
                          for e in np.eye(n)])
    bd = np.column_stack([one_step(model, np.zeros(n), e, 0.0, dt)
                          for e in np.eye(m)]
                         + [one_step(model, np.zeros(n), np.zeros(m), 1.0, dt)])
    return ad, bd


def assert_close_rel(got, want, rel):
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


def expansion(model, X, u, r, z, dr, dz):
    """(d/dr)^dr (d/dz)^dz of the Galerkin expansion of the states X
    (S, order) plus each side's particular component grid under the inputs
    u (S, n_inputs), on the scaled nodes r x z, in physical units."""
    M, N = model.M, model.N
    grid = (basis_matrix(model.basis_r, r, dr) @ X.reshape(-1, M, N)
            @ basis_matrix(model.basis_z, z, dz).T)
    for col, side in enumerate(model.sides):
        part = model.particular.component_grid(side, r, z, dr, dz)
        grid += u[:, col, None, None] * part
    return radial_scale(model.spec) ** dr * axial_scale(model.spec) ** dz * grid


class TestDiscretize:
    @pytest.mark.parametrize("spec, cooling, M, N", [
        (PAPER, SC, 5, 5),
        (PAPER, scenario_cooling("btTC"), 5, 5),
        (PAPER, scenario_cooling("aTSC"), 4, 3),
        (PAPER, scenario_cooling("aTSC"), 1, 1),
        (PAPER, INSULATED, 3, 4),
        (POUCH_CELL, scenario_cooling("SC", POUCH), 4, 5),
    ], ids=["SC", "btTC", "aTSC", "aTSC-O1", "insulated", "pouch"])
    def test_modal_step_matches_augmented_expm(self, spec, cooling, M, N):
        model = assemble(spec, cooling, M, N)
        for dt in (0.1, 1.0, 20.0):
            ad, bd = expm_zoh(model, dt)
            ad_run, bd_run = step_zoh(model, dt)
            assert_close_rel(ad_run, ad, 1e-12)
            assert_close_rel(bd_run, bd, 1e-12)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(cells_and_coolings(), st.integers(1, 5), st.integers(1, 5),
           st.floats(0.05, 50.0), st.integers(0, 2**32 - 1))
    def test_random_cells_match_augmented_expm(self, cell, M, N, dt, seed):
        """The discretized model reproduces the augmented exponential for
        random physical cells, coolings, orders <= 25 and steps, and ``run``
        follows it and superposes: the response to (x0, T_inf, w) is the
        zero-input plus the zero-state response."""
        model = assemble(*cell, M, N)
        ad, bd = expm_zoh(model, dt)
        ad_run, bd_run = step_zoh(model, dt)
        assert_close_rel(ad_run, ad, 1e-12)
        assert_close_rel(bd_run, bd, 1e-12)

        rng = np.random.default_rng(seed)
        x0 = rng.standard_normal(model.order)
        tinf = 40.0 * rng.standard_normal((4, 4))
        w = 1e5 * rng.standard_normal(4)
        zeros = np.zeros_like(tinf)

        def states(x, tt, ww):
            return galerkin_run(model, x, tt, ww, dt, 3 * dt, grid_shape=(5, 5),
                                metrics_stride=1)

        total = states(x0, tinf, w)
        parts = states(x0, zeros, 0.0) + states(np.zeros(model.order), tinf, w)
        assert_close_rel(total, parts, 1e-12)
        u0 = cooling_powers(model, tinf[0])
        assert_close_rel(total[1], ad @ x0 + bd @ np.append(u0, w[0]), 1e-12)

    def test_pure_integrator_limit(self):
        model = assemble(PAPER, SC, 2, 2)
        frozen = replace(model, stiff_r=np.zeros_like(model.stiff_r),
                         stiff_z=np.zeros_like(model.stiff_z))
        dt = 0.5
        x = np.ones(frozen.order)
        u = np.array([10.0, 20.0, 30.0])
        w = 1e4
        expected = x + dt * np.linalg.solve(model.G, model.B @ u + model.F * w)
        got = one_step(frozen, x, u, w, dt)
        assert np.allclose(got, expected, rtol=1e-12)

    def test_semigroup_two_half_steps(self):
        model = assemble(PAPER, SC, 2, 2)
        x = np.linspace(-1, 1, model.order)
        a = one_step(model, x, U_SC, 5e4, 0.2)
        b = galerkin_run(model, x, None, 5e4, 0.1, 0.2, metrics_stride=10**9)[-1]
        assert np.abs(a - b).max() <= 1e-10 * max(1.0, np.abs(a).max())

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(cells_and_coolings(), st.integers(1, 12), st.integers(1, 12),
           st.floats(0.05, 50.0), st.integers(0, 2**32 - 1))
    def test_random_cells_semigroup(self, cell, M, N, dt, seed):
        """One exact step of 2 dt is two ``run`` steps of dt under held
        inputs, on random cells, coolings and M, N <= 12."""
        model = assemble(*cell, M, N)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(model.order)
        tinf = 40.0 * rng.standard_normal(4)
        a = one_step(model, x, cooling_powers(model, tinf), 5e4, 2 * dt)
        b = galerkin_run(model, x, tinf, 5e4, dt, 2 * dt, metrics_stride=10**9)[-1]
        assert np.abs(a - b).max() <= 1e-10 * max(1.0, np.abs(a).max())

    def test_zoh_matches_fine_rk4(self):
        model = assemble(PAPER, SC, 2, 2)
        a_c = np.linalg.solve(model.G, model.A)
        b_c = np.linalg.solve(model.G, model.B)
        f_c = np.linalg.solve(model.G, model.F)
        u, w = U_SC, 8e4
        rhs = lambda x: a_c @ x + b_c @ u + f_c * w

        x_rk = to_modal(model, project_initial_state(model, 15.0), inverse=True)
        h = 0.001
        for _ in range(5000):
            k1 = rhs(x_rk)
            k2 = rhs(x_rk + h / 2 * k1)
            k3 = rhs(x_rk + h / 2 * k2)
            k4 = rhs(x_rk + h * k3)
            x_rk = x_rk + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

        res = run(model, project_initial_state(model, 15.0), None, w,
                  dt=0.1, horizon=5.0, metrics_stride=None)
        y_rk = model.C @ x_rk + model.Dft @ u
        assert np.abs(res.outputs[-1] - y_rk).max() <= 1e-6

    def test_bad_dt(self):
        model = assemble(PAPER, SC, 1, 1)
        for dt in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                discretize(model, dt)
        for dt in (0.0, -1.0):
            with pytest.raises(ValueError, match="dt must be positive"):
                run(model, np.zeros(1), None, 0.0, dt=dt, horizon=10.0)


class TestRun:
    def test_heat_series_needs_one_sample_per_time(self):
        model = assemble(PAPER, SC, 1, 1)
        x0 = project_initial_state(model, 15.0)
        for n in (3, 50):
            with pytest.raises(ValueError, match=r"w must broadcast to \(11,\)"):
                run(model, x0, None, np.full(n, 1e4), dt=1.0, horizon=10.0)
        res = run(model, x0, None, np.full(11, 1e4), dt=1.0, horizon=10.0)
        ref = run(model, x0, None, 1e4, dt=1.0, horizon=10.0)
        assert np.array_equal(res.outputs, ref.outputs)

    def test_equilibrium_holds(self):
        """Uniform coolant at the initial temperature: outputs stay at 15 up
        to the spectral projection defect of the lifting expansion (the
        basis cannot represent the exact constant, so machine-level equality
        is not attainable; see also the initial-projection tests)."""
        model = assemble(PAPER, SC, 5, 5)
        x0 = project_initial_state(model, 15.0)
        res = run(model, x0, None, 0.0, dt=20.0, horizon=2000.0,
                  metrics_stride=10)
        assert np.abs(res.outputs - 15.0).max() <= 0.01
        # and the trajectory is essentially stationary
        assert np.abs(res.outputs[-1] - res.outputs[0]).max() <= 5e-3

    def test_insulated_energy_balance(self):
        model = assemble(PAPER, INSULATED, 2, 2)
        x0 = project_initial_state(model, 15.0)
        res = run(model, x0, None, 5e4, dt=1.0, horizon=100.0,
                  metrics_stride=20)
        slope = np.diff(res.T_mean) / np.diff(res.metrics_times)
        expected = 5e4 / (PAPER.rho * PAPER.cp)
        assert np.abs(slope - expected).max() <= 1e-3 * expected

    def test_radial_steady_state_surface_rise(self):
        model = assemble(PAPER, RADIAL_ONLY, 3, 3)
        u = cooling_powers(model, RADIAL_ONLY.T_inf)
        x_inf = np.linalg.solve(model.A, -(model.B @ u + model.F * 1e5))
        y_inf = model.C @ x_inf + model.Dft @ u
        assert y_inf[0] - 15.0 == pytest.approx(SURFACE_RISE, rel=0.01)

    def test_superposition_zero_state(self):
        model = assemble(PAPER, scenario_cooling("aTSC"), 2, 2)
        parts = []
        for j in range(4):   # 1500 W m^-2 on each actively cooled side
            tinf = np.zeros(4)
            tinf[j] = 3.75
            parts.append(run(model, np.zeros(model.order), tinf, 0.0, dt=5.0,
                             horizon=100.0, metrics_stride=None).outputs)
        total = run(model, np.zeros(model.order), np.full(4, 3.75), 0.0,
                    dt=5.0, horizon=100.0, metrics_stride=None).outputs
        diff = np.abs(sum(parts) - total).max()
        assert diff <= 1e-9 * max(1.0, np.abs(total).max())

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(cells_and_coolings(), st.integers(1, 5), st.integers(1, 5),
           st.floats(0.05, 50.0), st.integers(0, 2**32 - 1))
    def test_random_cells_adiabatic_energy_slope(self, cell, M, N, dt, seed):
        """With every h = 0 the stored heat rho cp V mean(T) rises at q V,
        from any initial state and under a staircase q. The volume mean is
        F.X / F.X1, X1 the projection of a uniform unit field, which the
        insulated bases hold exactly."""
        spec, cooling = cell
        insulated = CoolingConfig(*(SideCooling(0.0, s.T_inf) for s in (
            cooling.surface, cooling.core, cooling.top, cooling.bottom)))
        model = assemble(spec, insulated, M, N)
        zeros = np.zeros(4)
        unit_mean = model.F @ to_modal(model, project_initial_state(model, 1.0, zeros),
                                       inverse=True)
        rng = np.random.default_rng(seed)
        x0 = rng.standard_normal(model.order)
        q = 1e5 * rng.standard_normal(9)
        states = galerkin_run(model, x0, zeros, q, dt, 8 * dt, grid_shape=(5, 5),
                              metrics_stride=1)
        heat = model.rho_cp * cell_volume(spec) * (states @ model.F) / unit_mean
        generated = cell_volume(spec) * dt * np.concatenate([[0.0], np.cumsum(q[:-1])])
        scale = np.abs(heat - heat[0]).max() + np.abs(generated).max()
        assert np.abs(heat - heat[0] - generated).max() <= 1e-12 * scale

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(cells_and_coolings(), st.integers(1, 5), st.integers(1, 5),
           st.floats(0.05, 50.0), st.integers(0, 2**32 - 1))
    def test_random_cells_superpose_per_side(self, cell, M, N, dt, seed):
        """From rest, the response to coolant temperatures T_a + T_b is the
        response to T_b plus that to each side's share of T_a: states,
        outputs (feedthrough included) and the volume mean."""
        model = assemble(*cell, M, N)
        rng = np.random.default_rng(seed)
        t_a, t_b = 40.0 * rng.standard_normal((2, 5, 4))

        def response(tinf):
            res = run(model, np.zeros(model.order), tinf, 0.0, dt, 4 * dt,
                      grid_shape=(5, 5), metrics_stride=1)
            return res.states, res.outputs, res.T_mean

        parts = [response(t_a * e) for e in np.eye(4)] + [response(t_b)]
        for total, pieces in zip(response(t_a + t_b), zip(*parts)):
            scale = max(np.abs(p).max() for p in pieces)
            assert np.abs(total - sum(pieces)).max() <= 1e-12 * scale

    def test_zoh_exact_for_staircase_inputs(self):
        model = assemble(PAPER, SC, 2, 2)
        x0 = project_initial_state(model, 15.0)
        q_coarse = np.resize(np.repeat([1e5, 0.0, 5e4], 4), 13)
        res_a = run(model, x0, None, q_coarse, dt=10.0, horizon=120.0,
                    metrics_stride=None)
        q_fine = np.repeat(q_coarse, 2)[:25]
        res_b = run(model, x0, None, q_fine, dt=5.0, horizon=120.0,
                    metrics_stride=None)
        assert np.abs(res_a.outputs[-1] - res_b.outputs[-1]).max() <= 1e-8

    def test_outputs_within_field_extrema(self):
        model = assemble(PAPER, scenario_cooling("btTC"), 3, 3)
        x0 = project_initial_state(model, 15.0)
        res = run(model, x0, None, 1e5, dt=5.0, horizon=300.0, metrics_stride=1)
        for k, t in enumerate(res.metrics_times):
            i = int(round(t / 5.0))
            assert res.T_min[k] - 1e-9 <= res.outputs[i].min()
            assert res.outputs[i].max() <= res.T_max[k] + 1e-9

    def test_max_mean_min_ordering(self):
        model = assemble(PAPER, SC, 3, 3)
        x0 = project_initial_state(model, 15.0)
        res = run(model, x0, None, 1e5, dt=5.0, horizon=200.0, metrics_stride=4)
        assert np.all(res.T_max >= res.T_mean - 1e-12)
        assert np.all(res.T_mean >= res.T_min - 1e-12)

    @pytest.mark.parametrize("rows", [None, 3, 7])
    def test_unstable_dynamics_reported_with_step(self, monkeypatch, rows):
        """The error names the run's step, also when the first non-finite
        state lies in a later block of ``rows`` steps (None: the default)."""
        model = assemble(PAPER, SC, 2, 2)
        unstable = replace(model, stiff_r=-200.0 * model.stiff_r,
                           stiff_z=-200.0 * model.stiff_z)
        stepper = discretize(unstable, 5.0)
        y0, v = to_modal(unstable, np.ones(model.order)), np.append(U_SC, 0.0)
        y, first = y0, 0
        with np.errstate(over="ignore", invalid="ignore"):
            while np.all(np.isfinite(y)):
                y = stepper.gain * y + v @ stepper.b_hat
                first += 1
        if rows is not None:
            monkeypatch.setattr(simulate, "STEP_BLOCK", rows * model.order)
            assert first > rows   # a block-local index is at most rows
        with pytest.raises(NumericalError, match=rf"non-finite state at step {first}$"):
            run(unstable, y0, None, 0.0, dt=5.0, horizon=500.0)

    @pytest.mark.parametrize("y0", [15.0, np.zeros(1), np.zeros(5), np.zeros((2, 4))],
                             ids=["scalar", "one", "order+1", "two-rows"])
    def test_initial_state_of_another_shape_rejected(self, y0):
        """A scalar or a length-1 state would otherwise broadcast over every
        mode of the O=4 model."""
        model = assemble(PAPER, SC, 2, 2)
        with pytest.raises(ValueError, match=r"Y0 must have shape \(4,\)"):
            run(model, y0, None, 0.0, dt=1.0, horizon=5.0)


def reference_run(model, y0, tinf, w, dt, tinf0=None):
    """Every modal state and the outputs of a run under the coolant rows
    tinf (K+1, 4), formed without ``run``: u = h T_inf by hand, then the
    discretized model's trajectory and the model's modal outputs, step k
    under the input applied up to k (row k-1) and step 0 under tinf0, by
    default the first row."""
    u = cooling_powers(model, tinf)
    u0 = cooling_powers(model, tinf[0] if tinf0 is None else tinf0)
    Y = discretize(model, dt).trajectory(y0, np.column_stack([u, w])[:-1])
    return Y, model.modal_outputs(Y, np.vstack([u0, u[:-1]]))


def reference_projection(model, T_init, tinf0):
    """The modal initial state Q_r^T (T_init F - P u0) Q_z with u0 = h T_inf
    by hand, its moments summed side by side."""
    moments = float(T_init) * model.F.reshape(model.M, model.N)
    for col, value in enumerate(cooling_powers(model, tinf0)):
        moments -= value * model.P[:, col].reshape(model.M, model.N)
    return (model.modes_r.V.T @ moments @ model.modes_z.V).ravel()


class TestCoolantInputs:
    """Every model takes coolant temperatures in ``SIDES`` order: None for
    the config's own, one (4,) row held over a run, or one row per step."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(cells_and_coolings(), st.integers(1, 5), st.integers(1, 5),
           st.floats(0.05, 50.0), st.integers(0, 12), st.floats(-20.0, 60.0),
           st.integers(0, 2**32 - 1))
    def test_random_cells_explicit_rows_match_the_reference(
            self, cell, M, N, dt, K, T_init, seed):
        """``run`` and ``project_initial_state`` under explicit coolant rows
        equal, bit for bit, the same steps taken on cooling powers formed by
        hand, each step recorded under the input applied up to it; a held row
        equals its rows repeated."""
        model = assemble(*cell, M, N)
        rng = np.random.default_rng(seed)
        tinf = 40.0 * rng.standard_normal((K + 1, 4))
        w = 1e5 * rng.standard_normal(K + 1)
        y0 = project_initial_state(model, T_init, tinf[0])
        assert np.array_equal(y0, reference_projection(model, T_init, tinf[0]))
        res = run(model, y0, tinf, w, dt, K * dt, grid_shape=(5, 4), metrics_stride=1)
        states, outputs = reference_run(model, y0, tinf, w, dt)
        assert np.array_equal(res.states, states)
        assert np.array_equal(res.outputs, outputs)
        held = run(model, y0, tinf[0], w, dt, K * dt, metrics_stride=None)
        assert np.array_equal(
            held.outputs, reference_run(model, y0, np.tile(tinf[0], (K + 1, 1)), w, dt)[1])
        assert np.array_equal(model.cooling_powers(tinf), cooling_powers(model, tinf))

    @pytest.mark.parametrize("blocks", [1, 4], ids=["one-block", "four-blocks"])
    @pytest.mark.parametrize("held", [False, True], ids=["rows", "held-row"])
    def test_tinf0_changes_only_the_step_0_record(self, monkeypatch, blocks, held):
        """A ``tinf0`` other than the first row leaves every state bit for bit
        and every record after step 0; step 0 is recorded under tinf0, its
        outputs C_modal y0 + Dft u(tinf0) and its metrics those of y0."""
        model = assemble(PAPER, scenario_cooling("aTSC"), 3, 3)
        K, dt = 12, 2.0
        rng = np.random.default_rng(3)
        tinf = 30.0 * rng.standard_normal(4) if held else \
            30.0 * rng.standard_normal((K + 1, 4))
        tinf0 = np.array([-5.0, 8.0, 35.0, 12.0])
        w = 1e5 * rng.standard_normal(K + 1)
        y0 = project_initial_state(model, 15.0, tinf0)
        monkeypatch.setattr(simulate, "STEP_BLOCK", -(-K // blocks) * model.order)
        base = run(model, y0, tinf, w, dt, K * dt, grid_shape=(5, 5))
        res = run(model, y0, tinf, w, dt, K * dt, grid_shape=(5, 5), tinf0=tinf0)
        assert np.array_equal(res.states, base.states)
        for name, value in vars(base).items():
            if name not in ("states", "times", "metrics_times"):
                assert np.array_equal(getattr(res, name)[1:], value[1:]), name
                assert not np.array_equal(getattr(res, name)[0], value[0]), name
        u0 = cooling_powers(model, tinf0)
        assert_close_rel(res.outputs[0], model.modal_C @ y0 + model.Dft @ u0, 1e-12)
        first = FieldEvaluator(model, 5, 5).metrics(y0[None], u0[None])
        for f in fields(MetricsRecord):
            assert_close_rel(getattr(res, f.name)[0], getattr(first, f.name)[0], 1e-12)
        # tinf0 equal to the first row is the default
        first_row = tinf if held else tinf[0]
        same = run(model, y0, tinf, w, dt, K * dt, grid_shape=(5, 5), tinf0=first_row)
        for name, value in vars(base).items():
            assert np.array_equal(getattr(same, name), value), name

    @pytest.mark.parametrize("tinf0", [np.full(3, 15.0), np.full((2, 4), 15.0),
                                       np.full(5, 15.0), 15.0,
                                       [15.0, np.nan, 15.0, 15.0],
                                       [15.0, 15.0, np.inf, 15.0]],
                             ids=["three", "two-rows", "five", "scalar", "nan", "inf"])
    def test_bad_tinf0_is_named(self, tinf0):
        model = assemble(PAPER, SC, 2, 2)
        y0 = project_initial_state(model, 15.0)
        with pytest.raises(ValueError, match="tinf0"):
            run(model, y0, None, 1e4, 1.0, 5.0, tinf0=tinf0)

    def test_config_cooling_powers(self):
        """The inputs of a config's own coolant temperatures are h T_inf of
        the input sides: three on a cylinder, whose core has none, four in
        ``SIDES`` order on a pouch. A held row is converted, not repeated."""
        model = assemble(PAPER, SC, 1, 1)
        assert np.array_equal(model.cooling_powers(SC.T_inf), U_SC)
        for tinf in (None, SC.T_inf):   # converted once, then held
            held = model.inputs(tinf, 10**9)
            assert held.shape == (10**9, 3) and held.strides[0] == 0
            assert np.array_equal(held[-1], U_SC)
        cooling = CoolingConfig(SideCooling(400.0, 15.0), SideCooling(120.0, 25.0),
                                SideCooling(30.0, 10.0), SideCooling(250.0, 20.0))
        pouch = assemble(POUCH_CELL, cooling, 1, 1)
        assert np.array_equal(pouch.cooling_powers(cooling.T_inf),
                              [6000.0, 3000.0, 300.0, 5000.0])

    @pytest.mark.parametrize("spec, cooling", [
        (PAPER, scenario_cooling("aTSC")),
        (POUCH_CELL, CoolingConfig(SideCooling(400.0, 15.0), SideCooling(120.0, 25.0),
                                   SideCooling(30.0, 10.0), SideCooling(250.0, 20.0))),
    ], ids=["cylinder", "pouch"])
    def test_none_is_the_config_row_bit_for_bit(self, spec, cooling):
        """None, the config's own row and that row per step give the same
        initial state and run, bit for bit, on the reduced model and the FD
        oracle."""
        model = assemble(spec, cooling, 3, 2)
        row = np.array(cooling.T_inf)
        y0 = project_initial_state(model, 15.0)
        assert np.array_equal(project_initial_state(model, 15.0, row), y0)
        runs = [run(model, y0, tinf, 5e4, 2.0, 20.0, grid_shape=(5, 5))
                for tinf in (None, row, np.tile(row, (11, 1)))]
        fds = [fd_solve(spec, cooling, tinf, 5e4, FdConfig(8, 8, 1.0), horizon=20.0,
                        metrics_stride=5)
               for tinf in (None, row, np.tile(row, (21, 1)))]
        for got in runs[1:]:
            for name, value in vars(runs[0]).items():
                assert getattr(got, name).tobytes() == value.tobytes(), name
        for got in fds[1:]:
            for name in ("outputs", "final_field", "T_mean", "dTr_max"):
                assert getattr(got, name).tobytes() == getattr(fds[0], name).tobytes()

    def test_cylinder_core_entry_has_no_effect(self):
        """A cylinder's core is never cooled: two different finite core
        coolant temperatures give byte-identical reduced-model and FD runs."""
        cooling = scenario_cooling("bTSC")
        model = assemble(PAPER, cooling, 3, 3)
        rows = [np.array([25.0, core, 10.0, 20.0]) for core in (15.0, -273.0)]
        runs = [run(model, project_initial_state(model, 15.0, row), row, 5e4, 2.0,
                    20.0, grid_shape=(5, 5)) for row in rows]
        fds = [fd_solve(PAPER, cooling, row, 5e4, FdConfig(8, 8, 1.0), horizon=20.0,
                        metrics_stride=5) for row in rows]
        for name, value in vars(runs[0]).items():
            assert getattr(runs[1], name).tobytes() == value.tobytes(), name
        for name in ("outputs", "final_field", "T_mean", "dTr_max"):
            assert getattr(fds[1], name).tobytes() == getattr(fds[0], name).tobytes()

    def test_every_model_takes_none_and_a_sides_row_and_rejects_three(self):
        """``run``, ``project_initial_state``, ``OpenLoopEstimator`` and
        ``fd_solve`` accept None and a (4,) row; a cylinder's row of its
        three input sides is an error that names ``tinf``."""
        model = assemble(PAPER, SC, 2, 2)
        row, three = np.array(SC.T_inf), np.full(3, 15.0)
        y0 = project_initial_state(model, 15.0, row)
        calls = {
            "run": lambda tinf: run(model, y0, tinf, 0.0, 1.0, 5.0),
            "project_initial_state": lambda tinf: project_initial_state(model, 15.0, tinf),
            "OpenLoopEstimator": lambda tinf: OpenLoopEstimator(model, 1.0, 15.0, tinf),
            "fd_solve": lambda tinf: fd_solve(PAPER, SC, tinf, 0.0, FdConfig(4, 4, 1.0),
                                              horizon=5.0),
        }
        for name, call in calls.items():
            call(None)
            call(row)
            with pytest.raises(ValueError, match="tinf"):
                call(three)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_inputs_rejected_by_name(self, bad):
        """A non-finite coolant temperature or heat sample is a ValueError
        naming it, before any step: the insulated core of a cylinder and
        the last heat sample, which no step reads, included."""
        model = assemble(PAPER, SC, 2, 2)
        y0 = project_initial_state(model, 15.0)
        core = np.array([15.0, bad, 15.0, 15.0])
        q = np.r_[np.full(5, 5e4), bad]
        fd = FdConfig(16, 16, 1.0)
        with pytest.raises(ValueError, match="tinf must be finite"):
            fd_solve(PAPER, SC, core, 5e4, fd, horizon=5.0)
        with pytest.raises(ValueError, match="tinf must be finite"):
            run(model, y0, core, 5e4, 1.0, 5.0)
        rows = np.tile(SC.T_inf, (6, 1))
        rows[-1, 0] = bad
        with pytest.raises(ValueError, match="tinf must be finite"):
            run(model, y0, rows, 5e4, 1.0, 5.0)
        with pytest.raises(ValueError, match="w must be finite"):
            run(model, y0, None, q, 1.0, 5.0)
        with pytest.raises(ValueError, match="q must be finite"):
            fd_solve(PAPER, SC, None, q, fd, horizon=5.0)
        with pytest.raises(ValueError, match="tinf0 must be finite"):
            OpenLoopEstimator(model, 1.0, 15.0, core)


class TestTrajectory:
    @pytest.mark.parametrize("n, m, K", [(1, 2, 0), (1, 5, 7), (9, 4, 30),
                                         (100, 5, 60)])
    def test_states_match_the_step_recursion_bit_for_bit(self, n, m, K):
        """The loop over row views gives y[k+1] = gain * y[k] + v[k] @ b_hat
        exactly as the indexed in-place recursion does."""
        rng = np.random.default_rng(n + m + K)
        stepper = Stepper(rng.random(n), rng.standard_normal((m, n)))
        y0, V = rng.standard_normal(n), rng.standard_normal((K, m))
        want = np.empty((K + 1, n))
        want[0] = y0
        want[1:] = V @ stepper.b_hat
        for k in range(K):
            want[k + 1] += stepper.gain * want[k]
        assert np.array_equal(stepper.trajectory(y0, V), want)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("row", [0, 3, 9])
    def test_first_non_finite_step_named(self, bad, row):
        """An input row that is not finite makes the state after it the first
        bad one, and the error names that step, however the run goes on."""
        stepper = Stepper(np.array([0.5, 1.0]), np.eye(2))
        V = np.ones((10, 2))
        V[row, 1] = bad
        V[min(row + 2, 9), 0] = np.nan
        with pytest.raises(NumericalError, match=rf"non-finite state at step {row + 1}$"):
            stepper.trajectory(np.zeros(2), V)


class TestHeldStep:
    """``Stepper.held``: n steps of one held input term at once, and the
    theta-method constructor the FD oracle steps with."""

    @staticmethod
    def _stepper(seed, size=40):
        """Gains of every kind the package steps: 1 exactly (an insulated
        cell's zero mode), in (0, 1) and in (-1, 0) (Crank-Nicolson's stiff
        modes)."""
        rng = np.random.default_rng(seed)
        gain = rng.choice([1.0, 0.5, -0.5], size) + rng.uniform(-0.5, 0.5, size)
        gain[rng.random(size) < 0.2] = 1.0
        gain = np.clip(gain, -1.0 + 1e-9, 1.0)
        return Stepper(gain, np.ones(size)), rng

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.integers(1, 300), min_size=1, max_size=4),
           st.integers(0, 2**32 - 1))
    def test_n_held_steps_match_n_single_steps(self, counts, seed):
        """Spans of changing and repeated lengths on one stepper, so the
        kept (gain^n, S_n) of the last span is reused or replaced."""
        stepper, rng = self._stepper(seed)
        y = rng.standard_normal(stepper.gain.size)
        for n in counts:
            w = rng.standard_normal(y.size)
            want = y
            for _ in range(n):
                want = stepper.gain * want + w
            y = stepper.held(y, w, n)
            assert np.abs(y - want).max() <= 1e-12 * np.abs(want).max()
            y = want

    def test_one_held_step_is_bitwise_a_single_step(self):
        stepper, rng = self._stepper(7)
        for _ in range(3):
            y, w = rng.standard_normal((2, stepper.gain.size))
            want = (stepper.gain * y + w).tobytes()
            assert stepper.held(y, w).tobytes() == want
            assert stepper.held(y, w, 1).tobytes() == want

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_theta_constructor_matches_the_scalar_formula(self, theta):
        lam = np.array([0.0, -1e-6, -0.3, -7.0, -4e4])
        dt, capacity = 0.05, 1.7e6
        stepper, scale = Stepper.theta(lam, dt, theta, capacity)
        for i, x in enumerate(lam.tolist()):
            denom = 1.0 - theta * dt * x
            assert stepper.gain[i] == (1.0 + (1.0 - theta) * dt * x) / denom
            assert scale[i] == dt / (capacity * denom)
        assert stepper.gain[0] == 1.0 and np.all(np.abs(stepper.gain) <= 1.0)
        with pytest.raises(ValueError):   # no input matrix: only ``held`` steps it
            stepper.step(np.zeros(lam.size), np.ones(1))

    @pytest.mark.parametrize("n", [0, -3, 2.0, True])
    def test_non_positive_or_non_integral_step_count_rejected(self, n):
        stepper, _ = self._stepper(3)
        y = np.zeros(stepper.gain.size)
        with pytest.raises(ValueError, match="step count"):
            stepper.held(y, y, n)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_state_raises(self, bad):
        stepper, _ = self._stepper(5)
        y = np.zeros(stepper.gain.size)
        y[3] = bad
        with pytest.raises(NumericalError, match="non-finite state"):
            stepper.held(y, np.ones_like(y), 4)


class TestStream:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(cells_and_coolings(), st.integers(1, 5), st.integers(1, 5),
           st.floats(0.05, 50.0), st.integers(0, 40), st.integers(1, 9),
           st.integers(0, 2**32 - 1))
    def test_blocks_match_one_block_bit_for_bit(self, cell, M, N, dt, K, stride, seed):
        """Stepping in blocks of at most 1, 3 or 7 steps (never fewer than
        two), or of the default size, gives the outputs, the sampled modal
        states and every metric of one block over the whole run, bit for
        bit."""
        model = assemble(*cell, M, N)
        rng = np.random.default_rng(seed)
        x0 = rng.standard_normal(model.order)
        tinf = 40.0 * rng.standard_normal((K + 1, 4))
        w = 1e5 * rng.standard_normal(K + 1)

        def blocked(step_block):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(simulate, "STEP_BLOCK", step_block)
                return run(model, x0, tinf, w, dt, K * dt, grid_shape=(5, 4),
                           metrics_stride=stride)

        whole = blocked(max(K, 1) * model.order)
        assert whole.outputs.shape == (K + 1, 4)
        assert whole.states.shape == (len(metric_steps(K, stride)), model.order)
        for step_block in (model.order, 3 * model.order, 7 * model.order,
                           simulate.STEP_BLOCK):
            res = blocked(step_block)
            for name, value in vars(whole).items():
                assert np.array_equal(getattr(res, name), value), (step_block, name)

    def test_long_run_holds_no_trajectory(self):
        """A K-step run at O=400 keeps its traced heap below a quarter of the
        (K, order) trajectory it never holds."""
        model = assemble(PAPER, SC, 20, 20)
        x0 = project_initial_state(model, 15.0)
        K = 4_000
        tracemalloc.start()
        try:
            res = run(model, x0, None, 1e5, dt=1.0, horizon=float(K),
                      metrics_stride=None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.outputs.shape == (K + 1, 4)
        assert peak < K * model.order * 8 / 4

    @pytest.mark.parametrize("M,N,K", [(1, 1, 10), (3, 3, 120), (20, 20, 200)])
    def test_outputs_only_run(self, M, N, K):
        """``metrics_stride=None`` gives the outputs of a fully sampled run
        bit for bit, in one block (O=1, 9) or several (O=400), keeps no
        state, takes no metric sample and builds no FieldEvaluator."""
        model = assemble(PAPER, SC, M, N)
        x0 = project_initial_state(model, 15.0)
        q = np.linspace(0.0, 1e5, K + 1)
        res = run(model, x0, None, q, dt=1.0, horizon=float(K), metrics_stride=None)
        assert model.evaluators == {}
        full = run(model, x0, None, q, dt=1.0, horizon=float(K), grid_shape=(5, 5),
                   metrics_stride=1)
        assert np.array_equal(res.outputs, full.outputs)
        assert np.array_equal(res.times, full.times)
        assert res.states.shape == (0, model.order)
        assert metric_steps(K, None) == []
        for f in fields(MetricsRecord):
            assert getattr(res, f.name).shape == (0,), f.name
        assert res.metrics_times.shape == (0,)

    @pytest.mark.parametrize("stride", [0, -3, True, 2.5, np.float64(2.0)])
    def test_bad_stride_is_named(self, stride):
        """A stride that is not an integer >= 1 is an error naming it, on
        ``run`` and on both strides of ``fd_solve``; it never falls back to
        sampling every step."""
        model = assemble(PAPER, SC, 2, 2)
        y0 = project_initial_state(model, 15.0)
        with pytest.raises(ValueError, match="metrics_stride must be an integer >= 1"):
            run(model, y0, None, 1e4, 1.0, 5.0, metrics_stride=stride)
        for name in ("output_stride", "metrics_stride"):
            with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
                fd_solve(PAPER, SC, None, 1e4, FdConfig(4, 4, 1.0), horizon=5.0,
                         **{name: stride})


class TestModalFirst:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(cells_and_coolings(), st.integers(1, 6), st.integers(1, 6),
           st.floats(0.05, 50.0), st.integers(0, 2**32 - 1))
    def test_random_cells_outputs_and_states_from_the_modal_trajectory(
            self, cell, M, N, dt, seed):
        """``run`` keeps the sampled states modal: they are the rows of the
        modal trajectory at the sampled steps, bit for bit, and its outputs
        there equal C X + Dft u of the Galerkin states X they map to, u the
        input applied up to each step (the first row at step 0)."""
        model = assemble(*cell, M, N)
        rng = np.random.default_rng(seed)
        tinf = 40.0 * rng.standard_normal((7, 4))
        u = cooling_powers(model, tinf)
        w = 1e5 * rng.standard_normal(7)
        y0 = rng.standard_normal(model.order)
        res = run(model, y0, tinf, w, dt, 6 * dt, grid_shape=(5, 5), metrics_stride=4)
        idx = metric_steps(6, 4)
        modal = discretize(model, dt).trajectory(y0, np.column_stack([u, w])[:-1])
        assert np.array_equal(res.states, modal[idx])
        names = {f.name for f in fields(SimResult)}
        assert "states" in names and not names & {"modal", "modes"}
        X = to_modal(model, res.states, inverse=True)
        u_rec = np.vstack([u[:1], u[:-1]])
        assert_close_rel(res.outputs[idx], X @ model.C.T + u_rec[idx] @ model.Dft.T,
                         1e-12)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(cells_and_coolings(), st.integers(1, 8), st.integers(1, 8),
           st.floats(0.05, 50.0), st.integers(0, 2**32 - 1))
    def test_random_cells_states_are_the_modal_image_of_the_dense_recursion(
            self, cell, M, N, dt, seed):
        """At ``metrics_stride=1`` the states of ``run`` are the modal
        coordinates of the dense Galerkin recursion X' = Ad X + Bd [u; w],
        stepped with the augmented exponential, at every step."""
        model = assemble(*cell, M, N)
        rng = np.random.default_rng(seed)
        K = 5
        x0 = rng.standard_normal(model.order)
        tinf = 40.0 * rng.standard_normal((K + 1, 4))
        u = cooling_powers(model, tinf)
        w = 1e5 * rng.standard_normal(K + 1)
        ad, bd = expm_zoh(model, dt)
        X = [x0]
        for k in range(K):
            X.append(ad @ X[-1] + bd @ np.append(u[k], w[k]))
        res = run(model, to_modal(model, x0), tinf, w, dt, K * dt, grid_shape=(5, 5),
                  metrics_stride=1)
        assert_close_rel(res.states, to_modal(model, np.array(X)), 1e-10)

    def test_result_keeps_no_model_alive(self):
        """A result holds arrays only, neither the model nor its mode
        matrices, so the model is freed by reference counting while the
        result lives on."""
        model = assemble(PAPER, SC, 2, 2)
        y0 = project_initial_state(model, 15.0)
        res = run(model, y0, None, 1e5, dt=5.0, horizon=20.0, grid_shape=(9, 9))
        states = res.states.copy()
        assert all(isinstance(v, np.ndarray) for v in vars(res).values())
        alive = weakref.ref(model)
        gc.disable()
        try:
            del model
            assert alive() is None
        finally:
            gc.enable()
        assert np.array_equal(res.states, states)


class TestReconstruct:
    def test_zero_state_zero_input(self):
        model = assemble(PAPER, SC, 2, 2)
        grid = FieldEvaluator(model, 9, 9).field(np.zeros(model.order), np.zeros(3))
        assert np.all(grid.values == 0.0)
        assert np.all(grid.dT_dr == 0.0)

    def test_matches_outputs_at_spec_locations(self):
        model = assemble(PAPER, scenario_cooling("aTSC"), 3, 3)
        x = np.linspace(-0.5, 0.5, model.order)
        u = np.array([6000.0, 6000.0, 6000.0])
        grid = FieldEvaluator(model, 41, 41).field(to_modal(model, x), u)
        y = model.C @ x + model.Dft @ u
        mid = 20   # index of 0.0 in linspace(-1, 1, 41)
        assert grid.values[-1, mid] == pytest.approx(y[0], abs=1e-10)
        assert grid.values[0, mid] == pytest.approx(y[1], abs=1e-10)
        assert grid.values[mid, -1] == pytest.approx(y[2], abs=1e-10)
        assert grid.values[mid, 0] == pytest.approx(y[3], abs=1e-10)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(cells_and_coolings(), st.integers(1, 5), st.integers(1, 5),
           st.integers(2, 23), st.integers(2, 23),
           st.integers(1, 2 * METRICS_BLOCK + 3), st.integers(0, 2**32 - 1))
    def test_matches_independent_reconstruction(self, cell, M, N, n_r, n_z,
                                                n_samples, seed):
        """Field and gradients of the modal images of random Galerkin states,
        for random cells, orders and grids, equal the Galerkin basis
        expansion plus each side's particular component grid, scaled by alpha
        and beta: the mode matrices folded into the evaluator's tables lose
        nothing. Stacked metrics are the reductions of those fields."""
        spec, cooling = cell
        model = assemble(spec, cooling, M, N)
        rng = np.random.default_rng(seed)
        X = rng.uniform(-20.0, 40.0, (n_samples, model.order))
        u = rng.uniform(0.0, 4e4, (n_samples, model.n_inputs))
        ev = FieldEvaluator(model, n_r, n_z)
        Y = to_modal(model, X)

        grid = ev.field(Y, u)
        want = [expansion(model, X, u, ev.r_nodes, ev.z_nodes, dr, dz)
                for dr, dz in ((0, 0), (1, 0), (0, 1))]
        for got, ref in zip((grid.values, grid.dT_dr, grid.dT_dz), want):
            assert got.shape == (n_samples, n_r, n_z)
            assert_close_rel(got, ref, 1e-12)
        m = ev.metrics(Y, u)
        scale = [np.abs(w).max() for w in want]
        assert np.abs(m.T_max - want[0].max(axis=(1, 2))).max() <= 1e-12 * scale[0]
        assert np.abs(m.T_min - want[0].min(axis=(1, 2))).max() <= 1e-12 * scale[0]
        for got, ref, sc in ((m.dTr_max, np.abs(want[1]).max(axis=(1, 2)), scale[1]),
                             (m.dTz_max, np.abs(want[2]).max(axis=(1, 2)), scale[2]),
                             (m.dTr_mean, np.abs(want[1]).mean(axis=(1, 2)), scale[1]),
                             (m.dTz_mean, np.abs(want[2]).mean(axis=(1, 2)), scale[2])):
            assert np.abs(got - ref).max() <= 1e-12 * sc

    def test_metrics_and_fields_do_not_share_arrays(self):
        """A FieldGrid keeps its values through later metrics and field calls."""
        model, modal, u = _heated_from_outside()
        ev = FieldEvaluator(model, 9, 7)
        first = ev.field(modal[-1], u)
        kept = [a.copy() for a in (first.values, first.dT_dr, first.dT_dz)]
        ev.metrics(modal, u)
        second = ev.field(modal[0], u)
        for a, b in zip((first.values, first.dT_dr, first.dT_dz), kept):
            assert np.array_equal(a, b)
        for a in (first.values, first.dT_dr, first.dT_dz):
            for b in (second.values, second.dT_dr, second.dT_dz):
                assert not np.shares_memory(a, b)

    def test_default_grid_shape(self):
        model = assemble(PAPER, SC, 1, 1)
        grid = FieldEvaluator(model).field(np.zeros(1), np.zeros(3))
        assert grid.values.shape == (41, 41)
        assert grid.r_nodes[0] == -1.0 and grid.r_nodes[-1] == 1.0


class TestEvaluatorCache:
    def test_one_evaluator_per_model_and_grid(self):
        model, other = assemble(PAPER, SC, 2, 2), assemble(PAPER, SC, 2, 2)
        ev = FieldEvaluator.of(model, 9, 7)
        assert FieldEvaluator.of(model, 9, 7) is ev
        assert FieldEvaluator.of(model, 7, 9) is not ev
        assert FieldEvaluator.of(other, 9, 7) is not ev
        x0 = project_initial_state(model, 15.0)
        run(model, x0, None, 1e5, dt=5.0, horizon=20.0, grid_shape=(9, 7))
        assert model.evaluators == {(9, 7): ev, (7, 9): FieldEvaluator.of(model, 7, 9)}

    def test_threads_sharing_a_model_build_one_evaluator(self, monkeypatch):
        built = []
        init = FieldEvaluator.__init__

        def counting_init(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(FieldEvaluator, "__init__", counting_init)
        model = assemble(PAPER, SC, 3, 3)
        start = threading.Barrier(4)
        got = []

        def first_use():
            start.wait()
            got.append(FieldEvaluator.of(model, 15, 15))

        threads = [threading.Thread(target=first_use) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)   # interleave the threads often
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(built) == 1 and got == built * 4

    def test_model_with_cached_evaluator_freed_without_cyclic_gc(self):
        """The cached evaluator holds no reference back to its model, so
        dropping the model frees it by reference counting alone."""
        model = assemble(PAPER, SC, 2, 2)
        x0 = project_initial_state(model, 15.0)
        run(model, x0, None, 1e5, dt=5.0, horizon=20.0, grid_shape=(9, 9))
        assert model.evaluators
        alive = weakref.ref(model)
        gc.disable()
        try:
            del model
            assert alive() is None
        finally:
            gc.enable()


def _heated_from_outside():
    """(model, modal trajectory, u) of a cell over the 60 s after its surface
    coolant stepped from 15 to 40 degC: a field that rises towards the outer
    radius."""
    cooling = CoolingConfig(SideCooling(400.0, 40.0), SideCooling(0.0, 15.0),
                            SideCooling(0.0, 15.0), SideCooling(0.0, 15.0))
    model = assemble(PAPER, cooling, 3, 3)
    x0 = project_initial_state(model, 15.0, np.zeros(4))
    res = run(model, x0, None, 0.0, dt=5.0, horizon=60.0, grid_shape=(5, 5),
              metrics_stride=1)
    return model, res.states, cooling_powers(model, cooling.T_inf)


class TestMetrics:
    def test_uniform_field(self):
        """An insulated cell's first basis function is the constant T_0. At
        O = 1 it is also the only mode, so the modal tables hold one exactly
        constant column per direction and the field is exactly uniform; at
        higher order the other modes carry round-off of the 1D
        eigenvectors, which the expansion test bounds."""
        model = assemble(PAPER, INSULATED, 1, 1)
        x = np.array([20.0])
        m = FieldEvaluator(model, 11, 11).metrics(to_modal(model, x), np.zeros(3))
        assert m.T_mean == pytest.approx(20.0)
        assert m.dT == 0.0
        assert m.dTr_max == 0.0 and m.dTz_max == 0.0

    def test_linear_field_gradient_scaling(self):
        """Analytic gradients are d/dr of the scaled expansion times alpha =
        2 / (R_out - R_in): they match second-order differences of the field
        in physical radius, and the metrics take their extrema."""
        model, modal, u = _heated_from_outside()
        ev = FieldEvaluator(model, 2001, 5)
        grid = ev.field(modal[-1], u)
        r_phys = PAPER.R_in + (grid.r_nodes + 1.0) * (PAPER.R_out - PAPER.R_in) / 2
        fd = np.gradient(grid.values, r_phys, axis=0, edge_order=2)
        assert np.abs(fd - grid.dT_dr).max() <= 1e-4 * np.abs(grid.dT_dr).max()
        m = ev.metrics(modal[-1], u)
        assert m.dTr_max == pytest.approx(np.abs(grid.dT_dr).max(), rel=1e-12)
        assert m.dTr_mean == pytest.approx(np.abs(grid.dT_dr).mean(), rel=1e-12)

    def test_volume_weighted_mean_favours_outer_radius(self):
        """The mean is the radius-weighted trapezoid sum over the annulus; for
        a field rising towards the surface it lies above the unweighted one."""
        model, modal, u = _heated_from_outside()
        ev = FieldEvaluator(model, 41, 41)
        values = ev.field(modal[-1], u).values
        tr = np.ones(41)
        tr[0] = tr[-1] = 0.5
        r_phys = PAPER.R_in + (ev.r_nodes + 1.0) * (PAPER.R_out - PAPER.R_in) / 2
        weights = np.outer(tr * r_phys, tr)
        weighted = np.sum(weights * values) / weights.sum()
        unweighted = np.sum(np.outer(tr, tr) * values) / np.outer(tr, tr).sum()
        t_mean = ev.metrics(modal[-1], u).T_mean
        assert t_mean == pytest.approx(weighted, rel=1e-13)
        assert t_mean > unweighted + 0.1

    def test_stacked_samples_match_single_samples(self):
        """A stack whose length is not a multiple of METRICS_BLOCK gives the
        per-sample metrics, and those are the reductions of the field."""
        model, modal, u = _heated_from_outside()
        assert modal.shape[0] % METRICS_BLOCK != 0
        u_rows = np.tile(u, (modal.shape[0], 1))
        ev = FieldEvaluator(model, 17, 13)
        stacked = ev.metrics(modal, u_rows)
        broadcast = ev.metrics(modal, u)
        for name, value in vars(stacked).items():
            assert np.array_equal(getattr(broadcast, name), value)
        for k, y in enumerate(modal):
            single = ev.metrics(y, u)
            grid = ev.field(y, u)
            assert single.T_max == grid.values.max()
            assert single.dTz_max == np.abs(grid.dT_dz).max()
            for name, value in vars(single).items():
                assert getattr(stacked, name)[k] == pytest.approx(value, rel=1e-12, abs=1e-12)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(cells_and_coolings(), st.integers(1, 5), st.integers(1, 5),
           st.integers(2, 17), st.integers(2, 17),
           st.integers(1, METRICS_BLOCK + 3), st.integers(0, 2**32 - 1))
    def test_metrics_of_modal_samples_reduce_the_galerkin_expansion(
            self, cell, M, N, n_r, n_z, n_samples, seed):
        """All eight metrics of the modal images of random Galerkin states,
        stacked and one sample at a time, are the reductions of the Galerkin
        expansion of those states: the trapezoid volume mean (radius-weighted
        on a cylinder), the extrema, and the largest and grid-mean gradient
        magnitudes."""
        model = assemble(*cell, M, N)
        spec = model.spec
        rng = np.random.default_rng(seed)
        X = rng.uniform(-20.0, 40.0, (n_samples, model.order))
        u = rng.uniform(0.0, 4e4, (n_samples, model.n_inputs))
        ev = FieldEvaluator(model, n_r, n_z)
        r, z = ev.r_nodes, ev.z_nodes
        T, T_r, T_z = (expansion(model, X, u, r, z, dr, dz)
                       for dr, dz in ((0, 0), (1, 0), (0, 1)))
        radius = (spec.R_in + (r + 1.0) * (spec.R_out - spec.R_in) / 2
                  if spec.is_cylindrical else np.ones(n_r))
        vol = np.outer(np.r_[0.5, np.ones(n_r - 2), 0.5] * radius,
                       np.r_[0.5, np.ones(n_z - 2), 0.5])
        grid = (1, 2)
        want = {
            "T_mean": (np.sum(vol * T, axis=grid) / vol.sum(), T),
            "T_max": (T.max(axis=grid), T),
            "T_min": (T.min(axis=grid), T),
            "dT": (np.ptp(T, axis=grid), T),
            "dTr_max": (np.abs(T_r).max(axis=grid), T_r),
            "dTz_max": (np.abs(T_z).max(axis=grid), T_z),
            "dTr_mean": (np.abs(T_r).mean(axis=grid), T_r),
            "dTz_mean": (np.abs(T_z).mean(axis=grid), T_z),
        }
        Y = to_modal(model, X)
        stacked = ev.metrics(Y, u)
        single = ev.metrics(Y[0], u[0])
        for name, (ref, field) in want.items():
            tol = 1e-12 * np.abs(field).max()
            assert np.abs(getattr(stacked, name) - ref).max() <= tol, name
            assert type(getattr(single, name)) is float
            assert abs(getattr(single, name) - ref[0]) <= tol, name

    def test_radial_steady_core_surface_difference(self):
        model = assemble(PAPER, RADIAL_ONLY, 4, 4)
        u = cooling_powers(model, RADIAL_ONLY.T_inf)
        x_inf = np.linalg.solve(model.A, -(model.B @ u + model.F * 1e5))
        y_inf = model.C @ x_inf + model.Dft @ u
        assert y_inf[1] - y_inf[0] == pytest.approx(CORE_MINUS_SURF, rel=0.02)


class TestMetricSubsets:
    """A caller names the metrics it needs: the named ones are those of a call
    for all eight, bit for bit, and the others are None."""

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(cells_and_coolings(), st.integers(1, 5), st.integers(1, 5),
           st.integers(2, 17), st.integers(2, 17),
           st.integers(1, 2 * METRICS_BLOCK + 3),
           st.lists(st.sampled_from(METRIC_NAMES), min_size=1, unique=True),
           st.integers(0, 2**32 - 1))
    def test_named_metrics_are_those_of_the_full_call(self, cell, M, N, n_r, n_z,
                                                      n_samples, names, seed):
        """For random cells, orders, grids and name subsets, stacked and one
        sample at a time."""
        model = assemble(*cell, M, N)
        rng = np.random.default_rng(seed)
        Y = to_modal(model, rng.uniform(-20.0, 40.0, (n_samples, model.order)))
        u = rng.uniform(0.0, 4e4, (n_samples, model.n_inputs))
        ev = FieldEvaluator(model, n_r, n_z)
        for y, v in ((Y, u), (Y[0], u[0])):
            full, part = ev.metrics(y, v), ev.metrics(y, v, names=tuple(names))
            for name in METRIC_NAMES:
                if name in names:
                    assert np.array_equal(getattr(part, name), getattr(full, name)), name
                    assert type(getattr(part, name)) is type(getattr(full, name))
                else:
                    assert getattr(part, name) is None, name

    @pytest.mark.parametrize("names, fields_read", [
        (("T_mean",), 0), (("dTr_mean", "dTz_mean"), 2), (("T_max", "dTr_max"), 2),
        (("dT",), 1), (None, 3)])
    def test_only_the_fields_read_are_reconstructed(self, monkeypatch, names,
                                                    fields_read):
        """The buffer holds the fields the names read, and T_mean alone
        reconstructs none."""
        model, modal, u = _heated_from_outside()
        ev = FieldEvaluator(model, 9, 7)
        slots = []
        reconstruct = FieldEvaluator._reconstruct
        monkeypatch.setattr(FieldEvaluator, "_reconstruct",
                            lambda self, Y, u, out, *a: slots.append(out.shape[0])
                            or reconstruct(self, Y, u, out, *a))
        ev.metrics(modal, u, names=names)
        n_blocks = -(-modal.shape[0] // METRICS_BLOCK)
        assert slots == ([fields_read] * n_blocks if fields_read else [])

    @pytest.mark.parametrize("names, match", [
        ((), "at least one metric"), (("T_mean", "T_avg"), "T_avg"),
        ("T_mean", "'T'")], ids=["empty", "unknown", "a-string"])
    def test_empty_or_unknown_names_rejected(self, names, match):
        """On the evaluator, on ``run`` before any step, and on ``fd_solve``;
        a bare string is not a tuple of names."""
        model = assemble(PAPER, SC, 2, 2)
        y0 = project_initial_state(model, 15.0)
        with pytest.raises(ValueError, match=match):
            FieldEvaluator.of(model).metrics(y0, U_SC, names=names)
        with pytest.raises(ValueError, match=match):
            run(model, y0, None, 1e4, 1.0, 5.0, metric_names=names)
        with pytest.raises(ValueError, match=match):
            fd_solve(PAPER, SC, None, 1e4, FdConfig(4, 4, 1.0), horizon=5.0,
                     metric_names=names)

    @pytest.mark.parametrize("stride", [1, 3, None])
    def test_run_takes_the_named_metrics(self, stride):
        """A run's named metrics are those of a run for all eight, its
        outputs and states the same; an outputs-only run leaves the named
        metrics empty and the others None."""
        model = assemble(PAPER, SC, 3, 3)
        y0 = project_initial_state(model, 15.0)
        q = np.linspace(0.0, 1e5, 21)
        names = ("T_mean", "dTr_max", "dTz_mean")
        full = run(model, y0, None, q, 1.0, 20.0, metrics_stride=stride)
        part = run(model, y0, None, q, 1.0, 20.0, metrics_stride=stride,
                   metric_names=names)
        for name in ("outputs", "states", "metrics_times", *names):
            assert np.array_equal(getattr(part, name), getattr(full, name)), name
        for name in set(METRIC_NAMES) - set(names):
            assert getattr(part, name) is None, name
