"""Time stepping, reconstruction, and metrics.

Oracles: the matrix exponential of the dense augmented system, a fine-step
explicit RK4 integrator, closed-form radial steady states of the annulus, the
adiabatic energy balance q/(rho cp), exact ZOH semigroup identities,
second-order finite differences and trapezoid sums of the reconstructed field.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from celltherm.core import (
    CYLINDRICAL,
    POUCH,
    BoundaryInput,
    CellSpec,
    CoolingConfig,
    SideCooling,
    boundary_input_from_cooling,
    cell_volume,
    scenario_cooling,
)
from celltherm.chebyshev import basis_matrix
from celltherm.exceptions import NumericalError
from celltherm.galerkin import assemble, project_initial_state
from celltherm.particular import axial_scale, radial_scale
from celltherm.simulate import METRICS_BLOCK, FieldEvaluator, discretize, run

PAPER = CellSpec(shape=CYLINDRICAL, L=0.198, R_out=0.032, R_in=0.004,
                 rho=2118.0, cp=795.0, k_r=0.67, k_z=66.6)
SC = scenario_cooling("SC")
U_SC = boundary_input_from_cooling(SC).as_vector(CYLINDRICAL)

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


def one_step(model, x, u, w, dt):
    """State after one ``run`` step of length dt."""
    return run(model, x, u, w, dt, dt, metrics_stride=10**9).states[1]


def run_zoh(model, dt):
    """(Ad, Bd) read off ``run``, one step from each unit state and each unit
    input [u; w]."""
    n, m = model.order, model.n_inputs
    ad = np.column_stack([one_step(model, e, np.zeros(m), 0.0, dt)
                          for e in np.eye(n)])
    bd = np.column_stack([one_step(model, np.zeros(n), e, 0.0, dt)
                          for e in np.eye(m)]
                         + [one_step(model, np.zeros(n), np.zeros(m), 1.0, dt)])
    return ad, bd


def assert_close_rel(got, want, rel):
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


@st.composite
def cells_and_coolings(draw):
    """A random physical cell with a random per-side cooling (h = 0 on some
    sides; a cylinder's core is never cooled)."""
    unit = st.floats(0.0, 1.0)
    shape = draw(st.sampled_from([CYLINDRICAL, POUCH]))
    props = dict(L=0.05 + 0.25 * draw(unit), rho=1500.0 + 1500.0 * draw(unit),
                 cp=700.0 + 500.0 * draw(unit), k_r=0.3 + 3.0 * draw(unit),
                 k_z=1.0 + 99.0 * draw(unit))
    if shape == CYLINDRICAL:
        r_out = 0.01 + 0.04 * draw(unit)
        spec = CellSpec(shape=shape, R_out=r_out,
                        R_in=r_out * (0.05 + 0.45 * draw(unit)), **props)
    else:
        spec = CellSpec(shape=shape, D=0.05 + 0.25 * draw(unit), **props)
    sides = []
    for side in ("surface", "core", "top", "bottom"):
        cooled = draw(st.booleans()) and not (side == "core" and shape == CYLINDRICAL)
        h = 5.0 + 995.0 * draw(unit) if cooled else 0.0
        sides.append(SideCooling(h, 40.0 * draw(unit)))
    return spec, CoolingConfig(*sides)


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
            ad_run, bd_run = run_zoh(model, dt)
            assert_close_rel(ad_run, ad, 1e-12)
            assert_close_rel(bd_run, bd, 1e-12)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(cells_and_coolings(), st.integers(1, 5), st.integers(1, 5),
           st.floats(0.05, 50.0), st.integers(0, 2**32 - 1))
    def test_random_cells_match_augmented_expm(self, cell, M, N, dt, seed):
        """``run`` reproduces the augmented exponential for random physical
        cells, coolings, orders <= 25 and steps, and superposes: the response
        to (x0, u, w) is the zero-input plus the zero-state response."""
        model = assemble(*cell, M, N)
        ad, bd = expm_zoh(model, dt)
        ad_run, bd_run = run_zoh(model, dt)
        assert_close_rel(ad_run, ad, 1e-12)
        assert_close_rel(bd_run, bd, 1e-12)

        rng = np.random.default_rng(seed)
        x0 = rng.standard_normal(model.order)
        u = 1e3 * rng.standard_normal((4, model.n_inputs))
        w = 1e5 * rng.standard_normal(4)
        zeros = np.zeros_like(u)

        def states(x, uu, ww):
            return run(model, x, uu, ww, dt, 3 * dt, metrics_stride=10**9).states

        total = states(x0, u, w)
        parts = states(x0, zeros, 0.0) + states(np.zeros(model.order), u, w)
        assert_close_rel(total, parts, 1e-12)
        assert_close_rel(total[1], ad @ x0 + bd @ np.append(u[0], w[0]), 1e-12)

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
        u = U_SC
        a = one_step(model, x, u, 5e4, 0.2)
        b = run(model, x, u, 5e4, 0.1, 0.2, metrics_stride=10**9).states[2]
        assert np.abs(a - b).max() <= 1e-10 * max(1.0, np.abs(a).max())

    def test_zoh_matches_fine_rk4(self):
        model = assemble(PAPER, SC, 2, 2)
        a_c = np.linalg.solve(model.G, model.A)
        b_c = np.linalg.solve(model.G, model.B)
        f_c = np.linalg.solve(model.G, model.F)
        u, w = U_SC, 8e4
        rhs = lambda x: a_c @ x + b_c @ u + f_c * w

        x_rk = project_initial_state(model, 15.0, u)
        h = 0.001
        for _ in range(5000):
            k1 = rhs(x_rk)
            k2 = rhs(x_rk + h / 2 * k1)
            k3 = rhs(x_rk + h / 2 * k2)
            k4 = rhs(x_rk + h * k3)
            x_rk = x_rk + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

        res = run(model, project_initial_state(model, 15.0, u), u, w,
                  dt=0.1, horizon=5.0, metrics_stride=10**9)
        y_rk = model.C @ x_rk + model.Dft @ u
        assert np.abs(res.outputs[-1] - y_rk).max() <= 1e-6

    def test_bad_dt(self):
        model = assemble(PAPER, SC, 1, 1)
        with pytest.raises(ValueError):
            discretize(model, 0.0)
        for dt in (0.0, -1.0):
            with pytest.raises(ValueError, match="dt must be positive"):
                run(model, np.zeros(1), U_SC, 0.0, dt=dt, horizon=10.0)


class TestRun:
    def test_equilibrium_holds(self):
        """Uniform coolant at the initial temperature: outputs stay at 15 up
        to the spectral projection defect of the lifting expansion (the
        basis cannot represent the exact constant, so machine-level equality
        is not attainable; see also the initial-projection tests)."""
        model = assemble(PAPER, SC, 5, 5)
        x0 = project_initial_state(model, 15.0, U_SC)
        res = run(model, x0, U_SC, 0.0, dt=20.0, horizon=2000.0,
                  metrics_stride=10)
        assert np.abs(res.outputs - 15.0).max() <= 0.01
        # and the trajectory is essentially stationary
        assert np.abs(res.outputs[-1] - res.outputs[0]).max() <= 5e-3

    def test_insulated_energy_balance(self):
        model = assemble(PAPER, INSULATED, 2, 2)
        x0 = project_initial_state(model, 15.0, np.zeros(3))
        res = run(model, x0, np.zeros(3), 5e4, dt=1.0, horizon=100.0,
                  metrics_stride=20)
        slope = np.diff(res.T_mean) / np.diff(res.metrics_times)
        expected = 5e4 / (PAPER.rho * PAPER.cp)
        assert np.abs(slope - expected).max() <= 1e-3 * expected

    def test_radial_steady_state_surface_rise(self):
        u = boundary_input_from_cooling(RADIAL_ONLY).as_vector(CYLINDRICAL)
        model = assemble(PAPER, RADIAL_ONLY, 3, 3)
        x_inf = np.linalg.solve(model.A, -(model.B @ u + model.F * 1e5))
        y_inf = model.C @ x_inf + model.Dft @ u
        assert y_inf[0] - 15.0 == pytest.approx(SURFACE_RISE, rel=0.01)

    def test_superposition_zero_state(self):
        model = assemble(PAPER, scenario_cooling("aTSC"), 2, 2)
        parts = []
        for j in range(3):
            u = np.zeros(3)
            u[j] = 1500.0
            parts.append(run(model, np.zeros(model.order), u, 0.0, dt=5.0,
                             horizon=100.0, metrics_stride=10**9).outputs)
        total = run(model, np.zeros(model.order), np.full(3, 1500.0), 0.0,
                    dt=5.0, horizon=100.0, metrics_stride=10**9).outputs
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
        zeros = np.zeros(model.n_inputs)
        unit_mean = model.F @ project_initial_state(model, 1.0, zeros)
        rng = np.random.default_rng(seed)
        x0 = rng.standard_normal(model.order)
        q = 1e5 * rng.standard_normal(9)
        res = run(model, x0, zeros, q, dt, 8 * dt, metrics_stride=10**9)
        heat = model.rho_cp * cell_volume(spec) * (res.states @ model.F) / unit_mean
        generated = cell_volume(spec) * dt * np.concatenate([[0.0], np.cumsum(q[:-1])])
        scale = np.abs(heat - heat[0]).max() + np.abs(generated).max()
        assert np.abs(heat - heat[0] - generated).max() <= 1e-12 * scale

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(cells_and_coolings(), st.integers(1, 5), st.integers(1, 5),
           st.floats(0.05, 50.0), st.integers(0, 2**32 - 1))
    def test_random_cells_superpose_per_side(self, cell, M, N, dt, seed):
        """From rest, the response to u_a + u_b is the response to u_b plus
        that to each side's share of u_a: states, outputs (feedthrough
        included) and the volume mean."""
        model = assemble(*cell, M, N)
        rng = np.random.default_rng(seed)
        u_a, u_b = 1e3 * rng.standard_normal((2, 5, model.n_inputs))

        def response(u):
            res = run(model, np.zeros(model.order), u, 0.0, dt, 4 * dt,
                      grid_shape=(5, 5), metrics_stride=1)
            return res.states, res.outputs, res.T_mean

        parts = [response(u_a * e) for e in np.eye(model.n_inputs)] + [response(u_b)]
        for total, pieces in zip(response(u_a + u_b), zip(*parts)):
            scale = max(np.abs(p).max() for p in pieces)
            assert np.abs(total - sum(pieces)).max() <= 1e-12 * scale

    def test_zoh_exact_for_staircase_inputs(self):
        model = assemble(PAPER, SC, 2, 2)
        x0 = project_initial_state(model, 15.0, U_SC)
        q_coarse = np.resize(np.repeat([1e5, 0.0, 5e4], 4), 13)
        res_a = run(model, x0, U_SC, q_coarse, dt=10.0, horizon=120.0,
                    metrics_stride=10**9)
        q_fine = np.repeat(q_coarse, 2)[:25]
        res_b = run(model, x0, U_SC, q_fine, dt=5.0, horizon=120.0,
                    metrics_stride=10**9)
        assert np.abs(res_a.outputs[-1] - res_b.outputs[-1]).max() <= 1e-8

    def test_outputs_within_field_extrema(self):
        model = assemble(PAPER, scenario_cooling("btTC"), 3, 3)
        x0 = project_initial_state(model, 15.0, U_SC)
        res = run(model, x0, U_SC, 1e5, dt=5.0, horizon=300.0, metrics_stride=1)
        for k, t in enumerate(res.metrics_times):
            i = int(round(t / 5.0))
            assert res.T_min[k] - 1e-9 <= res.outputs[i].min()
            assert res.outputs[i].max() <= res.T_max[k] + 1e-9

    def test_max_mean_min_ordering(self):
        model = assemble(PAPER, SC, 3, 3)
        x0 = project_initial_state(model, 15.0, U_SC)
        res = run(model, x0, U_SC, 1e5, dt=5.0, horizon=200.0, metrics_stride=4)
        assert np.all(res.T_max >= res.T_mean - 1e-12)
        assert np.all(res.T_mean >= res.T_min - 1e-12)

    def test_unstable_dynamics_reported_with_step(self):
        model = assemble(PAPER, SC, 2, 2)
        unstable = replace(model, stiff_r=-200.0 * model.stiff_r,
                           stiff_z=-200.0 * model.stiff_z)
        with pytest.raises(NumericalError, match="step"):
            run(unstable, np.ones(model.order), U_SC, 0.0, dt=5.0, horizon=500.0)

    def test_boundary_input_accepted(self):
        model = assemble(PAPER, SC, 1, 1)
        u = BoundaryInput(surface=6000.0, top=450.0, bottom=450.0)
        res = run(model, np.zeros(1), u, 0.0, dt=1.0, horizon=5.0)
        assert res.outputs.shape == (6, 4)


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
        grid = FieldEvaluator(model, 41, 41).field(x, u)
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
        """Field and gradients of random cells, orders and grids equal the
        basis expansion plus each side's particular component grid, scaled by
        alpha and beta; stacked metrics are the reductions of those fields."""
        spec, cooling = cell
        model = assemble(spec, cooling, M, N)
        rng = np.random.default_rng(seed)
        X = rng.uniform(-20.0, 40.0, (n_samples, model.order))
        u = rng.uniform(0.0, 4e4, (n_samples, model.n_inputs))
        ev = FieldEvaluator(model, n_r, n_z)
        r, z = ev.r_nodes, ev.z_nodes

        def expected(dr, dz):
            grid = (basis_matrix(model.basis_r, r, dr) @ X.reshape(-1, M, N)
                    @ basis_matrix(model.basis_z, z, dz).T)
            for col, side in enumerate(model.sides):
                part = model.particular.component_grid(side, r, z, dr, dz)
                grid += u[:, col, None, None] * part
            return radial_scale(spec) ** dr * axial_scale(spec) ** dz * grid

        grid = ev.field(X, u)
        want = [expected(0, 0), expected(1, 0), expected(0, 1)]
        for got, ref in zip((grid.values, grid.dT_dr, grid.dT_dz), want):
            assert got.shape == (n_samples, n_r, n_z)
            assert_close_rel(got, ref, 1e-12)
        m = ev.metrics(X, u)
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
        model, states, u = _heated_from_outside()
        ev = FieldEvaluator(model, 9, 7)
        first = ev.field(states[-1], u)
        kept = [a.copy() for a in (first.values, first.dT_dr, first.dT_dz)]
        ev.metrics(states, u)
        second = ev.field(states[0], u)
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


def _heated_from_outside():
    """(model, states, u) of a cell over the 60 s after its surface coolant
    stepped from 15 to 40 degC: a field that rises towards the outer radius."""
    cooling = CoolingConfig(SideCooling(400.0, 40.0), SideCooling(0.0, 15.0),
                            SideCooling(0.0, 15.0), SideCooling(0.0, 15.0))
    model = assemble(PAPER, cooling, 3, 3)
    u = boundary_input_from_cooling(cooling).as_vector(CYLINDRICAL)
    x0 = project_initial_state(model, 15.0, np.zeros(3))
    res = run(model, x0, u, 0.0, dt=5.0, horizon=60.0, metrics_stride=10**9)
    return model, res.states, u


class TestMetrics:
    def test_uniform_field(self):
        """An insulated cell's first basis function is the constant T_0."""
        model = assemble(PAPER, INSULATED, 2, 2)
        x = np.array([20.0, 0.0, 0.0, 0.0])
        m = FieldEvaluator(model, 11, 11).metrics(x, np.zeros(3))
        assert m.T_mean == pytest.approx(20.0)
        assert m.dT == 0.0
        assert m.dTr_max == 0.0 and m.dTz_max == 0.0

    def test_linear_field_gradient_scaling(self):
        """Analytic gradients are d/dr of the scaled expansion times alpha =
        2 / (R_out - R_in): they match second-order differences of the field
        in physical radius, and the metrics take their extrema."""
        model, states, u = _heated_from_outside()
        ev = FieldEvaluator(model, 2001, 5)
        grid = ev.field(states[-1], u)
        r_phys = PAPER.R_in + (grid.r_nodes + 1.0) * (PAPER.R_out - PAPER.R_in) / 2
        fd = np.gradient(grid.values, r_phys, axis=0, edge_order=2)
        assert np.abs(fd - grid.dT_dr).max() <= 1e-4 * np.abs(grid.dT_dr).max()
        m = ev.metrics(states[-1], u)
        assert m.dTr_max == pytest.approx(np.abs(grid.dT_dr).max(), rel=1e-12)
        assert m.dTr_mean == pytest.approx(np.abs(grid.dT_dr).mean(), rel=1e-12)

    def test_volume_weighted_mean_favours_outer_radius(self):
        """The mean is the radius-weighted trapezoid sum over the annulus; for
        a field rising towards the surface it lies above the unweighted one."""
        model, states, u = _heated_from_outside()
        ev = FieldEvaluator(model, 41, 41)
        values = ev.field(states[-1], u).values
        tr = np.ones(41)
        tr[0] = tr[-1] = 0.5
        r_phys = PAPER.R_in + (ev.r_nodes + 1.0) * (PAPER.R_out - PAPER.R_in) / 2
        weights = np.outer(tr * r_phys, tr)
        weighted = np.sum(weights * values) / weights.sum()
        unweighted = np.sum(np.outer(tr, tr) * values) / np.outer(tr, tr).sum()
        t_mean = ev.metrics(states[-1], u).T_mean
        assert t_mean == pytest.approx(weighted, rel=1e-13)
        assert t_mean > unweighted + 0.1

    def test_stacked_samples_match_single_samples(self):
        """A stack whose length is not a multiple of METRICS_BLOCK gives the
        per-sample metrics, and those are the reductions of the field."""
        model, states, u = _heated_from_outside()
        assert states.shape[0] % METRICS_BLOCK != 0
        u_rows = np.tile(u, (states.shape[0], 1))
        ev = FieldEvaluator(model, 17, 13)
        stacked = ev.metrics(states, u_rows)
        broadcast = ev.metrics(states, u)
        for name, value in vars(stacked).items():
            assert np.array_equal(getattr(broadcast, name), value)
        for k, x in enumerate(states):
            single = ev.metrics(x, u)
            grid = ev.field(x, u)
            assert single.T_max == grid.values.max()
            assert single.dTz_max == np.abs(grid.dT_dz).max()
            for name, value in vars(single).items():
                assert getattr(stacked, name)[k] == pytest.approx(value, rel=1e-12, abs=1e-12)

    def test_radial_steady_core_surface_difference(self):
        u = boundary_input_from_cooling(RADIAL_ONLY).as_vector(CYLINDRICAL)
        model = assemble(PAPER, RADIAL_ONLY, 4, 4)
        x_inf = np.linalg.solve(model.A, -(model.B @ u + model.F * 1e5))
        y_inf = model.C @ x_inf + model.Dft @ u
        assert y_inf[1] - y_inf[0] == pytest.approx(CORE_MINUS_SURF, rel=0.02)
