"""Closed-loop regulation of the mean cell temperature.

One PI controller per actively cooled side manipulates that side's coolant
free-stream temperature (the convection coefficients stay fixed per
scenario, so u_side = h_side * T_inf,side makes the coolant temperature the
physical handle). The mean temperature is not measurable, so an open-loop
estimator mirrors the reduced model: it is propagated with the same inputs
as the plant and its reconstructed volume-mean feeds the error. Passive
sides hold their baseline coolant temperature for the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CoolingConfig, active_sides, input_sides
from .galerkin import ReducedModel, assemble, project_initial_state
from .reference import FdSolver
from .simulate import DEFAULT_GRID, FieldEvaluator, discretize

DEFAULT_GAINS = (2.0, 0.05)
DEFAULT_LIMITS = (-20.0, 40.0)   # coolant temperature span, degC


@dataclass
class PiController:
    """PI controller with output clamping and conditional-integration
    anti-windup (the integral freezes while the output is saturated)."""

    kp: float
    ki: float
    baseline: float = 0.0
    output_limits: tuple = DEFAULT_LIMITS
    anti_windup: bool = True
    integral: float = 0.0

    def __post_init__(self):
        lo, hi = self.output_limits
        if lo > hi:
            raise ValueError("output_limits must satisfy lo <= hi")


def pi_step(c: PiController, error: float, dt: float) -> float:
    """Advance the controller one step and return the coolant temperature
    command baseline + kp*e + ki*integral(e), clamped to the output limits."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    candidate = c.integral + error * dt
    raw = c.baseline + c.kp * error + c.ki * candidate
    lo, hi = c.output_limits
    if raw < lo or raw > hi:
        if not c.anti_windup:
            c.integral = candidate
        return min(max(raw, lo), hi)
    c.integral = candidate
    return raw


class OpenLoopEstimator:
    """Reduced-model state propagated with the plant's inputs, no feedback
    correction; exposes the estimated volume-mean temperature."""

    def __init__(self, model: ReducedModel, dt: float, T_init: float,
                 u0: np.ndarray, grid_shape=DEFAULT_GRID):
        self.model = model
        self._stepper = discretize(model, dt)
        self._evaluator = FieldEvaluator(model, *grid_shape)
        self.X = project_initial_state(model, T_init, u0)

    def mean_temperature(self, u_applied: np.ndarray) -> float:
        return self._evaluator.metrics(self.X, u_applied).T_mean

    def metrics(self, u_applied: np.ndarray):
        return self._evaluator.metrics(self.X, u_applied)

    def step(self, u: np.ndarray, w: float):
        self.X = self._stepper.step(self.X, u, w)


def estimate_mean(est: OpenLoopEstimator, u, w: float) -> float:
    """Propagate the estimator one step with the plant's inputs and return
    the resulting mean-temperature estimate."""
    u = np.asarray(u, dtype=float)
    est.step(u, w)
    return est.mean_temperature(u)


class _RomPlant:
    def __init__(self, model: ReducedModel, dt: float, T_init: float,
                 u0: np.ndarray, grid_shape):
        self.spec = model.spec
        self.cooling = model.cooling
        self._model = model
        self._stepper = discretize(model, dt)
        self._evaluator = FieldEvaluator(model, *grid_shape)
        self.X = project_initial_state(model, T_init, u0)

    def outputs(self, u_applied):
        return self._model.C @ self.X + self._model.Dft @ u_applied

    def metrics(self, u_applied):
        m = self._evaluator.metrics(self.X, u_applied)
        return m.T_mean, m.dTr_mean, m.dTz_mean

    def step(self, u, w):
        self.X = self._stepper.step(self.X, u, w)


class _FdPlant:
    def __init__(self, solver: FdSolver, T_init: float):
        self.spec = solver.spec
        self.cooling = solver.cooling
        self._solver = solver
        self.state = solver.uniform_field(T_init)

    def outputs(self, u_applied):
        return self._solver.outputs(self.state)

    def metrics(self, u_applied):
        t_mean, _, _, _, _, _, d_r_mean, d_z_mean = self._solver.metrics(self.state)
        return t_mean, d_r_mean, d_z_mean

    def step(self, u, w):
        tinf = self._solver.tinf_from_inputs(u)
        self.state = self._solver.step(self.state, tinf, w)


@dataclass(frozen=True, eq=False)
class ControlTrace:
    """Closed-loop run record: per-step commands, mean-temperature tracking,
    and plant gradient statistics. Rows 0..K-1 are the commands applied over
    each step; the final row repeats the last command at the horizon."""

    times: np.ndarray
    setpoint: float
    sides: tuple                 # model input order
    active: tuple                # sides under PI control
    coolant: np.ndarray          # (K+1, n_inputs) commanded coolant temps, degC
    u: np.ndarray                # (K+1, n_inputs) cooling powers, W m^-2
    T_mean: np.ndarray           # plant volume mean
    T_hat_mean: np.ndarray       # estimator volume mean
    outputs: np.ndarray          # plant mid-side temperatures
    dTr_mean: np.ndarray
    dTz_mean: np.ndarray


def closed_loop_run(plant, scenario, setpoint: float, q, dt: float,
                    horizon: float, gains=DEFAULT_GAINS, limits=DEFAULT_LIMITS,
                    estimator_model: ReducedModel | None = None,
                    T_init: float = 15.0, grid_shape=DEFAULT_GRID) -> ControlTrace:
    """Run the multi-PI mean-temperature loop of one cooling scenario.

    ``plant`` is a ReducedModel or an FdSolver; ``scenario`` is a preset name
    or an explicit tuple of actively controlled side names; ``q`` is the
    volumetric heat rate (scalar or per-step array). Cooling power is assumed
    uniformly distributed over each active side.
    """
    if isinstance(scenario, str):
        active = active_sides(scenario)
    else:
        active = tuple(scenario)
    cooling: CoolingConfig = plant.cooling
    sides = input_sides(plant.spec.shape)
    for side in active:
        if side not in sides:
            raise ValueError(f"active side {side!r} is not a model input")
        if cooling.side(side).h <= 0.0:
            raise ValueError(f"active side {side!r} has no convection")

    n_steps = int(np.floor(horizon / dt + 1e-9))
    q_arr = np.asarray(q, dtype=float)
    if q_arr.ndim == 0:
        q_arr = np.broadcast_to(q_arr, (n_steps + 1,))

    baseline_tinf = np.array([cooling.side(s).T_inf for s in sides])
    h_vec = np.array([cooling.side(s).h for s in sides])
    u_baseline = h_vec * baseline_tinf

    if isinstance(plant, ReducedModel):
        plant_adapter = _RomPlant(plant, dt, T_init, u_baseline, grid_shape)
        est_model = estimator_model if estimator_model is not None else plant
    elif isinstance(plant, FdSolver):
        plant_adapter = _FdPlant(plant, T_init)
        est_model = estimator_model if estimator_model is not None else \
            assemble(plant.spec, plant.cooling, 3, 3)
    else:
        raise TypeError("plant must be a ReducedModel or FdSolver")
    estimator = OpenLoopEstimator(est_model, dt, T_init, u_baseline, grid_shape)

    controllers = {
        side: PiController(gains[0], gains[1],
                           baseline=cooling.side(side).T_inf,
                           output_limits=limits)
        for side in active
    }

    shape = (n_steps + 1, len(sides))
    coolant = np.empty(shape)
    u_hist = np.empty(shape)
    t_mean = np.empty(n_steps + 1)
    t_hat = np.empty(n_steps + 1)
    outputs = np.empty((n_steps + 1, 4))
    d_r = np.empty(n_steps + 1)
    d_z = np.empty(n_steps + 1)

    u_applied = u_baseline.copy()
    for k in range(n_steps + 1):
        t_mean[k], d_r[k], d_z[k] = plant_adapter.metrics(u_applied)
        t_hat[k] = estimator.mean_temperature(u_applied)
        outputs[k] = plant_adapter.outputs(u_applied)
        if k == n_steps:
            coolant[k] = coolant[k - 1] if n_steps > 0 else baseline_tinf
            u_hist[k] = u_applied
            break
        error = setpoint - t_hat[k]
        tinf_cmd = baseline_tinf.copy()
        for j, side in enumerate(sides):
            if side in controllers:
                tinf_cmd[j] = pi_step(controllers[side], error, dt)
        u_applied = h_vec * tinf_cmd
        coolant[k] = tinf_cmd
        u_hist[k] = u_applied
        plant_adapter.step(u_applied, q_arr[k])
        estimator.step(u_applied, q_arr[k])

    return ControlTrace(
        times=np.arange(n_steps + 1) * dt, setpoint=setpoint, sides=sides,
        active=active, coolant=coolant, u=u_hist, T_mean=t_mean,
        T_hat_mean=t_hat, outputs=outputs, dTr_mean=d_r, dTz_mean=d_z)
