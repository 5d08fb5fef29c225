"""Closed-loop regulation of the mean cell temperature.

One PI controller per actively cooled side manipulates that side's coolant
free-stream temperature (the convection coefficients stay fixed per
scenario, so u_side = h_side * T_inf,side makes the coolant temperature the
physical handle). The mean temperature is not measurable, so an open-loop
estimator mirrors the reduced model: it is propagated with the commanded
inputs, in modal coordinates through the package's one ZOH kernel
(``simulate.Stepper``), and its volume mean, a precomputed row, feeds the
error. The estimator never reads the plant, so a run first issues the whole
command sequence from the estimator alone, then runs the plant once, open
loop, under the recorded commands: a reduced-model plant through one
``Stepper.trajectory``, its outputs and one batched metrics call taken from
the modal trajectory as in ``simulate.run``, an FD plant stepped as
``fd_solve`` steps, on the plant's own solver, with each command held over
the FD steps of its control step. The estimator and a reduced-model plant
share the model's cached ``FieldEvaluator``.
Passive sides hold their baseline coolant temperature for the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CoolingConfig, active_sides, input_sides, per_step, step_count
from .galerkin import ReducedModel, assemble, project_initial_state
from .reference import FdSolver, _fd_solve_on, step_ratio
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
        return min(max(raw, lo), hi)
    c.integral = candidate
    return raw


class OpenLoopEstimator:
    """Reduced model stepped in modal coordinates with the commanded inputs,
    no feedback correction. Its volume-mean estimate is one precomputed row.
    It never reads the plant, so a closed-loop run issues every command
    before the plant runs."""

    def __init__(self, model: ReducedModel, dt: float, T_init: float,
                 u0: np.ndarray, grid_shape=DEFAULT_GRID):
        self._stepper = discretize(model, dt)
        evaluator = FieldEvaluator.of(model, *grid_shape)
        self._mean_row = evaluator.mean_state_row
        self._mean_input_row = evaluator.mean_input_row
        self.y = model.to_modal(project_initial_state(model, T_init, u0))

    def mean_temperature(self, u_applied: np.ndarray) -> float:
        return float(self._mean_row @ self.y + self._mean_input_row @ u_applied)

    def step(self, u: np.ndarray, w: float):
        self.y = self._stepper.step(self.y, np.append(u, w))


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
    uniformly distributed over each active side. The estimator issues every
    command first; the plant then runs once under them. An FD plant holds
    each command over dt / ``plant.cfg.dt`` FD steps, which must be an
    integer.
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

    baseline_tinf = np.array([cooling.side(s).T_inf for s in sides])
    h_vec = np.array([cooling.side(s).h for s in sides])
    u_baseline = h_vec * baseline_tinf

    if isinstance(plant, ReducedModel):
        est_model = estimator_model if estimator_model is not None else plant
    elif isinstance(plant, FdSolver):
        est_model = estimator_model if estimator_model is not None else \
            assemble(plant.spec, plant.cooling, 3, 3)
        fd_steps = step_ratio(dt, plant.cfg.dt)
        if fd_steps is None:
            raise ValueError(f"control step {dt} s is not a whole number of "
                             f"FD steps of {plant.cfg.dt} s")
    else:
        raise TypeError("plant must be a ReducedModel or FdSolver")
    estimator = OpenLoopEstimator(est_model, dt, T_init, u_baseline, grid_shape)
    n_steps = step_count(horizon, dt)
    q_arr = per_step(q, n_steps + 1, "q")

    controllers = {
        side: PiController(gains[0], gains[1],
                           baseline=cooling.side(side).T_inf,
                           output_limits=limits)
        for side in active
    }

    shape = (n_steps + 1, len(sides))
    coolant = np.empty(shape)
    u_hist = np.empty(shape)
    t_hat = np.empty(n_steps + 1)

    u_applied = u_baseline.copy()
    for k in range(n_steps):
        t_hat[k] = estimator.mean_temperature(u_applied)
        error = setpoint - t_hat[k]
        tinf_cmd = baseline_tinf.copy()
        for j, side in enumerate(sides):
            if side in controllers:
                tinf_cmd[j] = pi_step(controllers[side], error, dt)
        u_applied = h_vec * tinf_cmd
        coolant[k] = tinf_cmd
        u_hist[k] = u_applied
        estimator.step(u_applied, q_arr[k])
    t_hat[n_steps] = estimator.mean_temperature(u_applied)
    coolant[n_steps] = coolant[n_steps - 1] if n_steps > 0 else baseline_tinf
    u_hist[n_steps] = u_applied

    if isinstance(plant, FdSolver):
        # each command held over its FD steps, sampled once per control step
        n_fd = n_steps * fd_steps
        metrics = _fd_solve_on(
            plant, np.repeat(u_hist, fd_steps, axis=0)[:n_fd + 1],
            np.repeat(q_arr, fd_steps)[:n_fd + 1], T_init, n_fd * plant.cfg.dt,
            fd_steps, fd_steps)
        outputs = metrics.outputs
    else:
        # the field at step k is reconstructed with the input applied up to k
        u_rec = np.vstack([u_baseline, u_hist[:-1]])
        modal = discretize(plant, dt).trajectory(
            plant.to_modal(project_initial_state(plant, T_init, u_baseline)),
            np.column_stack([u_hist[:-1], q_arr[:-1]]))
        outputs = plant.modal_outputs(modal, u_rec)
        metrics = FieldEvaluator.of(plant, *grid_shape).metrics(modal, u_rec)
    return ControlTrace(
        times=np.arange(n_steps + 1) * dt, setpoint=setpoint, sides=sides,
        active=active, coolant=coolant, u=u_hist, T_mean=metrics.T_mean,
        T_hat_mean=t_hat, outputs=outputs, dTr_mean=metrics.dTr_mean,
        dTz_mean=metrics.dTz_mean)
