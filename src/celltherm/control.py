"""Closed-loop regulation of the mean cell temperature.

One PI controller per actively cooled side manipulates that side's coolant
free-stream temperature, the physical handle of its channel (the convection
coefficients stay fixed per scenario). Each command is a row of coolant
temperatures in ``SIDES`` order, which every model takes as it is. The mean
temperature is not measurable, so an open-loop estimator mirrors the reduced
model: it starts from the modal coordinates of
``galerkin.project_initial_state``, is propagated with the commands through
the package's one ZOH kernel (``simulate.Stepper``), and its volume mean, a
precomputed row, feeds the error. The estimator never reads the plant, so a
run first issues the whole command sequence from the estimator alone, then
runs the plant once, open loop, under the recorded commands: a reduced-model
plant through ``simulate.run`` from its own modal projection, with metrics
at every step, an FD plant as ``fd_solve`` runs, on the plant's own solver,
with each command held over the FD steps of its control step. Either plant
records step k under the command applied up to k, and step 0 under the
baseline, as the estimator reads its own state. The estimator and a
reduced-model plant share the model's cached ``FieldEvaluator``. Passive
sides, and a side outside the model's inputs (a cylinder's core), hold their
baseline coolant temperature for the whole run. The horizon, the heat
series, the setpoint and the controller data are checked before any model is
built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (SIDES, _check_number, active_sides, input_sides, per_step,
                   step_count)
from .galerkin import ReducedModel, assemble, project_initial_state
from .reference import FdSolver, _fd_solve_on, step_ratio
from .simulate import DEFAULT_GRID, FieldEvaluator, discretize, run

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
        for name in ("kp", "ki", "baseline", "integral"):
            _check_number(self, name)
        lo, hi = self.output_limits
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("PiController.output_limits must be finite")
        if lo > hi:
            raise ValueError("output_limits must satisfy lo <= hi")


def pi_step(c: PiController, error: float, dt: float) -> float:
    """Advance the controller one step and return the coolant temperature
    command baseline + kp*e + ki*integral(e), clamped to the output limits."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError("dt must be positive and finite")
    candidate = c.integral + error * dt
    raw = c.baseline + c.kp * error + c.ki * candidate
    lo, hi = c.output_limits
    if raw < lo or raw > hi:
        return min(max(raw, lo), hi)
    c.integral = candidate
    return raw


class OpenLoopEstimator:
    """Reduced model stepped in modal coordinates with the commanded coolant
    temperatures, no feedback correction. Its volume-mean estimate is one
    precomputed row. It never reads the plant, so a closed-loop run issues
    every command before the plant runs."""

    def __init__(self, model: ReducedModel, dt: float, T_init: float,
                 tinf0=None, grid_shape=DEFAULT_GRID):
        self._stepper = discretize(model, dt)
        evaluator = FieldEvaluator.of(model, *grid_shape)
        self._mean_row = evaluator.mean_state_row
        self._mean_input_row = evaluator.mean_input_row
        self._cooling_powers = model.cooling_powers
        self.y = project_initial_state(model, T_init, tinf0)
        # [u; w] of the last step (u0 before the first)
        self._v = np.append(model.inputs(tinf0, 1, "tinf0")[0], 0.0)
        self._u = self._v[:-1]

    def mean_temperature(self) -> float:
        """The volume mean of the state under the inputs of its last step."""
        return float(self._mean_row @ self.y + self._mean_input_row @ self._u)

    def step(self, tinf: np.ndarray, w: float):
        """One step under the coolant temperatures tinf (4,) and heat rate w."""
        self._cooling_powers(tinf, out=self._u)
        self._v[-1] = w
        self.y = self._stepper.step(self.y, self._v)


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
    u: np.ndarray                # (K+1, n_inputs) their cooling powers h T_inf, W m^-2
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
    n_steps = step_count(horizon, dt)
    q_arr = per_step(q, n_steps + 1, "q")
    if isinstance(scenario, str):
        active = active_sides(scenario)
    else:
        active = tuple(scenario)
    if not isinstance(plant, (ReducedModel, FdSolver)):
        raise TypeError("plant must be a ReducedModel or FdSolver")
    cooling = plant.cooling
    sides = input_sides(plant.spec.shape)
    for side in active:
        if side not in sides:
            raise ValueError(f"active side {side!r} is not a model input")
        if cooling.side(side).h <= 0.0:
            raise ValueError(f"active side {side!r} has no convection")
    if not math.isfinite(setpoint):
        raise ValueError("setpoint must be finite")

    baseline = cooling.T_inf
    controllers = [(j, PiController(gains[0], gains[1], baseline=baseline[j],
                                    output_limits=limits))
                   for j in map(SIDES.index, active)]
    if isinstance(plant, ReducedModel):
        est_model = estimator_model if estimator_model is not None else plant
    else:
        fd_steps = step_ratio(dt, plant.cfg.dt)
        if fd_steps is None:
            raise ValueError(f"control step {dt} s is not a whole number of "
                             f"FD steps of {plant.cfg.dt} s")
        est_model = estimator_model if estimator_model is not None else \
            assemble(plant.spec, plant.cooling, 3, 3)
    estimator = OpenLoopEstimator(est_model, dt, T_init, baseline, grid_shape)

    # the coolant temperatures commanded over each step, in SIDES order; the
    # last row repeats the last command at the horizon
    tinf = np.tile(baseline, (n_steps + 1, 1))
    t_hat = np.empty(n_steps + 1)
    for k in range(n_steps):
        t_hat[k] = estimator.mean_temperature()
        error = setpoint - t_hat[k]
        command = tinf[k]
        for j, controller in controllers:
            command[j] = pi_step(controller, error, dt)
        estimator.step(command, q_arr[k])
    t_hat[n_steps] = estimator.mean_temperature()
    tinf[n_steps] = tinf[max(n_steps - 1, 0)]

    # the cooling powers of the reduced plant, or of the FD plant's estimator
    u = (est_model if isinstance(plant, FdSolver) else plant).cooling_powers(tinf)
    if isinstance(plant, FdSolver):
        # each command held over its FD steps, sampled once per control step
        n_fd = n_steps * fd_steps
        metrics = _fd_solve_on(
            plant, np.repeat(tinf, fd_steps, axis=0)[:n_fd + 1],
            np.repeat(q_arr, fd_steps)[:n_fd + 1], T_init, fd_steps, fd_steps)
    else:
        metrics = run(plant, project_initial_state(plant, T_init, baseline), tinf,
                      q_arr, dt, horizon, grid_shape, metrics_stride=1, tinf0=baseline)
    return ControlTrace(
        times=np.arange(n_steps + 1) * dt, setpoint=setpoint, sides=sides,
        active=active, coolant=tinf[:, [SIDES.index(s) for s in sides]], u=u,
        T_mean=metrics.T_mean, T_hat_mean=t_hat, outputs=metrics.outputs,
        dTr_mean=metrics.dTr_mean, dTz_mean=metrics.dTz_mean)
