"""Time stepping of the reduced model, field reconstruction, and thermal metrics.

The assembled system is LTI and the inputs are staircase by construction, so
the discretization is the exact zero-order-hold map. Because G^-1 A is the
Kronecker sum of two diagonalized 1D pencils (see galerkin), its exponential
is E_r (x) E_z with E = V diag(exp(dt lam / rho cp)) V_inv per direction, and
the input map is the modal phi_1 = expm1(dt lam) / lam integral; one step costs
two small matrix products instead of an (order)^2 matvec. Gradients are
computed by analytic differentiation of the expansions (not finite
differences of the grid), mapped to physical units by the coordinate scale
factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BoundaryInput, CellSpec
from .chebyshev import basis_matrix
from .exceptions import NumericalError
from .galerkin import ReducedModel
from .particular import axial_scale, radial_scale, radial_weight

DEFAULT_GRID = (41, 41)


@dataclass(frozen=True, eq=False)
class Stepper:
    """Exact ZOH step map X' = (E_r (x) E_z) X + Bd [u; w] for one fixed dt,
    applied through the M x M and N x N factors E_r, E_z."""

    model: ReducedModel
    dt: float
    E_r: np.ndarray
    E_z: np.ndarray
    Bd: np.ndarray

    def step(self, X: np.ndarray, u: np.ndarray, w: float) -> np.ndarray:
        xm = X.reshape(self.E_r.shape[0], self.E_z.shape[0])
        return (self.E_r @ xm @ self.E_z.T).ravel() \
            + self.Bd @ np.concatenate([u, [w]])


def _phi1(lam: np.ndarray, dt: float) -> np.ndarray:
    """(exp(dt lam) - 1) / lam, and dt where lam == 0."""
    zero = lam == 0.0
    return np.where(zero, dt, np.expm1(dt * lam) / np.where(zero, 1.0, lam))


def discretize(model: ReducedModel, dt: float) -> Stepper:
    """Exact zero-order-hold discretization (inputs held constant over a
    step) in the modal basis of the two 1D pencils.

    With K = G^-1 A = V diag(lam) V^-1, V = V_r (x) V_z and
    lam = (lam_r[i] + lam_z[j]) / rho cp: Ad = exp(dt K) = E_r (x) E_z and
    Bd = V diag(phi_1(lam)) V^-1 G^-1 [B F], where V^-1 G^-1 reduces to
    (Q_r^T (x) Q_z^T) / rho cp because V_inv = Q^T gram per direction.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    m_r, m_z = model.modes_r, model.modes_z
    rho_cp = model.rho_cp
    e_r = (m_r.V * np.exp(dt * m_r.lam / rho_cp)) @ m_r.V_inv
    e_z = (m_z.V * np.exp(dt * m_z.lam / rho_cp)) @ m_z.V_inv
    phi1 = _phi1(np.add.outer(m_r.lam, m_z.lam) / rho_cp, dt) / rho_cp
    inputs = np.column_stack([model.B, model.F]).T.reshape(-1, model.M, model.N)
    modal = phi1 * (m_r.V.T @ inputs @ m_z.V)
    bd = (m_r.V @ modal @ m_z.V.T).reshape(-1, model.order).T
    if not (np.all(np.isfinite(e_r)) and np.all(np.isfinite(e_z))
            and np.all(np.isfinite(bd))):
        raise NumericalError("modal exponential overflow: unstable dynamics")
    return Stepper(model, dt, e_r, e_z, bd)


@dataclass(frozen=True, eq=False)
class FieldGrid:
    """Reconstructed temperature field on a tensor grid in scaled coordinates,
    with analytic gradients already mapped to physical units (K/m)."""

    r_nodes: np.ndarray
    z_nodes: np.ndarray
    values: np.ndarray
    dT_dr: np.ndarray
    dT_dz: np.ndarray


@dataclass(frozen=True)
class MetricsRecord:
    T_mean: float
    T_max: float
    T_min: float
    dT: float           # T_max - T_min
    dTr_max: float      # max |dT/dr|, K/m
    dTz_max: float      # max |dT/dz|, K/m
    dTr_mean: float     # grid mean of |dT/dr|, K/m
    dTz_mean: float     # grid mean of |dT/dz|, K/m


class FieldEvaluator:
    """Precomputed basis and particular-component grids for fast repeated
    reconstruction on one fixed tensor grid."""

    def __init__(self, model: ReducedModel, n_r: int = DEFAULT_GRID[0],
                 n_z: int = DEFAULT_GRID[1], r_nodes=None, z_nodes=None):
        if r_nodes is None:
            r_nodes = np.linspace(-1.0, 1.0, n_r)
        if z_nodes is None:
            z_nodes = np.linspace(-1.0, 1.0, n_z)
        self.model = model
        self.r_nodes = np.asarray(r_nodes, dtype=float)
        self.z_nodes = np.asarray(z_nodes, dtype=float)
        if self.r_nodes.size < 2 or self.z_nodes.size < 2:
            raise ValueError("reconstruction grid needs at least 2 nodes per direction")
        self.alpha = radial_scale(model.spec)
        self.beta = axial_scale(model.spec)

        self._er = basis_matrix(model.basis_r, self.r_nodes)
        self._der = basis_matrix(model.basis_r, self.r_nodes, deriv=1)
        self._ez = basis_matrix(model.basis_z, self.z_nodes)
        self._dez = basis_matrix(model.basis_z, self.z_nodes, deriv=1)

        comp = model.particular
        self._tp = np.stack([comp.component_grid(s, self.r_nodes, self.z_nodes)
                             for s in model.sides])
        self._tp_dr = np.stack([comp.component_grid(s, self.r_nodes, self.z_nodes, dr=1)
                                for s in model.sides])
        self._tp_dz = np.stack([comp.component_grid(s, self.r_nodes, self.z_nodes, dz=1)
                                for s in model.sides])

        # trapezoid weights for the volume-weighted mean
        tr = np.ones_like(self.r_nodes)
        tr[0] = tr[-1] = 0.5
        tz = np.ones_like(self.z_nodes)
        tz[0] = tz[-1] = 0.5
        vol = np.outer(tr * radial_weight(model.spec, self.r_nodes), tz)
        self._vol_weights = vol / vol.sum()

    def field(self, X: np.ndarray, u: np.ndarray) -> FieldGrid:
        cmat = np.asarray(X, dtype=float).reshape(self.model.M, self.model.N)
        u = np.asarray(u, dtype=float)
        values = self._er @ cmat @ self._ez.T + np.tensordot(u, self._tp, axes=1)
        d_r = self._der @ cmat @ self._ez.T + np.tensordot(u, self._tp_dr, axes=1)
        d_z = self._er @ cmat @ self._dez.T + np.tensordot(u, self._tp_dz, axes=1)
        return FieldGrid(self.r_nodes, self.z_nodes, values,
                         self.alpha * d_r, self.beta * d_z)

    def metrics(self, X: np.ndarray, u: np.ndarray) -> MetricsRecord:
        grid = self.field(X, u)
        return MetricsRecord(
            T_mean=float(np.sum(self._vol_weights * grid.values)),
            T_max=float(grid.values.max()),
            T_min=float(grid.values.min()),
            dT=float(grid.values.max() - grid.values.min()),
            dTr_max=float(np.abs(grid.dT_dr).max()),
            dTz_max=float(np.abs(grid.dT_dz).max()),
            dTr_mean=float(np.abs(grid.dT_dr).mean()),
            dTz_mean=float(np.abs(grid.dT_dz).mean()),
        )


def reconstruct_field(model: ReducedModel, X, u, n_r: int = DEFAULT_GRID[0],
                      n_z: int = DEFAULT_GRID[1]) -> FieldGrid:
    """Evaluate T_h + sum_side T_p^side u_side on a uniform tensor grid
    (endpoints included) in scaled coordinates."""
    u = u.as_vector(model.spec.shape) if isinstance(u, BoundaryInput) else u
    return FieldEvaluator(model, n_r, n_z).field(np.asarray(X, dtype=float), u)


def compute_metrics(grid: FieldGrid, spec: CellSpec) -> MetricsRecord:
    """Thermal metrics of one reconstructed field: volume-weighted mean
    (radius weight for cylinders), extrema, and gradient statistics."""
    tr = np.ones_like(grid.r_nodes)
    tr[0] = tr[-1] = 0.5
    tz = np.ones_like(grid.z_nodes)
    tz[0] = tz[-1] = 0.5
    vol = np.outer(tr * radial_weight(spec, grid.r_nodes), tz)
    vol = vol / vol.sum()
    return MetricsRecord(
        T_mean=float(np.sum(vol * grid.values)),
        T_max=float(grid.values.max()),
        T_min=float(grid.values.min()),
        dT=float(grid.values.max() - grid.values.min()),
        dTr_max=float(np.abs(grid.dT_dr).max()),
        dTz_max=float(np.abs(grid.dT_dz).max()),
        dTr_mean=float(np.abs(grid.dT_dr).mean()),
        dTz_mean=float(np.abs(grid.dT_dz).mean()),
    )


@dataclass(frozen=True, eq=False)
class SimResult:
    """Trajectories of one reduced-model run.

    ``outputs`` holds the four mid-side temperatures [surface, core, top,
    bottom]; the metric arrays are sampled every ``metrics_stride`` steps on
    the reconstruction grid.
    """

    times: np.ndarray
    states: np.ndarray          # (K+1, order)
    outputs: np.ndarray         # (K+1, 4)
    metrics_times: np.ndarray
    T_mean: np.ndarray
    T_max: np.ndarray
    T_min: np.ndarray
    dT: np.ndarray
    dTr_max: np.ndarray
    dTz_max: np.ndarray
    dTr_mean: np.ndarray
    dTz_mean: np.ndarray


def _broadcast_inputs(model: ReducedModel, u, w, n_times: int):
    if isinstance(u, BoundaryInput):
        u = u.as_vector(model.spec.shape)
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = np.broadcast_to(u, (n_times, u.size))
    if u.shape != (n_times, model.n_inputs):
        raise ValueError(f"u must broadcast to ({n_times}, {model.n_inputs})")
    w = np.asarray(w, dtype=float)
    if w.ndim == 0:
        w = np.broadcast_to(w, (n_times,))
    if w.shape != (n_times,):
        raise ValueError(f"w must broadcast to ({n_times},)")
    return u, w


def run(model: ReducedModel, X0, u, w, dt: float, horizon: float,
        grid_shape=DEFAULT_GRID, metrics_stride: int = 1) -> SimResult:
    """Step the model over [0, horizon] with staircase inputs.

    ``u`` is a constant input vector / BoundaryInput or an array with one row
    per step (K+1 rows); ``w`` a scalar or per-step array, both already
    resampled to dt.
    """
    n_steps = int(np.floor(horizon / dt + 1e-9))
    times = np.arange(n_steps + 1) * dt
    u_arr, w_arr = _broadcast_inputs(model, u, w, n_steps + 1)

    stepper = discretize(model, dt)
    evaluator = FieldEvaluator(model, *grid_shape)

    states = np.empty((n_steps + 1, model.order))
    outputs = np.empty((n_steps + 1, 4))
    states[0] = np.asarray(X0, dtype=float)
    outputs[0] = model.C @ states[0] + model.Dft @ u_arr[0]

    metric_idx = list(range(0, n_steps + 1, max(1, metrics_stride)))
    if metric_idx[-1] != n_steps:
        metric_idx.append(n_steps)
    metric_rows = []

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            states[k + 1] = stepper.step(states[k], u_arr[k], w_arr[k])
            if not np.all(np.isfinite(states[k + 1])):
                raise NumericalError(f"non-finite state at step {k + 1}")
            outputs[k + 1] = model.C @ states[k + 1] + model.Dft @ u_arr[k + 1]
    for k in metric_idx:
        metric_rows.append(evaluator.metrics(states[k], u_arr[k]))

    def col(name):
        return np.array([getattr(m, name) for m in metric_rows])

    return SimResult(
        times=times, states=states, outputs=outputs,
        metrics_times=times[metric_idx],
        T_mean=col("T_mean"), T_max=col("T_max"), T_min=col("T_min"),
        dT=col("dT"), dTr_max=col("dTr_max"), dTz_max=col("dTz_max"),
        dTr_mean=col("dTr_mean"), dTz_mean=col("dTz_mean"),
    )
