"""Ground-truth oracles: a 2D finite-difference solver for the original PDE
in physical coordinates, and the two-state lumped (thermal equivalent
circuit) benchmark.

The FD solver works on the unscaled equation

    rho cp dT/dt = k_r (T_rr + T_r / r) + k_z T_zz + q        (cylinder)
    rho cp dT/dt = k_x T_xx + k_y T_yy + q                    (pouch)

with ghost-node closures of the convection conditions
-k dT/dn = h (T - T_inf) on every face, stepped implicitly
(Crank-Nicolson by default, backward Euler for robustness checks). Working
in physical coordinates makes it an independent check of the reduced model's
nondimensionalization. The cylindrical grid spans r in [R_in, R_out], so no
axis singularity arises.

The 5-point operator on the node grid is the Kronecker sum
L_r (x) I + I (x) L_z of two tridiagonal 1D ghost-node operators L. Each is
diagonalized once as the pencil (diag(w) L, rho cp w), w the positive
diagonal that symmetrizes L (fast diagonalization: Lynch, Rice & Thomas,
Numer. Math. 6, 1964), so a theta-method step is the package's one diagonal
recurrence, ``simulate.Stepper``, O(n_r n_z). Every input column and every
mid-side output is an outer product of a radial and an axial vector, so the
solver keeps only those 1D factors (see ``FdSolver``). While the inputs are
held, n steps collapse into one, so ``fd_solve`` steps once per span between
output samples, metric samples and input changes. The field is transformed
back to the grid only at metric samples and at the end of a run, by GEMMs
over row blocks small enough that OpenBLAS runs each on the calling thread.

The TEC model implements

    C_c dT_c/dt = q + (T_s - T_c)/R_c
    C_s dT_s/dt = (T_inf - T_s)/R_u + (T_c - T_s)/R_c

with the conduction coupling in the surface equation written so heat leaving
the core enters the surface (energy-conserving form). Its conductance matrix
C A (C = diag(C_c, C_s)) is symmetric, so (C A, C) is a symmetric-definite
pencil: ``core.pencil_modes`` diagonalizes it and ``tec_run`` steps it with
the reduced model's exact zero-order-hold kernel, ``simulate.Stepper``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import (SIDES, CellSpec, CoolingConfig, _check_number, check_count,
                   pencil_modes, per_step, per_step_rows, step_count)
from .exceptions import NumericalError, UnsupportedShapeError
from .simulate import (MetricSeries, MetricsRecord, Stepper, _check_metric_names,
                       _field_kinds, _reduce_fields, _trapezoid, metric_steps)

BACKWARD_EULER = "backward_euler"
CRANK_NICOLSON = "crank_nicolson"

# OpenBLAS runs a GEMM on the calling thread when m n k <= 65536 *
# GEMM_MULTITHREAD_THRESHOLD (4 by default; interface/gemm.c).
_SINGLE_THREAD_GEMM_MNK = 262_144


@dataclass(frozen=True)
class FdConfig:
    n_r: int = 128
    n_z: int = 128
    dt: float = 0.05
    scheme: str = CRANK_NICOLSON

    def __post_init__(self):
        check_count(self.n_r, "FdConfig.n_r", 3)
        check_count(self.n_z, "FdConfig.n_z", 3)
        if isinstance(self.dt, bool) or not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"FdConfig.dt must be finite and positive, not {self.dt!r}")
        if self.scheme not in (BACKWARD_EULER, CRANK_NICOLSON):
            raise ValueError(f"unknown scheme {self.scheme!r}")


def _ghost_node_operator(nodes: np.ndarray, k: float, h_lo: float,
                         h_hi: float, radial: bool):
    """Second-difference operator L = k (T'' + T'/r) on uniform ``nodes``
    (the T'/r term only when ``radial``) with convection closures at both ends.

    The ghost node beyond each end, T_g = T_inner - (2 d h / k)(T_end - T_inf),
    folds into the end row; its T_inf coefficient is returned as a boundary
    input column. L's off-diagonals are positive, so w = [1, cumprod(sup /
    sub)] makes diag(w) L symmetric. Returns (diag(w) L dense, w, b_lo, b_hi).
    """
    n, d = nodes.size, nodes[1] - nodes[0]
    conv = k / (2.0 * nodes * d) if radial else np.zeros(n)
    c_plus = k / d**2 + conv
    c_minus = k / d**2 - conv
    g_lo = c_minus[0] * 2.0 * d * h_lo / k
    g_hi = c_plus[-1] * 2.0 * d * h_hi / k
    diag = np.full(n, -2.0 * k / d**2)
    diag[0] -= g_lo
    diag[-1] -= g_hi
    sup = c_plus[:-1].copy()
    sup[0] += c_minus[0]
    sub = c_minus[1:].copy()
    sub[-1] += c_plus[-1]
    w = np.concatenate(([1.0], np.cumprod(sup / sub)))
    stiff = np.zeros((n, n))
    stiff.flat[::n + 1] = w * diag
    stiff.flat[1::n + 1] = stiff.flat[n::n + 1] = w[:-1] * sup
    b_lo, b_hi = np.zeros(n), np.zeros(n)
    b_lo[0], b_hi[-1] = g_lo, g_hi
    return stiff, w, b_lo, b_hi


def _lerp_weights(nodes: np.ndarray, x: float) -> np.ndarray:
    """Linear-interpolation weights of the point ``x`` on uniform ``nodes``."""
    i = min(max(int(np.searchsorted(nodes, x)) - 1, 0), nodes.size - 2)
    f = min(max((x - nodes[i]) / (nodes[1] - nodes[0]), 0.0), 1.0)
    w = np.zeros(nodes.size)
    w[i] = 1.0 - f
    w[i + 1] = f
    return w


def _differences(f: np.ndarray, h: float, out: np.ndarray) -> None:
    """df/dx along axis 0 of f (at least 2 rows, node spacing h) into out,
    in ``np.gradient``'s arithmetic, so bit for bit its result: central
    differences inside, one-sided first-order ones at both ends."""
    np.subtract(f[2:], f[:-2], out=out[1:-1])
    out[1:-1] /= 2.0 * h
    np.subtract(f[1], f[0], out=out[0])
    np.subtract(f[-1], f[-2], out=out[-1])
    out[[0, -1]] /= h


class FdSolver:
    """Modal theta-method stepper for one (cell, cooling, grid) triple.

    The grid operator is the Kronecker sum L_r (x) I + I (x) L_z of two 1D
    ghost-node operators L, each diagonalized once by ``core.pencil_modes``
    as the pencil (diag(w) L, rho cp w) of its symmetrizing diagonal w.
    The solver state is the (n_r, n_z) matrix X of modal coefficients of the
    field T = V_r X V_z^T; it is opaque to callers, who create it with
    ``uniform_field`` and pass it back to ``step``, ``outputs``, ``metrics``,
    ``surface_flux`` and ``grid``. A step is the package's one diagonal
    recurrence (``simulate.Stepper.theta``) on a rank-5 forcing:

        X <- g * X + s * (in_r diag(v) in_z),   v = [T_inf, q],

    g and s the theta-method gain and input scale of the Kronecker sum's
    eigenvalues, column i of in_r and row i of in_z the modal images
    V_r^-1 a_i and V_z^-1 b_i of input i's two 1D factors (its boundary
    column along one direction, ones along the other; ones along both for
    q). Output k is a_k^T X b_k, with a_k = V_r^T w_r and b_k = V_z^T w_z
    the modal images of the bilinear weights of mid-side point k. The
    convection coefficients are baked into the modes; coolant temperatures
    and the heat rate enter as affine per-step inputs, so closed-loop runs
    with varying coolant commands reuse the decomposition.

    ``grid`` forms V_r X V_z^T by row blocks of V_r whose two GEMMs each stay
    within OpenBLAS's single-thread size (m n k <= 262 144; 16 rows at 128^2)
    on grids up to about 295^2 nodes: a larger GEMM wakes the BLAS thread
    pool, whose spinning helpers slow the timed runs of compare-tec for
    ~0.15 s afterwards (blocking: Goto & van de Geijn, ACM TOMS 34(3), 2008).
    """

    def __init__(self, spec: CellSpec, cooling: CoolingConfig, cfg: FdConfig):
        self.spec = spec
        self.cooling = cooling
        self.cfg = cfg
        if spec.is_cylindrical:
            self.r_nodes = np.linspace(spec.R_in, spec.R_out, cfg.n_r)
        else:
            self.r_nodes = np.linspace(0.0, spec.D, cfg.n_r)
        self.z_nodes = np.linspace(0.0, spec.L, cfg.n_z)
        self.dr = self.r_nodes[1] - self.r_nodes[0]
        self.dz = self.z_nodes[1] - self.z_nodes[0]
        n_r, n_z = cfg.n_r, cfg.n_z
        rho_cp = spec.rho * spec.cp

        stiff, w, b_core, b_surface = _ghost_node_operator(
            self.r_nodes, spec.k_r, cooling.core.h, cooling.surface.h,
            spec.is_cylindrical)
        self._modes_r = m_r = pencil_modes(stiff, rho_cp * w)
        stiff, w, b_bottom, b_top = _ghost_node_operator(
            self.z_nodes, spec.k_z, cooling.bottom.h, cooling.top.h, False)
        self._modes_z = m_z = pencil_modes(stiff, rho_cp * w)
        lam = m_r.lam[:, None] + m_z.lam[None, :]   # eigenvalues of the Kronecker sum

        one_r, one_z = m_r.V_inv @ np.ones(n_r), m_z.V_inv @ np.ones(n_z)
        # input columns: [T_inf_surface, T_inf_core, T_inf_top, T_inf_bottom, q]
        self._in_r = np.column_stack([m_r.V_inv @ b_surface, m_r.V_inv @ b_core,
                                      one_r, one_r, one_r])
        self._in_z = np.stack([one_z, one_z, m_z.V_inv @ b_top,
                               m_z.V_inv @ b_bottom, one_z])
        self._unit = np.outer(one_r, one_z)   # modal coefficients of T = 1

        theta = 1.0 if cfg.scheme == BACKWARD_EULER else 0.5
        self._stepper, self._scale = Stepper.theta(lam, cfg.dt, theta, rho_cp)
        self._memo = (None, None)   # (bytes of the last input row, its term)
        rows = max(1, _SINGLE_THREAD_GEMM_MNK // (n_z * max(n_r, n_z)))
        # balanced blocks of at least two rows: numpy hands a single row to
        # GEMV, whose threading threshold is lower. Up to n_z max(n_r, n_z)
        # = 87 381 (rows >= 3, about 295^2 nodes) each block also stays
        # within `rows`; on larger grids blocks may exceed it and BLAS may
        # run threaded.
        n_blocks = min(-(-n_r // rows), max(1, n_r // 2))
        edges = [i * n_r // n_blocks for i in range(n_blocks + 1)]
        self._row_blocks = [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]

        # bilinear interpolation at the four mid-side points, as modal factors
        r_mid = 0.5 * (self.r_nodes[0] + self.r_nodes[-1])
        z_mid = 0.5 * (self.z_nodes[0] + self.z_nodes[-1])
        out_pts = (
            (self.r_nodes[-1], z_mid),   # surface
            (self.r_nodes[0], z_mid),    # core / back
            (r_mid, self.z_nodes[-1]),   # top
            (r_mid, self.z_nodes[0]),    # bottom
        )
        self._out_r = np.stack([_lerp_weights(self.r_nodes, r)
                                for r, _ in out_pts]) @ m_r.V
        self._out_z = np.stack([_lerp_weights(self.z_nodes, z)
                                for _, z in out_pts]) @ m_z.V

        wr = _trapezoid(n_r) * self.r_nodes if spec.is_cylindrical else _trapezoid(n_r)
        vol = np.outer(wr, _trapezoid(n_z))
        self._vol_weights = vol / vol.sum()

    def uniform_field(self, T: float) -> np.ndarray:
        """Solver state of the uniform field T."""
        return float(T) * self._unit

    def step(self, state: np.ndarray, tinf, q: float, n: int = 1) -> np.ndarray:
        """``n`` implicit steps with the coolant temperatures ``tinf`` (4,) in
        ``SIDES`` order and the heat rate ``q`` held; a ``tinf`` of another shape
        raises ``ValueError``, a non-finite input ``NumericalError`` naming it.
        The term of a held row (a constant or staircase heat) is formed once."""
        if np.shape(tinf) != (len(SIDES),):
            raise ValueError(f"tinf must have shape ({len(SIDES)},), not {np.shape(tinf)}")
        v = np.array([*tinf, q], dtype=float)
        memo = self._memo   # one read: a thread swapping in its own is harmless
        if memo[0] != v.tobytes():   # only finite rows are remembered
            bad = [i for i, x in enumerate(v.tolist()) if not math.isfinite(x)]
            if bad:   # name the first non-finite input
                name = "q" if bad[0] == len(SIDES) else f"tinf[{SIDES[bad[0]]}]"
                raise NumericalError(f"FD step input {name} is not finite: {v[bad[0]]}")
            term = (self._in_r * v) @ self._in_z
            term *= self._scale
            memo = self._memo = (v.tobytes(), term)
        return self._stepper.held(state, memo[1], n)

    def outputs(self, state: np.ndarray) -> np.ndarray:
        """Bilinear interpolation of the four mid-side temperatures."""
        return np.einsum("ij,ij->i", self._out_r @ state, self._out_z)

    def grid(self, state: np.ndarray) -> np.ndarray:
        """Temperature field on the (n_r, n_z) node grid, by row blocks
        that keep each GEMM on the calling thread (see the class docstring)."""
        v_r, v_z = self._modes_r.V, self._modes_z.V
        field = np.empty((self.cfg.n_r, self.cfg.n_z))
        for rows in self._row_blocks:
            np.matmul(v_r[rows] @ state, v_z.T, out=field[rows])
        return field

    def metrics(self, state: np.ndarray, field=None, names=None) -> MetricsRecord:
        """The metrics ``names`` (a tuple of ``MetricsRecord`` field names;
        None for all eight) of the field, as floats, None for each metric not
        named, with gradients from second-order finite differences; ``field``
        is ``grid(state)`` if the caller has it. A gradient that no named
        metric reads is not formed. The field and the gradients are written
        into one new block per call, so threads may share a solver."""
        names = _check_metric_names(names)
        if field is None:
            field = self.grid(state)
        kinds = _field_kinds(names)
        block = np.empty((len(kinds), 1, *field.shape))
        for kind, slot in zip(kinds, block[:, 0]):
            if kind == 0:
                slot[...] = field
            elif kind == 1:
                _differences(field, self.dr, slot)
            else:
                _differences(field.T, self.dz, slot.T)
        return _reduce_fields(np.sum(self._vol_weights * field), [block], True, names)

    def surface_flux(self, state: np.ndarray, tinf: np.ndarray) -> float:
        """Mean convective flux h_s (T_surface - T_inf,s) out of the outer
        face, W m^-2 (z-averaged with trapezoid weights), with ``tinf`` the
        coolant temperatures the state was stepped with, in ``SIDES`` order
        as ``step`` takes them."""
        tz = _trapezoid(self.cfg.n_z)
        t_surf = np.sum(self.grid(state)[-1] * tz) / tz.sum()
        return self.cooling.surface.h * (t_surf - tinf[SIDES.index("surface")])


def step_ratio(dt: float, dt_fd: float) -> int | None:
    """The number of FD steps of ``dt_fd`` in one step of ``dt``, when that
    is an integer to a relative 1e-9, else None."""
    ratio = dt / dt_fd
    return round(ratio) if abs(ratio - round(ratio)) <= 1e-9 * ratio else None


@dataclass(frozen=True, eq=False)
class FdResult(MetricSeries):
    times: np.ndarray           # of the output samples
    outputs: np.ndarray         # (len(times), 4) mid-side temperatures
    final_field: np.ndarray
    r_nodes: np.ndarray
    z_nodes: np.ndarray


def fd_solve(spec: CellSpec, cooling: CoolingConfig, tinf, q, cfg: FdConfig,
             T_init: float = 15.0, horizon: float = 600.0,
             metrics_stride: int | None = 1, output_stride: int = 1,
             metric_names=None) -> FdResult:
    """Integrate the original PDE over [0, horizon].

    ``tinf`` holds the coolant temperatures per side in ``SIDES`` order
    [surface, core, top, bottom]: None for the cooling config's own, one
    (4,) row held over the run, or exactly K+1 rows. A side with h = 0 is
    insulated, and its entry has no effect. ``q`` is a scalar or exactly K+1
    samples of the volumetric heat rate. Outputs are sampled at
    ``metric_steps(K, output_stride)`` and metrics at ``metric_steps(K,
    metrics_stride)``, so an outputs-only run, ``metrics_stride=None``, takes
    no metric sample and its metric arrays are empty; ``final_field`` is
    always formed. ``metric_names``, a tuple of ``MetricsRecord`` field
    names, selects the metrics of each sample (None: all eight); the others
    are None, and a gradient that no named metric reads is not formed
    (``FdSolver.metrics``). The inputs, both strides and the names are
    checked, every input entry finite, before the solver is built. Between
    two samples or input changes the input is held, and the solver takes
    those steps as one.
    """
    n_steps = step_count(horizon, cfg.dt)
    tinf_arr = per_step_rows(cooling.T_inf if tinf is None else tinf,
                             len(SIDES), n_steps + 1, "tinf")
    tinf_arr = np.broadcast_to(tinf_arr, (n_steps + 1, len(SIDES)))
    q_arr = per_step(q, n_steps + 1, "q")
    output_idx = metric_steps(n_steps, output_stride, "output_stride")
    metric_idx = metric_steps(n_steps, metrics_stride, "metrics_stride")
    names = _check_metric_names(metric_names)
    return _fd_solve_on(FdSolver(spec, cooling, cfg), tinf_arr, q_arr, T_init,
                        metric_idx, output_idx, names)


def _fd_solve_on(solver: FdSolver, tinf_arr: np.ndarray, q_arr: np.ndarray,
                 T_init: float, metric_idx: list, output_idx: list,
                 names: tuple) -> FdResult:
    """``fd_solve`` on a given solver, which may have stepped before, with
    checked (K+1, 4) coolant temperatures, K+1 heat samples, sampled steps
    (``metric_steps``) and metric names (``_check_metric_names``)."""
    n_steps = len(q_arr) - 1
    # a held span ends where q or a coolant temperature changes
    columns = np.column_stack([q_arr[:n_steps], tinf_arr[:n_steps]])
    changed = np.any(columns[1:] != columns[:-1], axis=1)

    # each span [start, end) holds one input row and ends at the next event
    ends = sorted(set(output_idx) | set(metric_idx)
                  | set((np.flatnonzero(changed) + 1).tolist()))
    output_set, metric_set = set(output_idx), set(metric_idx)

    state = solver.uniform_field(T_init)
    outputs = [solver.outputs(state)]
    rows = []
    for start, end in zip(ends, ends[1:]):
        if start in metric_set:
            rows.append(solver.metrics(state, names=names))
        state = solver.step(state, tinf_arr[start], q_arr[start], end - start)
        if end in output_set:
            outputs.append(solver.outputs(state))
    field = solver.grid(state)
    if metric_idx:   # the last step is then sampled: its field is the final field
        rows.append(solver.metrics(state, field, names))

    dt = solver.cfg.dt
    return FdResult(
        times=np.array(output_idx) * dt, outputs=np.array(outputs),
        metrics_times=np.array(metric_idx) * dt,
        **vars(MetricsRecord.stack(rows, names)),
        final_field=field, r_nodes=solver.r_nodes, z_nodes=solver.z_nodes)


@dataclass(frozen=True)
class TecModel:
    """Two-state lumped benchmark with core/surface heat capacities and
    conduction/convection resistances."""

    C_c: float = 1079.6   # J/K
    C_s: float = 48.35    # J/K
    R_c: float = 0.65     # K/W
    R_u: float = 0.08     # K/W
    T_inf: float = 15.0   # degC

    def __post_init__(self):
        for name in ("C_c", "C_s", "R_c", "R_u", "T_inf"):
            _check_number(self, name)
        for name in ("C_c", "C_s", "R_c", "R_u"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"TecModel.{name} must be positive")

    def continuous(self):
        """(A, B) of d/dt [T_c, T_s] = A [T_c, T_s] + B [q, T_inf]."""
        a = np.array([
            [-1.0 / (self.R_c * self.C_c), 1.0 / (self.R_c * self.C_c)],
            [1.0 / (self.R_c * self.C_s),
             -(1.0 / self.R_c + 1.0 / self.R_u) / self.C_s],
        ])
        b = np.array([
            [1.0 / self.C_c, 0.0],
            [0.0, 1.0 / (self.R_u * self.C_s)],
        ])
        return a, b

    def steady_state(self, q: float):
        """Analytic fixed point: T_s = T_inf + q R_u, T_c = T_s + q R_c."""
        t_s = self.T_inf + q * self.R_u
        return t_s + q * self.R_c, t_s


def tec_run(model: TecModel, q, dt: float, horizon: float, T0: float = 15.0):
    """Integrate the TEC model with q and T_inf held over each step; returns
    (times, T_c, T_s). ``q`` is the total heat rate in W, a scalar or
    per-step array."""
    a, b = model.continuous()
    cap = np.array([model.C_c, model.C_s])
    modes = pencil_modes(cap[:, None] * a, cap)   # (C A, C)
    stepper = Stepper.zoh(modes.lam, (modes.V_inv @ b).T, dt)
    n_steps = step_count(horizon, dt)
    q_arr = per_step(q, n_steps + 1, "q")
    inputs = np.column_stack([q_arr[:n_steps], np.full(n_steps, model.T_inf)])
    modal = stepper.trajectory(modes.V_inv @ np.array([T0, T0]), inputs)
    t_c, t_s = modes.V @ modal.T
    return np.arange(n_steps + 1) * dt, t_c, t_s


def tec_metrics(T_c, T_s, spec: CellSpec):
    """(T_mean, dT_r) of the lumped model: the core/surface average and the
    end-to-end radial slope (T_c - T_s)/(R_out - R_in)."""
    if not spec.is_cylindrical:
        raise UnsupportedShapeError("TEC metrics are defined for cylindrical cells")
    T_c = np.asarray(T_c, dtype=float)
    T_s = np.asarray(T_s, dtype=float)
    return (T_c + T_s) / 2.0, (T_c - T_s) / (spec.R_out - spec.R_in)


# Published single-state vs two-state lumped speedup used as a yardstick in
# timing reports; hardware-dependent, never asserted.
REFERENCE_TIME_REDUCTION_PCT = 28.7


def timing_harness(entries, repetitions: int = 5):
    """Mean wall-clock time of each named run callable over `repetitions`.

    ``entries`` is a list of (name, callable) pairs; every callable executes
    one full simulation on the identical profile. Returns a list of
    {"model": name, "mean_ms": float} rows (reported, not asserted).
    """
    if repetitions < 3:
        raise ValueError("repetitions must be >= 3")
    table = []
    for name, fn in entries:
        fn()  # warm-up outside the timed window
        elapsed = []
        for _ in range(repetitions):
            t0 = time.perf_counter()
            fn()
            elapsed.append(time.perf_counter() - t0)
        table.append({"model": name, "mean_ms": 1e3 * float(np.mean(elapsed))})
    return table
