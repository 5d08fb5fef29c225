"""Time stepping of the reduced model, field reconstruction, and thermal metrics.

Every LTI model of the package steps through one kernel, ``Stepper``: the
exact zero-order-hold map of a diagonal system dy/dt = lam * y + v @ b with
inputs v held over each step, y' = exp(dt lam) * y + v @ (phi_1(lam) * b),
phi_1 = expm1(dt lam) / lam. This is Van Loan's augmented-exponential ZOH
(IEEE TAC, 1978) in diagonal form. The reduced model reaches that form by fast
diagonalization (Lynch, Rice & Thomas, Numer. Math. 6, 1964): G^-1 A is the
Kronecker sum of the two 1D pencils of ``galerkin``, so its modes are
V_r (x) V_z with eigenvalues (lam_r[i] + lam_z[j]) / rho cp. The two-state TEC
and the FD oracle (``Stepper.theta``) of ``reference`` and the closed-loop
estimator of ``control`` use the same kernel.

``run`` takes the modal coordinates of ``galerkin.project_initial_state``
and steps them, STEP_BLOCK floats of states at a time: each block continues
from the last state of the one before, its outputs come from the output map
carried over to modal coordinates once per model (``ReducedModel.modal_C``),
and only its rows at the metric steps are kept, as ``SimResult.states``. The
metrics are reconstructed straight from those modal samples, METRICS_BLOCK
at a time. Reconstruction is one separable product per sample: the field,
particular part included, is R C_aug Z^T with 1D tables R, Z, whose basis
blocks carry the mode matrices V_r and V_z, and a block-diagonal
coefficient matrix C_aug (``FieldEvaluator``). Gradients are computed by
analytic differentiation of the expansions (not finite differences of the
grid), with the coordinate scale factors folded into the derivative tables.
The reduced model and the FD oracle of ``reference`` reduce their fields to
``MetricsRecord``s through one routine, ``_reduce_fields``.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from dataclasses import dataclass, fields

import numpy as np

from .core import check_count, per_step, step_count
from .chebyshev import basis_table
from .exceptions import NumericalError
from .galerkin import ReducedModel
from .particular import axial_scale, radial_scale, radial_weight

DEFAULT_GRID = (41, 41)

# Samples that FieldEvaluator.metrics reconstructs at once. Stacking amortizes
# the per-call overhead, but each metrics call holds a buffer of
# 3 * METRICS_BLOCK * n_r * n_z floats (about 320 KB on the default grid), one
# per concurrent call: the CLI's control points run on a thread pool. On the
# study benchmark (2-core box), when scenarios and sweep-geometry ran on pools
# too, 8 measured as fast as 16 or 32 with 3 to 11 MB less peak memory.
METRICS_BLOCK = 8

# Modal floats that run steps at once: 256 KB of states that stay in cache
# while their outputs and metric samples are read, so a run holds no
# (K+1, order) trajectory. The K steps are split into balanced blocks of at
# most max(1, STEP_BLOCK // order) steps but, as FdSolver's row blocks, never
# fewer than two: numpy hands a single input row to GEMV, whose products
# differ from GEMM's in the last bit. Up to order 16 384, each block's input
# GEMM, at most 5 * STEP_BLOCK = 163 840 multiply-adds, stays on the calling
# thread (OpenBLAS threads from 262 144, see reference._SINGLE_THREAD_GEMM_MNK).
STEP_BLOCK = 32_768

# Serializes FieldEvaluator.of, whose cache the CLI's control pool shares.
_BUILD_LOCK = threading.Lock()


def _phi1(lam: np.ndarray, dt: float) -> np.ndarray:
    """(exp(dt lam) - 1) / lam, and dt where lam == 0."""
    zero = lam == 0.0
    return np.where(zero, dt, np.expm1(dt * lam) / np.where(zero, 1.0, lam))


@dataclass(frozen=True, eq=False)
class Stepper:
    """Step of a diagonal LTI system for one fixed dt: y' = gain * y + v @ b_hat
    for the state y (n,) and the input row v (m,) held over the step, exact
    for ``zoh``; ``held`` takes n steps of a precombined term at once."""

    gain: np.ndarray            # (n,), or any state shape for ``held``
    b_hat: np.ndarray | None    # (m, n); None for ``theta``, stepped by ``held`` only
    # (n, gain^n, S_n) of the last held span; not a field, so building costs no more
    _held = (None, None, None)

    @classmethod
    def zoh(cls, lam: np.ndarray, b: np.ndarray, dt: float) -> "Stepper":
        """Discretize dy/dt = lam * y + v @ b (lam (n,), b (m, n)) exactly
        for inputs held constant over dt."""
        if not (math.isfinite(dt) and dt > 0.0):
            raise ValueError("dt must be positive and finite")
        with np.errstate(over="ignore", invalid="ignore"):
            stepper = cls(np.exp(dt * lam), _phi1(lam, dt) * b)
        if not (np.all(np.isfinite(stepper.gain))
                and np.all(np.isfinite(stepper.b_hat))):
            raise NumericalError("modal exponential overflow: unstable dynamics")
        return stepper

    @classmethod
    def theta(cls, lam: np.ndarray, dt: float, theta: float,
              capacity: float) -> tuple["Stepper", np.ndarray]:
        """Theta step y' = g y + s f of capacity dy/dt = capacity lam y + f
        (theta 1/2: Crank & Nicolson, Proc. Camb. Phil. Soc. 43, 1947; 1: backward
        Euler), g = (1 + (1-theta) dt lam) / d, s = dt / (capacity d), d = 1 -
        theta dt lam: the stepper of gain g, without b_hat, and the scale s."""
        denom = 1.0 - theta * dt * lam
        return cls((1.0 + (1.0 - theta) * dt * lam) / denom, None), dt / (capacity * denom)

    def step(self, y: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.gain * y + v @ self.b_hat

    def held(self, y: np.ndarray, w: np.ndarray, n: int = 1) -> np.ndarray:
        """n steps from y with the term w (v @ b_hat, or s f) held over them:
        g^n y + S_n w, g = gain, S_n = sum_{i<n} g^i, by binary powering, as
        (1 - g^n) / (1 - g) fails at an insulated cell's g = 1 and loses digits
        for slow modes. n = 1 is bit for bit g y + w; a NaN or inf raises NumericalError."""
        check_count(n, "step count", 1)
        held = self._held   # one read: a thread swapping in its own is harmless
        if held[0] != n:
            g = power = self.gain
            total = np.ones_like(g)
            for bit in bin(n)[3:]:   # (g^2m, S_2m), then (g^(2m+1), S_(2m+1))
                total, power = total + power * total, power * power
                if bit == "1":
                    total, power = 1.0 + g * total, g * power
            held = (n, power, total)
            object.__setattr__(self, "_held", held)
        _, power, total = held
        out = power * y
        out += total * w
        if not math.isfinite(out.sum()):   # a NaN or inf entry makes it non-finite
            raise NumericalError("held step produced a non-finite state")
        return out

    def trajectory(self, y0: np.ndarray, V: np.ndarray, step0: int = 0) -> np.ndarray:
        """States (K+1, n) from y0 under the input rows V (K, m); raises
        NumericalError naming the first step whose state is not finite,
        counted from ``step0``, the step of y0 in a longer run."""
        Y = np.empty((V.shape[0] + 1, self.gain.size))
        Y[0] = y0
        gain, scratch = self.gain, np.empty_like(self.gain)
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(V, self.b_hat, out=Y[1:])   # the inputs, precombined once
            # iterating Y makes each row view as the loop reaches it; a list
            # of all of them would hold about 120 bytes per step
            for prev, row in zip(Y, Y[1:]):
                row += np.multiply(gain, prev, out=scratch)   # y = gain * y + W[k]
        # gain is finite and >= 0, so a non-finite entry never becomes finite
        # again: the last state shows whether any step failed
        if not np.all(np.isfinite(Y[-1])):
            first = np.argmin(np.all(np.isfinite(Y), axis=1))
            raise NumericalError(f"non-finite state at step {step0 + first}")
        return Y


def discretize(model: ReducedModel, dt: float) -> Stepper:
    """Exact zero-order-hold discretization of the reduced model, inputs
    [u; w] held constant over a step, acting on the modal coordinates
    (V_r (x) V_z)^-1 X of the Galerkin states X.

    With G^-1 A = V diag(lam) V^-1, V = V_r (x) V_z and
    lam = (lam_r[i] + lam_z[j]) / rho cp, the modal input map V^-1 G^-1 [B F]
    reduces to (Q_r^T (x) Q_z^T) [B F] / rho cp because V_inv = Q^T gram per
    direction.
    """
    m_r, m_z = model.modes_r, model.modes_z
    lam = np.add.outer(m_r.lam, m_z.lam).ravel() / model.rho_cp
    inputs = np.column_stack([model.B, model.F]).T.reshape(-1, model.M, model.N)
    b = (m_r.V.T @ inputs @ m_z.V).reshape(-1, model.order) / model.rho_cp
    return Stepper.zoh(lam, b, dt)


@dataclass(frozen=True, eq=False)
class FieldGrid:
    """Reconstructed temperature field on a tensor grid in scaled coordinates,
    with analytic gradients already mapped to physical units (K/m). Stacked
    samples lead the two grid axes."""

    r_nodes: np.ndarray
    z_nodes: np.ndarray
    values: np.ndarray
    dT_dr: np.ndarray
    dT_dz: np.ndarray


@dataclass(frozen=True, eq=False)
class MetricsRecord:
    """Thermal metrics of one field sample (floats), or of stacked samples
    (one array per metric)."""

    T_mean: float
    T_max: float
    T_min: float
    dT: float           # T_max - T_min
    dTr_max: float      # max |dT/dr|, K/m
    dTz_max: float      # max |dT/dz|, K/m
    dTr_mean: float     # grid mean of |dT/dr|, K/m
    dTz_mean: float     # grid mean of |dT/dz|, K/m

    @classmethod
    def stack(cls, records) -> "MetricsRecord":
        """One record of arrays from a sequence of single-sample records;
        empty arrays if there are none."""
        values = np.array([list(vars(r).values()) for r in records], dtype=float)
        return cls(*values.reshape(-1, len(fields(cls))).T)


def _trapezoid(n: int) -> np.ndarray:
    """Trapezoid weights of n >= 2 uniform nodes, unscaled: the two ends
    count half."""
    return np.r_[0.5, np.ones(n - 2), 0.5]


def _reduce_fields(T_mean: np.ndarray, blocks, single: bool) -> MetricsRecord:
    """Metrics of S samples from their means ``T_mean`` (S,) and their
    fields, given in sample order as blocks (3, b, n_r, n_z) of
    [T, dT/dr, dT/dz]; the gradients are overwritten with their magnitudes.
    Floats if ``single``, else one array per metric."""
    res = np.empty((8, T_mean.size))   # one row per MetricsRecord field, in order
    res[0] = T_mean
    i = 0
    for block in blocks:
        j = i + block.shape[1]
        flat = block.reshape(3, j - i, -1)   # a view: each sample's grid is contiguous
        np.max(flat[0], axis=1, out=res[1, i:j])
        np.min(flat[0], axis=1, out=res[2, i:j])
        grads = np.abs(flat[1:], out=flat[1:])
        np.max(grads, axis=2, out=res[4:6, i:j])
        np.sum(grads, axis=2, out=res[6:8, i:j])
        i = j
    if i:   # the grid means from the sums, once for all blocks
        res[6:8] /= flat.shape[2]
    np.subtract(res[1], res[2], out=res[3])
    if single:
        return MetricsRecord(*map(float, res[:, 0]))
    return MetricsRecord(*res)


@dataclass(frozen=True, eq=False)
class MetricSeries(MetricsRecord):
    """Metric arrays sampled at ``metrics_times``; the part of a run record
    that the reduced model and the FD oracle share."""

    metrics_times: np.ndarray


class FieldEvaluator:
    """Reconstruction of the field and its gradients on one fixed tensor grid.

    The whole field, particular part included, is one separable product of
    1D tables, as in sum factorization (Orszag, J. Comput. Phys. 37, 1980).
    A sample is its modal coordinates Y, as ``run`` steps them, and its
    inputs u. The state part Phi_r X Phi_z^T of the field, X = V_r Y V_z^T,
    is (Phi_r V_r) Y (Phi_z V_z)^T, so the 1D basis tables Phi carry the mode
    matrices. Each particular component is one product g(r) f(z)
    (``ParticularComponents.factors``), so the tables are augmented by one
    column per input side:

        R0 = [basis V_r | r-factor of each side],   R1 = alpha [the same, d/dr],
        Z0 = [basis V_z | z-factor of each side],   Z1 = beta  [the same, d/dz],

    n_r (n_z) rows by M + n_inputs (N + n_inputs) columns, with the
    coordinate scales alpha and beta giving gradients in K/m. A sample
    (Y, u) is the block-diagonal coefficient matrix
    C_aug = blockdiag(Y as M x N, diag(u)), and

        T = R0 C_aug Z0^T,   dT/dr = R1 C_aug Z0^T,   dT/dz = R0 C_aug Z1^T.

    The volume-weighted mean is linear in (Y, u): W = R0^T vol Z0 gives the
    rows ``mean_state_row`` (order,), on modal coordinates, and
    ``mean_input_row`` (n_inputs,).

    ``FieldEvaluator.of`` builds one evaluator per model and grid and keeps
    it on the model. An evaluator keeps only the model's sizes, not the
    model, so the two form no reference cycle and a model is freed as soon
    as its last reference goes.
    """

    def __init__(self, model: ReducedModel, n_r: int = DEFAULT_GRID[0],
                 n_z: int = DEFAULT_GRID[1]):
        if n_r < 2 or n_z < 2:
            raise ValueError("reconstruction grid needs at least 2 nodes per direction")
        self._sizes = (model.M, model.N, model.n_inputs)
        self.r_nodes = np.linspace(-1.0, 1.0, n_r)
        self.z_nodes = np.linspace(-1.0, 1.0, n_z)

        r = basis_table(model.basis_r, self.r_nodes, (0, 1))
        z = basis_table(model.basis_z, self.z_nodes, (0, 1))
        v_r, v_z = model.modes_r.V, model.modes_z.V
        fr, fz = zip(*(model.particular.factors(side, r, z) for side in model.sides))
        dfr, dfz = zip(*(model.particular.factors(side, r, z, dr=1, dz=1)
                         for side in model.sides))
        r0 = np.hstack([r[0] @ v_r, *(f.T for f in fr)])
        z0 = np.hstack([z[0] @ v_z, *(f.T for f in fz)])
        self._r = np.stack([r0, radial_scale(model.spec)
                            * np.hstack([r[1] @ v_r, *(f.T for f in dfr)])])
        self._z0t = z0.T
        self._z1t = axial_scale(model.spec) * np.hstack([z[1] @ v_z,
                                                         *(f.T for f in dfz)]).T
        # u sits on the diagonal below the M x N state block of C_aug: rows
        # from M, columns from N
        k = np.arange(model.n_inputs)
        self._u_diag = (model.M + k, model.N + k)

        vol = np.outer(_trapezoid(n_r) * radial_weight(model.spec, self.r_nodes),
                       _trapezoid(n_z))
        self._vol_weights = vol = vol / vol.sum()
        w = r0.T @ vol @ z0
        self.mean_state_row = w[:model.M, :model.N].ravel()
        self.mean_input_row = w[self._u_diag]

    @classmethod
    def of(cls, model: ReducedModel, n_r: int = DEFAULT_GRID[0],
           n_z: int = DEFAULT_GRID[1]) -> "FieldEvaluator":
        """The evaluator of ``model`` on the (n_r, n_z) grid, built on first
        use and cached on the model (``ReducedModel.evaluators``). Builds
        are serialized, so threads that share a model build it once."""
        with _BUILD_LOCK:
            cache = model.evaluators
            if (n_r, n_z) not in cache:
                cache[n_r, n_z] = cls(model, n_r, n_z)
            return cache[n_r, n_z]

    def _stack(self, Y, u):
        """(Y (S, order), u (S, n_inputs), whether one unstacked sample)."""
        Y = np.asarray(Y, dtype=float)
        u = np.broadcast_to(np.asarray(u, dtype=float),
                            (*Y.shape[:-1], self._sizes[2]))
        return Y.reshape(-1, Y.shape[-1]), u.reshape(-1, u.shape[-1]), Y.ndim == 1

    def _reconstruct(self, Y: np.ndarray, u: np.ndarray, out: np.ndarray):
        """T, dT/dr and dT/dz of the samples Y (b, order), u (b, n_inputs)
        into out (3, b, n_r, n_z), which it returns."""
        M, N, _ = self._sizes
        c_aug = np.zeros((Y.shape[0], self._r.shape[-1], self._z0t.shape[0]))
        c_aug[:, :M, :N] = Y.reshape(-1, M, N)
        rows, cols = self._u_diag
        c_aug[:, rows, cols] = u
        left = self._r[:, None] @ c_aug           # R0 C_aug and R1 C_aug
        np.matmul(left, self._z0t, out=out[:2])
        np.matmul(left[0], self._z1t, out=out[2])
        return out

    def field(self, Y: np.ndarray, u: np.ndarray) -> FieldGrid:
        """Field and gradients of one sample (modal Y (order,), u (n_inputs,))
        or of stacked samples (Y (S, order), u (S, n_inputs) or (n_inputs,)),
        in new arrays."""
        Y, u, single = self._stack(Y, u)
        out = np.empty((3, Y.shape[0], self.r_nodes.size, self.z_nodes.size))
        self._reconstruct(Y, u, out)
        return FieldGrid(self.r_nodes, self.z_nodes, *(out[:, 0] if single else out))

    def metrics(self, Y: np.ndarray, u: np.ndarray) -> MetricsRecord:
        """Metrics of one sample (modal Y) as floats, or of stacked samples
        (one input row per sample, or one for all) as arrays, reconstructed
        METRICS_BLOCK samples at a time into one buffer."""
        Y, u, single = self._stack(Y, u)
        n = Y.shape[0]
        buf = np.empty((3, min(n, METRICS_BLOCK), self.r_nodes.size, self.z_nodes.size))
        blocks = (self._reconstruct(Y[i:i + METRICS_BLOCK], u[i:i + METRICS_BLOCK],
                                    buf[:, :min(METRICS_BLOCK, n - i)])
                  for i in range(0, n, METRICS_BLOCK))
        return _reduce_fields(Y @ self.mean_state_row + u @ self.mean_input_row,
                              blocks, single)


@dataclass(frozen=True, eq=False)
class SimResult(MetricSeries):
    """Outputs and metric samples of one reduced-model run.

    ``outputs`` holds the four mid-side temperatures [surface, core, top,
    bottom] at every step; the metric arrays are sampled every
    ``metrics_stride`` steps on the reconstruction grid, at
    ``metrics_times``, and are empty for an outputs-only run
    (``metrics_stride=None``). Only the states of those S samples are kept,
    in the modal coordinates the run steps, and a result holds arrays only:
    no model and no mode matrices. A caller that needs the state at every
    step passes ``metrics_stride=1``.
    """

    times: np.ndarray
    states: np.ndarray          # (S, order) modal coordinates at metrics_times
    outputs: np.ndarray         # (K+1, 4)


def metric_steps(n_steps: int, stride: int | None, name: str = "stride") -> list:
    """Sampled step indices: every ``stride``-th step and the last one, or
    none for ``stride=None``. Any other stride must be an integer >= 1; the
    error names it as ``name``."""
    if stride is None:
        return []
    check_count(stride, name, 1)
    idx = list(range(0, n_steps + 1, stride))
    if idx[-1] != n_steps:
        idx.append(n_steps)
    return idx


def run(model: ReducedModel, Y0, tinf, w, dt: float, horizon: float,
        grid_shape=DEFAULT_GRID, metrics_stride: int | None = 1,
        tinf0=None) -> SimResult:
    """Step the model over [0, horizon] with staircase inputs from the modal
    coordinates Y0 (order,), as ``galerkin.project_initial_state`` gives them.

    ``tinf`` holds the coolant temperatures in ``SIDES`` order as ``fd_solve``
    takes them (None, one (4,) row or K+1 rows; ``ReducedModel.inputs``),
    ``w`` a scalar or K+1 heat samples, both already resampled to dt. Step k
    moves the state from k to k+1 under the inputs of row k. The outputs and
    metric samples of step k are recorded under the input applied up to k,
    row k-1, which is the field an FD run under the same rows samples there;
    step 0 is recorded under ``tinf0``, one (4,) row in ``SIDES`` order that
    defaults to the first row of ``tinf``. With held coolant every row is the
    same, so the record does not depend on the convention. The states are
    stepped STEP_BLOCK floats at a time and kept only at the metric steps,
    ``metric_steps(K, metrics_stride)``. An outputs-only run,
    ``metrics_stride=None``, keeps no state and builds no ``FieldEvaluator``:
    its states have shape (0, order) and its metric arrays are empty.
    """
    y = np.asarray(Y0, dtype=float)
    if y.shape != (model.order,):
        raise ValueError(f"Y0 must have shape ({model.order},), not {y.shape}")
    n_steps = step_count(horizon, dt)
    u_arr = model.inputs(tinf, n_steps + 1)
    w_arr = per_step(w, n_steps + 1, "w")
    idx = metric_steps(n_steps, metrics_stride, "metrics_stride")
    # step k is recorded under row k-1 and step 0 under u0; a held row is
    # recorded as it is, sparing a copy that compare-tec's O1/TEC timing of a
    # 10-step O=1 run would see
    u0 = u_arr[:1] if tinf0 is None else model.inputs(tinf0, 1, "tinf0")
    held = tinf0 is None and not u_arr.strides[0]
    u_rec = u_arr if held else np.concatenate([u0, u_arr[:-1]])
    stepper = discretize(model, dt)
    times = np.arange(n_steps + 1) * dt
    inputs = np.column_stack([u_arr, w_arr])
    rows = max(1, STEP_BLOCK // model.order)
    n_blocks = max(1, min(-(-n_steps // rows), n_steps // 2))
    if n_blocks == 1:
        # no block bookkeeping: on a 10-step O=1 run it cost about 4 % of
        # the run, which compare-tec's O1/TEC timing shows
        Y = stepper.trajectory(y, inputs[:-1])
        outputs, states = model.modal_outputs(Y, u_rec), Y[idx]
    else:
        outputs, samples, a = [], [], 0
        for i in range(n_blocks):
            k0, k1 = i * n_steps // n_blocks, (i + 1) * n_steps // n_blocks
            Y = stepper.trajectory(y, inputs[k0:k1], k0)   # states k0..k1
            lo = 1 if i else 0   # state k0 closed the block before
            outputs.append(model.modal_outputs(Y[lo:], u_rec[k0 + lo:k1 + 1]))
            b = bisect_right(idx, k1, a)
            samples.append(Y[[k - k0 for k in idx[a:b]]])
            a, y = b, Y[-1]
        outputs, states = np.concatenate(outputs), np.concatenate(samples)
    if idx:
        metrics = FieldEvaluator.of(model, *grid_shape).metrics(states, u_rec[idx])
    else:
        metrics = MetricsRecord.stack([])
    return SimResult(times=times, states=states, outputs=outputs,
                     metrics_times=times[idx], **vars(metrics))
