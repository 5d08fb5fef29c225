"""Domain types shared by all modules: cell geometry and properties, per-side
cooling configuration, heat-generation profiles, the checks of per-step
inputs, and the modal decomposition of a 1D operator.

Every model's 1D operator is a symmetric-definite pencil (stiffness, mass),
which ``pencil_modes`` diagonalizes: the Galerkin pencils (Sr, Gr), (Sz, Gz)
with dense Gram masses (``galerkin``), each FD ghost-node operator L as
(diag(w) L, rho cp w) with w the diagonal that symmetrizes L
(``reference.FdSolver``), and the TEC circuit as (C A, C), C its heat
capacities (``reference.tec_run``).

Conventions
-----------
* Temperatures are degrees Celsius throughout; the model is linear, so the
  offset is immaterial.
* The four cooling sides are named ``surface``, ``core``, ``top``, ``bottom``.
  For pouch cells ``surface`` plays the role of the front face and ``core``
  the back face.
* Every model takes its cooling as coolant temperatures T_inf (degC) in
  ``SIDES`` order: None for the config's own (``CoolingConfig.T_inf``), one
  row held over a run or one row per step (``per_step_rows``). A side with
  h = 0, as a cylinder's core, is insulated and its entry has no effect. The
  reduced model forms its inputs u = h T_inf (W m^-2) itself.
* The 2D pouch model uses a unit depth of 1 m for all volume and energy
  bookkeeping; every per-volume quantity is consistent under that convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import AssemblyError

CYLINDRICAL = "cylindrical"
POUCH = "pouch"

SIDES = ("surface", "core", "top", "bottom")

# Forced liquid cooling vs mild air convection, W m^-2 K^-1.
H_ACTIVE = 400.0
H_PASSIVE = 30.0

# Preset cooling scenarios: which sides receive active cooling.
# SC   surface cooling
# bTC  bottom tab cooling
# bTSC bottom tab and surface cooling
# btTC bottom and top tabs cooling
# aTSC all tabs and surface cooling (immersion-like)
SCENARIOS = {
    "SC": ("surface",),
    "bTC": ("bottom",),
    "bTSC": ("bottom", "surface"),
    "btTC": ("bottom", "top"),
    "aTSC": ("surface", "top", "bottom"),
}


def _check_number(obj, name):
    value = getattr(obj, name)
    if isinstance(value, bool):
        raise ValueError(f"{type(obj).__name__}.{name} must be a number, not a bool")
    if not math.isfinite(value):
        raise ValueError(f"{type(obj).__name__}.{name} must be finite")


@dataclass(frozen=True)
class CellSpec:
    """Geometry and volume-averaged thermo-physical properties of one cell.

    For cylindrical cells ``L`` is the height and ``R_out``/``R_in`` the outer
    and inner radii; ``k_r``/``k_z`` are the radial and axial conductivities.
    For pouch cells ``L`` is the height H, ``D`` the width, and ``k_r``/``k_z``
    stand in for k_x / k_y.
    """

    shape: str
    L: float            # m
    rho: float          # kg m^-3
    cp: float           # J kg^-1 K^-1
    k_r: float          # W m^-1 K^-1 (radial / pouch in-plane x)
    k_z: float          # W m^-1 K^-1 (axial / pouch in-plane y)
    R_out: float = 0.0  # m, cylindrical only
    R_in: float = 0.0   # m, cylindrical only
    D: float = 0.0      # m, pouch width only

    def __post_init__(self):
        if self.shape not in (CYLINDRICAL, POUCH):
            raise ValueError(f"unknown cell shape {self.shape!r}")
        for name in ("L", "rho", "cp", "k_r", "k_z", "R_out", "R_in", "D"):
            _check_number(self, name)
        for name in ("L", "rho", "cp", "k_r", "k_z"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"CellSpec.{name} must be positive")
        if self.shape == CYLINDRICAL:
            if not self.R_out > self.R_in > 0.0:
                raise ValueError("cylindrical cell requires R_out > R_in > 0")
        else:
            if self.D <= 0.0:
                raise ValueError("pouch cell requires D > 0")

    @property
    def is_cylindrical(self) -> bool:
        return self.shape == CYLINDRICAL


@dataclass(frozen=True)
class SideCooling:
    """Convection coefficient and coolant free-stream temperature for one side."""

    h: float        # W m^-2 K^-1
    T_inf: float    # degC

    def __post_init__(self):
        for name in ("h", "T_inf"):
            _check_number(self, name)
        if self.h < 0.0:
            raise ValueError("convection coefficient h must be >= 0")


@dataclass(frozen=True)
class CoolingConfig:
    """Per-side convection coefficients and coolant temperatures.

    ``surface``/``core`` are the radial sides of a cylindrical cell or the
    front/back faces of a pouch cell; ``top``/``bottom`` are the tab ends.
    """

    surface: SideCooling
    core: SideCooling
    top: SideCooling
    bottom: SideCooling
    scenario_name: str = ""

    def side(self, name: str) -> SideCooling:
        if name not in SIDES:
            raise ValueError(f"unknown side {name!r}")
        return getattr(self, name)

    @property
    def T_inf(self) -> tuple:
        """The coolant temperature of each side, in ``SIDES`` order."""
        return tuple(self.side(s).T_inf for s in SIDES)


def scenario_cooling(name: str, shape: str = CYLINDRICAL,
                     T_inf: float = 15.0) -> CoolingConfig:
    """Build the cooling configuration of one of the five named scenarios.

    Active sides get h = 400 W m^-2 K^-1, passive sides h = 30, and the
    cylindrical core h = 0. For pouch cells the surface role applies to both
    the front and back faces.
    """
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; expected one of {sorted(SCENARIOS)}")
    active = SCENARIOS[name]

    def h_for(side: str) -> float:
        role = "surface" if side in ("surface", "core") else side
        return H_ACTIVE if role in active else H_PASSIVE

    sides = {}
    for side in SIDES:
        if side == "core" and shape == CYLINDRICAL:
            sides[side] = SideCooling(0.0, T_inf)
        else:
            sides[side] = SideCooling(h_for(side), T_inf)
    return CoolingConfig(scenario_name=name, **sides)


def active_sides(name: str) -> tuple:
    """Sides whose cooling channel is actively driven in a named scenario."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}")
    return SCENARIOS[name]


def input_sides(shape: str) -> tuple:
    """The reduced model's input sides, in order (a cylinder's core has none)."""
    return ("surface", "top", "bottom") if shape == CYLINDRICAL else SIDES


def cell_volume(spec: CellSpec) -> float:
    """Cell volume in m^3: pi (R_out^2 - R_in^2) L for a cylinder, D*H*1 m
    for the unit-depth 2D pouch model."""
    if spec.is_cylindrical:
        return math.pi * (spec.R_out**2 - spec.R_in**2) * spec.L
    return spec.D * spec.L * 1.0


def bernardi_q(I, V, V_ocv, cell_volume: float):
    """Volumetric heat generation q = I (V - V_ocv) / V_b in W m^-3, of one
    sample (floats) or elementwise over arrays of samples.

    Negative values (endothermic charging) are passed through unchanged.
    """
    if cell_volume <= 0.0:
        raise ValueError("cell_volume must be positive")
    return I * (V - V_ocv) / cell_volume


VOLUMETRIC_Q = "volumetric_q"
ELECTRICAL_IVO = "electrical_ivo"


@dataclass(frozen=True)
class HeatProfile:
    """Sampled heat-generation input.

    ``kind`` is either ``volumetric_q`` (values: W m^-3, shape (K,)) or
    ``electrical_ivo`` (values: columns I [A], V [V], V_ocv [V], shape (K, 3)).
    Sample times must start at 0 and increase strictly.
    """

    times: np.ndarray
    values: np.ndarray
    kind: str = VOLUMETRIC_Q

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.size == 0:
            raise ValueError("heat profile must contain at least one sample")
        for name, arr in (("times", t), ("values", v)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"HeatProfile.{name} must be finite")
        if t[0] != 0.0:
            raise ValueError("heat profile must start at t = 0")
        if t.size > 1 and not np.all(np.diff(t) > 0.0):
            raise ValueError("heat profile times must be strictly increasing")
        if self.kind == VOLUMETRIC_Q:
            if v.shape != t.shape:
                raise ValueError("volumetric profile values must be one per sample")
        elif self.kind == ELECTRICAL_IVO:
            if v.shape != (t.size, 3):
                raise ValueError("electrical profile values must be (I, V, V_ocv) per sample")
        else:
            raise ValueError(f"unknown heat profile kind {self.kind!r}")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def to_volumetric(self, cell_vol: float) -> "HeatProfile":
        """Convert an electrical profile to volumetric heat via the Bernardi formula."""
        if self.kind == VOLUMETRIC_Q:
            return self
        q = bernardi_q(*self.values.T, cell_vol)
        return HeatProfile(self.times, q, VOLUMETRIC_Q)


def constant_profile(q: float) -> HeatProfile:
    """A volumetric heat profile holding a single constant value."""
    return HeatProfile(np.array([0.0]), np.array([float(q)]), VOLUMETRIC_Q)


def step_count(horizon: float, dt: float) -> int:
    """Whole steps of dt in [0, horizon]; a multiple of dt rounded low counts.
    The one check of every stepped run's grid: dt must be positive and
    finite, the horizon finite and >= 0."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError("dt must be positive and finite")
    if not (math.isfinite(horizon) and horizon >= 0.0):
        raise ValueError("horizon must be finite and >= 0")
    return int(np.floor(horizon / dt + 1e-9))


def per_step(values, n_times: int, name: str) -> np.ndarray:
    """A finite scalar held over n_times samples, or an array of exactly
    n_times finite samples."""
    arr = np.asarray(values, dtype=float)
    if arr.shape not in ((), (n_times,)):
        raise ValueError(f"{name} must broadcast to ({n_times},)")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr if arr.ndim else np.broadcast_to(arr, (n_times,))


def per_step_rows(values, width: int, n_times: int, name: str) -> np.ndarray:
    """Checked rows of width finite entries: one row (width,), which the
    caller holds over n_times samples, or exactly n_times rows."""
    arr = np.asarray(values, dtype=float)
    if arr.shape not in ((width,), (n_times, width)):
        raise ValueError(f"{name} must broadcast to ({n_times}, {width})")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def resample_profile(profile: HeatProfile, dt: float, horizon: float) -> np.ndarray:
    """Zero-order-hold resampling onto the uniform grid t = 0, dt, ..., <= horizon.

    Each grid point takes the value of the most recent sample; points beyond
    the last sample hold the last value. Returns an array of shape (K+1,) for
    volumetric profiles or (K+1, 3) for electrical ones.
    """
    grid = np.arange(step_count(horizon, dt) + 1) * dt
    idx = np.searchsorted(profile.times, grid + 1e-12 * max(dt, 1.0), side="right") - 1
    idx = np.clip(idx, 0, len(profile.times) - 1)
    return profile.values[idx]


class Modes(NamedTuple):
    """Real eigendecomposition ``L = V diag(lam) V_inv`` of a 1D operator."""

    lam: np.ndarray
    V: np.ndarray
    V_inv: np.ndarray


def pencil_modes(stiff: np.ndarray, mass: np.ndarray) -> Modes:
    """Modes mass^-1 stiff = V diag(lam) V_inv of the symmetric-definite
    pencil (stiff, mass), with V^T mass V = I: V_inv = V^T mass, a real
    spectrum and no matrix inverse (Golub & Van Loan, Matrix Computations,
    4th ed., 8.7). A dense SPD mass = L L^T reduces as LAPACK's ``sygvd``
    does, to C = L^-1 stiff L^-T = W diag(lam) W^T (symmetrized: ``eigh``
    reads one triangle) with V = L^-T W; on the paper cell's pencils at
    M = N = 30, V^T mass V = I to 1.3e-14 (``sygvd``: 1.6e-14). A diagonal
    mass given as its vector m reduces by scaling, C = stiff / (sqrt(m)
    sqrt(m)^T), V = W / sqrt(m) and V_inv = W^T sqrt(m). A mass that is not
    positive definite and finite raises ``AssemblyError``."""
    mass = np.asarray(mass, dtype=float)
    try:
        if not np.isfinite(mass).all() or mass.ndim == 1 and not (mass > 0.0).all():
            raise np.linalg.LinAlgError("mass is not finite and positive definite")
        if mass.ndim == 1:
            root = np.sqrt(mass)
            c = stiff / root[:, None]
            c /= root                               # no (n, n) outer product
            lam, w = np.linalg.eigh(c)
            return Modes(lam, w / root[:, None], w.T * root)
        low = np.linalg.cholesky(mass)
        half = np.linalg.solve(low, stiff)          # L^-1 stiff
        c = np.linalg.solve(low, half.T)            # L^-1 stiff L^-T
        lam, w = np.linalg.eigh(0.5 * (c + c.T))
    except np.linalg.LinAlgError as exc:
        raise AssemblyError(f"1D pencil not diagonalizable: {exc}") from exc
    q = np.linalg.solve(low.T, w)
    return Modes(lam, q, q.T @ mass)
