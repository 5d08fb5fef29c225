"""Heat-generation profiles: synthetic generators and drive-cycle CSV I/O.

Drive-cycle CSV contract (bit-exact headers):

    t_s,q_Wm3                 volumetric heat samples
    t_s,I_A,V_V,Vocv_V        electrical samples, converted through the
                              current-overpotential heat formula when a cell
                              volume is supplied

Synthetic kinds: a constant rate, a rectangular pulse train, and a seeded
band-limited random drive standing in for a real-world velocity cycle (which
is not distributable with the package); its ``scale`` knob multiplies the
generated heat.
"""

from __future__ import annotations

import csv

import numpy as np

from .core import ELECTRICAL_IVO, VOLUMETRIC_Q, HeatProfile, constant_profile, step_count
from .exceptions import ConfigError

Q_HEADER = ["t_s", "q_Wm3"]
IVO_HEADER = ["t_s", "I_A", "V_V", "Vocv_V"]


def pulse_train(amplitude: float, period: float, duty: float, horizon: float,
                base: float = 0.0) -> HeatProfile:
    """Rectangular volumetric pulses: `amplitude` for the first `duty`
    fraction of every period, `base` otherwise. Default parameters are
    artifact choices, not published values."""
    if period <= 0.0 or not 0.0 < duty < 1.0:
        raise ValueError("pulse train needs period > 0 and 0 < duty < 1")
    times = [0.0]
    values = [amplitude]
    t = 0.0
    while t < horizon:
        t_off = t + duty * period
        t_on = t + period
        if t_off < horizon:
            times.append(t_off)
            values.append(base)
        if t_on < horizon:
            times.append(t_on)
            values.append(amplitude)
        t = t_on
    return HeatProfile(np.array(times), np.array(values), VOLUMETRIC_Q)


def random_drive(peak_current: float, horizon: float, seed: int,
                 step: float = 1.0, internal_resistance: float = 2e-3,
                 scale: float = 2.0, v_ocv: float = 3.3,
                 smooth_window: int = 15) -> HeatProfile:
    """Seeded band-limited random current profile as an electrical heat input.

    White noise is smoothed by a moving average (band limiting), normalized
    to the requested peak current, and mapped to terminal voltage through a
    constant internal resistance; the heat scale factor is folded into that
    resistance so the resulting overpotential heat carries it.
    """
    if step <= 0.0 or horizon <= 0.0:
        raise ValueError("random drive needs positive step and horizon")
    rng = np.random.default_rng(seed)
    n = step_count(horizon, step) + 1
    raw = rng.standard_normal(n + smooth_window)
    kernel = np.ones(smooth_window) / smooth_window
    smooth = np.convolve(raw, kernel, mode="valid")[:n]
    peak = np.abs(smooth).max()
    current = peak_current * smooth / (peak if peak > 0 else 1.0)
    r_eff = scale * internal_resistance
    voltage = v_ocv + current * r_eff
    values = np.column_stack([current, voltage, np.full(n, v_ocv)])
    return HeatProfile(np.arange(n) * step, values, ELECTRICAL_IVO)


def ingest_drive_cycle(path, cell_volume: float | None = None) -> HeatProfile:
    """Parse a drive-cycle CSV into a heat profile.

    Electrical files are converted to volumetric heat when ``cell_volume``
    is given, otherwise returned as electrical samples. Malformed rows and
    non-monotone times raise ConfigError with the offending line number.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty drive-cycle file") from None
        if header == Q_HEADER:
            n_cols = 2
        elif header == IVO_HEADER:
            n_cols = 4
        else:
            raise ConfigError(
                f"{path}: line 1: header must be {','.join(Q_HEADER)!r} "
                f"or {','.join(IVO_HEADER)!r}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n_cols:
                raise ConfigError(f"{path}: line {lineno}: expected {n_cols} columns")
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise ConfigError(f"{path}: line {lineno}: non-numeric value") from None
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    data = np.array(rows)
    try:
        if n_cols == 2:
            profile = HeatProfile(data[:, 0], data[:, 1], VOLUMETRIC_Q)
        else:
            profile = HeatProfile(data[:, 0], data[:, 1:], ELECTRICAL_IVO)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if profile.kind == ELECTRICAL_IVO and cell_volume is not None:
        return profile.to_volumetric(cell_volume)
    return profile


def emit_drive_cycle(profile: HeatProfile, path):
    """Write a profile in the ingestible CSV format (full float fidelity)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if profile.kind == VOLUMETRIC_Q:
            writer.writerow(Q_HEADER)
            for t, q in zip(profile.times, profile.values):
                writer.writerow([repr(float(t)), repr(float(q))])
        else:
            writer.writerow(IVO_HEADER)
            for t, (i, v, vo) in zip(profile.times, profile.values):
                writer.writerow([repr(float(t)), repr(float(i)),
                                 repr(float(v)), repr(float(vo))])


__all__ = [
    "Q_HEADER", "IVO_HEADER", "constant_profile", "pulse_train",
    "random_drive", "ingest_drive_cycle", "emit_drive_cycle",
]
