"""Command-line entry point: JSON run configurations, experiment
orchestration, and CSV/JSON result emission.

Subcommands
-----------
validate        reduced-model orders vs the finite-difference oracle
compare-tec     reduced models vs the two-state lumped benchmark (+ timing)
scenarios       thermal merits of the five cooling presets
control         closed-loop mean-temperature regulation across load scalings
sweep-geometry  constant-volume height-to-radius sweep
simulate        plain reduced-model runs

Every command takes ``--config <path>`` plus optional ``--out``, ``--seed``,
``--orders`` overrides, writes ``<out>/<command>/*.csv`` and a
``summary.json`` with provenance (config hash, seed, and the versions of
celltherm and of numpy, its one runtime dependency), and is
byte-deterministic given (config, seed). Wall-clock timing tables are the
one documented exception and go to ``timing.txt``. Exit codes: 0 success,
2 config error, 3 numerical failure, 4 unsupported combination.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    CYLINDRICAL,
    POUCH,
    SCENARIOS,
    SIDES,
    CellSpec,
    CoolingConfig,
    SideCooling,
    boundary_input_from_cooling,
    cell_volume,
    constant_profile,
    resample_profile,
    scenario_cooling,
)
from .control import closed_loop_run
from .exceptions import ConfigError, ModelError, NumericalError, UnsupportedShapeError
from .galerkin import assemble, project_initial_state
from .profiles import ingest_drive_cycle, pulse_train, random_drive
from .reference import (
    REFERENCE_TIME_REDUCTION_PCT,
    FdConfig,
    TecModel,
    fd_solve,
    tec_metrics,
    tec_run,
    timing_harness,
)
from .simulate import run

SCHEMA_VERSION = 1

# a metrics stride beyond any horizon: metrics only at the first and last step
_NO_METRICS = 10**9

_PAPER_CELL = {"shape": CYLINDRICAL, "L": 0.198, "R_out": 0.032, "R_in": 0.004,
               "rho": 2118.0, "cp": 795.0, "k_r": 0.67, "k_z": 66.6}

DEFAULTS = {
    "schema_version": SCHEMA_VERSION,
    "cell": _PAPER_CELL,
    "scenario": "SC",
    "cooling": None,
    "scenarios": ["SC"],
    "orders": [16],
    "dt_s": 1.0,
    "horizon_s": 600.0,
    "t_init_C": 15.0,
    "seed": 0,
    "out_dir": "out",
    "metrics_stride": 1,
    "grid": {"n_r": 41, "n_z": 41},
    "heat": {"kind": "constant_q", "q_W_per_m3": 1e5},
    "fd": {"n_r": 128, "n_z": 128, "dt_s": 0.05, "scheme": "crank_nicolson"},
    "tec": {"C_c": 1079.6, "C_s": 48.35, "R_c": 0.65, "R_u": 0.08, "T_inf_C": 15.0},
    "control": {"setpoint_C": 20.0, "kp": 2.0, "ki": 0.05,
                "limits_C": [-20.0, 40.0], "c_rates": [1.0, 2.0, 3.0, 4.0],
                "estimator_order": None},
    "sweep": {"ratios": [2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], "R_in_m": 0.004},
    "timing": {"enabled": True, "repetitions": 5},
}

_HEAT_KEYS = {
    "constant_q": {"kind", "q_W_per_m3"},
    "pulse_train": {"kind", "amplitude_W_per_m3", "period_s", "duty", "base_W_per_m3"},
    "random_drive": {"kind", "peak_current_A", "internal_resistance_ohm",
                     "scale", "step_s"},
    "csv": {"kind", "path"},
}

_ALLOWED = {
    "": set(DEFAULTS),
    "cell": {"shape", "L", "R_out", "R_in", "D", "rho", "cp", "k_r", "k_z"},
    "cooling": set(SIDES),
    "cooling.*": {"h", "T_inf"},
    "grid": {"n_r", "n_z"},
    "fd": {"n_r", "n_z", "dt_s", "scheme"},
    "tec": {"C_c", "C_s", "R_c", "R_u", "T_inf_C"},
    "control": set(DEFAULTS["control"]),
    "sweep": set(DEFAULTS["sweep"]),
    "timing": set(DEFAULTS["timing"]),
}


def _check_keys(obj, allowed, where):
    if not isinstance(obj, dict):
        raise ConfigError(f"config section {where!r} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown config key(s) {sorted(unknown)} in {where or 'top level'}")


def load_config(path=None, overrides=None) -> dict:
    """Load, schema-check, and default-fill a JSON run configuration."""
    raw = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(raw, _ALLOWED[""], "")
    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}")

    cfg = json.loads(json.dumps(DEFAULTS))  # deep copy
    for key, value in raw.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            section = _ALLOWED.get(key, set(value))
            if key == "heat":
                kind = value.get("kind")
                if kind not in _HEAT_KEYS:
                    raise ConfigError(f"unknown heat profile kind {kind!r}")
                _check_keys(value, _HEAT_KEYS[kind], "heat")
                cfg["heat"] = dict(value)
                continue
            _check_keys(value, section, key)
            cfg[key].update(value)
        elif isinstance(cfg.get(key), dict):
            raise ConfigError(f"config section {key!r} must be an object")
        else:
            cfg[key] = value
    if raw.get("cooling") is not None:
        _check_keys(raw["cooling"], _ALLOWED["cooling"], "cooling")
        for side, entry in raw["cooling"].items():
            _check_keys(entry, _ALLOWED["cooling.*"], f"cooling.{side}")
    for key, value in (overrides or {}).items():
        if value is not None:
            cfg[key] = value
    _validate_config(cfg)
    return cfg


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_order(o, name="order"):
    if not _is_int(o) or o < 1:
        raise ConfigError(f"{name} {o!r} is not a positive integer")
    if math.isqrt(o) ** 2 != o:
        raise ConfigError(f"{name} {o} is not a perfect square (O = N^2)")


def _check_int(value, name, least):
    if not _is_int(value) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, not {value!r}")


def _check_real(value, name, positive=False):
    if (not isinstance(value, (int, float)) or isinstance(value, bool)
            or not math.isfinite(value) or (positive and value <= 0)):
        kind = "a finite positive number" if positive else "a finite number"
        raise ConfigError(f"{name} must be {kind}, not {value!r}")


# heat keys that must be positive; every other numeric heat key is any real
_POSITIVE_HEAT_KEYS = {"period_s", "step_s"}


def _check_section_values(cfg):
    """Types and ranges of the tec, sweep, control, timing and heat values."""
    for key, value in cfg["tec"].items():
        _check_real(value, f"tec.{key}", positive=key != "T_inf_C")
    _check_real(cfg["sweep"]["R_in_m"], "sweep.R_in_m", positive=True)
    ratios = cfg["sweep"]["ratios"]
    if not isinstance(ratios, list) or not ratios:
        raise ConfigError("sweep.ratios must be a non-empty list of numbers")
    for ratio in ratios:
        _check_real(ratio, "sweep.ratios entry", positive=True)
    ctl = cfg["control"]
    for key in ("setpoint_C", "kp", "ki"):
        _check_real(ctl[key], f"control.{key}")
    limits = ctl["limits_C"]
    if not isinstance(limits, list) or len(limits) != 2:
        raise ConfigError(f"control.limits_C must be [lo, hi], not {limits!r}")
    for limit in limits:
        _check_real(limit, "control.limits_C entry")
    if limits[0] > limits[1]:
        raise ConfigError(f"control.limits_C {limits!r} has lo > hi")
    if not isinstance(cfg["timing"]["enabled"], bool):
        raise ConfigError(f"timing.enabled must be true or false, "
                          f"not {cfg['timing']['enabled']!r}")
    heat = cfg["heat"]
    for key in {"constant_q": ("q_W_per_m3",), "csv": ("path",)}.get(heat["kind"], ()):
        if key not in heat:
            raise ConfigError(f"heat kind {heat['kind']!r} needs {key!r}")
    for key, value in heat.items():
        if key == "path":
            if not isinstance(value, str):
                raise ConfigError(f"heat.path must be a string, not {value!r}")
        elif key != "kind":
            _check_real(value, f"heat.{key}", positive=key in _POSITIVE_HEAT_KEYS)


def _validate_config(cfg):
    if not isinstance(cfg["orders"], list) or not cfg["orders"]:
        raise ConfigError("orders must be a non-empty list of model orders")
    for o in cfg["orders"]:
        _check_order(o)
    if cfg["control"]["estimator_order"] is not None:
        _check_order(cfg["control"]["estimator_order"], "control.estimator_order")
    for key in ("dt_s", "horizon_s"):
        _check_real(cfg[key], key, positive=True)
    _check_real(cfg["t_init_C"], "t_init_C")
    _check_int(cfg["metrics_stride"], "metrics_stride", 1)
    # the least grids FieldEvaluator and FdConfig accept
    for key in ("n_r", "n_z"):
        _check_int(cfg["grid"][key], f"grid.{key}", 2)
        _check_int(cfg["fd"][key], f"fd.{key}", 3)
    _check_real(cfg["fd"]["dt_s"], "fd.dt_s", positive=True)
    _check_int(cfg["timing"]["repetitions"], "timing.repetitions", 3)
    if not isinstance(cfg["control"]["c_rates"], list):
        raise ConfigError("control.c_rates must be a list of numbers")
    for c_rate in cfg["control"]["c_rates"]:
        _check_real(c_rate, "control.c_rates entry")
    _check_section_values(cfg)
    if cfg["cooling"]:
        for side in SIDES:
            entry = cfg["cooling"].get(side)
            if entry is None:
                raise ConfigError(f"cooling config missing side {side!r}")
            for key in ("h", "T_inf"):
                if key not in entry:
                    raise ConfigError(f"cooling.{side} is missing {key!r}")
                _check_real(entry[key], f"cooling.{side}.{key}")
    scenarios = cfg["scenarios"]
    if not isinstance(scenarios, list) or not scenarios:
        raise ConfigError("scenarios must be a non-empty list of scenario names")
    for name in scenarios + [cfg["scenario"]]:
        if not isinstance(name, str) or name not in SCENARIOS:
            raise ConfigError(f"unknown scenario {name!r}")
    _check_int(cfg["seed"], "seed", 0)
    if cfg["fd"]["scheme"] not in ("crank_nicolson", "backward_euler"):
        raise ConfigError(f"unknown FD scheme {cfg['fd']['scheme']!r}")


def _cell_from_config(cfg) -> CellSpec:
    cell = dict(cfg["cell"])
    shape = cell.pop("shape", CYLINDRICAL)
    if shape not in (CYLINDRICAL, POUCH):
        raise ConfigError(f"unknown cell shape {shape!r}")
    try:
        return CellSpec(shape=shape, **cell)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid cell spec: {exc}") from exc


def _cooling_from_config(cfg, spec: CellSpec, scenario=None) -> CoolingConfig:
    if cfg.get("cooling"):
        sides = {}
        for side in SIDES:
            entry = cfg["cooling"][side]
            sides[side] = SideCooling(float(entry["h"]), float(entry["T_inf"]))
        return CoolingConfig(scenario_name="custom", **sides)
    return scenario_cooling(scenario or cfg["scenario"], spec.shape,
                            T_inf=cfg["t_init_C"])


def _profile_from_config(cfg, spec: CellSpec):
    heat = cfg["heat"]
    kind = heat["kind"]
    if kind == "constant_q":
        return constant_profile(heat["q_W_per_m3"])
    if kind == "pulse_train":
        return pulse_train(heat.get("amplitude_W_per_m3", 1.5e5),
                           heat.get("period_s", 100.0),
                           heat.get("duty", 0.5),
                           cfg["horizon_s"],
                           heat.get("base_W_per_m3", 0.0))
    if kind == "random_drive":
        return random_drive(heat.get("peak_current_A", 90.0), cfg["horizon_s"],
                            cfg["seed"], heat.get("step_s", 1.0),
                            heat.get("internal_resistance_ohm", 2e-3),
                            heat.get("scale", 2.0))
    if kind == "csv":
        return ingest_drive_cycle(heat["path"])
    raise ConfigError(f"unknown heat profile kind {kind!r}")


def _q_series(cfg, spec: CellSpec, dt: float) -> np.ndarray:
    profile = _profile_from_config(cfg, spec).to_volumetric(cell_volume(spec))
    return resample_profile(profile, dt, cfg["horizon_s"])


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_summary(out_dir: Path, cfg, payload):
    digest = hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()).hexdigest()
    summary = {
        "provenance": {
            "config_sha256": digest,
            "seed": cfg["seed"],
            "versions": {"celltherm": __version__, "numpy": np.__version__},
        },
    }
    summary.update(payload)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _trace_rows(result):
    for i, t in enumerate(result.times):
        yield (t, result.outputs[i, 0], result.outputs[i, 1],
               result.outputs[i, 2], result.outputs[i, 3])


_TRACE_HEADER = ["t_s", "T_surface_C", "T_core_C", "T_top_C", "T_bottom_C"]
_METRIC_HEADER = ["t_s", "T_mean_C", "T_max_C", "T_min_C", "dT_C",
                  "dTr_max_K_per_m", "dTz_max_K_per_m", "dTr_mean_K_per_m",
                  "dTz_mean_K_per_m"]


def _metric_rows(result):
    for i, t in enumerate(result.metrics_times):
        yield (t, result.T_mean[i], result.T_max[i], result.T_min[i],
               result.dT[i], result.dTr_max[i], result.dTz_max[i],
               result.dTr_mean[i], result.dTz_mean[i])


def _order_model(spec, cooling, order):
    root = int(round(math.sqrt(order)))
    return assemble(spec, cooling, root, root)


def _run_order(spec, cooling, order, cfg, q_series):
    """Assemble the model of one order and return its run over the
    configured horizon as a callable of the metrics stride, so that timing
    leaves assembly out and several runs share one model."""
    model = _order_model(spec, cooling, order)
    u = boundary_input_from_cooling(cooling).as_vector(spec.shape)
    x0 = project_initial_state(model, cfg["t_init_C"], u)
    grid = (cfg["grid"]["n_r"], cfg["grid"]["n_z"])
    return lambda metrics_stride: run(
        model, x0, u, q_series, cfg["dt_s"], cfg["horizon_s"], grid_shape=grid,
        metrics_stride=metrics_stride)


def cmd_simulate(cfg, out_dir: Path):
    spec = _cell_from_config(cfg)
    cooling = _cooling_from_config(cfg, spec)
    q_series = _q_series(cfg, spec, cfg["dt_s"])
    for order in cfg["orders"]:
        result = _run_order(spec, cooling, order, cfg, q_series)(
            cfg["metrics_stride"])
        write_csv(out_dir / f"trace_O{order}.csv", _TRACE_HEADER, _trace_rows(result))
        write_csv(out_dir / f"metrics_O{order}.csv", _METRIC_HEADER, _metric_rows(result))
    write_summary(out_dir, cfg, {
        "command": "simulate", "orders": cfg["orders"],
        "scenario": cooling.scenario_name,
    })
    return 0


def _fd_reference(cfg, spec, cooling, q_series_fd, stride):
    fd_cfg = FdConfig(cfg["fd"]["n_r"], cfg["fd"]["n_z"], cfg["fd"]["dt_s"],
                      cfg["fd"]["scheme"])
    return fd_solve(spec, cooling, None, q_series_fd, fd_cfg,
                    T_init=cfg["t_init_C"], horizon=cfg["horizon_s"],
                    metrics_stride=stride)


def _subsample(fd_times, fd_values, times):
    idx = np.searchsorted(fd_times, times)
    idx = np.clip(idx, 0, len(fd_times) - 1)
    return fd_values[idx]


def _errors_vs_fd(fd, times, **series):
    """Max |series - FD| per named metric, the FD metric sampled at times."""
    return {m: float(np.abs(x - _subsample(fd.metrics_times, getattr(fd, m),
                                           times)).max())
            for m, x in series.items()}


def cmd_validate(cfg, out_dir: Path):
    spec = _cell_from_config(cfg)
    rows = []
    per_scenario = {}
    for name in cfg["scenarios"]:
        cooling = _cooling_from_config(cfg, spec, scenario=name)
        q_fd = _q_series(cfg, spec, cfg["fd"]["dt_s"])
        fd = _fd_reference(cfg, spec, cooling, q_fd, stride=_NO_METRICS)
        q_series = _q_series(cfg, spec, cfg["dt_s"])
        errors = {}
        for order in cfg["orders"]:
            result = _run_order(spec, cooling, order, cfg, q_series)(_NO_METRICS)
            ref = _subsample(fd.times, fd.outputs, result.times)
            err = float(np.abs(result.outputs - ref).max())
            rows.append((name, order, err))
            errors[str(order)] = err
        per_scenario[name] = errors
    write_csv(out_dir / "errors.csv",
              ["scenario", "order", "max_abs_output_error_C"], rows)
    write_summary(out_dir, cfg, {
        "command": "validate", "max_abs_output_error_C": per_scenario,
        "fd": cfg["fd"],
    })
    return 0


def cmd_compare_tec(cfg, out_dir: Path):
    spec = _cell_from_config(cfg)
    if not spec.is_cylindrical:
        raise UnsupportedShapeError("compare-tec requires a cylindrical cell")
    cooling = _cooling_from_config(cfg, spec)
    vol = cell_volume(spec)
    dt, horizon = cfg["dt_s"], cfg["horizon_s"]
    q_series = _q_series(cfg, spec, dt)
    q_fd = _q_series(cfg, spec, cfg["fd"]["dt_s"])

    tec_cfg = cfg["tec"]
    tec = TecModel(tec_cfg["C_c"], tec_cfg["C_s"], tec_cfg["R_c"],
                   tec_cfg["R_u"], tec_cfg["T_inf_C"])
    runs = {order: _run_order(spec, cooling, order, cfg, q_series)
            for order in cfg["orders"]}

    # Timed before the FD reference: the millisecond-scale timed runs are
    # slowed by heavy numerical work just before them (a threaded BLAS call
    # leaves spinning helper threads behind for about 0.15 s).
    timing_summary = None
    if cfg["timing"]["enabled"]:
        entries = [("TEC", lambda: tec_run(tec, q_series * vol, dt, horizon,
                                           T0=cfg["t_init_C"]))]
        entries += [(f"O{order}", functools.partial(runs[order], _NO_METRICS))
                    for order in cfg["orders"]]
        table = timing_harness(entries, cfg["timing"]["repetitions"])
        by_name = {row["model"]: row["mean_ms"] for row in table}
        lines = ["model  mean_ms"]
        lines += [f"{row['model']}  {row['mean_ms']:.3f}" for row in table]
        first = f"O{cfg['orders'][0]}"
        if "TEC" in by_name and first in by_name:
            ratio = 100.0 * (1.0 - by_name[first] / by_name["TEC"])
            lines.append(f"# measured {first} vs TEC time reduction: {ratio:.1f}%"
                         f" (reference figure: {REFERENCE_TIME_REDUCTION_PCT}%)")
        (out_dir / "timing.txt").parent.mkdir(parents=True, exist_ok=True)
        (out_dir / "timing.txt").write_text("\n".join(lines) + "\n")
        timing_summary = "timing.txt"

    fd = _fd_reference(cfg, spec, cooling, q_fd, stride=max(
        1, int(round(dt / cfg["fd"]["dt_s"]))))
    fd_t = fd.metrics_times
    write_csv(out_dir / "trace_FD.csv",
              ["t_s", "T_mean_C", "T_max_C", "dTr_max_K_per_m"],
              zip(fd_t, _subsample(fd.metrics_times, fd.T_mean, fd_t),
                  fd.T_max, fd.dTr_max))

    times, t_c, t_s = tec_run(tec, q_series * vol, dt, horizon,
                              T0=cfg["t_init_C"])
    tec_mean, tec_grad = tec_metrics(t_c, t_s, spec)
    write_csv(out_dir / "trace_TEC.csv",
              ["t_s", "T_mean_C", "T_max_C", "dTr_max_K_per_m"],
              zip(times, tec_mean, t_c, tec_grad))

    errors = {"TEC": _errors_vs_fd(fd, times, T_mean=tec_mean, T_max=t_c,
                                   dTr_max=tec_grad)}

    for order in cfg["orders"]:
        result = runs[order](cfg["metrics_stride"])
        write_csv(out_dir / f"trace_O{order}.csv",
                  ["t_s", "T_mean_C", "T_max_C", "dTr_max_K_per_m"],
                  zip(result.metrics_times, result.T_mean, result.T_max,
                      result.dTr_max))
        errors[f"O{order}"] = _errors_vs_fd(
            fd, result.metrics_times, T_mean=result.T_mean, T_max=result.T_max,
            dTr_max=result.dTr_max)

    write_summary(out_dir, cfg, {
        "command": "compare-tec",
        "max_abs_error_vs_fd": errors,
        "timing_report": timing_summary,
    })
    return 0


_SCENARIO_METRICS = ("T_mean", "T_max", "dTr_max", "dTz_max", "dT")


def _scenario_point(spec, cfg, name, q_series):
    cooling = scenario_cooling(name, spec.shape, T_inf=cfg["t_init_C"])
    result = _run_order(spec, cooling, cfg["orders"][0], cfg, q_series)(
        cfg["metrics_stride"])
    merits = {m: float(getattr(result, m).max()) for m in _SCENARIO_METRICS}
    return result, merits


def cmd_scenarios(cfg, out_dir: Path):
    spec = _cell_from_config(cfg)
    if not spec.is_cylindrical:
        raise UnsupportedShapeError("the five-scenario study targets cylindrical cells")
    q_series = _q_series(cfg, spec, cfg["dt_s"])
    table = []
    merits_by_name = {}
    for name in SCENARIOS:
        result, merits = _scenario_point(spec, cfg, name, q_series)
        write_csv(out_dir / f"metrics_{name}.csv", _METRIC_HEADER,
                  _metric_rows(result))
        table.append((name, merits["T_mean"], merits["T_max"],
                      merits["dTr_max"], merits["dTz_max"], merits["dT"]))
        merits_by_name[name] = merits
    write_csv(out_dir / "merits.csv",
              ["scenario", "T_mean_C", "T_max_C", "dTr_max_K_per_m",
               "dTz_max_K_per_m", "dT_C"], table)
    write_summary(out_dir, cfg, {
        "command": "scenarios", "order": cfg["orders"][0],
        "merits": merits_by_name,
    })
    return 0


_CONTROL_HEADER = ["t_s", "T_mean_C", "T_hat_mean_C", "u_s_W_per_m2",
                   "u_t_W_per_m2", "u_b_W_per_m2", "dTr_mean_K_per_m",
                   "dTz_mean_K_per_m"]


def _control_point(args):
    model, cfg, name, c_rate, q_series = args
    ctl = cfg["control"]
    trace = closed_loop_run(
        model, name, ctl["setpoint_C"], q_series * c_rate, cfg["dt_s"],
        cfg["horizon_s"], gains=(ctl["kp"], ctl["ki"]),
        limits=tuple(ctl["limits_C"]), T_init=cfg["t_init_C"],
        grid_shape=(cfg["grid"]["n_r"], cfg["grid"]["n_z"]))
    return name, c_rate, trace


def cmd_control(cfg, out_dir: Path):
    spec = _cell_from_config(cfg)
    q_series = _q_series(cfg, spec, cfg["dt_s"])
    order = cfg["control"]["estimator_order"] or cfg["orders"][0]
    # one model per scenario, shared by all its points as plant and estimator
    models = {}
    for name in cfg["scenarios"]:
        cooling = scenario_cooling(name, spec.shape, T_inf=cfg["t_init_C"])
        models[name] = _order_model(spec, cooling, order)
    points = [(models[name], cfg, name, c, q_series)
              for name in cfg["scenarios"] for c in cfg["control"]["c_rates"]]
    with concurrent.futures.ThreadPoolExecutor(
            max_workers=min(8, len(points))) as pool:
        results = list(pool.map(_control_point, points))

    summary_rows = []
    gradient_summary = {}
    for name, c_rate, trace in results:
        label = f"{name}_{c_rate:g}C"
        side_idx = {s: i for i, s in enumerate(trace.sides)}
        rows = []
        for i, t in enumerate(trace.times):
            rows.append((
                t, trace.T_mean[i], trace.T_hat_mean[i],
                trace.u[i, side_idx["surface"]],
                trace.u[i, side_idx["top"]],
                trace.u[i, side_idx["bottom"]],
                trace.dTr_mean[i], trace.dTz_mean[i]))
        write_csv(out_dir / f"trace_{label}.csv", _CONTROL_HEADER, rows)
        tail = slice(int(0.8 * len(trace.times)), None)
        row = {
            "dTr_mean_tail_K_per_m": float(trace.dTr_mean[tail].mean()),
            "dTz_mean_tail_K_per_m": float(trace.dTz_mean[tail].mean()),
            "tracking_error_tail_C": float(
                np.abs(trace.T_mean[tail] - trace.setpoint).max()),
        }
        gradient_summary[label] = row
        summary_rows.append((name, c_rate, row["dTr_mean_tail_K_per_m"],
                             row["dTz_mean_tail_K_per_m"],
                             row["tracking_error_tail_C"]))
    write_csv(out_dir / "gradients.csv",
              ["scenario", "c_rate", "dTr_mean_tail_K_per_m",
               "dTz_mean_tail_K_per_m", "tracking_error_tail_C"], summary_rows)
    write_summary(out_dir, cfg, {
        "command": "control", "setpoint_C": cfg["control"]["setpoint_C"],
        "tails": gradient_summary,
    })
    return 0


MARKET_CELL_RATIOS = {"18650": 7.22, "26650": 5.42, "21700": 6.67, "4680": 3.48}


def solve_constant_volume(volume: float, ratio: float, r_in: float):
    """(L, R_out) with L/R_out = ratio and pi (R_out^2 - R_in^2) L = volume."""
    # ratio * R^3 - ratio * R_in^2 * R - volume/pi = 0 has one root > R_in
    coeffs = [ratio, 0.0, -ratio * r_in**2, -volume / math.pi]
    roots = np.roots(coeffs)
    real = [float(r.real) for r in roots if abs(r.imag) < 1e-9 * max(1.0, abs(r))]
    candidates = [r for r in real if r > r_in]
    if not candidates:
        return None
    r_out = max(candidates)
    return ratio * r_out, r_out


def _sweep_point(spec, cfg, ratio, q_series):
    """Merits of the constant-volume cell with L/R_out = ratio, or None if
    no such cell exists."""
    base_volume = cell_volume(spec)
    r_in = cfg["sweep"]["R_in_m"]
    solved = solve_constant_volume(base_volume, ratio, r_in)
    if solved is None:
        return None
    length, r_out = solved
    try:
        cell = CellSpec(shape=CYLINDRICAL, L=length, R_out=r_out, R_in=r_in,
                        rho=spec.rho, cp=spec.cp, k_r=spec.k_r, k_z=spec.k_z)
    except ValueError:
        return None
    cooling = scenario_cooling(cfg["scenario"], cell.shape, T_inf=cfg["t_init_C"])
    result = _run_order(cell, cooling, cfg["orders"][0], cfg, q_series)(
        cfg["metrics_stride"])
    return {
        "L_m": length, "R_out_m": r_out, "volume_m3": cell_volume(cell),
        "T_mean": float(result.T_mean.max()),
        "dTr_max": float(result.dTr_max.max()),
        "dTz_max": float(result.dTz_max.max()),
    }


def cmd_sweep_geometry(cfg, out_dir: Path):
    spec = _cell_from_config(cfg)
    if not spec.is_cylindrical:
        raise UnsupportedShapeError("the geometry sweep targets cylindrical cells")
    q_series = _q_series(cfg, spec, cfg["dt_s"])
    rows = []
    skipped = []
    merits_by_ratio = {}
    for ratio in map(float, cfg["sweep"]["ratios"]):
        merits = _sweep_point(spec, cfg, ratio, q_series)
        if merits is None:
            skipped.append(ratio)
            print(f"warning: ratio {ratio} yields R_out <= R_in; skipped",
                  file=sys.stderr)
            continue
        rows.append((ratio, merits["L_m"], merits["R_out_m"],
                     merits["volume_m3"], merits["T_mean"], merits["dTr_max"],
                     merits["dTz_max"]))
        merits_by_ratio[f"{ratio:g}"] = merits
    write_csv(out_dir / "sweep.csv",
              ["L_over_R_out", "L_m", "R_out_m", "volume_m3", "T_mean_C",
               "dTr_max_K_per_m", "dTz_max_K_per_m"], rows)
    write_summary(out_dir, cfg, {
        "command": "sweep-geometry", "scenario": cfg["scenario"],
        "market_cell_ratios": MARKET_CELL_RATIOS,
        "skipped_ratios": skipped, "merits": merits_by_ratio,
    })
    return 0


COMMANDS = {
    "validate": cmd_validate,
    "compare-tec": cmd_compare_tec,
    "scenarios": cmd_scenarios,
    "control": cmd_control,
    "sweep-geometry": cmd_sweep_geometry,
    "simulate": cmd_simulate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="celltherm",
        description="Reduced-order battery-cell thermal modelling toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", type=str, default=None,
                         help="JSON run configuration")
        cmd.add_argument("--out", type=str, default=None,
                         help="output directory (default from config)")
        cmd.add_argument("--seed", type=int, default=None,
                         help="seed for synthetic profiles")
        cmd.add_argument("--orders", type=str, default=None,
                         help="comma-separated model orders, e.g. 1,4,9")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = {"seed": args.seed, "out_dir": args.out}
        if args.orders is not None:
            try:
                overrides["orders"] = [int(v) for v in args.orders.split(",") if v]
            except ValueError:
                raise ConfigError(f"cannot parse --orders {args.orders!r}") from None
        cfg = load_config(args.config, overrides)
        out_dir = Path(cfg["out_dir"]) / args.command
        return COMMANDS[args.command](cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedShapeError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 4
    except (NumericalError, ModelError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
