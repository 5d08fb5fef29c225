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

The ``SCHEMA`` table is the config schema's one home: ``DEFAULTS`` and every
key, type and range check derive from it. Grid sizes and step counts have no
upper bound; a run too large for numpy or for memory fails there.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import copy
import functools
import hashlib
import json
import math
import sys
from dataclasses import fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import PAPER_CELL, __version__
from .core import (
    CYLINDRICAL,
    POUCH,
    SCENARIOS,
    SIDES,
    CellSpec,
    CoolingConfig,
    SideCooling,
    cell_volume,
    constant_profile,
    resample_profile,
    scenario_cooling,
)
from .control import DEFAULT_GAINS, DEFAULT_LIMITS, closed_loop_run
from .exceptions import ConfigError, ModelError, NumericalError, UnsupportedShapeError
from .galerkin import assemble, assemble_library, project_initial_state
from .profiles import ingest_drive_cycle, pulse_train, random_drive
from .reference import (
    REFERENCE_TIME_REDUCTION_PCT,
    FdConfig,
    TecModel,
    fd_solve,
    step_ratio,
    tec_metrics,
    tec_run,
    timing_harness,
)
from .simulate import DEFAULT_GRID, MetricsRecord, run

SCHEMA_VERSION = 1

_REQUIRED = object()   # no default: the key must be given
_OPTIONAL = object()   # no default: the key may be left out

_TYPES = {
    "number": lambda v: (isinstance(v, (int, float)) and not isinstance(v, bool)
                         and math.isfinite(v)),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "array": lambda v: isinstance(v, list),
}


class _Leaf(NamedTuple):
    """One config value: its default, its JSON type, the test a value of
    that type must pass, and a phrase saying what the value must be."""

    default: object
    type: str
    must: str
    test: Callable = lambda value: True

    def accepts(self, value) -> bool:
        return _TYPES[self.type](value) and self.test(value)


class _Nullable(NamedTuple):
    """null, the default, or a value of the wrapped node."""

    node: object
    default: object = None


class _ByKind(NamedTuple):
    """An object whose ``kind`` names its leaves. Leaves left out stay out of
    the loaded config; ``_profile_from_config`` reads their defaults from
    the table."""

    default: dict
    kinds: dict


def _real(default=_REQUIRED):
    return _Leaf(default, "number", "a finite number")


def _positive(default=_REQUIRED):
    return _Leaf(default, "number", "a finite positive number", lambda v: v > 0)


def _count(default, least):
    return _Leaf(default, "integer", f"an integer >= {least}", lambda v: v >= least)


def _one_of(default, names):
    return _Leaf(default, "string", f"one of {', '.join(names)}", lambda v: v in names)


def _list_of(default, item: _Leaf):
    return _Leaf(default, "array", f"a non-empty list, each {item.must}",
                 lambda v: len(v) > 0 and all(map(item.accepts, v)))


_FD, _TEC = FdConfig(), TecModel()   # the library's defaults
_ORDER = _Leaf(_REQUIRED, "integer", "a positive perfect-square integer (O = N^2)",
               lambda o: o >= 1 and math.isqrt(o) ** 2 == o)

SCHEMA = {
    "schema_version": _Leaf(SCHEMA_VERSION, "integer", f"{SCHEMA_VERSION}",
                            lambda v: v == SCHEMA_VERSION),
    "cell": {
        "shape": _one_of(PAPER_CELL.shape, (CYLINDRICAL, POUCH)),
        "L": _positive(PAPER_CELL.L), "R_out": _real(PAPER_CELL.R_out),
        "R_in": _real(PAPER_CELL.R_in), "D": _real(_OPTIONAL),
        "rho": _positive(PAPER_CELL.rho), "cp": _positive(PAPER_CELL.cp),
        "k_r": _positive(PAPER_CELL.k_r), "k_z": _positive(PAPER_CELL.k_z),
    },
    "scenario": _one_of("SC", tuple(SCENARIOS)),
    "cooling": _Nullable({side: {
        "h": _Leaf(_REQUIRED, "number", "a finite number >= 0", lambda v: v >= 0),
        "T_inf": _real(),
    } for side in SIDES}),
    "scenarios": _list_of(["SC"], _one_of(_REQUIRED, tuple(SCENARIOS))),
    "orders": _list_of([16], _ORDER),
    "dt_s": _positive(1.0),
    "horizon_s": _positive(600.0),
    "t_init_C": _real(15.0),
    "seed": _count(0, 0),
    "out_dir": _Leaf("out", "string", "a directory path"),
    "metrics_stride": _count(1, 1),
    # the least grids FieldEvaluator and FdConfig accept
    "grid": {"n_r": _count(DEFAULT_GRID[0], 2), "n_z": _count(DEFAULT_GRID[1], 2)},
    "heat": _ByKind({"kind": "constant_q", "q_W_per_m3": 1e5}, {
        "constant_q": {"q_W_per_m3": _real()},
        "pulse_train": {
            "amplitude_W_per_m3": _real(1.5e5), "period_s": _positive(100.0),
            "duty": _Leaf(0.5, "number", "a number in (0, 1)", lambda v: 0 < v < 1),
            "base_W_per_m3": _real(0.0)},
        "random_drive": {
            "peak_current_A": _real(90.0), "internal_resistance_ohm": _real(2e-3),
            "scale": _real(2.0), "step_s": _positive(1.0)},
        "csv": {"path": _Leaf(_REQUIRED, "string", "the path of an existing CSV file",
                              lambda v: Path(v).is_file())},
    }),
    "fd": {"n_r": _count(_FD.n_r, 3), "n_z": _count(_FD.n_z, 3), "dt_s": _positive(_FD.dt),
           "scheme": _one_of(_FD.scheme, ("crank_nicolson", "backward_euler"))},
    "tec": {"C_c": _positive(_TEC.C_c), "C_s": _positive(_TEC.C_s), "R_c": _positive(_TEC.R_c),
            "R_u": _positive(_TEC.R_u), "T_inf_C": _real(_TEC.T_inf)},
    "control": {
        "setpoint_C": _real(20.0), "kp": _real(DEFAULT_GAINS[0]), "ki": _real(DEFAULT_GAINS[1]),
        "limits_C": _Leaf(list(DEFAULT_LIMITS), "array",
                          "[lo, hi] of finite numbers, lo <= hi",
                          lambda v: (len(v) == 2 and all(map(_TYPES["number"], v))
                                     and v[0] <= v[1])),
        "c_rates": _list_of([1.0, 2.0, 3.0, 4.0], _real()),
        "estimator_order": _Nullable(_ORDER),
    },
    "sweep": {"ratios": _list_of([2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], _positive()),
              "R_in_m": _positive(0.004)},
    "timing": {"enabled": _Leaf(True, "boolean", "true or false"),
               "repetitions": _count(5, 3)},
}


def _walk(node, value, where):
    """Check ``value`` against a schema node; return it with the defaults of
    the keys it leaves out filled in."""
    if isinstance(node, _Leaf):
        if not node.accepts(value):
            raise ConfigError(f"{where} must be {node.must}, not {value!r}")
        return value
    if isinstance(node, _Nullable):
        return None if value is None else _walk(node.node, value, where)
    if not isinstance(value, dict):
        raise ConfigError(f"config section {where!r} must be an object")
    if isinstance(node, _ByKind):
        kind = _walk(_one_of(None, tuple(node.kinds)), value.get("kind"), f"{where}.kind")
        _walk(node.kinds[kind], {k: v for k, v in value.items() if k != "kind"}, where)
        return dict(value)
    unknown = set(value) - set(node)
    if unknown:
        raise ConfigError(f"unknown config key(s) {sorted(unknown)} in {where or 'top level'}")
    out = {}
    for key, child in node.items():
        path = f"{where}.{key}" if where else key
        if key in value or isinstance(child, dict):
            out[key] = _walk(child, value.get(key, {}), path)
        elif child.default is _REQUIRED:
            raise ConfigError(f"{path} is missing")
        elif child.default is not _OPTIONAL:
            out[key] = copy.deepcopy(child.default)
    return out


DEFAULTS = _walk(SCHEMA, {}, "")


def load_config(path=None, overrides=None) -> dict:
    """Load a JSON run configuration, check it against ``SCHEMA`` and fill
    in its defaults. ``overrides`` replace top-level keys unless None."""
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
    raw.update((k, v) for k, v in (overrides or {}).items() if v is not None)
    return _walk(SCHEMA, raw, "")


def _cell_from_config(cfg) -> CellSpec:
    try:
        return CellSpec(**cfg["cell"])
    except ValueError as exc:
        raise ConfigError(f"invalid cell spec: {exc}") from exc


def _cooling_from_config(cfg, spec: CellSpec) -> CoolingConfig:
    if cfg["cooling"] is not None:
        return CoolingConfig(scenario_name="custom", **{
            side: SideCooling(float(entry["h"]), float(entry["T_inf"]))
            for side, entry in cfg["cooling"].items()})
    return scenario_cooling(cfg["scenario"], spec.shape, T_inf=cfg["t_init_C"])


def _presets_only(cfg, command: str):
    """Reject a custom ``cooling`` block in a command that runs preset
    scenarios, which would drop it or run it under a preset's name."""
    if cfg["cooling"] is not None:
        raise ConfigError(f"{command} runs preset cooling scenarios and takes no custom "
                          "'cooling' (only simulate and compare-tec do)")


def _profile_from_config(cfg):
    kind = cfg["heat"]["kind"]
    heat = {key: cfg["heat"].get(key, leaf.default)
            for key, leaf in SCHEMA["heat"].kinds[kind].items()}
    if kind == "constant_q":
        return constant_profile(heat["q_W_per_m3"])
    if kind == "pulse_train":
        return pulse_train(heat["amplitude_W_per_m3"], heat["period_s"], heat["duty"],
                           cfg["horizon_s"], heat["base_W_per_m3"])
    if kind == "random_drive":
        return random_drive(heat["peak_current_A"], cfg["horizon_s"], cfg["seed"],
                            heat["step_s"], heat["internal_resistance_ohm"],
                            heat["scale"])
    try:
        return ingest_drive_cycle(heat["path"])
    except OSError as exc:
        raise ConfigError(f"cannot read heat.path {heat['path']!r}: {exc}") from exc


def _q_series(cfg, spec: CellSpec, dt: float) -> np.ndarray:
    profile = _profile_from_config(cfg).to_volumetric(cell_volume(spec))
    return resample_profile(profile, dt, cfg["horizon_s"])


def write_csv(path: Path, header, columns):
    """Write a table given as equal-length columns (arrays, lists or tuples),
    row by row: a float, numpy's included, as repr(float(v)), any other value
    as str(v). Each array is converted to Python values once (``tolist``), so
    a float64 column needs no per-value test."""
    def texts(column):
        if isinstance(column, np.ndarray):
            if column.dtype == float:
                return map(repr, column.tolist())
            column = column.tolist()
        return (repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                for v in column)

    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        rows = zip(*map(texts, columns), strict=True)
        fh.writelines(",".join(row) + "\n" for row in rows)


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


_TRACE_HEADER = ["t_s", "T_surface_C", "T_core_C", "T_top_C", "T_bottom_C"]
_METRIC_HEADER = ["t_s", "T_mean_C", "T_max_C", "T_min_C", "dT_C",
                  "dTr_max_K_per_m", "dTz_max_K_per_m", "dTr_mean_K_per_m",
                  "dTz_mean_K_per_m"]


def _metric_columns(result):
    return [result.metrics_times,
            *(getattr(result, f.name) for f in fields(MetricsRecord))]


def _order_size(order):
    root = int(round(math.sqrt(order)))
    return root, root


def _order_model(spec, cooling, order):
    return assemble(spec, cooling, *_order_size(order))


def _order_models(spec, cooling, orders):
    """The model of each order, by order, from one library of the cell and
    cooling."""
    library = assemble_library(spec, cooling, map(_order_size, orders))
    return {order: library[_order_size(order)] for order in orders}


def _runner(model, cfg, q_series, metric_names=None):
    """The model's run over the configured horizon, as a callable of the
    metrics stride (None: outputs only), so that timing leaves assembly out
    and several runs share one model. The runs take the metrics
    ``metric_names`` (None: all eight), the ones the command writes."""
    y0 = project_initial_state(model, cfg["t_init_C"])
    grid = (cfg["grid"]["n_r"], cfg["grid"]["n_z"])
    return lambda metrics_stride: run(
        model, y0, None, q_series, cfg["dt_s"], cfg["horizon_s"], grid_shape=grid,
        metrics_stride=metrics_stride, metric_names=metric_names)


def cmd_simulate(cfg, out_dir: Path):
    spec = _cell_from_config(cfg)
    cooling = _cooling_from_config(cfg, spec)
    q_series = _q_series(cfg, spec, cfg["dt_s"])
    models = _order_models(spec, cooling, cfg["orders"])
    for order in dict.fromkeys(cfg["orders"]):
        # each model, with its modes and field evaluator, is released after its
        # run: held together to the last run, they raised peak memory
        result = _runner(models.pop(order), cfg, q_series)(cfg["metrics_stride"])
        write_csv(out_dir / f"trace_O{order}.csv", _TRACE_HEADER,
                  [result.times, *result.outputs.T])
        write_csv(out_dir / f"metrics_O{order}.csv", _METRIC_HEADER,
                  _metric_columns(result))
    write_summary(out_dir, cfg, {
        "command": "simulate", "orders": cfg["orders"],
        "scenario": cooling.scenario_name,
    })
    return 0


def _fd_reference(cfg, spec, cooling, q_series_fd, metrics_stride, output_stride,
                  metric_names=None):
    fd_cfg = FdConfig(cfg["fd"]["n_r"], cfg["fd"]["n_z"], cfg["fd"]["dt_s"],
                      cfg["fd"]["scheme"])
    return fd_solve(spec, cooling, None, q_series_fd, fd_cfg,
                    T_init=cfg["t_init_C"], horizon=cfg["horizon_s"],
                    metrics_stride=metrics_stride, output_stride=output_stride,
                    metric_names=metric_names)


def _subsample(fd_times, fd_values, times):
    """FD values at the first FD time not before each of ``times``; an FD
    time short of one of ``times`` by round-off only (k dt_fd s against
    k s dt_fd) counts as that time."""
    slack = 1e-9 * (fd_times[1] - fd_times[0]) if len(fd_times) > 1 else 0.0
    idx = np.searchsorted(fd_times, np.asarray(times) - slack)
    idx = np.clip(idx, 0, len(fd_times) - 1)
    return fd_values[idx]


def _errors_vs_fd(fd, times, **series):
    """Max |series - FD| per named metric, the FD metric sampled at times."""
    return {m: float(np.abs(x - _subsample(fd.metrics_times, getattr(fd, m),
                                           times)).max())
            for m, x in series.items()}


def cmd_validate(cfg, out_dir: Path):
    """Max |model - FD| of the four mid-side outputs per scenario and order.

    Per scenario, one FD run and one model library (``assemble_library``)
    give every order. Both take outputs only (``metrics_stride=None``): no
    field is reconstructed, since no metric is written.
    """
    _presets_only(cfg, "validate")
    spec = _cell_from_config(cfg)
    # FD outputs only at the model's steps, when those fall on FD steps
    stride = step_ratio(cfg["dt_s"], cfg["fd"]["dt_s"]) or 1
    q_series = _q_series(cfg, spec, cfg["dt_s"])
    q_fd = _q_series(cfg, spec, cfg["fd"]["dt_s"])
    rows = []
    per_scenario = {}
    for name in cfg["scenarios"]:
        cooling = scenario_cooling(name, spec.shape, T_inf=cfg["t_init_C"])
        fd = _fd_reference(cfg, spec, cooling, q_fd, None, stride)
        models = _order_models(spec, cooling, cfg["orders"])
        errors = {}
        for order in cfg["orders"]:
            result = _runner(models[order], cfg, q_series)(None)
            ref = _subsample(fd.times, fd.outputs, result.times)
            err = float(np.abs(result.outputs - ref).max())
            rows.append((name, order, err))
            errors[str(order)] = err
        per_scenario[name] = errors
    write_csv(out_dir / "errors.csv",
              ["scenario", "order", "max_abs_output_error_C"], zip(*rows))
    write_summary(out_dir, cfg, {
        "command": "validate", "max_abs_output_error_C": per_scenario,
        "fd": cfg["fd"],
    })
    return 0


_COMPARE_HEADER = ["t_s", "T_mean_C", "T_max_C", "dTr_max_K_per_m"]
_COMPARE_METRICS = ("T_mean", "T_max", "dTr_max")   # the metrics of that header


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
    runs = {order: _runner(model, cfg, q_series, _COMPARE_METRICS)
            for order, model in _order_models(spec, cooling, cfg["orders"]).items()}

    # Timed before the FD reference: the millisecond-scale timed runs are
    # slowed by heavy numerical work just before them (a threaded BLAS call
    # leaves spinning helper threads behind for about 0.15 s). Each timed
    # callable discretizes, steps and forms outputs, and nothing else: the
    # model runs take no metric sample, as the TEC run takes none.
    timing_summary = None
    if cfg["timing"]["enabled"]:
        entries = [("TEC", lambda: tec_run(tec, q_series * vol, dt, horizon,
                                           T0=cfg["t_init_C"]))]
        entries += [(f"O{order}", functools.partial(runs[order], None))
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

    # FD metrics only at the model's steps, when those fall on FD steps
    stride = step_ratio(dt, cfg["fd"]["dt_s"]) or 1
    fd = _fd_reference(cfg, spec, cooling, q_fd, stride, stride, _COMPARE_METRICS)
    write_csv(out_dir / "trace_FD.csv", _COMPARE_HEADER,
              [fd.metrics_times, *(getattr(fd, m) for m in _COMPARE_METRICS)])

    times, t_c, t_s = tec_run(tec, q_series * vol, dt, horizon,
                              T0=cfg["t_init_C"])
    tec_mean, tec_grad = tec_metrics(t_c, t_s, spec)
    write_csv(out_dir / "trace_TEC.csv", _COMPARE_HEADER,
              [times, tec_mean, t_c, tec_grad])

    errors = {"TEC": _errors_vs_fd(fd, times, T_mean=tec_mean, T_max=t_c,
                                   dTr_max=tec_grad)}

    for order in cfg["orders"]:
        result = runs[order](cfg["metrics_stride"])
        write_csv(out_dir / f"trace_O{order}.csv", _COMPARE_HEADER,
                  [result.metrics_times, *(getattr(result, m) for m in _COMPARE_METRICS)])
        errors[f"O{order}"] = _errors_vs_fd(
            fd, result.metrics_times, **{m: getattr(result, m) for m in _COMPARE_METRICS})

    write_summary(out_dir, cfg, {
        "command": "compare-tec",
        "max_abs_error_vs_fd": errors,
        "timing_report": timing_summary,
    })
    return 0


_SCENARIO_METRICS = ("T_mean", "T_max", "dTr_max", "dTz_max", "dT")


def _scenario_point(spec, cfg, name, q_series):
    cooling = scenario_cooling(name, spec.shape, T_inf=cfg["t_init_C"])
    result = _runner(_order_model(spec, cooling, cfg["orders"][0]), cfg, q_series)(
        cfg["metrics_stride"])
    merits = {m: float(getattr(result, m).max()) for m in _SCENARIO_METRICS}
    return result, merits


def cmd_scenarios(cfg, out_dir: Path):
    _presets_only(cfg, "scenarios")
    spec = _cell_from_config(cfg)
    if not spec.is_cylindrical:
        raise UnsupportedShapeError("the five-scenario study targets cylindrical cells")
    q_series = _q_series(cfg, spec, cfg["dt_s"])
    table = []
    merits_by_name = {}
    for name in SCENARIOS:
        result, merits = _scenario_point(spec, cfg, name, q_series)
        write_csv(out_dir / f"metrics_{name}.csv", _METRIC_HEADER,
                  _metric_columns(result))
        table.append((name, *merits.values()))
        merits_by_name[name] = merits
    write_csv(out_dir / "merits.csv",
              ["scenario", "T_mean_C", "T_max_C", "dTr_max_K_per_m",
               "dTz_max_K_per_m", "dT_C"], zip(*table))
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
    _presets_only(cfg, "control")
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
        u = trace.u[:, [trace.sides.index(s) for s in ("surface", "top", "bottom")]]
        write_csv(out_dir / f"trace_{label}.csv", _CONTROL_HEADER,
                  [trace.times, trace.T_mean, trace.T_hat_mean, *u.T, trace.dTr_mean,
                   trace.dTz_mean])
        tail = slice(int(0.8 * len(trace.times)), None)
        row = {
            "dTr_mean_tail_K_per_m": float(trace.dTr_mean[tail].mean()),
            "dTz_mean_tail_K_per_m": float(trace.dTz_mean[tail].mean()),
            "tracking_error_tail_C": float(
                np.abs(trace.T_mean[tail] - trace.setpoint).max()),
        }
        gradient_summary[label] = row
        summary_rows.append((name, c_rate, *row.values()))
    write_csv(out_dir / "gradients.csv",
              ["scenario", "c_rate", "dTr_mean_tail_K_per_m",
               "dTz_mean_tail_K_per_m", "tracking_error_tail_C"], zip(*summary_rows))
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


_SWEEP_METRICS = ("T_mean", "dTr_max", "dTz_max")   # their time maxima are written


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
    result = _runner(_order_model(cell, cooling, cfg["orders"][0]), cfg, q_series,
                     _SWEEP_METRICS)(cfg["metrics_stride"])
    return {"L_m": length, "R_out_m": r_out, "volume_m3": cell_volume(cell),
            **{m: float(getattr(result, m).max()) for m in _SWEEP_METRICS}}


def cmd_sweep_geometry(cfg, out_dir: Path):
    _presets_only(cfg, "sweep-geometry")
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
        rows.append((ratio, *merits.values()))
        merits_by_ratio[f"{ratio:g}"] = merits
    write_csv(out_dir / "sweep.csv",
              ["L_over_R_out", "L_m", "R_out_m", "volume_m3", "T_mean_C",
               "dTr_max_K_per_m", "dTz_max_K_per_m"], zip(*rows))
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
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("--config", type=str, default=None,
                        help="JSON run configuration")
    parser.add_argument("--out", type=str, default=None,
                        help="output directory (default from config)")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for synthetic profiles")
    parser.add_argument("--orders", type=str, default=None,
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
