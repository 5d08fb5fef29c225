"""Benchmark of the celltherm CLI on three workloads.

Usage, from the root of a checkout:

    python3 bench/run_bench.py --workload study --seed 1 --seconds 30 --trace 0

The program is driven in-process through ``celltherm.cli.main`` from
``src/``, one command at a time. The run repeats cycles of one set-up
measurement (a fresh interpreter importing celltherm) and one repetition of
the workload's commands for about ``--seconds``, and reports medians over
the cycles; the first repetition is a warm-up and is not timed. Every
command's outputs are checked (see ``workloads.py``); a job fails on a
nonzero exit, an exception, or a failed check.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` adds one traced
repetition after the untraced ones and prints the per-layer metrics, the
command times of the untraced repetitions and the tracing overhead, and
writes the traced spans to ``.bench_work/spans_<workload>.csv``. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, layer_metrics, quad_check_share, write_spans
from workloads import WORKLOADS, CheckError, check_job

MIN_REPS = 3

# A fresh interpreter imports celltherm and loads and validates each config.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import celltherm.cli as c; "
    "[c.load_config(p) for p in sys.argv[2:]]"
)

COMMAND_LABELS = tuple(dict.fromkeys(job.label for workload in WORKLOADS.values()
                                     for job in workload.jobs))

# Criterion 11 asks that the O=1 / TEC time ratio lie in this range.
CRITERION_11_RANGE = (0.1, 10.0)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=str, default=None,
                        help="also write every measured figure to this JSON file")
    return parser.parse_args(argv)


def import_cli(root: Path):
    """Import ``celltherm.cli`` from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "celltherm" / "cli.py").is_file():
        raise SystemExit(f"error: no celltherm sources under {src}; "
                         "run from the root of a checkout")
    sys.path.insert(0, str(src))
    import celltherm.cli as cli
    if Path(cli.__file__).resolve().parent != (src / "celltherm").resolve():
        raise SystemExit(f"error: imported celltherm from {cli.__file__}, not {src}")
    return cli


def measure_setup(root: Path, config_paths) -> float:
    """Wall time of a fresh process that imports celltherm and loads the
    workload's configs."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(root / "src"),
                    *map(str, config_paths)], cwd=root, check=True, timeout=60)
    return time.perf_counter() - t0


class Rep:
    """Timings and outcome of one repetition of a workload."""

    def __init__(self):
        self.times = {}
        self.failed = 0
        self.figures = {}

    @property
    def wall(self):
        return sum(self.times.values())


def run_rep(cli, workload, cfg, config_path: Path, out: Path, seed: int) -> Rep:
    rep = Rep()
    shutil.rmtree(out, ignore_errors=True)
    for job in workload.jobs:
        argv = [job.command, "--config", str(config_path), "--out", str(out),
                "--seed", str(seed), *job.extra]
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = -1
        rep.times[job.label] = time.perf_counter() - t0
        if code != 0:
            print(f"job {job.command} exited with {code}", file=sys.stderr)
            rep.failed += 1
            continue
        try:
            rep.figures.update(check_job(out / job.command, cfg, job))
        except CheckError as exc:
            print(f"job {job.command} failed its check: {exc}", file=sys.stderr)
            rep.failed += 1
    return rep


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(args, root: Path, work: Path) -> dict:
    cli = import_cli(root)
    workload = WORKLOADS[args.workload]
    config_path = work / f"{workload.name}.json"
    config_path.write_text(json.dumps(workload.config, indent=2) + "\n")
    cfg = cli.load_config(str(config_path), {"seed": args.seed})
    out = work / "out"

    # Each cycle is one set-up (untraced runs only) and one repetition, so
    # that set-up and workload are sampled over the same window. No cycle
    # starts that would likely end after --seconds, once MIN_REPS are done.
    setups, reps = [], []
    t0 = time.perf_counter()
    while True:
        c0 = time.perf_counter()
        if args.trace == 0:
            setups.append(measure_setup(root, [config_path]))
        reps.append(run_rep(cli, workload, cfg, config_path, out, args.seed))
        now = time.perf_counter()
        if len(reps) >= MIN_REPS and now - t0 + (now - c0) > args.seconds:
            break

    attempted = len(reps) * len(workload.jobs)
    failed = sum(r.failed for r in reps)
    # The first repetition warms up the process (first calls into BLAS and
    # LAPACK, allocator growth); it is checked but not timed.
    timed = reps[1:]
    wall_s = statistics.median(r.wall for r in timed)
    command_s = {label: statistics.median(r.times[label] for r in timed)
                 for label in timed[0].times}
    ratios = [r.figures["o1_tec_ratio"] for r in timed if "o1_tec_ratio" in r.figures]
    result = {
        "workload": workload.name, "reps": len(timed), "attempted": attempted,
        "failed": failed, "wall_s": wall_s, "command_s": command_s,
        "setup_s": statistics.median(setups) if setups else None,
        "peak_rss_mb": peak_rss_mb(), "max_err_C": reps[0].figures.get("max_err_C"),
        "o1_tec_ratio": statistics.median(ratios) if ratios else None,
        "rep_times": [r.times for r in timed],
    }

    if args.trace == 1:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_rep(cli, workload, cfg, config_path, out, args.seed)
        finally:
            tracer.uninstall()
        attempted += len(workload.jobs)
        failed += traced.failed
        result.update(attempted=attempted, failed=failed)
        result["layers"] = layer_metrics(tracer.spans)
        result["traced_wall_s"] = traced.wall
        result["quad_check_share"] = quad_check_share(tracer.spans)
        result["spans_csv"] = f".bench_work/spans_{workload.name}.csv"
        write_spans(tracer.spans, root / result["spans_csv"])
    return result


# unit of each reported metric
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_s", "s"), ("_C", "degC"),
                         (".bytes", "bytes"), ("_margin", "decades")):
        if name.endswith(suffix):
            return unit
    if name.endswith((".calls", ".steps", ".rows", ".spans")):
        return "count"
    return "ratio"


def o1_tec_margin(ratio) -> float:
    """Decades from ``ratio`` to the nearer end of criterion 11's range:
    positive inside it, negative outside."""
    lo, hi = CRITERION_11_RANGE
    return min(math.log10(ratio / lo), math.log10(hi / ratio))


def traced_metrics(result) -> dict:
    """The per-layer metrics of a traced run, plus the untraced command
    times, accuracy and criterion-11 margin, which not every workload has
    (0 where absent)."""
    layers = dict(result["layers"])
    ratio = result["o1_tec_ratio"]
    layers["reference.o1_tec_margin"] = o1_tec_margin(ratio) if ratio else 0.0
    layers["trace.wall_s"] = result["traced_wall_s"]
    layers["trace.overhead_s"] = result["traced_wall_s"] - result["wall_s"]
    for label in COMMAND_LABELS:
        layers[f"cli.{label}_s"] = result["command_s"].get(label, 0.0)
    layers["accuracy.max_err_C"] = result["max_err_C"] or 0.0
    return layers


def report(args, result) -> dict:
    """Print the human-readable table; return the metrics of the JSON line."""
    fail_frac = result["failed"] / result["attempted"]
    rows = [("fail_frac", fail_frac, "1")]
    if result["setup_s"] is not None:
        rows.append(("setup_s", result["setup_s"], "s"))
    rows.append(("wall_s", result["wall_s"], "s"))
    rows += [(f"{label}_s", value, "s") for label, value in result["command_s"].items()]
    if result["max_err_C"] is not None:
        rows.append(("max_err_C", result["max_err_C"], "degC"))
    if result["o1_tec_ratio"] is not None:
        rows.append(("reference.o1_tec_ratio", result["o1_tec_ratio"], "1"))
    rows.append(("peak_rss_mb", result["peak_rss_mb"], "MB"))
    print(f"# workload {result['workload']}, seed {args.seed}, "
          f"{result['reps']} repetitions, medians")
    for name, value, unit in rows:
        print(f"{name:<36} {value:>16.6f} {unit}")
    if result["o1_tec_ratio"] is not None:
        lo, hi = CRITERION_11_RANGE
        inside = lo <= result["o1_tec_ratio"] <= hi
        print(f"# reference.o1_tec_ratio (compare-tec's timing.txt, O1 over TEC) is "
              f"{'inside' if inside else 'OUTSIDE'} criterion 11's [{lo}, {hi}]")

    if args.trace == 0:
        return {name: {"value": result[name], "unit": unit}
                for name, unit in E2E_UNITS.items()}

    layers = traced_metrics(result)
    print("# per-layer metrics of one traced repetition")
    for name, value in layers.items():
        print(f"{name:<36} {value:>16.6f} {layer_unit(name)}")
    for key, share in sorted(result["quad_check_share"].items()):
        print(f"# galerkin.quad_check_share {key}: {share:.4f}")
    print(f"# spans written to {result['spans_csv']}")
    return {name: {"value": value, "unit": layer_unit(name)}
            for name, value in layers.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    metrics = report(args, result)
    if args.result:
        Path(args.result).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
