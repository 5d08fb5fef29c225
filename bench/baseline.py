"""Run every workload of the benchmark over several seeds and record the
results with machine information.

Usage, from the root of a checkout:

    python3 bench/baseline.py --out bench/baseline.json

For each workload it runs ``bench/run_bench.py`` once for each of ten seeds
untraced (seeds 1 to 10, or from ``--first-seed``, so that a second set can
be compared with the first) and once traced, one run at a time. It prints every end-to-end metric by name
and unit as the median and quartiles over the seeds, with the quartile
spread as a share of the median next to the metric's bound from
``BENCHMARK.json``, then the per-layer metrics of the traced run. With
``--out`` it also writes all of it as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

from workloads import WORKLOADS

SCRIPT = Path(__file__).resolve().parent / "run_bench.py"
SEEDS = 10


def run_once(root, workload, seed, seconds, trace):
    result_path = root / ".bench_baseline" / f"result-{workload}-{seed}-{trace}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(SCRIPT), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--result", str(result_path)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    result["line"] = json.loads(proc.stdout.strip().splitlines()[-1])
    return result


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def _blas_info():
    deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    setting = ", ".join(f"{k}={v}" for k, v in threads.items() if v is not None)
    return {"name": deps.get("name"), "version": deps.get("version"),
            "configuration": deps.get("openblas configuration"),
            "threads": setting or "unset: OpenBLAS starts one thread per core"}


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(root, *args):
    try:
        out = subprocess.run(["git", *args], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_info(root):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "git_sha": _git(root, "rev-parse", "HEAD"),
        "src_tree": _git(root, "rev-parse", "HEAD:src"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=str, default=None)
    args = parser.parse_args(argv)

    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + SEEDS))
    report = {"machine": machine_info(root), "run_seconds": seconds, "seeds": seeds,
              "workloads": {}}

    for name in WORKLOADS:
        runs = [run_once(root, name, seed, seconds, 0) for seed in seeds]
        traced = run_once(root, name, seeds[0], seconds, 1)
        series = {"setup_s": [r["setup_s"] for r in runs],
                  "wall_s": [r["wall_s"] for r in runs]}
        for label in runs[0]["command_s"]:
            series[f"{label}_s"] = [r["command_s"][label] for r in runs]
        for figure in ("max_err_C", "o1_tec_ratio"):
            if runs[0][figure] is not None:
                series[figure] = [r[figure] for r in runs]
        series["peak_rss_mb"] = [r["peak_rss_mb"] for r in runs]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {
            "fail_frac": failed / attempted, "attempted": attempted, "failed": failed,
            "correct": all(r["line"]["correct"] for r in runs + [traced]),
            "end_to_end": {k: summarize(v) for k, v in series.items()},
            "per_layer": {k: v["value"] for k, v in traced["line"]["metrics"].items()},
            "quad_check_share": traced["quad_check_share"],
            "rep_walls": [[sum(t.values()) for t in r["rep_times"]] for r in runs],
        }
        report["workloads"][name] = entry

        print(f"# {name}: {len(seeds)} seeds x {seconds} s, "
              f"fail_frac {entry['fail_frac']:.3f} ({failed}/{attempted})")
        for metric, s in entry["end_to_end"].items():
            unit = {"max_err_C": "degC", "peak_rss_mb": "MB",
                    "o1_tec_ratio": "1"}.get(metric, "s")
            bound = bounds.get(metric)
            flag = "" if bound is None else f"  bound {bound:.2f}" + (
                "  OVER" if metric != "setup_s" and s["spread"] > bound / 3 else "")
            print(f"{metric:<22} {s['median']:>12.6f} {unit:<4} "
                  f"[{s['q1']:.6f}, {s['q3']:.6f}]  spread {s['spread']:.4f}{flag}")
        for metric, value in entry["per_layer"].items():
            print(f"  {metric:<38} {value:>16.6f}")
        sys.stdout.flush()

    (root / ".bench_baseline").rmdir()
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
