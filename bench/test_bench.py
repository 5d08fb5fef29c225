"""Tests of the benchmark itself: tracer install and removal, self-time
accounting, repeatable counts, and the output checks.

Run with ``python3 -m pytest bench/test_bench.py`` from the repository root.
The workloads are shrunk here (short horizons, low orders, a coarse FD
grid) so that the tests take seconds.
"""

import dataclasses
import importlib
import inspect
import json
import itertools
import math
import threading
from pathlib import Path

import pytest

import run_bench
import tracer as tr
import workloads
from workloads import HIGHORDER, ORACLE, STUDY, CheckError, check_all_finite

ROOT = Path(__file__).resolve().parents[1]
cli = run_bench.import_cli(ROOT)

SMALL = {
    "study": {"horizon_s": 20.0, "orders": [4], "control": {"estimator_order": 4}},
    "oracle": {"horizon_s": 4.0, "fd": {"n_r": 16, "n_z": 16, "dt_s": 0.5,
                                        "scheme": "crank_nicolson"}},
    "highorder": {"horizon_s": 30.0, "orders": [64, 100, 144]},
}


@pytest.fixture(autouse=True)
def shrunk_highorder_bound(monkeypatch):
    # O <= 144 is not converged to the full workload's O=900 vs O=400 bound
    monkeypatch.setattr(workloads, "HIGHORDER_DIFF_C", 1e-2)


WRAPPER_CODE = tr.Tracer().wrap("x.y", len).__code__


def installed_wrappers():
    """Names of bindings in celltherm that hold a tracer wrapper."""
    found = []
    for layer in ("", *tr.LAYERS):
        mod = importlib.import_module(f"celltherm.{layer}" if layer else "celltherm")
        for key, value in vars(mod).items():
            candidates = [value]
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                candidates = list(vars(value).values())
            elif isinstance(value, dict):
                candidates = list(value.values())
            if any(getattr(c, "__code__", None) is WRAPPER_CODE for c in candidates):
                found.append(f"{mod.__name__}.{key}")
    return found


def small(workload):
    return dataclasses.replace(workload, config={**workload.config, **SMALL[workload.name]})


def run_small(workload, tmp_path, seed=3, tracer=None):
    workload = small(workload)
    tmp_path.mkdir(parents=True, exist_ok=True)
    config_path = tmp_path / f"{workload.name}.json"
    config_path.write_text(json.dumps(workload.config))
    cfg = cli.load_config(str(config_path), {"seed": seed})
    if tracer is not None:
        tracer.install()
    try:
        rep = run_bench.run_rep(cli, workload, cfg, config_path, tmp_path / "out", seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return rep


def test_uninstall_restores_every_binding(tmp_path):
    import celltherm
    from celltherm import control, galerkin, simulate

    before = {
        "galerkin.assemble": galerkin.assemble,
        "cli.assemble": cli.assemble,
        "control.assemble": control.assemble,
        "celltherm.assemble": celltherm.assemble,
        "COMMANDS[simulate]": cli.COMMANDS["simulate"],
        "FieldEvaluator.metrics": simulate.FieldEvaluator.metrics,
        "Stepper.step": simulate.Stepper.step,
    }
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert cli.assemble is control.assemble is galerkin.assemble
        assert cli.assemble is not before["galerkin.assemble"]
        assert cli.COMMANDS["simulate"] is not before["COMMANDS[simulate]"]
        assert "celltherm.simulate.FieldEvaluator" in installed_wrappers()
    finally:
        tracer.uninstall()
    after = {
        "galerkin.assemble": galerkin.assemble,
        "cli.assemble": cli.assemble,
        "control.assemble": control.assemble,
        "celltherm.assemble": celltherm.assemble,
        "COMMANDS[simulate]": cli.COMMANDS["simulate"],
        "FieldEvaluator.metrics": simulate.FieldEvaluator.metrics,
        "Stepper.step": simulate.Stepper.step,
    }
    assert after == before
    assert installed_wrappers() == []

    # an untraced run after removal records nothing
    n_spans = len(tracer.spans)
    rep = run_small(HIGHORDER, tmp_path)
    assert rep.failed == 0
    assert len(tracer.spans) == n_spans


def test_self_times_add_up_to_parent_spans():
    ticks = itertools.count()
    tracer = tr.Tracer(clock=lambda: float(next(ticks)), cpu_clock=lambda: 0.0)

    def leaf():
        return 1

    def middle():
        return wrapped_leaf() + wrapped_leaf()

    def top():
        return wrapped_middle() + wrapped_leaf()

    wrapped_leaf = tracer.wrap("a.leaf", leaf)
    wrapped_middle = tracer.wrap("a.middle", middle)
    assert tracer.wrap("a.top", top)() == 3

    assert not any(s.worker for s in tracer.spans)
    selfs = tr.self_times(tracer.spans)
    children = {s.id: [c for c in tracer.spans if c.parent == s.id] for s in tracer.spans}
    for s in tracer.spans:
        assert selfs[s.id] + sum(c.duration for c in children[s.id]) == s.duration
    root = next(s for s in tracer.spans if s.parent is None)
    assert sum(selfs.values()) == root.duration


def test_self_times_add_up_on_a_traced_workload(tmp_path):
    tracer = tr.Tracer()
    assert run_small(HIGHORDER, tmp_path, tracer=tracer).failed == 0
    spans = tracer.spans
    selfs = tr.self_times(spans)
    roots = [s for s in spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.main"]
    # one thread, so children never overlap: self times partition each root
    assert math.isclose(sum(selfs.values()), roots[0].duration, rel_tol=1e-9)
    m = tr.layer_metrics(spans)
    assert math.isclose(sum(m[f"{layer}.self_ms"] for layer in tr.LAYERS),
                        1e3 * roots[0].duration, rel_tol=1e-9)


def test_pool_workers_are_parented_to_the_submitting_command(tmp_path):
    tracer = tr.Tracer()
    assert run_small(STUDY, tmp_path, tracer=tracer).failed == 0
    by_id = {s.id: s for s in tracer.spans}
    points = [s for s in tracer.spans if s.name == "cli._control_point"]
    assert len(points) == 8
    assert {by_id[p.parent].name for p in points} == {"cli.cmd_control"}
    assert all(p.thread != threading.get_ident() and p.worker for p in points)
    assert not any(s.worker for s in tracer.spans if s.thread == threading.get_ident())
    # the command's self time excludes the pool section it waits for
    command = by_id[points[0].parent]
    pool_wall = max(p.end for p in points) - min(p.start for p in points)
    assert tr.self_times(tracer.spans)[command.id] <= command.duration - pool_wall + 1e-9
    assert tr.layer_metrics(tracer.spans)["cli.pool_concurrency.control"] > 0.0


@pytest.mark.parametrize("workload", [STUDY, ORACLE, HIGHORDER], ids=lambda w: w.name)
def test_counts_repeat_across_runs_with_the_same_seed(workload, tmp_path):
    counts = []
    for attempt in range(2):
        tracer = tr.Tracer()
        rep = run_small(workload, tmp_path / str(attempt), tracer=tracer)
        assert rep.failed == 0
        m = tr.layer_metrics(tracer.spans)
        counts.append({k: v for k, v in m.items()
                       if k.endswith((".calls", ".steps", ".rows", ".bytes", ".spans"))})
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0


def test_checks_reject_non_finite_output(tmp_path):
    (tmp_path / "summary.json").write_text('{"x": 1.0}\n')
    (tmp_path / "trace.csv").write_text("t_s,T_C\n0.0,15.0\n1.0,nan\n")
    with pytest.raises(CheckError, match="non-finite"):
        check_all_finite(tmp_path)
    (tmp_path / "trace.csv").write_text("t_s,T_C\n0.0,15.0\n1.0,15.5\n")
    (tmp_path / "summary.json").write_text('{"x": [1.0, Infinity]}\n')
    with pytest.raises(CheckError, match="non-finite"):
        check_all_finite(tmp_path)


def test_o1_tec_ratio_is_read_from_timing_txt(tmp_path):
    (tmp_path / "timing.txt").write_text(
        "model  mean_ms\nTEC  0.040\nO1  8.000\nO9  7.500\n"
        "# measured O1 vs TEC time reduction: -19900.0% (reference figure: 28.7%)\n")
    assert workloads.read_timing(tmp_path / "timing.txt") == {
        "TEC": 0.04, "O1": 8.0, "O9": 7.5}
    assert math.isclose(run_bench.o1_tec_margin(1.0), 1.0)
    assert math.isclose(run_bench.o1_tec_margin(200.0), -math.log10(20.0))
    (tmp_path / "timing.txt").write_text("model  mean_ms\nTEC  0.000\nO1  8.000\n")
    with pytest.raises(CheckError, match="not positive"):
        workloads.read_timing(tmp_path / "timing.txt")


def test_reported_metrics_match_benchmark_json(tmp_path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run_bench.E2E_UNITS
    tracer = tr.Tracer()
    rep = run_small(STUDY, tmp_path, tracer=tracer)
    metrics = run_bench.traced_metrics({
        "layers": tr.layer_metrics(tracer.spans), "traced_wall_s": 1.0,
        "wall_s": rep.wall, "command_s": rep.times,
        "max_err_C": rep.figures.get("max_err_C"), "o1_tec_ratio": None})
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: run_bench.layer_unit(name) for name in metrics}
