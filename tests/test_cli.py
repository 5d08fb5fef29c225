"""Command-line interface: configuration schema, drive-cycle I/O, command
outputs, exit codes, and byte determinism."""

import concurrent.futures
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import celltherm
import celltherm.cli as cli
from celltherm.cli import (
    DEFAULTS,
    MARKET_CELL_RATIOS,
    load_config,
    main,
    solve_constant_volume,
    write_csv,
)
from celltherm.control import DEFAULT_GAINS, DEFAULT_LIMITS
from celltherm.core import HeatProfile, cell_volume, CellSpec
from celltherm.exceptions import ConfigError
from celltherm.profiles import (
    emit_drive_cycle,
    ingest_drive_cycle,
    pulse_train,
    random_drive,
)
from celltherm import galerkin
from celltherm.reference import FdConfig, FdSolver, TecModel
from celltherm.simulate import DEFAULT_GRID, METRIC_NAMES, FieldEvaluator, _check_metric_names
from strategies import record_metric_names

FAST_CFG = {
    "schema_version": 1,
    "orders": [1, 4],
    "dt_s": 2.0,
    "horizon_s": 60.0,
    "fd": {"n_r": 20, "n_z": 20, "dt_s": 1.0},
    "grid": {"n_r": 15, "n_z": 15},
    "metrics_stride": 5,
    "scenarios": ["SC"],
    "control": {"c_rates": [1.0]},
    "sweep": {"ratios": [2.0, 5.0]},
    "heat": {"kind": "constant_q", "q_W_per_m3": 50000.0},
    "timing": {"enabled": False},
}


# custom cooling a cylinder can run with: its core is never cooled
VALID_COOLING = {side: {"h": 0.0 if side == "core" else 10.0, "T_inf": 15.0}
                 for side in ("surface", "core", "top", "bottom")}


def _write_cfg(tmp_path, extra=None, name="cfg.json"):
    cfg = json.loads(json.dumps(FAST_CFG))
    cfg.update(extra or {})
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def _schema_leaves(node, path=()):
    """(key path, leaf, whether null is valid) of every leaf under a schema
    node; a heat leaf's path holds its kind before its key."""
    if isinstance(node, cli._Nullable):
        for leaf_path, leaf, _ in _schema_leaves(node.node, path):
            yield leaf_path, leaf, leaf_path == path
    elif isinstance(node, cli._Leaf):
        yield path, node, False
    else:
        children = node.kinds if isinstance(node, cli._ByKind) else node
        for key, child in children.items():
            yield from _schema_leaves(child, path + (key,))


SCHEMA_LEAVES = list(_schema_leaves(cli.SCHEMA))

# one value of each JSON type, keyed by the type
_JSON_VALUES = {"null": None, "boolean": True, "integer": 3, "number": 2.5,
                "string": "x", "array": [1.0], "object": {}}


def _wrong_values(leaf_type, null_ok):
    """A value of each JSON type the leaf does not take, and NaN and inf
    for a number leaf."""
    valid = {leaf_type}
    if leaf_type == "number":
        valid.add("integer")
    if null_ok:
        valid.add("null")
    wrong = [v for t, v in _JSON_VALUES.items() if t not in valid]
    if leaf_type == "number":
        wrong += [float("nan"), float("inf"), -float("inf")]
    return wrong


def _config_with(path, value, out_dir):
    """FAST_CFG with custom cooling and ``out_dir``, and the leaf at ``path``
    set to ``value``; returns the config and the key path an error must name."""
    cfg = json.loads(json.dumps(dict(FAST_CFG, cooling=VALID_COOLING, out_dir=out_dir)))
    if path[0] == "heat":
        cfg["heat"] = {"kind": path[1], path[2]: value}
        return cfg, f"heat.{path[2]}"
    section = cfg
    for key in path[:-1]:
        section = section.setdefault(key, {})
    section[path[-1]] = value
    return cfg, ".".join(path)


class TestConfig:
    def test_defaults_load_without_file(self):
        cfg = load_config(None)
        assert cfg["orders"] == DEFAULTS["orders"]

    def test_schema_defaults_are_the_library_defaults(self):
        """Each default the schema repeats equals the library's own."""
        assert CellSpec(**DEFAULTS["cell"]) == celltherm.PAPER_CELL
        fd = DEFAULTS["fd"]
        assert FdConfig(fd["n_r"], fd["n_z"], fd["dt_s"], fd["scheme"]) == FdConfig()
        tec = DEFAULTS["tec"]
        assert TecModel(tec["C_c"], tec["C_s"], tec["R_c"], tec["R_u"],
                        T_inf=tec["T_inf_C"]) == TecModel()
        ctl = DEFAULTS["control"]
        assert (ctl["kp"], ctl["ki"]) == DEFAULT_GAINS
        assert tuple(ctl["limits_C"]) == DEFAULT_LIMITS
        assert (DEFAULTS["grid"]["n_r"], DEFAULTS["grid"]["n_z"]) == DEFAULT_GRID

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"no_such_key": 1}))
        with pytest.raises(ConfigError, match="no_such_key"):
            load_config(path)

    def test_unknown_nested_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"fd": {"n_r": 32, "mesh": "auto"}}))
        with pytest.raises(ConfigError, match="mesh"):
            load_config(path)

    def test_empty_orders_rejected(self, tmp_path):
        path = _write_cfg(tmp_path, {"orders": []})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_non_square_order_rejected(self, tmp_path):
        path = _write_cfg(tmp_path, {"orders": [5]})
        with pytest.raises(ConfigError, match="square"):
            load_config(path)

    @pytest.mark.parametrize("extra", [
        {"orders": ["4"]},
        {"orders": [4.0]},
        {"orders": [True]},
        {"orders": [-4]},
        {"dt_s": "1"},
        {"dt_s": True},
        {"dt_s": float("nan")},
        {"horizon_s": "600"},
        {"horizon_s": float("inf")},
        {"metrics_stride": 0},
        {"metrics_stride": -1},
        {"metrics_stride": 2.5},
        {"control": {"estimator_order": 5}},
        {"control": {"estimator_order": "9"}},
        {"control": {"estimator_order": 0}},
        {"control": {"estimator_order": True}},
        {"control": {"estimator_order": 2.0}},
        {"control": 5},
        {"grid": {"n_r": 2.5}},
        {"grid": {"n_z": "41"}},
        {"grid": {"n_r": 1}},
        {"fd": {"n_r": "128"}},
        {"fd": {"n_z": 2}},
        {"fd": {"dt_s": 0.0}},
        {"control": {"c_rates": ["2"]}},
        {"control": {"c_rates": 2.0}},
        {"timing": {"repetitions": "3"}},
        {"timing": {"repetitions": 2}},
        {"t_init_C": "15"},
        {"cooling": {side: {"h": 10.0} for side in ("surface", "core", "top", "bottom")}},
        {"cooling": {side: {"h": 10.0, "T_inf": "15"}
                     for side in ("surface", "core", "top", "bottom")}},
        {"cooling": {"surface": {"h": 10.0, "T_inf": 15.0}}},
        {"cooling": 5},
        {"tec": {"C_c": "1079.6"}},
        {"tec": {"R_u": 0.0}},
        {"tec": {"C_s": -48.35}},
        {"tec": {"T_inf_C": float("nan")}},
        {"sweep": {"R_in_m": "0.004"}},
        {"sweep": {"R_in_m": 0.0}},
        {"sweep": {"ratios": ["3"]}},
        {"sweep": {"ratios": [3.0, -2.0]}},
        {"sweep": {"ratios": []}},
        {"sweep": {"ratios": 3.0}},
        {"control": {"setpoint_C": "20"}},
        {"control": {"kp": "2"}},
        {"control": {"ki": None}},
        {"control": {"limits_C": ["-20", 40]}},
        {"control": {"limits_C": [40.0, -20.0]}},
        {"control": {"limits_C": [-20.0]}},
        {"timing": {"enabled": "no"}},
        {"timing": {"enabled": 1}},
        {"heat": {"kind": "constant_q"}},
        {"heat": {"kind": "constant_q", "q_W_per_m3": "1e5"}},
        {"heat": {"kind": "pulse_train", "period_s": "100"}},
        {"heat": {"kind": "pulse_train", "period_s": 0.0}},
        {"heat": {"kind": "pulse_train", "amplitude_W_per_m3": True}},
        {"heat": {"kind": "pulse_train", "duty": "0.5"}},
        {"heat": {"kind": "pulse_train", "base_W_per_m3": float("inf")}},
        {"heat": {"kind": "random_drive", "peak_current_A": "90"}},
        {"heat": {"kind": "random_drive", "internal_resistance_ohm": "2e-3"}},
        {"heat": {"kind": "random_drive", "scale": [2.0]}},
        {"heat": {"kind": "random_drive", "step_s": -1.0}},
        {"heat": {"kind": "csv"}},
        {"heat": {"kind": "csv", "path": 5}},
        {"scenarios": 5},
        {"scenarios": []},
        {"scenarios": "SC"},
        {"scenarios": ["SC", ["aTSC"]]},
        {"scenario": ["SC"]},
        {"scenario": 5},
        {"seed": "1", "heat": {"kind": "random_drive"}},
        {"seed": True},
        {"seed": 1.0},
        {"seed": -1},
        {"out_dir": 5},
        {"cell": {"L": True}},
        {"schema_version": True},
        {"heat": {"kind": ["x"]}},
        {"heat": {"kind": "csv", "path": "nope.csv"}},
        {"control": {"c_rates": []}},
        {"cooling": {}},
        {"heat": {"kind": "pulse_train", "duty": 1.0}},
    ], ids=repr)
    def test_mistyped_value_exits_as_config_error(self, tmp_path, extra):
        path = _write_cfg(tmp_path, {"out_dir": str(tmp_path / "out"), **extra})
        with pytest.raises(ConfigError, match=re.escape(next(iter(extra)))):
            load_config(path)
        assert main(["simulate", "--config", str(path)]) == 2
        assert not (tmp_path / "out").exists()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_wrong_type_at_any_schema_leaf_exits_as_config_error(self, data):
        path, leaf, null_ok = data.draw(st.sampled_from(SCHEMA_LEAVES), label="leaf")
        value = data.draw(st.sampled_from(_wrong_values(leaf.type, null_ok)),
                          label="value")
        with tempfile.TemporaryDirectory() as tmp:
            cfg, where = _config_with(path, value, out_dir=str(Path(tmp) / "out"))
            cfg_path = Path(tmp) / "cfg.json"
            cfg_path.write_text(json.dumps(cfg))
            with pytest.raises(ConfigError, match=re.escape(where)):
                load_config(cfg_path)
            assert main(["simulate", "--config", str(cfg_path)]) == 2
            assert not (Path(tmp) / "out").exists()

    def test_unreadable_heat_csv_is_config_error(self, tmp_path):
        csv = tmp_path / "q.csv"
        csv.write_text("t_s,q_Wm3\n0.0,5.0\n10.0,5.0\n")
        cfg = load_config(_write_cfg(tmp_path, {"heat": {"kind": "csv", "path": str(csv)}}))
        csv.unlink()   # gone between loading the config and reading the file
        with pytest.raises(ConfigError, match="heat.path"):
            cli.cmd_simulate(cfg, tmp_path / "out")

    def test_unknown_scenario_rejected(self, tmp_path):
        path = _write_cfg(tmp_path, {"scenario": "ZZZ"})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_schema_version_checked(self, tmp_path):
        path = _write_cfg(tmp_path, {"schema_version": 99})
        with pytest.raises(ConfigError, match="schema_version"):
            load_config(path)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(ConfigError, match="line"):
            load_config(path)


class TestDriveCycleIO:
    def test_two_column_constant(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("t_s,q_Wm3\n0.0,5.0\n10.0,5.0\n")
        profile = ingest_drive_cycle(path)
        assert profile.kind == "volumetric_q"
        assert np.all(profile.values == 5.0)

    def test_four_column_zero_current(self, tmp_path):
        path = tmp_path / "ivo.csv"
        path.write_text("t_s,I_A,V_V,Vocv_V\n0.0,0.0,3.3,3.3\n5.0,0.0,3.2,3.3\n")
        profile = ingest_drive_cycle(path).to_volumetric(6.27e-4)
        assert profile.kind == "volumetric_q"
        assert np.all(profile.values == 0.0)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        original = HeatProfile(np.arange(8) * 1.7,
                               rng.uniform(-1e4, 1e5, size=8))
        path = tmp_path / "cycle.csv"
        emit_drive_cycle(original, path)
        back = ingest_drive_cycle(path)
        assert np.allclose(back.times, original.times, rtol=1e-12, atol=0)
        assert np.allclose(back.values, original.values, rtol=1e-12, atol=0)

    def test_electrical_round_trip(self, tmp_path):
        profile = random_drive(90.0, horizon=30.0, seed=4, step=5.0)
        path = tmp_path / "drive.csv"
        emit_drive_cycle(profile, path)
        back = ingest_drive_cycle(path)
        assert back.kind == "electrical_ivo"
        assert np.allclose(back.values, profile.values, rtol=1e-12, atol=0)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_s,q_Wm3\n0.0,1.0\nnot,a,row\n")
        with pytest.raises(ConfigError, match="line 3"):
            ingest_drive_cycle(path)

    def test_non_numeric_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_s,q_Wm3\n0.0,xyz\n")
        with pytest.raises(ConfigError, match="line 2"):
            ingest_drive_cycle(path)

    def test_non_monotone_time_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_s,q_Wm3\n0.0,1.0\n2.0,1.0\n1.0,1.0\n")
        with pytest.raises(ConfigError, match="increasing"):
            ingest_drive_cycle(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,heat\n0.0,1.0\n")
        with pytest.raises(ConfigError, match="header"):
            ingest_drive_cycle(path)


class TestSyntheticProfiles:
    def test_pulse_train_edges(self):
        p = pulse_train(100.0, period=10.0, duty=0.3, horizon=25.0)
        assert p.times[0] == 0.0 and p.values[0] == 100.0
        assert 3.0 in p.times and 10.0 in p.times
        # zero-order hold semantics: value drops at t = duty * period
        i = list(p.times).index(3.0)
        assert p.values[i] == 0.0

    def test_random_drive_reproducible(self):
        a = random_drive(90.0, horizon=50.0, seed=11)
        b = random_drive(90.0, horizon=50.0, seed=11)
        c = random_drive(90.0, horizon=50.0, seed=12)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_random_drive_peak_current(self):
        p = random_drive(90.0, horizon=200.0, seed=0)
        assert np.abs(p.values[:, 0]).max() == pytest.approx(90.0)

    def test_random_drive_scale_multiplies_heat(self):
        vol = 6.27e-4
        q1 = random_drive(90.0, 100.0, seed=3, scale=1.0).to_volumetric(vol)
        q2 = random_drive(90.0, 100.0, seed=3, scale=2.0).to_volumetric(vol)
        assert np.allclose(q2.values, 2.0 * q1.values, rtol=1e-12)


class TestParser:
    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_every_command_parses(self, command):
        args = cli.build_parser().parse_args(
            [command, "--config", "c.json", "--out", "o", "--seed", "3",
             "--orders", "1,4"])
        assert (args.command, args.config, args.out, args.seed, args.orders) == \
            (command, "c.json", "o", 3, "1,4")

    @pytest.mark.parametrize("argv", [[], ["--seed", "1"], ["simulat"], ["run"]],
                             ids=["none", "options-only", "typo", "unknown"])
    def test_unknown_or_missing_command_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "command" in capsys.readouterr().err


class TestCommands:
    def test_simulate_outputs(self, tmp_path):
        path = _write_cfg(tmp_path, {"out_dir": str(tmp_path / "out")})
        assert main(["simulate", "--config", str(path)]) == 0
        trace = (tmp_path / "out/simulate/trace_O1.csv").read_text().splitlines()
        assert trace[0] == "t_s,T_surface_C,T_core_C,T_top_C,T_bottom_C"
        assert len(trace) == 32  # header + 31 steps
        summary = json.loads((tmp_path / "out/simulate/summary.json").read_text())
        assert summary["provenance"]["seed"] == 0
        assert "config_sha256" in summary["provenance"]

    def test_validate_errors_decrease(self, tmp_path):
        path = _write_cfg(tmp_path, {"out_dir": str(tmp_path / "out")})
        assert main(["validate", "--config", str(path)]) == 0
        rows = (tmp_path / "out/validate/errors.csv").read_text().splitlines()[1:]
        errs = [float(r.split(",")[2]) for r in rows]
        assert errs[1] < errs[0]

    @pytest.fixture
    def work(self, monkeypatch):
        """Counts of the field evaluators built, the evaluator and FD metric
        samples taken, and the assembly passes run."""
        counts = dict.fromkeys(("evaluators", "rom_metrics", "fd_metrics", "passes"), 0)

        def counting(owner, name, key):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counting(FieldEvaluator, "__init__", "evaluators")
        counting(FieldEvaluator, "metrics", "rom_metrics")
        counting(FdSolver, "metrics", "fd_metrics")
        counting(galerkin, "_assemble_matrices", "passes")
        return counts

    def test_validate_computes_only_what_it_writes(self, tmp_path, work):
        """validate writes output errors only: no field evaluator, no metric
        sample, and one assembly pass per scenario for all its orders."""
        path = _write_cfg(tmp_path, {"out_dir": str(tmp_path / "out"),
                                     "orders": [1, 4, 9], "scenarios": ["SC", "aTSC"]})
        assert main(["validate", "--config", str(path)]) == 0
        assert work == {"evaluators": 0, "rom_metrics": 0, "fd_metrics": 0, "passes": 2}

    def test_compare_tec_times_outputs_only_runs(self, tmp_path, work):
        """The timed model runs take no metric sample: only the run that
        writes each trace does, and one library gives every order."""
        path = _write_cfg(tmp_path, {"out_dir": str(tmp_path / "out"),
                                     "timing": {"enabled": True, "repetitions": 3}})
        assert main(["compare-tec", "--config", str(path)]) == 0
        assert (tmp_path / "out/compare-tec/timing.txt").exists()
        assert work["rom_metrics"] == len(FAST_CFG["orders"])
        assert work["passes"] == 1

    @pytest.mark.parametrize("command, rom, fd", [
        ("control", ("T_mean", "dTr_mean", "dTz_mean"), None),
        ("sweep-geometry", ("T_mean", "dTr_max", "dTz_max"), None),
        ("compare-tec", ("T_mean", "T_max", "dTr_max"), ("T_mean", "T_max", "dTr_max")),
        ("simulate", METRIC_NAMES, None),
        ("scenarios", METRIC_NAMES, None),
        ("validate", None, None)])
    def test_each_command_takes_only_the_metrics_it_writes(self, tmp_path, monkeypatch,
                                                           command, rom, fd):
        """The metrics each command asks every ROM and FD metrics call for
        (None: no call): control the plant means it keeps, sweep-geometry the
        maxima it writes, compare-tec its three trace columns, and simulate
        and scenarios all eight."""
        received = record_metric_names(monkeypatch)
        path = _write_cfg(tmp_path, {"out_dir": str(tmp_path / "out")})
        assert main([command, "--config", str(path)]) == 0
        for key, want in (("rom", rom), ("fd", fd)):
            got = {_check_metric_names(names) for names in received[key]}
            assert got == ({want} if want else set()), key

    def test_simulate_assembles_one_library(self, tmp_path, work):
        path = _write_cfg(tmp_path, {"out_dir": str(tmp_path / "out"),
                                     "orders": [9, 1, 4]})
        assert main(["simulate", "--config", str(path)]) == 0
        assert work["passes"] == 1

    def test_compare_tec_rejects_pouch(self, tmp_path):
        path = _write_cfg(tmp_path, {
            "cell": {"shape": "pouch", "L": 0.2, "D": 0.1, "rho": 2118.0,
                     "cp": 795.0, "k_r": 0.9, "k_z": 30.0},
            "out_dir": str(tmp_path / "out")})
        assert main(["compare-tec", "--config", str(path)]) == 4

    def test_bad_config_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"orders": [3]}))
        assert main(["simulate", "--config", str(path)]) == 2

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_orders_override(self, tmp_path):
        path = _write_cfg(tmp_path, {"out_dir": str(tmp_path / "out")})
        assert main(["simulate", "--config", str(path), "--orders", "9"]) == 0
        assert (tmp_path / "out/simulate/trace_O9.csv").exists()

    def test_sweep_constant_volume_and_markers(self, tmp_path):
        path = _write_cfg(tmp_path, {"out_dir": str(tmp_path / "out")})
        assert main(["sweep-geometry", "--config", str(path)]) == 0
        rows = (tmp_path / "out/sweep-geometry/sweep.csv").read_text().splitlines()[1:]
        base = cell_volume(CellSpec(shape="cylindrical", **{
            k: v for k, v in DEFAULTS["cell"].items() if k != "shape"}))
        for row in rows:
            vol = float(row.split(",")[3])
            assert vol == pytest.approx(base, rel=1e-10)
        summary = json.loads(
            (tmp_path / "out/sweep-geometry/summary.json").read_text())
        assert summary["market_cell_ratios"] == MARKET_CELL_RATIOS

    def test_control_trace_columns(self, tmp_path):
        path = _write_cfg(tmp_path, {"out_dir": str(tmp_path / "out"),
                                     "horizon_s": 40.0})
        assert main(["control", "--config", str(path)]) == 0
        header = (tmp_path / "out/control/trace_SC_1C.csv").read_text().splitlines()[0]
        assert header == ("t_s,T_mean_C,T_hat_mean_C,u_s_W_per_m2,"
                          "u_t_W_per_m2,u_b_W_per_m2,dTr_mean_K_per_m,"
                          "dTz_mean_K_per_m")

    @pytest.mark.parametrize("command", ["validate", "scenarios", "control",
                                         "sweep-geometry"])
    def test_preset_command_rejects_custom_cooling(self, tmp_path, command, capsys):
        """These commands run the preset scenarios, so custom cooling would be
        dropped or run under a preset's name."""
        path = _write_cfg(tmp_path, {"out_dir": str(tmp_path / "out"),
                                     "cooling": VALID_COOLING})
        assert main([command, "--config", str(path)]) == 2
        assert re.search(f"config error: {command} .*'cooling'", capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "compare-tec"])
    def test_custom_cooling_honoured(self, tmp_path, command):
        """The custom sides, not the preset, set the result."""
        outs = []
        for name, cooling in (("preset", None), ("custom", VALID_COOLING)):
            path = _write_cfg(tmp_path, {"out_dir": str(tmp_path / name),
                                         "cooling": cooling}, name=f"{name}.json")
            assert main([command, "--config", str(path)]) == 0
            outs.append((tmp_path / name / command / "trace_O1.csv").read_text())
        assert outs[0] != outs[1]

    def test_fd_sample_at_model_time_despite_round_off(self):
        """At model dt 0.1 s and FD dt 0.01 s, 3 * 0.1 exceeds 30 * 0.01 by
        round-off; the FD row read at 0.3 s is row 30, not 31."""
        fd_times = np.arange(101) * 0.01
        times = np.arange(11) * 0.1
        assert fd_times[30] < times[3]   # the round-off this guards against
        np.testing.assert_array_equal(
            cli._subsample(fd_times, np.arange(101), times), np.arange(0, 101, 10))

    def test_compare_tec_fd_metric_within_one_fd_step(self, tmp_path):
        """At model dt 1 s and FD dt 0.3 s, which is no whole fraction of it,
        every model time still has an FD metric sample within one FD step
        after it."""
        path = _write_cfg(tmp_path, {
            "out_dir": str(tmp_path / "out"), "orders": [1], "dt_s": 1.0,
            "horizon_s": 6.0, "fd": {"n_r": 10, "n_z": 10, "dt_s": 0.3}})
        assert main(["compare-tec", "--config", str(path)]) == 0
        out = tmp_path / "out/compare-tec"
        fd_t = np.loadtxt(out / "trace_FD.csv", delimiter=",", skiprows=1, usecols=0)
        times = np.loadtxt(out / "trace_TEC.csv", delimiter=",", skiprows=1, usecols=0)
        slack = 1e-9
        for t in times:
            assert np.any((fd_t >= t - slack) & (fd_t <= t + 0.3 + slack)), t

    def test_scenarios_merits_table(self, tmp_path):
        path = _write_cfg(tmp_path, {"out_dir": str(tmp_path / "out"),
                                     "orders": [4]})
        assert main(["scenarios", "--config", str(path)]) == 0
        rows = (tmp_path / "out/scenarios/merits.csv").read_text().splitlines()
        assert len(rows) == 6
        assert rows[0].startswith("scenario,T_mean_C")


def _row_wise_csv(header, columns) -> bytes:
    """A table written row by row, each value by itself: a float, numpy's
    included, as repr(float(v)), anything else as str(v)."""
    def text(v):
        return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)

    lines = [",".join(header)] + [",".join(map(text, row)) for row in zip(*columns)]
    return "".join(line + "\n" for line in lines).encode()


# signed zero, a float whose repr switches to an exponent, a small normal
# and two subnormal values, and a few ordinary ones
_EDGE_FLOATS = st.sampled_from([
    -0.0, 0.0, 1e16, 1e-5, 5e-324, 2.2250738585072014e-308 / 3, 1.0 / 3.0, 1e22,
    -123456.789, float("inf")])
_FLOATS = _EDGE_FLOATS | st.floats()


def _column(kind, values):
    """One CSV column of the given kind, from the drawn values."""
    return {
        "float64 array": lambda: np.array([float(v) for v in values]),
        "float32 array": lambda: np.array([float(v) for v in values], dtype=np.float32),
        "np.float64 list": lambda: [np.float64(v) for v in values],
        "float list": lambda: [float(v) for v in values],
        "int list": lambda: [int(v) for v in values],
        "int64 array": lambda: np.array([int(v) for v in values], dtype=np.int64),
        "bool list": lambda: [v > 0 for v in values],
        "bool array": lambda: np.array([v > 0 for v in values]),
        "str list": lambda: [f"s{int(v)}" for v in values],
    }[kind]()


class TestWriteCsv:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_bytes_equal_the_row_wise_rule(self, data):
        """The column writer writes the bytes of the value-by-value rule over
        columns that mix float arrays, lists of np.float64 scalars (whose
        repr in numpy 2 is np.float64(...)), ints, bools and strings."""
        n_rows = data.draw(st.integers(0, 12), label="rows")
        kinds = data.draw(st.lists(st.sampled_from([
            "float64 array", "float32 array", "np.float64 list", "float list",
            "int list", "int64 array", "bool list", "bool array", "str list"]),
            min_size=1, max_size=6), label="kinds")
        columns = []
        for kind in kinds:
            if kind.startswith(("int", "bool", "str")):
                values = st.integers(-10**6, 10**6)
            else:
                values = st.floats(width=32) if kind == "float32 array" else _FLOATS
            columns.append(_column(kind, data.draw(
                st.lists(values, min_size=n_rows, max_size=n_rows))))
        header = [f"c{i}" for i in range(len(columns))]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sub" / "table.csv"
            write_csv(path, header, columns)
            assert path.read_bytes() == _row_wise_csv(header, columns)

    def test_edge_floats_written_by_repr(self, tmp_path):
        values = [-0.0, 1e16, 1e-5, 5e-324]
        write_csv(tmp_path / "t.csv", ["a", "b"],
                  [np.array(values), [np.float64(v) for v in values]])
        assert (tmp_path / "t.csv").read_text().splitlines()[1:] == [
            "-0.0,-0.0", "1e+16,1e+16", "1e-05,1e-05", "5e-324,5e-324"]

    def test_columns_of_unequal_length_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[1.0, 2.0], [1.0]])

    def test_sweep_with_every_ratio_skipped_writes_the_header(self, tmp_path, capsys):
        """No constant-volume cell has L / R_out = 1e20 or 1e30 with
        R_out > R_in in double precision, so both ratios are skipped."""
        path = _write_cfg(tmp_path, {"out_dir": str(tmp_path / "out"),
                                     "sweep": {"ratios": [1e20, 1e30]}})
        assert main(["sweep-geometry", "--config", str(path)]) == 0
        assert (tmp_path / "out/sweep-geometry/sweep.csv").read_text() == (
            "L_over_R_out,L_m,R_out_m,volume_m3,T_mean_C,dTr_max_K_per_m,"
            "dTz_max_K_per_m\n")
        summary = json.loads((tmp_path / "out/sweep-geometry/summary.json").read_text())
        assert summary["skipped_ratios"] == [1e20, 1e30]
        assert capsys.readouterr().err.count("skipped") == 2


class TestDeterminism:
    def test_commands_byte_identical_on_rerun(self, tmp_path):
        cfg_path = _write_cfg(tmp_path, {
            "out_dir": str(tmp_path / "out"),
            "heat": {"kind": "random_drive", "peak_current_A": 60.0},
            "horizon_s": 40.0,
        })
        for command in ("simulate", "validate", "scenarios"):
            assert main([command, "--config", str(cfg_path), "--seed", "3"]) == 0
            first = {
                f.relative_to(tmp_path): f.read_bytes()
                for f in (tmp_path / "out").rglob("*")
                if f.suffix in (".csv", ".json")
            }
            assert main([command, "--config", str(cfg_path), "--seed", "3"]) == 0
            for rel, blob in first.items():
                assert (tmp_path / rel).read_bytes() == blob, rel

    @pytest.mark.parametrize("command", ["control"])
    def test_thread_pool_matches_serial(self, tmp_path, monkeypatch, command):
        """The pooled control points share models and arrays across threads;
        their outputs must equal those of the same points called one after
        the other."""

        class SerialExecutor:
            def __init__(self, max_workers=None):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        cfg_path = _write_cfg(tmp_path, {
            "orders": [9], "scenarios": ["SC", "aTSC"], "scenario": "btTC",
            "control": {"c_rates": [1.0, 2.0, 3.0]},
            "sweep": {"ratios": [2.0, 4.0, 6.0, 8.0]},
            "heat": {"kind": "random_drive", "peak_current_A": 90.0},
            "metrics_stride": 1,
        })

        def outputs():
            out = tmp_path / "out"   # same path both times: it is hashed
            assert main([command, "--config", str(cfg_path), "--out", str(out),
                         "--seed", "5"]) == 0
            return {f.relative_to(out): f.read_bytes()
                    for f in out.rglob("*") if f.suffix in (".csv", ".json")}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)   # interleave the pool's threads often
        try:
            pooled = outputs()
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialExecutor)
        serial = outputs()
        assert pooled.keys() == serial.keys()
        for rel, blob in serial.items():
            assert pooled[rel] == blob, rel


class TestColdStart:
    def test_cli_imports_no_scipy(self, tmp_path):
        """A fresh interpreter that imports the CLI and loads a config, then
        runs compare-tec (Galerkin pencils, FD and TEC eigensolves), has
        imported no scipy module."""
        cfg_path = _write_cfg(tmp_path, {"out_dir": str(tmp_path / "out")})
        code = (
            "import sys\n"
            "import celltherm.cli as cli\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m == 'scipy' or m.startswith('scipy.'))\n"
            "cli.load_config(sys.argv[1])\n"
            "print(scipy_modules())\n"
            "assert cli.main(['compare-tec', '--config', sys.argv[1]]) == 0\n"
            "print(scipy_modules())\n")
        src = str(Path(celltherm.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code, str(cfg_path)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["[]", "[]"]


class TestConstantVolume:
    def test_ratio_reproduces_paper_cell(self):
        spec = CellSpec(shape="cylindrical", **{
            k: v for k, v in DEFAULTS["cell"].items() if k != "shape"})
        ratio = spec.L / spec.R_out
        solved = solve_constant_volume(cell_volume(spec), ratio, spec.R_in)
        assert solved is not None
        length, r_out = solved
        assert length == pytest.approx(spec.L, rel=1e-12)
        assert r_out == pytest.approx(spec.R_out, rel=1e-12)

    def test_tiny_volume_stays_above_inner_radius(self):
        # the cubic always has one root above R_in for positive volume; a
        # vanishing volume drives R_out down to R_in from above
        solved = solve_constant_volume(1e-12, 8.0, 0.05)
        assert solved is not None
        _, r_out = solved
        assert 0.05 < r_out < 0.0501
