"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py -v` to see them).

Criteria
--------
 1. Robin-basis residuals for every scenario's boundary pair
 2. Spectral convergence; O=1 closer to FD than the two-state TEC; the FD
    oracle's observed order and error bar
 3. Analytic radial steady state (surface rise / core-surface difference)
 4. Adiabatic energy balance for reduced and FD models
 5. Zero-state superposition of per-side inputs (cylindrical and pouch)
 6. Lumped two-state benchmark steady state
 7. Reduced O=1 model beats the lumped benchmark on a pulse profile
 8. Cooling-scenario merit ordering
 9. Closed-loop tracking band and gradient ordering at matched setpoint
10. Constant-volume geometry sweep monotonicity
11. Timing report (reported, single order-of-magnitude assertion)
12. CLI byte determinism

Criterion 2 bounds the single-state model by the TEC, not by a figure in
degC: its 1.85 degC core error is the same against the 128^2 and 64^2 FD runs
and an O=400 model, and grows linearly with the sustained load (0.09 + ~1.8
degC per 1e5 W/m^3); no document gives an absolute O=1 bound for this load.
"""

import json

import numpy as np
import pytest

from celltherm.chebyshev import build_basis, robin_residuals
from celltherm.cli import main as cli_main
from celltherm.core import (
    CYLINDRICAL,
    POUCH,
    SCENARIOS,
    CellSpec,
    CoolingConfig,
    SideCooling,
    cell_volume,
    resample_profile,
    scenario_cooling,
)
from celltherm.control import closed_loop_run
from celltherm.galerkin import assemble, project_initial_state
from celltherm.particular import robin_pairs
from celltherm.profiles import pulse_train
from celltherm.reference import (
    FdConfig,
    TecModel,
    fd_solve,
    tec_metrics,
    tec_run,
    timing_harness,
)
from celltherm.simulate import run

PAPER = CellSpec(shape=CYLINDRICAL, L=0.198, R_out=0.032, R_in=0.004,
                 rho=2118.0, cp=795.0, k_r=0.67, k_z=66.6)
POUCH_CELL = CellSpec(shape=POUCH, L=0.2, D=0.1, rho=2118.0, cp=795.0,
                      k_r=0.9, k_z=30.0)
VOL = cell_volume(PAPER)


def _report(criterion, ok, detail):
    print(f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'} - {detail}")


def _model(spec, cooling, order):
    root = int(round(np.sqrt(order)))
    return assemble(spec, cooling, root, root)


def _baseline_run(spec, cooling, order, q, dt, horizon, stride=10**9):
    model = _model(spec, cooling, order)
    x0 = project_initial_state(model, 15.0)
    return run(model, x0, None, q, dt, horizon, metrics_stride=stride)


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_basis_residuals():
    worst = 0.0
    for name in SCENARIOS:
        cooling = scenario_cooling(name)
        for pair in robin_pairs(PAPER, cooling):
            basis = build_basis(11, *pair)
            worst = max(worst, float(robin_residuals(basis)[1:11].max()))
    ok = worst <= 1e-10
    _report(1, ok, f"max scaled Robin residual {worst:.3e} (<= 1e-10)")
    assert ok


# ---------------------------------------------------------------- criterion 2

def _fd_sc_outputs(n):
    # outputs every 20th FD step (dt 0.05 s): the models' 1 s samples
    return fd_solve(PAPER, scenario_cooling("SC"), None, 1e5,
                    FdConfig(n, n, 0.05), T_init=15.0, horizon=600.0,
                    metrics_stride=10**9, output_stride=20)


@pytest.fixture(scope="module")
def fd_sc_reference():
    return _fd_sc_outputs(128)


@pytest.fixture(scope="module")
def fd_sc_error_bar(fd_sc_reference):
    """(p, e): the FD oracle's observed order of spatial convergence from the
    32^2, 64^2 and 128^2 grids, and the Richardson estimate e of its 128^2
    output error, max |u_64 - u_128| / (2^p - 1)."""
    coarse, mid = (_fd_sc_outputs(n).outputs for n in (32, 64))
    d_mid = np.abs(mid - fd_sc_reference.outputs).max()
    p = float(np.log2(np.abs(coarse - mid).max() / d_mid))
    return p, float(d_mid / (2.0**p - 1.0))


@pytest.fixture(scope="module")
def csg_errors_vs_fd(fd_sc_reference):
    """Max |error| vs FD of each mid-side output, per model order."""
    cooling = scenario_cooling("SC")
    ref = fd_sc_reference.outputs
    errors = {}
    for order in (1, 4, 9, 16, 25):
        result = _baseline_run(PAPER, cooling, order, 1e5, 1.0, 600.0)
        errors[order] = np.abs(result.outputs - ref).max(axis=0)
    return errors


@pytest.fixture(scope="module")
def tec_errors_vs_fd(fd_sc_reference):
    """Max |error| of the TEC's (T_s, T_c) vs the FD (surface, core) outputs."""
    ref = fd_sc_reference.outputs
    _, t_c, t_s = tec_run(TecModel(), 1e5 * VOL, 1.0, 600.0)
    return (float(np.abs(t_s - ref[:, 0]).max()),
            float(np.abs(t_c - ref[:, 1]).max()))


def test_criterion_2_spectral_convergence(csg_errors_vs_fd, tec_errors_vs_fd,
                                          fd_sc_error_bar):
    errs = {o: float(e.max()) for o, e in csg_errors_vs_fd.items()}
    seq = [errs[o] for o in (1, 4, 9, 16, 25)]
    monotone = all(b <= a + 1e-6 for a, b in zip(seq, seq[1:]))
    o1_surf, o1_core = csg_errors_vs_fd[1][:2]
    tec_surf, tec_core = tec_errors_vs_fd
    p, e_fd = fd_sc_error_bar
    resolved = 1.8 <= p <= 2.2 and errs[25] >= 10.0 * e_fd
    ok = (monotone and errs[25] <= 0.1
          and o1_core < tec_core and o1_surf < tec_surf and resolved)
    _report(2, ok, "max output error vs FD: " +
            ", ".join(f"O={o}: {errs[o]:.3f}" for o in (1, 4, 9, 16, 25)) +
            " degC (non-increasing; O=25 <= 0.1); O=1 vs TEC: core "
            f"{o1_core:.3f} < {tec_core:.3f}, surface {o1_surf:.3f} < "
            f"{tec_surf:.3f} degC; FD order p {p:.2f} (in [1.8, 2.2]), 128^2 "
            f"error ~{e_fd:.1e} degC (O=25 error {errs[25] / e_fd:.0f}x, >= 10x)")
    assert monotone, "errors must be non-increasing in model order"
    assert errs[25] <= 0.1, f"O=25 error {errs[25]:.4f} exceeds 0.1 degC"
    # The paper claims O=1 beats the TEC in accuracy and gives no O=1 figure
    # in degC. O=1's quadratic radial trial space misses the ln r term of the
    # annulus solution, so its error here is truncation, not oracle error.
    assert o1_core < tec_core, (
        f"core: O=1 error {o1_core:.4f} not below TEC T_c error "
        f"{tec_core:.4f} degC")
    assert o1_surf < tec_surf, (
        f"surface: O=1 error {o1_surf:.4f} not below TEC T_s error "
        f"{tec_surf:.4f} degC")
    # The FD oracle's own error bar: the O=25 error is not oracle error.
    assert 1.8 <= p <= 2.2, f"FD observed order {p:.3f} outside [1.8, 2.2]"
    assert errs[25] >= 10.0 * e_fd, (
        f"O=25 error {errs[25]:.4f} within 10x of the FD error estimate "
        f"{e_fd:.2e} degC")


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_radial_steady_state():
    cooling = CoolingConfig(SideCooling(400.0, 15.0), SideCooling(0.0, 15.0),
                            SideCooling(0.0, 15.0), SideCooling(0.0, 15.0),
                            scenario_name="SC-insulated-tabs")
    q = 1e5
    rise_exact = q * (0.032**2 - 0.004**2) / (2 * 400.0 * 0.032)
    diff_exact = (q * (0.032**2 - 0.004**2) / (4 * 0.67)
                  + q * 0.004**2 / (2 * 0.67) * np.log(0.004 / 0.032))
    ok = True
    details = []
    for order in (16, 25):
        result = _baseline_run(PAPER, cooling, order, q, 100.0, 40000.0)
        y = result.outputs[-1]
        rise = y[0] - 15.0
        diff = y[1] - y[0]
        ok &= abs(rise - rise_exact) <= 0.01 * rise_exact
        ok &= abs(diff - diff_exact) <= 0.02 * diff_exact
        details.append(f"O={order}: rise {rise:.3f} (exact {rise_exact:.3f}),"
                       f" core-surf {diff:.2f} (exact {diff_exact:.2f})")
    _report(3, ok, "; ".join(details))
    assert ok


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_energy_balance():
    insulated = CoolingConfig(*(SideCooling(0.0, 15.0) for _ in range(4)),
                              scenario_name="insulated")
    expected = 5e4 / (PAPER.rho * PAPER.cp)
    slopes = {}
    for order in (1, 9):
        result = _baseline_run(PAPER, insulated, order, 5e4, 1.0, 100.0,
                                     stride=25)
        slopes[f"O={order}"] = (result.T_mean[-1] - result.T_mean[0]) / (
            result.metrics_times[-1] - result.metrics_times[0])
    fd = fd_solve(PAPER, insulated, None, 5e4, FdConfig(64, 64, 0.1),
                  T_init=15.0, horizon=50.0, metrics_stride=100)
    slopes["FD"] = (fd.T_mean[-1] - fd.T_mean[0]) / (
        fd.metrics_times[-1] - fd.metrics_times[0])
    ok = all(abs(s - expected) <= 1e-3 * expected for s in slopes.values())
    _report(4, ok, ", ".join(f"{k}: {v:.6f}" for k, v in slopes.items())
            + f" K/s (expected {expected:.6f}, 0.1%)")
    assert ok


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_superposition():
    ok = True
    details = []
    for spec in (PAPER, POUCH_CELL):
        cooling = scenario_cooling("aTSC", spec.shape)
        model = _model(spec, cooling, 9)
        n_in = model.n_inputs
        total = np.zeros((41, 4))
        for j in range(4):
            tinf = np.zeros(4)
            tinf[j] = 5.0
            total = total + run(model, np.zeros(model.order), tinf, 0.0, 5.0,
                                200.0, metrics_stride=10**9).outputs
        combined = run(model, np.zeros(model.order), np.full(4, 5.0),
                       0.0, 5.0, 200.0, metrics_stride=10**9).outputs
        rel = np.abs(total - combined).max() / np.abs(combined).max()
        ok &= rel <= 1e-9
        details.append(f"{spec.shape} ({n_in} inputs): rel dev {rel:.2e}")
    _report(5, ok, "; ".join(details) + " (<= 1e-9)")
    assert ok


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_tec_steady_state():
    tec = TecModel(C_c=1079.6, C_s=48.35, R_c=0.65, R_u=0.08, T_inf=15.0)
    _, t_c, t_s = tec_run(tec, 10.0, 2.0, 60000.0)
    ok = abs(t_s[-1] - 15.8) <= 1e-6 and abs(t_c[-1] - 22.3) <= 1e-6
    _report(6, ok, f"T_s -> {t_s[-1]:.8f} (15.8), T_c -> {t_c[-1]:.8f} (22.3)")
    assert ok


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_tec_vs_csg_fidelity():
    cooling = scenario_cooling("SC")
    horizon, dt = 1800.0, 1.0
    profile = pulse_train(1.5e5, period=100.0, duty=0.5, horizon=horizon)
    q = resample_profile(profile, dt, horizon)
    q_fd = resample_profile(profile, 0.1, horizon)
    fd = fd_solve(PAPER, cooling, None, q_fd, FdConfig(64, 64, 0.1),
                  T_init=15.0, horizon=horizon, metrics_stride=10)

    model = _model(PAPER, cooling, 1)
    x0 = project_initial_state(model, 15.0)
    res = run(model, x0, None, q, dt, horizon, metrics_stride=1)

    tec = TecModel()
    times, t_c, t_s = tec_run(tec, q * VOL, dt, horizon)
    tec_mean, tec_grad = tec_metrics(t_c, t_s, PAPER)

    assert np.allclose(fd.metrics_times, res.metrics_times)
    e_csg = (np.abs(res.T_mean - fd.T_mean).max(),
             np.abs(res.T_max - fd.T_max).max(),
             np.abs(res.dTr_max - fd.dTr_max).max())
    e_tec = (np.abs(tec_mean - fd.T_mean).max(),
             np.abs(t_c - fd.T_max).max(),
             np.abs(tec_grad - fd.dTr_max).max())
    ok = all(c < t for c, t in zip(e_csg, e_tec))
    _report(7, ok,
            f"max errors vs FD (T_mean, T_max, dTr_max): O=1 "
            f"({e_csg[0]:.2f}, {e_csg[1]:.2f}, {e_csg[2]:.0f}) < TEC "
            f"({e_tec[0]:.2f}, {e_tec[1]:.2f}, {e_tec[2]:.0f})")
    assert ok


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_scenario_ordering():
    merits = {}
    for name in SCENARIOS:
        cooling = scenario_cooling(name)
        result = _baseline_run(PAPER, cooling, 16, 1e5, 2.0, 600.0,
                                     stride=5)
        merits[name] = {
            "T_mean": result.T_mean.max(), "T_max": result.T_max.max(),
            "dTr_max": result.dTr_max.max(), "dT": result.dT.max(),
        }
    lowest = lambda key: min(merits, key=lambda n: merits[n][key])
    highest = lambda key: max(merits, key=lambda n: merits[n][key])
    checks = {
        "aTSC lowest T_mean": lowest("T_mean") == "aTSC",
        "aTSC lowest T_max": lowest("T_max") == "aTSC",
        "btTC lowest dTr_max": lowest("dTr_max") == "btTC",
        "btTC lowest dT": lowest("dT") == "btTC",
        "bTC highest T_mean": highest("T_mean") == "bTC",
    }
    ok = all(checks.values())
    _report(8, ok, "; ".join(f"{k}: {v}" for k, v in checks.items()))
    assert ok, merits


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_closed_loop_tracking():
    q = 4e4
    traces = {}
    for name in SCENARIOS:
        model = _model(PAPER, scenario_cooling(name), 9)
        traces[name] = closed_loop_run(model, name, 20.0, q, dt=2.0,
                                       horizon=1200.0)
    tail = slice(int(0.8 * len(traces["aTSC"].times)), None)
    track_err = float(np.abs(traces["aTSC"].T_mean[tail] - 20.0).max())
    grads = {n: float(t.dTr_mean[tail].mean()) for n, t in traces.items()}
    others = [n for n in SCENARIOS if n != "btTC"]
    ordering = all(grads["btTC"] < grads[n] for n in others)
    ok = track_err <= 0.5 and ordering
    _report(9, ok, f"aTSC tail |T_mean - 20| = {track_err:.3f} (<= 0.5); "
            + "dTr_mean: " + ", ".join(f"{n}={grads[n]:.1f}" for n in SCENARIOS))
    assert track_err <= 0.5
    assert ordering, grads


# --------------------------------------------------------------- criterion 10

def test_criterion_10_geometry_sweep():
    from celltherm.cli import solve_constant_volume
    ratios = [2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    t_means, dz_maxes, volumes = [], [], []
    for ratio in ratios:
        length, r_out = solve_constant_volume(VOL, ratio, PAPER.R_in)
        cell = CellSpec(shape=CYLINDRICAL, L=length, R_out=r_out,
                        R_in=PAPER.R_in, rho=PAPER.rho, cp=PAPER.cp,
                        k_r=PAPER.k_r, k_z=PAPER.k_z)
        cooling = scenario_cooling("btTC")
        result = _baseline_run(cell, cooling, 16, 1e5, 2.0, 600.0,
                                     stride=10)
        t_means.append(result.T_mean.max())
        dz_maxes.append(result.dTz_max.max())
        volumes.append(cell_volume(cell))
    vol_ok = all(abs(v - VOL) <= 1e-10 * VOL for v in volumes)
    mono_t = all(b >= a for a, b in zip(t_means, t_means[1:]))
    mono_dz = all(b >= a for a, b in zip(dz_maxes, dz_maxes[1:]))
    ok = vol_ok and mono_t and mono_dz
    _report(10, ok, f"T_mean {t_means[0]:.2f}..{t_means[-1]:.2f} "
            f"(non-decreasing: {mono_t}); dTz_max {dz_maxes[0]:.1f}.."
            f"{dz_maxes[-1]:.1f} (non-decreasing: {mono_dz}); "
            f"volume constant: {vol_ok}")
    assert ok


# --------------------------------------------------------------- criterion 11

def test_criterion_11_timing_report():
    cooling = scenario_cooling("SC")
    horizon, dt = 120.0, 1.0
    profile = pulse_train(1.5e5, period=40.0, duty=0.5, horizon=horizon)
    q = resample_profile(profile, dt, horizon)
    tec = TecModel()
    entries = [("TEC", lambda: tec_run(tec, q * VOL, dt, horizon))]
    for order in (1, 4, 9, 16, 25):
        model = _model(PAPER, cooling, order)
        x0 = project_initial_state(model, 15.0)
        entries.append((f"O={order}",
                        lambda m=model, x=x0: run(
                            m, x, None, q, dt, horizon, metrics_stride=None)))
    table = timing_harness(entries, repetitions=5)
    by_name = {row["model"]: row["mean_ms"] for row in table}
    ratio = by_name["O=1"] / by_name["TEC"]
    ok = 0.1 <= ratio <= 10.0
    _report(11, ok, "mean ms: " + ", ".join(
        f"{r['model']}={r['mean_ms']:.2f}" for r in table)
        + f"; O=1/TEC ratio {ratio:.2f} (within one order of magnitude)")
    assert ok


# --------------------------------------------------------------- criterion 12

def test_criterion_12_cli_determinism(tmp_path):
    cfg = {
        "orders": [1, 4],
        "dt_s": 2.0,
        "horizon_s": 60.0,
        "fd": {"n_r": 20, "n_z": 20, "dt_s": 1.0},
        "grid": {"n_r": 15, "n_z": 15},
        "metrics_stride": 5,
        "scenarios": ["SC"],
        "control": {"c_rates": [1.0]},
        "sweep": {"ratios": [2.0, 5.0]},
        "heat": {"kind": "random_drive", "peak_current_A": 90.0},
        "timing": {"enabled": False},
        "out_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    commands = ["simulate", "validate", "compare-tec", "scenarios", "control",
                "sweep-geometry"]
    ok = True
    for command in commands:
        assert cli_main([command, "--config", str(cfg_path), "--seed", "42"]) == 0
    snapshot = {
        f.relative_to(tmp_path): f.read_bytes()
        for f in (tmp_path / "out").rglob("*")
        if f.suffix in (".csv", ".json") and f.is_file()
    }
    assert snapshot, "commands produced no outputs"
    for command in commands:
        assert cli_main([command, "--config", str(cfg_path), "--seed", "42"]) == 0
    for rel, blob in snapshot.items():
        if (tmp_path / rel).read_bytes() != blob:
            ok = False
    _report(12, ok, f"{len(snapshot)} CSV/JSON artifacts byte-identical "
            f"across re-runs of {len(commands)} commands")
    assert ok
