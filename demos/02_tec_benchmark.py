"""Single-state spectral model vs the classic two-state lumped circuit.

Both models chase the finite-difference ground truth through a pulsed load
(150 kW/m^3 bursts, 50% duty, 100 s period, half an hour). The lumped
circuit uses published identified parameters for this cell under surface
cooling. The comparison looks at the three quantities a battery management
system actually needs: mean temperature, maximum temperature, and the peak
radial gradient.

Run:  python demos/02_tec_benchmark.py
"""

import numpy as np

import celltherm as ct
from celltherm.core import cell_volume, resample_profile
from celltherm.profiles import pulse_train
from celltherm.reference import FdConfig, TecModel, fd_solve, tec_metrics, tec_run

spec = ct.PAPER_CELL
cooling = ct.scenario_cooling("SC")
vol = cell_volume(spec)
horizon, dt = 1800.0, 1.0

profile = pulse_train(1.5e5, period=100.0, duty=0.5, horizon=horizon)
q = resample_profile(profile, dt, horizon)

print("Ground truth: finite differences, 64 x 64, dt = 0.1 s ...")
fd = fd_solve(spec, cooling, None, resample_profile(profile, 0.1, horizon),
              FdConfig(64, 64, 0.1), T_init=15.0, horizon=horizon,
              metrics_stride=10)

model = ct.assemble(spec, cooling, 1, 1)
x0 = ct.project_initial_state(model, 15.0)
res = ct.run(model, x0, None, q, dt, horizon, metrics_stride=1)

tec = TecModel()   # C_c = 1079.6 J/K, C_s = 48.35 J/K, R_c = 0.65, R_u = 0.08
_, t_c, t_s = tec_run(tec, q * vol, dt, horizon)
tec_mean, tec_grad = tec_metrics(t_c, t_s, spec)

rows = {
    "spectral O=1": (res.T_mean - fd.T_mean, res.T_max - fd.T_max,
                     res.dTr_max - fd.dTr_max),
    "lumped 2-state": (tec_mean - fd.T_mean, t_c - fd.T_max,
                       tec_grad - fd.dTr_max),
}
print(f"\n{'model':<15s} {'T_mean err':>11s} {'T_max err':>11s} {'dTr_max err':>13s}")
for name, (e1, e2, e3) in rows.items():
    print(f"{name:<15s} {np.abs(e1).max():>9.2f} K {np.abs(e2).max():>9.2f} K "
          f"{np.abs(e3).max():>9.0f} K/m")

print("\nWith the same single input trajectory, one spectral state beats the"
      "\ntwo-state circuit on every indicator; the circuit's end-to-end slope"
      "\nunderestimates the true peak radial gradient by several hundred K/m.")
