"""How small can the model get? Reduced orders vs the finite-difference solver.

A 45 Ah LFP cylindrical cell (198 mm tall, 32 mm outer / 4 mm inner radius)
heats at a constant 100 kW/m^3 under surface cooling for ten minutes. The
finite-difference solution of the full 2D heat equation serves as ground
truth; the reduced spectral models of orders 1, 4, 9, 16, and 25 come from one
model library and are compared at the four mid-side output temperatures.
Every run is outputs-only: no temperature field is reconstructed.

Run:  python demos/01_validate_against_fd.py
"""

import numpy as np

import celltherm as ct
from celltherm.reference import FdConfig, fd_solve

spec = ct.PAPER_CELL
cooling = ct.scenario_cooling("SC")
q = 1e5          # W/m^3
horizon = 600.0  # s

print("Finite-difference reference (128 x 128, Crank-Nicolson, dt = 0.05 s)...")
fd = fd_solve(spec, cooling, None, q, FdConfig(128, 128, 0.05),
              T_init=15.0, horizon=horizon, metrics_stride=None)
print(f"  surface/core mid-points at t = {horizon:.0f} s: "
      f"{fd.outputs[-1, 0]:.2f} / {fd.outputs[-1, 1]:.2f} degC")

print("\norder  states  max |output error| over the run")
library = ct.assemble_library(spec, cooling, [(n, n) for n in (1, 2, 3, 4, 5)])
for model in library.values():
    x0 = ct.project_initial_state(model, 15.0)
    res = ct.run(model, x0, None, q, dt=1.0, horizon=horizon, metrics_stride=None)
    err = np.abs(res.outputs - fd.outputs[::20]).max()
    print(f"O={model.order:<4d} {model.order:>5d}  {err:10.4f} degC")

print("\nThe reduced model converges spectrally: each added basis function"
      "\nper direction cuts the worst-case output error by roughly 3x,"
      "\nreaching hundredths of a degree with 25 states.")
