"""Short and fat or tall and thin? A constant-volume cell-shape study.

Keeping the cell volume (and hence the total heat) fixed and the inner
radius at 4 mm, the height-to-radius ratio L/R_out is swept while the model
is reassembled for each geometry under both-tabs cooling. Markers flag the
ratios of common market formats (18650, 26650, 21700, 4680).

Run:  python demos/05_geometry_sweep.py
"""

import celltherm as ct
from celltherm.cli import MARKET_CELL_RATIOS, solve_constant_volume
from celltherm.core import cell_volume

spec = ct.PAPER_CELL
volume = cell_volume(spec)
q = 1e5
horizon = 600.0

print(f"{'L/R_out':>7s} {'L [mm]':>8s} {'R_out [mm]':>10s} {'T_mean':>8s} "
      f"{'dTr_max':>9s} {'dTz_max':>9s}")
for ratio in (2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0):
    length, r_out = solve_constant_volume(volume, ratio, spec.R_in)
    cell = ct.CellSpec(shape="cylindrical", L=length, R_out=r_out,
                       R_in=spec.R_in, rho=spec.rho, cp=spec.cp,
                       k_r=spec.k_r, k_z=spec.k_z)
    cooling = ct.scenario_cooling("btTC")
    model = ct.assemble(cell, cooling, 4, 4)
    x0 = ct.project_initial_state(model, 15.0)
    res = ct.run(model, x0, None, q, dt=2.0, horizon=horizon, metrics_stride=10)
    print(f"{ratio:>7.1f} {1e3 * length:>8.1f} {1e3 * r_out:>10.1f} "
          f"{res.T_mean.max():>7.2f}C {res.dTr_max.max():>7.0f}/m "
          f"{res.dTz_max.max():>7.0f}/m")

print("\nMarket formats for reference (L/R_out):")
for name, ratio in MARKET_CELL_RATIOS.items():
    print(f"  {name:>6s}: {ratio}")
print("\nUnder tab cooling, squat cells win on every count: shorter axial"
      "\npaths and larger tab areas keep both the mean temperature and the"
      "\ngradients down, which favours the 4680-style format.")
