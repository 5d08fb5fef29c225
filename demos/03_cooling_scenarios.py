"""Where should the coolant go? Five tab/surface cooling layouts compared.

The five presets place active liquid cooling (h = 400 W/m^2/K) on different
cell faces, with mild air convection (h = 30) elsewhere:

    SC    surface only
    bTC   bottom tab only
    bTSC  bottom tab + surface
    btTC  both tabs
    aTSC  both tabs + surface (immersion-like)

Each runs the same constant 100 kW/m^3 load for ten minutes on a 16-state
model; the table reports the worst value of each merit over the run.

Run:  python demos/03_cooling_scenarios.py
"""

import celltherm as ct

spec = ct.PAPER_CELL
q = 1e5
horizon = 600.0

print(f"{'scenario':<8s} {'T_mean':>8s} {'T_max':>8s} {'dTr_max':>9s} "
      f"{'dTz_max':>9s} {'dT':>7s}")
merits = {}
for name in ct.SCENARIOS:
    cooling = ct.scenario_cooling(name)
    model = ct.assemble(spec, cooling, 4, 4)
    x0 = ct.project_initial_state(model, 15.0)
    res = ct.run(model, x0, None, q, dt=2.0, horizon=horizon, metrics_stride=5)
    merits[name] = (res.T_mean.max(), res.T_max.max(), res.dTr_max.max(),
                    res.dTz_max.max(), res.dT.max())
    t_mean, t_max, d_r, d_z, d_t = merits[name]
    print(f"{name:<8s} {t_mean:>7.2f}C {t_max:>7.2f}C {d_r:>7.0f}/m "
          f"{d_z:>7.0f}/m {d_t:>6.2f}K")

coolest = min(merits, key=lambda n: merits[n][0])
most_uniform = min(merits, key=lambda n: merits[n][4])
print(f"\nImmersion-style {coolest} runs coolest, but symmetric tab cooling"
      f"\n({most_uniform}) keeps the cell most uniform: the radial path is the"
      "\nconduction bottleneck (k_r is two orders below k_z), so any actively"
      "\ncooled surface buys mean temperature at the cost of radial gradient.")
