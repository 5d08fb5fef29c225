"""Reduced-order 2D thermal models for battery cells.

A spectral-Galerkin discretization with Robin-adapted Chebyshev bases turns
the 2D heat equation of a cylindrical or pouch cell into a small LTI
state-space system driven by the coolant temperature of each side, validated
against an in-package finite-difference solver and a two-state lumped
benchmark, and applied to cooling-scenario analysis, closed-loop mean
temperature control, and constant-volume geometry sweeps.
"""

from .core import (
    CellSpec,
    CoolingConfig,
    HeatProfile,
    SideCooling,
    SCENARIOS,
    cell_volume,
    constant_profile,
    input_sides,
    resample_profile,
    scenario_cooling,
)
from .galerkin import (
    OUTPUT_LOCATIONS,
    ReducedModel,
    assemble,
    assemble_library,
    project_initial_state,
)
from .simulate import FieldEvaluator, MetricsRecord, SimResult, discretize, run

__version__ = "0.1.0"

PAPER_CELL = CellSpec(shape="cylindrical", L=0.198, R_out=0.032, R_in=0.004,
                      rho=2118.0, cp=795.0, k_r=0.67, k_z=66.6)
"""Large-format 45 Ah LFP cylindrical cell used throughout the demos."""
