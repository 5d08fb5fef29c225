"""Hypothesis strategies and helpers shared by the test modules."""

import numpy as np
from hypothesis import strategies as st

from celltherm.core import CYLINDRICAL, POUCH, SIDES, CellSpec, CoolingConfig, SideCooling


@st.composite
def cells_and_coolings(draw):
    """A random physical cell with a random per-side cooling (h = 0 on some
    sides; a cylinder's core is never cooled)."""
    unit = st.floats(0.0, 1.0)
    shape = draw(st.sampled_from([CYLINDRICAL, POUCH]))
    props = dict(L=0.05 + 0.25 * draw(unit), rho=1500.0 + 1500.0 * draw(unit),
                 cp=700.0 + 500.0 * draw(unit), k_r=0.3 + 3.0 * draw(unit),
                 k_z=1.0 + 99.0 * draw(unit))
    if shape == CYLINDRICAL:
        r_out = 0.01 + 0.04 * draw(unit)
        spec = CellSpec(shape=shape, R_out=r_out,
                        R_in=r_out * (0.05 + 0.45 * draw(unit)), **props)
    else:
        spec = CellSpec(shape=shape, D=0.05 + 0.25 * draw(unit), **props)
    sides = []
    for side in ("surface", "core", "top", "bottom"):
        cooled = draw(st.booleans()) and not (side == "core" and shape == CYLINDRICAL)
        h = 5.0 + 995.0 * draw(unit) if cooled else 0.0
        sides.append(SideCooling(h, 40.0 * draw(unit)))
    return spec, CoolingConfig(*sides)


def to_modal(model, X, inverse=False):
    """The modal coordinates (V_r (x) V_z)^-1 X of Galerkin states X
    (..., order), or with ``inverse`` the Galerkin states (V_r (x) V_z) X of
    modal coordinates X: the map between a dense Galerkin reference and the
    modal coordinates in which the package keeps every state."""
    r, z = model.modes_r, model.modes_z
    left, right = (r.V, z.V) if inverse else (r.V_inv, z.V_inv)
    X = np.asarray(X, dtype=float)
    return (left @ X.reshape(-1, model.M, model.N) @ right.T).reshape(X.shape)


def cooling_powers(model, tinf):
    """The inputs u = h T_inf (..., n_inputs) of coolant temperatures
    (..., 4) in ``SIDES`` order, formed by hand side by side from the
    model's cooling config: the reference for the package's own."""
    tinf = np.asarray(tinf, dtype=float)
    return np.stack([model.cooling.side(s).h * tinf[..., SIDES.index(s)]
                     for s in model.sides], axis=-1)
