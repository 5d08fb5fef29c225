"""Exception types shared across the package.

The CLI maps these onto exit codes (config errors -> 2, numerical
failures -> 3, unsupported combinations -> 4). Plain argument misuse
raises ValueError.
"""


class ModelError(Exception):
    """Base class for model construction and simulation failures."""


class BasisConstructionError(ModelError):
    """The 2x2 system for a basis function's combination coefficients is singular."""


class DegenerateBoundaryError(ModelError):
    """The per-side boundary scalars form a singular 2x2 system."""


class IllConditionedBasisError(ModelError):
    """A Gram matrix of the basis is numerically singular."""


class AssemblyError(ModelError):
    """A 1D pencil of any model (Galerkin, FD or TEC) is not
    diagonalizable, or a Galerkin model is not dissipative."""


class NumericalError(ModelError):
    """A simulation produced non-finite values or an oracle solve failed."""


class UnsupportedShapeError(ModelError):
    """The requested operation does not apply to this cell shape."""


class ConfigError(Exception):
    """A run configuration file is malformed or inconsistent."""
