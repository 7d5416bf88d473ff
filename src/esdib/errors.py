"""Exception taxonomy for the esdib package, and the three checks of a value.

A bad argument value, an array of the wrong shape included, is a
``ValueError`` that starts with the argument's name, raised by the type or
function that owns the value; :func:`check_count`, :func:`check_real` and
:func:`check_shape` write the common rules once.  Every other error raised on
purpose derives from :class:`EsdibError`.  The subclasses separate the
failure domains the command line driver maps to distinct exit codes:
configuration problems (:class:`ConfigError`, raised by the config layer and
the command line; the config layer re-raises an owner's ``ValueError`` under
the ``section.key`` it came from), numerical solver failures, and geometric
degeneracy stops.
"""

import math
import numbers

import numpy as np

# The scalar checks name int and float before the ABC: isinstance against an
# ABC alone takes about 0.4 us, against a builtin type a tenth of that.


def check_count(name: str, value, least: int) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer, not a bool, at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)) or value < least:
        raise ValueError(f"{name} must be an integer at least {least}, got {value!r}")


def check_real(name: str, value, positive: bool = False, nonnegative: bool = False) -> None:
    """Raise ``ValueError`` unless ``value`` is a finite real number, not a bool nor a numpy
    float other than float64, and above 0 when ``positive`` or at least 0 when ``nonnegative``."""
    if not isinstance(value, float) and isinstance(value, np.floating):
        raise ValueError(f"{name} must be a Python float or a float64, got {value!r}")
    if (isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real))
            or not math.isfinite(value)
            or (positive and value <= 0) or (nonnegative and value < 0)):
        bound = "positive and " if positive else "at least 0 and " if nonnegative else ""
        raise ValueError(f"{name} must be {bound}a finite number, got {value!r}")


def check_shape(name: str, value, shape: tuple) -> None:
    """Raise ``ValueError`` unless ``np.shape(value)`` is ``shape``; a ``None`` is any length."""
    got = np.shape(value)
    if got != shape and (len(got) != len(shape)
                         or any(w not in (None, g) for g, w in zip(got, shape))):
        wanted = str(tuple("any" if w is None else w for w in shape)).replace("'", "")
        raise ValueError(f"{name} must have shape {wanted}, got {got}")


class EsdibError(Exception):
    """Base class for all errors raised by this package."""


class MeshStructureError(EsdibError):
    """Connectivity is invalid: bad indices, inconsistent winding, non-manifold edges."""


class DegenerateGeometryError(EsdibError):
    """Geometry is unusable: zero-area triangle, vanishing normal."""


class NumericsError(EsdibError):
    """A computed quantity is non-finite (overflow or NaN blow-up)."""


class SolverConvergenceError(NumericsError):
    """The iterative linear solver failed to reach its tolerance."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class DegeneracyStop(EsdibError):
    """Raised by the stepper when the moving mesh falls below quality thresholds.

    This is a controlled stop, not a crash: the pre-step state is still
    valid and the run loop converts it into a truncated result.
    """

    def __init__(self, message: str, step_index: int, time: float):
        super().__init__(message)
        self.step_index = step_index
        self.time = time


class ModeError(EsdibError):
    """An operation that only makes sense on a fixed surface was requested on a moving one."""


class ConfigError(EsdibError):
    """A configuration file, preset id, override or command line is invalid."""


class DataError(EsdibError):
    """A file that :func:`esdib.read_vtk` cannot read."""
