"""Exception taxonomy for the esdib package.

Every error raised on purpose derives from :class:`EsdibError` so callers
can catch the whole family at once.  The subclasses separate the failure
domains the command line driver maps to distinct exit codes: configuration
problems, numerical solver failures, and geometric degeneracy stops.
"""


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
    """A configuration file, preset id, or override is invalid."""


class DataError(EsdibError):
    """Unusable data: a diagnostic series that is too short or has
    non-positive areas, a field of the wrong shape, or a file that
    :func:`esdib.read_vtk` cannot read."""
