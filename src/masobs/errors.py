"""Exception types shared across the package."""


class MasobsError(Exception):
    """Base class for all package-specific errors."""


class InputError(MasobsError, ValueError):
    """A value read from a file, or given to a configuration, is malformed."""


class CycleError(MasobsError):
    """A graph expected to be acyclic contains a directed cycle."""

    def __init__(self, message, cycle=None):
        super().__init__(message)
        self.cycle = tuple(cycle) if cycle is not None else None


class SymmetryError(MasobsError):
    """A weight matrix expected to be symmetric is not."""


class DimensionError(MasobsError):
    """Matrix or vector dimensions are inconsistent."""


class AssumptionError(MasobsError):
    """A structural model assumption does not hold."""


class UnobservableError(MasobsError):
    """A matrix pair required to be observable is not."""


class ConnectivityError(MasobsError):
    """A graph does not meet the required connectivity condition."""


class LayerError(MasobsError):
    """Some agent cannot be assigned a hierarchy layer."""

    def __init__(self, message, unreachable=None):
        super().__init__(message)
        self.unreachable = tuple(unreachable) if unreachable is not None else None


class NonFiniteError(MasobsError):
    """A simulated state stopped being finite."""


class DomainError(MasobsError):
    """A numeric argument lies outside the valid domain."""
