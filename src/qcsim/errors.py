"""Exception types shared across the framework."""


class QcsimError(Exception):
    """Base class for all framework errors."""


class DuplicateServiceError(QcsimError):
    """A (kind, name) pair was registered twice."""


class ServiceNotFoundError(QcsimError):
    """Lookup of an unregistered (kind, name) pair."""


class HetMapTypeError(QcsimError):
    """A HeterogeneousMap key was read with the wrong value kind."""


class IRError(QcsimError):
    """Invalid instruction construction or evaluation."""


class KernelParseError(QcsimError):
    """Kernel source rejected, with position information."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class OptimizationError(QcsimError):
    """Classical optimizer failure (bad options, NaN objective, ...)."""


class BackendError(QcsimError):
    """Accelerator misuse (symbolic circuit, bad qubit index, ...)."""


class AlgorithmError(QcsimError):
    """Algorithm initialization or execution failure."""


class ConfigError(QcsimError):
    """Batch config file missing, incomplete or inconsistent."""
