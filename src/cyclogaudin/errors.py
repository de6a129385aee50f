"""Exception hierarchy shared across the package."""


class CycloGaudinError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(CycloGaudinError):
    """Matrix dimensions of two operands disagree."""


class InvalidOrderError(CycloGaudinError):
    """A root-of-unity order or hierarchy depth is out of range."""


class PoleProximityError(CycloGaudinError):
    """Evaluation or construction too close to a pole point."""


class TruncationError(CycloGaudinError):
    """A Laurent-series coefficient beyond the known truncation was requested."""


class GradingError(CycloGaudinError):
    """A matrix violates its declared Z_T-grading constraint."""


class StructuralError(CycloGaudinError):
    """A rational matrix has pole structure incompatible with expectations."""


class DivergenceError(CycloGaudinError):
    """Non-finite state encountered during integration; last_good is the
    trajectory up to the last finite sample, the start sample at least, or
    None for a non-finite result that keeps no trajectory."""

    def __init__(self, message, last_good):
        super().__init__(message)
        self.last_good = last_good


class ConfigError(CycloGaudinError):
    """Invalid run configuration or command-line usage."""


class AdmissibilityError(CycloGaudinError):
    """A flow id is not admissible for the given model."""
