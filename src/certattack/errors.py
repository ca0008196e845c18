"""Exception types shared across the package."""


class CertAttackError(Exception):
    """Base class for all package errors."""


class ParameterError(CertAttackError, ValueError):
    """An argument or configuration value is outside its allowed range."""


class GraphLoadError(CertAttackError):
    """A dataset file could not be parsed; message carries file and line."""


class DimensionError(CertAttackError, ValueError):
    """Array shapes are inconsistent with each other."""


class DomainError(CertAttackError, ValueError):
    """An array entry lies outside its required domain."""


class NumericError(CertAttackError, ArithmeticError):
    """A non-finite value appeared; message names the computation stage."""


class TrainingError(CertAttackError):
    """Training diverged; message reports the epoch, and `model` the index
    of the failing model in a stacked training."""

    def __init__(self, message: str, model: int = 0):
        super().__init__(message)
        self.model = model


class CertificationError(CertAttackError):
    """A smoothing replicate failed or a certification assumption broke."""
