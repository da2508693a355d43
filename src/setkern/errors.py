"""Exception types shared across the library."""

__all__ = [
    "SetKernError", "InvalidSetError", "DomainError", "InvalidOperatorError", "AbsoluteContinuityError",
    "NotPositiveError", "VerificationError", "InconsistencyError", "InvalidBasisError", "InvalidMapError",
    "InvalidChainError", "NotTransientError", "InvalidCovarianceError", "OrderingError", "ConfigError",
]


class SetKernError(Exception):
    """Base class for every error raised by this package."""


class InvalidSetError(SetKernError):
    """A set references atom indices outside its measure space."""


class DomainError(SetKernError):
    """Objects from different measure spaces were mixed, or a partition is invalid."""


class InvalidOperatorError(SetKernError):
    """An atom matrix is not selfadjoint or not PSD in the weighted geometry."""


class AbsoluteContinuityError(SetKernError):
    """The kernel charges a null set, so no density against the base measure exists."""


class NotPositiveError(SetKernError):
    """A matrix expected to be positive semidefinite has a genuinely negative eigenvalue."""


class VerificationError(SetKernError):
    """A constructed factorization failed its reconstruction check."""


class InconsistencyError(SetKernError):
    """Two computation routes that must agree differ beyond tolerance."""


class InvalidBasisError(SetKernError):
    """A vector family is not a complete orthonormal basis of the weighted L2 space."""


class InvalidMapError(SetKernError):
    """An atom map does not cover the source space or hits unknown targets."""


class InvalidChainError(SetKernError):
    """A transition matrix is not substochastic or the chain is otherwise malformed."""


class NotTransientError(SetKernError):
    """The chain's spectral bound reaches 1, so the Green series diverges."""

    def __init__(self, message: str, spectral_bound: float | None = None):
        super().__init__(message)
        self.spectral_bound = spectral_bound


class InvalidCovarianceError(SetKernError):
    """A covariance (Gram) matrix is indefinite beyond tolerance."""


class OrderingError(SetKernError):
    """A partition sequence is not ordered by refinement."""


class ConfigError(SetKernError):
    """An experiment config failed to parse or validate."""
