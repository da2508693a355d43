"""Exception types shared across the library."""

__all__ = [
    "SetKernError", "InvalidSetError", "DomainError", "InvalidOperatorError", "AbsoluteContinuityError",
    "NotPositiveError", "VerificationError", "InconsistencyError", "InvalidBasisError", "InvalidChainError",
    "NotTransientError", "InvalidCovarianceError", "OrderingError", "ConfigError",
]


class SetKernError(Exception):
    """Base class for every error raised by this package."""


class InvalidSetError(SetKernError):
    """A set references atom indices outside its measure space."""


class DomainError(SetKernError):
    """Input outside what the library accepts.

    Objects from different measure spaces were mixed; a measure space or partition is invalid; a sample count,
    seed or worker count is outside its integer range; an atom vector or coefficient array has the wrong shape;
    or a weight or coefficient is outside the float domain.
    """


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


class InvalidChainError(SetKernError):
    """A transition matrix is not substochastic or the chain is otherwise malformed."""


class NotTransientError(SetKernError):
    """The chain's spectral bound reaches 1, so it has no Green function; ``markov.check_transient`` reports the bound."""


class InvalidCovarianceError(SetKernError):
    """A covariance (Gram) matrix is indefinite beyond tolerance."""


class OrderingError(SetKernError):
    """A partition sequence is not ordered by refinement."""


class ConfigError(SetKernError):
    """An experiment config failed to parse or validate."""
