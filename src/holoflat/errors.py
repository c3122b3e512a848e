"""Exception types shared across the package."""

__all__ = ["ValidationError", "QuadratureError", "FactorizationError"]


class ValidationError(ValueError):
    """Input or configuration failed a documented precondition."""


class QuadratureError(RuntimeError):
    """A quadrature evaluation hit a non-finite or guarded value at a node."""


class FactorizationError(ValueError):
    """A Gram matrix could not be factorized (loss of positive-definiteness)."""
