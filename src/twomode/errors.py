"""Exception types shared across the package."""

__all__ = [
    "TwoModeError", "DimensionError", "SymmetryError", "NonFiniteError",
    "NotPositiveDefinite", "BlockNotPositiveDefinite", "SingularInput",
    "PreconditionViolated", "NumericalError", "PairingError",
    "InternalInconsistency", "DegeneracyWarning",
]


class TwoModeError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(TwoModeError, ValueError):
    """Matrix has the wrong shape (non-square, odd, or unsupported size)."""


class SymmetryError(TwoModeError, ValueError):
    """Matrix violates a required (anti)symmetry beyond tolerance."""


class NonFiniteError(TwoModeError, ValueError):
    """Matrix contains NaN or infinite entries."""


class NotPositiveDefinite(TwoModeError, ValueError):
    """A positive-definiteness precondition failed.

    The smallest eigenvalue is attached as ``min_eig`` when available.
    """

    def __init__(self, message, min_eig=None):
        super().__init__(message)
        self.min_eig = min_eig


class BlockNotPositiveDefinite(NotPositiveDefinite):
    """A diagonal 2x2 block failed positivity; ``block`` names which one."""

    def __init__(self, message, block, min_eig=None):
        super().__init__(message, min_eig=min_eig)
        self.block = block


class SingularInput(TwoModeError, ValueError):
    """Input is singular where the operation needs an invertible matrix."""


class PreconditionViolated(TwoModeError, ValueError):
    """The operation was consulted outside its stated domain."""


class NumericalError(TwoModeError, ArithmeticError):
    """A quantity violated a bound that holds exactly in real arithmetic."""


class PairingError(NumericalError):
    """Eigenvalues failed to pair up within tolerance."""


class InternalInconsistency(TwoModeError, RuntimeError):
    """Two equivalent formulations disagreed; indicates a bug, not bad input."""


class DegeneracyWarning(UserWarning):
    """Symplectic eigenvalues coincide within tolerance; results are still valid
    but the diagonalizing transform is not unique beyond the usual rotations."""
