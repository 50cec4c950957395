"""Exception types shared across the package."""


class LatticeError(Exception):
    """Base class for domain errors raised by this package."""


class InputError(ValueError):
    """Malformed or out-of-range input: an argument, an option or a lattice file."""


class NotSymmetric(LatticeError):
    pass


class NotPositiveDefinite(LatticeError):
    pass


class NotWellRounded(LatticeError):
    pass


class FewerThanTwoPairs(LatticeError):
    pass


class RationalizationFailed(LatticeError):
    pass


class DimensionGuardExceeded(LatticeError):
    pass


class PairCountGuardExceeded(LatticeError):
    pass


class SubsetGuardExceeded(LatticeError):
    pass


class NotNearlyOrthogonal(LatticeError):
    """A routine that requires a nearly orthogonal input basis rejected its input."""


class PlanarSearchFailed(LatticeError):
    pass


class VerificationFailed(LatticeError):
    """Post-hoc verification of a float-mode result failed.

    Carries a diagnostics dict so callers can see which check broke.
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
