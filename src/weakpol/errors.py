"""Typed errors shared across the package.

Degenerate inputs (zero measurement strength, impossible postselection,
empty count records) raise typed exceptions instead of propagating
infinities or NaNs into result tables; callers that want a flag catch the
specific class.
"""


class WeakpolError(Exception):
    """Base class for all package errors."""


class UnknownModeError(WeakpolError, KeyError):
    """A mode label is not registered in the network."""


class PhotonCapError(WeakpolError, ValueError):
    """An operation would put more than two photons into a Fock state."""


class ZeroNormError(WeakpolError, ValueError):
    """An expectation value was requested on a zero-norm state."""


class ZeroStrengthError(WeakpolError, ZeroDivisionError):
    """Measurement strength is zero: derived ratios are unbounded.

    Carries ``code = "weak_value_unbounded"`` so tabulating callers can
    record a flag instead of a number.
    """

    code = "weak_value_unbounded"


class PostselectionImpossibleError(WeakpolError, ValueError):
    """Postselection probability is zero; conditionals are undefined."""


class ZeroCountsError(WeakpolError, ValueError):
    """An estimator received a count record with no events."""


class InfeasibleTargetError(WeakpolError, ValueError):
    """A fit target lies outside the range the model can reach."""


class InversionRangeError(WeakpolError, ValueError):
    """A measured value lies outside the invertible range of the model."""
