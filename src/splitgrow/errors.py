"""Exception types shared across the package."""

__all__ = ["SplitgrowError", "InvalidParameterError", "UnknownTailError", "RegimeError",
           "NoConvergenceError", "SingularSystemError", "RankDeficientError",
           "NonPositiveError", "DegeneracyError", "InvalidDegreeError"]


class SplitgrowError(Exception):
    """Base class for all splitgrow errors."""


class InvalidParameterError(SplitgrowError, ValueError):
    """A constructor argument is outside its admissible range."""


class UnknownTailError(SplitgrowError):
    """An unbounded model carries no usable information about the behaviour
    of i * w[1, i+1] for large i, so the infimum cannot be determined."""


class RegimeError(SplitgrowError):
    """The model is outside the regime for which the density iteration is
    guaranteed to converge to the census limit."""


class NoConvergenceError(SplitgrowError):
    """``solver.iterate_from_below`` hit its step budget before a step fell
    below the tolerance, or reached an iterate that is not finite."""


class SingularSystemError(SplitgrowError):
    """A solver's Hessenberg elimination met a zero pivot or gave non-finite
    values, or a stationary system normalised in row 0 is singular because
    degree-1 vertices never split, or the backward recurrence of a
    ``by_split_degree`` partition meets a degree whose vertices never split
    or a zero divisor."""


class RankDeficientError(SplitgrowError):
    """The stationary system of a bounded model, normalised by ``sum rho = 1``
    in row 0, is singular (its other rows have rank below d_max - 1): the
    bounded-degree solve cannot single out a density vector."""


class NonPositiveError(SplitgrowError):
    """A solved density came out significantly negative."""


class DegeneracyError(SplitgrowError):
    """Total sampling weight is not positive; no growth step can be taken."""


class InvalidDegreeError(SplitgrowError):
    """No admissible split exists for the requested degree."""
