"""Exception taxonomy for hestonlab.

Every failure raised by this package derives from :class:`HestonLabError`,
so callers can catch package errors without swallowing unrelated ones.
Validation-style failures additionally derive from ``ValueError``.
"""


class HestonLabError(Exception):
    """Base class for all hestonlab failures."""


# ---------------------------------------------------------------------------
# parameter validation

class InvalidParams(HestonLabError, ValueError):
    """A coefficient record violates a hard constraint."""


class NonPositiveA(InvalidParams):
    """Mean-reversion level coefficient ``a`` must be strictly positive."""


class NonPositiveSigma(InvalidParams):
    """A diffusion coefficient (``sigma1`` or ``sigma2``) must be strictly positive."""


class RhoOutOfRange(InvalidParams):
    """Correlation ``rho`` must lie strictly inside (-1, 1)."""


class NonPositiveY0(InvalidParams):
    """Initial variance ``y0`` must be strictly positive."""


class NotSubcritical(HestonLabError):
    """Operation requires ``b > 0`` (ergodic variance process)."""


# ---------------------------------------------------------------------------
# path simulation

class InvalidGrid(HestonLabError, ValueError):
    """A time grid needs a finite horizon > 0 and a positive integer step count."""


class FellerViolated(HestonLabError):
    """Square-root-transform schemes require ``a > sigma1**2 / 2``."""


class NonPositiveZ(HestonLabError):
    """Explicit square-root step left the positive half-line; path aborted."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class NegativeInput(HestonLabError, ValueError):
    """A step kernel that assumes a nonnegative state was fed a negative one."""


class LengthMismatch(HestonLabError, ValueError):
    """Array lengths are inconsistent with the time grid."""


# ---------------------------------------------------------------------------
# estimation

class PathTooShort(HestonLabError, ValueError):
    """At least two grid points (one increment) are required."""


class NonFinitePath(HestonLabError):
    """A path functional, or the scaling discriminant e1*e3 - e2^2, is not a
    finite number, for example after the variance overflowed."""


class DegeneratePath(HestonLabError):
    """Regressor values carry no spread; the normal equations are singular."""


class NonPositiveScalingDiscriminant(HestonLabError):
    """Path-moment discriminant needed by the self-normalizing transform is not positive."""


# ---------------------------------------------------------------------------
# Monte Carlo statistics

class InsufficientData(HestonLabError, ValueError):
    """Sample too small for the requested statistic."""


class TiesDegenerate(HestonLabError):
    """Sample has zero spread; order-statistic test undefined."""


class DegenerateSample(HestonLabError):
    """Sample unusable for histogram construction."""


class AllReplicatesFailed(HestonLabError):
    """Every replicate of a Monte Carlo run aborted; nothing to summarize."""


# ---------------------------------------------------------------------------
# configuration / file formats

class ConfigParseError(HestonLabError, ValueError):
    """Experiment configuration text is malformed or incomplete."""


class CsvFormatError(HestonLabError, ValueError):
    """A path CSV file does not follow the ``t,y,x`` layout."""
