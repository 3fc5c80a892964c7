"""Exception taxonomy for hestonlab.

Every failure raised by this package derives from :class:`HestonLabError`,
so callers can catch package errors without swallowing unrelated ones.
Validation-style failures additionally derive from ``ValueError``.
"""

import math
import numbers


class HestonLabError(Exception):
    """Base class for all hestonlab failures."""


class InvalidArgument(HestonLabError, ValueError):
    """An argument of a kind the function does not take, such as a str or
    None where it needs numbers, or a record of another type."""


def require_instance(value, kind, name: str):
    """``value``, unless it is not a ``kind`` (a type, or a tuple of types):
    then ``InvalidArgument`` naming ``name``."""
    if not isinstance(value, kind):
        # "an" before a vowel, and before the letters of LSE, MC and XY
        wanted = [("an " if k.__name__.startswith(tuple("AEIOUX") + ("Lse", "Mc")) else "a ")
                  + k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,))]
        raise InvalidArgument(f"{name} must be {' or '.join(wanted)}, got {value!r}")
    return value


def require_positive(value, name: str, error: type) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is a finite real
    number > 0; a bool is not."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and 0.0 < value < math.inf):
        raise error(f"{name} must be a finite number > 0, got {value!r}")


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


class OutsideDomain(HestonLabError, ValueError):
    """An argument outside the domain where a closed form holds."""


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


class NonFiniteSample(HestonLabError, ValueError):
    """A sample holds a NaN or an infinite observation."""


class TiesDegenerate(HestonLabError):
    """Sample has zero spread; order-statistic test undefined."""


class DegenerateSample(HestonLabError):
    """Sample unusable for histogram construction."""


class AllReplicatesFailed(HestonLabError):
    """Every replicate of a Monte Carlo run aborted; nothing to summarize."""


# ---------------------------------------------------------------------------
# configuration / file formats

class ConfigParseError(HestonLabError, ValueError):
    """Experiment configuration text, or the report.json that echoes it, is
    malformed or incomplete."""


class InvalidSeed(ConfigParseError):
    """A master seed or replicate index is not an integer >= 0."""


class CsvFormatError(HestonLabError, ValueError):
    """A path or report CSV file does not follow its layout."""
