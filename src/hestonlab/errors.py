"""Exception taxonomy for hestonlab, and the one rulebook for bad input.

Every failure raised by this package derives from :class:`HestonLabError`,
so callers can catch package errors without swallowing unrelated ones.
Validation-style failures additionally derive from ``ValueError``.

The rules for arguments are written once, here, and each caller names the
argument and its error: :func:`require_instance` (an object of a type),
:func:`is_real` (a real number, finite unless asked otherwise, not a bool),
:func:`require_positive` (a finite real number > 0), :func:`require_int` (an
integer in a range, not a bool), :func:`require_ints` (an iterable of
integers >= 0), :func:`real_array` (an array of integers or floats, as
float64, with no bool among them) and :func:`require_finite` (no NaN or
infinite entry).
"""

import math
import numbers
import operator

import numpy as np


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


def is_real(value, finite: bool = True) -> bool:
    """Whether ``value`` is a real number, and a finite one unless
    ``finite`` is False; a bool, which arithmetic reads as 0 or 1, is not,
    nor is an int beyond the doubles where a finite one is asked for."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return not finite or math.isfinite(value)
    except OverflowError:
        return False


def real_array(values, what: str) -> np.ndarray:
    """``values`` as a float64 array, unless numpy reads them as other than
    integers or floats (bools, strs, objects) or not at all, or they hold a
    bool among numbers, which numpy reads as 0 or 1: then
    ``InvalidArgument``, ``what`` and the reason."""
    try:
        array = np.asarray(values)
    except (TypeError, ValueError) as exc:
        raise InvalidArgument(f"{what}: {exc}") from None
    if array.dtype.kind not in "iuf":
        raise InvalidArgument(f"{what}: got values of dtype {array.dtype}")
    # an array of numbers holds no bool; only a sequence can mix them in
    if not isinstance(values, np.ndarray) and array.ndim:
        kinds = set(map(type, np.asarray(values, dtype=object).ravel().tolist()))
        if bool in kinds or np.bool_ in kinds:
            raise InvalidArgument(f"{what}: got a bool among numbers")
    return array.astype(float, copy=False)


def require_finite(values: np.ndarray, error: type, message: str) -> np.ndarray:
    """``values``, a 1-d array, unless an entry is NaN or infinite: then
    ``error``, ``message`` formatted with the first one's index ``i`` and ``value``."""
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))
        raise error(message.format(i=i, value=values[i]))
    return values


# the most that the compiled kernel's counts and numpy's array indices take
INT64_MAX = 2 ** 63 - 1


def require_int(value, name: str, error: type, minimum: int = 0,
                maximum: int | None = None) -> int:
    """``value`` as an int, unless it is a bool or not an integer (an
    integral float is not) in [``minimum``, ``maximum``]: then ``error``."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    number = operator.index(value) if integral else None
    if number is None or number < minimum:
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")
    if maximum is not None and number > maximum:
        raise error(f"{name} must be an integer <= {maximum}, got {value!r}")
    return number


def require_ints(values, name: str, item: str, error: type) -> list[int]:
    """Each of ``values`` as an int >= 0 by :func:`require_int`, named
    ``item``; ``error`` naming ``name`` where ``values`` is not an iterable."""
    try:
        values = iter(values)
    except TypeError:
        raise error(f"{name} must be an iterable of integers >= 0, got {values!r}") from None
    return [require_int(v, item, error) for v in values]


def require_positive(value, name: str, error: type) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is a finite real
    number > 0; a bool is not, nor an int beyond the doubles."""
    if not (is_real(value) and value > 0.0):
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


class ReportNotFound(HestonLabError, FileNotFoundError):
    """An experiment directory, or a report file in it, does not exist."""


class PathFileNotFound(HestonLabError, FileNotFoundError):
    """A path CSV file does not exist."""
