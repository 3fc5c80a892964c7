"""Coefficient records and closed-form quantities for a two-factor model.

The model is a square-root variance process driving a correlated log-price:

    dY_t = (a - b*Y_t) dt + sigma1 * sqrt(Y_t) dW_t
    dX_t = (alpha - beta*Y_t) dt + sigma2 * sqrt(Y_t) (rho dW_t + sqrt(1-rho^2) dB_t)

with independent Brownian motions W and B.  Throughout the package we require
a > 0, sigma1 > 0, sigma2 > 0, rho in (-1, 1) and Y_0 = y0 > 0; the drift
slope b is unrestricted and classifies the regime (b > 0: ergodic, b = 0:
critical, b < 0: explosive growth of the mean).

When b > 0 the variance factor is ergodic with a Gamma stationary law of
shape 2a/sigma1^2 and scale sigma1^2/(2b).  This module exposes that law's
Laplace transform and first three moments, the exact conditional means of
(Y, X) over an interval, and the asymptotic covariance matrix of the
continuous-record least-squares drift estimator, in two algebraically
independent forms (a closed-form Kronecker factorization and a sandwich
product of moment matrices) so that one can cross-check the other.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    InvalidArgument,
    InvalidGrid,
    InvalidParams,
    NonPositiveA,
    NonPositiveSigma,
    NonPositiveY0,
    NotSubcritical,
    OutsideDomain,
    RhoOutOfRange,
    is_real,
    real_array,
    require_instance,
)

__all__ = [
    "ModelParams",
    "Regime",
    "StationaryMoments",
    "AsymptoticCovariance",
    "classify_regime",
    "stationary_laplace",
    "stationary_moments",
    "conditional_mean_y",
    "conditional_mean_x",
    "kron",
    "asymptotic_covariance",
    "covariance_sandwich",
]


def _require_finite_value(value, name: str) -> None:
    if not is_real(value):
        raise InvalidParams(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class ModelParams:
    """Validated coefficient record for the two-factor model.

    Attributes:
        a: variance drift level, strictly positive.
        b: variance drift slope; any real number.
        alpha: log-price drift level; any real number.
        beta: log-price drift slope in the variance factor; any real number.
        sigma1: variance diffusion coefficient, strictly positive.
        sigma2: log-price diffusion coefficient, strictly positive.
        rho: driving-noise correlation, strictly inside (-1, 1).
        y0: initial variance, strictly positive.
        x0: initial log-price, any real number.
    """

    a: float
    b: float
    alpha: float
    beta: float
    sigma1: float
    sigma2: float
    rho: float
    y0: float
    x0: float

    def __post_init__(self):
        for field in fields(self):
            _require_finite_value(getattr(self, field.name), field.name)
        if not self.a > 0.0:
            raise NonPositiveA(f"a must be > 0, got {self.a}")
        if not self.sigma1 > 0.0:
            raise NonPositiveSigma(f"sigma1 must be > 0, got {self.sigma1}")
        if not self.sigma2 > 0.0:
            raise NonPositiveSigma(f"sigma2 must be > 0, got {self.sigma2}")
        if not -1.0 < self.rho < 1.0:
            raise RhoOutOfRange(f"rho must lie in (-1, 1), got {self.rho}")
        if not self.y0 > 0.0:
            raise NonPositiveY0(f"y0 must be > 0, got {self.y0}")

    @property
    def feller_strict(self) -> bool:
        """True when a > sigma1^2/2, i.e. the variance never touches zero."""
        return self.a > 0.5 * self.sigma1 * self.sigma1

    def drift_vector(self) -> np.ndarray:
        """Drift coefficients (a, b, alpha, beta) as a length-4 array."""
        return np.array([self.a, self.b, self.alpha, self.beta], dtype=float)


class Regime(enum.Enum):
    """Long-run behaviour of the variance factor, keyed by the sign of b."""

    SUBCRITICAL = "subcritical"
    CRITICAL = "critical"
    SUPERCRITICAL = "supercritical"


def classify_regime(params: ModelParams) -> Regime:
    if require_instance(params, ModelParams, "params").b > 0.0:
        return Regime.SUBCRITICAL
    if params.b == 0.0:
        return Regime.CRITICAL
    return Regime.SUPERCRITICAL


def _require_subcritical(params: ModelParams, what: str) -> None:
    if not require_instance(params, ModelParams, "params").b > 0.0:
        raise NotSubcritical(f"{what} requires b > 0, got b={params.b}")


# ---------------------------------------------------------------------------
# stationary law of the variance factor


def stationary_laplace(params: ModelParams, lam: float) -> float:
    """Laplace transform of the stationary variance law at argument ``lam``.

    Returns (1 + sigma1^2*lam/(2b))**(-2a/sigma1^2), which is the Laplace
    transform of a Gamma(2a/sigma1^2, scale=sigma1^2/(2b)) distribution.
    The closed form holds for lam > -2b/sigma1^2, where the transform is
    finite; nonnegative ``lam`` always yields a value in (0, 1].

    Raises:
        NotSubcritical: if b <= 0 (no stationary law exists).
        OutsideDomain: ``lam`` is not a finite number > -2b/sigma1^2 (a
            bool is refused too), or the transform overflows there.
    """
    _require_subcritical(params, "stationary_laplace")
    s1sq = params.sigma1 * params.sigma1
    value = math.inf
    if is_real(lam):
        # base > 0 is lam > -2b/sigma1^2, as rounded
        base = 1.0 + s1sq * float(lam) / (2.0 * params.b)
        if base > 0.0:
            try:
                value = base ** (-2.0 * params.a / s1sq)
            except OverflowError:
                pass
    if value == math.inf:
        raise OutsideDomain(f"stationary_laplace needs a finite lam > -2b/sigma1^2 = "
                            f"{-2.0 * params.b / s1sq!r}, where it is finite, got lam={lam!r}")
    return value


@dataclass(frozen=True)
class StationaryMoments:
    """First three moments of the stationary variance law, plus two products.

    ``var`` is m2 - m1^2 and ``cross`` is m1*m3 - m2^2; both are strictly
    positive and appear as denominators and discriminants in the estimator's
    limit theory.
    """

    m1: float
    m2: float
    m3: float
    var: float
    cross: float


def stationary_moments(params: ModelParams) -> StationaryMoments:
    """Closed-form stationary moments E[Y], E[Y^2], E[Y^3] of the variance.

    Raises:
        NotSubcritical: if b <= 0.
    """
    _require_subcritical(params, "stationary_moments")
    a, b = params.a, params.b
    s1sq = params.sigma1 * params.sigma1
    m1 = a / b
    m2 = (2.0 * a + s1sq) * a / (2.0 * b * b)
    m3 = (2.0 * a + s1sq) * (a + s1sq) * a / (2.0 * b ** 3)
    var = a * s1sq / (2.0 * b * b)
    cross = a * a * s1sq * (2.0 * a + s1sq) / (4.0 * b ** 4)
    return StationaryMoments(m1=m1, m2=m2, m3=m3, var=var, cross=cross)


# ---------------------------------------------------------------------------
# conditional means over an interval


def _interval(s, t) -> float:
    """t - s, for a finite s and t with t >= s; else ``InvalidGrid``, which
    names an s or t that is not a real number, a bool too."""
    for name, value in (("s", s), ("t", t)):
        if not is_real(value, finite=False):
            raise InvalidGrid(f"{name} must be a real number, got {value!r}")
    if not t >= s:
        raise InvalidGrid(f"need t >= s, got s={s}, t={t}")
    if not (is_real(s) and is_real(t)):
        raise InvalidGrid(f"s and t must be finite numbers, got s={s}, t={t}")
    return t - s


def conditional_mean_y(params: ModelParams, y_s: float, s: float, t: float) -> float:
    """Exact conditional mean E[Y_t | Y_s = y_s] for t >= s, else ``InvalidGrid``.

    Uses the b = 0 limit exactly when b == 0, and an expm1-based evaluation
    otherwise so that the two branches agree continuously as b -> 0.

    Raises:
        InvalidGrid: t < s, or an s or t that is not a finite number, a
            bool too.
        InvalidParams: a y_s that is not a finite number, a bool too.
        InvalidArgument: ``params`` is not a :class:`ModelParams`.
    """
    require_instance(params, ModelParams, "params")
    tau = _interval(s, t)
    _require_finite_value(y_s, "y_s")
    a, b = params.a, params.b
    if b == 0.0:
        return y_s + a * tau
    # (1 - exp(-b*tau))/b computed without cancellation
    ramp = -math.expm1(-b * tau) / b
    return math.exp(-b * tau) * y_s + a * ramp


def conditional_mean_x(
    params: ModelParams, y_s: float, x_s: float, s: float, t: float
) -> float:
    """Exact conditional mean E[X_t | Y_s = y_s, X_s = x_s] for t >= s, else ``InvalidGrid``.

    For large t - s the map tau -> E[X] has slope alpha - beta*a/b, the
    ergodic drift rate of the log-price.

    Raises:
        InvalidGrid / InvalidParams / InvalidArgument: as
            :func:`conditional_mean_y`, and an x_s that is not a finite number.
    """
    require_instance(params, ModelParams, "params")
    tau = _interval(s, t)
    _require_finite_value(y_s, "y_s")
    _require_finite_value(x_s, "x_s")
    a, b, alpha, beta = params.a, params.b, params.alpha, params.beta
    if b == 0.0:
        return x_s + alpha * tau - beta * y_s * tau - 0.5 * a * beta * tau * tau
    ramp = -math.expm1(-b * tau) / b                       # (1 - e^{-b tau})/b
    hump = (b * tau + math.expm1(-b * tau)) / (b * b)       # tau/b - ramp/b, stable
    return x_s + alpha * tau - beta * y_s * ramp - a * beta * hump


# ---------------------------------------------------------------------------
# asymptotic covariance of the drift least-squares estimator


def kron(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2x2 matrices, a 4x4 matrix of 2x2 blocks.

    Row/column order is (a, b, alpha, beta): the left factor indexes the
    (variance, log-price) equation pair and the right factor the
    (level, slope) pair within each equation.

    Raises:
        InvalidArgument: ``left`` or ``right`` is not a 2x2 matrix of real
            numbers; names which.
    """
    matrices = []
    for name, matrix in (("left", left), ("right", right)):
        what = f"kron: {name} must be a 2x2 matrix of real numbers"
        array = real_array(matrix, what)
        if array.shape != (2, 2):
            raise InvalidArgument(f"{what}, got {matrix!r}")
        matrices.append(array)
    return np.kron(*matrices)


@dataclass(frozen=True)
class AsymptoticCovariance:
    """Limit covariance of sqrt(T) times the drift-estimator error.

    ``sigma_matrix`` is the full 4x4 limit covariance, equal to the Kronecker
    product of ``s_matrix`` (the 2x2 diffusion Gram matrix) with ``m_matrix``
    (a 2x2 matrix of stationary-moment ratios shared by both equations).
    """

    sigma_matrix: np.ndarray
    s_matrix: np.ndarray
    m_matrix: np.ndarray


def _diffusion_gram(params: ModelParams) -> np.ndarray:
    s1, s2, rho = params.sigma1, params.sigma2, params.rho
    off = rho * s1 * s2
    return np.array([[s1 * s1, off], [off, s2 * s2]], dtype=float)


def asymptotic_covariance(params: ModelParams) -> AsymptoticCovariance:
    """Closed-form limit covariance of the normalized estimation error.

    The normalized error sqrt(T)*(estimate - truth) of the four drift
    coefficients is asymptotically centered Gaussian with this covariance.

    Raises:
        NotSubcritical: if b <= 0 (the limit theory needs ergodicity).
    """
    _require_subcritical(params, "asymptotic_covariance")
    a, b = params.a, params.b
    s1sq = params.sigma1 * params.sigma1
    m = np.array(
        [
            [(2.0 * a + s1sq) * a / (s1sq * b), (2.0 * a + s1sq) / s1sq],
            [(2.0 * a + s1sq) / s1sq, 2.0 * b * (a + s1sq) / (s1sq * a)],
        ],
        dtype=float,
    )
    s = _diffusion_gram(params)
    return AsymptoticCovariance(sigma_matrix=kron(s, m), s_matrix=s, m_matrix=m)


def covariance_sandwich(params: ModelParams) -> AsymptoticCovariance:
    """Limit covariance assembled from stationary moment matrices.

    Builds the same matrix as :func:`asymptotic_covariance` by the sandwich
    product (I_2 (x) C^-1) (S (x) V) (I_2 (x) C^-1), where C is the Gram
    matrix of the regressors (1, -Y) under the stationary law and V the
    corresponding noise-weighted moment matrix.  The 2x2 inverse is taken in
    closed form.  Agreement of the two routes is a nontrivial identity among
    the stationary moments.
    """
    mom = stationary_moments(params)
    det_c = mom.var  # m2 - m1^2, strictly positive
    c_inv = np.array([[mom.m2, mom.m1], [mom.m1, 1.0]], dtype=float) / det_c
    v = np.array([[mom.m1, -mom.m2], [-mom.m2, mom.m3]], dtype=float)
    s = _diffusion_gram(params)
    eye = np.eye(2)
    outer = kron(eye, c_inv)
    sigma = outer @ kron(s, v) @ outer
    m_matrix = c_inv @ v @ c_inv
    return AsymptoticCovariance(sigma_matrix=sigma, s_matrix=s, m_matrix=m_matrix)
