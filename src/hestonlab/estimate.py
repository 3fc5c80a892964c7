"""Least-squares drift estimation from a discretely observed joint path.

The drift coefficients (a, b) of the variance equation and (alpha, beta) of
the log-price equation are estimated by minimizing the sum of squared
one-step residuals

    sum_k [ (dY_k - (a - b*Y_{k-1}) dt)^2 + (dX_k - (alpha - beta*Y_{k-1}) dt)^2 ].

Both 2x2 subproblems share the same regressor pair (1, -Y_{k-1}) and are
solved in closed form.  Two algebraically equivalent routes are provided:

* :func:`lse_discrete_ab` / :func:`lse_discrete_alphabeta` solve the normal
  equations assembled from raw sample sums (adjugate inverse, no linear
  algebra library);
* :func:`lse_from_functionals` plugs Riemann/stochastic integral functionals
  of the path into the continuous-record closed forms.

Their agreement on any path is one of the package's standing self-checks.
All denominators are evaluated in centered form, so they are nonnegative by
construction and vanish only for a constant regressor.

The functionals are folded block by block (:class:`PathSums`), so a Monte
Carlo run never holds a whole path; a single path is folded as one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegeneratePath,
    LengthMismatch,
    NonPositiveScalingDiscriminant,
    PathTooShort,
)
from .model import ModelParams
from .simulate import TimeGrid, XYPath

__all__ = [
    "SUM_TILE",
    "PathSums",
    "PathFunctionals",
    "LseEstimate",
    "IntegralDiagnostic",
    "ScalingStatistic",
    "path_functionals",
    "lse_discrete_ab",
    "lse_discrete_alphabeta",
    "lse_from_functionals",
    "ls_objective",
    "ito_cross_check",
    "normalized_error",
    "random_scaling_transform",
    "estimate_record",
]

# A centered denominator at or below this fraction of the natural scale of
# T * int(Y^2) is treated as singular.
_DEGENERACY_REL_TOL = 1e-14


@dataclass(frozen=True)
class PathFunctionals:
    """Integral functionals of a path that the closed-form estimators consume.

    All Riemann sums use the left endpoint.  ``i3``/``i4`` are the stochastic
    cross sums sum Y_{k-1} dY_k and sum Y_{k-1} dX_k; ``qv_y`` is the realized
    quadratic variation of Y; ``e1``..``e3`` are time averages of Y, Y^2, Y^3.
    ``denom`` is T*i2 - i1^2 evaluated in centered form, hence >= 0 always
    and == 0 exactly when every left endpoint is equal.
    """

    t_horizon: float
    n_steps: int
    y0: float
    x0: float
    y_terminal: float
    x_terminal: float
    i1: float
    i2: float
    i3: float
    i4: float
    e1: float
    e2: float
    e3: float
    qv_y: float
    denom: float


# Steps per summation tile.  Every left-endpoint sum is formed tile by tile,
# tiles counted from the start of the path, and the tile sums are added in
# time order.  A lane's functionals therefore do not depend on how its path
# was cut into blocks, provided every block but the last is whole tiles, nor
# on how many lanes were folded together.
SUM_TILE = 128


class PathSums:
    """Running left-endpoint sums of a group of paths (lanes), fed block by block.

    Holds per lane the sums of Y, Y^2, Y^3, Y dY, Y dX and dY^2 over the
    steps folded so far (rows of ``sums``, in that order), the end point of
    the path so far, and the centered spread of the left endpoints: the
    deviations from the lane's first value ``y_start`` are reduced tile by
    tile to (mean, sum of squared deviations from the tile mean) and merged
    with the pairwise update of Chan, Golub and LeVeque, so that a constant
    path keeps an exact zero spread.
    """

    def __init__(self, y_start, x_start):
        self.y_start = np.atleast_1d(np.asarray(y_start, dtype=float)).copy()
        self.x_start = np.atleast_1d(np.asarray(x_start, dtype=float)).copy()
        lanes = self.y_start.shape[0]
        self.y_end = self.y_start.copy()
        self.x_end = self.x_start.copy()
        self.steps = 0
        self.sums = np.zeros((6, lanes))
        self.mean = np.zeros(lanes)
        self.m2 = np.zeros(lanes)

    def fold(self, y: np.ndarray, x: np.ndarray) -> None:
        """Add one block: (lanes, steps + 1) points, the previous end point first.

        Raises:
            ValueError: a block follows one that ended inside a tile.
        """
        if self.steps % SUM_TILE:
            raise ValueError("only the last block of a path may end inside a tile")
        # a tile at a time: the temporaries stay lanes x SUM_TILE, which the
        # allocator reuses, where block-sized ones would be returned to the
        # system and faulted in again on every block
        for lo in range(0, y.shape[1] - 1, SUM_TILE):
            self._fold_tile(y[:, lo : lo + SUM_TILE + 1], x[:, lo : lo + SUM_TILE + 1])
        self.y_end = y[:, -1].copy()
        self.x_end = x[:, -1].copy()

    def _fold_tile(self, y: np.ndarray, x: np.ndarray) -> None:
        y_left = y[:, :-1]
        y2 = y_left * y_left
        dy = np.diff(y, axis=1)
        dx = np.diff(x, axis=1)
        # each product is summed as soon as it is formed, so that few
        # tile-sized temporaries are alive at once
        self.sums += np.stack([
            y_left.sum(axis=1),
            y2.sum(axis=1),
            (y2 * y_left).sum(axis=1),
            (y_left * dy).sum(axis=1),
            (y_left * dx).sum(axis=1),
            (dy * dy).sum(axis=1),
        ])
        dev = y_left - self.y_start[:, None]
        size = dev.shape[1]
        tile_mean = dev.sum(axis=1) / size
        centered = dev - tile_mean[:, None]
        tile_m2 = (centered * centered).sum(axis=1)
        merged = self.steps + size
        delta = tile_mean - self.mean
        self.mean = self.mean + delta * (size / merged)
        self.m2 = self.m2 + tile_m2 + delta * delta * (self.steps * size / merged)
        self.steps = merged

    def select(self, keep: np.ndarray) -> None:
        """Keep only the lanes where ``keep`` is true."""
        for name in ("y_start", "x_start", "y_end", "x_end", "mean", "m2"):
            setattr(self, name, getattr(self, name)[keep])
        self.sums = self.sums[:, keep]

    def functionals(self, grid: TimeGrid) -> list[PathFunctionals]:
        """The functionals of every lane, once the whole grid has been folded.

        Raises:
            LengthMismatch: the folded steps do not cover the grid.
        """
        if self.steps != grid.steps:
            raise LengthMismatch(f"folded {self.steps} steps, grid has {grid.steps}")
        dt = grid.dt
        t_horizon = grid.horizon
        s_y, s_y2, s_y3, s_ydy, s_ydx, s_dy2 = self.sums
        i1 = dt * s_y
        i2 = dt * s_y2
        e3 = dt * s_y3 / t_horizon
        denom = dt * dt * grid.steps * self.m2
        return [
            PathFunctionals(
                t_horizon=t_horizon,
                n_steps=grid.steps,
                y0=float(self.y_start[j]),
                x0=float(self.x_start[j]),
                y_terminal=float(self.y_end[j]),
                x_terminal=float(self.x_end[j]),
                i1=float(i1[j]),
                i2=float(i2[j]),
                i3=float(s_ydy[j]),
                i4=float(s_ydx[j]),
                e1=float(i1[j]) / t_horizon,
                e2=float(i2[j]) / t_horizon,
                e3=float(e3[j]),
                qv_y=float(s_dy2[j]),
                denom=float(denom[j]),
            )
            for j in range(self.y_start.shape[0])
        ]


def path_functionals(path: XYPath) -> PathFunctionals:
    """Compute every functional of a path needed downstream, in one pass.

    The path is folded as a single block of :class:`PathSums`, the reducer
    that Monte Carlo runs feed block by block, so both give the same bits.
    """
    if path.grid.steps < 1 or path.y.shape[0] < 2:
        raise PathTooShort("need at least two grid points")
    sums = PathSums(path.y[:1], path.x[:1])
    sums.fold(path.y[None, :], path.x[None, :])
    return sums.functionals(path.grid)[0]


# ---------------------------------------------------------------------------
# discrete normal-equations route


def _left_spread(y_left: np.ndarray) -> float:
    dev = y_left - y_left[0]
    centered = dev - float(np.mean(dev))
    return float(np.sum(centered * centered))


def _check_y_samples(y_samples) -> np.ndarray:
    y = np.asarray(y_samples, dtype=float)
    if y.ndim != 1 or y.shape[0] < 2:
        raise PathTooShort("need at least two samples")
    return y


def lse_discrete_ab(y_samples, dt: float) -> tuple[float, float]:
    """Drift estimates (a_hat, b_hat) of the variance equation.

    Solves the 2x2 normal equations of the discrete least-squares objective
    by the adjugate inverse; the determinant is evaluated in centered form.

    Raises:
        PathTooShort: fewer than two samples.
        DegeneratePath: the regressor has (numerically) no spread.
    """
    y = _check_y_samples(y_samples)
    y_left = y[:-1]
    m = y_left.shape[0]
    s1 = float(np.sum(y_left))
    s2 = float(np.sum(y_left * y_left))
    det = m * _left_spread(y_left)  # equals m*s2 - s1^2, but >= 0 always
    if det <= _DEGENERACY_REL_TOL * max(1.0, m * s2):
        raise DegeneratePath("variance samples carry no spread")
    dy = np.diff(y)
    total = float(y[-1] - y[0])
    cross = -float(np.sum(dy * y_left))
    a_hat = (s2 * total + s1 * cross) / (dt * det)
    b_hat = (s1 * total + m * cross) / (dt * det)
    return a_hat, b_hat


def lse_discrete_alphabeta(y_samples, x_samples, dt: float) -> tuple[float, float]:
    """Drift estimates (alpha_hat, beta_hat) of the log-price equation.

    Same normal-equations route as :func:`lse_discrete_ab`; the regressor is
    the variance sample, the response the log-price increments.
    """
    y = _check_y_samples(y_samples)
    x = np.asarray(x_samples, dtype=float)
    if x.shape != y.shape:
        raise LengthMismatch(
            f"y and x must have equal length, got {y.shape[0]} and {x.shape[0]}"
        )
    y_left = y[:-1]
    m = y_left.shape[0]
    s1 = float(np.sum(y_left))
    s2 = float(np.sum(y_left * y_left))
    det = m * _left_spread(y_left)
    if det <= _DEGENERACY_REL_TOL * max(1.0, m * s2):
        raise DegeneratePath("variance samples carry no spread")
    dx = np.diff(x)
    total = float(x[-1] - x[0])
    cross = -float(np.sum(dx * y_left))
    alpha_hat = (s2 * total + s1 * cross) / (dt * det)
    beta_hat = (s1 * total + m * cross) / (dt * det)
    return alpha_hat, beta_hat


# ---------------------------------------------------------------------------
# functional plug-in route


@dataclass(frozen=True)
class LseEstimate:
    """Joint drift estimate with the functionals it was computed from."""

    a_hat: float
    b_hat: float
    alpha_hat: float
    beta_hat: float
    functionals: PathFunctionals

    def vector(self) -> np.ndarray:
        return np.array([self.a_hat, self.b_hat, self.alpha_hat, self.beta_hat])


def lse_from_functionals(f: PathFunctionals) -> LseEstimate:
    """Closed-form drift estimates from path functionals.

    Raises:
        DegeneratePath: ``denom`` is at or below the degeneracy threshold.
    """
    t = f.t_horizon
    if f.denom <= _DEGENERACY_REL_TOL * max(1.0, t * f.i2):
        raise DegeneratePath("variance path carries no spread")
    dy_total = f.y_terminal - f.y0
    dx_total = f.x_terminal - f.x0
    a_hat = (dy_total * f.i2 - f.i1 * f.i3) / f.denom
    b_hat = (dy_total * f.i1 - t * f.i3) / f.denom
    alpha_hat = (dx_total * f.i2 - f.i1 * f.i4) / f.denom
    beta_hat = (dx_total * f.i1 - t * f.i4) / f.denom
    return LseEstimate(
        a_hat=a_hat, b_hat=b_hat, alpha_hat=alpha_hat, beta_hat=beta_hat, functionals=f
    )


def ls_objective(candidate, y_samples, x_samples, dt: float) -> float:
    """Discrete least-squares objective at a candidate (a, b, alpha, beta).

    The minimizer of this function over candidates is exactly the pair of
    closed-form solutions above; tests use it as an independent optimality
    oracle.
    """
    a, b, alpha, beta = (float(v) for v in candidate)
    y = _check_y_samples(y_samples)
    x = np.asarray(x_samples, dtype=float)
    if x.shape != y.shape:
        raise LengthMismatch(
            f"y and x must have equal length, got {y.shape[0]} and {x.shape[0]}"
        )
    y_left = y[:-1]
    res_y = np.diff(y) - (a - b * y_left) * dt
    res_x = np.diff(x) - (alpha - beta * y_left) * dt
    return float(np.sum(res_y * res_y) + np.sum(res_x * res_x))


# ---------------------------------------------------------------------------
# diagnostics and error normalizations


@dataclass(frozen=True)
class IntegralDiagnostic:
    """Two routes to the stochastic cross sum, plus a volatility check.

    ``i3_direct`` is the sample sum; ``i3_ito`` replaces the realized
    quadratic variation with its model value sigma1^2 * i1, so the gap
    between the two reflects how far qv_y is from that value.  ``qv_ratio``
    is qv_y / (sigma1^2 * i1); near 1 when the supplied sigma1 matches the
    data, near 1/c^2 when sigma1 is off by a factor c.
    """

    i3_direct: float
    i3_ito: float
    qv_ratio: float


def ito_cross_check(f: PathFunctionals, sigma1: float) -> IntegralDiagnostic:
    if not sigma1 > 0.0:
        raise ValueError(f"sigma1 must be > 0, got {sigma1}")
    s1sq = sigma1 * sigma1
    i3_ito = 0.5 * (f.y_terminal ** 2 - f.y0 ** 2 - s1sq * f.i1)
    qv_ratio = f.qv_y / (s1sq * f.i1) if f.i1 > 0.0 else math.nan
    return IntegralDiagnostic(i3_direct=f.i3, i3_ito=i3_ito, qv_ratio=qv_ratio)


def _truth_vector(truth) -> np.ndarray:
    if isinstance(truth, ModelParams):
        return truth.drift_vector()
    arr = np.asarray(truth, dtype=float)
    if arr.shape != (4,):
        raise ValueError("truth must be (a, b, alpha, beta) or a ModelParams")
    return arr


def normalized_error(est: LseEstimate, truth) -> np.ndarray:
    """sqrt(T) times the estimation error, the scale with a Gaussian limit."""
    return math.sqrt(est.functionals.t_horizon) * (est.vector() - _truth_vector(truth))


@dataclass(frozen=True)
class ScalingStatistic:
    """Self-normalized estimation error with a parameter-free Gaussian limit.

    The 4-vector is obtained from the raw error by an invertible linear map
    built solely from path moments; under the model it converges to a
    centered Gaussian whose covariance involves only the diffusion constants
    (sigma1, sigma2, rho), not the drift.
    """

    vector: np.ndarray


def random_scaling_transform(est: LseEstimate, truth, f: PathFunctionals) -> ScalingStatistic:
    """Apply the path-moment scaling to an estimation error.

    Two algebraically equal formulations exist: one in terms of the raw
    time-integral functionals applied to the unnormalized error, one in
    terms of time averages applied to the sqrt(T)-normalized error.  This
    implements the time-averaged form.

    Raises:
        DegeneratePath: the spread denominator is at the degeneracy threshold.
        NonPositiveScalingDiscriminant: e1 <= 0 or e1*e3 - e2^2 <= 0, so the
            scaling map is not defined.
    """
    t = f.t_horizon
    if f.denom <= _DEGENERACY_REL_TOL * max(1.0, t * f.i2):
        raise DegeneratePath("variance path carries no spread")
    disc = f.e1 * f.e3 - f.e2 * f.e2
    if f.e1 <= 0.0 or disc <= 0.0:
        raise NonPositiveScalingDiscriminant(
            f"need e1 > 0 and e1*e3 - e2^2 > 0, got e1={f.e1}, discriminant={disc}"
        )
    var_bar = f.denom / (t * t)  # e2 - e1^2, centered evaluation
    r11 = var_bar / math.sqrt(disc)
    err = math.sqrt(t) * (est.vector() - _truth_vector(truth))
    pref = 1.0 / math.sqrt(f.e1)
    out = np.empty(4)
    out[0] = pref * r11 * err[0]
    out[1] = pref * (-err[0] + f.e1 * err[1])
    out[2] = pref * r11 * err[2]
    out[3] = pref * (-err[2] + f.e1 * err[3])
    return ScalingStatistic(vector=out)


def estimate_record(
    est: LseEstimate, scheme: str | None = None, seed: int | None = None
) -> dict:
    """Flat key-value record of an estimate, as emitted by the command line."""
    f = est.functionals
    return {
        "a_hat": est.a_hat,
        "b_hat": est.b_hat,
        "alpha_hat": est.alpha_hat,
        "beta_hat": est.beta_hat,
        "T": f.t_horizon,
        "N": f.n_steps,
        "scheme": "" if scheme is None else getattr(scheme, "value", str(scheme)),
        "seed": "" if seed is None else int(seed),
    }
