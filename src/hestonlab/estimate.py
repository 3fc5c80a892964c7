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
The plug-in route, the error normalizations and :func:`failure_reasons` are
elementwise numpy expressions: the same code serves one path (floats) and a
Monte Carlo run's R replicates (columns of length R).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import (
    DegeneratePath,
    InvalidArgument,
    InvalidGrid,
    LengthMismatch,
    NonFinitePath,
    NonFiniteSample,
    NonPositiveScalingDiscriminant,
    NonPositiveSigma,
    NonPositiveZ,
    PathTooShort,
    real_array,
    require_instance,
    require_positive,
)
from .model import ModelParams
from .simulate import Scheme, TimeGrid, XYPath

__all__ = [
    "SUM_TILE",
    "PathSums",
    "PathFunctionals",
    "LseEstimate",
    "IntegralDiagnostic",
    "path_functionals",
    "lse_discrete_ab",
    "lse_discrete_alphabeta",
    "lse_from_functionals",
    "ls_objective",
    "ito_cross_check",
    "failure_reasons",
    "FAILURE_REASONS",
    "truth_vector",
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

    ``t_horizon`` and ``n_steps`` describe the grid; every other field is a
    float for one path, or a (lanes,) column with one entry per path, as
    :meth:`PathSums.functionals` returns them.

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

    def take(self, rows) -> "PathFunctionals":
        """The selected rows of a columnar record."""
        return replace(self, **{name: getattr(self, name)[rows] for name in _COLUMNS})

    @staticmethod
    def concat(parts) -> "PathFunctionals":
        """Columnar records on one grid, joined row after row."""
        return replace(parts[0], **{
            name: np.concatenate([getattr(part, name) for part in parts])
            for name in _COLUMNS
        })


# the per-path fields of PathFunctionals: all but t_horizon and n_steps
_COLUMNS = tuple(field.name for field in fields(PathFunctionals))[2:]

# Steps per summation tile.  Every left-endpoint sum is formed tile by tile,
# tiles counted from the start of the path, and the tile sums are added in
# time order.  A lane's functionals therefore do not depend on how its path
# was cut into blocks, provided every block but the last is whole tiles, nor
# on how many lanes were folded together.
SUM_TILE = 128


def _tile_stats(y: np.ndarray, x: np.ndarray, y_start: np.ndarray, size: int):
    """The six sums of :class:`PathSums` (6, lanes, tiles) and the (mean, m2)
    of the deviations from ``y_start`` (lanes, tiles) of each tile of (lanes,
    tiles * size + 1) points.  A tile is a row of a (lanes, tiles, size) view,
    summed over the same contiguous values as a (lanes, size) tile alone."""
    shape = (y.shape[0], (y.shape[1] - 1) // size, size)
    y_left = y[:, :-1].reshape(shape)
    y2 = y_left * y_left
    dy = np.diff(y, axis=1).reshape(shape)
    dx = np.diff(x, axis=1).reshape(shape)
    # each product is summed as soon as it is formed, so that few
    # temporaries are alive at once
    sums = np.stack([
        y_left.sum(axis=-1),
        y2.sum(axis=-1),
        (y2 * y_left).sum(axis=-1),
        (y_left * dy).sum(axis=-1),
        (y_left * dx).sum(axis=-1),
        (dy * dy).sum(axis=-1),
    ])
    dev = y_left - y_start[:, None, None]
    mean = dev.sum(axis=-1) / size
    centered = dev - mean[..., None]
    return sums, mean, (centered * centered).sum(axis=-1)


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

        A path that overflows gives sums of inf or NaN without a warning;
        :func:`failure_reasons` judges the functionals they lead to.

        Raises:
            ValueError: a block follows one that ended inside a tile.
        """
        if self.steps % SUM_TILE:
            raise ValueError("only the last block of a path may end inside a tile")
        steps = y.shape[1] - 1
        whole = steps - steps % SUM_TILE
        with np.errstate(over="ignore", invalid="ignore"):
            # every whole tile in one set of calls, a partial last tile in another
            parts = [_tile_stats(y[:, : whole + 1], x[:, : whole + 1], self.y_start, SUM_TILE)]
            if whole < steps:
                parts.append(_tile_stats(y[:, whole:], x[:, whole:], self.y_start, steps - whole))
            tile_sums, tile_mean, tile_m2 = (np.concatenate(c, axis=-1) for c in zip(*parts))
            # then the tiles in time order, as a fold of one tile at a time takes
            # them: a cumulative sum adds from left to right, and the spread is
            # merged tile after tile
            running = np.concatenate([self.sums[..., None], tile_sums], axis=-1)
            self.sums = running.cumsum(axis=-1)[..., -1]
            sizes = np.minimum(SUM_TILE, steps - np.arange(0, steps, SUM_TILE))
            merged = self.steps + np.cumsum(sizes)
            for t_mean, t_m2, w_mean, w_m2 in zip(
                tile_mean.T, tile_m2.T, sizes / merged, (merged - sizes) * sizes / merged
            ):
                delta = t_mean - self.mean
                self.mean = self.mean + delta * w_mean
                self.m2 = self.m2 + t_m2 + delta * delta * w_m2
            self.steps = int(merged[-1])
        self.y_end = y[:, -1].copy()
        self.x_end = x[:, -1].copy()

    def select(self, keep: np.ndarray) -> None:
        """Keep only the lanes where ``keep`` is true."""
        for name in ("y_start", "x_start", "y_end", "x_end", "mean", "m2"):
            setattr(self, name, getattr(self, name)[keep])
        self.sums = self.sums[:, keep]

    def functionals(self, grid: TimeGrid) -> PathFunctionals:
        """The functionals of every lane as columns, once the whole grid has been folded.

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
        return PathFunctionals(
            t_horizon=t_horizon, n_steps=grid.steps,
            y0=self.y_start, x0=self.x_start, y_terminal=self.y_end, x_terminal=self.x_end,
            i1=i1, i2=i2, i3=s_ydy, i4=s_ydx,
            e1=i1 / t_horizon, e2=i2 / t_horizon, e3=dt * s_y3 / t_horizon,
            qv_y=s_dy2, denom=dt * dt * grid.steps * self.m2,
        )


def path_functionals(path: XYPath) -> PathFunctionals:
    """Compute every functional of a path needed downstream, in one pass.

    The path is folded as a single block of :class:`PathSums`, the reducer
    that Monte Carlo runs feed block by block, so both give the same bits.

    Raises:
        InvalidArgument: ``path`` is not an :class:`XYPath`, which has at
            least two grid points.
        NonFinitePath: Y or X is not finite; names the first grid index at
            which it is not.
    """
    require_instance(path, XYPath, "path")
    for name, values in (("Y", path.y), ("X", path.x)):
        finite = np.isfinite(values)
        if not finite.all():
            raise NonFinitePath(f"{name} is not finite at grid index {int(np.argmin(finite))}")
    sums = PathSums(path.y[:1], path.x[:1])
    sums.fold(path.y[None, :], path.x[None, :])
    f = sums.functionals(path.grid)
    return replace(f, **{name: float(getattr(f, name)[0]) for name in _COLUMNS})


# ---------------------------------------------------------------------------
# discrete normal-equations route


def _check_samples(y_samples, x_samples) -> tuple[np.ndarray, np.ndarray]:
    y = real_array(y_samples, "y_samples must hold real numbers")
    if y.ndim != 1 or y.shape[0] < 2:
        raise PathTooShort("need at least two samples")
    x = real_array(x_samples, "x_samples must hold real numbers")
    if x.shape != y.shape:
        raise LengthMismatch(
            f"y and x must have equal length, got {y.shape[0]} and {x.shape[0]}"
        )
    for name, samples in (("y_samples", y), ("x_samples", x)):
        finite = np.isfinite(samples)
        if not finite.all():
            i = int(np.argmin(finite))
            raise NonFiniteSample(f"{name}[{i}] is {samples[i]}, not a finite number")
    return y, x


def _drift_values(values, name: str) -> list[float]:
    """Floats of a sequence of four finite real numbers (no bool), else ``InvalidArgument``."""
    items = list(values) if isinstance(values, (list, tuple)) or np.ndim(values) == 1 else []
    if len(items) != 4 or not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                                  and math.isfinite(v) for v in items):
        raise InvalidArgument(f"{name} must be four finite real numbers (a, b, alpha, beta), "
                              f"got {values!r}")
    return [float(v) for v in items]


def _lse_discrete(y_samples, response, dt: float) -> tuple[float, float]:
    # the 2x2 normal equations of one response on the regressors (1, -Y_{k-1})
    require_positive(dt, "dt", InvalidGrid)
    y, r = _check_samples(y_samples, response)
    y_left = y[:-1]
    m = y_left.shape[0]
    s1 = float(np.sum(y_left))
    s2 = float(np.sum(y_left * y_left))
    dev = y_left - y_left[0]
    centered = dev - float(np.mean(dev))
    det = m * float(np.sum(centered * centered))  # equals m*s2 - s1^2, but >= 0 always
    if det <= _DEGENERACY_REL_TOL * max(1.0, m * s2):
        raise DegeneratePath("variance samples carry no spread")
    total = float(r[-1] - r[0])
    cross = -float(np.sum(np.diff(r) * y_left))
    return (s2 * total + s1 * cross) / (dt * det), (s1 * total + m * cross) / (dt * det)


def lse_discrete_ab(y_samples, dt: float) -> tuple[float, float]:
    """Drift estimates (a_hat, b_hat) of the variance equation.

    Solves the 2x2 normal equations of the discrete least-squares objective
    by the adjugate inverse; the determinant is evaluated in centered form.
    This route works on the raw samples, apart from :class:`PathSums`, so it
    is an independent reference for the plug-in route.

    Raises:
        InvalidGrid: ``dt`` is not a finite number > 0 (a bool is refused too).
        InvalidArgument: a sample that is not a real number, a str say.
        PathTooShort: fewer than two samples.
        NonFiniteSample: a sample is NaN or infinite; names the first.
        DegeneratePath: the regressor has (numerically) no spread.
    """
    return _lse_discrete(y_samples, y_samples, dt)


def lse_discrete_alphabeta(y_samples, x_samples, dt: float) -> tuple[float, float]:
    """Drift estimates (alpha_hat, beta_hat) of the log-price equation.

    Same normal-equations route as :func:`lse_discrete_ab`, with its
    errors; the regressor is the variance sample, the response the
    log-price increments.
    """
    return _lse_discrete(y_samples, x_samples, dt)


# ---------------------------------------------------------------------------
# functional plug-in route


@dataclass(frozen=True)
class LseEstimate:
    """Joint drift estimate with the functionals it was computed from.

    The estimates are floats for one path and columns for columnar
    functionals.
    """

    a_hat: float
    b_hat: float
    alpha_hat: float
    beta_hat: float
    functionals: PathFunctionals

    def vector(self) -> np.ndarray:
        """(a_hat, b_hat, alpha_hat, beta_hat): shape (4,), or (rows, 4)."""
        return np.stack([self.a_hat, self.b_hat, self.alpha_hat, self.beta_hat], axis=-1)


# The checks a row of functionals must pass, in the order they are made, with
# the message of each.  An estimate needs the first two, the scaling
# transform all three.
_ROW_CHECKS = {
    NonFinitePath: "a path functional, or e1*e3 - e2^2, is not a finite number",
    DegeneratePath: "variance path carries no spread",
    NonPositiveScalingDiscriminant: "need e1 > 0 and e1*e3 - e2^2 > 0",
}

# Every reason a Monte Carlo replicate fails for, as its failure record names
# it: a DESRE abort first, then the row checks in order.
FAILURE_REASONS = (NonPositiveZ.__name__, *(check.__name__ for check in _ROW_CHECKS))


def failure_reasons(f: PathFunctionals) -> np.ndarray:
    """Why each row cannot be estimated and scaled: the name of the first
    failing check (``NonFinitePath``, ``DegeneratePath`` or
    ``NonPositiveScalingDiscriminant``), or '' for a usable row.

    A row is not finite when one of its functionals is not, or when the
    scaling discriminant e1*e3 - e2^2 overflows (a variance that grew past
    about 1e77).  A row is degenerate when ``denom`` is at or below the
    degeneracy threshold of its natural scale T * i2, and it cannot be scaled
    unless e1 > 0 and e1*e3 - e2^2 > 0.  A 0-d array for the floats of one
    path.

    Raises:
        InvalidArgument: ``f`` is not a :class:`PathFunctionals`.
    """
    t = require_instance(f, PathFunctionals, "f").t_horizon
    with np.errstate(invalid="ignore", over="ignore"):
        disc = f.e1 * f.e3 - f.e2 * f.e2
        finite = np.logical_and.reduce(
            [np.isfinite(getattr(f, name)) for name in _COLUMNS] + [np.isfinite(disc)])
        spread = f.denom > _DEGENERACY_REL_TOL * np.maximum(1.0, t * f.i2)
        scalable = np.logical_and(f.e1 > 0.0, disc > 0.0)
    return np.select(
        [~finite, ~spread, ~scalable], [check.__name__ for check in _ROW_CHECKS], ""
    )


def _require(f: PathFunctionals, checks) -> None:
    reasons = failure_reasons(f)
    for check in checks:
        if np.any(reasons == check.__name__):
            raise check(_ROW_CHECKS[check])


def lse_from_functionals(f: PathFunctionals) -> LseEstimate:
    """Closed-form drift estimates from path functionals, row by row.

    Raises:
        InvalidArgument: as :func:`failure_reasons`.
        NonFinitePath: a row holds a value, or has an e1*e3 - e2^2, that is
            not a finite number.
        DegeneratePath: a row's ``denom`` is at or below the degeneracy
            threshold.
    """
    _require(f, (NonFinitePath, DegeneratePath))
    t = f.t_horizon
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

    Raises:
        InvalidGrid / InvalidArgument: ``dt`` is not a finite number > 0, or
            ``candidate`` is not four finite real numbers.
        InvalidArgument / PathTooShort / LengthMismatch / NonFiniteSample:
            as :func:`lse_discrete_alphabeta`.
    """
    require_positive(dt, "dt", InvalidGrid)
    a, b, alpha, beta = _drift_values(candidate, "candidate")
    y, x = _check_samples(y_samples, x_samples)
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
    """The diagnostic of a path's functionals at a given sigma1.

    Raises:
        InvalidArgument: ``f`` is not a :class:`PathFunctionals`.
        NonPositiveSigma: sigma1 is not a finite number > 0.
    """
    require_instance(f, PathFunctionals, "f")
    require_positive(sigma1, "sigma1", NonPositiveSigma)
    s1sq = sigma1 * sigma1
    i3_ito = 0.5 * (f.y_terminal ** 2 - f.y0 ** 2 - s1sq * f.i1)
    qv_ratio = f.qv_y / (s1sq * f.i1) if f.i1 > 0.0 else math.nan
    return IntegralDiagnostic(i3_direct=f.i3, i3_ito=i3_ito, qv_ratio=qv_ratio)


def truth_vector(truth) -> np.ndarray:
    """The drift coefficients (a, b, alpha, beta) of a ModelParams or of four
    finite real numbers, else ``InvalidArgument``."""
    if isinstance(truth, ModelParams):
        return truth.drift_vector()
    return np.array(_drift_values(truth, "truth"))


def normalized_error(est: LseEstimate, truth) -> np.ndarray:
    """sqrt(T) times the estimation error, the scale with a Gaussian limit.

    Raises:
        InvalidArgument: ``est`` is not an :class:`LseEstimate`, or as
            :func:`truth_vector`.
    """
    t = require_instance(est, LseEstimate, "est").functionals.t_horizon
    return math.sqrt(t) * (est.vector() - truth_vector(truth))


def random_scaling_transform(est: LseEstimate, truth, f: PathFunctionals) -> np.ndarray:
    """Self-normalized estimation error with a parameter-free Gaussian limit.

    The 4-vector (a row of the (rows, 4) result for columnar functionals) is
    obtained from the raw error by an invertible linear map built solely
    from path moments; under the model it converges to a centered Gaussian
    whose covariance involves only the diffusion constants (sigma1, sigma2,
    rho), not the drift.

    Two algebraically equal formulations exist: one in terms of the raw
    time-integral functionals applied to the unnormalized error, one in
    terms of time averages applied to the sqrt(T)-normalized error.  This
    implements the time-averaged form.

    Raises:
        InvalidArgument: as :func:`normalized_error`, or ``f`` is not a
            :class:`PathFunctionals`.
        NonFinitePath: a row holds a value, or has an e1*e3 - e2^2, that is
            not a finite number.
        DegeneratePath: the spread denominator is at the degeneracy threshold.
        NonPositiveScalingDiscriminant: e1 <= 0 or e1*e3 - e2^2 <= 0, so the
            scaling map is not defined.
    """
    _require(f, _ROW_CHECKS)
    t = f.t_horizon
    disc = f.e1 * f.e3 - f.e2 * f.e2
    var_bar = f.denom / (t * t)  # e2 - e1^2, centered evaluation
    r11 = var_bar / np.sqrt(disc)
    err = normalized_error(est, truth)
    pref = 1.0 / np.sqrt(f.e1)
    return np.stack([
        pref * r11 * err[..., 0],
        pref * (-err[..., 0] + f.e1 * err[..., 1]),
        pref * r11 * err[..., 2],
        pref * (-err[..., 2] + f.e1 * err[..., 3]),
    ], axis=-1)


def estimate_record(
    est: LseEstimate, scheme: str | None = None, seed: int | None = None
) -> dict:
    """Flat key-value record of an estimate, as emitted by the command line.

    Raises:
        InvalidArgument: ``est`` is not an :class:`LseEstimate`, or a
            ``scheme`` other than None is neither a :class:`Scheme` nor a str.
    """
    f = require_instance(est, LseEstimate, "est").functionals
    if scheme is not None:
        require_instance(scheme, (Scheme, str), "scheme")
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
