"""Seeded replicate experiments and the statistics reported on them.

A Monte Carlo experiment simulates many independent joint paths, estimates
the four drift coefficients on each, and studies the error sample three ways:

* location/spread: expected bias, L1 and L2 error, relative error of the
  mean estimate;
* shape: skewness and excess kurtosis of the sqrt(T)-normalized errors, with
  Jarque-Bera and Anderson-Darling composite-normality tests;
* covariance: sample covariance of the normalized errors against the
  closed-form limit matrix, and of the self-normalized (path-scaled) errors
  against the parameter-free limit S (x) I_2.

Skewness and kurtosis use population (1/n) central moments, the convention
under which the Jarque-Bera statistic has its chi-square(2) limit, whose
survival function at JB is exactly exp(-JB/2).

The Anderson-Darling p-value uses the classical estimated-parameters
piecewise approximation on the modified statistic A*^2 = A^2 (1 + 0.75/n +
2.25/n^2):

    A*^2 >= 0.600:        p = exp(1.2937 - 5.709 A*^2 + 0.0186 A*^4)
    0.340 <= A*^2 < 0.6:  p = exp(0.9177 - 4.279 A*^2 - 1.38  A*^4)
    0.200 <  A*^2 < 0.34: p = 1 - exp(-8.318 + 42.796 A*^2 - 59.938 A*^4)
    A*^2 <= 0.200:        p = 1 - exp(-13.436 + 101.14 A*^2 - 223.73 A*^4)

The first branch is a parabola in A*^2 with its vertex at 5.709/(2*0.0186),
about 153.5, beyond which it would climb back towards 1 and then overflow; it
is evaluated at min(A*^2, vertex), and capped at the second branch's value at
0.6, where the two branches meet with an upward step of 0.0025.  The p-value
is thus non-increasing in the statistic over the whole half-line.  The
standard-normal log-distribution function is evaluated through the
complementary error function (scipy.special.log_ndtr).  A calibration sweep
test pins this approximation against uniform p-values under the null.

Replicate r of an experiment draws its noise from the streams of
``SeedLineage(master_seed, r)`` and from nothing else, so results are
independent of lane grouping, block length and thread count.  A lane group
seeds all of its streams at once (:func:`lane_generators`).

Replicates are simulated as lanes, by the functions that simulate a single
path.  A lane group of at most 1024 replicates advances together through
blocks of B steps: it draws the block (:func:`draw_normals`), takes its
variance steps (:func:`advance_variance`), then prices it and folds it into
per-lane path sums (:class:`PathSums`) a tile at a time, and discards it.
Memory is therefore set by the lane group and B, not by the number of steps
N.  A DESRE lane that aborts is dropped at the end of the block in which it
aborted.

Results are columnar: a :class:`ReplicateTable` holds one row per successful
replicate, and the estimator, its normalizations and the summary work on its
columns.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from operator import attrgetter

import numpy as np
from scipy.special import log_ndtr

from .errors import (
    AllReplicatesFailed,
    ConfigParseError,
    DegenerateSample,
    FellerViolated,
    InsufficientData,
    InvalidGrid,
    TiesDegenerate,
)
from .estimate import (
    SUM_TILE,
    PathFunctionals,
    PathSums,
    failure_reasons,
    lse_from_functionals,
    normalized_error,
    random_scaling_transform,
    truth_vector,
)
from .model import AsymptoticCovariance, ModelParams, kron
from .simulate import (
    BLOCK_ELEMENTS,
    Scheme,
    TimeGrid,
    advance_variance,
    draw_normals,
    lane_generators,
    price_block,
    variance_state,
)

__all__ = [
    "CONFIG_KEYS",
    "ExperimentConfig",
    "ReplicateTable",
    "ReplicateFailure",
    "McRun",
    "ParamStats",
    "McSummary",
    "DeviationReport",
    "PARAM_NAMES",
    "PRESET_NAMES",
    "canonical_params",
    "parse_config_values",
    "preset_config",
    "run_replicates",
    "summarize",
    "jarque_bera",
    "jarque_bera_pvalue",
    "anderson_darling",
    "anderson_darling_pvalue",
    "histogram_overlay",
    "HistogramOverlay",
    "covariance_check",
]

PARAM_NAMES = ("a", "b", "alpha", "beta")

# The lane kernel's element budget, bound here so that a test can set it for
# Monte Carlo alone.  With the lane cap below it sets both the number of
# replicates advanced together and the block length B (a multiple of the
# summation tile, at least 512 steps once the group is at the cap).  Each
# worker thread runs one lane group at a time.
_BLOCK_ELEMENTS = BLOCK_ELEMENTS

# Most lanes in one group.  Wide groups spread the step loop's per-step
# numpy calls over more lanes, but past about a thousand lanes that cost is
# already spread thin.  Wider groups then only shorten the blocks, so that
# each lane draws its normals in more, shorter calls, and they make the
# (lanes, SUM_TILE) price and fold temporaries outgrow the L2 cache (1 MB
# each at 1024 lanes, 4 MB at 4096, against 2 MB of L2 a core on a 2-vCPU
# Xeon).  There, 10^4 replicates of 1000 steps took a median 1.47 s with a
# cap of 512 lanes, 1.41 s with 1024, 1.65 s with 2048 and 1.71 s with 4096.
_MAX_LANES = 1024


def _as_float(value) -> float:
    with contextlib.suppress(TypeError, ValueError):
        return float(value)
    raise ValueError(f"not a number: {value!r}")


def _as_int(value) -> int:
    # a float, even an integral one, is refused rather than truncated
    if isinstance(value, (str, numbers.Integral)):
        with contextlib.suppress(ValueError):
            return int(value)
    raise ValueError(f"not an integer: {value!r}")


_PARAM_KEYS = tuple(field.name for field in fields(ModelParams))

# The one table of config keys, in file order: how a key's value is parsed
# (from text or from a number) and which attribute of an ExperimentConfig
# holds it.  Config files, --set overrides, presets and the config echo of
# report.json all go through it.
_CONFIG_KEYS = {
    **{name: (_as_float, f"params.{name}") for name in _PARAM_KEYS},
    "T": (_as_float, "grid.horizon"),
    "N": (_as_int, "grid.steps"),
    "scheme": (Scheme.parse, "scheme.value"),
    "replicates": (_as_int, "replicates"),
    "seed": (_as_int, "master_seed"),
}
CONFIG_KEYS = tuple(_CONFIG_KEYS)


def parse_config_values(mapping) -> dict:
    """Parse each config key that ``mapping`` holds, as text or a number.

    Raises:
        ConfigParseError: a value its key cannot take; names the key.
    """
    values = {}
    for key, (parse, _) in _CONFIG_KEYS.items():
        if key in mapping:
            try:
                values[key] = parse(mapping[key])
            except ValueError as exc:
                raise ConfigParseError(f"config key {key!r}: {exc}") from None
    return values


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete, validated description of a replicate experiment."""

    params: ModelParams
    grid: TimeGrid
    scheme: Scheme
    replicates: int
    master_seed: int

    def __post_init__(self):
        if not (isinstance(self.replicates, numbers.Integral) and self.replicates >= 1):
            raise ConfigParseError(f"replicates must be an integer >= 1, got {self.replicates!r}")
        if not (isinstance(self.master_seed, numbers.Integral) and self.master_seed >= 0):
            raise ConfigParseError(
                f"seed (master_seed) must be an integer >= 0, got {self.master_seed!r}"
            )
        if self.scheme.uses_sqrt_state and not self.params.feller_strict:
            raise FellerViolated(
                f"scheme {self.scheme.value} needs a > sigma1^2/2, "
                f"got a={self.params.a}, sigma1={self.params.sigma1}"
            )
        if self.scheme is Scheme.DISRE and not 2.0 + self.params.b * self.grid.dt > 0.0:
            raise InvalidGrid(
                f"scheme DISRE needs 2 + b*dt > 0, got b={self.params.b}, "
                f"dt={self.grid.dt} (T={self.grid.horizon}, N={self.grid.steps})"
            )

    @classmethod
    def from_mapping(cls, mapping) -> "ExperimentConfig":
        """Validate a mapping of every config key (other keys are ignored).

        Raises:
            ConfigParseError: a missing key, or a value that is not a number,
                an integer or a scheme as the key needs; names the key.
            InvalidParams / InvalidGrid / FellerViolated: delegated validation.
        """
        missing = [key for key in CONFIG_KEYS if key not in mapping]
        if missing:
            raise ConfigParseError(f"missing config key(s): {', '.join(missing)}")
        values = parse_config_values(mapping)
        return cls(
            params=ModelParams(**{name: values[name] for name in _PARAM_KEYS}),
            grid=TimeGrid(horizon=values["T"], steps=values["N"]),
            scheme=values["scheme"],
            replicates=values["replicates"],
            master_seed=values["seed"],
        )

    def to_mapping(self) -> dict:
        """Every config key with its value, as :meth:`from_mapping` reads it."""
        return {key: attrgetter(path)(self) for key, (_, path) in _CONFIG_KEYS.items()}


_CANONICAL = dict(
    a=0.4, b=0.3, alpha=0.1, beta=0.15, sigma1=0.4, sigma2=0.3, rho=0.2, y0=0.2, x0=0.1
)


def canonical_params() -> ModelParams:
    """The benchmark coefficient set used by every named preset."""
    return ModelParams(**_CANONICAL)


_PRESETS = {
    "table1": {"T": 3000.0, "N": 30_000, "replicates": 10_000, "seed": 101},
    "paper": {"T": 5000.0, "N": 50_000, "replicates": 10_000, "seed": 102},
    "desk": {"T": 2000.0, "N": 20_000, "replicates": 2_000, "seed": 103},
}
PRESET_NAMES = tuple(_PRESETS)


def preset_config(name: str) -> ExperimentConfig:
    """Named experiment presets, all DISRE on the canonical coefficients.

    ``table1``: T=3000, N=30000, 10^4 replicates (long-run means at scale).
    ``paper``:  T=5000, N=50000, 10^4 replicates (full-scale study; slow).
    ``desk``:   T=2000, N=20000, 2000 replicates (minutes; the gated scale).
    """
    try:
        preset = _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; expected one of {sorted(_PRESETS)}"
        ) from None
    return ExperimentConfig.from_mapping({**_CANONICAL, "scheme": "DISRE", **preset})


# ---------------------------------------------------------------------------
# replicate fan-out


@dataclass(frozen=True)
class ReplicateTable:
    """The successful replicates of a run, one row each, in index order.

    ``index`` (R,) holds the replicate indices, ``functionals`` the path
    functionals as (R,) columns (``y_terminal`` and ``x_terminal`` among
    them), and ``estimates``, ``normalized`` and ``scaled`` the (R, 4) drift
    estimates, their sqrt(T)-normalized errors and their path-scaled errors,
    columns in the order of :data:`PARAM_NAMES`.
    """

    index: np.ndarray
    functionals: PathFunctionals
    estimates: np.ndarray
    normalized: np.ndarray
    scaled: np.ndarray

    def __len__(self) -> int:
        return self.index.shape[0]

    @classmethod
    def from_functionals(cls, index, f: PathFunctionals, truth) -> "ReplicateTable":
        """Estimate, normalize and scale every row of columnar functionals;
        raises the failure of a row that fails :func:`failure_reasons`."""
        est = lse_from_functionals(f)
        return cls(
            index=np.asarray(index),
            functionals=f,
            estimates=est.vector(),
            normalized=normalized_error(est, truth),
            scaled=random_scaling_transform(est, truth, f),
        )


@dataclass(frozen=True)
class ReplicateFailure:
    """Recorded abort of one replicate (excluded from statistics)."""

    index: int
    reason: str
    step: int | None = None


@dataclass(frozen=True)
class McRun:
    """Outcome of run_replicates: results, failures, and the config used."""

    config: ExperimentConfig
    results: ReplicateTable
    failures: tuple[ReplicateFailure, ...] = field(default=())


def _lane_plan(replicates: int, threads: int) -> tuple[int, int]:
    """(lanes per group, block steps) under the element budget.

    Lanes are split evenly across the threads, no group is so wide that its
    blocks would be shorter than one summation tile, and no group has more
    than ``_MAX_LANES`` lanes.
    """
    lanes = min(
        -(-replicates // threads),
        max(1, _BLOCK_ELEMENTS // SUM_TILE),
        _MAX_LANES,
    )
    block = max(1, _BLOCK_ELEMENTS // lanes // SUM_TILE) * SUM_TILE
    return lanes, block


def _run_lanes(config: ExperimentConfig, lo: int, hi: int, block: int):
    """Simulate replicates lo..hi-1 as one lane group, block by block.

    Returns the indices and functionals of the lanes that pass
    :func:`failure_reasons` (no functionals if every lane aborted), and the
    group's failures in replicate order.
    """
    params, grid, scheme = config.params, config.grid, config.scheme
    dt, n = grid.dt, grid.steps
    index = np.arange(lo, hi)
    streams = lane_generators(config.master_seed, index)
    state = variance_state(params, scheme, len(index))
    failed = np.full(len(index), -1, dtype=np.int64)
    sums = PathSums(np.full(len(index), params.y0), np.full(len(index), params.x0))
    failures: list[ReplicateFailure] = []

    # a variance that overflows runs on as inf or NaN without warnings, and
    # failure_reasons fails its replicate as NonFinitePath
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, block):
            steps = min(block, n - start)
            eta, zeta = draw_normals(streams, steps)
            y, state = advance_variance(
                params, dt, scheme, state, eta, sums.y_end, failed, start)
            # price and fold a tile at a time, carrying the price in the sums: the
            # price temporaries stay (lanes, SUM_TILE) and are reused by the
            # allocator, where block-sized ones are faulted in again every block
            # (pricing and folding whole 1024 x 512 blocks took 40-70% longer)
            for t0 in range(0, steps, SUM_TILE):
                t1 = min(t0 + SUM_TILE, steps)
                y_t = y[:, t0 : t1 + 1]
                sums.fold(y_t, price_block(
                    params, dt, y_t, eta[:, t0:t1], zeta[:, t0:t1], sums.x_end))
            if scheme is Scheme.DESRE and (failed >= 0).any():
                keep = failed < 0
                failures.extend(
                    ReplicateFailure(index=int(r), reason="NonPositiveZ", step=int(k))
                    for r, k in zip(index[~keep], failed[~keep])
                )
                index, state, failed = index[keep], state[keep], failed[keep]
                streams = [s for s, live in zip(streams, keep) if live]
                sums.select(keep)
                if not len(index):
                    break

    f = None
    if len(index):  # else every lane aborted and the sums stop short of N
        f = sums.functionals(grid)
        reasons = failure_reasons(f)
        ok = reasons == ""
        failures.extend(
            ReplicateFailure(index=int(r), reason=str(why))
            for r, why in zip(index[~ok], reasons[~ok])
        )
        index, f = index[ok], f.take(ok)
    failures.sort(key=lambda fl: fl.index)
    return index, f, failures


def run_replicates(config: ExperimentConfig, threads: int = 1) -> McRun:
    """Run all replicates of an experiment, optionally across threads.

    Replicates are split into lane groups under the element budget, and
    worker threads take whole groups.  Thread count affects wall time only:
    each replicate's noise comes from its own seed lineage, its sums do not
    depend on its group or block length, and groups are merged in index
    order, so any value of ``threads`` produces identical results.  A
    replicate whose functionals fail :func:`failure_reasons` (a non-finite
    value, no spread, no scaling) is recorded as a failure with that reason.

    Raises:
        ConfigParseError: ``threads`` is not an integer >= 1.
        AllReplicatesFailed: no replicate produced a usable estimate.
    """
    if not (isinstance(threads, numbers.Integral) and threads >= 1):
        raise ConfigParseError(f"threads must be an integer >= 1, got {threads!r}")
    lanes, block = _lane_plan(config.replicates, threads)
    bounds = [
        (lo, min(lo + lanes, config.replicates))
        for lo in range(0, config.replicates, lanes)
    ]
    if threads > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda b: _run_lanes(config, *b, block), bounds))
    else:
        parts = [_run_lanes(config, lo, hi, block) for lo, hi in bounds]

    failures = tuple(fl for _, _, fails in parts for fl in fails)
    kept = [(index, f) for index, f, _ in parts if len(index)]
    if not kept:
        raise AllReplicatesFailed(
            f"all {config.replicates} replicates failed "
            f"({failures[0].reason} at first failure)"
        )
    results = ReplicateTable.from_functionals(
        np.concatenate([index for index, _ in kept]),
        PathFunctionals.concat([f for _, f in kept]),
        config.params.drift_vector(),
    )
    return McRun(config=config, results=results, failures=failures)


# ---------------------------------------------------------------------------
# moment statistics and normality tests


def _central_moments(sample: np.ndarray):
    mean = float(np.mean(sample))
    d = sample - mean
    m2 = float(np.mean(d * d))
    m3 = float(np.mean(d ** 3))
    m4 = float(np.mean(d ** 4))
    return mean, m2, m3, m4


def _skew_excess_kurtosis(sample: np.ndarray) -> tuple[float, float]:
    """Population-moment skewness and excess kurtosis (NaN on zero spread)."""
    _, m2, m3, m4 = _central_moments(sample)
    if m2 <= 0.0:
        return math.nan, math.nan
    return m3 / m2 ** 1.5, m4 / (m2 * m2) - 3.0


def jarque_bera_pvalue(stat: float) -> float:
    """Chi-square(2) survival function at the statistic: exp(-stat/2)."""
    return float(np.exp(-0.5 * stat))


def jarque_bera(sample) -> tuple[float, float]:
    """Jarque-Bera normality statistic and p-value on a sample.

    Raises:
        InsufficientData: fewer than 8 observations.
    """
    x = np.asarray(sample, dtype=float)
    if x.ndim != 1 or x.shape[0] < 8:
        raise InsufficientData("Jarque-Bera needs at least 8 observations")
    n = x.shape[0]
    g1, g2 = _skew_excess_kurtosis(x)
    stat = n / 6.0 * (g1 * g1 + 0.25 * g2 * g2)
    return float(stat), jarque_bera_pvalue(stat)


def _ad_upper_branch(aa: float) -> float:
    return math.exp(0.9177 - 4.279 * aa - 1.38 * aa * aa)


# where the tail branch's exponent turns upward, and the upper branch's value
# at the tail branch's start, which caps the tail branch
_AD_TAIL_VERTEX = 5.709 / (2.0 * 0.0186)
_AD_TAIL_CAP = _ad_upper_branch(0.6)


def anderson_darling_pvalue(stat: float, n: int) -> float:
    """Estimated-parameters p-value for an Anderson-Darling statistic.

    Applies the small-sample modification for sample size ``n`` and the
    piecewise exponential approximation documented in the module docstring;
    the result is non-increasing in ``stat`` and never overflows.
    """
    aa = stat * (1.0 + 0.75 / n + 2.25 / (n * n))
    if aa >= 0.6:
        tail = min(aa, _AD_TAIL_VERTEX)
        p = min(_AD_TAIL_CAP, math.exp(1.2937 - 5.709 * tail + 0.0186 * tail * tail))
    elif aa >= 0.34:
        p = _ad_upper_branch(aa)
    elif aa > 0.2:
        p = 1.0 - math.exp(-8.318 + 42.796 * aa - 59.938 * aa * aa)
    else:
        p = 1.0 - math.exp(-13.436 + 101.14 * aa - 223.73 * aa * aa)
    return float(min(1.0, max(0.0, p)))


def anderson_darling(sample) -> tuple[float, float]:
    """Anderson-Darling composite-normality statistic and p-value.

    The sample is standardized by its own mean and (ddof=1) standard
    deviation; the statistic is therefore invariant under positive affine
    maps of the data.

    Raises:
        InsufficientData: fewer than 8 observations.
        TiesDegenerate: zero sample variance.
    """
    x = np.asarray(sample, dtype=float)
    if x.ndim != 1 or x.shape[0] < 8:
        raise InsufficientData("Anderson-Darling needs at least 8 observations")
    n = x.shape[0]
    sd = float(np.std(x, ddof=1))
    if not sd > 0.0:
        raise TiesDegenerate("sample has zero variance")
    z = np.sort((x - float(np.mean(x))) / sd)
    i = np.arange(1, n + 1)
    # log F(z_(i)) and log(1 - F(z_(n+1-i))) via the erfc-based log-ndtr
    stat = -n - float(np.mean((2 * i - 1) * (log_ndtr(z) + log_ndtr(-z[::-1]))))
    return stat, anderson_darling_pvalue(stat, n)


# ---------------------------------------------------------------------------
# histogram with limit-law overlay


@dataclass(frozen=True)
class HistogramOverlay:
    """Density histogram of a sample with a centered normal overlay.

    ``density`` is count/(n_total * bin_width), so density times width sums
    to the fraction of the sample inside the plotted range.  ``overlay`` is
    the zero-mean normal density with the supplied variance at bin centers.
    """

    bin_centers: np.ndarray
    density: np.ndarray
    overlay: np.ndarray
    bin_width: float
    in_range_fraction: float


def histogram_overlay(sample, theoretical_variance: float) -> HistogramOverlay:
    """60-bin density histogram over sample-mean +/- 4 limit-sigmas.

    Raises:
        DegenerateSample: fewer than 2 points, zero sample spread, or a
            nonpositive theoretical variance.
    """
    x = np.asarray(sample, dtype=float)
    if x.ndim != 1 or x.shape[0] < 2:
        raise DegenerateSample("histogram needs at least 2 observations")
    if not theoretical_variance > 0.0:
        raise DegenerateSample(
            f"theoretical variance must be > 0, got {theoretical_variance}"
        )
    if float(np.max(x)) == float(np.min(x)):
        raise DegenerateSample("sample has zero spread")
    mu = float(np.mean(x))
    sig = math.sqrt(theoretical_variance)
    lo, hi = mu - 4.0 * sig, mu + 4.0 * sig
    counts, edges = np.histogram(x, bins=60, range=(lo, hi))
    width = (hi - lo) / 60.0
    density = counts / (x.shape[0] * width)
    centers = 0.5 * (edges[:-1] + edges[1:])
    overlay = np.exp(-0.5 * centers * centers / theoretical_variance) / math.sqrt(
        2.0 * math.pi * theoretical_variance
    )
    return HistogramOverlay(
        bin_centers=centers,
        density=density,
        overlay=overlay,
        bin_width=width,
        in_range_fraction=float(np.sum(counts)) / x.shape[0],
    )


# ---------------------------------------------------------------------------
# summary over a result set


@dataclass(frozen=True)
class ParamStats:
    """Error statistics for one drift coefficient over a result set."""

    expected_bias: float
    l1_error: float
    l2_error: float
    relative_error: float
    skewness: float
    excess_kurtosis: float
    jb_stat: float
    jb_pvalue: float
    ad_stat: float
    ad_pvalue: float


@dataclass(frozen=True)
class McSummary:
    """All per-parameter and global statistics of a replicate experiment."""

    n_results: int
    truth: np.ndarray
    per_param: dict[str, ParamStats]
    mean_y_terminal: float
    mean_x_terminal_over_t: float
    cov_normalized: np.ndarray
    cov_scaled: np.ndarray


def summarize(results: ReplicateTable, truth) -> McSummary:
    """Per-parameter and covariance statistics over successful replicates.

    Shape and normality diagnostics need at least 8 results; below that they
    are reported as NaN rather than failing the whole summary (the
    standalone test functions raise instead).

    Raises:
        InsufficientData: fewer than 2 results.
    """
    n = len(results)
    if n < 2:
        raise InsufficientData("summary needs at least 2 results")
    truth_vec = truth_vector(truth)
    estimates, normalized = results.estimates, results.normalized
    f = results.functionals

    per_param: dict[str, ParamStats] = {}
    for idx, name in enumerate(PARAM_NAMES):
        errors = estimates[:, idx] - truth_vec[idx]
        bias = float(np.mean(errors))
        l1 = float(np.mean(np.abs(errors)))
        l2 = float(np.sqrt(np.mean(errors * errors)))
        theta = truth_vec[idx]
        # identical to (mean estimate - theta)/theta but without the
        # cancellation noise of averaging first
        relative = bias / theta if theta != 0.0 else math.nan
        g1, g2 = _skew_excess_kurtosis(normalized[:, idx])
        if n >= 8:
            jb_stat, jb_p = jarque_bera(normalized[:, idx])
            try:
                ad_stat, ad_p = anderson_darling(normalized[:, idx])
            except TiesDegenerate:
                ad_stat, ad_p = math.nan, math.nan
        else:
            jb_stat = jb_p = ad_stat = ad_p = math.nan
        per_param[name] = ParamStats(
            expected_bias=bias,
            l1_error=l1,
            l2_error=l2,
            relative_error=relative,
            skewness=g1,
            excess_kurtosis=g2,
            jb_stat=jb_stat,
            jb_pvalue=jb_p,
            ad_stat=ad_stat,
            ad_pvalue=ad_p,
        )

    return McSummary(
        n_results=n,
        truth=truth_vec,
        per_param=per_param,
        mean_y_terminal=float(np.mean(f.y_terminal)),
        mean_x_terminal_over_t=float(np.mean(f.x_terminal)) / f.t_horizon,
        cov_normalized=np.cov(normalized, rowvar=False),
        cov_scaled=np.cov(results.scaled, rowvar=False),
    )


# ---------------------------------------------------------------------------
# deviation report against the closed-form limits


@dataclass(frozen=True)
class DeviationReport:
    """Entrywise deviation of the sample covariances from their limits.

    Diagonal entries are relative deviations; off-diagonal entries are
    absolute deviations divided by the geometric mean sqrt(t_ii * t_jj) of
    the theoretical diagonal.  ``low_confidence`` flags result sets smaller
    than 100, where these ratios are dominated by sampling noise.
    """

    normalized_dev: np.ndarray
    scaled_dev: np.ndarray
    max_normalized_dev: float
    max_scaled_dev: float
    low_confidence: bool


def _entrywise_dev(sample: np.ndarray, theory: np.ndarray) -> np.ndarray:
    scale = np.sqrt(np.outer(np.diag(theory), np.diag(theory)))
    return np.abs(sample - theory) / scale


def covariance_check(summary: McSummary, theory: AsymptoticCovariance) -> DeviationReport:
    """Compare the summary's covariance estimates with the limit matrices."""
    scaled_theory = kron(theory.s_matrix, np.eye(2))
    norm_dev = _entrywise_dev(summary.cov_normalized, theory.sigma_matrix)
    scal_dev = _entrywise_dev(summary.cov_scaled, scaled_theory)
    return DeviationReport(
        normalized_dev=norm_dev,
        scaled_dev=scal_dev,
        max_normalized_dev=float(np.max(norm_dev)),
        max_scaled_dev=float(np.max(scal_dev)),
        low_confidence=summary.n_results < 100,
    )
