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
standard-normal log-distribution function is evaluated through the C
library's complementary error function, with an asymptotic series in the
far lower tail (:func:`hestonlab.simulate.log_ndtr`).  A calibration sweep
test pins this approximation against uniform p-values under the null.

Replicate r of an experiment draws its noise from the streams of
``SeedLineage(master_seed, r)`` and from nothing else, so results are
independent of lane grouping, block length and thread count.  Where the
compiled kernel loads, a lane group's stream seeds are hashed in one call
(:meth:`hestonlab.kernel.LaneKernel.seed`).

Replicates are simulated as lanes, in lane groups of at most 1024
replicates.  :func:`hestonlab.simulate.advance_lanes`, the engine that
single paths run on too, takes each group through its whole path and folds
each lane into its path sums (:class:`hestonlab.estimate.PathSums`).  Where
the compiled lane kernel builds, that is one call, which draws its own
normals and runs without the interpreter lock, so worker threads advance
their groups in parallel.  Elsewhere it is numpy blocks with the same bits,
whose memory is set by the lane group and the element budget, not by the
number of steps N.  Lanes that abort stop drawing and are recorded as
failures with their step.

The pool starts no more workers than the CPUs the calling thread may run
on, and starts each worker on a CPU of its own.  Where the scheduler does
not balance load (a cpuset with ``cpuset.sched_load_balance`` off, see
cpuset(7)), a new thread starts on its creator's CPU and seldom leaves it,
so two unplaced workers can take turns on one CPU while another sits idle.
Each worker gets the caller's mask back once it is placed, so where the
scheduler does balance load it can still move the worker.

Results are columnar: a :class:`ReplicateTable` holds one row per successful
replicate, and the estimator, its normalizations and the summary work on its
columns.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from operator import attrgetter
from pathlib import Path

import numpy as np

from .errors import (
    INT64_MAX,
    AllReplicatesFailed,
    ConfigParseError,
    DegenerateSample,
    InsufficientData,
    InvalidArgument,
    InvalidSeed,
    NonFiniteSample,
    TiesDegenerate,
    is_real,
    real_array,
    require_finite,
    require_instance,
    require_int,
    require_positive,
)
from .estimate import (
    FAILURE_REASONS,
    PathFunctionals,
    failure_reasons,
    lse_from_functionals,
    normalized_error,
    random_scaling_transform,
    truth_vector,
)
from .model import AsymptoticCovariance, ModelParams, kron
from .simulate import Scheme, TimeGrid, advance_lanes, log_ndtr

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
    "preset_config",
    "read_config",
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

# Most lanes in one group; each worker thread runs one group at a time.  On
# the numpy pipeline of :func:`advance_lanes`, whose blocks hold at most
# ``simulate.BLOCK_ELEMENTS`` draws of a stream (at least 512 steps at this
# cap), wide groups spread the step loop's per-step numpy calls over more
# lanes, but past about a thousand lanes that cost is already spread thin.
# Wider groups then only shorten the blocks, so that each lane draws its
# normals in more, shorter calls, and they make the (lanes, SUM_TILE) price
# and fold temporaries outgrow the L2 cache (1 MB each at 1024 lanes, 4 MB
# at 4096, against 2 MB of L2 a core on a 2-vCPU Xeon).  There, 10^4
# replicates of 1000 steps took a median 1.47 s with a cap of 512 lanes,
# 1.41 s with 1024, 1.65 s with 2048 and 1.71 s with 4096.  The compiled kernel's cost per lane and step
# does not depend on the group's width, and its draws are a tile of each of
# eight lanes at a time, whatever the width.
_MAX_LANES = 1024


def _as_float(value) -> float:
    if not isinstance(value, (bool, np.bool_)):
        with contextlib.suppress(TypeError, ValueError):
            return float(value)
    raise ValueError(f"not a number: {value!r}")


def _as_int(value) -> int:
    # a float, even an integral one, is refused rather than truncated; a bool too
    if isinstance(value, (str, numbers.Integral)) and not isinstance(value, bool):
        with contextlib.suppress(ValueError):
            return int(value)
    raise ValueError(f"not an integer: {value!r}")


_PARAM_KEYS = tuple(field.name for field in fields(ModelParams))

# The one table of config keys, in file order: how a key's value is parsed
# (from text or from a number) and which attribute of an ExperimentConfig
# holds it.  Presets, config files and --set items are text that
# :func:`read_config` reads, and ExperimentConfig.to_text writes; the config
# echo of report.json goes through to_mapping and from_mapping.
_CONFIG_KEYS = {
    **{name: (_as_float, f"params.{name}") for name in _PARAM_KEYS},
    "T": (_as_float, "grid.horizon"),
    "N": (_as_int, "grid.steps"),
    "scheme": (Scheme.parse, "scheme.value"),
    "replicates": (_as_int, "replicates"),
    "seed": (_as_int, "master_seed"),
}
CONFIG_KEYS = tuple(_CONFIG_KEYS)


def _config_values(mapping) -> dict:
    """Parse each config key that ``mapping`` holds, as text or a number."""
    values = {}
    for key, (parse, _) in _CONFIG_KEYS.items():
        if key in mapping:
            try:
                values[key] = parse(mapping[key])
            except ValueError as exc:
                raise ConfigParseError(f"config key {key!r}: {exc}") from None
    return values


def read_config(path=None, overrides=(), preset: str | None = None) -> dict:
    """The parsed values of the keys that a preset, a config file and
    ``--set`` items name, read in that order as ``key = value`` lines with
    ``#`` comments; a later line wins, even over a value its key cannot take.
    A blank line is skipped, but refused as a ``--set`` item.

    Raises:
        ConfigParseError: an unreadable file; a line without ``=``, or with an
            unknown key or no value, led by ``<path>: line <n>`` or ``--set``;
            a value its key cannot take, naming the key.
    """
    lines = []
    if preset:
        lines += [(f"preset {preset}", line) for line in preset_config(preset).to_text().splitlines()]
    if path:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigParseError(f"cannot read config file {path}: {exc}") from exc
        lines += [(f"{path}: line {n}", line) for n, line in enumerate(text.splitlines(), start=1)]
    lines += [("--set", item) for item in overrides]
    texts = {}
    for where, raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line and where != "--set":
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ConfigParseError(f"{where}: expected 'key = value', got {raw!r}")
        if key not in _CONFIG_KEYS:
            raise ConfigParseError(f"{where}: unknown key {key!r}")
        if not value:
            raise ConfigParseError(f"{where}: empty value for {key!r}")
        texts[key] = value
    return _config_values(texts)


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete, validated description of a replicate experiment."""

    params: ModelParams
    grid: TimeGrid
    scheme: Scheme
    replicates: int
    master_seed: int

    def __post_init__(self):
        for name, kind in (("params", ModelParams), ("grid", TimeGrid), ("scheme", Scheme)):
            require_instance(getattr(self, name), kind, name)
        # a numpy integer is held as the int it stands for, so that the
        # config echo of report.json serializes it
        object.__setattr__(self, "replicates",
                           require_int(self.replicates, "replicates", ConfigParseError, 1))
        object.__setattr__(self, "master_seed",
                           require_int(self.master_seed, "master_seed", InvalidSeed))
        self.scheme.check(self.params, self.grid.dt)

    @classmethod
    def from_mapping(cls, mapping) -> "ExperimentConfig":
        """Validate a mapping of every config key (other keys are ignored).

        Raises:
            ConfigParseError: a missing key, or a value that is not a number,
                an integer or a scheme as the key needs; names the key.
            InvalidSeed: a seed that is not an integer >= 0.
            InvalidParams / InvalidGrid / FellerViolated: delegated validation.
        """
        missing = [key for key in CONFIG_KEYS if key not in mapping]
        if missing:
            raise ConfigParseError(f"missing config key(s): {', '.join(missing)}")
        values = _config_values(mapping)
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

    def to_text(self) -> str:
        """Every config key as a ``key = value`` line, in :data:`CONFIG_KEYS`
        order; a float's ``str`` is its repr, so :func:`read_config` gives its bits."""
        return "".join(f"{key} = {value}\n" for key, value in self.to_mapping().items())


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

    Raises:
        ConfigParseError: an unknown name.
        InvalidArgument: a name that is not a str.
    """
    try:
        preset = _PRESETS[require_instance(name, str, "name")]
    except KeyError:
        raise ConfigParseError(
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


def _lane_plan(replicates: int, workers: int) -> int:
    """Lanes per group: split evenly across the workers, and none wider
    than ``_MAX_LANES``."""
    return min(-(-replicates // workers), _MAX_LANES)


def _cpus() -> list:
    """The CPUs that the calling thread may run on, in order.  Where the
    platform cannot name them (no ``os.sched_getaffinity``), one ``None``
    for each of ``os.cpu_count()`` CPUs."""
    try:
        return sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return [None] * (os.cpu_count() or 1)


def _place(cpus, mask) -> None:
    """Pool initializer: move the worker thread that runs it to the next CPU
    of the iterator ``cpus``, which the pool's threads share, then give it
    back the caller's ``mask``.  The move takes effect at once; the mask
    leaves a scheduler that balances load free to move the worker later.  A
    CPU that cannot be named, or a platform or container that refuses the
    placement, leaves the worker where the system puts it."""
    cpu = next(cpus)
    if cpu is not None:
        with contextlib.suppress(AttributeError, OSError):
            os.sched_setaffinity(0, (cpu,))
            os.sched_setaffinity(0, mask)


def _run_lanes(config: ExperimentConfig, lo: int, hi: int):
    """Simulate replicates lo..hi-1 as one lane group (:func:`advance_lanes`).

    Returns the indices and functionals of the lanes that pass
    :func:`failure_reasons` (no functionals if every lane aborted), and the
    group's failures in replicate order.
    """
    index = np.arange(lo, hi)
    # a variance that overflows runs on as inf or NaN, and failure_reasons
    # fails its replicate as NonFinitePath
    aborted, sums = advance_lanes(config.params, config.grid, config.scheme,
                                  config.master_seed, index)
    hit = aborted > 0
    failures = [ReplicateFailure(index=int(r), reason=FAILURE_REASONS[0], step=int(k))
                for r, k in zip(index[hit], aborted[hit])]
    index = index[~hit]
    f = None
    if len(index):  # else every lane aborted and the sums stop short of N
        f = sums.functionals(config.grid)
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

    Replicates are split into lane groups of at most ``_MAX_LANES``, and
    worker threads take whole groups.  At most as many workers start as
    the calling thread has CPUs to run on (``os.sched_getaffinity``, or
    ``os.cpu_count()`` where that does not exist), each started on one of
    those CPUs and then given the caller's mask back; the caller's own mask
    is never changed, and where the platform refuses a placement the worker
    runs unplaced.  Thread count affects wall time only:
    each replicate's noise comes from its own seed lineage, its sums do not
    depend on its group or block length, and groups are merged in index
    order, so any value of ``threads`` produces identical results.  A
    replicate whose functionals fail :func:`failure_reasons` (a non-finite
    value, no spread, no scaling) is recorded as a failure with that reason.

    Raises:
        InvalidArgument: ``config`` is not an :class:`ExperimentConfig`.
        ConfigParseError: ``threads`` is not an integer >= 1.
        AllReplicatesFailed: no replicate produced a usable estimate.
    """
    require_instance(config, ExperimentConfig, "config")
    require_int(threads, "threads", ConfigParseError, 1)
    cpus = _cpus()
    workers = min(threads, len(cpus))
    lanes = _lane_plan(config.replicates, workers)
    # taken one group at a time, so a huge replicate count lists no bounds
    bounds = ((lo, min(lo + lanes, config.replicates))
              for lo in range(0, config.replicates, lanes))
    if workers > 1 and config.replicates > lanes:
        with ThreadPoolExecutor(max_workers=workers, initializer=_place,
                                initargs=(iter(cpus), cpus)) as pool:
            # at most `workers` groups in flight, their results in order
            parts, running = [], []
            for lo, hi in bounds:
                if len(running) == workers:
                    parts.append(running.pop(0).result())
                running.append(pool.submit(_run_lanes, config, lo, hi))
            parts.extend(f.result() for f in running)
    else:
        parts = [_run_lanes(config, lo, hi) for lo, hi in bounds]

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


def _sample(sample, test: str, least: int, short: type) -> np.ndarray:
    """A sample of ``test`` as a 1-d float64 array of at least ``least``
    finite real numbers, else ``InvalidArgument``, ``short`` or
    ``NonFiniteSample``, naming ``test``."""
    x = real_array(sample, f"{test} needs a sample of real numbers")
    if x.ndim != 1 or x.shape[0] < least:
        raise short(f"{test} needs at least {least} observations")
    return require_finite(x, NonFiniteSample,
                          test + " needs finite observations, got {value} at index {i}")


def _unit_scaled(sample: np.ndarray) -> np.ndarray:
    """The sample over the power of two just above its largest magnitude.

    The scaling is exact, and it leaves skewness, kurtosis and the
    Anderson-Darling statistic as they are.  A sample that is not constant
    has a deviation from its mean of at least about 2^-54 of its largest
    magnitude, so after it no power up to the fourth of a deviation
    overflows, and no variance underflows below the normal doubles.
    """
    return np.ldexp(sample, -math.frexp(float(np.max(np.abs(sample))))[1])


# below this a variance, or its square, has lost precision to underflow
_SMALLEST_NORMAL = float(np.finfo(float).smallest_normal)


def _central_moments(sample: np.ndarray) -> tuple[float, float, float]:
    """The second to fourth central moments; zero for a constant sample,
    and those of :func:`_unit_scaled` of any other sample where they
    overflow or the second one's square underflows."""
    if np.ptp(sample) == 0.0:
        # the mean of a constant sample need not round back to its value
        # (20 copies of 0.1), so its deviations are not all zero
        return 0.0, 0.0, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(sample))
        d = sample - mean
        moments = (float(np.mean(d * d)), float(np.mean(d ** 3)), float(np.mean(d ** 4)))
    if all(map(math.isfinite, moments)) and moments[0] * moments[0] >= _SMALLEST_NORMAL:
        return moments
    return _central_moments(_unit_scaled(sample))


def _skew_excess_kurtosis(sample: np.ndarray) -> tuple[float, float]:
    """Population-moment skewness and excess kurtosis (NaN on zero spread)."""
    m2, m3, m4 = _central_moments(sample)
    if m2 <= 0.0:
        return math.nan, math.nan
    return m3 / m2 ** 1.5, m4 / (m2 * m2) - 3.0


def _require_statistic(stat, test: str) -> None:
    """Refuse (``InvalidArgument``) a statistic that is not a real number >= 0,
    NaN, a bool and an int beyond the doubles among them; +inf is the limit
    of a statistic."""
    if not (is_real(stat) and stat >= 0.0 or is_real(stat, finite=False) and stat == math.inf):
        raise InvalidArgument(f"{test} statistic must be a number >= 0, got {stat!r}")


def jarque_bera_pvalue(stat: float) -> float:
    """Chi-square(2) survival function at the statistic: exp(-stat/2).

    Raises:
        InvalidArgument: a statistic that is not a number >= 0.
    """
    _require_statistic(stat, "Jarque-Bera")
    return float(np.exp(-0.5 * stat))


def jarque_bera(sample) -> tuple[float, float]:
    """Jarque-Bera normality statistic and p-value on a sample; (nan, nan)
    for a constant one.

    Raises:
        InvalidArgument: a sample that does not hold real numbers.
        InsufficientData: fewer than 8 observations.
        NonFiniteSample: a NaN or infinite observation.
    """
    x = _sample(sample, "Jarque-Bera", 8, InsufficientData)
    return _jarque_bera(x.shape[0], *_skew_excess_kurtosis(x))


def _jarque_bera(n: int, g1: float, g2: float) -> tuple[float, float]:
    """The Jarque-Bera statistic and p-value of a sample of ``n`` whose
    skewness and excess kurtosis are g1 and g2; (nan, nan) for NaN ones."""
    if math.isnan(g1):  # a constant sample
        return math.nan, math.nan
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

    Raises:
        InvalidArgument: a statistic that is not a number >= 0, or an ``n``
            that is not an integer in [1, ``INT64_MAX``], a bool too.
    """
    _require_statistic(stat, "Anderson-Darling")
    n = require_int(n, "n", InvalidArgument, 1, INT64_MAX)
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
        InvalidArgument: a sample that does not hold real numbers.
        InsufficientData: fewer than 8 observations.
        NonFiniteSample: a NaN or infinite observation.
        TiesDegenerate: a constant sample.
    """
    x = _sample(sample, "Anderson-Darling", 8, InsufficientData)
    n = x.shape[0]
    # before any moment: the mean of a constant sample need not round back
    # to its value, which would leave a spread of rounding errors
    if np.ptp(x) == 0.0:
        raise TiesDegenerate("sample has zero variance")
    with np.errstate(over="ignore", invalid="ignore"):
        sd = float(np.std(x, ddof=1))
    if not (math.isfinite(sd) and sd * sd >= _SMALLEST_NORMAL):
        x = _unit_scaled(x)
        sd = float(np.std(x, ddof=1))
    z = np.sort((x - float(np.mean(x))) / sd)
    i = np.arange(1, n + 1)
    # log F(z_(i)) and log(1 - F(z_(n+1-i))) = log F(-z_(n+1-i))
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
        InvalidArgument: a sample that does not hold real numbers.
        DegenerateSample: fewer than 2 points, zero sample spread, or a
            theoretical variance that is not a finite number > 0 (a bool too).
        NonFiniteSample: a NaN or infinite observation.
    """
    x = _sample(sample, "histogram", 2, DegenerateSample)
    require_positive(theoretical_variance, "theoretical variance", DegenerateSample)
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
        InvalidArgument: ``results`` is not a :class:`ReplicateTable`.
        InsufficientData: fewer than 2 results.
    """
    n = len(require_instance(results, ReplicateTable, "results"))
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
            jb_stat, jb_p = _jarque_bera(n, g1, g2)
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
    """Compare the summary's covariance estimates with the limit matrices.

    Raises:
        InvalidArgument: ``summary`` is not an :class:`McSummary` or
            ``theory`` not an :class:`~hestonlab.model.AsymptoticCovariance`.
    """
    require_instance(summary, McSummary, "summary")
    require_instance(theory, AsymptoticCovariance, "theory")
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
