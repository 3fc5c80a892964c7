"""Path generation for the two-factor model on a uniform time grid.

Five one-step recursions for the variance factor are provided.  Three act
directly on Y and differ only in how they keep the square root meaningful:

* ``AVE``  -- absolute-value Euler: sqrt(|y|) in the diffusion term; the
  state itself may go negative.
* ``TE``   -- truncated Euler: sqrt(max(y, 0)); the state may go negative.
* ``SE``   -- symmetrized Euler: absolute value of the whole Euler step;
  the state stays nonnegative by construction.

Two act on the square root Z = sqrt(Y) and require the strict
no-touching-zero condition a > sigma1^2/2:

* ``DESRE`` -- explicit Euler for Z; aborts (``NonPositiveZ``) if Z leaves
  the positive half-line, with no flooring or reflection.
* ``DISRE`` -- drift-implicit Euler for Z, solved exactly by the closed-form
  positive root of its quadratic, hence strictly positive for any draw.

With step dt and draw eta, each recursion is evaluated from left to right
as written:

    AVE    y' = y + (a - b*y)*dt + sigma1*sqrt(|y|)*sqrt(dt)*eta
    TE     y' = y + (a - b*y)*dt + sigma1*sqrt(max(y, 0))*sqrt(dt)*eta
    SE     y' = |y + (a - b*y)*dt + sigma1*sqrt(y)*sqrt(dt)*eta|
    DESRE  z' = z + (level/z - 0.5*b*z)*dt + 0.5*sigma1*sqrt(dt)*eta,
                level = 0.5*a - 0.125*sigma1**2
    DISRE  u  = (z + 0.5*sigma1*sqrt(dt)*eta)/den,  den = 2 + b*dt,
           z' = u + sqrt(u*u + (a - 0.25*sigma1**2)*dt/den)

The log-price is advanced by an explicit Euler recursion driven by the
correlated pair (eta, zeta); its diffusion uses sqrt(max(y, 0)) so that the
recursion stays defined for schemes whose variance iterate can be negative.

Randomness contract: every replicate owns two independent Gaussian streams
(eta for the variance, zeta for the price) derived from a master seed, the
replicate index and a fixed stream tag.  Identical (seed, replicate) input
yields bit-identical paths no matter how replicates are batched or threaded.
Each stream is PCG64 on NumPy's ``SeedSequence(master_seed,
spawn_key=(replicate, tag))``: :func:`lane_generators` makes numpy's own,
and the compiled kernel hashes the same seed words for a whole lane group
in one call (:meth:`hestonlab.kernel.LaneKernel.seed`).  Both, and
:class:`SeedLineage`, refuse (``InvalidSeed``) a seed or replicate index
that is not an integer >= 0, a bool or float too.

Lanes and blocks: replicates advanced side by side are lanes, and a block
of draws or points holds one row per lane.  :func:`draw_normals` draws a
block, :func:`advance_variance` (the one step loop) turns it into variance
points, and :func:`price_block` into log-price points.  The step loop takes
a block's draws and the state it returned for the block before, or none to
start; it forms the initial state and each left endpoint, and gives each
DESRE abort as a step within the block.  It and :func:`price_block` let
overflow run on as inf or NaN, without warnings, and take the constants
each formula forms before it meets an array from :func:`step_constants`,
which refuses a bad step.  :func:`advance_lanes` is the one engine of lane
groups, for Monte Carlo runs and single paths.  It takes a group through
its whole path in one call of a compiled kernel that seeds its streams and
draws its own normals, takes the same constants and gives these functions'
bits (:mod:`hestonlab.kernel`).  Where the kernel does not build, it takes
the group through blocks of them, of whole summation tiles under
``BLOCK_ELEMENTS``.  :func:`simulate_paths` runs it on groups of as many
whole paths as ``BLOCK_ELEMENTS`` holds, and :func:`simulate_xy` on one
lane, and :func:`simulate_y` takes chosen draws through the kernel or the
step loop.  Lanes do not mix, and a path cut into blocks gives the bits of
the path in one piece.

CSV files: :func:`write_csv` and :func:`parse_csv` are the one codec of path
files (``t,y,x``, row 0 the start) and report files.  A file is a header, then
lines of the header's number of comma-separated cells, floats written with 17
significant digits.  A reader skips blank lines but counts them in the line
numbers it names, allows spaces around the header and cells, reads a cell as
``int()`` or ``float()`` does, and refuses a non-finite cell.  Two routes
give the same bytes and doubles: where the compiled kernel loads
(:func:`hestonlab.kernel.lane_kernel`), it writes '%.17g' and '%d' cells and
reads files of the strict form the writer makes (no blank line, space or
'\\r'; cells ``-?[0-9]+(\\.[0-9]+)?([eE][+-]?[0-9]+)?`` and ints of at most
15 digits); elsewhere, and for any other file or cell format, Python's %
formatting, ``float()`` and ``int()`` run.  So a cold kernel cache is
compiled on the first path a process simulates or the first file it writes
or reads.

The normality test's log Phi: :func:`log_ndtr` gives the standard normal
log-distribution function through the C library's ``erfc``, ``log1p`` and
``log``, which Python's ``math`` module calls too, so the compiled kernel
and the Python loop of :func:`log_ndtr_scalar` that runs where it does not
load give the same bits.  Far in the lower tail, where ``erfc`` would
underflow, an asymptotic series keeps the value finite.
"""

from __future__ import annotations

import enum
import math
import numbers
import os
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np
from numpy.random import SeedSequence

from .errors import (
    INT64_MAX,
    ConfigParseError,
    CsvFormatError,
    FellerViolated,
    InvalidArgument,
    InvalidGrid,
    InvalidSeed,
    LengthMismatch,
    NonFinitePath,
    NonFiniteSample,
    NonPositiveZ,
    PathFileNotFound,
    real_array,
    require_finite,
    require_instance,
    require_int,
    require_ints,
    require_positive,
)
from .model import ModelParams

__all__ = [
    "TimeGrid",
    "Scheme",
    "SeedLineage",
    "lane_generators",
    "draw_normals",
    "GaussianDraws",
    "XYPath",
    "advance_variance",
    "price_block",
    "step_constants",
    "advance_lanes",
    "fold_path",
    "simulate_y",
    "simulate_x",
    "simulate_xy",
    "simulate_paths",
    "write_csv",
    "parse_csv",
    "write_path_csv",
    "read_path_csv",
    "log_ndtr",
    "log_ndtr_scalar",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of ``steps`` intervals covering [0, horizon].

    An integral float ``steps`` such as 10.0 is stored as the int 10.

    Raises:
        InvalidGrid: a horizon that is not a finite number > 0, or a step
            count that is not an integer in [1, ``INT64_MAX - 1``], so that an
            int64 indexes the points; a bool is neither.
    """

    horizon: float
    steps: int

    def __post_init__(self):
        require_positive(self.horizon, "horizon", InvalidGrid)
        steps = self.steps
        if isinstance(steps, bool) or not (isinstance(steps, numbers.Real)
                                           and 1 <= steps <= INT64_MAX - 1
                                           and float(steps).is_integer()):
            raise InvalidGrid(f"steps must be a positive integer <= {INT64_MAX - 1}, "
                              f"got {steps!r}")
        object.__setattr__(self, "steps", int(steps))

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    def times(self) -> np.ndarray:
        """Grid points t_0 = 0 < ... < t_N = horizon (endpoint exact)."""
        return np.linspace(0.0, self.horizon, self.steps + 1)


class Scheme(enum.Enum):
    """Variance-step recursion selector."""

    AVE = "AVE"
    TE = "TE"
    SE = "SE"
    DESRE = "DESRE"
    DISRE = "DISRE"

    @classmethod
    def parse(cls, text) -> "Scheme":
        """The scheme that a name stands for, in any case; a Scheme is itself."""
        if isinstance(text, cls):
            return text
        try:
            return cls(str(text).strip().upper())
        except ValueError:
            names = ", ".join(s.value for s in cls)
            raise ConfigParseError(
                f"unknown scheme {text!r}; expected one of {names}") from None

    @property
    def uses_sqrt_state(self) -> bool:
        """True for the schemes that evolve Z = sqrt(Y)."""
        return self in (Scheme.DESRE, Scheme.DISRE)

    def check(self, params: ModelParams, dt: float) -> None:
        """Raise ``FellerViolated`` for DESRE or DISRE without a > sigma1^2/2,
        and ``InvalidGrid`` for DISRE without 2 + b*dt > 0, its divisor."""
        if self.uses_sqrt_state and not params.feller_strict:
            raise FellerViolated(f"scheme {self.value} needs a > sigma1^2/2, "
                                 f"got a={params.a}, sigma1={params.sigma1}")
        if self is Scheme.DISRE and not 2.0 + params.b * dt > 0.0:
            raise InvalidGrid(f"scheme DISRE needs 2 + b*dt > 0, got b={params.b}, dt={dt}")


# ---------------------------------------------------------------------------
# randomness


@dataclass(frozen=True)
class SeedLineage:
    """Derivation path of a replicate's random streams.

    Streams are PCG64 generators seeded by SeedSequence(master_seed,
    spawn_key=(replicate, tag)) with tag 0 for eta and 1 for zeta.  The
    derivation depends only on (master_seed, replicate), never on execution
    order, so serial and concurrent runs see identical noise.
    """

    master_seed: int
    replicate: int = 0

    def __post_init__(self):
        require_int(self.master_seed, "master_seed", InvalidSeed)
        require_int(self.replicate, "replicate", InvalidSeed)


def lane_generators(master_seed: int,
                    replicates) -> list[tuple[np.random.Generator, np.random.Generator]]:
    """The (eta, zeta) generators of each replicate index, in order: numpy's
    PCG64 on ``SeedSequence(master_seed, spawn_key=(replicate, tag))``, tag
    0 for eta and 1 for zeta.  The reference of the compiled kernel's
    seeding, :meth:`hestonlab.kernel.LaneKernel.seed`.

    Raises:
        InvalidSeed: a seed or replicate index that is not an integer >= 0,
            or replicates that are not an iterable.
    """
    seed = require_int(master_seed, "master_seed", InvalidSeed)
    return [tuple(np.random.Generator(np.random.PCG64(SeedSequence(seed, spawn_key=(r, tag))))
                  for tag in (0, 1))
            for r in require_ints(replicates, "replicates", "replicate", InvalidSeed)]


def draw_normals(streams, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The next ``steps`` normals of each (eta, zeta) stream pair.

    Returns (eta, zeta), each of shape (len(streams), steps): row i holds the
    draws of pair i, so a lane's noise does not depend on the other lanes.
    """
    eta, zeta = np.empty((len(streams), steps)), np.empty((len(streams), steps))
    for (gen_eta, gen_zeta), eta_row, zeta_row in zip(streams, eta, zeta):
        gen_eta.standard_normal(out=eta_row)
        gen_zeta.standard_normal(out=zeta_row)
    return eta, zeta


@dataclass(frozen=True)
class GaussianDraws:
    """Pair of equal-length standard-normal draw vectors (eta, zeta).

    Raises:
        InvalidArgument: draws that are not real numbers, bools or strs say.
        LengthMismatch: the two are not 1-d arrays of one length, or are
            empty: no grid takes zero steps.
        NonFiniteSample: a draw is NaN or infinite.
    """

    eta: np.ndarray
    zeta: np.ndarray

    def __post_init__(self):
        eta = real_array(self.eta, "eta must hold real numbers")
        zeta = real_array(self.zeta, "zeta must hold real numbers")
        if eta.ndim != 1 or zeta.ndim != 1 or eta.shape != zeta.shape or not len(eta):
            raise LengthMismatch(f"eta and zeta must be 1-d arrays of equal length >= 1, "
                                 f"got shapes {eta.shape} and {zeta.shape}")
        for name, draws in (("eta", eta), ("zeta", zeta)):
            require_finite(draws, NonFiniteSample, name + "[{i}] is {value}, not a finite draw")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "zeta", zeta)

    def __len__(self) -> int:
        return self.eta.shape[0]

    @classmethod
    def from_lineage(cls, lineage: SeedLineage, n_steps: int) -> "GaussianDraws":
        eta, zeta = draw_normals(
            lane_generators(lineage.master_seed, [lineage.replicate]), n_steps)
        return cls(eta=eta[0], zeta=zeta[0])


# Element budget (lanes x steps) of one block of a lane group: each array the
# group holds is about this size (4 MB), however many replicates run.
BLOCK_ELEMENTS = 1 << 19


def _block_steps(lanes: int) -> int:
    """The steps of a numpy block of a group of ``lanes`` lanes: as many
    whole summation tiles as ``BLOCK_ELEMENTS`` holds, at least one."""
    from .estimate import SUM_TILE  # estimate imports this module

    return max(1, BLOCK_ELEMENTS // max(1, lanes) // SUM_TILE) * SUM_TILE


# ---------------------------------------------------------------------------
# the step loop: lanes advanced through a block of steps
#
# Each _*_steps function advances (lanes,) states through a block: ``eta``
# holds one row of draws per step, and row k of ``out`` receives the state
# after step k (Y, or Z = sqrt(Y) for DESRE/DISRE).  It evaluates the
# scheme's formula (module docstring) from left to right, as written there,
# with the constants ``k`` of :func:`step_constants`, each held as a 0-d
# array (numpy takes those faster than Python floats; the arithmetic is the
# same); DESRE and DISRE form their noise term, a constant times eta, once
# per block.  Every per-step operation writes into one of three preallocated lane
# buffers or into ``out``, not into its own operand (numpy takes that slowly
# on a one-element array), except for DESRE's last add.  So a block gives
# the bits of the formula applied step by step, with six to ten numpy calls
# a step.


def step_constants(scheme: Scheme | None, params: ModelParams,
                   dt) -> tuple[np.ndarray | None, np.ndarray]:
    """The constants that a variance step of ``scheme`` and a price step
    form before they meet an array, as float64 arrays ``(k, p)``: the one
    place they are formed, for the numpy step loop, :func:`price_block` and
    the compiled kernel (:mod:`hestonlab.kernel`) alike.

    ``k``, None where ``scheme`` is None:

    * AVE, TE, SE: a, b, dt, sigma1, sqrt(dt)
    * DESRE: level = 0.5*a - 0.125*sigma1**2, 0.5*b, dt, 0.5*sigma1*sqrt(dt)
    * DISRE: den = 2 + b*dt, lift = (a - 0.25*sigma1**2)*dt/den,
      0.5*sigma1*sqrt(dt)

    ``p``: rho, sqrt(1 - rho*rho), alpha, beta, dt, sigma2, sqrt(dt).

    Raises:
        InvalidGrid: a ``dt`` that is not a finite number > 0, a bool too.
        FellerViolated / InvalidGrid: as :meth:`Scheme.check`.
    """
    require_positive(dt, "dt", InvalidGrid)
    sqrt_dt = np.sqrt(dt)
    p = np.array([params.rho, math.sqrt(1.0 - params.rho * params.rho), params.alpha,
                  params.beta, dt, params.sigma2, sqrt_dt], dtype=float)
    if scheme is None:
        return None, p
    scheme.check(params, dt)
    if scheme is Scheme.DESRE:
        k = [0.5 * params.a - 0.125 * params.sigma1 ** 2, 0.5 * params.b, dt,
             0.5 * params.sigma1 * sqrt_dt]
    elif scheme is Scheme.DISRE:
        den = 2.0 + params.b * dt
        k = [den, (params.a - 0.25 * params.sigma1 ** 2) * dt / den, 0.5 * params.sigma1 * sqrt_dt]
    else:
        k = [params.a, params.b, dt, params.sigma1, sqrt_dt]
    return np.array(k, dtype=float), p


def _euler_steps(scheme: Scheme, k, y, eta, out) -> None:
    # AVE, TE and SE: y + (a - b*y)*dt + sigma1*sqrt(g(y))*sqrt(dt)*eta
    a, b, dt, sigma1, sqrt_dt = map(np.asarray, k)
    p, q, r = np.empty_like(y), np.empty_like(y), np.empty_like(y)
    for eta_k, y_k in zip(eta, out):
        np.multiply(b, y, p)
        np.subtract(a, p, q)
        np.multiply(q, dt, p)  # p = drift
        if scheme is Scheme.AVE:
            np.sqrt(np.abs(y, q), r)
        elif scheme is Scheme.TE:
            np.sqrt(np.maximum(y, 0.0, out=q), r)
        else:
            np.sqrt(y, r)
        np.multiply(sigma1, r, q)
        np.multiply(q, sqrt_dt, r)
        np.multiply(r, eta_k, q)  # q = noise
        np.add(y, p, r)
        if scheme is Scheme.SE:
            np.abs(np.add(r, q, p), y_k)
        else:
            np.add(r, q, y_k)
        y = y_k


def _desre_steps(k, z, eta, out) -> None:
    # z + (level/z - 0.5*b*z)*dt + 0.5*sigma1*sqrt(dt)*eta; the noise term
    # is a constant times eta, formed for the whole block in ``out``
    level, half_b, dt, noise = map(np.asarray, k)
    np.multiply(noise, eta, out)
    p, q, r = np.empty_like(z), np.empty_like(z), np.empty_like(z)
    for z_k in out:
        np.divide(level, z, p)
        np.multiply(half_b, z, q)
        np.subtract(p, q, r)
        np.multiply(r, dt, p)  # p = drift
        np.add(z, p, q)
        np.add(q, z_k, z_k)  # z_k held the noise
        z = z_k


def _disre_steps(k, z, eta, out) -> None:
    # u = (z + 0.5*sigma1*sqrt(dt)*eta)/den with den = 2 + b*dt, then
    # z' = u + sqrt(u*u + (a - 0.25*sigma1^2)*dt/den); the noise term is a
    # constant times eta, formed for the whole block in ``out``
    den, lift, noise = map(np.asarray, k)
    np.multiply(noise, eta, out)
    u, p, q = np.empty_like(z), np.empty_like(z), np.empty_like(z)
    for z_k in out:
        np.add(z, z_k, p)  # z_k holds the noise
        np.divide(p, den, u)
        np.multiply(u, u, p)
        np.add(p, lift, q)
        np.add(u, np.sqrt(q, p), z_k)
        z = z_k


_STEPS = {
    Scheme.AVE: partial(_euler_steps, Scheme.AVE),
    Scheme.TE: partial(_euler_steps, Scheme.TE),
    Scheme.SE: partial(_euler_steps, Scheme.SE),
    Scheme.DESRE: _desre_steps,
    Scheme.DISRE: _disre_steps,
}


def _transposed(a: np.ndarray) -> np.ndarray:
    """A C-contiguous copy of ``a.T``, made 64 rows of ``a`` at a time.

    The 64 rows stay in cache while their columns are written out; numpy's
    whole-array copy walks down every row of ``a`` for each row it writes,
    and at a power-of-two row stride (a block of 512 steps, a group of 1024
    lanes) those rows evict one another from the cache.
    """
    out = np.empty(a.shape[::-1])
    for lo in range(0, a.shape[0], 64):
        out[:, lo : lo + 64] = a[lo : lo + 64].T
    return out


def advance_variance(
    params: ModelParams,
    dt: float,
    scheme: Scheme,
    eta: np.ndarray,
    state: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance lanes through one block of steps.

    Args:
        eta: (lanes, steps) draws, one row per lane.
        state: (lanes,) state returned for the previous block, or None for
            the first block of a path.

    Returns:
        (y, state, aborted): the (lanes, steps + 1) variance points, whose
        first is y0 for a first block and else the previous block's last
        point; the new state (Y, or Z = sqrt(Y) for DESRE/DISRE); and for
        each lane the step within the block, from 1, of its first Z <= 0
        under DESRE, else 0.  An aborted lane is NaN from that step on, so
        it aborts once.  Overflow runs on as inf or NaN, without warnings.

    Raises:
        InvalidGrid / FellerViolated: as :func:`step_constants`.
    """
    k, _ = step_constants(scheme, params, dt)
    lanes, steps = eta.shape
    aborted = np.zeros(lanes, dtype=np.int64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if state is None:
            left = float(params.y0)
            state = np.full(lanes, math.sqrt(left) if scheme.uses_sqrt_state else left)
        else:
            # the bits of the previous block's last point
            left = state * state if scheme.uses_sqrt_state else state
        # time-major, one row of lanes per step; the time-major draws are
        # freed as soon as the loop is done
        y = np.empty((steps + 1, lanes))
        y[0] = left
        out = y[1:]
        _STEPS[scheme](k, state, _transposed(eta), out)
        if scheme is Scheme.DESRE:
            # a lane runs on past its first nonpositive Z to the end of the
            # block; those values are replaced by NaN, which no later step
            # takes below zero
            bad = out <= 0.0
            hit = bad.any(axis=0)
            if hit.any():
                first = bad.argmax(axis=0)
                aborted[hit] = first[hit] + 1
                out[(np.arange(steps)[:, None] >= first) & hit] = np.nan
        state = out[-1].copy()
        if scheme.uses_sqrt_state:
            np.multiply(out, out, out)
    return _transposed(y), state, aborted


def price_block(
    params: ModelParams,
    dt: float,
    y: np.ndarray,
    eta: np.ndarray,
    zeta: np.ndarray,
    x_start,
) -> np.ndarray:
    """Euler log-price points over a block, lanes along the leading axes.

    ``y`` holds the block's variance points with its left endpoint, shape
    (..., steps + 1); ``eta`` and ``zeta`` hold (..., steps) draws; ``x_start``
    is the price at the left endpoint.  Returns the (..., steps + 1) price
    points, ``x_start`` first; a price that overflows, or that a non-finite
    ``y`` drives, runs on as inf or NaN without warnings.

    Raises:
        InvalidGrid: as :func:`step_constants`.
    """
    rho, root, alpha, beta, dt, sigma2, sqrt_dt = step_constants(None, params, dt)[1]
    y_left = y[..., :-1]
    mix = rho * eta + root * zeta
    x = np.empty(y.shape)
    x[..., 0] = x_start
    with np.errstate(over="ignore", invalid="ignore"):
        x[..., 1:] = (alpha - beta * y_left) * dt + (
            sigma2 * np.sqrt(np.maximum(y_left, 0.0)) * sqrt_dt * mix
        )
        # the cumulative sum over [x_start, inc_1, inc_2, ...] reproduces the
        # left-to-right recursion x_k = x_{k-1} + inc_k including its
        # floating-point association, in one block or in many
        return np.cumsum(x, axis=-1, out=x)


# ---------------------------------------------------------------------------
# whole-path simulation


def _variance_path(y: np.ndarray, aborted: int) -> np.ndarray:
    """A lane's variance points, unless it aborted (at grid index ``aborted``) or is not finite."""
    if aborted:
        raise NonPositiveZ(
            f"square-root state hit zero at grid index {int(aborted)}", step=int(aborted))
    return require_finite(y, NonFinitePath, "Y is not finite at grid index {i}")


def simulate_y(
    params: ModelParams, grid: TimeGrid, scheme: Scheme, draws: GaussianDraws
) -> np.ndarray:
    """Simulate one variance path on the grid; returns length steps+1 array:
    one kernel call on the draws where the kernel loads, else the numpy step
    loop, with the same bits and errors.

    Raises:
        InvalidArgument: an argument of another type, such as None or a str.
        LengthMismatch: if the draws do not provide exactly ``grid.steps`` values.
        FellerViolated / InvalidGrid: as :meth:`Scheme.check`.
        NonPositiveZ: if the DESRE iterate leaves the positive half-line
            (carries the offending grid index in ``.step``).
        NonFinitePath: Y overflows; names the first grid index at which it is
            not finite.
    """
    from .kernel import lane_kernel  # kernel imports this module

    require_instance(params, ModelParams, "params")
    require_instance(grid, TimeGrid, "grid")
    require_instance(scheme, Scheme, "scheme")
    if len(require_instance(draws, GaussianDraws, "draws")) != grid.steps:
        raise LengthMismatch(f"draws provide {len(draws)} steps, grid has {grid.steps}")
    kernel = lane_kernel()
    if kernel is None:
        y, _, aborted = advance_variance(params, grid.dt, scheme, draws.eta[None, :])
    else:
        y, x = np.empty((1, grid.steps + 1)), np.empty((1, grid.steps + 1))
        aborted, _ = kernel(params, grid.dt, scheme, draws.eta[None], draws.zeta[None], (y, x))
    return _variance_path(y[0], aborted[0])


def simulate_x(
    params: ModelParams, grid: TimeGrid, y_path: np.ndarray, draws: GaussianDraws
) -> np.ndarray:
    """Euler log-price path driven by a given variance path and both streams.

    The diffusion coefficient uses sqrt(max(y, 0)) so variance paths from the
    schemes that can go negative remain usable.

    Raises:
        InvalidArgument: an argument of another type, or not of real numbers.
        LengthMismatch: if ``y_path`` does not have steps+1 points or the
            draws do not provide steps values per stream.
        NonFinitePath: X is not finite, for example where ``y_path`` is not;
            names the first grid index at which it is not finite.
    """
    require_instance(params, ModelParams, "params")
    require_instance(grid, TimeGrid, "grid")
    require_instance(draws, GaussianDraws, "draws")
    y_path = real_array(y_path, "y_path must hold real numbers")
    if y_path.shape != (grid.steps + 1,):
        raise LengthMismatch(f"y_path has shape {y_path.shape}, grid wants ({grid.steps + 1},)")
    if len(draws) != grid.steps:
        raise LengthMismatch(f"draws provide {len(draws)} steps, grid has {grid.steps}")
    return require_finite(price_block(params, grid.dt, y_path, draws.eta, draws.zeta, params.x0),
                          NonFinitePath, "X is not finite at grid index {i}")


@dataclass(frozen=True)
class XYPath:
    """A simulated (or imported) joint path on a uniform grid.

    ``scheme`` records which recursion produced the variance path; it is
    ``None`` for paths read back from CSV, where that information is absent.

    Raises:
        InvalidArgument / LengthMismatch: a grid, a scheme (other than None)
            or paths of another type or length, or not of real numbers.
    """

    grid: TimeGrid
    y: np.ndarray
    x: np.ndarray
    scheme: Scheme | None = None

    def __post_init__(self):
        require_instance(self.grid, TimeGrid, "grid")
        if self.scheme is not None:
            require_instance(self.scheme, Scheme, "scheme")
        y = real_array(self.y, "y must hold real numbers")
        x = real_array(self.x, "x must hold real numbers")
        want = self.grid.steps + 1
        if y.shape != (want,) or x.shape != (want,):
            raise LengthMismatch(f"paths must have {want} points, got y:{y.shape} x:{x.shape}")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)


def simulate_xy(
    params: ModelParams, grid: TimeGrid, scheme: Scheme, lineage: SeedLineage
) -> XYPath:
    """Simulate the joint (Y, X) path for one replicate of a seed lineage,
    as a lane group of one lane.

    Raises:
        InvalidArgument: an argument of another type, such as None or a str.
        FellerViolated / InvalidGrid / NonPositiveZ / NonFinitePath: as
            :func:`simulate_y` and :func:`simulate_x`.
    """
    require_instance(params, ModelParams, "params")
    require_instance(grid, TimeGrid, "grid")
    require_instance(scheme, Scheme, "scheme")
    require_instance(lineage, SeedLineage, "lineage")
    return next(_lane_paths(params, grid, scheme, lineage.master_seed, [lineage.replicate]))


def simulate_paths(
    params: ModelParams, grid: TimeGrid, scheme: Scheme, master_seed: int, replicates: int
):
    """An iterator over the joint paths of replicates 0, 1, ... of a master
    seed, in order; path r has the bits of ``simulate_xy(params, grid,
    scheme, SeedLineage(master_seed, r))``.

    Raises:
        InvalidArgument: at the call, a params, grid or scheme of another type.
        InvalidSeed / ConfigParseError: at the call, a bad master seed, or a
            replicate count that is a bool or not an integer in [0,
            ``INT64_MAX``].
        FellerViolated / InvalidGrid / NonPositiveZ / NonFinitePath: as
            :func:`simulate_xy`, for the first failing replicate, once those
            before it are yielded.
    """
    require_instance(params, ModelParams, "params")
    require_instance(grid, TimeGrid, "grid")
    require_instance(scheme, Scheme, "scheme")
    require_int(master_seed, "master_seed", InvalidSeed)
    require_int(replicates, "replicates", ConfigParseError, maximum=INT64_MAX)
    return _lane_paths(params, grid, scheme, master_seed, range(replicates))


def _lane_paths(params: ModelParams, grid: TimeGrid, scheme: Scheme, master_seed: int,
                replicates: Sequence[int]):
    """Yield the joint path of each index in ``replicates``, in order, from
    lane groups of as many whole paths as ``BLOCK_ELEMENTS`` holds, at least
    one, each taken through its path by :func:`advance_lanes`."""
    lanes = max(1, BLOCK_ELEMENTS // grid.steps)
    for lo in range(0, len(replicates), lanes):
        group = replicates[lo : lo + lanes]
        y, x = np.empty((2, len(group), grid.steps + 1))
        aborted, _ = advance_lanes(params, grid, scheme, master_seed, group, (y, x))
        # no array of this group outlives it: a yielded path owns its rows
        for r in range(len(group)):
            yield XYPath(grid, _variance_path(y[r], aborted[r]).copy(), require_finite(
                x[r], NonFinitePath, "X is not finite at grid index {i}").copy(), scheme)
        del y, x


def advance_lanes(params: ModelParams, grid: TimeGrid, scheme: Scheme, master_seed: int,
                  index: Sequence[int], paths=None):
    """Take the lane group of replicates ``index`` of a master seed through
    its whole path, folding it into path sums.

    Where the compiled kernel loads, that is two calls: one hashes the
    group's stream seeds (``LaneKernel.seed``), and one seeds the streams,
    draws its normals and takes it through.  Elsewhere the streams are
    :func:`lane_generators`', and it is numpy blocks of whole summation
    tiles under ``BLOCK_ELEMENTS``, each priced and folded a tile at a time,
    and the lanes that abort in a block draw no further block.  ``paths``, a
    (y, x) tuple of C-ordered float64 (lanes, steps + 1) arrays, receives
    each lane's variance and price points; an aborted lane's rows are left
    unfinished.  A lane that overflows runs on as inf or NaN.

    Returns:
        (aborted, sums): for each lane the grid index of its first Z <= 0
        under DESRE, else 0; and the :class:`~hestonlab.estimate.PathSums`
        of the lanes that did not abort, in order.

    Raises:
        InvalidSeed: as :func:`lane_generators`.
        FellerViolated / InvalidGrid: as :meth:`Scheme.check`.
    """
    from .estimate import SUM_TILE, PathSums  # estimate and kernel import this module
    from .kernel import lane_kernel

    dt, steps = grid.dt, grid.steps
    kernel = lane_kernel()
    if kernel is not None:
        return kernel.draw(params, dt, scheme, kernel.seed(master_seed, index), steps, paths)

    streams = lane_generators(master_seed, index)
    lanes = len(streams)
    sums = PathSums(np.full(lanes, params.y0), np.full(lanes, params.x0))
    block = _block_steps(lanes)
    aborted, live, state = np.zeros(lanes, dtype=np.int64), np.arange(lanes), None
    for start in range(0, steps, block):
        width = min(block, steps - start)
        eta, zeta = draw_normals(streams, width)
        y, state, hit = advance_variance(params, dt, scheme, eta, state)
        # price and fold a tile at a time, carrying the price in the sums:
        # the price temporaries stay (lanes, SUM_TILE) and are reused by the
        # allocator, where block-sized ones are faulted in again every block
        # (pricing and folding whole 1024 x 512 blocks took 40-70% longer)
        for t0 in range(0, width, SUM_TILE):
            t1 = min(t0 + SUM_TILE, width)
            y_t = y[:, t0 : t1 + 1]
            x_t = price_block(params, dt, y_t, eta[:, t0:t1], zeta[:, t0:t1], sums.x_end)
            sums.fold(y_t, x_t)
            if paths is not None:
                for points, tile in zip(paths, (y_t, x_t)):
                    points[live, start + t0 : start + t1 + 1] = tile
        # freed before the next block is drawn: a group holds one block of draws
        del eta, zeta
        if hit.any():
            keep = hit == 0
            aborted[live[~keep]] = start + hit[~keep]
            live, state = live[keep], state[keep]
            streams = [s for s, k in zip(streams, keep) if k]
            sums.select(keep)
            if not len(live):
                break
    return aborted, sums


def fold_path(y: np.ndarray, x: np.ndarray):
    """The :class:`~hestonlab.estimate.PathSums` of one lane's whole path,
    (steps + 1,) points y and x: folded in one call of the compiled kernel
    where it loads, else by ``PathSums.fold`` of the path as one block, with
    the same bits."""
    from .estimate import PathSums  # estimate imports this module
    from .kernel import lane_kernel

    sums = PathSums(y[:1], x[:1])
    kernel = lane_kernel()
    if kernel is not None:
        kernel.fold(sums, y, x)
    else:
        sums.fold(y[None, :], x[None, :])
    return sums


# ---------------------------------------------------------------------------
# CSV files: the one codec of path files and report files (module docstring)


def _csv_bytes(header, cells, columns):
    """The CSV file of the rows that ``columns``, 1-d arrays of one length,
    make side by side under ``header``, each cell of column j as the
    %-format ``cells[j]`` writes it: where the kernel writes them, its
    buffer, header included, as a memoryview, else ``bytes``."""
    from .kernel import lane_kernel  # kernel imports this module

    head = (",".join(header) + "\n").encode()
    kernel = lane_kernel()
    data = kernel.format_columns(columns, cells, head) if kernel is not None else None
    if data is None:
        line = ",".join(cells) + "\n"
        values = tuple(np.column_stack(columns).ravel().tolist())
        data = head + ((line * len(columns[0])) % values).encode()
    return data


def _file_path(value, name: str) -> Path:
    """``value`` as a ``Path``, unless it is not a path (a non-empty str or
    an ``os.PathLike``): then ``InvalidArgument`` naming ``name``."""
    if not isinstance(value, (str, os.PathLike)) or value == "":
        raise InvalidArgument(f"{name} must be a path or a stream, got {value!r}")
    return Path(value)


def write_csv(dest, header, cells, columns) -> None:
    """Write the CSV file of the rows that ``columns``, 1-d arrays of one
    length, make side by side under ``header``, each cell of column j as
    the %-format ``cells[j]`` writes it, to ``dest``: a path, whose file
    takes the writer's bytes as they are, or a text stream;
    ``InvalidArgument`` where ``dest`` is neither."""
    if hasattr(dest, "write"):
        dest.write(str(_csv_bytes(header, cells, columns), "utf-8"))
    else:
        _file_path(dest, "dest").write_bytes(_csv_bytes(header, cells, columns))


def parse_csv(text: str | bytes, header, kinds, where: str = "",
              name: str = "CSV") -> tuple[list[np.ndarray], Sequence[int]]:
    """One column per kind (``int`` or ``float``) of CSV text under
    ``header``, and the file line number of each row.  ``text`` may be the
    bytes of a file too, which the kernel reads where they lie and the
    Python reader decodes as UTF-8.

    Raises:
        CsvFormatError: a first non-blank line other than the header
            (``unexpected <name> header``), else the first line with the
            wrong cell count or a cell its kind does not read, else the first line with a non-finite cell; the message
            begins with ``where`` (a file name) when it is given.
        UnicodeDecodeError: bytes that are not UTF-8, where the kernel does
            not read them.
    """
    from .kernel import lane_kernel  # kernel imports this module

    def fail(message):
        raise CsvFormatError(f"{where}: {message}" if where else message) from None

    head = ",".join(header)
    first = head + "\n" if isinstance(text, str) else (head + "\n").encode()
    kernel = lane_kernel() if text.startswith(first) else None
    columns = kernel.parse_rows(text, kinds, len(first)) if kernel is not None else None
    if columns is not None:
        # strict lines, none of them blank: the header is line 1
        numbers = range(2, len(columns[0]) + 2)
    else:
        if not isinstance(text, str):
            text = str(text, "utf-8")
        columns, numbers = _read_cells(text, head, kinds, name, fail)
    finite = np.all([np.isfinite(c) for kind, c in zip(kinds, columns) if kind is float], axis=0)
    if not finite.all():
        fail(f"line {numbers[int(np.argmin(finite))]}: non-finite value")
    return columns, numbers


def _read_cells(text: str, head: str, kinds, name: str, fail):
    """parse_csv's columns and line numbers, read by float() and int()
    from the whole language of the module docstring."""
    lines = text.splitlines()
    body = [line for line in lines if line.strip()]
    numbers = (range(1, len(lines) + 1) if len(body) == len(lines) else
               [n for n, line in enumerate(lines, start=1) if line.strip()])
    if not body or body[0].strip() != head:
        fail(f"unexpected {name} header, expected '{head}'")
    body, numbers = body[1:], numbers[1:]
    width = len(kinds)
    try:
        if any(line.count(",") != width - 1 for line in body):
            raise ValueError
        cells = ",".join(body).split(",") if body else []
        columns = [np.array(list(map(kind, cells[j::width]))) for j, kind in enumerate(kinds)]
    except ValueError:
        # a line that fails here fails on its own too: name the first one
        for n, line in zip(numbers, body):
            parts = line.split(",")
            if len(parts) != width:
                fail(f"line {n}: expected {width} comma-separated values")
            try:
                [kind(part) for kind, part in zip(kinds, parts)]
            except ValueError:
                fail(f"line {n}: non-numeric value")
    return columns, numbers


_PATH_HEADER = ("t", "y", "x")


def write_path_csv(path_obj: XYPath, dest) -> None:
    """Write a path as CSV with full double-precision round-trip fidelity,
    to a path or a text stream; ``InvalidArgument`` where ``path_obj`` is
    not an :class:`XYPath`, or ``dest`` is neither a path (a non-empty str
    or an ``os.PathLike``) nor a stream."""
    require_instance(path_obj, XYPath, "path_obj")
    write_csv(dest, _PATH_HEADER, ("%.17g",) * 3, [path_obj.grid.times(), path_obj.y, path_obj.x])


def read_path_csv(src) -> XYPath:
    """Read a path CSV written by :func:`write_path_csv` (or equivalent)
    from a path, or from a stream of its text or bytes.

    Raises:
        InvalidArgument: ``src`` is neither a path (a non-empty str or an
            ``os.PathLike``) nor a stream.
        PathFileNotFound: no such file; a ``FileNotFoundError`` too.
        CsvFormatError: wrong header, malformed row, a non-finite value,
            fewer than two rows, or a time column that is not the uniform
            grid starting at 0; bytes that are not UTF-8, naming the file
            and the line.
        OSError: another failure to read the file.
    """
    if hasattr(src, "read"):
        data, where = src.read(), getattr(src, "name", src)
    else:
        try:
            data = _file_path(src, "src").read_bytes()
        except FileNotFoundError as exc:
            raise PathFileNotFound(exc.errno, exc.strerror, exc.filename) from None
        where = src
    try:
        (t, y, x), _ = parse_csv(data, _PATH_HEADER, (float,) * 3, name="path-file")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise CsvFormatError(f"{where}: line {line}: bytes that are not UTF-8 text "
                             f"({exc.reason})") from None
    if len(t) < 2:
        raise CsvFormatError("need at least two rows (initial point plus one step)")
    if t[0] != 0.0:
        raise CsvFormatError(f"time column must start at 0, got {t[0]}")
    if not t[-1] > 0.0:
        raise CsvFormatError(f"final time must be positive, got {t[-1]}")
    grid = TimeGrid(horizon=float(t[-1]), steps=len(t) - 1)
    tol = 1e-9 * max(1.0, abs(grid.horizon))
    if np.max(np.abs(t - grid.times())) > tol:
        raise CsvFormatError("time column is not a uniform grid")
    return XYPath(grid=grid, y=y, x=x, scheme=None)


# ---------------------------------------------------------------------------
# log Phi: the standard normal log-distribution function (module docstring)

_SQRT1_2 = 0.70710678118654752440  # 1/sqrt(2)
_LOG_SQRT_2PI = 0.91893853320467274178  # log(sqrt(2 pi))
# below it, erfc(-z/sqrt(2))/2 would leave the normal doubles
_LOG_NDTR_TAIL = -37.5
_LOG_NDTR_TERMS = 10


def log_ndtr_scalar(z: float) -> float:
    """log Phi(z) in Python: ``log1p(-erfc(z/sqrt(2))/2)`` above -1,
    ``log(erfc(-z/sqrt(2))/2)`` down to -37.5, and below it the asymptotic
    series -z^2/2 - log(-z) - log(sqrt(2 pi)) + log(1 - 1/z^2 + 3/z^4 - ...)
    of 10 terms in Horner form, which stays finite where erfc underflows.
    The kernel's ``hl_log_ndtr`` makes the same libm calls and operations."""
    if z > -1.0:
        return math.log1p(-0.5 * math.erfc(z * _SQRT1_2))
    if z >= _LOG_NDTR_TAIL:
        return math.log(0.5 * math.erfc(-z * _SQRT1_2))
    r, h = 1.0 / (z * z), 1.0
    for k in range(_LOG_NDTR_TERMS, 0, -1):
        h = 1.0 - (2 * k - 1) * r * h
    return -0.5 * z * z - math.log(-z) - _LOG_SQRT_2PI + math.log(h)


def log_ndtr(z) -> np.ndarray:
    """log Phi of each value of ``z``, a float64 array of its shape: in the
    compiled kernel where it loads, else by :func:`log_ndtr_scalar`, with
    the same bits.

    Raises:
        InvalidArgument: ``z`` does not hold real numbers.
    """
    from .kernel import lane_kernel  # kernel imports this module

    z = real_array(z, "log_ndtr needs real numbers")
    kernel = lane_kernel()
    if kernel is not None:
        return kernel.log_ndtr(z)
    return np.fromiter(map(log_ndtr_scalar, z.ravel().tolist()), float, z.size).reshape(z.shape)
