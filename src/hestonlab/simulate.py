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
:func:`lane_generators` is the one place where streams are seeded: it gives
each stream the state that NumPy's ``SeedSequence`` would, for a whole lane
group in one pass, and :meth:`SeedLineage.generators` calls it for one
replicate.

Lanes and blocks: replicates advanced side by side are lanes, and a block
of draws or points holds one row per lane.  :func:`draw_normals` draws a
block, :func:`advance_variance` (the one step loop, which alone knows that it
runs time-major) turns it into variance points, and :func:`price_block` into
log-price points.  Through these three, :func:`simulate_xy` runs one lane,
:func:`simulate_paths` lane groups of whole paths within ``BLOCK_ELEMENTS``,
and a Monte Carlo run up to 1024 lanes through blocks of B steps.  Lanes do
not mix, and a path cut into blocks gives the bits of the path in one piece.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import (
    CsvFormatError,
    FellerViolated,
    InvalidGrid,
    LengthMismatch,
    NegativeInput,
    NonFinitePath,
    NonPositiveZ,
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
    "step_ave",
    "step_te",
    "step_se",
    "step_desre",
    "step_disre",
    "variance_state",
    "advance_variance",
    "price_block",
    "simulate_y",
    "simulate_x",
    "simulate_xy",
    "simulate_paths",
    "write_path_csv",
    "read_path_csv",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of ``steps`` intervals covering [0, horizon].

    An integral float ``steps`` such as 10.0 is stored as the int 10.

    Raises:
        InvalidGrid: a horizon that is not a finite number > 0, or a step
            count that is not a positive integer.
    """

    horizon: float
    steps: int

    def __post_init__(self):
        if not (isinstance(self.horizon, numbers.Real) and 0.0 < self.horizon < math.inf):
            raise InvalidGrid(f"horizon must be a finite number > 0, got {self.horizon!r}")
        steps = self.steps
        if not (isinstance(steps, numbers.Real) and steps >= 1 and float(steps).is_integer()):
            raise InvalidGrid(f"steps must be a positive integer, got {steps!r}")
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
    def parse(cls, text: str) -> "Scheme":
        try:
            return cls(str(text).strip().upper())
        except ValueError:
            names = ", ".join(s.value for s in cls)
            raise ValueError(f"unknown scheme {text!r}; expected one of {names}") from None

    @property
    def uses_sqrt_state(self) -> bool:
        """True for the schemes that evolve Z = sqrt(Y)."""
        return self in (Scheme.DESRE, Scheme.DISRE)


# ---------------------------------------------------------------------------
# randomness

_ETA_STREAM = 0
_ZETA_STREAM = 1


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
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        if self.replicate < 0:
            raise ValueError("replicate index must be nonnegative")

    def generators(self) -> tuple[np.random.Generator, np.random.Generator]:
        return lane_generators(self.master_seed, [self.replicate])[0]


# SeedSequence's constants (numpy.random.bit_generator, after O'Neill's
# seed_seq_fe): the entropy pool size in 32-bit words, the two hash
# multiplier sequences and the mixing multipliers
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF


def _uint32_words(n: int) -> list[int]:
    """The 32-bit words of a nonnegative integer, least significant first;
    one word for 0 (SeedSequence's coercion of an int)."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = 0..count: the hash constant that
    SeedSequence holds before each of ``count`` hashes, and after the last."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)


def _pcg64_seeds(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence.generate_state(4, np.uint64)`` for each row of assembled
    entropy, shape (rows, words) uint32, in one pass; returns (rows, 4) uint64.

    SeedSequence's hash constants evolve the same way for every row, and the
    hashes it mixes into the pool words one after another do not depend on
    each other; so each of its loops over pool words is one uint32 operation
    on a (rows, pool words) array (numpy array arithmetic wraps modulo 2**32,
    as the mixing needs).
    """
    # one hash per pool word for each entropy word
    hash_a = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * entropy.shape[1])
    done = 0

    def hashmix(value, n):
        # the next n hashes, of one column broadcast or of n columns
        nonlocal done
        value = (value ^ hash_a[done : done + n]) * hash_a[done + 1 : done + n + 1]
        done += n
        return value ^ (value >> 16)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    pool = hashmix(entropy[:, :_POOL_SIZE], _POOL_SIZE)
    for i_src in range(_POOL_SIZE):
        others = [i for i in range(_POOL_SIZE) if i != i_src]
        hashed = hashmix(pool[:, i_src : i_src + 1], len(others))
        pool[:, others] = mix(pool[:, others], hashed)
    for i_src in range(_POOL_SIZE, entropy.shape[1]):
        pool = mix(pool, hashmix(entropy[:, i_src : i_src + 1], _POOL_SIZE))

    # generate_state: 8 words from the pool, cycled, then joined in
    # little-endian pairs
    hash_b = _hash_consts(_INIT_B, _MULT_B, 8)
    state = (np.tile(pool, 2) ^ hash_b[:8]) * hash_b[1:]
    state ^= state >> 16
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """A seed sequence whose state was generated beforehand."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def lane_generators(
    master_seed: int, replicates
) -> list[tuple[np.random.Generator, np.random.Generator]]:
    """The (eta, zeta) generators of each replicate index, in order.

    Each is a PCG64 in the state that ``SeedSequence(entropy=master_seed,
    spawn_key=(replicate, tag))`` gives it, tag 0 for eta and 1 for zeta.
    The seeds of all streams are hashed together; replicates whose indices
    take the same number of 32-bit words share one pass.

    Raises:
        ValueError: a negative master seed or replicate index.
    """
    replicates = [int(r) for r in replicates]
    if master_seed < 0 or any(r < 0 for r in replicates):
        raise ValueError("master_seed and replicate indices must be nonnegative")
    seed = _uint32_words(int(master_seed))
    # SeedSequence pads the entropy to the pool size when a spawn key follows
    seed += [0] * (_POOL_SIZE - len(seed))
    spawn = [_uint32_words(r) for r in replicates]
    by_words: dict[int, list[int]] = {}
    for i, words in enumerate(spawn):
        by_words.setdefault(len(words), []).append(i)

    streams = [None] * len(replicates)
    for lanes in by_words.values():
        entropy = np.array(
            [seed + spawn[i] + [tag] for i in lanes for tag in (_ETA_STREAM, _ZETA_STREAM)],
            dtype=np.uint32,
        )
        words = _pcg64_seeds(entropy).reshape(len(lanes), 2, 4)
        for i, pair in zip(lanes, words):
            streams[i] = tuple(
                np.random.Generator(np.random.PCG64(_SeedWords(w))) for w in pair)
    return streams


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
    """Pair of equal-length standard-normal draw vectors (eta, zeta)."""

    eta: np.ndarray
    zeta: np.ndarray

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=float)
        zeta = np.asarray(self.zeta, dtype=float)
        if eta.ndim != 1 or zeta.ndim != 1 or eta.shape != zeta.shape:
            raise LengthMismatch(
                f"eta and zeta must be 1-d arrays of equal length, "
                f"got shapes {eta.shape} and {zeta.shape}"
            )
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "zeta", zeta)

    def __len__(self) -> int:
        return self.eta.shape[0]

    @classmethod
    def from_lineage(cls, lineage: SeedLineage, n_steps: int) -> "GaussianDraws":
        eta, zeta = draw_normals([lineage.generators()], n_steps)
        return cls(eta=eta[0], zeta=zeta[0])


# Element budget (lanes x steps) of one block of a lane group: each array the
# group holds is about this size (4 MB), however many replicates run.
BLOCK_ELEMENTS = 1 << 19


# ---------------------------------------------------------------------------
# the step loop: lanes advanced through a block of steps
#
# Each _*_steps function advances (lanes,) states through a block: ``eta``
# holds one row of draws per step, and row k of ``out`` receives the state
# after step k (Y, or Z = sqrt(Y) for DESRE/DISRE).  It evaluates the
# scheme's formula (module docstring) from left to right, as written there.
# A product of scalars that the formula forms before it meets an array is
# formed once per block and held as a 0-d array (numpy takes those faster
# than Python floats; the arithmetic is the same), and so is the noise term
# of DESRE and DISRE, a scalar times eta.  Every per-step operation writes
# into one of three preallocated lane buffers or into ``out``, not into its
# own operand (numpy takes that slowly on a one-element array), except for
# DESRE's last add.  So a block gives the bits of the formula applied step
# by step, with six to ten numpy calls a step.  The public step_* wrappers
# run these same functions on a block of one step.


def _require_feller(params: ModelParams) -> None:
    if not params.feller_strict:
        raise FellerViolated(
            f"square-root schemes need a > sigma1^2/2, "
            f"got a={params.a}, sigma1^2/2={0.5 * params.sigma1 ** 2}"
        )


def _euler_steps(scheme: Scheme, params: ModelParams, dt, y, eta, out) -> None:
    # AVE, TE and SE: y + (a - b*y)*dt + sigma1*sqrt(g(y))*sqrt(dt)*eta
    a, b, dt_, sigma1, sqrt_dt = (
        np.array(v, dtype=float)
        for v in (params.a, params.b, dt, params.sigma1, np.sqrt(dt))
    )
    p, q, r = np.empty_like(y), np.empty_like(y), np.empty_like(y)
    for eta_k, y_k in zip(eta, out):
        np.multiply(b, y, p)
        np.subtract(a, p, q)
        np.multiply(q, dt_, p)  # p = drift
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


def _desre_steps(params: ModelParams, dt, z, eta, out) -> None:
    # z + (level/z - 0.5*b*z)*dt + 0.5*sigma1*sqrt(dt)*eta; the noise term
    # is a scalar times eta, formed for the whole block in ``out``
    level = np.array(0.5 * params.a - 0.125 * params.sigma1 ** 2)
    half_b, dt_ = np.array(0.5 * params.b), np.array(dt, dtype=float)
    np.multiply(0.5 * params.sigma1 * np.sqrt(dt), eta, out)
    p, q, r = np.empty_like(z), np.empty_like(z), np.empty_like(z)
    for z_k in out:
        np.divide(level, z, p)
        np.multiply(half_b, z, q)
        np.subtract(p, q, r)
        np.multiply(r, dt_, p)  # p = drift
        np.add(z, p, q)
        np.add(q, z_k, z_k)  # z_k held the noise
        z = z_k


def _disre_steps(params: ModelParams, dt, z, eta, out) -> None:
    # u = (z + 0.5*sigma1*sqrt(dt)*eta)/den with den = 2 + b*dt, then
    # z' = u + sqrt(u*u + (a - 0.25*sigma1^2)*dt/den); the noise term is a
    # scalar times eta, formed for the whole block in ``out``
    den = 2.0 + params.b * dt
    if den <= 0.0:
        raise InvalidGrid(
            f"implicit square-root step needs 2 + b*dt > 0, got b={params.b}, dt={dt}"
        )
    lift = np.array((params.a - 0.25 * params.sigma1 ** 2) * dt / den)
    den = np.array(den)
    np.multiply(0.5 * params.sigma1 * np.sqrt(dt), eta, out)
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


def _one_step(scheme: Scheme, params: ModelParams, state, dt, eta_k):
    """One step of ``scheme`` on scalars or arrays of one shape."""
    state, eta_k = np.broadcast_arrays(
        np.asarray(state, dtype=float), np.asarray(eta_k, dtype=float)
    )
    out = np.empty((1, state.size))
    _STEPS[scheme](params, dt, state.reshape(-1), eta_k.reshape(1, -1), out)
    return out.reshape(state.shape)[()]


def step_ave(params: ModelParams, y_prev, dt: float, eta_k):
    """Absolute-value Euler variance step; accepts any real state."""
    return _one_step(Scheme.AVE, params, y_prev, dt, eta_k)


def step_te(params: ModelParams, y_prev, dt: float, eta_k):
    """Truncated Euler variance step; negative states diffuse with zero volatility."""
    return _one_step(Scheme.TE, params, y_prev, dt, eta_k)


def step_se(params: ModelParams, y_prev, dt: float, eta_k):
    """Symmetrized Euler variance step: |Euler step|.

    Raises:
        NegativeInput: if ``y_prev`` is negative (the kernel's square root
            assumes a nonnegative state, which the scheme itself preserves).
    """
    if np.any(np.asarray(y_prev) < 0.0):
        raise NegativeInput(f"symmetrized step expects y_prev >= 0, got {y_prev}")
    return _one_step(Scheme.SE, params, y_prev, dt, eta_k)


def step_desre(params: ModelParams, z_prev, dt: float, eta_k):
    """Explicit Euler step for Z = sqrt(Y).

    Raises:
        FellerViolated: unless a > sigma1^2/2.
        NonPositiveZ: if ``z_prev`` is not strictly positive.
    """
    _require_feller(params)
    if np.any(np.asarray(z_prev) <= 0.0):
        raise NonPositiveZ(f"explicit square-root step needs z_prev > 0, got {z_prev}")
    return _one_step(Scheme.DESRE, params, z_prev, dt, eta_k)


def step_disre(params: ModelParams, z_prev, dt: float, eta_k):
    """Drift-implicit Euler step for Z = sqrt(Y), solved in closed form.

    The output is the positive root of the step's quadratic, so it is
    strictly positive whenever a > sigma1^2/2 and 2 + b*dt > 0.

    Raises:
        FellerViolated: unless a > sigma1^2/2.
    """
    _require_feller(params)
    return _one_step(Scheme.DISRE, params, z_prev, dt, eta_k)


def variance_state(params: ModelParams, scheme: Scheme, lanes: int) -> np.ndarray:
    """Initial state of ``lanes`` lanes: y0, or sqrt(y0) for DESRE/DISRE.

    Raises:
        FellerViolated: for DESRE/DISRE without a > sigma1^2/2.
    """
    if not scheme.uses_sqrt_state:
        return np.full(lanes, float(params.y0))
    _require_feller(params)
    return np.full(lanes, math.sqrt(params.y0))


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
    state: np.ndarray,
    eta: np.ndarray,
    y_start,
    failed: np.ndarray,
    start: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance lanes through one block of steps.

    Args:
        state: (lanes,) scheme state from :func:`variance_state` or from the
            previous block.
        eta: (lanes, steps) draws, one row per lane.
        y_start: (lanes,) Y at the block's left endpoint.
        failed: (lanes,) grid index of each lane's DESRE abort, -1 for a live
            lane; updated in place.  An aborted lane is NaN from its abort on.
        start: grid index of the block's first point, so that abort indices
            count from the start of the path.

    Returns:
        (y, state): the (lanes, steps + 1) variance points, ``y_start`` first,
        and the new state.
    """
    # the step loop runs time-major, one row of lanes per step; the
    # time-major draws are freed as soon as the loop is done
    y = np.empty((eta.shape[1] + 1, eta.shape[0]))
    y[0] = y_start
    out = y[1:]
    if scheme is Scheme.DESRE:
        # a lane runs on past its first nonpositive Z to the end of the block;
        # those values are replaced by NaN below, and so are their warnings
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            _desre_steps(params, dt, state, _transposed(eta), out)
        bad = out <= 0.0
        hit = bad.any(axis=0) & (failed < 0)
        if hit.any():
            first = bad.argmax(axis=0)
            failed[hit] = start + first[hit] + 1
            out[(np.arange(out.shape[0])[:, None] >= first) & hit] = np.nan
    else:
        _STEPS[scheme](params, dt, state, _transposed(eta), out)
    state = out[-1].copy()
    if scheme.uses_sqrt_state:
        np.multiply(out, out, out)
    return _transposed(y), state


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
    points, ``x_start`` first.
    """
    y_left = y[..., :-1]
    mix = params.rho * eta + math.sqrt(1.0 - params.rho * params.rho) * zeta
    x = np.empty(y.shape)
    x[..., 0] = x_start
    x[..., 1:] = (params.alpha - params.beta * y_left) * dt + (
        params.sigma2 * np.sqrt(np.maximum(y_left, 0.0)) * np.sqrt(dt) * mix
    )
    # the cumulative sum over [x_start, inc_1, inc_2, ...] reproduces the
    # left-to-right recursion x_k = x_{k-1} + inc_k including its
    # floating-point association, in one block or in many
    return np.cumsum(x, axis=-1, out=x)


# ---------------------------------------------------------------------------
# whole-path simulation


def _finite(name: str, path: np.ndarray) -> np.ndarray:
    finite = np.isfinite(path)
    if not finite.all():
        raise NonFinitePath(f"{name} is not finite at grid index {int(np.argmin(finite))}")
    return path


def _variance_path(y: np.ndarray, failed: int) -> np.ndarray:
    """A lane's variance points, unless it aborted (``failed`` >= 0) or is not finite."""
    if failed >= 0:
        raise NonPositiveZ(
            f"square-root state hit zero at grid index {int(failed)}", step=int(failed))
    return _finite("Y", y)


def simulate_y(
    params: ModelParams, grid: TimeGrid, scheme: Scheme, draws: GaussianDraws
) -> np.ndarray:
    """Simulate one variance path on the grid; returns length steps+1 array.

    Raises:
        LengthMismatch: if the draws do not provide exactly ``grid.steps`` values.
        FellerViolated: for DESRE/DISRE without a > sigma1^2/2.
        NonPositiveZ: if the DESRE iterate leaves the positive half-line
            (carries the offending grid index in ``.step``).
        NonFinitePath: Y overflows; names the first grid index at which it is
            not finite.
    """
    if len(draws) != grid.steps:
        raise LengthMismatch(f"draws provide {len(draws)} steps, grid has {grid.steps}")
    failed = np.full(1, -1, dtype=np.int64)
    state = variance_state(params, scheme, 1)
    # a variance that overflows runs on as inf or NaN without warnings, and
    # the path fails below
    with np.errstate(over="ignore", invalid="ignore"):
        y, _ = advance_variance(
            params, grid.dt, scheme, state, draws.eta[None, :], params.y0, failed)
    return _variance_path(y[0], failed[0])


def simulate_x(
    params: ModelParams, grid: TimeGrid, y_path: np.ndarray, draws: GaussianDraws
) -> np.ndarray:
    """Euler log-price path driven by a given variance path and both streams.

    The diffusion coefficient uses sqrt(max(y, 0)) so variance paths from the
    schemes that can go negative remain usable.

    Raises:
        LengthMismatch: if ``y_path`` does not have steps+1 points or the
            draws do not provide steps values per stream.
        NonFinitePath: X is not finite, for example where ``y_path`` is not;
            names the first grid index at which it is not finite.
    """
    y_path = np.asarray(y_path, dtype=float)
    if y_path.shape != (grid.steps + 1,):
        raise LengthMismatch(
            f"y_path has {y_path.shape[0]} points, grid wants {grid.steps + 1}"
        )
    if len(draws) != grid.steps:
        raise LengthMismatch(f"draws provide {len(draws)} steps, grid has {grid.steps}")
    with np.errstate(over="ignore", invalid="ignore"):
        x = price_block(params, grid.dt, y_path, draws.eta, draws.zeta, params.x0)
    return _finite("X", x)


@dataclass(frozen=True)
class XYPath:
    """A simulated (or imported) joint path on a uniform grid.

    ``scheme`` records which recursion produced the variance path; it is
    ``None`` for paths read back from CSV, where that information is absent.
    """

    grid: TimeGrid
    y: np.ndarray
    x: np.ndarray
    scheme: Scheme | None = None

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        x = np.asarray(self.x, dtype=float)
        want = self.grid.steps + 1
        if y.shape != (want,) or x.shape != (want,):
            raise LengthMismatch(
                f"paths must have {want} points, got y:{y.shape} x:{x.shape}"
            )
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)


def simulate_xy(
    params: ModelParams, grid: TimeGrid, scheme: Scheme, lineage: SeedLineage
) -> XYPath:
    """Simulate the joint (Y, X) path for one replicate of a seed lineage.

    Raises:
        FellerViolated / NonPositiveZ / NonFinitePath: as :func:`simulate_y`
            and :func:`simulate_x`.
    """
    draws = GaussianDraws.from_lineage(lineage, grid.steps)
    y = simulate_y(params, grid, scheme, draws)
    x = simulate_x(params, grid, y, draws)
    return XYPath(grid=grid, y=y, x=x, scheme=scheme)


def simulate_paths(
    params: ModelParams, grid: TimeGrid, scheme: Scheme, master_seed: int, replicates: int
):
    """Yield the joint path of replicates 0, 1, ... of a master seed, in order.

    Replicates run as lane groups of as many whole paths as
    ``BLOCK_ELEMENTS`` holds, at least one, and each group is drawn, advanced
    and priced as one block.  Path r has the bits of ``simulate_xy(params,
    grid, scheme, SeedLineage(master_seed, r))``.

    Raises:
        FellerViolated / NonPositiveZ / NonFinitePath: as :func:`simulate_xy`,
            for the first failing replicate, once those before it are yielded.
    """
    lanes = max(1, BLOCK_ELEMENTS // grid.steps)
    for lo in range(0, replicates, lanes):
        group = range(lo, min(lo + lanes, replicates))
        state = variance_state(params, scheme, len(group))
        eta, zeta = draw_normals(lane_generators(master_seed, group), grid.steps)
        failed = np.full(len(group), -1, dtype=np.int64)
        with np.errstate(over="ignore", invalid="ignore"):
            y, _ = advance_variance(params, grid.dt, scheme, state, eta, params.y0, failed)
            x = price_block(params, grid.dt, y, eta, zeta, params.x0)
        for y_r, x_r, failed_r in zip(y, x, failed):
            yield XYPath(grid, _variance_path(y_r, failed_r), _finite("X", x_r), scheme)


# ---------------------------------------------------------------------------
# CSV import/export (header "t,y,x", 17 significant digits, row 0 = start)


def write_path_csv(path_obj: XYPath, dest) -> None:
    """Write a path as CSV with full double-precision round-trip fidelity."""
    rows = np.column_stack([path_obj.grid.times(), path_obj.y, path_obj.x])
    text = "t,y,x\n" + ("%.17g,%.17g,%.17g\n" * len(rows)) % tuple(rows.ravel().tolist())
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        Path(dest).write_text(text)


def read_path_csv(src) -> XYPath:
    """Read a path CSV written by :func:`write_path_csv` (or equivalent).

    Raises:
        CsvFormatError: wrong header, malformed row, a non-finite value,
            fewer than two rows, or a time column that is not the uniform
            grid starting at 0.
    """
    if hasattr(src, "read"):
        text = src.read()
    else:
        text = Path(src).read_text()
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0].strip() != "t,y,x":
        raise CsvFormatError("expected header 't,y,x'")
    body = lines[1:]
    try:
        if any(line.count(",") != 2 for line in body):
            raise ValueError
        cells = np.array(list(map(float, ",".join(body).split(",") if body else [])))
    except ValueError:
        # a line that fails here fails on its own too: name the first one
        for lineno, line in enumerate(body, start=2):
            parts = line.split(",")
            if len(parts) != 3:
                raise CsvFormatError(f"line {lineno}: expected 3 comma-separated values") from None
            try:
                list(map(float, parts))
            except ValueError:
                raise CsvFormatError(f"line {lineno}: non-numeric value") from None
    cells = cells.reshape(len(body), 3).T.copy()
    finite = np.isfinite(cells).all(axis=0)
    if not finite.all():
        raise CsvFormatError(f"line {int(np.argmin(finite)) + 2}: non-finite value")
    if len(body) < 2:
        raise CsvFormatError("need at least two rows (initial point plus one step)")
    t, y, x = cells
    if t[0] != 0.0:
        raise CsvFormatError(f"time column must start at 0, got {t[0]}")
    if not t[-1] > 0.0:
        raise CsvFormatError(f"final time must be positive, got {t[-1]}")
    grid = TimeGrid(horizon=float(t[-1]), steps=len(body) - 1)
    tol = 1e-9 * max(1.0, abs(grid.horizon))
    if np.max(np.abs(t - grid.times())) > tol:
        raise CsvFormatError("time column is not a uniform grid")
    return XYPath(grid=grid, y=y, x=x, scheme=None)
