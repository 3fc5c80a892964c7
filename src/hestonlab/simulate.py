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

Lanes and blocks: :func:`advance_variance` is the package's one step loop.
It advances a group of replicates side by side (the lanes) through a block of
steps, and :func:`price_block` turns a block of variance points into the
matching log-price points, carrying the price across blocks.  A single path
is one lane and one block; a Monte Carlo run streams many lanes through
blocks of B steps.  Both see the same per-element arithmetic, and a path cut
into blocks reproduces the path computed in one piece bit for bit.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .errors import (
    CsvFormatError,
    FellerViolated,
    InvalidGrid,
    LengthMismatch,
    NegativeInput,
    NonPositiveZ,
)
from .model import ModelParams

__all__ = [
    "TimeGrid",
    "Scheme",
    "SeedLineage",
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
        return tuple(
            np.random.Generator(
                np.random.PCG64(
                    np.random.SeedSequence(
                        entropy=self.master_seed,
                        spawn_key=(self.replicate, tag),
                    )
                )
            )
            for tag in (_ETA_STREAM, _ZETA_STREAM)
        )


@dataclass(frozen=True)
class GaussianDraws:
    """Pair of equal-length standard-normal draw vectors (eta, zeta)."""

    eta: np.ndarray
    zeta: np.ndarray
    lineage: SeedLineage | None = None

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
        gen_eta, gen_zeta = lineage.generators()
        return cls(
            eta=gen_eta.standard_normal(n_steps),
            zeta=gen_zeta.standard_normal(n_steps),
            lineage=lineage,
        )


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
        raise ValueError(
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


def advance_variance(
    params: ModelParams,
    dt: float,
    scheme: Scheme,
    state: np.ndarray,
    eta: np.ndarray,
    out: np.ndarray,
    failed: np.ndarray,
    start: int = 0,
) -> np.ndarray:
    """Advance lanes through one block of steps; returns the new state.

    Args:
        state: (lanes,) scheme state from :func:`variance_state` or from the
            previous block.
        eta: (steps, lanes) draws, one row per step (time-major).
        out: (steps, lanes) array that receives Y after each step.
        failed: (lanes,) grid index of each lane's DESRE abort, -1 for a live
            lane; updated in place.  An aborted lane is NaN from its abort on.
        start: grid index of the block's first point, so that abort indices
            count from the start of the path.
    """
    if scheme is Scheme.DESRE:
        # a lane runs on past its first nonpositive Z to the end of the block;
        # those values are replaced by NaN below, and so are their warnings
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            _desre_steps(params, dt, state, eta, out)
        bad = out <= 0.0
        hit = bad.any(axis=0) & (failed < 0)
        if hit.any():
            first = bad.argmax(axis=0)
            failed[hit] = start + first[hit] + 1
            out[(np.arange(out.shape[0])[:, None] >= first) & hit] = np.nan
    else:
        _STEPS[scheme](params, dt, state, eta, out)
    state = out[-1].copy()
    if scheme.uses_sqrt_state:
        np.multiply(out, out, out)
    return state


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


def _simulate_y_batch(
    params: ModelParams, grid: TimeGrid, scheme: Scheme, eta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Advance a batch of whole variance paths; rows are independent replicates.

    One block of ``grid.steps`` steps through :func:`advance_variance`.

    Args:
        eta: array of shape (rows, steps) of standard-normal draws.

    Returns:
        (y, failed_step): y has shape (rows, steps + 1); failed_step[r] is -1
        for a clean row, otherwise the first grid index at which the DESRE
        iterate left the positive half-line (that row is NaN from there on).
    """
    rows, n = eta.shape
    if n != grid.steps:
        raise LengthMismatch(f"draws provide {n} steps, grid has {grid.steps}")
    state = variance_state(params, scheme, rows)
    y = np.empty((n + 1, rows), dtype=float)
    y[0] = params.y0
    failed = np.full(rows, -1, dtype=np.int64)
    advance_variance(
        params, grid.dt, scheme, state, np.ascontiguousarray(eta.T), y[1:], failed
    )
    return np.ascontiguousarray(y.T), failed


def simulate_y(
    params: ModelParams, grid: TimeGrid, scheme: Scheme, draws: GaussianDraws
) -> np.ndarray:
    """Simulate one variance path on the grid; returns length steps+1 array.

    Raises:
        LengthMismatch: if the draws do not provide exactly ``grid.steps`` values.
        FellerViolated: for DESRE/DISRE without a > sigma1^2/2.
        NonPositiveZ: if the DESRE iterate leaves the positive half-line
            (carries the offending grid index in ``.step``).
    """
    eta = np.asarray(draws.eta, dtype=float)
    if eta.shape != (grid.steps,):
        raise LengthMismatch(
            f"draws provide {eta.shape[0]} steps, grid has {grid.steps}"
        )
    y, failed = _simulate_y_batch(params, grid, scheme, eta[None, :])
    if failed[0] >= 0:
        raise NonPositiveZ(
            f"square-root state hit zero at grid index {int(failed[0])}",
            step=int(failed[0]),
        )
    return y[0]


def simulate_x(
    params: ModelParams, grid: TimeGrid, y_path: np.ndarray, draws: GaussianDraws
) -> np.ndarray:
    """Euler log-price path driven by a given variance path and both streams.

    The diffusion coefficient uses sqrt(max(y, 0)) so variance paths from the
    schemes that can go negative remain usable.

    Raises:
        LengthMismatch: if ``y_path`` does not have steps+1 points or the
            draws do not provide steps values per stream.
    """
    y_path = np.asarray(y_path, dtype=float)
    if y_path.shape != (grid.steps + 1,):
        raise LengthMismatch(
            f"y_path has {y_path.shape[0]} points, grid wants {grid.steps + 1}"
        )
    if len(draws) != grid.steps:
        raise LengthMismatch(f"draws provide {len(draws)} steps, grid has {grid.steps}")
    return price_block(params, grid.dt, y_path, draws.eta, draws.zeta, params.x0)


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
    """Simulate the joint (Y, X) path for one replicate of a seed lineage."""
    draws = GaussianDraws.from_lineage(lineage, grid.steps)
    y = simulate_y(params, grid, scheme, draws)
    x = simulate_x(params, grid, y, draws)
    return XYPath(grid=grid, y=y, x=x, scheme=scheme)


# ---------------------------------------------------------------------------
# CSV import/export (header "t,y,x", 17 significant digits, row 0 = start)


def write_path_csv(path_obj: XYPath, dest) -> None:
    """Write a path as CSV with full double-precision round-trip fidelity."""
    t = path_obj.grid.times()
    lines = ["t,y,x"]
    for k in range(t.shape[0]):
        lines.append(f"{t[k]:.17g},{path_obj.y[k]:.17g},{path_obj.x[k]:.17g}")
    text = "\n".join(lines) + "\n"
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
    t_vals, y_vals, x_vals = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise CsvFormatError(f"line {lineno}: expected 3 comma-separated values")
        try:
            tv, yv, xv = (float(p) for p in parts)
        except ValueError:
            raise CsvFormatError(f"line {lineno}: non-numeric value") from None
        t_vals.append(tv)
        y_vals.append(yv)
        x_vals.append(xv)
    cells = np.array([t_vals, y_vals, x_vals])
    finite = np.isfinite(cells).all(axis=0)
    if not finite.all():
        raise CsvFormatError(f"line {int(np.argmin(finite)) + 2}: non-finite value")
    if len(t_vals) < 2:
        raise CsvFormatError("need at least two rows (initial point plus one step)")
    t, y, x = cells
    if t[0] != 0.0:
        raise CsvFormatError(f"time column must start at 0, got {t[0]}")
    if not t[-1] > 0.0:
        raise CsvFormatError(f"final time must be positive, got {t[-1]}")
    grid = TimeGrid(horizon=float(t[-1]), steps=len(t_vals) - 1)
    tol = 1e-9 * max(1.0, abs(grid.horizon))
    if np.max(np.abs(t - grid.times())) > tol:
        raise CsvFormatError("time column is not a uniform grid")
    return XYPath(grid=grid, y=y, x=x, scheme=None)
