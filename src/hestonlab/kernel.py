"""The compiled lane kernel of Monte Carlo runs, and its loader.

``kernel.c``, next to this file, advances a lane group through one block of
steps in one C loop per lane: the variance recursion of any scheme, the
log-price recursion and the fold of each summation tile into the group's
:class:`~hestonlab.estimate.PathSums`.  It gives the bits of the numpy
pipeline (:func:`~hestonlab.simulate.advance_variance`,
:func:`~hestonlab.simulate.price_block` and ``PathSums.fold`` a tile at a
time), which stays as the fallback and as the reference the tests compare
it against.  It runs without the interpreter lock, since ``ctypes`` releases
the lock for the call, so worker threads advance their groups in parallel.

The kernel is built the first time a Monte Carlo run asks for it, never at
import, with the system C compiler (``cc``) and the flags in ``FLAGS``, into
a per-user cache (``~/.cache/hestonlab``), under a name made from the sha256
of the source, the compiler command and the platform; it is compiled to a
temporary name and renamed into place, so concurrent builds do not clash,
and later runs load the cached file.  Where no compiler or cache works,
:func:`lane_kernel` returns None, without a warning, and runs take the
numpy pipeline with the same results.  :func:`load` raises instead, so a
broken build can be seen.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

from .estimate import SUM_TILE, PathSums
from .model import ModelParams
from .simulate import Scheme

__all__ = ["SOURCE", "COMPILER", "FLAGS", "CACHE_DIR", "load", "lane_kernel", "LaneKernel"]

SOURCE = Path(__file__).with_name("kernel.c")
COMPILER = "cc"
# no fused multiply-add and no value-changing optimization: the kernel must
# give numpy's bits; no -march, so a cached build runs on any CPU of the platform
FLAGS = ("-O2", "-std=c99", "-fno-fast-math", "-ffp-contract=off", "-fPIC", "-shared")
CACHE_DIR = Path("~", ".cache", "hestonlab")

_SCHEME_CODES = {Scheme.AVE: 0, Scheme.TE: 1, Scheme.SE: 2, Scheme.DESRE: 3, Scheme.DISRE: 4}


def _build(command: list[str]) -> Path:
    """The cached shared library of ``kernel.c``, compiled first if it is not there."""
    source = SOURCE.read_bytes()
    key = hashlib.sha256(b"\0".join(
        [source, " ".join(command).encode(), platform.platform().encode(),
         platform.machine().encode()])).hexdigest()[:24]
    cache = CACHE_DIR.expanduser()
    cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = cache.stat()
    if info.st_uid != os.getuid() or info.st_mode & 0o022:
        raise PermissionError(f"{cache} is writable by other users")
    target = cache / f"kernel-{key}.so"
    if not target.is_file():
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        try:
            done = subprocess.run([*command, "-o", tmp, str(SOURCE), "-lm"],
                                  stdin=subprocess.DEVNULL, capture_output=True, timeout=120)
            if done.returncode:
                raise OSError(f"{command[0]} exited with code {done.returncode}: "
                              + done.stderr.decode(errors="replace")[-2000:])
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return target


def load() -> "LaneKernel":
    """Build the kernel unless it is cached, and open it.

    Raises:
        OSError / subprocess.SubprocessError: no compiler, a failed
            compile, an unusable cache or a library that does not load.
    """
    import ctypes

    compiler = shutil.which(COMPILER)
    if compiler is None:
        raise FileNotFoundError(f"no C compiler {COMPILER!r} on the PATH")
    fn = ctypes.CDLL(str(_build([compiler, *FLAGS]))).hl_lane_block
    fn.restype = ctypes.c_int64
    fn.argtypes = [ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p] + [ctypes.c_int64] * 4 + [
        ctypes.c_void_p] * 10
    return LaneKernel(fn)


_lock = threading.Lock()
_loaded: list = []


def lane_kernel() -> "LaneKernel | None":
    """The kernel, loaded on the first call of the process (under a lock, so
    concurrent callers share one build), or None where it cannot be built or
    opened; the outcome is kept for the rest of the process."""
    with _lock:
        if not _loaded:
            try:
                _loaded.append(load())
            except (OSError, RuntimeError, AttributeError, subprocess.SubprocessError):
                # no compiler, no home directory or cache, a failed build or
                # a library without the kernel: the numpy pipeline runs
                _loaded.append(None)
        return _loaded[0]


# PathSums arrays the kernel updates in place
_SUMS_ARRAYS = ("y_start", "y_end", "x_end", "sums", "mean", "m2")


class LaneKernel:
    """The opened kernel: a call advances one lane group through one block."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, params: ModelParams, dt: float, scheme: Scheme, eta: np.ndarray,
                 zeta: np.ndarray, state: np.ndarray | None, sums: PathSums):
        """Advance a lane group through one block and fold it into ``sums``.

        Takes and returns what :func:`~hestonlab.simulate.advance_variance`
        does, but for the variance points: ``state`` is the one the previous
        block returned, or None for the first, and the result is the new
        state and each lane's DESRE abort step within the block (0 for
        none).  An aborted lane's state and sums are left unfinished, for the
        caller to drop.  ``sums`` then holds what ``PathSums.fold`` of each
        tile of the priced block gives it.

        Raises:
            FellerViolated / InvalidGrid: as :meth:`Scheme.check`.
            ValueError: a block follows one that ended inside a tile, or the
                draws, the state and the sums do not hold the same lanes.
        """
        scheme.check(params, dt)
        if sums.steps % SUM_TILE:
            raise ValueError("only the last block of a path may end inside a tile")
        lanes, steps = eta.shape
        if state is None:
            y0 = float(params.y0)
            state = np.full(lanes, math.sqrt(y0) if scheme.uses_sqrt_state else y0)
        else:
            state = np.array(state, dtype=float)
        # the kernel reads and writes these through bare pointers
        eta, zeta = (np.ascontiguousarray(a, dtype=float) for a in (eta, zeta))
        for name in _SUMS_ARRAYS:
            setattr(sums, name, np.require(getattr(sums, name), float, ["C", "W"]))
        shapes = [zeta.shape, state.shape, sums.sums.shape] + [
            getattr(sums, name).shape for name in _SUMS_ARRAYS if name != "sums"]
        if shapes != [(lanes, steps), (lanes,), (6, lanes)] + [(lanes,)] * 5:
            raise ValueError(f"a block of {lanes} lanes needs (lanes,) states and sums, got "
                             f"draws {eta.shape} and {zeta.shape} and {shapes[1:]}")
        aborted = np.zeros(lanes, dtype=np.int64)
        k = np.array(_scheme_constants(scheme, params, dt), dtype=float)
        p = np.array(_price_constants(params, dt), dtype=float)
        status = self.fn(_SCHEME_CODES[scheme], k.ctypes.data, p.ctypes.data, lanes, steps,
                         SUM_TILE, sums.steps, eta.ctypes.data, zeta.ctypes.data,
                         state.ctypes.data,
                         *(getattr(sums, name).ctypes.data for name in _SUMS_ARRAYS),
                         aborted.ctypes.data)
        if status:
            raise ValueError(f"summation tile of {SUM_TILE} steps is outside [1, 128]")
        sums.steps += steps
        return state, aborted


def _scheme_constants(scheme: Scheme, params: ModelParams, dt: float) -> list[float]:
    # formed by the expressions simulate's step loop forms them with
    if scheme is Scheme.DESRE:
        return [0.5 * params.a - 0.125 * params.sigma1 ** 2, 0.5 * params.b, dt,
                0.5 * params.sigma1 * np.sqrt(dt)]
    if scheme is Scheme.DISRE:
        den = 2.0 + params.b * dt
        return [den, (params.a - 0.25 * params.sigma1 ** 2) * dt / den,
                0.5 * params.sigma1 * np.sqrt(dt)]
    return [params.a, params.b, dt, params.sigma1, np.sqrt(dt)]


def _price_constants(params: ModelParams, dt: float) -> list[float]:
    # formed as simulate.price_block forms them
    return [params.rho, math.sqrt(1.0 - params.rho * params.rho), params.alpha, params.beta,
            dt, params.sigma2, np.sqrt(dt)]
