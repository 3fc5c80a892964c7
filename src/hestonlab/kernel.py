"""The compiled lane kernel of Monte Carlo runs, and its loader.

``kernel.c``, next to this file, advances a lane group through a block of
steps in one C loop per lane: the variance recursion of any scheme, the
log-price recursion and the fold of each summation tile into the group's
:class:`~hestonlab.estimate.PathSums`.  :meth:`LaneKernel.draw` draws the
normals itself, a tile at a time, from each lane's pair of numpy
generators, through numpy's own ``random_standard_normal`` (linked from
numpy's ``libnpyrandom.a``), so no block of draws is ever held; a Monte
Carlo lane group goes through its whole path in one call.  A call of
:class:`LaneKernel` itself reads given draws instead.  Both give the bits of
the numpy pipeline (:func:`~hestonlab.simulate.draw_normals`,
:func:`~hestonlab.simulate.advance_variance`,
:func:`~hestonlab.simulate.price_block` and ``PathSums.fold`` a tile at a
time), which stays as the fallback and as the reference the tests compare
it against.  It runs without the interpreter lock, since ``ctypes`` releases
the lock for the call, so worker threads advance their groups in parallel.

The kernel does not take the lock that a numpy ``Generator`` takes around
its draws.  That is safe where the generators are the caller's alone, as
the ones :func:`~hestonlab.simulate.lane_generators` makes inside one
Monte Carlo lane group are: no other thread holds them.

The kernel is built the first time a Monte Carlo run asks for it, never at
import, with the system C compiler (``cc``) and the flags in ``FLAGS``,
against numpy's ``bitgen.h`` and ``libnpyrandom.a`` (``NPYRANDOM``), into a
per-user cache (``~/.cache/hestonlab``), under a name made from the sha256
of the source, the archive, the compiler command (with numpy's include
path) and the platform, so a numpy upgrade builds it afresh.  It is
compiled to a temporary name and renamed into place, so concurrent builds
do not clash, and later runs load the cached file.  Where no compiler,
archive or cache works, :func:`lane_kernel` returns None, without a
warning, and runs take the numpy pipeline with the same results.
:func:`load` raises instead, so a broken build can be seen.
"""

from __future__ import annotations

import hashlib
import math
import numbers
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

__all__ = ["SOURCE", "NPYRANDOM", "COMPILER", "FLAGS", "CACHE_DIR", "load", "lane_kernel",
           "LaneKernel"]

SOURCE = Path(__file__).with_name("kernel.c")
# numpy's static library of its samplers, which numpy installs for C code
# that draws as its Generator does
NPYRANDOM = Path(np.random.__file__).with_name("lib") / "libnpyrandom.a"
COMPILER = "cc"
# no fused multiply-add and no value-changing optimization: the kernel must
# give numpy's bits; no -march, so a cached build runs on any CPU of the platform
FLAGS = ("-O2", "-std=c99", "-fno-fast-math", "-ffp-contract=off", "-fPIC", "-shared")
CACHE_DIR = Path("~", ".cache", "hestonlab")

_SCHEME_CODES = {Scheme.AVE: 0, Scheme.TE: 1, Scheme.SE: 2, Scheme.DESRE: 3, Scheme.DISRE: 4}


def _build(command: list[str]) -> Path:
    """The cached shared library of ``kernel.c``, compiled first if it is not there."""
    key = hashlib.sha256(b"\0".join(
        [SOURCE.read_bytes(), NPYRANDOM.read_bytes(), " ".join(command).encode(),
         platform.platform().encode(), platform.machine().encode()])).hexdigest()[:24]
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
            done = subprocess.run([*command, "-o", tmp, str(SOURCE), str(NPYRANDOM), "-lm"],
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
        OSError / subprocess.SubprocessError: no compiler, no numpy archive,
            a failed compile, an unusable cache or a library that does not
            load.
    """
    import ctypes

    compiler = shutil.which(COMPILER)
    if compiler is None:
        raise FileNotFoundError(f"no C compiler {COMPILER!r} on the PATH")
    fn = ctypes.CDLL(str(_build([compiler, *FLAGS, "-I" + np.get_include()]))).hl_lane_block
    fn.restype = ctypes.c_int64
    fn.argtypes = [ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p] + [ctypes.c_int64] * 4 + [
        ctypes.c_void_p] * 11
    # a prototype of its own, so that ctypes.pythonapi's shared one is left as it is
    capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return LaneKernel(fn, capsule_pointer)


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
                # no compiler, no home directory, cache or numpy archive, a
                # failed build or a library without the kernel: the numpy
                # pipeline runs
                _loaded.append(None)
        return _loaded[0]


# PathSums arrays the kernel updates in place
_SUMS_ARRAYS = ("y_start", "y_end", "x_end", "sums", "mean", "m2")


class LaneKernel:
    """The opened kernel: a call advances one lane group through one block of
    given draws, :meth:`draw` through steps whose normals it draws."""

    def __init__(self, fn, capsule_pointer):
        self.fn = fn
        # PyCapsule_GetPointer, which gives a bit generator's bitgen_t
        # pointer from its capsule (0.9 us; its .ctypes view takes 9 us)
        self.capsule_pointer = capsule_pointer

    def __call__(self, params: ModelParams, dt: float, scheme: Scheme, eta: np.ndarray,
                 zeta: np.ndarray, state: np.ndarray | None, sums: PathSums):
        """Advance a lane group through one block of given draws and fold it
        into ``sums``.

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
        # the kernel reads these through bare pointers
        eta, zeta = (np.ascontiguousarray(a, dtype=float) for a in (eta, zeta))
        if eta.ndim != 2 or zeta.shape != eta.shape:
            raise ValueError(f"eta and zeta must both be (lanes, steps), got {eta.shape} "
                             f"and {zeta.shape}")
        return self._advance(params, dt, scheme, *eta.shape, state, sums,
                             None, eta.ctypes.data, zeta.ctypes.data)

    def draw(self, params: ModelParams, dt: float, scheme: Scheme, streams, steps: int,
             state: np.ndarray | None, sums: PathSums):
        """As a call, but the kernel draws the noise: lane i's next ``steps``
        normals of each of its (eta, zeta) generators ``streams[i]``, the
        normals :func:`~hestonlab.simulate.draw_normals` gives.

        A lane that does not abort leaves its generators where
        ``draw_normals`` would; an aborted lane's are left unfinished.  The
        generators' locks are not taken, so no other thread may use them
        during the call.
        """
        if isinstance(steps, bool) or not (isinstance(steps, numbers.Integral) and steps >= 0):
            raise ValueError(f"steps must be an integer >= 0, got {steps!r}")
        gens = np.array([self.capsule_pointer(gen.bit_generator.capsule, b"BitGenerator")
                         for pair in streams for gen in pair], dtype=np.uintp)
        if gens.shape != (2 * len(streams),):
            raise ValueError("each lane needs one (eta, zeta) pair of generators")
        return self._advance(params, dt, scheme, len(streams), steps, state, sums,
                             gens.ctypes.data, None, None)

    def _advance(self, params, dt, scheme, lanes, steps, state, sums, gens, eta, zeta):
        scheme.check(params, dt)
        if sums.steps % SUM_TILE:
            raise ValueError("only the last block of a path may end inside a tile")
        if state is None:
            y0 = float(params.y0)
            state = np.full(lanes, math.sqrt(y0) if scheme.uses_sqrt_state else y0)
        else:
            state = np.array(state, dtype=float)
        # the kernel reads and writes these through bare pointers
        for name in _SUMS_ARRAYS:
            setattr(sums, name, np.require(getattr(sums, name), float, ["C", "W"]))
        shapes = [state.shape, sums.sums.shape] + [
            getattr(sums, name).shape for name in _SUMS_ARRAYS if name != "sums"]
        if shapes != [(lanes,), (6, lanes)] + [(lanes,)] * 5:
            raise ValueError(f"a block of {lanes} lanes needs (lanes,) states and sums, "
                             f"got {shapes}")
        aborted = np.zeros(lanes, dtype=np.int64)
        k = np.array(_scheme_constants(scheme, params, dt), dtype=float)
        p = np.array(_price_constants(params, dt), dtype=float)
        status = self.fn(_SCHEME_CODES[scheme], k.ctypes.data, p.ctypes.data, lanes, steps,
                         SUM_TILE, sums.steps, gens, eta, zeta, state.ctypes.data,
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
