"""The compiled lane kernel of Monte Carlo runs and single paths, and its loader.

``kernel.c``, next to this file, takes a freshly seeded lane group from
(y0, x0) through its whole path in one C loop per lane: the variance
recursion of any scheme, the log-price recursion and the fold of each
summation tile into the group's :class:`~hestonlab.estimate.PathSums`, with
the constants of :func:`~hestonlab.simulate.step_constants`.
:meth:`LaneKernel.draw` seeds each lane's pair of PCG64 streams from the
words of :func:`~hestonlab.simulate.lane_seeds` and draws the normals
itself, a tile at a time, through numpy's ziggurat, inlined: so no block of
draws and no numpy ``Generator`` is ever held, and
:func:`~hestonlab.simulate.advance_lanes` takes a lane group through its
path in one call, which writes its points as well for single paths.  A call
of :class:`LaneKernel` itself reads given draws instead, for
:func:`~hestonlab.simulate.simulate_y` and :func:`load`'s check.  Both give
the bits of the numpy pipeline (:func:`~hestonlab.simulate.lane_generators`,
:func:`~hestonlab.simulate.draw_normals`,
:func:`~hestonlab.simulate.advance_variance`,
:func:`~hestonlab.simulate.price_block` and ``PathSums.fold`` a tile at a
time), which runs instead where the kernel does not load.  The kernel runs
without the interpreter lock, since ``ctypes`` releases the lock for the
call, so worker threads advance their groups in parallel.

The library also holds the fast route of the CSV codec of
:func:`~hestonlab.simulate.format_csv` and
:func:`~hestonlab.simulate.parse_csv`: :meth:`LaneKernel.format_rows`
writes '%.17g' and '%d' cells, byte for byte as Python's % does, and
:meth:`LaneKernel.parse_rows` reads lines of the strict form that writer
makes, as ``float()`` and ``int()`` do, or each returns None for the Python
codec to take the call.  The writer multiplies by powers of ten of 128 bits,
which :func:`load` computes with exact integers (``_pow10_table``) and
passes to each call.  And :meth:`LaneKernel.log_ndtr` gives the bits of
:func:`~hestonlab.simulate.log_ndtr_scalar`, the normality test's log Phi,
for :func:`~hestonlab.simulate.log_ndtr`.

The ziggurat's three tables are numpy's own: :func:`load` reads them from
numpy's ``libnpyrandom.a`` (``NPYRANDOM``), the static library of its
samplers, where they are local symbols of one member (``_TABLE_MEMBER``),
with a small reader of ``ar`` archives and ELF64 objects, and passes them to
each call.  After opening the kernel it draws one small lane group both ways,
in the kernel and through ``draw_normals``, and refuses a kernel whose bits
or stream states differ; then it writes a fixed set of values through the
codec and with %, and reads them back, and refuses a kernel whose bytes or
bits differ; last it takes a grid over both tails through log Phi in the
kernel and in Python, and refuses a kernel whose bits differ.

The kernel is built the first time a run, a path, the CSV codec or log Phi
asks for it, never at import, with the system C compiler (``cc``) and the
flags in ``FLAGS``, into a per-user cache (``~/.cache/hestonlab``), under a
name made from the sha256 of the source, numpy's archive, the compiler
command and the platform, so a numpy upgrade builds it afresh.  It is
compiled to a temporary name and renamed into place, so concurrent builds
do not clash, and later runs load the cached file.  Where no compiler,
archive, tables or cache work, or a check fails, :func:`lane_kernel`
returns None, without a warning, and runs take the numpy pipeline, the
Python codec and the Python log Phi, with the same results.  :func:`load`
raises instead, so a broken build can be seen.
"""

from __future__ import annotations

import hashlib
import numbers
import os
import platform
import shutil
import struct
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from .estimate import PathSums
from .model import ModelParams
from .simulate import (Scheme, draw_normals, lane_generators, lane_seeds, log_ndtr_scalar,
                       step_constants)

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


# numpy's ziggurat tables: the archive member that holds them and their
# symbols, in the order the kernel takes them, each 256 eight-byte entries
_TABLE_MEMBER = "src_distributions_distributions.c.o"
_TABLE_SYMBOLS = ("ki_double", "wi_double", "fi_double")
_TABLE_BYTES = 256 * 8


def _ar_member(archive: bytes, name: str) -> bytes:
    """The bytes of member ``name`` of an ``ar`` archive, GNU long names
    included."""
    if not archive.startswith(b"!<arch>\n"):
        raise OSError("not an ar archive")
    pos, long_names = 8, b""
    while pos + 60 <= len(archive):
        header = archive[pos : pos + 60]
        size = int(header[48:58])
        body = archive[pos + 60 : pos + 60 + size]
        if header[58:60] != b"`\n" or len(body) != size:
            raise OSError(f"a malformed ar member at byte {pos}")
        member = header[:16].rstrip(b" ")
        if member == b"//":  # the GNU table of long names, each ended by "/\n"
            long_names = body
        elif member[1:].isdigit():  # "/offset" into that table
            offset = int(member[1:])
            member = long_names[offset : long_names.index(b"/\n", offset)]
        else:
            member = member.removesuffix(b"/")
        if member == name.encode():
            return body
        pos += 60 + size + size % 2
    raise OSError(f"no member {name} in the archive")


def _elf_objects(obj: bytes, names) -> dict[str, bytes]:
    """The bytes of each named symbol of a little-endian ELF64 object, each
    an OBJECT of ``_TABLE_BYTES`` bytes in a PROGBITS section, as its
    ``.symtab`` and ``.strtab`` give them."""
    if obj[:6] != b"\x7fELF\x02\x01":
        raise OSError("not a little-endian ELF64 object")
    shoff, = struct.unpack_from("<Q", obj, 0x28)
    shentsize, shnum = struct.unpack_from("<HH", obj, 0x3A)
    # (sh_type, sh_offset, sh_size, sh_link) of each section
    sections = [struct.unpack_from("<4xI16xQQI", obj, shoff + i * shentsize)
                for i in range(shnum)]
    symtabs = [s for s in sections if s[0] == 2]  # SHT_SYMTAB
    if len(symtabs) != 1:
        raise OSError(f"{len(symtabs)} symbol tables, not 1")
    _, offset, size, link = symtabs[0]
    _, str_offset, str_size, _ = sections[link]
    strtab = obj[str_offset : str_offset + str_size]
    found = {}
    for entry in range(offset, offset + size - 23, 24):
        name_at, info, shndx, value, sym_size = struct.unpack_from("<IBxHQQ", obj, entry)
        name = strtab[name_at : strtab.index(b"\0", name_at)].decode("ascii", "replace")
        if name not in names:
            continue
        if info & 0xF != 1 or sym_size != _TABLE_BYTES:  # STT_OBJECT
            raise OSError(f"{name} is not an object of {_TABLE_BYTES} bytes")
        if not 0 < shndx < len(sections) or sections[shndx][0] != 1:  # SHT_PROGBITS
            raise OSError(f"{name} is not in a PROGBITS section")
        _, sec_offset, sec_size, _ = sections[shndx]
        if value + sym_size > sec_size:
            raise OSError(f"{name} runs past the end of its section")
        found[name] = obj[sec_offset + value : sec_offset + value + sym_size]
    missing = [n for n in names if n not in found]
    if missing:
        raise OSError(f"no symbol {', '.join(missing)}")
    return found


def _ziggurat_tables(archive: bytes) -> np.ndarray:
    """numpy's ziggurat tables, read from the bytes of ``libnpyrandom.a``:
    (3, 256) uint64, ki and then the bits of the doubles wi and fi.

    Raises:
        OSError: no such member or symbol, a symbol of another kind or size,
            or bytes that are not an archive of ELF64 objects.
    """
    try:
        tables = _elf_objects(_ar_member(archive, _TABLE_MEMBER), _TABLE_SYMBOLS)
    except (ValueError, IndexError, struct.error) as e:
        raise OSError(f"{NPYRANDOM} is not a readable archive: {e}") from e
    return np.frombuffer(b"".join(tables[n] for n in _TABLE_SYMBOLS),
                         dtype="<u8").astype(np.uint64).reshape(3, 256)


def _build(command: list[str], archive: bytes) -> Path:
    """The cached shared library of ``kernel.c``, compiled first if it is not
    there, which then unlinks the other builds unchanged for over a week."""
    # the platform's fields, not platform.platform(), which runs `uname -p`
    # in a new process
    system = (platform.system(), platform.release(), platform.machine(), *platform.libc_ver())
    key = hashlib.sha256(b"\0".join(
        [SOURCE.read_bytes(), archive, " ".join(command).encode(),
         " ".join(system).encode()])).hexdigest()[:24]
    cache = CACHE_DIR.expanduser()
    cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = cache.stat()
    if info.st_uid != os.getuid() or info.st_mode & 0o022:
        raise PermissionError(f"{cache} is writable by other users")
    target = cache / f"kernel-{key}.so"
    if not target.is_file():
        # imported here, as only a compile runs a process: a run on a cached
        # kernel does not pay for the import
        import subprocess

        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        try:
            done = subprocess.run([*command, "-o", tmp, str(SOURCE), "-lm"],
                                  stdin=subprocess.DEVNULL, capture_output=True, timeout=120)
            if done.returncode:
                raise OSError(f"{command[0]} exited with code {done.returncode}: "
                              + done.stderr.decode(errors="replace")[-2000:])
            os.replace(tmp, target)
        except subprocess.TimeoutExpired as e:
            raise OSError(f"{command[0]} did not finish in {e.timeout:g} s") from e
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        stale = time.time() - 7 * 24 * 3600
        for old in cache.glob("kernel-*.so"):
            try:
                if old != target and old.stat().st_mtime < stale:
                    old.unlink()
            except FileNotFoundError:  # another process unlinked it first
                pass
    return target


def load() -> "LaneKernel":
    """Build the kernel unless it is cached, open it, and check its draws.

    Raises:
        OSError: no compiler, no numpy archive or no ziggurat tables in
            it, a compile that fails or runs over 120 s, an unusable cache
            or a library that does not load.
        RuntimeError: the kernel's draws or stream states differ from
            numpy's, or its CSV codec or log Phi from Python's.
    """
    import ctypes

    compiler = shutil.which(COMPILER)
    if compiler is None:
        raise FileNotFoundError(f"no C compiler {COMPILER!r} on the PATH")
    archive = NPYRANDOM.read_bytes()
    tables = _ziggurat_tables(archive)
    lib = ctypes.CDLL(str(_build([compiler, *FLAGS], archive)))
    fn = lib.hl_lane_block
    fn.restype = None
    fn.argtypes = [ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p] + [ctypes.c_int64] * 2 + [
        ctypes.c_void_p] * 13
    format_rows, parse_rows = lib.hl_format_rows, lib.hl_parse_rows
    format_rows.restype = parse_rows.restype = ctypes.c_int64
    format_rows.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64] + [
        ctypes.c_void_p] * 3
    # a bytes object, whose buffer a NUL ends
    parse_rows.argtypes = [ctypes.c_char_p] + [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 2
    log_ndtr = lib.hl_log_ndtr
    log_ndtr.restype = None
    log_ndtr.argtypes = [ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p]
    kernel = LaneKernel(fn, tables, format_rows, parse_rows, _pow10_table(), log_ndtr)
    _check_draws(kernel)
    _check_codec(kernel)
    _check_log_ndtr(kernel)
    return kernel


# The group load() draws both ways: 4 lanes of 2048 DISRE steps, whose
# 16384 normals include both of the ziggurat's rare paths, the wedge test
# (about 1.5% of normals) and the tail (7 of them at this seed)
_CHECK_SEED, _CHECK_LANES, _CHECK_STEPS = 2, 4, 2048
_CHECK_PARAMS = ModelParams(a=0.4, b=1.0, alpha=0.1, beta=0.15, sigma1=0.4, sigma2=0.3,
                            rho=0.2, y0=0.4, x0=0.0)


def _check_draws(kernel: "LaneKernel") -> None:
    """Draw the check group in the kernel and through draw_normals: the same
    path sums and stream states, or RuntimeError."""
    params, dt, scheme = _CHECK_PARAMS, 0.01, Scheme.DISRE
    streams = lane_seeds(_CHECK_SEED, range(_CHECK_LANES))
    gens = lane_generators(_CHECK_SEED, range(_CHECK_LANES))
    results = [[aborted.tobytes()] + [getattr(sums, name).tobytes() for name in _SUMS_ARRAYS]
               for aborted, sums in (
                   kernel.draw(params, dt, scheme, streams, _CHECK_STEPS),
                   kernel(params, dt, scheme, *draw_normals(gens, _CHECK_STEPS)))]
    kernel_states = [((int(w[0]) << 64) | int(w[1]), (int(w[2]) << 64) | int(w[3]))
                     for w in streams.reshape(-1, 4)]
    numpy_states = [(s["state"]["state"], s["state"]["inc"])
                    for pair in gens for s in (g.bit_generator.state for g in pair)]
    if results[0] != results[1] or kernel_states != numpy_states:
        raise RuntimeError("the lane kernel's draws differ from numpy's; "
                           f"are the ziggurat tables of {NPYRANDOM} numpy's own?")


# The powers of ten of the CSV writer, 10^q for q = _POW10_MIN.._POW10_MAX
# (as kernel.c's POW10_MIN and POW10_MAX), enough for the 17 digits of any
# double
_POW10_MIN, _POW10_MAX = -300, 345


def _pow10_table() -> np.ndarray:
    """10^q for each q of the writer's range, truncated to M * 2^E with M of
    128 bits: a (646, 3) uint64 array of M's high and low words and E, the
    last as the bits of an int64.  Exact for 0 <= q <= 55, where 5^q fits."""
    rows = []
    for q in range(_POW10_MIN, _POW10_MAX + 1):
        power = 10 ** abs(q)
        if q >= 0:
            shift = power.bit_length() - 128
            mantissa = power >> shift if shift >= 0 else power << -shift
        else:
            shift = -(127 + power.bit_length())
            mantissa = (1 << -shift) // power
        word = (1 << 64) - 1
        rows.append((mantissa >> 64, mantissa & word, shift & word))
    return np.array(rows, dtype=np.uint64)


# The values load() writes both ways, in the kernel and with '%.17g':
# exact ties, which snprintf decides (1 + 2^-17 = 1.00000762939453125 rounds
# down to even, 1 + 3 * 2^-17 up), both sides of each switch to the exponent
# form, doubles below a power of ten whose 17 digits round up to it (1e-14
# and 1e98 are such), signed zeros, the subnormal and normal extremes, and
# path-like values; beside them, ints of up to 15 digits, which the reader
# takes, as '%d'
_CHECK_FLOATS = (1 + 2.0 ** -17, 1 + 3 * 2.0 ** -17, 1e-5, 1e-4, 9.9999999999999991e-5, 1e16,
                 1e17, 9.999999999999999e16, 1e-14, 1e98, 0.1, 0.2, 0.3, -0.0, 0.0, 5e-324,
                 -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                 -1.7976931348623157e308, 123456.789, -0.41552999999999998, 2000.0, 1e23)
_CHECK_INTS = (0.0, -0.0, 1.0, -1.0, 1e15 - 1, 1 - 1e15, 1e14, 999.0)


def _check_codec(kernel: "LaneKernel") -> None:
    """Write the check values in the kernel and with '%', then read the
    kernel's text back: the same bytes, then the same bits; and 2^53 - 1
    written as '%d', 2^53 refused.  Else RuntimeError."""
    rows = np.array([(v, _CHECK_INTS[i % len(_CHECK_INTS)])
                     for i, v in enumerate(_CHECK_FLOATS)])
    text = kernel.format_rows(rows, ("%.17g", "%d"))
    want = ("%.17g,%d\n" * len(rows)) % tuple(rows.ravel().tolist())
    back = kernel.parse_rows(text or "", (float, int))
    if (text != want or back is None or back[0].tobytes() != rows[:, 0].tobytes()
            or back[1].tolist() != rows[:, 1].astype(np.int64).tolist()
            or kernel.format_rows(np.array([[2.0 ** 53 - 1]]), ("%d",)) != "9007199254740991\n"
            or kernel.format_rows(np.array([[2.0 ** 53]]), ("%d",)) is not None):
        raise RuntimeError("the lane kernel's CSV codec differs from Python's '%.17g', "
                           "'%d', float() and int()")


# The values load() takes through log Phi both ways: a grid over both tails
# and the middle, both sides of each switch between formulas (-1 and -37.5),
# where the upper tail underflows to subnormals and to zero, the signed
# zeros, the extremes and the infinities
_CHECK_LOG_NDTR = (*np.linspace(-60.0, 40.0, 401).tolist(), -1.0, -1.0000000000000002,
                   -37.5, -37.50000000000001, 37.6, 38.2, 38.6, 0.0, -0.0, 5e-324,
                   -1e200, -1.7976931348623157e308, 1.7976931348623157e308, -np.inf, np.inf)


def _check_log_ndtr(kernel: "LaneKernel") -> None:
    """Take the check values through log Phi in the kernel and in Python:
    the same bits, or RuntimeError."""
    got = kernel.log_ndtr(np.array(_CHECK_LOG_NDTR)).tobytes()
    if got != np.array([log_ndtr_scalar(z) for z in _CHECK_LOG_NDTR]).tobytes():
        raise RuntimeError("the lane kernel's log Phi differs from Python's; do its erfc, "
                           "log1p and log come from another C library?")


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
            except (OSError, RuntimeError, AttributeError):
                # no compiler, no home directory, cache or numpy archive, a
                # failed build or a library without the kernel: the numpy
                # pipeline runs
                _loaded.append(None)
        return _loaded[0]


# the writer's and reader's cell kinds (kernel.c's CELL_FLOAT and CELL_INT),
# and the most bytes a written cell takes, its separator included
_CELL_KINDS = {"%.17g": 0, "%d": 1}
_READ_KINDS = {float: 0, int: 1}
_CELL_BYTES = 26

# PathSums arrays the kernel updates in place, in the order it takes them
_SUMS_ARRAYS = ("y_start", "y_end", "x_end", "sums", "mean", "m2")


class LaneKernel:
    """The opened kernel: a call takes one lane group through its whole path
    of given draws, for ``simulate_y``, and :meth:`draw` through normals it
    draws from streams it seeds itself, for ``advance_lanes``."""

    def __init__(self, fn, tables: np.ndarray, format_fn, parse_fn, pow10: np.ndarray,
                 log_ndtr_fn):
        self.fn = fn
        # numpy's ziggurat tables, (3, 256) uint64, which each drawing call reads
        self.tables = tables
        self.format_fn = format_fn
        self.parse_fn = parse_fn
        # the powers of ten that format_rows passes to the writer
        self.pow10 = pow10
        self.log_ndtr_fn = log_ndtr_fn

    def log_ndtr(self, z) -> np.ndarray:
        """log Phi of each value of ``z``, a float64 array of its shape: the
        bits of :func:`~hestonlab.simulate.log_ndtr_scalar`."""
        out = np.empty(np.shape(z))
        # the kernel reads it through a bare pointer
        z = np.ascontiguousarray(z, dtype=float)
        self.log_ndtr_fn(z.size, z.ctypes.data, out.ctypes.data)
        return out

    def format_rows(self, rows, cells) -> str | None:
        """The CSV lines of ``rows``, a float64 (rows, cols) array, each
        cell as its column's %-format in ``cells``, '%.17g' or '%d', writes
        it: the bytes of ``(line * len(rows)) % tuple(rows.ravel())`` for
        ``line`` the cells joined by ',' and ended by a newline.

        None where the kernel does not write them: another format or array,
        a value that is not finite, or a '%d' value that is not an integer
        of magnitude below 2^53.
        """
        kinds = [_CELL_KINDS.get(cell) for cell in cells]
        if not (isinstance(rows, np.ndarray) and rows.dtype == np.float64 and rows.ndim == 2
                and rows.shape[1] == len(kinds) > 0 and None not in kinds):
            return None
        rows = np.ascontiguousarray(rows)
        kinds = np.array(kinds, dtype=np.int64)
        out = np.empty(rows.size * _CELL_BYTES, dtype=np.uint8)
        n = self.format_fn(rows.ctypes.data, *rows.shape, kinds.ctypes.data,
                           self.pow10.ctypes.data, out.ctypes.data)
        return None if n < 0 else out[:n].tobytes().decode("ascii")

    def parse_rows(self, text: str, kinds) -> list[np.ndarray] | None:
        """One column per kind, ``int`` or ``float``, of CSV lines, each
        cell read as the kind reads it: float64 and int64 arrays.

        None where the kernel does not read them: another kind, no line, a
        character that is not ASCII, or text outside the strict grammar of
        ``hl_parse_rows`` (lines of ``len(kinds)`` cells split by ',', each
        line ended by a newline, the last optionally; a float cell
        ``-?[0-9]+(\\.[0-9]+)?([eE][+-]?[0-9]+)?``, an int cell
        ``-?[0-9]{1,15}``), for a reader of the whole language to take.
        """
        codes = [_READ_KINDS.get(kind) for kind in kinds]
        if not text or not codes or None in codes:
            return None
        try:
            data = text.encode("ascii")
        except UnicodeEncodeError:
            return None
        rows = data.count(b"\n") + (not data.endswith(b"\n"))
        out = np.empty((len(codes), rows))
        if self.parse_fn(data, len(data), rows, len(codes),
                         np.array(codes, dtype=np.int64).ctypes.data, out.ctypes.data):
            return None
        return [column if kind is float else column.astype(np.int64)
                for kind, column in zip(kinds, out)]

    def __call__(self, params: ModelParams, dt: float, scheme: Scheme, eta: np.ndarray,
                 zeta: np.ndarray, paths=None):
        """Take a lane group from (y0, x0) through the given draws, one row
        of each per lane, and fold its path into path sums; ``paths``, a (y,
        x) tuple of writable C-ordered float64 (lanes, steps + 1) arrays,
        receives each lane's points, (y0, x0) first, while it is live.

        Returns what :func:`~hestonlab.simulate.advance_lanes` does: each
        lane's DESRE abort step, from 1 (0 for none), and the
        :class:`~hestonlab.estimate.PathSums` of the lanes that did not
        abort, which hold what ``PathSums.fold`` of each tile of the priced
        path gives them.

        Raises:
            FellerViolated / InvalidGrid: as :func:`~hestonlab.simulate.step_constants`.
            ValueError: eta and zeta are not both (lanes, steps), or bad ``paths``.
        """
        # the kernel reads these through bare pointers
        eta, zeta = (np.ascontiguousarray(a, dtype=float) for a in (eta, zeta))
        if eta.ndim != 2 or zeta.shape != eta.shape:
            raise ValueError(f"eta and zeta must both be (lanes, steps), got {eta.shape} "
                             f"and {zeta.shape}")
        return self._advance(params, dt, scheme, *eta.shape, None, None, eta.ctypes.data,
                             zeta.ctypes.data, paths)

    def draw(self, params: ModelParams, dt: float, scheme: Scheme, streams: np.ndarray,
             steps: int, paths=None):
        """As a call, but the kernel draws the noise: lane i's first
        ``steps`` normals of each of its (eta, zeta) streams, those
        :func:`~hestonlab.simulate.draw_normals` gives from the generators
        of the same seeds.  ``streams``, a writable C-ordered (lanes, 2, 4)
        uint64 array of their seed words from
        :func:`~hestonlab.simulate.lane_seeds`, receives their last states:
        where ``draw_normals`` leaves the generators, or unfinished for a
        lane that aborts.
        """
        if isinstance(steps, bool) or not (isinstance(steps, numbers.Integral) and steps >= 0):
            raise ValueError(f"steps must be an integer >= 0, got {steps!r}")
        if not (isinstance(streams, np.ndarray) and streams.dtype == np.uint64
                and streams.ndim == 3 and streams.shape[1:] == (2, 4)
                and streams.flags.c_contiguous and streams.flags.writeable):
            raise ValueError("each lane needs one (eta, zeta) pair of stream seed words: a "
                             "writable C-ordered (lanes, 2, 4) uint64 array")
        return self._advance(params, dt, scheme, len(streams), steps, streams.ctypes.data,
                             self.tables.ctypes.data, None, None, paths)

    def _advance(self, params, dt, scheme, lanes, steps, streams, tables, eta, zeta, paths):
        if paths is not None and not (isinstance(paths, tuple) and len(paths) == 2 and all(
                isinstance(a, np.ndarray) and a.dtype == np.float64 and a.flags.writeable
                and a.flags.c_contiguous and a.shape == (lanes, steps + 1) for a in paths)):
            raise ValueError("paths must be a (y, x) tuple of writable C-ordered float64 "
                             "(lanes, steps + 1) arrays")
        k, p = step_constants(scheme, params, dt)
        # fresh, so C-ordered and writable, as the kernel needs
        sums = PathSums(np.full(lanes, params.y0), np.full(lanes, params.x0))
        aborted = np.zeros(lanes, dtype=np.int64)
        self.fn(_SCHEME_CODES[scheme], k.ctypes.data, p.ctypes.data, lanes, steps, streams,
                tables, eta, zeta, *(getattr(sums, name).ctypes.data for name in _SUMS_ARRAYS),
                aborted.ctypes.data, *([a.ctypes.data for a in paths] if paths else (None, None)))
        sums.steps = steps
        sums.select(aborted == 0)
        return aborted, sums
