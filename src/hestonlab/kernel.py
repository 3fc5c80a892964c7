"""The compiled lane kernel of Monte Carlo runs and single paths, and its loader.

``kernel.c``, next to this file, takes a freshly seeded lane group from
(y0, x0) through its whole path in one C call: the variance recursion of
any scheme, the log-price recursion and the fold of each summation tile
into the group's :class:`~hestonlab.estimate.PathSums`, with the constants
of :func:`~hestonlab.simulate.step_constants`, ``GROUP`` lanes at a time,
whose steps and fold run side by side in vectors.
:meth:`LaneKernel.seed` hashes each lane's stream seeds as numpy's
``SeedSequence`` does, and :meth:`LaneKernel.draw` seeds each lane's pair
of PCG64 streams from those words and draws the normals itself, a tile at
a time, through numpy's ziggurat, inlined, on AVX-512 CPUs eight streams a
vector (:attr:`LaneKernel.wide_draws`): so no block of draws and no
numpy ``Generator`` is ever held, and
:func:`~hestonlab.simulate.advance_lanes` takes a lane group through its
path in one drawing call, which writes its points as well for single
paths.  A call of :class:`LaneKernel` itself reads given draws instead, for
:func:`~hestonlab.simulate.simulate_y` and :func:`load`'s check.  Both give
the bits of the numpy pipeline (:func:`~hestonlab.simulate.lane_generators`,
:func:`~hestonlab.simulate.draw_normals`,
:func:`~hestonlab.simulate.advance_variance`,
:func:`~hestonlab.simulate.price_block` and ``PathSums.fold`` a tile at a
time), which runs instead where the kernel does not load.  The kernel runs
without the interpreter lock, since ``ctypes`` releases the lock for the
call, so worker threads advance their groups in parallel.  And
:meth:`LaneKernel.fold` folds one given path into a fresh
:class:`~hestonlab.estimate.PathSums` through the same tile fold, in one call,
with the bits of ``PathSums.fold``, for
:func:`~hestonlab.estimate.path_functionals` (by
:func:`~hestonlab.simulate.fold_path`).

The library also holds the fast route of the CSV codec of
:func:`~hestonlab.simulate.write_csv` and
:func:`~hestonlab.simulate.parse_csv`: :meth:`LaneKernel.format_columns`
writes '%.17g' and '%d' cells, byte for byte as Python's % does, from
separate columns and after a header into one buffer that a file takes as it
is, and :meth:`LaneKernel.parse_rows` reads lines of the strict form that
writer makes, as ``float()`` and ``int()`` do, from a str or from the bytes
of a file where they lie, in one pass; or each returns None for the Python
codec to take the call.  Both multiply by powers of ten of 128 bits, which
:func:`load` computes with exact integers (``_pow10_table``) and passes to
each call.
And :meth:`LaneKernel.log_ndtr` gives the bits of
:func:`~hestonlab.simulate.log_ndtr_scalar`, the normality test's log Phi,
for :func:`~hestonlab.simulate.log_ndtr`.

The ziggurat's three tables are numpy's own: :func:`load` reads them from
numpy's ``libnpyrandom.a`` (``NPYRANDOM``), the static library of its
samplers, where they are local symbols of one member (``_TABLE_MEMBER``),
with a small reader of ``ar`` archives and ELF64 objects, and passes them to
each call.  After opening the kernel it folds one short path both ways, in
the kernel and by ``PathSums.fold``, and refuses a kernel whose sums
differ; it seeds and draws a whole lane group and a short one both ways,
in the kernel and by ``lane_generators`` and ``draw_normals``, through
whichever draw path the CPU takes, and refuses a kernel whose bits or
stream states differ, its seeds among them;
then it writes a fixed set of values through the codec and with %, reads
them back, and reads a set of hard cells (``_CHECK_READS``) in the kernel
and with ``float()``, and refuses a kernel whose bytes or bits differ; last
it takes a grid over both tails through log Phi in the kernel and in
Python, and refuses a kernel whose bits differ.

The kernel is built the first time a run, a path, the CSV codec or log Phi
asks for it, never at import, with the system C compiler (``cc``) and the
flags in ``FLAGS``, into a per-user cache (``~/.cache/hestonlab``), under a
name made from the sha256 of the source, the compiler command and the
platform: the compile reads ``kernel.c`` alone, so a numpy upgrade reuses
the build, with the new numpy's tables, which the draw check holds.  It is
compiled to a temporary name and renamed into place, so concurrent builds
do not clash, and later runs load the cached file.  Where no compiler,
archive, tables or cache work, or a check fails, :func:`lane_kernel`
returns None, without a warning, and runs take the numpy pipeline, the
Python codec and the Python log Phi, with the same results.  :func:`load`
raises instead, so a broken build can be seen.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import struct
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from .errors import INT64_MAX, InvalidSeed, require_int, require_ints
from .estimate import PathSums
from .model import ModelParams
from .simulate import Scheme, draw_normals, lane_generators, log_ndtr_scalar, step_constants

__all__ = ["SOURCE", "NPYRANDOM", "COMPILER", "FLAGS", "GROUP", "CACHE_DIR", "load",
           "lane_kernel", "LaneKernel"]

SOURCE = Path(__file__).with_name("kernel.c")
# numpy's static library of its samplers, which numpy installs for C code
# that draws as its Generator does
NPYRANDOM = Path(np.random.__file__).with_name("lib") / "libnpyrandom.a"
COMPILER = "cc"
# no fused multiply-add and no value-changing optimization: the kernel must
# give numpy's bits; no errno for sqrt to set, which changes no bit and lets
# -O3 take square roots in vectors; no -march, so a cached build runs on any
# CPU of the platform: on x86-64 its steps run in SSE2 vectors, which every
# one has, and its draws and fold in AVX-512 ones only where the CPU has
# them, which the kernel asks at run time (LaneKernel.wide_draws)
FLAGS = ("-O3", "-std=c99", "-fno-fast-math", "-fno-math-errno", "-ffp-contract=off", "-fPIC",
         "-shared")
# the lanes kernel.c takes side by side, its GROUP
GROUP = 8
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


def _build(command: list[str]) -> Path:
    """The cached shared library of ``kernel.c``, compiled first if it is not
    there, which then unlinks the other builds unchanged for over a week."""
    # the platform's fields, not platform.platform(), which runs `uname -p`
    # in a new process
    system = (platform.system(), platform.release(), platform.machine(), *platform.libc_ver())
    key = hashlib.sha256(b"\0".join(
        [SOURCE.read_bytes(), " ".join(command).encode(),
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
        RuntimeError: the kernel's fold of a path differs from
            ``PathSums.fold``, its seeds, draws or stream states from
            numpy's, or its CSV codec or log Phi from Python's.
    """
    import ctypes

    compiler = shutil.which(COMPILER)
    if compiler is None:
        raise FileNotFoundError(f"no C compiler {COMPILER!r} on the PATH")
    tables = _ziggurat_tables(NPYRANDOM.read_bytes())
    kernel = LaneKernel(ctypes.CDLL(str(_build([compiler, *FLAGS]))), tables, _pow10_table())
    _check_fold(kernel)
    _check_draws(kernel)
    _check_codec(kernel)
    _check_log_ndtr(kernel)
    return kernel


# The path load() folds both ways: 8 whole tiles and a partial one, a walk
# whose tile means differ, so that each merge of the spread counts
_CHECK_FOLD_STEPS = 8 * 128 + 5


def _check_fold(kernel: "LaneKernel") -> None:
    """Fold the check path in the kernel and by PathSums.fold: the same
    sums, spread and end point, or RuntimeError."""
    walk = np.cumsum(np.random.default_rng(_CHECK_SEED).standard_normal((2, _CHECK_FOLD_STEPS + 1)),
                     axis=1)
    y, x = 0.4 + 0.01 * walk[0], 0.1 * walk[1]
    folded = PathSums(y[:1], x[:1]), PathSums(y[:1], x[:1])
    kernel.fold(folded[0], y, x)
    folded[1].fold(y[None, :], x[None, :])
    results = [[getattr(sums, name).tobytes() for name in _SUMS_ARRAYS] + [sums.steps]
               for sums in folded]
    if results[0] != results[1]:
        raise RuntimeError("the lane kernel's fold of a path differs from PathSums.fold")


# The lanes load() draws both ways: a whole group and a short one of 2048
# DISRE steps, whose 36864 normals include both of the ziggurat's rare
# paths, the wedge test (about 1.5% of normals) and the tail (11 of them at
# this seed); on a CPU that takes the wide draws, the whole group draws in
# AVX-512 vectors and the short one a stream at a time
_CHECK_SEED, _CHECK_LANES, _CHECK_STEPS = 2, GROUP + 1, 2048
_CHECK_PARAMS = ModelParams(a=0.4, b=1.0, alpha=0.1, beta=0.15, sigma1=0.4, sigma2=0.3,
                            rho=0.2, y0=0.4, x0=0.0)


def _check_draws(kernel: "LaneKernel") -> None:
    """Seed and draw the check group in the kernel and by lane_generators and
    draw_normals: the same path sums and stream states, or RuntimeError."""
    params, dt, scheme = _CHECK_PARAMS, 0.01, Scheme.DISRE
    streams = kernel.seed(_CHECK_SEED, range(_CHECK_LANES))
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
        raise RuntimeError("the lane kernel's seeds or draws differ from numpy's; "
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

# The cells load() reads in the kernel and with float(), which take every
# way of the reader: zeros; Clinger's exact path, up to 2^53 - 1 and
# 10^+-22; Eisel-Lemire past them (2^53, 10^-23, 10^-300, the largest
# double), rounding down, up, and up into the next power of two; 19 digits
# there, and 20 or more for strtod; exact ties (10^23, 2^53 + 1, 2^52 + 1/2,
# 2^63 + 1024), which it leaves to strtod, and cells a unit beside them; and
# cells past the table or the normal doubles, which strtod reads: the first
# past the largest double, the smallest normal and the doubles just below
# it, subnormals, underflow and overflow
_CHECK_READS = (
    "0", "-0", "0.000e-5", "0e999",
    "9007199254740991", "-9007199254740991", "1e22", "1e-22", "4.35e-22",
    "9007199254740992", "1e23", "1e-23", "0.10000000000000001", "-0.41552999999999998",
    "9.9999999999999999e22", "1.2345678901234567e-300", "9007199254740991.9",
    "-9007199254740991.5", "1234567890123456789", "9999999999999999999",
    "12345678901234567890", "1.00000000000000011102230246251565404236316680908203125",
    "9007199254740993", "-9007199254740993", "9007199254740995", "9007199254740994",
    "4503599627370496.5", "4503599627370497.5", "4503599627370496.4999",
    "9223372036854776832", "9223372036854776833",
    "1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
    "2.2250738585072014e-308", "2.2250738585072011e-308", "2.2250738585072012e-308",
    "4.9406564584124654e-324", "2.4703282292062328e-324", "1e-400", "1e400", "-1e400",
    "1e-300", "1e345")


def _check_codec(kernel: "LaneKernel") -> None:
    """Write the check values in the kernel and with '%', then read the
    kernel's text back: the same bytes, then the same bits; and 2^53 - 1
    written as '%d', 2^53 refused; and read the check cells with the bits
    of float().  Else RuntimeError."""
    rows = np.array([(v, _CHECK_INTS[i % len(_CHECK_INTS)])
                     for i, v in enumerate(_CHECK_FLOATS)])
    text = kernel.format_columns(list(rows.T), ("%.17g", "%d"))
    want = ("%.17g,%d\n" * len(rows)) % tuple(rows.ravel().tolist())
    back = kernel.parse_rows(bytes(text or b""), (float, int))
    read = kernel.parse_rows("\n".join(_CHECK_READS), (float,))
    if (text != want.encode() or back is None or back[0].tobytes() != rows[:, 0].tobytes()
            or back[1].tolist() != rows[:, 1].astype(np.int64).tolist()
            or kernel.format_columns([np.array([2.0 ** 53 - 1])], ("%d",)) != b"9007199254740991\n"
            or kernel.format_columns([np.array([2.0 ** 53])], ("%d",)) is not None
            or read is None or read[0].tobytes() != np.array(
                [float(cell) for cell in _CHECK_READS]).tobytes()):
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


def _words(values: list[int]) -> np.ndarray:
    """Integers >= 0 as rows of their 32-bit words, least significant first,
    zero-padded to the widest: (len(values), width) uint32."""
    width = max([1] + [(v.bit_length() + 31) // 32 for v in values])
    data = b"".join(v.to_bytes(4 * width, "little") for v in values)
    return np.frombuffer(data, dtype="<u4").reshape(len(values), width)


class LaneKernel:
    """The opened kernel: a call takes one lane group through its whole path
    of given draws, for ``simulate_y``, and :meth:`draw` through normals it
    draws from streams it seeds itself, for ``advance_lanes``."""

    def __init__(self, lib, tables: np.ndarray, pow10: np.ndarray):
        import ctypes  # loaded with the kernel

        p, i = ctypes.c_void_p, ctypes.c_int64

        def entry(name, restype, *argtypes):
            # ctypes passes each argument as its argtype declares it
            fn = getattr(lib, name)
            fn.restype, fn.argtypes = restype, argtypes
            return fn

        self.fn = entry("hl_lane_block", None, i, p, p, i, i, *[p] * 13)
        self.fold_fn = entry("hl_fold_path", None, p, p, i, ctypes.c_double, p, p, p)
        self.format_fn = entry("hl_format_rows", i, p, i, i, p, p, p)
        # the text's address: within a bytes object, whose buffer a NUL ends
        self.parse_fn = entry("hl_parse_rows", i, p, i, i, i, p, p, p)
        self.log_ndtr_fn = entry("hl_log_ndtr", None, i, p, p)
        self.seed_fn = entry("hl_seed", None, p, i, p, i, i, p)
        self.wide_fn = entry("hl_wide_draws", i)
        # numpy's ziggurat tables, (3, 256) uint64, which each drawing call reads
        self.tables = tables
        # the powers of ten that format_columns and parse_rows pass to the codec
        self.pow10 = pow10

    @property
    def wide_draws(self) -> bool:
        """Whether this CPU takes the kernel's AVX-512 draws and fold of
        whole lane groups, which give the bits of its portable code."""
        return bool(self.wide_fn())

    def seed(self, master_seed: int, index) -> np.ndarray:
        """The seed words of each lane's (eta, zeta) streams, for
        :meth:`draw`: (lanes, 2, 4) uint64, row i holding for tag t (0 for
        eta, 1 for zeta) ``SeedSequence(master_seed, spawn_key=(index[i],
        t)).generate_state(4, np.uint64)``, in one call of ``hl_seed``.
        ``index``, the lanes' replicate indices of any size, is a ``range``
        or a 1-d integer array, checked in one pass, or any iterable.  Its
        words go to the kernel little-endian, the one byte order it loads
        on (:func:`load` reads its tables from little-endian ELF objects).

        Raises:
            InvalidSeed: as :func:`~hestonlab.simulate.lane_generators`.
        """
        seed = _words([require_int(master_seed, "master_seed", InvalidSeed)])
        if isinstance(index, range) and index.step > 0 and 0 <= index.start <= index.stop \
                <= INT64_MAX:
            index = np.arange(index.start, index.stop, index.step)
        if isinstance(index, np.ndarray) and index.ndim == 1 and index.dtype.kind in "iu" \
                and not (index < 0).any():
            words = index.astype("<u8").view("<u4").reshape(len(index), 2)
        else:
            words = _words(require_ints(index, "replicates", "replicate", InvalidSeed))
        out = np.empty((len(words), 2, 4), dtype=np.uint64)
        self.seed_fn(seed.ctypes.data, seed.shape[1], words.ctypes.data, words.shape[1],
                     len(words), out.ctypes.data)
        return out

    def fold(self, sums: PathSums, y: np.ndarray, x: np.ndarray) -> None:
        """``sums.fold(y[None, :], x[None, :])`` for a fresh one-lane
        ``sums`` and a path's (steps + 1,) points, y and x: the same bits, in
        one call of ``hl_fold_path``.

        Raises:
            ValueError: ``sums`` is not fresh or not of one lane, or y and x
                are not of one length of at least two points.
        """
        # the kernel reads them through bare pointers
        y, x = (np.ascontiguousarray(a, dtype=float) for a in (y, x))
        if sums.steps or sums.sums.shape != (6, 1) or y.ndim != 1 or x.shape != y.shape \
                or len(y) < 2:
            raise ValueError("the kernel folds one whole path of (steps + 1,) points y and x "
                             "into a fresh one-lane PathSums")
        self.fold_fn(y.ctypes.data, x.ctypes.data, len(y) - 1, float(sums.y_start[0]),
                     sums.sums.ctypes.data, sums.mean.ctypes.data, sums.m2.ctypes.data)
        sums.steps = len(y) - 1
        sums.y_end, sums.x_end = y[-1:].copy(), x[-1:].copy()

    def log_ndtr(self, z) -> np.ndarray:
        """log Phi of each value of ``z``, a float64 array of its shape: the
        bits of :func:`~hestonlab.simulate.log_ndtr_scalar`."""
        out = np.empty(np.shape(z))
        # the kernel reads it through a bare pointer
        z = np.ascontiguousarray(z, dtype=float)
        self.log_ndtr_fn(z.size, z.ctypes.data, out.ctypes.data)
        return out

    def format_columns(self, columns, cells, head: bytes = b"") -> memoryview | None:
        """``head``, then the CSV lines of the rows that ``columns``, 1-d
        float64 arrays of one length, make side by side, each cell as its
        column's %-format in ``cells``, '%.17g' or '%d', writes it: the bytes
        of ``(line * rows) % values``, for ``line`` the cells joined by ','
        and ended by a newline and ``values`` the rows' cells in order, in
        one buffer, for a file to take as it is.

        None where the kernel does not write them: another format or array,
        a value that is not finite, or a '%d' value that is not an integer
        of magnitude below 2^53.
        """
        if not (columns and all(isinstance(c, np.ndarray) and c.dtype == np.float64
                                and c.ndim == 1 and len(c) == len(columns[0]) for c in columns)):
            return None
        kinds = np.array([_CELL_KINDS.get(cell, -1) for cell in cells], dtype=np.int64)
        if len(kinds) != len(columns) or (kinds < 0).any():
            return None
        # the kernel reads each column from its first cell, one after another
        columns = [np.ascontiguousarray(c) for c in columns]
        starts = np.array([c.ctypes.data for c in columns], dtype=np.uint64)
        rows = len(columns[0])
        out = np.empty(len(head) + rows * len(kinds) * _CELL_BYTES, dtype=np.uint8)
        out[: len(head)] = np.frombuffer(head, dtype=np.uint8)
        n = self.format_fn(starts.ctypes.data, rows, len(kinds), kinds.ctypes.data,
                           self.pow10.ctypes.data, out.ctypes.data + len(head))
        return None if n < 0 else memoryview(out)[: len(head) + n]

    def parse_rows(self, text: str | bytes, kinds, start: int = 0) -> list[np.ndarray] | None:
        """One column per kind, ``int`` or ``float``, of the CSV lines of
        ``text``, a str or the bytes of a file, from index ``start`` on, each
        cell read as the kind reads it: float64 and int64 arrays.  A float
        cell gets the bits ``float()`` gives it: most through the writer's
        powers of ten (``hl_parse_rows``), the rest through ``strtod``.

        None where the kernel does not read them: another kind, no line, a
        character that is not ASCII, or text outside the strict grammar of
        ``hl_parse_rows`` (lines of ``len(kinds)`` cells split by ',', each
        line ended by a newline, the last optionally; a float cell
        ``-?[0-9]+(\\.[0-9]+)?([eE][+-]?[0-9]+)?``, an int cell
        ``-?[0-9]{1,15}``), for a reader of the whole language to take.
        """
        import ctypes  # loaded with the kernel

        codes = np.array([_READ_KINDS.get(kind, -1) for kind in kinds], dtype=np.int64)
        if isinstance(text, str):
            try:
                text = text.encode("ascii")
            except UnicodeEncodeError:
                return None
        size = len(text) - start
        if size <= 0 or not len(codes) or (codes < 0).any():
            return None
        # bytes are not copied: the kernel reads them where they are
        address = ctypes.cast(ctypes.c_char_p(text), ctypes.c_void_p).value + start
        # a line takes at least two bytes a cell, its separators included,
        # the last line one byte less where no newline ends it.  The rows
        # fill the buffer from its start, so only the pages they fill are
        # touched; numpy backs a buffer of 4 MB or more with huge pages, and
        # column-major, each column's first rows would take one of its own
        capacity = (size + 1) // (2 * len(codes))
        out = np.empty((capacity, len(codes)))
        rows = self.parse_fn(address, size, capacity, len(codes), codes.ctypes.data,
                             self.pow10.ctypes.data, out.ctypes.data)
        if rows < 0:
            return None
        return [column if kind is float else column.astype(np.int64)
                for kind, column in zip(kinds, np.ascontiguousarray(out[:rows].T))]

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
        uint64 array of their seed words from :meth:`seed`, receives their
        last states: where ``draw_normals`` leaves the generators, or
        unfinished for a lane that aborts.

        Raises:
            ValueError: as a call, bad ``streams``, or ``steps`` over ``INT64_MAX``.
        """
        if not (isinstance(streams, np.ndarray) and streams.dtype == np.uint64
                and streams.ndim == 3 and streams.shape[1:] == (2, 4)
                and streams.flags.c_contiguous and streams.flags.writeable):
            raise ValueError("each lane needs one (eta, zeta) pair of stream seed words: a "
                             "writable C-ordered (lanes, 2, 4) uint64 array")
        return self._advance(params, dt, scheme, len(streams), steps, streams.ctypes.data,
                             self.tables.ctypes.data, None, None, paths)

    def _advance(self, params, dt, scheme, lanes, steps, streams, tables, eta, zeta, paths):
        # the kernel takes both as int64s
        lanes = require_int(lanes, "lanes", ValueError, maximum=INT64_MAX)
        steps = require_int(steps, "steps", ValueError, maximum=INT64_MAX)
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
