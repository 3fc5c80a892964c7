"""The CSV codec's two routes: the lane kernel's writer and reader against
Python's '%.17g', '%d', float() and int(), which stay as the fallback and
as the reference here."""

import copy
import ctypes
import hashlib
import io
import math
import re
import subprocess
from fractions import Fraction

import numpy as np
import pytest

import hestonlab.kernel as kernel
from hestonlab.cli import main
from hestonlab.simulate import parse_csv, write_csv


@pytest.fixture(scope="module")
def codec():
    """The kernel; skipped where it does not build."""
    k = kernel.lane_kernel()
    if k is None:
        try:
            k = kernel.load()
        except (OSError, subprocess.SubprocessError) as e:
            pytest.skip(f"the lane kernel does not build here: {e}")
    return k


@pytest.fixture
def python_codec(monkeypatch):
    """Run a callable with the kernel forced off: the Python codec."""
    def run(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(kernel, "lane_kernel", lambda: None)
            return fn(*args)
    return run


def outcome(fn, *args):
    """What a call returns, or the type and text of its error."""
    try:
        return fn(*args)
    except ValueError as e:
        return type(e), str(e)


def written(codec, rows, cells):
    """The codec's CSV lines of the table ``rows``, a (rows, cols) array, as
    a str, or None: its columns through ``format_columns``, as a file's go."""
    data = codec.format_columns(list(rows.T), cells)
    return None if data is None else str(data, "ascii")


def python_lines(values, cells):
    line = ",".join(cells) + "\n"
    return (line * len(values)) % tuple(values.ravel().tolist())


def families(n):
    """n finite doubles of each of four families: path-like walks, 1e-7
    grids, ldexp over exponents -1100..1000 and random bit patterns, which
    include both signs, subnormals and the extremes."""
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2 ** 64, 2 * n, dtype=np.uint64, endpoint=False).view(np.float64)
    return np.column_stack([
        0.2 + np.cumsum(rng.standard_normal(n)) * 0.003,
        np.arange(n) * 1e-7,
        np.ldexp(rng.random(n) + 0.5, rng.integers(-1100, 1001, n)) * rng.choice([-1, 1], n),
        bits[np.isfinite(bits)][:n],
    ])


def decimal_exponent(v: float) -> int:
    """floor(log10 |v|), exactly."""
    x = abs(Fraction(v))
    d = len(str(int(x))) - 1 if x >= 1 else -len(str(int(1 / x)))
    while Fraction(10) ** d > x:
        d -= 1
    while Fraction(10) ** (d + 1) <= x:
        d += 1
    return d


def seventeen_digit_fraction(v: float) -> Fraction:
    """The fraction of |v| * 10^(16 - d), which decides its 17th digit."""
    x = abs(Fraction(v)) * Fraction(10) ** (16 - decimal_exponent(v))
    return x - math.floor(x)


def exact_ties():
    """Doubles odd * 2^-j of exactly 18 significant digits, the last a 5:
    ties at 17 digits, which round to even."""
    rng = np.random.default_rng(3)
    ties = []
    for j in range(2, 26):
        lo, hi = -(-10 ** 17 // 5 ** j), min(10 ** 18 // 5 ** j, 2 ** 53)
        for odd in rng.integers(lo // 2, hi // 2, 12):
            v = math.ldexp(2 * int(odd) + 1, -j)
            ties += [v, -v]
    return np.array(ties)


def near_powers_of_ten():
    """Each double nearest 10^k and its two neighbours: both sides of the
    switch to the exponent form, and the doubles just below a power of ten
    whose 17 digits round up to it."""
    near = [float(f"1e{k}") for k in range(-323, 309)]
    return np.array([np.nextafter(v, toward) for v in near for toward in (0.0, v, np.inf)])


def test_the_writer_gives_the_bytes_of_percent_formatting(codec):
    values = np.concatenate([families(125_000).ravel(), exact_ties(), near_powers_of_ten(),
                             kernel._CHECK_FLOATS]).reshape(-1, 1)
    text = written(codec, values, ("%.17g",))
    assert text == python_lines(values, ("%.17g",))
    # and the reader gives back their bits
    assert codec.parse_rows(text, (float,))[0].tobytes() == values.tobytes()


def test_the_test_values_reach_every_branch_of_the_writer():
    """Ties, which the fast path leaves to snprintf, 17 nines that round up
    to a power of ten, and exponents of 16 and 17, -4 and -5."""
    ties = exact_ties()
    assert len(ties) > 200
    assert all(seventeen_digit_fraction(v) == Fraction(1, 2) for v in ties[:40])
    near = near_powers_of_ten()
    # below 10^k, but 17 digits of it round up to 1e+k
    carries = [v for v in near if ("%.17g" % v).startswith("1e")
               and decimal_exponent(v) < int(("%.17g" % v)[2:])]
    assert carries
    assert {-5, -4, 16, 17} <= {decimal_exponent(v) for v in near}


def moved_tables(codec):
    """The codec with every mantissa of its table one unit lower, then one
    unit higher: an error in 10^q near 2^-127 of it."""
    table = codec.pow10
    mantissas = (table[:, 0].astype(object) << 64) | table[:, 1].astype(object)
    for step in (-1, 1):
        moved = [int(m) + step for m in mantissas]
        shifted = copy.copy(codec)
        shifted.pow10 = np.column_stack([
            np.array([m >> 64 for m in moved], dtype=np.uint64),
            np.array([m & (2 ** 64 - 1) for m in moved], dtype=np.uint64), table[:, 2]])
        yield shifted


def test_the_fast_path_decides_no_cell_the_tables_error_could_tip(codec):
    """With every mantissa of the table one unit off, the writer gives the
    same bytes: a tie is left to snprintf, not rounded from an inexact
    product."""
    values = np.concatenate([exact_ties(), near_powers_of_ten(), kernel._CHECK_FLOATS,
                             families(2_000).ravel()]).reshape(-1, 1)
    want = python_lines(values, ("%.17g",))
    for shifted in moved_tables(codec):
        assert written(shifted, values, ("%.17g",)) == want


# the units next to one half in which kernel.c's eisel_lemire leaves a
# product to strtod (READ_WINDOW)
READ_WINDOW = 3


def reader_way(cell: str, table):
    """The way kernel.c's read_float takes a float cell, worked on exact
    integers from the same table, and the double it gives: "zero",
    "clinger" (exact doubles), or Eisel-Lemire's "down", "up" or "carry"
    (up into the next power of two); or, with None, why strtod reads it:
    "digits" (over 19), "range" (10^q outside the table), "window" (a tie
    or a near one) or "not normal"."""
    whole, frac, exp = re.fullmatch(r"-?(\d+)(?:\.(\d+))?(?:[eE]([+-]?\d+))?", cell).groups()
    frac = frac or ""
    digits = (whole + frac).lstrip("0")
    w, q = int(digits or "0"), int(exp or 0) - len(frac)
    sign = -1.0 if cell.startswith("-") else 1.0
    if len(digits) > 19:
        return "digits", None
    if w == 0:
        return "zero", sign * 0.0
    if w < 2 ** 53 and -22 <= q <= 22:
        return "clinger", sign * (w * 10.0 ** q if q >= 0 else w / 10.0 ** -q)
    if not kernel._POW10_MIN <= q <= kernel._POW10_MAX:
        return "range", None
    high, low, e = (int(v) for v in table[q - kernel._POW10_MIN])
    shift = 64 - w.bit_length()
    top = ((w << shift) * ((high << 64) | low)) >> 64
    bits = top.bit_length() - 53
    mantissa, f = top >> bits, top & ((1 << bits) - 1)
    half, e = 1 << (bits - 1), bits + 64 + (e - 2 ** 64 if e >> 63 else e) - shift
    way = "down"
    if f + READ_WINDOW > half:
        if f < half + READ_WINDOW:
            return "window", None
        mantissa, way = mantissa + 1, "up"
        if mantissa == 2 ** 53:
            mantissa, e, way = mantissa >> 1, e + 1, "carry"
    if not 1 <= e + 1075 <= 2046:
        return "not normal", None
    return way, sign * math.ldexp(mantissa, e)


def reading_ties():
    """Decimal cells of at most 19 digits that lie halfway between two
    doubles, of both signs: odd multiples of 2^(j - 1) beside doubles of
    53 bits times 2^j, for j = -3..10, which strtod rounds to even, each
    also written in the exponent form, and the cells a unit in the last
    digit beside them, which the fast path decides."""
    rng = np.random.default_rng(23)
    cells = []
    for j in range(-3, 11):
        for m in rng.integers(2 ** 52, 2 ** 53, 6).tolist():
            tie = Fraction(2 * m + 1) * Fraction(2) ** (j - 1)
            places = max(0, 1 - j)
            digits = str(int(tie * 10 ** places))
            for n in (int(digits), int(digits) - 1, int(digits) + 1):
                text = str(n)
                point = f"{text[:-places]}.{text[-places:]}" if places else text
                exponent = f"{text[0]}.{text[1:]}e{len(text) - 1 - places}"
                cells += [point, "-" + point, exponent]
    return cells


def test_the_reader_gives_float_bits_on_every_way_it_goes(codec):
    """load()'s check cells and the reading ties take each way of
    read_float, and every decided cell's double is float()'s, in the model
    and in the kernel."""
    cells = [*kernel._CHECK_READS, *reading_ties()]
    ways = [reader_way(cell, codec.pow10) for cell in cells]
    assert {way for way, _ in ways} == {"zero", "clinger", "down", "up", "carry", "digits",
                                        "range", "window", "not normal"}
    for cell, (way, value) in zip(cells, ways):
        assert value is None or math.copysign(1.0, value) == math.copysign(1.0, float(cell))
        assert value is None or value == float(cell), cell
    ties = [cell for cell, (way, _) in zip(cells, ways) if way == "window"]
    assert len(ties) > 200
    got = codec.parse_rows("\n".join(cells), (float,))[0]
    assert got.tobytes() == np.array([float(cell) for cell in cells]).tobytes()


def test_the_readers_capacity_holds_the_densest_lines(codec):
    """Lines of one-digit cells, the fewest bytes a line takes, fill the
    capacity that parse_rows gives the kernel, (bytes + 1) // (2 * cells a
    line), with or without the last newline; one line more than a
    capacity is refused, not written past it."""
    for kinds in ((float,), (int, float), (float, int, float)):
        line = ",".join("7" * len(kinds))
        for n in (1, 2, 3, 1000):
            for text in ("\n".join([line] * n), "\n".join([line] * n) + "\n"):
                got = codec.parse_rows(text, kinds)
                assert [c.tolist() for c in got] == [[7] * n] * len(kinds)
    data = b"7,7\n" * 5
    codes, out = np.zeros(2, dtype=np.int64), np.empty((5, 2))
    address = ctypes.cast(ctypes.c_char_p(data), ctypes.c_void_p).value
    for capacity, rows in ((5, 5), (4, -1)):
        assert codec.parse_fn(address, len(data), capacity, 2, codes.ctypes.data,
                              codec.pow10.ctypes.data, out.ctypes.data) == rows


def test_the_reader_decides_no_cell_the_tables_error_could_tip(codec):
    """With every mantissa of the table one unit off, the reader gives the
    bits of float() still, on the writer's test values in '%.17g' and
    shorter forms, the reading ties and load()'s check cells: a tie is left
    to strtod, not rounded from an inexact product."""
    values = np.concatenate([exact_ties(), near_powers_of_ten(), kernel._CHECK_FLOATS,
                             families(2_000).ravel()])
    cells = [fmt % v for fmt in ("%.17g", "%.16g", "%.15g", "%.12g")
             for v in values.tolist()] + reading_ties() + list(kernel._CHECK_READS)
    text = "\n".join(cells)
    want = np.array([float(cell) for cell in cells]).tobytes()
    for shifted in moved_tables(codec):
        assert shifted.parse_rows(text, (float,))[0].tobytes() == want


def test_a_reader_that_misreads_a_check_cell_fails_the_loaders_check(codec, monkeypatch):
    """Row -23 of the table off in a high bit, which no check value of the
    writer uses: the kernel reads 1e-23 as another double, load() refuses
    it, and runs take the Python codec."""
    table = kernel._pow10_table()
    table[-23 - kernel._POW10_MIN, 0] ^= np.uint64(1 << 60)
    broken = copy.copy(codec)
    broken.pow10 = table
    rows = np.array(kernel._CHECK_FLOATS).reshape(-1, 1)
    assert written(broken, rows, ("%.17g",)) == python_lines(rows, ("%.17g",))
    assert broken.parse_rows("1e-23", (float,))[0][0] != 1e-23
    monkeypatch.setattr(kernel, "_pow10_table", lambda: table)
    with pytest.raises(RuntimeError, match="CSV codec differs"):
        kernel.load()
    monkeypatch.setattr(kernel, "_loaded", [])
    assert kernel.lane_kernel() is None


def test_ints_round_trip(codec):
    rng = np.random.default_rng(4)
    ints = np.concatenate([rng.integers(-10 ** 15 + 1, 10 ** 15, 2000),
                           [0, 1, -1, 10 ** 15 - 1, -10 ** 15 + 1]]).astype(float)
    table = np.column_stack([ints, rng.standard_normal(len(ints))])
    text = written(codec, table, ("%d", "%.17g"))
    assert text == python_lines(table, ("%d", "%.17g"))
    index, floats = codec.parse_rows(text, (int, float))
    assert index.dtype == np.int64 and index.tolist() == ints.astype(np.int64).tolist()
    assert floats.tobytes() == table[:, 1].tobytes()
    assert written(codec, np.array([[-0.0, 2.0 ** 53 - 1]]), ("%d", "%d")) == \
        "0,9007199254740991\n"


@pytest.mark.parametrize("columns, cells", [
    ([np.array([1.5]), np.array([np.nan])], ("%.17g", "%.17g")),
    ([np.array([1.5]), np.array([-np.inf])], ("%.17g", "%.17g")),
    ([np.array([2.5]), np.array([1.0])], ("%d", "%.17g")),
    ([np.array([2.0 ** 53]), np.array([1.0])], ("%d", "%.17g")),
    ([np.array([np.nan]), np.array([1.0])], ("%d", "%.17g")),
    ([np.array([1.0]), np.array([2.0])], ("%.3f", "%.17g")),
    ([np.array(["mean"], dtype=object), np.array([0.25], dtype=object)], ("%s", "%.17g")),
    ([np.array([1]), np.array([2])], ("%d", "%d")),
    ([[1.0], [2.0]], ("%.17g", "%.17g")),
], ids=["nan", "inf", "fraction-as-d", "2^53-as-d", "nan-as-d", "other-format", "objects",
        "int-array", "list"])
def test_what_the_writer_refuses_python_writes(codec, python_codec, columns, cells):
    assert codec.format_columns(columns, cells) is None

    def text():
        out = io.StringIO()
        write_csv(out, ("u", "v"), cells, columns)
        return out.getvalue()

    assert outcome(text) == python_codec(outcome, text)


FLOAT2 = ("t", "y"), (float, float)
INT_FLOAT = ("n", "y"), (int, float)


@pytest.mark.parametrize("text, layout, fast", [
    ("t,y\r\n1,2\r\n3,4\r\n", FLOAT2, False),
    ("t,y\n1,2\n\n3,4\n", FLOAT2, False),
    ("t,y\n1,2\n3,4\n\n", FLOAT2, False),
    ("t,y\n 1 ,2\n", FLOAT2, False),
    ("t,y\n1_0,2\n", FLOAT2, False),
    ("t,y\n+1,2\n", FLOAT2, False),
    ("t,y\n.5,2\n", FLOAT2, False),
    ("t,y\n5.,2\n", FLOAT2, False),
    ("t,y\n1,infinity\n", FLOAT2, False),
    ("t,y\n1,2\nnan,3\n", FLOAT2, False),
    ("t,y\n1,2\n3,1e999\n", FLOAT2, True),
    ("t,y\n1,２\n", FLOAT2, False),
    ("t,y\n1,2\x0c3,4\n", FLOAT2, False),
    ("t,y\n1,2,3\n", FLOAT2, False),
    ("t,y\n1\n", FLOAT2, False),
    ("t,z\n1,2\n", FLOAT2, False),
    ("n,y\n1234567890123456,2\n", INT_FLOAT, False),
    ("n,y\n1.0,2\n", INT_FLOAT, False),
    ("t,y\n", FLOAT2, False),
    ("t,y\n1,1e5e5\n", FLOAT2, False),
    ("t,y\n1,1-2\n", FLOAT2, False),
    ("t,y\n1,2e\n", FLOAT2, False),
    ("t,y\n1,1e+\n", FLOAT2, False),
    ("t,y\n1,1.5.5\n", FLOAT2, False),
    ("t,y\n1,0x10\n", FLOAT2, False),
    ("t,y\n-,2\n", FLOAT2, False),
    ("t,y\n1,2\n3,4", FLOAT2, True),
    ("t,y\n-0,1.5e-3\n2E+2,-7\n", FLOAT2, True),
    ("n,y\n-0,2\n999999999999999,3\n", INT_FLOAT, True),
], ids=["crlf", "blank-line", "blank-last-line", "spaces", "underscore", "plus", "point-first",
        "point-last", "infinity", "nan", "overflow", "non-ascii", "form-feed", "too-many-cells",
        "too-few-cells", "bad-header", "16-digit-int", "float-as-int", "empty-body",
        "two-exponents", "inner-minus", "empty-exponent", "signed-empty-exponent", "two-points",
        "hex", "sign-only", "no-final-newline", "exponents", "int-extremes"])
def test_both_readers_agree(codec, python_codec, text, layout, fast):
    """The same columns and line numbers, or the same error, from the
    kernel's strict reader and the Python reader; text outside the strict
    grammar goes to the Python reader whole."""
    header, kinds = layout
    if text.startswith(",".join(header) + "\n"):
        body = text[len(",".join(header)) + 1:]
        assert (codec.parse_rows(body, kinds) is not None) == fast
    def read():
        columns, numbers = parse_csv(text, header, kinds, "f.csv")
        return [c.dtype.str for c in columns], [c.tolist() for c in columns], list(numbers)

    assert outcome(read) == python_codec(outcome, read)


CONFIG = ("a = 0.4\nb = 0.3\nalpha = 0.1\nbeta = 0.15\nsigma1 = 0.4\nsigma2 = 0.3\n"
          "rho = 0.2\ny0 = 0.2\nx0 = 0.1\nT = 20\nN = 400\nscheme = DISRE\n"
          "replicates = 12\nseed = 5\n")


def cli_files(tmp_path, name, threads, capsys):
    """The files of simulate, mc and report in a new directory, and the
    output of estimate on one path file."""
    out = tmp_path / name
    out.mkdir()
    cfg = out / "run.cfg"
    cfg.write_text(CONFIG)
    assert main(["simulate", "--config", str(cfg), "--set", "replicates=2",
                 "--out", str(out / "paths")]) == 0
    assert main(["mc", "--config", str(cfg), "--out", str(out / "report"),
                 "--threads", str(threads)]) == 0
    assert main(["report", "--out", str(out / "report")]) == 0
    capsys.readouterr()
    assert main(["estimate", str(sorted((out / "paths").iterdir())[0]),
                 "--config", str(cfg)]) == 0
    files = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return files, capsys.readouterr().out


def test_files_are_the_same_through_both_codecs(codec, python_codec, tmp_path, capsys):
    """simulate, estimate, mc and report, at 1 and 2 threads."""
    with_kernel = cli_files(tmp_path, "kernel", 1, capsys)
    assert with_kernel == python_codec(cli_files, tmp_path, "python", 2, capsys)
    assert with_kernel == cli_files(tmp_path, "threads", 2, capsys)
