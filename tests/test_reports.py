"""The replicate file of a report: what its reader accepts and refuses."""

import shutil

import pytest

import hestonlab as hl
from hestonlab.cli import main
from hestonlab.reports import regenerate_report

CONFIG = """\
a = 0.4
b = 0.3
alpha = 0.1
beta = 0.15
sigma1 = 0.4
sigma2 = 0.3
rho = 0.2
y0 = 0.2
x0 = 0.1
T = 50
N = 500
scheme = DISRE
replicates = 5
seed = 9
"""


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("report")
    (root / "exp.cfg").write_text(CONFIG)
    assert main(["mc", "--config", str(root / "exp.cfg"), "--out", str(root / "rep")]) == 0
    return root / "rep"


def with_replicates(tmp_path, report_dir, edit):
    """A copy of the report whose replicates.csv lines went through ``edit``."""
    out = tmp_path / "rep"
    shutil.copytree(report_dir, out)
    lines = (out / "replicates.csv").read_text().splitlines()
    (out / "replicates.csv").write_text("\n".join(edit(lines)) + "\n")
    return out


def set_cell(lines, line, col, text):
    cells = lines[line - 1].split(",")
    cells[col] = text
    lines[line - 1] = ",".join(cells)
    return lines


def cut_cell(lines, line):
    lines[line - 1] = lines[line - 1].rsplit(",", 1)[0]
    return lines


def add_cell(lines, line):
    lines[line - 1] += ",0"
    return lines


@pytest.mark.parametrize("edit,cause", [
    (lambda ls: [ls[0] + " "] + ls[1:], "unexpected replicate-file header"),
    # a 17-cell and a 15-cell line hold 16 cells a line between them
    (lambda ls: cut_cell(add_cell(ls, 3), 4), "line 3: wrong column count"),
    (lambda ls: add_cell(cut_cell(ls, 3), 4), "line 3: wrong column count"),
    # the first bad line wins, whatever its fault
    (lambda ls: cut_cell(set_cell(ls, 3, 2, "zz"), 5), "line 3: non-numeric value"),
    (lambda ls: set_cell(cut_cell(ls, 3), 5, 2, "zz"), "line 3: wrong column count"),
    (lambda ls: set_cell(ls, 4, 7, ""), "line 4: non-numeric value"),
    # the index is an integer
    (lambda ls: set_cell(ls, 2, 0, "0.0"), "line 2: non-numeric value"),
    (lambda ls: set_cell(ls, 6, 0, "inf"), "line 6: non-numeric value"),
    # a non-finite estimate differs from the one its functionals give
    (lambda ls: set_cell(ls, 4, 3, "nan"), "line 4 (replicate 2): stored alpha_hat nan"),
    (lambda ls: set_cell(ls, 5, 1, "-inf"), "line 5 (replicate 3): stored a_hat -inf"),
    # line numbers count the lines that are not blank
    (lambda ls: ls[:2] + ["", " "] + set_cell(ls, 3, 0, "x")[2:], "line 3: non-numeric value"),
])
def test_replicates_csv_names_the_first_bad_line(tmp_path, report_dir, edit, cause):
    out = with_replicates(tmp_path, report_dir, edit)
    with pytest.raises(hl.CsvFormatError) as exc:
        regenerate_report(out)
    assert str(exc.value).startswith(f"{out / 'replicates.csv'}: {cause}")


def test_a_non_finite_functional_fails_its_row(tmp_path, report_dir):
    """A functional the estimates do not reach back to fails the row as the
    estimator does, without a line number."""
    out = with_replicates(tmp_path, report_dir, lambda ls: set_cell(ls, 4, 5, "nan"))
    with pytest.raises(hl.NonFinitePath, match="path functional"):
        regenerate_report(out)


def test_replicates_csv_reads_blank_lines_and_spaced_cells(tmp_path, report_dir):
    original = (report_dir / "replicates.csv").read_bytes()

    def loosen(lines):
        spaced = [" " + line.replace(",", " , ") + " " for line in lines[1:]]
        return [lines[0], ""] + spaced[:2] + ["  "] + spaced[2:] + [""]

    out = with_replicates(tmp_path, report_dir, loosen)
    regenerate_report(out)
    assert (out / "replicates.csv").read_bytes() == original
