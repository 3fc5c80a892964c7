"""The replicate file of a report: what its reader accepts and refuses."""

import json
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
    (lambda ls: ["index," + ls[0]] + ls[1:], "unexpected replicate-file header"),
    # a 17-cell and a 15-cell line hold 16 cells a line between them
    (lambda ls: cut_cell(add_cell(ls, 3), 4), "line 3: expected 16 comma-separated values"),
    (lambda ls: add_cell(cut_cell(ls, 3), 4), "line 3: expected 16 comma-separated values"),
    # the first bad line wins, whatever its fault
    (lambda ls: cut_cell(set_cell(ls, 3, 2, "zz"), 5), "line 3: non-numeric value"),
    (lambda ls: set_cell(cut_cell(ls, 3), 5, 2, "zz"), "line 3: expected 16 comma-separated values"),
    (lambda ls: set_cell(ls, 4, 7, ""), "line 4: non-numeric value"),
    # the index is an integer
    (lambda ls: set_cell(ls, 2, 0, "0.0"), "line 2: non-numeric value"),
    (lambda ls: set_cell(ls, 6, 0, "inf"), "line 6: non-numeric value"),
    # a non-finite cell fails its line once every cell has parsed
    (lambda ls: set_cell(ls, 4, 3, "nan"), "line 4: non-finite value"),
    (lambda ls: set_cell(ls, 5, 1, "-inf"), "line 5: non-finite value"),
    # line numbers count every line of the file, blank ones too
    (lambda ls: ls[:2] + ["", " "] + set_cell(ls, 3, 0, "x")[2:], "line 5: non-numeric value"),
])
def test_replicates_csv_names_the_first_bad_line(tmp_path, report_dir, edit, cause):
    out = with_replicates(tmp_path, report_dir, edit)
    with pytest.raises(hl.CsvFormatError) as exc:
        regenerate_report(out)
    assert str(exc.value).startswith(f"{out / 'replicates.csv'}: {cause}")


def test_a_non_finite_functional_fails_its_row(tmp_path, report_dir):
    """A non-finite functional fails its line, as any non-finite cell does."""
    out = with_replicates(tmp_path, report_dir, lambda ls: set_cell(ls, 4, 5, "nan"))
    with pytest.raises(hl.CsvFormatError) as exc:
        regenerate_report(out)
    assert str(exc.value) == f"{out / 'replicates.csv'}: line 4: non-finite value"


def test_replicates_csv_reads_blank_lines_and_spaced_cells(tmp_path, report_dir):
    original = (report_dir / "replicates.csv").read_bytes()

    def loosen(lines):
        spaced = [" " + line.replace(",", " , ") + " " for line in lines[1:]]
        return [" " + lines[0] + " ", ""] + spaced[:2] + ["  "] + spaced[2:] + [""]

    out = with_replicates(tmp_path, report_dir, loosen)
    regenerate_report(out)
    assert (out / "replicates.csv").read_bytes() == original


def with_payload(tmp_path, report_dir, edit):
    """A copy of the report whose report.json went through ``edit``."""
    out = tmp_path / "rep"
    shutil.copytree(report_dir, out)
    payload = json.loads((out / "report.json").read_text())
    (out / "report.json").write_text(json.dumps(edit(payload)))
    return out


def drop(payload, key):
    return {k: v for k, v in payload.items() if k != key}


def with_items(payload, items):
    return {**payload, "failures": {"count": 1, "items": items}}


FAILURE = {"index": 5, "reason": "NonPositiveZ", "step": 17}


@pytest.mark.parametrize("edit,cause", [
    (lambda p: [p], " is not a JSON object"),
    (lambda p: drop(p, "config"), ": missing or malformed key 'config'"),
    (lambda p: drop(p, "failures"), ": missing or malformed key 'failures'"),
    (lambda p: {**p, "failures": [FAILURE]}, ": missing or malformed key 'failures'"),
    (lambda p: {**p, "failures": {"count": 0}}, ": failures: missing or malformed key 'items'"),
    (lambda p: with_items(p, FAILURE), ": failures: missing or malformed key 'items'"),
    (lambda p: with_items(p, [3]), ": failures.items[0] is not a JSON object"),
    (lambda p: with_items(p, [FAILURE, drop(FAILURE, "index")]),
     ": failures.items[1]: missing or malformed key 'index'"),
    (lambda p: with_items(p, [drop(FAILURE, "reason")]),
     ": failures.items[0]: missing or malformed key 'reason'"),
])
def test_a_malformed_report_json_names_the_key(tmp_path, report_dir, edit, cause):
    out = with_payload(tmp_path, report_dir, edit)
    with pytest.raises(hl.HestonLabError) as exc:
        regenerate_report(out)
    assert str(exc.value) == f"{out / 'report.json'}{cause}"
    assert main(["report", "--out", str(out)]) == 1


@pytest.fixture(scope="module")
def aborted_report_dir(tmp_path_factory):
    """A DESRE report whose replicate 2 of 4 aborted: its one failure item is
    index 2, reason NonPositiveZ, step 2283."""
    root = tmp_path_factory.mktemp("aborted")
    config = CONFIG.replace("a = 0.4", "a = 0.15").replace("y0 = 0.2", "y0 = 0.5")
    config = config.replace("T = 50", "T = 115").replace("N = 500", "N = 2300")
    config = config.replace("DISRE", "DESRE").replace("replicates = 5", "replicates = 4")
    (root / "exp.cfg").write_text(config.replace("seed = 9", "seed = 3"))
    assert main(["mc", "--config", str(root / "exp.cfg"), "--out", str(root / "rep")]) == 0
    return root / "rep"


def with_failure(count=1, **over):
    """An edit of the aborted report's one failure item, and of the count."""
    def edit(payload):
        items = payload["failures"]["items"]
        assert items == [{"index": 2, "reason": "NonPositiveZ", "step": 2283}]
        return {**payload, "failures": {"count": count, "items": [{**items[0], **over}]}}
    return edit


@pytest.mark.parametrize("over,key", [
    # an index is an int below the replicate count that no row or other item holds
    ({"index": "x"}, "items[0]: key 'index'"),
    ({"index": True}, "items[0]: key 'index'"),
    ({"index": 2.0}, "items[0]: key 'index'"),
    ({"index": -4}, "items[0]: key 'index'"),
    ({"index": 99999}, "items[0]: key 'index'"),
    ({"index": 4}, "items[0]: key 'index'"),
    ({"index": [1, 2]}, "items[0]: key 'index'"),
    ({"index": 0}, "items[0]: key 'index'"),
    # a reason is one a run records
    ({"reason": 7}, "items[0]: key 'reason'"),
    ({"reason": "FellerViolated"}, "items[0]: key 'reason'"),
    # a DESRE abort has a step >= 1, another failure none
    ({"step": [1, 2]}, "items[0]: key 'step'"),
    ({"step": "x"}, "items[0]: key 'step'"),
    ({"step": True}, "items[0]: key 'step'"),
    ({"step": 0}, "items[0]: key 'step'"),
    ({"step": None}, "items[0]: key 'step'"),
    ({"reason": "NonFinitePath"}, "items[0]: key 'step'"),
    # the count is the number of items
    ({"count": 999}, "failures: key 'count'"),
    ({"count": True}, "failures: key 'count'"),
])
def test_report_json_failure_items_are_checked(tmp_path, aborted_report_dir, over, key):
    out = with_payload(tmp_path, aborted_report_dir, with_failure(**over))
    with pytest.raises(hl.ConfigParseError) as exc:
        regenerate_report(out)
    assert str(exc.value).startswith(f"{out / 'report.json'}: ") and key in str(exc.value)
    assert main(["report", "--out", str(out)]) == 1


def test_report_json_failure_items_read_back(tmp_path, aborted_report_dir):
    out = with_payload(tmp_path, aborted_report_dir, with_failure())
    before = (out / "report.json").read_text()
    regenerate_report(out)
    assert json.loads((out / "report.json").read_text()) == json.loads(before)
    # another reason than an abort carries no step
    out = with_payload(tmp_path / "other", aborted_report_dir,
                       with_failure(reason="DegeneratePath", step=None))
    regenerate_report(out)


def test_a_missing_directory_or_file_fails_as_a_named_error(tmp_path, report_dir, capsys):
    """ReportNotFound, which a FileNotFoundError handler catches too."""
    assert issubclass(hl.ReportNotFound, hl.HestonLabError)
    assert issubclass(hl.ReportNotFound, FileNotFoundError)
    with pytest.raises(hl.ReportNotFound, match="nowhere/report.json"):
        regenerate_report(tmp_path / "nowhere")
    out = tmp_path / "rep"
    shutil.copytree(report_dir, out)
    (out / "replicates.csv").unlink()
    with pytest.raises(hl.ReportNotFound, match="rep/replicates.csv"):
        regenerate_report(out)
    assert main(["report", "--out", str(tmp_path / "nowhere")]) == 1
    assert capsys.readouterr().err.startswith("error: ReportNotFound: ")
    assert not (tmp_path / "nowhere").exists()
