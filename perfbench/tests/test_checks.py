"""Tests of the benchmark's checks, on small versions of its workloads.

    python3 -m pytest perfbench/tests -q

Each workload is built small, run in-process through `hestonlab.cli.main`,
and checked.  Every check must pass on the program's output, with the
default seed and another one, and must fail on output corrupted in one
place.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hestonlab as hl
import hestonlab.cli as cli

import checks
import run
import workloads
from one_pass import run_commands, tree_hashes

SMALL = {
    "desk-long": lambda seed: workloads.desk_long(seed, horizon=200.0, steps=2000,
                                                  replicates=200),
    "many-short": lambda seed: workloads.many_short(seed, horizon=50.0, steps=500,
                                                    replicates=300),
    "desre-aborts": lambda seed: workloads.desre_aborts(seed, horizon=500.0,
                                                        steps=10_000, replicates=100),
    "path-files": lambda seed: workloads.path_files(seed, horizon=100.0, steps=1000,
                                                    replicates=1),
}


def run_small(name, seed, pass_dir: Path, monkeypatch):
    work = SMALL[name](seed)
    for file_name, mapping in work.configs.items():
        (pass_dir / file_name).write_text(workloads.config_text(mapping))
    monkeypatch.chdir(pass_dir)
    result = run_commands(cli, work.commands)
    result["files"] = tree_hashes(pass_dir)
    assert all(c["code"] == 0 for c in result["commands"]), result["commands"]
    return work, result


@pytest.mark.parametrize("seed", [1, 29])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_checks_pass_on_program_output(name, seed, tmp_path, monkeypatch):
    work, result = run_small(name, seed, tmp_path, monkeypatch)
    assert checks.check(work, tmp_path, result) == []


def _rewrite_csv_cell(path: Path, row: int, column: str, change):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    j = header.index(column)
    cells[j] = repr(change(float(cells[j])))
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_perturbed_estimate_in_replicates_csv_fails(tmp_path, monkeypatch):
    work, result = run_small("desk-long", 1, tmp_path, monkeypatch)
    _rewrite_csv_cell(tmp_path / "report" / "replicates.csv", 17, "b_hat",
                      lambda v: v * (1 + 1e-7))
    failures = checks.check(work, tmp_path, result)
    assert any("b_hat" in f for f in failures), failures


def test_dropped_failure_record_fails(tmp_path, monkeypatch):
    work, result = run_small("desre-aborts", 1, tmp_path, monkeypatch)
    path = tmp_path / "report" / "report.json"
    report = json.loads(path.read_text())
    assert report["failures"]["count"] >= 2, "the small workload must abort some replicates"
    dropped = report["failures"]["items"].pop(1)
    report["failures"]["count"] -= 1
    path.write_text(json.dumps(report))
    failures = checks.check(work, tmp_path, result)
    assert any("cover" in f for f in failures), (dropped, failures)


def test_altered_path_value_fails(tmp_path, monkeypatch):
    work, result = run_small("path-files", 1, tmp_path, monkeypatch)
    path = tmp_path / workloads.path_file_name("SE", 1, 0)
    _rewrite_csv_cell(path, 400, "x", lambda v: v + 1e-6)
    failures = checks.check(work, tmp_path, result)
    assert any(path.name in f and "x[" in f for f in failures), failures


def test_changed_normality_statistic_fails(tmp_path, monkeypatch):
    work, result = run_small("many-short", 1, tmp_path, monkeypatch)
    _rewrite_csv_cell(tmp_path / "report" / "table5.csv", 2, "ad_stat",
                      lambda v: v * 1.001)
    failures = checks.check(work, tmp_path, result)
    assert any("table5 b" in f for f in failures), failures


def test_rewrite_that_differs_fails(tmp_path, monkeypatch):
    work, result = run_small("many-short", 1, tmp_path, monkeypatch)
    result["files"]["report/table2.csv"] = "0" * 64
    assert checks.check(work, tmp_path, result) == ["report rewrote table2.csv differently"]


def test_strict_json_rejects_nan(tmp_path):
    path = tmp_path / "r.json"
    path.write_text('{"x": NaN}')
    with pytest.raises(ValueError):
        checks.strict_json(path)


def test_closed_forms_agree_with_the_package():
    cfg = dict(workloads.CANONICAL, T=137.0)
    params = hl.ModelParams(**workloads.CANONICAL)
    normalized, scaled = checks.limit_variances(cfg)
    theory = hl.asymptotic_covariance(params)
    np.testing.assert_allclose(normalized, np.diag(theory.sigma_matrix), rtol=1e-12)
    np.testing.assert_allclose(scaled, np.diag(hl.kron(theory.s_matrix, np.eye(2))),
                               rtol=1e-12)
    mean_y, mean_x = checks.exact_terminal_means(cfg)
    assert math.isclose(mean_y, hl.conditional_mean_y(params, cfg["y0"], 0.0, 137.0),
                        rel_tol=1e-12)
    assert math.isclose(mean_x, hl.conditional_mean_x(params, cfg["y0"], cfg["x0"],
                                                      0.0, 137.0), rel_tol=1e-12)


def test_benchmark_json_names_the_metrics_the_runner_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.BUILDERS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_runner_refuses_a_checkout_without_the_source(tmp_path):
    shutil.copytree(Path(run.HERE), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(Path(run.ROOT) / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-long", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_run_with_a_failed_command_in_every_pass_is_not_correct(tmp_path, monkeypatch,
                                                                capsys):
    def failing_pass(name, seed, pass_dir, trace):
        pass_dir.mkdir(parents=True)
        commands = [{"argv": list(argv), "code": int(i == 0), "stdout": ""}
                    for i, argv in enumerate(workloads.build(name, seed).commands)]
        return {"commands": commands, "snapshots": {}, "files": {}, "layers": {},
                "setup_s": 0.4, "run_s": 1.0, "peak_rss_mb": 100.0, "wall_s": 1.5}

    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    monkeypatch.setattr(run, "run_pass", failing_pass)
    monkeypatch.setattr(sys, "argv", ["run.py", "--workload", "many-short",
                                      "--seconds", "0"])
    assert run.main() == 0
    captured = capsys.readouterr()
    result = json.loads(captured.out.splitlines()[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (6, 3)
    assert "no output was checked" in captured.err
