"""Command-line driver: config parsing, the four subcommands, file formats,
and exit-code behavior."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import hestonlab as hl
import hestonlab.simulate as sim
from hestonlab.cli import cmd_estimate, main, parse_config
from hestonlab.montecarlo import PRESET_NAMES, read_config

CANONICAL_LINES = """\
# canonical experiment, small enough for a test run
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
replicates = 2
seed = 9
"""

FIXTURE_CSV = "t,y,x\n0,1,0\n1,2,0.5\n2,2,0.5\n"


@pytest.fixture()
def config_file(tmp_path):
    f = tmp_path / "exp.cfg"
    f.write_text(CANONICAL_LINES)
    return f


# ---------------------------------------------------------------------------
# config parsing


def test_read_config_file(config_file):
    mapping = read_config(config_file)
    assert mapping["a"] == 0.4
    assert mapping["scheme"] is hl.Scheme.DISRE
    assert "x0" in mapping and len(mapping) == 14


def test_read_config_rejects_unknown_key(tmp_path):
    f = tmp_path / "bad.cfg"
    f.write_text("a = 0.4\nvolatility = 2\n")
    with pytest.raises(hl.ConfigParseError) as exc:
        read_config(f)
    assert "volatility" in str(exc.value)
    assert "2" in str(exc.value)  # names the offending line


def test_read_config_rejects_malformed_line(tmp_path):
    f = tmp_path / "bad.cfg"
    f.write_text("a 0.4\n")
    with pytest.raises(hl.ConfigParseError):
        read_config(f)


def test_set_lines_are_checked_as_config_file_lines(config_file, capsys):
    for item, cause in (("b", "--set: expected 'key = value', got 'b'"),
                        ("volatility=2", "--set: unknown key 'volatility'"),
                        ("b= ", "--set: empty value for 'b'")):
        assert main(["mc", "--config", str(config_file), "--set", item]) == 1
        assert capsys.readouterr().err == f"error: ConfigParseError: {cause}\n"


def test_set_items_cut_comments_and_need_an_entry(config_file, capsys):
    """A ``--set`` item loses its ``#`` comment as a file line does, and one
    that holds no entry is refused, where a file would skip the line."""
    assert parse_config(config_file, ("b=0.7 # x", "N = 20#")).params.b == 0.7
    for item in ("", "  ", "# c"):
        assert main(["mc", "--config", str(config_file), "--set", item]) == 1
        assert capsys.readouterr().err == (
            f"error: ConfigParseError: --set: expected 'key = value', got {item!r}\n")


@st.composite
def configs(draw):
    """Valid experiment configs, floats drawn within +-1e6, subnormals among them."""
    def number(lo=-1e6, hi=1e6, **kw):
        return draw(st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw))
    params = dict(a=number(0.0, exclude_min=True), b=number(), alpha=number(), beta=number(),
                  sigma1=number(0.0, exclude_min=True), sigma2=number(0.0, exclude_min=True),
                  rho=number(-1.0, 1.0, exclude_min=True, exclude_max=True),
                  y0=number(0.0, exclude_min=True), x0=number())
    try:
        return hl.ExperimentConfig(
            params=hl.ModelParams(**params),
            grid=hl.TimeGrid(number(0.0, exclude_min=True), draw(st.integers(1, 10**6))),
            scheme=draw(st.sampled_from(hl.Scheme)), replicates=draw(st.integers(1, 10**6)),
            master_seed=draw(st.integers(0, 2**70)))
    except hl.HestonLabError:
        assume(False)


def _bits(config):
    return [float(v).hex() if isinstance(v, float) else v for v in config.to_mapping().values()]


def test_presets_read_back_from_their_text(tmp_path):
    for name in PRESET_NAMES:
        config = hl.preset_config(name)
        assert parse_config(None, (), name) == config
        (tmp_path / "preset.cfg").write_text(config.to_text())
        assert _bits(parse_config(tmp_path / "preset.cfg")) == _bits(config)


@settings(max_examples=40, deadline=None)
@given(config=configs())
def test_config_text_reads_back_bit_for_bit(config):
    """Each line of ``to_text`` read back as a ``--set`` item, the reader's
    line rule for every source, gives the config with the same float bits."""
    assert len(config.to_text().splitlines()) == len(config.to_mapping())
    back = parse_config(None, config.to_text().splitlines())
    assert back == config and _bits(back) == _bits(config)


def test_build_config_missing_key_named():
    mapping = read_config_file_lines_without("sigma1")
    with pytest.raises(hl.ConfigParseError) as exc:
        hl.ExperimentConfig.from_mapping(mapping)
    assert "sigma1" in str(exc.value)


def read_config_file_lines_without(key):
    mapping = {}
    for line in CANONICAL_LINES.splitlines():
        line = line.split("#")[0].strip()
        if not line:
            continue
        k, v = (part.strip() for part in line.split("=", 1))
        if k != key:
            mapping[k] = v
    return mapping


def test_build_config_bad_value_named():
    mapping = read_config_file_lines_without("")
    mapping["a"] = "fast"
    with pytest.raises(hl.ConfigParseError) as exc:
        hl.ExperimentConfig.from_mapping(mapping)
    assert "'a'" in str(exc.value) or " a " in str(exc.value) or "a=" in str(exc.value)


def test_parse_config_preset():
    cfg = parse_config(None, (), "table1")
    assert cfg.grid.horizon == 3000.0 and cfg.grid.steps == 30_000
    assert cfg.scheme is hl.Scheme.DISRE


def test_parse_config_precedence(config_file):
    # file overrides preset, --set overrides file
    cfg = parse_config(config_file, ("b=0.7", "replicates=3"), "desk")
    assert cfg.grid.horizon == 50.0          # from file, not the desk preset
    assert cfg.params.b == 0.7               # from --set
    assert cfg.replicates == 3


def test_parse_config_zero_reversion_allowed(config_file):
    cfg = parse_config(config_file, ("b=0",), None)
    assert cfg.params.b == 0.0
    assert cfg.scheme is hl.Scheme.DISRE
    assert hl.classify_regime(cfg.params) is hl.Regime.CRITICAL


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_one_file_per_replicate(tmp_path, config_file):
    out = tmp_path / "paths"
    out.mkdir()
    rc = main(["simulate", "--config", str(config_file), "--out", str(out),
               "--set", "N=20", "--set", "T=2"])
    assert rc == 0
    files = sorted(out.glob("*.csv"))
    assert [f.name for f in files] == ["path_DISRE_s9_r0000.csv", "path_DISRE_s9_r0001.csv"]
    lines = files[0].read_text().strip().splitlines()
    assert lines[0] == "t,y,x" and len(lines) == 22


def test_simulate_rerun_is_byte_identical(tmp_path, config_file):
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    out1.mkdir(), out2.mkdir()
    argv = ["simulate", "--config", str(config_file), "--set", "N=50", "--set", "T=5"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    for f1 in sorted(out1.glob("*.csv")):
        f2 = out2 / f1.name
        assert f1.read_bytes() == f2.read_bytes()


def test_simulate_matches_library_pipeline(tmp_path, config_file):
    out = tmp_path / "paths"
    out.mkdir()
    main(["simulate", "--config", str(config_file), "--out", str(out),
          "--set", "N=3", "--set", "T=0.3", "--set", "replicates=1"])
    produced = out / "path_DISRE_s9_r0000.csv"
    want = hl.simulate_xy(hl.canonical_params(), hl.TimeGrid(0.3, 3),
                          hl.Scheme.DISRE, hl.SeedLineage(9, 0))
    ref = tmp_path / "ref.csv"
    hl.write_path_csv(want, ref)
    assert produced.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("lanes", [1, 2, 3])
def test_simulate_runs_replicates_as_lane_groups(tmp_path, config_file, monkeypatch, lanes):
    """A group budget of 1, 2 or 3 whole paths runs five replicates in groups
    of that many lanes, and every CSV has the bytes that simulate_xy and
    write_path_csv give for its replicate alone."""
    steps, groups = 40, []

    def counting_seeds(master_seed, replicates):
        replicates = list(replicates)
        groups.append(len(replicates))
        return hl.lane_seeds(master_seed, replicates)

    monkeypatch.setattr(sim, "BLOCK_ELEMENTS", lanes * steps)
    monkeypatch.setattr(sim, "lane_seeds", counting_seeds)
    out = tmp_path / "paths"
    assert main(["simulate", "--config", str(config_file), "--out", str(out), "--set",
                 f"N={steps}", "--set", "T=4", "--set", "replicates=5"]) == 0
    assert groups == [lanes] * (5 // lanes) + [5 % lanes] * (5 % lanes > 0)
    for r in range(5):
        want = hl.simulate_xy(hl.canonical_params(), hl.TimeGrid(4.0, steps),
                              hl.Scheme.DISRE, hl.SeedLineage(9, r))
        ref = tmp_path / "ref.csv"
        hl.write_path_csv(want, ref)
        assert (out / f"path_DISRE_s9_r{r:04d}.csv").read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("argv,cause,written", [
    # replicate 2 of 4 aborts; 0 and 1 run in its lane group, ahead of it
    (["--preset", "desk", "--set", "a=0.15", "--set", "y0=0.5", "--set", "scheme=DESRE",
      "--set", "T=115", "--set", "N=2300", "--set", "seed=3", "--set", "replicates=4"],
     "NonPositiveZ: square-root state hit zero at grid index 2283", 2),
    # replicate 4 of 5 overflows in Y, then in X with a large beta
    (["--set", "b=-1", "--set", "T=691.9", "--set", "N=6919", "--set", "replicates=5"],
     "NonFinitePath: Y is not finite at grid index 6916", 4),
    (["--set", "b=-1", "--set", "beta=1000", "--set", "T=685.4", "--set", "N=6854",
      "--set", "replicates=5"],
     "NonFinitePath: X is not finite at grid index 6849", 4),
])
def test_simulate_stops_at_the_first_failing_replicate(
        tmp_path, config_file, capsys, argv, cause, written):
    """The replicates before the failing one are written, and none after it."""
    out = tmp_path / "paths"
    config = [] if "--preset" in argv else ["--config", str(config_file)]
    assert main(["simulate", *config, *argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {cause}\n"
    assert sorted(p.name[-9:-4] for p in out.glob("*.csv")) == [
        f"r{r:04d}" for r in range(written)]


# ---------------------------------------------------------------------------
# estimate


def test_estimate_fixture_csv(tmp_path):
    f = tmp_path / "fixture.csv"
    f.write_text(FIXTURE_CSV)
    record = cmd_estimate(f)
    assert record["a_hat"] == pytest.approx(2.0, abs=1e-12)
    assert record["b_hat"] == pytest.approx(1.0, abs=1e-12)
    assert record["alpha_hat"] == pytest.approx(1.0, abs=1e-12)
    assert record["beta_hat"] == pytest.approx(0.5, abs=1e-12)
    assert record["T"] == 2.0 and record["N"] == 2
    assert "qv_ratio" not in record


def test_estimate_diagnostics_when_sigma_known(tmp_path):
    f = tmp_path / "fixture.csv"
    f.write_text(FIXTURE_CSV)
    record = cmd_estimate(f, sigma1=0.4)
    assert record["i3_direct"] == 1.0
    assert record["i3_ito"] == pytest.approx((4.0 - 1.0 - 0.16 * 3.0) / 2, rel=1e-14)
    assert record["qv_ratio"] == pytest.approx(1.0 / (0.16 * 3.0), rel=1e-14)


def test_estimate_roundtrip_exact(tmp_path, config_file):
    out = tmp_path / "paths"
    out.mkdir()
    main(["simulate", "--config", str(config_file), "--out", str(out),
          "--set", "replicates=1"])
    produced = next(out.glob("*.csv"))
    record = cmd_estimate(produced)
    path = hl.simulate_xy(hl.canonical_params(), hl.TimeGrid(50.0, 500),
                          hl.Scheme.DISRE, hl.SeedLineage(9, 0))
    est = hl.lse_from_functionals(hl.path_functionals(path))
    assert record["a_hat"] == est.a_hat
    assert record["b_hat"] == est.b_hat
    assert record["alpha_hat"] == est.alpha_hat
    assert record["beta_hat"] == est.beta_hat
    assert record["scheme"] == "DISRE" and record["seed"] == 9


def test_estimate_constant_path_fails_cleanly(tmp_path, capsys):
    f = tmp_path / "flat.csv"
    f.write_text("t,y,x\n0,0.7,0\n1,0.7,0.1\n2,0.7,0.2\n")
    rc = main(["estimate", str(f)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "DegeneratePath" in err


def test_estimate_prints_flat_record(tmp_path, capsys):
    f = tmp_path / "fixture.csv"
    f.write_text(FIXTURE_CSV)
    rc = main(["estimate", str(f)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "a_hat=2" in out
    assert "beta_hat=0.5" in out


# ---------------------------------------------------------------------------
# mc and report


EXPECTED_ARTIFACTS = [
    "report.json", "replicates.csv",
    "table1.csv", "table2.csv", "table3.csv", "table4.csv", "table5.csv",
    "fig1_a.csv", "fig1_b.csv", "fig1_alpha.csv", "fig1_beta.csv",
]


def test_mc_minimum_viable_run(tmp_path, config_file, capsys):
    out = tmp_path / "rep"
    out.mkdir()
    rc = main(["mc", "--config", str(config_file), "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "replicates: 2 ok, 0 failed" in stdout
    assert "low confidence" in stdout
    for name in EXPECTED_ARTIFACTS:
        assert (out / name).is_file(), name

    payload = json.loads((out / "report.json").read_text())
    assert set(payload) == {"config", "failures", "summary", "covariance_check"}
    assert payload["failures"]["count"] == 0
    for name in ("a", "b", "alpha", "beta"):
        block = payload["summary"]["per_param"][name]
        for field in ("expected_bias", "l1_error", "l2_error", "relative_error",
                      "skewness", "excess_kurtosis", "jb_stat", "jb_pvalue",
                      "ad_stat", "ad_pvalue"):
            assert field in block
    assert payload["covariance_check"]["low_confidence"] is True


def test_mc_threads_flag_does_not_change_output(tmp_path, config_file):
    outs = []
    for tag, threads in (("t1", "1"), ("t2", "4")):
        out = tmp_path / tag
        out.mkdir()
        assert main(["mc", "--config", str(config_file), "--out", str(out),
                     "--set", "replicates=6", "--threads", threads]) == 0
        outs.append(out)
    for name in EXPECTED_ARTIFACTS:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_report_regenerates_identical_tables(tmp_path, config_file):
    out = tmp_path / "rep"
    out.mkdir()
    assert main(["mc", "--config", str(config_file), "--out", str(out),
                 "--set", "replicates=5"]) == 0
    originals = {name: (out / name).read_bytes() for name in EXPECTED_ARTIFACTS}
    for name in EXPECTED_ARTIFACTS:
        if name not in ("report.json", "replicates.csv"):
            (out / name).unlink()
    assert main(["report", "--out", str(out)]) == 0
    for name in EXPECTED_ARTIFACTS:
        assert (out / name).read_bytes() == originals[name], name


def test_report_rejects_a_tampered_estimate(tmp_path, config_file, capsys):
    out = tmp_path / "rep"
    out.mkdir()
    assert main(["mc", "--config", str(config_file), "--out", str(out),
                 "--set", "replicates=5"]) == 0
    lines = (out / "replicates.csv").read_text().splitlines()
    header = lines[0].split(",")
    col = header.index("alpha_hat")
    cells = lines[3].split(",")
    cells[col] = repr(float(cells[col]) * (1 + 1e-9))
    lines[3] = ",".join(cells)
    (out / "replicates.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "CsvFormatError" in err
    assert "line 4" in err and "alpha_hat" in err


@pytest.mark.parametrize("key,value", [("N", 500.7), ("replicates", 5.0), ("seed", 9.5)])
def test_report_rejects_a_non_integral_config_echo(tmp_path, config_file, capsys, key, value):
    """A config echo that int() would truncate is refused, naming the key."""
    out = tmp_path / "rep"
    out.mkdir()
    assert main(["mc", "--config", str(config_file), "--out", str(out),
                 "--set", "replicates=5"]) == 0
    payload = json.loads((out / "report.json").read_text())
    payload["config"][key] = value
    (out / "report.json").write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "ConfigParseError" in err and f"'{key}'" in err


def test_report_json_is_strict_on_a_small_run(tmp_path, config_file):
    """Fewer than 8 results leave the normality fields undefined: null, not NaN."""
    out = tmp_path / "rep"
    out.mkdir()
    assert main(["mc", "--config", str(config_file), "--out", str(out),
                 "--set", "replicates=5"]) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    payload = json.loads((out / "report.json").read_text(), parse_constant=reject)
    assert set(payload) == {"config", "failures", "summary", "covariance_check"}
    assert payload["summary"]["n_results"] == 5
    for name in ("a", "b", "alpha", "beta"):
        block = payload["summary"]["per_param"][name]
        assert block["jb_stat"] is None and block["ad_pvalue"] is None
        assert isinstance(block["l2_error"], float)


def test_mc_failure_accounting_through_cli(tmp_path, capsys):
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(
        "a = 0.09\nb = 0.3\nalpha = 0.1\nbeta = 0.15\nsigma1 = 0.4\n"
        "sigma2 = 0.3\nrho = 0.2\ny0 = 0.05\nx0 = 0\nT = 50\nN = 50\n"
        "scheme = DESRE\nreplicates = 64\nseed = 5\n")
    out = tmp_path / "rep"
    out.mkdir()
    rc = main(["mc", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "23 ok, 41 failed" in stdout
    payload = json.loads((out / "report.json").read_text())
    assert payload["failures"]["count"] == 41
    assert payload["failures"]["count"] + payload["summary"]["n_results"] == 64


def test_mc_overflowing_variance_fails_cleanly(tmp_path, config_file, capsys):
    """A supercritical variance that overflows writes no report of NaN."""
    out = tmp_path / "rep"
    rc = main(["mc", "--config", str(config_file), "--out", str(out),
               "--set", "b=-1", "--set", "T=800", "--set", "N=8000",
               "--set", "replicates=10"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "AllReplicatesFailed" in err and "NonFinitePath" in err
    assert not (out / "report.json").exists()


def test_simulate_overflowing_variance_fails_cleanly(tmp_path, config_file, capsys):
    """A single path whose variance overflows is refused before it is written."""
    out = tmp_path / "paths"
    rc = main(["simulate", "--config", str(config_file), "--out", str(out),
               "--set", "b=-1", "--set", "T=800", "--set", "N=8000"])
    assert rc == 1
    err = capsys.readouterr().err
    # the path CSV this config used to give was refused at line 6925
    assert "NonFinitePath" in err and "grid index 6923" in err
    assert not list(out.glob("*.csv"))


def test_mc_rejects_an_implicit_step_that_divides_by_zero(config_file, capsys):
    rc = main(["mc", "--config", str(config_file),
               "--set", "b=-30", "--set", "T=1", "--set", "N=10"])
    assert rc == 1
    assert "InvalidGrid" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# failure modes


def test_importing_the_cli_loads_no_scipy():
    """The package does not use scipy, so a command pays nothing to import it."""
    code = ("import sys, hestonlab.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = Path(hl.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src)] + sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout == "[]\n"


def test_missing_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_estimate_missing_file_returns_error(tmp_path, capsys):
    rc = main(["estimate", str(tmp_path / "nothing.csv")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_estimate_rejects_a_non_finite_cell(tmp_path, capsys):
    f = tmp_path / "nan.csv"
    f.write_text("t,y,x\n0,1,0\n1,nan,0.5\n2,2,0.5\n")
    assert main(["estimate", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "CsvFormatError" in captured.err and "line 3" in captured.err


def test_mc_refuses_a_bad_thread_count(tmp_path, config_file, capsys):
    out = tmp_path / "rep"
    assert main(["mc", "--config", str(config_file), "--out", str(out),
                 "--threads", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert "ConfigParseError: threads must be an integer >= 1, got 0" in captured.err


@pytest.mark.parametrize("value", ["abc", "inf", "nan", "0", "-1"])
def test_estimate_refuses_a_bad_sigma1(tmp_path, capsys, value):
    f = tmp_path / "fixture.csv"
    f.write_text(FIXTURE_CSV)
    assert main(["estimate", str(f), "--set", f"sigma1={value}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    cause = "ConfigParseError" if value == "abc" else "NonPositiveSigma"
    assert cause in captured.err and "sigma1" in captured.err


def test_estimate_parses_every_config_key_it_is_given(tmp_path, capsys):
    f = tmp_path / "fixture.csv"
    f.write_text(FIXTURE_CSV)
    assert main(["estimate", str(f), "--set", "a=garbage"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "ConfigParseError: config key 'a'" in captured.err
    # a partial config is enough: sigma1 alone adds the diagnostic
    assert main(["estimate", str(f), "--set", "sigma1=0.4"]) == 0
    assert "qv_ratio=" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# option surface

OPTIONS = {
    "simulate": {"--config", "--set", "--preset", "--out"},
    "estimate": {"--config", "--set", "--preset"},
    "mc": {"--config", "--set", "--preset", "--out", "--threads"},
    "report": {"--out"},
}


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_each_command_takes_only_the_options_it_reads(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert set(re.findall(r"--[a-z]+", usage)) == OPTIONS[command]
    assert usage.rstrip().endswith("path_csv") == (command == "estimate")
    if "--preset" in OPTIONS[command]:
        assert "--preset {" + ",".join(PRESET_NAMES) + "}" in usage


@pytest.mark.parametrize("argv,cause", [
    (["simulate", "--threads", "2"], "unrecognized arguments"),
    (["estimate", "P", "--out", "d"], "unrecognized arguments"),
    (["report", "--config", "c"], "unrecognized arguments"),
    (["mc", "--preset", "nope"], "invalid choice"),
])
def test_options_a_command_does_not_read_are_usage_errors(
        argv, cause, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # where a command that ran would write
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert cause in capsys.readouterr().err


def test_mc_requires_some_config(capsys):
    rc = main(["mc"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_bad_override_reports_key(config_file, capsys):
    rc = main(["mc", "--config", str(config_file), "--set", "rho=5"])
    assert rc == 1
    assert "RhoOutOfRange" in capsys.readouterr().err
