"""Replicate harness and summary statistics: determinism, failure accounting,
normality tests, histogram records, covariance deviation reports."""

import io
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import hestonlab as hl
import hestonlab.kernel as kernel
import hestonlab.montecarlo as mc
import hestonlab.simulate as simulate


def small_config(**over):
    kw = dict(params=hl.canonical_params(), grid=hl.TimeGrid(100.0, 1000),
              scheme=hl.Scheme.DISRE, replicates=12, master_seed=901)
    kw.update(over)
    return hl.ExperimentConfig(**kw)


# ---------------------------------------------------------------------------
# configuration


def test_canonical_params():
    p = hl.canonical_params()
    assert (p.a, p.b, p.alpha, p.beta) == (0.4, 0.3, 0.1, 0.15)
    assert (p.sigma1, p.sigma2, p.rho) == (0.4, 0.3, 0.2)
    assert (p.y0, p.x0) == (0.2, 0.1)


def test_presets():
    t1 = hl.preset_config("table1")
    assert t1.grid.horizon == 3000.0 and t1.grid.steps == 30_000
    paper = hl.preset_config("paper")
    assert paper.grid.horizon == 5000.0 and paper.grid.steps == 50_000
    assert paper.replicates == 10_000
    desk = hl.preset_config("desk")
    assert desk.grid.horizon == 2000.0 and desk.grid.steps == 20_000
    assert desk.replicates == 2000
    with pytest.raises(hl.ConfigParseError, match="unknown preset 'weekend'"):
        hl.preset_config("weekend")


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(replicates=0)
    with pytest.raises(ValueError):
        small_config(master_seed=-1)
    tight = hl.ModelParams(a=0.08, b=0.3, alpha=0.1, beta=0.15, sigma1=0.4,
                           sigma2=0.3, rho=0.2, y0=0.2, x0=0.1)
    with pytest.raises(hl.FellerViolated):
        small_config(params=tight, scheme=hl.Scheme.DISRE)
    # the same parameters are fine under a direct scheme
    small_config(params=tight, scheme=hl.Scheme.TE)


def test_config_rejections_name_the_field():
    for bad in (0, 2.5):
        with pytest.raises(hl.ConfigParseError, match="replicates"):
            small_config(replicates=bad)
    for bad in (-1, 1.5):
        with pytest.raises(hl.ConfigParseError, match="seed"):
            small_config(master_seed=bad)
    # the implicit square-root step divides by 2 + b*dt: rejected when the
    # config is built, not when the first block runs
    steep = hl.ModelParams(a=0.4, b=-30.0, alpha=0.1, beta=0.15, sigma1=0.4,
                           sigma2=0.3, rho=0.2, y0=0.2, x0=0.1)
    with pytest.raises(hl.InvalidGrid, match=r"2 \+ b\*dt"):
        small_config(params=steep, grid=hl.TimeGrid(1.0, 10))
    with pytest.raises(hl.InvalidGrid):
        hl.simulate_y(steep, hl.TimeGrid(1.0, 10), hl.Scheme.DISRE,
                      hl.GaussianDraws.from_lineage(hl.SeedLineage(1, 0), 10))
    small_config(params=steep, grid=hl.TimeGrid(1.0, 100))  # 2 - 30*0.01 > 0


def test_numpy_integer_seed_and_count_are_stored_as_ints(tmp_path):
    grid = hl.TimeGrid(20.0, 200)
    plain = small_config(grid=grid, replicates=20, master_seed=7)
    numpy_ints = small_config(grid=grid, replicates=np.int64(20), master_seed=np.int64(7))
    assert type(numpy_ints.replicates) is int and type(numpy_ints.master_seed) is int
    assert numpy_ints == plain
    for name, cfg in (("plain", plain), ("numpy", numpy_ints)):
        hl.write_report(tmp_path / name, hl.run_replicates(cfg))
    files = sorted(f.name for f in (tmp_path / "plain").iterdir())
    assert files == sorted(f.name for f in (tmp_path / "numpy").iterdir())
    for name in files:
        assert (tmp_path / "numpy" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_config_mapping_round_trip():
    for cfg in (small_config(), hl.preset_config("desk")):
        mapping = cfg.to_mapping()
        assert tuple(mapping) == mc.CONFIG_KEYS
        assert hl.ExperimentConfig.from_mapping(mapping) == cfg
        as_text = {key: str(value) for key, value in mapping.items()}
        assert hl.ExperimentConfig.from_mapping(as_text) == cfg
    mapping = small_config().to_mapping()
    for key, value in (("N", 500.7), ("N", "500.7"), ("replicates", 12.0),
                       ("seed", "9.5"), ("seed", None), ("a", None), ("a", "fast"),
                       *((key, bad) for key in ("seed", "N", "replicates", "T", "a")
                         for bad in (True, np.True_))):
        with pytest.raises(hl.ConfigParseError, match=f"'{key}'"):
            hl.ExperimentConfig.from_mapping({**mapping, key: value})


def test_read_config_parses_the_keys_it_is_given():
    assert mc.read_config(None, ("sigma1 = 0.4", "N=20")) == {"sigma1": 0.4, "N": 20}
    assert mc.read_config() == {}
    with pytest.raises(hl.ConfigParseError, match="'scheme'"):
        mc.read_config(None, ("scheme=EULER",))


# ---------------------------------------------------------------------------
# replicate runs


def test_run_deterministic():
    cfg = small_config()
    run1 = hl.run_replicates(cfg)
    run2 = hl.run_replicates(cfg)
    assert len(run1.results) == len(run2.results) == 12
    a, b = run1.results, run2.results
    assert np.array_equal(a.index, b.index)
    assert np.array_equal(a.estimates, b.estimates)
    assert np.array_equal(a.normalized, b.normalized)
    assert np.array_equal(a.scaled, b.scaled)
    assert np.array_equal(a.functionals.y_terminal, b.functionals.y_terminal)
    assert np.array_equal(a.functionals.x_terminal, b.functionals.x_terminal)


def test_run_thread_count_does_not_change_results():
    cfg = small_config(replicates=24)
    serial = hl.run_replicates(cfg, threads=1)
    threaded = hl.run_replicates(cfg, threads=3)
    assert serial.results.index.tolist() == threaded.results.index.tolist()
    assert np.array_equal(serial.results.estimates, threaded.results.estimates)
    assert np.array_equal(serial.results.scaled, threaded.results.scaled)


@pytest.mark.parametrize("threads", [1.5, "2", 0, -2, None, True])
def test_run_refuses_a_bad_thread_count(threads):
    with pytest.raises(hl.ConfigParseError, match="^threads must be an integer >= 1"):
        hl.run_replicates(small_config(replicates=2), threads=threads)


def test_single_replicate_reproducible_from_lineage():
    """Row r of a batch run equals the standalone pipeline for replicate r."""
    cfg = small_config(replicates=5)
    run = hl.run_replicates(cfg)
    rows, r = run.results, 3
    path = hl.simulate_xy(cfg.params, cfg.grid, cfg.scheme,
                          hl.SeedLineage(cfg.master_seed, int(rows.index[r])))
    est = hl.lse_from_functionals(hl.path_functionals(path))
    assert np.array_equal(rows.estimates[r], est.vector())
    assert rows.functionals.y_terminal[r] == path.y[-1]
    assert rows.functionals.x_terminal[r] == path.x[-1]


def test_failed_paths_are_counted_not_silent():
    # near the square-root drift's admissible boundary with a coarse grid,
    # a large share of explicit square-root paths cross zero and abort
    edge = hl.ModelParams(a=0.09, b=0.3, alpha=0.1, beta=0.15, sigma1=0.4,
                          sigma2=0.3, rho=0.2, y0=0.05, x0=0.0)
    cfg = hl.ExperimentConfig(params=edge, grid=hl.TimeGrid(50.0, 50),
                              scheme=hl.Scheme.DESRE, replicates=64, master_seed=5)
    run = hl.run_replicates(cfg)
    assert len(run.results) + len(run.failures) == 64
    assert run.failures and run.results
    for fl in run.failures:
        assert fl.reason == "NonPositiveZ"
        assert 1 <= fl.step <= 50
    # determinism extends to the failure set
    again = hl.run_replicates(cfg)
    assert [f.index for f in again.failures] == [f.index for f in run.failures]


# explicit square-root scheme near its boundary: 18 of 24 replicates abort,
# at steps spread over the whole path
EDGE = hl.ModelParams(a=0.09, b=0.3, alpha=0.1, beta=0.15, sigma1=0.4,
                      sigma2=0.3, rho=0.2, y0=0.05, x0=0.0)


def edge_config():
    return hl.ExperimentConfig(params=EDGE, grid=hl.TimeGrid(200.0, 1000),
                               scheme=hl.Scheme.DESRE, replicates=24, master_seed=5)


def run_record(run):
    """Everything a run reports, as exactly comparable values."""
    rows = run.results
    return (
        (rows.index.tolist(), rows.estimates.tolist(), rows.normalized.tolist(),
         rows.scaled.tolist(),
         {name: np.asarray(col).tolist() for name, col in vars(rows.functionals).items()}),
        [(f.index, f.reason, f.step) for f in run.failures],
    )


def test_results_do_not_depend_on_lane_groups_blocks_or_threads(monkeypatch):
    """Two element budgets (8 lanes x 128 steps and 24 lanes x 640 steps, so
    different lane groups and block boundaries) and 1 or 2 threads give the
    same bits, aborted lanes included."""
    plans = []
    for budget in (1 << 10, 1 << 14):
        monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", budget)
        lanes = mc._lane_plan(24, 1)
        plans.append((lanes, simulate._block_steps(lanes)))
    assert plans == [(8, 128), (24, 640)]
    for cfg in (small_config(replicates=24), edge_config()):
        records = []
        for budget in (1 << 10, 1 << 14):
            monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", budget)
            for threads in (1, 2):
                records.append(run_record(hl.run_replicates(cfg, threads=threads)))
        assert all(rec == records[0] for rec in records[1:])


def test_numpy_lane_groups_narrowed_by_aborts_keep_their_results(monkeypatch):
    """DESRE groups of 10 lanes on the numpy blocks, which aborting lanes
    thin block by block to 8 lanes or fewer, give the record of one wide
    group.  The compiled kernel takes a group in one call, with no blocks to
    narrow, so it is left out."""
    cfg = edge_config()
    monkeypatch.setattr(kernel, "lane_kernel", lambda: None)
    want = run_record(hl.run_replicates(cfg))

    lanes = 10
    monkeypatch.setattr(mc, "_MAX_LANES", lanes)
    monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", lanes * 128)
    widths = []
    advance_variance = simulate.advance_variance

    def recording(params, dt, scheme, eta, state):
        widths.append((state is None, eta.shape[0]))
        return advance_variance(params, dt, scheme, eta, state)

    monkeypatch.setattr(simulate, "advance_variance", recording)
    assert run_record(hl.run_replicates(cfg)) == want
    groups = []
    for first, width in widths:
        if first:
            groups.append([])
        groups[-1].append(width)
    assert [g[0] for g in groups] == [lanes, lanes, cfg.replicates - 2 * lanes]
    assert any(g[0] > 8 >= g[-1] for g in groups), groups


def test_aborted_lanes_draw_nothing_after_their_block(monkeypatch):
    # the numpy pipeline's draws; the lane kernel's are counted in test_kernel.py
    monkeypatch.setattr(kernel, "lane_kernel", lambda: None)
    cfg = edge_config()
    block = 128
    monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", cfg.replicates * block)
    assert mc._lane_plan(cfg.replicates, 1) == cfg.replicates
    assert simulate._block_steps(cfg.replicates) == block
    drawn = {}

    class CountingStream:
        def __init__(self, gen, key):
            self.gen, self.key = gen, key

        def standard_normal(self, *args, out=None, **kwargs):
            drawn[self.key] = drawn.get(self.key, 0) + out.size
            return self.gen.standard_normal(*args, out=out, **kwargs)

    def counting_generators(master_seed, replicates):
        return [tuple(CountingStream(g, (int(r), tag)) for tag, g in enumerate(pair))
                for r, pair in zip(replicates, hl.lane_generators(master_seed, replicates))]

    monkeypatch.setattr(simulate, "lane_generators", counting_generators)
    run = hl.run_replicates(cfg)
    n = cfg.grid.steps
    steps = {f.index: f.step for f in run.failures}
    assert len(steps) == 18 and min(steps.values()) < n - block
    for r in range(cfg.replicates):
        want = min(n, -(-steps[r] // block) * block) if r in steps else n
        assert drawn[(r, 0)] == drawn[(r, 1)] == want, r
    assert sum(drawn.values()) < 2 * n * cfg.replicates * 0.7


def test_peak_memory_does_not_grow_with_steps():
    """At a fixed replicate count the kernel's arrays are lanes x B, so the
    peak traced allocation is the same at N = 2000 and N = 20000."""
    peaks = []
    for steps in (2000, 20_000):
        cfg = small_config(grid=hl.TimeGrid(steps / 10.0, steps), replicates=300)
        assert simulate._block_steps(mc._lane_plan(cfg.replicates, 1)) <= 2000
        tracemalloc.start()
        try:
            hl.run_replicates(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_all_replicates_failed():
    edge = hl.ModelParams(a=0.09, b=0.3, alpha=0.1, beta=0.15, sigma1=0.4,
                          sigma2=0.3, rho=0.2, y0=0.01, x0=0.0)
    cfg = hl.ExperimentConfig(params=edge, grid=hl.TimeGrid(400.0, 80),
                              scheme=hl.Scheme.DESRE, replicates=8, master_seed=5)
    with pytest.raises(hl.AllReplicatesFailed):
        hl.run_replicates(cfg)


SUPERCRITICAL = hl.ModelParams(a=0.4, b=-1.0, alpha=0.1, beta=0.15, sigma1=0.4,
                               sigma2=0.3, rho=0.2, y0=0.2, x0=0.1)


def test_overflowing_variance_fails_replicates_not_silently(monkeypatch):
    """A supercritical variance that overflows gives no NaN estimates and no
    numpy warnings: every replicate fails with the reason NonFinitePath."""
    for scheme in (hl.Scheme.DISRE, hl.Scheme.AVE):
        cfg = hl.ExperimentConfig(params=SUPERCRITICAL, grid=hl.TimeGrid(800.0, 8000),
                                  scheme=scheme, replicates=10, master_seed=1)
        with pytest.raises(hl.AllReplicatesFailed, match="NonFinitePath"):
            hl.run_replicates(cfg)
    # at the edge of overflow Y^3 overflows in most rows and e2^2 in the
    # discriminant of the others: all are NonFinitePath, in replicate order
    cfg = hl.ExperimentConfig(params=SUPERCRITICAL, grid=hl.TimeGrid(231.0, 2310),
                              scheme=hl.Scheme.DISRE, replicates=12, master_seed=1)
    monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", 12 * 2304)
    assert simulate._block_steps(12) == 2304
    index, f, failures = mc._run_lanes(cfg, 0, 12)
    assert index.shape == f.y_terminal.shape == (0,)
    assert [fl.index for fl in failures] == list(range(12))
    assert [fl.reason for fl in failures] == ["NonFinitePath"] * 12


# ---------------------------------------------------------------------------
# summary statistics


def synthetic_results(errors, truth, horizon=4.0):
    """Build a replicate table whose estimates sit at truth + error."""
    n = len(errors)
    root_t = math.sqrt(horizon)
    columns = dict(y0=0.2, x0=0.1, y_terminal=1.0, x_terminal=0.5, i1=6.0,
                   i2=11.0, i3=0.5, i4=0.2, e1=1.5, e2=2.75, e3=6.0,
                   qv_y=0.8, denom=8.0)
    f = hl.PathFunctionals(t_horizon=horizon, n_steps=4,
                           **{name: np.full(n, v) for name, v in columns.items()})
    e = np.repeat(np.asarray(errors, dtype=float)[:, None], 4, axis=1)
    return hl.ReplicateTable(index=np.arange(n), functionals=f,
                             estimates=np.asarray(truth) + e,
                             normalized=root_t * e, scaled=e)


TRUTH = (0.4, 0.3, 0.1, 0.15)


def test_summarize_requires_two_results():
    with pytest.raises(hl.InsufficientData):
        hl.summarize(synthetic_results([0.1], TRUTH), TRUTH)


def test_summarize_exact_estimates_give_zero_errors():
    s = hl.summarize(synthetic_results([0.0] * 10, TRUTH), TRUTH)
    for name in ("a", "b", "alpha", "beta"):
        pp = s.per_param[name]
        assert pp.expected_bias == 0.0
        assert pp.l1_error == 0.0 and pp.l2_error == 0.0
        assert pp.relative_error == 0.0
        # moment shape statistics are undefined on a zero-variance sample
        assert math.isnan(pp.skewness) and math.isnan(pp.jb_stat)


def test_summarize_mirrored_errors_have_zero_skewness():
    errors = [-0.4, -0.3, -0.2, -0.1, 0.1, 0.2, 0.3, 0.4]
    s = hl.summarize(synthetic_results(errors, TRUTH), TRUTH)
    for name in ("a", "b", "alpha", "beta"):
        assert abs(s.per_param[name].skewness) < 1e-14
        assert s.per_param[name].expected_bias == pytest.approx(0.0, abs=1e-17)


def test_summarize_error_norm_inequalities():
    run = hl.run_replicates(small_config(replicates=40))
    s = hl.summarize(run.results, hl.canonical_params())
    for name in ("a", "b", "alpha", "beta"):
        pp = s.per_param[name]
        assert pp.l1_error <= pp.l2_error + 1e-15
        assert abs(pp.expected_bias) <= pp.l1_error + 1e-15
    assert s.n_results == 40
    np.testing.assert_allclose(s.cov_normalized, np.asarray(s.cov_normalized).T,
                               rtol=0, atol=1e-14)
    np.testing.assert_allclose(s.cov_scaled, np.asarray(s.cov_scaled).T,
                               rtol=0, atol=1e-14)


def test_summarize_relative_error_definition():
    errors = [0.01, 0.02, 0.03, -0.01, 0.05, -0.02, 0.04, 0.00]
    s = hl.summarize(synthetic_results(errors, TRUTH), TRUTH)
    mean_err = np.mean(errors)
    assert s.per_param["a"].relative_error == pytest.approx(mean_err / 0.4, rel=1e-12)
    assert s.per_param["beta"].relative_error == pytest.approx(mean_err / 0.15, rel=1e-12)


# ---------------------------------------------------------------------------
# normality statistics


def test_jarque_bera_pvalue_frozen_pairs():
    assert hl.jarque_bera_pvalue(6.5162) == pytest.approx(0.0385, abs=1e-3)
    assert hl.jarque_bera_pvalue(2.9528) == pytest.approx(0.2285, abs=1e-3)
    # chi-square(2) survival is exactly exp(-stat/2)
    for stat in (0.3, 1.7, 8.1):
        assert hl.jarque_bera_pvalue(stat) == pytest.approx(math.exp(-stat / 2), rel=1e-14)


def test_jarque_bera_pvalue_monotone():
    stats_grid = np.linspace(0.0, 20.0, 50)
    ps = [hl.jarque_bera_pvalue(s) for s in stats_grid]
    assert all(p1 > p2 for p1, p2 in zip(ps, ps[1:]))


def test_jarque_bera_mesokurtic_sample():
    # symmetric 8-point sample engineered to have kurtosis exactly 3
    c = math.sqrt(9 + 4 * math.sqrt(6))
    sample = np.array([-c, -1.0, -1.0, -1.0, 1.0, 1.0, 1.0, c])
    stat, p = hl.jarque_bera(sample)
    assert stat == pytest.approx(0.0, abs=1e-12)
    assert p == pytest.approx(1.0, abs=1e-12)


def test_jarque_bera_sample_size_guard():
    with pytest.raises(hl.InsufficientData):
        hl.jarque_bera(np.arange(7.0))


def test_anderson_darling_affine_invariance():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(500)
    s0, p0 = hl.anderson_darling(x)
    s1, p1 = hl.anderson_darling(3.7 * x - 2.1)
    assert abs(s0 - s1) <= 1e-10
    assert abs(p0 - p1) <= 1e-8


def test_anderson_darling_quantile_grid_sample():
    # points placed exactly at normal quantiles: as normal as n=100 gets
    grid = stats.norm.ppf((np.arange(1, 101) - 0.5) / 100)
    stat, p = hl.anderson_darling(grid)
    assert stat < 0.05
    assert p > 0.99


def test_anderson_darling_guards():
    with pytest.raises(hl.TiesDegenerate):
        hl.anderson_darling(np.full(20, 3.0))
    with pytest.raises(hl.InsufficientData):
        hl.anderson_darling(np.arange(7.0))


@pytest.mark.parametrize("stat", [math.nan, -math.inf, -0.5, True, False, "a", None],
                         ids=repr)
def test_pvalues_refuse_a_statistic_that_is_not_a_number_above_zero(stat):
    with pytest.raises(hl.InvalidArgument, match="^Jarque-Bera statistic must be a number >= 0"):
        hl.jarque_bera_pvalue(stat)
    with pytest.raises(hl.InvalidArgument,
                       match="^Anderson-Darling statistic must be a number >= 0"):
        hl.anderson_darling_pvalue(stat, 10)


@pytest.mark.parametrize("n", [0, -3, 2.0, True, "10", None], ids=repr)
def test_anderson_darling_pvalue_refuses_a_sample_size_below_one(n):
    with pytest.raises(hl.InvalidArgument, match="^n must be an integer >= 1"):
        hl.anderson_darling_pvalue(1.0, n)


def test_anderson_darling_published_pvalue_points():
    # reference (statistic, p) pairs for the estimated-parameters case, n=1e4
    for stat, p_ref in [(0.34486, 0.4857), (0.62481, 0.1037),
                        (0.34078, 0.4962), (0.35232, 0.467)]:
        assert hl.anderson_darling_pvalue(stat, 10_000) == pytest.approx(p_ref, abs=5e-4)


def test_anderson_darling_pvalue_tail_stays_small():
    # the tail branch's parabola turns upward near A*^2 = 153.5; past it the
    # p-value used to climb back to 1 (at 350) and overflow (from 401.7)
    vertex = 5.709 / (2 * 0.0186)
    floor = math.exp(1.2937 - 5.709 * vertex + 0.0186 * vertex * vertex)
    for stat in (350.0, 402.0, 1e4, 1e300, math.inf):
        assert hl.anderson_darling_pvalue(stat, 1000) == floor
    assert 0.0 < floor < 1e-180


def test_anderson_darling_pvalue_non_increasing():
    # fine near the branch boundaries (0.2, 0.34, 0.6), coarse beyond
    grid = np.concatenate([np.linspace(0.0, 2.0, 40_001), np.linspace(2.0, 1e4, 20_001)])
    for n in (8, 1000):
        ps = np.array([hl.anderson_darling_pvalue(s, n) for s in grid])
        assert np.all(np.diff(ps) <= 0.0)
        assert np.all((ps >= 0.0) & (ps <= 1.0))


def test_anderson_darling_calibration_sweep():
    """Under the null the p-values should be roughly uniform; this pins the
    piecewise approximation constants."""
    rng = np.random.default_rng(314)
    ps = np.array([hl.anderson_darling(rng.standard_normal(10_000))[1]
                   for _ in range(200)])
    ks = np.max(np.abs(np.sort(ps) - (np.arange(1, 201) - 0.5) / 200))
    assert ks <= 0.1


# the grid of the log Phi tests: the middle, both switches between formulas
# (-1 and -37.5), the asymptotic series below -37.5, and the upper tail,
# where the value underflows to subnormals and then to -0.0
LOG_NDTR_GRID = np.linspace(-60.0, 40.0, 4001)


def kernel_or_skip():
    k = kernel.lane_kernel()
    if k is None:
        pytest.skip("the lane kernel does not build here")
    return k


@pytest.mark.parametrize("route", ["kernel", "python"])
def test_log_ndtr_is_scipys_log_ndtr(route, monkeypatch):
    """Within 1e-13 relative; below the smallest normal double a value holds
    no relative precision, and scipy flushes it to zero."""
    from scipy.special import log_ndtr

    if route == "kernel":
        kernel_or_skip()
    else:
        monkeypatch.setattr(kernel, "lane_kernel", lambda: None)
    got = simulate.log_ndtr(LOG_NDTR_GRID)
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, log_ndtr(LOG_NDTR_GRID), rtol=1e-13,
                               atol=np.finfo(float).smallest_normal)
    ends = simulate.log_ndtr(np.array(-math.inf)), simulate.log_ndtr(math.inf)
    assert [e.shape for e in ends] == [(), ()]
    assert ends[0] == -math.inf and ends[1] == 0.0


def test_log_ndtr_has_the_same_bits_in_the_kernel_and_in_python(monkeypatch):
    k = kernel_or_skip()
    z = LOG_NDTR_GRID.reshape(4001, 1)
    got = simulate.log_ndtr(z)
    monkeypatch.setattr(kernel, "lane_kernel", lambda: None)
    want = simulate.log_ndtr(z)
    assert got.shape == want.shape == z.shape
    assert got.tobytes() == want.tobytes() == k.log_ndtr(LOG_NDTR_GRID).tobytes()


def test_log_ndtr_refuses_what_is_not_a_number():
    with pytest.raises(hl.InvalidArgument, match="^log_ndtr needs real numbers: "):
        simulate.log_ndtr(["a", "b"])


# only scipy's statistic is read, not the p-value the warning is about
@pytest.mark.filterwarnings("ignore:As of SciPy 1.17:FutureWarning")
def test_anderson_darling_of_an_outlier_beyond_the_series_switch():
    """One value at about z = -44, where erfc underflows: a finite statistic,
    scipy's within 1e-8."""
    x = np.random.default_rng(8).standard_normal(2000) * 1e-3
    x[5] = -1e3
    z = (x - x.mean()) / x.std(ddof=1)
    assert z.min() < -40.0
    stat, p = hl.anderson_darling(x)
    assert math.isfinite(stat) and 0.0 <= p < 1e-100
    assert stat == pytest.approx(stats.anderson(x, dist="norm").statistic, rel=1e-8)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("statistic", [
    hl.jarque_bera, hl.anderson_darling, lambda x: hl.histogram_overlay(x, 1.0),
], ids=["jarque_bera", "anderson_darling", "histogram_overlay"])
def test_statistics_refuse_a_non_finite_sample(statistic, bad):
    x = np.random.default_rng(3).standard_normal(20)
    x[7], x[12] = bad, math.nan
    with pytest.raises(hl.NonFiniteSample, match=r"at index 7$"):
        statistic(x)
    assert issubclass(hl.NonFiniteSample, ValueError)


@pytest.mark.parametrize("statistic, test", [
    (hl.jarque_bera, "Jarque-Bera"), (hl.anderson_darling, "Anderson-Darling"),
    (lambda x: hl.histogram_overlay(x, 1.0), "histogram"),
], ids=["jarque_bera", "anderson_darling", "histogram_overlay"])
def test_statistics_refuse_a_sample_of_other_than_numbers(statistic, test):
    for sample in (["a"] * 20, "abc"):
        with pytest.raises(hl.InvalidArgument, match=f"^{test} needs a sample of real numbers: "):
            statistic(sample)
    assert issubclass(hl.InvalidArgument, ValueError)


@pytest.mark.parametrize("statistic, scale", [
    (hl.jarque_bera, 1e100), (hl.jarque_bera, 1e300), (hl.jarque_bera, 1e307),
    (hl.anderson_darling, 1e300), (hl.anderson_darling, 1e307),
    (hl.jarque_bera, 1e-160), (hl.jarque_bera, 1e-200), (hl.anderson_darling, 1e-160),
])
def test_statistics_of_a_sample_whose_moments_overflow_or_underflow(statistic, scale):
    """A finite sample whose fourth powers or squares overflow, or underflow,
    gives the statistic of the unscaled sample; it used to give NaN, p =
    1.3e-19 for a normal sample, or a bare ZeroDivisionError.  Scaled by a
    power of two, it gives the same bits."""
    x = np.random.default_rng(3).standard_normal(20)
    want = statistic(x)
    assert statistic(x * scale) == pytest.approx(want, rel=1e-12)
    assert statistic(x * 2.0 ** 1000) == statistic(x * 2.0 ** -1000) == want


@pytest.mark.parametrize("value", [0.1, 0.3, 3.0, -7.0, 1e-300])
def test_a_constant_sample_has_no_spread_whatever_its_mean_rounds_to(value):
    """The mean of 20 copies of 0.1 rounds to 0.10000000000000002, and the
    deviations from it are +-1.4e-17: they gave a Jarque-Bera of 6.67 (p =
    0.036) and an Anderson-Darling p of 1.3e-47.  A constant sample takes
    the zero-spread outcome, as 20 copies of 3.0 always did."""
    x = np.full(20, value)
    assert all(map(math.isnan, hl.jarque_bera(x)))
    assert all(map(math.isnan, mc._skew_excess_kurtosis(x)))
    with pytest.raises(hl.TiesDegenerate):
        hl.anderson_darling(x)


# ---------------------------------------------------------------------------
# histogram records


def test_histogram_overlay_matches_normal_density():
    rng = np.random.default_rng(21)
    sample = rng.normal(0.0, math.sqrt(1.28), 4000)
    h = hl.histogram_overlay(sample, 1.28)
    assert len(h.bin_centers) == 60 and len(h.density) == 60
    want = stats.norm.pdf(h.bin_centers, 0.0, math.sqrt(1.28))
    np.testing.assert_allclose(h.overlay, want, rtol=1e-12)
    assert np.max(h.overlay) == pytest.approx((2 * math.pi * 1.28) ** -0.5, abs=2e-3)


def test_histogram_density_normalization():
    rng = np.random.default_rng(22)
    sample = np.clip(rng.normal(0.0, 1.0, 3000), -3.0, 3.0)
    h = hl.histogram_overlay(sample, 1.0)
    assert np.sum(h.density) * h.bin_width == pytest.approx(h.in_range_fraction, abs=1e-12)
    # the clipped sample sits entirely inside the 4-sigma window
    assert h.in_range_fraction == pytest.approx(1.0, abs=1e-12)

    # plant outliers far outside the window: the integral tracks the fraction
    spiked = np.concatenate([sample, [50.0, -60.0, 70.0]])
    h2 = hl.histogram_overlay(spiked, 1.0)
    assert h2.in_range_fraction == pytest.approx(3000 / 3003, rel=1e-12)
    assert np.sum(h2.density) * h2.bin_width == pytest.approx(3000 / 3003, rel=1e-12)


def test_histogram_guards():
    with pytest.raises(hl.DegenerateSample):
        hl.histogram_overlay(np.full(10, 1.0), 1.0)
    with pytest.raises(hl.DegenerateSample):
        hl.histogram_overlay(np.array([1.0]), 1.0)
    for variance in (0.0, math.nan, math.inf, True, np.True_, None, "a"):
        with pytest.raises(hl.DegenerateSample, match="finite number > 0"):
            hl.histogram_overlay(np.random.default_rng(0).normal(size=40), variance)


# ---------------------------------------------------------------------------
# covariance deviation report


def fake_summary(n, cov_norm, cov_scaled):
    return hl.McSummary(n_results=n, truth=TRUTH, per_param={},
                        mean_y_terminal=1.3, mean_x_terminal_over_t=-0.1,
                        cov_normalized=cov_norm, cov_scaled=cov_scaled)


def test_covariance_check_zero_deviation_on_exact_match():
    theory = hl.asymptotic_covariance(hl.canonical_params())
    s_scaled = np.kron(np.asarray(theory.s_matrix), np.eye(2))
    summary = fake_summary(150, np.asarray(theory.sigma_matrix), s_scaled)
    rep = hl.covariance_check(summary, theory)
    assert rep.max_normalized_dev == 0.0
    assert rep.max_scaled_dev == 0.0
    assert not rep.low_confidence


def test_covariance_check_flags_small_runs():
    theory = hl.asymptotic_covariance(hl.canonical_params())
    s_scaled = np.kron(np.asarray(theory.s_matrix), np.eye(2))
    summary = fake_summary(40, np.asarray(theory.sigma_matrix), s_scaled)
    assert hl.covariance_check(summary, theory).low_confidence


def test_covariance_check_scales_deviations():
    theory = hl.asymptotic_covariance(hl.canonical_params())
    sig = np.asarray(theory.sigma_matrix).copy()
    sig[0, 0] *= 1.10                     # 10% off on the first diagonal entry
    s_scaled = np.kron(np.asarray(theory.s_matrix), np.eye(2))
    rep = hl.covariance_check(fake_summary(150, sig, s_scaled), theory)
    assert rep.normalized_dev[0][0] == pytest.approx(0.10, rel=1e-10)
    assert rep.max_scaled_dev == 0.0


def test_covariance_check_refuses_what_is_not_a_summary_and_a_theory():
    theory = hl.asymptotic_covariance(hl.canonical_params())
    for args, name in (((None, None), "summary"), ((None, theory), "summary"),
                       ((fake_summary(150, np.eye(4), np.eye(4)), None), "theory")):
        with pytest.raises(hl.InvalidArgument, match=f"{name} must be an"):
            hl.covariance_check(*args)
    # an accepted call keeps its bits
    s_scaled = np.kron(np.asarray(theory.s_matrix), np.eye(2)) + 0.01
    rep = hl.covariance_check(fake_summary(150, np.asarray(theory.sigma_matrix) * 1.25, s_scaled),
                              theory)
    assert (rep.max_normalized_dev.hex(), rep.max_scaled_dev.hex()) == (
        "0x1.0000000000002p-2", "0x1.c71c71c71c71dp-4")


# ---------------------------------------------------------------------------
# object arguments


def small_functionals():
    path = hl.simulate_xy(hl.canonical_params(), hl.TimeGrid(5.0, 50), hl.Scheme.DISRE,
                          hl.SeedLineage(3, 0))
    return hl.path_functionals(path)


# each function, the argument it refuses, and a call with that argument
OBJECT_ARGUMENTS = {
    "stationary_moments": ("params", hl.stationary_moments),
    "asymptotic_covariance": ("params", hl.asymptotic_covariance),
    "covariance_sandwich": ("params", hl.covariance_sandwich),
    "classify_regime": ("params", hl.classify_regime),
    "conditional_mean_y": ("params", lambda bad: hl.conditional_mean_y(bad, 0.2, 0.0, 1.0)),
    "conditional_mean_x": ("params", lambda bad: hl.conditional_mean_x(bad, 0.2, 0.1, 0.0, 1.0)),
    "ito_cross_check": ("f", lambda bad: hl.ito_cross_check(bad, 0.4)),
    "lse_from_functionals": ("f", hl.lse_from_functionals),
    "failure_reasons": ("f", hl.failure_reasons),
    "path_functionals": ("path", hl.path_functionals),
    "write_path_csv": ("path_obj", lambda bad: hl.write_path_csv(bad, io.StringIO())),
    "run_replicates": ("config", hl.run_replicates),
    "report_payload": ("run", lambda bad: hl.report_payload(bad, None, None)),
    "write_report": ("run", lambda bad: hl.write_report("report", bad)),
    "summarize": ("results", lambda bad: hl.summarize(bad, hl.canonical_params())),
    "normalized_error": ("est", lambda bad: hl.normalized_error(bad, hl.canonical_params())),
    "random_scaling_transform": ("est", lambda bad: hl.random_scaling_transform(
        bad, hl.canonical_params(), small_functionals())),
}


@pytest.mark.parametrize("function", sorted(OBJECT_ARGUMENTS))
@pytest.mark.parametrize("bad", [None, "x"])
def test_object_arguments_of_another_type_are_refused(function, bad, tmp_path, monkeypatch):
    """InvalidArgument naming the argument, and nothing written."""
    name, call = OBJECT_ARGUMENTS[function]
    monkeypatch.chdir(tmp_path)
    with pytest.raises(hl.InvalidArgument, match=f"^{name} must be an? [A-Z]"):
        call(bad)
    assert not any(tmp_path.iterdir())
