"""Replicate harness and summary statistics: determinism, failure accounting,
normality tests, histogram records, covariance deviation reports."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import hestonlab as hl
import hestonlab.montecarlo as mc


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
    with pytest.raises(ValueError):
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


def test_config_mapping_round_trip():
    for cfg in (small_config(), hl.preset_config("desk")):
        mapping = cfg.to_mapping()
        assert tuple(mapping) == mc.CONFIG_KEYS
        assert hl.ExperimentConfig.from_mapping(mapping) == cfg
        as_text = {key: str(value) for key, value in mapping.items()}
        assert hl.ExperimentConfig.from_mapping(as_text) == cfg
    mapping = small_config().to_mapping()
    for key, value in (("N", 500.7), ("N", "500.7"), ("replicates", 12.0),
                       ("seed", "9.5"), ("seed", None), ("a", None), ("a", "fast")):
        with pytest.raises(hl.ConfigParseError, match=f"'{key}'"):
            hl.ExperimentConfig.from_mapping({**mapping, key: value})


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
        monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", budget)
        plans.append(mc._lane_plan(24, 1))
    assert plans == [(8, 128), (24, 640)]
    for cfg in (small_config(replicates=24), edge_config()):
        records = []
        for budget in (1 << 10, 1 << 14):
            monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", budget)
            for threads in (1, 2):
                records.append(run_record(hl.run_replicates(cfg, threads=threads)))
        assert all(rec == records[0] for rec in records[1:])


def test_aborted_lanes_draw_nothing_after_their_block(monkeypatch):
    cfg = edge_config()
    block = 128
    monkeypatch.setattr(mc, "_BLOCK_ELEMENTS", cfg.replicates * block)
    assert mc._lane_plan(cfg.replicates, 1) == (cfg.replicates, block)
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

    monkeypatch.setattr(mc, "lane_generators", counting_generators)
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
        assert mc._lane_plan(cfg.replicates, 1)[1] <= 2000
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


def test_overflowing_variance_fails_replicates_not_silently():
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
    index, f, failures = mc._run_lanes(cfg, 0, 12, 2304)
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
    with pytest.raises(hl.DegenerateSample):
        hl.histogram_overlay(np.random.default_rng(0).normal(size=40), 0.0)


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
