"""Acceptance gate: every stated criterion runs here at its stated tolerance,
one test (and one printed PASS/FAIL line) per criterion.

The heavy desk-scale experiment (2000 replicates at T=2000) is simulated once
and shared by the covariance and normality criteria.  All runs are seeded; the
numbers below are stable across machines."""

import math
import time

import numpy as np
import pytest

import hestonlab as hl
from hestonlab.simulate import advance_variance

MASTER_SEED = 2024
PARAMS = hl.canonical_params()

LIMIT_DIAG = (1.28, 0.84, 0.72, 0.4725)
SCALED_DIAG = (0.16, 0.16, 0.09, 0.09)


def simulate_rows(params, grid, scheme, eta):
    """Whole variance paths, one per row of ``eta``, in one block; and each
    row's abort index (-1 for none)."""
    y, _, aborted = advance_variance(params, grid.dt, scheme, eta)
    return y, np.where(aborted > 0, aborted, -1)


def _line(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} [{'PASS' if ok else 'FAIL'}] {label}: {detail}")


@pytest.fixture(scope="module")
def desk_run():
    cfg = hl.ExperimentConfig(params=PARAMS, grid=hl.TimeGrid(2000.0, 20_000),
                              scheme=hl.Scheme.DISRE, replicates=2000,
                              master_seed=MASTER_SEED)
    t0 = time.perf_counter()
    run = hl.run_replicates(cfg)
    elapsed = time.perf_counter() - t0
    summary = hl.summarize(run.results, PARAMS)
    return run, summary, elapsed


def test_criterion_1_long_run_means():
    cfg = hl.ExperimentConfig(params=PARAMS, grid=hl.TimeGrid(300.0, 3000),
                              scheme=hl.Scheme.DISRE, replicates=1000,
                              master_seed=MASTER_SEED)
    t0 = time.perf_counter()
    run = hl.run_replicates(cfg)
    elapsed = time.perf_counter() - t0
    summary = hl.summarize(run.results, PARAMS)

    mean_y = summary.mean_y_terminal
    mean_x_rate = summary.mean_x_terminal_over_t
    y_ok = abs(mean_y - 4.0 / 3.0) <= 0.03 * (4.0 / 3.0)
    x_ok = abs(mean_x_rate - (-0.1)) <= 0.015
    t_ok = elapsed <= 60.0
    ok = y_ok and x_ok and t_ok
    _line(1, "long-run means", ok,
          f"mean_yT={mean_y:.5f} (target 1.33333 +-3%), "
          f"mean_xT/T={mean_x_rate:.5f} (target -0.1 +-0.015), {elapsed:.1f}s")
    assert y_ok and x_ok
    assert t_ok


def test_criterion_2_normalized_error_covariance(desk_run):
    run, summary, elapsed = desk_run
    cov = np.asarray(summary.cov_normalized)
    diag_dev = np.abs(np.diag(cov) - LIMIT_DIAG) / LIMIT_DIAG
    cross = cov[0, 1]
    cross_dev = abs(cross - 0.96) / 0.96
    diag_ok = bool(np.all(diag_dev <= 0.15))
    cross_ok = cross_dev <= 0.20
    t_ok = elapsed <= 600.0
    ok = diag_ok and cross_ok and t_ok
    _line(2, "sqrt(T)-error covariance", ok,
          f"diag={np.diag(cov).round(4).tolist()} dev<={diag_dev.max():.3f} "
          f"(<=0.15), cov(a,b)={cross:.4f} dev={cross_dev:.3f} (<=0.20), "
          f"{elapsed:.1f}s (<=600)")
    assert diag_ok and cross_ok
    assert t_ok


def test_criterion_3_random_scaling_covariance(desk_run):
    _, summary, _ = desk_run
    cov = np.asarray(summary.cov_scaled)
    diag_dev = np.abs(np.diag(cov) - SCALED_DIAG) / SCALED_DIAG
    cross_entries = (float(cov[0, 2]), float(cov[1, 3]))
    cross_dev = max(abs(c - 0.024) for c in cross_entries)
    diag_ok = bool(np.all(diag_dev <= 0.15))
    cross_ok = cross_dev <= 0.02
    ok = diag_ok and cross_ok
    _line(3, "random-scaling covariance", ok,
          f"diag={np.diag(cov).round(4).tolist()} dev<={diag_dev.max():.3f} "
          f"(<=0.15), cross={[round(c, 4) for c in cross_entries]} "
          f"dev={cross_dev:.4f} (<=0.02 of 0.024)")
    assert ok


def test_criterion_4_consistency_trend():
    horizons = (500.0, 2000.0, 8000.0)
    medians = np.empty((3, 4))
    for i, t_h in enumerate(horizons):
        cfg = hl.ExperimentConfig(params=PARAMS,
                                  grid=hl.TimeGrid(t_h, int(10 * t_h)),
                                  scheme=hl.Scheme.DISRE, replicates=50,
                                  master_seed=MASTER_SEED)
        run = hl.run_replicates(cfg)
        errs = np.abs(run.results.estimates
                      - np.array([PARAMS.a, PARAMS.b, PARAMS.alpha, PARAMS.beta]))
        medians[i] = np.median(errs, axis=0)
    monotone = bool(np.all(medians[1:] <= medians[:-1] + 1e-15))
    final_ok = bool(np.all(medians[-1] < 0.05))
    ok = monotone and final_ok
    _line(4, "consistency trend", ok,
          f"median |error| per T={list(horizons)}: "
          f"{[row.round(4).tolist() for row in medians]}; "
          f"nonincreasing={monotone}, final<0.05={final_ok}")
    assert ok


def test_criterion_5_jb_pvalue_oracle():
    p1 = hl.jarque_bera_pvalue(6.5162)
    p2 = hl.jarque_bera_pvalue(2.9528)
    ok = abs(p1 - 0.0385) <= 0.001 and abs(p2 - 0.2285) <= 0.001
    _line(5, "JB p-value oracle", ok,
          f"p(6.5162)={p1:.5f} (0.0385+-0.001), p(2.9528)={p2:.5f} (0.2285+-0.001)")
    assert ok


def test_criterion_6_exact_algebra():
    path = hl.XYPath(hl.TimeGrid(2.0, 2), np.array([1.0, 2.0, 2.0]),
                     np.array([0.0, 0.5, 0.5]))
    est = hl.lse_from_functionals(hl.path_functionals(path))
    fixture_gap = float(np.max(np.abs(est.vector() - (2.0, 1.0, 1.0, 0.5))))

    rng = np.random.default_rng(42)
    route_gap = 0.0
    abel_gap = 0.0
    for _ in range(100):
        n = int(rng.integers(50, 400))
        dt = float(rng.uniform(0.01, 0.5))
        y = np.abs(rng.normal(1.0, 0.5, n + 1)) + 0.05
        x = np.cumsum(rng.normal(0.0, 0.3, n + 1))
        f = hl.path_functionals(hl.XYPath(hl.TimeGrid(n * dt, n), y, x))
        plug = hl.lse_from_functionals(f).vector()
        a_hat, b_hat = hl.lse_discrete_ab(y, dt)
        al_hat, be_hat = hl.lse_discrete_alphabeta(y, x, dt)
        ne = np.array([a_hat, b_hat, al_hat, be_hat])
        route_gap = max(route_gap, float(np.max(np.abs(plug - ne)
                                                / np.maximum(1.0, np.abs(ne)))))
        lhs = f.i3 + 0.5 * f.qv_y
        rhs = 0.5 * (f.y_terminal**2 - f.y0**2)
        abel_gap = max(abel_gap, abs(lhs - rhs) / max(1.0, f.qv_y, abs(f.i3)))

    direct = np.asarray(hl.asymptotic_covariance(PARAMS).sigma_matrix)
    sand = np.asarray(hl.covariance_sandwich(PARAMS).sigma_matrix)
    sandwich_gap = float(np.max(np.abs(sand - direct) / np.abs(direct).max()))

    ok = (fixture_gap <= 1e-12 and route_gap <= 1e-12
          and abel_gap <= 5e-13 and sandwich_gap <= 1e-12)
    _line(6, "exact algebra suite", ok,
          f"fixture={fixture_gap:.1e}, routes={route_gap:.1e}, "
          f"abel={abel_gap:.1e}, sandwich={sandwich_gap:.1e} (all <=1e-12)")
    assert ok


def test_criterion_7_scheme_invariants():
    grid = hl.TimeGrid(20.0, 200)
    rng = np.random.default_rng(MASTER_SEED)
    eta = rng.standard_normal((1000, 200))
    y_se, failed_se = simulate_rows(PARAMS, grid, hl.Scheme.SE, eta)
    y_di, failed_di = simulate_rows(PARAMS, grid, hl.Scheme.DISRE, eta)
    se_ok = bool(np.all(failed_se < 0) and np.min(y_se) >= 0.0)
    disre_pos_ok = bool(np.all(failed_di < 0) and np.min(y_di) > 0.0)

    # implicit-equation residual, replayed step by step from the same draws
    lev = 0.5 * PARAMS.a - 0.125 * PARAMS.sigma1**2
    dt = grid.dt
    root = math.sqrt(dt)
    resid_max = 0.0
    for row in range(0, 1000, 100):
        z = np.sqrt(y_di[row])
        resid = z[1:] - z[:-1] - ((lev / z[1:] - 0.5 * PARAMS.b * z[1:]) * dt
                                  + 0.5 * PARAMS.sigma1 * root * eta[row])
        resid_max = max(resid_max, float(np.max(np.abs(resid))))
    resid_ok = resid_max <= 1e-10

    # noiseless reduction
    zero = hl.GaussianDraws(eta=np.zeros(100), zeta=np.zeros(100))
    g100 = hl.TimeGrid(10.0, 100)
    ode = np.empty(101)
    ode[0] = PARAMS.y0
    for k in range(100):
        ode[k + 1] = ode[k] + (PARAMS.a - PARAMS.b * ode[k]) * g100.dt
    direct_ok = all(
        np.array_equal(hl.simulate_y(PARAMS, g100, s, zero), ode)
        for s in (hl.Scheme.AVE, hl.Scheme.TE, hl.Scheme.SE))
    z_drift = [math.sqrt(PARAMS.y0)]
    for _ in range(100):
        z = z_drift[-1]
        z_drift.append(z + (lev / z - 0.5 * PARAMS.b * z) * g100.dt)
    desre_gap = float(np.max(np.abs(
        hl.simulate_y(PARAMS, g100, hl.Scheme.DESRE, zero) - np.array(z_drift) ** 2)))
    y_imp = hl.simulate_y(PARAMS, g100, hl.Scheme.DISRE, zero)
    z_imp = np.sqrt(y_imp)
    disre_noiseless = float(np.max(np.abs(
        z_imp[1:] - z_imp[:-1] - (lev / z_imp[1:] - 0.5 * PARAMS.b * z_imp[1:]) * g100.dt)))
    noiseless_ok = direct_ok and desre_gap <= 1e-12 and disre_noiseless <= 1e-9

    # absence of a sign invariant for AVE under large noise
    p_noisy = hl.ModelParams(a=0.4, b=0.3, alpha=0.1, beta=0.15, sigma1=1.5,
                             sigma2=0.3, rho=0.2, y0=0.01, x0=0.1)
    eta_noisy = np.random.default_rng(0).standard_normal((200, 100))
    y_ave, _ = simulate_rows(p_noisy, hl.TimeGrid(10.0, 100), hl.Scheme.AVE, eta_noisy)
    ave_neg_ok = bool(np.min(y_ave) < 0.0)

    ok = se_ok and disre_pos_ok and resid_ok and noiseless_ok and ave_neg_ok
    _line(7, "scheme invariants", ok,
          f"SE>=0 {se_ok}, DISRE>0 {disre_pos_ok}, residual {resid_max:.1e} "
          f"(<=1e-10), noiseless {noiseless_ok}, AVE negative seen {ave_neg_ok}")
    assert ok


def test_criterion_8_desk_scale_normality(desk_run):
    run, _, _ = desk_run
    normalized = run.results.normalized
    p_values = {}
    for idx, name in enumerate(("a", "b", "alpha", "beta")):
        _, p = hl.anderson_darling(normalized[:, idx])
        p_values[name] = p
    # the a and b components carry a visible finite-horizon bias at this scale;
    # they are reported but only alpha and beta are gated
    ok = p_values["alpha"] > 0.01 and p_values["beta"] > 0.01
    _line(8, "desk-scale normality", ok,
          "AD p: " + ", ".join(f"{k}={v:.4f}" for k, v in p_values.items())
          + " (gate: alpha, beta > 0.01)")
    assert ok
