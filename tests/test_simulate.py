"""Path generation: grids, the five variance-step kernels, joint (Y, X)
simulation, draw lineage, and CSV round-trips."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hestonlab as hl
from hestonlab.simulate import advance_variance, variance_state

P = hl.canonical_params()
SQRT_DT = math.sqrt(0.1)

# frozen against an 80-digit arbitrary-precision evaluation of the two
# square-root-space kernels at the canonical point (y=0.2, dt=0.1, eta=0)
DESRE_Z_STEP = 0.48075461516245477
DISRE_Z_ROOT = 0.4777261896044577


def zero_draws(n):
    return hl.GaussianDraws(eta=np.zeros(n), zeta=np.zeros(n))


def simulate_rows(params, grid, scheme, eta):
    """Whole variance paths, one per row of ``eta``, in one block; and each
    row's abort index (-1 for none)."""
    rows = eta.shape[0]
    failed = np.full(rows, -1, dtype=np.int64)
    y, _ = advance_variance(params, grid.dt, scheme, variance_state(params, scheme, rows),
                            eta, params.y0, failed)
    return y, failed


# ---------------------------------------------------------------------------
# time grid


def test_time_grid_basics():
    g = hl.TimeGrid(10.0, 100)
    assert g.dt == pytest.approx(0.1, rel=1e-15)
    t = g.times()
    assert len(t) == 101
    assert t[0] == 0.0 and t[-1] == 10.0


@pytest.mark.parametrize("horizon,steps", [(0.0, 10), (-1.0, 10), (5.0, 0), (5.0, -3)])
def test_time_grid_rejects_bad_inputs(horizon, steps):
    with pytest.raises(ValueError):
        hl.TimeGrid(horizon, steps)


@pytest.mark.parametrize("horizon,steps", [
    (math.nan, 10), (math.inf, 10), (5.0, math.nan), (5.0, math.inf), (5.0, 2.5), (5.0, "10"),
])
def test_time_grid_rejects_non_finite_and_fractional_inputs(horizon, steps):
    with pytest.raises(hl.InvalidGrid):
        hl.TimeGrid(horizon, steps)
    assert issubclass(hl.InvalidGrid, hl.HestonLabError)


def test_time_grid_stores_integral_steps_as_int():
    grid = hl.TimeGrid(10.0, 10.0)
    assert grid.steps == 10 and type(grid.steps) is int
    path = hl.simulate_xy(P, grid, hl.Scheme.DISRE, hl.SeedLineage(1, 0))
    assert path.y.shape == (11,)


def test_scheme_parse():
    assert hl.Scheme.parse("DISRE") is hl.Scheme.DISRE
    assert hl.Scheme.parse("ave") is hl.Scheme.AVE
    with pytest.raises(ValueError):
        hl.Scheme.parse("euler")


# ---------------------------------------------------------------------------
# step kernels


def test_ave_drift_step():
    assert hl.step_ave(P, 0.2, 0.1, 0.0) == pytest.approx(0.234, rel=1e-14)


def test_ave_zero_state_kills_diffusion():
    assert hl.step_ave(P, 0.0, 0.1, 5.0) == pytest.approx(0.4 * 0.1, rel=1e-15)


def test_ave_negative_state_uses_absolute_value():
    got = hl.step_ave(P, -0.1, 0.1, 1.0)
    want = -0.1 + (0.4 - 0.3 * (-0.1)) * 0.1 + 0.4 * math.sqrt(0.1) * SQRT_DT
    assert got == pytest.approx(want, rel=1e-14)
    assert got == pytest.approx(-0.017, abs=1e-15)


def test_te_negative_state_is_pure_drift():
    got = hl.step_te(P, -0.1, 0.1, 3.0)
    assert got == pytest.approx(-0.1 + 0.043, rel=1e-14)


def test_te_agrees_with_ave_without_noise():
    assert hl.step_te(P, 0.2, 0.1, 0.0) == hl.step_ave(P, 0.2, 0.1, 0.0)


def test_te_with_noise():
    want = 0.234 + 0.4 * math.sqrt(0.2) * SQRT_DT
    assert hl.step_te(P, 0.2, 0.1, 1.0) == pytest.approx(want, rel=1e-14)


def test_se_positive_argument():
    assert hl.step_se(P, 0.2, 0.1, 0.0) == pytest.approx(0.234, rel=1e-14)


def test_se_negates_negative_inner_value():
    inner = 0.2 + 0.034 + 0.4 * math.sqrt(0.2) * SQRT_DT * (-30.0)
    assert inner < 0
    assert hl.step_se(P, 0.2, 0.1, -30.0) == pytest.approx(-inner, rel=1e-14)


def test_se_nonnegative_randomized():
    rng = np.random.default_rng(99)
    y = rng.uniform(0.0, 5.0, 10**6)
    eta = rng.standard_normal(10**6)
    out = np.array([hl.step_se(P, float(yi), 0.1, float(e))
                    for yi, e in zip(y[:2000], eta[:2000])])
    assert np.all(out >= 0)
    # vectorized replica of the kernel for the full million
    inner = y + (P.a - P.b * y) * 0.1 + P.sigma1 * np.sqrt(y) * SQRT_DT * eta
    assert np.all(np.abs(inner) >= 0)


def test_se_rejects_negative_state():
    with pytest.raises(hl.NegativeInput):
        hl.step_se(P, -0.01, 0.1, 0.0)


def test_desre_drift_step_frozen_value():
    z0 = math.sqrt(0.2)
    got = hl.step_desre(P, z0, 0.1, 0.0)
    assert abs(got - DESRE_Z_STEP) < 5e-16
    want = z0 + ((0.2 - 0.02) / z0 - 0.15 * z0) * 0.1
    assert got == pytest.approx(want, rel=1e-15)


def test_desre_fixed_point():
    zstar = math.sqrt((P.a / 2 - P.sigma1**2 / 8) / (P.b / 2))
    got = hl.step_desre(P, zstar, 0.1, 0.0)
    assert got == pytest.approx(zstar, rel=1e-14)


def test_desre_feller_boundary_rejected():
    tight = hl.ModelParams(a=0.08, b=0.3, alpha=0.1, beta=0.15, sigma1=0.4,
                           sigma2=0.3, rho=0.2, y0=0.2, x0=0.1)
    with pytest.raises(hl.FellerViolated):
        hl.step_desre(tight, 0.5, 0.1, 0.0)
    with pytest.raises(hl.FellerViolated):
        hl.step_disre(tight, 0.5, 0.1, 0.0)


def test_disre_closed_root_and_residual():
    """The closed-form root satisfies the implicit recursion to machine
    precision; the frozen value pins the exact double."""
    z0 = math.sqrt(0.2)
    z1 = hl.step_disre(P, z0, 0.1, 0.0)
    assert abs(z1 - DISRE_Z_ROOT) < 5e-16
    assert z1**2 == pytest.approx(0.2282, abs=5e-4)
    resid = z1 - z0 - (((P.a / 2 - P.sigma1**2 / 8) / z1 - (P.b / 2) * z1) * 0.1)
    assert abs(resid) <= 1e-12


def test_disre_residual_randomized():
    rng = np.random.default_rng(99)
    z_prev = rng.uniform(0.05, 3.0, 10**5)
    eta = rng.standard_normal(10**5)
    dt = 0.1
    u = z_prev + 0.5 * P.sigma1 * math.sqrt(dt) * eta
    den = 2.0 + P.b * dt
    z_new = u / den + np.sqrt((u / den) ** 2 + (P.a - P.sigma1**2 / 4) * dt / den)
    resid = z_new - z_prev - (
        ((P.a / 2 - P.sigma1**2 / 8) / z_new - (P.b / 2) * z_new) * dt
        + 0.5 * P.sigma1 * math.sqrt(dt) * eta)
    assert np.max(np.abs(resid)) <= 1e-10
    # spot-check the scalar kernel against the vectorized replica
    for i in (0, 777, 99_999):
        assert hl.step_disre(P, float(z_prev[i]), dt, float(eta[i])) == z_new[i]


def test_disre_small_step_continuity():
    z0 = math.sqrt(0.2)
    gaps = [abs(hl.step_disre(P, z0, dt, 0.0) - z0) for dt in (1e-2, 1e-4, 1e-6, 1e-8)]
    assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-8


# ---------------------------------------------------------------------------
# variance path simulation


def test_single_step_paths():
    grid = hl.TimeGrid(0.1, 1)
    for scheme in (hl.Scheme.AVE, hl.Scheme.TE, hl.Scheme.SE):
        y = hl.simulate_y(P, grid, scheme, zero_draws(1))
        np.testing.assert_allclose(y, [0.2, 0.234], rtol=1e-14)
    y_desre = hl.simulate_y(P, grid, hl.Scheme.DESRE, zero_draws(1))
    assert y_desre[1] == pytest.approx(DESRE_Z_STEP**2, rel=1e-14)
    y_disre = hl.simulate_y(P, grid, hl.Scheme.DISRE, zero_draws(1))
    assert y_disre[1] == pytest.approx(DISRE_Z_ROOT**2, rel=1e-14)
    assert abs(y_disre[1] - 0.234) > 1e-3  # square-root-space schemes differ


def euler_ode(y0, a, b, dt, n):
    y = np.empty(n + 1)
    y[0] = y0
    for k in range(n):
        y[k + 1] = y[k] + (a - b * y[k]) * dt
    return y


def test_noiseless_reduction_direct_schemes():
    # with the draws zeroed, the three direct schemes ARE the Euler recursion
    grid = hl.TimeGrid(10.0, 100)
    ode = euler_ode(P.y0, P.a, P.b, grid.dt, 100)
    for scheme in (hl.Scheme.AVE, hl.Scheme.TE, hl.Scheme.SE):
        y = hl.simulate_y(P, grid, scheme, zero_draws(100))
        assert np.array_equal(y, ode)


def test_noiseless_reduction_sqrt_schemes():
    grid = hl.TimeGrid(10.0, 100)
    zs = [math.sqrt(P.y0)]
    lev = 0.5 * P.a - 0.125 * P.sigma1**2
    for _ in range(100):
        z = zs[-1]
        zs.append(z + (lev / z - 0.5 * P.b * z) * grid.dt)
    y_desre = hl.simulate_y(P, grid, hl.Scheme.DESRE, zero_draws(100))
    np.testing.assert_allclose(y_desre, np.array(zs) ** 2, rtol=1e-13)

    y_disre = hl.simulate_y(P, grid, hl.Scheme.DISRE, zero_draws(100))
    z = np.sqrt(y_disre)
    resid = z[1:] - z[:-1] - (lev / z[1:] - 0.5 * P.b * z[1:]) * grid.dt
    assert np.max(np.abs(resid)) <= 1e-9


def test_tiny_noise_trajectories_near_ode():
    """With the diffusion scaled to 1e-12 every scheme tracks the drift ODE.
    The square-root-space recursions discretize the same flow with an O(dt)
    offset, so they are compared on a fine grid."""
    p = hl.ModelParams(a=0.4, b=0.3, alpha=0.1, beta=0.15, sigma1=1e-12,
                       sigma2=0.3, rho=0.2, y0=0.2, x0=0.1)
    grid = hl.TimeGrid(1.0, 1000)
    ode = euler_ode(p.y0, p.a, p.b, grid.dt, 1000)
    for scheme in (hl.Scheme.AVE, hl.Scheme.TE, hl.Scheme.SE):
        y = hl.simulate_y(p, grid, scheme, zero_draws(1000))
        assert np.max(np.abs(y - ode)) < 1e-6

    n = 200_000
    fine = hl.TimeGrid(1.0, n)
    k = np.arange(n + 1)
    # closed form of the Euler recursion (geometric relaxation to a/b)
    ode_fine = p.a / p.b + (p.y0 - p.a / p.b) * (1.0 - p.b * fine.dt) ** k
    for scheme in (hl.Scheme.DESRE, hl.Scheme.DISRE):
        y = hl.simulate_y(p, fine, scheme, zero_draws(n))
        assert np.max(np.abs(y - ode_fine)) < 1e-6


def test_se_positivity_sweep():
    rng = np.random.default_rng(4242)
    eta = rng.standard_normal((1000, 200))
    y, failed = simulate_rows(P, hl.TimeGrid(20.0, 200), hl.Scheme.SE, eta)
    assert np.all(failed < 0)
    assert np.min(y) >= 0.0


def test_disre_positivity_sweep():
    rng = np.random.default_rng(4242)
    eta = rng.standard_normal((1000, 200))
    y, failed = simulate_rows(P, hl.TimeGrid(20.0, 200), hl.Scheme.DISRE, eta)
    assert np.all(failed < 0)
    assert np.min(y) > 0.0


def test_ave_goes_negative_under_large_noise():
    # documented non-invariant: AVE can leave the nonnegative half-line
    p = hl.ModelParams(a=0.4, b=0.3, alpha=0.1, beta=0.15, sigma1=1.5,
                       sigma2=0.3, rho=0.2, y0=0.01, x0=0.1)
    rng = np.random.default_rng(0)
    eta = rng.standard_normal((200, 100))
    y, _ = simulate_rows(p, hl.TimeGrid(10.0, 100), hl.Scheme.AVE, eta)
    assert np.min(y) < 0.0


def test_simulate_y_length_mismatch():
    with pytest.raises(hl.LengthMismatch):
        hl.simulate_y(P, hl.TimeGrid(1.0, 10), hl.Scheme.AVE, zero_draws(9))


def test_desre_aborts_on_nonpositive_z():
    draws = hl.GaussianDraws(eta=np.array([-30.0]), zeta=np.array([0.0]))
    with pytest.raises(hl.NonPositiveZ) as exc:
        hl.simulate_y(P, hl.TimeGrid(0.1, 1), hl.Scheme.DESRE, draws)
    assert exc.value.step == 1


# ---------------------------------------------------------------------------
# the step loop against plain Python recursions
#
# Each recursion is its scheme's formula from the module docstring of
# hestonlab.simulate, evaluated on Python floats from left to right.  IEEE
# arithmetic and math.sqrt round correctly, so every lane of the step loop
# must give exactly these bits.

NEAR_ZERO = hl.ModelParams(a=0.15, b=0.3, alpha=0.1, beta=0.15, sigma1=0.4,
                           sigma2=0.3, rho=0.2, y0=0.5, x0=0.1)


def python_recursion(scheme, p, dt):
    sq = math.sqrt(dt)
    if scheme is hl.Scheme.AVE:
        return lambda y, e: y + (p.a - p.b * y) * dt + p.sigma1 * math.sqrt(abs(y)) * sq * e
    if scheme is hl.Scheme.TE:
        return lambda y, e: (y + (p.a - p.b * y) * dt
                             + p.sigma1 * math.sqrt(max(y, 0.0)) * sq * e)
    if scheme is hl.Scheme.SE:
        return lambda y, e: abs(y + (p.a - p.b * y) * dt + p.sigma1 * math.sqrt(y) * sq * e)
    if scheme is hl.Scheme.DESRE:
        level = 0.5 * p.a - 0.125 * p.sigma1 ** 2
        return lambda z, e: z + (level / z - 0.5 * p.b * z) * dt + 0.5 * p.sigma1 * sq * e
    den = 2.0 + p.b * dt

    def disre(z, e):
        u = (z + 0.5 * p.sigma1 * sq * e) / den
        return u + math.sqrt(u * u + (p.a - 0.25 * p.sigma1 ** 2) * dt / den)

    return disre


def python_lanes(scheme, p, dt, eta):
    """Y after every step, each lane's final state, and each lane's abort index."""
    step = python_recursion(scheme, p, dt)
    steps, lanes = eta.shape
    y = np.empty((steps, lanes))
    final = np.empty(lanes)
    failed = np.full(lanes, -1)
    for lane in range(lanes):
        s = math.sqrt(p.y0) if scheme.uses_sqrt_state else p.y0
        for k in range(steps):
            if not math.isnan(s):
                s = step(s, float(eta[k, lane]))
                if scheme is hl.Scheme.DESRE and s <= 0.0:
                    failed[lane], s = k + 1, math.nan
            y[k, lane] = s * s if scheme.uses_sqrt_state else s
        final[lane] = s
    return y, final, failed


@pytest.mark.parametrize("blocks", [(128, 256), (200, 77)], ids=["on-tile", "inside-tile"])
@pytest.mark.parametrize("scheme", list(hl.Scheme), ids=lambda s: s.value)
def test_step_loop_matches_python_recursion(scheme, blocks):
    dt, lanes = 0.1, 5
    steps = sum(blocks)
    eta = np.random.default_rng(7).standard_normal((steps, lanes))
    # spikes that send the explicit square-root lanes 1, 2 and 3 below zero in
    # the middle of the first block, on its last step and on the first step of
    # the second block; the other schemes go negative or reflect there
    eta[40, 1] = eta[blocks[0] - 1, 2] = eta[blocks[0], 3] = -60.0
    want_y, want_final, want_failed = python_lanes(scheme, NEAR_ZERO, dt, eta)

    state = variance_state(NEAR_ZERO, scheme, lanes)
    failed = np.full(lanes, -1, dtype=np.int64)
    got = np.empty((steps, lanes))
    start = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in blocks:
            y, state = advance_variance(NEAR_ZERO, dt, scheme, state, eta[start:start + n].T,
                                        got[start - 1] if start else NEAR_ZERO.y0, failed, start)
            got[start:start + n] = y[:, 1:].T
            start += n

    assert np.array_equal(got, want_y, equal_nan=True)
    assert np.array_equal(state, want_final, equal_nan=True)
    assert failed.tolist() == want_failed.tolist()
    if scheme is hl.Scheme.DESRE:
        assert failed.tolist() == [-1, 41, blocks[0], blocks[0] + 1, -1]
        for lane in (1, 2, 3):
            k = failed[lane] - 1
            assert not np.isnan(got[:k, lane]).any() and np.isnan(got[k:, lane]).all()
    else:
        assert not np.isnan(got).any()


@pytest.mark.parametrize("scheme", list(hl.Scheme), ids=lambda s: s.value)
def test_step_functions_match_python_recursion(scheme):
    step_fn = {hl.Scheme.AVE: hl.step_ave, hl.Scheme.TE: hl.step_te,
               hl.Scheme.SE: hl.step_se, hl.Scheme.DESRE: hl.step_desre,
               hl.Scheme.DISRE: hl.step_disre}[scheme]
    dt = 0.1
    step = python_recursion(scheme, NEAR_ZERO, dt)
    rng = np.random.default_rng(3)
    states = rng.uniform(0.05, 2.0, 50)
    etas = rng.standard_normal(50)
    for s, e in zip(states, etas):
        assert step_fn(NEAR_ZERO, float(s), dt, float(e)) == step(float(s), float(e))
    batch = step_fn(NEAR_ZERO, states, dt, etas)
    assert batch.shape == (50,)
    assert batch.tolist() == [step(float(s), float(e)) for s, e in zip(states, etas)]


# ---------------------------------------------------------------------------
# log-price simulation


def test_x_pure_drift_when_decoupled():
    p = hl.ModelParams(a=0.4, b=0.3, alpha=0.1, beta=1e-300, sigma1=0.4,
                       sigma2=1e-300, rho=0.2, y0=0.2, x0=0.1)
    grid = hl.TimeGrid(5.0, 50)
    y = hl.simulate_y(p, grid, hl.Scheme.DISRE, zero_draws(50))
    x = hl.simulate_x(p, grid, y, zero_draws(50))
    np.testing.assert_allclose(x, 0.1 + 0.1 * grid.times(), rtol=1e-12)


def test_x_uncorrelated_uses_second_stream_only():
    p = hl.ModelParams(a=0.4, b=0.3, alpha=0.1, beta=0.15, sigma1=0.4,
                       sigma2=0.3, rho=0.0, y0=0.2, x0=0.1)
    grid = hl.TimeGrid(2.0, 20)
    rng = np.random.default_rng(8)
    eta = rng.standard_normal(20)
    y = hl.simulate_y(p, grid, hl.Scheme.DISRE,
                      hl.GaussianDraws(eta=eta, zeta=np.zeros(20)))
    # zeta = 0 and rho = 0: no diffusion enters X at all
    x = hl.simulate_x(p, grid, y, hl.GaussianDraws(eta=eta, zeta=np.zeros(20)))
    drift = np.concatenate([[p.x0], p.x0 + np.cumsum((p.alpha - p.beta * y[:-1]) * grid.dt)])
    np.testing.assert_allclose(x, drift, rtol=1e-12)


def test_correlated_noise_identity():
    draws = hl.GaussianDraws.from_lineage(hl.SeedLineage(123, 0), 10**6)
    mix = P.rho * draws.eta + math.sqrt(1 - P.rho**2) * draws.zeta
    corr = np.corrcoef(draws.eta, mix)[0, 1]
    assert abs(corr - P.rho) < 0.01


def test_simulate_x_length_mismatch():
    grid = hl.TimeGrid(1.0, 10)
    with pytest.raises(hl.LengthMismatch):
        hl.simulate_x(P, grid, np.ones(10), zero_draws(10))


# ---------------------------------------------------------------------------
# joint simulation and lineage


def test_simulate_xy_deterministic():
    grid = hl.TimeGrid(5.0, 50)
    p1 = hl.simulate_xy(P, grid, hl.Scheme.DISRE, hl.SeedLineage(77, 0))
    p2 = hl.simulate_xy(P, grid, hl.Scheme.DISRE, hl.SeedLineage(77, 0))
    assert np.array_equal(p1.y, p2.y) and np.array_equal(p1.x, p2.x)


def test_overflowing_variance_fails_each_path_function_cleanly():
    """Called directly, simulate_y and simulate_x refuse an overflowing path,
    naming the first grid index of their own output that is not finite, and
    raise no numpy warning on the way."""
    params = hl.ModelParams(a=0.4, b=-1.0, alpha=0.1, beta=0.15, sigma1=0.4,
                            sigma2=0.3, rho=0.2, y0=0.2, x0=0.1)
    grid = hl.TimeGrid(800.0, 8000)
    draws = hl.GaussianDraws.from_lineage(hl.SeedLineage(9, 0), grid.steps)
    with pytest.raises(hl.NonFinitePath, match=r"^Y .* grid index 6923$"):
        hl.simulate_y(params, grid, hl.Scheme.DISRE, draws)
    with np.errstate(over="ignore"):
        y, _ = simulate_rows(params, grid, hl.Scheme.DISRE, draws.eta[None, :])
    assert np.isfinite(y[0, :6923]).all() and not np.isfinite(y[0, 6923])
    with pytest.raises(hl.NonFinitePath, match=r"^X .* grid index 6924$"):
        hl.simulate_x(params, grid, y[0], draws)


def test_replicates_draw_distinct_streams():
    grid = hl.TimeGrid(5.0, 50)
    p0 = hl.simulate_xy(P, grid, hl.Scheme.DISRE, hl.SeedLineage(77, 0))
    p1 = hl.simulate_xy(P, grid, hl.Scheme.DISRE, hl.SeedLineage(77, 1))
    assert not np.array_equal(p0.y, p1.y)


@st.composite
def replicate_batches(draw):
    """Replicate indices below 2**40, so of one or two 32-bit words, mixed in
    one batch in any order, with 2**32 - 1 and 2**32 in every batch."""
    drawn = draw(st.lists(st.integers(0, 2**40 - 1), min_size=1, max_size=6))
    return draw(st.permutations(drawn + [2**32 - 1, 2**32]))


@settings(max_examples=100, deadline=None)
@given(master_seed=st.integers(0, 2**130 - 1)
       | st.sampled_from([2**32 - 1, 2**32, 2**128 - 1, 2**128]),
       replicates=replicate_batches())
def test_lane_generators_match_seed_sequence(master_seed, replicates):
    """Each stream seeded for a lane group is NumPy's PCG64 on
    SeedSequence(master_seed, spawn_key=(replicate, tag)): same state, same
    normals."""
    streams = hl.lane_generators(master_seed, replicates)
    assert len(streams) == len(replicates)
    for r, pair in zip(replicates, streams):
        for tag, gen in enumerate(pair):
            want = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(master_seed, spawn_key=(r, tag))))
            assert gen.bit_generator.state == want.bit_generator.state, (r, tag)
            assert gen.standard_normal(16).tobytes() == want.standard_normal(16).tobytes()


def test_lane_generators_reject_negative_seeds():
    for seed, replicates in ((-1, [0]), (0, [3, -1])):
        with pytest.raises(ValueError):
            hl.lane_generators(seed, replicates)


def test_eta_zeta_streams_independent_of_each_other():
    d = hl.GaussianDraws.from_lineage(hl.SeedLineage(5, 3), 4000)
    assert not np.array_equal(d.eta, d.zeta)
    assert abs(np.corrcoef(d.eta, d.zeta)[0, 1]) < 0.05


def test_three_step_manual_unroll():
    grid = hl.TimeGrid(0.3, 3)
    lineage = hl.SeedLineage(11, 2)
    path = hl.simulate_xy(P, grid, hl.Scheme.DISRE, lineage)
    draws = hl.GaussianDraws.from_lineage(lineage, 3)

    dt = grid.dt
    sq = math.sqrt(dt)
    z = math.sqrt(P.y0)
    y_hand = [P.y0]
    for k in range(3):
        z = hl.step_disre(P, z, dt, float(draws.eta[k]))
        y_hand.append(z * z)
    x_hand = [P.x0]
    for k in range(3):
        noise = P.rho * draws.eta[k] + math.sqrt(1 - P.rho**2) * draws.zeta[k]
        x_hand.append(x_hand[-1]
                      + (P.alpha - P.beta * y_hand[k]) * dt
                      + P.sigma2 * math.sqrt(max(y_hand[k], 0.0)) * sq * noise)
    np.testing.assert_allclose(path.y, y_hand, rtol=1e-15)
    np.testing.assert_allclose(path.x, x_hand, rtol=1e-13, atol=1e-15)


def test_batch_rows_match_single_paths_exactly():
    grid = hl.TimeGrid(5.0, 50)
    eta = np.stack([hl.GaussianDraws.from_lineage(hl.SeedLineage(31, r), 50).eta
                    for r in range(4)])
    y_batch, failed = simulate_rows(P, grid, hl.Scheme.DISRE, eta)
    assert np.all(failed < 0)
    for r in range(4):
        single = hl.simulate_y(P, grid, hl.Scheme.DISRE,
                               hl.GaussianDraws.from_lineage(hl.SeedLineage(31, r), 50))
        assert np.array_equal(y_batch[r], single)


# ---------------------------------------------------------------------------
# CSV round-trip


def test_path_csv_roundtrip_exact(tmp_path):
    grid = hl.TimeGrid(3.0, 30)
    path = hl.simulate_xy(P, grid, hl.Scheme.TE, hl.SeedLineage(19, 0))
    f = tmp_path / "p.csv"
    hl.write_path_csv(path, f)
    back = hl.read_path_csv(f)
    assert back.grid.horizon == grid.horizon and back.grid.steps == grid.steps
    assert np.array_equal(back.y, path.y)
    assert np.array_equal(back.x, path.x)


def test_path_csv_header_and_shape(tmp_path):
    path = hl.simulate_xy(P, hl.TimeGrid(1.0, 4), hl.Scheme.SE, hl.SeedLineage(2, 0))
    f = tmp_path / "p.csv"
    hl.write_path_csv(path, f)
    lines = f.read_text().strip().splitlines()
    assert lines[0] == "t,y,x"
    assert len(lines) == 6


@pytest.mark.parametrize("content", [
    "time,y,x\n0,0.2,0.1\n1,0.3,0.2\n",               # wrong header
    "t,y,x\n0,0.2\n1,0.3,0.2\n",                       # short row
    "t,y,x\n0,0.2,0.1\n1,0.3,0.2\n5,0.4,0.3\n",        # non-uniform grid
    "t,y,x\n0,0.2,0.1\n",                              # single point
    "t,y,x\n0,0.2,nope\n1,0.3,0.2\n",                  # non-numeric
])
def test_path_csv_rejects_malformed(tmp_path, content):
    f = tmp_path / "bad.csv"
    f.write_text(content)
    with pytest.raises(hl.CsvFormatError):
        hl.read_path_csv(f)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
def test_path_csv_rejects_non_finite_cells_naming_the_line(tmp_path, cell):
    f = tmp_path / "bad.csv"
    f.write_text(f"t,y,x\n0,0.2,0.1\n1,0.3,0.2\n2,{cell},0.3\n")
    with pytest.raises(hl.CsvFormatError, match="line 4"):
        hl.read_path_csv(f)


@pytest.mark.parametrize("body,cause", [
    # a 4-cell and a 2-cell line hold 3 cells a line between them
    ("0,0.2,0.1\n1,0.3,0.2,9\n2,0.4\n", "line 3: expected 3 comma-separated values"),
    ("0,0.2,0.1\n1,0.3\n2,0.4,0.3,9\n", "line 3: expected 3 comma-separated values"),
    # the first bad line wins, whatever its fault
    ("0,0.2,0.1\nzz,0.3,0.2\n2,0.4,0.3\n3,0.5\n", "line 3: non-numeric value"),
    ("0,0.2,0.1\n1,0.3\n2,0.4,0.3\n3,zz,0.4\n", "line 3: expected 3 comma-separated values"),
    ("0,0.2,0.1\n1,,0.2\n", "line 3: non-numeric value"),
    # a cell that does not parse outranks a non-finite one on an earlier line
    ("0,0.2,0.1\n1,inf,0.2\n2,0.4,0x1\n", "line 4: non-numeric value"),
    ("0,0.2,0.1\n1,0.3,0.2\n2,0.4,-inf\n", "line 4: non-finite value"),
    # line numbers count the lines that are not blank
    ("\n0,0.2,0.1\n\n1,0.3,0.2\n  \n2,nan,0.3\n", "line 4: non-finite value"),
    ("\n", "need at least two rows (initial point plus one step)"),
])
def test_path_csv_names_the_first_bad_line(tmp_path, body, cause):
    f = tmp_path / "bad.csv"
    f.write_text("t,y,x\n" + body)
    with pytest.raises(hl.CsvFormatError) as exc:
        hl.read_path_csv(f)
    assert str(exc.value) == cause


def test_path_csv_reads_cells_with_float_grammar(tmp_path):
    """Blank lines, spaces around cells and a header with trailing spaces are
    accepted, and a cell is whatever float() reads."""
    f = tmp_path / "loose.csv"
    f.write_text("t,y,x  \n\n 0 ,0.2, 1_0\n\n1,+3e-1 ,-0.5\n \t\n2.0,4E-1,.25\n")
    path = hl.read_path_csv(f)
    assert path.grid == hl.TimeGrid(2.0, 2)
    assert path.y.tolist() == [0.2, 0.3, 0.4] and path.x.tolist() == [10.0, -0.5, 0.25]
