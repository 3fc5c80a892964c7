"""Path generation: grids, the five variance-step kernels, joint (Y, X)
simulation, draw lineage, and CSV round-trips."""

import dataclasses
import io
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hestonlab as hl
import hestonlab.kernel as kernel
import hestonlab.simulate as simulate
from hestonlab.simulate import advance_variance, parse_csv, write_csv

P = hl.canonical_params()
SQRT_DT = math.sqrt(0.1)

# frozen against an 80-digit arbitrary-precision evaluation of the two
# square-root-space kernels at the canonical point (y=0.2, dt=0.1, eta=0)
DESRE_Z_STEP = 0.48075461516245477
DISRE_Z_ROOT = 0.4777261896044577


def one_step(scheme, params, state, dt, eta):
    """One step of ``scheme`` from ``state`` (Y, or Z = sqrt(Y) for DESRE and
    DISRE) with draw ``eta``, scalars or arrays of one shape: the new state,
    by advance_variance on a one-step block of one lane per value."""
    state, eta = np.broadcast_arrays(np.asarray(state, dtype=float), np.asarray(eta, dtype=float))
    _, new, _ = advance_variance(params, dt, scheme, eta.reshape(-1, 1), state.reshape(-1))
    return new.reshape(state.shape)[()]


def zero_draws(n):
    return hl.GaussianDraws(eta=np.zeros(n), zeta=np.zeros(n))


def simulate_rows(params, grid, scheme, eta):
    """Whole variance paths, one per row of ``eta``, in one block; and each
    row's abort index (-1 for none)."""
    y, _, aborted = advance_variance(params, grid.dt, scheme, eta)
    return y, np.where(aborted > 0, aborted, -1)


def assert_same_bits(got, want):
    """The same shape and bit patterns, where a NaN matches any NaN: CPython's
    float add gives -NaN + NaN the sign of one operand or the other, as its
    specialized or generic form runs (a tracer runs the generic one).
    ``array_equal`` would also let -0.0 match 0.0."""
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(got)
    assert got.shape == want.shape and np.array_equal(nan, np.isnan(want))
    assert got[~nan].tobytes() == want[~nan].tobytes()


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
    (True, 10), (np.True_, 10), (1.0, True), (1.0, np.True_),
    # N + 1 points that an int64 cannot index
    (1.0, 2**63 - 1), (1.0, 10**30), (1.0, 1e30), (1.0, 2**64 + 1000),
])
def test_time_grid_rejects_non_finite_and_fractional_inputs(horizon, steps):
    with pytest.raises(hl.InvalidGrid):
        hl.TimeGrid(horizon, steps)
    assert issubclass(hl.InvalidGrid, hl.HestonLabError)


def test_time_grid_takes_the_most_steps_whose_points_an_int64_indexes():
    assert hl.TimeGrid(1.0, 2**63 - 2).steps == 2**63 - 2
    with pytest.raises(hl.InvalidGrid, match=f"^steps must be a positive integer <= {2**63 - 2}, "):
        hl.TimeGrid(1.0, 2**63 - 1)


def test_time_grid_stores_integral_steps_as_int():
    grid = hl.TimeGrid(10.0, 10.0)
    assert grid.steps == 10 and type(grid.steps) is int
    path = hl.simulate_xy(P, grid, hl.Scheme.DISRE, hl.SeedLineage(1, 0))
    assert path.y.shape == (11,)


def test_scheme_parse():
    assert hl.Scheme.parse("DISRE") is hl.Scheme.DISRE
    assert hl.Scheme.parse("ave") is hl.Scheme.AVE
    with pytest.raises(hl.ConfigParseError, match="unknown scheme 'euler'"):
        hl.Scheme.parse("euler")


# ---------------------------------------------------------------------------
# step kernels


def test_ave_drift_step():
    assert one_step(hl.Scheme.AVE, P, 0.2, 0.1, 0.0) == pytest.approx(0.234, rel=1e-14)


def test_ave_zero_state_kills_diffusion():
    assert one_step(hl.Scheme.AVE, P, 0.0, 0.1, 5.0) == pytest.approx(0.4 * 0.1, rel=1e-15)


def test_ave_negative_state_uses_absolute_value():
    got = one_step(hl.Scheme.AVE, P, -0.1, 0.1, 1.0)
    want = -0.1 + (0.4 - 0.3 * (-0.1)) * 0.1 + 0.4 * math.sqrt(0.1) * SQRT_DT
    assert got == pytest.approx(want, rel=1e-14)
    assert got == pytest.approx(-0.017, abs=1e-15)


def test_te_negative_state_is_pure_drift():
    got = one_step(hl.Scheme.TE, P, -0.1, 0.1, 3.0)
    assert got == pytest.approx(-0.1 + 0.043, rel=1e-14)


def test_te_agrees_with_ave_without_noise():
    assert one_step(hl.Scheme.TE, P, 0.2, 0.1, 0.0) == one_step(hl.Scheme.AVE, P, 0.2, 0.1, 0.0)


def test_te_with_noise():
    want = 0.234 + 0.4 * math.sqrt(0.2) * SQRT_DT
    assert one_step(hl.Scheme.TE, P, 0.2, 0.1, 1.0) == pytest.approx(want, rel=1e-14)


def test_se_positive_argument():
    assert one_step(hl.Scheme.SE, P, 0.2, 0.1, 0.0) == pytest.approx(0.234, rel=1e-14)


def test_se_negates_negative_inner_value():
    inner = 0.2 + 0.034 + 0.4 * math.sqrt(0.2) * SQRT_DT * (-30.0)
    assert inner < 0
    assert one_step(hl.Scheme.SE, P, 0.2, 0.1, -30.0) == pytest.approx(-inner, rel=1e-14)


def test_se_nonnegative_randomized():
    rng = np.random.default_rng(99)
    y = rng.uniform(0.0, 5.0, 10**6)
    eta = rng.standard_normal(10**6)
    out = one_step(hl.Scheme.SE, P, y[:2000], 0.1, eta[:2000])
    assert np.all(out >= 0)
    # vectorized replica of the kernel for the full million
    inner = y + (P.a - P.b * y) * 0.1 + P.sigma1 * np.sqrt(y) * SQRT_DT * eta
    assert np.all(np.abs(inner) >= 0)


def test_desre_drift_step_frozen_value():
    z0 = math.sqrt(0.2)
    got = one_step(hl.Scheme.DESRE, P, z0, 0.1, 0.0)
    assert abs(got - DESRE_Z_STEP) < 5e-16
    want = z0 + ((0.2 - 0.02) / z0 - 0.15 * z0) * 0.1
    assert got == pytest.approx(want, rel=1e-15)


def test_desre_fixed_point():
    zstar = math.sqrt((P.a / 2 - P.sigma1**2 / 8) / (P.b / 2))
    got = one_step(hl.Scheme.DESRE, P, zstar, 0.1, 0.0)
    assert got == pytest.approx(zstar, rel=1e-14)


def test_desre_feller_boundary_rejected():
    tight = hl.ModelParams(a=0.08, b=0.3, alpha=0.1, beta=0.15, sigma1=0.4,
                           sigma2=0.3, rho=0.2, y0=0.2, x0=0.1)
    with pytest.raises(hl.FellerViolated):
        one_step(hl.Scheme.DESRE, tight, 0.5, 0.1, 0.0)
    with pytest.raises(hl.FellerViolated):
        one_step(hl.Scheme.DISRE, tight, 0.5, 0.1, 0.0)


def test_disre_closed_root_and_residual():
    """The closed-form root satisfies the implicit recursion to machine
    precision; the frozen value pins the exact double."""
    z0 = math.sqrt(0.2)
    z1 = one_step(hl.Scheme.DISRE, P, z0, 0.1, 0.0)
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
        assert one_step(hl.Scheme.DISRE, P, float(z_prev[i]), dt, float(eta[i])) == z_new[i]


def test_disre_small_step_continuity():
    z0 = math.sqrt(0.2)
    gaps = [abs(one_step(hl.Scheme.DISRE, P, z0, dt, 0.0) - z0)
            for dt in (1e-2, 1e-4, 1e-6, 1e-8)]
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


def test_the_path_functions_refuse_arguments_of_another_type(monkeypatch):
    """InvalidArgument naming the argument, before the kernel is asked for."""
    def no_kernel():
        raise AssertionError("the kernel was asked for")

    # path_functionals folds in the kernel, so the estimate is made first
    est = hl.lse_from_functionals(hl.path_functionals(
        hl.XYPath(hl.TimeGrid(2.0, 2), [1.0, 2.0, 2.0], [0.0, 0.5, 0.5])))
    monkeypatch.setattr(kernel, "lane_kernel", no_kernel)
    grid, draws, scheme, y = hl.TimeGrid(1.0, 10), zero_draws(10), hl.Scheme.DISRE, np.ones(11)
    cases = {
        "draws": [lambda: hl.simulate_y(P, grid, scheme, None),
                  lambda: hl.simulate_x(P, grid, y, None)],
        "grid": [lambda: hl.simulate_y(P, None, scheme, draws),
                 lambda: hl.simulate_x(P, None, y, draws), lambda: hl.XYPath(None, y, y)],
        "params": [lambda: hl.simulate_y(None, grid, scheme, draws),
                   lambda: hl.simulate_x(None, grid, y, draws),
                   lambda: hl.simulate_paths(None, grid, scheme, 1, 2)],
        "scheme": [lambda: hl.simulate_y(P, grid, "DISRE", draws),
                   lambda: hl.simulate_xy(P, grid, "DISRE", hl.SeedLineage(1)),
                   lambda: hl.XYPath(grid, y, y, scheme="DISRE"),
                   lambda: hl.estimate_record(est, scheme=3.5)],
        "lineage": [lambda: hl.simulate_xy(P, grid, scheme, None)],
    }
    for name, calls in cases.items():
        for call in calls:
            with pytest.raises(hl.InvalidArgument, match=f"^{name} must be a "):
                call()


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


# a single lane, groups below, at and above 8 lanes, and a wide group
LANE_COUNTS = (1, 5, 8, 9, 40)


@pytest.mark.parametrize("lanes", LANE_COUNTS)
@pytest.mark.parametrize("blocks", [(128, 256), (200, 77)], ids=["on-tile", "inside-tile"])
@pytest.mark.parametrize("scheme", list(hl.Scheme), ids=lambda s: s.value)
def test_step_loop_matches_python_recursion(scheme, blocks, lanes):
    dt = 0.1
    steps = sum(blocks)
    eta = np.random.default_rng(7).standard_normal((steps, lanes))
    # spikes that send the explicit square-root lanes 1, 2 and 3 (modulo the
    # lane count) below zero in the middle of the first block, on its last
    # step and on the first step of the second block; the other schemes go
    # negative or reflect there
    spikes = {}
    for lane, k in ((1, 40), (2, blocks[0] - 1), (3, blocks[0])):
        eta[k, lane % lanes] = -60.0
        spikes.setdefault(lane % lanes, k + 1)
    want_y, want_final, want_failed = python_lanes(scheme, NEAR_ZERO, dt, eta)

    failed = np.full(lanes, -1)
    got = np.empty((steps, lanes))
    state, start = None, 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in blocks:
            y, state, aborted = advance_variance(NEAR_ZERO, dt, scheme, eta[start:start + n].T,
                                                 state)
            # the left endpoint is y0, then the previous block's last point
            assert_same_bits(y[:, 0], got[start - 1] if start else np.full(lanes, NEAR_ZERO.y0))
            failed[aborted > 0] = start + aborted[aborted > 0]
            got[start:start + n] = y[:, 1:].T
            start += n

    assert np.array_equal(got, want_y, equal_nan=True)
    assert np.array_equal(state, want_final, equal_nan=True)
    assert failed.tolist() == want_failed.tolist()
    if scheme is hl.Scheme.DESRE:
        assert {lane: failed[lane] for lane in spikes} == spikes
        if lanes == 5:
            assert failed.tolist() == [-1, 41, blocks[0], blocks[0] + 1, -1]
        for lane in spikes:
            k = failed[lane] - 1
            assert not np.isnan(got[:k, lane]).any() and np.isnan(got[k:, lane]).all()
    else:
        assert not np.isnan(got).any()


@pytest.mark.parametrize("scheme", list(hl.Scheme), ids=lambda s: s.value)
def test_hostile_states_give_the_same_bits_on_both_routes(scheme):
    """States a step on floats could raise on (DESRE's level/z at z = +-0,
    SE's sqrt of a negative state) or that propagate NaN and inf: a group of
    8 lanes and the same lanes inside a group of 16 give the same bits (a
    NaN matching any NaN), untraced and under a tracer, and neither raises
    or warns."""
    states = np.array([0.0, -0.0, -0.5, -1e-300, math.nan, math.inf, -math.inf, 0.2])
    assert len(states) == 8
    eta = np.random.default_rng(11).standard_normal((len(states), 30))
    eta[:, 0] = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0]

    def run(copies):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y, state, aborted = advance_variance(NEAR_ZERO, 0.1, scheme, np.tile(eta, (copies, 1)),
                                                 np.tile(states, copies))
        return y[: len(states)], state[: len(states)], aborted[: len(states)]

    tracer = sys.gettrace()
    for traced in (False, True):
        sys.settrace((lambda *args: None) if traced else tracer)
        try:
            narrow, wide = run(1), run(2)
        finally:
            sys.settrace(tracer)
        for got, want in zip(narrow, wide):
            assert_same_bits(got, want)
    if scheme is hl.Scheme.DESRE:
        # the lanes that start at -0.0 or below zero abort at their first
        # step; at +0.0, level/z sends Z to +inf instead
        assert narrow[2].tolist()[1:4] == [1, 1, 1]


@pytest.mark.parametrize("scheme", list(hl.Scheme), ids=lambda s: s.value)
def test_kernel_route_holds_the_path_twice_at_most(scheme):
    """simulate_xy of 2e5 steps in the compiled kernel: the traced peak is
    the lane group's points and the path's own copy of them, twice the
    path, where drawing, advancing and pricing it on numpy takes four
    times."""
    from hestonlab.kernel import lane_kernel

    if lane_kernel() is None:
        pytest.skip("the lane kernel does not build here")
    tracemalloc.start()
    try:
        path = hl.simulate_xy(P, hl.TimeGrid(2000.0, 200_000), scheme, hl.SeedLineage(5, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * (path.y.nbytes + path.x.nbytes), peak


@pytest.mark.parametrize("scheme", list(hl.Scheme), ids=lambda s: s.value)
def test_step_functions_match_python_recursion(scheme):
    dt = 0.1
    step = python_recursion(scheme, NEAR_ZERO, dt)
    rng = np.random.default_rng(3)
    states = rng.uniform(0.05, 2.0, 50)
    etas = rng.standard_normal(50)
    for s, e in zip(states, etas):
        assert one_step(scheme, NEAR_ZERO, float(s), dt, float(e)) == step(float(s), float(e))
    batch = one_step(scheme, NEAR_ZERO, states, dt, etas)
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gaussian_draws_refuse_non_finite_draws(bad):
    draws = np.zeros(5)
    draws[3] = bad
    for eta, zeta, name in ((draws, np.zeros(5), "eta"), (np.zeros(5), draws, "zeta")):
        with pytest.raises(hl.NonFiniteSample, match=rf"^{name}\[3\] is {bad}, not a finite"):
            hl.GaussianDraws(eta=eta, zeta=zeta)


@pytest.mark.parametrize("eta, zeta", [([], []), (np.empty(0), np.empty(0)), ([], [0.5]),
                                       (np.zeros((2, 0)), np.zeros((2, 0)))], ids=repr)
def test_gaussian_draws_refuse_no_draws(eta, zeta):
    """No grid takes zero steps, so no draws of length 0 are taken."""
    with pytest.raises(hl.LengthMismatch, match=r"^eta and zeta must be 1-d arrays of equal "
                                                r"length >= 1, got shapes \("):
        hl.GaussianDraws(eta=eta, zeta=zeta)
    assert len(hl.GaussianDraws([0.5], [-0.5])) == 1


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
    for y_path in (np.ones(10), 0.2):
        with pytest.raises(hl.LengthMismatch, match=r"^y_path has shape \("):
            hl.simulate_x(P, grid, y_path, zero_draws(10))


def test_draws_and_paths_of_bools_or_strs_are_refused():
    """numpy would read them as numbers."""
    with pytest.raises(hl.InvalidArgument, match="^eta must hold real numbers: "):
        hl.GaussianDraws([True, False], [False, True])
    # a bool among numbers, which numpy reads as a float
    with pytest.raises(hl.InvalidArgument, match="^eta must hold real numbers: "):
        hl.GaussianDraws([True, 0.5], [0.0, 0.0])
    grid = hl.TimeGrid(1.0, 2)
    with pytest.raises(hl.InvalidArgument, match="^y must hold real numbers: "):
        hl.XYPath(grid, ["0.2", "0.3", "0.25"], ["0", "0.1", "0.2"])
    with pytest.raises(hl.InvalidArgument, match="^y_path must hold real numbers: "):
        hl.simulate_x(P, grid, ["0.2", "0.3", "0.25"], zero_draws(2))


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
            sequence = np.random.SeedSequence(master_seed, spawn_key=(r, tag))
            want = np.random.Generator(np.random.PCG64(sequence))
            assert gen.bit_generator.state == want.bit_generator.state, (r, tag)
            assert gen.standard_normal(16).tobytes() == want.standard_normal(16).tobytes()


def test_lane_generators_reject_negative_seeds():
    for seed, replicates in ((-1, [0]), (0, [3, -1])):
        with pytest.raises(ValueError):
            hl.lane_generators(seed, replicates)


BAD_SEEDS = [1.5, 2.0, -1, "a", True, np.True_, None]


def advance_lanes(master_seed, replicates):
    """A lane group of ``replicates`` through a short path, by the compiled
    kernel where it loads, else by lane_generators and numpy."""
    return simulate.advance_lanes(P, hl.TimeGrid(1.0, 4), hl.Scheme.DISRE, master_seed,
                                  replicates)


SEED_DOORS = {
    "SeedLineage.master_seed": lambda bad: hl.SeedLineage(bad, 0),
    "SeedLineage.replicate": lambda bad: hl.SeedLineage(0, bad),
    "lane_generators.master_seed": lambda bad: hl.lane_generators(bad, [0]),
    "lane_generators.replicate": lambda bad: hl.lane_generators(0, [3, bad]),
    "advance_lanes.master_seed": lambda bad: advance_lanes(bad, [0]),
    "advance_lanes.replicate": lambda bad: advance_lanes(0, [3, bad]),
    "simulate_paths": lambda bad: hl.simulate_paths(P, hl.TimeGrid(1.0, 10),
                                                    hl.Scheme.DISRE, bad, 2),
    "ExperimentConfig": lambda bad: dataclasses.replace(hl.preset_config("desk"),
                                                        master_seed=bad),
}


@pytest.mark.parametrize("door", SEED_DOORS)
@pytest.mark.parametrize("bad", BAD_SEEDS, ids=repr)
def test_every_seed_door_refuses_a_non_integer_or_negative_seed(door, bad):
    """A float, even an integral one, a bool, a str, None or a negative value
    is refused as a seed or replicate index, naming the argument."""
    name = "replicate" if door.endswith("replicate") else "master_seed"
    with pytest.raises(hl.InvalidSeed, match=f"^{name} must be an integer >= 0, got "):
        SEED_DOORS[door](bad)
    assert issubclass(hl.InvalidSeed, hl.ConfigParseError)


@pytest.mark.parametrize("door", [advance_lanes, hl.lane_generators], ids=lambda f: f.__name__)
@pytest.mark.parametrize("bad", [3, 2.0, None, True], ids=repr)
def test_replicates_that_are_not_an_iterable_are_refused(door, bad):
    with pytest.raises(hl.InvalidSeed, match="^replicates must be an iterable of integers"):
        door(1, bad)


def test_numpy_and_wide_integer_seeds_keep_their_bits():
    grid = hl.TimeGrid(1.0, 20)
    want = hl.simulate_xy(P, grid, hl.Scheme.DISRE, hl.SeedLineage(7, 3))
    for seed, replicate in ((np.int64(7), 3), (7, np.uint64(3)), (np.uint32(7), np.int8(3))):
        got = hl.simulate_xy(P, grid, hl.Scheme.DISRE, hl.SeedLineage(seed, replicate))
        assert got.y.tobytes() == want.y.tobytes() and got.x.tobytes() == want.x.tobytes()
    (eta, zeta), = hl.lane_generators(2**64, [2**64])
    for tag, gen in enumerate((eta, zeta)):
        ref = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(2**64, spawn_key=(2**64, tag))))
        assert gen.standard_normal(8).tobytes() == ref.standard_normal(8).tobytes()


@pytest.mark.parametrize("replicates", [2.5, True, -1, "3", None])
def test_simulate_paths_refuses_a_bad_replicate_count(replicates):
    with pytest.raises(hl.ConfigParseError, match="^replicates must be an integer >= 0"):
        hl.simulate_paths(P, hl.TimeGrid(1.0, 10), hl.Scheme.DISRE, 3, replicates)


def given_draws_path(params, grid, scheme, lineage):
    """The joint path of a lineage through the given-draws functions."""
    draws = hl.GaussianDraws.from_lineage(lineage, grid.steps)
    y = hl.simulate_y(params, grid, scheme, draws)
    return y, hl.simulate_x(params, grid, y, draws)


@pytest.mark.parametrize("scheme", list(hl.Scheme), ids=lambda s: s.value)
def test_simulate_xy_is_a_lane_of_simulate_paths(scheme):
    """Replicate r alone, as row r of a lane group and through the given-draws
    functions: the same bits."""
    grid = hl.TimeGrid(5.0, 50)
    rows = list(hl.simulate_paths(P, grid, scheme, 31, 4))
    for r, row in enumerate(rows):
        path = hl.simulate_xy(P, grid, scheme, hl.SeedLineage(31, r))
        y, x = given_draws_path(P, grid, scheme, hl.SeedLineage(31, r))
        assert path.scheme is row.scheme is scheme
        for got in (path.y, row.y, y):
            assert got.tobytes() == rows[r].y.tobytes()
        for got in (path.x, row.x, x):
            assert got.tobytes() == rows[r].x.tobytes()


def failure(call):
    with pytest.raises(hl.HestonLabError) as exc:
        call()
    return type(exc.value), str(exc.value), getattr(exc.value, "step", None)


@pytest.mark.parametrize("over,scheme,grid,seed,r,want", [
    # replicate 2 aborts; 0 and 1 run ahead of it in its lane group
    ({"a": 0.15, "y0": 0.5}, hl.Scheme.DESRE, hl.TimeGrid(115.0, 2300), 3, 2,
     (hl.NonPositiveZ, "square-root state hit zero at grid index 2283", 2283)),
    ({"b": -1.0}, hl.Scheme.DISRE, hl.TimeGrid(800.0, 8000), 9, 0,
     (hl.NonFinitePath, "Y is not finite at grid index 6923", None)),
], ids=["desre-abort", "overflow"])
def test_a_failing_replicate_fails_alike_on_every_route(over, scheme, grid, seed, r, want):
    params = dataclasses.replace(P, **over)
    lineage = hl.SeedLineage(seed, r)
    paths = hl.simulate_paths(params, grid, scheme, seed, r + 1)
    for _ in range(r):
        next(paths)
    assert failure(lambda: next(paths)) == want
    assert failure(lambda: hl.simulate_xy(params, grid, scheme, lineage)) == want
    assert failure(lambda: given_draws_path(params, grid, scheme, lineage)) == want


def test_scheme_check_is_the_one_rule_of_each_scheme():
    """A square-root scheme needs a > sigma1^2/2, DISRE also 2 + b*dt > 0;
    the step loop, a step function and simulate_xy refuse as the rule does."""
    tight = dataclasses.replace(P, a=0.08)
    steep = dataclasses.replace(P, b=-30.0)
    for scheme in hl.Scheme:
        if scheme.uses_sqrt_state:
            with pytest.raises(hl.FellerViolated, match=f"^scheme {scheme.value} needs a > "):
                scheme.check(tight, 0.1)
        else:
            scheme.check(tight, 0.1)
    hl.Scheme.DESRE.check(steep, 0.1)
    with pytest.raises(hl.InvalidGrid, match=r"^scheme DISRE needs 2 \+ b\*dt > 0"):
        hl.Scheme.DISRE.check(steep, 0.1)
    with pytest.raises(hl.InvalidGrid):
        one_step(hl.Scheme.DISRE, steep, 0.5, 0.1, 0.0)
    with pytest.raises(hl.FellerViolated):
        advance_variance(tight, 0.1, hl.Scheme.DESRE, np.zeros((1, 3)))
    with pytest.raises(hl.FellerViolated):
        hl.simulate_xy(tight, hl.TimeGrid(1.0, 10), hl.Scheme.DISRE, hl.SeedLineage(1))


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
        z = one_step(hl.Scheme.DISRE, P, z, dt, float(draws.eta[k]))
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


def test_simulate_paths_frees_each_lane_group_before_the_next(monkeypatch):
    """Four lane groups peak at about the memory of one: a group's draws and
    points are gone before the next is drawn, and a yielded path holds only
    its own rows."""
    monkeypatch.setattr(hl.simulate, "BLOCK_ELEMENTS", 10 * 2000)
    grid = hl.TimeGrid(20.0, 2000)

    def peak(replicates):
        tracemalloc.start()
        try:
            for path in hl.simulate_paths(P, grid, hl.Scheme.DISRE, 5, replicates):
                assert path.y.base is None and path.x.base is None
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(40) <= 1.1 * peak(10)


@pytest.mark.parametrize("scheme", list(hl.Scheme), ids=lambda s: s.value)
def test_numpy_fallback_in_several_blocks_gives_the_paths_of_one(monkeypatch, scheme):
    """simulate_paths on the numpy fallback, with a budget that cuts each
    one-lane group's 1000 steps into blocks of 256, 256, 256 and 232 steps,
    the last ending inside a tile, gives the bits of the fallback's one
    block and of the compiled kernel where it builds.  Under DESRE,
    replicate 4 aborts at step 713, in its third block: every route yields
    the same four paths, then raises NonPositiveZ at that step, and the
    aborted lane draws no fourth block."""
    from hestonlab import kernel

    grid = hl.TimeGrid(100.0, 1000)
    draws = []
    draw_normals = simulate.draw_normals

    def counting(streams, steps):
        draws.append(steps)
        return draw_normals(streams, steps)

    def run():
        paths, step = [], None
        try:
            for path in hl.simulate_paths(NEAR_ZERO, grid, scheme, 7, 6):
                paths.append((path.y.tobytes(), path.x.tobytes()))
        except hl.NonPositiveZ as exc:
            step = exc.step
        return paths, step

    routes = [run()] if kernel.lane_kernel() is not None else []
    monkeypatch.setattr(kernel, "lane_kernel", lambda: None)
    monkeypatch.setattr(simulate, "draw_normals", counting)
    routes.append(run())
    assert draws == [1000]  # the six replicates as one group in one block
    monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", 300)
    assert simulate._block_steps(1) == 256
    draws.clear()
    several = run()
    if scheme is hl.Scheme.DESRE:
        assert len(several[0]) == 4 and several[1] == 713
        assert draws == [256, 256, 256, 232] * 4 + [256, 256, 256]
    else:
        assert len(several[0]) == 6 and several[1] is None
        assert draws == [256, 256, 256, 232] * 6
    for route in routes:
        assert route == several


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
    # line numbers count every line of the file, blank ones too
    ("\n0,0.2,0.1\n\n1,0.3,0.2\n  \n2,nan,0.3\n", "line 7: non-finite value"),
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


FINITE_DOUBLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
)


@settings(max_examples=80, deadline=None)
@given(
    rows=st.lists(st.tuples(st.integers(-2 ** 62, 2 ** 62), FINITE_DOUBLES, FINITE_DOUBLES),
                  max_size=12),
    pad=st.sampled_from(["", " ", "  ", "\t"]),
    blanks=st.lists(st.integers(0, 14), max_size=4),
)
def test_csv_codec_round_trips_the_bits(rows, pad, blanks):
    """write_csv then parse_csv gives back every int and the bits of every
    finite double, through blank lines and spaces around the header and
    cells, and names each row's line of the file."""
    header, kinds = ("n", "u", "v"), (int, float, float)
    table = np.array(rows, dtype=object).reshape(len(rows), 3)
    out = io.StringIO()
    write_csv(out, header, ("%d", "%.17g", "%.17g"), list(table.T))
    lines = out.getvalue().splitlines()
    lines = [pad + lines[0] + pad] + [
        pad + (pad + "," + pad).join(line.split(",")) + pad for line in lines[1:]]
    for at in sorted(blanks, reverse=True):
        lines.insert(min(at, len(lines)), pad)
    text = "\n".join(lines) + "\n"
    columns, numbers = parse_csv(text, header, kinds)
    assert columns[0].tolist() == [r[0] for r in rows]
    for j in (1, 2):
        assert columns[j].tobytes() == np.array([r[j] for r in rows], dtype=float).tobytes()
    data = [n for n, line in enumerate(lines, start=1) if line.strip()][1:]
    assert list(numbers) == data


@pytest.mark.parametrize("scheme", list(hl.Scheme), ids=lambda s: s.value)
@pytest.mark.parametrize("dt", [math.nan, math.inf, -1.0, 0.0, True, "0.1", None], ids=repr)
def test_the_step_loop_and_the_price_step_refuse_a_bad_dt(scheme, dt):
    """step_constants' one rule: no NaN points from advance_variance,
    price_block or the kernel."""
    from hestonlab.kernel import lane_kernel

    eta = np.zeros((2, 5))
    calls = [lambda: simulate.step_constants(scheme, P, dt),
             lambda: advance_variance(P, dt, scheme, eta),
             lambda: simulate.price_block(P, dt, np.full((2, 6), 0.2), eta, eta, 0.0)]
    if lane_kernel() is not None:
        calls.append(lambda: lane_kernel()(P, dt, scheme, eta, eta))
    for call in calls:
        with pytest.raises(hl.InvalidGrid, match="^dt must be a finite number > 0"):
            call()


def test_accepted_steps_keep_their_bits():
    got = [float(one_step(scheme, P, 0.3, 0.01, 0.7)).hex() for scheme in hl.Scheme]
    assert got == ["0x1.461425c2821a1p-2"] * 3 + ["0x1.47381d7dbf488p-2", "0x1.46d2272083b60p-2"]
