"""Least-squares layer: path functionals, both solver routes, the objective,
integral diagnostics, and the random-scaling statistic."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hestonlab as hl
from hestonlab.estimate import SUM_TILE, PathSums
from least_squares import ls_objective

P = hl.canonical_params()


def path_of(y, x, dt):
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    n = len(y) - 1
    return hl.XYPath(hl.TimeGrid(n * dt, n), y, x)


@pytest.fixture()
def three_point():
    return path_of([1.0, 2.0, 2.0], [0.0, 0.5, 0.5], 1.0)


def random_path(rng):
    n = int(rng.integers(50, 400))
    dt = float(rng.uniform(0.01, 0.5))
    y = np.abs(rng.normal(1.0, 0.5, n + 1)) + 0.05
    x = np.cumsum(rng.normal(0.0, 0.3, n + 1))
    return y, x, dt


# ---------------------------------------------------------------------------
# functionals


def test_three_point_functionals(three_point):
    f = hl.path_functionals(three_point)
    assert f.i1 == 3.0
    assert f.i2 == 5.0
    assert f.i3 == 1.0
    assert f.i4 == 0.5
    assert f.denom == 1.0          # 2*5 - 3^2
    assert f.qv_y == 1.0
    assert f.e1 == pytest.approx(1.5, rel=1e-15)
    assert f.e2 == pytest.approx(2.5, rel=1e-15)
    assert f.e3 == pytest.approx(4.5, rel=1e-15)
    assert f.y_terminal == 2.0 and f.x_terminal == 0.5
    assert f.t_horizon == 2.0 and f.n_steps == 2


def test_constant_path_degenerates():
    f = hl.path_functionals(path_of([0.7] * 6, [0.0] * 6, 0.5))
    assert f.i3 == 0.0
    assert f.denom == 0.0
    assert f.i1 == pytest.approx(0.7 * 2.5, rel=1e-15)
    assert f.i2 == pytest.approx(0.49 * 2.5, rel=1e-15)
    with pytest.raises(hl.DegeneratePath):
        hl.lse_from_functionals(f)


def test_denominator_nonnegative_on_random_paths():
    rng = np.random.default_rng(3)
    for _ in range(50):
        y, x, dt = random_path(rng)
        f = hl.path_functionals(path_of(y, x, dt))
        assert f.denom >= 0.0


def test_path_too_short_guard():
    """No XYPath has fewer than two points, and path_functionals takes only an XYPath."""
    stub = SimpleNamespace(grid=hl.TimeGrid(1.0, 1),
                           y=np.array([0.2]), x=np.array([0.1]))
    with pytest.raises(hl.InvalidArgument, match="^path must be an XYPath"):
        hl.path_functionals(stub)
    with pytest.raises(hl.LengthMismatch):
        hl.XYPath(stub.grid, stub.y, stub.x)


def test_abel_identity_on_simulated_paths():
    for r in range(10):
        path = hl.simulate_xy(P, hl.TimeGrid(50.0, 500), hl.Scheme.DISRE,
                              hl.SeedLineage(60, r))
        f = hl.path_functionals(path)
        lhs = f.i3 + 0.5 * f.qv_y
        rhs = 0.5 * (f.y_terminal**2 - f.y0**2)
        scale = max(1.0, f.qv_y, abs(f.i3))
        assert abs(lhs - rhs) <= 5e-13 * scale


def folded(y, x, cuts):
    """PathSums of one lane folded in blocks that end at the given step indices."""
    sums = PathSums(y[:1], x[:1])
    lo = 0
    for hi in cuts:
        sums.fold(y[None, lo:hi + 1], x[None, lo:hi + 1])
        lo = hi
    return sums


@pytest.mark.parametrize("n", [1, SUM_TILE, 20077])
def test_path_sums_do_not_depend_on_how_the_path_is_cut(n):
    rng = np.random.default_rng(n)
    y = np.abs(rng.normal(0.3, 0.2, n + 1)) + 0.01
    x = np.cumsum(rng.normal(0.0, 0.1, n + 1))
    whole = folded(y, x, [n])
    by_tile = folded(y, x, list(range(SUM_TILE, n, SUM_TILE)) + [n])
    by_three = folded(y, x, list(range(3 * SUM_TILE, n, 3 * SUM_TILE)) + [n])
    assert whole.steps == n
    for other in (by_tile, by_three):
        assert other.steps == n
        for name in ("sums", "mean", "m2", "y_end", "x_end"):
            assert np.array_equal(getattr(other, name), getattr(whole, name)), name


def test_path_sums_refuse_a_block_after_a_partial_tile():
    y = np.linspace(0.1, 0.5, 2 * SUM_TILE + 1)
    sums = folded(y, y, [SUM_TILE + 5])
    with pytest.raises(ValueError):
        sums.fold(y[None, SUM_TILE + 5:], y[None, SUM_TILE + 5:])


# ---------------------------------------------------------------------------
# the two solver routes


def test_discrete_ab_exact_fit(three_point):
    a_hat, b_hat = hl.lse_discrete_ab([1.0, 2.0, 2.0], 1.0)
    assert a_hat == pytest.approx(2.0, abs=1e-12)
    assert b_hat == pytest.approx(1.0, abs=1e-12)
    # two increments, two parameters: residuals vanish
    obj = ls_objective((a_hat, b_hat, 1.0, 0.5),
                       [1.0, 2.0, 2.0], [0.0, 0.5, 0.5], 1.0)
    assert obj <= 1e-24


def test_discrete_alphabeta_exact_fit():
    al, be = hl.lse_discrete_alphabeta([1.0, 2.0, 2.0], [0.0, 0.5, 0.5], 1.0)
    assert al == pytest.approx(1.0, abs=1e-12)
    assert be == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("dt", [-1, 0.0, -0.0, math.nan, math.inf, -math.inf, "a", True, None],
                         ids=repr)
def test_discrete_routes_refuse_a_bad_dt(dt):
    for route, args in ((hl.lse_discrete_ab, ([1.0, 2.0, 2.0],)),
                        (hl.lse_discrete_alphabeta, ([1.0, 2.0, 2.0], [0.0, 0.5, 0.5]))):
        with pytest.raises(hl.InvalidGrid, match="^dt must be a finite number > 0, got "):
            route(*args, dt)


def test_discrete_routes_keep_their_bits_at_a_good_dt():
    y, x = [1.0, 2.0, 2.5, 1.75], [0.0, 0.5, 0.25, 1.0]
    assert hl.lse_discrete_ab(y, 0.1) == (22.142857142857142, 10.714285714285714)
    assert hl.lse_discrete_alphabeta(y, x, np.float64(0.1)) == (
        2.6785714285714284, -0.3571428571428571)


def test_discrete_routes_reject_constant_regressor():
    with pytest.raises(hl.DegeneratePath):
        hl.lse_discrete_ab([2.0, 2.0, 2.0, 2.0], 0.5)
    with pytest.raises(hl.DegeneratePath):
        hl.lse_discrete_alphabeta([1.0, 1.0, 1.0], [0.0, 0.3, 0.9], 1.0)


def test_zero_price_increments_give_zero_estimates():
    y = np.array([1.0, 2.0, 1.5, 2.5])
    al, be = hl.lse_discrete_alphabeta(y, np.zeros(4), 0.5)
    assert al == 0.0 and be == 0.0
    # objective oracle: (0,0) beats random candidates
    rng = np.random.default_rng(12)
    base = ls_objective((1.0, 1.0, 0.0, 0.0), y, np.zeros(4), 0.5)
    for _ in range(200):
        cand = rng.normal(scale=0.1, size=2)
        assert ls_objective((1.0, 1.0, *cand), y, np.zeros(4), 0.5) >= base - 1e-15


def test_plugin_formulas_equal_normal_equations():
    """The closed-form plug-in estimates and the explicitly solved normal
    equations are the same algebra; they must agree to rounding error."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        y, x, dt = random_path(rng)
        f = hl.path_functionals(path_of(y, x, dt))
        vec_plug = hl.lse_from_functionals(f).vector()
        a_hat, b_hat = hl.lse_discrete_ab(y, dt)
        al_hat, be_hat = hl.lse_discrete_alphabeta(y, x, dt)
        vec_ne = np.array([a_hat, b_hat, al_hat, be_hat])
        rel = np.max(np.abs(vec_plug - vec_ne) / np.maximum(1.0, np.abs(vec_ne)))
        worst = max(worst, rel)
    assert worst <= 1e-12


def test_lse_from_functionals_fixture(three_point):
    est = hl.lse_from_functionals(hl.path_functionals(three_point))
    np.testing.assert_allclose(est.vector(), [2.0, 1.0, 1.0, 0.5], atol=1e-12)


# ---------------------------------------------------------------------------
# objective


def test_objective_zero_at_exact_fit(three_point):
    assert ls_objective((2.0, 1.0, 1.0, 0.5),
                        [1.0, 2.0, 2.0], [0.0, 0.5, 0.5], 1.0) == pytest.approx(0.0, abs=1e-24)


def test_objective_truth_never_beats_lse():
    for r in range(5):
        path = hl.simulate_xy(P, hl.TimeGrid(100.0, 1000), hl.Scheme.DISRE,
                              hl.SeedLineage(61, r))
        est = hl.lse_from_functionals(hl.path_functionals(path))
        at_fit = ls_objective(est.vector(), path.y, path.x, path.grid.dt)
        at_truth = ls_objective((P.a, P.b, P.alpha, P.beta),
                                path.y, path.x, path.grid.dt)
        assert at_truth >= at_fit - 1e-12 * max(1.0, at_fit)


def test_objective_optimal_against_perturbations():
    path = hl.simulate_xy(P, hl.TimeGrid(50.0, 500), hl.Scheme.DISRE,
                          hl.SeedLineage(62, 0))
    est = hl.lse_from_functionals(hl.path_functionals(path))
    base = ls_objective(est.vector(), path.y, path.x, path.grid.dt)
    rng = np.random.default_rng(63)
    for radius in (1e-3, 1e-1):
        for _ in range(1000):
            cand = est.vector() + rng.normal(scale=radius, size=4)
            assert ls_objective(cand, path.y, path.x, path.grid.dt) >= base - 1e-15


def test_objective_is_convex_quadratic():
    path = hl.simulate_xy(P, hl.TimeGrid(20.0, 200), hl.Scheme.DISRE,
                          hl.SeedLineage(64, 0))
    rng = np.random.default_rng(65)
    for _ in range(50):
        u = rng.normal(size=4)
        v = rng.normal(size=4)
        mid = ls_objective((u + v) / 2, path.y, path.x, path.grid.dt)
        avg = (ls_objective(u, path.y, path.x, path.grid.dt)
               + ls_objective(v, path.y, path.x, path.grid.dt)) / 2
        assert mid <= avg + 1e-12 * max(1.0, avg)


# ---------------------------------------------------------------------------
# integral diagnostics


def test_ito_identity_exact(three_point):
    f = hl.path_functionals(three_point)
    d = hl.ito_cross_check(f, P.sigma1)
    assert d.i3_direct == (f.y_terminal**2 - f.y0**2) / 2 - f.qv_y / 2


@pytest.mark.parametrize("sigma1", [0.0, -0.4, math.nan, math.inf, True, np.True_, None, "0.4"])
def test_ito_cross_check_refuses_a_bad_sigma1(three_point, sigma1):
    with pytest.raises(hl.NonPositiveSigma, match="^sigma1 must be a finite number > 0"):
        hl.ito_cross_check(hl.path_functionals(three_point), sigma1)


def test_qv_ratio_near_one_for_disre():
    # averaged over paths: the discrete quadratic variation matches sigma1^2 * I1
    ratios = []
    grid = hl.TimeGrid(500.0, 5000)
    for r in range(20):
        path = hl.simulate_xy(P, grid, hl.Scheme.DISRE, hl.SeedLineage(2024, r))
        f = hl.path_functionals(path)
        ratios.append(hl.ito_cross_check(f, P.sigma1).qv_ratio)
    assert abs(np.mean(ratios) - 1.0) < 0.05


def test_qv_ratio_detects_sigma_mismatch():
    path = hl.simulate_xy(P, hl.TimeGrid(100.0, 1000), hl.Scheme.DISRE,
                          hl.SeedLineage(66, 0))
    f = hl.path_functionals(path)
    r1 = hl.ito_cross_check(f, P.sigma1).qv_ratio
    r2 = hl.ito_cross_check(f, 2 * P.sigma1).qv_ratio
    assert r2 == pytest.approx(r1 / 4, rel=1e-12)


# ---------------------------------------------------------------------------
# normalized error and random scaling


def fixed_functionals(**over):
    base = dict(t_horizon=4.0, n_steps=4, y0=0.2, x0=0.1, y_terminal=1.0,
                x_terminal=0.5, i1=6.0, i2=11.0, i3=0.5, i4=0.2,
                e1=1.5, e2=2.75, e3=6.0, qv_y=0.8, denom=8.0)
    base.update(over)
    return hl.PathFunctionals(**base)


def test_normalized_error_zero_and_scaling():
    f = fixed_functionals()
    est = hl.LseEstimate(a_hat=0.4, b_hat=0.3, alpha_hat=0.1, beta_hat=0.15,
                         functionals=f)
    assert np.array_equal(hl.normalized_error(est, P), np.zeros(4))
    est2 = hl.LseEstimate(a_hat=1.4, b_hat=1.3, alpha_hat=1.1, beta_hat=1.15,
                          functionals=f)
    np.testing.assert_allclose(hl.normalized_error(est2, (0.4, 0.3, 0.1, 0.15)),
                               [2.0, 2.0, 2.0, 2.0], rtol=1e-14)


def test_scaling_zero_error_gives_zero_vector():
    f = fixed_functionals()
    est = hl.LseEstimate(a_hat=0.4, b_hat=0.3, alpha_hat=0.1, beta_hat=0.15,
                         functionals=f)
    assert np.array_equal(hl.random_scaling_transform(est, P, f), np.zeros(4))


def test_scaling_time_averaged_equals_unscaled_form():
    """Two algebraic layouts of the same statistic: the time-averaged one the
    library uses and the raw-integral one written out here."""
    rng = np.random.default_rng(70)
    for r in range(20):
        path = hl.simulate_xy(P, hl.TimeGrid(100.0, 1000), hl.Scheme.DISRE,
                              hl.SeedLineage(71, r))
        f = hl.path_functionals(path)
        est = hl.lse_from_functionals(f)
        got = hl.random_scaling_transform(est, P, f)

        T = f.t_horizon
        e1, e2, e3 = f.i1, f.i2, f.e3 * T
        err = est.vector() - np.array([P.a, P.b, P.alpha, P.beta])
        r11 = (T * e2 - e1**2) / math.sqrt(e1 * e3 - e2**2)
        block = np.array([[r11, 0.0], [-T, e1]])
        mat = np.kron(np.eye(2), block) / math.sqrt(e1)
        want = mat @ err
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_scaling_guards():
    est = hl.LseEstimate(a_hat=0.5, b_hat=0.4, alpha_hat=0.2, beta_hat=0.1,
                         functionals=fixed_functionals())
    flat = fixed_functionals(denom=0.0)
    with pytest.raises(hl.DegeneratePath):
        hl.random_scaling_transform(est, P, flat)
    # e1*e3 == e2^2 leaves no usable discriminant
    bad = fixed_functionals(e1=1.0, e2=1.0, e3=1.0)
    with pytest.raises(hl.NonPositiveScalingDiscriminant):
        hl.random_scaling_transform(est, P, bad)


def test_overflowing_discriminant_is_not_finite():
    """Finite functionals whose e2^2 overflows fail as NonFinitePath, not as
    a path without scaling, and raise no numpy warning."""
    f = fixed_functionals(e2=1e200, e3=1e200)
    assert hl.failure_reasons(f) == "NonFinitePath"
    with pytest.raises(hl.NonFinitePath):
        hl.lse_from_functionals(f)


def test_estimate_record_fields(three_point):
    est = hl.lse_from_functionals(hl.path_functionals(three_point))
    rec = hl.estimate_record(est, scheme=hl.Scheme.DISRE, seed=7)
    assert rec["a_hat"] == pytest.approx(2.0, abs=1e-12)
    assert rec["T"] == 2.0 and rec["N"] == 2
    assert rec["scheme"] == "DISRE" and rec["seed"] == 7
    assert set(rec) == {"a_hat", "b_hat", "alpha_hat", "beta_hat",
                        "T", "N", "scheme", "seed"}


# ---------------------------------------------------------------------------
# one path and many rows


COLUMNS = ("y0", "x0", "y_terminal", "x_terminal", "i1", "i2", "i3", "i4",
           "e1", "e2", "e3", "qv_y", "denom")


@st.composite
def functional_rows(draw):
    """A row of functionals: small values of both signs make rows that cannot
    be scaled common, a zero or tiny denominator a degenerate row, and in half
    the rows one cell is replaced by 0, a tiny number, NaN or an infinity."""
    row = {name: draw(st.floats(-4.0, 4.0)) for name in COLUMNS}
    row["e1"] = draw(st.floats(0.0, 4.0))
    row["denom"] = draw(st.floats(0.0, 4.0))
    if draw(st.booleans()):
        special = st.sampled_from([0.0, 1e-300, math.nan, math.inf, -math.inf])
        row[draw(st.sampled_from(COLUMNS))] = draw(special)
    return row


def scalar_route(f, truth):
    """(failure name or '', estimate, scaled) of one path, through the
    functions a single path goes through."""
    est = scaled = None
    try:
        est = hl.lse_from_functionals(f)
        hl.normalized_error(est, truth)
        scaled = hl.random_scaling_transform(est, truth, f)
    except hl.HestonLabError as exc:
        return type(exc).__name__, est and est.vector(), scaled
    return "", est.vector(), scaled


def reference_route(row, t):
    """The same as scalar_route, written out on Python floats in the order of
    operations the estimator and the scaling transform are defined with."""
    f = SimpleNamespace(**row)
    disc = f.e1 * f.e3 - f.e2 * f.e2
    if not all(math.isfinite(v) for v in (*row.values(), disc)):
        return "NonFinitePath", None, None
    if f.denom <= 1e-14 * max(1.0, t * f.i2):
        return "DegeneratePath", None, None
    dy, dx = f.y_terminal - f.y0, f.x_terminal - f.x0
    est = np.array([(dy * f.i2 - f.i1 * f.i3) / f.denom, (dy * f.i1 - t * f.i3) / f.denom,
                    (dx * f.i2 - f.i1 * f.i4) / f.denom, (dx * f.i1 - t * f.i4) / f.denom])
    if f.e1 <= 0.0 or disc <= 0.0:
        return "NonPositiveScalingDiscriminant", est, None
    r11 = f.denom / (t * t) / math.sqrt(disc)
    err = math.sqrt(t) * (est - np.array([P.a, P.b, P.alpha, P.beta]))
    pref = 1.0 / math.sqrt(f.e1)
    return "", est, np.array([pref * r11 * err[0], pref * (-err[0] + f.e1 * err[1]),
                              pref * r11 * err[2], pref * (-err[2] + f.e1 * err[3])])


def same_bits(a, b):
    return (a is None and b is None) or a.tobytes() == b.tobytes()


# rows with e1 near 1e-300 overflow the scaled error to inf on every route
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(rows=st.lists(functional_rows(), min_size=1, max_size=12),
       horizon=st.floats(0.5, 100.0))
def test_columnar_estimator_matches_scalar_route_row_by_row(rows, horizon):
    """R rows at once give, row by row, the failure reason and the bits of
    one path at a time, and of the reference arithmetic."""
    columns = hl.PathFunctionals(
        t_horizon=horizon, n_steps=7,
        **{name: np.array([row[name] for row in rows]) for name in COLUMNS})
    reasons = hl.failure_reasons(columns)
    estimable = np.isin(reasons, ["", "NonPositiveScalingDiscriminant"])
    ok = reasons == ""
    est = hl.lse_from_functionals(columns.take(estimable)).vector()
    scaled = hl.random_scaling_transform(
        hl.lse_from_functionals(columns.take(ok)), P, columns.take(ok))
    for j, row in enumerate(rows):
        f = hl.PathFunctionals(t_horizon=horizon, n_steps=7, **row)
        want = reference_route(row, horizon)
        got = scalar_route(f, P)
        assert got[0] == want[0] == reasons[j] == hl.failure_reasons(f)
        assert same_bits(got[1], want[1]) and same_bits(got[2], want[2])
        if estimable[j]:
            assert est[np.count_nonzero(estimable[:j])].tobytes() == want[1].tobytes()
        if ok[j]:
            assert scaled[np.count_nonzero(ok[:j])].tobytes() == want[2].tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_the_discrete_routes_refuse_non_finite_samples(bad):
    y = np.array([0.2, 0.25, bad, 0.3, 0.2])
    with pytest.raises(hl.NonFiniteSample, match=r"y_samples\[2\]"):
        hl.lse_discrete_ab(y, 0.1)
    with pytest.raises(hl.NonFiniteSample, match=r"x_samples\[2\]"):
        hl.lse_discrete_alphabeta(np.array([0.2, 0.25, 0.3, 0.35, 0.2]), y, 0.1)


@pytest.mark.parametrize("bad", [
    ["a"] * 5, "abcde", ["0.2", "0.25", "0.3", "0.35", "0.2"], [True, False] * 3,
], ids=repr)
def test_the_discrete_routes_refuse_samples_of_other_than_numbers(bad):
    good = [0.2, 0.25, 0.3, 0.35, 0.2]
    for name, call in (("y", lambda: hl.lse_discrete_ab(bad, 0.1)),
                       ("y", lambda: hl.lse_discrete_alphabeta(bad, good, 0.1)),
                       ("x", lambda: hl.lse_discrete_alphabeta(good, bad, 0.1))):
        with pytest.raises(hl.InvalidArgument,
                           match=f"^{name}_samples must hold real numbers: got values of dtype "):
            call()


@pytest.mark.parametrize("x", [[0.1, 0.2], 5.0], ids=repr)
def test_the_discrete_routes_refuse_samples_of_another_length(x):
    with pytest.raises(hl.LengthMismatch, match=r"^y and x must have equal length, got shapes"):
        hl.lse_discrete_alphabeta([0.2, 0.25, 0.3], x, 0.1)


@pytest.mark.parametrize("series, index", [("y", 3), ("x", 0)])
def test_path_functionals_refuse_a_non_finite_path(series, index):
    y, x = np.full(6, 0.2), np.zeros(6)
    {"y": y, "x": x}[series][index] = math.nan
    name = series.upper()
    with pytest.raises(hl.NonFinitePath, match=f"{name} is not finite at grid index {index}"):
        hl.path_functionals(path_of(y, x, 0.1))


def test_estimate_record_refuses_what_is_not_an_estimate(three_point):
    with pytest.raises(hl.InvalidArgument, match="est must be an LseEstimate"):
        hl.estimate_record(None)
    est = hl.lse_from_functionals(hl.path_functionals(three_point))
    rec = hl.estimate_record(est)
    assert [rec[k].hex() for k in ("a_hat", "b_hat", "alpha_hat", "beta_hat")] == [
        v.hex() for v in (est.a_hat, est.b_hat, est.alpha_hat, est.beta_hat)]
    assert (rec["scheme"], rec["seed"]) == ("", "")


# drift vectors that are not four finite real numbers
BAD_DRIFTS = [[1.0], (0.4, 0.3, 0.1), (0.4, 0.3, 0.1, 0.15, 0.0), (math.nan, 0.3, 0.1, 0.15),
              (0.4, math.inf, 0.1, 0.15), (0.4, 0.3, -math.inf, 0.15), (0.4, 0.3, 0.1, True),
              (0.4, "0.3", 0.1, 0.15), (0.4, 0.3, None, 0.15), "abcd", None, 0.4,
              np.zeros((4, 1)), np.zeros((2, 2)), np.array(0.4), {0.4, 0.3, 0.1, 0.15},
              (0.4, 0.3, 0.1, 10**400)]


def disre_estimate():
    path = hl.simulate_xy(P, hl.TimeGrid(5.0, 50), hl.Scheme.DISRE, hl.SeedLineage(3, 0))
    f = hl.path_functionals(path)
    return path, hl.lse_from_functionals(f), f


@pytest.mark.parametrize("truth", BAD_DRIFTS, ids=repr)
def test_truths_that_are_not_four_finite_numbers_are_refused(truth):
    _, est, f = disre_estimate()
    for call in (lambda: hl.estimate.truth_vector(truth), lambda: hl.normalized_error(est, truth),
                 lambda: hl.random_scaling_transform(est, truth, f)):
        with pytest.raises(hl.InvalidArgument, match="^truth must be four finite real numbers"):
            call()


def test_accepted_drift_vectors_keep_their_bits():
    path, est, _ = disre_estimate()
    assert hl.estimate.truth_vector((0.4, 0.3, 0.1, 0.15)).tolist() == [0.4, 0.3, 0.1, 0.15]
    assert [v.hex() for v in hl.normalized_error(est, [0.4, 0.3, 0.1, 0.15]).tolist()] == [
        "-0x1.4ed6554878fbbp-1", "-0x1.e14f88c2ed994p-1", "-0x1.5f259b6a13c48p-9",
        "-0x1.25e719ca62665p-3"]
    assert ls_objective((0.4, 0.3, 0.1, 0.15), path.y, path.x,
                        path.grid.dt).hex() == "0x1.d872e1b9d644cp-2"
    assert ls_objective(np.array([0.5, 0.25, 0.0, 1.0]), path.y.tolist(), path.x.tolist(),
                        0.1).hex() == "0x1.3e0f42ae65c28p-1"
