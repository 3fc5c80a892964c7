"""Model-layer tests: parameter validation, stationary law, conditional means,
and the two constructions of the limit covariance."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

import hestonlab as hl


CANON = dict(a=0.4, b=0.3, alpha=0.1, beta=0.15, sigma1=0.4, sigma2=0.3,
             rho=0.2, y0=0.2, x0=0.1)
# the config keys other than the coefficients
EXPERIMENT = dict(T=50.0, N=500, scheme="DISRE", replicates=1, seed=0)


def make_params(**over):
    kw = dict(CANON)
    kw.update(over)
    return hl.ModelParams(**kw)


# ---------------------------------------------------------------------------
# validation


def test_valid_params_construct():
    p = make_params()
    assert p.a == 0.4 and p.beta == 0.15
    assert p.feller_strict


@pytest.mark.parametrize("field,value,exc", [
    ("a", 0.0, hl.NonPositiveA),
    ("a", -0.1, hl.NonPositiveA),
    ("sigma1", 0.0, hl.NonPositiveSigma),
    ("sigma2", -1.0, hl.NonPositiveSigma),
    ("rho", 1.5, hl.RhoOutOfRange),
    ("rho", -1.0001, hl.RhoOutOfRange),
    ("y0", 0.0, hl.NonPositiveY0),
    ("y0", -0.2, hl.NonPositiveY0),
    *[(field, value, hl.InvalidParams) for field in sorted(CANON) for value in (True, np.True_)],
    # an int beyond the doubles, on which math.isfinite raises OverflowError
    ("b", 10**400, hl.InvalidParams),
])
def test_invalid_params_rejected(field, value, exc):
    with pytest.raises(exc):
        make_params(**{field: value})


@pytest.mark.parametrize("field", sorted(CANON))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_params_rejected_naming_the_field(field, value):
    with pytest.raises(hl.InvalidParams, match=f"^{field} must be a finite number"):
        make_params(**{field: value})
    with pytest.raises(hl.InvalidParams, match=f"^{field} must be a finite number"):
        hl.ExperimentConfig.from_mapping({**CANON, **EXPERIMENT, field: str(value)})


def test_validate_params_from_mapping():
    p = hl.ModelParams(**CANON)
    assert isinstance(p, hl.ModelParams)
    with pytest.raises(hl.InvalidParams):
        hl.ModelParams(**{**CANON, "a": -1.0})


def test_negative_b_and_arbitrary_x0_allowed():
    # drift reversion may have any sign; x0 is unconstrained
    make_params(b=-0.1, x0=-42.0)


# ---------------------------------------------------------------------------
# regime classification


@pytest.mark.parametrize("b,regime", [
    (0.3, hl.Regime.SUBCRITICAL),
    (0.0, hl.Regime.CRITICAL),
    (-0.1, hl.Regime.SUPERCRITICAL),
])
def test_classify_regime(b, regime):
    assert hl.classify_regime(make_params(b=b)) is regime


# ---------------------------------------------------------------------------
# stationary Laplace transform


def test_laplace_at_zero_is_one():
    assert hl.stationary_laplace(make_params(), 0.0) == 1.0


def test_laplace_closed_form_value():
    p = make_params()
    want = (1.0 + 0.16 / 0.6) ** (-2 * 0.4 / 0.16)
    assert hl.stationary_laplace(p, 1.0) == pytest.approx(want, rel=1e-15)


def test_laplace_monotone_to_zero():
    p = make_params()
    lams = [0.0, 0.5, 1.0, 5.0, 50.0, 5000.0]
    vals = [hl.stationary_laplace(p, lam) for lam in lams]
    assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))
    assert vals[-1] < 1e-6


def test_laplace_matches_gamma_density_integral():
    """Cross-check the closed form against numerical integration of the
    stationary Gamma density."""
    p = make_params()
    shape = 2 * p.a / p.sigma1**2
    rate = 2 * p.b / p.sigma1**2
    for lam in (0.3, 1.0, 2.5):
        val, err = integrate.quad(
            lambda y: math.exp(-lam * y) * stats.gamma.pdf(y, shape, scale=1 / rate),
            0.0, np.inf)
        assert hl.stationary_laplace(p, lam) == pytest.approx(val, abs=max(1e-10, 10 * err))


@pytest.mark.parametrize("lam", [-3.75, -5.0, -math.inf, math.nan, math.inf, "a", True, None],
                         ids=repr)
def test_laplace_refuses_lam_outside_its_domain(lam):
    """At the canonical parameters the closed form holds for
    lam > -2b/sigma1^2 = -3.75 (as rounded, -3.749999999999999)."""
    p = hl.canonical_params()
    with pytest.raises(hl.OutsideDomain, match=r"lam > -2b/sigma1\^2 = -3\.74.*got lam="):
        hl.stationary_laplace(p, lam)
    assert issubclass(hl.OutsideDomain, hl.HestonLabError)
    assert issubclass(hl.OutsideDomain, ValueError)


def test_laplace_inside_its_domain_keeps_its_bits():
    p = hl.canonical_params()
    assert hl.stationary_laplace(p, -1) == 4.71512129698046
    assert hl.stationary_laplace(p, np.float64(-1.0)) == 4.71512129698046
    # just inside the rounded bound the value is large but finite; where it
    # overflows it is refused too
    assert math.isfinite(hl.stationary_laplace(p, -3.7499999999999987))
    with pytest.raises(hl.OutsideDomain):
        hl.stationary_laplace(make_params(a=50.0, sigma1=0.01), 0.5 - 2 * 0.3 / 1e-4)


def test_laplace_requires_subcritical():
    with pytest.raises(hl.NotSubcritical):
        hl.stationary_laplace(make_params(b=0.0), 1.0)
    with pytest.raises(hl.NotSubcritical):
        hl.stationary_laplace(make_params(b=-0.2), 1.0)


# ---------------------------------------------------------------------------
# stationary moments


def test_stationary_moments_values():
    m = hl.stationary_moments(make_params())
    assert m.m1 == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert m.m1 == pytest.approx(1.3333, abs=5e-5)
    assert m.m2 == pytest.approx(2.13333, abs=5e-6)
    assert m.m3 == pytest.approx(3.98222, abs=5e-6)
    assert m.var == pytest.approx(0.35556, abs=5e-6)
    assert m.var == pytest.approx(m.m2 - m.m1**2, rel=1e-13)


def test_stationary_moments_a_equals_b():
    m = hl.stationary_moments(make_params(a=0.4, b=0.4, sigma1=0.4))
    assert m.m1 == pytest.approx(1.0, rel=1e-15)


def test_stationary_moments_requires_subcritical():
    with pytest.raises(hl.NotSubcritical):
        hl.stationary_moments(make_params(b=0.0))


def test_stationary_moments_match_gamma_sampling():
    p = make_params()
    m = hl.stationary_moments(p)
    rng = np.random.default_rng(123)
    y = rng.gamma(2 * p.a / p.sigma1**2, p.sigma1**2 / (2 * p.b), size=10**7)
    assert np.mean(y) == pytest.approx(m.m1, rel=2e-3)
    assert np.mean(y**2) == pytest.approx(m.m2, rel=5e-3)
    assert np.mean(y**3) == pytest.approx(m.m3, rel=2e-2)


def test_moment_inequalities_random_params():
    # strict moment inequalities hold for every valid subcritical parameter set
    rng = np.random.default_rng(5)
    for _ in range(100):
        sigma1 = rng.uniform(0.1, 1.0)
        a = rng.uniform(sigma1**2 / 2 + 0.01, 2.0)
        p = make_params(a=a, b=rng.uniform(0.05, 2.0), sigma1=sigma1)
        m = hl.stationary_moments(p)
        assert m.m2 > m.m1**2
        assert m.m1 * m.m3 > m.m2**2


def test_laplace_derivatives_reproduce_moments():
    """Central finite differences of the transform at the origin recover the
    first three moments.  The third difference needs a wider step: at h=1e-4
    float64 cancellation already exceeds the 1e-5 target."""
    p = make_params()
    m = hl.stationary_moments(p)
    L = lambda lam: hl.stationary_laplace(p, lam)
    h = 1e-4
    d1 = -(L(h) - L(-h)) / (2 * h)
    d2 = (L(h) - 2 * L(0.0) + L(-h)) / h**2
    assert d1 == pytest.approx(m.m1, rel=1e-5)
    assert d2 == pytest.approx(m.m2, rel=1e-5)
    h = 1e-3
    d3 = -(L(2 * h) - 2 * L(h) + 2 * L(-h) - L(-2 * h)) / (2 * h**3)
    assert d3 == pytest.approx(m.m3, rel=1e-5)


# ---------------------------------------------------------------------------
# conditional means


def test_conditional_mean_y_degenerate_interval():
    p = make_params()
    assert hl.conditional_mean_y(p, 0.7, 2.0, 2.0) == 0.7


def test_conditional_means_refuse_a_backward_or_nan_interval():
    p = make_params()
    for s, t in ((2.0, 1.0), (math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(hl.InvalidGrid, match="need t >= s"):
            hl.conditional_mean_y(p, 0.2, s, t)
        with pytest.raises(hl.InvalidGrid, match="need t >= s"):
            hl.conditional_mean_x(p, 0.2, 0.1, s, t)
    # an infinite end point: inf - inf is NaN, and t = inf gives NaN for X;
    # and an int beyond the doubles
    for s, t in ((math.inf, math.inf), (-math.inf, 0.0), (0.0, math.inf), (0.0, 10**400)):
        with pytest.raises(hl.InvalidGrid, match="finite"):
            hl.conditional_mean_y(p, 0.2, s, t)
        with pytest.raises(hl.InvalidGrid, match="finite"):
            hl.conditional_mean_x(p, 0.2, 0.1, s, t)
    # an end point that is not a real number, a bool read as 1 among them
    for bad in (True, False, "1", None):
        for s, t, name in ((bad, 1.0, "s"), (0.0, bad, "t")):
            with pytest.raises(hl.InvalidGrid, match=f"^{name} must be a real number"):
                hl.conditional_mean_y(p, 0.2, s, t)
            with pytest.raises(hl.InvalidGrid, match=f"^{name} must be a real number"):
                hl.conditional_mean_x(p, 0.2, 0.1, s, t)
    # a start value that is not a finite number, or a bool read as 1.0
    for bad in (math.nan, math.inf, True):
        with pytest.raises(hl.InvalidParams, match="y_s"):
            hl.conditional_mean_y(p, bad, 0.0, 1.0)
        with pytest.raises(hl.InvalidParams, match="y_s"):
            hl.conditional_mean_x(p, bad, 0.1, 0.0, 1.0)
        with pytest.raises(hl.InvalidParams, match="x_s"):
            hl.conditional_mean_x(p, 0.2, bad, 0.0, 1.0)


def test_conditional_mean_y_zero_reversion_branch():
    p = make_params(b=0.0)
    assert hl.conditional_mean_y(p, 0.2, 0.0, 1.0) == pytest.approx(0.6, rel=1e-15)


def test_conditional_mean_y_closed_form():
    p = make_params()
    want = 0.2 * math.exp(-3.0) + (0.4 / 0.3) * (1.0 - math.exp(-3.0))
    assert hl.conditional_mean_y(p, 0.2, 0.0, 10.0) == pytest.approx(want, rel=1e-13)


def test_conditional_mean_y_branch_continuity():
    pa = make_params(b=1e-8)
    pb = make_params(b=0.0)
    for tau in (0.5, 2.0, 10.0):
        va = hl.conditional_mean_y(pa, 0.2, 0.0, tau)
        vb = hl.conditional_mean_y(pb, 0.2, 0.0, tau)
        assert va == pytest.approx(vb, abs=1e-6)


def test_conditional_mean_y_against_simulation():
    """Mean of many fine-step implicit square-root paths tracks the closed form."""
    p = make_params()
    grid = hl.TimeGrid(1.0, 100)
    want = hl.conditional_mean_y(p, p.y0, 0.0, 1.0)
    rng = np.random.default_rng(2718)
    eta = rng.standard_normal((20_000, 100))
    from hestonlab.simulate import advance_variance
    y, _, aborted = advance_variance(p, grid.dt, hl.Scheme.DISRE, eta)
    assert not aborted.any()
    assert np.mean(y[:, -1]) == pytest.approx(want, abs=0.01)


def test_conditional_mean_x_degenerate_and_decoupled():
    p = make_params()
    assert hl.conditional_mean_x(p, 0.2, 0.1, 3.0, 3.0) == 0.1
    p0 = make_params(beta=1e-300)
    got = hl.conditional_mean_x(p0, 0.2, 0.1, 0.0, 7.0)
    assert got == pytest.approx(0.1 + 0.1 * 7.0, rel=1e-12)


def test_conditional_mean_x_zero_reversion_branch():
    p = make_params(b=0.0)
    tau = 2.0
    want = 0.1 + 0.1 * tau - 0.15 * 0.2 * tau - 0.4 * 0.15 * tau**2 / 2
    assert hl.conditional_mean_x(p, 0.2, 0.1, 0.0, tau) == pytest.approx(want, rel=1e-13)


def test_conditional_mean_x_long_run_slope():
    # asymptotic drift of the log-price is alpha - beta*a/b = -0.1
    p = make_params()
    v1 = hl.conditional_mean_x(p, 0.2, 0.1, 0.0, 1000.0)
    v2 = hl.conditional_mean_x(p, 0.2, 0.1, 0.0, 2000.0)
    assert (v2 - v1) / 1000.0 == pytest.approx(-0.1, abs=1e-9)


# ---------------------------------------------------------------------------
# limit covariance, both constructions


def test_asymptotic_covariance_canonical_values():
    cov = hl.asymptotic_covariance(make_params())
    sig = np.asarray(cov.sigma_matrix)
    np.testing.assert_allclose(np.diag(sig), [1.28, 0.84, 0.72, 0.4725], rtol=1e-12)
    assert sig[0, 1] == pytest.approx(0.96, rel=1e-12)  # = 2a + sigma1^2


def test_asymptotic_covariance_symmetry_and_minors():
    sig = np.asarray(hl.asymptotic_covariance(make_params()).sigma_matrix)
    np.testing.assert_allclose(sig, sig.T, rtol=0, atol=1e-15)
    for k in range(1, 5):
        assert np.linalg.det(sig[:k, :k]) > 0


def test_asymptotic_covariance_uncorrelated_blocks():
    sig = np.asarray(hl.asymptotic_covariance(make_params(rho=0.0)).sigma_matrix)
    np.testing.assert_allclose(sig[:2, 2:], 0.0, atol=0)
    np.testing.assert_allclose(sig[2:, :2], 0.0, atol=0)


def test_asymptotic_covariance_requires_subcritical():
    with pytest.raises(hl.NotSubcritical):
        hl.asymptotic_covariance(make_params(b=-0.3))


def test_sandwich_agrees_on_canonical_params():
    p = make_params()
    direct = np.asarray(hl.asymptotic_covariance(p).sigma_matrix)
    sand = np.asarray(hl.covariance_sandwich(p).sigma_matrix)
    np.testing.assert_allclose(sand, direct, rtol=1e-12)


def test_sandwich_agrees_on_random_params():
    rng = np.random.default_rng(17)
    for _ in range(100):
        sigma1 = rng.uniform(0.1, 1.2)
        p = make_params(
            a=rng.uniform(sigma1**2 / 2 + 0.02, 2.5),
            b=rng.uniform(0.05, 2.0),
            sigma1=sigma1,
            sigma2=rng.uniform(0.1, 1.5),
            rho=rng.uniform(-0.95, 0.95),
        )
        direct = np.asarray(hl.asymptotic_covariance(p).sigma_matrix)
        sand = np.asarray(hl.covariance_sandwich(p).sigma_matrix)
        np.testing.assert_allclose(sand, direct, rtol=1e-12, atol=1e-14)


def test_sandwich_diagonal_case():
    p = make_params(a=1.0, b=1.0, sigma1=1.0, sigma2=1.0, rho=0.0)
    for route in (hl.asymptotic_covariance, hl.covariance_sandwich):
        sig = np.asarray(route(p).sigma_matrix)
        off = sig[~np.eye(4, dtype=bool)]
        # cross blocks vanish; the (a,b) and (alpha,beta) 2x2 blocks remain coupled
        np.testing.assert_allclose(sig[:2, 2:], 0.0, atol=1e-14)
        assert np.all(np.diag(sig) > 0)


# ---------------------------------------------------------------------------
# kronecker helper


def test_kron_identity_factor():
    b = [[1.0, 2.0], [3.0, 4.0]]
    got = np.asarray(hl.kron([[1.0, 0.0], [0.0, 1.0]], b))
    want = np.zeros((4, 4))
    want[:2, :2] = b
    want[2:, 2:] = b
    np.testing.assert_allclose(got, want, rtol=0, atol=0)


def test_kron_matches_numpy_and_identities():
    rng = np.random.default_rng(29)
    for _ in range(50):
        a, b, c, d = rng.standard_normal((4, 2, 2))
        ka = np.asarray(hl.kron(a, b))
        np.testing.assert_allclose(ka, np.kron(a, b), rtol=1e-15, atol=1e-15)
        # mixed product and transpose identities
        np.testing.assert_allclose(
            np.asarray(hl.kron(a, b)) @ np.asarray(hl.kron(c, d)),
            np.asarray(hl.kron(a @ c, b @ d)), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(ka.T, np.asarray(hl.kron(a.T, b.T)), rtol=0, atol=0)


@pytest.mark.parametrize("left, right, name", [
    ("a", np.eye(2), "left"), (None, np.eye(2), "left"), (np.eye(2), np.eye(3), "right"),
    (np.eye(2), [["1", "0"], ["0", "1"]], "right"), (np.eye(2, dtype=bool), np.eye(2), "left")])
def test_kron_refuses_what_is_not_a_2x2_real_matrix(left, right, name):
    with pytest.raises(hl.InvalidArgument, match=f"kron: {name} must be a 2x2"):
        hl.kron(left, right)


def test_kron_keeps_the_bits_of_the_limit_covariance():
    theory = hl.asymptotic_covariance(hl.canonical_params())
    got = np.asarray(hl.kron(theory.s_matrix, theory.m_matrix))
    assert got.tobytes() == np.asarray(theory.sigma_matrix).tobytes()
    assert hl.kron([[1, 2], [3, 4]], [[0.5, -1.0], [2.0, 0.25]])[3].tolist() == [
        6.0, 0.75, 8.0, 1.0]
