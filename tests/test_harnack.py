"""Envelope transform, conjugate bounds, and sample-pair verification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar

from finslerheat import (
    AlphaSignChange,
    CallableFlow,
    DomainError,
    EuclideanNorm,
    LiYauCoefficients,
    LiYauProfile,
    MeasureField,
    MetricField,
    NoConvergence,
    NoRoot,
    PsiEvaluator,
    ScalarField,
    ThetaDescriptor,
    TorusGrid,
    Unbounded,
    alpha_phi,
    harnack_bound_integral,
    harnack_bound_lf,
    solve_heat_flow,
    theta,
    theta_conjugate,
    theta_descriptor,
    verify_harnack,
)


def flat_coeffs(N):
    return alpha_phi(LiYauProfile.quadratic(), 0.0, N, 10.0)


def classical_bound(N, d, t1, t2):
    return (t2 / t1) ** (N / 2.0) * math.exp(d * d / (4.0 * (t2 - t1)))


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------


def test_descriptor_flat():
    desc = theta_descriptor(2.0, 0.0, 0.5)
    assert desc.xi_lo == pytest.approx(-2.0)
    assert desc.xi_hi == math.inf


def test_descriptor_negative_bound_uses_the_envelope_zero():
    desc = theta_descriptor(3.0, -1.0, 1.0)
    assert desc.xi_lo == pytest.approx(3.0 * -1.0 * 2.7070529755500545 / 4.0, abs=1e-9)
    assert desc.xi_hi == math.inf


def test_descriptor_positive_bound_is_compact():
    desc = theta_descriptor(3.0, 1.0, 2.5)
    assert desc.xi_lo == pytest.approx(3.0 * -0.27030673424496854 / 4.0, abs=1e-9)
    assert desc.xi_hi == pytest.approx(3.0 * 0.4953150978813028 / 4.0, abs=1e-9)
    assert desc.xi_lo < 0.0 < desc.xi_hi


def test_descriptor_positive_bound_needs_late_time():
    with pytest.raises(NoRoot):
        theta_descriptor(3.0, 1.0, 1.5)


def test_descriptor_guards():
    with pytest.raises(DomainError):
        ThetaDescriptor(0.0, 0.0, 1.0, -1.0, math.inf)
    with pytest.raises(DomainError):
        ThetaDescriptor(2.0, 0.0, 0.0, -1.0, math.inf)


# ---------------------------------------------------------------------------
# transform and conjugate
# ---------------------------------------------------------------------------


def test_theta_flat_closed_form():
    desc = theta_descriptor(2.0, 0.0, 0.5)
    for xi in (-1.5, 0.0, 3.0):
        assert theta(desc, xi) == pytest.approx(-math.sqrt(2.0 + xi), rel=1e-14)
    assert theta(desc, desc.xi_lo) == 0.0


def test_theta_is_negative_inside_and_zero_at_endpoints():
    desc = theta_descriptor(3.0, 1.0, 2.5)
    xs = np.linspace(desc.xi_lo, desc.xi_hi, 41)
    vals = theta(desc, xs)
    assert np.all(vals <= 0.0)
    assert abs(vals[0]) <= 1e-6
    assert abs(vals[-1]) <= 1e-6
    assert np.min(vals[5:-5]) < -0.1


def test_theta_rejects_outside_interval():
    desc = theta_descriptor(2.0, 0.0, 0.5)
    with pytest.raises(DomainError):
        theta(desc, desc.xi_lo - 1.0)
    compact = theta_descriptor(3.0, 1.0, 2.5)
    with pytest.raises(DomainError):
        theta(compact, compact.xi_hi + 1.0)


def test_conjugate_flat_closed_form():
    N, t = 3.0, 0.7
    desc = theta_descriptor(N, 0.0, t)
    for k in (-10.0, -1.0, -0.01):
        ref = -(N / (2.0 * t)) * k - 1.0 / (4.0 * k)
        assert theta_conjugate(desc, k) == pytest.approx(ref, rel=1e-14)


def test_conjugate_numeric_matches_closed_form():
    desc = theta_descriptor(2.0, 0.0, 1.0)
    for k in np.linspace(-10.0, -0.01, 25):
        k = float(k)
        closed = theta_conjugate(desc, k)
        numeric = theta_conjugate(desc, k, force_numeric=True)
        assert numeric == pytest.approx(closed, abs=1e-8, rel=1e-8)


def test_conjugate_unbounded_for_nonnegative_slopes():
    desc = theta_descriptor(2.0, 0.0, 1.0)
    with pytest.raises(Unbounded):
        theta_conjugate(desc, 0.0)
    neg = theta_descriptor(2.0, -0.5, 1.0)
    with pytest.raises(Unbounded):
        theta_conjugate(neg, 1.0)


def test_conjugate_fenchel_young():
    rng = np.random.default_rng(9)
    for desc, k_draw in (
        (theta_descriptor(2.0, -1.0, 0.8), lambda: -rng.uniform(0.05, 5.0)),
        (theta_descriptor(3.0, 1.0, 2.5), lambda: rng.uniform(-5.0, 5.0)),
    ):
        hi = desc.xi_hi if math.isfinite(desc.xi_hi) else desc.xi_lo + 30.0
        for _ in range(50):
            k = k_draw()
            xi = rng.uniform(desc.xi_lo, hi)
            star = theta_conjugate(desc, k)
            assert k * xi - theta(desc, xi) <= star + 1e-8


def test_conjugate_compact_case_attains_grid_sup():
    desc = theta_descriptor(3.0, 1.0, 2.5)
    k = -0.7
    xs = np.linspace(desc.xi_lo, desc.xi_hi, 20001)
    grid_sup = float(np.max(k * xs - theta(desc, xs)))
    star = theta_conjugate(desc, k)
    assert grid_sup <= star + 1e-8
    assert star - grid_sup <= 1e-6


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_integral_bound_flat_closed_form():
    N = 2.0
    coeffs = flat_coeffs(N)
    for d, t1, t2 in ((0.0, 0.1, 0.4), (0.3, 0.2, 0.5), (1.0, 0.5, 2.0)):
        ref = classical_bound(N, d, t1, t2)
        assert harnack_bound_integral(coeffs, d, t1, t2) == pytest.approx(ref, rel=1e-9)


def test_lf_bound_flat_closed_form():
    N = 2.0
    desc = theta_descriptor(N, 0.0, 0.2)
    for d, t1, t2 in ((0.0, 0.1, 0.4), (0.3, 0.2, 0.5), (1.0, 0.5, 2.0)):
        ref = classical_bound(N, d, t1, t2)
        assert harnack_bound_lf(desc, d, t1, t2) == pytest.approx(ref, rel=1e-9)


def test_lf_bound_tiny_negative_curvature_matches_flat():
    N, d, t1, t2 = 2.0, 0.5, 0.2, 0.6
    ref = classical_bound(N, d, t1, t2)
    near = harnack_bound_lf(theta_descriptor(N, -1e-6, t1), d, t1, t2)
    assert near == pytest.approx(ref, rel=1e-4)


def test_bounds_increase_with_distance():
    N = 2.0
    coeffs = flat_coeffs(N)
    desc = theta_descriptor(N, -0.8, 0.2)
    ds = (0.0, 0.4, 0.9)
    integral = [harnack_bound_integral(coeffs, d, 0.2, 0.5) for d in ds]
    lf = [harnack_bound_lf(desc, d, 0.2, 0.5) for d in ds]
    assert integral[0] < integral[1] < integral[2]
    assert lf[0] < lf[1] < lf[2]


def test_integral_bound_rejects_alpha_crossing():
    coeffs = alpha_phi(LiYauProfile.quadratic(), 3.0, 2.0, 1.0)
    # alpha(t) = 1 - 2t crosses zero at t = 0.5
    with pytest.raises(AlphaSignChange):
        harnack_bound_integral(coeffs, 0.1, 0.3, 0.7)


def test_bound_guards_and_overflow():
    coeffs = flat_coeffs(2.0)
    with pytest.raises(DomainError):
        harnack_bound_integral(coeffs, 0.1, 0.5, 0.5)
    with pytest.raises(DomainError):
        harnack_bound_integral(coeffs, -0.1, 0.1, 0.5)
    with pytest.raises(DomainError):
        harnack_bound_lf(theta_descriptor(2.0, 0.0, 0.1), 0.1, 0.0, 0.5)
    assert harnack_bound_integral(coeffs, 1e3, 0.1, 0.11) == math.inf


def test_integral_bound_rejects_rules_that_disagree():
    # alpha jumps inside a panel: the 8- and 12-point rules see different
    # step positions and disagree
    flat = flat_coeffs(2.0)
    jump = LiYauCoefficients(
        alpha=lambda t: 1.0 if t < 0.3 else 2.0,
        phi=flat.phi,
        provenance="closed_form",
        K=0.0,
        N=2.0,
        horizon=1.0,
    )
    with pytest.raises(NoConvergence):
        harnack_bound_integral(jump, 0.5, 0.2, 0.4)


@pytest.mark.parametrize("K, t1, t2", [(0.2, 0.2, 1.6), (-1.0, 0.02, 2.0)])
def test_integral_bound_grades_panels_toward_the_profile_zero(K, t1, t2):
    # alpha and phi of sine:1.3 blow up at its zero pi / 1.3 = 2.42; on
    # panels graded only toward t = 0 the 8- and 12-point rules stayed
    # 2.4e-8 apart here and the bound raised NoConvergence
    coeffs = alpha_phi(LiYauProfile.parse("sine:1.3"), K, 2.0, 2.0)
    assert coeffs.zero == math.pi / 1.3
    d = 0.3

    def integral(f):
        return quad(f, t1, t2, epsabs=0.0, epsrel=1e-13, limit=200)[0]

    int_alpha = integral(coeffs.alpha)
    int_phi = integral(lambda s: coeffs.phi(s) / coeffs.alpha(s))
    ref = math.exp(d * d / (4.0 * (t2 - t1) ** 2) * int_alpha + int_phi)
    assert harnack_bound_integral(coeffs, d, t1, t2) == pytest.approx(ref, rel=1e-9)


def test_integral_bound_grades_panels_toward_the_zero_of_alpha():
    # with K = 0.2, N = 2 alpha of sine:1.3 vanishes at t = 1.853, before the
    # profile's zero: phi / alpha has a pole there, and on panels graded only
    # toward the profile's zero the rules gave 6.51569245 vs 6.51589971
    coeffs = alpha_phi(LiYauProfile.parse("sine:1.3"), 0.2, 2.0, 2.0)
    assert coeffs.alpha_zero == pytest.approx(1.8532010896802766, rel=1e-12)
    assert abs(coeffs.alpha(coeffs.alpha_zero)) < 1e-12
    t1, t2, d = 0.01, 1.8, 0.3

    def integral(f):
        return quad(f, t1, t2, epsabs=0.0, epsrel=1e-13, limit=400)[0]

    int_alpha = integral(coeffs.alpha)
    int_phi = integral(lambda s: coeffs.phi(s) / coeffs.alpha(s))
    ref = math.exp(d * d / (4.0 * (t2 - t1) ** 2) * int_alpha + int_phi)
    assert harnack_bound_integral(coeffs, d, t1, t2) == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize(
    "profile, K, horizon, zero",
    [
        ("quadratic", 3.0, 0.4, 0.5),  # alpha = 1 - 2 K t / 3
        ("quadratic", 0.2, 2.0, math.inf),  # zero 7.5 beyond twice the horizon
        ("sine:1.3", -1.0, 2.0, math.inf),  # alpha >= 1 for K <= 0
        ("lixu", 1.0, 2.0, math.inf),
        # K > tau: the zero lies far below t = 444, where sinh overflows
        ("sinh:0.8", 1.0, 300.0, 1.9929868827562331),
        ("sinh:0.8", 0.5, 460.0, math.inf),
    ],
)
def test_alpha_zero_of_each_profile(profile, K, horizon, zero):
    coeffs = alpha_phi(LiYauProfile.parse(profile), K, 2.0, horizon)
    assert coeffs.alpha_zero == pytest.approx(zero, rel=1e-12)


# ---------------------------------------------------------------------------
# the conjugate-form bound against an independent oracle: envelope zeros by
# brentq on PsiEvaluator.psi, the conjugate by a bounded scalar maximiser,
# the time integral by adaptive quadrature
# ---------------------------------------------------------------------------


def oracle_interval(N, K, s):
    if K == 0.0:
        return -N / (2.0 * s), math.inf
    ev = PsiEvaluator(N, K, s)

    def xi_at_zero(a, b):
        return N * K * brentq(ev.psi, a, b, xtol=1e-300) / 4.0

    if K < 0:
        ends = (ev.x_max - (ev.x_max - 1.0) * 0.5**j for j in range(1, 60))
        return xi_at_zero(1.0, next(x for x in ends if ev.psi(x) < 0.0)), math.inf
    far = next(-(2.0**j) for j in range(60) if ev.psi(-(2.0**j)) < 0.0)
    return xi_at_zero(far, 0.0), xi_at_zero(0.0, 1.0)


def oracle_conjugate(N, K, s, k):
    lo, hi = oracle_interval(N, K, s)

    def theta_ref(xi):
        if K == 0.0:
            inner = xi + N / (2.0 * s)
        else:
            inner = (N / 2.0) * PsiEvaluator(N, K, s).psi(4.0 * xi / (N * K))
        return -math.sqrt(max(inner, 0.0))

    if not math.isfinite(hi):
        hi = lo + 100.0 * (1.0 + abs(K) * s) ** 2 / k**2
    res = minimize_scalar(
        lambda xi: theta_ref(xi) - k * xi,
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-12 * max(1.0, abs(lo)), "maxiter": 2000},
    )
    assert res.success and res.x < hi - 1e-6 * (hi - lo)
    return -res.fun


def oracle_bound_lf(N, K, d, t1, t2):
    delta = t2 - t1
    if d == 0.0:
        integral = quad(lambda s: -oracle_interval(N, K, s)[0], t1, t2, epsabs=0.0, epsrel=1e-12)
        return math.exp(integral[0])
    integral = quad(
        lambda s: oracle_conjugate(N, K, s, -delta / d), t1, t2, epsabs=0.0, epsrel=1e-12
    )
    return math.exp(d / delta * integral[0])


@pytest.mark.parametrize(
    "N, K, d, t1, t2",
    [
        (3.0, -0.5, 0.16, 0.002, 0.012),
        (2.0, -2.0, 0.0, 0.1, 0.6),
        (3.0, -2.0, 0.7, 0.01, 1.5),
        (2.0, 0.0, 0.3, 0.2, 0.5),
        (3.0, 0.0, 0.0, 0.02, 0.5),
        (3.0, 1.0, 0.4, 2.5, 4.0),
        (3.0, 1.0, 0.0, 2.0, 3.5),
    ],
)
def test_lf_bound_matches_independent_oracle(N, K, d, t1, t2):
    got = harnack_bound_lf(theta_descriptor(N, K, t1), d, t1, t2)
    assert got == pytest.approx(oracle_bound_lf(N, K, d, t1, t2), rel=1e-9)


@st.composite
def descriptor_slope_point(draw):
    if draw(st.booleans()):
        K = draw(st.floats(0.2, 3.0))
        desc = theta_descriptor(3.0, K, draw(st.floats(2.0, 6.0)) / K)
        k = draw(st.floats(-20.0, 20.0))
        xi = desc.xi_lo + draw(st.floats(0.0, 1.0)) * (desc.xi_hi - desc.xi_lo)
    else:
        K = draw(st.one_of(st.just(0.0), st.floats(-3.0, -1e-6)))
        desc = theta_descriptor(draw(st.floats(1.0, 8.0)), K, draw(st.floats(0.01, 2.0)))
        k = -draw(st.floats(0.01, 20.0))
        xi = desc.xi_lo + draw(st.floats(0.0, 50.0))
    return desc, k, xi


@settings(max_examples=200, deadline=None)
@given(descriptor_slope_point())
def test_conjugate_fenchel_young_property(case):
    desc, k, xi = case
    pair = k * xi - theta(desc, xi)
    star = theta_conjugate(desc, k)
    assert pair <= star + 1e-10 * max(1.0, abs(k * xi), abs(pair), abs(star))


# ---------------------------------------------------------------------------
# sample-pair verification
# ---------------------------------------------------------------------------


def circle_kernel_flow(nodes=32, n_modes=200):
    grid = TorusGrid(1, nodes)
    metric = MetricField(grid, EuclideanNorm(1))
    m = np.arange(1, n_modes + 1)

    def solution(points, t):
        x = np.atleast_2d(points)[:, 0]
        phases = 2.0 * math.pi * np.outer(x, m)
        decay = np.exp(-4.0 * math.pi**2 * m**2 * t)
        return 1.0 + 2.0 * np.cos(phases) @ decay

    return CallableFlow(metric, solution)


def test_callable_flow_sampling():
    flow = circle_kernel_flow()
    grid = flow.metric.grid
    direct = flow.solution(grid.coordinates()[5:6], 0.05)[0]
    assert flow.sample(5, 0.05) == pytest.approx(direct, rel=1e-14)
    assert flow.sample((5,), 0.05) == flow.sample(5, 0.05)


@pytest.mark.parametrize("mode", ["lf", "integral"])
def test_harnack_on_exact_circle_kernel(mode):
    flow = circle_kernel_flow()
    kwargs = {"N": 1.0, "K": 0.0} if mode == "lf" else {"coeffs": flat_coeffs(1.0)}
    worst = math.inf
    for x1 in (0, 7, 16):
        for x2 in (3, 24):
            for t1, t2 in ((0.02, 0.05), (0.05, 0.1)):
                rep = verify_harnack(flow, x1, t1, x2, t2, mode, **kwargs)
                assert rep.passed, rep.grid_meta
                worst = min(worst, -rep.worst_residual)
    # slack may be tight but never meaningfully negative
    assert worst >= -1e-8


def test_harnack_same_node_pair():
    flow = circle_kernel_flow()
    rep = verify_harnack(flow, 4, 0.05, 4, 0.1, "lf", N=1.0, K=0.0)
    assert rep.grid_meta["d"] == 0.0
    assert rep.grid_meta["bound"] == pytest.approx(2.0**0.5, rel=1e-9)
    assert rep.passed


def test_harnack_on_recorded_trajectory():
    grid = TorusGrid(1, 64)
    metric = MetricField(grid, EuclideanNorm(1))
    measure = MeasureField.lebesgue(grid)
    x = grid.coordinates()[:, 0]
    u0 = ScalarField(grid, 1.0 + 0.5 * np.sin(2 * math.pi * x))
    traj = solve_heat_flow(metric, measure, u0, 0.05, 1e-3)
    rep = verify_harnack(traj, 5, 0.01, 40, 0.04, "lf", N=1.0, K=0.0)
    assert rep.passed
    assert rep.tolerance_rule == "max(10h^2, 10dt) * sample scale"


def test_harnack_argument_errors():
    flow = circle_kernel_flow()
    with pytest.raises(DomainError):
        verify_harnack(flow, 0, 0.1, 1, 0.1, "lf", N=1.0, K=0.0)
    with pytest.raises(DomainError):
        verify_harnack(flow, 0, 0.05, 1, 0.1, "integral")
    with pytest.raises(DomainError):
        verify_harnack(flow, 0, 0.05, 1, 0.1, "lf", N=1.0)
    with pytest.raises(DomainError):
        verify_harnack(flow, 0, 0.05, 1, 0.1, "sharp", N=1.0, K=0.0)

