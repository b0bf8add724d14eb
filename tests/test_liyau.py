"""Profiles, coefficient pairs, the concave envelope, entropy checks."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.integrate import quad

from finslerheat import (
    DomainError,
    EuclideanNorm,
    LiYauCoefficients,
    LiYauProfile,
    MeasureField,
    MetricField,
    NoConvergence,
    NoRoot,
    ProfileInadmissible,
    PsiEvaluator,
    RandersNorm,
    ScalarField,
    TorusGrid,
    alpha_phi,
    check_exp_uu,
    check_log_sob_weak,
    envelope_zeros,
    kernel_equality_residual,
    linearize_psi,
    residual_linear,
    residual_psi,
    ricci_lower_bound,
    solve_heat_flow,
)
from finslerheat import heat, liyau
from finslerheat.liyau import (
    _s_kernel,
    _t_kernel,
    _t_kernel_prime,
    _verify_coefficient_odes,
)


# ---------------------------------------------------------------------------
# trigonometric kernels
# ---------------------------------------------------------------------------


def test_t_kernel_values():
    assert _t_kernel(np.array(0.0)) == pytest.approx(1.0, abs=1e-15)
    # sqrt(w) cot(sqrt(w)) vanishes at sqrt(w) = pi/2
    assert _t_kernel(np.array((math.pi / 2) ** 2)) == pytest.approx(0.0, abs=1e-14)
    # continuation through w < 0 is r coth r
    coth1 = (math.e**2 + 1.0) / (math.e**2 - 1.0)
    assert _t_kernel(np.array(-1.0)) == pytest.approx(coth1, rel=1e-14)


def test_t_kernel_series_matches_exact_at_window_edge():
    w = 1e-4
    s = math.sqrt(w)
    assert float(_t_kernel(np.array(w))) == pytest.approx(
        s * math.cos(s) / math.sin(s), rel=1e-14
    )
    r = math.sqrt(w)
    assert float(_t_kernel(np.array(-w))) == pytest.approx(
        r / math.tanh(r), rel=1e-14
    )


def test_t_kernel_prime_matches_finite_difference():
    for w in (-9.0, -0.3, 2.0e-3, 1.5, 7.0):
        d = 1e-6 * max(1.0, abs(w))
        fd = (_t_kernel(np.array(w + d)) - _t_kernel(np.array(w - d))) / (2 * d)
        assert float(_t_kernel_prime(np.array(w))) == pytest.approx(
            float(fd), rel=1e-7, abs=1e-10
        )


def test_t_kernel_prime_saturated_tail():
    w = -(400.0**2)
    assert float(_t_kernel_prime(np.array(w))) == pytest.approx(-0.5 / 400.0, rel=1e-12)


def test_s_kernel_values():
    assert _s_kernel(0.0) == pytest.approx(1.0, abs=1e-15)
    assert _s_kernel(math.pi**2) == pytest.approx(0.0, abs=1e-15)
    assert _s_kernel(-1.0) == pytest.approx(math.sinh(1.0), rel=1e-14)
    assert _s_kernel(0.25) == pytest.approx(math.sin(0.5) / 0.5, rel=1e-14)


def test_psi_evaluator_rejects_underflowing_curvature_times_time():
    # (K t)^2 = 1e-600 is 0 in double precision, so x_max = 1 + pi^2/(K t)^2
    # has no value
    with pytest.raises(DomainError, match=r"\(K t\)\^2"):
        PsiEvaluator(3.0, -1e-300, 1.0)


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


def test_preset_profile_values():
    q = LiYauProfile.quadratic()
    assert float(q.value(0.7)) == pytest.approx(0.49)
    assert float(q.derivative(0.7)) == pytest.approx(1.4)
    assert q.integral(0.7) == pytest.approx(0.7**3 / 3.0)
    assert q.integral_quotient(0.7) == pytest.approx(2.8)
    assert q.horizon() == math.inf

    s = LiYauProfile.sine(2.0)
    assert float(s.value(0.3)) == pytest.approx(8.0 * math.sin(0.6) ** 2)
    assert s.horizon() == pytest.approx(math.pi / 2.0)

    sh = LiYauProfile.sinh_profile(0.7)
    assert float(sh.value(0.3)) == pytest.approx(2.8 * math.sinh(0.21) ** 2)
    assert sh.horizon() == math.inf


def test_lixu_profile_is_sinh_at_abs_k():
    lx = LiYauProfile.lixu(-0.7)
    sh = LiYauProfile.sinh_profile(0.7)
    for t in (0.1, 0.5, 2.0):
        assert float(lx.value(t)) == float(sh.value(t))
        assert float(lx.derivative(t)) == float(sh.derivative(t))


def test_profile_constructor_guards():
    with pytest.raises(ProfileInadmissible):
        LiYauProfile.sine(0.0)
    with pytest.raises(ProfileInadmissible):
        LiYauProfile.sinh_profile(-1.0)
    with pytest.raises(ProfileInadmissible):
        LiYauProfile.lixu(0.0)


@pytest.mark.parametrize(
    "profile",
    [
        LiYauProfile.quadratic(),
        LiYauProfile.sine(1.3),
        LiYauProfile.sinh_profile(0.8),
        LiYauProfile.lixu(0.6),
    ],
    ids=lambda p: p.variant,
)
def test_closed_form_integral_matches_quadrature(profile):
    for t in (0.4, 1.1):
        ref = quad(lambda s: float(profile.value(s)), 0.0, t, epsrel=1e-12)[0]
        assert profile.integral(t) == pytest.approx(ref, rel=1e-10)


# ---------------------------------------------------------------------------
# coefficient pairs
# ---------------------------------------------------------------------------


def test_quadratic_profile_closed_forms():
    K, N = -0.8, 3.0
    coeffs = alpha_phi(LiYauProfile.quadratic(), K, N, 2.0)
    assert coeffs.provenance == "closed_form"
    for t in (0.3, 0.7, 1.9):
        assert coeffs.alpha(t) == pytest.approx(1.0 - 2.0 * K * t / 3.0, rel=1e-14)
        ref = -N * K / 2.0 + N * K * K * t / 6.0 + N / (2.0 * t)
        assert coeffs.phi(t) == pytest.approx(ref, rel=1e-14)


def test_flat_quadratic_pair_is_the_classical_one():
    coeffs = alpha_phi(LiYauProfile.quadratic(), 0.0, 2.0, 5.0)
    for t in (0.1, 1.0, 4.5):
        assert coeffs.alpha(t) == pytest.approx(1.0, abs=1e-15)
        assert coeffs.phi(t) == pytest.approx(1.0 / t, rel=1e-14)


def test_sine_profile_closed_forms():
    tau, K, N = 1.1, 0.6, 2.5
    coeffs = alpha_phi(LiYauProfile.sine(tau), K, N, 2.0)
    for t in (0.4, 1.3):
        a = 4.0 * tau * math.sin(tau * t) ** 2
        ia = 2.0 * tau * t - math.sin(2.0 * tau * t)
        iq = 8.0 * tau**3 * t + 4.0 * tau**2 * math.sin(2.0 * tau * t)
        assert coeffs.alpha(t) == pytest.approx(1.0 - 2.0 * K * ia / a, rel=1e-13)
        ref = -N * K / 2.0 + N * K**2 * ia / (2.0 * a) + N * iq / (8.0 * a)
        assert coeffs.phi(t) == pytest.approx(ref, rel=1e-13)


def test_lixu_signed_closed_forms():
    # same closed form works for both curvature signs when Kt is kept signed
    N = 3.0
    for K in (0.9, -0.9):
        coeffs = alpha_phi(LiYauProfile.lixu(K), K, N, 2.0)
        for t in (0.3, 1.5):
            kt = K * t
            alpha_ref = 1.0 - (math.sinh(2.0 * kt) - 2.0 * kt) / (
                2.0 * math.sinh(kt) ** 2
            )
            phi_ref = -(N * K / 2.0) * (1.0 - math.cosh(kt) / math.sinh(kt))
            assert coeffs.alpha(t) == pytest.approx(alpha_ref, rel=1e-13)
            assert coeffs.phi(t) == pytest.approx(phi_ref, rel=1e-13)


@pytest.mark.parametrize(
    "profile",
    [
        LiYauProfile.quadratic(),
        LiYauProfile.sine(1.3),
        LiYauProfile.sinh_profile(0.8),
        LiYauProfile.lixu(-0.6),
    ],
    ids=lambda p: p.variant,
)
def test_quadrature_path_matches_closed_forms(profile):
    K, N = -1.0, 2.0
    horizon = min(2.0, 0.9 * profile.horizon())
    exact = alpha_phi(profile, K, N, horizon)
    quad = alpha_phi(profile, K, N, horizon, force_quadrature=True)
    assert quad.provenance == "quadrature"
    for t in np.linspace(0.1 * horizon, horizon, 7):
        t = float(t)
        assert quad.alpha(t) == pytest.approx(exact.alpha(t), abs=1e-10)
        assert quad.phi(t) == pytest.approx(exact.phi(t), abs=1e-10)


def test_alpha_phi_guards():
    with pytest.raises(DomainError):
        alpha_phi(LiYauProfile.quadratic(), 0.0, 2.0, -1.0)
    with pytest.raises(DomainError):
        alpha_phi(LiYauProfile.quadratic(), 0.0, 0.0, 1.0)
    with pytest.raises(ProfileInadmissible):
        alpha_phi(LiYauProfile.sine(2.0), 0.0, 2.0, math.pi / 2.0)
    coeffs = alpha_phi(LiYauProfile.quadratic(), -0.3, 2.0, 1.0)
    with pytest.raises(DomainError):
        coeffs.alpha(0.0)
    with pytest.raises(DomainError):
        coeffs.phi(1.5)


def test_coefficient_ode_selfcheck_catches_corruption():
    profile = LiYauProfile.quadratic()
    K, N, horizon = -0.5, 2.0, 1.0
    good = alpha_phi(profile, K, N, horizon)
    bad = LiYauCoefficients(
        alpha=lambda t: good.alpha(t) + 0.01,
        phi=good.phi,
        provenance="closed_form",
        K=K,
        N=N,
        horizon=horizon,
    )
    with pytest.raises(NoConvergence):
        _verify_coefficient_odes(profile, bad, K, N, horizon)


# ---------------------------------------------------------------------------
# concave envelope
# ---------------------------------------------------------------------------


def test_evaluator_guards():
    with pytest.raises(DomainError):
        PsiEvaluator(2.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        PsiEvaluator(2.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        PsiEvaluator(0.0, 1.0, 1.0)
    ev = PsiEvaluator(2.0, -1.5, 0.8)
    assert ev.x_max == pytest.approx(1.0 + math.pi**2 / 1.44)
    with pytest.raises(DomainError):
        ev.psi(ev.x_max)
    with pytest.raises(DomainError):
        ev.psi_prime(ev.x_max + 1.0)


def test_envelope_value_at_one():
    for K, t in ((-1.2, 0.7), (0.9, 1.4)):
        ev = PsiEvaluator(3.0, K, t)
        assert ev.psi(1.0) == pytest.approx(1.0 / t - K / 2.0, rel=1e-14)


def test_envelope_is_smooth_across_one():
    # both branch seams sit near x = 1; a centered difference against the
    # analytic slope exposes any jump there
    ev = PsiEvaluator(3.0, -2.0, 0.5)
    d = 1e-6
    gap = ev.psi(1.0 + d) - ev.psi(1.0 - d) - 2.0 * d * ev.psi_prime(1.0)
    assert abs(gap) <= 1e-11


def test_envelope_concavity_and_derivative():
    ev = PsiEvaluator(2.0, -1.0, 1.0)
    xs = np.linspace(-6.0, ev.x_max - 0.05, 300)
    vals = np.array([ev.psi(x) for x in xs.tolist()])
    second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
    assert np.max(second) <= 1e-10
    for x in (-3.0, 0.2, 1.0, ev.x_max - 0.1):
        d = 1e-6
        fd = (ev.psi(x + d) - ev.psi(x - d)) / (2.0 * d)
        assert ev.psi_prime(x) == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_psi_tilde_identity():
    ev = PsiEvaluator(3.0, -0.7, 0.9)
    for x in (-1.0, 0.3, 2.0):
        assert ev.psi_tilde(x) == pytest.approx(
            ev.psi(x) - ev.K * x + 2.0 * ev.K, rel=1e-14
        )


def test_roots_negative_bound():
    ev = PsiEvaluator(3.0, -1.0, 1.0)
    (chi0,) = envelope_zeros(-1.0, 1.0)
    assert chi0 == pytest.approx(2.7070529755500545, abs=1e-9)
    assert abs(ev.psi(chi0)) <= 1e-9


def test_roots_positive_bound():
    ev = PsiEvaluator(3.0, 1.0, 2.5)
    chi1, chi2 = envelope_zeros(1.0, 2.5)
    assert chi1 == pytest.approx(-0.27030673424496854, abs=1e-9)
    assert chi2 == pytest.approx(0.4953150978813028, abs=1e-9)
    assert abs(ev.psi(chi1)) <= 1e-9
    assert abs(ev.psi(chi2)) <= 1e-9


def test_roots_positive_bound_needs_late_time():
    with pytest.raises(NoRoot):
        envelope_zeros(1.0, 1.9)
    # at exactly t = 2/K the envelope vanishes at 1
    _, chi2 = envelope_zeros(2.0, 1.0)
    assert chi2 == 1.0


@pytest.mark.parametrize("kappa", [2.5, 12.0, 40.0, 150.0])
def test_positive_roots_stay_accurate_where_they_merge(kappa):
    # with r = kappa sqrt(1 - x) the zeros solve (r - kappa)^2 = 2 kappa q(r),
    # q(r) = r coth r - r = 2r / expm1(2r); their gap shrinks like e^-kappa
    chi1, chi2 = envelope_zeros(1.0, kappa)
    for chi in (chi1, chi2):
        gap = -kappa * chi / (1.0 + math.sqrt(1.0 - chi))
        r = kappa + gap
        assert gap * gap == pytest.approx(2.0 * kappa * 2.0 * r / math.expm1(2.0 * r), rel=1e-12)
    assert chi1 < 0.0 < chi2


def _psi_reference(K: float, t: float, x: float) -> Decimal:
    """psi = K (x - 2)/2 + r coth(r)/t, r = K t sqrt(1 - x), for K > 0 and
    x < 1, in 80-digit decimal arithmetic from the exact binary inputs."""
    K, t, x = Decimal(K), Decimal(t), Decimal(x)
    with localcontext() as ctx:
        ctx.prec = 80
        r = K * t * (1 - x).sqrt()
        e = (2 * r).exp()
        return K * (x - 2) / 2 + r * (e + 1) / (e - 1) / t


@pytest.mark.parametrize("K", [3.0, 5.0, 20.0])
@pytest.mark.parametrize("t", [1.0, 2.0])
def test_psi_keeps_its_relative_accuracy_near_the_positive_zeros(K, t):
    # between and beside the two zeros, which close in on 0 like e^-Kt, the
    # value cancels three O(K) terms; psi reads the cancellation-free G of
    # _envelope_g, and psi' its slope
    ev = PsiEvaluator(3.0, K, t)
    for chi in envelope_zeros(K, t):
        for x in (0.5 * chi, 2.0 * chi, -3.0 * chi):
            assert x < 1.0
            want = _psi_reference(K, t, x)
            assert abs(Decimal(ev.psi(x)) - want) <= Decimal(1e-12) * abs(want)
            g, slope = liyau._envelope_g(K * t, x)
            assert (ev.psi(x), ev.psi_prime(x)) == (g / t, slope / t)


def test_linearize_rejects_out_of_domain_tangent():
    ev = PsiEvaluator(2.0, -1.0, 1.0)
    with pytest.raises(DomainError):
        linearize_psi(ev, ev.x_max + 0.5)


def test_tangent_touches_and_dominates():
    N, K, t = 3.0, -1.2, 0.8
    ev = PsiEvaluator(N, K, t)
    x_bar = 1.7
    alpha_fn, phi_fn = linearize_psi(ev, x_bar)
    touch = phi_fn(t) + alpha_fn(t) * (N * K / 4.0) * x_bar
    assert touch == pytest.approx((N / 2.0) * ev.psi(x_bar), rel=1e-12)
    for x in np.linspace(-4.0, ev.x_max - 0.1, 50):
        tangent = phi_fn(t) + alpha_fn(t) * (N * K / 4.0) * x
        assert (N / 2.0) * ev.psi(float(x)) <= tangent + 1e-11


@pytest.mark.parametrize("K", [-1.4, 0.9])
def test_tangents_reproduce_trig_coefficient_families(K):
    # tangent abscissa maps to the profile parameter: above 1 the sine
    # family with tau = |K| sqrt(x-1), below 1 the sinh family with
    # tau = |K| sqrt(1-x)
    N = 2.5
    for x_bar, make in ((1.9, LiYauProfile.sine), (0.4, LiYauProfile.sinh_profile)):
        tau = abs(K) * math.sqrt(abs(x_bar - 1.0))
        profile = make(tau)
        horizon = min(1.5, 0.9 * profile.horizon())
        coeffs = alpha_phi(profile, K, N, horizon)
        ev = PsiEvaluator(N, K, horizon)
        alpha_fn, phi_fn = linearize_psi(ev, x_bar)
        for t in np.linspace(0.2 * horizon, horizon, 6):
            t = float(t)
            assert alpha_fn(t) == pytest.approx(coeffs.alpha(t), rel=1e-12)
            assert phi_fn(t) == pytest.approx(coeffs.phi(t), rel=1e-12)


def test_tangent_at_zero_is_the_lixu_pair():
    N, K = 3.0, -0.9
    coeffs = alpha_phi(LiYauProfile.lixu(K), K, N, 2.0)
    alpha_fn, phi_fn = linearize_psi(PsiEvaluator(N, K, 1.0), 0.0)
    for t in (0.4, 1.1, 1.9):
        assert alpha_fn(t) == pytest.approx(coeffs.alpha(t), rel=1e-12)
        assert phi_fn(t) == pytest.approx(coeffs.phi(t), rel=1e-12)


# ---------------------------------------------------------------------------
# sharpness witness
# ---------------------------------------------------------------------------


def test_gaussian_kernel_residual_vanishes():
    rng = np.random.default_rng(2)
    for dim in (1, 2):
        pts = rng.uniform(-3.0, 3.0, size=(50, dim))
        for t in (0.1, 1.0):
            res = kernel_equality_residual(dim, t, pts)
            assert np.max(np.abs(res)) <= 1e-12


def test_gaussian_kernel_residual_checks_shape():
    with pytest.raises(DomainError):
        kernel_equality_residual(2, 1.0, np.zeros((5, 3)))


# ---------------------------------------------------------------------------
# residuals on trajectories
# ---------------------------------------------------------------------------


def flat_trajectory(nodes=64, amp=0.5, t_final=0.05, dt=1e-3):
    grid = TorusGrid(1, nodes)
    metric = MetricField(grid, EuclideanNorm(1))
    measure = MeasureField.lebesgue(grid)
    x = grid.coordinates()[:, 0]
    u0 = ScalarField(grid, 1.0 + amp * np.sin(2 * math.pi * x + 0.3))
    return solve_heat_flow(metric, measure, u0, t_final, dt)


@pytest.fixture(scope="module")
def flat_traj():
    return flat_trajectory()


@pytest.fixture(scope="module")
def weighted_traj():
    grid = TorusGrid(1, 64)
    metric = MetricField(grid, EuclideanNorm(1))
    measure = MeasureField.from_log_density(
        grid, lambda x: 0.2 * math.cos(2 * math.pi * x)
    )
    x = grid.coordinates()[:, 0]
    u0 = ScalarField(grid, 1.0 + 0.5 * np.sin(2 * math.pi * x + 0.3))
    traj = solve_heat_flow(metric, measure, u0, 0.05, 1e-3)
    K = ricci_lower_bound(metric, measure, math.inf).K
    return traj, K


def test_residual_linear_flat(flat_traj):
    coeffs = alpha_phi(LiYauProfile.quadratic(), 0.0, 1.0, 1.0)
    rep = residual_linear(flat_traj, 0.02, coeffs)
    assert rep.name == "li-yau-linear"
    assert rep.passed, (rep.worst_residual, rep.tolerance)
    assert rep.grid_meta["provenance"] == "closed_form"


def test_residual_psi_flat_branch(flat_traj):
    rep = residual_psi(flat_traj, 0.02, 1.0, 0.0)
    assert rep.name == "li-yau-envelope"
    assert rep.passed, (rep.worst_residual, rep.tolerance)


def test_residual_psi_weighted(weighted_traj):
    traj, K = weighted_traj
    assert K < 0.0
    rep = residual_psi(traj, 0.03, 8.0, K)
    assert rep.name == "li-yau-envelope"
    assert rep.passed, (rep.worst_residual, rep.tolerance)


def test_residual_psi_domain_violation_is_reported():
    # a tiny N with a strong bound pushes the envelope argument past the
    # domain end; that must come back as a failing report, not an exception
    traj = flat_trajectory(amp=0.9, t_final=0.03)
    rep = residual_psi(traj, 0.02, 0.05, -200.0)
    assert rep.name == "li-yau-envelope-domain"
    assert not rep.passed


def test_residual_needs_positive_solution():
    grid = TorusGrid(1, 32)
    metric = MetricField(grid, EuclideanNorm(1))
    measure = MeasureField.lebesgue(grid)
    x = grid.coordinates()[:, 0]
    traj = solve_heat_flow(
        metric, measure, ScalarField(grid, np.sin(2 * math.pi * x)), 0.01, 1e-3
    )
    coeffs = alpha_phi(LiYauProfile.quadratic(), 0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        residual_linear(traj, 0.005, coeffs)


# ---------------------------------------------------------------------------
# entropy-gap and log-Sobolev checks
# ---------------------------------------------------------------------------


def ones_field(traj):
    return ScalarField(traj.grid, np.ones(traj.grid.n_nodes))


def test_exp_entropy_gap_triple(flat_traj):
    phi = ones_field(flat_traj)
    rep = check_exp_uu(flat_traj, 0.01, 0.03, phi, 1.0)
    assert rep.name == "exp-entropy-gap"
    assert rep.n_checked == 3
    assert rep.passed, (rep.worst_residual, rep.tolerance)


def test_exp_entropy_gap_guards(flat_traj):
    phi = ones_field(flat_traj)
    with pytest.raises(DomainError):
        check_exp_uu(flat_traj, 0.03, 0.01, phi, 1.0)
    with pytest.raises(DomainError):
        check_exp_uu(flat_traj, 0.02, 0.02, phi, 1.0)


def test_weak_log_sobolev(weighted_traj):
    traj, K = weighted_traj
    phi = ones_field(traj)
    rep = check_log_sob_weak(traj, 0.03, phi, K, 8.0)
    assert rep.name == "weak-log-sobolev"
    assert rep.n_checked == 2
    assert rep.passed, (rep.worst_residual, rep.tolerance)
    assert rep.grid_meta["chi"] < PsiEvaluator(8.0, K, 0.03).x_max


def test_weak_log_sobolev_guards(weighted_traj):
    traj, K = weighted_traj
    phi = ones_field(traj)
    with pytest.raises(DomainError):
        check_log_sob_weak(traj, 0.03, phi, 0.0, 8.0)
    with pytest.raises(DomainError):
        check_log_sob_weak(traj, 0.0, phi, K, 8.0)


def test_weak_log_sobolev_domain_report():
    # concentrate the test field where the solution peaks so the branch
    # parameter escapes the envelope domain
    traj = flat_trajectory(amp=0.9, t_final=0.03)
    x = traj.grid.coordinates()[:, 0]
    phi = ScalarField(traj.grid, np.maximum(np.sin(2 * math.pi * x + 0.3), 0.0))
    rep = check_log_sob_weak(traj, 0.03, phi, -150.0, 0.05)
    assert rep.name == "weak-log-sobolev-domain"
    assert not rep.passed


# ---------------------------------------------------------------------------
# phi-integrals of transported fields through the adjoint transport of phi
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def randers_traj_2d():
    grid = TorusGrid(2, 16)
    metric = MetricField(grid, RandersNorm([[1.0, 0.2], [0.2, 0.8]], [0.3, 0.1]))
    x, y = grid.coordinates().T
    u0 = 1.0 + 0.4 * np.sin(2 * math.pi * (x + 0.3)) + 0.2 * np.cos(2 * math.pi * (x + y))
    return solve_heat_flow(metric, MeasureField.lebesgue(grid), ScalarField(grid, u0), 5e-3, 1e-3)


def forward_integrals(traj, phi, fields, src, dst):
    """<phi, P f>_m by moving every field forward as one block."""
    moved = traj.transport(np.column_stack(fields), src, dst)
    return [float(np.sum(phi * m * traj.measure.sigma)) for m in moved.T]


def bump_phi(traj):
    # positive and far from constant, so P* phi differs from phi
    return ScalarField(traj.grid, np.exp(np.cos(2 * math.pi * traj.grid.coordinates()[:, 0])))


@pytest.mark.parametrize("dim", [1, 2])
def test_entropy_checks_match_the_forward_route(
    dim, weighted_traj, randers_traj_2d, monkeypatch
):
    traj, K = weighted_traj if dim == 1 else (randers_traj_2d, -0.5)
    phi = bump_phi(traj)
    last = traj.times[-1]
    s = traj.times[2]

    def reports():
        return (
            check_exp_uu(traj, s, last, phi, 2.0),
            check_log_sob_weak(traj, last, phi, K, 3.0),
        )

    adjoint = reports()
    monkeypatch.setattr(liyau, "moved_integrals", forward_integrals)
    forward = reports()
    assert [r.name for r in adjoint] == ["exp-entropy-gap", "weak-log-sobolev"]
    for a, f in zip(adjoint, forward):
        assert a.passed == f.passed
        sides = np.concatenate([f.lhs_range, f.rhs_range])
        scale = max(1.0, float(np.max(np.abs(sides))))
        gaps = np.concatenate([a.lhs_range, a.rhs_range]) - sides
        assert np.max(np.abs(gaps)) <= 1e-12 * scale
        assert abs(a.worst_residual - f.worst_residual) <= 1e-12 * scale


def test_constant_phi_is_a_fixed_point_of_the_2d_adjoint_transport(
    randers_traj_2d, monkeypatch
):
    # every step annihilates constants exactly, so CG's first residual check
    # accepts its start and the preconditioner is never applied
    traj = randers_traj_2d
    applied = []
    build = heat.DiffusionAssembly._preconditioner

    def counting(self):
        precond = build(self)
        return lambda r: applied.append(len(r)) or precond(r)

    monkeypatch.setattr(heat.DiffusionAssembly, "_preconditioner", counting)
    ones = np.ones(traj.grid.n_nodes)
    moved = traj.transport(ones, 0, traj.n_times - 1, adjoint=True)
    assert moved.tobytes() == ones.tobytes()
    assert applied == []
    # a non-constant field does iterate, so the counter sees the solver
    traj.transport(bump_phi(traj).values, 0, 1, adjoint=True)
    assert applied
    # on small, short or weighted tori sigma is not a power of two; the step's
    # diagonal once rounded dt * degree / sigma apart from the dt / sigma that
    # scales W, and CG then moved constants by up to 8e-12
    for nodes in (12, 16, 24, 32):
        for period in (1.0, 0.3, 0.01):
            for weighted in (False, True):
                grid = TorusGrid(2, nodes, period)
                x, y = grid.coordinates().T / period
                f = 0.3 * np.cos(2 * math.pi * y) if weighted else np.zeros(grid.n_nodes)
                wave = 0.4 * np.sin(2 * math.pi * (x + 0.3)) + 0.2 * np.cos(2 * math.pi * (x + y))
                u0 = ScalarField(grid, 1.0 + wave)
                metric = MetricField(grid, traj.metric.descriptor)
                run = solve_heat_flow(metric, MeasureField(grid, f), u0, 5e-3, 1e-3)
                ones = np.ones(grid.n_nodes)
                for adjoint in (False, True):
                    moved = run.transport(ones, 0, run.n_times - 1, adjoint)
                    assert moved.tobytes() == ones.tobytes(), (nodes, period, weighted, adjoint)
