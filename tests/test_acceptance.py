"""Acceptance gate: twelve pinned criteria, one test and one verdict line each.

Run with ``pytest -v tests/test_acceptance.py`` to get a scorecard; every
test also enforces its runtime budget. Tolerances are fixed here on
purpose, do not relax them to make a failing criterion pass.
"""

import itertools
import math
import time

import numpy as np
import pytest

from finslerheat import (
    CallableFlow,
    EuclideanNorm,
    LiYauProfile,
    MeasureField,
    MetricField,
    PsiEvaluator,
    RandersNorm,
    RiemannianNorm,
    ScalarField,
    TorusGrid,
    alpha_phi,
    bochner_residual,
    check_conservative,
    check_duality,
    check_semigroup_law,
    gradient_estimate_check,
    harnack_bound_lf,
    kernel_equality_residual,
    linearize_psi,
    lipschitz_decay,
    local_logsob_check,
    markov_reports,
    residual_linear,
    residual_psi,
    ricci_lower_bound,
    solve_heat_flow,
    theta,
    theta_conjugate,
    theta_descriptor,
    variance_identity,
    verify_harnack,
)

SEED = 20260822


def _verdict(number, started, budget, detail):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} over budget: {elapsed:.1f}s >= {budget}s"
    print(f"criterion {number:2d}: PASS  ({elapsed:5.2f}s)  {detail}")


# ---------------------------------------------------------------------------
# shared solved ladders (criteria 9 and 10)
# ---------------------------------------------------------------------------

LADDER = ((32, 2.0e-3), (64, 5.0e-4), (128, 1.25e-4))
T_SOLVE = 0.04


def _solve_ladder(norm_factory, logdens=None):
    trajs = []
    for nodes, dt in LADDER:
        grid = TorusGrid(1, nodes)
        metric = MetricField(grid, norm_factory())
        if logdens is None:
            measure = MeasureField.lebesgue(grid)
        else:
            measure = MeasureField.from_log_density(grid, logdens)
        x = grid.coordinates()[:, 0]
        u0 = ScalarField(grid, 1.0 + 0.5 * np.sin(2 * math.pi * x + 0.3))
        trajs.append(solve_heat_flow(metric, measure, u0, T_SOLVE, dt))
    return trajs


@pytest.fixture(scope="module")
def randers_ladder():
    return _solve_ladder(lambda: RandersNorm(np.eye(1), [0.3]))


@pytest.fixture(scope="module")
def weighted_ladder():
    return _solve_ladder(
        lambda: EuclideanNorm(1), lambda x: 0.2 * math.cos(2 * math.pi * x)
    )


def _weighted_curvature_bounds():
    """Analytic lower bounds for the 0.2*cos(2 pi x) log-density.

    The infinite-dimensional bound is the minimum of the weight's second
    derivative; the N = 8 bound subtracts the squared first derivative
    over N - 1 and is minimized on a dense angle grid.
    """
    c = 0.2 * (2 * math.pi) ** 2
    s = 0.2 * (2 * math.pi)
    angle = np.linspace(0.0, 2 * math.pi, 20001)
    ric8 = -c * np.cos(angle) - (s * np.sin(angle)) ** 2 / 7.0
    return -c, float(np.min(ric8))


# ---------------------------------------------------------------------------
# the criteria
# ---------------------------------------------------------------------------


def test_criterion_01_gaussian_sharpness():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for dim in (1, 2):
        for t in (0.1, 1.0):
            pts = rng.uniform(-3.0, 3.0, size=(100, dim))
            res = kernel_equality_residual(dim, t, pts)
            worst = max(worst, float(np.max(np.abs(res))))
    assert worst <= 1e-12
    _verdict(1, started, 1.0, f"free-space residual {worst:.2e} <= 1e-12")


def test_criterion_02_quadratic_closed_forms_via_quadrature():
    started = time.perf_counter()
    worst = 0.0
    for K in (-1.0, 0.3):
        for N in (2.0, 5.0):
            coeffs = alpha_phi(
                LiYauProfile.quadratic(), K, N, 6.0, force_quadrature=True
            )
            assert coeffs.provenance == "quadrature"
            for t in (0.01, 1.0, 5.0):
                alpha_ref = 1.0 - (2.0 / 3.0) * K * t
                phi_ref = -(N * K / 2.0) * (1.0 - K * t / 3.0) + N / (2.0 * t)
                da = abs(coeffs.alpha(t) - alpha_ref) / max(1.0, abs(alpha_ref))
                dp = abs(coeffs.phi(t) - phi_ref) / max(1.0, abs(phi_ref))
                worst = max(worst, da, dp)
    assert worst <= 1e-10
    _verdict(2, started, 1.0, f"quadrature vs closed forms {worst:.2e} <= 1e-10")


def test_criterion_03_tangents_match_coefficient_families():
    started = time.perf_counter()
    N = 3.2
    worst = 0.0
    for K in (-0.9, 0.8):
        for tau in np.linspace(0.25, 2.0, 20):
            tau = float(tau)
            ts = np.linspace(0.08, 0.92, 20) * (math.pi / (2.0 * tau))
            ratio_sq = (tau / K) ** 2
            ev = PsiEvaluator(N, K, float(ts[-1]))
            a_up, p_up = linearize_psi(ev, 1.0 + ratio_sq)
            a_dn, p_dn = linearize_psi(ev, 1.0 - ratio_sq)
            for t in ts:
                t = float(t)
                st, sht = math.sin(tau * t), math.sinh(tau * t)
                s2, sh2 = math.sin(2 * tau * t), math.sinh(2 * tau * t)
                alpha1 = 1.0 - K * (2 * tau * t - s2) / (2 * tau * st**2)
                phi1 = (
                    -N * K / 2.0
                    + N * K * K * (2 * tau * t - s2) / (8 * tau * st**2)
                    + N * (2 * tau**2 * t + tau * s2) / (8 * st**2)
                )
                alpha2 = 1.0 - K * (sh2 - 2 * tau * t) / (2 * tau * sht**2)
                phi2 = (
                    -N * K / 2.0
                    + N * K * K * (sh2 - 2 * tau * t) / (8 * tau * sht**2)
                    + N * (2 * tau**2 * t + tau * sh2) / (8 * sht**2)
                )
                for got, ref in (
                    (a_up(t), alpha1),
                    (p_up(t), phi1),
                    (a_dn(t), alpha2),
                    (p_dn(t), phi2),
                ):
                    worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
        # tangent at zero: the two-coefficient family with rate |K|
        ev = PsiEvaluator(N, K, 1.0)
        a_lx, p_lx = linearize_psi(ev, 0.0)
        for t in np.linspace(0.05, 2.5, 20):
            t = float(t)
            alpha_ref = 1.0 - (math.sinh(2 * K * t) - 2 * K * t) / (
                2.0 * math.sinh(K * t) ** 2
            )
            phi_ref = -(N * K / 2.0) * (1.0 - 1.0 / math.tanh(K * t))
            worst = max(worst, abs(a_lx(t) - alpha_ref) / max(1.0, abs(alpha_ref)))
            worst = max(worst, abs(p_lx(t) - phi_ref) / max(1.0, abs(phi_ref)))
    assert worst <= 1e-9
    _verdict(3, started, 1.0, f"tangent vs closed families {worst:.2e} <= 1e-9")


def test_criterion_04_vanishing_curvature_limits():
    started = time.perf_counter()
    N, t = 3.0, 0.7
    worst_env = 0.0
    for K in (1e-4, -1e-4):
        ev = PsiEvaluator(N, K, t)
        for xi in (-1.0, 0.0, 2.0):
            got = (N / 2.0) * ev.psi(4.0 * xi / (N * K))
            worst_env = max(worst_env, abs(got - (xi + N / (2.0 * t))))
    assert worst_env <= 1e-3

    d, t1, t2 = 0.7, 0.25, 0.75
    flat = (t2 / t1) ** (N / 2.0) * math.exp(d * d / (4.0 * (t2 - t1)))
    near = harnack_bound_lf(theta_descriptor(N, -1e-6, t1), d, t1, t2)
    rel = abs(near - flat) / flat
    assert rel <= 1e-4
    _verdict(4, started, 1.0, f"envelope limit {worst_env:.2e}, bound limit {rel:.2e}")


def test_criterion_05_conjugate_closed_form_and_fenchel_young():
    started = time.perf_counter()
    N, t = 3.0, 0.8
    desc = theta_descriptor(N, 0.0, t)
    worst = 0.0
    for k in np.linspace(-10.0, -0.01, 200):
        k = float(k)
        closed = -(N / (2.0 * t)) * k - 1.0 / (4.0 * k)
        numeric = theta_conjugate(desc, k, force_numeric=True)
        worst = max(worst, abs(numeric - closed) / max(1.0, abs(closed)))
    assert worst <= 1e-8

    rng = np.random.default_rng(SEED)
    slack = math.inf
    for _ in range(1000):
        k = -float(rng.uniform(0.05, 5.0))
        xi = float(rng.uniform(desc.xi_lo, desc.xi_lo + 30.0))
        star = theta_conjugate(desc, k)
        slack = min(slack, star - (k * xi - theta(desc, xi)))
        assert k * xi - theta(desc, xi) <= star + 1e-8
    _verdict(5, started, 5.0, f"conjugate {worst:.2e} <= 1e-8, pair slack >= {slack:.2e}")


def test_criterion_06_solver_order_against_fourier_solution():
    started = time.perf_counter()
    errs, hs = [], []
    for nodes in (64, 128, 256):
        grid = TorusGrid(1, nodes)
        dt = 2.0 * grid.h**2
        x = grid.coordinates()[:, 0]
        u0 = ScalarField(
            grid,
            1.0
            + 0.5 * np.sin(2 * math.pi * x)
            + 0.2 * np.cos(4 * math.pi * x + 0.3),
        )
        traj = solve_heat_flow(
            MetricField(grid, EuclideanNorm(1)),
            MeasureField.lebesgue(grid),
            u0,
            0.02,
            dt,
        )
        t_end = traj.times[-1]
        exact = (
            1.0
            + 0.5 * math.exp(-((2 * math.pi) ** 2) * t_end) * np.sin(2 * math.pi * x)
            + 0.2
            * math.exp(-((4 * math.pi) ** 2) * t_end)
            * np.cos(4 * math.pi * x + 0.3)
        )
        final = traj.field_at(traj.n_times - 1).values
        errs.append(float(np.max(np.abs(final - exact))))
        hs.append(grid.h)
    order = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    assert 1.7 <= order <= 2.3, (order, errs)
    _verdict(6, started, 30.0, f"L-inf order {order:.3f} in [1.7, 2.3]")


def test_criterion_07_semigroup_structural_suite():
    started = time.perf_counter()
    grid = TorusGrid(1, 128)
    metric = MetricField(grid, RandersNorm(np.eye(1), [0.3]))
    measure = MeasureField.lebesgue(grid)
    x = grid.coordinates()[:, 0]
    u0 = ScalarField(grid, 1.0 + 0.5 * np.sin(2 * math.pi * x + 0.3))
    traj = solve_heat_flow(metric, measure, u0, 0.01, 5e-4)
    rng = np.random.default_rng(SEED)

    def field():
        return ScalarField(grid, rng.standard_normal(grid.n_nodes))

    # the structural verdicts read the recorded steps; moved through the
    # whole record, a constant stays constant and a random pair pairs as
    # duality states
    ones = check_conservative(traj)
    dual = check_duality(traj)
    law = check_semigroup_law(traj)
    for rep in (ones, dual, law):
        assert rep.passed and rep.worst_residual <= 1e-12, (rep.name, rep.worst_residual)
    g, psi = field().values, field().values
    end, sig = traj.n_times - 1, measure.sigma
    assert np.max(np.abs(traj.transport(np.ones(grid.n_nodes), 0, end) - 1.0)) <= 1e-12
    a = float(np.sum(psi * traj.transport(g, 0, end) * sig))
    b = float(np.sum(traj.transport(psi, 0, end, adjoint=True) * g * sig))
    assert abs(a - b) <= 1e-12, (a, b)

    # the Markov verdicts read the recorded steps, no field
    markov = [f"contraction-l{p}" for p in ("1", "2", "inf")] + ["order-bounds", "cauchy-schwarz"]
    assert all(r.passed for r in markov_reports(traj, markov))
    _verdict(
        7,
        started,
        60.0,
        f"structural gaps <= {max(r.worst_residual for r in (ones, dual, law)):.1e}, "
        f"{len(markov)} Markov reports",
    )


def test_criterion_08_variance_identity_gap_halves():
    started = time.perf_counter()
    grid = TorusGrid(1, 128)
    metric = MetricField(grid, EuclideanNorm(1))
    measure = MeasureField.lebesgue(grid)
    x = grid.coordinates()[:, 0]
    u0 = ScalarField(grid, 1.0 + 0.5 * np.sin(2 * math.pi * x + 0.3))
    f = ScalarField(grid, np.sin(2 * math.pi * x) + 0.4 * np.cos(4 * math.pi * x + 0.7))
    gaps = []
    for dt in (2e-3, 1e-3, 5e-4):
        traj = solve_heat_flow(metric, measure, u0, 0.04, dt)
        rep = variance_identity(traj, [f])[0]
        assert rep.passed
        gaps.append(rep.worst_residual)
    assert all(g > 0 for g in gaps)
    ratios = (gaps[0] / gaps[1], gaps[1] / gaps[2])
    for r in ratios:
        assert 1.4 <= r <= 2.6, (ratios, gaps)
    _verdict(8, started, 60.0, f"gap ratios {ratios[0]:.2f}, {ratios[1]:.2f} in [1.4, 2.6]")


def test_criterion_09_li_yau_on_solved_flows(randers_ladder, weighted_ladder):
    started = time.perf_counter()
    bound = ricci_lower_bound(randers_ladder[0].metric, randers_ladder[0].measure, 1.0)
    assert bound.K == 0.0 and bound.provenance == "analytic"
    coeffs = alpha_phi(LiYauProfile.quadratic(), 0.0, 1.0, 2 * T_SOLVE)
    linear_worsts = []
    for traj in randers_ladder:
        rep = residual_linear(traj, T_SOLVE, coeffs)
        assert rep.passed, (rep.worst_residual, rep.tolerance)
        linear_worsts.append(rep.worst_residual)
    assert linear_worsts[0] > linear_worsts[1] > linear_worsts[2], linear_worsts

    k_inf, k_eight = _weighted_curvature_bounds()
    psi_worsts = []
    for traj in weighted_ladder:
        assert gradient_estimate_check(traj, k_inf).passed
        rep = residual_psi(traj, T_SOLVE, 8.0, k_eight)
        assert rep.passed, (rep.worst_residual, rep.tolerance)
        psi_worsts.append(rep.worst_residual)
    assert psi_worsts[0] > psi_worsts[1] > psi_worsts[2], psi_worsts
    _verdict(
        9,
        started,
        300.0,
        f"linear residuals {linear_worsts[-1]:.2e} and envelope {psi_worsts[-1]:.2e}, "
        "both ladders decreasing",
    )


def test_criterion_10_gradient_logsob_lipschitz_suite(randers_ladder, weighted_ladder):
    started = time.perf_counter()
    k_inf, _ = _weighted_curvature_bounds()
    for trajs, K in ((randers_ladder, 0.0), (weighted_ladder, k_inf)):
        magnitudes = {"gradient": [], "logsob": [], "lipschitz": []}
        for traj in trajs:
            reports = {
                "gradient": gradient_estimate_check(traj, K),
                "logsob": local_logsob_check(traj, K),
                "lipschitz": lipschitz_decay(traj, K),
            }
            for name, rep in reports.items():
                assert rep.passed, (name, rep.worst_residual, rep.tolerance)
                magnitudes[name].append(max(rep.worst_residual, 0.0))
        for name, mags in magnitudes.items():
            assert all(b <= a for a, b in zip(mags, mags[1:])), (name, mags)
    _verdict(10, started, 300.0, "all estimates hold, violation magnitude nonincreasing")


def test_criterion_11_harnack_on_exact_circle_kernel():
    started = time.perf_counter()
    grid = TorusGrid(1, 32)
    metric = MetricField(grid, EuclideanNorm(1))
    modes = np.arange(1, 201)

    def solution(points, t):
        x = np.atleast_2d(points)[:, 0]
        phases = 2.0 * math.pi * np.outer(x, modes)
        decay = np.exp(-4.0 * math.pi**2 * modes**2 * t)
        return 1.0 + 2.0 * np.cos(phases) @ decay

    flow = CallableFlow(metric, solution)
    coeffs = alpha_phi(LiYauProfile.quadratic(), 0.0, 1.0, 0.11)
    points = np.round(np.linspace(0, grid.n_nodes - 1, 10)).astype(int)
    times = (0.02, 0.05, 0.1)
    worst = -math.inf
    checked = 0
    for t1, t2 in itertools.combinations(times, 2):
        for x1 in points:
            for x2 in points:
                for mode, kwargs in (
                    ("lf", {"N": 1.0, "K": 0.0}),
                    ("integral", {"coeffs": coeffs}),
                ):
                    rep = verify_harnack(flow, int(x1), t1, int(x2), t2, mode, **kwargs)
                    assert rep.worst_residual <= 1e-8, (mode, x1, x2, t1, t2)
                    worst = max(worst, rep.worst_residual)
                    checked += 1
    assert checked == 600
    _verdict(11, started, 10.0, f"600 pairs, worst slack deficit {worst:.2e} <= 1e-8")


def test_criterion_12_bochner_residual_ladder():
    started = time.perf_counter()
    a = np.array([[1.3, 0.4], [0.4, 0.9]])
    res_max, hs = [], []
    for nodes in (64, 128, 256):
        grid = TorusGrid(2, nodes)
        metric = MetricField(grid, RiemannianNorm(a))
        measure = MeasureField.from_log_density(
            grid, lambda x, y: 0.3 * math.cos(2 * math.pi * (x + y))
        )
        pts = grid.coordinates()
        u = ScalarField(
            grid,
            np.sin(2 * math.pi * pts[:, 0] + 0.3)
            + 0.3 * np.cos(2 * math.pi * (pts[:, 0] + pts[:, 1]) + 0.7),
        )
        result = bochner_residual(metric, measure, u, 4.0)
        rmax = float(np.max(np.abs(result.residual.values)))
        smin = float(np.min(result.n_form_slack.values))
        assert smin >= -10.0 * grid.h**2 * max(1.0, rmax), (nodes, smin)
        res_max.append(rmax)
        hs.append(grid.h)
    order = float(np.polyfit(np.log(hs), np.log(res_max), 1)[0])
    assert 1.7 <= order <= 2.3, (order, res_max)
    _verdict(12, started, 60.0, f"residual order {order:.3f}, slack above -O(h^2)")
