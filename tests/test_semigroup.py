"""Transport plans, structural identities, and the estimate suite."""

import math

import numpy as np
import pytest

from finslerheat import (
    DomainError,
    EuclideanNorm,
    IndexRange,
    MeasureField,
    MetricField,
    RandersNorm,
    ScalarField,
    TorusGrid,
    TransportPlan,
    check_cauchy_schwarz,
    check_conservative,
    check_contraction,
    check_duality,
    check_order_and_bounds,
    check_positivity,
    check_semigroup_law,
    gradient_estimate_check,
    laplacian_commutation,
    lipschitz_decay,
    local_logsob_check,
    ricci_lower_bound,
    solve_heat_flow,
    variance_identity,
)
from finslerheat.geometry import differential_field


def positive_sine(grid, amp=0.5, phase=0.3):
    x = grid.coordinates()[:, 0]
    return ScalarField(grid, 1.0 + amp * np.sin(2 * math.pi * x + phase))


@pytest.fixture(scope="module")
def euclid_traj():
    grid = TorusGrid(1, 64)
    metric = MetricField(grid, EuclideanNorm(1))
    measure = MeasureField.lebesgue(grid)
    return solve_heat_flow(metric, measure, positive_sine(grid), 0.05, 1e-3)


@pytest.fixture(scope="module")
def weighted_traj():
    grid = TorusGrid(1, 64)
    metric = MetricField(grid, EuclideanNorm(1))
    measure = MeasureField.from_log_density(
        grid, lambda x: 0.3 * math.cos(2 * math.pi * x)
    )
    traj = solve_heat_flow(metric, measure, positive_sine(grid), 0.05, 1e-3)
    bound = ricci_lower_bound(metric, measure, math.inf)
    return traj, bound.K


@pytest.fixture(scope="module")
def randers_traj():
    grid = TorusGrid(1, 64)
    metric = MetricField(grid, RandersNorm(np.eye(1), np.array([0.3])))
    measure = MeasureField.lebesgue(grid)
    return solve_heat_flow(metric, measure, positive_sine(grid), 0.03, 1e-3)


def full_plan(traj):
    return TransportPlan(traj, 0, traj.n_times - 1)


# ---------------------------------------------------------------------------
# plan construction
# ---------------------------------------------------------------------------


def test_plan_rejects_bad_indices(euclid_traj):
    n = euclid_traj.n_times
    with pytest.raises(IndexRange):
        TransportPlan(euclid_traj, -1, 5)
    with pytest.raises(IndexRange):
        TransportPlan(euclid_traj, 0, n)
    with pytest.raises(IndexRange):
        TransportPlan(euclid_traj, 5, 5)
    with pytest.raises(IndexRange):
        TransportPlan(euclid_traj, 7, 3)


def test_transport_rejects_spans_outside_the_recorded_steps():
    # a final-time assembly built for a check is no recorded step, a
    # negative start would wrap, and a reversed span would move nothing
    grid = TorusGrid(1, 16)
    metric = MetricField(grid, EuclideanNorm(1))
    u0 = positive_sine(grid)
    traj = solve_heat_flow(metric, MeasureField.lebesgue(grid), u0, 5e-3, 1e-3)
    traj.assembly_at(traj.n_times - 1)
    g = traj.fields[0]
    for start, end in ((0, traj.n_times), (-1, 2), (3, 1)):
        for adjoint in (False, True):
            with pytest.raises(IndexRange):
                traj.transport(g, start, end, adjoint)


# ---------------------------------------------------------------------------
# structural identities
# ---------------------------------------------------------------------------


def test_transport_reproduces_recorded_solution(euclid_traj):
    # the plan applies the exact recorded step operators in order, so the
    # result must match the stored fields bit for bit
    for end in (1, 10, euclid_traj.n_times - 1):
        moved = TransportPlan(euclid_traj, 0, end).run(euclid_traj.fields[0])
        assert np.array_equal(moved, euclid_traj.fields[end])


def test_transport_reproduces_recorded_solution_randers(randers_traj):
    plan = full_plan(randers_traj)
    moved = plan.run(randers_traj.fields[0])
    assert np.array_equal(moved, randers_traj.fields[plan.end])


@pytest.mark.parametrize("fixture", ["euclid_traj", "weighted_traj", "randers_traj"])
def test_conservative(fixture, request):
    traj = request.getfixturevalue(fixture)
    if fixture == "weighted_traj":
        traj = traj[0]
    rep = check_conservative(full_plan(traj))
    assert rep.passed
    assert rep.worst_residual <= 1e-12


def test_duality_random_pairs(weighted_traj):
    traj, _ = weighted_traj
    plan = full_plan(traj)
    rng = np.random.default_rng(7)
    for _ in range(5):
        g = ScalarField(traj.grid, rng.standard_normal(traj.grid.n_nodes))
        psi = ScalarField(traj.grid, rng.standard_normal(traj.grid.n_nodes))
        (rep,) = check_duality(plan, [g], [psi])
        assert rep.passed, rep.worst_residual


def test_duality_matches_manual_pairing(weighted_traj):
    traj, _ = weighted_traj
    sig = traj.measure.sigma
    rng = np.random.default_rng(11)
    g = ScalarField(traj.grid, rng.standard_normal(traj.grid.n_nodes))
    psi = ScalarField(traj.grid, rng.standard_normal(traj.grid.n_nodes))
    fwd = traj.transport(g.values, 3, 20)
    adj = traj.transport(psi.values, 3, 20, adjoint=True)
    a = float(np.sum(psi.values * fwd * sig))
    b = float(np.sum(adj * g.values * sig))
    assert a == pytest.approx(b, abs=1e-12 * max(1.0, abs(a)))


def test_semigroup_law_is_bitwise(randers_traj):
    traj = randers_traj
    plan = full_plan(traj)
    rng = np.random.default_rng(3)
    g = ScalarField(traj.grid, rng.standard_normal(traj.grid.n_nodes))
    rep = check_semigroup_law(plan, plan.end // 2, g)
    assert rep.passed
    assert rep.worst_residual == 0.0
    # P*_{s,t} = P*_{s,m} P*_{m,t}: the adjoint moves through the later half
    # first, which the entropy checks' one adjoint transport relies on
    for adjoint in (False, True):
        direct = traj.transport(g.values, 0, plan.end, adjoint)
        for mid in (1, plan.end // 2, plan.end - 1):
            halves = [(0, mid), (mid, plan.end)]
            two = g.values
            for lo, hi in reversed(halves) if adjoint else halves:
                two = traj.transport(two, lo, hi, adjoint)
            assert np.array_equal(two, direct)


@pytest.mark.parametrize("adjoint", [False, True])
def test_block_transport_matches_per_field_transport(randers_traj, adjoint):
    traj = randers_traj
    block = np.random.default_rng(5).standard_normal((traj.grid.n_nodes, 7))
    moved = traj.transport(block, 2, traj.n_times - 1, adjoint)
    for j in range(block.shape[1]):
        single = traj.transport(block[:, j], 2, traj.n_times - 1, adjoint)
        assert np.array_equal(moved[:, j], single)


def test_batched_checks_match_field_by_field_checks(weighted_traj):
    # one list of 3 fields gives, bit for bit, the reports of three
    # one-field lists
    traj, _ = weighted_traj
    plan = full_plan(traj)
    rng = np.random.default_rng(9)

    def fields(positive=False):
        values = rng.standard_normal((3, traj.grid.n_nodes))
        if positive:
            values = np.exp(0.3 * values)
        return [ScalarField(traj.grid, v) for v in values]

    def same(check, *lists):
        batched = [r.to_dict() for r in check(plan, *lists)]
        singles = [r.to_dict() for one in zip(*lists) for r in check(plan, *([f] for f in one))]
        assert batched == singles

    gs, psis, pos = fields(), fields(), fields(positive=True)
    x = traj.grid.coordinates()[:, 0]
    smooth = [ScalarField(traj.grid, np.cos(2 * math.pi * k * x + 0.4)) for k in (1, 2, 3)]
    same(check_duality, gs, psis)
    same(check_contraction, gs)
    same(check_cauchy_schwarz, gs, psis)
    same(check_positivity, pos)
    same(check_order_and_bounds, pos)
    same(variance_identity, smooth)


def test_semigroup_law_needs_interior_mid(euclid_traj):
    plan = TransportPlan(euclid_traj, 2, 10)
    g = positive_sine(euclid_traj.grid)
    for mid in (2, 10, 0, 40):
        with pytest.raises(IndexRange):
            check_semigroup_law(plan, mid, g)


# ---------------------------------------------------------------------------
# markov property checks
# ---------------------------------------------------------------------------


def test_positivity_preserved(euclid_traj):
    (rep,) = check_positivity(full_plan(euclid_traj), [positive_sine(euclid_traj.grid)])
    assert rep.passed
    assert rep.n_violations == 0


def test_positivity_rejects_nonpositive_input(euclid_traj):
    x = euclid_traj.grid.coordinates()[:, 0]
    g = ScalarField(euclid_traj.grid, np.sin(2 * math.pi * x))
    with pytest.raises(DomainError):
        check_positivity(full_plan(euclid_traj), [g])


@pytest.mark.parametrize("p", [1, 2, math.inf])
def test_contraction(weighted_traj, p):
    traj, _ = weighted_traj
    plan = full_plan(traj)
    rng = np.random.default_rng(int(13 if p == math.inf else p))
    for _ in range(3):
        g = ScalarField(traj.grid, rng.standard_normal(traj.grid.n_nodes))
        reports = check_contraction(plan, [g])
        names = [r.name for r in reports]
        assert names == ["contraction-l1", "contraction-l2", "contraction-linf"]
        rep = reports[(1, 2, math.inf).index(p)]
        assert rep.passed, (p, rep.worst_residual)


def test_order_and_bounds(euclid_traj):
    # the bounds are the field's own range, about [0.5, 1.5] here
    g = positive_sine(euclid_traj.grid)
    (rep,) = check_order_and_bounds(full_plan(euclid_traj), [g])
    assert rep.passed


def test_cauchy_schwarz_random_pairs(randers_traj):
    plan = full_plan(randers_traj)
    rng = np.random.default_rng(5)
    for _ in range(4):
        f = ScalarField(randers_traj.grid, rng.standard_normal(randers_traj.grid.n_nodes))
        g = ScalarField(randers_traj.grid, rng.standard_normal(randers_traj.grid.n_nodes))
        (rep,) = check_cauchy_schwarz(plan, [f], [g])
        assert rep.passed, rep.worst_residual


def test_cauchy_schwarz_equality_when_equal(euclid_traj):
    f = positive_sine(euclid_traj.grid)
    (rep,) = check_cauchy_schwarz(full_plan(euclid_traj), [f], [f])
    assert rep.passed
    assert rep.worst_residual == 0.0


def test_cauchy_schwarz_unit_reduction(euclid_traj):
    # against g = 1 this is the variance inequality (Pf)^2 <= P(f^2)
    f = positive_sine(euclid_traj.grid, amp=0.7)
    ones = ScalarField(euclid_traj.grid, np.ones(euclid_traj.grid.n_nodes))
    (rep,) = check_cauchy_schwarz(full_plan(euclid_traj), [f], [ones])
    assert rep.passed


# ---------------------------------------------------------------------------
# variance identity
# ---------------------------------------------------------------------------


def test_variance_identity_constant_field(euclid_traj):
    c = ScalarField(euclid_traj.grid, np.full(euclid_traj.grid.n_nodes, 2.5))
    (rep,) = variance_identity(full_plan(euclid_traj), [c])
    assert rep.passed
    assert abs(rep.worst_residual) <= 1e-10


def test_variance_identity_resolved_field(euclid_traj):
    x = euclid_traj.grid.coordinates()[:, 0]
    f = ScalarField(
        euclid_traj.grid,
        np.sin(2 * math.pi * x) + 0.4 * np.cos(4 * math.pi * x + 0.7),
    )
    (rep,) = variance_identity(full_plan(euclid_traj), [f])
    assert rep.passed, rep.worst_residual


def test_variance_gap_halves_with_dt():
    # the defect of the trapezoid accumulator against the telescoped gap is
    # O(dt) for fields resolved by the grid; halving dt should halve it
    grid = TorusGrid(1, 64)
    metric = MetricField(grid, EuclideanNorm(1))
    measure = MeasureField.lebesgue(grid)
    x = grid.coordinates()[:, 0]
    f = ScalarField(grid, np.sin(2 * math.pi * x) + 0.4 * np.cos(4 * math.pi * x + 0.7))
    gaps = []
    for dt in (2e-3, 1e-3, 5e-4):
        traj = solve_heat_flow(metric, measure, positive_sine(grid), 0.04, dt)
        (rep,) = variance_identity(full_plan(traj), [f], c_dt=600.0)
        assert rep.passed
        gaps.append(abs(rep.worst_residual))
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 1.5 < coarse / fine < 2.6, gaps


# ---------------------------------------------------------------------------
# commutation with the spatial operator
# ---------------------------------------------------------------------------


def test_commutation_exact_for_frozen_linear_operator(euclid_traj):
    # Euclidean assemblies are all the same matrix, which commutes with its
    # own resolvent; only solver tolerance is left
    rep = laplacian_commutation(full_plan(euclid_traj))
    assert rep.passed
    assert rep.worst_residual <= 1e-8


def test_commutation_weighted(weighted_traj):
    traj, _ = weighted_traj
    rep = laplacian_commutation(full_plan(traj))
    assert rep.passed
    assert rep.worst_residual <= 1e-8


def test_commutation_randers_within_discretization(randers_traj):
    rep = laplacian_commutation(full_plan(randers_traj))
    assert rep.passed, (rep.worst_residual, rep.tolerance)


# ---------------------------------------------------------------------------
# curvature estimates along the transport
# ---------------------------------------------------------------------------


def test_gradient_estimate_flat(euclid_traj):
    rep = gradient_estimate_check(full_plan(euclid_traj), 0.0)
    assert rep.passed, (rep.worst_residual, rep.tolerance)
    assert rep.grid_meta["factor"] == 1.0


def test_gradient_estimate_weighted(weighted_traj):
    traj, K = weighted_traj
    assert K < 0.0
    plan = full_plan(traj)
    rep = gradient_estimate_check(plan, K)
    assert rep.passed
    # lowering the bound further inflates the right side, so slack can only grow
    slack = gradient_estimate_check(plan, K - 5.0)
    assert slack.passed
    assert slack.worst_residual <= rep.worst_residual


def test_gradient_estimate_detects_overclaimed_curvature(euclid_traj):
    rep = gradient_estimate_check(full_plan(euclid_traj), 200.0)
    assert not rep.passed


def test_gradient_estimate_needs_positive_fields():
    grid = TorusGrid(1, 32)
    metric = MetricField(grid, EuclideanNorm(1))
    measure = MeasureField.lebesgue(grid)
    x = grid.coordinates()[:, 0]
    u0 = ScalarField(grid, np.sin(2 * math.pi * x))
    traj = solve_heat_flow(metric, measure, u0, 0.01, 1e-3)
    with pytest.raises(DomainError):
        gradient_estimate_check(full_plan(traj), 0.0)


def test_local_logsob_flat_limit(euclid_traj):
    plan = full_plan(euclid_traj)
    rep = local_logsob_check(plan, 0.0)
    assert rep.passed, (rep.worst_residual, rep.tolerance)
    assert rep.grid_meta["c_forward"] == pytest.approx(-plan.elapsed)
    assert rep.grid_meta["c_reverse"] == pytest.approx(-plan.elapsed)


def test_local_logsob_weighted(weighted_traj):
    traj, K = weighted_traj
    rep = local_logsob_check(full_plan(traj), K)
    assert rep.passed
    assert rep.grid_meta["c_forward"] != rep.grid_meta["c_reverse"]


def test_local_logsob_needs_positive_fields():
    grid = TorusGrid(1, 32)
    metric = MetricField(grid, EuclideanNorm(1))
    measure = MeasureField.lebesgue(grid)
    x = grid.coordinates()[:, 0]
    u0 = ScalarField(grid, np.sin(2 * math.pi * x))
    traj = solve_heat_flow(metric, measure, u0, 0.01, 1e-3)
    with pytest.raises(DomainError):
        local_logsob_check(full_plan(traj), 0.0)


def test_lipschitz_decay_flat(euclid_traj):
    rep = lipschitz_decay(euclid_traj, 0.0)
    assert rep.passed
    desc = euclid_traj.metric.descriptor
    first = np.max(desc.dual_norm(differential_field(euclid_traj.field_at(0)).values))
    last = np.max(
        desc.dual_norm(
            differential_field(euclid_traj.field_at(euclid_traj.n_times - 1)).values,
        )
    )
    assert last <= first


def test_lipschitz_decay_weighted(weighted_traj):
    traj, K = weighted_traj
    rep = lipschitz_decay(traj, K)
    assert rep.passed, (rep.worst_residual, rep.tolerance)


def test_lipschitz_decay_randers(randers_traj):
    rep = lipschitz_decay(randers_traj, 0.0)
    assert rep.passed, (rep.worst_residual, rep.tolerance)


def test_lipschitz_decay_detects_overclaimed_curvature(euclid_traj):
    rep = lipschitz_decay(euclid_traj, 50.0)
    assert not rep.passed
