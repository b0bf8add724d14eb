"""Transport along a recorded run, structural identities, and the estimate suite."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from finslerheat import (
    DomainError,
    EuclideanNorm,
    IndexRange,
    MeasureField,
    MetricField,
    RandersNorm,
    ScalarField,
    TorusGrid,
    check_conservative,
    check_duality,
    check_semigroup_law,
    gradient_estimate_check,
    laplacian_commutation,
    lipschitz_decay,
    local_logsob_check,
    markov_reports,
    ricci_lower_bound,
    solve_heat_flow,
    variance_identity,
)
from finslerheat.geometry import differential_field
from finslerheat.heat import DiffusionAssembly, Trajectory
from finslerheat.reporting import json_text
from finslerheat.semigroup import VARIANCE_C


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


# ---------------------------------------------------------------------------
# transport spans
# ---------------------------------------------------------------------------


def test_plan_rejects_bad_indices(euclid_traj):
    # a span must be a non-empty forward run of recorded steps
    n = euclid_traj.n_times
    g = euclid_traj.fields[0]
    for start, end in ((-1, 5), (0, n), (5, 5), (7, 3)):
        for adjoint in (False, True):
            with pytest.raises(IndexRange):
                euclid_traj.transport(g, start, end, adjoint)


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
    # transport applies the exact recorded step operators in order, so the
    # result must match the stored fields bit for bit
    for end in (1, 10, euclid_traj.n_times - 1):
        moved = euclid_traj.transport(euclid_traj.fields[0], 0, end)
        assert np.array_equal(moved, euclid_traj.fields[end])


def test_transport_reproduces_recorded_solution_randers(randers_traj):
    moved = randers_traj.transport(randers_traj.fields[0], 0, randers_traj.n_times - 1)
    assert np.array_equal(moved, randers_traj.fields[-1])


@pytest.mark.parametrize("fixture", ["euclid_traj", "weighted_traj", "randers_traj"])
def test_conservative(fixture, request):
    traj = request.getfixturevalue(fixture)
    if fixture == "weighted_traj":
        traj = traj[0]
    rep = check_conservative(traj)
    assert rep.passed
    assert rep.worst_residual == 0.0
    # the identity the verdict reads holds for transported constants
    moved = traj.transport(np.ones(traj.grid.n_nodes), 0, traj.n_times - 1)
    assert np.max(np.abs(moved - 1.0)) <= 1e-12


def test_duality_random_pairs(weighted_traj):
    # the verdict reads each step's identities; random pairs moved through
    # the whole record pair to round-off, as it states
    traj, _ = weighted_traj
    rep = check_duality(traj)
    assert rep.passed and rep.worst_residual == 0.0, rep.worst_residual
    sig, end = traj.measure.sigma, traj.n_times - 1
    rng = np.random.default_rng(7)
    for _ in range(5):
        g, psi = rng.standard_normal((2, traj.grid.n_nodes))
        a = float(np.sum(psi * traj.transport(g, 0, end) * sig))
        b = float(np.sum(traj.transport(psi, 0, end, adjoint=True) * g * sig))
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b)), (a, b)


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
    end = traj.n_times - 1
    rng = np.random.default_rng(3)
    g = ScalarField(traj.grid, rng.standard_normal(traj.grid.n_nodes))
    rep = check_semigroup_law(traj)
    assert rep.passed
    assert rep.worst_residual == 0.0
    assert rep.worst_location["step"] == end // 2
    # P*_{s,t} = P*_{s,m} P*_{m,t}: the adjoint moves through the later half
    # first, which the entropy checks' one adjoint transport relies on
    for adjoint in (False, True):
        direct = traj.transport(g.values, 0, end, adjoint)
        for mid in (1, end // 2, end - 1):
            halves = [(0, mid), (mid, end)]
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

    def same(check, *lists):
        batched = [r.to_dict() for r in check(traj, *lists)]
        singles = [r.to_dict() for one in zip(*lists) for r in check(traj, *([f] for f in one))]
        assert batched == singles

    x = traj.grid.coordinates()[:, 0]
    smooth = [ScalarField(traj.grid, np.cos(2 * math.pi * k * x + 0.4)) for k in (1, 2, 3)]
    same(variance_identity, smooth)


# ---------------------------------------------------------------------------
# markov property checks
# ---------------------------------------------------------------------------


#: every report name of the four Markov checks, in registry order
MARKOV_NAMES = [
    "positivity", "contraction-l1", "contraction-l2", "contraction-linf", "order-bounds",
    "cauchy-schwarz",
]


def test_positivity_preserved(euclid_traj):
    (rep,) = markov_reports(euclid_traj, ["positivity"])
    assert rep.passed
    assert rep.n_violations == 0
    # the certificate's verdict holds for a transported positive field
    assert euclid_traj.transport(positive_sine(euclid_traj.grid).values, 0, 10).min() > 0.0


def one_step_run(weight_78=1.0, leak=0.0, heavier=1.0, skew=0.0):
    """A hand-built 1-d run of one recorded step on 16 nodes: unit edge
    weights except on edge (7, 8), and u0 = 1e-3 plus a unit spike at node 8.
    ``leak`` is added to node 5's degree, so the step loses mass, node 5's
    step weight sigma is ``heavier`` times the measure's, so the step is
    self-adjoint in another measure than the run's, and ``skew`` is added to
    W[5, 6] alone, so that W is not symmetric."""
    grid = TorusGrid(1, 16)
    n, h = grid.n_nodes, grid.h
    w = np.ones(n)
    w[7] = weight_78
    i = np.arange(n)
    j = (i + 1) % n
    data = np.tile(w, 2)
    data[5] += skew
    edges = sp.csr_matrix((data, (np.hstack([i, j]), np.hstack([j, i]))), shape=(n, n))
    measure = MeasureField.lebesgue(grid)
    degree = edges @ np.ones(n)
    degree[5] += leak
    sigma = measure.sigma.copy()
    sigma[5] *= heavier
    dt = 50 * 0.02 * h * h
    step = DiffusionAssembly(
        weights=edges, degree=degree, sigma=sigma, time=0.0, dt=dt,
        kappa_max=1.0, degenerate_nodes=0, shape=grid.shape, stencil=(((1,), float(np.mean(w))),),
    )
    u0 = np.full(n, 1e-3)
    u0[8] += 1.0
    metric = MetricField(grid, EuclideanNorm(1))
    return Trajectory(metric, measure, [0.0, dt], [u0, step.advance(u0)], [step], dt)


def test_positivity_fails_on_a_negative_edge_weight():
    # negative control: a negative edge weight breaks the minimum principle,
    # and the check must say so; the same run with the weight positive passes.
    # The probe finds the step's smallest kernel entry, between the ends of
    # the negative edge
    traj = one_step_run(-0.2)
    (rep,) = markov_reports(traj, ["positivity"])
    assert not rep.passed
    assert rep.worst_residual == pytest.approx(0.0114, abs=1e-4)
    assert abs(rep.worst_residual + dense_step_kernel(traj.assemblies[0]).min()) <= 1e-15
    assert rep.worst_location["step"] == 0 and sorted(rep.worst_location["nodes"]) == [7, 8]
    (rep,) = markov_reports(one_step_run(1.0), ["positivity"])
    assert rep.passed and rep.n_violations == 0


@pytest.mark.parametrize(
    "leak, heavier, skew, failing",
    [
        (0.0, 1.0, 0.0, ()),
        (0.1, 1.0, 0.0, ("conservative",)),
        (0.0, 2.0, 0.0, ("duality",)),
        (0.0, 1.0, 0.5, ("duality",)),
    ],
    ids=["exact", "leaky", "wrong-measure", "asymmetric"],
)
def test_conservative_and_duality_fail_on_a_broken_step(leak, heavier, skew, failing):
    # negative controls: a degree above its row's weights leaks mass, and a
    # step self-adjoint in another measure, or with W[5, 6] != W[6, 5],
    # breaks duality in the run's one; either breaks its identity far above
    # round-off, at node 5, and the same step without a change passes both
    traj = one_step_run(leak=leak, heavier=heavier, skew=skew)
    reports = {"conservative": check_conservative(traj), "duality": check_duality(traj)}
    for name, rep in reports.items():
        assert rep.passed == (name not in failing), (name, rep.worst_residual)
        if name in failing:
            assert rep.worst_residual > 1e6 * rep.tolerance
            assert rep.worst_location["step"] == 0 and rep.worst_location["nodes"][0] == 5


def test_structural_checks_read_the_steps_and_move_one_column(monkeypatch):
    # on 2-d steps with negative weights and a varying measure the three
    # identities hold bit for bit; conservative and duality move no field,
    # and semigroup_law moves one column through two steps four times
    traj = randers_2d_run(16, *ANISOTROPIC, 1e-3, 4e-3, lambda x: 0.5 * np.cos(2 * math.pi * x))
    assert not any(cert.certified for cert in traj.certificate)
    shapes = []
    advance = DiffusionAssembly.advance

    def counting(self, values):
        shapes.append(np.shape(values))
        return advance(self, values)

    monkeypatch.setattr(DiffusionAssembly, "advance", counting)
    for check, moved in ((check_conservative, 0), (check_duality, 0), (check_semigroup_law, 8)):
        rep = check(traj)
        assert rep.passed and rep.worst_residual == 0.0, rep.name
        assert shapes == [(traj.grid.n_nodes,)] * moved, rep.name
        shapes.clear()


def recorded_steps(order):
    """A :meth:`Trajectory.transport` that applies the steps ``order(start,
    end, adjoint)`` in place of the recorded span's."""

    def transport(self, values, start, end, adjoint=False):
        x = np.array(values, dtype=float)
        for k in order(start, end, adjoint):
            x = self.assemblies[k].advance(x)
        return x

    return transport


#: transports that break the span arithmetic, each by one step or one order
BROKEN_TRANSPORTS = {
    "skips-the-last-step": lambda start, end, adjoint: range(start, end - 1),
    "repeats-the-first-step": lambda start, end, adjoint: [start, *range(start, end)],
    "adjoint-in-forward-order": lambda start, end, adjoint: range(start, end),
}


@pytest.mark.parametrize("order", BROKEN_TRANSPORTS.values(), ids=BROKEN_TRANSPORTS.keys())
def test_semigroup_law_fails_on_a_broken_transport(randers_traj, monkeypatch, order):
    # negative control: the law guards the span arithmetic of transport;
    # the Randers steps differ from step to step, so no two of them commute
    monkeypatch.setattr(Trajectory, "transport", recorded_steps(order))
    rep = check_semigroup_law(randers_traj)
    assert not rep.passed
    assert rep.worst_residual > 1e6 * rep.tolerance
    assert rep.worst_location["step"] == (randers_traj.n_times - 1) // 2


def dense_step_kernel(assembly):
    """The one-step kernel (I + dt Sigma^-1 (D - W))^-1 as a dense inverse,
    independent of the CG solve."""
    n = assembly.degree.size
    lap = np.diag(assembly.degree) - assembly.weights.toarray()
    return np.linalg.inv(np.eye(n) + (assembly.dt / assembly.sigma)[:, None] * lap)


def randers_2d_run(nodes, a, b, dt, t_final, f=None):
    """The 2-d workloads' initial field under the Randers metric (a, b), on
    the measure e^-f dx of the log-density f(x), Lebesgue by default."""
    grid = TorusGrid(2, nodes)
    x, y = grid.coordinates().T
    u0 = 1.0 + 0.4 * np.sin(2 * math.pi * x + 0.3) + 0.2 * np.cos(2 * math.pi * (x + y))
    metric = MetricField(grid, RandersNorm(np.array(a), np.array(b)))
    measure = MeasureField.lebesgue(grid) if f is None else MeasureField(grid, f(x))
    return solve_heat_flow(metric, measure, ScalarField(grid, u0), t_final, dt)


def measure_l2_norm(assembly, kernel):
    """The operator norm of ``kernel`` in L^2 of the step's measure."""
    root = np.sqrt(assembly.sigma)
    return np.linalg.norm(root[:, None] * kernel / root[None, :], 2)


ANISOTROPIC = [[0.5, 0.9], [0.9, 2.0]], [0.1, 0.1]


def test_markov_checks_fail_on_an_anisotropic_step_at_its_kernel_minimum():
    # a = (0.5, 0.9, 2.0), b = (0.1, 0.1) at 32^2: a quarter of the edges
    # have negative weight, and one step's kernel has entries down to
    # -7.5057e-4, which the probe finds to round-off and every check of a
    # Markov property that one negative entry breaks names
    traj = randers_2d_run(32, *ANISOTROPIC, 5e-4, 5e-4)
    (cert,) = traj.certificate
    assert not cert.certified and cert.negative_weights == 1024
    kernel = dense_step_kernel(traj.assemblies[0])
    worst = np.unravel_index(np.argmin(kernel), kernel.shape)
    assert kernel.min() == pytest.approx(-7.5057e-4, abs=1e-8)
    reports = [rep for rep in markov_reports(traj, MARKOV_NAMES) if rep.name != "contraction-l2"]
    assert len(reports) == 5
    coords = traj.grid.coordinates()
    for rep in reports:
        assert not rep.passed and rep.n_violations == 1
        assert abs(rep.worst_residual + kernel.min()) <= 1e-14
        where = rep.worst_location
        assert where["step"] == 0 and where["time"] == 0.0
        assert sorted(where["nodes"]) == sorted(map(int, worst))
        assert where["coordinates"] == coords[where["nodes"]].tolist()
        assert rep.grid_meta["uncertified_steps"] == 1 and rep.grid_meta["unproven_steps"] == 0


def test_l2_contraction_holds_on_a_step_with_negative_kernel_entries():
    # the step of the anisotropic negative control is self-adjoint in the
    # measure with D - W positive semidefinite, so its L^2 norm is 1 although
    # entries are negative: contraction-l2 passes there, on the spikes' gain,
    # and says that the probe proved nothing
    traj = randers_2d_run(32, *ANISOTROPIC, 5e-4, 5e-4)
    assembly = traj.assemblies[0]
    assert measure_l2_norm(assembly, dense_step_kernel(assembly)) <= 1.0 + 1e-12
    (probe,) = traj.kernel_probe
    assert not probe.proven and 0.0 < probe.gain < 1.0
    (rep,) = markov_reports(traj, ["contraction-l2"])
    assert rep.passed and rep.worst_residual == probe.gain - 1.0
    assert rep.worst_location["step"] == 0 and rep.worst_location["nodes"] == [probe.spike]
    assert rep.grid_meta["unproven_steps"] == 1
    assert "prove none" in rep.tolerance_rule


def test_probe_finds_true_kernel_entries_on_variable_coefficient_steps():
    # on the measure e^-f with f = 0.5 cos(2 pi x) the weights and the node
    # weights vary; the probe ranks edges by their first-order kernel entry
    # dt W[i, j] / sigma_i. At 32^2 it finds the dense kernel's minimum; at
    # 16^2 the minimum sits off the probed columns, and the probe's floor is
    # a true, negative entry above it
    def f(x):
        return 0.5 * np.cos(2 * math.pi * x)

    for nodes, dt, gap in ((32, 5e-4, 0.0), (16, 1e-3, 7.508e-5)):
        traj = randers_2d_run(nodes, *ANISOTROPIC, dt, dt, f)
        (probe,) = traj.kernel_probe
        kernel = dense_step_kernel(traj.assemblies[0])
        assert abs(probe.floor - kernel[probe.nodes]) <= 1e-15
        assert probe.floor < -1e-3 if nodes == 16 else probe.floor < -7e-4
        assert probe.floor - kernel.min() == pytest.approx(gap, abs=1e-8)
        (rep,) = markov_reports(traj, ["positivity"])
        assert not rep.passed and rep.worst_residual == -probe.floor


def test_a_probe_without_a_violation_proves_nothing():
    # a = (0.5, 0.6, 2.0) at 16^2 makes a quarter of the edge weights
    # negative, yet the step's dense kernel is positive: every check passes, and each
    # report counts the step as unproven
    traj = randers_2d_run(16, [[0.5, 0.6], [0.6, 2.0]], [0.1, 0.1], 1e-3, 1e-3)
    (cert,) = traj.certificate
    assert not cert.certified and cert.negative_weights == 252
    kernel = dense_step_kernel(traj.assemblies[0])
    assert kernel.min() > 0.0
    for rep in markov_reports(traj, MARKOV_NAMES):
        assert rep.passed
        assert rep.grid_meta["uncertified_steps"] == rep.grid_meta["unproven_steps"] == 1


def test_markov_checks_on_certified_steps_transport_nothing(monkeypatch):
    # the workloads' Randers metric at 16^2: no negative weight, so every
    # one-step kernel is nonnegative, and the checks pass from the
    # certificate alone
    traj = randers_2d_run(16, [[1.0, 0.2], [0.2, 0.8]], [0.3, 0.1], 1e-3, 5e-3)
    assert all(c.certified and c.negative_weights == 0 for c in traj.certificate)
    for assembly in traj.assemblies:
        assert dense_step_kernel(assembly).min() >= 0.0

    def no_transport(*_):
        raise AssertionError("a certified step needs no transport")

    monkeypatch.setattr(DiffusionAssembly, "advance", no_transport)
    for rep in markov_reports(traj, MARKOV_NAMES):
        assert rep.passed and rep.worst_residual == 0.0
        assert rep.grid_meta["uncertified_steps"] == rep.grid_meta["unproven_steps"] == 0


def test_certificate_reads_each_recorded_step_once():
    # every 1-d weight is a product of positive face averages; a final-time
    # assembly built for a check is no recorded step
    grid = TorusGrid(1, 16)
    metric = MetricField(grid, EuclideanNorm(1))
    traj = solve_heat_flow(metric, MeasureField.lebesgue(grid), positive_sine(grid), 5e-3, 1e-3)
    traj.assembly_at(traj.n_times - 1)
    certs = traj.certificate
    assert [c.step for c in certs] == list(range(traj.n_times - 1))
    assert all(c.certified and c.min_weight > 0.0 for c in certs)
    assert [c.time for c in certs] == traj.times[:-1]
    assert traj.certificate is certs


def moved_whole_run(traj, values):
    return traj.transport(values, 0, traj.n_times - 1)


def measure_norm(traj, values, p):
    if p == math.inf:
        return np.max(np.abs(values))
    return np.sum(traj.measure.sigma * np.abs(values) ** p) ** (1 / p)


@pytest.mark.parametrize("p", [1, 2, math.inf])
def test_contraction(weighted_traj, p):
    # one report per exponent, whatever the field; a transported random
    # field contracts as the certificate says it must
    traj, _ = weighted_traj
    names = ["contraction-l1", "contraction-l2", "contraction-linf"]
    reports = markov_reports(traj, names)
    assert [r.name for r in reports] == names
    rep = reports[(1, 2, math.inf).index(p)]
    assert rep.passed, (p, rep.worst_residual)
    g = np.random.default_rng(int(13 if p == math.inf else p)).standard_normal(traj.grid.n_nodes)
    assert measure_norm(traj, moved_whole_run(traj, g), p) <= measure_norm(traj, g, p)


def test_order_and_bounds(euclid_traj):
    # the bounds are the field's own range, about [0.5, 1.5] here
    (rep,) = markov_reports(euclid_traj, ["order-bounds"])
    assert rep.passed
    g = positive_sine(euclid_traj.grid).values
    moved = moved_whole_run(euclid_traj, g)
    assert g.min() <= moved.min() and moved.max() <= g.max()


def test_cauchy_schwarz_random_pairs(randers_traj):
    # the verdict reads no field; a random pair obeys it under transport
    (rep,) = markov_reports(randers_traj, ["cauchy-schwarz"])
    assert rep.passed, rep.worst_residual
    f, g = np.random.default_rng(5).standard_normal((2, randers_traj.grid.n_nodes))
    fg, ff, gg = (moved_whole_run(randers_traj, v) for v in (f * g, f * f, g * g))
    assert np.all(fg * fg <= ff * gg * (1 + 1e-12))


def test_cauchy_schwarz_equality_when_equal(euclid_traj):
    # every step is certified: the kernel floor is 0, with no slack
    (rep,) = markov_reports(euclid_traj, ["cauchy-schwarz"])
    assert rep.passed
    assert rep.worst_residual == 0.0


def test_cauchy_schwarz_unit_reduction(euclid_traj):
    # against g = 1 this is the variance inequality (Pf)^2 <= P(f^2)
    (rep,) = markov_reports(euclid_traj, ["cauchy-schwarz"])
    assert rep.passed
    f = positive_sine(euclid_traj.grid, amp=0.7).values
    moved_f, moved_ff = moved_whole_run(euclid_traj, f), moved_whole_run(euclid_traj, f * f)
    assert np.all(moved_f**2 <= moved_ff * (1 + 1e-12))


# ---------------------------------------------------------------------------
# variance identity
# ---------------------------------------------------------------------------


def test_variance_identity_constant_field(euclid_traj):
    c = ScalarField(euclid_traj.grid, np.full(euclid_traj.grid.n_nodes, 2.5))
    (rep,) = variance_identity(euclid_traj, [c])
    assert rep.passed
    assert abs(rep.worst_residual) <= 1e-10


def test_variance_identity_resolved_field(euclid_traj):
    x = euclid_traj.grid.coordinates()[:, 0]
    f = ScalarField(
        euclid_traj.grid,
        np.sin(2 * math.pi * x) + 0.4 * np.cos(4 * math.pi * x + 0.7),
    )
    (rep,) = variance_identity(euclid_traj, [f])
    # the identity holds here to C = 50, well inside the run's C
    assert rep.worst_residual <= rep.tolerance * 50.0 / VARIANCE_C, rep.worst_residual


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
        (rep,) = variance_identity(traj, [f])
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
    rep = laplacian_commutation(euclid_traj)
    assert rep.passed
    assert rep.worst_residual <= 1e-8


def test_commutation_weighted(weighted_traj):
    traj, _ = weighted_traj
    rep = laplacian_commutation(traj)
    assert rep.passed
    assert rep.worst_residual <= 1e-8


def test_commutation_randers_within_discretization(randers_traj):
    rep = laplacian_commutation(randers_traj)
    assert rep.passed, (rep.worst_residual, rep.tolerance)


# ---------------------------------------------------------------------------
# curvature estimates along the transport
# ---------------------------------------------------------------------------


def test_gradient_estimate_flat(euclid_traj):
    rep = gradient_estimate_check(euclid_traj, 0.0)
    assert rep.passed, (rep.worst_residual, rep.tolerance)
    assert rep.grid_meta["factor"] == 1.0


def test_gradient_estimate_weighted(weighted_traj):
    traj, K = weighted_traj
    assert K < 0.0
    rep = gradient_estimate_check(traj, K)
    assert rep.passed
    # lowering the bound further inflates the right side, so slack can only grow
    slack = gradient_estimate_check(traj, K - 5.0)
    assert slack.passed
    assert slack.worst_residual <= rep.worst_residual


def test_gradient_estimate_detects_overclaimed_curvature(euclid_traj):
    rep = gradient_estimate_check(euclid_traj, 200.0)
    assert not rep.passed


def test_gradient_estimate_needs_positive_fields():
    grid = TorusGrid(1, 32)
    metric = MetricField(grid, EuclideanNorm(1))
    measure = MeasureField.lebesgue(grid)
    x = grid.coordinates()[:, 0]
    u0 = ScalarField(grid, np.sin(2 * math.pi * x))
    traj = solve_heat_flow(metric, measure, u0, 0.01, 1e-3)
    with pytest.raises(DomainError):
        gradient_estimate_check(traj, 0.0)


def test_local_logsob_flat_limit(euclid_traj):
    rep = local_logsob_check(euclid_traj, 0.0)
    assert rep.passed, (rep.worst_residual, rep.tolerance)
    elapsed = euclid_traj.times[-1] - euclid_traj.times[0]
    assert rep.grid_meta["c_forward"] == pytest.approx(-elapsed)
    assert rep.grid_meta["c_reverse"] == pytest.approx(-elapsed)


def test_local_logsob_weighted(weighted_traj):
    traj, K = weighted_traj
    rep = local_logsob_check(traj, K)
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
        local_logsob_check(traj, 0.0)


def weighted_1d_run():
    grid = TorusGrid(1, 32)
    metric = MetricField(grid, RandersNorm(np.eye(1), np.array([0.3])))
    measure = MeasureField(grid, 0.2 * np.cos(2 * math.pi * grid.coordinates()[:, 0]))
    return solve_heat_flow(metric, measure, positive_sine(grid), 0.01, 1e-3)


@pytest.mark.parametrize(
    "run",
    [weighted_1d_run, lambda: randers_2d_run(16, [[1.0, 0.2], [0.2, 0.8]], [0.3, 0.1], 1e-3, 5e-3)],
    ids=["randers-1d-weighted", "randers-2d"],
)
def test_log_based_checks_share_one_sweep_of_their_sources(monkeypatch, run):
    # gradient_estimate and local_logsob read one transport of their three
    # time-0 sources [u Gamma(log u), Gamma(u), u log u], one block per step,
    # and each report is the bytes of the same check alone on a fresh run
    checks = (gradient_estimate_check, local_logsob_check)
    alone = [json_text(check(run(), -0.5).to_dict()) for check in checks]
    traj = run()
    shapes = []
    advance = DiffusionAssembly.advance

    def counting(self, values):
        shapes.append(np.shape(values))
        return advance(self, values)

    monkeypatch.setattr(DiffusionAssembly, "advance", counting)
    shared = [json_text(check(traj, -0.5).to_dict()) for check in checks]
    assert shapes == [(traj.grid.n_nodes, 3)] * (traj.n_times - 1)
    assert shared == alone
    assert not traj.moved_log_sources.flags.writeable


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
