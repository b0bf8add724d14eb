"""Grids, measures, curvature bounds, asymmetric distance, gradients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerheat import (
    Asym1DNorm,
    CurvatureBound,
    EuclideanNorm,
    MeasureField,
    MetricField,
    RandersNorm,
    RiemannianNorm,
    ScalarField,
    TorusGrid,
    UnsupportedFamily,
    finsler_distance,
    gradient_field,
    reversibility,
    ricci_lower_bound,
)
from finslerheat.geometry import differential_field
from finslerheat.heat import weighted_laplacian


def euclid_metric(nodes=32, dim=1, period=1.0):
    return MetricField(TorusGrid(dim, nodes, period), EuclideanNorm(dim))


# ---------------------------------------------------------------------------
# grid mechanics
# ---------------------------------------------------------------------------


def test_grid_spacing_and_counts():
    grid = TorusGrid(2, 16, period=2.0)
    assert grid.h == pytest.approx(0.125)
    assert grid.n_nodes == 256
    assert grid.shape == (16, 16)
    assert grid.coordinates().shape == (256, 2)


def test_grid_rejects_tiny_resolution():
    with pytest.raises(ValueError):
        TorusGrid(1, 4)


def test_ravel_index_periodic_wrap():
    grid = TorusGrid(2, 8)
    assert grid.ravel_index((0, 0)) == 0
    assert grid.ravel_index((8, 8)) == 0
    assert grid.ravel_index((-1, 0)) == grid.ravel_index((7, 0))


def test_axis_diff_is_exact_on_resolved_mode():
    # centered differences of a Fourier mode carry an exact sinc factor,
    # which makes a machine-precision oracle
    grid = TorusGrid(1, 32)
    x = grid.coordinates()[:, 0]
    vals = np.sin(2 * math.pi * x)
    got = grid.axis_diff(vals, 0)
    factor = math.sin(2 * math.pi * grid.h) / grid.h
    np.testing.assert_allclose(got, np.cos(2 * math.pi * x) * factor, atol=1e-13)


def test_scalar_field_length_guard():
    grid = TorusGrid(1, 16)
    with pytest.raises(ValueError):
        ScalarField(grid, np.zeros(15))


# ---------------------------------------------------------------------------
# measures and integration
# ---------------------------------------------------------------------------


def test_integrate_constants():
    grid = TorusGrid(1, 32)
    ones = np.ones(grid.n_nodes)
    assert np.sum(ones * MeasureField.lebesgue(grid).sigma) == pytest.approx(1.0)
    halved = MeasureField(grid, np.full(grid.n_nodes, math.log(2.0)))
    assert np.sum(ones * halved.sigma) == pytest.approx(0.5)


def test_integrate_sine_vanishes_by_symmetry():
    grid = TorusGrid(1, 32)
    u = ScalarField.from_function(grid, lambda x: math.sin(2 * math.pi * x))
    assert abs(np.sum(u.values * MeasureField.lebesgue(grid).sigma)) <= 1e-12


def test_measure_weights_positive():
    grid = TorusGrid(2, 8)
    m = MeasureField.from_log_density(grid, lambda x, y: 0.3 * math.cos(2 * math.pi * x))
    assert np.all(m.sigma > 0.0)
    # periodic trapezoid sum of exp(-0.3 cos 2 pi x): the Bessel value I0(0.3)
    assert np.sum(m.sigma) == pytest.approx(np.i0(0.3), rel=1e-10)


def test_measure_weights_are_computed_once_and_read_only():
    grid = TorusGrid(2, 8)
    m = MeasureField.from_log_density(grid, lambda x, y: 0.3 * math.cos(2 * math.pi * x))
    assert m.sigma is m.sigma and m.density is m.density
    np.testing.assert_array_equal(m.density, np.exp(-m.f))
    np.testing.assert_array_equal(m.sigma, np.exp(-m.f) * grid.h**2)
    # every assembly on the measure shares these arrays: a write must raise
    assembly = weighted_laplacian(
        MetricField(grid, EuclideanNorm(2)), m, differential_field(ScalarField(grid, m.f))
    )
    assert assembly.sigma is m.sigma
    for arr in (m.sigma, m.density):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


# ---------------------------------------------------------------------------
# curvature bounds
# ---------------------------------------------------------------------------


def test_ricci_flat_unweighted_zero():
    grid = TorusGrid(1, 32)
    for N in (1.0, 3.0, math.inf):
        out = ricci_lower_bound(euclid_metric(), MeasureField.lebesgue(grid), N)
        assert out.K == 0.0
        assert out.provenance == "analytic"


def test_ricci_weighted_cosine_matches_discrete_hessian():
    grid = TorusGrid(1, 64)
    eps = 0.2
    f = lambda x: eps * math.cos(2 * math.pi * x)
    measure = MeasureField.from_log_density(grid, f)
    out = ricci_lower_bound(euclid_metric(64), measure, math.inf)
    # independent oracle: node-wise minimum of the periodic second difference
    vals = measure.f
    disc = (np.roll(vals, -1) - 2 * vals + np.roll(vals, 1)) / grid.h**2
    assert out.K == pytest.approx(float(np.min(disc)), abs=1e-12)
    # continuum value with the second-difference defect (2 pi h)^2 / 12
    assert out.K == pytest.approx(-eps * (2 * math.pi) ** 2, abs=30 * grid.h**2)


def test_ricci_finite_n_tightens_the_bound():
    # the drift term only binds when N - dim < 2 eps; at the node where
    # the Hessian is minimal the differential vanishes, so large N gives
    # exactly the same minimum
    grid = TorusGrid(1, 64)
    measure = MeasureField.from_log_density(grid, lambda x: 0.2 * math.cos(2 * math.pi * x))
    k_inf = ricci_lower_bound(euclid_metric(64), measure, math.inf).K
    assert ricci_lower_bound(euclid_metric(64), measure, 8.0).K == k_inf
    k_tight = ricci_lower_bound(euclid_metric(64), measure, 1.2).K
    assert k_tight < k_inf


def test_ricci_dimension_limit_is_minus_infinity():
    grid = TorusGrid(1, 32)
    measure = MeasureField.from_log_density(grid, lambda x: 0.1 * math.sin(2 * math.pi * x))
    out = ricci_lower_bound(euclid_metric(), measure, 1.0)
    assert out.K == -math.inf


def test_ricci_constant_randers_lebesgue_zero():
    grid = TorusGrid(2, 8)
    metric = MetricField(grid, RandersNorm(np.eye(2), np.array([0.3, 0.1])))
    out = ricci_lower_bound(metric, MeasureField.lebesgue(grid), 2.0)
    assert out.K == 0.0


def test_ricci_asym_rejects_weighted_measure():
    grid = TorusGrid(1, 32)
    metric = MetricField(grid, Asym1DNorm(2.0, 1.0))
    measure = MeasureField.from_log_density(grid, lambda x: 0.1 * math.cos(2 * math.pi * x))
    with pytest.raises(UnsupportedFamily):
        ricci_lower_bound(metric, measure, 2.0)


def test_ricci_2d_weighted_value():
    grid = TorusGrid(2, 32)
    eps = 0.15
    measure = MeasureField.from_log_density(
        grid, lambda x, y: eps * math.cos(2 * math.pi * x)
    )
    out = ricci_lower_bound(euclid_metric(32, dim=2), measure, math.inf)
    assert out.K == pytest.approx(-eps * (2 * math.pi) ** 2, abs=30 * grid.h**2)


def dense_direction_min(a, hess, df, inv_gap, count=384, zooms=2):
    """Minimum of Hess f(v, v) - inv_gap df(v)^2 over a-unit v and nodes by
    direction sweeps: ``count`` angles on [0, pi) at every node, then
    ``zooms`` sweeps of ``count`` angles across the neighbours of each node's
    best angle."""
    span = np.pi
    centre = np.full(len(hess), span / 2)
    for _ in range(zooms + 1):
        theta = centre[:, None] + span * (np.arange(count) / count - 0.5)
        w = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        v = w / np.sqrt(np.einsum("nti,ij,ntj->nt", w, a, w))[..., None]
        vals = np.einsum("nti,nij,ntj->nt", v, hess, v)
        vals -= inv_gap * np.einsum("ni,nti->nt", df, v) ** 2
        centre = theta[np.arange(len(hess)), np.argmin(vals, axis=1)]
        span = 4 * span / count
    return float(vals.min())


@pytest.mark.parametrize("N", [3.0, math.inf])
def test_ricci_riemannian_2d_is_the_dense_direction_minimum(N):
    grid = TorusGrid(2, 24)
    a = np.array([[1.0, 0.3], [0.3, 0.7]])
    metric = MetricField(grid, RiemannianNorm(a))
    measure = MeasureField.from_log_density(
        grid,
        lambda x, y: 0.3 * math.cos(2 * math.pi * x)
        + 0.2 * math.sin(2 * math.pi * (x + y) + 0.4),
    )
    out = ricci_lower_bound(metric, measure, N)
    f = measure.f
    hess = np.empty((grid.n_nodes, 2, 2))
    hess[:, 0, 0] = grid.axis_second_diff(f, 0)
    hess[:, 1, 1] = grid.axis_second_diff(f, 1)
    hess[:, 0, 1] = hess[:, 1, 0] = grid.cross_second_diff(f)
    df = np.stack([grid.axis_diff(f, 0), grid.axis_diff(f, 1)], axis=-1)
    oracle = dense_direction_min(a, hess, df, 0.0 if math.isinf(N) else 1.0 / (N - 2))
    assert out.provenance == "sampled"
    assert out.K <= oracle
    assert out.K == pytest.approx(oracle, rel=1e-12)


def test_ricci_euclidean_1d_is_the_closed_form():
    grid = TorusGrid(1, 64)
    N = 3.0
    measure = MeasureField.from_log_density(
        grid,
        lambda x: 0.3 * math.cos(2 * math.pi * x) + 0.2 * math.sin(4 * math.pi * x),
    )
    f = measure.f
    f1 = (np.roll(f, -1) - np.roll(f, 1)) / (2 * grid.h)
    f2 = (np.roll(f, -1) - 2 * f + np.roll(f, 1)) / grid.h**2
    closed = float(np.min(f2 - f1**2 / (N - 1)))  # a_00 = 1
    out = ricci_lower_bound(euclid_metric(64), measure, N)
    assert out.K == closed
    assert out.K < ricci_lower_bound(euclid_metric(64), measure, math.inf).K


def test_curvature_bound_type_guard():
    with pytest.raises(ValueError):
        CurvatureBound(0.5, 0.0, "analytic")
    with pytest.raises(ValueError):
        CurvatureBound(-math.inf, 0.0, "analytic")


def test_ricci_rejects_minus_infinite_dimension():
    # N = -inf once passed the guard and returned a sampled bound with
    # N = -inf; N = +inf is the unbounded dimension and still works
    metric = euclid_metric(64)
    measure = MeasureField.from_log_density(metric.grid, lambda x: 0.3 * math.cos(2 * math.pi * x))
    with pytest.raises(ValueError):
        ricci_lower_bound(metric, measure, -math.inf)
    out = ricci_lower_bound(metric, measure, math.inf)
    assert out.N == math.inf and math.isfinite(out.K)


# ---------------------------------------------------------------------------
# asymmetric distance
# ---------------------------------------------------------------------------


def test_distance_euclidean_neighbor():
    metric = euclid_metric(32)
    assert finsler_distance(metric, 0, 1) == pytest.approx(metric.grid.h)
    assert finsler_distance(metric, 5, 5) == 0.0


def test_distance_asym1d_forward_backward():
    grid = TorusGrid(1, 32)
    metric = MetricField(grid, Asym1DNorm(2.0, 1.0))
    delta = 3 * grid.h
    assert finsler_distance(metric, 0, 3) == pytest.approx(2.0 * delta)
    assert finsler_distance(metric, 3, 0) == pytest.approx(delta)


def test_distance_quasi_symmetry_randers():
    grid = TorusGrid(2, 16)
    metric = MetricField(grid, RandersNorm(np.eye(2), np.array([0.5, 0.0])))
    lam = reversibility(metric.descriptor)
    assert lam == pytest.approx(3.0, abs=1e-6)
    rng = np.random.default_rng(5)
    for _ in range(10):
        p, q = rng.integers(0, grid.n_nodes, size=2)
        if p == q:
            continue
        fwd = finsler_distance(metric, int(p), int(q))
        bwd = finsler_distance(metric, int(q), int(p))
        assert fwd <= lam * bwd * 1.05
        assert fwd >= bwd / lam * 0.95


def test_distance_directed_triangle_inequality():
    grid = TorusGrid(2, 12)
    metric = MetricField(grid, RandersNorm(np.eye(2), np.array([0.3, 0.2])))
    rng = np.random.default_rng(9)
    for _ in range(20):
        x, y, z = rng.integers(0, grid.n_nodes, size=3)
        dxz = finsler_distance(metric, int(x), int(z))
        dxy = finsler_distance(metric, int(x), int(y))
        dyz = finsler_distance(metric, int(y), int(z))
        assert dxz <= dxy + dyz + 1e-10


def test_distance_full_array_consistent_with_single_target():
    metric = euclid_metric(16)
    all_d = finsler_distance(metric, 2)
    assert all_d.shape == (16,)
    assert all_d[9] == pytest.approx(finsler_distance(metric, 2, 9))


def test_distance_accepts_axis_tuples():
    grid = TorusGrid(2, 8)
    metric = MetricField(grid, EuclideanNorm(2))
    flat = grid.ravel_index((3, 4))
    assert finsler_distance(metric, (0, 0), (3, 4)) == pytest.approx(
        finsler_distance(metric, 0, flat)
    )


def test_distance_euclidean_knight_move_is_straight():
    # an 8-neighbour graph path would cost h (1 + sqrt 2)
    metric = euclid_metric(32, dim=2)
    h = metric.grid.h
    assert finsler_distance(metric, (0, 0), (1, 2)) == pytest.approx(
        h * math.sqrt(5.0), rel=1e-15
    )


def _brute_distance(metric, p, q, radius):
    """min over shifts k in [-radius, radius]^dim of F(x_q - x_p + k L)."""
    grid = metric.grid
    xy = grid.coordinates()
    k = np.arange(-radius, radius + 1)
    shifts = np.stack(np.meshgrid(*[k] * grid.dim, indexing="ij"), axis=-1)
    steps = xy[q] - xy[p] + grid.period * shifts.reshape(-1, grid.dim)
    return float(np.min(metric.descriptor.norm(steps)))


@pytest.mark.parametrize(
    "desc",
    [
        RiemannianNorm(np.array([[1.0, 0.9], [0.9, 1.0]])),
        RandersNorm(np.eye(2), np.array([0.6, 0.0])),
    ],
    ids=["riemannian", "randers"],
)
def test_distance_equals_brute_force_shift_minimum(desc):
    metric = MetricField(TorusGrid(2, 16), desc)
    rng = np.random.default_rng(21)
    for p, q in rng.integers(0, metric.grid.n_nodes, size=(40, 2)):
        brute = _brute_distance(metric, int(p), int(q), radius=8)
        assert finsler_distance(metric, int(p), int(q)) == pytest.approx(
            brute, rel=1e-12, abs=1e-12
        )
    full = finsler_distance(metric, 7)
    brute = [_brute_distance(metric, 7, q, radius=8) for q in range(metric.grid.n_nodes)]
    np.testing.assert_allclose(full, brute, rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    b=st.tuples(st.floats(-0.6, 0.6), st.floats(-0.6, 0.6)),
    nodes=st.lists(st.integers(0, 143), min_size=3, max_size=3),
)
def test_distance_is_a_directed_metric_below_every_shift(b, nodes):
    metric = MetricField(TorusGrid(2, 12, period=1.5), RandersNorm(np.eye(2), np.array(b)))
    p, q, r = nodes
    assert finsler_distance(metric, p, p) == 0.0
    d_pq = finsler_distance(metric, p, q)
    d_qr = finsler_distance(metric, q, r)
    assert finsler_distance(metric, p, r) <= d_pq + d_qr + 1e-12
    assert d_pq <= _brute_distance(metric, p, q, radius=3) + 1e-12


# ---------------------------------------------------------------------------
# differentials and gradients
# ---------------------------------------------------------------------------


def test_gradient_of_constant_vanishes():
    metric = euclid_metric(16)
    u = ScalarField(metric.grid, np.full(16, 2.5))
    np.testing.assert_allclose(gradient_field(metric, u).values, 0.0)


def test_gradient_riemannian_is_inverse_tensor_times_differential():
    grid = TorusGrid(2, 16)
    a = np.array([[4.0, 1.0], [1.0, 2.0]])
    metric = MetricField(grid, RiemannianNorm(a))
    u = ScalarField.from_function(
        grid, lambda x, y: math.sin(2 * math.pi * x) + 0.5 * math.cos(2 * math.pi * y)
    )
    du = differential_field(u).values
    grad = gradient_field(metric, u).values
    np.testing.assert_allclose(grad, du @ np.linalg.inv(a).T, atol=1e-10)


def test_gradient_norm_converges_at_second_order():
    # F(grad u) vs |u'| for u = sin: error ratio across a mesh doubling
    errs = []
    for nodes in (32, 64):
        metric = euclid_metric(nodes)
        x = metric.grid.coordinates()[:, 0]
        u = ScalarField(metric.grid, np.sin(2 * math.pi * x))
        fgrad = np.linalg.norm(gradient_field(metric, u).values, axis=1)
        exact = 2 * math.pi * np.abs(np.cos(2 * math.pi * x))
        errs.append(float(np.max(np.abs(fgrad - exact))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


def test_gradient_asym1d_slope_scaling():
    grid = TorusGrid(1, 256)
    metric = MetricField(grid, Asym1DNorm(2.0, 1.0))
    amp = 1.0 / (2 * math.pi)
    u = ScalarField.from_function(grid, lambda x: amp * math.sin(2 * math.pi * x))
    node = 0  # du is 1 here up to O(h^2), so F(grad u)^2 = (1/p_plus)^2
    desc = metric.descriptor
    grad = gradient_field(metric, u).values[node]
    val = desc.norm(grad[None, :]) ** 2
    assert val == pytest.approx(0.25, abs=20 * grid.h**2)
