"""Norm families: values, duality, Legendre maps, reversibility."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerheat import (
    Asym1DNorm,
    EuclideanNorm,
    RandersNorm,
    RiemannianNorm,
    UnsupportedFamily,
    reversibility,
)

RANDERS = RandersNorm(np.eye(2), np.array([0.5, 0.0]))
ALL_FAMILIES = [
    EuclideanNorm(2),
    RiemannianNorm(np.array([[4.0, 1.0], [1.0, 2.0]])),
    RANDERS,
    Asym1DNorm(2.0, 1.0),
]


def random_vectors(desc, rng, count=20):
    v = rng.standard_normal((count, desc.dim))
    # keep away from the degenerate threshold
    return v + 0.1 * np.sign(v + 1e-30)


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------


def test_euclidean_norm_345():
    assert EuclideanNorm(2).norm(np.array([3.0, 4.0])) == pytest.approx(5.0)
    assert EuclideanNorm(2).dual_norm(np.array([3.0, 4.0])) == pytest.approx(5.0)


def test_randers_norm_forward_backward():
    assert RANDERS.norm(np.array([1.0, 0.0])) == pytest.approx(1.5)
    assert RANDERS.norm(np.array([-1.0, 0.0])) == pytest.approx(0.5)


def test_asym1d_norm_and_dual():
    desc = Asym1DNorm(2.0, 1.0)
    assert desc.norm(np.array([-3.0])) == pytest.approx(3.0)
    # sup xi(y) over F(y) = 1: forward unit vector is 1/2, backward is 1
    assert desc.dual_norm(np.array([1.0])) == pytest.approx(0.5)
    assert desc.dual_norm(np.array([-1.0])) == pytest.approx(1.0)
    # the piecewise linear definition on both signs, through the Randers form
    assert isinstance(desc, RandersNorm) and desc.family == "asym1d"
    y = np.array([[3.0], [0.5], [-0.5], [-3.0]])
    slope = np.where(y[:, 0] > 0, 2.0, 1.0)
    np.testing.assert_allclose(desc.norm(y), slope * np.abs(y[:, 0]), rtol=1e-14)
    np.testing.assert_allclose(desc.dual_norm(y), np.abs(y[:, 0]) / slope, rtol=1e-14)
    np.testing.assert_allclose(desc.legendre(y), y / slope[:, None] ** 2, rtol=1e-14)
    np.testing.assert_allclose(legendre_inverse(desc, y), y * slope[:, None] ** 2, rtol=1e-14)
    np.testing.assert_allclose(
        einsum_tensor(desc, y), slope[:, None, None] ** 2, rtol=1e-14
    )
    assert reversibility(desc) >= 2.0


def dense_directions(desc, count=2**16):
    """Both unit directions in 1-d, ``count`` equally spaced angles in 2-d."""
    if desc.dim == 1:
        return np.array([[1.0], [-1.0]])
    theta = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def test_randers_dual_matches_sampled_sup():
    xi = np.array([1.0, 0.0])
    closed = RANDERS.dual_norm(xi)
    dirs = dense_directions(RANDERS)
    sampled = float(np.max((dirs @ xi) / RANDERS.norm(dirs)))
    assert closed == pytest.approx(sampled, abs=1e-9)


@pytest.mark.parametrize("desc", ALL_FAMILIES, ids=lambda d: d.family)
def test_homogeneity_and_triangle(desc):
    rng = np.random.default_rng(42)
    for v in random_vectors(desc, rng):
        base = desc.norm(v)
        for lam in (0.5, 2.0, 7.0):
            assert abs(desc.norm(lam * v) - lam * base) <= 1e-12 * max(base, 1.0)
    for _ in range(50):
        y = rng.standard_normal(desc.dim)
        w = rng.standard_normal(desc.dim)
        assert desc.norm(y + w) <= desc.norm(y) + desc.norm(w) + 1e-12


@pytest.mark.parametrize("desc", ALL_FAMILIES, ids=lambda d: d.family)
def test_norm_zero_iff_zero(desc):
    assert desc.norm(np.zeros(desc.dim)) == 0.0
    rng = np.random.default_rng(3)
    for v in random_vectors(desc, rng, count=10):
        assert desc.norm(v) > 0.0


# ---------------------------------------------------------------------------
# fundamental tensor and Legendre inverse: the reference forms the dual
# tensor and the Legendre map are checked against
# ---------------------------------------------------------------------------


def einsum_tensor(desc, v):
    """g_ij(v) = (1/2) d^2(F^2)/dy^i dy^j = (F/alpha)(a_ij - l_i l_j)
    + (l_i + b_i)(l_j + b_j) with l = a v / alpha, shape ``(..., d, d)``."""
    av = np.einsum("ij,...j->...i", desc.a, v)
    alpha = np.sqrt(np.einsum("...i,...i->...", v, av))
    ell = av / alpha[..., None]
    f_over_alpha = 1.0 + (v @ desc.b) / alpha
    lb = ell + desc.b
    return f_over_alpha[..., None, None] * (
        desc.a - ell[..., :, None] * ell[..., None, :]
    ) + lb[..., :, None] * lb[..., None, :]


def legendre_inverse(desc, y):
    """y -> g_y(y, .) = d(F^2)/2 = F(y) (a y / alpha + b)."""
    av = np.einsum("ij,...j->...i", desc.a, y)
    alpha = np.sqrt(np.einsum("...i,...i->...", y, av))
    return (alpha + y @ desc.b)[..., None] * (av / alpha[..., None] + desc.b)


def test_fundamental_tensor_quadratic_families():
    v = np.array([0.3, -1.1])
    np.testing.assert_allclose(einsum_tensor(EuclideanNorm(2), v), np.eye(2))
    a = np.array([[4.0, 1.0], [1.0, 2.0]])
    np.testing.assert_allclose(einsum_tensor(RiemannianNorm(a), v), a)


def test_randers_tensor_value_on_axis():
    v = np.array([1.0, 0.0])
    g = einsum_tensor(RANDERS, v)
    assert v @ g @ v == pytest.approx(2.25, abs=1e-12)


@pytest.mark.parametrize("desc", ALL_FAMILIES, ids=lambda d: d.family)
def test_tensor_reproduces_norm_squared(desc):
    rng = np.random.default_rng(7)
    for v in random_vectors(desc, rng):
        g = einsum_tensor(desc, v)
        assert v @ g @ v == pytest.approx(desc.norm(v) ** 2, abs=1e-12)
        np.testing.assert_allclose(g, g.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(g) > 0.0)


@pytest.mark.parametrize("desc", ALL_FAMILIES, ids=lambda d: d.family)
def test_tensor_matches_finite_differences(desc):
    half_sq = lambda y: 0.5 * float(desc.norm(y)) ** 2
    rng = np.random.default_rng(11)
    step = 1e-4
    for v in random_vectors(desc, rng, count=5):
        g = einsum_tensor(desc, v)
        for i in range(desc.dim):
            for j in range(desc.dim):
                ei = np.zeros(desc.dim)
                ej = np.zeros(desc.dim)
                ei[i] = step
                ej[j] = step
                fd = (
                    half_sq(v + ei + ej)
                    - half_sq(v + ei - ej)
                    - half_sq(v - ei + ej)
                    + half_sq(v - ei - ej)
                ) / (4.0 * step**2)
                assert fd == pytest.approx(g[i, j], rel=1e-6, abs=1e-6)


# ---------------------------------------------------------------------------
# component-wise algebra against the einsum forms it replaced
# ---------------------------------------------------------------------------

EINSUM_FAMILIES = [
    EuclideanNorm(1),
    EuclideanNorm(2),
    RiemannianNorm(np.array([[2.5]])),
    RiemannianNorm(np.array([[0.5, 0.9], [0.9, 2.0]])),
    RandersNorm(np.array([[1.3]]), np.array([0.4])),
    RandersNorm(np.array([[1.0, 0.2], [0.2, 0.8]]), np.array([0.3, 0.1])),
    Asym1DNorm(2.0, 1.0),
]


def einsum_dual_parts(desc, xi):
    lam = 1.0 - desc.b_norm_sq
    q = np.einsum("...i,ij,...j->...", xi, desc.a_inv, xi)
    m = np.einsum("...i,ij,j->...", xi, desc.a_inv, desc.b)
    r = np.sqrt(lam * q + m * m)
    return (r - m) / lam, r


def assert_same_bits(got, want):
    """Equal bytes wherever the reference is a number, NaN where it is NaN."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def einsum_inputs(dim, kind):
    rng = np.random.default_rng(7)
    if kind == "zero":
        return np.array([[0.0] * dim, [-0.0] * dim, [-0.0] + [0.0] * (dim - 1)])
    v = rng.standard_normal((4000, dim))
    if kind == "tiny":
        return 1e-300 * v
    return v * np.exp(rng.uniform(-30.0, 30.0, (4000, 1)))


@pytest.mark.parametrize("kind", ["random", "zero", "tiny"])
@pytest.mark.parametrize(
    "desc", EINSUM_FAMILIES, ids=lambda d: f"{d.family}-{d.dim}d"
)
def test_componentwise_algebra_matches_einsum_bit_for_bit(desc, kind):
    v = einsum_inputs(desc.dim, kind)
    with np.errstate(all="ignore"):
        for got, want in zip(desc._dual_parts(v), einsum_dual_parts(desc, v)):
            assert_same_bits(got, want)


# ---------------------------------------------------------------------------
# Legendre maps
# ---------------------------------------------------------------------------


def test_legendre_euclidean_identity():
    xi = np.array([3.0, 4.0])
    np.testing.assert_allclose(EuclideanNorm(2).legendre(xi), xi)
    np.testing.assert_allclose(legendre_inverse(EuclideanNorm(2), np.array([1.0, 2.0])),
                               np.array([1.0, 2.0]))


def test_legendre_riemannian_solves_tensor():
    desc = RiemannianNorm(np.diag([4.0, 1.0]))
    np.testing.assert_allclose(
        desc.legendre(np.array([4.0, 1.0])), np.array([1.0, 1.0]), atol=1e-14
    )


def test_legendre_asym1d_value():
    desc = Asym1DNorm(2.0, 1.0)
    np.testing.assert_allclose(
        legendre_inverse(desc, np.array([1.0])), np.array([4.0]), atol=1e-14
    )


def test_legendre_maps_zero_to_zero():
    for desc in ALL_FAMILIES:
        np.testing.assert_allclose(desc.legendre(np.zeros(desc.dim)), 0.0)


@pytest.mark.parametrize("desc", ALL_FAMILIES, ids=lambda d: d.family)
def test_legendre_roundtrip_both_directions(desc):
    rng = np.random.default_rng(19)
    for v in random_vectors(desc, rng):
        xi = legendre_inverse(desc, v)
        # defining identities: xi(v) = F(v)^2 and F*(xi) = F(v)
        f = desc.norm(v)
        assert float(xi @ v) == pytest.approx(f**2, rel=1e-10, abs=1e-10)
        assert desc.dual_norm(xi) == pytest.approx(f, rel=1e-10, abs=1e-10)
        np.testing.assert_allclose(desc.legendre(xi), v, rtol=1e-9, atol=1e-10)
    for _ in range(20):
        xi = rng.standard_normal(desc.dim) + 0.1
        y = desc.legendre(xi)
        np.testing.assert_allclose(
            legendre_inverse(desc, y), xi, rtol=1e-10, atol=1e-10
        )


PROPERTY_FAMILIES = ALL_FAMILIES + [
    RandersNorm(np.array([[2.0, 0.3], [0.3, 1.0]]), np.array([0.4, -0.7])),
    RandersNorm(np.array([[1.5]]), np.array([0.9])),
]


def assert_rel_close(got, want, rel=1e-12):
    assert np.linalg.norm(got - want) <= rel * np.linalg.norm(want)


@settings(max_examples=200, deadline=None)
@given(
    desc=st.sampled_from(PROPERTY_FAMILIES),
    angle=st.floats(0.0, 2.0 * np.pi),
    exponent=st.floats(-6.0, 6.0),
)
def test_legendre_is_homogeneous_and_exact_at_every_scale(desc, angle, exponent):
    if desc.dim == 2:
        unit = np.array([np.cos(angle), np.sin(angle)])
    else:
        unit = np.array([1.0 if angle < np.pi else -1.0])
    c = 10.0**exponent
    xi = c * unit
    y = desc.legendre(xi)
    assert_rel_close(y, c * desc.legendre(unit))
    assert_rel_close(legendre_inverse(desc, y), xi)
    assert_rel_close(desc.norm(y), desc.dual_norm(xi))


def dual_matrix(comps, dim):
    """The (..., dim, dim) matrix of dual_tensor's components i <= j."""
    out = np.empty(comps[0].shape + (dim, dim))
    upper = [(i, j) for i in range(dim) for j in range(i, dim)]
    for g, (i, j) in zip(comps, upper):
        out[..., i, j] = out[..., j, i] = g
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    desc=st.sampled_from(EINSUM_FAMILIES + PROPERTY_FAMILIES[-2:]),
    angle=st.floats(0.0, 2.0 * np.pi),
    exponent=st.floats(-6.0, 6.0),
)
def test_dual_tensor_is_the_inverse_tensor_at_the_legendre_image(desc, angle, exponent):
    if desc.dim == 2:
        unit = np.array([np.cos(angle), np.sin(angle)])
    else:
        unit = np.array([1.0 if angle < np.pi else -1.0])
    xi = np.stack([10.0**exponent * unit, np.zeros(desc.dim)])
    mask = np.array([False, True])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        comps = desc.dual_tensor(xi, mask)
    got = dual_matrix(comps, desc.dim)
    want = np.linalg.inv(einsum_tensor(desc, desc.legendre(xi[0])))
    assert_rel_close(got[0], want)
    # the masked row takes a^-1
    upper = [desc.a_inv[i, j] for i in range(desc.dim) for j in range(i, desc.dim)]
    assert [g[1] for g in comps] == upper
    if desc.family == "euclidean" and desc.dim == 1:
        assert comps[0].tolist() == [1.0, 1.0]


@pytest.mark.parametrize("desc", EINSUM_FAMILIES + PROPERTY_FAMILIES[-2:], ids=lambda d: d.family)
def test_legendre_is_the_dual_tensor_applied_to_the_covector(desc):
    # Euler: F*^2/2 is 2-homogeneous, so its gradient, the Legendre map, is
    # its Hessian g* applied to xi
    xi = random_vectors(desc, np.random.default_rng(23), count=50)
    g_star = dual_matrix(desc.dual_tensor(xi, np.zeros(len(xi), bool)), desc.dim)
    want = np.einsum("nij,nj->ni", g_star, xi)
    got = desc.legendre(xi)
    assert np.all(np.linalg.norm(got - want, axis=1) <= 1e-12 * np.linalg.norm(want, axis=1))


@pytest.mark.parametrize("desc", ALL_FAMILIES, ids=lambda d: d.family)
def test_degenerate_mask_is_relative_to_the_field_scale(desc):
    rng = np.random.default_rng(29)
    xi = rng.standard_normal((6, desc.dim)) + 0.5
    xi[0] *= 1e6
    xi[[2, 4]] *= 1e-9  # far below the largest row, not below 1e-12
    xi[5] = 0.0
    mask = desc.degenerate_mask(xi)
    assert np.flatnonzero(mask).tolist() == [2, 4, 5]
    y = desc.legendre(xi)
    assert np.all(y[mask] == 0.0) and np.all(np.linalg.norm(y[~mask], axis=1) > 0.0)
    # one covector alone is its own scale: only |xi| <= 1e-12 length scale
    for row in xi[[2, 4]]:
        assert not desc.degenerate_mask(row) and np.any(desc.legendre(row) != 0.0)
    assert desc.degenerate_mask(np.zeros(desc.dim))


# ---------------------------------------------------------------------------
# reversibility
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("desc", ALL_FAMILIES, ids=lambda d: d.family)
def test_reversibility_is_the_sampled_sup(desc):
    dirs = dense_directions(desc)
    sampled = float(np.max(desc.norm(-dirs) / desc.norm(dirs)))
    exact = reversibility(desc)
    assert exact >= sampled
    assert exact == pytest.approx(sampled, rel=1e-6)


# ---------------------------------------------------------------------------
# inadmissible descriptors
# ---------------------------------------------------------------------------


def test_randers_drift_too_large():
    with pytest.raises(UnsupportedFamily):
        RandersNorm(np.eye(2), np.array([1.0, 0.0]))


def test_randers_drift_saturating_anisotropic_tensor():
    # |b|_a depends on a; this drift is fine for identity but not here
    a = np.diag([0.25, 1.0])
    with pytest.raises(UnsupportedFamily):
        RandersNorm(a, np.array([0.6, 0.0]))


def test_riemannian_requires_spd():
    with pytest.raises(UnsupportedFamily):
        RiemannianNorm(np.array([[1.0, 2.0], [2.0, 1.0]]))


@pytest.mark.parametrize("a", [np.ones((2, 3)), np.ones((1, 2)), np.eye(3)])
def test_quadratic_tensor_shape_guard(a):
    # checked before symmetrising: a (1, 2) array would broadcast to 2 x 2
    with pytest.raises(UnsupportedFamily, match="bad shapes"):
        RiemannianNorm(a)


def test_asym1d_requires_positive_slopes():
    # NaN must fail the slope test, and (-2, -1) would pass |b|_a < 1 alone
    for slopes in [(2.0, 0.0), (0.0, 1.0), (-2.0, -1.0), (math.nan, 1.0), (math.inf, 1.0)]:
        with pytest.raises(UnsupportedFamily, match="slopes"):
            Asym1DNorm(*slopes)


@pytest.mark.parametrize(
    "a, b",
    [([[math.nan]], [0.0]), ([[math.inf]], [0.0]), ([[1.0]], [math.nan]), ([[1.0]], [-math.inf])],
)
def test_randers_rejects_non_finite_entries(a, b):
    with pytest.raises(UnsupportedFamily, match="finite"):
        RandersNorm(np.array(a), np.array(b))


def test_reversibility_with_underflowing_or_zero_drift():
    # |b|_a^2 underflows a double here; the exact bound still lies above 1
    assert reversibility(RandersNorm(np.eye(2), np.array([1e-200, 0.0]))) > 1.0
    assert reversibility(RiemannianNorm(np.diag([4.0, 1.0]))) == 1.0


def test_euclidean_dimension_guard():
    with pytest.raises(UnsupportedFamily):
        EuclideanNorm(3)
