"""Norm families: values, duality, Legendre maps, reversibility."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerheat import (
    Asym1DNorm,
    DegenerateVector,
    EuclideanNorm,
    RandersNorm,
    RiemannianNorm,
    UnsupportedFamily,
    dual_norm,
    fundamental_tensor,
    legendre,
    legendre_inverse,
    norm,
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
    assert norm(EuclideanNorm(2), np.array([3.0, 4.0])) == pytest.approx(5.0)
    assert dual_norm(EuclideanNorm(2), np.array([3.0, 4.0])) == pytest.approx(5.0)


def test_randers_norm_forward_backward():
    assert norm(RANDERS, np.array([1.0, 0.0])) == pytest.approx(1.5)
    assert norm(RANDERS, np.array([-1.0, 0.0])) == pytest.approx(0.5)


def test_asym1d_norm_and_dual():
    desc = Asym1DNorm(2.0, 1.0)
    assert norm(desc, np.array([-3.0])) == pytest.approx(3.0)
    # sup xi(y) over F(y) = 1: forward unit vector is 1/2, backward is 1
    assert dual_norm(desc, np.array([1.0])) == pytest.approx(0.5)
    assert dual_norm(desc, np.array([-1.0])) == pytest.approx(1.0)


def dense_directions(desc, count=2**16):
    """Both unit directions in 1-d, ``count`` equally spaced angles in 2-d."""
    if desc.dim == 1:
        return np.array([[1.0], [-1.0]])
    theta = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def test_randers_dual_matches_sampled_sup():
    xi = np.array([1.0, 0.0])
    closed = dual_norm(RANDERS, xi)
    dirs = dense_directions(RANDERS)
    sampled = float(np.max((dirs @ xi) / norm(RANDERS, dirs)))
    assert closed == pytest.approx(sampled, abs=1e-9)


@pytest.mark.parametrize("desc", ALL_FAMILIES, ids=lambda d: d.family)
def test_homogeneity_and_triangle(desc):
    rng = np.random.default_rng(42)
    for v in random_vectors(desc, rng):
        base = norm(desc, v)
        for lam in (0.5, 2.0, 7.0):
            assert abs(norm(desc, lam * v) - lam * base) <= 1e-12 * max(base, 1.0)
    for _ in range(50):
        y = rng.standard_normal(desc.dim)
        w = rng.standard_normal(desc.dim)
        assert norm(desc, y + w) <= norm(desc, y) + norm(desc, w) + 1e-12


@pytest.mark.parametrize("desc", ALL_FAMILIES, ids=lambda d: d.family)
def test_norm_zero_iff_zero(desc):
    assert norm(desc, np.zeros(desc.dim)) == 0.0
    rng = np.random.default_rng(3)
    for v in random_vectors(desc, rng, count=10):
        assert norm(desc, v) > 0.0


# ---------------------------------------------------------------------------
# fundamental tensor
# ---------------------------------------------------------------------------


def test_fundamental_tensor_quadratic_families():
    v = np.array([0.3, -1.1])
    np.testing.assert_allclose(fundamental_tensor(EuclideanNorm(2), v), np.eye(2))
    a = np.array([[4.0, 1.0], [1.0, 2.0]])
    np.testing.assert_allclose(fundamental_tensor(RiemannianNorm(a), v), a)


def test_randers_tensor_value_on_axis():
    v = np.array([1.0, 0.0])
    g = fundamental_tensor(RANDERS, v)
    assert v @ g @ v == pytest.approx(2.25, abs=1e-12)


@pytest.mark.parametrize("desc", ALL_FAMILIES, ids=lambda d: d.family)
def test_tensor_reproduces_norm_squared(desc):
    rng = np.random.default_rng(7)
    for v in random_vectors(desc, rng):
        g = fundamental_tensor(desc, v)
        assert v @ g @ v == pytest.approx(norm(desc, v) ** 2, abs=1e-12)
        np.testing.assert_allclose(g, g.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(g) > 0.0)


@pytest.mark.parametrize("desc", ALL_FAMILIES, ids=lambda d: d.family)
def test_tensor_matches_finite_differences(desc):
    half_sq = lambda y: 0.5 * float(norm(desc, y)) ** 2
    rng = np.random.default_rng(11)
    step = 1e-4
    for v in random_vectors(desc, rng, count=5):
        g = fundamental_tensor(desc, v)
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


def test_tensor_rejects_degenerate_vector():
    with pytest.raises(DegenerateVector):
        fundamental_tensor(RANDERS, np.array([0.0, 1e-15]))


# ---------------------------------------------------------------------------
# Legendre maps
# ---------------------------------------------------------------------------


def test_legendre_euclidean_identity():
    xi = np.array([3.0, 4.0])
    np.testing.assert_allclose(legendre(EuclideanNorm(2), xi), xi)
    np.testing.assert_allclose(legendre_inverse(EuclideanNorm(2), np.array([1.0, 2.0])),
                               np.array([1.0, 2.0]))


def test_legendre_riemannian_solves_tensor():
    desc = RiemannianNorm(np.diag([4.0, 1.0]))
    np.testing.assert_allclose(
        legendre(desc, np.array([4.0, 1.0])), np.array([1.0, 1.0]), atol=1e-14
    )


def test_legendre_asym1d_value():
    desc = Asym1DNorm(2.0, 1.0)
    np.testing.assert_allclose(
        legendre_inverse(desc, np.array([1.0])), np.array([4.0]), atol=1e-14
    )


def test_legendre_maps_zero_to_zero():
    for desc in ALL_FAMILIES:
        np.testing.assert_allclose(legendre(desc, np.zeros(desc.dim)), 0.0)


@pytest.mark.parametrize("desc", ALL_FAMILIES, ids=lambda d: d.family)
def test_legendre_roundtrip_both_directions(desc):
    rng = np.random.default_rng(19)
    for v in random_vectors(desc, rng):
        xi = legendre_inverse(desc, v)
        # defining identities: xi(v) = F(v)^2 and F*(xi) = F(v)
        f = norm(desc, v)
        assert float(xi @ v) == pytest.approx(f**2, rel=1e-10, abs=1e-10)
        assert dual_norm(desc, xi) == pytest.approx(f, rel=1e-10, abs=1e-10)
        np.testing.assert_allclose(legendre(desc, xi), v, rtol=1e-9, atol=1e-10)
    for _ in range(20):
        xi = rng.standard_normal(desc.dim) + 0.1
        y = legendre(desc, xi)
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
    y = legendre(desc, xi)
    assert_rel_close(y, c * legendre(desc, unit))
    assert_rel_close(legendre_inverse(desc, y), xi)
    assert_rel_close(norm(desc, y), dual_norm(desc, xi))


# ---------------------------------------------------------------------------
# reversibility
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("desc", ALL_FAMILIES, ids=lambda d: d.family)
def test_reversibility_is_the_sampled_sup(desc):
    dirs = dense_directions(desc)
    sampled = float(np.max(norm(desc, -dirs) / norm(desc, dirs)))
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


def test_asym1d_requires_positive_slopes():
    with pytest.raises(UnsupportedFamily):
        Asym1DNorm(2.0, 0.0)


def test_euclidean_dimension_guard():
    with pytest.raises(UnsupportedFamily):
        EuclideanNorm(3)
