"""Minkowski norms on flat tori: families, duals, and Legendre maps.

Supported families
------------------
``RandersNorm``
    F(y) = sqrt(y . a y) + b . y with the a-dual norm of the covector ``b``
    strictly below one. Genuinely asymmetric: F(-y) != F(y) unless b = 0.
``RiemannianNorm``
    F(y) = sqrt(y . a y) for a constant symmetric positive definite ``a``:
    the Randers norm with b = 0.
``EuclideanNorm``
    F(y) = |y|: the Randers norm with a = I and b = 0.
``Asym1DNorm``
    One-dimensional piecewise linear norm with slopes ``p_plus`` on y > 0
    and ``p_minus`` on y < 0.

All descriptor methods broadcast over leading axes; vectors and covectors
are arrays of shape ``(..., dim)``.

The fundamental tensor at a direction ``v`` is half the second derivative
of F^2, the Legendre map sends a covector ``xi`` to the unique vector ``y``
with F(y) = F*(xi) and xi(y) = F(y)^2, and ``legendre_inverse`` is its
inverse y -> g_y(y, .) = d(F^2)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateVector, UnsupportedFamily

#: degeneracy threshold, scaled by the descriptor's length scale
EPS_DEGENERATE = 1e-12


def _sym2(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


class MinkowskiNorm:
    """Base class for constant-coefficient Minkowski norm descriptors."""

    dim: int
    family: str

    # -- interface -------------------------------------------------------

    def norm(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def dual_norm(self, xi: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def fundamental_tensor(self, v: np.ndarray) -> np.ndarray:
        """g_ij(v) = (1/2) d^2(F^2)/dy^i dy^j, shape ``(..., d, d)``; raises
        :class:`DegenerateVector` near v = 0."""
        v = np.asarray(v, float)
        self._require_nondegenerate(v)
        return self.fundamental_tensor_unchecked(v)

    def fundamental_tensor_unchecked(self, v: np.ndarray) -> np.ndarray:
        """:meth:`fundamental_tensor` without the degeneracy check."""
        raise NotImplementedError

    def legendre(self, xi: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def legendre_inverse(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def riemannian_part(self) -> np.ndarray:
        """Symmetric positive definite tensor used at degenerate nodes."""
        raise NotImplementedError

    # -- shared helpers --------------------------------------------------

    @property
    def length_scale(self) -> float:
        a = self.riemannian_part()
        return float(np.sqrt(np.trace(a) / a.shape[0]))

    def degenerate_mask(self, y: np.ndarray) -> np.ndarray:
        """True where ``y`` is numerically indistinguishable from zero."""
        mag = np.linalg.norm(np.atleast_2d(y), axis=-1)
        return (mag <= EPS_DEGENERATE * self.length_scale).reshape(np.shape(y)[:-1])

    def _require_nondegenerate(self, y: np.ndarray) -> None:
        if np.any(self.degenerate_mask(y)):
            raise DegenerateVector(
                f"{self.family}: vector magnitude below {EPS_DEGENERATE} x scale"
            )

    def inverse_tensor_field(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Inverse fundamental tensor per row of ``v``; ``mask`` flags the
        degenerate rows, which get the inverse of :meth:`riemannian_part`.
        Returns ``(ginv, mask)``."""
        v = np.asarray(v, dtype=float)
        mask = self.degenerate_mask(v)
        safe = np.where(mask[..., None], self._unit_substitute(), v)
        g = self.fundamental_tensor_unchecked(safe)
        ginv = _invert_spd(g)
        ginv[mask] = _invert_spd(self.riemannian_part()[None, ...])[0]
        return ginv, mask

    def _unit_substitute(self) -> np.ndarray:
        e = np.zeros(self.dim)
        e[0] = 1.0
        return e


def _invert_spd(g: np.ndarray) -> np.ndarray:
    """Invert a stack of 1x1 or 2x2 symmetric matrices."""
    if g.shape[-1] == 1:
        return 1.0 / g
    a, b, c = g[..., 0, 0], g[..., 0, 1], g[..., 1, 1]
    det = a * c - b * b
    out = np.empty_like(g)
    out[..., 0, 0] = c / det
    out[..., 1, 1] = a / det
    out[..., 0, 1] = -b / det
    out[..., 1, 0] = -b / det
    return out


@dataclass(frozen=True)
class RandersNorm(MinkowskiNorm):
    """F(y) = sqrt(y . a y) + b . y with |b|_a < 1.

    The drift covector ``b`` tilts the unit ball; reversibility
    sup F(-y)/F(y) equals (1 + |b|_a)/(1 - |b|_a).
    """

    a: np.ndarray
    b: np.ndarray
    family: str = field(default="randers", init=False)

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if a.shape[0] not in (1, 2) or a.shape[0] != a.shape[1] or b.shape != (a.shape[0],):
            raise UnsupportedFamily(f"bad shapes a={a.shape}, b={b.shape}")
        a = _sym2(a)
        if np.any(np.linalg.eigvalsh(a) <= 0):
            raise UnsupportedFamily("tensor must be positive definite")
        a_inv = np.linalg.inv(a)
        b_norm_sq = float(b @ a_inv @ b)
        if b_norm_sq >= 1.0:
            raise UnsupportedFamily(
                f"drift covector too large: |b|_a^2 = {b_norm_sq:.6f} >= 1"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "a_inv", a_inv)
        object.__setattr__(self, "b_norm_sq", b_norm_sq)

    @property
    def dim(self):
        return self.a.shape[0]

    def norm(self, y):
        y = np.asarray(y, float)
        alpha = np.sqrt(np.einsum("...i,ij,...j->...", y, self.a, y))
        return alpha + y @ self.b

    def dual_norm(self, xi):
        return self._dual_parts(np.asarray(xi, float))[0]

    def _dual_parts(self, xi):
        """(F*(xi), r). The dual of a Randers norm is again Randers-type:
        F* = (r - m)/lam with lam = 1 - |b|_a^2, q = xi . a^-1 xi,
        m = xi . a^-1 b and r = sqrt(lam q + m^2)."""
        lam = 1.0 - self.b_norm_sq
        q = np.einsum("...i,ij,...j->...", xi, self.a_inv, xi)
        m = np.einsum("...i,ij,j->...", xi, self.a_inv, self.b)
        r = np.sqrt(lam * q + m * m)
        return (r - m) / lam, r

    def fundamental_tensor_unchecked(self, v):
        v = np.asarray(v, float)
        av = np.einsum("ij,...j->...i", self.a, v)
        alpha = np.sqrt(np.einsum("...i,...i->...", v, av))
        ell = av / alpha[..., None]
        f_over_alpha = 1.0 + (v @ self.b) / alpha
        lb = ell + self.b
        g = f_over_alpha[..., None, None] * (
            self.a - ell[..., :, None] * ell[..., None, :]
        ) + lb[..., :, None] * lb[..., None, :]
        return g

    def legendre_inverse(self, y):
        y = np.asarray(y, float)
        self._require_nondegenerate(y)
        av = np.einsum("ij,...j->...i", self.a, y)
        alpha = np.sqrt(np.einsum("...i,...i->...", y, av))
        fval = alpha + y @ self.b
        # d(F^2)/2 = F dF with dF = a y/alpha + b
        return fval[..., None] * (av / alpha[..., None] + self.b)

    def legendre(self, xi):
        """Closed form y = F*(xi) grad F*(xi), the gradient of F*^2/2.

        With r = sqrt(lam q + m^2) from :meth:`_dual_parts`, grad F*(xi) =
        ((lam a^-1 xi + m a^-1 b)/r - a^-1 b)/lam, which reduces to
        a^-1 (xi - F*(xi) b)/r. Degenerate covectors map to 0.
        """
        xi = np.asarray(xi, float)
        fstar, r = self._dual_parts(xi)
        tilted = np.einsum("ij,...j->...i", self.a_inv, xi - fstar[..., None] * self.b)
        with np.errstate(invalid="ignore", divide="ignore"):
            y = (fstar / r)[..., None] * tilted
        return np.where(self.degenerate_mask(xi)[..., None], 0.0, y)

    def riemannian_part(self):
        return self.a.copy()


def RiemannianNorm(a) -> RandersNorm:
    """F(y) = sqrt(y . a y) for a constant symmetric positive definite ``a``:
    the Randers norm with b = 0, labelled ``riemannian``."""
    return _quadratic(np.atleast_2d(np.asarray(a, dtype=float)), "riemannian")


def EuclideanNorm(dim: int = 1) -> RandersNorm:
    """F(y) = |y| in dimension 1 or 2: the Randers norm with a = I and
    b = 0, labelled ``euclidean``."""
    if dim not in (1, 2):
        raise UnsupportedFamily(f"dimension {dim} not supported")
    return _quadratic(np.eye(dim), "euclidean")


def _quadratic(a: np.ndarray, family: str) -> RandersNorm:
    """The Randers norm with tensor ``a`` and b = 0, under a quadratic
    family label (checks that need g_V = a test the label)."""
    desc = RandersNorm(a, np.zeros(a.shape[0]))
    object.__setattr__(desc, "family", family)
    return desc


@dataclass(frozen=True)
class Asym1DNorm(MinkowskiNorm):
    """One-dimensional norm with distinct forward/backward slopes.

    F(y) = p_plus * y for y >= 0 and -p_minus * y for y < 0. Equivalent to a
    1-d Randers norm with sqrt(a) = (p_plus + p_minus)/2 and
    b = (p_plus - p_minus)/2.
    """

    p_plus: float
    p_minus: float
    family: str = field(default="asym1d", init=False)
    dim: int = field(default=1, init=False)

    def __post_init__(self):
        if self.p_plus <= 0 or self.p_minus <= 0:
            raise UnsupportedFamily("slopes must be positive")

    def _slope(self, y):
        return np.where(np.asarray(y) >= 0, self.p_plus, self.p_minus)

    def norm(self, y):
        y = np.asarray(y, float)[..., 0]
        return np.abs(y) * self._slope(y)

    def dual_norm(self, xi):
        # sup xi(y)/F(y): forward covectors see 1/p_plus, backward 1/p_minus
        xi = np.asarray(xi, float)[..., 0]
        return np.abs(xi) / self._slope(xi)

    def fundamental_tensor_unchecked(self, v):
        v = np.asarray(v, float)[..., 0]
        return (self._slope(v) ** 2)[..., None, None]

    def legendre(self, xi):
        xi = np.asarray(xi, float)
        return xi / self._slope(xi[..., 0])[..., None] ** 2

    def legendre_inverse(self, y):
        y = np.asarray(y, float)
        return y * self._slope(y[..., 0])[..., None] ** 2

    def riemannian_part(self):
        return np.array([[0.25 * (self.p_plus + self.p_minus) ** 2]])


def reversibility(desc: MinkowskiNorm) -> float:
    """Exact sup F(-y)/F(y): the slope ratio for the asymmetric 1-d norm,
    else (1 + |b|_a)/(1 - |b|_a), which is 1 for quadratic norms."""
    if desc.family == "asym1d":
        return max(desc.p_plus / desc.p_minus, desc.p_minus / desc.p_plus)
    beta = math.sqrt(desc.b_norm_sq)
    return (1.0 + beta) / (1.0 - beta)


@dataclass(frozen=True)
class MetricField:
    """A Minkowski norm attached to every node of a torus grid.

    All supported families are constant in space, so a single descriptor is
    shared; the grid reference fixes dimensions and wrap-around conventions
    for the operations that consume the field.
    """

    grid: "TorusGrid"  # noqa: F821 (geometry imports this module, not vice versa)
    descriptor: MinkowskiNorm

    def __post_init__(self):
        if self.descriptor.dim != self.grid.dim:
            raise UnsupportedFamily(
                f"descriptor dim {self.descriptor.dim} != grid dim {self.grid.dim}"
            )

    @property
    def dim(self) -> int:
        return self.grid.dim
