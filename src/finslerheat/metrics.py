"""Minkowski norms on flat tori: one Randers class, its dual and Legendre maps.

``RandersNorm`` is F(y) = sqrt(y . a y) + b . y with the a-dual norm of the
covector ``b`` strictly below one, genuinely asymmetric unless b = 0. Every
family is a ``RandersNorm`` under its ``family`` label:

* ``euclidean`` (:func:`EuclideanNorm`): a = I, b = 0;
* ``riemannian`` (:func:`RiemannianNorm`): constant positive definite a, b = 0;
* ``randers``: any admissible a and b;
* ``asym1d`` (:func:`Asym1DNorm`): the 1-d norm with slope ``p_plus`` on
  y > 0 and ``p_minus`` on y < 0, which is sqrt(a) = (p_plus + p_minus)/2
  and b = (p_plus - p_minus)/2.

All methods broadcast over leading axes; vectors and covectors are arrays
of shape ``(..., dim)``. The Legendre map sends a covector ``xi`` to the
unique ``y`` with F(y) = F*(xi) and xi(y) = F(y)^2. The dual tensor at
``xi`` is the Hessian of F*^2/2, the inverse of the fundamental tensor
g_y = d^2(F^2)/2 at y = legendre(xi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import UnsupportedFamily

#: degeneracy threshold, relative to the length scale of ``a`` and the field
#: scale (:meth:`RandersNorm.degenerate_mask`)
EPS_DEGENERATE = 1e-12


@dataclass(frozen=True)
class RandersNorm:
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
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise UnsupportedFamily("tensor and drift must be finite")
        a = 0.5 * (a + a.T)
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

    def degenerate_mask(self, xi: np.ndarray) -> np.ndarray:
        """True where a covector of ``xi`` is degenerate relative to the field
        scale: |xi| <= EPS_DEGENERATE * sqrt(tr a / dim) * max(1, max |xi|).
        The one degeneracy rule, of the assembly and the Legendre map alike."""
        mag = np.linalg.norm(xi, axis=-1)
        length = float(np.sqrt(np.trace(self.a) / self.dim))
        return mag <= EPS_DEGENERATE * length * max(1.0, float(np.max(mag, initial=0.0)))

    def norm(self, y):
        y = np.asarray(y, float)
        alpha = np.sqrt(np.einsum("...i,ij,...j->...", y, self.a, y))
        return alpha + y @ self.b

    def dual_norm(self, xi):
        return self._dual_parts(np.asarray(xi, float))[0]

    def _dual_parts(self, xi):
        """(F*(xi), r, m, xa). The dual of a Randers norm is again Randers-type:
        F* = (r - m)/lam with lam = 1 - |b|_a^2, q = xi . a^-1 xi,
        m = xi . a^-1 b and r = sqrt(lam q + m^2). q and m are summed from zero
        over (i, j) in row-major order with terms xa[i, j] xi_j and xa[i, j] b_j,
        xa[i, j] = xi_i a^-1_ij: the einsum's bits, cheaper."""
        lam = 1.0 - self.b_norm_sq
        pairs = [(i, j) for i in range(self.dim) for j in range(self.dim)]
        xa = {(i, j): xi[..., i] * self.a_inv[i, j] for i, j in pairs}
        q = sum(xa[i, j] * xi[..., j] for i, j in pairs)
        m = sum(xa[i, j] * self.b[j] for i, j in pairs)
        r = np.sqrt(lam * q + m * m)
        return (r - m) / lam, r, m, xa

    def _dual_gradient(self, xi):
        """(F*(xi), r, s, grad F*(xi)), s and grad F* as lists of components.
        With lam, m, r of :meth:`_dual_parts`, u = a^-1 xi and beta = a^-1 b,
        grad r = s = (lam u + m beta)/r and grad F* = (s - beta)/lam: the one
        expression for grad F*. NaN where xi = 0 (r = 0), without a warning."""
        dim, lam, beta = self.dim, 1.0 - self.b_norm_sq, self.a_inv @ self.b
        with np.errstate(invalid="ignore", divide="ignore"):
            fstar, r, m, xa = self._dual_parts(xi)
            # a^-1 is symmetric: u_i = sum_j xi_j a^-1_ji
            s = [(lam * sum(xa[j, i] for j in range(dim)) + m * beta[i]) / r for i in range(dim)]
            grad = [(s_i - beta_i) / lam for s_i, beta_i in zip(s, beta)]
        return fstar, r, s, grad

    def dual_tensor(self, xi, mask) -> tuple[np.ndarray, ...]:
        """Components g*^ij(xi), i <= j in row-major order, of the Hessian of
        F*^2/2 at ``xi``: the inverse fundamental tensor at legendre(xi). With
        s and d = grad F* of :meth:`_dual_gradient`,
        g* = F*/(lam r) (lam a^-1 + beta beta^T - s s^T) + d d^T.
        Rows flagged by ``mask`` get a^-1."""
        a_inv, lam, beta = self.a_inv, 1.0 - self.b_norm_sq, self.a_inv @ self.b
        upper = [(i, j) for i in range(self.dim) for j in range(i, self.dim)]
        fstar, r, s, d = self._dual_gradient(np.asarray(xi, float))
        with np.errstate(invalid="ignore", divide="ignore"):  # r = 0 where xi = 0
            c = fstar / (lam * r)
            comps = [
                c * ((lam * a_inv[i, j] + beta[i] * beta[j]) - s[i] * s[j]) + d[i] * d[j]
                for i, j in upper
            ]
        for g, (i, j) in zip(comps, upper):
            g[mask] = a_inv[i, j]
        return tuple(comps)

    def legendre(self, xi):
        """y = F*(xi) grad F*(xi), the gradient of F*^2/2, with grad F* from
        :meth:`_dual_gradient`; 0 where :meth:`degenerate_mask` flags xi."""
        xi = np.asarray(xi, float)
        fstar, _, _, grad = self._dual_gradient(xi)
        y = np.stack([fstar * g for g in grad], axis=-1)
        return np.where(self.degenerate_mask(xi)[..., None], 0.0, y)


def RiemannianNorm(a) -> RandersNorm:
    """F(y) = sqrt(y . a y) for a constant symmetric positive definite ``a``:
    the Randers norm with b = 0, labelled ``riemannian``."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    return _labelled(a, np.zeros(a.shape[0]), "riemannian")


def EuclideanNorm(dim: int = 1) -> RandersNorm:
    """F(y) = |y| in dimension 1 or 2: the Randers norm with a = I and
    b = 0, labelled ``euclidean``."""
    if dim not in (1, 2):
        raise UnsupportedFamily(f"dimension {dim} not supported")
    return _labelled(np.eye(dim), np.zeros(dim), "euclidean")


def Asym1DNorm(p_plus: float, p_minus: float) -> RandersNorm:
    """F(y) = p_plus y for y >= 0 and -p_minus y for y < 0: the 1-d Randers
    norm with sqrt(a) = (p_plus + p_minus)/2 and b = (p_plus - p_minus)/2,
    labelled ``asym1d``."""
    # written so that NaN fails; |b|_a < 1 alone would accept (-1, -1)
    if not (0.0 < p_plus < math.inf and 0.0 < p_minus < math.inf):
        raise UnsupportedFamily("slopes must be positive and finite")
    a, b = (0.5 * (p_plus + p_minus)) ** 2, 0.5 * (p_plus - p_minus)
    return _labelled([[a]], [b], "asym1d")


def _labelled(a, b, family: str) -> RandersNorm:
    """The Randers norm (a, b) under a family label, which checks test."""
    desc = RandersNorm(a, b)
    object.__setattr__(desc, "family", family)
    return desc


def reversibility(desc: RandersNorm) -> float:
    """sup F(-y)/F(y) = (1 + beta)/(1 - beta) with beta = |b|_a, from above.

    Evaluated in exact rational arithmetic on the stored ``a`` and ``b``
    and rounded up, so round-off never puts it below the sup; exactly 1
    for quadratic norms.
    """
    if not desc.b.any():
        return 1.0
    a = [[Fraction(x) for x in row] for row in desc.a.tolist()]
    b = [Fraction(x) for x in desc.b.tolist()]
    if desc.dim == 1:
        q = b[0] ** 2 / a[0][0]
    else:  # b . adj(a) b / det(a); a is stored symmetric
        (p, r), (_, s) = a
        q = (s * b[0] ** 2 - 2 * r * b[0] * b[1] + p * b[1] ** 2) / (p * s - r * r)
    # beta = sqrt(n/d) rounded up: ceil(sqrt(n d 4^64)) / (d 2^64)
    m = q.numerator * q.denominator << 128
    root = math.isqrt(m)
    beta = Fraction(root + (root * root < m), q.denominator << 64)
    if beta >= 1:  # admitted at round-off only: F vanishes on a direction
        return math.inf
    exact = (1 + beta) / (1 - beta)
    value = float(exact)
    return value if value >= exact else math.nextafter(value, math.inf)


@dataclass(frozen=True)
class MetricField:
    """A Minkowski norm attached to every node of a torus grid.

    All supported families are constant in space, so a single descriptor is
    shared; the grid reference fixes dimensions and wrap-around conventions
    for the operations that consume the field.
    """

    grid: "TorusGrid"  # noqa: F821 (geometry imports this module, not vice versa)
    descriptor: RandersNorm

    def __post_init__(self):
        if self.descriptor.dim != self.grid.dim:
            raise UnsupportedFamily(
                f"descriptor dim {self.descriptor.dim} != grid dim {self.grid.dim}"
            )
