"""Harnack-bound evaluation.

Two routes to the same kind of statement: an integral bound built from a
coefficient pair (alpha, phi), and a sharper one obtained by running the
convex conjugate of the square-root envelope transform Theta under the
time integral. Verification compares solution samples at grid nodes
separated by the exact torus distance. Every bound here grows with the
distance, so an overestimated distance would loosen the check and could
hide a violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AlphaSignChange, DomainError, NoConvergence, Unbounded
from .geometry import finsler_distance
from .liyau import LiYauCoefficients, _envelope_g, _t_kernel_second, envelope_zeros
from .metrics import MetricField
from .numerics import gauss_legendre, newton_root
from .reporting import InequalityReport, compare, compare_discretized

#: time integrals: 8-point Gauss-Legendre per panel, checked against 12 points
#: to _RULE_AGREEMENT times the integral of |f|; lf integrand gaps stay
#: below 1e-15.
_RULES = (gauss_legendre(8), gauss_legendre(12))
_RULE_AGREEMENT = 1e-10


def _geometric_edges(near: float, far: float) -> np.ndarray:
    """Edges of max(1, ceil(log2(far/near))) panels from ``near`` to
    ``far`` in geometric progression: no panel is wider than its near edge.
    Raises DomainError when far/near is not finite."""
    ratio = far / near
    if not math.isfinite(ratio):
        raise DomainError(f"time window [{near}, {far}] spans a ratio beyond double range")
    count = max(1, math.ceil(math.log2(ratio)))
    return near * ratio ** (np.arange(count + 1) / count)


def _panel_integral(integrand, t1: float, t2: float, zero: float = math.inf) -> np.ndarray:
    """Integral over [t1, t2] on panels graded geometrically toward t = 0
    and, above zero / 2, toward ``zero``, where the integrand may blow up;
    ``integrand`` maps increasing times to values, one row each. Raises
    NoConvergence when the rules disagree."""
    if not 0.0 < t1 < t2:
        raise DomainError("need 0 < t1 < t2")
    split = min(max(t1, 0.5 * zero), t2)
    edges = _geometric_edges(t1, split) if split > t1 else np.array([t1])
    if split < t2:
        upper = zero - _geometric_edges(zero - t2, zero - split)[::-1]
        edges = np.concatenate([edges[:-1], [split], upper[1:-1], [t2]])
    widths = np.diff(edges)
    sums = []
    for nodes, weights in _RULES:
        values = integrand((edges[:-1, None] + widths[:, None] * nodes).ravel())
        w = (widths[:, None] * weights).ravel()
        sums.append((w @ values, w @ np.abs(values)))
    (value, size), (check, _) = sums
    if not np.all(np.abs(value - check) <= _RULE_AGREEMENT * size):
        raise NoConvergence(
            f"8- and 12-point rules disagree on [{t1}, {t2}]: {value} vs {check}"
        )
    return value


def _exp_bound(exponent: float) -> float:
    """exp(exponent), or inf beyond 700 where double precision overflows."""
    return math.inf if exponent > 700.0 else math.exp(exponent)


@dataclass(frozen=True)
class ThetaDescriptor:
    """Feasible interval and parameters of the envelope transform.

    The interval endpoints are certified through the envelope zeros; a
    descriptor cannot be built when those roots do not exist.
    """

    N: float
    K: float
    t: float
    xi_lo: float
    xi_hi: float

    def __post_init__(self):
        if not (0.0 < self.N < math.inf and 0.0 < self.t < math.inf):
            raise DomainError("need finite N > 0 and t > 0")


def theta_descriptor(N: float, K: float, t: float) -> ThetaDescriptor:
    if K == 0.0:
        return ThetaDescriptor(N, K, t, -N / (2.0 * t), math.inf)
    xi = [N * K * chi / 4.0 for chi in envelope_zeros(K, t)]
    return ThetaDescriptor(N, K, t, xi[0], math.inf if K < 0 else xi[1])


def _inner(N: float, K: float, t: float, xi: float) -> tuple[float, float]:
    """theta_t(xi)^2 = (N/2) psi(4 xi / (N K)) = N G / (2t) and its
    xi-derivative, G from :func:`_envelope_g`; at K = 0, xi + N/(2t)."""
    if K == 0.0:
        return xi + N / (2.0 * t), 1.0
    value, slope = _envelope_g(K * t, 4.0 * xi / (N * K))
    return N / (2.0 * t) * value, 2.0 * slope / (K * t)


def theta(desc: ThetaDescriptor, xi: float) -> float:
    """Square-root transform of the envelope on the feasible interval.

    Negative on the interior, zero at finite endpoints; tiny negative
    envelope values from endpoint roundoff are clamped to zero.
    """
    slack = 1e-12 * max(1.0, abs(desc.xi_lo))
    if xi < desc.xi_lo - slack or xi > desc.xi_hi + slack:
        raise DomainError("argument outside the feasible interval")
    return -math.sqrt(max(_inner(desc.N, desc.K, desc.t, xi)[0], 0.0))


def _conjugate(desc: ThetaDescriptor, k: float, offset: float) -> tuple[float, float]:
    """sup of k xi - theta(xi) and its maximiser minus xi_lo.

    theta is convex: the maximiser is the zero of theta' - k, solved by
    Newton as g = -inner' - 2 k sqrt(inner) = 2 sqrt(inner) (theta' - k),
    finite at the ends, from xi_lo + offset if inside, else the K = 0
    maximiser or the midpoint. A g without a sign change on a compact
    interval collapses the bracket onto the end where the maximum lies.
    """
    N, K, t, lo, hi = desc.N, desc.K, desc.t, desc.xi_lo, desc.xi_hi

    def g(xi: float) -> tuple[float, float]:
        inner, slope = _inner(N, K, t, xi)
        root = math.sqrt(max(inner, 0.0))
        if root == 0.0:
            return -slope, math.nan
        curve = 8.0 * K * K * t**3 / N * _t_kernel_second(K * t * t * (4.0 * xi / N - K))
        return -slope - 2.0 * k * root, -curve - k * slope / root

    start = lo + offset
    if not lo < start < hi:
        start = lo + 0.25 / max(k * k, 1e-300)
        start = start if start < hi else 0.5 * (lo + hi)
    xi = newton_root(g, lo, hi, start)
    return k * xi + math.sqrt(max(_inner(N, K, t, xi)[0], 0.0)), xi - lo


def theta_conjugate(desc: ThetaDescriptor, k: float, force_numeric: bool = False) -> float:
    """Legendre transform sup over the feasible interval of k xi - theta(xi).

    Finite for k < 0 when the interval is a half line (K <= 0) and for
    every k on the compact interval (K > 0). The K = 0 case has a closed
    form; force_numeric routes it through the same Newton solve as the
    generic case, which the tests use as a cross-check.
    """
    if desc.K <= 0.0 and k >= 0.0:
        raise Unbounded("conjugate is infinite for nonnegative slopes here")
    if desc.K == 0.0 and not force_numeric:
        return -(desc.N / (2.0 * desc.t)) * k - 1.0 / (4.0 * k)
    return _conjugate(desc, k, math.nan)[0]


def harnack_bound_integral(
    coeffs: LiYauCoefficients, d: float, t1: float, t2: float
) -> float:
    """Integral-form bound from a coefficient pair.

    exp of d^2/(4 (t2-t1)^2) times the alpha integral plus the integral of
    phi/alpha, on the panels of :func:`_panel_integral`. The quadratic
    completion behind it needs alpha > 0, so alpha(t2) <= 0 aborts with
    AlphaSignChange: exact for pairs from :func:`alpha_phi`, as alpha -> 1 at
    t -> 0 and at a zero alpha' = a'/a - 2K with a'/a strictly decreasing
    (2/t, 2c cot ct, 2c coth ct), so alpha crosses zero once at most, downward.
    """
    if not 0.0 < t1 < t2:
        raise DomainError("need 0 < t1 < t2")
    if not 0.0 <= d < math.inf:
        raise DomainError("distance must be finite and nonnegative")
    if not coeffs.alpha(t2) > 0.0:
        raise AlphaSignChange("alpha loses positivity inside the time window")

    def integrand(times: np.ndarray) -> np.ndarray:
        pairs = [(coeffs.alpha(s), coeffs.phi(s)) for s in times.tolist()]
        return np.asarray([(alpha, phi / alpha) for alpha, phi in pairs])

    pole = min(coeffs.zero, coeffs.alpha_zero)
    int_alpha, int_phi = _panel_integral(integrand, t1, t2, pole)
    return _exp_bound(d * d / (4.0 * (t2 - t1) ** 2) * int_alpha + int_phi)


def harnack_bound_lf(desc: ThetaDescriptor, d: float, t1: float, t2: float) -> float:
    """Conjugate-form bound: exp of d/delta times the integral over [t1, t2]
    of theta_s^*(-delta/d), delta = t2 - t1, on the panels of
    :func:`_panel_integral`; only (N, K) of ``desc`` matter. Each node s gets
    its interval from the envelope zeros at s and its conjugate from Newton
    started at the previous node's maximiser. At d = 0 the conjugate at
    slope -inf degenerates to minus the lower interval endpoint."""
    if not 0.0 <= d < math.inf:
        raise DomainError("distance must be finite and nonnegative")
    N, K, delta = desc.N, desc.K, t2 - t1

    def integrand(times: np.ndarray) -> np.ndarray:
        values, offset = [], math.nan
        for s in times.tolist():
            desc_s = theta_descriptor(N, K, s)
            if d == 0.0:
                values.append(-desc_s.xi_lo)
            else:
                value, offset = _conjugate(desc_s, -delta / d, offset)
                values.append(value)
        return np.asarray(values)

    exponent = _panel_integral(integrand, t1, t2)
    return _exp_bound(exponent if d == 0.0 else d / delta * exponent)


@dataclass(frozen=True)
class CallableFlow:
    """Exact-solution stand-in for a recorded trajectory.

    ``solution`` maps (points array of shape (m, dim), time) to values;
    sampling happens at grid nodes of the attached metric, matching the
    endpoint convention of the trajectory checks.
    """

    metric: MetricField
    solution: Callable[[np.ndarray, float], np.ndarray]

    def sample(self, node, t: float) -> float:
        grid = self.metric.grid
        point = grid.coordinates()[grid.flat_index(node)]
        return float(np.asarray(self.solution(np.atleast_2d(point), float(t)))[0])


def _sample(flow, node, t: float) -> float:
    if hasattr(flow, "sample"):
        return flow.sample(node, t)
    return float(flow.fields[flow.index_of(t)][flow.grid.flat_index(node)])


def verify_harnack(
    flow,
    x1,
    t1: float,
    x2,
    t2: float,
    mode: str,
    N: float | None = None,
    K: float | None = None,
    coeffs: LiYauCoefficients | None = None,
) -> InequalityReport:
    """Check one sample pair against the selected bound.

    ``flow`` is either a recorded trajectory or a :class:`CallableFlow`;
    ``x1``/``x2`` are node indices (flat or per-axis). The separation is
    the exact distance d_F(x2, x1), from x2 to x1 in that order.
    """
    if t2 <= t1:
        raise DomainError("need t1 < t2; equal-time pairs are vacuous")
    metric = flow.metric
    grid = metric.grid
    f1, f2 = grid.flat_index(x1), grid.flat_index(x2)
    d = finsler_distance(metric, f2, f1)
    if mode == "integral":
        if coeffs is None:
            raise DomainError("integral mode needs a coefficient pair")
        bound = harnack_bound_integral(coeffs, d, t1, t2)
    elif mode == "lf":
        if N is None or K is None:
            raise DomainError("lf mode needs N and K")
        bound = harnack_bound_lf(theta_descriptor(N, K, t1), d, t1, t2)
    else:
        raise DomainError(f"unknown mode {mode!r}")
    u1 = _sample(flow, f1, t1)
    u2 = _sample(flow, f2, t2)
    lhs = np.asarray([u1])
    rhs = np.asarray([bound * u2])
    scale = max(abs(u1), abs(bound * u2) if math.isfinite(bound) else abs(u1), 1e-300)
    meta = {
        "mode": mode,
        "x1": int(f1),
        "x2": int(f2),
        "t1": t1,
        "t2": t2,
        "d": d,
        "bound": bound,
        "lhs": u1,
        "rhs": bound * u2,
        "h": grid.h,
    }
    dt = getattr(flow, "dt", None)
    if dt is not None:
        return compare_discretized("harnack", lhs, rhs, grid.h, dt, scale, "sample", meta)
    rule = "1e-8 * sample scale (exact kernel)"
    return compare("harnack", lhs, rhs, 1e-8 * scale, rule, grid_meta=meta)

