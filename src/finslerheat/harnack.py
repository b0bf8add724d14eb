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

from .errors import AlphaSignChange, DomainError, Unbounded
from .geometry import finsler_distance
from .liyau import LiYauCoefficients, PsiEvaluator, psi_roots
from .metrics import MetricField
from .numerics import (
    adaptive_simpson,
    elementwise,
    expand_bracket_max,
    golden_section_max,
)
from .reporting import InequalityReport, compare, discretization_tolerance

#: exponents beyond this overflow double precision; the bound is reported
#: as infinite, which keeps the trivially-singular limits well defined
_EXP_CAP = 700.0


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
        if self.N <= 0 or self.t <= 0:
            raise DomainError("need N > 0 and t > 0")


def theta_descriptor(N: float, K: float, t: float) -> ThetaDescriptor:
    if K == 0.0:
        return ThetaDescriptor(N, K, t, -N / (2.0 * t), math.inf)
    roots = psi_roots(PsiEvaluator(N, K, t))
    if K > 0:
        lo = N * K * roots.chi1 / 4.0
        hi = N * K * roots.chi2 / 4.0
        return ThetaDescriptor(N, K, t, lo, hi)
    return ThetaDescriptor(N, K, t, N * K * roots.chi0 / 4.0, math.inf)


@elementwise
def theta(desc: ThetaDescriptor, xi: float) -> float:
    """Square-root transform of the envelope on the feasible interval.

    Negative on the interior, zero at finite endpoints; tiny negative
    envelope values from endpoint roundoff are clamped to zero.
    """
    slack = 1e-12 * max(1.0, abs(desc.xi_lo))
    if xi < desc.xi_lo - slack or xi > desc.xi_hi + slack:
        raise DomainError("argument outside the feasible interval")
    if desc.K == 0.0:
        inner = desc.N / (2.0 * desc.t) + xi
    else:
        ev = PsiEvaluator(desc.N, desc.K, desc.t)
        inner = (desc.N / 2.0) * ev.psi(4.0 / (desc.N * desc.K) * xi)
    return -math.sqrt(max(inner, 0.0))


def theta_conjugate(desc: ThetaDescriptor, k: float, force_numeric: bool = False) -> float:
    """Legendre transform sup over the feasible interval of k xi - theta(xi).

    Finite for k < 0 when the interval is a half line (K <= 0) and for
    every k on the compact interval (K > 0). The K = 0 case has a closed
    form; force_numeric routes it through the same bracketing search as
    the generic case, which the tests use as a cross-check.
    """
    if desc.K <= 0.0 and k >= 0.0:
        raise Unbounded("conjugate is infinite for nonnegative slopes here")
    if desc.K == 0.0 and not force_numeric:
        return -(desc.N / (2.0 * desc.t)) * k - 1.0 / (4.0 * k)

    def objective(xi: float) -> float:
        return k * xi - theta(desc, xi)

    lo, hi = desc.xi_lo, desc.xi_hi
    if not math.isfinite(hi):
        lo, hi = expand_bracket_max(objective, lo, 0.5 * max(1.0, abs(lo)))
    return golden_section_max(objective, lo, hi, tol=1e-10)[1]


def harnack_bound_integral(
    coeffs: LiYauCoefficients, d: float, t1: float, t2: float
) -> float:
    """Integral-form bound from a coefficient pair.

    exp of d^2/(4 (t2-t1)^2) times the alpha integral plus the integral of
    phi/alpha. Valid only while alpha keeps one sign; a crossing on
    [t1, t2] aborts with AlphaSignChange since the quadratic completion
    behind the formula fails there.
    """
    if not 0.0 < t1 < t2:
        raise DomainError("need 0 < t1 < t2")
    if d < 0.0:
        raise DomainError("distance must be nonnegative")
    samples = np.linspace(t1, t2, 201)
    alpha_vals = np.asarray([coeffs.alpha(float(s)) for s in samples])
    if np.any(alpha_vals <= 0.0):
        raise AlphaSignChange("alpha loses positivity inside the time window")
    delta = t2 - t1
    int_alpha = adaptive_simpson(coeffs.alpha, t1, t2, rel_tol=1e-10)
    int_phi = adaptive_simpson(lambda s: coeffs.phi(s) / coeffs.alpha(s), t1, t2, rel_tol=1e-10)
    exponent = d * d / (4.0 * delta * delta) * int_alpha + int_phi
    if exponent > _EXP_CAP:
        return math.inf
    return math.exp(exponent)


def harnack_bound_lf(desc: ThetaDescriptor, d: float, t1: float, t2: float) -> float:
    """Conjugate-form bound; only (N, K) of the descriptor matter, the
    transform is rebuilt at each quadrature time.

    The d = 0 limit is taken analytically: the conjugate at slope -inf
    degenerates to minus the lower interval endpoint.
    """
    if not 0.0 < t1 < t2:
        raise DomainError("need 0 < t1 < t2")
    if d < 0.0:
        raise DomainError("distance must be nonnegative")
    N, K = desc.N, desc.K
    delta = t2 - t1
    if d == 0.0:
        exponent = adaptive_simpson(
            lambda s: -theta_descriptor(N, K, s).xi_lo, t1, t2, rel_tol=1e-10
        )
    else:
        k = -delta / d

        def integrand(s: float) -> float:
            return theta_conjugate(theta_descriptor(N, K, s), k)

        exponent = (d / delta) * adaptive_simpson(integrand, t1, t2, rel_tol=1e-10)
    if exponent > _EXP_CAP:
        return math.inf
    return math.exp(exponent)


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
    tolerance: float | None = None,
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
    if tolerance is None:
        dt = getattr(flow, "dt", None)
        if dt is not None:
            tolerance = discretization_tolerance(grid.h, dt, scale)
            rule = "max(10h^2, 10dt) * sample scale"
        else:
            tolerance = 1e-8 * scale
            rule = "1e-8 * sample scale (exact kernel)"
    else:
        rule = "caller override"
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
    return compare("harnack", lhs, rhs, tolerance, rule, grid_meta=meta)

