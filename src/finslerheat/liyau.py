"""Parabolic gradient-bound engine.

Everything here feeds one inequality family: pointwise bounds of the form
F^2(grad log u) - alpha(t) dtlog u <= phi(t) for positive solutions, their
sharp concave envelope Psi, and the entropy-gap and weak log-Sobolev checks
built on them.

Numerical conventions shared by the module:

* dt log u and F^2(grad log u) on trajectories come from
  :meth:`Trajectory.log_state`, never from a time difference;
* the trigonometric kernels T(w) = sqrt(w) cot(sqrt(w)) and
  S(w) = sin(sqrt(w))/sqrt(w) are evaluated through a single signed
  argument w, which makes every formula branch-free in the sign of the
  curvature bound and continuous across w = 0 via short Taylor windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    NoConvergence,
    NoRoot,
    ProfileInadmissible,
)
from .geometry import ZERO_CURVATURE, ScalarField
from .heat import Trajectory
from .metrics import EuclideanNorm
from .numerics import gauss_legendre, newton_root, overflow_is_domain_error
from .reporting import InequalityReport, compare, compare_discretized

#: half-width of the Taylor window on w; cot/coth cancellation is
#: catastrophic closer to the removable singularity
SERIES_WINDOW = 1e-4

#: outside this radius coth saturates to 1 in double precision
_COTH_SATURATION = 350.0

#: below this |x|, sinh(x) - x and x - sin(x) come from their series,
#: summed to round-off; the differences keep only about eps / x^2 of it
_CUBIC_SERIES = 1.0

#: 8-point Gauss-Legendre rule on [0, 1], used on every coefficient panel
_GL_NODES, _GL_WEIGHTS = gauss_legendre(8)

#: equal panels on (0, horizon] when a closed-form profile is forced
#: through quadrature
_GL_PANELS = 16


def _t_kernel(w: float) -> float:
    """sqrt(w) cot(sqrt(w)) continued through w <= 0 as r coth(r)."""
    if abs(w) <= SERIES_WINDOW:
        return 1.0 - w / 3.0 - w**2 / 45.0 - 2.0 * w**3 / 945.0 - w**4 / 4725.0
    if w > 0.0:
        s = math.sqrt(w)
        return s * math.cos(s) / math.sin(s)
    r = math.sqrt(-w)
    return r / math.tanh(r)


def _t_kernel_prime(w: float) -> float:
    if abs(w) <= SERIES_WINDOW:
        return -1.0 / 3.0 - 2.0 * w / 45.0 - 2.0 * w**2 / 315.0 - 4.0 * w**3 / 4725.0
    if w > 0.0:
        s = math.sqrt(w)
        return math.cos(s) / (2.0 * s * math.sin(s)) - 0.5 / math.sin(s) ** 2
    r = math.sqrt(-w)
    if r > _COTH_SATURATION:
        return -0.5 / r
    return -1.0 / (2.0 * r * math.tanh(r)) + 0.5 / math.sinh(r) ** 2


def _t_kernel_second(w: float) -> float:
    """T'' by differentiating the Riccati identity 2 w T' = T - T^2 - w; it
    loses about eps/|w| relative outside the Taylor window (Newton slopes only)."""
    if abs(w) <= SERIES_WINDOW:
        return -2.0 / 45.0 - 4.0 * w / 315.0 - 4.0 * w**2 / 1575.0
    return -(_t_kernel_prime(w) * (1.0 + 2.0 * _t_kernel(w)) + 1.0) / (2.0 * w)


def _s_kernel(w: float) -> float:
    """sin(sqrt(w))/sqrt(w), continued as sinh(sqrt(-w))/sqrt(-w)."""
    if abs(w) <= SERIES_WINDOW:
        return 1.0 - w / 6.0 + w * w / 120.0
    if w > 0:
        s = math.sqrt(w)
        return math.sin(s) / s
    r = math.sqrt(-w)
    return math.sinh(r) / r


def _cubic_tail(x: float, sign: float) -> float:
    """sinh(x) - x for sign = 1 and x - sin(x) for sign = -1, by the series
    x^3/3! + sign x^5/5! + ... where the difference would cancel."""
    if abs(x) >= _CUBIC_SERIES:
        return math.sinh(x) - x if sign > 0 else x - math.sin(x)
    term, total = x**3 / 6.0, 0.0
    for k in range(2, 12):
        total += term
        term *= sign * x * x / (2 * k * (2 * k + 1))
    return total


def _running_integral(fn, edges: np.ndarray) -> Callable[[float], float]:
    """t -> integral of ``fn`` over [edges[0], t] by the Gauss-Legendre rule
    on each panel [edges[j], edges[j + 1]].

    The whole panels are summed once here, so one call costs a single
    partial panel; ``fn`` maps an array of times to values.
    """
    widths = np.diff(edges)
    whole = widths * (fn(edges[:-1, None] + widths[:, None] * _GL_NODES) @ _GL_WEIGHTS)
    cumulated = np.concatenate([[0.0], np.cumsum(whole)])
    last = len(edges) - 2

    def integral(t: float) -> float:
        j = min(int(np.searchsorted(edges, t, side="right")) - 1, last)
        lo = edges[j]
        partial = fn(lo + (t - lo) * _GL_NODES) @ _GL_WEIGHTS
        return float(cumulated[j] + (t - lo) * partial)

    return integral


# ---------------------------------------------------------------------------
# profiles and their induced coefficients


@dataclass(frozen=True)
class LiYauProfile:
    """Time profile a(t) generating a coefficient pair (alpha, phi).

    ``variant`` is one of the presets quadratic, sine, sinh and lixu (sinh
    at tau = |K|). Only the shape matters: rescaling a by a positive
    constant leaves both coefficients unchanged, so the preset
    normalizations are cosmetic.
    """

    variant: str
    tau: float = 0.0

    @classmethod
    def quadratic(cls) -> "LiYauProfile":
        return cls("quadratic")

    @classmethod
    def sine(cls, tau1: float) -> "LiYauProfile":
        if tau1 <= 0:
            raise ProfileInadmissible("sine profile needs tau1 > 0")
        return cls("sine", tau=tau1)

    @classmethod
    def sinh_profile(cls, tau2: float) -> "LiYauProfile":
        if tau2 <= 0:
            raise ProfileInadmissible("sinh profile needs tau2 > 0")
        return cls("sinh", tau=tau2)

    @classmethod
    def lixu(cls, K: float) -> "LiYauProfile":
        if K == 0:
            raise ProfileInadmissible("the lixu profile needs K != 0")
        return cls("lixu", tau=abs(K))

    @classmethod
    def parse(cls, text: str, K: float) -> "LiYauProfile":
        """Preset from its config spelling: quadratic | sine:<c> | sinh:<c> |
        lixu, the last at the curvature bound ``K``."""
        name, colon, arg = text.partition(":")
        if not colon and name in ("quadratic", "lixu"):
            return cls.quadratic() if name == "quadratic" else cls.lixu(K)
        if colon and name in ("sine", "sinh"):
            try:
                return (cls.sine if name == "sine" else cls.sinh_profile)(float(arg))
            except ValueError:
                raise ConfigError(f"profile {text!r} needs a number after the colon") from None
        raise ConfigError(
            f"unknown profile {text!r}; known: quadratic | sine:<c> | sinh:<c> | lixu"
        )

    def horizon(self) -> float:
        """Largest time the profile stays positive (open upper end)."""
        if self.variant == "sine":
            return math.pi / self.tau
        return math.inf

    def value(self, t):
        t = np.asarray(t, dtype=float)
        if self.variant == "quadratic":
            return t * t
        if self.variant == "sine":
            return 4.0 * self.tau * np.sin(self.tau * t) ** 2
        return 4.0 * self.tau * np.sinh(self.tau * t) ** 2

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        if self.variant == "quadratic":
            return 2.0 * t
        if self.variant == "sine":
            return 4.0 * self.tau**2 * np.sin(2.0 * self.tau * t)
        return 4.0 * self.tau**2 * np.sinh(2.0 * self.tau * t)

    def integral(self, t: float) -> float:
        """Closed-form running integral of a."""
        if self.variant == "quadratic":
            return t**3 / 3.0
        return _cubic_tail(2.0 * self.tau * t, -1.0 if self.variant == "sine" else 1.0)

    def integral_quotient(self, t: float) -> float:
        """Closed-form running integral of a'(s)^2 / a(s)."""
        if self.variant == "quadratic":
            return 4.0 * t
        if self.variant == "sine":
            return 8.0 * self.tau**3 * t + 4.0 * self.tau**2 * math.sin(2.0 * self.tau * t)
        return 8.0 * self.tau**3 * t + 4.0 * self.tau**2 * math.sinh(2.0 * self.tau * t)


@dataclass(frozen=True)
class LiYauCoefficients:
    """Evaluator pair (alpha, phi) with its construction provenance,
    "closed_form" or "quadrature"."""

    alpha: Callable[[float], float]
    phi: Callable[[float], float]
    provenance: str
    K: float
    N: float
    horizon: float
    #: the profile's zero beyond the horizon (pi / c for sine:<c>), where
    #: alpha and phi blow up; inf when the profile stays positive
    zero: float = math.inf
    #: the zero of alpha, a pole of phi / alpha, when K > 0 puts one below
    #: the profile's zero and below twice the horizon; inf otherwise
    alpha_zero: float = math.inf


def _verify_coefficient_odes(profile, coeffs, K, N, horizon):
    """Finite-difference check of the two defining identities.

    The step is 1e-4 of the distance to the nearest domain end, which
    keeps the second-order difference error bounded even where the
    coefficients blow up toward a profile degeneration, while staying
    coarse enough that quadrature noise in the provenance='quadrature'
    path is negligible against the 1e-6 threshold.
    """
    times = np.linspace(0.05 * horizon, 0.95 * horizon, 20)
    sing = profile.horizon()
    for t in times:
        t = float(t)
        gap = min(t, sing - t) if math.isfinite(sing) else t
        delta = min(1e-4 * gap, 0.5 * (horizon - t) + 1e-300)
        a = float(profile.value(t))
        ap = float(profile.derivative(t))
        loga_p = ap / a
        al = coeffs.alpha(t)
        al_fd = (coeffs.alpha(t + delta) - coeffs.alpha(t - delta)) / (2.0 * delta)
        res1 = al_fd + loga_p * (al - 1.0) + 2.0 * K
        scale1 = max(1.0, abs(2.0 * K), abs(loga_p * (al - 1.0)))
        ph = coeffs.phi(t)
        ph_fd = (coeffs.phi(t + delta) - coeffs.phi(t - delta)) / (2.0 * delta)
        drive = (N / 8.0) * (loga_p - 2.0 * K) ** 2
        res2 = ph_fd + loga_p * ph - drive
        scale2 = max(1.0, abs(drive), abs(loga_p * ph))
        if abs(res1) > 1e-6 * scale1 or abs(res2) > 1e-6 * scale2:
            raise NoConvergence(
                f"coefficient identities fail at t={t:.4g}: "
                f"{res1:.2e} / {res2:.2e}"
            )


def _alpha_zero(profile: LiYauProfile, K: float, horizon: float) -> float:
    """Zero of alpha = 1 - 2 K int_a / a on (0, min(2 horizon, profile zero)],
    the root of g = 2 K int_a - a. Only K > 0 has one: g < 0 near t = 0, and
    g > 0 at the profile's zero. Doubling from 1/K brackets it, and
    :func:`newton_root` refines it. A zero beyond twice the horizon is inf,
    as no window inside the horizon grades toward it; so is one that a sinh
    profile overflows before reaching."""
    if K <= 0.0:
        return math.inf

    def g(t: float) -> tuple[float, float]:
        a = float(profile.value(t))
        return 2.0 * K * profile.integral(t) - a, 2.0 * K * a - float(profile.derivative(t))

    end = min(2.0 * horizon, profile.horizon())
    t = min(1.0 / K, end)
    try:
        with np.errstate(over="ignore"):
            while not g(t)[0] > 0.0:
                if t >= end:
                    return math.inf
                t = min(2.0 * t, end)
    except OverflowError:
        return math.inf
    return newton_root(g, 0.0, t, 0.5 * t)


def alpha_phi(
    profile: LiYauProfile,
    K: float,
    N: float,
    horizon: float,
    force_quadrature: bool = False,
) -> LiYauCoefficients:
    """Coefficient pair induced by a profile on (0, horizon].

    The running integrals of a and a'^2/a are closed forms;
    force_quadrature takes them instead by the Gauss-Legendre rule on
    _GL_PANELS equal panels, a cross-check of the closed forms. Both defining
    identities are verified at 20 sample times before the evaluators are
    handed out.
    """
    if not 0.0 < horizon < math.inf:
        raise DomainError("horizon must be finite and positive")
    if horizon >= profile.horizon():
        raise ProfileInadmissible("profile degenerates before the requested horizon")
    if not (0.0 < N < math.inf and math.isfinite(K)):
        raise DomainError("need a finite dimension parameter N > 0 and a finite K")

    if force_quadrature:
        edges = np.linspace(0.0, horizon, _GL_PANELS + 1)
        int_a = _running_integral(profile.value, edges)
        int_q = _running_integral(
            lambda s: profile.derivative(s) ** 2 / profile.value(s), edges
        )
    else:
        int_a = profile.integral
        int_q = profile.integral_quotient

    # the running integrals overflow first (t^3 / 3, sinh) where t is huge
    def alpha(t: float) -> float:
        if not 0.0 < t <= horizon:
            raise DomainError(f"time {t} outside (0, {horizon}]")
        with overflow_is_domain_error(f"a {profile.variant} coefficient at t = {t:g}"):
            return 1.0 - 2.0 * K * int_a(t) / float(profile.value(t))

    def phi(t: float) -> float:
        if not 0.0 < t <= horizon:
            raise DomainError(f"time {t} outside (0, {horizon}]")
        with overflow_is_domain_error(f"a {profile.variant} coefficient at t = {t:g}"):
            a = float(profile.value(t))
            return -N * K / 2.0 + N * K * K * int_a(t) / (2.0 * a) + N * int_q(t) / (8.0 * a)

    coeffs = LiYauCoefficients(
        alpha=alpha,
        phi=phi,
        provenance="quadrature" if force_quadrature else "closed_form",
        K=K,
        N=N,
        horizon=horizon,
        zero=profile.horizon(),
        alpha_zero=_alpha_zero(profile, K, horizon),
    )
    with overflow_is_domain_error(f"a {profile.variant} profile on (0, {horizon:g}]"):
        _verify_coefficient_odes(profile, coeffs, K, N, horizon)
    return coeffs


# ---------------------------------------------------------------------------
# the concave envelope


@dataclass(frozen=True)
class PsiEvaluator:
    """Concave envelope at fixed (N, K, t), K nonzero.

    Defined on (-inf, x_max) with x_max = 1 + pi^2/(K t)^2; evaluation is
    branch-free in the sign of K through the signed argument
    w = (K t)^2 (x - 1).
    """

    N: float
    K: float
    t: float

    def __post_init__(self):
        if self.K == 0.0:
            raise DomainError("zero curvature bound has no envelope; use the limit forms")
        if not (0.0 < self.t < math.inf and 0.0 < self.N < math.inf and math.isfinite(self.K)):
            raise DomainError("need finite t > 0, N > 0 and K")
        with overflow_is_domain_error(f"(K t)^2 at K = {self.K:g}, t = {self.t:g}"):
            if (self.K * self.t) ** 2 == 0.0:
                raise DomainError("the envelope needs (K t)^2 > 0 in double precision")

    @property
    def x_max(self) -> float:
        return 1.0 + math.pi**2 / (self.K * self.t) ** 2

    def _check_domain(self, x: float) -> None:
        if x >= self.x_max:
            raise DomainError(f"argument at or beyond the domain end {self.x_max:.6g}")

    def _w(self, x: float) -> float:
        self._check_domain(x)
        return (self.K * self.t) ** 2 * (x - 1.0)

    def psi(self, x: float) -> float:
        return 0.5 * self.K * (x - 2.0) + _t_kernel(self._w(x)) / self.t

    def psi_prime(self, x: float) -> float:
        return 0.5 * self.K + self.K**2 * self.t * _t_kernel_prime(self._w(x))

    def psi_tilde(self, x: float) -> float:
        return self.psi(x) - self.K * x + 2.0 * self.K


def _coth_excess(r: float) -> float:
    """q(r) = r coth r - r = 2r / expm1(2r), to full relative accuracy."""
    return 2.0 * r / math.expm1(min(2.0 * r, 700.0)) if r > 0.0 else 1.0


def _envelope_g(kappa: float, x: float) -> tuple[float, float]:
    """t psi(x) = G = T(w) + w / (2 kappa) - kappa / 2, w = kappa^2 (x - 1),
    kappa = K t, and dG/dx. For kappa > 0 and w < -1 the value is written as
    q(r) - (r - kappa)^2 / (2 kappa), r = kappa sqrt(1 - x), whose terms keep
    their relative accuracy where the two zeros close in on x = 0 (their gap
    shrinks like e^-kappa); three O(kappa) terms do not."""
    w = kappa * kappa * (x - 1.0)
    if w >= -1.0 or kappa < 0.0:
        return (
            _t_kernel(w) + w / (2.0 * kappa) - kappa / 2.0,
            kappa * kappa * _t_kernel_prime(w) + kappa / 2.0,
        )
    root = math.sqrt(1.0 - x)
    r = kappa * root
    gap = -kappa * x / (1.0 + root)
    q = _coth_excess(r)
    return (
        q - gap * gap / (2.0 * kappa),
        -kappa / (2.0 * root) * (q * ((1.0 - q) / r - 2.0) - gap / kappa),
    )


def envelope_zeros(K: float, t: float) -> tuple[float, ...]:
    """Zeros of the envelope at (K, t) by safeguarded Newton on the concave G
    of :func:`_envelope_g`, each started where G < 0 so that it does not
    overshoot. K < 0: (chi0,) in (1, x_max), right of which the tangent at
    x = 1 lands. K > 0: (chi1, chi2), chi1 < 0 < chi2 <= 1, if t >= 2/K
    (else NoRoot). With r = kappa sqrt(1 - x) they solve r - kappa =
    +-sqrt(2 kappa q(r)) for the decreasing q(r) = r coth r - r <= 1, so
    sqrt(2 kappa q(kappa)) starts left of chi1, sqrt(2 kappa) + 1 bounds it,
    and -sqrt(2 kappa q(r)) iterated from r = 0 stays right of chi2.
    """
    kappa = K * t
    if not (0.0 < t < math.inf and math.isfinite(kappa)) or kappa * kappa == 0.0:
        raise DomainError("envelope zeros need finite t > 0 and K, and (K t)^2 > 0")

    def zero(lo: float, hi: float, start: float, sign: float) -> float:
        def g(x: float) -> tuple[float, float]:
            value, slope = _envelope_g(kappa, x)
            return sign * value, sign * slope

        return newton_root(g, lo, hi, start)

    if K < 0:
        tangent = (1.0 - kappa / 2.0) / (1.0 / 3.0 - 0.5 / kappa)
        start = 1.0 + min(tangent, 0.5 * math.pi**2) / kappa**2
        return (zero(1.0, 1.0 + (math.pi / kappa) ** 2, start, -1.0),)
    if t < 2.0 / K:
        raise NoRoot("positive-curvature roots need t >= 2/K")

    def at_gap(u: float) -> float:  # x where r - kappa = u
        return -u * (2.0 * kappa + u) / kappa**2

    right = -kappa
    for _ in range(3):
        right = -math.sqrt(2.0 * kappa * _coth_excess(kappa + right))
    left = math.sqrt(2.0 * kappa * _coth_excess(kappa))
    far = at_gap(math.sqrt(2.0 * kappa) + 1.0)
    return zero(far, 0.0, at_gap(left), 1.0), zero(0.0, 1.0, at_gap(right), -1.0)


def linearize_psi(evaluator: PsiEvaluator, x_bar: float):
    """Tangent line of the envelope at x_bar, packaged in coefficient form.

    Returns (alpha_fn, phi_fn) as functions of time with the evaluator's
    (N, K) held fixed; every tangent reproduces one of the trigonometric
    coefficient families.
    """
    evaluator._check_domain(x_bar)
    N, K = evaluator.N, evaluator.K

    def alpha_fn(t: float) -> float:
        ev = PsiEvaluator(N, K, t)
        return (2.0 / K) * ev.psi_prime(x_bar)

    def phi_fn(t: float) -> float:
        ev = PsiEvaluator(N, K, t)
        return (N / 2.0) * (ev.psi(x_bar) - x_bar * ev.psi_prime(x_bar))

    return alpha_fn, phi_fn


# ---------------------------------------------------------------------------
# residuals on trajectories


def residual_linear(
    traj: Trajectory, t: float, coeffs: LiYauCoefficients
) -> InequalityReport:
    """Pointwise linear-form residual at a recorded time."""
    u, lap, f2 = traj.log_state(traj.index_of(t))
    dt_log = lap / u
    lhs = f2 - coeffs.alpha(t) * dt_log
    rhs = np.full_like(lhs, coeffs.phi(t))
    scale = max(1.0, float(np.max(np.abs(lhs))), abs(coeffs.phi(t)))
    return compare_discretized(
        "li-yau-linear", lhs, rhs, traj.grid.h, traj.dt, scale, "residual",
        traj.grid_meta(t=t, provenance=coeffs.provenance),
    )


def residual_psi(traj: Trajectory, t: float, N: float, K: float) -> InequalityReport:
    """Sharp-envelope residual; falls back to the flat form when K = 0.

    The envelope argument must stay inside the domain at every node; a
    violation is itself reported as a failing check rather than raising,
    since it falsifies the same theorem.
    """
    u, lap, f2 = traj.log_state(traj.index_of(t))
    dt_log = lap / u
    meta = traj.grid_meta(t=t, N=N, K=K)
    if abs(K) < ZERO_CURVATURE:
        lhs = f2 - dt_log
        rhs = np.full_like(lhs, N / (2.0 * t))
        scale = max(1.0, float(np.max(np.abs(lhs))), N / (2.0 * t))
        return compare_discretized(
            "li-yau-envelope", lhs, rhs, traj.grid.h, traj.dt, scale, "residual", meta
        )
    ev = PsiEvaluator(N, K, t)
    x_field = 4.0 / (N * K) * dt_log
    margin = float(np.max(x_field) - ev.x_max)
    if margin >= 0.0:
        return compare(
            "li-yau-envelope-domain",
            np.asarray([margin]),
            np.asarray([0.0]),
            0.0,
            "envelope argument must stay below the domain end",
            grid_meta=meta,
        )
    lhs = f2
    rhs = (N / 2.0) * np.array([ev.psi(x) for x in x_field.tolist()])
    scale = max(1.0, float(np.max(np.abs(rhs))))
    return compare_discretized(
        "li-yau-envelope", lhs, rhs, traj.grid.h, traj.dt, scale, "residual", meta
    )


def kernel_equality_residual(dim: int, t: float, points: np.ndarray) -> np.ndarray:
    """Sharpness witness: the free-space Gaussian makes the flat-form
    residual vanish identically.

    All ingredients are evaluated from closed forms (the dual norm through
    the metric layer, the others symbolically), so the returned residual
    is pure roundoff.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != dim:
        raise DomainError(f"points must have {dim} columns")
    metric = EuclideanNorm(dim)
    xi = -points / (2.0 * t)
    f2 = metric.dual_norm(xi) ** 2
    sq = np.sum(points * points, axis=1)
    dt_log = -dim / (2.0 * t) + sq / (4.0 * t * t)
    return f2 - dt_log - dim / (2.0 * t)


# ---------------------------------------------------------------------------
# entropy-gap and log-Sobolev checks


def moved_integrals(
    traj: Trajectory, phi: np.ndarray, fields: Iterable[np.ndarray], src: int, dst: int
) -> list[float]:
    """<phi, P_{src,dst} f>_m for each field f, taken as <P*_{src,dst} phi, f>_m:
    one adjoint transport of phi, then one weighted sum per field. A constant
    phi is a fixed point of every step: a 2-d step returns it, bit for bit,
    after one residual check."""
    weight = traj.transport(phi, src, dst, adjoint=True)
    return [float(np.sum(weight * f * traj.measure.sigma)) for f in fields]


def _phi_mass(traj: Trajectory, phi: np.ndarray, u_t: np.ndarray) -> float:
    """The integral of phi u_t that normalises zeta; phi is a nonnegative
    test field, and the integral must be positive."""
    if not np.min(phi) >= 0.0:
        raise DomainError("phi must be nonnegative at every node")
    mass = float(np.sum(phi * u_t * traj.measure.sigma))
    if not mass > 0.0:
        raise DomainError(f"the integral of phi u_t must be positive, got {mass:g}")
    return mass


def check_exp_uu(
    traj: Trajectory, s: float, t: float, phi: ScalarField, N: float
) -> InequalityReport:
    """Exponential entropy-gap triple for certified flat configurations.

    Three scalar inequalities tied together by the normalization
    zeta = 2 / (N integral of phi u_t): two exponential bounds on the
    weighted entropy gap and the resulting quadratic relation between the
    endpoint dissipation integrals. The integrals of fields moved from s to
    t are <P*_{s,t} phi, f>_m, by :func:`moved_integrals`.
    """
    src = traj.index_of(s)
    dst = traj.index_of(t)
    if src >= dst:
        raise DomainError("need s < t")
    u_s, lap_s, f2_s = traj.log_state(src)
    u_t, lap_t, f2_t = traj.log_state(dst)
    sig = traj.measure.sigma
    w = phi.values
    delta = t - s
    zeta = 2.0 / (N * _phi_mass(traj, w, u_t))
    # u A log u = A u - u F^2(grad log u), at t and at s
    int_t = float(np.sum(w * (lap_t - u_t * f2_t) * sig))
    int_s, ent_moved = moved_integrals(
        traj, w, (lap_s - u_s * f2_s, u_s * np.log(u_s)), src, dst
    )
    exponent = zeta * (
        float(np.sum(w * (u_t * np.log(u_t) + delta * lap_t) * sig)) - ent_moved
    )

    r1 = math.exp(exponent) - (1.0 + delta * zeta * int_t)
    r2 = math.exp(-exponent) - (1.0 - delta * zeta * int_s)
    r3 = int_s * (1.0 + zeta * delta * int_t) - int_t
    lhs = np.asarray([r1, r2, r3])
    scale = max(
        1.0,
        abs(exponent),
        abs(delta * zeta * int_t),
        abs(delta * zeta * int_s),
        abs(int_t),
        abs(int_s),
    )
    meta = traj.grid_meta(s=s, t=t, zeta=zeta, N=N)
    return compare_discretized(
        "exp-entropy-gap", lhs, np.zeros(3), traj.grid.h, traj.dt, scale, "functional", meta
    )


def check_log_sob_weak(
    traj: Trajectory, t: float, phi: ScalarField, K: float, N: float
) -> InequalityReport:
    """Weak log-Sobolev pair on [0, t] for a certified nonzero bound.

    The branch parameter chi is formed from weighted averages of the time
    derivative; both exponential inequalities are evaluated with the
    oscillator prefactor written through the signed kernel, which is
    continuous across chi = 1. The integrals of the entropy and the squared
    gradient moved from 0 to t are <P*_{0,t} phi, f>_m, by
    :func:`moved_integrals`.
    """
    if abs(K) < ZERO_CURVATURE:
        raise DomainError("zero bound: use the exponential entropy-gap triple")
    dst = traj.index_of(t)
    if dst == 0:
        raise DomainError("need t > 0 on the recorded grid")
    u_t, ddt, f2_t = traj.log_state(dst)
    u_0, _, f2_0 = traj.log_state(0)
    sig = traj.measure.sigma
    w = phi.values
    mass_t = _phi_mass(traj, w, u_t)
    zeta = 2.0 / (N * mass_t)
    chi = 4.0 / (N * K) * float(np.sum(w * ddt * sig)) / mass_t
    ev = PsiEvaluator(N, K, t)
    meta = traj.grid_meta(t=t, K=K, N=N, chi=chi, zeta=zeta)
    if chi >= ev.x_max:
        return compare(
            "weak-log-sobolev-domain",
            np.asarray([chi - ev.x_max]),
            np.asarray([0.0]),
            0.0,
            "branch parameter must stay below the domain end",
            grid_meta=meta,
        )
    ent_moved, grad_0_moved = moved_integrals(traj, w, (u_0 * np.log(u_0), u_0 * f2_0), 0, dst)
    ent_gap = float(np.sum(w * u_t * np.log(u_t) * sig)) - ent_moved
    grad_t = float(np.sum(w * u_t * f2_t * sig))

    with overflow_is_domain_error(f"exp(K t) at K = {K:g}, t = {t:g}"):
        prefactor = t * _s_kernel((K * t) ** 2 * (chi - 1.0))
        lhs1 = math.exp(zeta * ent_gap + 0.5 * K * t * chi - K * t)
        rhs1 = prefactor * (-zeta * grad_t + ev.psi(chi))
        lhs2 = math.exp(-zeta * ent_gap - 0.5 * K * t * chi + K * t)
        rhs2 = prefactor * (zeta * grad_0_moved + ev.psi_tilde(chi))
    lhs = np.asarray([lhs1, lhs2])
    rhs = np.asarray([rhs1, rhs2])
    scale = max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    return compare_discretized(
        "weak-log-sobolev", lhs, rhs, traj.grid.h, traj.dt, scale, "functional", meta
    )
