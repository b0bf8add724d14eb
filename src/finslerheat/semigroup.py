"""Linear transport along a recorded flow and its inequality suite.

The linearized semigroup is realized as the product of the recorded
frozen-coefficient step operators of a Trajectory. Every step is
self-adjoint in the measure inner product, so the adjoint semigroup is the
same steps applied in reverse order; duality and the semigroup law are
structural identities here, not numerical accidents.

All estimate checks follow one rule: quantities like F^2(grad u) are taken
from the recorded assemblies (their carre du champ), never by
re-differentiating transported fields in time or space. Discretization
tolerances are reported alongside every result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IndexRange
from .geometry import ZERO_CURVATURE, ScalarField, differential_field
from .heat import Trajectory
from .numerics import finite_exp, overflow_is_domain_error
from .reporting import InequalityReport, compare, compare_discretized

#: tolerance of the round-off checks: structural identities of the steps,
#: by their config names
ROUNDOFF = 1e-12
ROUNDOFF_CHECKS = ("conservative", "duality", "semigroup_law")


@dataclass(frozen=True)
class TransportPlan:
    """A slice start < end of a recorded trajectory."""

    trajectory: Trajectory
    start: int
    end: int

    def __post_init__(self):
        self.trajectory.check_span(self.start, self.end)

    @property
    def elapsed(self) -> float:
        return self.trajectory.times[self.end] - self.trajectory.times[self.start]

    def run(self, values: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """The plan's recorded steps applied to one field (n,) or a block
        (n, m) of fields as columns, in reverse order when ``adjoint``."""
        return self.trajectory.transport(values, self.start, self.end, adjoint)

    def grid_meta(self, **extra) -> dict:
        traj = self.trajectory
        return traj.grid_meta(
            start_time=traj.times[self.start], end_time=traj.times[self.end], **extra
        )


def _block(fields: list[ScalarField]) -> np.ndarray:
    """The values of a list of fields as the columns of one block."""
    return np.column_stack([f.values for f in fields])


def _reports(plan: TransportPlan, rule: str, cases) -> list[InequalityReport]:
    """One report per (name, lhs, rhs, tolerance) case, in order."""
    return [
        compare(name, lhs, rhs, tol, rule, grid_meta=plan.grid_meta())
        for name, lhs, rhs, tol in cases
    ]


def _lp_norm(values: np.ndarray, weights: np.ndarray, p: float) -> float:
    if p == math.inf:
        return float(np.max(np.abs(values)))
    return float(np.sum(np.abs(values) ** p * weights) ** (1.0 / p))


def _log_carre(assembly, u: np.ndarray) -> np.ndarray:
    if np.min(u) <= 0.0:
        raise DomainError("field must be strictly positive for log-based checks")
    return assembly.carre_du_champ(np.log(u))


def check_conservative(plan: TransportPlan) -> InequalityReport:
    """Transported constants stay constant. In 2-d this is exact by the
    stored row sums; a 1-d step is the banded factor's solve, so there it
    holds to the factor's round-off (below 1e-14 on the benchmark ladder)."""
    out = plan.run(np.ones(plan.trajectory.grid.n_nodes))
    return compare(
        "conservative",
        np.abs(out - 1.0),
        np.zeros_like(out),
        ROUNDOFF,
        f"absolute {ROUNDOFF:g} (structural identity)",
        grid_meta=plan.grid_meta(),
    )


def check_duality(
    plan: TransportPlan, g: list[ScalarField], psi: list[ScalarField]
) -> list[InequalityReport]:
    """<psi, P g>_m equals <adjoint-P psi, g>_m up to solver tolerance.

    ``g`` and ``psi`` are equal-length lists of fields: every g moves
    forward in one block, every psi backward in another, and one report per
    pair comes back in order.
    """
    gs, psis = _block(g), _block(psi)
    sig = plan.trajectory.measure.sigma
    cases = []
    for gj, pj, fwd, adj in zip(
        gs.T, psis.T, plan.run(gs).T, plan.run(psis, adjoint=True).T
    ):
        a = float(np.sum(pj * fwd * sig))
        b = float(np.sum(adj * gj * sig))
        scale = max(1.0, abs(a), abs(b))
        cases.append(("duality", np.array([abs(a - b)]), np.array([0.0]), ROUNDOFF * scale))
    return _reports(plan, f"{ROUNDOFF:g} * pairing scale", cases)


def check_semigroup_law(plan: TransportPlan, mid: int, g: ScalarField) -> InequalityReport:
    """Composition through an intermediate index equals direct transport.

    Same operator product in the same order, so the gap is exactly zero in
    floating point; the check guards the indexing, not the arithmetic.
    """
    if not plan.start < mid < plan.end:
        raise IndexRange("intermediate index must lie strictly inside the plan")
    traj = plan.trajectory
    two = traj.transport(traj.transport(g.values, plan.start, mid), mid, plan.end)
    direct = plan.run(g.values)
    return compare(
        "semigroup-law",
        np.abs(two - direct),
        np.zeros_like(direct),
        ROUNDOFF,
        f"absolute {ROUNDOFF:g} (bitwise identity expected)",
        grid_meta=plan.grid_meta(),
    )


def check_positivity(plan: TransportPlan, g: list[ScalarField]) -> list[InequalityReport]:
    """Strictly positive input stays strictly positive after transport.

    Anisotropic stencils can break the discrete minimum principle; failures
    are reported with magnitude rather than clamped. ``g`` is a list of
    fields, moved as one block with one report each.
    """
    block = _block(g)
    if np.min(block) <= 0.0:
        raise DomainError("positivity check needs g > 0")
    cases = (("positivity", -out, np.zeros_like(out), 0.0) for out in plan.run(block).T)
    return _reports(plan, "strict: transported field must stay positive", cases)


def check_contraction(plan: TransportPlan, g: list[ScalarField]) -> list[InequalityReport]:
    """L^p contraction ||P g||_p <= ||g||_p for p = 1, 2, inf.

    ``g`` is a list of fields: each is transported once, in one block, and
    reported for every exponent, fields outer.
    """
    block = _block(g)
    sig = plan.trajectory.measure.sigma
    cases = []
    for before, after in zip(block.T, plan.run(block).T):
        for q in (1, 2, math.inf):
            lhs, rhs = _lp_norm(after, sig, q), _lp_norm(before, sig, q)
            tol = 1e-10 * max(1.0, rhs)
            cases.append((f"contraction-l{q}", np.array([lhs]), np.array([rhs]), tol))
    return _reports(plan, "1e-10 * norm scale", cases)


def check_order_and_bounds(plan: TransportPlan, g: list[ScalarField]) -> list[InequalityReport]:
    """Transport maps each field's range [min g, max g] into itself up to
    tolerance. ``g`` is a list of fields, moved as one block with one
    report each."""
    block = _block(g)
    cases = []
    for out, lo, hi in zip(plan.run(block).T, block.min(axis=0), block.max(axis=0)):
        # one-sided residuals against both bounds, stacked
        lhs = np.concatenate([lo - out, out - hi])
        tol = 1e-10 * max(1.0, abs(lo), abs(hi))
        cases.append(("order-bounds", lhs, np.zeros_like(lhs), tol))
    return _reports(plan, "1e-10 * bound scale", cases)


def check_cauchy_schwarz(
    plan: TransportPlan, f: list[ScalarField], g: list[ScalarField]
) -> list[InequalityReport]:
    """Pointwise (P fg)^2 <= P(f^2) P(g^2). ``f`` and ``g`` are equal-length
    lists of fields; the three transported columns of every pair move as
    one block, with one report per pair."""
    fs, gs = _block(f), _block(g)
    moved = np.hsplit(plan.run(np.hstack([fs * gs, fs**2, gs**2])), 3)
    cases = []
    for pf, p2f, p2g in zip(*(block.T for block in moved)):
        lhs, rhs = pf**2, p2f * p2g
        scale = max(1.0, float(np.max(np.abs(rhs))), float(np.max(np.abs(lhs))))
        cases.append(("cauchy-schwarz", lhs, rhs, 1e-10 * scale))
    return _reports(plan, "1e-10 * field scale", cases)


def variance_identity(
    plan: TransportPlan, f: list[ScalarField], c_dt: float = 50.0
) -> list[InequalityReport]:
    """Pointwise identity between the transported-square gap and the
    time-integrated, transported carre du champ.

    (P f)^2 - P(f^2) = -2 * integral of P(carre du champ of the running
    transport), the integral taken by the trapezoid rule over recorded
    steps. The two sides agree to O(dt) because both are built from the
    same discrete operators; no spatial error enters. ``f`` is a list of
    fields: x, y and acc of every field move as one block per step, with
    one report per field.
    """
    traj = plan.trajectory
    dt = traj.dt
    x = _block(f)
    m = x.shape[1]
    acc = 0.5 * traj.assembly_at(plan.start).carre_du_champ(x)
    state = np.hstack([x, x * x, acc])
    for k in range(plan.start, plan.end):
        state = traj.transport(state, k, k + 1)
        w = 0.5 if k + 1 == plan.end else 1.0
        state[:, 2 * m :] += w * traj.assembly_at(k + 1).carre_du_champ(state[:, :m])
    cases = []
    for x, y, acc in zip(*(block.T for block in np.hsplit(state, 3))):
        lhs, rhs = x * x - y, -2.0 * dt * acc
        scale = max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
        gap = np.abs(lhs - rhs)
        cases.append(("variance-identity", gap, np.zeros_like(lhs), c_dt * dt * scale))
    return _reports(plan, f"C*dt with C={c_dt:g}, scaled by field size", cases)


def laplacian_commutation(plan: TransportPlan) -> InequalityReport:
    """The spatial operator commutes with transport along the flow."""
    traj = plan.trajectory
    lap_s = traj.delta_u(plan.start)
    lap_t = traj.delta_u(plan.end)
    moved = plan.run(lap_s)
    gap = np.abs(lap_t - moved)
    scale = max(1.0, float(np.max(np.abs(lap_s))))
    return compare_discretized(
        "laplacian-commutation", gap, np.zeros_like(gap), traj.grid.h, traj.dt, scale,
        "operator", plan.grid_meta(),
    )


def gradient_estimate_check(plan: TransportPlan, K: float) -> InequalityReport:
    """Both pointwise gradient bounds with the exp(-2K (t-s)) factor.

    Checks u_t F^2(grad log u_t) against the transported source version,
    and the same for the plain squared gradient. Squared gradients come
    from the recorded assemblies' carre du champ.
    """
    traj = plan.trajectory
    u_s = traj.fields[plan.start]
    u_t = traj.fields[plan.end]
    asm_s = traj.assembly_at(plan.start)
    asm_t = traj.assembly_at(plan.end)
    with overflow_is_domain_error(f"exp(-2K t) at K = {K:g}, t = {plan.elapsed:g}"):
        factor = finite_exp(-2.0 * K * plan.elapsed)

    log_s = u_s * _log_carre(asm_s, u_s)
    log_t = u_t * _log_carre(asm_t, u_t)
    raw_s = asm_s.carre_du_champ(u_s)
    raw_t = asm_t.carre_du_champ(u_t)
    moved = plan.run(np.column_stack([log_s, raw_s]))

    lhs = np.concatenate([log_t, raw_t])
    rhs = np.concatenate(factor * moved.T)
    scale = max(1.0, float(np.max(np.abs(rhs))))
    return compare_discretized(
        "gradient-estimate", lhs, rhs, traj.grid.h, traj.dt, scale, "gradient",
        plan.grid_meta(K=K, factor=factor),
    )


def _logsob_coefficients(K: float, delta: float) -> tuple[float, float]:
    """Coefficients of the two local log-Sobolev directions; both tend to
    -delta as K tends to zero, which is the limit branch used for a zero bound."""
    if abs(K) < ZERO_CURVATURE:
        return -delta, -delta
    with overflow_is_domain_error(f"exp(2|K| t) at K = {K:g}, t = {delta:g}"):
        c_forward = (1.0 - finite_exp(2.0 * K * delta)) / (2.0 * K)
        c_reverse = (finite_exp(-2.0 * K * delta) - 1.0) / (2.0 * K)
    return c_forward, c_reverse


def local_logsob_check(plan: TransportPlan, K: float) -> InequalityReport:
    """Local log-Sobolev inequality and its reverse along the transport.

    Direction one bounds the entropy gap by the endpoint gradient term;
    direction two bounds it from below by the transported source term.
    """
    traj = plan.trajectory
    u_s = traj.fields[plan.start]
    u_t = traj.fields[plan.end]
    if np.min(u_s) <= 0.0 or np.min(u_t) <= 0.0:
        raise DomainError("log-Sobolev checks need strictly positive fields")
    asm_s = traj.assembly_at(plan.start)
    asm_t = traj.assembly_at(plan.end)
    c_fwd, c_rev = _logsob_coefficients(K, plan.elapsed)

    ent_s_moved, grad_s_moved = plan.run(
        np.column_stack([u_s * np.log(u_s), u_s * _log_carre(asm_s, u_s)])
    ).T
    gap = u_t * np.log(u_t) - ent_s_moved
    grad_t = u_t * _log_carre(asm_t, u_t)

    lhs = np.concatenate([gap - c_fwd * grad_t, c_rev * grad_s_moved - gap])
    scale = max(
        1.0,
        float(np.max(np.abs(gap))),
        abs(c_fwd) * float(np.max(grad_t)),
        abs(c_rev) * float(np.max(np.abs(grad_s_moved))),
    )
    return compare_discretized(
        "local-log-sobolev", lhs, np.zeros_like(lhs), traj.grid.h, traj.dt, scale,
        "entropy", plan.grid_meta(K=K, c_forward=c_fwd, c_reverse=c_rev),
    )


def lipschitz_decay(trajectory: Trajectory, K: float) -> InequalityReport:
    """Sup-norm gradient decay (growth for K < 0) along the whole run.

    Two estimators of the same sup norm are tracked: the dual norm of the
    centered differential, and the square root of the assembly carre du
    champ. Each recorded time is compared against the decayed initial
    value of its own estimator.
    """
    metric = trajectory.metric
    desc = metric.descriptor
    lip, energy = [], []
    for k in range(trajectory.n_times):
        u = trajectory.field_at(k)
        du = differential_field(u)
        lip.append(float(np.max(desc.dual_norm(du.values))))
        gamma = trajectory.assembly_at(k).carre_du_champ(u.values)
        energy.append(float(np.sqrt(max(np.max(gamma), 0.0))))
    elapsed = np.asarray(trajectory.times) - trajectory.times[0]
    with overflow_is_domain_error(f"exp(-K t) at K = {K:g}, t = {elapsed[-1]:g}"):
        decay = np.exp(-K * elapsed)
    lhs = np.concatenate([np.asarray(lip), np.asarray(energy)])
    rhs = np.concatenate([decay * lip[0], decay * energy[0]])
    scale = max(1.0, float(np.max(rhs)))
    meta = {
        "h": trajectory.grid.h,
        "dt": trajectory.dt,
        "K": K,
        "family": desc.family,
        "n_times": trajectory.n_times,
    }
    return compare_discretized(
        "lipschitz-decay", lhs, rhs, trajectory.grid.h, trajectory.dt, scale, "gradient", meta
    )
