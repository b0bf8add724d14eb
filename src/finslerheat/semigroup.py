"""Linear transport along a recorded flow and its inequality suite.

The linearized semigroup is realized as the product of the recorded
frozen-coefficient step operators of a Trajectory. Every step is
self-adjoint in the measure inner product, so the adjoint semigroup is the
same steps applied in reverse order; duality and the semigroup law are
structural identities here, not numerical accidents. Every check takes the
Trajectory and spans its whole record: P_{0,t} from its first time to its
last.

All estimate checks follow one rule: quantities like F^2(grad u) are taken
from the recorded assemblies (their carre du champ), those of log u through
:meth:`Trajectory.log_state`, never by re-differentiating transported
fields in time or space. Discretization tolerances are reported alongside
every result.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DomainError
from .geometry import ZERO_CURVATURE, ScalarField, differential_field
from .heat import Trajectory
from .numerics import finite_exp, overflow_is_domain_error
from .reporting import InequalityReport, compare, compare_discretized

#: tolerance of the round-off checks: structural identities of the steps,
#: by their config names
ROUNDOFF = 1e-12
ROUNDOFF_CHECKS = ("conservative", "duality", "semigroup_law")
#: C of the variance identity's C*dt tolerance, calibrated against the band
#: limit of the runner's smooth fields: the worst observed constant over
#: seeded draws is about 175, so 600 keeps margin while staying well below
#: any structural failure
VARIANCE_C = 600.0


def _moved(traj: Trajectory, values: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """P_{0,t} over the whole record, or its adjoint, on one field (n,) or a
    block (n, m) of fields as columns."""
    return traj.transport(values, 0, traj.n_times - 1, adjoint)


def _meta(traj: Trajectory, **extra) -> dict:
    """The trajectory's grid meta with the record's first and last time."""
    return traj.grid_meta(start_time=traj.times[0], end_time=traj.times[-1], **extra)


def _block(fields: list[ScalarField]) -> np.ndarray:
    """The values of a list of fields as the columns of one block."""
    return np.column_stack([f.values for f in fields])


def _reports(traj: Trajectory, rule: str, cases) -> list[InequalityReport]:
    """One report per (name, lhs, rhs, tolerance) case, in order."""
    return [
        compare(name, lhs, rhs, tol, rule, grid_meta=_meta(traj))
        for name, lhs, rhs, tol in cases
    ]


def _lp_norm(values: np.ndarray, weights: np.ndarray, p: float) -> float:
    if p == math.inf:
        return float(np.max(np.abs(values)))
    return float(np.sum(np.abs(values) ** p * weights) ** (1.0 / p))


def check_conservative(traj: Trajectory) -> InequalityReport:
    """Transported constants stay constant. In 2-d this is exact by the
    stored row sums; a 1-d step is the banded factor's solve, so there it
    holds to the factor's round-off (below 1e-14 on the benchmark ladder)."""
    out = _moved(traj, np.ones(traj.grid.n_nodes))
    return compare(
        "conservative",
        np.abs(out - 1.0),
        np.zeros_like(out),
        ROUNDOFF,
        f"absolute {ROUNDOFF:g} (structural identity)",
        grid_meta=_meta(traj),
    )


def check_duality(
    traj: Trajectory, g: list[ScalarField], psi: list[ScalarField]
) -> list[InequalityReport]:
    """<psi, P g>_m equals <adjoint-P psi, g>_m up to solver tolerance.

    ``g`` and ``psi`` are equal-length lists of fields: every g moves
    forward in one block, every psi backward in another, and one report per
    pair comes back in order.
    """
    gs, psis = _block(g), _block(psi)
    sig = traj.measure.sigma
    cases = []
    for gj, pj, fwd, adj in zip(
        gs.T, psis.T, _moved(traj, gs).T, _moved(traj, psis, adjoint=True).T
    ):
        a = float(np.sum(pj * fwd * sig))
        b = float(np.sum(adj * gj * sig))
        scale = max(1.0, abs(a), abs(b))
        cases.append(("duality", np.array([abs(a - b)]), np.array([0.0]), ROUNDOFF * scale))
    return _reports(traj, f"{ROUNDOFF:g} * pairing scale", cases)


def check_semigroup_law(traj: Trajectory, g: ScalarField) -> InequalityReport:
    """Composition through the middle recorded index equals direct transport.

    Same operator product in the same order, so the gap is exactly zero in
    floating point; the check guards the indexing, not the arithmetic.
    """
    end = traj.n_times - 1
    if end < 2:
        raise ConfigError("semigroup_law needs at least two recorded steps")
    mid = end // 2
    two = traj.transport(traj.transport(g.values, 0, mid), mid, end)
    direct = _moved(traj, g.values)
    return compare(
        "semigroup-law",
        np.abs(two - direct),
        np.zeros_like(direct),
        ROUNDOFF,
        f"absolute {ROUNDOFF:g} (bitwise identity expected)",
        grid_meta=_meta(traj),
    )


def check_positivity(traj: Trajectory, g: list[ScalarField]) -> list[InequalityReport]:
    """Strictly positive input stays strictly positive after transport.

    Anisotropic stencils can break the discrete minimum principle; failures
    are reported with magnitude rather than clamped. ``g`` is a list of
    fields, moved as one block with one report each.
    """
    block = _block(g)
    if np.min(block) <= 0.0:
        raise DomainError("positivity check needs g > 0")
    cases = (("positivity", -out, np.zeros_like(out), 0.0) for out in _moved(traj, block).T)
    return _reports(traj, "strict: transported field must stay positive", cases)


def check_contraction(traj: Trajectory, g: list[ScalarField]) -> list[InequalityReport]:
    """L^p contraction ||P g||_p <= ||g||_p for p = 1, 2, inf.

    ``g`` is a list of fields: each is transported once, in one block, and
    reported for every exponent, fields outer.
    """
    block = _block(g)
    sig = traj.measure.sigma
    cases = []
    for before, after in zip(block.T, _moved(traj, block).T):
        for q in (1, 2, math.inf):
            lhs, rhs = _lp_norm(after, sig, q), _lp_norm(before, sig, q)
            tol = 1e-10 * max(1.0, rhs)
            cases.append((f"contraction-l{q}", np.array([lhs]), np.array([rhs]), tol))
    return _reports(traj, "1e-10 * norm scale", cases)


def check_order_and_bounds(traj: Trajectory, g: list[ScalarField]) -> list[InequalityReport]:
    """Transport maps each field's range [min g, max g] into itself up to
    tolerance. ``g`` is a list of fields, moved as one block with one
    report each."""
    block = _block(g)
    cases = []
    for out, lo, hi in zip(_moved(traj, block).T, block.min(axis=0), block.max(axis=0)):
        # one-sided residuals against both bounds, stacked
        lhs = np.concatenate([lo - out, out - hi])
        tol = 1e-10 * max(1.0, abs(lo), abs(hi))
        cases.append(("order-bounds", lhs, np.zeros_like(lhs), tol))
    return _reports(traj, "1e-10 * bound scale", cases)


def check_cauchy_schwarz(
    traj: Trajectory, f: list[ScalarField], g: list[ScalarField]
) -> list[InequalityReport]:
    """Pointwise (P fg)^2 <= P(f^2) P(g^2). ``f`` and ``g`` are equal-length
    lists of fields; the three transported columns of every pair move as
    one block, with one report per pair."""
    fs, gs = _block(f), _block(g)
    moved = np.hsplit(_moved(traj, np.hstack([fs * gs, fs**2, gs**2])), 3)
    cases = []
    for pf, p2f, p2g in zip(*(block.T for block in moved)):
        lhs, rhs = pf**2, p2f * p2g
        scale = max(1.0, float(np.max(np.abs(rhs))), float(np.max(np.abs(lhs))))
        cases.append(("cauchy-schwarz", lhs, rhs, 1e-10 * scale))
    return _reports(traj, "1e-10 * field scale", cases)


def variance_identity(traj: Trajectory, f: list[ScalarField]) -> list[InequalityReport]:
    """Pointwise identity between the transported-square gap and the
    time-integrated, transported carre du champ.

    (P f)^2 - P(f^2) = -2 * integral of P(carre du champ of the running
    transport), the integral taken by the trapezoid rule over recorded
    steps. The two sides agree to O(dt) because both are built from the
    same discrete operators; no spatial error enters. ``f`` is a list of
    fields: x, y and acc of every field move as one block per step, with
    one report per field.
    """
    dt = traj.dt
    x = _block(f)
    m = x.shape[1]
    acc = 0.5 * traj.assembly_at(0).carre_du_champ(x)
    state = np.hstack([x, x * x, acc])
    end = traj.n_times - 1
    for k in range(end):
        state = traj.transport(state, k, k + 1)
        w = 0.5 if k + 1 == end else 1.0
        state[:, 2 * m :] += w * traj.assembly_at(k + 1).carre_du_champ(state[:, :m])
    cases = []
    for x, y, acc in zip(*(block.T for block in np.hsplit(state, 3))):
        lhs, rhs = x * x - y, -2.0 * dt * acc
        scale = max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
        gap = np.abs(lhs - rhs)
        cases.append(("variance-identity", gap, np.zeros_like(lhs), VARIANCE_C * dt * scale))
    return _reports(traj, f"C*dt with C={VARIANCE_C:g}, scaled by field size", cases)


def laplacian_commutation(traj: Trajectory) -> InequalityReport:
    """The spatial operator commutes with transport along the flow."""
    lap_s = traj.delta_u(0)
    lap_t = traj.delta_u(traj.n_times - 1)
    moved = _moved(traj, lap_s)
    gap = np.abs(lap_t - moved)
    scale = max(1.0, float(np.max(np.abs(lap_s))))
    return compare_discretized(
        "laplacian-commutation", gap, np.zeros_like(gap), traj.grid.h, traj.dt, scale,
        "operator", _meta(traj),
    )


def gradient_estimate_check(traj: Trajectory, K: float) -> InequalityReport:
    """Both pointwise gradient bounds with the exp(-2K (t-s)) factor.

    Checks u_t F^2(grad log u_t) against the transported source version,
    and the same for the plain squared gradient. Squared gradients come
    from the recorded assemblies' carre du champ.
    """
    elapsed = traj.times[-1] - traj.times[0]
    with overflow_is_domain_error(f"exp(-2K t) at K = {K:g}, t = {elapsed:g}"):
        factor = finite_exp(-2.0 * K * elapsed)

    u_s, _, f2_s = traj.log_state(0)
    u_t, _, f2_t = traj.log_state(traj.n_times - 1)
    log_s, log_t = u_s * f2_s, u_t * f2_t
    raw_s = traj.assembly_at(0).carre_du_champ(u_s)
    raw_t = traj.assembly_at(traj.n_times - 1).carre_du_champ(u_t)
    moved = _moved(traj, np.column_stack([log_s, raw_s]))

    lhs = np.concatenate([log_t, raw_t])
    rhs = np.concatenate(factor * moved.T)
    scale = max(1.0, float(np.max(np.abs(rhs))))
    return compare_discretized(
        "gradient-estimate", lhs, rhs, traj.grid.h, traj.dt, scale, "gradient",
        _meta(traj, K=K, factor=factor),
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


def local_logsob_check(traj: Trajectory, K: float) -> InequalityReport:
    """Local log-Sobolev inequality and its reverse along the transport.

    Direction one bounds the entropy gap by the endpoint gradient term;
    direction two bounds it from below by the transported source term.
    """
    u_s, _, f2_s = traj.log_state(0)
    u_t, _, f2_t = traj.log_state(traj.n_times - 1)
    c_fwd, c_rev = _logsob_coefficients(K, traj.times[-1] - traj.times[0])

    ent_s_moved, grad_s_moved = _moved(traj, np.column_stack([u_s * np.log(u_s), u_s * f2_s])).T
    gap = u_t * np.log(u_t) - ent_s_moved
    grad_t = u_t * f2_t

    lhs = np.concatenate([gap - c_fwd * grad_t, c_rev * grad_s_moved - gap])
    scale = max(
        1.0,
        float(np.max(np.abs(gap))),
        abs(c_fwd) * float(np.max(grad_t)),
        abs(c_rev) * float(np.max(np.abs(grad_s_moved))),
    )
    return compare_discretized(
        "local-log-sobolev", lhs, np.zeros_like(lhs), traj.grid.h, traj.dt, scale,
        "entropy", _meta(traj, K=K, c_forward=c_fwd, c_reverse=c_rev),
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
