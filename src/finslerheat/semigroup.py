"""Linear transport along a recorded flow and its inequality suite.

The linearized semigroup is realized as the product of the recorded
frozen-coefficient step operators of a Trajectory. Every step is
self-adjoint in the measure inner product, so the adjoint semigroup is the
same steps applied in reverse order; duality and the semigroup law are
structural identities here, not numerical accidents. Every check takes the
Trajectory and spans its whole record: P_{0,t} from its first time to its
last. The four Markov checks (positivity, order bounds, contraction and
Cauchy-Schwarz) hold for every field and every span once each step's kernel
is nonnegative, so they read that from :attr:`Trajectory.kernel_probe`,
take no field and transport none.

All estimate checks follow one rule: quantities like F^2(grad u) are taken
from the recorded assemblies (their carre du champ), those of log u through
:meth:`Trajectory.log_state`, never by re-differentiating transported
fields in time or space. Discretization tolerances are reported alongside
every result.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ConfigError
from .geometry import ZERO_CURVATURE, ScalarField, differential_field
from .heat import PROBE_EDGES, Trajectory
from .numerics import SOLVER_TOL, finite_exp, overflow_is_domain_error
from .reporting import InequalityReport, compare, compare_discretized

#: tolerance of the round-off checks: structural identities of the steps,
#: by their config names
ROUNDOFF = 1e-12
ROUNDOFF_CHECKS = ("conservative", "duality", "semigroup_law")
#: C of the variance identity's C*dt tolerance, scaled by field size. It is
#: too tight for the runner's smooth fields on correct runs: over the 300
#: seeds 1-300 of the 64^2 Randers check workload (dt 5e-4), the gap needs a
#: constant of about 350 at the median and up to 620-630 (worst over
#: tolerance up to 1.05), so 2 of the 300 seeded runs FAIL `variance`
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


def check_conservative(traj: Trajectory) -> InequalityReport:
    """Transported constants stay constant. In 2-d this is exact by the
    stored row sums; a 1-d step is the LDL^T factor's solve, so there it
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


def _markov_report(traj: Trajectory, what: str, lhs, rhs, nodes) -> InequalityReport:
    """The per-step test lhs <= rhs + SOLVER_TOL of :attr:`Trajectory.
    kernel_probe`, stating ``what`` it tests. Its worst point names the step,
    its time and that step's ``nodes``, with their coordinates; its meta
    counts the uncertified steps and, of those, the unproven ones, whose
    probe found no violation."""
    certs, probes = traj.certificate, traj.kernel_probe
    lhs, rhs = np.array(lhs), np.array(rhs)
    with np.errstate(invalid="ignore"):
        held = lhs - rhs <= SOLVER_TOL
    meta = _meta(
        traj,
        uncertified_steps=sum(not p.proven for p in probes),
        unproven_steps=int(sum(ok and not p.proven for ok, p in zip(held, probes))),
    )
    rule = (
        f"{SOLVER_TOL:g} on {what}; W >= 0 proves a step, and unit spikes at the ends "
        f"of its {PROBE_EDGES} most negative first-order kernel entries test another, "
        "which can find a violation but prove none (unproven_steps)"
    )
    report = compare("markov", lhs, rhs, SOLVER_TOL, rule, meta)
    k = report.worst_location["index"]
    located = list(nodes[k])
    where = {
        "step": k,
        "time": certs[k].time,
        "nodes": located,
        "coordinates": traj.grid.coordinates()[located].tolist(),
    }
    return dataclasses.replace(report, worst_location=where)


def markov_reports(traj: Trajectory, names: list[str]) -> list[InequalityReport]:
    """One report under each of ``names``, from the recorded steps alone.

    Each step S is self-adjoint in the measure with S 1 = 1, so once every
    kernel entry is nonnegative each P_{s,t} is a Markov kernel, and for
    every field and span: positivity (g > 0 gives P g > 0), order bounds (P
    maps [min g, max g] into itself), L^p contraction ||P g||_p <= ||g||_p
    for p = 1, 2, inf, and pointwise Cauchy-Schwarz (P fg)^2 <= P(f^2) P(g^2).
    ``contraction-l2`` bounds each recorded step's measure-L^2 gain by 1;
    every other name, a property that one negative entry breaks, tests
    0 <= S[i, j] on each step's smallest kernel entry known. No field is
    read, so a property has one report whatever the field count.
    """
    probes = traj.kernel_probe
    floors = [p.floor for p in probes]
    gains = [p.gain for p in probes]
    entry = _markov_report(
        traj, "one-step kernel entries", np.zeros_like(floors), floors, [p.nodes for p in probes]
    )
    gain = _markov_report(
        traj, "one-step L^2 gains", gains, np.ones_like(gains), [(p.spike,) for p in probes]
    )
    return [
        dataclasses.replace(gain if name == "contraction-l2" else entry, name=name)
        for name in names
    ]


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

    u_t, _, f2_t = traj.log_state(traj.n_times - 1)
    raw_t = traj.assembly_at(traj.n_times - 1).carre_du_champ(u_t)
    lhs = np.concatenate([u_t * f2_t, raw_t])
    rhs = np.concatenate(factor * traj.moved_log_sources[:, :2].T)
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
    u_t, _, f2_t = traj.log_state(traj.n_times - 1)
    c_fwd, c_rev = _logsob_coefficients(K, traj.times[-1] - traj.times[0])

    grad_s_moved, _, ent_s_moved = traj.moved_log_sources.T
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


def lipschitz_decay(traj: Trajectory, K: float) -> InequalityReport:
    """Sup-norm gradient decay (growth for K < 0) along the whole run.

    Two estimators of the same sup norm are tracked: the dual norm of the
    centered differential, and the square root of the assembly carre du
    champ. Each recorded time is compared against the decayed initial
    value of its own estimator.
    """
    desc = traj.metric.descriptor
    lip, energy = [], []
    for k in range(traj.n_times):
        u = traj.field_at(k)
        du = differential_field(u)
        lip.append(float(np.max(desc.dual_norm(du.values))))
        gamma = traj.assembly_at(k).carre_du_champ(u.values)
        energy.append(float(np.sqrt(max(np.max(gamma), 0.0))))
    elapsed = np.asarray(traj.times) - traj.times[0]
    with overflow_is_domain_error(f"exp(-K t) at K = {K:g}, t = {elapsed[-1]:g}"):
        decay = np.exp(-K * elapsed)
    lhs = np.concatenate([np.asarray(lip), np.asarray(energy)])
    rhs = np.concatenate([decay * lip[0], decay * energy[0]])
    scale = max(1.0, float(np.max(rhs)))
    return compare_discretized(
        "lipschitz-decay", lhs, rhs, traj.grid.h, traj.dt, scale, "gradient",
        _meta(traj, K=K, n_times=traj.n_times),
    )
