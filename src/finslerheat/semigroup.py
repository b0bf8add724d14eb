"""Linear transport along a recorded flow and its inequality suite.

The linearized semigroup is realized as the product of the recorded
frozen-coefficient step operators of a Trajectory; the adjoint semigroup
is the same steps in reverse order. Seven checks read the record of steps,
draw no field and name their worst point by step, time and nodes: duality
and conservation from the identities of :attr:`Trajectory.certificate`, the
four Markov checks (positivity, order bounds, contraction, Cauchy-Schwarz)
from the kernel bounds of :attr:`Trajectory.kernel_probe`, and the
semigroup law from the two steps around the middle of the record.

The other checks span the whole record, P_{0,t} from its first time to its
last, and follow one rule: quantities like F^2(grad u) are taken from the
recorded assemblies (their carre du champ), those of log u through
:meth:`Trajectory.log_state`, never by re-differentiating transported
fields in time or space. Discretization tolerances are reported alongside
every result.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ConfigError
from .geometry import ZERO_CURVATURE, ScalarField, differential_field
from .heat import PROBE_EDGES, Trajectory, largest_defect
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
#: tolerance up to 1.05), so 4 of the 300 seeded runs FAIL `variance`
VARIANCE_C = 600.0


def _meta(traj: Trajectory, **extra) -> dict:
    """The trajectory's grid meta with the record's first and last time."""
    return traj.grid_meta(start_time=traj.times[0], end_time=traj.times[-1], **extra)


def _step_report(traj: Trajectory, name: str, rows, tolerance: float, rule: str, **meta):
    """The test lhs <= rhs + ``tolerance`` on ``rows`` (step, lhs, rhs,
    nodes) of recorded steps. Its worst point names the row's step, the
    step's time and the row's nodes, with their coordinates."""
    steps, lhs, rhs, nodes = zip(*rows)
    report = compare(name, lhs, rhs, tolerance, rule, _meta(traj, **meta))
    k = report.worst_location["index"]
    located = list(nodes[k])
    where = {
        "step": steps[k],
        "time": traj.certificate[steps[k]].time,
        "nodes": located,
        "coordinates": traj.grid.coordinates()[located].tolist(),
    }
    return dataclasses.replace(report, worst_location=where)


def _identity_report(traj: Trajectory, name: str, what: str, facts) -> InequalityReport:
    """The round-off test of ``facts`` (step, (defect, nodes)) of recorded
    steps, whose defects ``what`` names."""
    rows = [(step, gap, 0.0, at) for step, (gap, at) in facts]
    rule = f"absolute {ROUNDOFF:g} on {what} (bitwise identity expected)"
    return _step_report(traj, name, rows, ROUNDOFF, rule)


def check_conservative(traj: Trajectory) -> InequalityReport:
    """Transported constants stay constant: each recorded step has degree =
    W 1 bitwise, so it maps 1 to 1. This judges the steps, not the round-off
    of solving them."""
    facts = [(c.step, c.identities[2]) for c in traj.certificate]
    return _identity_report(traj, "conservative", "each step's dt |degree - W 1| / sigma", facts)


def check_duality(traj: Trajectory) -> InequalityReport:
    """<psi, P g>_m equals <adjoint-P psi, g>_m for every pair and span: each
    recorded step has W = W^T and the run's sigma bitwise, so Sigma S is
    symmetric (:attr:`Trajectory.certificate`)."""
    facts = [(c.step, fact) for c in traj.certificate for fact in c.identities[:2]]
    what = "each step's dt |W - W^T| / sigma and |sigma - run sigma| / sigma"
    return _identity_report(traj, "duality", what, facts)


def check_semigroup_law(traj: Trajectory) -> InequalityReport:
    """P_{a,c} = P_{b,c} P_{a,b} and P*_{a,c} = P*_{a,b} P*_{b,c} on the
    recorded field at a, for the two steps a, b = a + 1 around the middle of
    the record, c = b + 1; the forward composition also gives the recorded
    field at c. Each pair applies the same steps in the same order, so every
    gap is exactly zero: the check guards the span arithmetic of
    :meth:`Trajectory.transport`, not the arithmetic of a step."""
    if traj.n_times < 3:
        raise ConfigError("semigroup_law needs at least two recorded steps")
    b = (traj.n_times - 1) // 2
    a, c = b - 1, b + 1
    g = traj.fields[a]
    forward = traj.transport(traj.transport(g, a, b), b, c)
    adjoint = traj.transport(traj.transport(g, b, c, True), a, b, True)
    pairs = [
        (forward, traj.transport(g, a, c)),
        (forward, traj.fields[c]),
        (adjoint, traj.transport(g, a, c, True)),
    ]
    every = np.arange(traj.grid.n_nodes)
    facts = [(b, largest_defect(np.abs(x - y), every)) for x, y in pairs]
    return _identity_report(traj, "semigroup-law", "two steps composed vs direct, recorded", facts)


def _markov_report(traj: Trajectory, what: str, rows) -> InequalityReport:
    """The per-step test lhs <= rhs + SOLVER_TOL of :attr:`Trajectory.
    kernel_probe` on ``rows`` (step, lhs, rhs, nodes), stating ``what`` it
    tests; its meta counts the uncertified steps and, of those, the
    unproven ones, whose probe found no violation."""
    probes = traj.kernel_probe
    held = [lhs - rhs <= SOLVER_TOL for _, lhs, rhs, _ in rows]
    rule = (
        f"{SOLVER_TOL:g} on {what}; W >= 0 proves a step, and unit spikes at the ends "
        f"of its {PROBE_EDGES} most negative first-order kernel entries test another, "
        "which can find a violation but prove none (unproven_steps)"
    )
    return _step_report(
        traj, "markov", rows, SOLVER_TOL, rule,
        uncertified_steps=sum(not p.proven for p in probes),
        unproven_steps=int(sum(ok and not p.proven for ok, p in zip(held, probes))),
    )


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
    probes = list(enumerate(traj.kernel_probe))
    entry = _markov_report(
        traj, "one-step kernel entries", [(k, 0.0, p.floor, p.nodes) for k, p in probes]
    )
    gain = _markov_report(
        traj, "one-step L^2 gains", [(k, p.gain, 1.0, (p.spike,)) for k, p in probes]
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
    x = np.column_stack([g.values for g in f])
    m = x.shape[1]
    acc = 0.5 * traj.assembly_at(0).carre_du_champ(x)
    state = np.hstack([x, x * x, acc])
    end = traj.n_times - 1
    for k in range(end):
        state = traj.transport(state, k, k + 1)
        w = 0.5 if k + 1 == end else 1.0
        state[:, 2 * m :] += w * traj.assembly_at(k + 1).carre_du_champ(state[:, :m])
    rule = f"C*dt with C={VARIANCE_C:g}, scaled by field size"
    reports = []
    for x, y, acc in zip(*(block.T for block in np.hsplit(state, 3))):
        lhs, rhs = x * x - y, -2.0 * dt * acc
        scale = max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
        gap = np.abs(lhs - rhs)
        tolerance = VARIANCE_C * dt * scale
        reports.append(
            compare("variance-identity", gap, np.zeros_like(lhs), tolerance, rule, _meta(traj))
        )
    return reports


def laplacian_commutation(traj: Trajectory) -> InequalityReport:
    """The spatial operator commutes with transport along the flow."""
    lap_s = traj.delta_u(0)
    lap_t = traj.delta_u(traj.n_times - 1)
    moved = traj.transport(lap_s, 0, traj.n_times - 1)
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
