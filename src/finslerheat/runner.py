"""Batch driver: solve one configured flow, run its check suite, write
machine-readable reports.

Determinism contract: for a fixed config the numeric content of every
report file is byte-identical across runs. Checks execute in the order
they appear in the config, no check draws a random field, and wall-clock
times live only in the manifest.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import harnack as harnack_mod
from . import liyau, semigroup
from ._version import __version__
from .errors import ConfigError, FinslerHeatError
from .geometry import ZERO_CURVATURE, ricci_lower_bound
from .heat import SCHEME, Trajectory, bochner_report, solve_heat_flow
from .reporting import InequalityReport, write_json

if TYPE_CHECKING:  # config validates check names against CHECKS
    from .config import ExperimentConfig

SCHEMA_VERSION = 1


@dataclass
class RunManifest:
    """Where one run put its outputs and how it went."""

    config_digest: str
    tool_version: str
    out_dir: str
    seed: int
    n_effective: float
    k_resolved: float
    k_provenance: str
    report_paths: dict = field(default_factory=dict)
    failed_checks: list = field(default_factory=list)
    wall_clock: dict = field(default_factory=dict)
    grid_meta: dict = field(default_factory=dict)
    #: health of each solver step: its recorded time, the largest eigenvalue
    #: of the frozen tensor, the count of degenerate-gradient nodes (none for
    #: a quadratic norm), and the count of negative edge weights and the
    #: smallest one (Trajectory.certificate)
    solver_steps: list = field(default_factory=list)

    @property
    def n_failed(self) -> int:
        return len(self.failed_checks)

    def write(self) -> str:
        payload = {"schema_version": SCHEMA_VERSION, **vars(self)}
        return write_json(os.path.join(self.out_dir, "manifest.json"), payload)


def build_problem(config: ExperimentConfig, nodes: int | None = None):
    grid = config.build_grid(nodes)
    metric = config.build_metric(grid)
    measure = config.build_measure(grid)
    u0 = config.build_initial(grid)
    return grid, metric, measure, u0


def _resolve_curvature(config, metric, measure):
    if config.K is not None:
        return config.K, "configured"
    bound = ricci_lower_bound(metric, measure, config.N)
    return bound.K, bound.provenance


class CheckContext:
    """What a check reads: the config, the recorded run, the resolved K and
    the entropy checks' test field phi."""

    def __init__(self, config: ExperimentConfig, traj: Trajectory, K: float, phi):
        self.config = config
        self.traj = traj
        self.K = K
        self.phi = phi
        self.t_end = traj.times[-1]

    def finite_n(self) -> float:
        if math.isinf(self.config.N):
            raise ConfigError("this check needs a finite N in [checks]")
        return self.config.N

    def coeffs(self):
        profile = liyau.LiYauProfile.parse(self.config.profile, self.K)
        return liyau.alpha_phi(profile, self.K, self.finite_n(), self.t_end)


def _exp_entropy(ctx: CheckContext):
    if abs(ctx.K) >= ZERO_CURVATURE:
        raise ConfigError("exp_entropy applies to certified zero bounds only")
    return [
        liyau.check_exp_uu(ctx.traj, ctx.config.s_time, ctx.t_end, ctx.phi, ctx.finite_n())
    ]


def _harnack(ctx: CheckContext):
    config = ctx.config
    if not config.harnack_pairs:
        raise ConfigError("harnack check configured without harnack_pairs")
    cf = ctx.coeffs() if config.harnack_mode == "integral" else None
    return [
        harnack_mod.verify_harnack(
            ctx.traj, x1, t1, x2, t2, config.harnack_mode, N=ctx.finite_n(), K=ctx.K, coeffs=cf
        )
        for x1, t1, x2, t2 in config.harnack_pairs
    ]


#: every check by its config name: a function of the run's context that
#: returns the check's reports. ``load_config`` validates names against it.
CHECKS: dict[str, Callable[[CheckContext], list[InequalityReport]]] = {
    "conservative": lambda ctx: [semigroup.check_conservative(ctx.traj)],
    "duality": lambda ctx: [semigroup.check_duality(ctx.traj)],
    "semigroup_law": lambda ctx: [semigroup.check_semigroup_law(ctx.traj)],
    "positivity": lambda ctx: semigroup.markov_reports(ctx.traj, ["positivity"]),
    "contraction": lambda ctx: semigroup.markov_reports(
        ctx.traj, ["contraction-l1", "contraction-l2", "contraction-linf"]
    ),
    "order_bounds": lambda ctx: semigroup.markov_reports(ctx.traj, ["order-bounds"]),
    "cauchy_schwarz": lambda ctx: semigroup.markov_reports(ctx.traj, ["cauchy-schwarz"]),
    "variance": lambda ctx: [semigroup.variance_identity(ctx.traj)],
    "laplacian_commutation": lambda ctx: [semigroup.laplacian_commutation(ctx.traj)],
    "gradient_estimate": lambda ctx: [semigroup.gradient_estimate_check(ctx.traj, ctx.K)],
    "local_logsob": lambda ctx: [semigroup.local_logsob_check(ctx.traj, ctx.K)],
    "lipschitz": lambda ctx: [semigroup.lipschitz_decay(ctx.traj, ctx.K)],
    "liyau_linear": lambda ctx: [
        liyau.residual_linear(ctx.traj, ctx.t_end, ctx.coeffs())
    ],
    "liyau_envelope": lambda ctx: [
        liyau.residual_psi(ctx.traj, ctx.t_end, ctx.finite_n(), ctx.K)
    ],
    "exp_entropy": _exp_entropy,
    "weak_logsob": lambda ctx: [
        liyau.check_log_sob_weak(ctx.traj, ctx.t_end, ctx.phi, ctx.K, ctx.finite_n())
    ],
    "harnack": _harnack,
    "bochner": lambda ctx: [
        bochner_report(
            ctx.traj.metric, ctx.traj.measure, ctx.traj.field_at(0), ctx.config.N
        )
    ],
}


def _write_check(out_dir: str, name: str, reports: list[InequalityReport]) -> tuple[str, bool]:
    passed = all(r.passed for r in reports)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "check": name,
        "passed": passed,
        "reports": [r.to_dict() for r in reports],
    }
    return write_json(os.path.join(out_dir, f"check_{name}.json"), payload), passed


@contextlib.contextmanager
def _named(what: str):
    """Re-raise a module error with ``what`` it came from attached."""
    try:
        yield
    except FinslerHeatError as exc:
        raise type(exc)(f"{what}: {exc}") from exc


def run(config: ExperimentConfig, out_dir: str | None = None) -> RunManifest:
    """Solve the configured flow and execute its check list.

    Check failures are recorded, not raised; module errors inside a check
    are re-raised with the check name attached so batch logs stay usable.
    The checks of :data:`semigroup.SWEPT_BY_CHECK` first share one sweep of
    the sources they read (:meth:`Trajectory.sweep`).
    """
    out = out_dir or config.out_dir
    os.makedirs(out, exist_ok=True)
    grid, metric, measure, u0 = build_problem(config)
    K, prov = _resolve_curvature(config, metric, measure)
    # a phi that is not finite on the grid exits before the solve
    phi = config.build_phi(grid)
    clock: dict[str, float] = {}
    t0 = time.perf_counter()
    traj = solve_heat_flow(metric, measure, u0, config.t_final, config.dt)
    clock["solve"] = time.perf_counter() - t0
    traj.export(os.path.join(out, "fields"))

    manifest = RunManifest(
        config_digest=config.digest,
        tool_version=__version__,
        out_dir=out,
        seed=config.seed,
        n_effective=config.N,
        k_resolved=K,
        k_provenance=prov,
        grid_meta=traj.grid_meta(scheme=SCHEME, n_violations_solve=len(traj.violations)),
        solver_steps=[
            {"time": cert.time, "kappa_max": a.kappa_max, "degenerate_nodes": a.degenerate_nodes,
             "negative_weights": cert.negative_weights, "min_weight": cert.min_weight}
            for a, cert in zip(traj.assemblies, traj.certificate)
        ],
    )
    ctx = CheckContext(config, traj, K, phi)
    swept = [name for name in config.checks if name in semigroup.SWEPT_BY_CHECK]
    if swept:
        # the checks that span the whole record read one sweep of their sources
        t0 = time.perf_counter()
        with _named(f"checks {', '.join(swept)}"):
            traj.sweep(source for name in swept for source in semigroup.SWEPT_BY_CHECK[name])
        clock["sweep"] = time.perf_counter() - t0
    for name in config.checks:
        t0 = time.perf_counter()
        with _named(f"check {name}"):
            reports = CHECKS[name](ctx)
        clock[name] = time.perf_counter() - t0
        path, passed = _write_check(out, name, reports)
        manifest.report_paths[name] = path
        if not passed:
            manifest.failed_checks.append(name)
    manifest.wall_clock = clock
    manifest.write()
    return manifest


def run_ladder(config: ExperimentConfig, out_dir: str | None = None) -> list[RunManifest]:
    """One run per refinement level; levels default to the base resolution."""
    base = out_dir or config.out_dir
    levels = config.ladder or ((config.nodes, config.dt),)
    manifests = []
    for nodes, dt in levels:
        sub = dataclasses.replace(
            config,
            nodes=nodes,
            dt=dt,
            out_dir=os.path.join(base, f"level_{nodes}"),
        )
        manifests.append(run(sub))
    return manifests


def convergence_table(
    manifests: list[RunManifest],
    expected_orders: dict[str, tuple[float, float]] | None = None,
) -> dict:
    """Worst residual per check across a refinement ladder.

    Fits log(residual) against log(h) when every level has a positive
    residual. The round-off checks of :data:`semigroup.ROUNDOFF_CHECKS` get
    no fit: their residuals carry no order in h. A check passes if every
    level's report passed its own tolerance, every residual is finite, and,
    when an expected window is given, the fitted order falls in it.
    """
    expected_orders = expected_orders or {}
    by_check: dict[str, list[tuple[float, float, float]]] = {}
    levels_passed: dict[str, bool] = {}
    for manifest in manifests:
        for name, path in manifest.report_paths.items():
            with open(path) as fh:
                payload = json.load(fh)
            residuals = [float(r["worst_residual"]) for r in payload["reports"]]
            # np.max keeps a NaN wherever it sits; Python's max drops it
            worst = float(np.max(residuals)) if residuals else 0.0
            h = manifest.grid_meta["h"]
            dt = manifest.grid_meta["dt"]
            by_check.setdefault(name, []).append((h, dt, worst))
            levels_passed[name] = levels_passed.get(name, True) and payload["passed"]
    rows = []
    all_pass = True
    for name in sorted(by_check):
        triples = by_check[name]
        residuals = np.asarray([r for _, _, r in triples])
        hs = np.asarray([h for h, _, _ in triples])
        order = None
        roundoff = name in semigroup.ROUNDOFF_CHECKS
        if not roundoff and len(triples) >= 2 and np.all(residuals > 0):
            order = float(np.polyfit(np.log(hs), np.log(residuals), 1)[0])
        passed = levels_passed[name] and bool(np.all(np.isfinite(residuals)))
        if name in expected_orders:
            lo, hi = expected_orders[name]
            passed = passed and order is not None and lo <= order <= hi
        all_pass = all_pass and passed
        levels = [{"h": h, "dt": dt, "worst_residual": r} for h, dt, r in triples]
        rows.append({"check": name, "levels": levels, "fitted_order": order, "passed": passed})
    return {"schema_version": SCHEMA_VERSION, "rows": rows, "passed": all_pass}


def write_convergence_csv(table: dict, path: str) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check", "h", "dt", "worst_residual", "fitted_order", "passed"])
        for row in table["rows"]:
            for level in row["levels"]:
                writer.writerow(
                    [
                        row["check"],
                        level["h"],
                        level["dt"],
                        level["worst_residual"],
                        "" if row["fitted_order"] is None else row["fitted_order"],
                        row["passed"],
                    ]
                )
