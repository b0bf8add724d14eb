"""Command line front end.

Verbs:

* ``solve``: run the configured flow, write field snapshots, no checks.
* ``check``: run the configured check suite; exit 0 iff all pass.
* ``convergence``: run the refinement ladder and fit residual orders.
* ``psi``: dump the concave envelope as a CSV table (pure function).
* ``harnack-bounds``: print bound values for given parameters (pure
  formula, no solve).

Output directory precedence: ``--out`` flag, then the FINSLERHEAT_OUT
environment variable, then the config's ``[output] dir``.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from ._version import __version__
from .config import load_config
from .errors import ConfigError, DomainError, FinslerHeatError
from .harnack import harnack_bound_integral, harnack_bound_lf, theta_descriptor
from .liyau import LiYauProfile, PsiEvaluator, alpha_phi
from .reporting import json_text, write_json
from .runner import (
    build_problem,
    convergence_table,
    run,
    run_ladder,
    write_convergence_csv,
)

ENV_OUT = "FINSLERHEAT_OUT"


def _resolve_out(flag_value: str | None, config_value: str) -> str:
    return flag_value or os.environ.get(ENV_OUT) or config_value


def _cmd_solve(args) -> int:
    from .heat import Trajectory, heat_flow

    config = load_config(args.config)
    out = _resolve_out(args.out, config.out_dir)
    grid, metric, measure, u0 = build_problem(config)
    violations: list[dict] = []
    # the export reads only u0 and the last field: keep no other step
    for t, last, assembly in heat_flow(metric, measure, u0, config.t_final, config.dt, violations):
        pass
    ends = Trajectory(metric, measure, [0.0, t], [u0.values, last], [], assembly.dt, violations)
    ends.export(os.path.join(out, "fields"))
    print(f"solved {config.descriptor.family} flow to t={config.t_final}; fields in {out}/fields")
    if violations:
        print(f"note: {len(violations)} solver monitor entries recorded")
    return 0


def _cmd_check(args) -> int:
    config = load_config(args.config)
    if args.only is not None:
        wanted = tuple(n.strip() for n in args.only.split(",") if n.strip())
        missing = [n for n in wanted if n not in config.checks]
        if missing:
            raise ConfigError(f"checks not in config: {missing}")
        if not wanted:
            raise ConfigError("--only names no check")
        config = dataclasses.replace(config, checks=wanted)
    out = _resolve_out(args.out, config.out_dir)
    manifest = run(config, out_dir=out)
    for name in config.checks:
        status = "FAIL" if name in manifest.failed_checks else "ok"
        print(f"{status:4s} {name}  ({manifest.report_paths[name]})")
    print(f"{manifest.n_failed} of {len(config.checks)} checks failed")
    return 0 if manifest.n_failed == 0 else 1


def _cmd_convergence(args) -> int:
    config = load_config(args.config)
    out = _resolve_out(args.out, config.out_dir)
    manifests = run_ladder(config, out_dir=out)
    table = convergence_table(manifests)
    write_json(os.path.join(out, "convergence.json"), table)
    write_convergence_csv(table, os.path.join(out, "convergence.csv"))
    for row in table["rows"]:
        order = row["fitted_order"]
        order_text = "n/a" if order is None else f"{order:.2f}"
        status = "ok" if row["passed"] else "FAIL"
        print(f"{status:4s} {row['check']}  order={order_text}")
    return 0 if table["passed"] else 1


def _cmd_psi(args) -> int:
    ev = PsiEvaluator(args.N, args.K, args.t)
    hi = args.x_hi if args.x_hi is not None else ev.x_max - 1e-6 * abs(ev.x_max)
    if not (math.isfinite(args.x_lo) and math.isfinite(hi) and args.count >= 1):
        raise DomainError("psi needs a finite --x-lo and --x-hi and --count >= 1")
    xs = np.linspace(args.x_lo, hi, args.count)
    lines = ["x,psi,psi_prime,psi_tilde"]
    for x in xs:
        lines.append(
            f"{x:.12g},{ev.psi(x):.12g},{ev.psi_prime(x):.12g},{ev.psi_tilde(x):.12g}"
        )
    text = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.count} rows to {args.out}")
    else:
        print(text)
    return 0


def _cmd_harnack_bounds(args) -> int:
    payload = {"N": args.N, "K": args.K, "d": args.d, "t1": args.t1, "t2": args.t2}
    if args.mode in ("lf", "both"):
        desc = theta_descriptor(args.N, args.K, args.t1)
        payload["lf_bound"] = harnack_bound_lf(desc, args.d, args.t1, args.t2)
    if args.mode in ("integral", "both"):
        if args.K == 0.0:
            profile = LiYauProfile.quadratic()
        else:
            profile = LiYauProfile.lixu(args.K)
        coeffs = alpha_phi(profile, args.K, args.N, args.t2 * (1.0 + 1e-9))
        payload["integral_bound"] = harnack_bound_integral(
            coeffs, args.d, args.t1, args.t2
        )
        payload["integral_profile"] = profile.variant
    print(json_text(payload))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finslerheat",
        description="Nonlinear heat flow on flat weighted tori with "
        "quantitative inequality checks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("solve", help="solve the configured flow")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="output directory override")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("check", help="run the configured check suite")
    p.add_argument("config")
    p.add_argument("--only", default=None, help="comma list of check names")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("convergence", help="run the refinement ladder")
    p.add_argument("config")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_convergence)

    p = sub.add_parser("psi", help="dump the concave envelope as CSV")
    p.add_argument("--N", type=float, required=True)
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x-lo", dest="x_lo", type=float, default=-2.0)
    p.add_argument("--x-hi", dest="x_hi", type=float, default=None)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_psi)

    p = sub.add_parser("harnack-bounds", help="print bound values")
    p.add_argument("--N", type=float, required=True)
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--t2", type=float, required=True)
    p.add_argument("--mode", choices=("lf", "integral", "both"), default="both")
    p.set_defaults(fn=_cmd_harnack_bounds)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FinslerHeatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
