"""Uniform pass/fail reports for inequality checks.

Every checker returns an InequalityReport: the two compared sides, the worst
signed residual (positive means violated), where it happened, and the
tolerance that was applied together with how it was derived. Reports, like
every JSON file the package writes, serialize by :func:`json_text` to strict
JSON with sorted keys, so repeated runs produce identical bytes; a NaN or an
infinity is written as the string "nan", "inf" or "-inf".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

#: C of the discretization tolerances: max(C h^2, C dt), and C h^2 for Bochner
DISCRETIZATION_C = 10.0


def json_safe(value):
    """``value`` with every non-finite float, in nested dicts, lists and
    tuples, replaced by the string "nan", "inf" or "-inf", so that it
    serializes as strict JSON; finite values are left as they are."""
    if isinstance(value, dict):
        return {k: json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        return repr(float(value))
    return value


def json_text(payload) -> str:
    """``payload`` as strict JSON with sorted keys, by :func:`json_safe`: the
    one JSON encoder of the package."""
    return json.dumps(json_safe(payload), indent=2, sort_keys=True, default=float, allow_nan=False)


def write_json(path: str, payload) -> str:
    """Write :func:`json_text` of ``payload`` to ``path`` and return the path."""
    with open(path, "w") as fh:
        fh.write(json_text(payload))
    return path


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one quantitative check of lhs <= rhs + tolerance."""

    name: str
    passed: bool
    worst_residual: float
    worst_location: dict
    tolerance: float
    tolerance_rule: str
    n_checked: int
    n_violations: int
    lhs_range: tuple[float, float]
    rhs_range: tuple[float, float]
    grid_meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return json_safe(vars(self))


def compare(
    name: str,
    lhs: np.ndarray,
    rhs: np.ndarray,
    tolerance: float,
    tolerance_rule: str,
    grid_meta: dict | None = None,
) -> InequalityReport:
    """Build a report for the pointwise inequality lhs <= rhs + tolerance.

    The worst location is its flat index; scalar comparisons pass size-1
    arrays. A NaN or infinite residual is a violation, and the first one is
    the worst.
    """
    lhs = np.atleast_1d(np.asarray(lhs, dtype=float))
    rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
    with np.errstate(invalid="ignore"):
        residual = lhs - rhs
    broken = ~np.isfinite(residual)
    worst = int(np.argmax(broken)) if broken.any() else int(np.argmax(residual))
    violations = int(np.count_nonzero(broken | (residual > tolerance)))
    return InequalityReport(
        name=name,
        passed=violations == 0,
        worst_residual=float(residual[worst]),
        worst_location={"index": worst},
        tolerance=float(tolerance),
        tolerance_rule=tolerance_rule,
        n_checked=int(residual.size),
        n_violations=violations,
        lhs_range=(float(np.min(lhs)), float(np.max(lhs))),
        rhs_range=(float(np.min(rhs)), float(np.max(rhs))),
        grid_meta=grid_meta or {},
    )


def compare_discretized(
    name: str, lhs: np.ndarray, rhs: np.ndarray, h: float, dt: float, scale: float,
    what: str, grid_meta: dict,
) -> InequalityReport:
    """:func:`compare` at the discretization tolerance max(C h^2, C dt) *
    max(1, scale), C = :data:`DISCRETIZATION_C`, under the rule text that names
    ``what`` scale; the one place that rule is applied and written. A NaN
    scale gives the factor 1, an infinite one an infinite tolerance."""
    c = DISCRETIZATION_C
    tolerance = max(c * h * h, c * dt) * max(1.0, scale)
    rule = f"max({c:g}h^2, {c:g}dt) * {what} scale"
    return compare(name, lhs, rhs, tolerance, rule, grid_meta=grid_meta)
