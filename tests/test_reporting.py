"""Inequality reports: a NaN or an infinity never passes, and reports are
strict JSON."""

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from finslerheat import (
    EuclideanNorm,
    MeasureField,
    MetricField,
    RandersNorm,
    ScalarField,
    TorusGrid,
    harnack,
    heat,
    reporting,
    semigroup,
    solve_heat_flow,
)
from finslerheat.reporting import compare, compare_discretized
from finslerheat.runner import _write_check


def test_non_finite_residuals_fail():
    cases = [
        (np.full(3, np.nan), np.zeros(3), 0),
        (np.array([np.inf]), np.array([np.inf]), 0),
        (np.array([0.0, np.nan]), np.zeros(2), 1),
        (np.array([1.0, 2.0, -np.inf]), np.zeros(3), 2),
    ]
    for lhs, rhs, first in cases:
        rep = compare("c", lhs, rhs, 10.0, "rule")
        assert not rep.passed
        assert rep.n_violations >= 1
        assert rep.worst_location == {"index": first}


finite = st.floats(-1e6, 1e6)


@given(
    lhs=hnp.arrays(np.float64, st.integers(1, 30), elements=finite),
    rhs=hnp.arrays(np.float64, st.integers(1, 30), elements=finite),
    bad=st.lists(
        st.tuples(st.integers(0, 29), st.sampled_from([np.nan, np.inf, -np.inf])),
        min_size=1,
        max_size=5,
    ),
    tolerance=st.floats(0.0, 1e300),
)
def test_any_non_finite_residual_fails(lhs, rhs, bad, tolerance):
    size = min(lhs.size, rhs.size)
    lhs, rhs = lhs[:size].copy(), rhs[:size].copy()
    for index, value in bad:
        lhs[index % size] = value
    residual = lhs - rhs
    broken = np.flatnonzero(~np.isfinite(residual))
    rep = compare("c", lhs, rhs, tolerance, "rule")
    assert not rep.passed
    assert rep.n_violations >= broken.size
    assert rep.worst_location == {"index": int(broken[0])}


def _strict_load(text):
    def reject(token):
        raise ValueError(f"bare {token} is not JSON")

    return json.loads(text, parse_constant=reject)


def _dumps(rep):
    """A report serialized the way the runner writes it."""
    return json.dumps(rep.to_dict(), indent=2, sort_keys=True, allow_nan=False)


def test_non_finite_reports_are_strict_json(tmp_path):
    rep = compare(
        "c", np.full(3, np.nan), np.full(3, np.nan), np.inf, "rule",
        grid_meta={"N": float("inf"), "K": -np.inf},
    )
    payload = _strict_load(_dumps(rep))
    assert payload["worst_residual"] == "nan"
    assert payload["tolerance"] == "inf"
    assert payload["lhs_range"] == ["nan", "nan"]
    assert payload["grid_meta"] == {"K": "-inf", "N": "inf"}
    path, passed = _write_check(str(tmp_path), "c", [rep])
    assert not passed
    with open(path) as fh:
        assert _strict_load(fh.read())["reports"][0]["worst_residual"] == "nan"


def test_finite_report_bytes_are_unchanged():
    rep = compare("c", np.array([0.5, -1.0]), np.zeros(2), 1.0, "rule", grid_meta={"h": 0.1})
    fields = {
        "name": "c",
        "passed": True,
        "worst_residual": 0.5,
        "worst_location": {"index": 0},
        "tolerance": 1.0,
        "tolerance_rule": "rule",
        "n_checked": 2,
        "n_violations": 0,
        "lhs_range": [-1.0, 0.5],
        "rhs_range": [0.0, 0.0],
        "grid_meta": {"h": 0.1},
    }
    assert _dumps(rep) == json.dumps(fields, indent=2, sort_keys=True)


def test_discretized_compare_applies_and_states_one_rule():
    lhs, rhs = np.array([1.0, 2.0]), np.array([1.5, 1.0])
    h, dt = 0.05, 1e-3
    for scale, factor in ((3.5, 3.5), (0.2, 1.0), (np.nan, 1.0), (np.inf, np.inf)):
        rep = compare_discretized("c", lhs, rhs, h, dt, scale, "residual", {"h": h})
        # the tolerance is max(10 h^2, 10 dt) * max(1, scale): max(1, nan) is 1
        assert rep.tolerance == max(10.0 * h * h, 10.0 * dt) * factor
        assert rep.tolerance_rule == "max(10h^2, 10dt) * residual scale"
        plain = compare("c", lhs, rhs, rep.tolerance, rep.tolerance_rule, grid_meta={"h": h})
        assert rep == plain


@pytest.fixture(scope="module")
def weighted_run():
    grid = TorusGrid(1, 16)
    x = grid.coordinates()[:, 0]
    measure = MeasureField(grid, 0.3 * np.cos(2 * math.pi * x))
    u0 = ScalarField(grid, 1.0 + 0.5 * np.sin(2 * math.pi * x + 0.3))
    return solve_heat_flow(MetricField(grid, EuclideanNorm(1)), measure, u0, 4e-3, 1e-3)


def _fields(traj, count=2, seed=3):
    rng = np.random.default_rng(seed)
    return [ScalarField(traj.grid, np.exp(0.3 * rng.standard_normal(traj.grid.n_nodes)))
            for _ in range(count)]


def _exact_kernel_report(_traj):
    grid = TorusGrid(1, 16)
    flow = harnack.CallableFlow(
        MetricField(grid, EuclideanNorm(1)),
        lambda points, t: 1.0 + np.exp(-4 * math.pi**2 * t) * np.cos(2 * math.pi * points[:, 0]),
    )
    return harnack.verify_harnack(flow, 0, 0.02, 5, 0.05, "lf", N=1.0, K=0.0)


@functools.cache
def _uncertified_run():
    """Two steps of a 16^2 Randers flow with negative axis weights (a = 0.5,
    0.9, 2.0), so that the Markov checks probe kernel entries and their
    tolerance decides."""
    grid = TorusGrid(2, 16)
    x, y = grid.coordinates().T
    u0 = 1.0 + 0.4 * np.sin(2 * math.pi * x + 0.3) + 0.2 * np.cos(2 * math.pi * (x + y))
    norm = RandersNorm(np.array([[0.5, 0.9], [0.9, 2.0]]), np.array([0.1, 0.1]))
    metric = MetricField(grid, norm)
    traj = solve_heat_flow(metric, MeasureField.lebesgue(grid), ScalarField(grid, u0), 2e-3, 1e-3)
    assert not any(cert.certified for cert in traj.certificate)
    return traj


def _on_uncertified(*names):
    """The Markov reports ``names`` on :func:`_uncertified_run`, in place of
    the given run."""
    return lambda _traj: semigroup.markov_reports(_uncertified_run(), list(names))


#: (module, constant, check): every tolerance constant with a check it sets
TOLERANCE_CONSTANTS = {
    "roundoff-conservative": (semigroup, "ROUNDOFF", semigroup.check_conservative),
    "roundoff-duality": (semigroup, "ROUNDOFF", semigroup.check_duality),
    "roundoff-law": (semigroup, "ROUNDOFF", semigroup.check_semigroup_law),
    "solver-positivity": (semigroup, "SOLVER_TOL", _on_uncertified("positivity")),
    "solver-contraction": (
        semigroup, "SOLVER_TOL",
        _on_uncertified("contraction-l1", "contraction-l2", "contraction-linf"),
    ),
    "solver-order": (semigroup, "SOLVER_TOL", _on_uncertified("order-bounds")),
    "solver-cauchy-schwarz": (semigroup, "SOLVER_TOL", _on_uncertified("cauchy-schwarz")),
    "variance": (
        semigroup, "VARIANCE_C", lambda traj: semigroup.variance_identity(traj, _fields(traj))
    ),
    "discretization": (reporting, "DISCRETIZATION_C", semigroup.laplacian_commutation),
    "discretization-bochner": (
        heat, "DISCRETIZATION_C",
        lambda traj: heat.bochner_report(traj.metric, traj.measure, traj.field_at(0), 4.0),
    ),
    "exact-kernel": (harnack, "EXACT_KERNEL_TOL", _exact_kernel_report),
}


@pytest.mark.parametrize(
    "module, constant, check", TOLERANCE_CONSTANTS.values(), ids=TOLERANCE_CONSTANTS.keys()
)
def test_each_tolerance_rule_is_formatted_from_its_constant(
    weighted_run, monkeypatch, module, constant, check
):
    # a rule text that types its number would keep it when the constant moves
    def first():
        reports = check(weighted_run)
        return reports[0] if isinstance(reports, list) else reports

    old = getattr(module, constant)
    before = first()
    monkeypatch.setattr(module, constant, 3.0 * old)
    after = first()
    assert f"{old:g}" in before.tolerance_rule
    assert after.tolerance_rule == before.tolerance_rule.replace(f"{old:g}", f"{3.0 * old:g}")
    assert after.tolerance == pytest.approx(3.0 * before.tolerance, rel=1e-12)
    assert after.worst_residual == before.worst_residual
