"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

A tiny 1-d check config runs in-process, traced and untraced.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import bench_trace  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import write_benchmark_json  # noqa: E402
from finslerheat import cli, heat, numerics  # noqa: E402
from finslerheat.config import load_config  # noqa: E402
from run import ROOT  # noqa: E402
from workloads import HARNACK_SLOTS, WORKLOADS, Workload, write_ini  # noqa: E402

STEPS = 4
N_FIELDS = 2
TINY = Workload(
    name="tiny",
    verb="check",
    why="",
    layers="",
    sections={
        "grid": {"dim": "1", "nodes": "16"},
        "metric": {"family": "euclidean"},
        "initial": {"u": "1 + 0.5*sin(1, 0.3)"},
        "time": {"dt": "1e-3", "t_final": f"{STEPS}e-3"},
        "checks": {"names": "conservative, duality", "N": "2", "n_fields": str(N_FIELDS)},
    },
)


#: two-level ladder of the tiny config
TINY_LADDER = Workload(
    name="tiny-ladder",
    verb="convergence",
    why="",
    layers="",
    sections={**TINY.sections, "ladder": {"levels": "8,2e-3; 16,1e-3"}},
)


def _run(tmp_path, name: str, trace: bool, workload: Workload = TINY):
    """Run the tiny config's verb in ``tmp_path/name``; reports go to its
    ``out``, a relative path, so two runs write the same manifest bytes."""
    config = tmp_path / f"{workload.name}.ini"
    if not config.exists():
        write_ini(workload, 5, str(config))
    cwd = tmp_path / name
    cwd.mkdir()
    os.chdir(cwd)
    out = str(cwd / "out")
    argv = [workload.verb, str(config), "--out", "out"]
    if not trace:
        return cli.main(argv), out, None
    tracer = bench_trace.Tracer()
    with bench_trace.installed(tracer) as missing:
        code = tracer.call(bench_trace.ROOT, cli.main, (argv,), {})
    assert not missing
    return code, out, tracer


@pytest.fixture(autouse=True)
def _restore_cwd(monkeypatch):
    monkeypatch.chdir(os.getcwd())


@pytest.fixture()
def traced(tmp_path):
    return _run(tmp_path, "traced", trace=True)


def test_traced_counts_equal_hand_derived_values(traced):
    code, _, tracer = traced
    assert code == 0
    m = tracer.metrics(set())
    # the solve, conservative (one field) and duality (forward and
    # adjoint of n_fields fields) each advance through every step
    advances = STEPS + STEPS + 2 * N_FIELDS * STEPS
    assert m["heat.advance.calls"] == advances
    assert m["heat.advance.cols"] == advances
    assert m["numerics.cg.calls"] == advances
    assert m["numerics.cg.matvecs"] >= advances
    assert m["heat.solve.calls"] == 1
    assert m["heat.assembly.calls"] == STEPS
    assert m["geometry.gradient_field.calls"] == STEPS
    assert m["metrics.legendre.calls"] == STEPS
    assert m["heat.export.calls"] == 1
    assert m["semigroup.calls"] == 1 + N_FIELDS
    assert m["reporting.compare.calls"] == 1 + N_FIELDS
    assert m["config.load.calls"] == 1
    assert m["runner.build_problem.calls"] == 1
    assert m["geometry.ricci_lower_bound.calls"] == 1
    assert m["harnack.bound_lf.calls"] == 0
    assert m["harnack.bound_lf.s"] == 0.0
    assert m["numerics.cg.stalled"] == 0
    assert m["numerics.cg.converged_frac"] == 1.0
    assert 0.0 < m["numerics.cg.worst_rel_resid"] <= bench_trace.CG_CEILING
    assert set(m) == {name for name, _, _ in bench_trace.metric_specs()}


def test_span_children_stay_within_their_parent(traced):
    spans = traced[2].spans
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        assert end >= start
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            assert p_start <= start and end <= p_end, name
            covered[parent] += end - start
    for (name, start, end, _), inner in zip(spans, covered):
        assert inner <= (end - start) + 1e-12, name
    assert spans[0][0] == bench_trace.ROOT
    assert all(agg["self_s"] >= -1e-12 for agg in traced[2].totals().values())


def test_traced_reports_are_byte_identical(tmp_path):
    _, plain, _ = _run(tmp_path, "plain", trace=False)
    _, traced_out, _ = _run(tmp_path, "traced", trace=True)
    assert gate.compare_reports(gate.report_bytes(plain), gate.report_bytes(traced_out)) == []


def test_wrappers_are_removed_after_the_block():
    advance, cg = heat.DiffusionAssembly.advance, heat.cg_measure
    with bench_trace.installed(bench_trace.Tracer()):
        assert heat.DiffusionAssembly.advance is not advance
        assert heat.cg_measure is not cg
    assert heat.DiffusionAssembly.advance is advance
    assert heat.cg_measure is cg


def test_residual_check_is_left_out_of_enclosing_spans():
    tracer = bench_trace.Tracer()
    tracer.spans = [
        [bench_trace.ROOT, 0.0, 10.0, -1],
        ["heat.advance", 1.0, 6.0, 0],
        ["numerics.cg", 1.5, 4.0, 1],
        [bench_trace.RESID, 4.0, 5.0, 1],
    ]
    totals = tracer.totals()
    assert totals[bench_trace.ROOT] == {"calls": 1, "s": 9.0, "self_s": 5.0}
    assert totals["heat.advance"] == {"calls": 1, "s": 4.0, "self_s": 1.5}
    assert totals["numerics.cg"] == {"calls": 1, "s": 2.5, "self_s": 2.5}


def test_unexpected_solver_is_timed_without_counters(monkeypatch):
    def block_cg(apply_op, rhs, sigma, x0=None, rel_tol=1e-13):
        return np.linalg.solve(np.eye(len(rhs)) + np.diag(sigma), rhs)

    def renamed_cg(op, b, weights):
        return b

    m = {}
    for fn, rhs in ((block_cg, np.ones((3, 2))), (renamed_cg, np.ones(3))):
        monkeypatch.setattr(numerics, "cg_measure", fn)
        tracer = bench_trace.Tracer()
        with bench_trace.installed(tracer) as missing:
            numerics.cg_measure(None, rhs, np.ones(3))
        m = tracer.metrics(missing)
        assert m["numerics.cg.calls"] == 1 and m["numerics.cg.s"] >= 0.0
        extras = [k for k, _, _ in bench_trace.EXTRA_METRICS if k.startswith("numerics.cg.")]
        assert all(m[k] == bench_trace.NO_VALUE for k in extras)


def test_missing_layer_reports_no_value(monkeypatch):
    monkeypatch.delattr(numerics, "cg_measure")
    tracer = bench_trace.Tracer()
    with bench_trace.installed(tracer) as missing:
        pass
    assert "numerics.cg" in missing
    m = tracer.metrics(missing)
    cg = {k: v for k, v in m.items() if k.startswith("numerics.cg.")}
    assert len(cg) == 8 and all(v == bench_trace.NO_VALUE for v in cg.values())
    assert m["heat.advance.calls"] == 0 and m["heat.advance.s"] == 0.0
    assert m["heat.advance.us_per_col"] == bench_trace.NO_VALUE
    assert all(isinstance(v, (int, float)) for v in m.values())


def test_gate_accepts_a_good_run_and_flags_bad_ones(tmp_path):
    code, out, _ = _run(tmp_path, "plain", trace=False)
    final = gate.read_field(gate.final_field_file(os.path.join(out, "fields")))
    refs = {"final": final, "density_ratio": 1.0}
    assert gate.check_run(TINY, out, code, refs) == ([], [])

    problems, _ = gate.check_run(TINY, out, code, dict(refs, final=final + 1e-6))
    assert any("differs from the reference" in p for p in problems)

    assert gate.check_run(TINY, out, 2, refs)[0] == ["exit code 2"]

    # a failing verdict the baseline passes fails the run
    path = os.path.join(out, "check_duality.json")
    with open(path) as fh:
        payload = json.load(fh)
    payload["passed"] = False
    with open(path, "w") as fh:
        json.dump(payload, fh)
    problems, failing = gate.check_run(TINY, out, 1, refs)
    assert failing == ["duality"]
    assert any("pass at the baseline" in p for p in problems)

    payload["reports"][0]["worst_residual"] = float("nan")
    with open(path, "w") as fh:
        json.dump(payload, fh)
    problems, _ = gate.check_run(TINY, out, 1, refs)
    assert any("non-finite" in p for p in problems)

    os.remove(path)
    problems, _ = gate.check_run(TINY, out, 1, refs)
    assert problems and problems[0].startswith("missing reports")


def _set_passed(path: str, passed: bool) -> None:
    with open(path) as fh:
        payload = json.load(fh)
    payload["passed"] = passed
    with open(path, "w") as fh:
        json.dump(payload, fh)


def test_gate_flags_a_failing_ladder_level(tmp_path):
    code, out, _ = _run(tmp_path, "ladder", trace=False, workload=TINY_LADDER)
    refs = {"density_ratio": 1.0}
    for sub, _, _ in TINY_LADDER.solves():
        refs[sub] = gate.read_field(gate.final_field_file(os.path.join(out, sub, "fields")))
    assert gate.check_run(TINY_LADDER, out, code, refs) == ([], [])

    # a level check FAILs while every convergence row still passes
    _set_passed(os.path.join(out, "level_16", "check_duality.json"), False)
    problems, failing = gate.check_run(TINY_LADDER, out, code, refs)
    assert failing == []
    assert problems == ["level_16: checks FAIL that pass at the baseline: ['duality']"]


def test_manifest_wall_clock_is_the_only_exempt_field(tmp_path):
    _, a, _ = _run(tmp_path, "a", trace=False)
    _, b, _ = _run(tmp_path, "b", trace=False)
    ra, rb = gate.report_bytes(a), gate.report_bytes(b)
    assert gate.compare_reports(ra, rb) == []
    rb["check_duality.json"] += b" "
    assert gate.compare_reports(ra, rb) == ["check_duality.json"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_configs_follow_the_seed(tmp_path, name):
    workload = WORKLOADS[name]
    paths = [tmp_path / f"{seed}-{i}.ini" for seed in (1, 2) for i in (0, 1)]
    for path in paths:
        write_ini(workload, int(path.name[0]), str(path))
    texts = [p.read_text() for p in paths]
    assert texts[0] == texts[1] and texts[2] == texts[3]
    config = load_config(str(paths[0]))
    assert list(config.checks) == workload.checks()
    if workload.checks():
        assert texts[0] != texts[2]
    else:
        assert texts[0] == texts[2]
    if "harnack" in workload.checks():
        nodes = config.nodes
        assert len(config.harnack_pairs) == len(HARNACK_SLOTS)
        for (x1, t1, x2, t2), (k1, k2, dx, dy) in zip(config.harnack_pairs, HARNACK_SLOTS):
            assert 0.002 <= t1 <= 0.01 and t1 < t2 <= config.t_final
            assert (t1, t2) == pytest.approx((k1 * config.dt, k2 * config.dt))
            assert ((x2 // nodes - x1 // nodes) % nodes, (x2 - x1) % nodes) == (dx % nodes, dy % nodes)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_holds_every_metric_as_a_number(capsys, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    specs = manifest["per_layer" if trace else "end_to_end"]
    args = ["--workload", "bounds-2d", "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(args) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {m["name"]: m["unit"] for m in specs}
    assert all(type(v["value"]) in (int, float) for v in line["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_benchmark_json_matches_the_definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == write_benchmark_json.benchmark()


def test_references_cover_every_solve():
    for name, workload in WORKLOADS.items():
        refs = np.load(os.path.join(HERE, "reference", f"{name}.npz"))
        for sub, nodes, _ in workload.solves():
            dim = int(workload.sections["grid"]["dim"])
            assert refs[sub or "final"].shape == (nodes**dim,)
        assert refs["density_ratio"] >= 1.0
