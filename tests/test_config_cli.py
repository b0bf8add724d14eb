"""Config parsing, the batch runner, and the command line front end."""

import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finslerheat
from finslerheat.cli import main
from finslerheat.config import (
    ExperimentConfig,
    config_hash,
    load_config,
    parse_expression,
)
from finslerheat.errors import ConfigError
from finslerheat.heat import DiffusionAssembly, solve_heat_flow
from finslerheat.liyau import LiYauProfile, alpha_phi, residual_linear
from finslerheat.metrics import RandersNorm
from finslerheat.semigroup import ROUNDOFF_CHECKS
from finslerheat.runner import (
    CHECKS,
    RunManifest,
    build_problem,
    convergence_table,
    run,
    run_ladder,
    write_convergence_csv,
)


def write_ini(tmp_path, *parts, name="exp.ini"):
    # each part carries its own indentation, so dedent them separately
    path = tmp_path / name
    path.write_text("".join(textwrap.dedent(p) for p in parts))
    return str(path)


GOOD = """\
    [grid]
    dim = 1
    nodes = 32
    period = 1.0

    [measure]
    f = 0.2*cos(1)

    [initial]
    u = 1 + 0.5*sin(1)

    [time]
    dt = 1e-3
    t_final = 5e-3
    """


# ---------------------------------------------------------------- expressions


def test_constant_expression():
    fn = parse_expression("2.5", 1, 1.0)
    pts = np.linspace(0.0, 1.0, 9).reshape(-1, 1)
    assert np.array_equal(fn(pts), np.full(9, 2.5))


def test_single_mode_matches_direct_evaluation():
    fn = parse_expression("0.3*cos(2)", 1, 1.0)
    x = np.linspace(0.0, 1.0, 17)
    expected = 0.3 * np.cos(2.0 * math.pi * 2.0 * x)
    assert fn(x.reshape(-1, 1)) == pytest.approx(expected, abs=1e-15)


def test_sum_with_phase():
    fn = parse_expression("1 + 0.5*sin(1, 0.3)", 1, 1.0)
    x = np.linspace(0.0, 1.0, 13)
    expected = 1.0 + 0.5 * np.sin(2.0 * math.pi * x + 0.3)
    assert fn(x.reshape(-1, 1)) == pytest.approx(expected, abs=1e-15)


def test_nonunit_period_rescales_the_angle():
    fn = parse_expression("sin(1)", 1, 2.0)
    x = np.array([0.5])
    assert fn(x.reshape(-1, 1)) == pytest.approx(np.sin(math.pi * 0.5))


def test_two_dimensional_term():
    fn = parse_expression("cos(1, 2) + 0.2*sin(1, -1, 0.25)", 2, 1.0)
    pts = np.array([[0.1, 0.3], [0.7, 0.2]])
    ang1 = 2.0 * math.pi * (pts[:, 0] + 2.0 * pts[:, 1])
    ang2 = 2.0 * math.pi * (pts[:, 0] - pts[:, 1]) + 0.25
    assert fn(pts) == pytest.approx(np.cos(ang1) + 0.2 * np.sin(ang2), abs=1e-15)


@pytest.mark.parametrize(
    "expr, message",
    [
        ("1 + + 2", "empty term"),
        ("exp(1)", "not in the expression whitelist"),
        ("cos(1.5)", "not an integer"),
        ("cos(a)", "bad arguments"),
        ("cos(1, 2, 3, 4)", "1-d trig term takes"),
    ],
)
def test_rejected_expressions_1d(expr, message):
    with pytest.raises(ConfigError, match=message):
        parse_expression(expr, 1, 1.0)


def test_rejected_arity_2d():
    with pytest.raises(ConfigError, match="2-d trig term takes"):
        parse_expression("cos(1)", 2, 1.0)


# ------------------------------------------------------------- config loading


def test_minimal_config_gets_documented_defaults(tmp_path):
    path = write_ini(
        tmp_path,
        """\
        [grid]
        nodes = 16

        [time]
        dt = 1e-3
        t_final = 1e-2
        """,
    )
    config = load_config(path)
    assert config.dim == 1
    assert config.nodes == 16
    assert config.period == 1.0
    assert config.descriptor.family == "euclidean"
    assert config.f_expr == "0"
    assert config.u0_expr == "1"
    assert config.checks == ()
    assert math.isinf(config.N)
    assert config.K is None
    assert config.profile == "quadratic"
    assert config.seed == 1234
    assert config.n_fields == 20
    assert config.s_time == 0.0
    assert config.phi_expr == "1"
    assert config.harnack_pairs == ()
    assert config.harnack_mode == "lf"
    assert config.out_dir == "runs"
    assert config.ladder == ()


@pytest.mark.parametrize(
    "text, message",
    [
        ("[grid]\nnodes = 16\n", r"needs \[grid\] and \[time\]"),
        (
            "[grid]\ndim = 3\n[time]\ndt = 1e-3\nt_final = 1e-2\n",
            "dim must be 1 or 2",
        ),
        (
            "[grid]\nnodes = 7\n[time]\ndt = 1e-3\nt_final = 1e-2\n",
            "at least 8 nodes",
        ),
        (
            "[grid]\nperiod = 0\n[time]\ndt = 1e-3\nt_final = 1e-2\n",
            "period must be positive",
        ),
        ("[grid]\n[time]\ndt = 1e-3\n", r"\[time\] needs dt and t_final"),
        ("[grid]\n[time]\ndt = 2e-2\nt_final = 1e-2\n", "0 < dt <= t_final"),
        *(
            (
                f"[grid]\n[time]\ndt = 1e-3\nt_final = 1e-2\nscheme = {scheme}\n",
                r"\[time\] scheme must be implicit_euler",
            )
            for scheme in ("magic", "crank_nicolson", "explicit")
        ),
        (
            "[grid]\n[time]\ndt = 1e-3\nt_final = 1e-2\n"
            "[checks]\nnames = frobnicate\n",
            "unknown check 'frobnicate'",
        ),
        (
            "[grid]\ndim = 2\nnodes = 8\n[time]\ndt = 1e-3\nt_final = 1e-2\n"
            "[checks]\nN = 1.5\n",
            "effective dimension below",
        ),
        (
            "[grid]\n[time]\ndt = 1e-3\nt_final = 1e-2\n"
            "[checks]\nharnack_mode = magic\n",
            "harnack_mode must be",
        ),
        (
            "[grid]\n[time]\ndt = 1e-3\nt_final = 1e-2\n"
            "[checks]\nharnack_pairs = 1,0.01\n",
            "harnack pair needs",
        ),
        (
            "[grid]\n[time]\ndt = 1e-3\nt_final = 1e-2\n"
            "[ladder]\nlevels = 16, 1e-3; 16, 1e-3\n",
            "ladder must refine",
        ),
        (
            "[grid]\n[time]\ndt = 1e-3\nt_final = 1e-2\n"
            "[ladder]\nlevels = 16, 1e-3; 32, 2e-3\n",
            "ladder must refine",
        ),
        (
            "[grid]\n[time]\ndt = 1e-3\nt_final = 1e-2\n"
            "[initial]\nu = tan(1)\n",
            "not in the expression whitelist",
        ),
    ],
)
def test_rejected_configs(tmp_path, text, message):
    path = write_ini(tmp_path, text)
    with pytest.raises(ConfigError, match=message):
        load_config(path)


def test_inadmissible_drift_is_a_config_error(tmp_path):
    path = write_ini(
        tmp_path,
        GOOD,
        """\
        [metric]
        family = randers
        b = 1.5
        """,
    )
    with pytest.raises(ConfigError, match="inadmissible metric"):
        load_config(path)


def test_short_tensor_rejected_in_2d(tmp_path):
    path = write_ini(
        tmp_path,
        """\
        [grid]
        dim = 2
        nodes = 8

        [metric]
        family = riemannian
        a = 1, 0

        [time]
        dt = 1e-3
        t_final = 1e-2
        """,
    )
    with pytest.raises(ConfigError, match="a11,a12,a22"):
        load_config(path)


def test_asym1d_rejected_in_2d(tmp_path):
    path = write_ini(
        tmp_path,
        """\
        [grid]
        dim = 2
        nodes = 8

        [metric]
        family = asym1d

        [time]
        dt = 1e-3
        t_final = 1e-2
        """,
    )
    with pytest.raises(ConfigError, match="one-dimensional"):
        load_config(path)


def test_unknown_family_rejected(tmp_path):
    path = write_ini(tmp_path, GOOD, "[metric]\nfamily = taxicab\n")
    with pytest.raises(ConfigError, match="unknown metric family"):
        load_config(path)


def test_randers_descriptor_round_trip(tmp_path):
    path = write_ini(
        tmp_path,
        GOOD,
        """\
        [metric]
        family = randers
        b = 0.3
        """,
    )
    config = load_config(path)
    assert config.descriptor.family == "randers"
    assert isinstance(config.descriptor, RandersNorm)
    assert config.descriptor.b == pytest.approx([0.3])


def test_harnack_nodes_must_fit_the_smallest_ladder_grid(tmp_path):
    # node 20 exists on the 32-node grid but not on the 16-node level
    pairs = "[checks]\nnames = harnack\nharnack_pairs = 20,0.002,3,0.004\n"
    assert load_config(write_ini(tmp_path, GOOD, pairs)).harnack_pairs
    ladder = "[ladder]\nlevels = 16,1e-3; 32,5e-4\n"
    with pytest.raises(ConfigError, match=r"node 20 outside \[0, 16\)"):
        load_config(write_ini(tmp_path, GOOD, pairs, ladder))


def test_harnack_pairs_and_ladder_parse(tmp_path):
    path = write_ini(
        tmp_path,
        GOOD,
        """\
        [checks]
        harnack_pairs = 0, 1e-3, 5, 4e-3; 2, 2e-3, 2, 5e-3
        harnack_mode = integral
        N = 4

        [ladder]
        levels = 16, 2e-3; 32, 1e-3
        """,
    )
    config = load_config(path)
    assert config.harnack_pairs == ((0, 1e-3, 5, 4e-3), (2, 2e-3, 2, 5e-3))
    assert config.harnack_mode == "integral"
    assert config.ladder == ((16, 2e-3), (32, 1e-3))


def test_digest_is_stable_and_newline_insensitive(tmp_path):
    path = write_ini(tmp_path, GOOD)
    first = load_config(path)
    second = load_config(path)
    assert first.digest == second.digest
    crlf = textwrap.dedent(GOOD).replace("\n", "\r\n")
    assert config_hash(crlf) == first.digest
    other = write_ini(tmp_path, GOOD, "# trailing note\n", name="other.ini")
    assert load_config(other).digest != first.digest


def test_builders_evaluate_expressions_on_the_grid(tmp_path):
    path = write_ini(tmp_path, GOOD, "[checks]\nphi = 0.1*cos(2)\n")
    config = load_config(path)
    grid = config.build_grid()
    assert grid.n_nodes == 32
    x = grid.coordinates()[:, 0]
    measure = config.build_measure(grid)
    assert measure.f == pytest.approx(0.2 * np.cos(2.0 * math.pi * x))
    u0 = config.build_initial(grid)
    assert u0.values == pytest.approx(1.0 + 0.5 * np.sin(2.0 * math.pi * x))
    phi = config.build_phi(grid)
    assert phi.values == pytest.approx(0.1 * np.cos(2.0 * math.pi * 2.0 * x))
    # refinement override used by the ladder driver
    assert config.build_grid(nodes=16).n_nodes == 16


def test_inline_comments_are_stripped(tmp_path):
    path = write_ini(
        tmp_path,
        """\
        [grid]
        nodes = 16  # per axis

        [time]
        dt = 1e-3
        t_final = 1e-2  ; two steps of ten
        """,
    )
    assert load_config(path).nodes == 16


# --------------------------------------------------------------------- runner


def checked_config(tmp_path, checks_block, base=GOOD):
    path = write_ini(tmp_path, base, checks_block)
    return load_config(path)


def test_run_writes_manifest_and_reports(tmp_path):
    config = checked_config(
        tmp_path,
        """\
        [checks]
        names = conservative, duality, positivity
        n_fields = 2
        """,
    )
    out = str(tmp_path / "out")
    manifest = run(config, out_dir=out)
    assert manifest.n_failed == 0
    assert manifest.failed_checks == []
    assert manifest.k_provenance in ("analytic", "sampled")
    assert manifest.grid_meta["nodes_per_axis"] == 32
    assert manifest.grid_meta["family"] == "euclidean"
    assert set(manifest.wall_clock) == {"solve", "conservative", "duality", "positivity"}
    with open(os.path.join(out, "manifest.json")) as fh:
        on_disk = json.load(fh)
    assert on_disk["schema_version"] == 1
    assert on_disk["config_digest"] == config.digest
    assert sorted(on_disk["report_paths"]) == ["conservative", "duality", "positivity"]
    for name in config.checks:
        with open(manifest.report_paths[name]) as fh:
            payload = json.load(fh)
        assert payload["check"] == name
        assert payload["passed"] is True
        assert all("worst_residual" in r for r in payload["reports"])
    assert os.path.isdir(os.path.join(out, "fields"))


def test_manifest_records_solver_health_per_step(tmp_path):
    config = checked_config(
        tmp_path,
        """\
        [checks]
        names = conservative
        """,
    )
    out = str(tmp_path / "out")
    run(config, out_dir=out)
    with open(os.path.join(out, "manifest.json")) as fh:
        text = fh.read()
    # strict JSON: the default N = inf is written as a string
    on_disk = json.loads(text, parse_constant=lambda token: pytest.fail(token))
    assert on_disk["n_effective"] == "inf"
    steps = on_disk["solver_steps"]
    assert len(steps) == round(config.t_final / config.dt)
    for k, step in enumerate(steps):
        assert step["time"] == pytest.approx(k * config.dt)
        assert step["degenerate_nodes"] >= 0
        assert math.isfinite(step["kappa_max"]) and step["kappa_max"] > 0.0
        # every 1-d weight is positive: each step is certified
        assert step["negative_weights"] == 0 and step["min_weight"] > 0.0


def test_run_is_deterministic_for_a_fixed_config(tmp_path):
    config = checked_config(
        tmp_path,
        """\
        [checks]
        names = duality, contraction
        n_fields = 3
        """,
    )
    m1 = run(config, out_dir=str(tmp_path / "a"))
    m2 = run(config, out_dir=str(tmp_path / "b"))
    for name in config.checks:
        with open(m1.report_paths[name]) as fh:
            a = json.load(fh)
        with open(m2.report_paths[name]) as fh:
            b = json.load(fh)
        assert a == b


def test_block_transport_reports_match_one_column_at_a_time(tmp_path, monkeypatch):
    # the checks move blocks of 1, 2, 5 and 15 columns, and duality an
    # adjoint block of 5; every report must keep its bytes when each column
    # is stepped alone
    base = """\
        [grid]
        dim = 2
        nodes = 16

        [metric]
        family = randers
        a = 1.0, 0.2, 0.8
        b = 0.3, 0.1

        [initial]
        u = 1 + 0.4*sin(1, 0, 0.3) + 0.2*cos(1, 1)

        [time]
        dt = 1e-3
        t_final = 1e-2
        """
    config = checked_config(
        tmp_path,
        """\
        [checks]
        names = conservative, duality, positivity, cauchy_schwarz, gradient_estimate, variance
        n_fields = 5
        """,
        base=base,
    )
    blocked = run(config, out_dir=str(tmp_path / "block"))
    advance = DiffusionAssembly.advance

    def one_column_at_a_time(self, values):
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            return advance(self, values)
        return np.column_stack([advance(self, col) for col in values.T])

    monkeypatch.setattr(DiffusionAssembly, "advance", one_column_at_a_time)
    alone = run(config, out_dir=str(tmp_path / "alone"))
    assert sorted(blocked.report_paths) == sorted(config.checks)
    for name in config.checks:
        with open(blocked.report_paths[name], "rb") as a, open(alone.report_paths[name], "rb") as b:
            assert a.read() == b.read(), name


def assert_checks_draw_no_field(tmp_path, counts):
    """The checks ``counts`` read the recorded steps alone: ``variance``
    listed after them draws the fields it draws alone, and each writes its
    count of reports, whatever n_fields is."""
    for n_fields in (1, 5):
        variance = []
        for names in ([*counts, "variance"], ["variance"]):
            out = tmp_path / f"{n_fields}-{len(names)}"
            out.mkdir()
            block = f"[checks]\nnames = {', '.join(names)}\nn_fields = {n_fields}\n"
            manifest = run(checked_config(out, block), out_dir=str(out))
            with open(manifest.report_paths["variance"], "rb") as fh:
                variance.append(fh.read())
            for name in names[:-1]:
                with open(manifest.report_paths[name]) as fh:
                    assert len(json.load(fh)["reports"]) == counts[name], (name, n_fields)
        assert variance[0] == variance[1], n_fields


def test_markov_checks_draw_no_field_and_write_one_report_per_property(tmp_path):
    # one report per property each Markov check states
    counts = {"positivity": 1, "contraction": 3, "order_bounds": 1, "cauchy_schwarz": 1}
    assert_checks_draw_no_field(tmp_path, counts)


def test_structural_checks_draw_no_field(tmp_path):
    assert_checks_draw_no_field(tmp_path, dict.fromkeys(ROUNDOFF_CHECKS, 1))


def test_overclaimed_curvature_is_recorded_not_raised(tmp_path):
    # euclidean flow has K = 0; demanding the K = 200 decay must fail
    config = checked_config(
        tmp_path,
        """\
        [checks]
        names = conservative, gradient_estimate
        K = 200
        """,
    )
    manifest = run(config, out_dir=str(tmp_path / "out"))
    assert manifest.failed_checks == ["gradient_estimate"]
    assert manifest.k_provenance == "configured"
    with open(manifest.report_paths["gradient_estimate"]) as fh:
        payload = json.load(fh)
    assert payload["passed"] is False


@pytest.mark.parametrize(
    "checks_block, message",
    [
        (
            "[checks]\nnames = liyau_linear\n",
            "check liyau_linear: this check needs a finite N",
        ),
        (
            "[checks]\nnames = exp_entropy\nN = 8\nK = 1.0\n",
            "check exp_entropy: .*zero bounds only",
        ),
        (
            "[checks]\nnames = harnack\nN = 8\n",
            "check harnack: .*without harnack_pairs",
        ),
        # N = inf once made the bound NaN and blamed the quadrature rules
        (
            "[checks]\nnames = harnack\nharnack_pairs = 1,0.002,3,0.004\n",
            "check harnack: this check needs a finite N",
        ),
    ],
)
def test_registry_guards_name_the_check(tmp_path, checks_block, message):
    config = checked_config(tmp_path, checks_block)
    with pytest.raises(ConfigError, match=message):
        run(config, out_dir=str(tmp_path / "out"))


def test_semigroup_law_needs_two_steps(tmp_path):
    config = checked_config(
        tmp_path,
        "[checks]\nnames = semigroup_law\n",
        base=GOOD.replace("t_final = 5e-3", "t_final = 1e-3"),
    )
    with pytest.raises(ConfigError, match="at least two recorded steps"):
        run(config, out_dir=str(tmp_path / "out"))


def test_lixu_profile_takes_the_run_curvature(tmp_path):
    # the lixu pair is sinh at tau = |K| of the run; it once took K = -1
    config = checked_config(
        tmp_path, "[checks]\nnames = liyau_linear\nN = 8\nK = -0.5\nprofile = lixu\n"
    )
    out = tmp_path / "out"
    run(config, out_dir=str(out))
    written = json.loads((out / "check_liyau_linear.json").read_text())["reports"]
    _, metric, measure, u0 = build_problem(config)
    traj = solve_heat_flow(metric, measure, u0, config.t_final, config.dt)
    t_end = traj.times[-1]
    coeffs = alpha_phi(LiYauProfile.lixu(-0.5), -0.5, 8.0, t_end)
    expected = residual_linear(traj, t_end, coeffs).to_dict()
    assert written == [json.loads(json.dumps(expected, default=float))]


def test_lixu_profile_at_zero_curvature_exits_two(tmp_path, capsys):
    path = write_ini(tmp_path, GOOD, "[checks]\nnames = liyau_linear\nN = 8\nK = 0\nprofile = lixu\n")
    assert main(["check", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "lixu profile needs K != 0" in err


def test_run_ladder_places_levels_and_halves_h(tmp_path):
    config = checked_config(
        tmp_path,
        """\
        [checks]
        names = conservative

        [ladder]
        levels = 16, 2e-3; 32, 1e-3
        """,
    )
    manifests = run_ladder(config, out_dir=str(tmp_path / "ladder"))
    assert [m.grid_meta["nodes_per_axis"] for m in manifests] == [16, 32]
    assert manifests[0].grid_meta["h"] == pytest.approx(2 * manifests[1].grid_meta["h"])
    for nodes, manifest in zip((16, 32), manifests):
        assert manifest.out_dir.endswith(f"level_{nodes}")
        assert os.path.exists(os.path.join(manifest.out_dir, "manifest.json"))


def test_convergence_table_fits_variance_order(tmp_path):
    # the variance identity gap is O(dt); with dt scaled like h^2 the
    # fitted order against h should sit near two
    config = checked_config(
        tmp_path,
        """\
        [checks]
        names = variance

        [ladder]
        levels = 16, 4e-3; 32, 1e-3
        """,
        base=GOOD.replace("t_final = 5e-3", "t_final = 1.2e-2"),
    )
    manifests = run_ladder(config, out_dir=str(tmp_path / "ladder"))
    table = convergence_table(manifests, expected_orders={"variance": (1.0, 3.0)})
    (row,) = table["rows"]
    assert row["check"] == "variance"
    assert len(row["levels"]) == 2
    residuals = [level["worst_residual"] for level in row["levels"]]
    assert residuals[1] < residuals[0]
    assert 1.0 <= row["fitted_order"] <= 3.0
    assert row["passed"] and table["passed"]


def test_convergence_table_fits_no_order_to_round_off_rows(tmp_path):
    # residuals of structural identities sit at round-off on every level, so
    # an order fitted to them is noise (conservative printed -0.44)
    assert set(ROUNDOFF_CHECKS) <= set(CHECKS)
    config = checked_config(
        tmp_path,
        """\
        [checks]
        names = conservative, duality, semigroup_law, variance

        [ladder]
        levels = 16, 4e-3; 32, 1e-3
        """,
        base=GOOD.replace("t_final = 5e-3", "t_final = 1.2e-2"),
    )
    table = convergence_table(run_ladder(config, out_dir=str(tmp_path / "ladder")))
    orders = {row["check"]: row["fitted_order"] for row in table["rows"]}
    assert orders.keys() == {"conservative", "duality", "semigroup_law", "variance"}
    assert all(orders[name] is None for name in ROUNDOFF_CHECKS)
    assert 1.0 <= orders["variance"] <= 3.0
    assert table["passed"] and all(row["passed"] for row in table["rows"])


def test_convergence_table_without_expectation_accepts_slack_margins(tmp_path):
    config = checked_config(
        tmp_path,
        """\
        [checks]
        names = conservative, gradient_estimate

        [ladder]
        levels = 16, 2e-3; 32, 1e-3
        """,
    )
    manifests = run_ladder(config, out_dir=str(tmp_path / "ladder"))
    table = convergence_table(manifests)
    assert table["passed"]
    csv_path = str(tmp_path / "table.csv")
    write_convergence_csv(table, csv_path)
    with open(csv_path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "check,h,dt,worst_residual,fitted_order,passed"
    assert len(lines) == 1 + 2 * len(table["rows"])


def test_convergence_table_fails_a_nan_level_residual(tmp_path):
    # the NaN sits after a finite report, where Python's max would drop it
    levels = [(0.1, [2.0]), (0.05, [1.0, "nan"])]
    manifests = []
    for i, (h, residuals) in enumerate(levels):
        path = tmp_path / f"check_{i}.json"
        reports = [{"worst_residual": r} for r in residuals]
        path.write_text(json.dumps({"passed": True, "reports": reports}))
        manifests.append(
            RunManifest(
                "digest", "0", str(tmp_path), 0, 4.0, 0.0, "analytic",
                report_paths={"duality": str(path)},
                grid_meta={"h": h, "dt": h * h},
            )
        )
    table = convergence_table(manifests)
    (row,) = table["rows"]
    assert math.isnan(row["levels"][1]["worst_residual"])
    assert not row["passed"] and not table["passed"]


@settings(max_examples=100, deadline=None)
@given(
    residuals=st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=4,
    )
)
def test_convergence_row_whose_levels_all_pass_never_fails(residuals):
    # round-off that grows, signed slacks and residuals at any scale: the
    # row follows its levels' verdicts when no order window is given
    with tempfile.TemporaryDirectory() as tmp:
        manifests = []
        for i, r in enumerate(residuals):
            path = os.path.join(tmp, f"check_{i}.json")
            with open(path, "w") as fh:
                json.dump({"passed": True, "reports": [{"worst_residual": r}]}, fh)
            h = 0.5 ** (i + 3)
            manifests.append(
                RunManifest(
                    "digest", "0", tmp, 0, 4.0, 0.0, "analytic",
                    report_paths={"duality": path},
                    grid_meta={"h": h, "dt": h * h},
                )
            )
        table = convergence_table(manifests)
    (row,) = table["rows"]
    assert row["passed"] and table["passed"]


# ------------------------------------------------------------------------ cli


def cli_ini(tmp_path, checks="conservative, positivity", extra=""):
    return write_ini(
        tmp_path,
        GOOD,
        f"""\
        [checks]
        names = {checks}
        n_fields = 2
        {extra}
        [output]
        dir = {tmp_path / "runs"}
        """,
    )


def test_cli_check_passes(tmp_path, capsys):
    path = cli_ini(tmp_path)
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "ok   conservative" in out
    assert "0 of 2 checks failed" in out


#: a stiff 1-d Randers run on a short torus, where a step's solve is exact
#: only to the factor's kappa * eps: transported constants drift by up to
#: 9.4e-11 from 1, which a verdict on them once read as a FAIL of conservative
STIFF_1D = """\
    [grid]
    dim = 1
    nodes = {nodes}
    period = {period}

    [metric]
    family = randers
    a = 1
    b = 0.3

    [measure]
    f = 0.3*cos(1)

    [initial]
    u = 1 + 0.4*sin(1, 0.3)

    [time]
    dt = 1e-3
    t_final = 5e-3

    [checks]
    names = conservative, duality, semigroup_law
    K = 0
    """


@pytest.mark.parametrize("nodes, period", [(64, 0.01), (32, 0.001)])
def test_cli_structural_checks_pass_a_stiff_1d_run(tmp_path, capsys, nodes, period):
    # the verdicts judge the exact steps' identities, each located by step
    runs = tmp_path / "runs"
    config = STIFF_1D.format(nodes=nodes, period=period)
    path = write_ini(tmp_path, config, f"[output]\ndir = {runs}\n")
    assert main(["check", path]) == 0
    assert "0 of 3 checks failed" in capsys.readouterr().out
    for name in ROUNDOFF_CHECKS:
        (report,) = json.loads((runs / f"check_{name}.json").read_text())["reports"]
        assert report["passed"] and report["tolerance"] == 1e-12, (name, report)
        assert isinstance(report["worst_location"]["step"], int), (name, report)


def test_cli_check_reports_failures(tmp_path, capsys):
    path = cli_ini(tmp_path, checks="gradient_estimate", extra="K = 200\n")
    assert main(["check", path]) == 1
    out = capsys.readouterr().out
    assert "FAIL gradient_estimate" in out
    assert "1 of 1 checks failed" in out


def test_cli_check_only_subset(tmp_path, capsys):
    path = cli_ini(tmp_path)
    assert main(["check", path, "--only", "positivity"]) == 0
    out = capsys.readouterr().out
    assert "conservative" not in out
    assert "0 of 1 checks failed" in out


def test_cli_check_only_unknown_name(tmp_path, capsys):
    path = cli_ini(tmp_path)
    assert main(["check", path, "--only", "bochner"]) == 2
    assert "not in config" in capsys.readouterr().err


def test_cli_config_error_exits_two(tmp_path, capsys):
    path = write_ini(tmp_path, "[grid]\nnodes = 4\n[time]\ndt = 1e-3\nt_final = 1e-2\n")
    assert main(["check", path]) == 2
    assert "error:" in capsys.readouterr().err


BAD_VALUES = {
    "p_plus_word": ("[metric]\nfamily = asym1d\np_plus = two\n", "[metric] p_plus"),
    "N_word": ("[checks]\nnames = duality\nN = eight\n", "[checks] N"),
    "K_word": ("[checks]\nnames = duality\nK = x\n", "[checks] K"),
    "seed_word": ("[checks]\nnames = duality\nseed = x\n", "[checks] seed"),
    # numpy's default_rng once raised ValueError on a negative seed
    "seed_negative": ("[checks]\nnames = duality\nseed = -5\n", "[checks] seed"),
    # configparser's interpolation once raised on the first read of the key
    "seed_percent": ("[checks]\nnames = duality\nseed = 5%\n", "[checks] seed"),
    # t1 = 0 once reached theta_descriptor's -N / (2 t): ZeroDivisionError
    "pair_time_zero": (
        "[checks]\nnames = harnack\nN = 2\nK = 0\nharnack_pairs = 1,0.0,3,0.004\n",
        "[checks] harnack_pairs",
    ),
    # configparser's DuplicateSectionError and DuplicateOptionError once
    # escaped as tracebacks
    "section_twice": ("[time]\ndt = 2e-3\n", "section 'time' already exists"),
    "key_twice": ("dt = 2e-3\n", "option 'dt' in section 'time' already exists"),
    "pair_word": (
        "[checks]\nnames = harnack\nharnack_pairs = 1,x,2,0.002\n",
        "[checks] harnack_pairs",
    ),
    "ladder_word": ("[ladder]\nlevels = 16,x\n", "[ladder] levels"),
    # each ladder level once reached the solve unchecked: a ValueError, an
    # OverflowError from the step count, or a run past t_final that exited 0
    "ladder_dt_zero": ("[ladder]\nlevels = 16,0\n", "[ladder] levels"),
    "ladder_dt_negative": ("[ladder]\nlevels = 16,-1e-3\n", "[ladder] levels"),
    "ladder_nodes_four": ("[ladder]\nlevels = 4,1e-3\n", "[ladder] levels"),
    "ladder_dt_nan": ("[ladder]\nlevels = 16,nan\n", "[ladder] levels"),
    "ladder_dt_subnormal": ("[ladder]\nlevels = 16,1e-320\n", "[ladder] levels"),
    "ladder_dt_past_t_final": ("[ladder]\nlevels = 16,1\n", "[ladder] levels"),
    "N_nan": ("[checks]\nnames = duality\nN = nan\n", "N = nan"),
    "n_fields_zero": ("[checks]\nnames = duality\nn_fields = 0\n", "n_fields"),
    "a_nan": ("[metric]\nfamily = randers\na = nan\n", "finite"),
    "a_inf": ("[metric]\nfamily = randers\na = inf\n", "finite"),
    "p_plus_nan": ("[metric]\nfamily = asym1d\np_plus = nan\n", "slopes"),
    "p_plus_inf": ("[metric]\nfamily = asym1d\np_plus = inf\n", "slopes"),
    "s_nan": ("[checks]\nnames = exp_entropy\nN = 3\nK = 0\ns = nan\n", "[checks] s"),
    "s_inf": ("[checks]\nnames = exp_entropy\nN = 3\nK = 0\ns = inf\n", "[checks] s"),
    "K_nan": ("[checks]\nnames = gradient_estimate\nK = nan\n", "[checks] K"),
    "K_minus_inf": ("[checks]\nnames = gradient_estimate\nK = -inf\n", "[checks] K"),
    "pair_node_past_grid": (
        "[checks]\nnames = harnack\nharnack_pairs = 1,0.002,200,0.004\n",
        "[checks] harnack_pairs",
    ),
    "pair_node_negative": (
        "[checks]\nnames = harnack\nharnack_pairs = -1,0.002,3,0.004\n",
        "[checks] harnack_pairs",
    ),
    # t2 = 1e308 is never recorded, and its panel count once overflowed
    # math.ceil in the Harnack quadrature
    "pair_time_past_t_final": (
        "[checks]\nnames = harnack\nharnack_pairs = 0,2e-3,3,1e308\n",
        "[checks] harnack_pairs",
    ),
    # a misspelt key or section once loaded silently with its default; the
    # block after GOOD continues its [time] section
    "time_key_typo": ("schem = crank_nicolson\n", "[time] schem"),
    "checks_key_typo": ("[checks]\nnames = duality\nn_field = 5\n", "[checks] n_field"),
    "section_typo": ("[outptu]\ndir = x\n", "[outptu]"),
    "default_section": ("[DEFAULT]\nnodes = 16\n", "[DEFAULT]"),
    # a repeated check once ran twice, the second report overwriting the first
    "names_twice": ("[checks]\nnames = conservative, conservative\n", "'conservative' named twice"),
}
#: --only values on a config that names duality and positivity: a check named
#: twice, no check at all, or a check the config does not run
BAD_ONLY = {
    "only_twice": ("duality,positivity,duality", "check 'duality' named twice"),
    "only_empty": ("", "--only names no check"),
    "only_commas": (" , ", "--only names no check"),
    "only_not_in_config": ("duality,variance", "checks not in config: ['variance']"),
}
CHECKS_BLOCK = "[checks]\nnames = duality, positivity\n"


@pytest.mark.parametrize(
    "block, named, only",
    [(block, named, ()) for block, named in BAD_VALUES.values()]
    + [(CHECKS_BLOCK, named, ("--only", only)) for only, named in BAD_ONLY.values()],
    ids=[*BAD_VALUES, *BAD_ONLY],
)
def test_cli_malformed_or_non_finite_value_exits_two(tmp_path, capsys, block, named, only):
    # one error line that names the key, before any solve
    path = write_ini(tmp_path, GOOD, block, f"[output]\ndir = {tmp_path / 'runs'}\n")
    assert main(["check", path, *only]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err
    assert not (tmp_path / "runs").exists()


#: GOOD on a 16^2 grid, where f = 745 (every node weight 0) once passed
#: conservative and duality with a flow that never moved
GOOD_2D = GOOD.replace("dim = 1", "dim = 2").replace("nodes = 32", "nodes = 16").replace(
    "f = 0.2*cos(1)", "f = 0.2*cos(1, 0)"
).replace("sin(1)", "sin(1, 1)")


#: (grid dim, old, new, what the error line names): a non-finite number in
#: a term, a sum that overflows, or node weights e^-f h^dim that vanish or
#: overflow
NON_FINITE_EXPRESSIONS = {
    "u_nan": (1, "u = 1 + 0.5*sin(1)", "u = nan", "term 'nan'"),
    "u_inf": (1, "u = 1 + 0.5*sin(1)", "u = inf", "term 'inf'"),
    "u_sum_overflows": (1, "u = 1 + 0.5*sin(1)", "u = 1e308 + 1e308", "[initial] u"),
    "f_inf": (1, "f = 0.2*cos(1)", "f = inf", "term 'inf'"),
    "f_745": (1, "f = 0.2*cos(1)", "f = 745", "[measure] f"),
    "f_minus_746": (1, "f = 0.2*cos(1)", "f = -746", "[measure] f"),
    "f_coef_1e999": (1, "f = 0.2*cos(1)", "f = 1e999*cos(1)", "term '1e999*cos(1)'"),
    "f_phase_1e999": (1, "f = 0.2*cos(1)", "f = cos(1, 1e999)", "term 'cos(1, 1e999)'"),
    "f_mode_1e999": (1, "f = 0.2*cos(1)", "f = cos(1e999)", "term 'cos(1e999)'"),
    "f_745_2d": (2, "f = 0.2*cos(1, 0)", "f = 745", "[measure] f"),
    "f_nan_2d": (2, "f = 0.2*cos(1, 0)", "f = nan", "term 'nan'"),
}


@pytest.mark.parametrize(
    "dim, old, new, named", NON_FINITE_EXPRESSIONS.values(), ids=list(NON_FINITE_EXPRESSIONS)
)
def test_cli_non_finite_expression_or_zero_weight_exits_two(
    tmp_path, capsys, dim, old, new, named
):
    # once a traceback from the 1-d step factor, and in 2-d a run whose node
    # weights vanish or are NaN, which passed conservative and duality
    path = write_ini(
        tmp_path,
        (GOOD if dim == 1 else GOOD_2D).replace(old, new),
        f"[checks]\nnames = conservative, duality\n[output]\ndir = {tmp_path / 'runs'}\n",
    )
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


def test_cli_overflowing_harnack_bound_exits_two(tmp_path, capsys):
    # the lf bound at d = 0.5 over [1e-5, 2e-5] is exp of about 6e3: once a
    # FAIL with bound inf and worst residual -inf
    path = write_ini(
        tmp_path,
        GOOD.replace("nodes = 32", "nodes = 64").replace(
            "dt = 1e-3\n    t_final = 5e-3", "dt = 1e-5\n    t_final = 1e-4"
        ),
        f"""\
        [checks]
        names = harnack
        N = 1
        K = 0
        harnack_pairs = 0,1e-5,32,2e-5
        [output]
        dir = {tmp_path / "runs"}
        """,
    )
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: check harnack: ") and err.count("\n") == 1
    assert err.endswith("overflows double precision\n")


def test_cli_bochner_at_n_equal_to_the_dimension_with_a_weight_exits_two(tmp_path, capsys):
    # the drift term df(grad u)^2/(N - dim) has no room at N = dim: once an
    # uncaught ValueError, exit 1
    path = write_ini(
        tmp_path,
        GOOD_2D.replace("f = 0.2*cos(1, 0)", "f = 0.3*cos(1, 1)"),
        f"""\
        [metric]
        family = riemannian
        a = 1.0, 0.2, 0.8
        [checks]
        names = bochner
        N = 2
        K = 0
        [output]
        dir = {tmp_path / "runs"}
        """,
    )
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: check bochner: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "old, new, named",
    [
        ("period = 1.0", "period = inf", "[grid] period"),
        ("dt = 1e-3\n    t_final = 5e-3", "dt = inf\n    t_final = inf", "[time] dt"),
        ("t_final = 5e-3", "t_final = nan", "[time] t_final"),
        # t_final / dt overflows: once an OverflowError from the step count
        ("dt = 1e-3\n    t_final = 5e-3", "dt = 1e-320\n    t_final = 1e308", "[time] dt"),
    ],
)
def test_cli_non_finite_grid_or_time_exits_two(tmp_path, capsys, old, new, named):
    # inf <= inf and an infinite period once passed load_config and ended in
    # a traceback inside the solve
    path = write_ini(tmp_path, GOOD.replace(old, new), f"[output]\ndir = {tmp_path / 'runs'}\n")
    assert main(["solve", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning would be a second line
@pytest.mark.parametrize(
    "dim, period, dt, message",
    [
        # corner^2 / gamma of the 1-d LDL^T factor overflows: once a
        # ValueError traceback from the banded Cholesky factor it replaced
        (1, 1.0, 1e200, "the step at t = 0 with dt = 1e+200 overflows double precision"),
        # the 2-d solve overflows; once it went through and its snapshot
        # name field_<t>.csv ended in an OSError (file name too long)
        (2, 1.0, 1e300, "the step at t = 0 with dt = 1e+300 overflows double precision"),
        # the CG reductions overflow without a flag: once NaN fields, exit 0
        (2, 1.0, 1e150, "the step at t = 0 with dt = 1e+150 gives a non-finite field"),
        # a huge torus keeps the step finite, but not the snapshot name
        (2, 1e150, 1e300, "time 1e+300 is too large for a snapshot file name"),
    ],
)
def test_cli_step_or_time_past_double_range_exits_two(tmp_path, capsys, dim, period, dt, message):
    if dim == 1:
        path = write_ini(tmp_path, GOOD.replace("1e-3", str(dt)).replace("5e-3", str(dt)))
    else:
        grid = RANDERS_32.replace("nodes = 32", f"nodes = 16\n    period = {period}")
        path = write_ini(tmp_path, grid.replace("1e-3", str(dt)), f"t_final = {dt}\n")
    assert main(["solve", path, "--out", str(tmp_path / "runs")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "check, K",
    [
        ("local_logsob", 20000),
        ("local_logsob", -20000),
        ("weak_logsob", 20000),
        ("weak_logsob", -20000),
        ("gradient_estimate", -20000),
        ("lipschitz", -20000),
        # the product K t itself overflows: once a FAIL with an infinite
        # tolerance, a NaN coefficient and an OverflowError traceback
        ("gradient_estimate", -1e308),
        ("local_logsob", -1e308),
        ("liyau_envelope", -1e308),
    ],
)
def test_cli_exponential_overflow_exits_two(tmp_path, capsys, check, K):
    # exp(2|K| t) or (K t)^2 at t = 0.05 leaves double precision: a domain
    # error, not a failed check or a traceback
    path = write_ini(
        tmp_path,
        GOOD.replace("dt = 1e-3\n    t_final = 5e-3", "dt = 1e-2\n    t_final = 5e-2"),
        f"""\
        [checks]
        names = {check}
        N = 3
        K = {K}
        [output]
        dir = {tmp_path / "runs"}
        """,
    )
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: check {check}: ")
    assert "overflows double precision" in err
    assert err.count("\n") == 1


def test_cli_tiny_curvature_counts_as_zero_for_both_entropy_checks(tmp_path, capsys):
    # |K| below the zero-curvature threshold: the exponential entropy check
    # runs and the weak log-Sobolev pair refers to it, never both refusing
    path = write_ini(
        tmp_path,
        GOOD.replace("sin(1)", "sin(1, 0.3)").replace(
            "dt = 1e-3\n    t_final = 5e-3", "dt = 2e-3\n    t_final = 2e-2"
        ),
        f"""\
        [checks]
        names = exp_entropy, weak_logsob
        N = 3
        K = 5e-11
        s = 0.01
        [output]
        dir = {tmp_path / "runs"}
        """,
    )
    assert main(["check", path, "--only", "exp_entropy"]) == 0
    capsys.readouterr()
    assert main(["check", path, "--only", "weak_logsob"]) == 2
    err = capsys.readouterr().err
    assert err == "error: check weak_logsob: zero bound: use the exponential entropy-gap triple\n"


def test_cli_huge_finite_entropy_time_exits_two(tmp_path, capsys):
    # s = 1e308 is finite, so the config takes it; its step count once
    # overflowed in Trajectory.index_of (OverflowError, exit 1)
    block = "[checks]\nnames = exp_entropy\nN = 2\nK = 0\ns = 1e308\n"
    path = write_ini(tmp_path, GOOD, block, f"[output]\ndir = {tmp_path / 'runs'}\n")
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert err == "error: check exp_entropy: time 1e+308 not on the recorded grid\n"


def test_cli_non_finite_phi_exits_two_before_the_solve(tmp_path, capsys):
    # phi was evaluated on the grid only when the checks started, after the
    # solve had written fields/
    out = tmp_path / "runs"
    block = "[checks]\nnames = exp_entropy\nN = 2\nK = 0\nphi = 1e308 + 1e308\n"
    path = write_ini(tmp_path, GOOD, block, f"[output]\ndir = {out}\n")
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "[checks] phi" in err
    assert not (out / "fields").exists()


@pytest.mark.parametrize("check, K", [("exp_entropy", "0"), ("weak_logsob", "-0.5")])
@pytest.mark.parametrize(
    "phi, message",
    [
        ("0", "the integral of phi u_t must be positive, got 0"),
        ("-1", "phi must be nonnegative at every node"),
        ("0.5*cos(1)", "phi must be nonnegative at every node"),
    ],
    ids=["zero", "negative", "sign_changing"],
)
def test_cli_entropy_checks_reject_a_test_field_outside_their_domain(
    tmp_path, capsys, check, K, phi, message
):
    # phi = 0 once divided by zero (traceback, exit 1); a phi with negative
    # nodes got a verdict on inputs the entropy inequalities do not cover
    block = f"[checks]\nnames = {check}\nN = 2\nK = {K}\ns = 2e-3\nphi = {phi}\n"
    path = write_ini(tmp_path, GOOD, block, f"[output]\ndir = {tmp_path / 'runs'}\n")
    assert main(["check", path]) == 2
    assert capsys.readouterr().err == f"error: check {check}: {message}\n"


def test_cli_integral_harnack_with_sine_profile_runs(tmp_path, capsys):
    # the window [0.2, 1.6] runs toward the zero of sine:1.3 at 2.42, which
    # made the integral bound's quadrature exit 2
    path = write_ini(
        tmp_path,
        """\
        [grid]
        dim = 1
        nodes = 32

        [time]
        dt = 0.02
        t_final = 2.0

        [checks]
        names = harnack
        N = 2
        K = 0.2
        profile = sine:1.3
        harnack_mode = integral
        harnack_pairs = 3, 0.2, 5, 1.6
        """,
        f"[output]\ndir = {tmp_path / 'runs'}\n",
    )
    assert main(["check", path]) == 0
    assert "ok   harnack" in capsys.readouterr().out


def test_cli_integral_harnack_runs_up_to_the_zero_of_alpha(tmp_path, capsys):
    # alpha vanishes at t = 1.853 here, before the profile's zero at 2.42:
    # the window [0.01, 1.8] made the quadrature exit 2 ("8- and 12-point
    # rules disagree") until the panels were graded toward alpha's zero
    path = write_ini(
        tmp_path,
        """\
        [grid]
        dim = 1
        nodes = 16

        [time]
        dt = 0.01
        t_final = 2.0

        [checks]
        names = harnack
        N = 2
        K = 0.2
        profile = sine:1.3
        harnack_mode = integral
        harnack_pairs = 3, 0.01, 5, 1.8
        """,
        f"[output]\ndir = {tmp_path / 'runs'}\n",
    )
    assert main(["check", path]) == 0
    assert "ok   harnack" in capsys.readouterr().out
    with open(tmp_path / "runs" / "check_harnack.json") as fh:
        (report,) = json.load(fh)["reports"]
    assert math.isfinite(report["grid_meta"]["bound"])


def test_load_config_rejects_unknown_profile(tmp_path):
    with pytest.raises(ConfigError, match="unknown profile 'banana'"):
        checked_config(tmp_path, "[checks]\nnames = liyau_linear\nN = 8\nprofile = banana\n")


@pytest.mark.parametrize("profile", ["quadratic", "sine:1.5", "sinh:0.8", "lixu"])
def test_load_config_accepts_every_documented_profile(tmp_path, profile):
    block = f"[checks]\nnames = liyau_linear\nN = 8\nprofile = {profile}\n"
    config = checked_config(tmp_path, block)
    assert config.profile == profile


def test_readme_config_example_loads(tmp_path):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        example = fh.read().split("```ini\n", 1)[1].split("```", 1)[0]
    config = load_config(write_ini(tmp_path, example))
    assert config.harnack_pairs == ((3, 0.01, 20, 0.03), (5, 0.02, 9, 0.04))
    assert isinstance(config.descriptor, RandersNorm)
    assert config.descriptor.b == pytest.approx([0.3])


def test_readme_config_example_passes_check(tmp_path, capsys):
    # every value the docs show is accepted: the example's K = auto once
    # exited 2, since auto refuses randers with a varying f
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        example = fh.read().split("```ini\n", 1)[1].split("```", 1)[0]
    path = write_ini(tmp_path, example)
    assert main(["check", path, "--out", str(tmp_path / "out")]) == 0
    assert "0 of 4 checks failed" in capsys.readouterr().out


@pytest.mark.parametrize(
    "dim, metric, family",
    [
        (2, "family = riemannian\na = 1.0,0.2,0.8\n", "riemannian"),
        (2, "family = randers\na = 1.0,0.2,0.8\nb = 0.3,0.1\n", "randers"),
        (1, "family = asym1d\np_plus = 2\np_minus = 1\n", "asym1d"),
    ],
)
def test_load_config_accepts_every_documented_metric(tmp_path, dim, metric, family):
    text = f"[grid]\ndim = {dim}\n[metric]\n{metric}[time]\ndt = 1e-3\nt_final = 1e-2\n"
    config = load_config(write_ini(tmp_path, text))
    assert config.descriptor.family == family
    assert config.descriptor.dim == dim


@pytest.mark.parametrize("profile", ["sine", "sine:", "sine:wide", "cosine:1"])
def test_cli_bad_profile_exits_two_before_the_solve(tmp_path, capsys, profile):
    path = write_ini(
        tmp_path,
        GOOD,
        f"""\
        [checks]
        names = liyau_linear
        N = 8
        profile = {profile}
        [output]
        dir = {tmp_path / "runs"}
        """,
    )
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "profile" in err
    assert not (tmp_path / "runs").exists()


def test_cli_solve_exports_fields(tmp_path, capsys):
    path = cli_ini(tmp_path)
    assert main(["solve", path]) == 0
    assert "solved euclidean flow" in capsys.readouterr().out
    fields = tmp_path / "runs" / "fields"
    assert fields.is_dir() and any(fields.iterdir())


RANDERS_32 = """\
    [grid]
    dim = 2
    nodes = 32

    [metric]
    family = randers
    a = 1.0, 0.2, 0.8
    b = 0.3, 0.1

    [initial]
    u = 1 + 0.4*sin(1, 0, 0.3) + 0.2*cos(1, 1)

    [time]
    dt = 1e-3
    """


def test_cli_solve_writes_the_recorded_trajectory_bytes(tmp_path, capsys):
    # the verb streams the step loop and keeps only its ends; the files must
    # equal the export of the full record
    path = write_ini(tmp_path, RANDERS_32, "t_final = 1e-2\n")
    config = load_config(path)
    _, metric, measure, u0 = build_problem(config)
    traj = solve_heat_flow(metric, measure, u0, config.t_final, config.dt)
    traj.export(str(tmp_path / "recorded"))
    assert main(["solve", path, "--out", str(tmp_path / "streamed")]) == 0
    capsys.readouterr()
    recorded = sorted((tmp_path / "recorded").iterdir())
    streamed = sorted((tmp_path / "streamed" / "fields").iterdir())
    assert [p.name for p in recorded] == [p.name for p in streamed]
    assert len(recorded) == 3
    for a, b in zip(recorded, streamed):
        assert a.read_bytes() == b.read_bytes(), a.name


def test_cli_solve_memory_does_not_grow_with_steps(tmp_path, capsys):
    # the verb holds O(nodes): 30 more steps may not cost one more assembly
    peaks = {}
    # the first run fills the per-grid caches and the interpreter's free lists
    for steps in (40, 10, 40):
        path = write_ini(tmp_path, RANDERS_32, f"t_final = {steps}e-3\n")
        tracemalloc.start()
        try:
            assert main(["solve", path, "--out", str(tmp_path / "runs")]) == 0
            peaks[steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    config = load_config(path)
    _, metric, measure, u0 = build_problem(config)
    (assembly,) = solve_heat_flow(metric, measure, u0, config.dt, config.dt).assemblies
    one_assembly = assembly.weights.data.nbytes + assembly.degree.nbytes
    assert abs(peaks[40] - peaks[10]) < one_assembly, (peaks, one_assembly)


def test_cli_out_precedence(tmp_path, capsys, monkeypatch):
    path = cli_ini(tmp_path)
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("FINSLERHEAT_OUT", str(env_dir))
    assert main(["check", path]) == 0
    assert (env_dir / "manifest.json").exists()
    flag_dir = tmp_path / "from_flag"
    assert main(["check", path, "--out", str(flag_dir)]) == 0
    assert (flag_dir / "manifest.json").exists()
    capsys.readouterr()


def test_cli_convergence_writes_table(tmp_path, capsys):
    path = write_ini(
        tmp_path,
        GOOD,
        f"""\
        [checks]
        names = conservative, gradient_estimate

        [ladder]
        levels = 16, 2e-3; 32, 1e-3

        [output]
        dir = {tmp_path / "ladder"}
        """,
    )
    assert main(["convergence", path]) == 0
    out = capsys.readouterr().out
    assert "ok   conservative" in out
    assert "order=n/a" in out
    assert (tmp_path / "ladder" / "convergence.json").exists()
    assert (tmp_path / "ladder" / "convergence.csv").exists()
    assert (tmp_path / "ladder" / "level_16" / "manifest.json").exists()


def test_cli_psi_prints_csv(capsys):
    assert main(["psi", "--N", "3", "--K", "-1", "--t", "1", "--count", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,psi,psi_prime,psi_tilde"
    assert len(lines) == 6
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == pytest.approx(-2.0)


def test_cli_psi_underflowing_curvature_times_time_exits_two(capsys):
    # (K t)^2 = 1e-600 is 0 in double precision: a domain error, one line
    assert main(["psi", "--N", "3", "--K=-1e-300", "--t", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "(K t)^2" in err
    assert err.count("\n") == 1


def test_cli_psi_writes_file(tmp_path, capsys):
    out = str(tmp_path / "table.csv")
    rc = main(
        ["psi", "--N", "3", "--K", "-1", "--t", "1", "--count", "4", "--out", out]
    )
    assert rc == 0
    assert "wrote 4 rows" in capsys.readouterr().out
    with open(out) as fh:
        assert len(fh.read().splitlines()) == 5


def test_cli_harnack_bounds_flat_matches_classical(capsys):
    rc = main(
        ["harnack-bounds", "--N", "2", "--K", "0",
         "--d", "0.5", "--t1", "0.1", "--t2", "0.2"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    classical = (0.2 / 0.1) ** 1.0 * math.exp(0.25 / (4.0 * 0.1))
    assert payload["lf_bound"] == pytest.approx(classical, rel=1e-9)
    assert payload["integral_bound"] == pytest.approx(classical, rel=1e-9)
    assert payload["integral_profile"] == "quadratic"


def test_cli_harnack_bounds_mode_filter(capsys):
    rc = main(
        ["harnack-bounds", "--N", "3", "--K", "-0.5", "--d", "0.2",
         "--t1", "0.5", "--t2", "1.0", "--mode", "lf"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert "lf_bound" in payload and "integral_bound" not in payload


def test_cli_harnack_bounds_overflow_is_strict_json(capsys):
    rc = main(
        ["harnack-bounds", "--N", "2", "--K", "0",
         "--d", "1000", "--t1", "0.1", "--t2", "0.11"]
    )
    assert rc == 0

    def reject(token):
        raise ValueError(f"bare {token} is not JSON")

    payload = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert payload["integral_bound"] == "inf"
    assert payload["lf_bound"] == "inf"


def test_cli_harnack_bounds_window_past_double_range_exits_two(capsys):
    # t2 / t1 = 1e311 overflows: the panel count once raised OverflowError
    rc = main(
        ["harnack-bounds", "--N", "2", "--K", "0",
         "--d", "1", "--t1", "1e-3", "--t2", "1e308"]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning would be a second line
@pytest.mark.parametrize("K", ["0", "-0.5"])
def test_cli_harnack_bounds_integral_coefficients_past_double_range_exit_two(capsys, K):
    # the quadratic profile's t^3 / 3 (K = 0) and the lixu profile's sinh
    # (K = -0.5) overflow at t2 = 1e200: once an OverflowError traceback
    rc = main(
        ["harnack-bounds", "--mode", "integral", "--N", "2", "--K", K,
         "--d", "1", "--t1", "1e-3", "--t2", "1e200"]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "overflows double precision" in captured.err


PSI = ["psi", "--N", "3", "--K", "-1", "--t", "1"]
BOUNDS = ["harnack-bounds", "--N", "2", "--K", "0", "--d", "0.5", "--t1", "0.1", "--t2", "0.2"]


def with_arg(argv, flag, value):
    out = list(argv)
    if flag in out:
        out[out.index(flag) + 1] = value
    else:
        out += [flag, value]
    return out


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning would be a second line
@pytest.mark.parametrize(
    "argv",
    [
        with_arg(PSI, "--count", "-1"),
        with_arg(PSI, "--count", "0"),
        with_arg(PSI, "--K", "inf"),
        with_arg(PSI, "--N", "nan"),
        with_arg(PSI, "--t", "nan"),
        with_arg(PSI, "--x-lo", "nan"),
        with_arg(PSI, "--x-hi", "inf"),
        *(
            with_arg(BOUNDS, flag, value)
            for flag in ("--N", "--K", "--d")
            for value in ("nan", "inf")
        ),
        with_arg(BOUNDS, "--t1", "nan"),
        with_arg(BOUNDS, "--t2", "nan"),
        *(
            with_arg(with_arg(BOUNDS, "--mode", "integral"), flag, value)
            for flag in ("--N", "--K", "--d")
            for value in ("nan", "inf")
        ),
    ],
    ids=" ".join,
)
def test_cli_utility_verbs_reject_non_finite_arguments(capsys, argv):
    # psi once wrote NaN rows (exit 0) or raised a ValueError traceback, and
    # harnack-bounds blamed the quadrature ("rules disagree: nan vs nan")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "disagree" not in captured.err


def test_cli_import_leaves_out_scipy_interpolate():
    # scipy.interpolate (with scipy.optimize) is the largest import cost
    # scipy has; nothing the command line reaches needs it
    probe = "import sys, finslerheat.cli; print('scipy.interpolate' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(finslerheat.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_out_scipy_fft_and_special():
    # the 2-d step preconditioner runs on numpy.fft; scipy.fft would load
    # scipy.special with it (through scipy.fft._fftlog), about 4.8 MB of
    # peak RSS in every process
    probe = (
        "import sys, finslerheat.cli; "
        "print(sorted({'scipy.fft', 'scipy.special'} & sys.modules.keys()))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(finslerheat.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()
