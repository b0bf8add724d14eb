"""Correctness gate for one verb run's reports.

A run fails when any of these holds:

* it raised, timed out or exited 2;
* a configured report is missing, or a report holds a non-finite number;
* a final field differs from the stored reference by more than step solves
  within heat.py's 1e-10 residual ceiling could move it (relative RMS);
* a check (or convergence row) fails that passes at the baseline commit,
  or the exit code disagrees with the verdicts;
* a check of any convergence level fails (every level passes at the
  baseline; only the rows have baseline FAILs);
* its report bytes differ from another run of the same config.

Exit code 1, a FAIL verdict, is not by itself a failed run: the baseline
FAIL verdicts of each workload are listed on the workload and counted.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from workloads import Workload

#: relative residual ceiling of one step solve (heat.py's contract)
CG_CEILING = 1e-10


def final_field_file(fields_dir: str) -> str:
    """The latest ``field_<t>.csv`` snapshot of an export directory."""
    names = [n for n in os.listdir(fields_dir) if n.startswith("field_") and n.endswith(".csv")]
    return os.path.join(fields_dir, max(names, key=lambda n: float(n[6:-4])))


def read_field(path: str) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.asarray([float(row[-1]) for row in rows[1:]])


def field_error(got: np.ndarray, reference: np.ndarray) -> float:
    """Root-mean-square difference relative to the reference's RMS."""
    return float(np.sqrt(np.mean((got - reference) ** 2) / np.mean(reference**2)))


def field_tolerance(steps: int, density_ratio: float, growth: float) -> float:
    """Largest relative RMS change of a final field that step solves within
    the residual ceiling c could cause.

    An implicit step solves (I + dt A) u_k = u_{k-1} with A self-adjoint and
    positive semi-definite in the measure inner product, so the step is a
    contraction in the measure norm: a solve within the ceiling errs by at
    most c |u_{k-1}| <= c |u_0|, and the errors add to steps * c |u_0| at
    the final time. Going from the measure norm to the plain RMS of the
    error and of the final field costs sqrt(density_ratio) each, with
    density_ratio = max(sigma) / min(sigma); growth = RMS(u_0) / RMS(u_T).
    The bound does not cover errors amplified through the frozen
    coefficients of later steps; perfbench/README.md gives the measured
    headroom.
    """
    return steps * CG_CEILING * density_ratio * growth


def _non_finite(value, path="") -> list[str]:
    if isinstance(value, float):
        return [] if math.isfinite(value) else [path or "<root>"]
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _non_finite(v, f"{path}.{k}")]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in _non_finite(v, f"{path}[{i}]")]
    return []


def _csv_non_finite(path: str) -> bool:
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            for cell in row:
                try:
                    if not math.isfinite(float(cell)):
                        return True
                except ValueError:
                    continue
    return False


def required_files(workload: Workload) -> list[str]:
    """Report files a successful run of the workload must leave."""
    files = []
    for sub, _, _ in workload.solves():
        prefix = f"{sub}/" if sub else ""
        files += [f"{prefix}fields/trajectory.json", f"{prefix}fields/field_0.000000.csv"]
        if workload.verb != "solve":
            files.append(f"{prefix}manifest.json")
            files += [f"{prefix}check_{name}.json" for name in workload.checks()]
    if workload.verb == "convergence":
        files += ["convergence.json", "convergence.csv"]
    return files


def failing_checks(workload: Workload, out: str) -> list[str]:
    """Names of the checks whose report in ``out`` did not pass."""
    failing = []
    for name in workload.checks():
        with open(os.path.join(out, f"check_{name}.json")) as fh:
            if not json.load(fh)["passed"]:
                failing.append(name)
    return failing


def failing_verdicts(workload: Workload, out: str) -> list[str]:
    """Names of failing checks (check) or convergence rows (convergence)."""
    if workload.verb == "convergence":
        with open(os.path.join(out, "convergence.json")) as fh:
            return [row["check"] for row in json.load(fh)["rows"] if not row["passed"]]
    return failing_checks(workload, out)


def check_run(workload: Workload, out: str, exit_code, references: dict) -> tuple[list[str], list[str]]:
    """(problems, failing verdicts) of one finished verb run in ``out``."""
    if exit_code not in (0, 1):
        return [f"exit code {exit_code}"], []
    missing = [f for f in required_files(workload) if not os.path.isfile(os.path.join(out, f))]
    if missing:
        return [f"missing reports: {missing}"], []
    problems = []
    for dirpath, _, names in os.walk(out):
        for name in names:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, out)
            if name.endswith(".json"):
                with open(path) as fh:
                    bad = _non_finite(json.load(fh))
                if bad:
                    problems.append(f"non-finite values in {rel}: {bad[:3]}")
            elif name.endswith(".csv") and _csv_non_finite(path):
                problems.append(f"non-finite values in {rel}")
    for sub, _, steps in workload.solves():
        key = sub or "final"
        fields = os.path.join(out, sub, "fields")
        got = read_field(final_field_file(fields))
        ref = references[key]
        if got.shape != ref.shape:
            problems.append(f"final field {key}: shape {got.shape}, reference {ref.shape}")
            continue
        err = field_error(got, ref)
        u0 = read_field(os.path.join(fields, "field_0.000000.csv"))
        growth = float(np.sqrt(np.mean(u0**2) / np.mean(ref**2)))
        tol = field_tolerance(steps, float(references["density_ratio"]), growth)
        if not err <= tol:
            problems.append(f"final field {key} differs from the reference by {err:.3e} > {tol:.3e}")
    failing = [] if workload.verb == "solve" else failing_verdicts(workload, out)
    unexpected = sorted(set(failing) - set(workload.known_fail))
    if unexpected:
        problems.append(f"verdicts FAIL that pass at the baseline: {unexpected}")
    if workload.verb == "convergence":
        for sub, _, _ in workload.solves():
            names = failing_checks(workload, os.path.join(out, sub))
            if names:
                problems.append(f"{sub}: checks FAIL that pass at the baseline: {names}")
    if exit_code != (1 if failing else 0):
        problems.append(f"exit code {exit_code} with failing verdicts {failing}")
    return problems, failing


def report_bytes(out: str) -> dict[str, bytes]:
    """Every report under ``out``; the manifest without its wall clock,
    which is the one field the determinism contract exempts."""
    files = {}
    for dirpath, _, names in os.walk(out):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            if name == "manifest.json":
                payload = json.loads(data)
                payload.pop("wall_clock", None)
                data = json.dumps(payload, sort_keys=True).encode()
            files[os.path.relpath(path, out)] = data
    return files


def compare_reports(a: dict[str, bytes], b: dict[str, bytes]) -> list[str]:
    """Report files whose bytes differ between two runs of one config."""
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
