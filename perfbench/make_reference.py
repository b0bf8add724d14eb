"""Regenerate the stored reference final fields.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload's verb once from ``src/`` and stores its final field
(one per ladder level) in ``perfbench/reference/<workload>.npz``, with
``density_ratio``, the largest max/min ratio of the measure weights over
the workload's grids, which the gate's field tolerance needs. The
seed does not enter the solve, so one reference serves every seed. Only
regenerate on a commit whose solver output is trusted: the gate compares
every benchmark run against these files.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import numpy as np  # noqa: E402

import gate  # noqa: E402
from finslerheat.config import load_config  # noqa: E402
from finslerheat.runner import build_problem  # noqa: E402
from run import ROOT, child_env  # noqa: E402
from workloads import WORKLOADS, write_ini  # noqa: E402


def make(name: str) -> str:
    workload = WORKLOADS[name]
    work = os.path.join(ROOT, ".perfbench", f"reference-{name}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config = os.path.join(work, "config.ini")
    write_ini(workload, 0, config)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "verb", workload.verb, config, "out", "result.json"],
        cwd=work, env=child_env(), check=True,
    )
    fields = {}
    ratios = []
    for sub, nodes, _ in workload.solves():
        path = gate.final_field_file(os.path.join(work, "out", sub, "fields"))
        fields[sub or "final"] = gate.read_field(path)
        sigma = build_problem(load_config(config), nodes)[2].sigma
        ratios.append(sigma.max() / sigma.min())
    fields["density_ratio"] = np.float64(max(ratios))
    target = os.path.join(HERE, "reference", f"{name}.npz")
    os.makedirs(os.path.dirname(target), exist_ok=True)
    np.savez_compressed(target, **fields)
    shutil.rmtree(work)
    return target


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(WORKLOADS):
        print(make(name))
