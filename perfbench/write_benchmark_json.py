"""Write BENCHMARK.json at the repository root from the benchmark's own
definitions (workloads.py, run.py, bench_trace.py).

    python3 perfbench/write_benchmark_json.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import END_TO_END, ROOT, per_layer_specs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: share of the parent's median by which each end-to-end metric may worsen
BOUNDS = {"wall_cal": 0.25, "setup_s": 0.25, "peak_rss_mb": 0.1}
RUN_SECONDS = 30


def benchmark() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": f"{w.why}; loads {w.layers}"} for w in WORKLOADS.values()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": "lower", "bound": BOUNDS[name]}
            for name, unit in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in per_layer_specs()
        ],
    }


if __name__ == "__main__":
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
        json.dump(benchmark(), fh, indent=2)
        fh.write("\n")
