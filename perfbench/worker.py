"""One fresh benchmark process: a set-up probe or one CLI verb.

    python3 perfbench/worker.py setup CONFIG RESULT
    python3 perfbench/worker.py verb VERB CONFIG OUT RESULT [--trace]

Writes a JSON result to RESULT. The parent process checks the reports the
verb wrote; this process only times it. A set-up probe imports nothing
from finslerheat, numpy or scipy before its timer starts. A verb run also
times a fixed calibration kernel just before and just after the verb, on
the same CPU, so the parent can divide out the CPU speed of the moment.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(config: str) -> dict:
    """Import, config load, problem build and curvature resolution."""
    t0 = time.perf_counter()
    from finslerheat.config import load_config
    from finslerheat.geometry import ricci_lower_bound
    from finslerheat.runner import build_problem

    cfg = load_config(config)
    _, metric, measure, _ = build_problem(cfg)
    if cfg.K is None:
        ricci_lower_bound(metric, measure, cfg.N)
    return {"setup_s": time.perf_counter() - t0}


def calibrate() -> float:
    """Seconds taken by a fixed kernel: the speed of this CPU right now.

    Small sparse products in a Python loop, like the 1-d transport steps,
    then dense products and a Python-level sum, like the 2-d bound code.
    It calls no finslerheat code, so no change to the package moves it.
    """
    import numpy as np
    import scipy.sparse as sp

    n = 128
    lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr")
    x = np.linspace(0.0, 1.0, n)
    dense = np.random.default_rng(0).random((160, 160))
    t0 = time.perf_counter()
    for _ in range(18000):
        x = lap @ x + 0.5 * x
        x /= np.sqrt(np.dot(x, x))
    for _ in range(360):
        dense @ dense
        sum(i * i for i in range(3000))
    return time.perf_counter() - t0


def verb(name: str, config: str, out: str, trace: bool) -> dict:
    """Run ``finslerheat <name> <config> --out <out>`` in this process,
    between two calibrations."""
    from finslerheat import cli

    argv = [name, config, "--out", out]
    before = calibrate()
    if not trace:
        t0 = time.perf_counter()
        code = cli.main(argv)
        result = {"exit": code, "wall_s": time.perf_counter() - t0}
    else:
        import bench_trace

        tracer = bench_trace.Tracer()
        with bench_trace.installed(tracer) as missing:
            t0 = time.perf_counter()
            code = tracer.call(bench_trace.ROOT, cli.main, (argv,), {})
            wall = time.perf_counter() - t0
        result = {
            "exit": code,
            "wall_s": wall,
            "layers": tracer.metrics(missing),
            "missing": sorted(missing),
        }
    result["cal_s"] = (before + calibrate()) / 2.0
    return result


def main(argv: list[str]) -> int:
    result_path = argv[-1] if argv[0] == "setup" else argv[4]
    try:
        if argv[0] == "setup":
            result = setup(argv[1])
        else:
            result = verb(argv[1], argv[2], argv[3], "--trace" in argv)
    except Exception:  # recorded for the parent, which counts the run failed
        result = {"error": traceback.format_exc()}
    result["peak_rss_mb"] = peak_rss_mb()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
