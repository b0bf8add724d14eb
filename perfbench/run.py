"""Benchmark of the finslerheat CLI verbs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed. The workload's config is generated from the
seed. Every verb run is one fresh single-threaded process; each run's
reports go through the correctness gate (gate.py).

--trace 0 alternates set-up probes and verb runs until S seconds have
passed (at least two verb runs, to check that the report bytes repeat),
and reports the end-to-end metrics. --trace 1 alternates
untraced and traced verb runs and reports the per-layer metrics of the
traced ones (bench_trace.py), their overhead, and whether traced and
untraced reports are byte-identical.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Outputs go to .perfbench/ in the
checkout.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import gate  # noqa: E402
from bench_trace import NO_VALUE, metric_specs  # noqa: E402
from workloads import WORKLOADS, write_ini  # noqa: E402

#: every run ends within this many seconds, children included
DEADLINE_S = 170.0
#: fresh set-up processes per untraced run, at least; setup_s is their median
SETUP_PROBES = 5
#: verb runs per untraced run, at least; two give the determinism check
MIN_VERB_RUNS = 2

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: (name, unit); BENCHMARK.json holds their bounds
END_TO_END = (("wall_cal", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def child_env() -> dict:
    env = dict(os.environ)
    # one BLAS/OpenMP thread per process: at most nproc on any machine
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    return env


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: "1" for var in THREAD_VARS},
    }


class Run:
    """Child processes of one benchmark run and their failures."""

    def __init__(self, workload, work: str, deadline: float):
        self.workload = workload
        self.work = work
        self.deadline = deadline
        self.env = child_env()
        self.config = os.path.join(work, "config.ini")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.references = dict(np.load(os.path.join(HERE, "reference", f"{workload.name}.npz")))
        self._n = 0
        self.cpus = sorted(os.sched_getaffinity(0))
        self._placed: dict[str, int] = {}

    def _new_child(self, kind: str) -> tuple[int, str]:
        self._n += 1
        self.attempted += 1
        cwd = os.path.join(self.work, f"{kind}{self._n}")
        os.makedirs(cwd)
        return self._n, cwd

    def _cpu(self, key: str) -> int:
        """CPU for the next child of this key, taking the CPUs in turn.

        On a shared host each CPU's speed drifts on its own, so a run
        whose samples all land on one CPU reports that CPU's phase;
        taking them in turn averages the drifts. Each key counts
        separately, so alternating probes and verb runs does not put
        every verb run on one CPU, and a traced run shares its
        untraced partner's CPU.
        """
        n = self._placed.get(key, 0)
        self._placed[key] = n + 1
        return self.cpus[n % len(self.cpus)]

    def _child(self, args: list[str], cwd: str, cpu: int) -> dict:
        timeout = self.deadline - time.monotonic()
        if timeout <= 1.0:
            return {"error": "no time left before the run deadline"}
        with open(os.path.join(cwd, "worker.log"), "w") as log:
            try:
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "worker.py"), *args],
                    cwd=cwd, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                    timeout=timeout, preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
                )
            except subprocess.TimeoutExpired:
                return {"error": "timed out"}
        try:
            with open(os.path.join(cwd, "result.json")) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return {"error": f"worker exited {proc.returncode} without a result"}

    def _fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems += [f"{what}: {p}" for p in problems]

    def setup_probe(self) -> float | None:
        n, cwd = self._new_child("probe")
        r = self._child(["setup", self.config, "result.json"], cwd, self._cpu("probe"))
        if "error" in r:
            self._fail(f"set-up probe {n}", [r["error"].strip().splitlines()[-1]])
            return None
        return r["setup_s"]

    def launch(self, trace: bool) -> dict:
        """One verb run, not yet gated."""
        n, cwd = self._new_child("run")
        args = ["verb", self.workload.verb, self.config, "out", "result.json"]
        t0 = time.monotonic()
        cpu = self._cpu("traced" if trace else "plain")
        r = self._child(args + (["--trace"] if trace else []), cwd, cpu)
        r["elapsed"] = time.monotonic() - t0
        r["out"] = os.path.join(cwd, "out")
        r["what"] = f"{'traced ' if trace else ''}run {n}"
        return r

    def gate(self, r: dict) -> dict | None:
        """The launched run with its verdicts and report bytes, or None
        if it failed; its reports are removed either way."""
        if "error" in r:
            problems = [r["error"].strip().splitlines()[-1]]
        else:
            problems, r["failing"] = gate.check_run(
                self.workload, r["out"], r["exit"], self.references
            )
            r["reports"] = gate.report_bytes(r["out"])
        shutil.rmtree(r["out"], ignore_errors=True)
        if problems:
            self._fail(r["what"], problems)
            return None
        return r

    def same_reports(self, first: dict, other: dict) -> None:
        """Fail ``other`` if its report bytes differ from ``first``'s."""
        diff = gate.compare_reports(first["reports"], other["reports"])
        if diff:
            self._fail(other["what"], [f"report bytes differ from {first['what']}: {diff[:5]}"])


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    """Untraced run: verb runs for ``seconds``, each after a set-up probe.

    Interleaving spreads both kinds of sample over the run: on a shared
    machine the CPU speed drifts in phases of seconds to minutes.
    """
    start = time.monotonic()
    setup: list[float] = []
    verbs: list[dict] = []
    elapsed: list[float] = []

    def probe():
        t = run.setup_probe()
        if t is not None:
            setup.append(t)

    while len(elapsed) < MIN_VERB_RUNS or (
        time.monotonic() - start + statistics.median(elapsed) <= seconds
    ):
        t0 = time.monotonic()
        probe()
        r = run.gate(run.launch(trace=False))
        if r is None:
            break
        elapsed.append(time.monotonic() - t0)
        if verbs:
            run.same_reports(verbs[0], r)
        verbs.append(r)
    while len(setup) < SETUP_PROBES and run.failed == 0:
        probe()
    metrics = {}
    if verbs and setup:
        metrics = {
            "wall_cal": statistics.median(v["wall_s"] / v["cal_s"] for v in verbs),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(v["peak_rss_mb"] for v in verbs),
        }
    samples = {
        "setup_s": setup,
        "wall_s": [v["wall_s"] for v in verbs],
        "cal_s": [v["cal_s"] for v in verbs],
        "wall_cal": [v["wall_s"] / v["cal_s"] for v in verbs],
        "peak_rss_mb": [v["peak_rss_mb"] for v in verbs],
        "failing": verbs[0]["failing"] if verbs else None,
    }
    return metrics, samples


def measure_traced(run: Run, seconds: float) -> tuple[dict, dict]:
    """Traced run: untraced/traced pairs of verb runs for ``seconds``."""
    start = time.monotonic()
    pairs: list[tuple[dict, dict]] = []
    elapsed: list[float] = []
    while not pairs or time.monotonic() - start + statistics.median(elapsed) <= seconds:
        plain = run.gate(run.launch(trace=False))
        traced = run.gate(run.launch(trace=True)) if plain is not None else None
        if traced is None:
            break
        # the traced reports must equal the untraced ones byte for byte
        run.same_reports(plain, traced)
        if pairs:
            run.same_reports(pairs[0][0], plain)
        pairs.append((plain, traced))
        elapsed.append(plain["elapsed"] + traced["elapsed"])
    metrics: dict = {}
    if pairs:
        for name in pairs[0][1]["layers"]:
            values = [t["layers"][name] for _, t in pairs]
            if NO_VALUE in values:
                metrics[name] = NO_VALUE
            else:
                # counts repeat exactly; keep them whole numbers
                metrics[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
        metrics["trace.overhead_frac"] = statistics.median(
            t["wall_s"] / p["wall_s"] - 1.0 for p, t in pairs
        )
        metrics["verdicts.failed"] = len(pairs[0][1]["failing"])
        metrics["verb.wall_s"] = statistics.median(p["wall_s"] for p, _ in pairs)
        metrics["verb.cal_s"] = statistics.median(p["cal_s"] for p, _ in pairs)
    samples = {
        "wall_s": [p["wall_s"] for p, _ in pairs],
        "traced_wall_s": [t["wall_s"] for _, t in pairs],
        "missing_layers": pairs[0][1]["missing"] if pairs else None,
        "failing": pairs[0][1]["failing"] if pairs else None,
    }
    return metrics, samples


def per_layer_specs() -> list[tuple[str, str, str]]:
    return metric_specs() + [
        ("trace.overhead_frac", "frac", "lower"),
        ("verdicts.failed", "count", "lower"),
        ("verb.wall_s", "s", "lower"),
        ("verb.cal_s", "s", "lower"),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "finslerheat", "__init__.py")):
        print(f"no finslerheat sources under {ROOT}/src", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(ROOT, ".perfbench", tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    write_ini(workload, args.seed, os.path.join(work, "config.ini"))

    run = Run(workload, work, deadline)
    if args.trace:
        values, samples = measure_traced(run, args.seconds)
        specs = per_layer_specs()
    else:
        values, samples = measure(run, args.seconds)
        specs = END_TO_END
    if not values:
        run.problems.append("no verb run completed")
        run.failed = max(run.failed, 1)
    # the result line holds numbers only; a failed run has none to report
    metrics = {
        name: {"value": values.get(name, NO_VALUE), "unit": unit} for name, unit, *_ in specs
    }

    env = environment()
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "environment": env, "metrics": metrics, "samples": samples,
        "attempted": run.attempted, "failed": run.failed, "problems": run.problems,
    }
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump(record, fh, indent=2)

    print(f"{workload.name} seed {args.seed} trace {args.trace}: {workload.why}")
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    for problem in run.problems:
        print(f"FAILED {problem}")
    if not args.trace:
        n = len(samples["wall_s"])
        for name, unit in END_TO_END:
            value = metrics[name]["value"]
            count = len(samples[name])
            text = "n/a" if value == NO_VALUE else f"{value:.4f} {unit}"
            print(f"{name:16s} {text}  (median of {count})")
        if n:
            wall = samples["wall_s"]
            print(f"{'wall_s':16s} {statistics.median(wall):.4f} s  (raw, median of {n}; max {max(wall):.4f} s)")
            print(f"{'cal_s':16s} {statistics.median(samples['cal_s']):.4f} s  (calibration kernel, median)")
    failing = samples["failing"]
    if failing is not None:
        print(
            f"{'verdicts_failed':16s} {len(failing)} count  {failing}"
            f"  (baseline FAIL: {list(workload.known_fail)})"
        )
    print(f"{'runs failed':16s} {run.failed} of {run.attempted}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
