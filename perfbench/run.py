"""The repository benchmark: ``python3 perfbench/run.py --workload W``.

Run from the root of a checkout.  One run sets the workload up several
times (``setup_s`` is the median), measures it for ``--seconds``, checks
every answer against its reference and prints, as the last line of
stdout, ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` one untraced unit runs, then one
with per-layer wrappers installed, and the metrics are the per-layer
ones.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = {"report_cold": 5, "report_warm": 5, "promise_heavy": 5,
          "serve_dup": 3}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def git_head(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def provenance(args, root: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_head": git_head(root),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
    }


def declared_metrics(root: str, trace: bool) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def measure(workload, seconds: float):
    """Timed units until the next one would overrun *seconds*."""
    runs = []
    begin = time.perf_counter()
    while True:
        runs.append(workload.iteration())
        elapsed = time.perf_counter() - begin
        if elapsed + runs[-1].wall > seconds:
            return runs


def end_to_end(workload, setups, runs) -> dict:
    walls = [r.wall for r in runs]
    latencies = [x for r in runs for x in r.latencies]
    return {
        "setup_s": (statistics.median(setups), "s"),
        # The mean, not the median, of the units: the host's speed drifts
        # over tens of seconds, and the mean averages a run's whole span.
        "wall_s": (statistics.fmean(walls), "s"),
        "jobs_per_s": (len(latencies) / sum(walls), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p95_ms": (percentile(latencies, 95) * 1e3, "ms"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()

    stray = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if stray:
        print("refusing to run: REPRO_* variables would change the program "
              "being measured: " + ", ".join(stray), file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("no src/repro here: run from the root of a repro checkout",
              file=sys.stderr)
        return 1
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(workloads.WORKLOADS))
    declared = declared_metrics(root, bool(args.trace))
    info = provenance(args, root)
    print("provenance " + json.dumps(info), flush=True)

    scratch = workloads.Scratch(root)
    workload = workloads.WORKLOADS[args.workload](root, scratch, args.seed)
    try:
        setups = []
        for i in range(SETUPS[args.workload]):
            if i:
                workload.discard()
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        # Collect the discarded set-ups' modules now, as a fresh process
        # would never have had them, rather than inside a timed unit.
        gc.collect()
        import repro

        expected_src = os.path.join(root, "src", "repro")
        if os.path.dirname(os.path.abspath(repro.__file__)) != expected_src:
            raise RuntimeError(f"imported repro from {repro.__file__}")
        workload.prepare()
        # A traced run reports only per-layer metrics, so one untraced
        # unit (the baseline for the tracing overhead) is enough and
        # keeps a traced run of the longest unit well inside its limit.
        runs = measure(workload, 0 if args.trace else args.seconds)
        attempted = sum(r.attempted for r in runs)
        failed = sum(r.failed for r in runs)
        deferred = workload.finish()
        attempted += deferred[0]
        failed += deferred[1]
        metrics = end_to_end(workload, setups, runs)
        violations = []
        if args.trace:
            traced = workload.traced()
            violations = traced.violations
            metrics = traced.metrics
            metrics["trace.overhead_s"] = (
                traced.wall - statistics.median(r.wall for r in runs), "s")
        violations = workload.violations + violations
    finally:
        workload.close()
        scratch.cleanup()

    undeclared = sorted(name for name, (_, unit) in metrics.items()
                        if declared.get(name) != unit)
    if undeclared:
        raise RuntimeError(
            f"metrics or units not in BENCHMARK.json: {undeclared}")
    result = {
        "correct": failed == 0 and not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics.get(name, (0, unit))[0], "unit": unit}
            for name, unit in declared.items()
        },
    }
    with open(scratch.out_path(
            f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
            "w") as fh:
        json.dump({"provenance": info, "violations": violations,
                   "setups": setups, "walls": [r.wall for r in runs],
                   **result}, fh, indent=1)
    for problem in violations:
        print("violation: " + problem, file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
