"""Benchmark of tomokit: rank-trap, reconstruct and validate workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rank-trap --seed 0 --seconds 36 --trace 0

`--workload all` runs every workload in turn. With `--trace 0` the run
prints the end-to-end metrics; with `--trace 1` it repeats the same
requests with the layer entry points wrapped in spans and prints the
per-layer metrics. The package is imported from `src/` of the checkout,
never from an installed copy. The last line of the output is one JSON
object with the keys correct, attempted, failed and metrics; the exit code
is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3


def load_tomokit():
    """Import tomokit from the checkout's src/ and time it; None when absent."""
    src = ROOT / "src"
    if not (src / "tomokit" / "__init__.py").is_file():
        return None, 0.0
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import tomokit
    import tomokit.cli
    import tomokit.experiments

    return tomokit, time.perf_counter() - start


def metric_names() -> tuple[list[str], list[str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]


def run_workload(tk, name, size, seed, seconds, trace, workdir, import_s):
    """One workload run; returns (ops, metrics, details)."""
    from tomobench import measure
    from tomobench.spans import Tracer, instrument
    from tomobench.workloads import WORKLOADS

    workload = WORKLOADS[name](tk, size, seed)
    workload.make_inputs()
    setup_times = []
    for k in range(1 if trace else SETUP_REPEATS):
        directory = workdir / f"setup_{k}"
        directory.mkdir(parents=True)
        start = time.perf_counter()
        workload.setup(directory)
        setup_times.append(time.perf_counter() - start)
    workload.warm_up()

    if not trace:
        reference = measure.Reference()
        requests, busy = measure.closed_loop(workload, seconds, reference)
        setup_s = import_s + statistics.median(setup_times)
        metrics = measure.e2e_metrics(requests, busy, setup_s, reference.slowdown())
        ops = [op for request in requests for op in request.ops]
        details = {
            "requests": len(requests),
            "ops": len(ops),
            "busy_s": busy,
            "reference_s": reference.samples,
            "solver_iterations": sum(op.iterations for op in ops),
            "request_s": [r.seconds for r in requests] if len(requests) <= 100 else None,
        }
    else:
        untraced, elapsed = measure.closed_loop(workload, seconds / 2)
        ops = [op for request in untraced for op in request.ops]
        requests = len(untraced)
        tracer = Tracer()
        solves = measure.SolveStats(tk)
        with instrument(tracer, tk, on_solve=solves):
            traced_ops, traced_elapsed = measure.replay(workload, requests)
        ops += traced_ops
        metrics = measure.layer_metrics(tracer, solves)
        micro, calls = measure.microbench(tk, workload.descriptor)
        metrics.update(micro)
        metrics["trace.overhead_frac"] = (traced_elapsed / elapsed - 1.0, "frac")
        details = {
            "requests": requests,
            "untraced_s": elapsed,
            "traced_s": traced_elapsed,
            "spans": len(tracer.spans),
            "microbench_calls": calls,
            "trials_per_iter_assumption": measure.TRIALS_ASSUMPTION,
        }
    details["setup_s_samples"] = setup_times
    details["import_s"] = import_s
    details["errors"] = workload.errors[:5]
    return ops, metrics, details


def _number(value):
    return value if isinstance(value, (int, float)) and math.isfinite(value) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tk, import_s = load_tomokit()
    if tk is None:
        print(f"error: no tomokit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tomobench import measure
    from tomobench.workloads import FULL, WORKLOADS

    thread_env = {k: os.environ.get(k) for k in measure.THREAD_VARS}
    # The package runs serially as shipped; its thread pool stays off.
    os.environ.pop("TOMO_THREADS", None)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    e2e_names, layer_names = metric_names()
    wanted = layer_names if args.trace else e2e_names

    scratch = ROOT / ".perfbench_work"
    workdir = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = {}
    try:
        for name in names:
            ops, metrics, details = run_workload(
                tk, name, FULL, args.seed, args.seconds, args.trace,
                workdir / name, import_s,
            )
            results[name] = (ops, metrics)
            for metric, (value, unit) in metrics.items():
                print(f"{name:<12} {metric:<34} {value:>14.6g} {unit}")
            details.update(
                workload=name, seed=args.seed, seconds=args.seconds, trace=args.trace,
                environment=measure.environment(ROOT, thread_env),
            )
            print(json.dumps({"details": details}, default=str))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if scratch.is_dir() and not any(scratch.iterdir()):
            scratch.rmdir()

    attempted = sum(len(ops) for ops, _ in results.values())
    failed = sum(op.failed for ops, _ in results.values() for op in ops)
    out = {}
    for name, (_ops, metrics) in results.items():
        prefix = f"{name}." if len(names) > 1 else ""
        for metric in wanted:
            value, unit = metrics[metric]
            out[prefix + metric] = {"value": _number(value), "unit": unit}
    correct = failed == 0 and attempted > 0 and all(m["value"] is not None for m in out.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
