"""Fast self-test of the benchmark harness.

Runs every workload at the smallest size, traced, and checks the tracer's
self-time arithmetic on synthetic spans. Run with

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tomokit  # noqa: E402
import tomokit.cli  # noqa: E402
import tomokit.experiments  # noqa: E402
from tomobench import measure  # noqa: E402
from tomobench.spans import Span, Tracer, instrument  # noqa: E402
from tomobench.workloads import TINY, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Requests that cover every input label at the tiny size.
TINY_REQUESTS = {"rank-trap": 2, "reconstruct": 1, "validate": 3}


def test_self_time_subtracts_the_union_of_children():
    tracer = Tracer(
        spans=[
            Span("root", 0.0, 10.0, None),
            Span("a", 1.0, 3.0, 0),
            Span("b", 2.0, 4.0, 0),  # overlaps a: the union counts once
            Span("a.child", 1.5, 2.5, 1),
            Span("c", 9.0, 12.0, 0),  # runs past the parent: clipped at 10
        ]
    )
    assert tracer.self_times() == pytest.approx([10.0 - 3.0 - 1.0, 1.0, 2.0, 1.0, 3.0])


def test_spans_nest_and_patches_are_restored():
    original = tomokit.experiments.trace_norm
    tracer = Tracer()
    with instrument(tracer, tomokit):
        assert tomokit.experiments.trace_norm is not original
        tracer.call("outer", lambda: tomokit.experiments.trace_norm([[1.0]]), (), {})
    assert tomokit.experiments.trace_norm is original
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("outer", None),
        ("hermitian.trace_norm", 0),
    ]
    assert all(s.end >= s.start for s in tracer.spans)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_at_tiny_size(name, tmp_path):
    workload = WORKLOADS[name](tomokit, TINY, seed=3)
    workload.make_inputs()
    workload.setup(tmp_path)
    requests = [measure.Request(1.0, workload.request(i)) for i in range(TINY_REQUESTS[name])]
    ops = [op for request in requests for op in request.ops]
    assert ops and not any(op.failed for op in ops), workload.errors
    metrics = measure.e2e_metrics(requests, busy=1.0, setup_s=0.1, slowdown=1.0)
    for entry in SPEC["end_to_end"]:
        value, unit = metrics[entry["name"]]
        assert unit == entry["unit"]
        if unit == "frac":
            # A share over an empty class (no such label at this size) is NaN.
            assert math.isnan(value) or 0.0 <= value <= 1.0, entry["name"]
        else:
            assert math.isfinite(value) and value > 0, entry["name"]

    tracer = Tracer()
    solves = measure.SolveStats(tomokit)
    with instrument(tracer, tomokit, on_solve=solves):
        traced, _ = measure.replay(workload, TINY_REQUESTS[name])
    assert [op.verdict for op in traced] == [op.verdict for op in ops]
    layers = measure.layer_metrics(tracer, solves)
    micro, calls = measure.microbench(tomokit, workload.descriptor)
    layers.update(micro)
    layers["trace.overhead_frac"] = (0.0, "frac")
    for entry in SPEC["per_layer"]:
        assert layers[entry["name"]][1] == entry["unit"], entry["name"]
    assert all(count > 3 for count in calls.values())
    if name == "reconstruct":
        # gm twice (nll, l2), fgd twice (full, rank 3), mle once, one oracle per fit.
        counts = {k: layers[f"solvers.{k}.solves"][0] for k in measure.SOLVER_KINDS}
        assert counts == {"fgd": 2, "gm": 2, "mle": 1, "pgd": 2}
        assert layers["experiments.io_s"][0] > 0
    if name == "rank-trap":
        assert layers["solvers.fgd.solves"][0] == TINY.dim
        assert layers["solvers.fgd.trials_per_iter"][0] >= 1.0
    if name == "validate":
        assert layers["cli.self_ms"][0] > 0
        assert layers["hermitian.io_s"][0] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "validate", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
