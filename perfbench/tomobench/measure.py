"""Closed-loop timing, end-to-end and per-layer metrics, microbenchmarks."""

from __future__ import annotations

import inspect
import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .spans import Tracer
from .workloads import SPURIOUS, VALID, Op

SOLVER_KINDS = ("fgd", "gm", "mle", "pgd")
TRACED_KINDS = ("fgd", "gm", "mle")
STOPS = ("converged", "max_iter", "eps_exhausted")

# Derived trial counts assume a shrink-only StepPolicy: eps never grows, so
# the halvings of a solve are log_{1/shrink}(eps at start / last accepted eps).
TRIALS_ASSUMPTION = "StepPolicy is shrink-only; the failed trials of an eps_exhausted stop are not counted"


# --- closed loop ----------------------------------------------------------------

@dataclass
class Request:
    seconds: float
    ops: list[Op]


# The reference kernel's time on a quiet 2-core machine; normalized figures
# read as if every run had that machine's speed.
REFERENCE_NOMINAL_S = 0.04


class Reference:
    """A fixed numpy kernel shaped like the package's work, timed between
    requests to follow the speed of a shared machine through a run.

    It runs design-sized complex matrix-vector products, a small
    eigensolve and elementwise work on an effect-sized array; none of it
    calls the package, so a change to the package does not move it.
    """

    def __init__(self, every_s: float = 1.0):
        rng = np.random.default_rng(0)
        self.design = rng.standard_normal((750, 100)) + 1j * rng.standard_normal((750, 100))
        self.factor = rng.standard_normal((10, 5)) + 1j * rng.standard_normal((10, 5))
        self.data = rng.random(750)
        self.effects = rng.standard_normal((15, 50, 10, 10)) * (1 + 1j)
        self.every_s = every_s
        self.samples: list[float] = []
        self._last = -math.inf

    def measure(self) -> None:
        """One timed pass: 200 steps shaped like a factorized descent
        iteration (forward product, value, adjoint, step, eigenvalues),
        then elementwise work like an operator build."""
        start = time.perf_counter()
        X = self.factor
        for _ in range(200):
            rho = X @ X.conj().T
            p = self.design @ rho.T.ravel()
            float(np.abs(p.imag).max())
            q = np.maximum(p.real, 1e-12)
            float(-(self.data * np.log(q)).sum())
            g = (self.design.T @ (-self.data / q).astype(complex)).reshape(10, 10)
            g = 0.5 * (g + g.conj().T)
            float(np.linalg.norm(X - 1e-3 * (g @ X)))
            np.linalg.eigvalsh(rho)
        for _ in range(4):
            float(np.abs(self.effects - self.effects.conj().swapaxes(-1, -2)).max())
        self._last = time.perf_counter()
        self.samples.append(self._last - start)

    def due(self) -> bool:
        return time.perf_counter() - self._last >= self.every_s

    def slowdown(self) -> float:
        """Median kernel time over its nominal time: above 1 on a slow machine."""
        return statistics.median(self.samples) / REFERENCE_NOMINAL_S


def closed_loop(workload, seconds: float, reference: Reference | None = None):
    """Send requests one after another until `seconds` have passed.

    The deadline is checked only between whole units of the workload, so
    the unit in flight at the deadline completes and counts, unless the run
    has already taken twice `seconds`: that bounds the length of a run on a
    machine slowed down by other load. The reference kernel, when given,
    runs between requests at most once a second and is not counted in the
    requests' time. Returns the requests and the elapsed wall time spent in
    them.
    """
    requests: list[Request] = []
    busy = 0.0
    start = time.perf_counter()
    while True:
        if reference is not None and reference.due():
            reference.measure()
        before = time.perf_counter()
        ops = workload.request(len(requests))
        requests.append(Request(time.perf_counter() - before, ops))
        busy += requests[-1].seconds
        elapsed = time.perf_counter() - start
        unit_done = len(requests) % workload.requests_per_unit == 0
        if elapsed >= 2 * seconds or (unit_done and elapsed >= seconds):
            return requests, busy


def replay(workload, count: int) -> tuple[list[Op], float]:
    """Requests 0..count-1 again, for the traced copy of an untraced run."""
    ops: list[Op] = []
    start = time.perf_counter()
    for index in range(count):
        ops += workload.request(index)
    return ops, time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- end-to-end metrics ------------------------------------------------------------

def _frac(hits: int, total: int) -> float:
    return hits / total if total else math.nan


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def _p50_p90(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (math.nan, math.nan)
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[4], deciles[8]


def e2e_metrics(
    requests: list[Request], busy: float, setup_s: float, slowdown: float
) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric of one run, as name -> (value, unit).

    `ops_per_s` is the median over requests of the request's completed ops
    per second: a burst of load from other processes slows a few requests
    and leaves the median alone, while `ops_per_s_total` (completed ops over
    the time spent in requests) takes it in. The `_norm` figures divide out
    the run's `slowdown` measured by the reference kernel. p90 is read with
    the inclusive method, which interpolates between the two nearest samples.
    """
    ops = [op for request in requests for op in request.ops]
    done = [op for op in ops if not op.failed]
    p50, p90 = _p50_p90([request.seconds for request in requests])
    rate = statistics.median(
        sum(not op.failed for op in request.ops) / request.seconds for request in requests
    )
    want_valid = [op for op in ops if op.expected == VALID]
    want_spurious = [op for op in ops if op.expected == SPURIOUS]
    labelled = [op for op in ops if op.expected is not None]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s_norm": (rate * slowdown, "1/s"),
        "request_s_p50_norm": (p50 / slowdown, "s"),
        "reference_slowdown": (slowdown, "x"),
        "ops_per_s": (rate, "1/s"),
        "ops_per_s_total": (len(done) / busy, "1/s"),
        "request_s_p50": (p50, "s"),
        "request_s_p90": (p90, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "certified_frac": (_frac(sum(op.certified for op in want_valid), len(want_valid)), "frac"),
        "spurious_caught_frac": (
            _frac(sum(op.verdict == SPURIOUS for op in want_spurious), len(want_spurious)),
            "frac",
        ),
        "verdict_match_frac": (
            _frac(sum(op.verdict == op.expected for op in labelled), len(labelled)),
            "frac",
        ),
        "failed_frac": (_frac(len(ops) - len(done), len(ops)), "frac"),
        "trace_dist_p50": (_median([op.trace_dist for op in done if op.trace_dist is not None]), "1"),
        "oracle_gap_p50": (_median([op.oracle_gap for op in done if op.oracle_gap is not None]), "1"),
    }


# --- per-layer metrics from the traced run -----------------------------------------

@dataclass
class SolveStats:
    """Counts read off every solve return, outside the solver."""

    tomokit: object
    iterations: dict = field(default_factory=lambda: {k: [] for k in TRACED_KINDS})
    trials: dict = field(default_factory=lambda: {k: 0 for k in TRACED_KINDS})
    stops: dict = field(
        default_factory=lambda: {k: {s: 0 for s in STOPS} for k in TRACED_KINDS}
    )

    def __call__(self, kind, args, kwargs, result) -> None:
        if kind == "pgd":
            return
        trace = result[1]
        self.iterations[kind].append(trace.iterations)
        self.stops[kind][trace.stop_reason] = self.stops[kind].get(trace.stop_reason, 0) + 1
        self.trials[kind] += trace.iterations + self._halvings(kind, args, kwargs, trace)

    def _halvings(self, kind, args, kwargs, trace) -> int:
        if kind == "mle" or not trace.eps_values:
            return 0
        tk = self.tomokit
        solve = getattr(tk, f"{kind}_solve")
        bound = inspect.signature(solve).bind(*args, **kwargs)
        bound.apply_defaults()
        params = bound.arguments
        policy = params["policy"] or tk.StepPolicy()
        rho0 = params["state0"].density() if kind == "fgd" else params["rho0"]
        gradient = params["obj"].gradient(rho0)
        eps_start = policy.resolve_initial(float(np.linalg.norm(gradient.entries)))
        ratio = eps_start / trace.eps_values[-1]
        return round(math.log(ratio) / math.log(1.0 / policy.shrink))


def layer_metrics(tracer: Tracer, solves: SolveStats) -> dict[str, tuple[float, str]]:
    """Per-layer metrics taken from the spans and solve returns of a traced run."""
    out: dict[str, tuple[float, str]] = {}
    for kind in SOLVER_KINDS:
        seconds = tracer.total(f"solvers.{kind}")
        out[f"solvers.{kind}.solves"] = (len(tracer.durations(f"solvers.{kind}")), "count")
        out[f"solvers.{kind}.s"] = (seconds, "s")
        if kind not in TRACED_KINDS:
            continue
        its = solves.iterations[kind]
        total = sum(its)
        out[f"solvers.{kind}.us_per_iter"] = (1e6 * seconds / total if total else 0.0, "us")
        out[f"solvers.{kind}.iterations_p50"] = (float(np.median(its)) if its else 0.0, "count")
        out[f"solvers.{kind}.iterations_total"] = (total, "count")
        out[f"solvers.{kind}.trials_per_iter"] = (
            solves.trials[kind] / total if total else 0.0,
            "count",
        )
        for stop in STOPS:
            out[f"solvers.{kind}.stop.{stop}"] = (solves.stops[kind][stop], "count")

    self_times = tracer.self_times()
    experiments_self = sum(
        t
        for span, t in zip(tracer.spans, self_times)
        if span.name.startswith("experiments.") and not span.name.startswith("experiments.io.")
    )
    cli_calls = [t for span, t in zip(tracer.spans, self_times) if span.name == "cli.main"]
    out["hermitian.io_s"] = (
        tracer.total("hermitian.io.load_matrix", "hermitian.io.save_matrix"),
        "s",
    )
    out["operators.data_io_s"] = (
        tracer.total("operators.data_io.load_csv", "operators.data_io.save_csv"),
        "s",
    )
    out["diagnostics.s"] = (tracer.total("diagnostics.validity_certificate"), "s")
    out["experiments.self_s"] = (experiments_self, "s")
    out["experiments.io_s"] = (
        tracer.total("experiments.io.records_to_csv", "experiments.io.records_to_json"),
        "s",
    )
    out["cli.self_ms"] = (1e3 * statistics.fmean(cli_calls) if cli_calls else 0.0, "ms")
    return out


# --- microbenchmarks of the layer entry points ---------------------------------------

def time_call(fn, repeats: int = 9, batch_s: float = 0.004) -> tuple[float, int]:
    """Median seconds per call over `repeats` timed batches, after a warm-up.

    The batch size comes from the median of five timed warm-up calls, so that
    one batch takes about `batch_s`. Returns the median and the number of
    calls made, warm-up included.
    """
    warm = []
    for _ in range(5):
        start = time.perf_counter()
        fn()
        warm.append(time.perf_counter() - start)
    batch = min(1 << 16, max(1, round(batch_s / max(statistics.median(warm), 1e-9))))
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - start) / batch)
    return statistics.median(samples), len(warm) + repeats * batch


def microbench(tk, descriptor: dict) -> tuple[dict[str, tuple[float, str]], dict[str, int]]:
    """Public layer calls on the workload's operator and a fixed state.

    The state and data come from fixed seeds, not the workload seed, so the
    numbers compare across runs. Returns the metrics and the call counts.
    """
    ex = tk.experiments
    operator = ex.operator_from_descriptor(descriptor)
    N = operator.dim
    rho = tk.random_density(N, N, 11)
    truth = tk.random_density(N, max(1, N // 2), 12)
    data = ex.simulate_data(operator, truth, 500.0, 13, noisy=True)
    nll = tk.Objective(operator, data, kind="nll")
    l2 = tk.Objective(operator, data, kind="l2")
    g = nll.gradient(rho)
    eps = tk.StepPolicy().resolve_initial(float(np.linalg.norm(g.entries)))
    factor = tk.FactorState.from_density(rho, N)
    other = tk.random_density(N, N, 14)
    difference = tk.HermitianMatrix(rho.entries - other.entries)
    noise = tk.random_hermitian(N, 15)

    cases = {
        "operators.apply_us": lambda: operator.apply(rho),
        "operators.adjoint_us": lambda: operator.adjoint(data),
        "objectives.nll.value_us": lambda: nll.value(rho),
        "objectives.nll.gradient_us": lambda: nll.gradient(rho),
        "objectives.l2.value_us": lambda: l2.value(rho),
        "objectives.l2.gradient_us": lambda: l2.gradient(rho),
        "solvers.gm_step_us": lambda: tk.gm_step(rho, g, eps),
        "solvers.fgd_step_us": lambda: tk.fgd_step(factor, nll, eps),
        "hermitian.trace_norm_us": lambda: tk.trace_norm(difference),
        "hermitian.project_us": lambda: tk.project_to_density(noise),
        "diagnostics.certificate_us": lambda: tk.validity_certificate(rho, nll),
    }
    metrics: dict[str, tuple[float, str]] = {}
    calls: dict[str, int] = {}
    for name, fn in cases.items():
        seconds, count = time_call(fn)
        metrics[name] = (1e6 * seconds, "us")
        calls[name] = count
    seconds, count = time_call(lambda: ex.operator_from_descriptor(descriptor), repeats=5, batch_s=0.0)
    metrics["operators.build_ms"] = (1e3 * seconds, "ms")
    calls["operators.build_ms"] = count
    # Computed, not measured: the complex (MK, N^2) design at 16 bytes an entry.
    metrics["operators.design_bytes"] = (operator.rows * operator.cols * N * N * 16, "bytes")
    return metrics, calls


# --- environment ---------------------------------------------------------------------

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "TOMO_THREADS")


def blas_name() -> str:
    try:
        config = np.show_config(mode="dicts")
        return str(config["Build Dependencies"]["blas"]["name"])
    except (TypeError, KeyError):
        return "unknown"


def git_commit(root: Path) -> str | None:
    """HEAD of a git checkout, read from its files; None outside a checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(root: Path, thread_env: dict[str, str | None]) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name(),
        "thread_env": thread_env,
        "git_commit": git_commit(root),
    }
