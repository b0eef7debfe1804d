"""In-memory spans recorded around tomokit's public functions.

The traced run patches the public functions that `tomokit.experiments` and
`tomokit.cli` call in the lower layers, for the duration of a `with
instrument(tracer, tomokit):` block, and restores them afterwards. Nothing in the
package itself is edited, so only calls that cross a module boundary through
a module attribute are seen; calls a layer makes to its own private helpers
are inside the enclosing span.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


@dataclass
class Tracer:
    """Spans (name, start, end, parent index) of one thread, in start order."""

    spans: list[Span] = field(default_factory=list)
    _open: list[int] = field(default_factory=list)

    def call(self, name, fn, args, kwargs):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        span = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(span)
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def total(self, *names: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name in names)

    def self_times(self) -> list[float]:
        """Self time of every span: its duration minus the union of its children."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        return [
            (s.end - s.start) - covered(s, children.get(i, [])) for i, s in enumerate(self.spans)
        ]


def covered(parent: Span, children: list[Span]) -> float:
    """Length of the part of `parent`'s interval that the children cover."""
    total = 0.0
    reach = parent.start
    for child in sorted(children, key=lambda s: s.start):
        lo = max(child.start, reach)
        hi = min(child.end, parent.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _wrapper(tracer: Tracer, name: str, fn, on_return=None):
    def wrapped(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if on_return is not None:
            on_return(args, kwargs, result)
        return result

    wrapped.__wrapped__ = fn
    return wrapped


@contextlib.contextmanager
def patched(targets):
    """Set (owner, attribute, value) triples, restoring the old values on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, value in targets:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def instrument(tracer: Tracer, tomokit, on_solve=None):
    """Context manager wrapping the layer entry points of an imported tomokit.

    `on_solve(kind, args, kwargs, result)` sees every fgd/gm/mle/pgd solve
    return, for counts derived from the returned traces.
    """
    cli, ex = tomokit.cli, tomokit.experiments
    data_cls, objective_cls = tomokit.MeasurementData, tomokit.Objective

    def solve_hook(kind):
        if on_solve is None:
            return None
        return lambda args, kwargs, result: on_solve(kind, args, kwargs, result)

    def wrap(owner, attr, name, on_return=None):
        fn = owner.__dict__[attr]
        if isinstance(fn, classmethod):
            inner = fn.__func__
            return owner, attr, classmethod(_wrapper(tracer, name, inner, on_return))
        return owner, attr, _wrapper(tracer, name, fn, on_return)

    targets = [wrap(cli, "main", "cli.main")]
    for attr in (
        "generate_dataset",
        "reconstruct_dataset",
        "rank_trap",
        "validate_state",
        "run_solver_config",
        "simulate_data",
    ):
        targets.append(wrap(ex, attr, f"experiments.{attr}"))
    for attr in ("records_to_csv", "records_to_json"):
        targets.append(wrap(ex, attr, f"experiments.io.{attr}"))
    targets += [
        wrap(ex, "operator_from_descriptor", "operators.build"),
        wrap(ex, "random_density", "hermitian.random_density"),
        wrap(ex, "trace_norm", "hermitian.trace_norm"),
        wrap(ex, "load_matrix", "hermitian.io.load_matrix"),
        wrap(ex, "save_matrix", "hermitian.io.save_matrix"),
        wrap(data_cls, "load_csv", "operators.data_io.load_csv"),
        wrap(data_cls, "save_csv", "operators.data_io.save_csv"),
        wrap(objective_cls, "value", "objectives.value"),
        wrap(ex, "validity_certificate", "diagnostics.validity_certificate"),
    ]
    for kind in ("fgd", "gm", "mle", "pgd"):
        targets.append(wrap(ex, f"{kind}_solve", f"solvers.{kind}", solve_hook(kind)))
    return patched(targets)
