"""The benchmark's workloads: closed loop, one client, tomokit's public API.

Each workload computes its inputs from the seed in `make_inputs`, pays its
set-up in `setup`, then serves numbered requests. A request is one call
into the package and returns one `Op` per unit of work it did (a solve, or
a validate call). The outputs of every request are checked, and an op whose
check fails is marked failed. A run stops only after a whole unit of
`requests_per_unit` requests, so every run sees the same mix of inputs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

VALID = "valid"
SPURIOUS = "spurious"
NOT_FIXED_POINT = "not_fixed_point"


@dataclass(frozen=True)
class Size:
    """Problem size of every workload; FULL is the benchmark, TINY the self-test."""

    dim: int = 10
    n_angles: int = 15
    n_bins: int = 50
    half_width: float = 7.0
    true_rank: int = 5
    max_iter: int = 20000
    inputs_per_label: int = 3
    dataset_pool: int = 12


FULL = Size()
TINY = Size(
    dim=4, n_angles=5, n_bins=12, half_width=6.0, true_rank=2, max_iter=3000,
    inputs_per_label=1, dataset_pool=2,
)

NOISE_SCALE = 500.0


@dataclass
class Op:
    """One unit of work and what its outputs said."""

    failed: bool = False
    expected: str | None = None
    verdict: str | None = None
    stop: str | None = None
    trace_dist: float | None = None
    oracle_gap: float | None = None
    iterations: int = 0

    @property
    def certified(self) -> bool:
        return self.verdict == VALID and self.stop in (None, "converged")


def _failure(count: int, errors: list[str]) -> list[Op]:
    errors.append(traceback.format_exc(limit=4))
    return [Op(failed=True) for _ in range(count)]


class Workload:
    name = ""
    requests_per_unit = 1

    def __init__(self, tomokit, size: Size, seed: int):
        self.tk = tomokit
        self.size = size
        self.seed = seed
        self.errors: list[str] = []
        ex = tomokit.experiments
        self.descriptor = ex.standard_homodyne_descriptor(
            size.dim, size.n_angles, size.n_bins, size.half_width
        )

    def make_inputs(self) -> None:
        """Compute the inputs from the seed, once and untimed."""

    def setup(self, workdir: Path) -> None:
        """Set-up a user pays before the first request; timed and repeatable."""

    def request(self, index: int) -> list[Op]:
        raise NotImplementedError

    def warm_up(self) -> None:
        """An untimed factorized solve, so that lazy start-up costs of the
        process (BLAS threads, first-touch memory) fall before the timed phase."""
        tk = self.tk
        operator = tk.experiments.operator_from_descriptor(self.descriptor)
        N = operator.dim
        obj = tk.Objective(operator, tk.MeasurementData(operator.apply(tk.random_density(N, N, 1))))
        start = tk.FactorState.from_density(tk.random_density(N, N, 2), N)
        tk.fgd_solve(start, obj, max_iter=2000, tol=0.0)


class RankTrap(Workload):
    """experiments.rank_trap in the criterion-09 shape.

    A unit is one truth with every start rank. Its start ranks are split into
    pairs (r, r + N/2), one request each, so that every request holds one
    start at or below N/2, which converges, and one above, which runs to
    max_iter today; request latencies then come from one population. The
    pair holding the true rank goes first, so a run cut short still has a
    start that can reach the minimizer.
    """

    name = "rank-trap"

    def __init__(self, tomokit, size: Size, seed: int):
        super().__init__(tomokit, size, seed)
        ranks = list(range(1, size.dim + 1))
        half = (size.dim + 1) // 2
        pairs = [ranks[i::half] for i in range(half)]
        first = next(i for i, pair in enumerate(pairs) if size.true_rank in pair)
        self.pairs = pairs[first:] + pairs[:first]
        self.requests_per_unit = len(self.pairs)

    def request(self, index: int) -> list[Op]:
        ex = self.tk.experiments
        true_rank = self.size.true_rank
        truth, pair = divmod(index, len(self.pairs))
        start_ranks = self.pairs[pair]
        config = {
            "operator": self.descriptor,
            "true_rank": true_rank,
            "count": 1,
            "start_ranks": start_ranks,
            "fit": "nll",
            "solver": {"tol": 1e-12, "max_iter": self.size.max_iter},
            "seed": ex.derive_seed(self.seed, truth),
        }
        try:
            records, _summary = ex.rank_trap(config)
            if len(records) != len(start_ranks):
                raise ValueError(f"rank_trap returned {len(records)} records")
        except Exception:
            return _failure(len(start_ranks), self.errors)
        ops = []
        for rec, start_rank in zip(records, start_ranks):
            trapped = start_rank < true_rank
            verdict = rec.certificate.verdict
            ops.append(
                Op(
                    # A start below the true rank cannot reach the minimizer:
                    # certifying its limit valid is a wrong answer. Not
                    # reaching a fixed point by max_iter is not; that shows
                    # in spurious_caught_frac.
                    failed=trapped and verdict == VALID,
                    expected=SPURIOUS if trapped else VALID,
                    verdict=verdict,
                    stop=rec.stop_reason,
                    trace_dist=None if trapped else rec.trace_distance_to_truth,
                    iterations=rec.iterations,
                )
            )
        return ops


class Reconstruct(Workload):
    """generate_dataset, then reconstruct_dataset with records written."""

    name = "reconstruct"

    def solver_configs(self) -> list[dict]:
        cap = {"max_iter": self.size.max_iter}
        return [
            {"solver": "gm", "fit": "nll", **cap},
            {"solver": "fgd", "fit": "nll", **cap},
            {"solver": "gm", "fit": "l2", **cap},
            {"solver": "mle", "fit": "nll", **cap},
            {"solver": "fgd", "fit": "nll", "rank": 3, **cap},
        ]

    def setup(self, workdir: Path) -> None:
        ex = self.tk.experiments
        self.workdir = workdir
        rng = np.random.default_rng(self.seed)
        ranks = rng.permutation(np.arange(1, self.size.dim + 1))
        self.datasets = []
        for k in range(self.size.dataset_pool):
            spec = ex.parse_experiment_spec(
                {
                    "operator": self.descriptor,
                    "ensemble": {"dim": self.size.dim, "ranks": [int(ranks[k % ranks.size])]},
                    "noise": {"scale": NOISE_SCALE},
                },
                output_dir=workdir / f"dataset_{k:03d}",
                seed=ex.derive_seed(self.seed, k),
            )
            ex.generate_dataset(spec)
            self.datasets.append(Path(spec.output_dir))

    def request(self, index: int) -> list[Op]:
        ex = self.tk.experiments
        solvers = self.solver_configs()
        fits = {cfg["fit"] for cfg in solvers}
        out = self.workdir / f"records_{index:04d}"
        try:
            records = ex.reconstruct_dataset(
                self.datasets[index % len(self.datasets)], {"solvers": solvers}, out_dir=out
            )
            _check_record_files(out, len(solvers))
        except Exception:
            return _failure(len(solvers) + len(fits), self.errors)
        ops = []
        for rec in records:
            full = not rec.solver_id.endswith("-r3")
            expected = VALID if full else (SPURIOUS if rec.truth["rank"] > 3 else None)
            ops.append(
                Op(
                    expected=expected,
                    verdict=rec.certificate.verdict,
                    stop=rec.stop_reason,
                    trace_dist=rec.trace_distance_to_truth if full else None,
                    oracle_gap=rec.trace_distance_to_oracle if full else None,
                    iterations=rec.iterations,
                )
            )
        # The PGD oracle runs once per fit and reports no time of its own.
        ops += [Op() for _ in fits]
        return ops


def _check_record_files(out: Path, rows: int) -> None:
    with open(out / "records.csv", newline="", encoding="utf-8") as fh:
        table = list(csv.DictReader(fh))
    if len(table) != rows:
        raise ValueError(f"records.csv has {len(table)} rows, expected {rows}")
    for row in table:
        float(row["trace_distance_to_truth"])
        float(row["wall_time"])
    payload = json.loads((out / "records.json").read_text(encoding="utf-8"))
    if len(payload["records"]) != rows:
        raise ValueError(f"records.json has {len(payload['records'])} records, expected {rows}")


class Validate(Workload):
    """`tomo validate` in-process over prepared state files, in a seeded order."""

    name = "validate"

    def make_inputs(self) -> None:
        """States and data for each label. The spurious states come from
        solves whose length varies with the seed, so this is input generation
        rather than set-up; set-up writes the files."""
        tk, size = self.tk, self.size
        ex = tk.experiments
        N = size.dim
        operator = ex.operator_from_descriptor(self.descriptor)
        mixed = tk.DensityLike.from_array(np.eye(N, dtype=complex) / N)
        self.cases = []
        for k in range(size.inputs_per_label):
            seeds = [ex.derive_seed(self.seed, k, j) for j in range(4)]
            # Oracle solution on noisy data: the minimizer itself.
            truth = tk.random_density(N, 1 + k % N, seeds[0])
            noisy = ex.simulate_data(operator, truth, NOISE_SCALE, seeds[1], noisy=True)
            oracle = tk.pgd_solve(mixed, tk.Objective(operator, noisy))
            self.cases.append((VALID, k, oracle, noisy))
            # Rank-1 limit on exact data from a rank >= 3 truth: a spurious fixed point.
            truth = tk.random_density(N, min(N, 3 + k % 4), seeds[2])
            exact = ex.simulate_data(operator, truth, NOISE_SCALE, 0, noisy=False)
            start = tk.FactorState.from_density(tk.random_density(N, 1, seeds[3]), 1)
            limit, _trace = tk.fgd_solve(
                start, tk.Objective(operator, exact), max_iter=size.max_iter, tol=1e-12
            )
            self.cases.append((SPURIOUS, k, limit.density(), exact))
            # A random full-rank state against unrelated data: not a fixed point.
            self.cases.append((NOT_FIXED_POINT, k, tk.random_density(N, N, seeds[0] + 1), noisy))

    def setup(self, workdir: Path) -> None:
        config = workdir / "config.json"
        config.write_text(json.dumps({"operator": self.descriptor, "fit": "nll"}), encoding="utf-8")
        self.config = str(config)
        self.inputs = []
        for label, k, state, data in self.cases:
            state_path = workdir / f"{label}_{k}_state.json"
            data_path = workdir / f"{label}_{k}_data.csv"
            self.tk.save_matrix(state_path, state)
            data.save_csv(data_path)
            self.inputs.append((label, str(state_path), str(data_path)))
        self._cycle, self._order = -1, np.arange(0)

    def _input(self, index: int):
        cycle, pos = divmod(index, len(self.inputs))
        if cycle != self._cycle:
            rng = np.random.default_rng([self.seed, cycle])
            self._cycle, self._order = cycle, rng.permutation(len(self.inputs))
        return self.inputs[self._order[pos]]

    def request(self, index: int) -> list[Op]:
        label, state, data = self._input(index)
        cli = self.tk.cli
        codes = self.tk.experiments.VALIDATE_EXIT_CODES
        argv = ["validate", "--state", state, "--config", self.config, "--data", data]
        printed = io.StringIO()
        try:
            with contextlib.redirect_stdout(printed):
                code = cli.main(argv)
            verdict = json.loads(printed.getvalue())["verdict"]
        except Exception:
            return _failure(1, self.errors)
        failed = code != codes[label] or codes.get(verdict) != code
        return [Op(failed=failed, expected=label, verdict=verdict)]


WORKLOADS = {cls.name: cls for cls in (RankTrap, Reconstruct, Validate)}
