"""Experiment orchestration: synthetic datasets, reconstruction runs, summaries.

Every random draw is derived from (master seed, instance key), so datasets
and run tables are reproducible.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .diagnostics import (
    NOT_FIXED_POINT,
    SPURIOUS,
    VALID,
    ValidityCertificate,
    validity_certificate,
)
from .hermitian import DensityLike, load_matrix, random_density, save_matrix, trace_norm
from .objectives import Objective
from .operators import MeasurementData, MeasurementOperator, operator_from_descriptor
from .solvers import (
    FactorState,
    SolverTrace,
    fgd_solve,
    gm_solve,
    mle_solve,
    pgd_solve,
)

VALIDATE_EXIT_CODES = {VALID: 0, SPURIOUS: 2, NOT_FIXED_POINT: 3}

RECORD_CSV_COLUMNS = [
    "instance_id",
    "solver_id",
    "data_variant",
    "truth_rank",
    "truth_seed",
    "trace_distance_to_truth",
    "trace_distance_to_oracle",
    "final_objective",
    "iterations",
    "stop_reason",
    "lambda",
    "min_eig_Q",
    "min_eig_Q_restricted",
    "m_residual",
    "verdict",
    "floor_triggered",
    "wall_time",
]

SUMMARY_CSV_COLUMNS = [
    "start_rank",
    "median_trace_distance",
    "median_min_eig_Q_restricted",
    "spurious_fraction",
    "median_iterations",
]


def derive_seed(master: int, *key: int) -> int:
    """Stable integer sub-seed for (master seed, instance key)."""
    ss = np.random.SeedSequence([int(master), *(int(k) for k in key)])
    return int(ss.generate_state(1)[0])


def simulate_data(
    operator: MeasurementOperator,
    rho: DensityLike,
    scale: float,
    seed: int,
    noisy: bool,
) -> MeasurementData:
    """Forward data for a state, optionally with row-normalized Poisson counts.

    Noisy draws take counts ~ Poisson(scale * forward values) and divide each
    setting row by its sum; rows that come up all-zero are redrawn up to ten
    times before giving up.
    """
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    exact = np.clip(operator.apply(rho), 0.0, None)
    if not noisy:
        return MeasurementData(exact)
    rng = np.random.default_rng(seed)
    counts = rng.poisson(scale * exact).astype(float)
    row_sums = counts.sum(axis=1)
    retries = 0
    while (row_sums == 0.0).any():
        if retries >= 10:
            raise RuntimeError("a measurement row kept drawing zero total counts")
        dead = row_sums == 0.0
        counts[dead] = rng.poisson(scale * exact[dead])
        row_sums = counts.sum(axis=1)
        retries += 1
    return MeasurementData(counts / row_sums[:, None])


def standard_homodyne_descriptor(
    dim: int = 10,
    n_angles: int = 15,
    n_bins: int = 50,
    half_width: float = 7.0,
    quad_order: int = 20,
) -> dict:
    """Descriptor for the reference quadrature setup: equispaced angles on
    [0, pi), equal bins on [-half_width, half_width]."""
    angles = [j * math.pi / n_angles for j in range(n_angles)]
    edges = np.linspace(-half_width, half_width, n_bins + 1).tolist()
    return {
        "kind": "homodyne",
        "dim": dim,
        "angles": angles,
        "bin_edges": edges,
        "quad_order": quad_order,
    }


# --- experiment spec ----------------------------------------------------------

@dataclass
class ExperimentSpec:
    """Resolved configuration for dataset generation."""

    operator: dict
    dim: int
    ranks: list[int]
    count_per_rank: int
    noise_scale: float = 500.0
    noise_enabled: bool = True
    solvers: list[dict] = field(default_factory=list)
    seed: int = 0
    output_dir: str = "."

    def __post_init__(self):
        if self.count_per_rank < 1:
            raise ValueError(f"count_per_rank must be >= 1, got {self.count_per_rank}")
        if not self.noise_scale > 0:
            raise ValueError(f"noise scale must be positive, got {self.noise_scale}")
        if not self.ranks:
            raise ValueError("ranks must be nonempty")
        for r in self.ranks:
            if not 1 <= r <= self.dim:
                raise ValueError(f"rank {r} outside [1, {self.dim}]")

    def config_dict(self) -> dict:
        return {
            "operator": self.operator,
            "ensemble": {
                "dim": self.dim,
                "ranks": list(self.ranks),
                "count_per_rank": self.count_per_rank,
            },
            "noise": {"scale": self.noise_scale, "enabled": self.noise_enabled},
            "solvers": self.solvers,
            "seed": self.seed,
        }


def _json_object(value, name: str) -> dict:
    """A nested config block, which must be a JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"config field {name} must be a JSON object, got {value!r}")
    return value


def _json_list(value, name: str) -> list:
    """A list-typed config field, which must be a JSON list."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"config field {name} must be a JSON list, got {value!r}")
    return list(value)


def parse_experiment_spec(config: dict, output_dir=None, seed=None) -> ExperimentSpec:
    ensemble = _json_object(config.get("ensemble", {}), "ensemble")
    noise = _json_object(config.get("noise", {}), "noise")
    return ExperimentSpec(
        operator=config["operator"],
        dim=int(ensemble["dim"]),
        ranks=[int(r) for r in _json_list(ensemble["ranks"], "ensemble.ranks")],
        count_per_rank=int(ensemble.get("count_per_rank", 1)),
        noise_scale=float(noise.get("scale", 500.0)),
        noise_enabled=bool(noise.get("enabled", True)),
        solvers=_json_list(config.get("solvers", []), "solvers"),
        seed=int(config.get("seed", 0) if seed is None else seed),
        output_dir=str(config.get("output_dir", ".") if output_dir is None else output_dir),
    )


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def generate_dataset(spec: ExperimentSpec) -> dict:
    """Write truth matrices plus exact/noisy data per instance, with a manifest.

    Layout: <output_dir>/instances/<id>/{truth.json, exact.csv, noisy.csv}
    and <output_dir>/manifest.json carrying the resolved config, per-instance
    seeds, and content digests. Reruns of the same spec are byte-identical.
    """
    out = Path(spec.output_dir)
    operator = operator_from_descriptor(spec.operator)

    instances = []
    for rank in spec.ranks:
        for idx in range(spec.count_per_rank):
            iid = f"r{rank:02d}_i{idx:03d}"
            inst_dir = out / "instances" / iid
            inst_dir.mkdir(parents=True, exist_ok=True)
            truth_seed = derive_seed(spec.seed, rank, idx, 0)
            noise_seed = derive_seed(spec.seed, rank, idx, 1)
            truth = random_density(spec.dim, rank, truth_seed)
            save_matrix(inst_dir / "truth.json", truth.matrix)
            exact = simulate_data(operator, truth, spec.noise_scale, 0, noisy=False)
            exact.save_csv(inst_dir / "exact.csv")
            files = {"truth": "truth.json", "exact": "exact.csv"}
            if spec.noise_enabled:
                noisy = simulate_data(operator, truth, spec.noise_scale, noise_seed, noisy=True)
                noisy.save_csv(inst_dir / "noisy.csv")
                files["noisy"] = "noisy.csv"
            instances.append({
                "id": iid,
                "rank": rank,
                "index": idx,
                "truth_seed": truth_seed,
                "noise_seed": noise_seed if spec.noise_enabled else None,
                "files": {
                    name: {
                        "path": f"instances/{iid}/{fname}",
                        "sha256": _sha256(inst_dir / fname),
                    }
                    for name, fname in files.items()
                },
            })

    manifest = {"config": spec.config_dict(), "instances": instances}
    _write_json(out / "manifest.json", manifest)
    return manifest


# --- reconstruction ------------------------------------------------------------

@dataclass
class RunRecord:
    """Outcome of one solver on one instance."""

    instance_id: str
    truth: dict
    solver_id: str
    data_variant: str
    trace_distance_to_truth: float
    trace_distance_to_oracle: float
    final_objective: float
    certificate: ValidityCertificate
    iterations: int
    stop_reason: str
    floor_triggered: bool
    wall_time: float

    def to_json_dict(self) -> dict:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["certificate"] = self.certificate.to_json_dict()
        return payload

    def csv_row(self) -> list:
        """RECORD_CSV_COLUMNS picked from the flattened JSON record; str of a float is its repr."""
        flat = self.to_json_dict()
        flat.update(flat.pop("certificate"))
        flat["truth_rank"] = self.truth.get("rank")
        flat["truth_seed"] = self.truth.get("seed")
        flat["floor_triggered"] = int(self.floor_triggered)
        return [flat[column] for column in RECORD_CSV_COLUMNS]


def records_to_csv(records: list[RunRecord], path) -> None:
    lines = [",".join(RECORD_CSV_COLUMNS)]
    lines += [",".join(str(v) for v in rec.csv_row()) for rec in records]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def records_to_json(records: list[RunRecord], path, config: dict | None = None) -> None:
    payload = {"records": [rec.to_json_dict() for rec in records]}
    if config is not None:
        payload["config"] = config
    _write_json(Path(path), payload)


def solver_id_of(cfg: dict) -> str:
    rank = cfg.get("rank")
    rank_tag = "full" if rank is None else f"r{int(rank)}"
    return f"{cfg.get('solver', 'gm')}-{cfg.get('fit', 'nll')}-{rank_tag}"


def run_solver_config(
    cfg: dict,
    operator: MeasurementOperator,
    data: MeasurementData,
    instance_seed: int = 0,
) -> tuple[DensityLike, SolverTrace | None, Objective]:
    """Dispatch one solver configuration against one data array.

    Reads the keys `solver` (gm, fgd, mle or pgd; default gm), `fit` (default
    nll), `tol` (default 1e-10), `max_iter` (default 20000), `rank` (absent:
    full rank) and `seed` (default 0). Full-rank iterations start from the
    maximally mixed state; rank-limited ones start from a random state of that
    rank, seeded by (seed, instance_seed).
    """
    kind = cfg.get("solver", "gm")
    obj = Objective(operator, data, kind=cfg.get("fit", "nll"))
    tol = float(cfg.get("tol", 1e-10))
    max_iter = int(cfg.get("max_iter", 20000))
    rank = cfg.get("rank")
    N = operator.dim

    if rank is None:
        rho0 = DensityLike.from_array(np.eye(N, dtype=complex) / N)
    else:
        rank = int(rank)
        rho0 = random_density(N, rank, derive_seed(int(cfg.get("seed", 0)), instance_seed))

    if kind == "pgd":
        return pgd_solve(rho0, obj, max_iter=max_iter, tol=tol), None, obj
    if kind in ("gm", "mle"):
        solve = gm_solve if kind == "gm" else mle_solve
        final, trace = solve(rho0, obj, max_iter=max_iter, tol=tol)
        return final, trace, obj
    if kind == "fgd":
        state0 = FactorState.from_density(rho0, rank if rank is not None else N)
        state, trace = fgd_solve(state0, obj, max_iter=max_iter, tol=tol)
        return state.density(), trace, obj
    raise ValueError(f"unknown solver kind {kind!r}")


def _run_record(
    instance_id: str,
    truth: DensityLike,
    truth_desc: dict,
    solver_id: str,
    variant: str,
    final: DensityLike,
    trace: SolverTrace | None,
    obj: Objective,
    wall: float,
    oracle_distance: float = math.nan,
) -> RunRecord:
    """Record of one solve, certified at its final state; no trace means the oracle."""
    return RunRecord(
        instance_id=instance_id,
        truth=truth_desc,
        solver_id=solver_id,
        data_variant=variant,
        trace_distance_to_truth=trace_norm(final.entries - truth.entries),
        trace_distance_to_oracle=oracle_distance,
        final_objective=obj.value(final),
        certificate=validity_certificate(final, obj),
        iterations=trace.iterations if trace is not None else -1,
        stop_reason=trace.stop_reason if trace is not None else "oracle",
        floor_triggered=obj.floor_active(final),
        wall_time=wall,
    )


def reconstruct_dataset(dataset_dir, run_config: dict, out_dir=None) -> list[RunRecord]:
    """Run every configured solver on every dataset instance.

    Each record carries a validity certificate; noisy-data runs additionally
    record the trace distance to a projected-gradient reference solution
    computed on the same data and fit. That oracle stops once the trace norm
    of its step falls below `tol` (default 1e-10), so `trace_distance_to_oracle`
    values near 1e-9 lie within its stop tolerance, not solver disagreement.
    """
    dataset = Path(dataset_dir)
    manifest = json.loads((dataset / "manifest.json").read_text(encoding="utf-8"))
    operator = operator_from_descriptor(manifest["config"]["operator"])
    solver_cfgs = run_config.get("solvers") or manifest["config"].get("solvers") or []
    if not solver_cfgs:
        raise ValueError("no solver configurations given")
    solver_cfgs = _json_list(solver_cfgs, "solvers")
    solver_cfgs = [_json_object(cfg, f"solvers[{i}]") for i, cfg in enumerate(solver_cfgs)]
    oracle_cfg = _json_object(run_config.get("oracle", {}), "oracle")

    records = []
    for index, entry in enumerate(manifest["instances"]):
        truth = DensityLike(load_matrix(dataset / entry["files"]["truth"]["path"]))
        truth_desc = {"rank": entry["rank"], "seed": entry["truth_seed"]}
        data_cache: dict[str, MeasurementData] = {}
        oracle_cache: dict[tuple[str, str], DensityLike] = {}
        for cfg in solver_cfgs:
            variant = cfg.get("data", "noisy" if "noisy" in entry["files"] else "exact")
            if variant not in entry["files"]:
                raise ValueError(f"instance {entry['id']} has no {variant!r} data")
            if variant not in data_cache:
                data_cache[variant] = MeasurementData.load_csv(
                    dataset / entry["files"][variant]["path"]
                )
            data = data_cache[variant]

            start = time.perf_counter()
            final, trace, obj = run_solver_config(cfg, operator, data, instance_seed=index)
            wall = time.perf_counter() - start

            oracle_distance = math.nan
            if variant == "noisy":
                key = (variant, obj.kind)
                if key not in oracle_cache:
                    mixed = np.eye(operator.dim, dtype=complex) / operator.dim
                    oracle_cache[key] = pgd_solve(
                        DensityLike.from_array(mixed), obj,
                        max_iter=int(oracle_cfg.get("max_iter", 20000)),
                        tol=float(oracle_cfg.get("tol", 1e-10)),
                    )
                oracle_distance = trace_norm(final.entries - oracle_cache[key].entries)

            records.append(
                _run_record(
                    entry["id"], truth, truth_desc, solver_id_of(cfg), variant,
                    final, trace, obj, wall, oracle_distance,
                )
            )

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        records_to_csv(records, out / "records.csv")
        records_to_json(records, out / "records.json", config=run_config)
    return records


# --- rank-trap protocol ---------------------------------------------------------

def rank_trap(config: dict, out_dir=None) -> tuple[list[RunRecord], list[dict]]:
    """Reconstruct rank-limited starts against fixed-rank truths, per start rank.

    Exact data from `count` truths of rank `true_rank` under the required
    `operator` descriptor; reconstruction with the factorized solve started
    at every rank in `start_ranks`. The solve takes the preconditioned step
    with momentum and its certificate stop (see fgd_solve), so `tol` in the
    `solver` block does not set the accuracy of a start at or above the true
    rank: it stops once validity_certificate passes (m_residual <= 1e-8). At
    the criterion-09 config a start takes a median of 175-200 iterations at
    r >= 5 and 364-520 below, and r >= 5 ends within 1.5e-8 trace distance of
    the truth (plain FGD at tol 1e-12: about 6e-10). Returns the run records
    plus a per-start-rank summary with median trace distance, median
    kernel-restricted minimum eigenvalue, spurious fraction and median
    iteration count.
    """
    operator = operator_from_descriptor(config["operator"])
    N = operator.dim
    true_rank = int(config.get("true_rank", 5))
    count = int(config.get("count", 10))
    start_ranks = _json_list(config.get("start_ranks", list(range(1, N + 1))), "start_ranks")
    start_ranks = [int(r) for r in start_ranks]
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    for r in start_ranks:
        if not 1 <= r <= N:
            raise ValueError(f"start rank {r} outside [1, {N}]")
    fit = config.get("fit", "nll")
    solver_cfg = _json_object(config.get("solver", {}), "solver")
    tol = float(solver_cfg.get("tol", 1e-12))
    max_iter = int(solver_cfg.get("max_iter", 20000))
    seed = int(config.get("seed", 0))

    records = []
    by_start_rank: dict[int, list[RunRecord]] = {r: [] for r in start_ranks}
    for t_idx in range(count):
        truth_seed = derive_seed(seed, true_rank, t_idx, 0)
        truth = random_density(N, true_rank, truth_seed)
        data = simulate_data(operator, truth, 500.0, 0, noisy=False)
        obj = Objective(operator, data, kind=fit)
        for r in start_ranks:
            init_seed = derive_seed(seed, true_rank, t_idx, 2, r)
            state0 = FactorState.from_density(random_density(N, r, init_seed), r)
            start = time.perf_counter()
            state, trace = fgd_solve(state0, obj, max_iter=max_iter, tol=tol, precondition=True)
            wall = time.perf_counter() - start
            record = _run_record(
                f"t{t_idx:03d}", truth, {"rank": true_rank, "seed": truth_seed},
                f"fgd-{fit}-r{r}", "exact", state.density(), trace, obj, wall,
            )
            records.append(record)
            by_start_rank[r].append(record)

    summary = []
    for r in start_ranks:
        rows = by_start_rank[r]
        dists = [rec.trace_distance_to_truth for rec in rows]
        eigs = [rec.certificate.min_eig_Q_restricted for rec in rows]
        spurious = sum(rec.certificate.verdict == SPURIOUS for rec in rows)
        summary.append(
            {
                "start_rank": r,
                "median_trace_distance": float(np.median(dists)),
                "median_min_eig_Q_restricted": float(np.median(eigs)),
                "spurious_fraction": spurious / len(rows),
                "median_iterations": float(np.median([rec.iterations for rec in rows])),
            }
        )

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        records_to_csv(records, out / "records.csv")
        records_to_json(records, out / "records.json", config=config)
        lines = [",".join(SUMMARY_CSV_COLUMNS)] + [
            ",".join(repr(row[column]) for column in SUMMARY_CSV_COLUMNS) for row in summary
        ]
        (out / "summary.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return records, summary


# --- validation ------------------------------------------------------------------

def validate_state(state_path, config: dict, data_path) -> tuple[ValidityCertificate, int]:
    """Certificate plus machine exit code (0 valid / 2 spurious / 3 not fixed point).

    Reads the keys `operator` (required descriptor) and `fit` (default nll);
    the state must have unit trace.
    """
    matrix = load_matrix(state_path)
    operator = operator_from_descriptor(config["operator"])
    data = MeasurementData.load_csv(data_path)
    obj = Objective(operator, data, kind=config.get("fit", "nll"))
    cert = validity_certificate(DensityLike(matrix), obj)
    return cert, VALIDATE_EXIT_CODES[cert.verdict]

