"""Experiment orchestration: synthetic datasets, reconstruction runs, summaries.

Every random draw is derived from (master seed, instance key), so datasets
and run tables are reproducible. Every config field, the operator descriptor
included, is read and checked here, and each error names its field.
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
    KERNEL_EIG_CUTOFF,
    NOT_FIXED_POINT,
    SPURIOUS,
    VALID,
    ValidityCertificate,
    validity_certificate,
)
from .hermitian import (
    DensityLike,
    _json_floats,
    _json_number,
    load_matrix,
    random_density,
    save_matrix,
    trace_norm,
)
from .objectives import NEG_LOG_LIKELIHOOD, OBJECTIVE_KINDS, Objective
from .operators import MeasurementData, MeasurementOperator, homodyne_operator, pauli_six_state
from .solvers import (
    FactorState,
    SolverTrace,
    _check_stop_rule,
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
) -> dict:
    """Descriptor for the reference quadrature setup: equispaced angles on
    [0, pi), equal bins on [-half_width, half_width], 20 quadrature nodes per bin."""
    angles = [j * math.pi / n_angles for j in range(n_angles)]
    edges = np.linspace(-half_width, half_width, n_bins + 1).tolist()
    return {
        "kind": "homodyne",
        "dim": dim,
        "angles": angles,
        "bin_edges": edges,
        "quad_order": 20,
    }


# --- config fields ---------------------------------------------------------------

def _json_of(value, name: str, kind: type):
    """The config field `name`, which must be a JSON `kind`: dict, list (or tuple), bool or str."""
    if not isinstance(value, (list, tuple) if kind is list else kind):
        noun = {dict: "object", list: "list", bool: "boolean", str: "string"}[kind]
        raise ValueError(f"config field {name} must be a JSON {noun}, got {value!r}")
    return value


def _json_object(value, name: str, known: tuple) -> dict:
    """The config block `name`, or the whole config when `name` is "", which must be a JSON
    object whose keys are all in `known`, so that a mistyped key fails instead of leaving
    its setting at the default."""
    for key in _json_of(value, name or "config", dict):
        if key not in known:
            field, block = (f"{name}.{key}", name) if name else (key, "the config")
            raise ValueError(f"config field {field} is unknown; {block} takes {known}")
    return value


def _config_number(value, name: str, kind=float):
    """A number config field: _json_number, with the config field's name in its error."""
    return _json_number(value, f"config field {name}", kind)


def _in_range(value, name: str, low, high=math.inf):
    """The number `value` of the config field `name`, which must lie in [low, high]."""
    if not low <= value <= high:
        bound = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise ValueError(f"config field {name} must be {bound}, got {value}")
    return value


def _rank_list(ranks: list, name: str, dim: int) -> list:
    """The config field `name`: a nonempty list of distinct ranks in [1, dim]."""
    if not ranks:
        raise ValueError(f"config field {name} must be nonempty")
    for r in ranks:
        _in_range(r, name, 1, dim)
    if len(set(ranks)) < len(ranks):
        raise ValueError(f"config field {name} must not repeat an entry, got {ranks}")
    return ranks


def _fit(config: dict) -> str:
    """The top-level `fit` field of a rank-trap or validate config: nll or l2 (nll)."""
    fit = config.get("fit", NEG_LOG_LIKELIHOOD)
    if fit not in OBJECTIVE_KINDS:
        raise ValueError(f"config field fit must be nll or l2, got {fit!r}")
    return fit


def operator_from_descriptor(descriptor: dict) -> MeasurementOperator:
    """Build an operator from its JSON descriptor, the config field `operator`: `kind`
    (str) pauli6, which takes no other key, or homodyne, which takes `dim` (int),
    `angles` and `bin_edges` (lists of numbers) and `quad_order` (int, default 20);
    see homodyne_operator. Any other key is an error, so a mistyped one cannot
    fall back to a default."""
    kind = _json_of(descriptor, "operator", dict).get("kind")
    if kind == "pauli6":
        _json_object(descriptor, "operator", ("kind",))
        return pauli_six_state()
    if kind == "homodyne":
        _json_object(descriptor, "operator", ("kind", "dim", "angles", "bin_edges", "quad_order"))
        try:
            return homodyne_operator(
                _config_number(descriptor["dim"], "operator.dim", int),
                _json_floats(descriptor["angles"], "config field operator.angles"),
                _json_floats(descriptor["bin_edges"], "config field operator.bin_edges"),
                _config_number(descriptor.get("quad_order", 20), "operator.quad_order", int),
            )
        except KeyError as exc:
            raise ValueError(f"homodyne descriptor missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed homodyne descriptor: {exc}") from exc
    raise ValueError(f"unknown operator kind {kind!r}")


# --- experiment spec ----------------------------------------------------------

_GENERATE_KEYS = ("operator", "ensemble", "noise", "solvers", "seed", "output_dir")


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
        _in_range(self.count_per_rank, "ensemble.count_per_rank", 1)
        # numpy's Poisson draw takes rates up to about 9.2e18; forward values are at most 1
        if not 0 < self.noise_scale <= 9e18:
            raise ValueError(f"config field noise.scale must be positive and at most 9e+18, "
                             f"got {self.noise_scale}")
        _rank_list(self.ranks, "ensemble.ranks", self.dim)
        _in_range(self.seed, "seed", 0)

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


def parse_experiment_spec(config: dict, output_dir=None, seed=None) -> ExperimentSpec:
    _json_object(config, "", _GENERATE_KEYS)
    ensemble = config.get("ensemble", {})
    ensemble = _json_object(ensemble, "ensemble", ("dim", "ranks", "count_per_rank"))
    noise = _json_object(config.get("noise", {}), "noise", ("scale", "enabled"))
    ranks = _json_of(ensemble.get("ranks"), "ensemble.ranks", list)
    count = ensemble.get("count_per_rank", 1)
    if output_dir is None:
        output_dir = _json_of(config.get("output_dir", "."), "output_dir", str)
    return ExperimentSpec(
        operator=config.get("operator"),
        dim=_config_number(ensemble.get("dim"), "ensemble.dim", int),
        ranks=[_config_number(r, "ensemble.ranks", int) for r in ranks],
        count_per_rank=_config_number(count, "ensemble.count_per_rank", int),
        noise_scale=_config_number(noise.get("scale", 500.0), "noise.scale"),
        noise_enabled=_json_of(noise.get("enabled", True), "noise.enabled", bool),
        solvers=list(_json_of(config.get("solvers", []), "solvers", list)),
        seed=_config_number(config.get("seed", 0) if seed is None else seed, "seed", int),
        output_dir=str(output_dir),
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
    if operator.dim != spec.dim:
        raise ValueError(f"ensemble.dim {spec.dim} does not match operator dim {operator.dim}")

    # Every truth and data array is drawn before anything is written, so a draw
    # that fails leaves no partial dataset.
    instances, arrays = [], []
    for rank in spec.ranks:
        for idx in range(spec.count_per_rank):
            truth_seed = derive_seed(spec.seed, rank, idx, 0)
            noise_seed = derive_seed(spec.seed, rank, idx, 1)
            truth = random_density(spec.dim, rank, truth_seed)
            data = {"exact": simulate_data(operator, truth, spec.noise_scale, 0, noisy=False)}
            if spec.noise_enabled:
                data["noisy"] = simulate_data(
                    operator, truth, spec.noise_scale, noise_seed, noisy=True
                )
            instances.append({
                "id": f"r{rank:02d}_i{idx:03d}",
                "rank": rank,
                "index": idx,
                "truth_seed": truth_seed,
                "noise_seed": noise_seed if spec.noise_enabled else None,
            })
            arrays.append((truth, data))

    for inst, (truth, data) in zip(instances, arrays):
        inst_dir = out / "instances" / inst["id"]
        inst_dir.mkdir(parents=True, exist_ok=True)
        save_matrix(inst_dir / "truth.json", truth)
        files = {"truth": "truth.json"}
        for variant, values in data.items():
            values.save_csv(inst_dir / f"{variant}.csv")
            files[variant] = f"{variant}.csv"
        inst["files"] = {
            name: {"path": f"instances/{inst['id']}/{fname}", "sha256": _sha256(inst_dir / fname)}
            for name, fname in files.items()
        }

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


def _write_csv(path, columns: list[str], rows) -> None:
    """A header line, then one line of str(value)s per row."""
    lines = [",".join(columns)] + [",".join(str(v) for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def records_to_csv(records: list[RunRecord], path) -> None:
    _write_csv(path, RECORD_CSV_COLUMNS, (rec.csv_row() for rec in records))


def records_to_json(records: list[RunRecord], path, config: dict) -> None:
    _write_json(Path(path), {"records": [rec.to_json_dict() for rec in records], "config": config})


def _write_records(out_dir, records: list[RunRecord], config: dict, summary=None) -> None:
    """records.csv and records.json (with the config) under out_dir, and
    summary.csv from the summary rows when given."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records_to_csv(records, out / "records.csv")
    records_to_json(records, out / "records.json", config=config)
    if summary is not None:
        rows = ([row[column] for column in SUMMARY_CSV_COLUMNS] for row in summary)
        _write_csv(out / "summary.csv", SUMMARY_CSV_COLUMNS, rows)


def _stop_rule(block: dict, name: str, tol: float) -> tuple[float, int]:
    """The `tol` (default: the argument) and `max_iter` (20000) of the config block
    `name`, checked before any solve, with errors that name the field."""
    tol = _config_number(block.get("tol", tol), f"{name}.tol")
    max_iter = _config_number(block.get("max_iter", 20000), f"{name}.max_iter", int)
    _check_stop_rule(tol, max_iter, f"config field {name}.")
    return tol, max_iter


def _solver_entry(cfg, name: str, dim: int) -> dict:
    """A `solvers` entry, checked in full, with its defaults filled in and with `id`, the
    label of its records: `solver` gm, fgd or mle (gm), `fit` nll or l2 (nll; mle takes
    nll only), `tol` (1e-10), `max_iter` (20000), `rank` in [1, dim] (absent or null:
    full), `seed` >= 0 (0) and `data` exact or noisy (absent: noisy if the instance
    has noisy data, else exact). Any other key is a ValueError."""
    cfg = _json_object(cfg, name, ("solver", "fit", "tol", "max_iter", "rank", "seed", "data"))
    solver, fit = cfg.get("solver", "gm"), cfg.get("fit", NEG_LOG_LIKELIHOOD)
    if solver not in ("gm", "fgd", "mle"):
        raise ValueError(f"config field {name}.solver must be gm, fgd or mle, got {solver!r}")
    if fit not in OBJECTIVE_KINDS or (solver == "mle" and fit != NEG_LOG_LIKELIHOOD):
        raise ValueError(f"config field {name}.fit must be nll or l2 (mle: nll), got {fit!r}")
    tol, max_iter = _stop_rule(cfg, name, 1e-10)
    rank = cfg.get("rank")
    if rank is not None:
        rank = _in_range(_config_number(rank, f"{name}.rank", int), f"{name}.rank", 1, dim)
    data = _json_of(cfg["data"], f"{name}.data", str) if "data" in cfg else None
    if data not in (None, "exact", "noisy"):
        raise ValueError(f"config field {name}.data must be exact or noisy, got {data!r}")
    seed = _in_range(_config_number(cfg.get("seed", 0), f"{name}.seed", int), f"{name}.seed", 0)
    label = f"{solver}-{fit}-{'full' if rank is None else f'r{rank}'}"
    return dict(id=label, solver=solver, fit=fit, tol=tol, max_iter=max_iter, rank=rank,
                seed=seed, data=data)


def run_solver_config(
    entry: dict,
    operator: MeasurementOperator,
    data: MeasurementData,
    instance_seed: int,
) -> tuple[DensityLike, SolverTrace, Objective]:
    """Run one solver entry, as checked by _solver_entry, against one data array.
    Full-rank iterations start from the maximally mixed state; rank-limited ones
    from a random state of that rank, seeded by (seed, instance_seed)."""
    obj = Objective(operator, data, kind=entry["fit"])
    tol, max_iter, rank, N = entry["tol"], entry["max_iter"], entry["rank"], operator.dim
    if rank is None:
        rho0 = DensityLike.from_array(np.eye(N, dtype=complex) / N)
    else:
        rho0 = random_density(N, rank, derive_seed(entry["seed"], instance_seed))

    if entry["solver"] == "fgd":
        state0 = FactorState.from_density(rho0, rank if rank is not None else N)
        state, trace = fgd_solve(state0, obj, max_iter=max_iter, tol=tol)
        return state.density(), trace, obj
    solve = gm_solve if entry["solver"] == "gm" else mle_solve
    final, trace = solve(rho0, obj, max_iter=max_iter, tol=tol)
    return final, trace, obj


def _run_record(
    instance: tuple[str, DensityLike, dict],
    solver_id: str,
    variant: str,
    final: DensityLike,
    trace: SolverTrace,
    obj: Objective,
    wall: float,
    oracle_distance: float = math.nan,
) -> RunRecord:
    """Record of one solve on `instance`, an (id, truth, truth descriptor) triple,
    with the certificate of its final state: the one its certificate stop computed,
    if that stop ended it, else a new one. `final` must be the state the solve
    returned with `trace` and `obj` the objective it minimized, so that a kept
    certificate is that of `final` under `obj`."""
    instance_id, truth, truth_desc = instance
    return RunRecord(
        instance_id=instance_id,
        truth=truth_desc,
        solver_id=solver_id,
        data_variant=variant,
        trace_distance_to_truth=trace_norm(final.entries - truth.entries),
        trace_distance_to_oracle=oracle_distance,
        final_objective=obj.value(final),
        certificate=trace.certificate or validity_certificate(final, obj),
        iterations=trace.iterations,
        stop_reason=trace.stop_reason,
        floor_triggered=obj.floor_active(final),
        wall_time=wall,
    )


def _manifest_instance(dataset: Path, inst, name: str, solver_cfgs: list, operator) -> tuple:
    """The manifest instance `inst`, config field `name`, checked against `operator` and
    read: its (id, truth, truth descriptor) and the (variant, data) of each solver entry."""
    files = _json_object(_json_of(inst, name, dict).get("files"), f"{name}.files",
                         ("truth", "exact", "noisy"))
    instance_id = _json_of(inst.get("id"), f"{name}.id", str)
    if set(instance_id) & set(",\r\n"):
        raise ValueError(f"config field {name}.id has a comma or line break: {instance_id!r}")
    rank = _config_number(inst.get("rank"), f"{name}.rank", int)
    seed = _config_number(inst.get("truth_seed"), f"{name}.truth_seed", int)
    truth_desc = {"rank": _in_range(rank, f"{name}.rank", 1, operator.dim),
                  "seed": _in_range(seed, f"{name}.truth_seed", 0)}
    variants = [cfg["data"] or ("noisy" if "noisy" in files else "exact") for cfg in solver_cfgs]
    paths = {}
    for key in dict.fromkeys(("truth", *variants)):
        if key not in files:
            raise ValueError(f"instance {instance_id} has no {key!r} data ({name}.files.{key})")
        field = f"{name}.files.{key}"
        entry = _json_of(files[key], field, dict)
        paths[key] = dataset / _json_of(entry.get("path"), f"{field}.path", str)
        if _sha256(paths[key]) != _json_of(entry.get("sha256"), f"{field}.sha256", str):
            raise ValueError(f"config field {field}.sha256 is not the digest of {paths[key]}")
    truth = DensityLike(load_matrix(paths.pop("truth")))
    if truth.dim != operator.dim:
        raise ValueError(f"config field {name}.files.truth is a {truth.dim} x {truth.dim} "
                         f"state, not one of the operator's dim {operator.dim}")
    truth_rank = int((np.linalg.eigvalsh(truth.entries) >= KERNEL_EIG_CUTOFF).sum())
    if truth_rank != rank:
        raise ValueError(f"config field {name}.rank is {rank}, but its truth has numerical "
                         f"rank {truth_rank}")
    data = {key: MeasurementData.load_csv(path) for key, path in paths.items()}
    for key, values in data.items():
        if values.shape != operator.shape:
            raise ValueError(f"config field {name}.files.{key} holds data of shape "
                             f"{values.shape}, not the operator's {operator.shape}")
    return (instance_id, truth, truth_desc), [(v, data[v]) for v in variants]


def reconstruct_dataset(dataset_dir, run_config: dict, out_dir=None) -> list[RunRecord]:
    """Run every configured solver on every dataset instance.

    Each record carries a validity certificate; noisy-data runs additionally
    record the trace distance to a projected-gradient reference solution
    computed on the same data and fit. That oracle stops once the trace norm
    of its step falls below `tol` (default 1e-10), so `trace_distance_to_oracle`
    values near 1e-9 lie within its stop tolerance, not solver disagreement.
    Before any solve, the solver entries and the `oracle` block are checked, and
    every manifest instance is checked and read: `id` a string with no comma or
    line break (a records.csv field), `rank` an integer in [1, dim] and `truth_seed`
    one >= 0, and `files` holding `truth` and each data variant the entries use, each
    with a string `path` and a `sha256` that the file's digest matches. The truth
    must be an N x N state for the operator whose numerical rank, its eigenvalues
    at or above KERNEL_EIG_CUTOFF, is `rank`, and each data file the operator's shape.
    A `solvers` key that is present and not null must be a JSON list; an empty or
    absent one takes the manifest's solvers. The run config takes generate's keys
    and `oracle`, so that a generate config serves as a run config; any other key
    is a ValueError.
    """
    _json_object(run_config, "", _GENERATE_KEYS + ("oracle",))
    dataset = Path(dataset_dir)
    manifest = json.loads((dataset / "manifest.json").read_text(encoding="utf-8"))
    manifest = _json_of(manifest, "manifest", dict)
    dataset_cfg = _json_of(manifest.get("config"), "manifest.config", dict)
    instances = _json_of(manifest.get("instances"), "manifest.instances", list)
    operator = operator_from_descriptor(dataset_cfg.get("operator"))
    solver_cfgs = run_config.get("solvers")
    if solver_cfgs is not None:
        _json_of(solver_cfgs, "solvers", list)
    solver_cfgs = solver_cfgs or dataset_cfg.get("solvers") or []
    if not solver_cfgs:
        raise ValueError("no solver configurations given")
    solver_cfgs = [
        _solver_entry(cfg, f"solvers[{i}]", operator.dim)
        for i, cfg in enumerate(_json_of(solver_cfgs, "solvers", list))
    ]
    oracle_cfg = _json_object(run_config.get("oracle", {}), "oracle", ("tol", "max_iter"))
    oracle_tol, oracle_max_iter = _stop_rule(oracle_cfg, "oracle", 1e-10)
    instances = [
        _manifest_instance(dataset, inst, f"manifest.instances[{i}]", solver_cfgs, operator)
        for i, inst in enumerate(instances)
    ]

    records = []
    mixed = DensityLike.from_array(np.eye(operator.dim, dtype=complex) / operator.dim)
    for index, (instance, runs) in enumerate(instances):
        oracle_cache: dict[str, DensityLike] = {}
        for cfg, (variant, data) in zip(solver_cfgs, runs):
            start = time.perf_counter()
            final, trace, obj = run_solver_config(cfg, operator, data, instance_seed=index)
            wall = time.perf_counter() - start

            oracle_distance = math.nan
            if variant == "noisy":
                if obj.kind not in oracle_cache:
                    oracle_cache[obj.kind] = pgd_solve(
                        mixed, obj, max_iter=oracle_max_iter, tol=oracle_tol
                    )
                oracle_distance = trace_norm(final.entries - oracle_cache[obj.kind].entries)

            records.append(
                _run_record(instance, cfg["id"], variant, final, trace, obj, wall, oracle_distance)
            )

    if out_dir is not None:
        _write_records(out_dir, records, run_config)
    return records


# --- rank-trap protocol ---------------------------------------------------------

def rank_trap(config: dict, out_dir=None) -> tuple[list[RunRecord], list[dict]]:
    """Reconstruct rank-limited starts against fixed-rank truths, per start rank.

    Exact data from `count` truths of rank `true_rank` under the required
    `operator` descriptor; reconstruction with the factorized solve started
    at every rank in `start_ranks`. The solve takes the preconditioned step
    with momentum and its certificate stop (see fgd_solve): it stops
    `converged` at the first accepted step whose certificate is decisive, so
    at a tight `tol` in the `solver` block, such as the default, the
    certificate and not `tol` ends each start and sets its accuracy. A start
    at or above the true rank stops once it reads valid (m_residual <= 1e-8);
    a start below it stops, with the verdict spurious in its record, once it
    reads spurious with a kernel-restricted eigenvalue below -PSD_TOL. At
    the criterion-09 config a start takes a median of 165 / 161.5 / 137 /
    117.5 iterations at r = 1-4 and 92-100 at r >= 5, and r >= 5 ends
    within 2.5e-8 trace distance of the truth, 1.3e-8 in the median: the
    certificate's own tolerance (plain FGD at tol 1e-12: about 6e-10).
    The config fields are checked before any truth is drawn: `fit` nll or l2
    (nll), `true_rank` in [1, N] (5), `count` >= 1 (10), a nonempty
    `start_ranks` of distinct ranks in [1, N] (1..N), `seed` >= 0 (0) and the
    `solver` block's `tol` (1e-12) and `max_iter` (20000). Any top-level key but
    these, `operator` and `output_dir` (which the command line reads) is an error.
    Returns the run records plus a per-start-rank summary with median trace
    distance, median kernel-restricted minimum eigenvalue, spurious fraction
    and median iteration count.
    """
    known = ("operator", "true_rank", "count", "start_ranks", "fit", "solver", "seed", "output_dir")
    operator = operator_from_descriptor(_json_object(config, "", known).get("operator"))
    N = operator.dim
    true_rank = _config_number(config.get("true_rank", 5), "true_rank", int)
    count = _in_range(_config_number(config.get("count", 10), "count", int), "count", 1)
    start_ranks = _json_of(config.get("start_ranks", list(range(1, N + 1))), "start_ranks", list)
    start_ranks = _rank_list([_config_number(r, "start_ranks", int) for r in start_ranks],
                             "start_ranks", N)
    solver_cfg = _json_object(config.get("solver", {}), "solver", ("tol", "max_iter"))
    tol, max_iter = _stop_rule(solver_cfg, "solver", 1e-12)
    seed = _in_range(_config_number(config.get("seed", 0), "seed", int), "seed", 0)
    fit = _fit(config)
    _in_range(true_rank, "true_rank", 1, N)

    records = []
    for t_idx in range(count):
        truth_seed = derive_seed(seed, true_rank, t_idx, 0)
        truth = random_density(N, true_rank, truth_seed)
        instance = (f"t{t_idx:03d}", truth, {"rank": true_rank, "seed": truth_seed})
        data = simulate_data(operator, truth, 500.0, 0, noisy=False)
        obj = Objective(operator, data, kind=fit)
        for r in start_ranks:
            init_seed = derive_seed(seed, true_rank, t_idx, 2, r)
            state0 = FactorState.from_density(random_density(N, r, init_seed), r)
            start = time.perf_counter()
            state, trace = fgd_solve(state0, obj, max_iter=max_iter, tol=tol, precondition=True)
            wall = time.perf_counter() - start
            records.append(
                _run_record(instance, f"fgd-{fit}-r{r}", "exact", state.density(), trace, obj, wall)
            )

    summary = []
    for r in start_ranks:
        rows = [rec for rec in records if rec.solver_id == f"fgd-{fit}-r{r}"]
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
        _write_records(out_dir, records, config, summary)
    return records, summary


# --- validation ------------------------------------------------------------------

def validate_state(state_path, config: dict, data_path) -> tuple[ValidityCertificate, int]:
    """Certificate plus machine exit code (0 valid / 2 spurious / 3 not fixed point).

    Reads the keys `operator` (required descriptor) and `fit` (default nll), and no
    other, all checked before any file is read; the state must be an N x N density
    matrix for the operator.
    """
    fit = _fit(_json_object(config, "", ("operator", "fit")))
    operator = operator_from_descriptor(config.get("operator"))
    matrix = load_matrix(state_path)
    data = MeasurementData.load_csv(data_path)
    obj = Objective(operator, data, kind=fit)
    cert = validity_certificate(DensityLike(matrix), obj)
    return cert, VALIDATE_EXIT_CODES[cert.verdict]

