import csv
import json
import math

import numpy as np
import pytest

from tomokit import experiments
from tomokit.cli import main
from tomokit.diagnostics import SPURIOUS, VALID, construct_spurious_t2
from tomokit.experiments import (
    RECORD_CSV_COLUMNS,
    ExperimentSpec,
    derive_seed,
    generate_dataset,
    parse_experiment_spec,
    rank_trap,
    reconstruct_dataset,
    simulate_data,
    standard_homodyne_descriptor,
    validate_state,
)
from tomokit.hermitian import DensityLike, HermitianMatrix, load_matrix, random_density, save_matrix
from tomokit.objectives import Objective
from tomokit.operators import MeasurementData, MeasurementOperator, homodyne_operator
from tomokit.solvers import FactorState, fgd_solve, pgd_solve

from conftest import maximally_mixed, pauli_six_effects


def small_spec(tmp_path, **overrides):
    config = {
        "operator": standard_homodyne_descriptor(dim=4, n_angles=5, n_bins=12, half_width=6.0),
        "ensemble": {"dim": 4, "ranks": [1, 2], "count_per_rank": 1},
        "noise": {"scale": 500.0, "enabled": True},
        "seed": 3,
    }
    config.update(overrides)
    return parse_experiment_spec(config, output_dir=str(tmp_path))


class TestSimulateData:
    def test_exact_round_trip(self, t2):
        rho = random_density(2, 2, 0)
        data = simulate_data(t2, rho, 500.0, 0, noisy=False)
        back = t2.pseudo_inverse_apply(data)
        assert np.linalg.norm(back.entries - rho.entries) < 1e-10

    def test_rows_normalized(self, homodyne_small):
        rho = random_density(4, 2, 1)
        noisy = simulate_data(homodyne_small, rho, 500.0, 7, noisy=True)
        assert np.abs(noisy.values.sum(axis=1) - 1.0).max() < 1e-12

    def test_deterministic(self, homodyne_small):
        rho = random_density(4, 4, 2)
        a = simulate_data(homodyne_small, rho, 500.0, 9, noisy=True)
        b = simulate_data(homodyne_small, rho, 500.0, 9, noisy=True)
        assert np.array_equal(a.values, b.values)

    def test_noise_level_sanity(self, homodyne_small):
        rels = []
        for seed in range(20):
            rho = random_density(4, 1 + seed % 4, seed)
            exact = homodyne_small.apply(rho)
            noisy = simulate_data(homodyne_small, rho, 500.0, 1000 + seed, noisy=True)
            rels.append(np.linalg.norm(noisy.values - exact) / np.linalg.norm(exact))
        assert 0.05 < float(np.mean(rels)) < 0.5

    def test_large_scale_concentrates(self, homodyne_small):
        rho = random_density(4, 4, 3)
        exact = homodyne_small.apply(rho)
        noisy = simulate_data(homodyne_small, rho, 1e8, 11, noisy=True)
        assert np.linalg.norm(noisy.values - exact) / np.linalg.norm(exact) < 0.01

    def test_all_zero_rows_error(self, homodyne_small):
        rho = random_density(4, 4, 4)
        with pytest.raises(RuntimeError, match="zero total counts"):
            simulate_data(homodyne_small, rho, 1e-9, 13, noisy=True)

    def test_scale_validation(self, homodyne_small):
        with pytest.raises(ValueError):
            simulate_data(homodyne_small, random_density(4, 4, 5), 0.0, 0, noisy=True)


class TestExperimentSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="count_per_rank"):
            ExperimentSpec(operator={"kind": "pauli6"}, dim=2, ranks=[1], count_per_rank=0)
        with pytest.raises(ValueError, match="rank"):
            ExperimentSpec(operator={"kind": "pauli6"}, dim=2, ranks=[3], count_per_rank=1)
        with pytest.raises(ValueError, match="noise"):
            ExperimentSpec(
                operator={"kind": "pauli6"}, dim=2, ranks=[1], count_per_rank=1, noise_scale=0.0
            )

    def test_seed_derivation_is_stable(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)


class TestGenerate:
    def test_file_counts_and_manifest(self, tmp_path):
        spec = small_spec(tmp_path)
        manifest = generate_dataset(spec)
        assert len(manifest["instances"]) == 2
        for entry in manifest["instances"]:
            assert set(entry["files"]) == {"truth", "exact", "noisy"}
            for meta in entry["files"].values():
                assert (tmp_path / meta["path"]).exists()
        assert (tmp_path / "manifest.json").exists()

    def test_manifest_byte_identical_across_locations(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        generate_dataset(small_spec(a_dir))
        generate_dataset(small_spec(b_dir))
        assert (a_dir / "manifest.json").read_bytes() == (b_dir / "manifest.json").read_bytes()
        ma = json.loads((a_dir / "manifest.json").read_text())
        for entry in ma["instances"]:
            for meta in entry["files"].values():
                assert (a_dir / meta["path"]).read_bytes() == (b_dir / meta["path"]).read_bytes()

    def test_truths_reproducible_from_seeds(self, tmp_path):
        spec = small_spec(tmp_path)
        manifest = generate_dataset(spec)
        entry = manifest["instances"][1]
        truth = random_density(4, entry["rank"], entry["truth_seed"])
        from tomokit.hermitian import load_matrix

        stored = load_matrix(tmp_path / entry["files"]["truth"]["path"])
        assert np.allclose(stored.entries, truth.entries, atol=1e-15)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("dataset")
    generate_dataset(small_spec(path))
    return path


class TestReconstruct:
    def run_config(self):
        return {
            "solvers": [
                {"solver": "gm", "fit": "nll", "data": "noisy", "tol": 1e-10, "max_iter": 4000},
                {"solver": "fgd", "fit": "nll", "rank": 4, "data": "noisy", "tol": 1e-10, "max_iter": 4000},
                {"solver": "gm", "fit": "l2", "data": "exact", "tol": 1e-10, "max_iter": 4000},
            ],
            "oracle": {"tol": 1e-12, "max_iter": 20000},
        }

    def test_records_complete(self, dataset, tmp_path):
        records = reconstruct_dataset(dataset, self.run_config(), out_dir=tmp_path)
        assert len(records) == 6  # 2 instances x 3 solvers
        for rec in records:
            assert rec.trace_distance_to_truth >= 0.0
            assert rec.certificate.verdict in ("valid", "spurious", "not_fixed_point")
            if rec.data_variant == "noisy":
                assert rec.trace_distance_to_oracle >= 0.0
            else:
                assert math.isnan(rec.trace_distance_to_oracle)
        csv_text = (tmp_path / "records.csv").read_text().splitlines()
        assert csv_text[0].startswith("instance_id,solver_id,data_variant")
        assert len(csv_text) == 7
        payload = json.loads((tmp_path / "records.json").read_text())
        assert len(payload["records"]) == 6

    def test_csv_rows_are_flattened_json_records(self, dataset, tmp_path):
        reconstruct_dataset(dataset, self.run_config(), out_dir=tmp_path)
        with open(tmp_path / "records.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == RECORD_CSV_COLUMNS
            rows = list(reader)
        payload = json.loads((tmp_path / "records.json").read_text())
        assert len(rows) == len(payload["records"])
        for row, record in zip(rows, payload["records"]):
            flat = dict(record)
            flat.update(flat.pop("certificate"))
            truth = flat.pop("truth")
            flat["truth_rank"], flat["truth_seed"] = truth["rank"], truth["seed"]
            flat["floor_triggered"] = int(flat["floor_triggered"])
            expected = {
                key: repr(value) if isinstance(value, float) else str(value)
                for key, value in flat.items()
            }
            assert row == expected

    def test_valid_verdicts_track_oracle(self, dataset, tmp_path):
        records = reconstruct_dataset(dataset, self.run_config(), out_dir=tmp_path)
        for rec in records:
            if rec.data_variant == "noisy" and rec.certificate.verdict == "valid":
                assert rec.trace_distance_to_oracle <= 0.05

    def test_deterministic_modulo_wall_time(self, dataset, tmp_path):
        first = reconstruct_dataset(dataset, self.run_config(), out_dir=tmp_path / "x")
        second = reconstruct_dataset(dataset, self.run_config(), out_dir=tmp_path / "y")

        def strip(recs):
            return [
                {k: v for k, v in rec.to_json_dict().items() if k != "wall_time"}
                for rec in recs
            ]

        assert strip(first) == strip(second)

    def test_missing_solvers_rejected(self, dataset):
        with pytest.raises(ValueError, match="no solver"):
            reconstruct_dataset(dataset, {"solvers": []})


class TestRankTrap:
    def test_small_protocol(self, small_descriptor, tmp_path, monkeypatch):
        # rank starvation (r=1 < 2) must trap; over-parametrized starts must
        # pass the kernel-restricted eigenvalue test
        limits = []

        def recording_fgd_solve(*args, **kwargs):
            state, trace = fgd_solve(*args, **kwargs)
            limits.append(state.density())
            return state, trace

        monkeypatch.setattr(experiments, "fgd_solve", recording_fgd_solve)
        config = {
            "operator": small_descriptor,
            "true_rank": 2,
            "count": 2,
            "start_ranks": [1, 3],
            "fit": "nll",
            "solver": {"tol": 1e-11, "max_iter": 6000},
            "seed": 5,
        }
        records, summary = rank_trap(config, out_dir=tmp_path)
        assert len(records) == 4
        by_rank = {row["start_rank"]: row for row in summary}
        assert by_rank[1]["median_trace_distance"] > 10 * by_rank[3]["median_trace_distance"]
        assert by_rank[1]["spurious_fraction"] == 1.0
        assert by_rank[3]["median_min_eig_Q_restricted"] > -1e-4
        for rec, limit in zip(records, limits):
            start_rank = int(rec.solver_id.rsplit("-r", 1)[1])
            vals = np.linalg.eigvalsh(limit.entries)
            assert int((vals > 1e-10).sum()) <= start_rank
            # the distance is at least the truth's spectral mass beyond the start rank
            truth = random_density(4, 2, rec.truth["seed"])
            discarded = np.sort(np.linalg.eigvalsh(truth.entries))[::-1][start_rank:].sum()
            assert rec.trace_distance_to_truth >= discarded - 1e-9
        for r in (1, 3):
            iterations = [rec.iterations for rec in records if rec.solver_id.endswith(f"-r{r}")]
            assert by_rank[r]["median_iterations"] == float(np.median(iterations))
        text = (tmp_path / "summary.csv").read_text().splitlines()
        assert text[0].startswith("start_rank,")
        assert len(text) == 3
        assert text[0].endswith(",median_iterations")

    def test_over_parameterized_start_that_cycled_is_certified(self):
        # rank-8 start of perfbench rank-trap seed 11, truth 13: without momentum the
        # preconditioned step settled into a limit cycle and ran to max_iter
        records, _ = rank_trap(
            {
                "operator": standard_homodyne_descriptor(),
                "true_rank": 5,
                "count": 1,
                "start_ranks": [8],
                "solver": {"tol": 1e-12, "max_iter": 20000},
                "seed": derive_seed(11, 13),
            }
        )
        (record,) = records
        assert record.stop_reason == "converged"
        assert record.certificate.verdict == VALID

    def test_zero_start_rank_rejected(self, small_descriptor):
        with pytest.raises(ValueError, match="start rank"):
            rank_trap({"operator": small_descriptor, "start_ranks": [0], "count": 1})


class TestValidateCommand:
    def write_setup(self, tmp_path, state_entries, data, fit="nll"):
        state_path = tmp_path / "state.json"
        save_matrix(state_path, state_entries)
        data_path = tmp_path / "data.csv"
        MeasurementData(data).save_csv(data_path)
        config = {"operator": {"kind": "pauli6"}, "fit": fit}
        config_path = tmp_path / "obj.json"
        config_path.write_text(json.dumps(config))
        return state_path, config_path, data_path, config

    def test_exit_codes(self, t2, tmp_path):
        rho_fix, data, _ = construct_spurious_t2(0.5)
        obj = Objective(t2, data, kind="nll")
        oracle = pgd_solve(maximally_mixed(2), obj, max_iter=20000, tol=1e-13)

        s, c, d, config = self.write_setup(tmp_path, oracle.matrix, data.values)
        cert, code = validate_state(s, config, d)
        assert (cert.verdict, code) == (VALID, 0)

        s, c, d, config = self.write_setup(tmp_path, rho_fix.matrix, data.values)
        cert, code = validate_state(s, config, d)
        assert (cert.verdict, code) == (SPURIOUS, 2)

        random_state = random_density(2, 2, 99)
        s, c, d, config = self.write_setup(tmp_path, random_state.matrix, data.values)
        cert, code = validate_state(s, config, d)
        assert code == 3


class TestCli:
    def test_generate_reconstruct_validate_pipeline(self, tmp_path, capsys):
        config = {
            "operator": standard_homodyne_descriptor(dim=4, n_angles=5, n_bins=12, half_width=6.0),
            "ensemble": {"dim": 4, "ranks": [2], "count_per_rank": 1},
            "noise": {"scale": 500.0, "enabled": True},
            "seed": 1,
        }
        gen_cfg = tmp_path / "gen.json"
        gen_cfg.write_text(json.dumps(config))
        dataset_dir = tmp_path / "data"
        assert main(["generate", "--config", str(gen_cfg), "--out", str(dataset_dir)]) == 0

        run_cfg = tmp_path / "run.json"
        run_cfg.write_text(
            json.dumps(
                {
                    "solvers": [
                        {"solver": "gm", "fit": "nll", "data": "noisy", "max_iter": 3000}
                    ]
                }
            )
        )
        out_dir = tmp_path / "runs"
        code = main(
            [
                "reconstruct",
                "--config",
                str(run_cfg),
                "--dataset",
                str(dataset_dir),
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        assert (out_dir / "records.csv").exists()

    def test_validate_cli_exit_codes(self, tmp_path, capsys):
        rho_fix, data, _ = construct_spurious_t2(0.5)
        state = tmp_path / "state.json"
        save_matrix(state, rho_fix.matrix)
        data_path = tmp_path / "data.csv"
        data.save_csv(data_path)
        cfg = tmp_path / "obj.json"
        cfg.write_text(json.dumps({"operator": {"kind": "pauli6"}, "fit": "nll"}))
        code = main(
            ["validate", "--state", str(state), "--config", str(cfg), "--data", str(data_path)]
        )
        assert code == 2
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["verdict"] == "spurious"

    def test_parse_failure_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["generate", "--config", str(bad)]) == 1

    def test_validate_rejects_non_object_configs(self, tmp_path, capsys):
        state, config, data = tmp_path / "s.json", tmp_path / "c.json", tmp_path / "d.csv"
        save_matrix(state, np.eye(2) / 2)
        _write_data_csv(data, 0.5)
        argv = ["validate", "--state", str(state), "--config", str(config), "--data", str(data)]
        for content in (["x"], {"operator": ["pauli6"]}):
            config.write_text(json.dumps(content))
            assert main(argv) == 1
            assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, config",
        [
            ("rank-trap", {"operator": {"kind": "pauli6"}, "solver": 5}),
            ("generate", {"operator": {"kind": "pauli6"}, "ensemble": [1]}),
            (
                "generate",
                {"operator": {"kind": "pauli6"}, "ensemble": {"dim": 2, "ranks": [1]}, "noise": 3},
            ),
            ("reconstruct", {"oracle": 5, "solvers": [{"solver": "gm"}]}),
            ("reconstruct", {"solvers": ["gm"]}),
        ],
        ids=["rank-trap-solver", "generate-ensemble", "generate-noise", "oracle", "solvers-entry"],
    )
    def test_rejects_non_object_config_blocks(self, command, config, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        if command == "reconstruct":
            spec = {"operator": {"kind": "pauli6"}, "ensemble": {"dim": 2, "ranks": [1]}}
            generate_dataset(parse_experiment_spec(spec, output_dir=tmp_path / "data"))
            argv += ["--dataset", str(tmp_path / "data")]
        cfg.write_text(json.dumps(config))
        assert main(argv) == 1
        assert "must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, config",
        [
            ("generate", {"operator": {"kind": "pauli6"}, "ensemble": {"dim": 2, "ranks": 1}}),
            (
                "generate",
                {"operator": {"kind": "pauli6"}, "ensemble": {"dim": 2, "ranks": [1]}, "solvers": 5},
            ),
            ("reconstruct", {"solvers": 5}),
            ("rank-trap", {"operator": {"kind": "pauli6"}, "start_ranks": 2}),
        ],
        ids=["generate-ranks", "generate-solvers", "reconstruct-solvers", "rank-trap-start-ranks"],
    )
    def test_rejects_non_list_config_fields(self, command, config, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        if command == "reconstruct":
            spec = {"operator": {"kind": "pauli6"}, "ensemble": {"dim": 2, "ranks": [1]}}
            generate_dataset(parse_experiment_spec(spec, output_dir=tmp_path / "data"))
            argv += ["--dataset", str(tmp_path / "data")]
        cfg.write_text(json.dumps(config))
        assert main(argv) == 1
        assert "must be a JSON list" in capsys.readouterr().err

    def test_rank_trap_requires_operator(self, tmp_path, capsys):
        cfg = tmp_path / "trap.json"
        cfg.write_text(
            json.dumps(
                {"true_rank": 1, "count": 1, "start_ranks": [1], "solver": {"max_iter": 1}}
            )
        )
        assert main(["rank-trap", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_rank_trap_cli(self, small_descriptor, tmp_path, capsys):
        cfg = tmp_path / "trap.json"
        cfg.write_text(
            json.dumps(
                {
                    "operator": small_descriptor,
                    "true_rank": 2,
                    "count": 1,
                    "start_ranks": [1, 2],
                    "solver": {"tol": 1e-10, "max_iter": 3000},
                    "seed": 2,
                }
            )
        )
        out_dir = tmp_path / "trap_out"
        assert main(["rank-trap", "--config", str(cfg), "--out", str(out_dir)]) == 0
        assert (out_dir / "summary.csv").exists()
        assert "start_rank" in capsys.readouterr().out


def _write_data_csv(path, value):
    np.savetxt(path, np.array([[value, 0.5], [0.5, 0.5], [0.5, 0.5]]), delimiter=",")


def _load_bad_csv(tmp_path, value):
    _write_data_csv(tmp_path / "d.csv", value)
    MeasurementData.load_csv(tmp_path / "d.csv")


def _load_bad_matrix(tmp_path, value):
    save_matrix(tmp_path / "m.json", np.diag([value, 0.5]))
    load_matrix(tmp_path / "m.json")


def _bad_effects(value):
    effects = pauli_six_effects()
    effects[1, 0, 0, 0] = value
    return MeasurementOperator(effects)


NON_FINITE_ENTRY_POINTS = {
    "MeasurementData": lambda tmp, v: MeasurementData(np.array([[v, 0.5]])),
    "HermitianMatrix": lambda tmp, v: HermitianMatrix(np.diag([v, 0.5])),
    "HermitianMatrix_offdiagonal": lambda tmp, v: HermitianMatrix(np.array([[0.5, v], [v, 0.5]])),
    "DensityLike": lambda tmp, v: DensityLike.from_array(np.diag([v, 0.5])),
    "DensityLike_trace_target": lambda tmp, v: DensityLike.from_array(np.eye(2) / 2, v),
    "MeasurementOperator": lambda tmp, v: _bad_effects(v),
    "homodyne_angles": lambda tmp, v: homodyne_operator(2, [0.0, v], [0.0, 1.0]),
    "homodyne_bin_edges": lambda tmp, v: homodyne_operator(2, [0.0], [0.0, 1.0, v]),
    "FactorState": lambda tmp, v: FactorState(np.array([[v], [0.0]])),
    "FactorState_trace_target": lambda tmp, v: FactorState(np.array([[1.0], [0.0]]), v),
    "load_csv": _load_bad_csv,
    "load_matrix": _load_bad_matrix,
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", sorted(NON_FINITE_ENTRY_POINTS))
def test_non_finite_input_rejected(entry, value, tmp_path):
    with pytest.raises(ValueError):
        NON_FINITE_ENTRY_POINTS[entry](tmp_path, value)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_validate_cli_rejects_non_finite_data(value, tmp_path, capsys):
    state, config, data = tmp_path / "s.json", tmp_path / "c.json", tmp_path / "d.csv"
    save_matrix(state, np.eye(2) / 2)
    config.write_text(json.dumps({"operator": {"kind": "pauli6"}, "fit": "nll"}))
    _write_data_csv(data, value)
    argv = ["validate", "--state", str(state), "--config", str(config), "--data", str(data)]
    assert main(argv) == 1
    assert "non-finite" in capsys.readouterr().err
