import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tomokit import experiments
from tomokit.cli import COMMANDS, build_parser, main
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


def count_eigensolves(monkeypatch, *solves):
    """Counts of np.linalg.eigvalsh/eigh calls, in all and inside the named
    solves as experiments calls them."""
    calls = {"all": 0, "in_solve": 0}

    def counted(eig):
        def call(*args, **kwargs):
            calls["all"] += 1
            return eig(*args, **kwargs)

        return call

    def inside(solve):
        def call(*args, **kwargs):
            before = calls["all"]
            try:
                return solve(*args, **kwargs)
            finally:
                calls["in_solve"] += calls["all"] - before

        return call

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    for name in solves:
        monkeypatch.setattr(experiments, name, inside(getattr(experiments, name)))
    return calls


def count_calls(monkeypatch, *names):
    """A list that gains the name of each named experiments function on every call."""
    calls = []

    def counted(fn):
        return lambda *args, **kwargs: calls.append(fn.__name__) or fn(*args, **kwargs)

    for name in names:
        monkeypatch.setattr(experiments, name, counted(getattr(experiments, name)))
    return calls


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

    def test_eigensolve_budget(self, dataset, monkeypatch):
        # a deterministic counter: with a PSD cleanup eigh on every trial, the
        # full-matrix gm and mle solves made 22,241 eigensolves here over
        # 22,146 iterations; the factorized solves make 101
        calls = count_eigensolves(monkeypatch, "gm_solve", "mle_solve")
        solvers = [
            {"solver": "gm", "fit": "nll", "data": "noisy", "max_iter": 4000},
            {"solver": "gm", "fit": "l2", "data": "exact", "max_iter": 4000},
            {"solver": "mle", "data": "noisy", "max_iter": 4000},
        ]
        records = reconstruct_dataset(dataset, {"solvers": solvers})
        iterations = sum(rec.iterations for rec in records)
        assert calls["in_solve"] <= iterations / 10

    def test_missing_solvers_rejected(self, dataset):
        with pytest.raises(ValueError, match="no solver"):
            reconstruct_dataset(dataset, {"solvers": []})

    def test_manifest_operator_with_unknown_key_rejected(self, tmp_path):
        # generate used to write any extra operator key into the manifest, and
        # reconstruct then built the operator without it
        spec = small_spec(tmp_path / "data")
        generate_dataset(spec)
        path = tmp_path / "data" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["config"]["operator"]["quad_ordr"] = 3
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError) as excinfo:
            reconstruct_dataset(tmp_path / "data", self.run_config(), out_dir=tmp_path / "out")
        assert str(excinfo.value) == (
            "config field operator.quad_ordr is unknown; operator takes "
            "('kind', 'dim', 'angles', 'bin_edges', 'quad_order')"
        )
        assert not (tmp_path / "out").exists()


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

    @staticmethod
    def budget_records(small_descriptor):
        records = []
        for true_rank in (1, 2):
            records += rank_trap(
                {
                    "operator": small_descriptor,
                    "true_rank": true_rank,
                    "count": 4,
                    "start_ranks": [1, 2, 3, 4],
                    "solver": {"tol": 1e-12},
                    "seed": 7,
                }
            )[0]
        return records

    def test_iteration_budget(self, small_descriptor):
        # a deterministic counter, unaffected by machine load: the momentum
        # without the gradient restart took 6,044 iterations here, with it 4,314
        total = sum(rec.iterations for rec in self.budget_records(small_descriptor))
        assert total <= 4800

    def test_eigensolve_budget(self, small_descriptor, monkeypatch):
        # a deterministic counter: with a trace-norm eigensolve on every step
        # and every certificate check in full, the solves made 4,809 eigensolves
        # over 4,314 iterations; running them only on steps that can pass
        # leaves 117
        calls = count_eigensolves(monkeypatch, "fgd_solve")
        iterations = sum(rec.iterations for rec in self.budget_records(small_descriptor))
        assert calls["in_solve"] <= iterations / 10

    def test_records_reuse_the_certificate_of_the_stop(self, small_descriptor, monkeypatch):
        # each record used to certify its final state again, right after the
        # certificate stop had certified the same state
        calls = count_calls(monkeypatch, "validity_certificate")
        config = {"operator": small_descriptor, "true_rank": 2, "count": 2, "start_ranks": [1, 3]}
        records, _ = rank_trap({**config, "seed": 5})
        assert [rec.stop_reason for rec in records] == ["converged"] * 4
        assert calls == []

    def test_zero_start_rank_rejected(self, small_descriptor):
        message = r"config field start_ranks must be in \[1, 4\], got 0"
        with pytest.raises(ValueError, match=message):
            rank_trap({"operator": small_descriptor, "start_ranks": [0], "count": 1})

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"fit": "l3"}, "config field fit must be nll or l2, got 'l3'"),
            ({"true_rank": 5}, "config field true_rank must be in [1, 4], got 5"),
            ({"true_rank": 0}, "config field true_rank must be in [1, 4], got 0"),
            ({"start_ranks": []}, "config field start_ranks must be nonempty"),
            (
                {"start_ranks": [1, 1]},
                "config field start_ranks must not repeat an entry, got [1, 1]",
            ),
            ({"solver": {"max_iter": -5}}, "config field solver.max_iter must be >= 0, got -5"),
            ({"solver": {"tol": math.nan}}, "config field solver.tol must be finite and >= 0"),
        ],
        ids=[
            "fit", "true-rank-high", "true-rank-zero", "start-ranks-empty",
            "start-ranks-repeated", "max-iter", "tol",
        ],
    )
    def test_rejects_bad_inputs_before_any_truth(
        self, small_descriptor, monkeypatch, override, message
    ):
        # these used to fail only once a truth was drawn or inside the first
        # solve, and an empty start_ranks wrote empty records
        calls = []

        def counted(fn):
            return lambda *args, **kwargs: calls.append(fn.__name__) or fn(*args, **kwargs)

        for name in ("random_density", "simulate_data", "fgd_solve"):
            monkeypatch.setattr(experiments, name, counted(getattr(experiments, name)))
        config = {"operator": small_descriptor, "true_rank": 2, "count": 1, "start_ranks": [1]}
        with pytest.raises(ValueError) as excinfo:
            rank_trap({**config, **override})
        assert message in str(excinfo.value)
        assert calls == []

    def test_borderline_over_parameterized_start_stays_valid(self):
        # this rank-6 start reads spurious at step 119 with a kernel-restricted
        # eigenvalue of -1.19e-8, before it settles: the certificate stop needs
        # a restricted eigenvalue below -PSD_TOL to stop a solve spurious
        records, _ = rank_trap(
            {
                "operator": standard_homodyne_descriptor(),
                "true_rank": 5,
                "count": 1,
                "start_ranks": [6],
                "solver": {"tol": 1e-12},
                "seed": derive_seed(9, 30),
            }
        )
        (record,) = records
        assert record.stop_reason == "converged"
        assert record.certificate.verdict == VALID


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

        s, c, d, config = self.write_setup(tmp_path, oracle, data.values)
        cert, code = validate_state(s, config, d)
        assert (cert.verdict, code) == (VALID, 0)

        s, c, d, config = self.write_setup(tmp_path, rho_fix, data.values)
        cert, code = validate_state(s, config, d)
        assert (cert.verdict, code) == (SPURIOUS, 2)

        random_state = random_density(2, 2, 99)
        s, c, d, config = self.write_setup(tmp_path, random_state, data.values)
        cert, code = validate_state(s, config, d)
        assert code == 3


class TestCli:
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_one_command_parser_reads_as_the_full_parser(self, command, capsys):
        # main builds only the named command's parser: its help, its errors and
        # its parsed arguments must be the full parser's
        for argv in ([command, "-h"], [command], [command, "--config", "c", "--extra"]):
            outputs = []
            for parser in (build_parser(), build_parser(command)):
                with pytest.raises(SystemExit) as excinfo:
                    parser.parse_args(argv)
                outputs.append((excinfo.value.code, capsys.readouterr()))
            assert outputs[0] == outputs[1]
        argv = [command] + [arg for flag, _ in COMMANDS[command][2] for arg in (flag, "1")]
        assert vars(build_parser().parse_args(argv)) == vars(build_parser(command).parse_args(argv))

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
        save_matrix(state, rho_fix)
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
        "field, value",
        [("dim", 4.7), ("dim", True), ("quad_order", 20.9), ("dim", "4"), ("angles", [0, "1"])],
    )
    def test_validate_rejects_non_integer_descriptor_fields(
        self, small_descriptor, field, value, tmp_path, capsys
    ):
        # these built a dim-4, a dim-1 and a quad_order-20 operator, a dim-4
        # operator and one with angles 0 and 1
        state, config, data = tmp_path / "s.json", tmp_path / "c.json", tmp_path / "d.csv"
        save_matrix(state, np.eye(4) / 4)
        MeasurementData(np.full((5, 12), 1.0 / 12)).save_csv(data)
        config.write_text(json.dumps({"operator": {**small_descriptor, field: value}}))
        argv = ["validate", "--state", str(state), "--config", str(config), "--data", str(data)]
        assert main(argv) == 1
        assert f"operator.{field} must be" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "command, config, message",
        [
            ("rank-trap", {"count": [1]}, "count must be a number"),
            ("rank-trap", {"count": math.inf}, "count must be a number"),
            ("rank-trap", {"seed": None}, "seed must be a number"),
            ("rank-trap", {"solver": {"tol": {}}}, "solver.tol must be a number"),
            (
                "rank-trap",
                {"operator": {"kind": "homodyne", "dim": [2], "angles": [0], "bin_edges": [0, 1]}},
                "malformed homodyne descriptor",
            ),
            ("generate", {"seed": {}}, "seed must be a number"),
            ("generate", {"ensemble": {"dim": 2, "ranks": [[1]]}}, "ranks must be a number"),
            ("reconstruct", {"solvers": [{"max_iter": [5]}]}, "max_iter must be a number"),
            # integer fields used to truncate a non-integral value
            ("rank-trap", {"true_rank": 1, "count": 1.9}, "count must be an integer"),
            (
                "generate",
                {"ensemble": {"dim": 2, "ranks": [1], "count_per_rank": 2.9}},
                "count_per_rank must be an integer",
            ),
            ("reconstruct", {"solvers": [{"max_iter": 10.5}]}, "max_iter must be an integer"),
            # a JSON boolean used to read as 1 or 0
            ("rank-trap", {"true_rank": 1, "count": True}, "count must be a number"),
            ("generate", {"seed": False}, "seed must be a number"),
            ("generate", {"noise": {"scale": True}}, "noise.scale must be a number"),
            ("reconstruct", {"solvers": [{"rank": True}]}, "rank must be a number"),
            # a JSON string used to parse as the number it spells
            (
                "generate",
                {"ensemble": {"dim": "2", "ranks": [1]}},
                "config field ensemble.dim must be a number",
            ),
            ("generate", {"noise": {"scale": "1e3"}}, "config field noise.scale must be a number"),
            ("generate", {"seed": " 7 "}, "config field seed must be a number"),
            ("generate", {"ensemble": {"dim": 2, "ranks": ["1"]}}, "ranks must be a number"),
            ("rank-trap", {"true_rank": 1, "count": "1"}, "count must be a number"),
            ("reconstruct", {"solvers": [{"tol": "1e-8"}]}, "tol must be a number"),
            (
                "rank-trap",
                {"operator": {"kind": "homodyne", "dim": 2, "angles": [True, "0.5"],
                              "bin_edges": [0, 1]}},
                "config field operator.angles must be a number",
            ),
        ],
        ids=[
            "rank-trap-count", "rank-trap-count-inf", "rank-trap-seed", "rank-trap-tol",
            "rank-trap-homodyne-dim", "generate-seed", "generate-ranks", "reconstruct-max-iter",
            "rank-trap-count-fraction", "generate-count-per-rank-fraction",
            "reconstruct-max-iter-fraction", "rank-trap-count-bool", "generate-seed-bool",
            "generate-noise-scale-bool", "reconstruct-rank-bool", "generate-dim-str",
            "generate-noise-scale-str", "generate-seed-str", "generate-ranks-str",
            "rank-trap-count-str", "reconstruct-tol-str", "rank-trap-homodyne-angles-bool-str",
        ],
    )
    def test_rejects_non_number_config_fields(self, command, config, message, tmp_path, capsys):
        assert self.run_with_config(command, config, tmp_path) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, config, message",
        [
            (
                "reconstruct",
                {"solvers": [{"tol": math.nan}]},
                "config field solvers[0].tol must be finite and >= 0, got nan",
            ),
            (
                "reconstruct",
                {"solvers": [{"tol": -1}]},
                "config field solvers[0].tol must be finite and >= 0, got -1",
            ),
            (
                "reconstruct",
                {"solvers": [{}, {}, {}, {"max_iter": -5}]},
                "config field solvers[3].max_iter must be >= 0, got -5",
            ),
            (
                "reconstruct",
                {"solvers": [{}], "oracle": {"tol": -1}},
                "config field oracle.tol must be finite and >= 0, got -1",
            ),
            (
                "reconstruct",
                {"solvers": [{}], "oracle": {"max_iter": -5}},
                "config field oracle.max_iter must be >= 0, got -5",
            ),
            (
                "rank-trap",
                {"true_rank": 1, "count": 1, "solver": {"tol": -1}},
                "config field solver.tol must be finite and >= 0, got -1",
            ),
            (
                "rank-trap",
                {"true_rank": 1, "count": 1, "solver": {"max_iter": -5}},
                "config field solver.max_iter must be >= 0, got -5",
            ),
        ],
        ids=[
            "reconstruct-tol-nan", "reconstruct-tol-negative", "reconstruct-max-iter-negative",
            "reconstruct-oracle-tol-negative", "reconstruct-oracle-max-iter-negative",
            "rank-trap-tol-negative", "rank-trap-max-iter-negative",
        ],
    )
    def test_rejects_bad_stop_settings(self, command, config, message, tmp_path, capsys):
        # a NaN or negative tol used to run every solve to max_iter; the message
        # used to leave out which block held the setting
        assert self.run_with_config(command, config, tmp_path) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, config, message",
        [
            ("reconstruct", {"solvers": [{"data": ["noisy"]}]}, "solvers[0].data must be a JSON"),
            ("reconstruct", {"solvers": [{}, {"data": {"v": 1}}]}, "solvers[1].data must be a"),
            (
                "reconstruct",
                {"solvers": [{"data": "clean"}]},
                "config field solvers[0].data must be exact or noisy, got 'clean'",
            ),
            (
                "reconstruct",
                {"solvers": [{"max_iter": 5}], "output_dir": 5},
                "config field output_dir must be a JSON string",
            ),
            (
                "rank-trap",
                {"true_rank": 1, "count": 1, "start_ranks": [1], "output_dir": ["x"]},
                "config field output_dir must be a JSON string",
            ),
            ("generate", {"output_dir": ["y"]}, "config field output_dir must be a JSON string"),
        ],
        ids=[
            "reconstruct-data-list", "reconstruct-data-object", "reconstruct-data-unknown",
            "reconstruct-output-dir", "rank-trap-output-dir", "generate-output-dir",
        ],
    )
    def test_rejects_non_string_config_fields(
        self, command, config, message, tmp_path, capsys, monkeypatch
    ):
        # a list or an object used to raise a TypeError, or name a directory "['y']"
        monkeypatch.chdir(tmp_path)
        has_output_dir = "output_dir" in config
        assert self.run_with_config(command, config, tmp_path, out=not has_output_dir) == 1
        assert message in capsys.readouterr().err
        assert {p.name for p in tmp_path.iterdir()} <= {"cfg.json", "data"}
        if has_output_dir:  # --out takes precedence over the config field
            assert self.run_with_config(command, config, tmp_path) == 0

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"max_iter": -5}, "config field solvers[1].max_iter must be >= 0, got -5"),
            ({"solver": "gmm"}, "solvers[1].solver must be gm, fgd or mle, got 'gmm'"),
            ({"solver": "pgd"}, "solvers[1].solver must be gm, fgd or mle, got 'pgd'"),
            ({"fit": "l3"}, "solvers[1].fit must be nll or l2"),
            ({"fit": "NLL"}, "solvers[1].fit must be nll or l2"),
            ({"solver": "mle", "fit": "l2"}, "solvers[1].fit must be nll or l2 (mle: nll)"),
            ({"solver": "fgd", "rank": 3}, "solvers[1].rank must be in [1, 2], got 3"),
            ({"seed": "1"}, "solvers[1].seed must be a number"),
            ({"data": "clean"}, "config field solvers[1].data must be exact or noisy, got 'clean'"),
        ],
        ids=["max-iter", "solver", "pgd", "fit", "fit-case", "mle-l2", "rank", "seed", "data"],
    )
    def test_rejects_bad_solver_entries_before_any_solve(
        self, entry, message, tmp_path, capsys, monkeypatch
    ):
        # these used to fail only after solvers[0] and its oracle had run; a pgd
        # entry was recorded as the oracle and "NLL" was labelled gm-NLL-full
        solves = []

        def counted(solve):
            return lambda *args, **kwargs: solves.append(1) or solve(*args, **kwargs)

        for name in ("gm_solve", "fgd_solve", "mle_solve", "pgd_solve"):
            monkeypatch.setattr(experiments, name, counted(getattr(experiments, name)))
        config = {"solvers": [{"solver": "gm"}, entry]}
        assert self.run_with_config("reconstruct", config, tmp_path) == 1
        assert message in capsys.readouterr().err
        assert solves == []

    @pytest.mark.parametrize(
        "command, config, message",
        [
            (
                "reconstruct",
                {"solvers": [{"solver": "gm", "max_iters": 5}]},
                "config field solvers[0].max_iters is unknown",
            ),
            (
                "reconstruct",
                {"solvers": [{}], "oracle": {"max_iters": 5}},
                "config field oracle.max_iters is unknown",
            ),
            (
                "rank-trap",
                {"true_rank": 1, "count": 1, "start_ranks": [1], "solver": {"tols": 1e-3}},
                "config field solver.tols is unknown",
            ),
            (
                "generate",
                {"ensemble": {"dim": 2, "ranks": [1], "count": 2}},
                "config field ensemble.count is unknown",
            ),
            ("generate", {"noise": {"scael": 10.0}}, "config field noise.scael is unknown"),
        ],
        ids=[
            "reconstruct-solver", "reconstruct-oracle", "rank-trap-solver", "generate-ensemble",
            "generate-noise",
        ],
    )
    def test_rejects_unknown_block_keys(self, command, config, message, tmp_path, capsys):
        # a mistyped key used to be ignored: max_iters ran under the default max_iter
        assert self.run_with_config(command, config, tmp_path) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_rejects_data_variant_an_instance_lacks(self, tmp_path, capsys, monkeypatch):
        solves = count_calls(monkeypatch, "gm_solve", "pgd_solve")
        spec = {
            "operator": {"kind": "pauli6"},
            "ensemble": {"dim": 2, "ranks": [1]},
            "noise": {"enabled": False},
        }
        generate_dataset(parse_experiment_spec(spec, output_dir=tmp_path / "data"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"solvers": [{"solver": "gm"}, {"data": "noisy"}]}))
        argv = ["reconstruct", "--config", str(cfg), "--dataset", str(tmp_path / "data")]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        assert "instance r01_i000 has no 'noisy' data" in capsys.readouterr().err
        assert solves == []

    MISSING = object()

    @pytest.mark.parametrize(
        "command, override, message",
        [
            ("rank-trap", {"count": 0}, "config field count must be >= 1, got 0"),
            (
                "rank-trap",
                {"start_ranks": [0]},
                "config field start_ranks must be in [1, 2], got 0",
            ),
            ("rank-trap", {"operator": MISSING}, "config field operator must be a JSON object"),
            (
                "generate",
                {"ensemble": {"dim": 2, "ranks": [5]}},
                "config field ensemble.ranks must be in [1, 2], got 5",
            ),
            (
                "generate",
                {"ensemble": {"dim": 2, "ranks": []}},
                "config field ensemble.ranks must be nonempty",
            ),
            (
                "generate",
                {"ensemble": {"dim": 2, "ranks": [1, 1]}},
                "config field ensemble.ranks must not repeat an entry, got [1, 1]",
            ),
            (
                "generate",
                {"ensemble": {"dim": 2}},
                "config field ensemble.ranks must be a JSON list, got None",
            ),
            (
                "generate",
                {"ensemble": {"dim": 2, "ranks": [1], "count_per_rank": 0}},
                "config field ensemble.count_per_rank must be >= 1, got 0",
            ),
            ("generate", {"noise": {"scale": 0}}, "config field noise.scale must be positive"),
            ("generate", {"operator": MISSING}, "config field operator must be a JSON object"),
            ("validate", {"operator": MISSING}, "config field operator must be a JSON object"),
            ("validate", {"fit": "l3"}, "config field fit must be nll or l2, got 'l3'"),
            (
                "reconstruct",
                {"solvers": [{"solver": "gm"}, {"solver": "gm", "data": "truth"}]},
                "config field solvers[1].data must be exact or noisy, got 'truth'",
            ),
            ("rank-trap", {"seed": -1}, "config field seed must be >= 0, got -1"),
            ("generate", {"seed": -1}, "config field seed must be >= 0, got -1"),
            (
                "reconstruct",
                {"solvers": [{"solver": "gm", "seed": -1}]},
                "config field solvers[0].seed must be >= 0, got -1",
            ),
        ],
        ids=[
            "rank-trap-count", "rank-trap-start-rank", "rank-trap-operator",
            "generate-ranks-high", "generate-ranks-empty", "generate-ranks-repeated",
            "generate-ranks-missing",
            "generate-count-per-rank", "generate-noise-scale", "generate-operator",
            "validate-operator", "validate-fit", "reconstruct-data-truth",
            "rank-trap-seed", "generate-seed", "reconstruct-solver-seed",
        ],
    )
    def test_config_errors_name_their_field(
        self, command, override, message, tmp_path, capsys, monkeypatch
    ):
        # these used to read "count must be >= 1, got 0", "start rank 0 outside
        # [1, 2]", "rank 5 outside [1, 2]", "ranks must be nonempty", "'ranks'",
        # "count_per_rank must be ...", "noise scale must be ...", "'operator'" and
        # "unknown objective kind 'l3'" (after the state file was read); a "truth"
        # data variant passed the entry check and stopped inside reconstruct
        # after the first solve; a negative seed failed inside numpy, after generate
        # had made its first instance directory, or passed in a full-rank entry
        calls = count_calls(
            monkeypatch, "load_matrix", "gm_solve", "fgd_solve", "mle_solve", "pgd_solve"
        )
        pauli6 = {"kind": "pauli6"}
        base = {
            "rank-trap": {"operator": pauli6, "true_rank": 1, "count": 1, "start_ranks": [1]},
            "generate": {"operator": pauli6, "ensemble": {"dim": 2, "ranks": [1]}},
            "validate": {"operator": pauli6},
            "reconstruct": {},
        }[command]
        config = {k: v for k, v in {**base, **override}.items() if v is not self.MISSING}
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(json.dumps(config))
        argv = [command, "--config", str(cfg)]
        if command == "validate":
            state, data = tmp_path / "s.json", tmp_path / "d.csv"
            save_matrix(state, np.eye(2) / 2)
            _write_data_csv(data, 0.5)
            argv += ["--state", str(state), "--data", str(data)]
        else:
            argv += ["--out", str(out)]
        if command == "reconstruct":
            spec = {"operator": pauli6, "ensemble": {"dim": 2, "ranks": [1]}}
            generate_dataset(parse_experiment_spec(spec, output_dir=tmp_path / "data"))
            argv += ["--dataset", str(tmp_path / "data")]
        assert main(argv) == 1
        assert message in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_runtime_error_is_reported_without_traceback(self, tmp_path, capsys):
        # a noise scale this small draws zero counts in every retry; the
        # RuntimeError used to escape main as a traceback, and the first
        # instance's truth.json and exact.csv used to be written before it
        cfg = tmp_path / "gen.json"
        spec = {
            "operator": {"kind": "pauli6"},
            "ensemble": {"dim": 2, "ranks": [1]},
            "noise": {"scale": 1e-12},
        }
        cfg.write_text(json.dumps(spec))
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "error: a measurement row kept drawing zero total counts" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "instances").exists()

    @pytest.mark.parametrize(
        "override, message",
        [
            (
                {"config": []},
                "config field manifest.config must be a JSON object, got []",
            ),
            (
                {"instances": {"a": 1}},
                "config field manifest.instances must be a JSON list, got {'a': 1}",
            ),
            (
                {"instances": [{"id": "r01_i000", "files": ["truth.json"]}]},
                "config field manifest.instances[0].files must be a JSON object",
            ),
        ],
        ids=["config", "instances", "files"],
    )
    def test_reconstruct_checks_the_manifest(
        self, override, message, tmp_path, capsys, monkeypatch
    ):
        # the first two used to end in an AttributeError and a TypeError traceback
        solves = count_calls(monkeypatch, "gm_solve", "pgd_solve")
        spec = {"operator": {"kind": "pauli6"}, "ensemble": {"dim": 2, "ranks": [1]}}
        generate_dataset(parse_experiment_spec(spec, output_dir=tmp_path / "data"))
        path = tmp_path / "data" / "manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), **override}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"solvers": [{"solver": "gm"}]}))
        argv = ["reconstruct", "--config", str(cfg), "--dataset", str(tmp_path / "data")]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert solves == []

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda inst: inst["files"].pop("truth"),
                "instance r02_i000 has no 'truth' data (manifest.instances[1].files.truth)",
            ),
            (
                lambda inst: inst.pop("id"),
                "config field manifest.instances[1].id must be a JSON string, got None",
            ),
            (
                lambda inst: inst.update(rank="2"),
                "config field manifest.instances[1].rank must be a number, got '2'",
            ),
            (
                lambda inst: inst["files"]["noisy"].update(path=5),
                "config field manifest.instances[1].files.noisy.path must be a JSON string, got 5",
            ),
            (
                lambda inst: inst.update(id="a,b"),
                "config field manifest.instances[1].id has a comma or line break: 'a,b'",
            ),
            (
                lambda inst: inst.update(id="a\nb"),
                "config field manifest.instances[1].id has a comma or line break: 'a\\nb'",
            ),
            (
                lambda inst: inst.update(rank=3),
                "config field manifest.instances[1].rank must be in [1, 2], got 3",
            ),
            (
                lambda inst: inst.update(rank=-7),
                "config field manifest.instances[1].rank must be in [1, 2], got -7",
            ),
            (
                lambda inst: inst.update(truth_seed=-3),
                "config field manifest.instances[1].truth_seed must be >= 0, got -3",
            ),
            (
                lambda inst: inst["files"]["truth"].pop("sha256"),
                "config field manifest.instances[1].files.truth.sha256 must be a JSON string, "
                "got None",
            ),
        ],
        ids=["no-truth", "no-id", "string-rank", "integer-path", "id-comma", "id-newline",
             "rank-above-dim", "rank-negative", "truth-seed-negative", "no-digest"],
    )
    def test_reconstruct_checks_every_instance_before_any_solve(
        self, edit, message, tmp_path, capsys, monkeypatch
    ):
        # these used to end in "error: 'truth'" after the first instance's solves,
        # "error: 'id'" after them, a string truth_rank in the records, a TypeError
        # traceback and a records.csv row with its fields shifted by the comma
        solves = count_calls(monkeypatch, "gm_solve", "pgd_solve")
        spec = {"operator": {"kind": "pauli6"}, "ensemble": {"dim": 2, "ranks": [1, 2]}}
        generate_dataset(parse_experiment_spec(spec, output_dir=tmp_path / "data"))
        path = tmp_path / "data" / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest["instances"][1])
        path.write_text(json.dumps(manifest))
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(json.dumps({"solvers": [{"solver": "gm"}]}))
        argv = ["reconstruct", "--config", str(cfg), "--dataset", str(tmp_path / "data")]
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert solves == []
        assert not out.exists()

    def test_reconstruct_rejects_data_edited_after_generate(self, tmp_path, capsys, monkeypatch):
        # the manifest's digests were never compared, so edited data reconstructed silently
        solves = count_calls(monkeypatch, "gm_solve", "pgd_solve")
        spec = {"operator": {"kind": "pauli6"}, "ensemble": {"dim": 2, "ranks": [1, 2]}}
        generate_dataset(parse_experiment_spec(spec, output_dir=tmp_path / "data"))
        noisy = tmp_path / "data" / "instances" / "r02_i000" / "noisy.csv"
        _write_data_csv(noisy, 0.5)
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(json.dumps({"solvers": [{"solver": "gm"}]}))
        argv = ["reconstruct", "--config", str(cfg), "--dataset", str(tmp_path / "data")]
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        field = "manifest.instances[1].files.noisy.sha256"
        assert f"error: config field {field} is not the digest of" in err
        assert "Traceback" not in err
        assert solves == []
        assert not out.exists()

    def test_imports_load_no_third_party_module_but_numpy(self):
        # numpy is the only runtime dependency; a module-level import of any other
        # package would also add to the import time of every command
        src = str(Path(experiments.__file__).parents[1])
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import tomokit, tomokit.cli, tomokit.experiments\n"
            "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
            "print(sorted(loaded - sys.stdlib_module_names - {'numpy', 'tomokit'}))"
        )
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, check=True)
        assert result.stdout.strip() == "[]"

    def test_package_import_leaves_experiments_unloaded(self):
        # the package exports no config reader, so only the commands load experiments
        src = str(Path(experiments.__file__).parents[1])
        code = "import sys, tomokit; print('tomokit.experiments' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, check=True)
        assert result.stdout.strip() == "False"

    def test_generate_checks_dim_before_writing(self, tmp_path, capsys):
        # a dim that the operator does not have used to leave a truth.json behind
        cfg, out = tmp_path / "gen.json", tmp_path / "out"
        spec = {"operator": {"kind": "pauli6"}, "ensemble": {"dim": 3, "ranks": [1]}}
        cfg.write_text(json.dumps(spec))
        out.mkdir()
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 1
        assert "ensemble.dim 3 does not match operator dim 2" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @staticmethod
    def run_with_config(command, config, tmp_path, out=True) -> int:
        cfg = tmp_path / "cfg.json"
        argv = [command, "--config", str(cfg)]
        if out:
            argv += ["--out", str(tmp_path / "out")]
        spec = {"operator": {"kind": "pauli6"}, "ensemble": {"dim": 2, "ranks": [1]}}
        if command == "reconstruct":
            generate_dataset(parse_experiment_spec(spec, output_dir=tmp_path / "data"))
            argv += ["--dataset", str(tmp_path / "data")]
        else:
            config = {**spec, **config}
        cfg.write_text(json.dumps(config))
        return main(argv)

    def test_integral_float_integer_fields_still_parse(self):
        ensemble = {"dim": 2.0, "ranks": [1.0], "count_per_rank": 2.0}
        spec = parse_experiment_spec({"operator": {"kind": "pauli6"}, "ensemble": ensemble})
        assert (spec.dim, spec.ranks, spec.count_per_rank) == (2, [1], 2)

    def test_numpy_numbers_parse(self):
        # a Python caller may build a config from numpy scalars
        config = {
            "operator": {"kind": "pauli6"},
            "ensemble": {"dim": np.int64(2), "ranks": [np.int32(1)], "count_per_rank": np.int64(2)},
            "noise": {"scale": np.float32(100.0)},
            "seed": np.uint8(7),
        }
        spec = parse_experiment_spec(config)
        assert (spec.dim, spec.ranks, spec.count_per_rank, spec.seed) == (2, [1], 2, 7)
        assert spec.noise_scale == 100.0
        assert type(spec.dim) is int and type(spec.noise_scale) is float

    @pytest.mark.parametrize("enabled", ["false", 0, None])
    def test_rejects_non_boolean_noise_flag(self, enabled, tmp_path, capsys):
        # the string "false" used to read as true and turn noise on
        cfg = tmp_path / "cfg.json"
        spec = {
            "operator": {"kind": "pauli6"},
            "ensemble": {"dim": 2, "ranks": [1]},
            "noise": {"enabled": enabled},
        }
        cfg.write_text(json.dumps(spec))
        out = tmp_path / "out"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 1
        assert "noise.enabled must be a JSON boolean" in capsys.readouterr().err
        assert not out.exists()

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

    def test_rank_trap_seed_option_overrides_the_config_seed(self, small_descriptor, tmp_path):
        config = {
            "operator": small_descriptor,
            "true_rank": 2,
            "count": 1,
            "start_ranks": [1, 2],
            "solver": {"tol": 1e-10, "max_iter": 3000},
        }
        runs = {}
        for name, seed, argv in [("option", 0, ["--seed", "5"]), ("config", 5, [])]:
            cfg, out = tmp_path / f"{name}.json", tmp_path / name
            cfg.write_text(json.dumps({**config, "seed": seed}))
            assert main(["rank-trap", "--config", str(cfg), "--out", str(out)] + argv) == 0
            runs[name] = json.loads((out / "records.json").read_text())
            for record in runs[name]["records"]:
                record.pop("wall_time")
        assert runs["option"]["config"]["seed"] == 5
        assert runs["option"] == runs["config"]

    def test_one_outcome_pipeline(self, tmp_path, capsys):
        # A one-bin dataset used to read its (3, 1) data back as (1, 3) and stop reconstruct.
        operator = {"kind": "homodyne", "dim": 2, "angles": [0, 1, 2], "bin_edges": [-6.0, 6.0]}
        gen_cfg, run_cfg = tmp_path / "gen.json", tmp_path / "run.json"
        gen_cfg.write_text(json.dumps({"operator": operator, "ensemble": {"dim": 2, "ranks": [1]}}))
        run_cfg.write_text(json.dumps({"solvers": [{"solver": "gm", "max_iter": 200}]}))
        data_dir, out_dir = tmp_path / "data", tmp_path / "runs"
        assert main(["generate", "--config", str(gen_cfg), "--out", str(data_dir)]) == 0
        argv = ["reconstruct", "--config", str(run_cfg), "--dataset", str(data_dir)]
        assert main(argv + ["--out", str(out_dir)]) == 0, capsys.readouterr().err
        assert MeasurementData.load_csv(data_dir / "instances/r01_i000/noisy.csv").shape == (3, 1)
        assert (out_dir / "records.csv").exists()


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
    "MeasurementOperator": lambda tmp, v: _bad_effects(v),
    "homodyne_angles": lambda tmp, v: homodyne_operator(2, [0.0, v], [0.0, 1.0]),
    "homodyne_bin_edges": lambda tmp, v: homodyne_operator(2, [0.0], [0.0, 1.0, v]),
    "FactorState": lambda tmp, v: FactorState(np.array([[v], [0.0]])),
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
