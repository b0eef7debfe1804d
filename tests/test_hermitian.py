import json

import numpy as np
import pytest

from tomokit.hermitian import (
    DensityLike,
    HermitianMatrix,
    load_matrix,
    matrix_from_json_dict,
    matrix_to_json_dict,
    project_to_density,
    random_density,
    random_hermitian,
    save_matrix,
    trace_norm,
)

RHO_FIX = np.array([[1.0, 1.0 - 1.0j], [1.0 + 1.0j, 2.0]]) / 3.0
# The two ways to build a density; both run the same checks.
DENSITY_BUILDERS = [DensityLike.from_array, lambda entries: DensityLike(HermitianMatrix(entries))]


def closed_form_preimage(t: float) -> np.ndarray:
    return np.array(
        [[2 + 4 * t, (2 - 5 * t) * (1 - 1j)], [(2 - 5 * t) * (1 + 1j), 4 - 4 * t]]
    ) / 6.0


class TestHermitianMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            HermitianMatrix(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianMatrix(np.array([[1.0, 1e-6], [0.0, 1.0]]))

    def test_entries_read_only(self):
        half = np.eye(2) / 2
        for H in (HermitianMatrix(half), *(build(half) for build in DENSITY_BUILDERS)):
            with pytest.raises(ValueError):
                H.entries[0, 0] = 2.0

    def test_dim_and_trace(self):
        # A DensityLike is a HermitianMatrix, built from an array or from a HermitianMatrix.
        for H in (HermitianMatrix(RHO_FIX), *(build(RHO_FIX) for build in DENSITY_BUILDERS)):
            assert isinstance(H, HermitianMatrix)
            assert np.array_equal(H.entries, RHO_FIX)
            assert H.dim == 2
            assert H.trace() == pytest.approx(1.0, abs=1e-15)


class TestDensityLike:
    def test_rejects_negative_eigenvalue(self):
        for build in DENSITY_BUILDERS:
            with pytest.raises(ValueError, match="^matrix is not PSD: min eigenvalue -5.000e-01$"):
                build(np.diag([1.5, -0.5]))

    def test_rejects_wrong_trace(self):
        for build in DENSITY_BUILDERS:
            with pytest.raises(ValueError, match="^trace 1.4 deviates from 1$"):
                build(np.diag([0.7, 0.7]))


class TestTraceNorm:
    def test_zero(self):
        assert trace_norm(np.zeros((3, 3))) == 0.0

    def test_density_is_one(self):
        rho = random_density(4, 2, 7)
        assert trace_norm(rho) == pytest.approx(1.0, abs=1e-12)

    def test_indefinite(self):
        assert trace_norm(np.diag([2.0, -3.0])) == pytest.approx(5.0)

    def test_dominates_abs_trace(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            H = random_hermitian(5, int(rng.integers(1 << 31)))
            tr = H.trace()
            tn = trace_norm(H)
            assert tn >= abs(tr) - 1e-12
            vals = np.linalg.eigvalsh(H.entries)
            one_signed = np.all(vals >= -1e-12) or np.all(vals <= 1e-12)
            if one_signed:
                assert tn == pytest.approx(abs(tr), abs=1e-10)
            else:
                assert tn > abs(tr) + 1e-12


class TestClosedFormPreimage:
    def test_boundary_preimage_at_window_end(self):
        # at t = 8/11 the closed-form preimage has a zero eigenvalue
        assert np.linalg.eigvalsh(closed_form_preimage(8.0 / 11.0))[0] >= -1e-9
        assert np.linalg.eigvalsh(closed_form_preimage(0.75))[0] < -1e-9


class TestProjectToDensity:
    def test_fixes_members(self):
        rho = random_density(5, 3, 3)
        proj = project_to_density(rho)
        assert np.linalg.norm(proj.entries - rho.entries) < 1e-12

    def test_single_active_constraint(self):
        proj = project_to_density(np.diag([2.0, 0.0]))
        assert np.allclose(proj.entries, np.diag([1.0, 0.0]), atol=1e-14)

    def test_symmetric_shift(self):
        proj = project_to_density(np.diag([0.6, 0.6]))
        assert np.allclose(proj.entries, np.diag([0.5, 0.5]), atol=1e-14)

    def test_idempotent_and_nonexpansive(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            A = random_hermitian(4, int(rng.integers(1 << 31)))
            B = random_hermitian(4, int(rng.integers(1 << 31)))
            pa = project_to_density(A)
            pb = project_to_density(B)
            again = project_to_density(pa)
            assert np.linalg.norm(again.entries - pa.entries) < 1e-12
            assert (
                np.linalg.norm(pa.entries - pb.entries)
                <= np.linalg.norm(A.entries - B.entries) + 1e-10
            )


class TestRandomDensity:
    def test_pure_state_spectrum(self):
        rho = random_density(2, 1, 5)
        assert np.allclose(np.linalg.eigvalsh(rho.entries), [0.0, 1.0], atol=1e-12)

    def test_rank_is_exact(self):
        rho = random_density(10, 5, 123)
        vals = np.linalg.eigvalsh(rho.entries)
        assert int((vals > 1e-12).sum()) == 5

    def test_deterministic(self):
        a = random_density(6, 3, 42)
        b = random_density(6, 3, 42)
        assert np.array_equal(a.entries, b.entries)

    def test_full_rank_strictly_positive(self):
        for seed in range(100):
            rho = random_density(6, 6, seed)
            assert np.linalg.eigvalsh(rho.entries)[0] > 0.0

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            random_density(3, 0, 1)
        with pytest.raises(ValueError):
            random_density(3, 4, 1)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        H = random_hermitian(4, 9)
        path = tmp_path / "m.json"
        save_matrix(path, H)
        back = load_matrix(path)
        assert np.allclose(back.entries, H.entries, atol=1e-15)

    def test_payload_shape(self):
        payload = matrix_to_json_dict(np.eye(2))
        assert set(payload) == {"dim", "re", "im"}
        assert payload["dim"] == 2

    def test_reader_validates_symmetry(self):
        payload = matrix_to_json_dict(np.eye(2))
        payload["im"][0][1] = 0.5  # breaks conjugate symmetry
        with pytest.raises(ValueError, match="not Hermitian"):
            matrix_from_json_dict(payload)

    def test_reader_validates_shape(self):
        with pytest.raises(ValueError):
            matrix_from_json_dict({"dim": 3, "re": [[1.0]], "im": [[0.0]]})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("dim", "2", "dim must be a number"),
            ("dim", True, "dim must be a number"),
            ("dim", 2.7, "dim must be an integer"),
            ("re", [[0.5, "0"], [0, 0.5]], "re must be a number"),
            ("im", [[False, 0], [0, 0]], "im must be a number"),
        ],
    )
    def test_reader_rejects_non_number_fields(self, field, value, message):
        # int() and np.asarray(..., dtype=float) read these as 2, 1, 2, 0.0 and 0.0
        payload = {**matrix_to_json_dict(np.eye(2) / 2), field: value}
        with pytest.raises(ValueError, match=message):
            matrix_from_json_dict(payload)

    def test_reader_accepts_numpy_numbers(self):
        payload = {"dim": np.int64(2), "re": [[np.float32(0.5), 0], [0, np.float64(0.5)]],
                   "im": [[0, np.int8(0)], [0.0, 0.0]]}
        assert np.array_equal(matrix_from_json_dict(payload).entries, np.eye(2) / 2)

    def test_file_is_plain_json(self, tmp_path):
        path = tmp_path / "m.json"
        save_matrix(path, np.eye(2))
        parsed = json.loads(path.read_text())
        assert parsed["dim"] == 2
