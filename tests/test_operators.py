import numpy as np
import pytest

from tomokit.experiments import operator_from_descriptor, standard_homodyne_descriptor
from tomokit.hermitian import HERMITIAN_ATOL, DensityLike, random_density, random_hermitian
from tomokit.operators import (
    MeasurementData,
    MeasurementOperator,
    RankDeficiencyError,
    _hermite_rows,
    homodyne_operator,
    pauli_six_state,
)

from conftest import (
    complex_product_homodyne_effects,
    pauli_six_effects,
    reference_homodyne_effects,
)

RHO_FIX = DensityLike.from_array(np.array([[1.0, 1 - 1j], [1 + 1j, 2.0]]) / 3.0)
# Homodyne setups whose design has one column (N = 1) or one row (one angle, one bin).
ONE_COLUMN_OR_ROW = [
    standard_homodyne_descriptor(dim=1, n_angles=2, n_bins=3),
    standard_homodyne_descriptor(dim=10, n_angles=1, n_bins=1),
]


def sigma_of(t: float) -> np.ndarray:
    return 3.0 * np.eye(2) + 3.0 * t * np.array([[2.0, -1 + 1j], [-1 - 1j, 1.0]])


def preimage_of(t: float) -> np.ndarray:
    return np.array(
        [[2 + 4 * t, (2 - 5 * t) * (1 - 1j)], [(2 - 5 * t) * (1 + 1j), 4 - 4 * t]]
    ) / 6.0


def effects_of(op: MeasurementOperator) -> np.ndarray:
    """The operator's own effects, read back as adjoint(e_mk) = E[m, k]."""
    units = np.eye(op.rows * op.cols).reshape(-1, op.rows, op.cols)
    read = [op.adjoint(unit).entries for unit in units]
    return np.array(read).reshape(op.rows, op.cols, op.dim, op.dim)


def data_of(t: float) -> np.ndarray:
    return np.array(
        [
            [2 + 4 * t, 4 - 4 * t],
            [5 - 5 * t, 1 + 5 * t],
            [5 - 5 * t, 1 + 5 * t],
        ]
    ) / 6.0


class TestPauliSixState:
    def test_shape(self, t2):
        assert (t2.rows, t2.cols, t2.dim) == (3, 2, 2)

    def test_forward_on_rank_one_state(self, t2):
        expected = np.array([[2.0, 4.0], [5.0, 1.0], [5.0, 1.0]]) / 6.0
        assert np.allclose(t2.apply(RHO_FIX), expected, atol=1e-15)

    def test_maximally_mixed(self, t2):
        assert np.allclose(t2.apply(np.eye(2) / 2), 0.5, atol=1e-15)

    def test_adjoint_of_ones_is_exactly_3I(self, t2):
        out = t2.adjoint(np.ones((3, 2))).entries
        assert np.array_equal(out, 3.0 * np.eye(2))

    def test_adjoint_of_elementwise_ratio_recovers_scaling_matrix(self, t2):
        for t in (0.3, 0.5):
            z = data_of(t) / t2.apply(RHO_FIX)
            out = t2.adjoint(z).entries
            assert np.allclose(out, sigma_of(t), atol=1e-13)

    def test_effect_gram_rank_is_full_herm_dimension(self):
        flat = pauli_six_effects().reshape(6, 4)
        gram = (flat @ flat.conj().T).real
        assert np.linalg.matrix_rank(gram) == 4


class TestApplyAdjointContracts:
    def test_apply_linearity(self, t2):
        a = random_density(2, 2, 0).entries
        b = random_density(2, 1, 1).entries
        combo = t2._apply_arr(0.3 * a + 0.7 * b)
        assert np.allclose(combo, 0.3 * t2._apply_arr(a) + 0.7 * t2._apply_arr(b), atol=1e-14)

    def test_adjoint_identity_both_operators(self, t2, homodyne10):
        rng = np.random.default_rng(3)
        for op in (t2, homodyne10):
            for _ in range(50):
                rho = random_density(op.dim, op.dim, int(rng.integers(1 << 31)))
                z = rng.standard_normal(op.shape)
                lhs = float((z * op.apply(rho)).sum())
                rhs = float((op.adjoint(z).entries @ rho.entries).trace().real)
                assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))

    def test_apply_nonnegative_on_states(self, t2, homodyne10):
        for op in (t2, homodyne10):
            for seed in range(25):
                rho = random_density(op.dim, 1 + seed % op.dim, seed)
                assert op.apply(rho).min() >= -1e-12

    def test_dimension_mismatch(self, t2):
        with pytest.raises(ValueError, match="does not match"):
            t2.apply(np.eye(3) / 3)

    def test_adjoint_shape_mismatch(self, t2):
        with pytest.raises(ValueError, match="does not match"):
            t2.adjoint(np.ones((2, 2)))

    def test_adjoint_of_zero(self, t2):
        assert np.array_equal(t2.adjoint(np.zeros((3, 2))).entries, np.zeros((2, 2)))

    def test_effects_must_be_hermitian(self):
        bad = np.zeros((1, 1, 2, 2), dtype=complex)
        bad[0, 0] = [[0.0, 1.0], [0.0, 0.0]]
        with pytest.raises(ValueError, match="not Hermitian"):
            MeasurementOperator(bad)
        rng = np.random.default_rng(23)
        G = rng.standard_normal((2, 2, 3, 3)) + 1j * rng.standard_normal((2, 2, 3, 3))
        hermitian = G + G.conj().swapaxes(-1, -2)
        # Lower triangle only, upper triangle only, imaginary part of a diagonal entry.
        for index, delta in (((0, 1, 2, 0), 1.0), ((1, 0, 0, 2), 1.0), ((1, 1, 1, 1), 1j)):
            bad = hermitian.copy()
            bad[index] += 2 * HERMITIAN_ATOL * delta
            with pytest.raises(ValueError, match="not Hermitian"):
                MeasurementOperator(bad)
        within = hermitian.copy()
        within[0, 1, 2, 0] += 0.5 * HERMITIAN_ATOL
        MeasurementOperator(within)
        single = MeasurementOperator(np.array([0.25, 0.75]).reshape(1, 2, 1, 1))
        assert single._packed_effects.shape == (2, 1)


class TestDesignMatchesEffects:
    """apply/adjoint through the packed design against sums over the raw effects."""

    @staticmethod
    def random_effects():
        rng = np.random.default_rng(17)
        G = rng.standard_normal((4, 3, 3, 3)) + 1j * rng.standard_normal((4, 3, 3, 3))
        return G + G.conj().swapaxes(-1, -2)

    def test_apply_and_adjoint_match_effect_sums(
        self, t2, homodyne_small, homodyne10, small_descriptor
    ):
        rng = np.random.default_rng(5)
        random_effects = self.random_effects()
        cases = (
            (t2, pauli_six_effects()),
            (homodyne_small, reference_homodyne_effects(small_descriptor)),
            (homodyne10, reference_homodyne_effects(standard_homodyne_descriptor())),
            (MeasurementOperator(random_effects), random_effects),
        )
        for op, effects in cases:
            for seed in range(5):
                rho = random_hermitian(op.dim, seed).entries
                z = rng.standard_normal(op.shape)
                forward = np.einsum("mkij,ji->mk", effects, rho).real
                backward = np.einsum("mk,mkij->ij", z, effects)
                got_forward = op.apply(rho)
                got_backward = op.adjoint(z).entries
                assert np.abs(got_forward - forward).max() <= 1e-12 * np.abs(forward).max()
                assert np.abs(got_backward - backward).max() <= 1e-12 * np.abs(backward).max()

    def test_homodyne_design_bytes_match_checked_reference(
        self, homodyne_small, homodyne10, small_descriptor
    ):
        cases = [(homodyne_small, small_descriptor), (homodyne10, standard_homodyne_descriptor())]
        cases += [(operator_from_descriptor(d), d) for d in ONE_COLUMN_OR_ROW]
        for op, descriptor in cases:
            checked = MeasurementOperator(reference_homodyne_effects(descriptor))
            assert op._packed_effects.tobytes() == checked._packed_effects.tobytes()
            assert op._packed_effects.strides == checked._packed_effects.strides

    def test_homodyne_design_stays_near_complex_product_construction(
        self, homodyne_small, homodyne10, small_descriptor
    ):
        # the design used to be written from complex phase products angle by angle;
        # the phase table of cos and sin moves it only in the last bits
        cases = [(homodyne_small, small_descriptor), (homodyne10, standard_homodyne_descriptor())]
        cases += [(operator_from_descriptor(d), d) for d in ONE_COLUMN_OR_ROW]
        for op, descriptor in cases:
            product = MeasurementOperator(complex_product_homodyne_effects(descriptor))
            assert np.abs(op._packed_effects - product._packed_effects).max() <= 1e-15

    def test_packed_design_is_read_only_and_f_contiguous(self, t2, homodyne_small, homodyne10):
        for op in (t2, homodyne_small, homodyne10):
            design = op._packed_effects
            assert not design.flags.writeable
            assert design.flags.f_contiguous
            with pytest.raises(ValueError, match="read-only"):
                design[0, 0] = 1.0
        for descriptor in ONE_COLUMN_OR_ROW:
            design = operator_from_descriptor(descriptor)._packed_effects
            # The strides numpy gives a new array of that shape.
            assert design.strides == np.empty(design.shape).strides


class TestPseudoInverse:
    def test_round_trip_random_states(self, t2, homodyne_small):
        for op in (t2, homodyne_small):
            for seed in range(5):
                rho = random_density(op.dim, op.dim, seed)
                back = op.pseudo_inverse_apply(op.apply(rho))
                assert np.linalg.norm(back.entries - rho.entries) < 1e-12

    def test_matches_closed_form_family(self, t2):
        for t in (0.1, 0.5, 8.0 / 11.0):
            out = t2.pseudo_inverse_apply(data_of(t)).entries
            assert np.abs(out - preimage_of(t)).max() < 1e-12

    def test_half_t_value(self, t2):
        out = t2.pseudo_inverse_apply(np.array([[4, 2], [2.5, 3.5], [2.5, 3.5]]) / 6.0)
        expected = np.array([[4.0, -0.5 + 0.5j], [-0.5 - 0.5j, 2.0]]) / 6.0
        assert np.abs(out.entries - expected).max() < 1e-12

    def test_rank_deficient_effect_set_rejected(self):
        diag_only = np.zeros((1, 2, 2, 2), dtype=complex)
        diag_only[0, 0] = np.diag([1.0, 0.0])
        diag_only[0, 1] = np.diag([0.0, 1.0])
        op = MeasurementOperator(diag_only)
        with pytest.raises(RankDeficiencyError):
            op.pseudo_inverse_apply(np.ones((1, 2)))


class TestHermiteFunctions:
    def test_ground_state_at_origin(self):
        assert _hermite_rows(1, np.array([0.0]))[0, 0] == pytest.approx(np.pi ** -0.25, abs=1e-12)

    def test_odd_order_vanishes_at_origin(self):
        assert _hermite_rows(2, np.array([0.0]))[1, 0] == pytest.approx(0.0, abs=1e-15)

    def test_orthonormality_by_quadrature(self):
        nodes, weights = np.polynomial.legendre.leggauss(80)
        x = 7.0 * nodes
        rows = _hermite_rows(10, x) * np.sqrt(7.0 * weights)
        gram = rows @ rows.T
        assert np.abs(gram - np.eye(10)).max() < 1e-10

    def test_underflow_returns_zero(self):
        assert _hermite_rows(1, np.array([60.0]))[0, 0] == 0.0

    def test_array_input_shape(self):
        assert _hermite_rows(4, np.linspace(-1, 1, 7)).shape == (4, 7)


class TestHomodyneOperator:
    def test_single_mode_normalization(self):
        op = homodyne_operator(1, [0.0], np.linspace(-7, 7, 51))
        rho = DensityLike.from_array(np.array([[1.0 + 0j]]))
        assert op.apply(rho).sum() == pytest.approx(1.0, abs=1e-10)

    def test_reference_shape(self, homodyne10):
        assert homodyne10.shape == (15, 50)
        assert homodyne10.dim == 10

    def test_per_angle_sums_to_one(self, homodyne10):
        for seed in range(5):
            rho = random_density(10, 1 + 2 * seed, seed)
            sums = homodyne10.apply(rho).sum(axis=1)
            assert np.abs(sums - 1.0).max() < 1e-6

    def test_effects_exactly_hermitian(self, homodyne10):
        E = effects_of(homodyne10)
        assert np.array_equal(E, E.conj().swapaxes(-1, -2))

    def test_effects_sum_to_identity_per_angle(self, homodyne10):
        per_angle = effects_of(homodyne10).sum(axis=1)
        for m in range(homodyne10.rows):
            assert np.linalg.norm(per_angle[m] - np.eye(10)) < 1e-6

    def test_adjoint_of_ones_not_proportional_to_identity(self, t2, homodyne10):
        exact = t2.adjoint(np.ones(t2.shape)).entries
        assert np.array_equal(exact, 3.0 * np.eye(2))
        out = homodyne10.adjoint(np.ones(homodyne10.shape)).entries
        scaled = out - (out.trace().real / 10.0) * np.eye(10)
        assert np.linalg.norm(scaled) > 1e-12

    def test_effects_match_defining_formula(self):
        N, angles, edges, order = 4, [0.0, 0.7, 2.1], np.linspace(-5.0, 5.0, 7), 20
        effects = effects_of(homodyne_operator(N, angles, edges, quad_order=order))
        nodes, weights = np.polynomial.legendre.leggauss(order)
        for k in range(edges.size - 1):
            half = 0.5 * (edges[k + 1] - edges[k])
            mid = 0.5 * (edges[k + 1] + edges[k])
            xs = [mid + half * node for node in nodes]
            h = _hermite_rows(N, np.array(xs))
            for a, theta in enumerate(angles):
                for m in range(N):
                    for n in range(N):
                        integral = sum(
                            half * w * h[m][q] * h[n][q] for q, w in enumerate(weights)
                        )
                        expected = np.exp(1j * (n - m) * theta) * integral
                        assert abs(effects[a, k, m, n] - expected) <= 1e-14

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="increasing"):
            homodyne_operator(2, [0.0], [0.0, -1.0])
        with pytest.raises(ValueError, match="quad_order"):
            homodyne_operator(2, [0.0], [0.0, 1.0], quad_order=1)
        with pytest.raises(ValueError, match="distinct"):
            homodyne_operator(2, [0.3, 0.3], [0.0, 1.0])
        with pytest.raises(ValueError, match="angles must be finite"):
            homodyne_operator(2, [np.inf], [0.0, 1.0])
        with pytest.raises(ValueError, match="bin_edges must be finite"):
            homodyne_operator(2, [0.0], [0.0, 1.0, np.inf])


class TestInputChecks:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda t2: MeasurementData(np.ones(3)), "data must be a 2-D array"),
            (
                lambda t2: MeasurementOperator(np.zeros((1, 2, 2, 3))),
                r"effects must have shape \(M, K, N, N\)",
            ),
            (lambda t2: t2.pseudo_inverse_apply(np.ones((2, 3))), "data shape"),
            (lambda t2: homodyne_operator(0, [0.0], [0.0, 1.0]), "dimension must be >= 1"),
            (lambda t2: homodyne_operator(2, [], [0.0, 1.0]), "angles must be a nonempty"),
        ],
        ids=["data-1d", "effects-shape", "pseudo-inverse-shape", "homodyne-dim", "homodyne-angles"],
    )
    def test_rejects_malformed_input(self, t2, build, message):
        with pytest.raises(ValueError, match=message):
            build(t2)

    @pytest.mark.filterwarnings("error")
    def test_rejects_effects_whose_design_overflows(self):
        # the sqrt(2) scaling of a finite off-diagonal entry overflowed with a
        # numpy warning before the design's finiteness check could report it
        effects = np.zeros((1, 1, 2, 2), dtype=complex)
        effects[0, 0] = [[0.0, 1.5e308], [1.5e308, 0.0]]
        with pytest.raises(ValueError, match="effects have non-finite entries"):
            MeasurementOperator(effects)


class TestMeasurementData:
    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            MeasurementData(np.array([[0.1, -0.1]]))

    def test_clips_rounding_noise(self):
        data = MeasurementData(np.array([[1e-15 - 1e-13, 0.5]]))
        assert data.values.min() >= 0.0

    def test_csv_round_trip(self, tmp_path):
        # One outcome per setting, or one setting, used to read back transposed.
        for shape in [(3, 2), (3, 1), (1, 3), (1, 1)]:
            values = np.abs(np.random.default_rng(0).standard_normal(shape))
            data = MeasurementData(values)
            path = tmp_path / "d.csv"
            data.save_csv(path)
            back = MeasurementData.load_csv(path)
            assert np.array_equal(back.values, data.values)

    def test_csv_single_row(self, tmp_path):
        data = MeasurementData(np.array([[0.25, 0.75]]))
        path = tmp_path / "d.csv"
        data.save_csv(path)
        assert MeasurementData.load_csv(path).shape == (1, 2)

    def test_load_reads_only_the_named_file(self, tmp_path):
        # a path went through numpy's DataSource, which read d.csv.gz in place of
        # a missing d.csv (and would fetch a URL)
        data = MeasurementData(np.array([[0.25, 0.75]]))
        data.save_csv(tmp_path / "d.csv.gz")
        with pytest.raises(FileNotFoundError, match="No such file or directory"):
            MeasurementData.load_csv(tmp_path / "d.csv")


class TestDescriptors:
    def test_pauli_descriptor(self):
        op = operator_from_descriptor({"kind": "pauli6"})
        assert op.shape == (3, 2)

    def test_homodyne_descriptor(self, small_descriptor):
        op = operator_from_descriptor(small_descriptor)
        assert op.dim == 4
        assert op.shape == (5, 12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown operator kind"):
            operator_from_descriptor({"kind": "nope"})

    def test_missing_field(self):
        with pytest.raises(ValueError, match="missing"):
            operator_from_descriptor({"kind": "homodyne", "dim": 2})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("dim", 4.7, "operator.dim must be an integer"),
            ("dim", True, "operator.dim must be a number"),
            ("quad_order", 20.9, "operator.quad_order must be an integer"),
            ("quad_order", False, "operator.quad_order must be a number"),
            ("dim", "4", "operator.dim must be a number"),
            ("quad_order", "20", "operator.quad_order must be a number"),
        ],
    )
    def test_integer_fields_reject_fractions_and_booleans(
        self, small_descriptor, field, value, message
    ):
        # int() used to build a dim-4 operator from 4.7, a dim-1 one from true,
        # and quad_order 20 from 20.9
        with pytest.raises(ValueError, match=message):
            operator_from_descriptor({**small_descriptor, field: value})

    @pytest.mark.parametrize(
        "field, index, value",
        [("angles", 1, True), ("angles", 0, "0.5"), ("bin_edges", 3, "1"), ("bin_edges", 0, None)],
    )
    def test_list_fields_reject_non_number_elements(
        self, small_descriptor, field, index, value
    ):
        # the list went through np.asarray(..., dtype=float): true read as 1.0
        # and "0.5" as 0.5
        values = list(small_descriptor[field])
        values[index] = value
        with pytest.raises(ValueError, match=f"config field operator.{field} must be a number"):
            operator_from_descriptor({**small_descriptor, field: values})

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "edges", [[-1e308, 1e308], [1e308, 1.7e308], [1e200, 2e200], [0.0, 1.7e308]]
    )
    def test_rejects_bin_edges_whose_widths_or_midpoints_overflow(self, edges):
        # numpy warned of overflow in subtract or add, and of an invalid multiply,
        # before the design check rejected the non-finite effects; the last two
        # warned of overflow in the Hermite recurrence's x * x and built all-zero
        # effects
        descriptor = {"kind": "homodyne", "dim": 2, "angles": [0.0], "bin_edges": edges}
        with pytest.raises(ValueError, match="bin_edges must give bin widths and midpoints"):
            operator_from_descriptor(descriptor)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "dim, angles", [(3, [1e308, 0.0]), (4, [0.0, -1e308]), (10, [0.0, 2.1e307])]
    )
    def test_rejects_angles_whose_phases_overflow(self, dim, angles):
        # numpy warned of overflow in multiply and of an invalid exp before the
        # design check rejected the non-finite effects
        message = "angles must be at most .* in magnitude"
        with pytest.raises(ValueError, match=message):
            homodyne_operator(dim, angles, [0.0, 1.0])
        descriptor = {"kind": "homodyne", "dim": dim, "angles": angles, "bin_edges": [0.0, 1.0]}
        with pytest.raises(ValueError, match=message):
            operator_from_descriptor(descriptor)

    @pytest.mark.filterwarnings("error")
    def test_accepts_the_largest_angle_whose_phases_are_finite(self):
        top = np.finfo(float).max
        for dim, angle in [(1, top), (2, top), (3, top / 2)]:
            assert homodyne_operator(dim, [0.0, angle], [0.0, 1.0]).shape == (2, 1)

    @pytest.mark.parametrize(
        "descriptor, message",
        [
            (
                {"kind": "pauli6", "dim": 7},
                "config field operator.dim is unknown; operator takes ('kind',)",
            ),
            (
                {**standard_homodyne_descriptor(dim=4), "quad_ordr": 3},
                "config field operator.quad_ordr is unknown; operator takes "
                "('kind', 'dim', 'angles', 'bin_edges', 'quad_order')",
            ),
        ],
        ids=["pauli6", "homodyne"],
    )
    def test_rejects_unknown_keys(self, descriptor, message):
        # the pauli6 dim used to be ignored for a dim-2 operator, and the
        # mistyped quad_ordr left quad_order at 20
        with pytest.raises(ValueError) as excinfo:
            operator_from_descriptor(descriptor)
        assert str(excinfo.value) == message
