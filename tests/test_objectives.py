import numpy as np
import pytest

from tomokit.diagnostics import mu_exclusion, validity_certificate
from tomokit.hermitian import DensityLike, HermitianMatrix, random_density, random_hermitian
from tomokit.objectives import Objective
from tomokit.operators import MeasurementData
from tomokit.solvers import (
    FactorState,
    factorized_mle_step,
    fgd_solve,
    fgd_step,
    gm_solve,
    mle_solve,
    mle_step,
    pgd_solve,
)

RHO_FIX = DensityLike.from_array(np.array([[1.0, 1 - 1j], [1 + 1j, 2.0]]) / 3.0)


def spurious_data(t: float) -> MeasurementData:
    return MeasurementData(
        np.array([[2 + 4 * t, 4 - 4 * t], [5 - 5 * t, 1 + 5 * t], [5 - 5 * t, 1 + 5 * t]]) / 6.0
    )


class TestConstruction:
    def test_kind_aliases(self, t2):
        # each fit has one spelling; the aliases and other letter cases used to be accepted
        for kind in ("NLL", "L2", "least_squares", "neg_log_likelihood"):
            with pytest.raises(ValueError, match="unknown objective kind"):
                Objective(t2, MeasurementData(np.full((3, 2), 0.5)), kind=kind)

    def test_unknown_kind(self, t2):
        with pytest.raises(ValueError, match="unknown objective kind"):
            Objective(t2, MeasurementData(np.full((3, 2), 0.5)), kind="huber")

    def test_shape_mismatch(self, t2):
        with pytest.raises(ValueError, match="does not match"):
            Objective(t2, MeasurementData(np.full((2, 2), 0.5)))

    def test_accepts_plain_array(self, t2):
        obj = Objective(t2, np.full((3, 2), 0.5))
        assert isinstance(obj.data, MeasurementData)


class TestValue:
    def test_least_squares_perfect_fit(self, t2):
        rho = random_density(2, 2, 0)
        obj = Objective(t2, t2.apply(rho), kind="l2")
        assert obj.value(rho) == pytest.approx(0.0, abs=1e-25)

    def test_nll_uniform_case(self, t2):
        # six terms of -(1/2) ln(1/2)
        obj = Objective(t2, np.full((3, 2), 0.5), kind="nll")
        mixed = DensityLike.from_array(np.eye(2) / 2)
        assert obj.value(mixed) == pytest.approx(3.0 * np.log(2.0), abs=1e-12)

    def test_nll_consistent_data_is_entropy(self, t2):
        data = spurious_data(0.0)  # equals the forward values of RHO_FIX
        obj = Objective(t2, data, kind="nll")
        y = data.values
        expected = float(-(y * np.log(y)).sum())
        assert obj.value(RHO_FIX) == pytest.approx(expected, abs=1e-12)

    def test_floor_keeps_value_finite(self, t2):
        # boundary state zeroes one forward value while the data there is positive
        obj = Objective(t2, np.full((3, 2), 0.5), kind="nll")
        boundary = DensityLike.from_array(np.diag([1.0, 0.0]))
        assert np.isfinite(obj.value(boundary))
        assert obj.floor_active(boundary)


class TestGradient:
    def test_nll_gradient_at_constructed_fixed_point(self, t2):
        for t in (0.25, 0.5):
            obj = Objective(t2, spurious_data(t), kind="nll")
            sigma = 3 * np.eye(2) + 3 * t * np.array([[2, -1 + 1j], [-1 - 1j, 1]])
            assert np.abs(obj.gradient(RHO_FIX).entries + sigma).max() < 1e-13

    def test_least_squares_stationary_at_perfect_fit(self, t2):
        rho = random_density(2, 2, 1)
        obj = Objective(t2, t2.apply(rho), kind="l2")
        assert np.abs(obj.gradient(rho).entries).max() < 1e-14

    def test_gradient_is_hermitian_by_construction(self, homodyne10):
        rho = random_density(10, 5, 2)
        obj = Objective(homodyne10, homodyne10.apply(random_density(10, 10, 3)), kind="nll")
        assert isinstance(obj.gradient(rho), HermitianMatrix)

    def test_finite_difference_identity(self, t2, homodyne10):
        rng = np.random.default_rng(4)
        h = 1e-5
        for op in (t2, homodyne10):
            truth = random_density(op.dim, op.dim, 5)
            data = op.apply(truth)
            for kind in ("nll", "l2"):
                obj = Objective(op, data, kind=kind)
                rho = random_density(op.dim, op.dim, 6)
                g = obj.gradient(rho).entries
                for _ in range(20):
                    D = random_hermitian(op.dim, int(rng.integers(1 << 31))).entries
                    D = D / np.linalg.norm(D)
                    plus = obj.value(HermitianMatrix(rho.entries + h * D))
                    minus = obj.value(HermitianMatrix(rho.entries - h * D))
                    directional = (plus - minus) / (2 * h)
                    analytic = float((g @ D).trace().real)
                    assert abs(directional - analytic) <= 1e-5 * (1.0 + abs(analytic))


class TestConvexity:
    def test_segment_inequality(self, t2, homodyne10):
        rng = np.random.default_rng(7)
        for op in (t2, homodyne10):
            data = op.apply(random_density(op.dim, op.dim, 8))
            for kind in ("nll", "l2"):
                obj = Objective(op, data, kind=kind)
                for _ in range(50):
                    a = random_density(op.dim, op.dim, int(rng.integers(1 << 31)))
                    b = random_density(op.dim, op.dim, int(rng.integers(1 << 31)))
                    fa, fb = obj.value(a), obj.value(b)
                    for w in (0.25, 0.5, 0.75):
                        mid = DensityLike.from_array(w * a.entries + (1 - w) * b.entries)
                        assert obj.value(mid) <= w * fa + (1 - w) * fb + 1e-10


# Every public entry that takes a state and an objective, called on (obj, rho, factor of rho).
STATE_ENTRIES = {
    "value": lambda obj, rho, X: obj.value(rho),
    "gradient": lambda obj, rho, X: obj.gradient(rho),
    "validity_certificate": lambda obj, rho, X: validity_certificate(rho, obj),
    "mu_exclusion": lambda obj, rho, X: mu_exclusion(rho, obj),
    "mle_step": lambda obj, rho, X: mle_step(rho, obj),
    "fgd_step": lambda obj, rho, X: fgd_step(X, obj, 0.1),
    "factorized_mle_step": lambda obj, rho, X: factorized_mle_step(X, obj),
    "gm_solve": lambda obj, rho, X: gm_solve(rho, obj, max_iter=5),
    "fgd_solve": lambda obj, rho, X: fgd_solve(X, obj, max_iter=5),
    "mle_solve": lambda obj, rho, X: mle_solve(rho, obj, max_iter=5),
    "pgd_solve": lambda obj, rho, X: pgd_solve(rho, obj, max_iter=5),
}


@pytest.mark.parametrize("dim", [5, 1])
@pytest.mark.parametrize("entry", list(STATE_ENTRIES))
def test_state_of_the_wrong_size_is_rejected(homodyne_small, entry, dim):
    # each entry read a 5 x 5 state on this dim-4 operator without an error (value
    # gave a number), and a 1 x 1 state ended in an IndexError
    obj = Objective(homodyne_small, homodyne_small.apply(random_density(4, 2, 1)))
    rho = random_density(dim, dim, 2)
    with pytest.raises(ValueError, match=rf"state shape \({dim}, {dim}\) does not match dim 4"):
        STATE_ENTRIES[entry](obj, rho, FactorState.from_density(rho, dim))
