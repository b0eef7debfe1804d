import math

import numpy as np
import pytest

from tomokit.diagnostics import (
    NOT_FIXED_POINT,
    SPURIOUS,
    VALID,
    construct_spurious_t2,
    m_set_residual,
    mu_exclusion,
    subgradient_membership,
    validity_certificate,
)
from tomokit.hermitian import DensityLike, HermitianMatrix, random_density, trace_norm
from tomokit.objectives import Objective
from tomokit.solvers import gm_step, mle_step, pgd_solve

from conftest import conditioned_full_rank, maximally_mixed


def sigma_of(t: float) -> np.ndarray:
    return 3.0 * np.eye(2) + 3.0 * t * np.array([[2.0, -1 + 1j], [-1 - 1j, 1.0]])


def rank_limited_state(N, rank, seed, lam=None):
    """Random PSD rho and a Hermitian Q supported on its kernel."""
    rng = np.random.default_rng(seed)
    rho = random_density(N, rank, seed)
    vals, vecs = np.linalg.eigh(rho.entries)
    kernel = vecs[:, vals < 1e-12]
    k = kernel.shape[1]
    G = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    B = G @ G.conj().T
    Q = kernel @ B @ kernel.conj().T
    return rho, 0.5 * (Q + Q.conj().T)


class TestMSetResidual:
    def test_identity_always_scales(self):
        rho = random_density(4, 2, 0)
        lam, res = m_set_residual(rho, 5.0 * np.eye(4))
        assert lam == pytest.approx(5.0, abs=1e-12)
        assert res < 1e-15

    def test_constructed_pair_scales_by_three(self):
        rho_fix, _, _ = construct_spurious_t2(0.4)
        for t in (0.1, 0.4, 0.7):
            lam, res = m_set_residual(rho_fix, sigma_of(t))
            assert lam == pytest.approx(3.0, abs=1e-12)
            assert res < 1e-14

    def test_off_diagonal_breaks_scaling(self):
        lam, res = m_set_residual(np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert res > 0.5

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            m_set_residual(np.zeros((2, 2)), np.eye(2))

    def test_kernel_supported_shifts_scale(self):
        # lam*I - Q with ran Q in ker rho scales rho for every rank
        for rank in (1, 2, 3):
            rho, Q = rank_limited_state(4, rank, 10 + rank)
            lam, res = m_set_residual(rho, 2.5 * np.eye(4) - Q)
            assert res < 1e-10
            assert lam == pytest.approx(2.5, abs=1e-10)

    def test_range_component_is_detected(self):
        rng = np.random.default_rng(1)
        for rank in (1, 2, 3):
            rho = random_density(4, rank, 20 + rank)
            G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            M = 0.5 * (G + G.conj().T)
            _, res = m_set_residual(rho, 2.5 * np.eye(4) - M)
            assert res > 1e-6


class TestSubgradientMembership:
    def test_scalar_shift_always_member(self):
        rho = random_density(3, 2, 2)
        for lam in (-2.0, 0.0, 7.5):
            assert subgradient_membership(rho, lam * np.eye(3))

    def test_full_rank_forces_zero_kernel_part(self):
        rho = random_density(3, 3, 3)
        Q = np.diag([0.0, 0.0, 1.0])
        assert not subgradient_membership(rho, 2.0 * np.eye(3) - Q)

    def test_kernel_sign_condition(self):
        rho = DensityLike.from_array(np.diag([1.0, 0.0]))
        member = np.eye(2) - np.diag([0.0, 0.5])
        nonmember = np.eye(2) - np.diag([0.0, -0.5])
        assert subgradient_membership(rho, member)
        assert subgradient_membership(rho, np.eye(2))
        assert not subgradient_membership(rho, nonmember)

    def test_brute_force_agreement_on_qubits(self):
        # direct check of the defining inequality tr(M(sigma - rho)) <= 0
        rng = np.random.default_rng(4)
        sigmas = np.stack(
            [random_density(2, 1 + (i % 2), int(rng.integers(1 << 31))).entries for i in range(10000)]
        )
        agreements = 0
        for trial in range(100):
            rank = 1 + trial % 2
            rho, Q = rank_limited_state(2, rank, int(rng.integers(1 << 31)))
            lam = float(rng.standard_normal())
            if trial % 2 == 0:
                M = lam * np.eye(2) - Q
            else:
                G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                M = 0.5 * (G + G.conj().T)
            claimed = subgradient_membership(rho, M, tol=1e-8)
            gains = np.einsum("ij,sji->s", M, sigmas - rho.entries).real
            brute = bool(gains.max() <= 1e-8)
            assert claimed == brute
            agreements += 1
        assert agreements == 100


class TestValidityCertificate:
    def test_oracle_solution_is_valid(self, t2, homodyne10):
        for op, seed in ((t2, 5), (homodyne10, 6)):
            truth = conditioned_full_rank(op.dim, seed)
            obj = Objective(op, op.apply(truth), kind="nll")
            sol = pgd_solve(maximally_mixed(op.dim), obj, max_iter=20000, tol=1e-12)
            cert = validity_certificate(sol, obj)
            assert cert.verdict == VALID
            assert cert.min_eig_Q >= -1e-6
            assert cert.m_residual <= 1e-8

    def test_constructed_fixed_point_is_spurious(self, t2):
        rho_fix, data, _ = construct_spurious_t2(0.5)
        obj = Objective(t2, data, kind="nll")
        cert = validity_certificate(rho_fix, obj)
        assert cert.verdict == SPURIOUS
        assert cert.lam == pytest.approx(3.0, abs=1e-10)
        # Q restricted to the kernel acts as -9t
        assert cert.min_eig_Q_restricted == pytest.approx(-4.5, abs=1e-10)
        assert cert.min_eig_Q == pytest.approx(-4.5, abs=1e-10)

    def test_generic_state_is_not_fixed_point(self, homodyne10):
        truth = random_density(10, 5, 7)
        data = homodyne10.apply(truth)
        obj = Objective(homodyne10, data, kind="nll")
        cert = validity_certificate(random_density(10, 10, 8), obj)
        assert cert.verdict == NOT_FIXED_POINT
        assert cert.m_residual > 1e-4

    def test_full_rank_state_reports_inf_restricted(self, t2):
        truth = random_density(2, 2, 9)
        obj = Objective(t2, t2.apply(truth), kind="nll")
        cert = validity_certificate(truth, obj)
        assert cert.min_eig_Q_restricted == math.inf

    def test_json_payload(self, t2):
        rho_fix, data, _ = construct_spurious_t2(0.3)
        cert = validity_certificate(rho_fix, Objective(t2, data, kind="nll"))
        payload = cert.to_json_dict()
        assert set(payload) == {
            "lambda",
            "min_eig_Q",
            "min_eig_Q_restricted",
            "m_residual",
            "verdict",
        }
        assert payload["verdict"] == SPURIOUS

    def test_q_matrix_shape(self, t2):
        rho_fix, data, _ = construct_spurious_t2(0.5)
        cert = validity_certificate(rho_fix, Objective(t2, data, kind="nll"))
        assert isinstance(cert.Q, HermitianMatrix)
        assert np.allclose(
            cert.Q.entries, -1.5 * np.array([[2, -1 + 1j], [-1 - 1j, 1]]), atol=1e-12
        )


class TestConstructSpurious:
    def test_rejects_zero_and_beyond_window(self):
        for t in (0.0, -0.1, 0.73, 1.0):
            with pytest.raises(ValueError):
                construct_spurious_t2(t)

    def test_half_t_data(self):
        _, data, _ = construct_spurious_t2(0.5)
        expected = np.array([[4.0, 2.0], [2.5, 3.5], [2.5, 3.5]]) / 6.0
        assert np.abs(data.values - expected).max() < 1e-15

    def test_rows_are_normalized(self):
        for t in (0.1, 0.5, 8.0 / 11.0):
            _, data, _ = construct_spurious_t2(t)
            assert np.allclose(data.values.sum(axis=1), 1.0, atol=1e-14)

    def test_boundary_t_gives_rank_one_truth(self):
        _, _, rho_true = construct_spurious_t2(8.0 / 11.0)
        vals = np.linalg.eigvalsh(rho_true.entries)
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert vals[1] == pytest.approx(1.0, abs=1e-12)

    def test_interior_t_gives_full_rank_truth(self):
        _, _, rho_true = construct_spurious_t2(0.5)
        assert np.linalg.eigvalsh(rho_true.entries)[0] > 1e-3

    def test_fixed_point_and_objective_gap(self, t2):
        for t in (0.1, 0.5):
            rho_fix, data, rho_true = construct_spurious_t2(t)
            for kind in ("nll", "l2"):
                obj = Objective(t2, data, kind=kind)
                assert obj.value(rho_true) < obj.value(rho_fix)
            obj = Objective(t2, data, kind="nll")
            assert trace_norm(mle_step(rho_fix, obj).entries - rho_fix.entries) < 1e-12
            g = obj.gradient(rho_fix)
            for eps in (0.1, 0.5):
                assert trace_norm(gm_step(rho_fix, g, eps).entries - rho_fix.entries) < 1e-12


class TestMuExclusion:
    def test_consistent_interior_solution(self, t2):
        truth = random_density(2, 2, 11)
        obj = Objective(t2, t2.apply(truth), kind="nll")
        assert mu_exclusion(truth, obj) == pytest.approx(-1.0 / 3.0, abs=1e-10)

    def test_perfect_least_squares_fit_has_no_exclusion(self, t2):
        truth = random_density(2, 2, 12)
        obj = Objective(t2, t2.apply(truth), kind="l2")
        assert mu_exclusion(truth, obj) == math.inf

    def test_constructed_fixed_point(self, t2):
        rho_fix, data, _ = construct_spurious_t2(0.5)
        obj = Objective(t2, data, kind="nll")
        assert mu_exclusion(rho_fix, obj) == pytest.approx(-1.0 / 3.0, abs=1e-12)
