import math
from dataclasses import dataclass

import numpy as np
import pytest

from tomokit.diagnostics import (
    PSD_TOL,
    SPURIOUS,
    VALID,
    construct_spurious_t2,
    m_set_residual,
    mu_exclusion,
    validity_certificate,
)
from tomokit.experiments import simulate_data
from tomokit.hermitian import DensityLike, HermitianMatrix, random_density, trace_norm
from tomokit.objectives import Objective
from tomokit.operators import MeasurementOperator
from tomokit.solvers import (
    CONVERGED,
    DESCENT_SLACK,
    EPS_EXHAUSTED,
    MAX_ITER,
    DegenerateStateError,
    FactorState,
    StepPolicy,
    factorized_mle_step,
    fgd_solve,
    fgd_step,
    gm_solve,
    gm_step,
    mle_solve,
    mle_step,
    pgd_solve,
    _barzilai_borwein,
    _line_searched_solve,
    _norm,
    _outer,
    _scaled_fgd_prepare,
)

from conftest import conditioned_full_rank, kept_iterates, maximally_mixed


def halvings(trace, eps0):
    """eps halvings of a shrink-only solve that started at eps0."""
    return round(math.log2(eps0 / trace.eps_values[-1]))


def default_eps(obj, rho0):
    return StepPolicy().resolve_initial(float(np.linalg.norm(obj.gradient(rho0).entries)))


@dataclass(frozen=True)
class FixedFirstEps(StepPolicy):
    """StepPolicy with a set first eps, for solves that must start far from the default."""

    first_eps: float = 1.0

    def resolve_initial(self, gradient_norm: float) -> float:
        return self.first_eps


def single_effect_operator():
    effects = np.zeros((1, 1, 2, 2), dtype=complex)
    effects[0, 0] = np.diag([1.0, 2.0])
    return MeasurementOperator(effects)


class TestStepPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            StepPolicy(min_eps=0.0)

    def test_auto_initial(self):
        assert StepPolicy().resolve_initial(3.0) == pytest.approx(0.25)


class TestFactorState:
    def test_norm_invariant(self):
        with pytest.raises(ValueError, match="deviates"):
            FactorState(np.ones((2, 1)))

    def test_rank_bound(self):
        with pytest.raises(ValueError, match="rank"):
            FactorState(np.ones((1, 2)) / np.sqrt(2.0))

    def test_from_density_round_trip(self):
        rho = random_density(6, 3, 0)
        state = FactorState.from_density(rho, 3)
        assert state.rank == 3
        assert np.linalg.norm(state.density().entries - rho.entries) < 1e-12

    def test_from_density_rank_validation(self):
        with pytest.raises(ValueError):
            FactorState.from_density(random_density(3, 2, 0), 4)

    def test_factor_must_be_two_dimensional(self):
        with pytest.raises(ValueError, match="factor must be a 2-D array"):
            FactorState(np.ones(4) / 2.0)

    def test_start_without_mass_on_the_rank_is_degenerate(self):
        # a density always has mass on its top eigenvector; from_density reads only
        # the spectrum, so a zero matrix is what reaches this check
        with pytest.raises(DegenerateStateError, match="no mass on the requested rank"):
            FactorState.from_density(HermitianMatrix(np.zeros((3, 3))), 2)


class TestMleStep:
    def test_consistent_interior_state_is_fixed(self, t2):
        rho = random_density(2, 2, 3)
        obj = Objective(t2, t2.apply(rho), kind="nll")
        assert trace_norm(mle_step(rho, obj).entries - rho.entries) < 1e-12

    def test_constructed_fixed_point_stays_for_all_t(self, t2):
        for t in (0.1, 0.5, 8.0 / 11.0):
            rho_fix, data, _ = construct_spurious_t2(t)
            obj = Objective(t2, data, kind="nll")
            assert trace_norm(mle_step(rho_fix, obj).entries - rho_fix.entries) < 1e-12

    def test_rank_cannot_increase(self, t2):
        rho = random_density(2, 1, 4)
        obj = Objective(t2, t2.apply(random_density(2, 2, 5)), kind="nll")
        out = mle_step(rho, obj)
        assert int((np.linalg.eigvalsh(out.entries) > 1e-10).sum()) <= 1

    def test_requires_nll(self, t2):
        obj = Objective(t2, np.full((3, 2), 0.5), kind="l2")
        with pytest.raises(ValueError, match="nll"):
            mle_step(maximally_mixed(2), obj)

    def test_degenerate_sandwich(self):
        # reweighting concentrates all mass on the kernel of the state
        effects = np.zeros((1, 2, 2, 2), dtype=complex)
        effects[0, 0] = np.diag([1.0, 0.0])
        effects[0, 1] = np.diag([0.0, 1.0])
        op = MeasurementOperator(effects)
        obj = Objective(op, np.array([[0.0, 1.0]]), kind="nll")
        with pytest.raises(DegenerateStateError):
            mle_step(DensityLike.from_array(np.diag([1.0, 0.0])), obj)


class TestGmStep:
    def test_zero_gradient_is_identity(self):
        rho = random_density(3, 2, 6)
        out = gm_step(rho, np.zeros((3, 3)), eps=0.3)
        assert trace_norm(out.entries - rho.entries) < 1e-14

    def test_first_order_expansion(self, homodyne10):
        rho = random_density(10, 5, 7)
        obj = Objective(homodyne10, homodyne10.apply(random_density(10, 10, 8)), kind="nll")
        g = obj.gradient(rho).entries
        eps = 1e-6
        lhs = (gm_step(rho, g, eps).entries - rho.entries) / eps
        expected = -(g @ rho.entries + rho.entries @ g) + 2.0 * float(
            (g @ rho.entries).trace().real
        ) * rho.entries
        assert np.linalg.norm(lhs - expected) < 1e-3

    def test_vanishing_normalizer(self):
        rho = DensityLike.from_array(np.diag([1.0, 0.0]))
        with pytest.raises(DegenerateStateError):
            gm_step(rho, np.diag([1.0, 0.0]), eps=1.0)

    def test_stationary_at_solution_except_mu(self, t2):
        truth = random_density(2, 2, 9)
        obj = Objective(t2, t2.apply(truth), kind="nll")
        sol = pgd_solve(maximally_mixed(2), obj, max_iter=20000, tol=1e-13)
        g = obj.gradient(sol)
        mu = mu_exclusion(sol, obj)
        assert mu == pytest.approx(-1.0 / 3.0, abs=1e-6)
        for eps in (0.01, 0.1, 1.0):
            assert abs(eps - mu) > 0.1
            moved = gm_step(sol, g, eps)
            assert trace_norm(moved.entries - sol.entries) < 1e-8


class TestGmSolve:
    def test_stops_immediately_at_solution(self, t2):
        truth = random_density(2, 2, 10)
        obj = Objective(t2, t2.apply(truth), kind="nll")
        final, trace = gm_solve(truth, obj)
        assert trace.stop_reason == CONVERGED
        assert trace.iterations == 1
        assert trace_norm(final.entries - truth.entries) < 1e-12

    def test_trapped_at_constructed_fixed_point(self, t2):
        rho_fix, data, rho_true = construct_spurious_t2(0.5)
        obj = Objective(t2, data, kind="nll")
        final, trace = gm_solve(rho_fix, obj)
        assert trace.stop_reason == CONVERGED
        assert trace_norm(final.entries - rho_fix.entries) < 1e-12
        assert obj.value(final) > obj.value(rho_true) + 0.1

    def test_monotone_objectives(self, t2, homodyne10):
        for op, seed in ((t2, 11), (homodyne10, 12)):
            truth = random_density(op.dim, op.dim, seed)
            for kind in ("nll", "l2"):
                obj = Objective(op, op.apply(truth), kind=kind)
                _, trace = gm_solve(maximally_mixed(op.dim), obj, max_iter=300, tol=0.0)
                diffs = np.diff(trace.objective_values)
                assert diffs.max() <= 1e-12

    def test_exact_data_recovery_homodyne(self, homodyne10):
        truth = random_density(10, 10, 3)
        obj = Objective(homodyne10, homodyne10.apply(truth), kind="nll")
        final, trace = gm_solve(maximally_mixed(10), obj, max_iter=20000, tol=1e-10)
        assert trace_norm(final.entries - truth.entries) < 1e-2
        oracle = pgd_solve(maximally_mixed(10), obj, max_iter=20000, tol=1e-12)
        assert trace_norm(final.entries - oracle.entries) < 1e-2

    def test_rank_never_increases_along_trace(self, homodyne10):
        truth = random_density(10, 5, 13)
        obj = Objective(homodyne10, homodyne10.apply(truth), kind="nll")
        start = random_density(10, 3, 14)
        with kept_iterates() as kept:
            gm_solve(start, obj, max_iter=200, tol=0.0)
        ranks = [int((np.linalg.eigvalsh(state.entries) > 1e-10).sum()) for state in kept]
        assert all(a >= b for a, b in zip(ranks, ranks[1:]))

    def test_descent_step_exists_for_non_fixed_points(self, t2, homodyne10):
        rng = np.random.default_rng(15)
        policy = StepPolicy()
        for op in (t2, homodyne10):
            data = op.apply(random_density(op.dim, op.dim, 16))
            for kind in ("nll", "l2"):
                obj = Objective(op, data, kind=kind)
                for _ in range(25):
                    rho = random_density(op.dim, op.dim, int(rng.integers(1 << 31)))
                    f = obj.value(rho)
                    g = obj.gradient(rho)
                    eps = policy.resolve_initial(float(np.linalg.norm(g.entries)))
                    found = False
                    while eps >= policy.min_eps:
                        if obj.value(gm_step(rho, g, eps)) < f:
                            found = True
                            break
                        eps *= policy.shrink
                    assert found

    def test_eps_exhausted_stop(self):
        op = single_effect_operator()
        obj = Objective(op, np.array([[0.1]]), kind="l2")
        _, trace = gm_solve(
            maximally_mixed(2),
            obj,
            FixedFirstEps(min_eps=0.5, first_eps=0.6),
            max_iter=50,
        )
        assert trace.stop_reason == EPS_EXHAUSTED

    @pytest.mark.parametrize("solve", [gm_solve, fgd_solve])
    def test_backtracking_runs_to_min_eps(self, solve):
        # eps = 1e20 needs 68 halvings to reach a descent step; only
        # min_eps may end the search, not a count of halvings
        obj = Objective(single_effect_operator(), np.array([[0.1]]), kind="l2")
        start = maximally_mixed(2)
        if solve is fgd_solve:
            start = FactorState.from_density(start, 2)
        _, trace = solve(start, obj, FixedFirstEps(first_eps=1e20), max_iter=50)
        assert trace.stop_reason == CONVERGED
        # without momentum every trial is an accepted step or a halving
        assert halvings(trace, 1e20) >= 68
        assert trace.trials == trace.iterations + halvings(trace, 1e20)

    def test_max_iter_stop(self, homodyne10):
        obj = Objective(homodyne10, homodyne10.apply(random_density(10, 10, 17)), kind="nll")
        _, trace = gm_solve(maximally_mixed(10), obj, max_iter=5, tol=1e-14)
        assert trace.stop_reason == MAX_ITER
        assert trace.iterations == 5


class TestStopRule:
    """The stop fires at the first step whose trace norm is below tol; the
    recorded residual is the step's Frobenius norm, the cheap lower bound."""

    def solve(self, homodyne_small, tol):
        truth = random_density(4, 4, 41)
        obj = Objective(homodyne_small, homodyne_small.apply(truth), kind="nll")
        with kept_iterates() as states:
            _, trace = gm_solve(maximally_mixed(4), obj, max_iter=5000, tol=tol)
        kept = [state.entries for state in states]
        steps = [b - a for a, b in zip(kept, kept[1:])]
        return trace, steps, [trace_norm(step) for step in steps]

    def test_stops_at_first_step_below_tol_in_trace_norm(self, homodyne_small):
        trace, steps, norms = self.solve(homodyne_small, 1e-4)
        assert trace.stop_reason == CONVERGED
        assert len(steps) == trace.iterations > 1
        assert norms[-1] < 1e-4 <= min(norms[:-1])
        for residual, step, norm in zip(trace.residuals, steps, norms):
            assert residual == np.linalg.norm(step)
            assert residual <= norm

    def test_frobenius_below_tol_alone_does_not_stop(self, homodyne_small):
        trace, _, norms = self.solve(homodyne_small, 1e-4)
        # the latest step j whose Frobenius norm lies below every trace norm so far
        j = max(i for i in range(trace.iterations) if trace.residuals[i] < min(norms[: i + 1]))
        tol = 0.5 * (trace.residuals[j] + min(norms[: j + 1]))
        retrace, _, renorms = self.solve(homodyne_small, tol)
        # a Frobenius-only stop would end at step j or before
        assert retrace.residuals[: j + 1] == trace.residuals[: j + 1]
        assert retrace.residuals[j] < tol
        assert retrace.stop_reason == CONVERGED
        assert retrace.iterations > j + 1
        assert renorms[-1] < tol <= min(renorms[:-1])


class TestStopSettings:
    @pytest.mark.parametrize("solver", ["gm", "fgd", "fgd-pre", "mle", "pgd"])
    @pytest.mark.parametrize(
        "tol, max_iter, message",
        [
            (math.nan, 10, "tol must be finite"),
            (-1.0, 10, "tol must be finite"),
            (math.inf, 10, "tol must be finite"),
            (1e-10, -5, "max_iter must be >= 0"),
        ],
        ids=["tol-nan", "tol-negative", "tol-inf", "max-iter-negative"],
    )
    def test_rejects_bad_tol_and_max_iter(self, t2, solver, tol, max_iter, message):
        # these used to run to max_iter, stop converged after one step, or
        # return after zero iterations
        obj = Objective(t2, t2.apply(random_density(2, 2, 42)), kind="nll")
        start = maximally_mixed(2)
        with pytest.raises(ValueError, match=message):
            if solver.startswith("fgd"):
                state0 = FactorState.from_density(start, 2)
                fgd_solve(state0, obj, max_iter=max_iter, tol=tol, precondition=solver == "fgd-pre")
            else:
                solve = {"gm": gm_solve, "mle": mle_solve, "pgd": pgd_solve}[solver]
                solve(start, obj, max_iter=max_iter, tol=tol)

    def test_zero_tol_and_zero_max_iter_stay_valid(self, t2):
        obj = Objective(t2, t2.apply(random_density(2, 2, 43)), kind="nll")
        _, trace = gm_solve(maximally_mixed(2), obj, max_iter=3, tol=0.0)
        assert (trace.stop_reason, trace.iterations) == (MAX_ITER, 3)
        _, trace = mle_solve(maximally_mixed(2), obj, max_iter=0, tol=0.0)
        assert (trace.stop_reason, trace.iterations) == (MAX_ITER, 0)


class TestNorm:
    def test_matches_numpy_bit_for_bit(self):
        rng = np.random.default_rng(44)
        base = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
        for x in (base, base.T, base[1:6:2, ::-1], base.conj().T[::2], base[:, 3]):
            assert _norm(x) == np.linalg.norm(x)


class TestFactorized:
    def test_likelihood_step_requires_nll(self, t2):
        obj = Objective(t2, np.full((3, 2), 0.5), kind="l2")
        with pytest.raises(ValueError, match="requires the nll objective"):
            factorized_mle_step(FactorState.from_density(maximally_mixed(2), 2), obj)

    def test_zero_gradient_keeps_factor(self, t2):
        rho = random_density(2, 2, 19)
        obj = Objective(t2, t2.apply(rho), kind="l2")
        state = FactorState.from_density(rho, 2)
        out = fgd_step(state, obj, eps=0.5)
        assert np.linalg.norm(out.X - state.X) < 1e-12

    def test_full_rank_step_matches_gm(self, homodyne10):
        truth = random_density(10, 10, 20)
        obj = Objective(homodyne10, homodyne10.apply(truth), kind="nll")
        rho = random_density(10, 10, 21)
        state = FactorState.from_density(rho, 10)
        for eps in (0.05, 0.5):
            g = obj.gradient(rho)
            full = gm_step(rho, g, eps)
            factored = fgd_step(state, obj, eps)
            outer = factored.X @ factored.X.conj().T
            assert np.linalg.norm(outer - full.entries) < 1e-10

    def test_rank_preserved(self, homodyne10):
        obj = Objective(homodyne10, homodyne10.apply(random_density(10, 6, 22)), kind="nll")
        state = FactorState.from_density(random_density(10, 2, 23), 2)
        out = fgd_step(state, obj, eps=0.1)
        assert out.rank == 2

    def test_degenerate_factor(self):
        op = single_effect_operator()
        obj = Objective(op, np.array([[0.0]]), kind="l2")
        X = np.zeros((2, 1), dtype=complex)
        X[0, 0] = 1.0
        state = FactorState(X)
        # step length 1/p zeroes the single populated column
        p = float(op.apply(state.density())[0, 0])
        with pytest.raises(DegenerateStateError):
            fgd_step(state, obj, eps=1.0 / (p * 1.0))

    def test_factorized_mle_matches_full_iteration(self, homodyne10):
        truth = random_density(10, 10, 24)
        obj = Objective(homodyne10, homodyne10.apply(truth), kind="nll")
        rho = random_density(10, 10, 25)
        state = FactorState.from_density(rho, 10)
        worst = 0.0
        for _ in range(100):
            rho = mle_step(rho, obj)
            state = factorized_mle_step(state, obj)
            outer = state.X @ state.X.conj().T
            worst = max(worst, float(np.linalg.norm(outer - rho.entries)))
        assert worst < 1e-8

    def test_factorized_mle_fixed_at_consistent_solution(self, t2):
        truth = random_density(2, 2, 26)
        obj = Objective(t2, t2.apply(truth), kind="nll")
        state = FactorState.from_density(truth, 2)
        out = factorized_mle_step(state, obj)
        outer = out.X @ out.X.conj().T
        assert np.linalg.norm(outer - truth.entries) < 1e-10

    def test_zero_column_stays_zero(self, t2):
        truth = random_density(2, 2, 27)
        obj = Objective(t2, t2.apply(truth), kind="nll")
        X = np.zeros((2, 2), dtype=complex)
        X[:, 0] = FactorState.from_density(random_density(2, 1, 28), 1).X[:, 0]
        state = FactorState(X)
        out = factorized_mle_step(state, obj)
        assert np.abs(out.X[:, 1]).max() == 0.0

    def test_fgd_solve_agrees_with_gm_solve_paths(self, homodyne10):
        truth = random_density(10, 5, 29)
        obj = Objective(homodyne10, homodyne10.apply(truth), kind="nll")
        rho, gm_trace = gm_solve(maximally_mixed(10), obj, max_iter=500, tol=1e-10)
        state, fgd_trace = fgd_solve(
            FactorState.from_density(maximally_mixed(10), 10), obj, max_iter=500, tol=1e-10
        )
        assert np.allclose(gm_trace.eps_values, fgd_trace.eps_values)
        assert trace_norm(state.density().entries - rho.entries) < 1e-8


class TestFullMatrixReference:
    """gm_solve and mle_solve iterate a factor; the full-matrix gm_step and
    mle_step are the independent code path their iterates must match, to
    criterion 03's 1e-8."""

    @staticmethod
    def objective(homodyne10, kind, variant):
        truth = random_density(10, 5, 90)
        data = simulate_data(homodyne10, truth, 500.0, 91, noisy=variant == "noisy")
        return Objective(homodyne10, data, kind=kind)

    @staticmethod
    def start(start):
        return maximally_mixed(10) if start == "mixed" else random_density(10, 3, 92)

    @pytest.mark.parametrize("start", ["mixed", "rank3"])
    @pytest.mark.parametrize("variant", ["exact", "noisy"])
    @pytest.mark.parametrize("kind", ["nll", "l2"])
    def test_gm_solve_replays_through_gm_step(self, homodyne10, kind, variant, start):
        obj = self.objective(homodyne10, kind, variant)
        rho = self.start(start)
        with kept_iterates() as states:
            _, trace = gm_solve(rho, obj, max_iter=100, tol=0.0)
        assert len(trace.eps_values) == 100
        for eps, kept in zip(trace.eps_values, states[1:]):
            rho = gm_step(rho, obj.gradient(rho), eps)
            assert np.linalg.norm(rho.entries - kept.entries) < 1e-8

    @pytest.mark.parametrize("start, steps", [("mixed", 100), ("rank3", 30)])
    @pytest.mark.parametrize("variant", ["exact", "noisy"])
    def test_mle_solve_matches_chained_mle_steps(self, homodyne10, variant, start, steps):
        # from the rank-3 start the full-matrix reference amplifies its own
        # kernel rounding about 1.3x per step: 1e-12 at step 30, and
        # DensityLike rejects it as not PSD at step 55 (noisy) or 62 (exact)
        obj = self.objective(homodyne10, "nll", variant)
        rho = self.start(start)
        final, trace = mle_solve(rho, obj, max_iter=steps, tol=0.0)
        assert trace.iterations == steps
        for _ in range(steps):
            rho = mle_step(rho, obj)
        assert np.linalg.norm(final.entries - rho.entries) < 1e-8


class TestExactKernel:
    def test_from_density_zeroes_the_kernel_and_fgd_keeps_it_zero(self, homodyne10):
        # the kernel columns used to be square roots of rounding noise
        state0 = FactorState.from_density(random_density(10, 3, 93), 10)
        zero = ~state0.X.any(axis=0)
        assert zero.sum() == 7
        obj = Objective(homodyne10, homodyne10.apply(random_density(10, 5, 94)), kind="nll")
        state, trace = fgd_solve(state0, obj, max_iter=200, tol=0.0)
        assert trace.iterations == 200
        assert not state.X[:, zero].any()


class TestScaledFactorized:
    @pytest.mark.parametrize("t", [0.1, 0.5, 8.0 / 11.0])
    def test_spurious_point_stays_fixed(self, t2, t):
        rho_fix, data, _ = construct_spurious_t2(t)
        obj = Objective(t2, data, kind="nll")
        X = FactorState.from_density(rho_fix, 1).X
        g = obj._gradient_arr(_outer(X))
        for eps in (0.1, 0.5):
            out = _scaled_fgd_prepare(X, X, g)[1](eps)
            assert trace_norm(_outer(out) - _outer(X)) < 1e-12

    @pytest.mark.parametrize("t", [0.1, 0.5, 8.0 / 11.0])
    def test_zero_column_at_spurious_point_neither_raises_nor_moves(self, t2, t):
        rho_fix, data, _ = construct_spurious_t2(t)
        X = np.hstack([FactorState.from_density(rho_fix, 1).X, np.zeros((2, 1), dtype=complex)])
        # nll on the spurious data leaves a rounding-size direction; l2 on the
        # factor's own forward values makes the direction exactly zero, where
        # X* X is singular.
        own = t2._apply_arr(_outer(X))
        for obj in (Objective(t2, data, kind="nll"), Objective(t2, own, kind="l2")):
            g = obj._gradient_arr(_outer(X))
            for eps in (0.1, 0.5):
                out = _scaled_fgd_prepare(X, X, g)[1](eps)
                assert trace_norm(_outer(out) - _outer(X)) < 1e-12
                assert np.abs(out[:, 1]).max() == 0.0
        state, trace = fgd_solve(FactorState(X), obj, max_iter=50, precondition=True)
        assert trace.stop_reason == CONVERGED
        assert trace_norm(state.density().entries - _outer(X)) < 1e-12

    @pytest.mark.parametrize("kind", ["nll", "l2"])
    def test_fixed_point_defect_matches_m_set_residual(self, t2, homodyne_small, kind):
        rng = np.random.default_rng(45)
        cases = []
        for op in (t2, homodyne_small):
            obj = Objective(op, op.apply(random_density(op.dim, 2, 46)), kind=kind)
            for r in range(1, op.dim + 1):
                X = rng.standard_normal((op.dim, r)) + 1j * rng.standard_normal((op.dim, r))
                cases.append((obj, X / np.linalg.norm(X)))
        # a spurious fixed point, where the defect is rounding
        rho_fix, data, _ = construct_spurious_t2(0.5)
        cases.append((Objective(t2, data, kind=kind), FactorState.from_density(rho_fix, 1).X))
        for obj, X in cases:
            g = obj._gradient_arr(_outer(X))
            expected = m_set_residual(_outer(X), -g)[1]
            assert _scaled_fgd_prepare(X, X, g)[2] == pytest.approx(expected, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize(
        "start_rank, verdict", [(3, VALID), (1, SPURIOUS)], ids=["over-parameterized", "trapped"]
    )
    def test_stops_at_first_decisive_verdict(self, homodyne_small, start_rank, verdict):
        # tol = 0 leaves the certificate as the only stop; one step fewer must
        # end at max_iter on a state whose verdict is not decisive
        truth = random_density(4, 2, 47)
        obj = Objective(homodyne_small, homodyne_small.apply(truth), kind="nll")
        state0 = FactorState.from_density(random_density(4, start_rank, 48), start_rank)
        state, trace = fgd_solve(state0, obj, max_iter=20000, tol=0.0, precondition=True)
        assert trace.stop_reason == CONVERGED
        cert = validity_certificate(state.density(), obj)
        assert cert.verdict == verdict
        if verdict == SPURIOUS:
            assert cert.min_eig_Q_restricted < -PSD_TOL
        # the trace keeps the certificate that stopped the solve, bit for bit
        assert trace.certificate == cert
        n = trace.iterations
        state, retrace = fgd_solve(state0, obj, max_iter=n - 1, tol=0.0, precondition=True)
        assert (retrace.stop_reason, retrace.iterations) == (MAX_ITER, n - 1)
        assert retrace.certificate is None
        assert retrace.objective_values == trace.objective_values[:n]
        cert = validity_certificate(state.density(), obj)
        assert cert.verdict != VALID
        assert not (cert.verdict == SPURIOUS and cert.min_eig_Q_restricted < -PSD_TOL)

    def test_over_parameterized_exact_data_stops_certified(self, t2, homodyne_small):
        cases = [(t2, 1, 2), (t2, 2, 2), (homodyne_small, 2, 3), (homodyne_small, 2, 4)]
        for seed, (op, true_rank, start_rank) in enumerate(cases, start=40):
            truth = random_density(op.dim, true_rank, seed)
            obj = Objective(op, op.apply(truth), kind="nll")
            start = random_density(op.dim, start_rank, seed + 10)
            state0 = FactorState.from_density(start, start_rank)
            state, trace = fgd_solve(state0, obj, max_iter=20000, tol=1e-12, precondition=True)
            assert trace.stop_reason == CONVERGED
            assert validity_certificate(state.density(), obj).verdict == VALID
            assert np.diff(trace.objective_values).max() <= 1e-12

    @pytest.mark.parametrize("precondition", [False, True])
    def test_rank_one_start_on_rank_two_data_ends_spurious(self, homodyne_small, precondition):
        # the paper's trap: a start below the true rank settles at a spurious
        # fixed point, with or without the preconditioner
        for seed in (50, 51):
            truth = random_density(homodyne_small.dim, 2, seed)
            obj = Objective(homodyne_small, homodyne_small.apply(truth), kind="nll")
            state0 = FactorState.from_density(random_density(homodyne_small.dim, 1, seed + 10), 1)
            state, trace = fgd_solve(
                state0, obj, max_iter=6000, tol=1e-11, precondition=precondition
            )
            assert trace.stop_reason == CONVERGED
            assert validity_certificate(state.density(), obj).verdict == SPURIOUS
            assert trace_norm(state.density().entries - truth.entries) > 1e-2

    def test_momentum_keeps_eps_shrink_only_and_descent(self, t2, homodyne_small):
        # momentum trials that fail restart at the same eps instead of growing it;
        # every restart shows as a trial beyond the accepted steps and halvings
        cases = [(t2, 1, 2), (homodyne_small, 2, 4), (homodyne_small, 3, 4)]
        restarts = []
        for seed, (op, true_rank, start_rank) in enumerate(cases, start=60):
            truth = random_density(op.dim, true_rank, seed)
            start = random_density(op.dim, start_rank, seed + 10)
            for kind in ("nll", "l2"):
                obj = Objective(op, op.apply(truth), kind=kind)
                state0 = FactorState.from_density(start, start_rank)
                _, trace = fgd_solve(state0, obj, max_iter=3000, tol=1e-12, precondition=True)
                assert np.diff(trace.eps_values).max() <= 0.0
                assert np.diff(trace.objective_values).max() <= DESCENT_SLACK
                eps0 = default_eps(obj, start)
                restarts.append(trace.trials - trace.iterations - halvings(trace, eps0))
                # restarts counts the failed-trial restarts plus the gradient
                # restarts, which cost no trial
                assert trace.restarts > restarts[-1]
        assert min(restarts) >= 0 and max(restarts) > 0

    def test_zero_column_stays_zero_under_momentum(self, homodyne_small):
        truth = random_density(4, 2, 70)
        obj = Objective(homodyne_small, homodyne_small.apply(truth), kind="nll")
        X = FactorState.from_density(random_density(4, 2, 71), 2).X
        state0 = FactorState(np.hstack([X, np.zeros((4, 1), dtype=complex)]))
        state, trace = fgd_solve(state0, obj, max_iter=300, precondition=True)
        eps0 = default_eps(obj, state0.density())
        assert trace.trials > trace.iterations + halvings(trace, eps0)
        assert np.abs(state.X[:, 2]).max() == 0.0

    def test_halved_trials_reuse_the_solved_direction(self, homodyne_small, monkeypatch):
        # the eps-free direction G X (X* X + lam I)^-1 is solved once per
        # accepted state; every halved trial used to solve it again
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *args: calls.append(1) or solve(*args))
        truth = random_density(4, 2, 92)
        obj = Objective(homodyne_small, homodyne_small.apply(truth), kind="nll")
        state0 = FactorState.from_density(random_density(4, 3, 93), 3)
        _, trace = fgd_solve(
            state0, obj, FixedFirstEps(first_eps=1e3), max_iter=300, tol=0.0, precondition=True
        )
        assert trace.iterations == 300
        assert trace.eps_values[-1] < 1e3  # eps was halved
        assert len(calls) <= trace.iterations + 1
        assert type(trace.restarts) is int

    def test_solves_without_momentum_never_restart(self, homodyne_small):
        truth = random_density(4, 2, 80)
        obj = Objective(homodyne_small, homodyne_small.apply(truth), kind="nll")
        rho0 = maximally_mixed(4)
        traces = [
            gm_solve(rho0, obj, max_iter=300)[1],
            fgd_solve(FactorState.from_density(rho0, 3), obj, max_iter=300)[1],
            mle_solve(rho0, obj, max_iter=300)[1],
        ]
        assert [trace.restarts for trace in traces] == [0, 0, 0]


class TestPgdSolve:
    def test_recovers_consistent_preimage(self, t2):
        truth = random_density(2, 2, 30)
        y = t2.apply(truth)
        obj = Objective(t2, y, kind="l2")
        sol = pgd_solve(maximally_mixed(2), obj, max_iter=20000, tol=1e-13)
        assert trace_norm(sol.entries - t2.pseudo_inverse_apply(y).entries) < 1e-6

    def test_finds_global_minimum_of_spurious_instance(self, t2):
        _, data, rho_true = construct_spurious_t2(0.5)
        obj = Objective(t2, data, kind="l2")
        sol = pgd_solve(maximally_mixed(2), obj, max_iter=20000, tol=1e-13)
        assert trace_norm(sol.entries - rho_true.entries) < 1e-8

    def test_dominates_gm_solve_objective(self, t2, homodyne10):
        for op, seed in ((t2, 31), (homodyne10, 32)):
            truth = conditioned_full_rank(op.dim, seed)
            obj = Objective(op, op.apply(truth), kind="nll")
            gm_final, _ = gm_solve(maximally_mixed(op.dim), obj, max_iter=20000, tol=1e-10)
            oracle = pgd_solve(maximally_mixed(op.dim), obj, max_iter=20000, tol=1e-12)
            assert obj.value(oracle) <= obj.value(gm_final) + 1e-8


class TestLineSearch:
    def test_barzilai_borwein_doubles_eps_without_curvature(self):
        d_rho = np.diag([1.0, -1.0]).astype(complex)
        assert _barzilai_borwein(0.25, d_rho, 0.1 * d_rho) == pytest.approx(10.0)
        assert _barzilai_borwein(0.25, d_rho, -d_rho) == 0.5
        assert _barzilai_borwein(0.25, d_rho, np.zeros((2, 2))) == 0.5

    def test_degenerate_trial_fails_and_halves_eps(self, t2):
        # the first trial raises; the second, at half the eps, returns the start,
        # which is the minimizer here and so is accepted
        obj = Objective(t2, t2.apply(maximally_mixed(2)), kind="nll")
        start, trial_eps = maximally_mixed(2).entries, []

        def step(eps):
            trial_eps.append(eps)
            if len(trial_eps) == 1:
                raise DegenerateStateError("the trial annihilated the state")
            return start

        final, trace = _line_searched_solve(
            start, obj, StepPolicy(), max_iter=1, tol=0.0, density_of=lambda arr: arr,
            prepare=lambda arr, _prev, g: (None, step, None),
        )
        assert trial_eps == [default_eps(obj, maximally_mixed(2)), trial_eps[0] / 2]
        assert (trace.trials, trace.eps_values, trace.stop_reason) == (2, trial_eps[1:], MAX_ITER)
        assert final is start


class TestMleSolve:
    def test_converges_on_consistent_data(self, t2):
        truth = random_density(2, 2, 33)
        obj = Objective(t2, t2.apply(truth), kind="nll")
        final, trace = mle_solve(maximally_mixed(2), obj, max_iter=10000, tol=1e-12)
        assert trace.stop_reason == CONVERGED
        assert trace_norm(final.entries - truth.entries) < 1e-6
        assert all(math.isnan(e) for e in trace.eps_values)

    def test_requires_nll(self, t2):
        obj = Objective(t2, np.full((3, 2), 0.5), kind="l2")
        with pytest.raises(ValueError, match="mle_solve requires the nll objective"):
            mle_solve(maximally_mixed(2), obj)
