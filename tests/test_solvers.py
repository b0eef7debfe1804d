import math

import numpy as np
import pytest

from tomokit.diagnostics import (
    SPURIOUS,
    VALID,
    construct_spurious_t2,
    mu_exclusion,
    validity_certificate,
)
from tomokit.hermitian import DensityLike, random_density, trace_norm
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
    _outer,
    _scaled_fgd_apply_arr,
)

from conftest import conditioned_full_rank, maximally_mixed


def halvings(trace, eps0):
    """eps halvings of a shrink-only solve that started at eps0."""
    return round(math.log2(eps0 / trace.eps_values[-1]))


def default_eps(obj, rho0):
    return StepPolicy().resolve_initial(float(np.linalg.norm(obj.gradient(rho0).entries)))


def single_effect_operator():
    effects = np.zeros((1, 1, 2, 2), dtype=complex)
    effects[0, 0] = np.diag([1.0, 2.0])
    return MeasurementOperator(effects)


class TestStepPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            StepPolicy(min_eps=0.0)
        with pytest.raises(ValueError):
            StepPolicy(initial_eps=1e-16, min_eps=1e-14)
        with pytest.raises(ValueError):
            StepPolicy(initial_eps=math.inf)

    def test_auto_initial(self):
        assert StepPolicy().resolve_initial(3.0) == pytest.approx(0.25)
        assert StepPolicy(initial_eps=0.7).resolve_initial(3.0) == 0.7


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
        _, trace = gm_solve(start, obj, max_iter=200, tol=0.0, keep_trace=True)
        ranks = [
            int((np.linalg.eigvalsh(state.entries) > 1e-10).sum())
            for state in trace.iterates_kept
        ]
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
            StepPolicy(initial_eps=0.6, min_eps=0.5),
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
        _, trace = solve(start, obj, StepPolicy(initial_eps=1e20), max_iter=50)
        assert trace.stop_reason == CONVERGED
        # without momentum every trial is an accepted step or a halving
        assert halvings(trace, 1e20) >= 68
        assert trace.trials == trace.iterations + halvings(trace, 1e20)

    def test_max_iter_stop(self, homodyne10):
        obj = Objective(homodyne10, homodyne10.apply(random_density(10, 10, 17)), kind="nll")
        _, trace = gm_solve(maximally_mixed(10), obj, max_iter=5, tol=1e-14)
        assert trace.stop_reason == MAX_ITER
        assert trace.iterations == 5

    def test_scaled_trace_target_homogeneity(self, homodyne10):
        truth = random_density(10, 7, 18)
        y = homodyne10.apply(truth)
        obj1 = Objective(homodyne10, y, kind="l2")
        obj2 = Objective(homodyne10, 2.0 * y, kind="l2")
        one = pgd_solve(maximally_mixed(10), obj1, max_iter=20000, tol=1e-13)
        start2 = DensityLike.from_array(2.0 * np.eye(10) / 10.0, trace_target=2.0)
        two = pgd_solve(start2, obj2, max_iter=20000, tol=1e-13)
        assert trace_norm(two.entries - 2.0 * one.entries) < 1e-8


class TestFactorized:
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


class TestScaledFactorized:
    @pytest.mark.parametrize("t", [0.1, 0.5, 8.0 / 11.0])
    def test_spurious_point_stays_fixed(self, t2, t):
        rho_fix, data, _ = construct_spurious_t2(t)
        obj = Objective(t2, data, kind="nll")
        X = FactorState.from_density(rho_fix, 1).X
        g = obj._gradient_arr(_outer(X))
        for eps in (0.1, 0.5):
            out = _scaled_fgd_apply_arr(X, g, eps, 1.0)
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
                out = _scaled_fgd_apply_arr(X, g, eps, 1.0)
                assert trace_norm(_outer(out) - _outer(X)) < 1e-12
                assert np.abs(out[:, 1]).max() == 0.0
        state, trace = fgd_solve(FactorState(X), obj, max_iter=50, precondition=True)
        assert trace.stop_reason == CONVERGED
        assert trace_norm(state.density().entries - _outer(X)) < 1e-12

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


class TestMleSolve:
    def test_converges_on_consistent_data(self, t2):
        truth = random_density(2, 2, 33)
        obj = Objective(t2, t2.apply(truth), kind="nll")
        final, trace = mle_solve(maximally_mixed(2), obj, max_iter=10000, tol=1e-12)
        assert trace.stop_reason == CONVERGED
        assert trace_norm(final.entries - truth.entries) < 1e-6
        assert all(math.isnan(e) for e in trace.eps_values)
