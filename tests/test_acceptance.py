"""Acceptance suite: one test per criterion, each with its stated tolerances.

A summary block with one PASS/FAIL line per criterion is printed at the end
of the pytest run (see conftest.pytest_terminal_summary). Criteria that run
iterative solvers register their traces; criterion 4 checks descent on every
trace registered before it runs, and later criteria assert descent inline.
"""

import math
import time

import numpy as np
import pytest

from tomokit.diagnostics import (
    SPURIOUS,
    VALID,
    construct_spurious_t2,
    mu_exclusion,
    validity_certificate,
)
from tomokit.experiments import rank_trap, simulate_data, standard_homodyne_descriptor
from tomokit.hermitian import DensityLike, random_density, random_hermitian, trace_norm
from tomokit.objectives import Objective
from tomokit.operators import MeasurementData, _hermite_rows
from tomokit.solvers import (
    CONVERGED,
    FactorState,
    StepPolicy,
    fgd_solve,
    fgd_step,
    gm_solve,
    gm_step,
    mle_step,
    pgd_solve,
)

from conftest import conditioned_full_rank, kept_iterates, maximally_mixed

GM_TRACES = []


def run_gm(rho0, obj, **kwargs):
    final, trace = gm_solve(rho0, obj, **kwargs)
    GM_TRACES.append(trace)
    return final, trace


def assert_monotone(trace):
    diffs = np.diff(trace.objective_values)
    assert diffs.size == 0 or diffs.max() <= 1e-12


def closed_form_preimage(t):
    return np.array(
        [[2 + 4 * t, (2 - 5 * t) * (1 - 1j)], [(2 - 5 * t) * (1 + 1j), 4 - 4 * t]]
    ) / 6.0


def test_criterion_01_analytic_spurious_fixed_point(t2):
    start = time.perf_counter()
    for t in (0.1, 0.5, 8.0 / 11.0):
        rho_fix, data, rho_true = construct_spurious_t2(t)
        obj = Objective(t2, data, kind="nll")

        assert trace_norm(mle_step(rho_fix, obj).entries - rho_fix.entries) < 1e-12
        g = obj.gradient(rho_fix)
        for eps in (0.1, 0.5):
            moved = gm_step(rho_fix, g, eps)
            assert trace_norm(moved.entries - rho_fix.entries) < 1e-12

        assert np.abs(rho_true.entries - closed_form_preimage(t)).max() < 1e-12

        cert = validity_certificate(rho_fix, obj)
        assert cert.verdict == SPURIOUS

        for kind in ("nll", "l2"):
            fit = Objective(t2, data, kind=kind)
            assert fit.value(rho_true) < fit.value(rho_fix)
    assert time.perf_counter() - start < 1.0


def test_criterion_02_positive_branch_certificates(t2, homodyne10):
    start = time.perf_counter()
    instances = [(t2, random_density(2, 2, 200 + i)) for i in range(10)]
    instances += [(homodyne10, conditioned_full_rank(10, 300 + i)) for i in range(10)]
    for op, truth in instances:
        obj = Objective(op, op.apply(truth), kind="nll")
        rho0 = maximally_mixed(op.dim)

        oracle = pgd_solve(rho0, obj, max_iter=20000, tol=1e-12)
        cert = validity_certificate(oracle, obj)
        assert cert.verdict == VALID
        assert cert.min_eig_Q_restricted >= -1e-6

        final, trace = run_gm(rho0, obj, max_iter=20000, tol=1e-10)
        assert trace.stop_reason == CONVERGED
        cert = validity_certificate(final, obj)
        assert cert.verdict == VALID
        assert cert.min_eig_Q_restricted >= -1e-6
    assert time.perf_counter() - start < 120.0


def test_criterion_03_factorized_equivalence(homodyne10):
    start = time.perf_counter()
    rho0 = maximally_mixed(10)
    for i in range(20):
        truth = random_density(10, 1 + i % 10, 400 + i)
        exact = MeasurementData(homodyne10.apply(truth))
        if i % 2 == 0:
            data = exact
        else:
            data = simulate_data(homodyne10, truth, 500.0, 900 + i, noisy=True)
        obj = Objective(homodyne10, data, kind="nll")

        with kept_iterates() as kept:
            _, trace = run_gm(rho0, obj, max_iter=100, tol=0.0)
        assert len(trace.eps_values) == 100
        state = FactorState.from_density(rho0, 10)
        for k, eps in enumerate(trace.eps_values):
            state = fgd_step(state, obj, eps)
            outer = state.X @ state.X.conj().T
            assert np.linalg.norm(outer - kept[k + 1].entries) < 1e-8
    assert time.perf_counter() - start < 60.0


def test_criterion_04_descent_monotonicity(t2, homodyne10):
    for trace in GM_TRACES:
        assert_monotone(trace)
    for op in (t2, homodyne10):
        for seed in (500, 501):
            truth = random_density(op.dim, op.dim, seed)
            exact = MeasurementData(op.apply(truth))
            noisy = simulate_data(op, truth, 500.0, seed, noisy=True)
            for data in (exact, noisy):
                for kind in ("nll", "l2"):
                    obj = Objective(op, data, kind=kind)
                    _, trace = run_gm(
                        maximally_mixed(op.dim), obj, max_iter=400, tol=0.0
                    )
                    assert_monotone(trace)


def test_criterion_05_fixed_point_family_at_solutions(t2, homodyne10):
    setups = []
    truth = random_density(2, 2, 600)
    setups.append(Objective(t2, t2.apply(truth), kind="nll"))
    truth = conditioned_full_rank(10, 601)
    setups.append(Objective(homodyne10, homodyne10.apply(truth), kind="nll"))
    truth = random_density(10, 5, 602)
    noisy = simulate_data(homodyne10, truth, 500.0, 602, noisy=True)
    setups.append(Objective(homodyne10, noisy, kind="nll"))
    setups.append(Objective(homodyne10, noisy, kind="l2"))

    for obj in setups:
        sol = pgd_solve(maximally_mixed(obj.operator.dim), obj, max_iter=30000, tol=1e-12)
        g = obj.gradient(sol)
        mu = mu_exclusion(sol, obj)
        for eps in (0.01, 0.1, 1.0):
            if math.isfinite(mu) and abs(eps - mu) <= 0.1 * max(1.0, abs(mu)):
                continue
            moved = gm_step(sol, g, eps)
            assert trace_norm(moved.entries - sol.entries) < 1e-8


def test_criterion_06_gradient_finite_difference(t2, homodyne10):
    rng = np.random.default_rng(700)
    h = 1e-5
    for op in (t2, homodyne10):
        data = op.apply(random_density(op.dim, op.dim, 701))
        for kind in ("nll", "l2"):
            obj = Objective(op, data, kind=kind)
            for s in range(10):
                rho = random_density(op.dim, op.dim, 702 + s)
                g = obj.gradient(rho).entries
                for _ in range(20):
                    D = random_hermitian(op.dim, int(rng.integers(1 << 31))).entries
                    D = D / np.linalg.norm(D)
                    plus = obj._value_arr(rho.entries + h * D)
                    minus = obj._value_arr(rho.entries - h * D)
                    directional = (plus - minus) / (2 * h)
                    analytic = float((g @ D).trace().real)
                    assert abs(directional - analytic) <= 1e-5 * (1.0 + abs(analytic))


def test_criterion_07_homodyne_operator_sanity(homodyne10):
    for seed in range(20):
        rho = random_density(10, 1 + seed % 10, 800 + seed)
        sums = homodyne10.apply(rho).sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-6

    nodes, weights = np.polynomial.legendre.leggauss(80)
    scaled = _hermite_rows(10, 7.0 * nodes) * np.sqrt(7.0 * weights)
    gram = scaled @ scaled.T
    assert np.abs(gram - np.eye(10)).max() < 1e-8


def test_criterion_08_poisson_noise_level(homodyne10):
    start = time.perf_counter()
    rels = []
    for rank in range(1, 11):
        for rep in range(10):
            truth = random_density(10, rank, 900 + 10 * rank + rep)
            exact = homodyne10.apply(truth)
            noisy = simulate_data(homodyne10, truth, 500.0, 7000 + 10 * rank + rep, noisy=True)
            rels.append(np.linalg.norm(noisy.values - exact) / np.linalg.norm(exact))
    mean_rel = float(np.mean(rels))
    assert 0.15 <= mean_rel <= 0.30
    assert time.perf_counter() - start < 60.0


def test_criterion_09_rank_trap_protocol():
    start = time.perf_counter()
    records, summary = rank_trap(
        {
            "operator": standard_homodyne_descriptor(),
            "true_rank": 5,
            "count": 10,
            "start_ranks": list(range(1, 11)),
            "fit": "nll",
            "solver": {"tol": 1e-12, "max_iter": 20000},
            "seed": 0,
        }
    )
    low = [rec for rec in records if int(rec.solver_id.rsplit("r", 1)[1]) < 5]
    high = [rec for rec in records if int(rec.solver_id.rsplit("r", 1)[1]) >= 5]
    assert len(low) == 40 and len(high) == 60

    high_median = float(np.median([rec.trace_distance_to_truth for rec in high]))
    by_rank = {row["start_rank"]: row for row in summary}
    for r in range(1, 5):
        assert by_rank[r]["median_trace_distance"] > 10.0 * high_median

    spurious_fraction = np.mean([rec.certificate.verdict == SPURIOUS for rec in low])
    assert spurious_fraction >= 0.95

    eig_ok = np.mean([rec.certificate.min_eig_Q_restricted > -1e-4 for rec in high])
    assert eig_ok >= 0.95
    assert time.perf_counter() - start < 900.0


def test_criterion_10_methods_agree_at_desk_scale(homodyne10):
    start = time.perf_counter()
    rho0 = maximally_mixed(10)
    nll_oracle_gaps = []
    l2_oracle_gaps = []
    for rank in range(1, 11):
        truth = random_density(10, rank, 3000 + rank)
        noisy = simulate_data(homodyne10, truth, 500.0, 4000 + rank, noisy=True)

        nll = Objective(homodyne10, noisy, kind="nll")
        gm_nll, trace = run_gm(rho0, nll, max_iter=20000, tol=1e-10)
        assert_monotone(trace)
        fgd_nll, _ = fgd_solve(
            FactorState.from_density(rho0, 10), nll, StepPolicy(), max_iter=20000, tol=1e-10
        )
        pair_gap = trace_norm(gm_nll.entries - fgd_nll.density().entries)
        assert pair_gap < 1e-6

        oracle_nll = pgd_solve(rho0, nll, max_iter=20000, tol=1e-12)
        nll_oracle_gaps.append(trace_norm(gm_nll.entries - oracle_nll.entries))

        l2 = Objective(homodyne10, noisy, kind="l2")
        gm_l2, trace = run_gm(rho0, l2, max_iter=20000, tol=1e-10)
        assert_monotone(trace)
        oracle_l2 = pgd_solve(rho0, l2, max_iter=20000, tol=1e-12)
        l2_oracle_gaps.append(trace_norm(gm_l2.entries - oracle_l2.entries))

    assert float(np.median(nll_oracle_gaps)) < 0.05
    assert float(np.median(l2_oracle_gaps)) < 0.05
    assert time.perf_counter() - start < 900.0
