"""Metamorphic relations: transformed inputs whose solves must agree without an oracle."""

import numpy as np
import pytest

from tomokit.diagnostics import validity_certificate
from tomokit.experiments import simulate_data, standard_homodyne_descriptor
from tomokit.hermitian import DensityLike, random_density, trace_norm
from tomokit.objectives import Objective
from tomokit.operators import MeasurementOperator
from tomokit.solvers import FactorState, fgd_solve, gm_solve, mle_solve

from conftest import conditioned_full_rank, reference_homodyne_effects


def _solve(solver, obj, start):
    """GM and RρR from the full-rank start, preconditioned FGD from its rank-1 factor."""
    if solver == "fgd":
        state0 = FactorState.from_density(start, 1)
        state, trace = fgd_solve(state0, obj, max_iter=1000, tol=1e-10, precondition=True)
        return state.density(), trace
    solve = gm_solve if solver == "gm" else mle_solve
    return solve(start, obj, max_iter=1000, tol=1e-10)


@pytest.fixture(scope="module")
def homodyne_effects():
    """The (5, 12, 4, 4) effects of the dim-4 homodyne operator."""
    descriptor = standard_homodyne_descriptor(dim=4, n_angles=5, n_bins=12, half_width=6.0)
    return reference_homodyne_effects(descriptor)


@pytest.fixture(scope="module")
def rotated_homodyne(homodyne_effects):
    """The dim-4 homodyne operator, a seeded unitary U and the operator of effects U E U*."""
    effects = homodyne_effects
    rng = np.random.default_rng(140)
    U, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    return MeasurementOperator(effects), U, MeasurementOperator(U @ effects @ U.conj().T)


@pytest.mark.parametrize("variant", ["exact", "noisy"])
@pytest.mark.parametrize("truth_rank", [1, 4])
def test_solves_are_unitarily_covariant(rotated_homodyne, truth_rank, variant):
    # effects U E U* and start U rho0 U* give the same data and the solve's
    # iterates conjugated by U. Measured over these 20 pairs: equal iteration
    # counts and verdicts, states within 1.8e-13 (RρR), 3.1e-14 (GM) and 2.4e-15 (FGD).
    op, U, op_u = rotated_homodyne
    truth = random_density(4, 1, 141) if truth_rank == 1 else conditioned_full_rank(4, 142)
    data = simulate_data(op, truth, 500.0, 143, noisy=variant == "noisy")
    start = random_density(4, 4, 144)
    start_u = DensityLike.from_array(U @ start.entries @ U.conj().T)
    for solver, kinds in (("gm", ("nll", "l2")), ("fgd", ("nll", "l2")), ("mle", ("nll",))):
        for kind in kinds:
            obj, obj_u = Objective(op, data, kind=kind), Objective(op_u, data, kind=kind)
            final, trace = _solve(solver, obj, start)
            final_u, trace_u = _solve(solver, obj_u, start_u)
            assert trace_u.iterations == trace.iterations
            assert trace_u.stop_reason == trace.stop_reason
            verdict = validity_certificate(final, obj).verdict
            assert validity_certificate(final_u, obj_u).verdict == verdict
            assert trace_norm(U @ final.entries @ U.conj().T - final_u.entries) < 1e-12


def _data(op, truth_rank, variant):
    truth = random_density(4, truth_rank, 150 + truth_rank)
    return simulate_data(op, truth, 500.0, 151, noisy=variant == "noisy").values


@pytest.mark.parametrize("variant", ["exact", "noisy"])
@pytest.mark.parametrize("truth_rank", [1, 2, 3])
def test_preconditioned_solves_ignore_the_order_of_angles_and_bins(
    homodyne_effects, truth_rank, variant
):
    # Reordering the settings and their outcomes reorders the design's rows, so only
    # the rounding of the adjoint's sums moves. Bound: equal verdicts, states within
    # 1e-9. Measured over these 12 rank-2 pairs (nll and l2): equal verdicts (8 valid,
    # 4 spurious), states within 3.7e-13.
    effects = homodyne_effects
    rng = np.random.default_rng(160)
    angles, bins = rng.permutation(effects.shape[0]), rng.permutation(effects.shape[1])
    op, op_p = MeasurementOperator(effects), MeasurementOperator(effects[angles][:, bins])
    data = _data(op, truth_rank, variant)
    start = FactorState.from_density(random_density(4, 2, 161), 2)
    for kind in ("nll", "l2"):
        obj = Objective(op, data, kind=kind)
        obj_p = Objective(op_p, data[angles][:, bins], kind=kind)
        final, _trace = fgd_solve(start, obj, max_iter=2000, tol=1e-10, precondition=True)
        final_p, _trace = fgd_solve(start, obj_p, max_iter=2000, tol=1e-10, precondition=True)
        verdict = validity_certificate(final.density(), obj).verdict
        assert validity_certificate(final_p.density(), obj_p).verdict == verdict
        assert trace_norm(final.density().entries - final_p.density().entries) < 1e-9


@pytest.mark.parametrize("variant", ["exact", "noisy"])
@pytest.mark.parametrize("truth_rank", [1, 2, 3])
def test_factorized_solves_ignore_a_global_phase_of_the_factor(
    homodyne_effects, truth_rank, variant
):
    # X and e^{0.7i} X are one state, and every step commutes with the phase. Bound:
    # equal iteration counts and stops, states within 1e-12. Measured over these 24
    # rank-2 pairs (plain to 300 steps and preconditioned, nll and l2): within 3.1e-13.
    op = MeasurementOperator(homodyne_effects)
    data = _data(op, truth_rank, variant)
    X = FactorState.from_density(random_density(4, 2, 162), 2).X
    for kind in ("nll", "l2"):
        obj = Objective(op, data, kind=kind)
        for precondition, max_iter in ((False, 300), (True, 2000)):
            (final, trace), (final_g, trace_g) = (
                fgd_solve(FactorState(X0), obj, max_iter=max_iter, precondition=precondition)
                for X0 in (X, np.exp(0.7j) * X)
            )
            assert (trace_g.iterations, trace_g.stop_reason) == (trace.iterations, trace.stop_reason)
            assert trace_norm(final.density().entries - final_g.density().entries) < 1e-12
