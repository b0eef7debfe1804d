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
def rotated_homodyne():
    """The dim-4 homodyne operator, a seeded unitary U and the operator of effects U E U*."""
    descriptor = standard_homodyne_descriptor(dim=4, n_angles=5, n_bins=12, half_width=6.0)
    effects = reference_homodyne_effects(descriptor)
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
