"""Density-matrix reconstruction toolkit.

Multiplicative (gradient-multiplication) iterations and their factorized
gradient-descent form, convex data-fit objectives over generalized
measurement operators, a projected-gradient reference solver, and the
first-order validity certificate that separates true solutions from spurious
fixed points.
"""

from .diagnostics import (
    NOT_FIXED_POINT,
    SPURIOUS,
    VALID,
    ValidityCertificate,
    construct_spurious_t2,
    m_set_residual,
    mu_exclusion,
    validity_certificate,
)
from .hermitian import (
    DensityLike,
    HermitianMatrix,
    load_matrix,
    project_to_density,
    random_density,
    random_hermitian,
    save_matrix,
    trace_norm,
)
from .objectives import LEAST_SQUARES, NEG_LOG_LIKELIHOOD, Objective
from .operators import (
    MeasurementData,
    MeasurementOperator,
    RankDeficiencyError,
    homodyne_operator,
    operator_from_descriptor,
    pauli_six_state,
)
from .solvers import (
    CONVERGED,
    EPS_EXHAUSTED,
    MAX_ITER,
    DegenerateStateError,
    FactorState,
    SolverTrace,
    StepPolicy,
    factorized_mle_step,
    fgd_solve,
    fgd_step,
    gm_solve,
    gm_step,
    mle_solve,
    mle_step,
    pgd_solve,
)

__version__ = "0.1.0"
