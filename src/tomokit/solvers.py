"""Fixed-point iterations on the unit-trace PSD set, run in factorized form.

The multiplicative family updates rho -> A rho A / tr(A rho A) with
A = I - eps * grad F(rho). On an N x r factor X with rho = X X* the same map
is X -> A X / ||A X||_F, step for step when r = N, so every solve iterates a
factor and no step needs an eigendecomposition; gm_step and mle_step are the
full-matrix references. One backtracking driver, _line_searched_solve, runs
every solve: GM, FGD, RρR (the diluted step at delta = 1) and the
projected-gradient oracle that serves as the reference for the convex problems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .diagnostics import ValidityCertificate, _decisive
from .hermitian import DensityLike, _project_density_arr, entries_of, trace_norm
from .objectives import NEG_LOG_LIKELIHOOD, Objective

CONVERGED = "converged"
MAX_ITER = "max_iter"
EPS_EXHAUSTED = "eps_exhausted"

# Absolute slack on per-step objective comparisons; covers float noise at
# numerical fixed points without admitting real increases.
DESCENT_SLACK = 1e-12

_TRACE_FLOOR = 1e-300

# Eigenvalues of a start below this (the trace is one) form its numerical
# kernel: FactorState.from_density gives them exactly zero columns, and every
# factorized step keeps a zero column exactly zero, so the rank of an iterate
# never exceeds the numerical rank of its start.
_KERNEL_CLIP = 1e-13


class DegenerateStateError(RuntimeError):
    """An update annihilated the state (zero trace or zero factor)."""


@dataclass(frozen=True)
class StepPolicy:
    """Backtracking control of the line-searched iterations: eps only shrinks within a step.

    GM's and FGD's first eps is 1 / (||grad F(rho0)||_F + 1); each rejected
    trial halves eps, and a step fails once eps falls below min_eps.
    """

    min_eps: float = 1e-14
    shrink: ClassVar[float] = 0.5

    def __post_init__(self):
        if not self.min_eps > 0:
            raise ValueError(f"min_eps must be positive, got {self.min_eps}")

    def resolve_initial(self, gradient_norm: float) -> float:
        return 1.0 / (gradient_norm + 1.0)


@dataclass
class SolverTrace:
    """Per-iteration bookkeeping for a solve; `trials` counts every trial step taken
    and `restarts` every momentum restart, after a failed trial or from the gradient.
    `eps_values` holds each accepted eps, for mle_solve the dilution delta.
    `residuals` holds the Frobenius norm of each accepted density step, a lower
    bound on the trace norm that the stop test compares with tol. `certificate` is
    the validity certificate of the final state when the certificate stop ended
    the solve, else None."""

    objective_values: list[float] = field(default_factory=list)
    eps_values: list[float] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    stop_reason: str = MAX_ITER
    trials: int = 0
    restarts: int = 0
    certificate: ValidityCertificate | None = None

    @property
    def iterations(self) -> int:
        return len(self.residuals)


@dataclass(frozen=True)
class FactorState:
    """An N x r factor X with ||X||_F = 1, representing the unit-trace rho = X X*."""

    X: np.ndarray

    def __post_init__(self):
        arr = np.array(self.X, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"factor must be a 2-D array, got shape {arr.shape}")
        if arr.shape[1] > arr.shape[0]:
            raise ValueError(f"rank {arr.shape[1]} exceeds dimension {arr.shape[0]}")
        norm_sq = float(np.linalg.norm(arr) ** 2)
        if not abs(norm_sq - 1.0) <= 1e-9:
            raise ValueError(f"||X||_F^2 = {norm_sq!r} deviates from 1")
        arr.setflags(write=False)
        object.__setattr__(self, "X", arr)

    @property
    def rank(self) -> int:
        return self.X.shape[1]

    def density(self) -> DensityLike:
        return DensityLike.from_array(_outer(self.X))

    @classmethod
    def from_density(cls, rho: DensityLike, rank: int) -> "FactorState":
        """Spectral factor built from the top-`rank` eigenpairs of rho; eigenvalues
        below _KERNEL_CLIP give exactly zero columns."""
        if not 1 <= rank <= rho.dim:
            raise ValueError(f"rank must satisfy 1 <= r <= {rho.dim}, got {rank}")
        vals, vecs = np.linalg.eigh(rho.entries)
        top = vals[rho.dim - rank :]
        X = vecs[:, rho.dim - rank :] * np.sqrt(np.where(top < _KERNEL_CLIP, 0.0, top))
        norm = np.linalg.norm(X)
        if norm == 0.0:
            raise DegenerateStateError("state has no mass on the requested rank")
        return cls(X * (1.0 / norm))


# --- single steps ------------------------------------------------------------

def _normalized_sandwich(A: np.ndarray, rho: np.ndarray) -> DensityLike:
    S = A @ rho @ A
    S = 0.5 * (S + S.conj().T)
    t = float(S.trace().real)
    if t < _TRACE_FLOOR:
        raise DegenerateStateError(f"sandwich trace {t!r} vanished")
    return DensityLike.from_array((1.0 / t) * S)


def mle_step(rho: DensityLike, obj: Objective) -> DensityLike:
    """One multiplicative likelihood update R(rho) rho R(rho) / tr(...), in full
    matrices: a single-step reference for mle_solve's factorized kernel. Chained
    on a rank-deficient state it grows the kernel's rounding about 1.3x per step,
    until DensityLike rejects the iterate (after 55-62 steps from a rank-3 start
    on homodyne10); the solves keep the kernel exactly zero."""
    if obj.kind != NEG_LOG_LIKELIHOOD:
        raise ValueError("the multiplicative likelihood step requires the nll objective")
    # The nll reweighting operator R is -grad F; the sandwich is even in it.
    return _normalized_sandwich(obj._gradient_from(obj.operator.apply(rho)), rho.entries)


def gm_step(rho: DensityLike, g, eps: float) -> DensityLike:
    """One gradient-multiplication update with A = I - eps * g, in full matrices:
    a single-step reference for gm_solve's factorized step, with mle_step's
    rounding growth when chained on a rank-deficient state."""
    A = (-eps) * entries_of(g)
    A.flat[:: rho.dim + 1] += 1.0
    return _normalized_sandwich(A, rho.entries)


def _norm(x: np.ndarray) -> float:
    """np.linalg.norm(x) without its dispatch, summed in the same (memory) order."""
    x = x.ravel(order="K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _renormalized(half: np.ndarray) -> np.ndarray:
    norm = _norm(half)
    if norm < math.sqrt(_TRACE_FLOOR):
        raise DegenerateStateError(f"factor norm {norm!r} vanished")
    return half * (1.0 / norm)


def _fgd_prepare(X: np.ndarray, X_prev: np.ndarray, g: np.ndarray):
    """The plain factorized step eps -> normalize(X - eps * g X), without momentum or
    certificate stop."""
    gX = g @ X
    return None, lambda eps: _renormalized(X - eps * gX), None


def _mle_prepare(X: np.ndarray, X_prev: np.ndarray, g: np.ndarray):
    """The diluted likelihood step delta -> normalize((1 - delta) X + delta R X) with
    R = -grad F, without momentum or certificate stop; delta = 1 is RρR's R X / ||R X||."""
    # R = -grad F, negated before the product so that signed zeros match R @ X.
    RX = (-g) @ X
    return None, lambda d: _renormalized(RX if d == 1.0 else (1.0 - d) * X + d * RX), None


def _scaled_fgd_prepare(X: np.ndarray, X_prev: np.ndarray, g: np.ndarray):
    """The preconditioned step eps -> normalize(X - eps * G X (X* X + lam I)^-1), the
    gradient restart test Re <G X, X - X_prev> > 0 and the fixed-point defect
    m_set_residual(X X*, -g)[1], from one Lagrangian-shifted gradient
    G X = g X - tr(X* g X) X with lam = ||G X||_F. The eps-free direction is solved
    once, so a halved trial costs no solve."""
    GX = g @ X
    GX -= np.vdot(X, GX).real * X
    restart = np.vdot(GX, X - X_prev).real > 0.0
    lam = _norm(GX)
    if lam == 0.0:
        # No descent direction; X* X alone is singular for a factor with a zero column.
        return restart, lambda eps: _renormalized(X), 0.0
    P = X.conj().T @ X
    # The defect rho (-g) - tr(-g rho) rho of rho = X X* is -X (G X)*, and
    # ||X X*||_F = ||X* X||_F: an N x N product and two norms, no eigensolve.
    m_residual = _norm(X @ GX.conj().T) / _norm(P)
    P.flat[:: P.shape[0] + 1] += lam
    # G X P^-1 = (P^-T (G X)^T)^T, one solve for all rows.
    direction = np.linalg.solve(P.T, GX.T).T
    return restart, lambda eps: _renormalized(X - eps * direction), m_residual


def _outer(X: np.ndarray) -> np.ndarray:
    rho = X @ X.conj().T
    return 0.5 * (rho + rho.conj().T)


def fgd_step(state: FactorState, obj: Objective, eps: float) -> FactorState:
    """One factorized descent update X - eps * grad F(X X*) X, renormalized."""
    g = obj._gradient_from(obj.operator.apply(_outer(state.X)))
    return FactorState(_fgd_prepare(state.X, state.X, g)[1](eps))


def factorized_mle_step(state: FactorState, obj: Objective) -> FactorState:
    """Factorized form of the multiplicative likelihood step: X -> R X / ||R X||."""
    if obj.kind != NEG_LOG_LIKELIHOOD:
        raise ValueError("the factorized likelihood step requires the nll objective")
    g = obj._gradient_from(obj.operator.apply(_outer(state.X)))
    return FactorState(_mle_prepare(state.X, state.X, g)[1](1.0))


# --- full solves -------------------------------------------------------------

def _barzilai_borwein(eps: float, d_rho: np.ndarray, g_new: np.ndarray, g: np.ndarray) -> float:
    """Spectral step |d_rho|^2 / <d_rho, d_g> with d_g = g_new - g, clamped; doubles eps
    without curvature."""
    curvature = float(np.vdot(d_rho, g_new - g).real)
    if curvature > 0.0:
        return min(max(float(np.vdot(d_rho, d_rho).real) / curvature, 1e-12), 1e12)
    return eps * 2.0


def _check_stop_rule(tol: float, max_iter: int, where: str = "") -> None:
    """ValueError unless tol is finite and >= 0 and max_iter >= 0; `where` prefixes
    the field names in the message."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"{where}tol must be finite and >= 0, got {tol!r}")
    if not max_iter >= 0:
        raise ValueError(f"{where}max_iter must be >= 0, got {max_iter!r}")


def _line_searched_solve(
    state: np.ndarray,
    obj: Objective,
    policy: StepPolicy,
    max_iter: int,
    tol: float,
    density_of,
    prepare,
    next_eps=None,
):
    """Shared backtracking descent loop for every line-searched iteration.

    `density_of` maps the raw state to its density array. `prepare(state, prev,
    g)` is called once for the start (with prev = state) and once per accepted
    state, with the gradient g there; it returns (restart, step, m_residual),
    where `step(eps)` gives the plain trial state at eps, `restart` is None for
    a solve without momentum, else whether the momentum restarts (k = 0) at
    this state, and `m_residual` is None for a solve without the certificate
    stop, else the state's fixed-point defect m_set_residual(rho, -g)[1].
    With momentum, the first trial after k accepted steps since the last
    restart is normalize(step(eps) + k / (k + 3) * (state - prev)); a failed or
    degenerate momentum trial restarts and retries the plain step at the same
    eps, and only failed plain trials halve eps. A raised DegenerateStateError
    counts as a failed trial.
    `next_eps(eps, d_rho, g_new, g)`, when given, sets the first trial eps of
    the next step from the accepted eps, the last density change and the
    gradients after and before it; without it eps carries over.
    The trace records each accepted step's objective, eps and ||d_rho||_F. The
    solve stops `converged` at the first accepted step with trace_norm(d_rho) <
    tol (its eigensolve runs only once ||d_rho||_F, a lower bound, is below
    tol), or at the first accepted state whose m_residual is at most FIX_TOL
    and whose full certificate is decisive: valid, or spurious with a
    kernel-restricted eigenvalue below -PSD_TOL, and then keeps that
    certificate as trace.certificate. So the certificate's eigensolves run
    only at fixed points.
    """
    _check_stop_rule(tol, max_iter)
    rho = density_of(state)
    p = obj.operator.apply(rho)
    f = obj._value_from(p)
    g = obj._gradient_from(p)
    eps = policy.resolve_initial(float(np.linalg.norm(g)))

    trace = SolverTrace(objective_values=[f])
    _, step, _ = prepare(state, state, g)
    prev, k = state, 0
    for _ in range(max_iter):
        plain = None
        while True:
            trace.trials += 1
            try:
                if plain is None:
                    plain = step(eps)
                candidate = plain
                if k:
                    candidate = _renormalized(plain + (k / (k + 3)) * (state - prev))
                rho_cand = density_of(candidate)
                p_cand = obj.operator._apply_arr(rho_cand)
                f_cand = obj._value_from(p_cand)
            except DegenerateStateError:
                f_cand = math.inf
            if f_cand <= f + DESCENT_SLACK:
                break
            if k and plain is not None:
                k = 0  # restart: retry the plain step at the same eps
                trace.restarts += 1
                continue
            plain = None
            eps *= policy.shrink
            if eps < policy.min_eps:
                trace.stop_reason = EPS_EXHAUSTED
                return state, trace

        d_rho = rho_cand - rho
        prev, state, rho, f = state, candidate, rho_cand, f_cand
        g_new = obj._gradient_from(p_cand)
        restart, step, m_residual = prepare(state, prev, g_new)
        if restart:
            k = 0
            trace.restarts += 1
        elif restart is not None:
            k += 1
        trace.objective_values.append(f)
        trace.eps_values.append(eps)
        trace.residuals.append(_norm(d_rho))
        converged = trace.residuals[-1] < tol and trace_norm(d_rho) < tol
        if not converged and m_residual is not None:
            trace.certificate = _decisive(rho, g_new, m_residual)
            converged = trace.certificate is not None
        if converged:
            trace.stop_reason = CONVERGED
            break
        if next_eps is not None:
            eps = next_eps(eps, d_rho, g_new, g)
        g = g_new

    return state, trace


def gm_solve(
    rho0: DensityLike,
    obj: Objective,
    policy: StepPolicy | None = None,
    max_iter: int = 20000,
    tol: float = 1e-10,
) -> tuple[DensityLike, SolverTrace]:
    """Gradient-multiplication solve with shrink-only step control.

    It is fgd_solve at r = N, from FactorState.from_density(rho0, N), and
    returns the density of its final factor; gm_step is the full-matrix
    reference. Objective values along the trace are non-increasing (within a
    1e-12 slack). The solve stops once the trace norm of the last step is
    below tol; `trace.residuals` records each step's Frobenius norm, which
    bounds it from below. A small step certifies a fixed point, not a
    solution: run the validity certificate on the result to tell the two
    apart. tol must be finite and >= 0 and max_iter >= 0, else ValueError.
    """
    final, trace = fgd_solve(FactorState.from_density(rho0, rho0.dim), obj, policy, max_iter, tol)
    return final.density(), trace


def fgd_solve(
    state0: FactorState,
    obj: Objective,
    policy: StepPolicy | None = None,
    max_iter: int = 20000,
    tol: float = 1e-10,
    precondition: bool = False,
) -> tuple[FactorState, SolverTrace]:
    """Factorized gradient descent with shrink-only step control.

    Iterates stay rank <= r, and a zero column stays exactly zero; the stop
    rule, residuals and objective values are measured on the outer products
    X X*. The plain step is X <- normalize(X - eps * grad F X); gm_solve is
    this solve at r = N.

    precondition=True takes the scaled step
    X <- normalize(X - eps * G X (X* X + lam I)^-1), where
    G X = grad F X - tr(X* grad F X) X is the gradient of the Lagrangian
    (its fixed points are the KKT points) and lam = ||G X||_F. The right
    preconditioner restores a linear rate when r exceeds the rank of the
    minimizer, where the plain step converges only at O(1/t). Its prepare
    hook (see _line_searched_solve) computes G X and the eps-free direction
    G X (X* X + lam I)^-1 once per accepted state, so a halved trial costs no
    solve. Its step residual can stall above a tight tol once the iterate is
    already a minimizer, and a start below the rank of the minimizer settles
    at a spurious fixed point long before its steps fall below tol. So the
    same hook also forms the fixed-point defect m_set_residual(X X*, -grad F)
    as ||X (G X)*||_F / ||X* X||_F from the products it already has, and every
    accepted state where it is at most FIX_TOL runs the full certificate. The
    solve stops `converged` at the first decisive verdict: valid, or spurious
    with a kernel-restricted eigenvalue below -PSD_TOL. The margin keeps an
    over-parameterized start whose kernel eigenvalue is still settling
    (a restricted minimum near -1e-8) from stopping spurious.
    It also carries momentum with adaptive restart (O'Donoghue and Candes,
    arXiv:1204.3982): the first trial is normalize(step(X) + beta (X - X_prev))
    with beta = k / (k + 3) after k accepted steps since the last restart. Two
    events restart (k = 0). The gradient restart fires after an accepted step
    whose displacement X - X_prev makes an ascent angle with the new
    Lagrangian gradient, Re <G X, X - X_prev> > 0; this keeps the heavy ball
    from oscillating near a fixed point, where F changes by less than
    DESCENT_SLACK, so beta needs no cap. A failed or degenerate momentum trial
    restarts with the same plain step and eps, so eps only halves. X - X_prev
    is a consistent direction because the step commutes with X -> X U for
    unitary U.
    The step is opt-in: on noisy full-rank data this lam rule collapses eps
    and stalls where the plain step converges.
    """
    policy = policy or StepPolicy()
    final, trace = _line_searched_solve(
        np.array(state0.X),
        obj,
        policy,
        max_iter,
        tol,
        density_of=_outer,
        prepare=_scaled_fgd_prepare if precondition else _fgd_prepare,
    )
    return FactorState(final), trace


class _Undiluted(StepPolicy):
    """mle_solve's first delta, the undiluted RρR step."""

    def resolve_initial(self, gradient_norm: float) -> float:
        return 1.0


def mle_solve(
    rho0: DensityLike,
    obj: Objective,
    max_iter: int = 20000,
    tol: float = 1e-10,
) -> tuple[DensityLike, SolverTrace]:
    """Likelihood iteration RρR with gm_solve's driver, stop rule and residuals.

    Each step is the diluted iteration X -> normalize((1 - delta) X + delta R X),
    R = -grad F (Řeháček, Hradil, Knill and Lvovsky, PRA 75, 042108 (2007)), from
    FactorState.from_density(rho0, N). It tries delta = 1, the plain RρR step of
    factorized_mle_step (mle_step is the full-matrix reference), first; a rise above
    DESCENT_SLACK halves delta, and each accepted step shrinks 1 - delta by 1.5
    until it underflows to delta = 1.0. So objective values are non-increasing
    and trace.eps_values holds the accepted deltas.
    """
    if obj.kind != NEG_LOG_LIKELIHOOD:
        raise ValueError("mle_solve requires the nll objective")
    final, trace = _line_searched_solve(
        FactorState.from_density(rho0, rho0.dim).X, obj, _Undiluted(), max_iter, tol,
        density_of=_outer, prepare=_mle_prepare,
        next_eps=lambda delta, _d_rho, _g_new, _g: 1.0 - (1.0 - delta) / 1.5,
    )
    return DensityLike.from_array(_outer(final)), trace


def pgd_solve(
    rho0: DensityLike,
    obj: Objective,
    max_iter: int = 20000,
    tol: float = 1e-11,
) -> DensityLike:
    """Projected gradient descent onto the unit-trace PSD set (reference oracle).

    Iterates are project(rho - step * grad F(rho)) with backtracking on
    objective increase; the trial step length is chosen spectrally from the
    last displacement (Barzilai-Borwein), which makes the stop tolerance on
    the trace-norm step translate into a comparably tight first-order
    optimality residual.
    """
    policy = StepPolicy(min_eps=1e-18)
    final, _trace = _line_searched_solve(
        np.array(rho0.entries),
        obj,
        policy,
        max_iter,
        tol,
        density_of=lambda arr: arr,
        prepare=lambda arr, _prev, g: (None, lambda s: _project_density_arr(arr - s * g), None),
        next_eps=_barzilai_borwein,
    )
    return DensityLike.from_array(final)
