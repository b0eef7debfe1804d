"""Fixed-point iterations on the trace-c PSD cone and their factorized forms.

The multiplicative family updates rho -> c * A rho A / tr(A rho A) with
A = I - eps * grad F(rho); the factorized form updates an N x r factor X with
rho = X X* and reproduces the full iteration step for step when r = N. A
projected-gradient solver serves as the independent reference for the convex
problems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .diagnostics import VALID, validity_certificate
from .hermitian import DensityLike, _project_density_arr, entries_of, trace_norm
from .objectives import NEG_LOG_LIKELIHOOD, Objective

CONVERGED = "converged"
MAX_ITER = "max_iter"
EPS_EXHAUSTED = "eps_exhausted"

# Absolute slack on per-step objective comparisons; covers float noise at
# numerical fixed points without admitting real increases.
DESCENT_SLACK = 1e-12

_TRACE_FLOOR = 1e-300

# Accepted steps between two certificate checks of a certified solve.
CERTIFY_EVERY = 25

# Upper bound on the momentum weight k / (k + 3) of an extrapolated solve.
MOMENTUM_CAP = 0.9

# The sandwich map amplifies kernel rounding dirt (of either sign) by up to
# ||A||^2 per step; zeroing eigenvalues this far below the trace scale keeps
# iterates PSD and their numerical rank non-increasing.
_KERNEL_CLIP = 1e-13


class DegenerateStateError(RuntimeError):
    """An update annihilated the state (zero trace or zero factor)."""


@dataclass(frozen=True)
class StepPolicy:
    """Backtracking control of the line-searched iterations: eps only shrinks within a step.

    Each rejected trial halves eps; a step fails once eps falls below min_eps.
    initial_eps of None resolves to 1 / (||grad F(rho0)||_F + 1) at solve time.
    """

    initial_eps: float | None = None
    min_eps: float = 1e-14
    shrink: ClassVar[float] = 0.5

    def __post_init__(self):
        if not self.min_eps > 0:
            raise ValueError(f"min_eps must be positive, got {self.min_eps}")
        # A finite initial_eps keeps the backtracking finite: halving inf never reaches min_eps.
        if self.initial_eps is not None and not self.min_eps < self.initial_eps < math.inf:
            raise ValueError(
                f"initial_eps {self.initial_eps} must be finite and above min_eps {self.min_eps}"
            )

    def resolve_initial(self, gradient_norm: float) -> float:
        if self.initial_eps is not None:
            return self.initial_eps
        return 1.0 / (gradient_norm + 1.0)


@dataclass
class SolverTrace:
    """Per-iteration bookkeeping for a solve; `trials` counts every trial step taken."""

    objective_values: list[float] = field(default_factory=list)
    eps_values: list[float] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    stop_reason: str = MAX_ITER
    trials: int = 0
    iterates_kept: list | None = None

    @property
    def iterations(self) -> int:
        return len(self.residuals)


@dataclass(frozen=True)
class FactorState:
    """An N x r factor X with ||X||_F = sqrt(c), representing rho = X X*."""

    X: np.ndarray
    trace_target: float = 1.0

    def __post_init__(self):
        arr = np.array(self.X, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"factor must be a 2-D array, got shape {arr.shape}")
        if arr.shape[1] > arr.shape[0]:
            raise ValueError(f"rank {arr.shape[1]} exceeds dimension {arr.shape[0]}")
        c = float(self.trace_target)
        if not 0 < c < math.inf:
            raise ValueError(f"trace_target must be positive and finite, got {c}")
        norm_sq = float(np.linalg.norm(arr) ** 2)
        if not abs(norm_sq - c) <= 1e-9 * c:
            raise ValueError(f"||X||_F^2 = {norm_sq!r} deviates from trace target {c!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "X", arr)
        object.__setattr__(self, "trace_target", c)

    @property
    def dim(self) -> int:
        return self.X.shape[0]

    @property
    def rank(self) -> int:
        return self.X.shape[1]

    def density(self) -> DensityLike:
        return DensityLike.from_array(_outer(self.X), self.trace_target)

    @classmethod
    def from_density(cls, rho: DensityLike, rank: int) -> "FactorState":
        """Spectral factor built from the top-`rank` eigenpairs of rho."""
        if not 1 <= rank <= rho.dim:
            raise ValueError(f"rank must satisfy 1 <= r <= {rho.dim}, got {rank}")
        vals, vecs = np.linalg.eigh(rho.entries)
        top = slice(rho.dim - rank, rho.dim)
        X = vecs[:, top] * np.sqrt(np.maximum(vals[top], 0.0))
        norm = np.linalg.norm(X)
        if norm == 0.0:
            raise DegenerateStateError("state has no mass on the requested rank")
        X = X * (np.sqrt(rho.trace_target) / norm)
        return cls(X, rho.trace_target)


# --- single steps ------------------------------------------------------------

def _sandwich(A: np.ndarray, rho: np.ndarray) -> np.ndarray:
    S = A @ rho @ A
    return 0.5 * (S + S.conj().T)


def _mle_step_arr(rho: np.ndarray, obj: Objective, c: float) -> np.ndarray:
    # The nll reweighting operator R is -grad F; the sandwich is even in it.
    S = _sandwich(obj._gradient_arr(rho), rho)
    t = float(S.trace().real)
    if t < _TRACE_FLOOR:
        raise DegenerateStateError(f"sandwich trace {t!r} vanished")
    return (c / t) * S


def mle_step(rho: DensityLike, obj: Objective) -> DensityLike:
    """One multiplicative likelihood update R(rho) rho R(rho) / tr(...)."""
    if obj.kind != NEG_LOG_LIKELIHOOD:
        raise ValueError("the multiplicative likelihood step requires the nll objective")
    c = rho.trace_target
    return DensityLike.from_array(_mle_step_arr(rho.entries, obj, c), c)


def _gm_step_arr(rho: np.ndarray, g: np.ndarray, eps: float, c: float) -> np.ndarray:
    A = (-eps) * g
    A.flat[:: rho.shape[0] + 1] += 1.0
    S = _sandwich(A, rho)
    t = float(S.trace().real)
    if t < _TRACE_FLOOR:
        raise DegenerateStateError(f"step normalizer {t!r} vanished at eps={eps!r}")
    return (c / t) * S


def gm_step(rho: DensityLike, g, eps: float, c: float | None = None) -> DensityLike:
    """One gradient-multiplication update with A = I - eps * g."""
    if c is None:
        c = rho.trace_target
    return DensityLike.from_array(_gm_step_arr(rho.entries, entries_of(g), eps, c), c)


def _renormalized(half: np.ndarray, eps: float, c: float) -> np.ndarray:
    norm = np.linalg.norm(half)
    if norm < math.sqrt(_TRACE_FLOOR):
        raise DegenerateStateError(f"factor norm {norm!r} vanished at eps={eps!r}")
    return half * (np.sqrt(c) / norm)


def _fgd_apply_arr(X: np.ndarray, g: np.ndarray, eps: float, c: float) -> np.ndarray:
    return _renormalized(X - eps * (g @ X), eps, c)


def _scaled_fgd_apply_arr(X: np.ndarray, g: np.ndarray, eps: float, c: float) -> np.ndarray:
    """Preconditioned step X - eps * G X (X* X + lam I)^-1 with the Lagrangian-shifted
    gradient G = g - (tr(X* g X) / c) I and lam = ||G X||_F, renormalized."""
    GX = g @ X
    GX -= (np.vdot(X, GX).real / c) * X
    lam = np.linalg.norm(GX)
    if lam == 0.0:
        # No descent direction; X* X alone is singular for a factor with a zero column.
        return _renormalized(X, eps, c)
    P = X.conj().T @ X
    P.flat[:: P.shape[0] + 1] += lam
    # G X P^-1 = (P^-T (G X)^T)^T, one solve for all rows.
    return _renormalized(X - eps * np.linalg.solve(P.T, GX.T).T, eps, c)


def _outer(X: np.ndarray) -> np.ndarray:
    rho = X @ X.conj().T
    return 0.5 * (rho + rho.conj().T)


def fgd_step(state: FactorState, obj: Objective, eps: float, c: float | None = None) -> FactorState:
    """One factorized descent update X - eps * grad F(X X*) X, renormalized."""
    if c is None:
        c = state.trace_target
    g = obj._gradient_arr(_outer(state.X))
    return FactorState(_fgd_apply_arr(state.X, g, eps, c), c)


def factorized_mle_step(state: FactorState, obj: Objective) -> FactorState:
    """Factorized form of the multiplicative likelihood step: X -> R X / ||R X||."""
    if obj.kind != NEG_LOG_LIKELIHOOD:
        raise ValueError("the factorized likelihood step requires the nll objective")
    X = state.X
    # R = -grad F, negated before the product so that signed zeros match R @ X.
    nxt = (-obj._gradient_arr(_outer(X))) @ X
    norm = np.linalg.norm(nxt)
    if norm < math.sqrt(_TRACE_FLOOR):
        raise DegenerateStateError("factor annihilated by the reweighting operator")
    return FactorState(nxt * (np.sqrt(state.trace_target) / norm), state.trace_target)


# --- full solves -------------------------------------------------------------

def _psd_hygiene(arr: np.ndarray, c: float) -> np.ndarray:
    """Zero out near-kernel eigenvalues of a full-matrix iterate."""
    vals, vecs = np.linalg.eigh(arr)
    cut = _KERNEL_CLIP * c
    if vals[0] >= cut:
        return arr
    vals = np.where(vals < cut, 0.0, vals)
    out = (vecs * vals) @ vecs.conj().T
    return 0.5 * (out + out.conj().T)


def _barzilai_borwein(eps: float, d_rho: np.ndarray, d_g: np.ndarray) -> float:
    """Spectral step |d_rho|^2 / <d_rho, d_g>, clamped; doubles eps without curvature."""
    curvature = float(np.vdot(d_rho, d_g).real)
    if curvature > 0.0:
        return min(max(float(np.vdot(d_rho, d_rho).real) / curvature, 1e-12), 1e12)
    return eps * 2.0


def _line_searched_solve(
    state: np.ndarray,
    obj: Objective,
    policy: StepPolicy,
    max_iter: int,
    tol: float,
    density_of,
    step_fn,
    next_eps=None,
    certify=None,
    extrapolate=None,
    keep_trace: bool = False,
):
    """Shared backtracking descent loop for every line-searched iteration.

    `density_of` maps the raw state to its density array, `step_fn(state, g,
    eps)` produces a trial state, and `next_eps(eps, d_rho, d_g)`, when given,
    sets the first trial eps of the next step from the accepted eps and the
    last density and gradient changes; without it eps carries over.
    keep_trace keeps the raw states.
    A raised DegenerateStateError counts as a failed trial and shrinks eps.
    `certify(rho)`, when given, is asked every CERTIFY_EVERY accepted steps
    whether the density array rho passes the validity certificate; a pass
    stops the solve as converged.
    `extrapolate(plain, momentum, eps)`, when given, adds momentum to the plain
    step as fgd_solve describes; only failed plain trials shrink eps.
    """
    rho = density_of(state)
    p = obj._forward_arr(rho)
    f = obj._value_from(p)
    g = obj._gradient_from(p)
    eps = policy.resolve_initial(float(np.linalg.norm(g)))

    trace = SolverTrace(objective_values=[f])
    if keep_trace:
        trace.iterates_kept = [state]

    prev, k = state, 0
    for _ in range(max_iter):
        plain = None
        while True:
            trace.trials += 1
            try:
                if plain is None:
                    plain = step_fn(state, g, eps)
                candidate = plain
                if k:
                    momentum = min(k / (k + 3), MOMENTUM_CAP) * (state - prev)
                    candidate = extrapolate(plain, momentum, eps)
                rho_cand = density_of(candidate)
                p_cand = obj._forward_arr(rho_cand)
                f_cand = obj._value_from(p_cand)
            except DegenerateStateError:
                f_cand = math.inf
            if f_cand <= f + DESCENT_SLACK:
                break
            if k and plain is not None:
                k = 0  # restart: retry the plain step at the same eps
                continue
            plain = None
            eps *= policy.shrink
            if eps < policy.min_eps:
                trace.stop_reason = EPS_EXHAUSTED
                return state, trace

        d_rho = rho_cand - rho
        residual = trace_norm(d_rho)
        prev, state, rho, f = state, candidate, rho_cand, f_cand
        k += extrapolate is not None
        trace.objective_values.append(f)
        trace.eps_values.append(eps)
        trace.residuals.append(residual)
        if keep_trace:
            trace.iterates_kept.append(state)
        if residual < tol or (
            certify is not None and trace.iterations % CERTIFY_EVERY == 0 and certify(rho)
        ):
            trace.stop_reason = CONVERGED
            break
        g_new = obj._gradient_from(p_cand)
        if next_eps is not None:
            eps = next_eps(eps, d_rho, g_new - g)
        g = g_new
    else:
        trace.stop_reason = MAX_ITER

    return state, trace


def gm_solve(
    rho0: DensityLike,
    obj: Objective,
    policy: StepPolicy | None = None,
    max_iter: int = 20000,
    tol: float = 1e-10,
    keep_trace: bool = False,
) -> tuple[DensityLike, SolverTrace]:
    """Gradient-multiplication solve with shrink-only step control.

    Objective values along the trace are non-increasing (within a 1e-12
    slack); the stop residual is the trace norm of the last step. A small
    residual certifies a fixed point, not a solution: run the validity
    certificate on the result to tell the two apart.
    """
    policy = policy or StepPolicy()
    c = rho0.trace_target
    final, trace = _line_searched_solve(
        np.array(rho0.entries),
        obj,
        policy,
        max_iter,
        tol,
        density_of=lambda arr: arr,
        step_fn=lambda arr, g, eps: _psd_hygiene(_gm_step_arr(arr, g, eps, c), c),
        keep_trace=keep_trace,
    )
    if keep_trace:
        trace.iterates_kept = [DensityLike.from_array(arr, c) for arr in trace.iterates_kept]
    return DensityLike.from_array(final, c), trace


def fgd_solve(
    state0: FactorState,
    obj: Objective,
    policy: StepPolicy | None = None,
    max_iter: int = 20000,
    tol: float = 1e-10,
    precondition: bool = False,
) -> tuple[FactorState, SolverTrace]:
    """Factorized gradient descent with the same step control as gm_solve.

    Iterates stay rank <= r; residuals and objective values are measured on
    the outer products X X*.

    precondition=True takes the scaled step
    X <- normalize(X - eps * G X (X* X + lam I)^-1), where
    G X = grad F X - (tr(X* grad F X) / c) X is the gradient of the Lagrangian
    (its fixed points are the KKT points) and lam = ||G X||_F. The right
    preconditioner restores a linear rate when r exceeds the rank of the
    minimizer, where the plain step converges only at O(1/t). Its step
    residual can stall above a tight tol once the iterate is already a
    minimizer, so such a solve also runs the validity certificate every
    CERTIFY_EVERY accepted steps and stops `converged` when it reads valid.
    It also carries momentum with adaptive restart (O'Donoghue and Candes,
    arXiv:1204.3982): the first trial is normalize(step(X) + beta (X - X_prev))
    with beta = min(k / (k + 3), MOMENTUM_CAP) after k accepted steps since the
    last restart; a failed or degenerate momentum trial restarts (k = 0) with
    the same plain step and eps, so eps only halves. X - X_prev is a consistent
    direction because the step commutes with X -> X U for unitary U.
    The step is opt-in: on noisy full-rank data this lam rule collapses eps
    and stalls where the plain step converges.
    """
    policy = policy or StepPolicy()
    c = state0.trace_target
    step_fn, certify, extrapolate = _fgd_apply_arr, None, None
    if precondition:
        step_fn = _scaled_fgd_apply_arr

        def extrapolate(plain: np.ndarray, momentum: np.ndarray, eps: float) -> np.ndarray:
            return _renormalized(plain + momentum, eps, c)

        def certify(rho: np.ndarray) -> bool:
            return validity_certificate(DensityLike.from_array(rho, c), obj).verdict == VALID

    final, trace = _line_searched_solve(
        np.array(state0.X),
        obj,
        policy,
        max_iter,
        tol,
        density_of=_outer,
        step_fn=lambda X, g, eps: step_fn(X, g, eps, c),
        certify=certify,
        extrapolate=extrapolate,
    )
    return FactorState(final, c), trace


def mle_solve(
    rho0: DensityLike,
    obj: Objective,
    max_iter: int = 20000,
    tol: float = 1e-10,
) -> tuple[DensityLike, SolverTrace]:
    """Plain multiplicative likelihood iteration (no step size, no descent guarantee)."""
    if obj.kind != NEG_LOG_LIKELIHOOD:
        raise ValueError("mle_solve requires the nll objective")
    c = rho0.trace_target
    rho = np.array(rho0.entries)
    trace = SolverTrace(objective_values=[obj._value_arr(rho)])

    for _ in range(max_iter):
        nxt = _psd_hygiene(_mle_step_arr(rho, obj, c), c)
        trace.trials += 1
        residual = trace_norm(nxt - rho)
        rho = nxt
        trace.objective_values.append(obj._value_arr(rho))
        trace.eps_values.append(math.nan)
        trace.residuals.append(residual)
        if residual < tol:
            trace.stop_reason = CONVERGED
            break
    else:
        trace.stop_reason = MAX_ITER

    return DensityLike.from_array(rho, c), trace


def pgd_solve(
    rho0: DensityLike,
    obj: Objective,
    max_iter: int = 20000,
    tol: float = 1e-11,
) -> DensityLike:
    """Projected gradient descent onto the trace-c PSD set (reference oracle).

    Iterates are project(rho - step * grad F(rho)) with backtracking on
    objective increase; the trial step length is chosen spectrally from the
    last displacement (Barzilai-Borwein), which makes the stop tolerance on
    the trace-norm step translate into a comparably tight first-order
    optimality residual.
    """
    c = rho0.trace_target
    policy = StepPolicy(min_eps=1e-18)
    final, _trace = _line_searched_solve(
        np.array(rho0.entries),
        obj,
        policy,
        max_iter,
        tol,
        density_of=lambda arr: arr,
        step_fn=lambda arr, g, s: _project_density_arr(arr - s * g, c),
        next_eps=_barzilai_borwein,
    )
    return DensityLike.from_array(final, c)
