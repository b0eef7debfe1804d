"""Telling true solutions apart from spurious fixed points.

A converged multiplicative iteration only certifies stationarity of the
iteration map. The first-order test implemented here decides whether such a
fixed point actually minimizes the objective over the unit-trace PSD set: it
checks that Q = grad F(rho) + lambda * I is positive semi-definite, with
lambda = -tr(grad F(rho) rho). Both the full-space eigenvalue summary and
the sharper restriction of Q to the kernel of rho are reported, since the
rank deficiency of Q makes the full-space minimum eigenvalue noisy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hermitian import DensityLike, entries_of
from .objectives import Objective
from .operators import MeasurementData, pauli_six_state

VALID = "valid"
SPURIOUS = "spurious"
NOT_FIXED_POINT = "not_fixed_point"

# The certificate's absolute tolerances, each stated only here.
# Eigenvectors of rho below this eigenvalue count as its numerical kernel.
KERNEL_EIG_CUTOFF = 1e-10
# Slack on the full-spectrum minimum eigenvalue of Q.
PSD_TOL = 1e-6
# Slack on the minimum eigenvalue of Q restricted to the kernel of rho.
RESTRICTED_PSD_TOL = 1e-8
# Largest relative defect of rho (-grad F) = lam rho that counts as a fixed point.
FIX_TOL = 1e-8

SPURIOUS_T_MAX = 8.0 / 11.0


@dataclass(frozen=True)
class ValidityCertificate:
    """First-order optimality summary at a candidate fixed point."""

    lam: float
    min_eig_Q: float
    min_eig_Q_restricted: float
    m_residual: float
    verdict: str

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "min_eig_Q": self.min_eig_Q,
            "min_eig_Q_restricted": self.min_eig_Q_restricted,
            "m_residual": self.m_residual,
            "verdict": self.verdict,
        }


def m_set_residual(rho, sigma) -> tuple[float, float]:
    """Best scaling factor and relative defect of the relation rho sigma = lam rho.

    Returns (lam, res) with lam = tr(sigma rho) / tr(rho); res vanishes exactly
    when sigma scales rho under multiplication.
    """
    rho_arr = entries_of(rho)
    sigma_arr = entries_of(sigma)
    rho_norm = float(np.linalg.norm(rho_arr))
    if rho_norm == 0.0:
        raise ValueError("rho must be nonzero")
    lam = float((sigma_arr @ rho_arr).trace().real) / float(rho_arr.trace().real)
    defect = rho_arr @ sigma_arr - lam * rho_arr
    return lam, float(np.linalg.norm(defect)) / rho_norm


def validity_certificate(rho: DensityLike, obj: Objective) -> ValidityCertificate:
    """First-order validity check of a candidate fixed point.

    Verdicts: not_fixed_point when -grad F(rho) fails to scale rho within
    FIX_TOL; otherwise valid when Q passes the PSD tests (full spectrum within
    PSD_TOL; the block on the kernel of rho, spanned by its eigenvectors below
    KERNEL_EIG_CUTOFF, within RESTRICTED_PSD_TOL), else spurious.
    The restricted minimum is +inf when rho has no numerical kernel.
    """
    return _certificate(rho.entries, obj._gradient_from(obj.operator.apply(rho)))


def _certificate(rho: np.ndarray, g: np.ndarray) -> ValidityCertificate:
    """validity_certificate of the density array rho, given its gradient g."""
    lam, residual = m_set_residual(rho, -g)
    Q_arr = g + lam * np.eye(rho.shape[0])
    Q_arr = 0.5 * (Q_arr + Q_arr.conj().T)
    min_eig = float(np.linalg.eigvalsh(Q_arr)[0])

    vals, vecs = np.linalg.eigh(rho)
    kernel_vecs = vecs[:, vals < KERNEL_EIG_CUTOFF]
    if kernel_vecs.shape[1] == 0:
        min_eig_restricted = math.inf
    else:
        block = kernel_vecs.conj().T @ Q_arr @ kernel_vecs
        block = 0.5 * (block + block.conj().T)
        min_eig_restricted = float(np.linalg.eigvalsh(block)[0])

    if residual > FIX_TOL:
        verdict = NOT_FIXED_POINT
    elif min_eig >= -PSD_TOL and min_eig_restricted >= -RESTRICTED_PSD_TOL:
        verdict = VALID
    else:
        verdict = SPURIOUS

    return ValidityCertificate(
        lam=lam,
        min_eig_Q=min_eig,
        min_eig_Q_restricted=min_eig_restricted,
        m_residual=residual,
        verdict=verdict,
    )


def _decisive(rho: np.ndarray, g: np.ndarray, m_residual: float) -> ValidityCertificate | None:
    """The certificate stop of a solve: the certificate of rho, with gradient g and a
    fixed-point defect m_residual <= FIX_TOL, when it reads valid, or spurious with a
    kernel-restricted eigenvalue below -PSD_TOL (a spurious reading within that margin
    can still turn valid as rho settles); else None."""
    if not m_residual <= FIX_TOL:
        return None
    cert = _certificate(rho, g)
    if cert.verdict == VALID or (
        cert.verdict == SPURIOUS and cert.min_eig_Q_restricted < -PSD_TOL
    ):
        return cert
    return None


def mu_exclusion(rho: DensityLike, obj: Objective) -> float:
    """The single step size at which a true solution stops being a fixed point.

    Returns mu = 1 / tr(grad F(rho) rho); math.inf signals that no finite step
    size is excluded (vanishing denominator, e.g. a perfect least-squares fit).
    """
    g = obj._gradient_from(obj.operator.apply(rho))
    denom = float((g @ rho.entries).trace().real)
    if abs(denom) < np.finfo(float).tiny:
        return math.inf
    return 1.0 / denom


def construct_spurious_t2(t: float) -> tuple[DensityLike, MeasurementData, DensityLike]:
    """Analytic spurious fixed point for the six-state qubit operator.

    For t in (0, 8/11] returns (rho_fix, data, rho_true): rho_fix is a rank-one
    state fixed by the multiplicative iterations on `data`, while the actual
    constrained minimizer rho_true differs from it (and has full rank for
    t < 8/11). The data rows are normalized probabilities.
    """
    if not 0.0 < t <= SPURIOUS_T_MAX + 1e-12:
        raise ValueError(f"t must lie in (0, 8/11], got {t}")
    rho_fix = DensityLike.from_array(
        np.array([[1.0, 1.0 - 1.0j], [1.0 + 1.0j, 2.0]]) / 3.0
    )
    data = MeasurementData(
        np.array(
            [
                [2.0 + 4.0 * t, 4.0 - 4.0 * t],
                [5.0 - 5.0 * t, 1.0 + 5.0 * t],
                [5.0 - 5.0 * t, 1.0 + 5.0 * t],
            ]
        )
        / 6.0
    )
    preimage = pauli_six_state().pseudo_inverse_apply(data)
    rho_true = DensityLike(preimage)
    return rho_fix, data, rho_true

