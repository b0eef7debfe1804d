"""Convex data-fit functionals on the trace-c PSD cone, with exact gradients.

Gradients use the real inner product <A, B> = tr(A B) on Hermitian matrices,
so tr(gradient(rho) @ Delta) is the directional derivative along Delta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermitian import HermitianMatrix, entries_of
from .operators import MeasurementData, MeasurementOperator

NEG_LOG_LIKELIHOOD = "nll"
LEAST_SQUARES = "l2"

# Forward values below this guard the nll log and division near the PSD boundary.
FLOOR = 1e-12

_KIND_ALIASES = {
    "nll": NEG_LOG_LIKELIHOOD,
    "neg_log_likelihood": NEG_LOG_LIKELIHOOD,
    "l2": LEAST_SQUARES,
    "least_squares": LEAST_SQUARES,
}


@dataclass(frozen=True)
class Objective:
    """Data-fit functional F(rho), either -sum y*log(T rho) or 0.5*||y - T rho||^2."""

    operator: MeasurementOperator
    data: MeasurementData
    kind: str = NEG_LOG_LIKELIHOOD

    def __post_init__(self):
        if not isinstance(self.data, MeasurementData):
            object.__setattr__(self, "data", MeasurementData(self.data))
        if self.data.shape != self.operator.shape:
            raise ValueError(
                f"data shape {self.data.shape} does not match operator {self.operator.shape}"
            )
        kind = _KIND_ALIASES.get(str(self.kind).lower())
        if kind is None:
            raise ValueError(f"unknown objective kind {self.kind!r}")
        object.__setattr__(self, "kind", kind)

    # Forward values are shared between value and gradient in solver loops.
    def _forward_arr(self, rho: np.ndarray) -> np.ndarray:
        return self.operator._apply_arr(rho)

    def _value_from(self, p: np.ndarray) -> float:
        y = self.data.values
        if self.kind == NEG_LOG_LIKELIHOOD:
            return float(-(y * np.log(np.maximum(p, FLOOR))).sum())
        diff = y - p
        return float(0.5 * (diff * diff).sum())

    def _gradient_from(self, p: np.ndarray) -> np.ndarray:
        y = self.data.values
        if self.kind == NEG_LOG_LIKELIHOOD:
            weights = -y / np.maximum(p, FLOOR)
        else:
            weights = p - y
        return self.operator._adjoint_arr(weights)

    def _value_arr(self, rho: np.ndarray) -> float:
        return self._value_from(self._forward_arr(rho))

    def _gradient_arr(self, rho: np.ndarray) -> np.ndarray:
        return self._gradient_from(self._forward_arr(rho))

    def value(self, rho) -> float:
        """F(rho); the log/division guard keeps it finite near the PSD boundary."""
        return self._value_arr(entries_of(rho))

    def gradient(self, rho) -> HermitianMatrix:
        """Riesz representative of dF at rho under <A, B> = tr(A B)."""
        return HermitianMatrix(self._gradient_arr(entries_of(rho)))

    def floor_active(self, rho) -> bool:
        """True when some forward value fell below the guard floor."""
        return bool(self.operator.apply(rho).min() < FLOOR)
