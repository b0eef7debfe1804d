"""Convex data-fit functionals on the unit-trace PSD set, with exact gradients.

Gradients use the real inner product <A, B> = tr(A B) on Hermitian matrices,
so tr(gradient(rho) @ Delta) is the directional derivative along Delta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermitian import HermitianMatrix
from .operators import MeasurementData, MeasurementOperator

NEG_LOG_LIKELIHOOD = "nll"
LEAST_SQUARES = "l2"
OBJECTIVE_KINDS = (NEG_LOG_LIKELIHOOD, LEAST_SQUARES)

# Forward values below this guard the nll log and division near the PSD boundary.
FLOOR = 1e-12


@dataclass(frozen=True)
class Objective:
    """Data-fit functional F(rho): kind "nll" is -sum y*log(T rho) and kind "l2" is
    0.5*||y - T rho||^2; any other kind, another spelling included, is a ValueError.
    value, gradient and floor_active read an N x N state through operator.apply, its one
    shape check; _value_from and _gradient_from take forward values T rho a solver holds."""

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
        if self.kind not in OBJECTIVE_KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}")

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

    def value(self, rho) -> float:
        """F(rho); the log/division guard keeps it finite near the PSD boundary."""
        return self._value_from(self.operator.apply(rho))

    def gradient(self, rho) -> HermitianMatrix:
        """Riesz representative of dF at rho under <A, B> = tr(A B)."""
        return HermitianMatrix(self._gradient_from(self.operator.apply(rho)))

    def floor_active(self, rho) -> bool:
        """True when some forward value fell below the guard floor."""
        return bool(self.operator.apply(rho).min() < FLOOR)
