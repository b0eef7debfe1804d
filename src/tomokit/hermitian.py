"""Dense complex Hermitian matrix algebra for small dimensions (N <~ 100).

Everything here is a pure function over immutable values; instances are
safe to share between threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# Construction / certification tolerances.
HERMITIAN_ATOL = 1e-12
PSD_EIG_TOL = 1e-9
TRACE_RTOL = 1e-9


def _as_square_complex(entries) -> np.ndarray:
    arr = np.array(entries, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def entries_of(value) -> np.ndarray:
    """Unwrap HermitianMatrix/DensityLike to a plain complex array (pass arrays through)."""
    if isinstance(value, DensityLike):
        return value.matrix.entries
    if isinstance(value, HermitianMatrix):
        return value.entries
    return np.asarray(value, dtype=np.complex128)


@dataclass(frozen=True)
class HermitianMatrix:
    """An N x N complex matrix certified Hermitian at construction."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _as_square_complex(self.entries)
        if not np.isfinite(arr).all():
            raise ValueError("matrix has non-finite entries")
        deviation = float(np.abs(arr - arr.conj().T).max())
        if deviation > HERMITIAN_ATOL:
            raise ValueError(
                f"matrix is not Hermitian: max elementwise |A - A*| = {deviation:.3e}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return float(self.entries.trace().real)


@dataclass(frozen=True)
class DensityLike:
    """A Hermitian matrix certified positive semi-definite with a fixed trace."""

    matrix: HermitianMatrix
    trace_target: float = 1.0

    def __post_init__(self):
        if not isinstance(self.matrix, HermitianMatrix):
            object.__setattr__(self, "matrix", HermitianMatrix(self.matrix))
        c = float(self.trace_target)
        if not 0 < c < math.inf:
            raise ValueError(f"trace_target must be positive and finite, got {c}")
        object.__setattr__(self, "trace_target", c)
        tr = self.matrix.trace()
        if abs(tr - c) > TRACE_RTOL * c:
            raise ValueError(f"trace {tr!r} deviates from target {c!r}")
        min_eig = float(np.linalg.eigvalsh(self.matrix.entries)[0])
        if min_eig < -PSD_EIG_TOL:
            raise ValueError(f"matrix is not PSD: min eigenvalue {min_eig:.3e}")

    @classmethod
    def from_array(cls, entries, trace_target: float = 1.0) -> "DensityLike":
        return cls(HermitianMatrix(entries), trace_target)

    @property
    def entries(self) -> np.ndarray:
        return self.matrix.entries

    @property
    def dim(self) -> int:
        return self.matrix.dim


def trace_norm(A) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.abs(np.linalg.eigvalsh(entries_of(A))).sum())


def _project_to_scaled_simplex(v: np.ndarray, c: float) -> np.ndarray:
    """Euclidean projection of a real vector onto {x >= 0, sum(x) = c}."""
    u = np.sort(v)[::-1]
    shifted = np.cumsum(u) - c
    counts = np.arange(1, v.size + 1)
    k = counts[u - shifted / counts > 0][-1]
    tau = shifted[k - 1] / k
    return np.maximum(v - tau, 0.0)


def _project_density_arr(arr: np.ndarray, c: float) -> np.ndarray:
    arr = 0.5 * (arr + arr.conj().T)
    vals, vecs = np.linalg.eigh(arr)
    projected = _project_to_scaled_simplex(vals, c)
    out = (vecs * projected) @ vecs.conj().T
    return 0.5 * (out + out.conj().T)


def project_to_density(H, c: float = 1.0) -> DensityLike:
    """Frobenius-nearest PSD matrix with trace c.

    Eigendecomposes and projects the spectrum onto the simplex
    {lambda >= 0, sum(lambda) = c}; by unitary invariance this is the exact
    metric projection.
    """
    if not c > 0:
        raise ValueError(f"c must be positive, got {c}")
    return DensityLike.from_array(_project_density_arr(entries_of(H), c), c)


def random_density(N: int, r: int, seed: int) -> DensityLike:
    """Random trace-one state of rank exactly r (induced Ginibre ensemble)."""
    if not 1 <= r <= N:
        raise ValueError(f"rank must satisfy 1 <= r <= {N}, got {r}")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N, r)) + 1j * rng.standard_normal((N, r))
    rho = X @ X.conj().T
    rho /= rho.trace().real
    rho = 0.5 * (rho + rho.conj().T)
    return DensityLike.from_array(rho, 1.0)


def random_hermitian(N: int, seed: int, scale: float = 1.0) -> HermitianMatrix:
    """Random Hermitian matrix with i.i.d. Gaussian entries (test fodder)."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    return HermitianMatrix(scale * 0.5 * (G + G.conj().T))


# --- serialization -----------------------------------------------------------

def matrix_to_json_dict(H) -> dict:
    arr = entries_of(H)
    return {
        "dim": int(arr.shape[0]),
        "re": arr.real.tolist(),
        "im": arr.imag.tolist(),
    }


def matrix_from_json_dict(payload: dict) -> HermitianMatrix:
    try:
        dim = int(payload["dim"])
        re = np.asarray(payload["re"], dtype=float)
        im = np.asarray(payload["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix payload: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValueError(
            f"matrix payload shapes {re.shape}/{im.shape} do not match dim {dim}"
        )
    return HermitianMatrix(re + 1j * im)


def save_matrix(path, H) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json_dict(H), fh, sort_keys=True)
        fh.write("\n")


def load_matrix(path) -> HermitianMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_json_dict(json.load(fh))
