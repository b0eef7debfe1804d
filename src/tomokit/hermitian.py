"""Dense complex Hermitian matrices and unit-trace density matrices for small
dimensions (N <~ 100), with the JSON file format of a matrix.

Everything here is a pure function over immutable values; instances are
safe to share between threads.
"""

from __future__ import annotations

import json
import numbers
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
    """Unwrap a HermitianMatrix (a DensityLike is one) to its complex array; pass arrays through."""
    if isinstance(value, HermitianMatrix):
        return value.entries
    return np.asarray(value, dtype=np.complex128)


@dataclass(frozen=True)
class HermitianMatrix:
    """An N x N complex matrix, certified Hermitian when built from an array or HermitianMatrix."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _as_square_complex(entries_of(self.entries))
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


class DensityLike(HermitianMatrix):
    """A Hermitian matrix certified positive semi-definite with unit trace."""

    def __post_init__(self):
        super().__post_init__()
        tr = self.trace()
        if abs(tr - 1.0) > TRACE_RTOL:
            raise ValueError(f"trace {tr!r} deviates from 1")
        min_eig = float(np.linalg.eigvalsh(self.entries)[0])
        if min_eig < -PSD_EIG_TOL:
            raise ValueError(f"matrix is not PSD: min eigenvalue {min_eig:.3e}")

    @classmethod
    def from_array(cls, entries) -> "DensityLike":
        return cls(entries)


def trace_norm(A) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.abs(np.linalg.eigvalsh(entries_of(A))).sum())


def _project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto {x >= 0, sum(x) = 1}."""
    u = np.sort(v)[::-1]
    shifted = np.cumsum(u) - 1.0
    counts = np.arange(1, v.size + 1)
    k = counts[u - shifted / counts > 0][-1]
    tau = shifted[k - 1] / k
    return np.maximum(v - tau, 0.0)


def _project_density_arr(arr: np.ndarray) -> np.ndarray:
    arr = 0.5 * (arr + arr.conj().T)
    vals, vecs = np.linalg.eigh(arr)
    projected = _project_to_simplex(vals)
    out = (vecs * projected) @ vecs.conj().T
    return 0.5 * (out + out.conj().T)


def project_to_density(H) -> DensityLike:
    """Frobenius-nearest PSD matrix with unit trace.

    Eigendecomposes and projects the spectrum onto the simplex
    {lambda >= 0, sum(lambda) = 1}; by unitary invariance this is the exact
    metric projection.
    """
    return DensityLike.from_array(_project_density_arr(entries_of(H)))


def random_density(N: int, r: int, seed: int) -> DensityLike:
    """Random trace-one state of rank exactly r (induced Ginibre ensemble)."""
    if not 1 <= r <= N:
        raise ValueError(f"rank must satisfy 1 <= r <= {N}, got {r}")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N, r)) + 1j * rng.standard_normal((N, r))
    rho = X @ X.conj().T
    rho /= rho.trace().real
    rho = 0.5 * (rho + rho.conj().T)
    return DensityLike.from_array(rho)


def random_hermitian(N: int, seed: int) -> HermitianMatrix:
    """Random Hermitian matrix with i.i.d. Gaussian entries (test fodder)."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    return HermitianMatrix(0.5 * (G + G.conj().T))


# --- serialization -----------------------------------------------------------

def _json_number(value, name: str, kind=float):
    """A numeric JSON field, converted by `kind` (float or int); `name` labels it in
    the error. Only a real number that is not a boolean counts (an int, a float or
    a numpy number, not a string), and an int field rejects a non-integral value
    instead of truncating it."""
    try:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise TypeError("not a number")
        number = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} must be a number, got {value!r}") from exc
    if kind is int and number != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return number


def _json_floats(value, name: str) -> np.ndarray:
    """A JSON list of numbers, or a list of such lists, as a float array; every
    element that is not a float goes through _json_number."""
    items = np.array(value, dtype=object)
    for v in items.flat:
        if type(v) is not float:
            _json_number(v, name)
    return items.astype(float)


def matrix_to_json_dict(H) -> dict:
    arr = entries_of(H)
    return {
        "dim": int(arr.shape[0]),
        "re": arr.real.tolist(),
        "im": arr.imag.tolist(),
    }


def matrix_from_json_dict(payload: dict) -> HermitianMatrix:
    try:
        dim = _json_number(payload["dim"], "field dim", int)
        re = _json_floats(payload["re"], "field re")
        im = _json_floats(payload["im"], "field im")
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
