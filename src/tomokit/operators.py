"""Forward measurement operators as collections of Hermitian effect matrices.

An operator maps a Hermitian matrix rho to the real array of outcome values
tr(rho E[m, k]) over M settings and K outcomes per setting. At construction
the effects are packed into one real (M*K, N*N) design matrix, whose rows
are their coordinates on an orthonormal basis of Herm(N); apply, adjoint and
the least-squares preimage are all products with that matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermitian import HERMITIAN_ATOL, HermitianMatrix, entries_of

DATA_NEG_TOL = 1e-12


class RankDeficiencyError(ValueError):
    """The effects do not span Herm(N); least-squares preimages are not unique."""


@dataclass(frozen=True)
class MeasurementData:
    """Nonnegative M x K array of observed outcome values."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"data must be a 2-D array, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("data has non-finite entries")
        low = float(arr.min())
        if low < -DATA_NEG_TOL:
            raise ValueError(f"data has negative entry {low:.3e}")
        np.clip(arr, 0.0, None, out=arr)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def save_csv(self, path) -> None:
        np.savetxt(path, self.values, delimiter=",", fmt="%.17g")

    @classmethod
    def load_csv(cls, path) -> "MeasurementData":
        arr = np.atleast_2d(np.loadtxt(path, delimiter=",", dtype=float))
        return cls(arr)


def _data_values(data) -> np.ndarray:
    if isinstance(data, MeasurementData):
        return data.values
    return np.asarray(data, dtype=float)


class MeasurementOperator:
    """Linear map Herm(N) -> R^(M x K) given by an (M, K, N, N) effect array.

    Row m*K + k of the design matrix is E[m, k] packed by `_pack`, so
    tr(rho E[m, k]) is the dot product of that row with the packed rho.
    """

    def __init__(self, effects):
        effects = np.array(effects, dtype=np.complex128)
        if effects.ndim != 4 or effects.shape[2] != effects.shape[3]:
            raise ValueError(f"effects must have shape (M, K, N, N), got {effects.shape}")
        if not np.isfinite(effects).all():
            raise ValueError("effects have non-finite entries")
        deviation = float(np.abs(effects - effects.conj().swapaxes(-1, -2)).max())
        if deviation > HERMITIAN_ATOL:
            raise ValueError(f"effects are not Hermitian: max |E - E*| = {deviation:.3e}")
        effects.setflags(write=False)
        self.effects = effects
        self.rows, self.cols, self.dim = effects.shape[0], effects.shape[1], effects.shape[2]
        N = self.dim
        diagonal = np.arange(N) * (N + 1)
        upper = np.flatnonzero(np.triu(np.ones((N, N), dtype=bool), 1))
        # Offsets into the interleaved (re, im) floats of a flattened N x N array.
        self._offsets = np.concatenate([2 * diagonal, 2 * upper, 2 * upper + 1])
        self._scale = np.concatenate([np.ones(N), np.full(2 * upper.size, np.sqrt(2.0))])
        # Halved diagonal: unpacking adds the upper triangle to its conjugate transpose.
        self._unscale = np.concatenate([np.full(N, 0.5), np.full(2 * upper.size, np.sqrt(0.5))])
        flat = effects.reshape(self.rows * self.cols, N * N).view(np.float64)
        self._packed_effects = flat[:, self._offsets] * self._scale

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def _pack(self, H: np.ndarray) -> np.ndarray:
        """Coordinates of a Hermitian array on the orthonormal basis of Herm(N)
        under <A, B> = tr(AB): the diagonal, then sqrt(2) Re and sqrt(2) Im of
        the strict upper triangle (the lower triangle is not read)."""
        return H.ravel().view(np.float64)[self._offsets] * self._scale

    def _unpack(self, v: np.ndarray) -> np.ndarray:
        """The exactly Hermitian array with basis coordinates v."""
        half = np.zeros(2 * self.dim * self.dim)
        half[self._offsets] = v * self._unscale
        half = half.view(np.complex128).reshape(self.dim, self.dim)
        return half + half.conj().T

    def _apply_arr(self, rho: np.ndarray) -> np.ndarray:
        return (self._packed_effects @ self._pack(rho)).reshape(self.rows, self.cols)

    def apply(self, rho) -> np.ndarray:
        """Outcome array with entry (m, k) = tr(rho E[m, k]) for Hermitian rho."""
        arr = entries_of(rho)
        if arr.shape != (self.dim, self.dim):
            raise ValueError(f"state shape {arr.shape} does not match dim {self.dim}")
        return self._apply_arr(arr)

    def _adjoint_arr(self, z: np.ndarray) -> np.ndarray:
        return self._unpack(self._packed_effects.T @ z.ravel())

    def adjoint(self, z) -> HermitianMatrix:
        """Weighted effect sum: adjoint(z) = sum_{m,k} z[m,k] E[m,k]."""
        arr = _data_values(z)
        if arr.shape != (self.rows, self.cols):
            raise ValueError(f"weight shape {arr.shape} does not match {(self.rows, self.cols)}")
        return HermitianMatrix(self._adjoint_arr(arr))

    def pseudo_inverse_apply(self, y) -> HermitianMatrix:
        """Least-squares Hermitian preimage of an outcome array.

        Solves min_H ||apply(H) - y||_2 over Herm(N) with the design matrix;
        requires the effects to span Herm(N).
        """
        values = _data_values(y)
        if values.shape != (self.rows, self.cols):
            raise ValueError(f"data shape {values.shape} does not match {(self.rows, self.cols)}")
        coef, _residual, rank, _sv = np.linalg.lstsq(
            self._packed_effects, values.ravel(), rcond=None
        )
        if rank < self.dim * self.dim:
            raise RankDeficiencyError(f"effects span only a proper subspace of Herm({self.dim})")
        return HermitianMatrix(self._unpack(coef))


def pauli_six_state() -> MeasurementOperator:
    """Qubit operator measuring both eigenvectors of each of the three Pauli bases."""
    up = np.array([[1, 0], [0, 0]], dtype=np.complex128)
    down = np.array([[0, 0], [0, 1]], dtype=np.complex128)
    plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=np.complex128)
    minus = 0.5 * np.array([[1, -1], [-1, 1]], dtype=np.complex128)
    right = 0.5 * np.array([[1, -1j], [1j, 1]], dtype=np.complex128)
    left = 0.5 * np.array([[1, 1j], [-1j, 1]], dtype=np.complex128)
    effects = np.array([[up, down], [plus, minus], [right, left]])
    return MeasurementOperator(effects)


def hermite_function(m: int, x) -> np.ndarray | float:
    """Orthonormal Hermite function h_m(x) = (2^m m! sqrt(pi))^(-1/2) H_m(x) e^(-x^2/2).

    Uses the stable two-term recurrence; underflow far in the tails returns 0.
    """
    if m < 0:
        raise ValueError(f"order must be nonnegative, got {m}")
    arr = np.asarray(x, dtype=float)
    rows = _hermite_rows(m + 1, np.atleast_1d(arr))
    out = rows[m]
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _hermite_rows(count: int, x: np.ndarray) -> np.ndarray:
    """First `count` Hermite functions evaluated at the nodes x, shape (count, len(x))."""
    rows = np.zeros((count, x.size), dtype=float)
    rows[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if count > 1:
        rows[1] = np.sqrt(2.0) * x * rows[0]
    for n in range(1, count - 1):
        rows[n + 1] = x * np.sqrt(2.0 / (n + 1)) * rows[n] - np.sqrt(n / (n + 1)) * rows[n - 1]
    return rows


def homodyne_operator(
    N: int,
    angles,
    bin_edges,
    quad_order: int = 20,
) -> MeasurementOperator:
    """Binned quadrature-measurement operator on an N-dimensional number basis.

    Effect (E[theta, k])[m, n] = exp(i (n - m) theta) * I_k[m, n] where
    I_k[m, n] integrates h_m h_n over bin k by Gauss-Legendre quadrature with
    `quad_order` nodes per bin. Effects are Hermitian by construction.
    """
    if N < 1:
        raise ValueError(f"dimension must be >= 1, got {N}")
    if quad_order < 2:
        raise ValueError(f"quad_order must be >= 2, got {quad_order}")
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 1 or angles.size < 1:
        raise ValueError("angles must be a nonempty 1-D sequence")
    if np.unique(angles).size != angles.size:
        raise ValueError("angles must be distinct")
    edges = np.asarray(bin_edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or not np.all(np.diff(edges) > 0):
        raise ValueError("bin_edges must be strictly increasing with at least two entries")

    nodes, weights = np.polynomial.legendre.leggauss(quad_order)
    K = edges.size - 1
    overlaps = np.empty((K, N, N), dtype=float)
    for k in range(K):
        half = 0.5 * (edges[k + 1] - edges[k])
        mid = 0.5 * (edges[k + 1] + edges[k])
        x = mid + half * nodes
        scaled = _hermite_rows(N, x) * np.sqrt(half * weights)
        gram = scaled @ scaled.T
        overlaps[k] = 0.5 * (gram + gram.T)

    effects = np.empty((angles.size, K, N, N), dtype=np.complex128)
    orders = np.arange(N)
    for m, theta in enumerate(angles):
        u = np.exp(1j * orders * theta)
        phase = np.outer(u.conj(), u)
        raw = phase[None, :, :] * overlaps
        # exact conjugate symmetry (complex multiply may carry FMA residue)
        effects[m] = 0.5 * (raw + raw.conj().swapaxes(-1, -2))
    return MeasurementOperator(effects)


# --- descriptors -------------------------------------------------------------

def operator_from_descriptor(descriptor: dict) -> MeasurementOperator:
    """Build an operator from its JSON descriptor (kinds: pauli6, homodyne)."""
    kind = descriptor.get("kind")
    if kind == "pauli6":
        return pauli_six_state()
    if kind == "homodyne":
        try:
            return homodyne_operator(
                int(descriptor["dim"]),
                descriptor["angles"],
                descriptor["bin_edges"],
                int(descriptor.get("quad_order", 20)),
            )
        except KeyError as exc:
            raise ValueError(f"homodyne descriptor missing field {exc}") from exc
    raise ValueError(f"unknown operator kind {kind!r}")
