"""Forward measurement operators as collections of Hermitian effect matrices.

An operator maps a Hermitian matrix rho to the real array of outcome values
tr(rho E[m, k]) over M settings and K outcomes per setting. It stores only
one real (M*K, N*N) design matrix, whose rows are the effects' coordinates on
an orthonormal basis of Herm(N); apply, adjoint and the least-squares preimage
are products with it. The homodyne operator writes it without an effect array.
Nothing here reads a config: experiments.operator_from_descriptor reads a descriptor.
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
        # An open file, not a path: numpy would read a path through its DataSource,
        # which falls back to path.gz and fetches URLs.
        with open(path, encoding="utf-8") as fh:
            return cls(np.loadtxt(fh, delimiter=",", dtype=float, ndmin=2))


def _data_values(data) -> np.ndarray:
    if isinstance(data, MeasurementData):
        return data.values
    return np.asarray(data, dtype=float)


def _triangle(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of an N x N array's i <= j entries, diagonal first, and of their mirrors."""
    triangle = np.concatenate([np.arange(N) * (N + 1), np.flatnonzero(np.triu(np.ones((N, N)), 1))])
    return triangle, triangle % N * N + triangle // N


class MeasurementOperator:
    """Linear map Herm(N) -> R^(M x K) given by an (M, K, N, N) effect array.

    Row m*K + k of the design matrix, the only stored form, is E[m, k] packed by
    `_pack`, so tr(rho E[m, k]) is the dot product of that row with the packed rho.
    """

    def __init__(self, effects):
        effects = np.array(effects, dtype=np.complex128)
        if effects.ndim != 4 or effects.shape[2] != effects.shape[3]:
            raise ValueError(f"effects must have shape (M, K, N, N), got {effects.shape}")
        if not np.isfinite(effects).all():
            raise ValueError("effects have non-finite entries")
        rows, cols, N = effects.shape[:3]
        triangle, mirror = _triangle(N)
        flat = effects.reshape(rows * cols, N * N)
        # i <= j suffices: the difference at (j, i) negates the real part of the one at (i, j).
        deviation = float(np.abs(flat[:, triangle] - np.conjugate(flat[:, mirror])).max())
        if deviation > HERMITIAN_ATOL:
            raise ValueError(f"effects are not Hermitian: max |E - E*| = {deviation:.3e}")
        self._set_basis(rows, cols, N, triangle)
        packed = flat.view(np.float64)[:, self._offsets].reshape(rows, cols, N * N)
        self._set_design(packed, 1.0)

    def _set_basis(self, rows: int, cols: int, N: int, triangle: np.ndarray) -> None:
        """Set the shape and the packing tables, from `_triangle(N)`'s triangle."""
        self.rows, self.cols, self.dim = rows, cols, N
        # Offsets into the interleaved (re, im) floats of a flattened N x N array.
        self._offsets = np.concatenate([2 * triangle, 2 * triangle[N:] + 1])
        self._scale = np.concatenate([np.ones(N), np.full(N * N - N, np.sqrt(2.0))])
        # Halved diagonal: unpacking adds the upper triangle to its conjugate transpose.
        self._unscale = np.concatenate([np.full(N, 0.5), np.full(N * N - N, np.sqrt(0.5))])

    def _set_design(self, left, right) -> None:
        """Write the design: row m*K + k is (left * right)[m, k] * `_scale`, where left
        and right broadcast to the (M, K, N*N) unscaled coordinates in `_offsets` order."""
        rows, cols, size = self.rows, self.cols, self.dim * self.dim
        # F-ordered (C if one row or column, as ufuncs give), so D @ v keeps to one BLAS kernel.
        if min(rows * cols, self.dim) == 1:
            design = np.empty((rows * cols, size))
            out = design.reshape(rows, cols, size)
        else:
            design = np.empty((rows * cols, size), order="F")
            out = design.T.reshape(size, rows, cols).transpose(1, 2, 0)
        with np.errstate(over="ignore"):  # an entry that overflows fails the check below
            np.multiply(left, right, out=out)
            design *= self._scale
        if not np.isfinite(design).all():
            raise ValueError("effects have non-finite entries")
        design.setflags(write=False)
        self._packed_effects = design

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

    The design is written in one product, D[(theta, k), j] = (c[theta, j] * o[k, j]) * s[j]
    over the packed coordinates j: the phase c is 1 on the diagonal and, at i < j,
    cos((j - i) theta) for the real coordinate and sin((j - i) theta) for the imaginary
    one; o is the symmetrized overlap 0.5 * (I_k[i, j] + I_k[j, i]); s is the basis scale.
    """
    if N < 1:
        raise ValueError(f"dimension must be >= 1, got {N}")
    if quad_order < 2:
        raise ValueError(f"quad_order must be >= 2, got {quad_order}")
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 1 or angles.size < 1:
        raise ValueError("angles must be a nonempty 1-D sequence")
    if not np.isfinite(angles).all():
        raise ValueError("angles must be finite")
    if np.unique(angles).size != angles.size:
        raise ValueError("angles must be distinct")
    edges = np.asarray(bin_edges, dtype=float)
    if not np.isfinite(edges).all():
        raise ValueError("bin_edges must be finite")
    if edges.ndim != 1 or edges.size < 2 or not np.all(edges[1:] > edges[:-1]):
        raise ValueError("bin_edges must be strictly increasing with at least two entries")
    # Every quadrature node lies in its bin, and the Hermite recurrence squares it.
    if not (np.abs(edges) < np.sqrt(np.finfo(float).max)).all():  # 1.34e154
        raise ValueError("bin_edges must give bin widths and midpoints finite when squared")
    # The phases take cos and sin of (j - i) * angle, with j - i up to N - 1.
    bound = np.finfo(float).max / max(N - 1, 1)  # a quotient, so the check cannot overflow
    if not (np.abs(angles) <= bound).all():
        raise ValueError(f"angles must be at most {bound:.3e} in magnitude at dim {N}")
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])

    nodes, weights = np.polynomial.legendre.leggauss(quad_order)
    K = edges.size - 1
    # One recurrence over all K * quad_order nodes, then one Gram matrix per bin.
    x = mid[:, None] + half[:, None] * nodes
    rows = _hermite_rows(N, x.ravel()).reshape(N, K, quad_order)
    scaled = (rows * np.sqrt(half[:, None] * weights)).transpose(1, 0, 2)
    gram = (scaled @ scaled.transpose(0, 2, 1)).reshape(K, N * N)

    triangle, mirror = _triangle(N)
    upper = triangle[N:]  # flat indices i * N + j with i < j
    overlaps = 0.5 * (gram[:, np.r_[triangle, upper]] + gram[:, np.r_[mirror, mirror[N:]]])
    turns = np.multiply.outer(angles, upper % N - upper // N)  # (j - i) * theta
    phases = np.concatenate([np.ones((angles.size, N)), np.cos(turns), np.sin(turns)], axis=1)
    operator = MeasurementOperator.__new__(MeasurementOperator)  # Hermitian by construction
    operator._set_basis(angles.size, K, N, triangle)
    operator._set_design(phases[:, None, :], overlaps)
    return operator
