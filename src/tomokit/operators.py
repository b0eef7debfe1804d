"""Forward measurement operators as collections of Hermitian effect matrices.

An operator maps a Hermitian matrix rho to the real array of outcome values
tr(rho E[m, k]) over M settings and K outcomes per setting. It stores only
one real (M*K, N*N) design matrix, whose rows are the effects' coordinates on
an orthonormal basis of Herm(N); apply, adjoint and the least-squares preimage
are products with it. The homodyne operator writes it without an effect array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermitian import (
    HERMITIAN_ATOL,
    HermitianMatrix,
    _json_floats,
    _json_number,
    _json_object,
    _json_of,
    entries_of,
)

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
        return cls(np.loadtxt(path, delimiter=",", dtype=float, ndmin=2))


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
        tri = flat[:, triangle]
        # i <= j suffices: the difference at (j, i) negates the real part of the one at (i, j).
        deviation = float(np.abs(tri - np.conjugate(flat[:, mirror])).max())
        if deviation > HERMITIAN_ATOL:
            raise ValueError(f"effects are not Hermitian: max |E - E*| = {deviation:.3e}")
        self._set_design(rows, cols, N, tri.reshape(rows, cols, -1))

    def _set_design(self, rows: int, cols: int, N: int, blocks) -> None:
        """Pack blocks[m][k], the i <= j entries of E[m, k] in `_triangle` order, as the design."""
        triangle, size = _triangle(N)[0], N * (N + 1) // 2
        self.rows, self.cols, self.dim = rows, cols, N
        # Offsets into the interleaved (re, im) floats of a flattened N x N array.
        self._offsets = np.concatenate([2 * triangle, 2 * triangle[N:] + 1])
        self._scale = np.concatenate([np.ones(N), np.full(N * N - N, np.sqrt(2.0))])
        # Halved diagonal: unpacking adds the upper triangle to its conjugate transpose.
        self._unscale = np.concatenate([np.full(N, 0.5), np.full(N * N - N, np.sqrt(0.5))])
        # F-ordered (C if one row or column, as ufuncs give), so D @ v keeps to one BLAS kernel.
        order = "C" if min(rows * cols, N) == 1 else "F"
        self._packed_effects = design = np.empty((rows * cols, N * N), order=order)
        for m, tri in enumerate(blocks):
            out = design[m * cols : (m + 1) * cols]
            np.multiply(tri.real, self._scale[:size], out=out[:, :size])
            np.multiply(tri[:, N:].imag, self._scale[size:], out=out[:, size:])
        if not np.isfinite(design).all():
            raise ValueError("effects have non-finite entries")
        design.setflags(write=False)

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
    if edges.ndim != 1 or edges.size < 2 or not np.all(np.diff(edges) > 0):
        raise ValueError("bin_edges must be strictly increasing with at least two entries")

    nodes, weights = np.polynomial.legendre.leggauss(quad_order)
    K = edges.size - 1
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    # One recurrence over all K * quad_order nodes, then one Gram matrix per bin.
    x = mid[:, None] + half[:, None] * nodes
    rows = _hermite_rows(N, x.ravel()).reshape(N, K, quad_order)
    scaled = (rows * np.sqrt(half[:, None] * weights)).transpose(1, 0, 2)
    gram = (scaled @ scaled.transpose(0, 2, 1)).reshape(K, N * N)

    # Per angle, E = 0.5 * (raw + raw^H) at i <= j from raw = phase * overlap at (i, j) and
    # (j, i), whose overlaps are equal: symmetrizing only the phases would keep FMA residue.
    triangle, mirror = _triangle(N)
    overlap = 0.5 * (gram[:, triangle] + gram[:, mirror])
    phases = (np.outer(u.conj(), u).ravel() for u in np.exp(1j * np.arange(N) * angles[:, None]))
    blocks = ((p[triangle] * overlap + np.conjugate(p[mirror] * overlap)) * 0.5 for p in phases)
    operator = MeasurementOperator.__new__(MeasurementOperator)  # Hermitian by construction
    operator._set_design(angles.size, K, N, blocks)
    return operator


# --- descriptors -------------------------------------------------------------

def _config_number(value, name: str, kind=float):
    """A number config field: _json_number, with the config field's name in its error."""
    return _json_number(value, f"config field {name}", kind)


def operator_from_descriptor(descriptor: dict) -> MeasurementOperator:
    """Build an operator from its JSON descriptor (kinds: pauli6, homodyne). A key
    that the kind does not take is an error, so a mistyped one cannot fall back
    to a default."""
    kind = _json_of(descriptor, "operator", dict).get("kind")
    if kind == "pauli6":
        _json_object(descriptor, "operator", ("kind",))
        return pauli_six_state()
    if kind == "homodyne":
        _json_object(descriptor, "operator", ("kind", "dim", "angles", "bin_edges", "quad_order"))
        try:
            return homodyne_operator(
                _config_number(descriptor["dim"], "operator.dim", int),
                _json_floats(descriptor["angles"], "config field operator.angles"),
                _json_floats(descriptor["bin_edges"], "config field operator.bin_edges"),
                _config_number(descriptor.get("quad_order", 20), "operator.quad_order", int),
            )
        except KeyError as exc:
            raise ValueError(f"homodyne descriptor missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed homodyne descriptor: {exc}") from exc
    raise ValueError(f"unknown operator kind {kind!r}")
