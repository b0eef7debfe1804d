import contextlib

import numpy as np
import pytest

from tomokit import DensityLike, random_density, solvers
from tomokit.experiments import operator_from_descriptor, standard_homodyne_descriptor
from tomokit.operators import _hermite_rows, pauli_six_state


@pytest.fixture(scope="session")
def t2():
    return pauli_six_state()


@pytest.fixture(scope="session")
def homodyne10():
    """Reference quadrature operator: dim 10, 15 angles, 50 bins on [-7, 7]."""
    return operator_from_descriptor(standard_homodyne_descriptor())


@pytest.fixture(scope="session")
def homodyne_small():
    """Compact quadrature operator for fast pipeline tests."""
    return operator_from_descriptor(
        standard_homodyne_descriptor(dim=4, n_angles=5, n_bins=12, half_width=6.0)
    )


@pytest.fixture(scope="session")
def small_descriptor():
    return standard_homodyne_descriptor(dim=4, n_angles=5, n_bins=12, half_width=6.0)


def pauli_six_effects() -> np.ndarray:
    """The six Pauli eigenprojectors written out, in the order of pauli_six_state()."""
    return 0.5 * np.array(
        [
            [[[2, 0], [0, 0]], [[0, 0], [0, 2]]],
            [[[1, 1], [1, 1]], [[1, -1], [-1, 1]]],
            [[[1, -1j], [1j, 1]], [[1, 1j], [-1j, 1]]],
        ],
        dtype=np.complex128,
    )


def _reference_overlaps(descriptor: dict) -> tuple[np.ndarray, np.ndarray]:
    """The angles of a homodyne descriptor and its (K, N, N) symmetrized bin overlaps."""
    N, quad_order = descriptor["dim"], descriptor.get("quad_order", 20)
    angles = np.asarray(descriptor["angles"], dtype=float)
    edges = np.asarray(descriptor["bin_edges"], dtype=float)
    nodes, weights = np.polynomial.legendre.leggauss(quad_order)
    K = edges.size - 1
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = mid[:, None] + half[:, None] * nodes
    rows = _hermite_rows(N, x.ravel()).reshape(N, K, quad_order)
    scaled = (rows * np.sqrt(half[:, None] * weights)).transpose(1, 0, 2)
    gram = scaled @ scaled.transpose(0, 2, 1)
    return angles, 0.5 * (gram + gram.transpose(0, 2, 1))


def reference_homodyne_effects(descriptor: dict) -> np.ndarray:
    """The full (M, K, N, N) homodyne effect array of a descriptor, built angle by
    angle with real part cos((n - m) theta) * overlap and imaginary part sin(...) * overlap."""
    angles, overlaps = _reference_overlaps(descriptor)
    N = overlaps.shape[-1]
    effects = np.empty((angles.size,) + overlaps.shape, dtype=np.complex128)
    turns = np.arange(N) - np.arange(N)[:, None]  # n - m at [m, n]
    for m, theta in enumerate(angles):
        effects[m].real = np.cos(turns * theta) * overlaps
        effects[m].imag = np.sin(turns * theta) * overlaps
    return effects


def complex_product_homodyne_effects(descriptor: dict) -> np.ndarray:
    """The same effects built as 0.5 * (raw + raw^H) with the complex raw = phase * overlap."""
    angles, overlaps = _reference_overlaps(descriptor)
    effects = np.empty((angles.size,) + overlaps.shape, dtype=np.complex128)
    orders = np.arange(overlaps.shape[-1])
    for m, theta in enumerate(angles):
        u = np.exp(1j * orders * theta)
        raw = np.outer(u.conj(), u) * overlaps
        np.add(raw, raw.conj().swapaxes(-1, -2), out=effects[m])
        effects[m] *= 0.5
    return effects


def maximally_mixed(N: int) -> DensityLike:
    return DensityLike.from_array(np.eye(N, dtype=complex) / N)


def conditioned_full_rank(N: int, seed: int, mix: float = 0.3) -> DensityLike:
    """Random full-rank state kept away from the PSD boundary."""
    raw = random_density(N, N, seed).entries
    return DensityLike.from_array((1.0 - mix) * raw + mix * np.eye(N) / N)


@contextlib.contextmanager
def kept_iterates():
    """Yield a list that collects, as densities, every state at which the plain
    factorized step is prepared while the block runs: the start and each accepted
    iterate of a plain fgd_solve, and so of gm_solve."""
    kept = []
    prepare = solvers._fgd_prepare

    def keeping_prepare(X, X_prev, g):
        kept.append(DensityLike.from_array(solvers._outer(X)))
        return prepare(X, X_prev, g)

    solvers._fgd_prepare = keeping_prepare
    try:
        yield kept
    finally:
        solvers._fgd_prepare = prepare


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows = []
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            if getattr(report, "when", None) != "call":
                continue
            if "test_acceptance" in report.nodeid:
                rows.append((report.nodeid.split("::")[-1], status))
    if rows:
        terminalreporter.write_sep("=", "acceptance criteria")
        for name, status in sorted(rows):
            flag = "PASS" if status == "passed" else "FAIL"
            terminalreporter.write_line(f"{flag}  {name}")
