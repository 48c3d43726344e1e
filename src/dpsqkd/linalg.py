"""Dense complex linear algebra for small quantum systems.

Kets are one-dimensional complex numpy arrays, operators are square
two-dimensional arrays.  Composite spaces use row-major subsystem ordering,
i.e. the first tensor factor varies slowest, matching ``numpy.kron``.

The tolerance ladder used throughout the package:

* ``ATOL_ALGEBRA`` (1e-12): exact algebraic identities,
* ``ATOL_TRACE`` (1e-10): trace and completeness checks,
* ``ATOL_PSD`` (1e-9): eigenvalue slack accepted as "positive semidefinite".

These levels match double-precision accumulation for dimensions up to ~32,
which covers everything this package touches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

ATOL_ALGEBRA = 1e-12
ATOL_TRACE = 1e-10
ATOL_PSD = 1e-9


def ket(amplitudes: Sequence[complex]) -> np.ndarray:
    """Return a complex state vector (no normalisation is applied)."""
    v = np.asarray(amplitudes, dtype=complex)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("a ket must be a non-empty one-dimensional vector")
    return v


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of an operator, or of each operator in a stack."""
    return np.conj(np.swapaxes(a, -1, -2))


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^dagger) / 2 of an operator, or of each operator in a stack."""
    return (a + dagger(a)) / 2


def outer(psi: np.ndarray) -> np.ndarray:
    """Density operator |psi><psi| of a ket."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def tensor(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of kets and/or operators, first factor slowest."""
    if not factors:
        raise ValueError("tensor() needs at least one factor")
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


def is_hermitian(h: np.ndarray, atol: float = ATOL_ALGEBRA) -> bool:
    h = np.asarray(h)
    return h.ndim == 2 and h.shape[0] == h.shape[1] and bool(
        np.all(np.abs(h - dagger(h)) <= atol)
    )


def is_density(rho: np.ndarray, trace_atol: float = ATOL_TRACE,
               psd_atol: float = ATOL_PSD) -> bool:
    """True if ``rho`` is Hermitian, unit trace and PSD within tolerance."""
    rho = np.asarray(rho, dtype=complex)
    if not is_hermitian(rho, atol=1e-9):
        return False
    if abs(np.trace(rho).real - 1.0) > trace_atol:
        return False
    return float(np.min(np.linalg.eigvalsh(hermitian_part(rho)))) >= -psd_atol


def partial_trace(x: np.ndarray, dims: Sequence[int],
                  keep: Iterable[int]) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep``.

    ``dims`` gives the subsystem dimensions in tensor order; their product
    must equal the operator dimension.  The retained subsystems keep their
    relative order.  The total trace is preserved exactly up to rounding.
    """
    x = np.asarray(x, dtype=complex)
    dims = list(dims)
    k = len(dims)
    d = int(np.prod(dims))
    if x.shape != (d, d):
        raise ValueError(
            f"dimension mismatch: operator is {x.shape}, subsystem dims {dims}"
        )
    keep = sorted(set(keep))
    if any(i < 0 or i >= k for i in keep):
        raise ValueError(f"keep indices {keep} out of range for {k} subsystems")

    t = x.reshape(dims + dims)
    row_sub = list(range(k))
    col_sub = [i if i not in keep else k + 1 + i for i in range(k)]
    out_sub = [i for i in keep] + [k + 1 + i for i in keep]
    kept_d = int(np.prod([dims[i] for i in keep])) if keep else 1
    return np.einsum(t, row_sub + col_sub, out_sub).reshape(kept_d, kept_d)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigen-data of a Hermitian operator.

    ``eigenvalues`` are real and sorted descending; ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns.  For degenerate eigenvalues
    the returned vectors are one valid orthonormal basis of the eigenspace;
    callers must not rely on a particular choice.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ dagger(v)


def eig_hermitian(h: np.ndarray, atol: float = 1e-9) -> SpectralDecomposition:
    """Diagonalise a Hermitian operator with LAPACK (``numpy.linalg.eigh``).

    Eigenvalues come back in descending order with orthonormal eigenvector
    columns.  Raises ``ValueError`` when the input is not square or not
    Hermitian within ``atol``.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("eig_hermitian expects a square operator")
    if not is_hermitian(h, atol=atol):
        raise ValueError("input is not Hermitian within tolerance")
    eigs, v = np.linalg.eigh(hermitian_part(h))
    return SpectralDecomposition(eigs[::-1], v[:, ::-1])


def fidelity_pure(psi: np.ndarray, rho: np.ndarray) -> float:
    """Overlap <psi|rho|psi> of a pure state with a density operator."""
    psi = np.asarray(psi, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if psi.ndim != 1 or rho.shape != (psi.size, psi.size):
        raise ValueError("dimension mismatch between ket and operator")
    val = complex(psi.conj() @ rho @ psi)
    return float(val.real)


def min_eigenvalue(h: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian operator (symmetrised first)."""
    h = np.asarray(h, dtype=complex)
    return float(eig_hermitian(hermitian_part(h)).eigenvalues[-1])
