"""Dense linear algebra for small quantum systems.

Kets are one-dimensional numpy arrays, operators are square two-dimensional
arrays, and a family of either is one stack along leading axes.  Composite
spaces use row-major subsystem ordering, i.e. the first tensor factor
varies slowest, matching ``numpy.kron``.  The helpers keep their input's
dtype; the package's own data are float64, read by :func:`real_array`.

The tolerances in use:

* ``ATOL_ALGEBRA`` (1e-12): exact algebraic identities, such as the
  Hermiticity of the SDP data,
* ``ATOL_PSD`` (1e-9): sorted eigenvalues closer than this form one
  eigenspace in :func:`dpsqkd.dps.spectral_error_terms`,
* :func:`is_psd` (1e-9 and a caller's ``atol``): the Hermiticity and the
  smallest eigenvalue of an operator stack, which :func:`is_density` takes
  at 1e-7, with unit trace within 1e-8, loose enough for solver clones.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

ATOL_ALGEBRA = 1e-12
ATOL_PSD = 1e-9


def real_array(a, what: str) -> np.ndarray:
    """A new float64 copy of ``a``: DPS phases are 0 or pi, so every state,
    POVM, clone and SDP operator is real.  A nonzero imaginary part, or a
    ragged ``a``, raises ``ValueError`` naming ``what``."""
    try:
        a = np.asarray(a)
    except ValueError as exc:  # a ragged sequence
        raise ValueError(f"{what} must share one dimension") from exc
    if np.iscomplexobj(a) and a.imag.any():  # NaN counts as nonzero
        raise ValueError(f"{what} must be real: DPS phases are 0 or pi")
    return np.array(np.real(a), dtype=float)


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of an operator, or of each operator in a stack;
    for real input a transposed view, not a copy."""
    return np.asarray(a).swapaxes(-1, -2).conj()


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^dagger) / 2 of an operator, or of each operator in a stack."""
    return (a + dagger(a)) / 2


def outer(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| of a ket, or the (..., d, d) stack of those of a (..., d)
    stack of kets."""
    psi = np.asarray(psi)
    return psi[..., :, None] * psi[..., None, :].conj()


def is_psd(a: np.ndarray, atol: float) -> bool:
    """True if ``a``, or every operator of a stack (..., d, d), is finite,
    Hermitian within 1e-9 and has no eigenvalue below -``atol``."""
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or not np.all(np.isfinite(a)):
        return False
    return bool(np.all(np.abs(a - dagger(a)) <= 1e-9)
                and np.min(np.linalg.eigvalsh(hermitian_part(a))) >= -atol)


def is_density(rho: np.ndarray) -> bool:
    """True if ``rho``, or every operator of a stack (..., d, d), is a
    density operator: PSD by :func:`is_psd` at 1e-7, of unit trace within 1e-8."""
    return is_psd(rho, 1e-7) and bool(
        np.all(np.abs(np.trace(rho, axis1=-2, axis2=-1).real - 1.0) <= 1e-8))


def partial_trace(x: np.ndarray, dims: Sequence[int],
                  keep: Iterable[int]) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep``.

    ``dims`` gives the subsystem dimensions in tensor order; their product
    must equal the operator dimension.  The retained subsystems keep their
    relative order.  The total trace is preserved exactly up to rounding.
    """
    x = np.asarray(x)
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
