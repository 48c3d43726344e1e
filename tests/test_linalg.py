import numpy as np
import pytest
from numpy.testing import assert_allclose

from dpsqkd.linalg import eig_hermitian, outer, partial_trace

S3 = np.sqrt(3.0)
PSI_PP = np.array([1.0, 1.0, 1.0]) / S3
# optimal single-clone output of the all-plus state: diagonal 1/3, off-diagonal 5/21
CLONED_PP = np.full((3, 3), 5.0 / 21.0) + np.eye(3) * (1.0 / 3.0 - 5.0 / 21.0)


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------

def test_partial_trace_product_state(rng):
    rho = outer(PSI_PP)
    sigma = random_hermitian(rng, 3)
    sigma = sigma @ sigma.conj().T
    sigma /= np.trace(sigma).real
    assert_allclose(partial_trace(np.kron(rho, sigma), [3, 3], keep=[0]), rho, atol=1e-12)


def test_partial_trace_identity():
    assert_allclose(partial_trace(np.eye(9, dtype=complex), [3, 3], keep=[0]),
                    3.0 * np.eye(3), atol=1e-12)


def test_partial_trace_preserves_trace(rng):
    x = random_hermitian(rng, 12)
    for keep in ([0], [1], [0, 1], [0, 2], [2]):
        reduced = partial_trace(x, [2, 3, 2], keep=keep)
        assert np.trace(reduced) == pytest.approx(np.trace(x), abs=1e-10)


def test_partial_trace_complementary_sets_trace_compatible(rng):
    x = random_hermitian(rng, 6)
    ta = np.trace(partial_trace(x, [2, 3], keep=[0]))
    tb = np.trace(partial_trace(x, [2, 3], keep=[1]))
    assert ta == pytest.approx(tb, abs=1e-10)
    assert ta == pytest.approx(np.trace(x), abs=1e-10)


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        partial_trace(np.eye(5), [2, 3], keep=[0])


# ---------------------------------------------------------------------------
# eigendecomposition
# ---------------------------------------------------------------------------

def test_eig_identity():
    dec = eig_hermitian(np.eye(3))
    assert_allclose(dec.eigenvalues, np.ones(3), atol=1e-12)
    assert_allclose(dec.eigenvectors.conj().T @ dec.eigenvectors, np.eye(3), atol=1e-10)


def test_eig_pure_state():
    dec = eig_hermitian(outer(PSI_PP))
    assert_allclose(dec.eigenvalues, [1.0, 0.0, 0.0], atol=1e-12)
    top = dec.eigenvectors[:, 0]
    assert abs(abs(np.vdot(top, PSI_PP)) - 1.0) < 1e-10


def test_eig_cloned_state_spectrum():
    dec = eig_hermitian(CLONED_PP)
    assert_allclose(dec.eigenvalues, [17.0 / 21.0, 2.0 / 21.0, 2.0 / 21.0], atol=1e-12)
    # and the printed two-decimal spectrum to its own coarser precision
    assert_allclose(dec.eigenvalues, [0.81, 0.095, 0.095], atol=5e-3)


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16, 32])
def test_eig_invariants_random(rng, d):
    h = random_hermitian(rng, d)
    dec = eig_hermitian(h)
    assert np.all(np.diff(dec.eigenvalues) <= 1e-12)
    v = dec.eigenvectors
    assert_allclose((v * dec.eigenvalues) @ v.conj().T, h, atol=1e-9)
    assert_allclose(dec.eigenvectors.conj().T @ dec.eigenvectors, np.eye(d), atol=1e-10)
    for k in range(d):
        v = dec.eigenvectors[:, k]
        assert_allclose(h @ v, dec.eigenvalues[k] * v, atol=1e-9)
    # independent oracle
    assert_allclose(dec.eigenvalues, np.linalg.eigvalsh(h)[::-1], atol=1e-9)


def test_eig_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
