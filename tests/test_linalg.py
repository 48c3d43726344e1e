import numpy as np
import pytest
from numpy.testing import assert_allclose

from dpsqkd.linalg import outer, partial_trace

S3 = np.sqrt(3.0)
PSI_PP = np.array([1.0, 1.0, 1.0]) / S3


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

