import numpy as np
import pytest
from numpy.testing import assert_allclose

from dpsqkd.linalg import is_density, is_psd, outer, partial_trace

S3 = np.sqrt(3.0)
PSI_PP = np.array([1.0, 1.0, 1.0]) / S3


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


# ---------------------------------------------------------------------------
# outer products and the PSD predicate
# ---------------------------------------------------------------------------

def test_outer_of_a_stack_equals_the_per_ket_outer(rng):
    kets = rng.normal(size=(2, 5, 4)) + 1j * rng.normal(size=(2, 5, 4))
    stack = outer(kets)
    assert stack.shape == (2, 5, 4, 4)
    for row, kets_row in zip(stack, kets):
        assert_allclose(row, [outer(psi) for psi in kets_row], rtol=0, atol=0)
    flat = kets.reshape(10, 4)
    assert_allclose(outer(flat), [np.outer(psi, psi.conj()) for psi in flat], rtol=0, atol=0)


def test_is_psd_checks_hermiticity_and_the_smallest_eigenvalue():
    assert is_psd(np.diag([1.0, -5e-10]), 1e-9)
    assert not is_psd(np.diag([1.0, -2e-9]), 1e-9)
    assert is_psd(np.diag([1.0, -2e-9]), 1e-7)
    # eigenvalues 0.5 +- 0.1i: PSD as a Hermitian part, but not Hermitian
    assert not is_psd(np.array([[0.5, 0.1], [-0.1, 0.5]]), 1e-9)
    for bad in (np.full((2, 2), np.nan), np.diag([1.0, np.inf]), np.zeros((2, 3)), np.ones(2)):
        assert not is_psd(bad, 1e-9)
    stack = np.array([np.eye(2), np.diag([1.0, -1.0])])
    assert is_psd(stack[:1], 1e-9) and not is_psd(stack, 1e-9)
    # is_density is the same predicate at 1e-7, plus unit trace
    assert is_density(np.diag([1.0 + 1e-7, -1e-7]))
    assert not is_density(np.diag([1.0 + 2e-7, -2e-7]))
    assert not is_density(np.array([[0.5, 0.1], [-0.1, 0.5]]))


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
    for keep in ([2], [-1]):
        with pytest.raises(ValueError, match="out of range for 2 subsystems"):
            partial_trace(np.eye(6), [2, 3], keep=keep)

