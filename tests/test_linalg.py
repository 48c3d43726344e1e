import numpy as np
import pytest
from numpy.testing import assert_allclose

from dpsqkd.attacks import Povm, UnitaryClonerParams
from dpsqkd.dps import DpsEnsemble, dps_ensemble
from dpsqkd.linalg import is_density, is_psd, outer, partial_trace, real_array
from dpsqkd.sdp import SdpProblem, povm_completeness_constraints

S3 = np.sqrt(3.0)
PSI_PP = np.array([1.0, 1.0, 1.0]) / S3


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


# ---------------------------------------------------------------------------
# real data
# ---------------------------------------------------------------------------

def test_real_array_returns_a_new_float64_copy():
    given = np.array([[1, 0], [0, 1]])
    for a in (given, given.astype(complex), given.tolist()):
        out = real_array(a, "x")
        assert out.dtype == np.float64 and np.array_equal(out, given)
        assert not np.shares_memory(out, a)
    with pytest.raises(ValueError, match="^x must be real: DPS phases are 0 or pi$"):
        real_array([1.0, complex(0.0, np.nan)], "x")  # NaN is not zero
    with pytest.raises(ValueError, match="^x must share one dimension$"):
        real_array([[1.0, 0.0], [1.0]], "x")


_ENS3 = dps_ensemble(3)
_OPS2, _RHS2 = povm_completeness_constraints(2)


@pytest.mark.parametrize("what,real,build,stored", [
    ("ensemble states", _ENS3.states,
     lambda a: DpsEnsemble(a, _ENS3.priors, _ENS3.bit_map), lambda ens: ens.states),
    ("POVM elements", np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]),
     lambda a: Povm(elements=a), lambda povm: povm.elements),
    ("basis kets", np.eye(3),
     lambda a: UnitaryClonerParams(q=0.2, basis=a), lambda params: params.basis),
    ("cost stack 0", 0.5 * np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]),
     lambda a: SdpProblem([a], [_OPS2], _RHS2), lambda problem: problem.cost[0]),
], ids=["DpsEnsemble", "Povm", "UnitaryClonerParams", "SdpProblem"])
def test_one_rule_for_complex_input(what, real, build, stored):
    """Every constructor of DPS data reads it through real_array: a complex
    dtype with zero imaginary parts is stored as float64, and a nonzero
    imaginary part is rejected with the one message naming the field."""
    kept = stored(build(real.astype(complex)))
    assert kept.dtype == np.float64 and np.array_equal(kept, real)
    with pytest.raises(ValueError, match=f"^{what} must be real: DPS phases are 0 or pi$"):
        build(real + 1e-3j)


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

