import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dpsqkd.dps import (MAX_PULSES, DpsEnsemble, _key_slot_ber, dps_ensemble,
                        mzi_click_distribution, mzi_transfer, sign_patterns,
                        spectral_error_terms)
from dpsqkd.keyrate import ChannelModel
from dpsqkd.linalg import outer

S3 = np.sqrt(3.0)
# optimal single-clone output of the all-plus state (off-diagonal 5/21) and
# its two-decimal rendering (off-diagonal 0.23)
CLONED_EXACT = np.full((3, 3), 5.0 / 21.0) + np.eye(3) * (1.0 / 3.0 - 5.0 / 21.0)
CLONED_PRINTED = np.full((3, 3), 0.23) + np.eye(3) * (1.0 / 3.0 - 0.23)


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

def test_three_pulse_states(ens3):
    expected = {(1, 1, 1), (1, -1, 1), (1, 1, -1), (1, -1, -1)}
    got = {tuple(int(round(float(a.real) * S3)) for a in s) for s in ens3.states}
    assert got == expected
    for s in ens3.states:
        assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-12)
        assert s[0].real > 0
    assert_allclose(ens3.priors, np.full(4, 0.25))


def test_three_pulse_gram(ens3):
    g = np.array([[np.vdot(a, b) for b in ens3.states] for a in ens3.states]).real
    off = g[~np.eye(4, dtype=bool)]
    assert_allclose(np.abs(off), np.full(12, 1.0 / 3.0), atol=1e-12)


def test_four_pulse_states():
    ens = dps_ensemble(4)
    assert len(ens.states) == 8
    for s in ens.states:
        assert_allclose(np.abs(s), np.full(4, 0.5), atol=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_bit_map_matches_sign_convention(n):
    ens = dps_ensemble(n)
    for s, bits in zip(ens.states, ens.bit_map):
        for j, b in enumerate(bits):
            same_sign = s[j].real * s[j + 1].real > 0
            assert b == (0 if same_sign else 1)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_states_linearly_dependent(n):
    ens = dps_ensemble(n)
    stack = np.array(ens.states)
    assert np.linalg.matrix_rank(stack) == n
    assert len(ens.states) == 2 ** (n - 1) > n


def test_ensemble_fields_are_read_only_arrays(ens3):
    assert ens3.states.shape == (4, 3) and ens3.n == 3
    assert ens3.bit_map.shape == (4, 2) and ens3.priors.shape == (4,)
    assert_allclose(ens3.densities, [outer(s) for s in ens3.states], rtol=0, atol=0)
    for field in (ens3.states, ens3.priors, ens3.bit_map, ens3.densities):
        assert not field.flags.writeable


def test_ensemble_of_density_operators(ens3):
    """A density stack is its own ``densities``; its dimension is n."""
    clones = 0.5 * ens3.densities + 0.5 * np.eye(3) / 3
    mixed = DpsEnsemble(states=clones, priors=ens3.priors, bit_map=ens3.bit_map)
    assert mixed.n == 3 and mixed.densities is mixed.states
    assert_allclose(mixed.densities, clones, rtol=0, atol=0)


def ensemble_of(ens, **fields):
    return DpsEnsemble(**{"states": ens.states, "priors": ens.priors,
                          "bit_map": ens.bit_map, **fields})


def test_ensemble_rejects_a_negative_prior(ens3):
    with pytest.raises(ValueError, match="finite non-negative"):
        ensemble_of(ens3, priors=[0.5, 0.5, 0.25, -0.25])


def test_ensemble_rejects_priors_that_do_not_sum_to_one(ens3):
    ensemble_of(ens3, priors=ens3.priors + 2e-10)
    with pytest.raises(ValueError, match="sum to 1"):
        ensemble_of(ens3, priors=ens3.priors + 1e-9)


def test_ensemble_rejects_complex_states(ens3):
    """DPS phases are 0 or pi: a ket or density operator with a nonzero
    imaginary part is rejected, a complex dtype with a zero one is stored as
    float64, as are the real states and their densities."""
    for states in (ens3.states.astype(complex), ens3.densities.astype(complex)):
        ens = DpsEnsemble(states, ens3.priors, ens3.bit_map)
        assert ens.states.dtype == ens.densities.dtype == np.float64
    assert ens3.states.dtype == ens3.densities.dtype == np.float64
    phased = ens3.states.astype(complex)
    phased[1] *= 1j  # a unit-norm ket, and the same density operator
    for states in (phased, ens3.densities + 1e-3j * np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])):
        with pytest.raises(ValueError, match="^ensemble states must be real: DPS phases are 0 or pi$"):
            dataclasses.replace(ens3, states=states)


def test_ensemble_rejects_an_unnormalised_ket(ens3):
    states = ens3.states.copy()
    states[1] *= 1.0 + 2e-9
    with pytest.raises(ValueError, match="unit norm"):
        ensemble_of(ens3, states=states)


def test_ensemble_rejects_a_non_psd_clone(ens3):
    """Hermitian, unit-trace clones whose smallest eigenvalue lies just inside
    and just outside the -1e-7 bound."""
    clones = 0.5 * ens3.densities + 0.5 * np.eye(3) / 3
    _, vecs = np.linalg.eigh(clones[2])
    for lowest, valid in ((-5e-8, True), (-1e-6, False)):
        clones[2] = (vecs * [lowest, 1 / 6, 5 / 6 - lowest]) @ vecs.conj().T
        if valid:
            ensemble_of(ens3, states=clones)
        else:
            with pytest.raises(ValueError, match="density operators"):
                ensemble_of(ens3, states=clones)


def test_ensemble_rejects_a_wrong_bit_map_shape(ens3):
    with pytest.raises(ValueError, match=r"\(4, 2\) array"):
        ensemble_of(ens3, bit_map=ens3.bit_map[:, :1])
    with pytest.raises(ValueError, match=r"\(4, 2\) array"):
        ensemble_of(ens3, bit_map=2 * ens3.bit_map)


def test_ensemble_rejects_mixed_dimensions(ens3):
    states = [*ens3.states[:3], np.append(ens3.states[3], 0.0)]
    with pytest.raises(ValueError, match="share one dimension"):
        ensemble_of(ens3, states=states)
    with pytest.raises(ValueError, match="density stack"):
        ensemble_of(ens3, states=np.zeros((4, 3, 2)))


def test_pulse_count_range():
    with pytest.raises(ValueError):
        dps_ensemble(2)
    with pytest.raises(ValueError):
        dps_ensemble(13)


@pytest.mark.parametrize("n", range(3, MAX_PULSES + 1))
def test_sign_patterns(n):
    """Exact, shared and read-only signs that rebuild the ensemble's states and bits."""
    signs = sign_patterns(n)
    assert signs is sign_patterns(n)
    assert signs.shape == (2 ** (n - 1), n) and not signs.flags.writeable
    assert np.all(np.abs(signs) == 1.0)
    ens = dps_ensemble(n)
    digits = tuple(tuple((k >> (n - 2 - j)) & 1 for j in range(n - 1))
                   for k in range(2 ** (n - 1)))
    assert np.array_equal(ens.bit_map, digits)
    assert np.all(signs[:, 0] == 1.0)
    assert np.array_equal(signs[:, :-1] * signs[:, 1:], 1.0 - 2.0 * np.array(digits))
    states = np.array(ens.states)
    assert np.array_equal(np.sign(states.real), signs) and not np.any(states.imag)


@pytest.mark.parametrize("n", range(3, 11))
def test_sign_patterns_multiply_as_their_indices_xor(n):
    """s_{g^h} = s_g * s_h: the patterns form a group, so a product of them
    is a character, fixed by its values on the generators 1 << m."""
    signs = sign_patterns(n)
    g = np.arange(len(signs))
    assert np.array_equal(signs[g[:, None] ^ g], signs[:, None, :] * signs)


def test_sign_patterns_range():
    for n in (2, MAX_PULSES + 1):
        with pytest.raises(ValueError, match="pulse count"):
            sign_patterns(n)


def test_sifted_rate():
    assert ChannelModel(n_pulses=3).sifting == pytest.approx(2.0 / 3.0)
    assert ChannelModel(n_pulses=4).sifting == pytest.approx(0.75)
    rates = [ChannelModel(n_pulses=n).sifting for n in range(3, MAX_PULSES + 1)]
    assert all(b > a for a, b in zip(rates, rates[1:]))
    assert rates[-1] < 1.0
    with pytest.raises(ValueError, match="pulse count"):
        ChannelModel(n_pulses=2)


# ---------------------------------------------------------------------------
# interferometer
# ---------------------------------------------------------------------------

def test_ideal_state_click_pattern(ens3):
    pu, pv = mzi_click_distribution(ens3.states[0])
    assert_allclose(pu, [1 / 12, 1 / 3, 1 / 3, 1 / 12], atol=1e-12)
    assert_allclose(pv, [1 / 12, 0.0, 0.0, 1 / 12], atol=1e-12)


def test_single_pulse_has_no_interference():
    pu, pv = mzi_click_distribution(np.array([1.0, 0.0, 0.0], dtype=complex))
    assert_allclose(pu[:2], [0.25, 0.25], atol=1e-12)
    assert_allclose(pv[:2], [0.25, 0.25], atol=1e-12)
    assert pu[2:].sum() + pv[2:].sum() == pytest.approx(0.0, abs=1e-12)


def old_complex_transfer(n):
    """The per-pulse transfer with the destructive port's factor i: pulse k
    reaches slot k with amplitude 1/2 (constructive) and i/2 (destructive),
    and slot k + 1 with 1/2 and -i/2."""
    tu, tv = np.zeros((n + 1, n), dtype=complex), np.zeros((n + 1, n), dtype=complex)
    for k in range(n):
        tu[k, k] += 0.5
        tv[k, k] += 0.5j
        tu[k + 1, k] += 0.5
        tv[k + 1, k] += -0.5j
    return tu, tv


def test_transfer_equals_the_per_pulse_construction():
    """The transfer is real: T_u = (I + S)/2 and T_v = (I - S)/2 with S the
    (n+1) x n shift, the per-pulse construction without the factor i of the
    destructive port; float64, its zeros all +0.0."""
    for n in range(3, 13):
        tu_ref, tv_ref = old_complex_transfer(n)
        for got, ref in zip(mzi_transfer(n), (tu_ref, tv_ref / 1j)):
            assert got.dtype == np.float64 and np.array_equal(got, ref), n
            assert np.array_equal(np.signbit(got), got < 0), n  # every zero is +0.0
            assert not got.flags.writeable
        assert mzi_transfer(n) is mzi_transfer(n)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_the_factor_i_drops_out_of_the_click_distribution(rng, n):
    """|T psi|**2 does not see a phase on T: on random complex kets, density
    operators and stacks of them, the real transfer gives the click
    distributions of the complex per-pulse transfer i(I - S)/2 within 1e-15."""
    kets = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
    kets /= np.linalg.norm(kets, axis=1)[:, None]
    rhos = np.array([random_density(rng, n) for _ in range(4)])
    for state in (*kets, *rhos, rhos):
        rho = outer(state) if state.ndim == 1 else state
        expected = [np.real(np.einsum("ti,...ij,tj->...t", t, rho, t.conj()))
                    for t in old_complex_transfer(n)]
        for got, ref in zip(mzi_click_distribution(state), expected):
            assert_allclose(got, ref, rtol=0, atol=1e-15)


def test_transfer_is_unitary():
    for n in (3, 4, 7):
        tu, tv = mzi_transfer(n)
        assert_allclose(tu.conj().T @ tu + tv.conj().T @ tv, np.eye(n), atol=1e-12)


@given(st.integers(3, 8), st.integers(0, 10_000))
def test_probability_conservation(n, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi /= np.linalg.norm(psi)
    pu, pv = mzi_click_distribution(psi)
    assert pu.sum() + pv.sum() == pytest.approx(1.0, abs=1e-10)


def test_mixed_state_distribution_equals_eigenvalue_average(rng):
    rho = random_density(rng, 4)
    pu, pv = mzi_click_distribution(rho)
    w, v = np.linalg.eigh(rho)
    cu = sum(w[k] * mzi_click_distribution(v[:, k])[0] for k in range(4))
    cv = sum(w[k] * mzi_click_distribution(v[:, k])[1] for k in range(4))
    assert_allclose(pu, cu, atol=1e-12)
    assert_allclose(pv, cv, atol=1e-12)


def test_stack_distribution_equals_per_operator_distributions(ens3, rng):
    """A (..., n, n) stack reads as its operators one by one, the slot sums
    of both ports give each operator's trace, and a ket reads as its
    projector."""
    stack = np.array([(g + 1) * random_density(rng, 3) for g in range(4)])
    pu, pv = mzi_click_distribution(stack.reshape(2, 2, 3, 3))
    assert pu.shape == pv.shape == (2, 2, 4)
    assert_allclose((pu.sum(axis=-1) + pv.sum(axis=-1)).ravel(), [1.0, 2.0, 3.0, 4.0],
                    rtol=0, atol=1e-12)
    for rho, cu, cv in zip(stack, pu.reshape(4, 4), pv.reshape(4, 4)):
        one_u, one_v = mzi_click_distribution(rho)
        assert_allclose(cu, one_u, rtol=0, atol=1e-15)
        assert_allclose(cv, one_v, rtol=0, atol=1e-15)
    for ket in ens3.states:
        for from_ket, from_projector in zip(mzi_click_distribution(ket),
                                            mzi_click_distribution(outer(ket))):
            assert_allclose(from_ket, from_projector, rtol=0, atol=0)
    with pytest.raises(ValueError, match="square operator"):
        mzi_click_distribution(np.zeros((3, 2)))


def test_cloned_state_key_slot_distribution():
    # exact clone: wrong-port probability (2/3 - 2*5/21)/4 per key slot
    _, pv = mzi_click_distribution(CLONED_EXACT)
    per_slot = (2.0 / 3.0 - 10.0 / 21.0) / 4.0
    assert_allclose(pv[1:3], [per_slot, per_slot], atol=1e-12)
    assert pv[1:3].sum() == pytest.approx(2.0 / 21.0, abs=1e-12)
    # two-decimal matrix: (2/3 - 0.46)/4 per slot
    _, pv2 = mzi_click_distribution(CLONED_PRINTED)
    assert pv2[1:3].sum() == pytest.approx((2 / 3 - 0.46) / 2, abs=1e-12)


# ---------------------------------------------------------------------------
# bit-error rates
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 4, 5])
def test_pure_states_have_zero_ber(n):
    ens = dps_ensemble(n)
    assert np.all(_key_slot_ber(ens.densities, ens.bit_map) <= 1e-12)


def test_cloned_state_ber(ens3):
    assert _key_slot_ber(CLONED_EXACT, ens3.bit_map[0]) == pytest.approx(2.0 / 21.0, abs=1e-12)
    assert _key_slot_ber(CLONED_EXACT, ens3.bit_map[0], conditional=True) == pytest.approx(
        1.0 / 7.0, abs=1e-12)


def test_ber_symmetric_across_states(ens3):
    # the depolarised clones of all four signals share one error rate
    p = 2.0 / 7.0
    for i in range(4):
        rho = (1 - p) * ens3.densities[i] + p / 3.0 * np.eye(3)
        assert _key_slot_ber(rho, ens3.bit_map[i]) == pytest.approx(2.0 / 21.0, abs=1e-12)


def test_ber_linearity(ens3, rng):
    r1, r2 = random_density(rng, 3), random_density(rng, 3)
    bits = ens3.bit_map[0]
    for lam in (0.0, 0.3, 0.7, 1.0):
        mix = lam * r1 + (1 - lam) * r2
        expect = lam * _key_slot_ber(r1, bits) + (1 - lam) * _key_slot_ber(r2, bits)
        assert _key_slot_ber(mix, bits) == pytest.approx(expect, abs=1e-10)


def test_spectral_terms_sum_matches_direct(ens3):
    terms = spectral_error_terms(CLONED_EXACT, 0, ens3)
    total = sum(lam * w for lam, w in terms)
    assert total == pytest.approx(_key_slot_ber(CLONED_EXACT, ens3.bit_map[0]), abs=1e-12)
    # the degenerate 2/21 eigenspace shares its wrong-port weight 1 evenly
    weights = sorted(w for _, w in terms)
    assert_allclose(weights, [0.0, 1.0 / 2.0, 1.0 / 2.0], atol=1e-9)


def test_cloned_state_spectrum(ens3):
    """The clone's spectrum, in descending order, exactly and as printed to two decimals."""
    eigenvalues = [lam for lam, _ in spectral_error_terms(CLONED_EXACT, 0, ens3)]
    assert_allclose(eigenvalues, [17.0 / 21.0, 2.0 / 21.0, 2.0 / 21.0], rtol=0, atol=1e-12)
    assert_allclose(eigenvalues, [0.81, 0.095, 0.095], rtol=0, atol=5e-3)


def test_ber_invariant_under_degenerate_basis_rotation(ens3, rng):
    """Re-orthonormalising the degenerate eigenspace must not move the BER."""
    base_terms = spectral_error_terms(CLONED_EXACT, 0, ens3)
    base = sum(lam * w for lam, w in base_terms)
    e2 = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)
    e3 = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    lam_deg = 2.0 / 21.0
    for _ in range(5):
        th = rng.uniform(0, 2 * np.pi)
        ph = rng.uniform(0, 2 * np.pi)
        f2 = np.cos(th) * e2 + np.exp(1j * ph) * np.sin(th) * e3
        f3 = -np.exp(-1j * ph) * np.sin(th) * e2 + np.cos(th) * e3
        rotated = (17.0 / 21.0 * outer(ens3.states[0])
                   + lam_deg * outer(f2) + lam_deg * outer(f3))
        assert_allclose(rotated, CLONED_EXACT, atol=1e-12)
        terms = spectral_error_terms(rotated, 0, ens3)
        assert_allclose(terms, base_terms, rtol=0, atol=1e-10)
        total = sum(lam * w for lam, w in terms)
        assert total == pytest.approx(base, abs=1e-10)


def test_ber_rejects_invalid_input(ens3):
    with pytest.raises(ValueError):
        spectral_error_terms(np.eye(4) / 4, 0, ens3)
    with pytest.raises(ValueError):
        spectral_error_terms(2.0 * np.eye(3), 0, ens3)


@pytest.mark.parametrize("check", [spectral_error_terms])
def test_received_state_checks(check, ens3):
    """The BER spectral terms check the received state and the index."""
    mixed, bad_index = np.eye(3) / 3, r"not an integer in \[0, 4\)"
    for received, index, message in [
        (np.eye(4) / 4, 0, "wrong dimension"),
        (2 * mixed, 0, "not a valid density operator"),
        (np.diag([1.5, -0.5, 0.0]), 0, "not a valid density operator"),
        (mixed + 1e-6 * np.triu(np.ones((3, 3)), 1), 0, "not a valid density operator"),
        *((mixed, index, bad_index) for index in (4, 7, -1, 1.5)),
    ]:
        with pytest.raises(ValueError, match=message):
            check(received, index, ens3)
    assert check(CLONED_EXACT, np.int64(3), ens3) == check(CLONED_EXACT, 3, ens3)


def test_ber_report_fields(ens3):
    # The values the removed BerReport carried, read from the functions that remain.
    assert _key_slot_ber(CLONED_EXACT, ens3.bit_map[0]) == pytest.approx(2.0 / 21.0, abs=1e-12)
    assert _key_slot_ber(CLONED_EXACT, ens3.bit_map[0], conditional=True) == pytest.approx(
        1.0 / 7.0, abs=1e-12)
    pu, pv = mzi_click_distribution(CLONED_EXACT)
    assert pu.sum() + pv.sum() == pytest.approx(1.0, abs=1e-10)
