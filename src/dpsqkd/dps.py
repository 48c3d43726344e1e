"""Differential-phase-shift signal ensembles and the receiver's interferometer.

An n-pulse DPS sender encodes n-1 key bits in the relative phases {0, pi}
between adjacent pulses of a single photon split over n time slots.  With the
global-phase convention that the first amplitude is +1/sqrt(n), the ensemble
consists of the 2**(n-1) sign patterns [1, +-1, ..., +-1]/sqrt(n), sent with
uniform priors.  Bit convention: bit j = 0 iff amplitudes j and j+1 share a
sign (relative phase 0), bit j = 1 for a sign flip (relative phase pi).

The receiver interferes each pulse with its one-slot-delayed predecessor in
an asymmetric Mach-Zehnder interferometer.  Input mode k contributes
amplitude (u_k + i v_k)/2 at slot k and exp(i phase_b) (u_{k+1} - i v_{k+1})/2
at slot k+1, where u is the constructive and v the destructive output port.
With phase_b = 0 an ideally prepared state never clicks in the destructive
port at the interior slots 2..n (the key slots); slots 1 and n+1 carry no
phase information and are discarded during sifting.  Port convention:
constructive click = bit 0, destructive click = bit 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import eig_hermitian, is_density

MAX_PULSES = 12


@dataclass(frozen=True)
class DpsEnsemble:
    """The 2**(n-1) n-pulse DPS signal states with uniform priors."""

    n: int
    states: tuple[np.ndarray, ...]
    priors: np.ndarray
    bit_map: tuple[tuple[int, ...], ...]

    def density(self, i: int) -> np.ndarray:
        s = self.states[i]
        return np.outer(s, s.conj())


def dps_ensemble(n: int) -> DpsEnsemble:
    """Build the n-pulse ensemble; states are indexed by their bit string.

    State k has bits equal to the binary digits of k (most significant bit =
    phase position 1), so the all-zero index is the all-plus state.
    """
    if not 3 <= n <= MAX_PULSES:
        raise ValueError(f"pulse count must be in [3, {MAX_PULSES}], got {n}")
    count = 2 ** (n - 1)
    states = []
    bit_map = []
    for k in range(count):
        bits = tuple((k >> (n - 2 - j)) & 1 for j in range(n - 1))
        amps = np.empty(n)
        amps[0] = 1.0
        for j, b in enumerate(bits):
            amps[j + 1] = amps[j] * (1.0 if b == 0 else -1.0)
        states.append(amps.astype(complex) / np.sqrt(n))
        bit_map.append(bits)
    priors = np.full(count, 1.0 / count)
    return DpsEnsemble(n=n, states=tuple(states), priors=priors,
                       bit_map=tuple(bit_map))


def sifted_rate(n: int) -> float:
    """Fraction of detection slots usable for key: (n-1)/n."""
    if n < 3:
        raise ValueError("DPS needs at least 3 pulses")
    return (n - 1) / n


@dataclass(frozen=True)
class MziModel:
    """Asymmetric MZI with a one-slot delay and phase ``phase_b`` in the delay arm."""

    phase_b: float = 0.0


@lru_cache(maxsize=None)
def _transfer(n: int, phase_b: float) -> tuple[np.ndarray, np.ndarray]:
    """(T_u, T_v): (n+1) x n amplitude transfer matrices to the two ports."""
    ph = np.exp(1j * phase_b)
    tu = np.zeros((n + 1, n), dtype=complex)
    tv = np.zeros((n + 1, n), dtype=complex)
    for k in range(n):
        tu[k, k] += 0.5
        tv[k, k] += 0.5j
        tu[k + 1, k] += 0.5 * ph
        tv[k + 1, k] += -0.5j * ph
    tu.setflags(write=False)
    tv.setflags(write=False)
    return tu, tv


def mzi_transfer(n: int, mzi: MziModel = MziModel()) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude transfer matrices (constructive, destructive) for n pulses."""
    return _transfer(n, float(mzi.phase_b))


@dataclass(frozen=True)
class ClickDistribution:
    """Per-slot click probabilities behind the interferometer.

    Slot t (1-based, t = 1..n+1) interferes pulse t with pulse t-1; the
    boundary slots 1 and n+1 have no interference partner.  For a normalised
    single-photon input the probabilities over all slots and both ports sum
    to one.
    """

    constructive: np.ndarray
    destructive: np.ndarray

    @property
    def total(self) -> float:
        return float(np.sum(self.constructive) + np.sum(self.destructive))


def mzi_click_distribution(state: np.ndarray, mzi: MziModel = MziModel()) -> ClickDistribution:
    """Click distribution of a ket or density operator after the MZI.

    Mixed states are handled exactly: the quadratic form through the
    amplitude transfer equals the eigenvalue-weighted average of the
    eigenvector distributions.
    """
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        n = state.size
        tu, tv = mzi_transfer(n, mzi)
        return ClickDistribution(np.abs(tu @ state) ** 2, np.abs(tv @ state) ** 2)
    if state.ndim == 2 and state.shape[0] == state.shape[1]:
        n = state.shape[0]
        tu, tv = mzi_transfer(n, mzi)
        pu = np.real(np.einsum("ti,ij,tj->t", tu, state, tu.conj()))
        pv = np.real(np.einsum("ti,ij,tj->t", tv, state, tv.conj()))
        return ClickDistribution(pu, pv)
    raise ValueError("state must be a ket or a square density operator")


def _wrong_port_probs(received: np.ndarray, bits: tuple[int, ...],
                      mzi: MziModel) -> tuple[np.ndarray, np.ndarray]:
    """(wrong, total) per key slot for a density operator and a bit pattern."""
    dist = mzi_click_distribution(received, mzi)
    n = len(bits) + 1
    wrong = np.empty(n - 1)
    tot = np.empty(n - 1)
    for j, b in enumerate(bits):
        t = j + 1  # key slot j+2 in 1-based counting; index j+1 in 0-based arrays
        wrong[j] = dist.destructive[t] if b == 0 else dist.constructive[t]
        tot[j] = dist.constructive[t] + dist.destructive[t]
    return wrong, tot


def ber_of_state(received: np.ndarray, index: int, ensemble: DpsEnsemble,
                 mzi: MziModel = MziModel(), conditional: bool = False) -> float:
    """Bit-error rate that ``received`` induces when sent as ensemble state ``index``.

    The default accounting sums the wrong-port click probabilities over the
    key slots without renormalising by the key-slot click probability; it is
    linear in the density operator.  With ``conditional=True`` the sum is
    divided by the total key-slot click probability, giving the error rate
    per detected key bit.
    """
    received = np.asarray(received, dtype=complex)
    if received.ndim != 2 or received.shape != (ensemble.n, ensemble.n):
        raise ValueError("received state has the wrong dimension for the ensemble")
    if not is_density(received, trace_atol=1e-8, psd_atol=1e-7):
        raise ValueError("received state is not a valid density operator")
    wrong, tot = _wrong_port_probs(received, ensemble.bit_map[index], mzi)
    if conditional:
        return float(np.sum(wrong) / np.sum(tot))
    return float(np.sum(wrong))


@dataclass(frozen=True)
class BerReport:
    """Click distribution together with both error-rate accountings."""

    distribution: ClickDistribution
    ber: float
    ber_conditional: float
    note: str = ("port convention: constructive = bit 0, destructive = bit 1; "
                 "slots 1 and n+1 are discarded boundary slots")


def ber_report(received: np.ndarray, index: int, ensemble: DpsEnsemble,
               mzi: MziModel = MziModel()) -> BerReport:
    return BerReport(
        distribution=mzi_click_distribution(np.asarray(received, dtype=complex), mzi),
        ber=ber_of_state(received, index, ensemble, mzi),
        ber_conditional=ber_of_state(received, index, ensemble, mzi, conditional=True),
    )


def spectral_error_terms(received: np.ndarray, index: int, ensemble: DpsEnsemble,
                         mzi: MziModel = MziModel()) -> list[tuple[float, float]]:
    """Per-eigencomponent (eigenvalue, wrong-port key-slot probability) terms.

    The eigenvalue-weighted sum of the second entries equals the default
    ``ber_of_state`` exactly.  Individual terms within a degenerate eigenspace
    depend on the basis choice; only their weighted sum is basis-invariant.
    """
    dec = eig_hermitian(np.asarray(received, dtype=complex))
    out = []
    for k in range(dec.eigenvalues.size):
        vec = dec.eigenvectors[:, k]
        wrong, _ = _wrong_port_probs(np.outer(vec, vec.conj()),
                                     ensemble.bit_map[index], mzi)
        out.append((float(dec.eigenvalues[k]), float(np.sum(wrong))))
    return out
