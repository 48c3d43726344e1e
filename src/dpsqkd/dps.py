"""Differential-phase-shift signal ensembles and the receiver's interferometer.

An n-pulse DPS sender encodes n-1 key bits in the relative phases {0, pi}
between adjacent pulses of a single photon split over n time slots.  With the
global-phase convention that the first amplitude is +1/sqrt(n), the ensemble
consists of the 2**(n-1) sign patterns [1, +-1, ..., +-1]/sqrt(n) of
:func:`sign_patterns`, sent with uniform priors.  Bit convention: bit j = 0
iff amplitudes j and j+1 share a sign (relative phase 0), bit j = 1 for a
sign flip (relative phase pi).

The receiver interferes each pulse with its one-slot-delayed predecessor in
an asymmetric Mach-Zehnder interferometer.  Input mode k contributes
amplitude (u_k + i v_k)/2 at slot k and (u_{k+1} - i v_{k+1})/2 at slot
k+1, where u is the constructive and v the destructive output port.  An
ideally prepared state never clicks in the destructive port at the interior
slots 2..n (the key slots); slots 1 and n+1 carry no phase information and
are discarded during sifting.  Port convention: constructive click = bit 0,
destructive click = bit 1, the order of the port pairs returned below.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .linalg import ATOL_PSD, is_density, outer

MAX_PULSES = 12


@dataclass(frozen=True, eq=False)
class DpsEnsemble:
    """A signal ensemble: G real states on R^n with their priors and key bits.

    ``states`` is a (G, n) stack of kets or a (G, n, n) stack of density
    operators, such as Eve's clones of the signal states; ``priors`` has
    shape (G,), and row g of the (G, n-1) ``bit_map`` holds the key bits of
    state g.  Every attack takes its ensemble in this one form.  The fields
    are stored as read-only copies, the states as complex128, checked here
    against their physical domains: the states are real, since DPS encodes
    each bit in a relative phase of 0 or pi, so any nonzero imaginary part
    is rejected; the priors are finite, non-negative and sum to 1 within
    1e-9; kets have unit norm within 1e-9; density operators are symmetric,
    with unit trace within 1e-8 and no eigenvalue below -1e-7; bits are 0
    or 1.
    """

    states: np.ndarray
    priors: np.ndarray
    bit_map: np.ndarray

    def __post_init__(self) -> None:
        try:
            states = np.array(self.states, dtype=complex)
        except ValueError as exc:  # a ragged sequence
            raise ValueError("ensemble states must share one dimension") from exc
        if not (states.ndim == 2 or states.ndim == 3 and states.shape[1] == states.shape[2]):
            raise ValueError("ensemble states must be a (G, n) ket or (G, n, n) density stack")
        if states.imag.any():
            raise ValueError("ensemble states must be real: DPS phases are 0 or pi")
        count, n = states.shape[:2]
        priors = np.array(self.priors, dtype=float)
        if priors.shape != (count,) or not np.all(np.isfinite(priors) & (priors >= 0.0)):
            raise ValueError(f"priors must be {count} finite non-negative numbers")
        if not abs(priors.sum() - 1.0) <= 1e-9:
            raise ValueError("priors must sum to 1")
        if states.ndim == 2 and not np.all(np.abs(np.linalg.norm(states, axis=1) - 1.0) <= 1e-9):
            raise ValueError("ensemble kets must have unit norm")
        if states.ndim == 3 and not is_density(states):
            raise ValueError("ensemble states are not valid density operators")
        bits = np.array(self.bit_map)
        if bits.shape != (count, n - 1) or not np.all((bits == 0) | (bits == 1)):
            raise ValueError(f"bit_map must be a ({count}, {n - 1}) array of 0s and 1s")
        for name, value in (("states", states), ("priors", priors), ("bit_map", bits.astype(int))):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @cached_property
    def densities(self) -> np.ndarray:
        """(G, n, n) read-only stack of the density operators of the states."""
        if self.states.ndim == 3:
            return self.states
        rhos = outer(self.states)
        rhos.flags.writeable = False
        return rhos


@lru_cache(maxsize=None)
def sign_patterns(n: int) -> np.ndarray:
    """(2**(n-1), n) array of exact +-1 signs: row k is the diagonal of the
    sign matrix U_k that maps |+...+> to state k of :func:`dps_ensemble`.

    Amplitude j flips sign against amplitude j-1 where bit j-1 of k is 1; the
    shifts read a zero bit for j = 0.  Shared and read-only.
    """
    if not 3 <= n <= MAX_PULSES:
        raise ValueError(f"pulse count must be in [3, {MAX_PULSES}], got {n}")
    bits = (np.arange(2 ** (n - 1))[:, None] >> np.arange(n - 1, -1, -1)) & 1
    signs = np.cumprod(1.0 - 2.0 * bits, axis=1)
    signs.flags.writeable = False
    return signs


def dps_ensemble(n: int) -> DpsEnsemble:
    """Build the n-pulse ensemble; states are indexed by their bit string.

    State k has bits equal to the binary digits of k (most significant bit =
    phase position 1), so the all-zero index is the all-plus state.
    """
    signs = sign_patterns(n)
    return DpsEnsemble(states=signs.astype(complex) / np.sqrt(n),
                       priors=np.full(len(signs), 1.0 / len(signs)),
                       bit_map=signs[:, :-1] != signs[:, 1:])


@lru_cache(maxsize=None)
def mzi_transfer(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(T_u, T_v): read-only (n+1) x n amplitude transfer matrices from the
    n input pulses to the constructive and destructive ports."""
    # pulse k leaves through slots k and k + 1: T_u = (I + S)/2, T_v = i(I - S)/2
    # with S the (n+1) x n shift; the imaginary part is assigned, so every
    # real part of T_v is +0.0
    same, next_slot = np.eye(n + 1, n), np.eye(n + 1, n, -1)
    tu = (0.5 * (same + next_slot)).astype(complex)
    tv = np.zeros_like(tu)
    tv.imag = 0.5 * (same - next_slot)
    tu.setflags(write=False)
    tv.setflags(write=False)
    return tu, tv


def mzi_click_distribution(state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(constructive, destructive): the per-slot click probabilities of a
    ket, a density operator or a (..., n, n) stack of operators after the
    MZI, as arrays (..., n+1), one row per operator; a ket is read as its
    projector.

    Slot t (1-based, t = 1..n+1) interferes pulse t with pulse t-1; the
    boundary slots 1 and n+1 have no interference partner.  For a
    normalised single-photon input the probabilities over all slots and both
    ports sum to one.  Mixed states are handled exactly: the quadratic form
    through the amplitude transfer equals the eigenvalue-weighted average of
    the eigenvector distributions.
    """
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        state = outer(state)
    if state.ndim < 2 or state.shape[-1] != state.shape[-2]:
        raise ValueError("state must be a ket, a square operator or a stack of them")
    return tuple(np.real(np.einsum("ti,...ij,tj->...t", t, state, t.conj()))
                 for t in mzi_transfer(state.shape[-1]))


def _key_slot_ber(states: np.ndarray, bits: np.ndarray, conditional: bool = False) -> np.ndarray:
    """Key-slot BER of each operator of a (..., n, n) stack against the
    matching (..., n-1) key bits: the wrong-port click probability summed
    over the key slots, divided by the key-slot click probability when
    ``conditional``.  The states are not checked."""
    # key slots 2..n in 1-based counting, indices 1..n-1 of the port arrays
    u, v = (p[..., 1:-1] for p in mzi_click_distribution(states))
    wrong = np.sum(np.where(bits == 0, v, u), axis=-1)
    return wrong / np.sum(u + v, axis=-1) if conditional else wrong


def spectral_error_terms(received: np.ndarray, index: int,
                         ensemble: DpsEnsemble) -> list[tuple[float, float]]:
    """Per-eigenvector (eigenvalue, wrong-port key-slot probability) terms of
    ``received`` sent as ensemble state ``index``, eigenvalues in descending
    order.

    ``received`` must be an (n, n) density operator (see :func:`is_density`)
    and ``index`` an integer with 0 <= index < G; otherwise ``ValueError``.
    Sorted eigenvalues within ATOL_PSD of their neighbour form one eigenspace
    Pi, and each of its eigenvectors carries Tr(Pi W) / dim Pi, where W is the
    wrong-port operator: the terms do not depend on the basis LAPACK picks
    inside a degenerate eigenspace.  The eigenvalue-weighted sum of the
    second entries equals the wrong-port click probability of ``received``
    over the key slots (see :func:`_key_slot_ber`), up to the spread of the
    eigenvalues merged into one eigenspace.
    """
    received = np.asarray(received, dtype=complex)
    if received.shape != (ensemble.n, ensemble.n):
        raise ValueError("received state has the wrong dimension for the ensemble")
    if not is_density(received):
        raise ValueError("received state is not a valid density operator")
    count = len(ensemble.states)
    if not (isinstance(index, numbers.Integral) and 0 <= index < count):
        raise ValueError(f"state index {index!r} is not an integer in [0, {count})")
    eigs, vecs = np.linalg.eigh(received)
    eigs, vecs = eigs[::-1], vecs[:, ::-1]
    wrong = _key_slot_ber(outer(vecs.T), ensemble.bit_map[int(index)])
    cuts = [0, *(np.flatnonzero(-np.diff(eigs) > ATOL_PSD) + 1).tolist(), len(eigs)]
    out = []
    for lo, hi in zip(cuts, cuts[1:]):
        share = float(np.mean(wrong[lo:hi]))
        out.extend((float(lam), share) for lam in eigs[lo:hi])
    return out
