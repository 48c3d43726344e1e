"""Weak-coherent-state three-pulse DPS: unambiguous discrimination and
phase randomisation.

With coherent pulses |alpha> (mean photon number mu = |alpha|**2) the three
signal states are product states and therefore linearly independent, which
opens the unambiguous-state-discrimination (USD) attack: each pulse can be
identified error-free with the Ivanovic-Dieks-Peres success probability
1 - exp(-2 mu), the overlap of |alpha> and |-alpha>.

Randomising a common phase on the sender side and the interferometer phase
on the receiver side closes that attack but costs key rate: only frames in
which both random phases fall into the same of M slices of [0, 2pi) are
kept (a sifting factor 1/M), and the residual phase difference delta, the
difference of two independent uniforms over one slice, is triangular on
[-2pi/M, 2pi/M] and contributes QBER 1 - exp(-mu sin^2(delta/2)) per frame.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

from .keyrate import ChannelModel, _whole, secure_key_rate, shrinking_factor

_QUAD_NODES = 64


@dataclass(frozen=True)
class WcsParams:
    """Source intensity and phase-randomisation slicing; ``slices`` must be a
    positive whole number."""

    mean_photon_number: float = 0.4
    slices: int = 16

    def __post_init__(self) -> None:
        if not 0.0 < self.mean_photon_number < math.inf:
            raise ValueError("mean photon number must be positive and finite")
        object.__setattr__(self, "slices", _whole(self.slices, "slice count"))
        if self.slices < 1:
            raise ValueError("slice count must be at least 1")
        if self.mean_photon_number > 1.0:
            # level 3 skips the dataclass-generated __init__ and names the caller
            warnings.warn("mean photon number above 1 leaves the weak-coherent regime",
                          stacklevel=3)


def usd_success(mu: float) -> float:
    """Per-pulse unambiguous discrimination probability 1 - exp(-2 mu)."""
    if not mu >= 0.0:  # NaN fails
        raise ValueError("mean photon number must be non-negative")
    return -math.expm1(-2.0 * mu)


def usd_block_identification(mu: float) -> float:
    """Probability that all three pulses of a frame are identified, reading
    out both encoded phase differences: usd_success(mu)**3."""
    return usd_success(mu) ** 3


def wcs_ir_fraction(mu: float) -> float:
    """Fraction of sifted bits an intercept-resend eavesdropper learns from a
    weak-coherent frame: (2/9) mu exp(-mu)."""
    if not mu >= 0.0:  # NaN fails
        raise ValueError("mean photon number must be non-negative")
    return (2.0 / 9.0) * mu * math.exp(-mu)


def phase_mismatch_qber(mu: float, delta: float) -> float:
    """QBER from a phase offset ``delta`` between sender and receiver.

    The destructive-port amplitude alpha (1 - exp(i delta)) / 2 carries mean
    photon number mu sin^2(delta/2), so the click probability is
    1 - exp(-mu sin^2(delta/2)).
    """
    if not mu >= 0.0:  # NaN fails
        raise ValueError("mean photon number must be non-negative")
    return -math.expm1(-mu * math.sin(delta / 2.0) ** 2)


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], n
    even; computed once per n.

    Each positive root of P_n is polished by Newton's method from the
    estimate cos(pi (i + 3/4) / (n + 1/2)), with P_n and P_n' from the
    three-term recurrence k P_k = (2k - 1) x P_(k-1) - (k - 1) P_(k-2); its
    weight is 2 / ((1 - x^2) P_n'(x)^2), and the rule is symmetric.
    """
    nodes, weights = [], []
    for i in range(n // 2):
        x, dx = math.cos(math.pi * (i + 0.75) / (n + 0.5)), 1.0
        while abs(dx) > 1e-15:
            p0, p1 = 1.0, x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1.0)
            dx = p1 / dp
            x -= dx
        w = 2.0 / ((1.0 - x * x) * dp * dp)
        nodes += (x, -x)
        weights += (w, w)
    return tuple(nodes), tuple(weights)


def slice_averaged_qber(params: WcsParams) -> float:
    """Expected phase-mismatch QBER after same-slice post-selection.

    Both phases are uniform within one slice of width w = 2pi/M, so their
    difference is triangular on [-w, w].  Folded onto [0, w] its density is
    2 (w - delta) / w^2; with delta = w (1 + x) / 2 the expectation is the
    integral over x in [-1, 1] of (1 - x) / 2 times the QBER, done by the
    64-point Gauss-Legendre rule and summed with ``math.fsum``.  On a grid
    of mu from 1e-3 to 100 and M from 1 to 1000 it lies within 5e-15 of the
    160-point rule; 40 points would be 3e-11 off.
    """
    w = 2.0 * math.pi / params.slices
    mu = params.mean_photon_number
    return math.fsum(wt * 0.5 * (1.0 - x) * phase_mismatch_qber(mu, 0.5 * w * (1.0 + x))
                     for x, wt in zip(*_gauss_legendre(_QUAD_NODES)))


WCS_ATTACKS = ("ir", "usd", "phase-randomized")


def usd_known_fraction(mu: float, transmittance: float) -> float:
    """Fraction of detected frames Eve reads out via USD on the lost light.

    The channel loss is granted to Eve: she taps the lost fraction of every
    pulse through a beam splitter (her share carries mu*(1-T) photons on
    average, introducing no errors and leaving the receiver statistics
    untouched) and unambiguously discriminates it, so a frame is fully known
    to her with probability usd_block_identification(mu*(1-T)).
    """
    if not 0.0 <= transmittance <= 1.0:
        raise ValueError("transmittance must lie in [0, 1]")
    return usd_block_identification(mu * (1.0 - transmittance))


def wcs_key_rates(params: WcsParams, model: ChannelModel,
                  distances: Sequence[float],
                  attacks: Sequence[str] = WCS_ATTACKS) -> list[dict[str, float]]:
    """Key-rate sweep for weak-coherent three-pulse DPS.

    All modes reuse the single-photon machinery with the signal probability
    scaled by the mean photon number.  The intercept-resend eavesdropper
    knows a flat wcs_ir_fraction(mu) of the sifted key; the USD attacker
    reads the channel loss (see :func:`usd_known_fraction`); phase
    randomisation keeps the intercept-resend attacker but multiplies the
    sifted rate by 1/M and adds the slice-averaged mismatch QBER.  The
    intercept-resend and USD fractions are three-pulse results, so the
    channel must carry ``n_pulses == 3``.
    """
    if model.n_pulses != 3:
        raise ValueError(f"the weak-coherent-state analysis is three-pulse only "
                         f"(n_pulses = {model.n_pulses})")
    unknown = set(attacks) - set(WCS_ATTACKS)
    if unknown:
        raise ValueError(f"unknown WCS attack modes: {sorted(unknown)}")
    mu = params.mean_photon_number
    e_slice = slice_averaged_qber(params) if "phase-randomized" in attacks else 0.0
    # bits Eve learns are known perfectly (collision probability 1), at any distance
    tau_ir = shrinking_factor(wcs_ir_fraction(mu), 1.0)
    rows: list[dict[str, float]] = []
    for dist in distances:
        m = model.at_distance(float(dist))
        if m.signal_scale != mu:
            m = replace(m, signal_scale=mu)
        e_b = m.e_b
        row: dict[str, float] = {"distance_km": float(dist), "e_b": e_b, "p_click": m.p_click}
        if "ir" in attacks:
            row["tau_ir"] = tau_ir
            row["r_ir"] = secure_key_rate(m, tau_ir, e_b)
        if "usd" in attacks:
            tau_usd = shrinking_factor(usd_known_fraction(mu, m.transmittance), 1.0)
            row["tau_usd"] = tau_usd
            row["r_usd"] = secure_key_rate(m, tau_usd, e_b)
        if "phase-randomized" in attacks:
            e_pr = min(0.5, e_b + e_slice)
            row["tau_phase_randomized"] = tau_ir
            row["r_phase_randomized"] = (
                secure_key_rate(m, tau_ir, e_pr) / params.slices)
        rows.append(row)
    return rows
