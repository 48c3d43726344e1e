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
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .keyrate import ChannelModel, _whole, secure_key_rate, shrinking_factor

_QUAD_NODES = 160


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
    if mu < 0.0:
        raise ValueError("mean photon number must be non-negative")
    return -math.expm1(-2.0 * mu)


def usd_block_identification(mu: float) -> float:
    """Probability that all three pulses of a frame are identified, reading
    out both encoded phase differences: usd_success(mu)**3."""
    return usd_success(mu) ** 3


def wcs_ir_fraction(mu: float) -> float:
    """Fraction of sifted bits an intercept-resend eavesdropper learns from a
    weak-coherent frame: (2/9) mu exp(-mu)."""
    if mu < 0.0:
        raise ValueError("mean photon number must be non-negative")
    return (2.0 / 9.0) * mu * math.exp(-mu)


def phase_mismatch_qber(mu: float, delta: float | np.ndarray) -> float | np.ndarray:
    """QBER from a phase offset ``delta`` between sender and receiver, or
    from each offset of an array.

    The destructive-port amplitude alpha (1 - exp(i delta)) / 2 carries mean
    photon number mu sin^2(delta/2), so the click probability is
    1 - exp(-mu sin^2(delta/2)).
    """
    if mu < 0.0:
        raise ValueError("mean photon number must be non-negative")
    return -np.expm1(-mu * np.sin(delta / 2.0) ** 2)


def slice_averaged_qber(params: WcsParams) -> float:
    """Expected phase-mismatch QBER after same-slice post-selection.

    Both phases are uniform within one slice of width 2pi/M, so their
    difference is triangular on [-2pi/M, 2pi/M]; the expectation is done by
    Gauss-Legendre quadrature well below 1e-10 absolute error.
    """
    w = 2.0 * math.pi / params.slices
    x, wt = leggauss(_QUAD_NODES)
    delta = 0.5 * w * (x + 1.0)  # fold the symmetric triangular law onto [0, w]
    density = 2.0 * (w - delta) / w ** 2
    vals = phase_mismatch_qber(params.mean_photon_number, delta)
    return float(np.sum(wt * 0.5 * w * density * vals))


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
    return min(1.0, usd_block_identification(mu * (1.0 - transmittance)))


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
    tau_ir = shrinking_factor(min(1.0, wcs_ir_fraction(mu)), 1.0)
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
