"""Channel model, QBER, shrinking factors and secure key rates.

The asymptotic secure key rate against an individual attack is

    R = R_sifted * [tau - f_ec * h(e_b)],        R_sifted = s * p_click,

with s = (n-1)/n the sifting parameter, h the binary entropy, f_ec the error
correction inefficiency and tau the privacy-amplification shrinking factor.
For an attack that touches a fraction g of the sifted key and leaves Eve
with per-bit collision probability p_co on touched bits (1/2 on untouched
ones), tau = -g*log2(p_co) + (1 - g).

The detection model is a single photon (or weak pulse) per frame:
p_signal = eta * 10**(-alpha*L/10), optionally scaled by a source intensity,
p_click = p_signal + p_dark, and dark counts are uncorrelated with the key so
half of them are errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

_SQRT5 = math.sqrt(5.0)

# Largest pulse count whose attacks are built and certified.  The reduced
# solves stay small, but each optimum is certified on its full problem: at
# n = 7 the cloner's 49 constraint operators on the 343-dimensional Choi
# block take about 92 MB as one complex stack.
MAX_ATTACK_PULSES = 6


@dataclass(frozen=True)
class ChannelModel:
    """Fibre loss, detector and error-correction parameters.

    Construction checks every field against its physical domain (all finite)
    and the click probability p_signal + p_dark at ``distance_km`` against 1.
    """

    loss_db_per_km: float = 0.2
    distance_km: float = 0.0
    dark_count_prob: float = 1e-6
    detector_efficiency: float = 0.10
    baseline_error: float = 0.01
    f_ec: float = 1.16
    n_pulses: int = 3
    signal_scale: float = 1.0  # source intensity factor, e.g. mean photon number

    def __post_init__(self) -> None:
        if not 0.0 < self.detector_efficiency <= 1.0:
            raise ValueError("detector efficiency must be in (0, 1]")
        if not 0.0 <= self.dark_count_prob <= 1.0:
            raise ValueError("dark count probability must be in [0, 1]")
        if not 0.0 <= self.baseline_error <= 0.5:
            raise ValueError("baseline error must be in [0, 0.5]")
        if not 1.0 <= self.f_ec < math.inf:
            raise ValueError("error correction inefficiency must be finite and >= 1")
        if not 3 <= self.n_pulses <= MAX_ATTACK_PULSES:
            raise ValueError(f"pulse count must lie in [3, {MAX_ATTACK_PULSES}]")
        if not 0.0 <= self.loss_db_per_km < math.inf:
            raise ValueError("fibre loss must be finite and non-negative")
        if not 0.0 <= self.distance_km < math.inf:
            raise ValueError("distance must be finite and non-negative")
        if not 0.0 <= self.signal_scale < math.inf:
            raise ValueError("signal scale must be finite and non-negative")
        if self.p_click > 1.0:
            raise ValueError(f"click probability {self.p_click:.6g} exceeds 1 at "
                             f"{self.distance_km:g} km (signal {self.p_signal:.6g} "
                             f"+ dark counts {self.dark_count_prob:.6g})")

    def at_distance(self, distance_km: float) -> "ChannelModel":
        return replace(self, distance_km=distance_km)

    @property
    def transmittance(self) -> float:
        return 10.0 ** (-self.loss_db_per_km * self.distance_km / 10.0)

    @property
    def p_signal(self) -> float:
        """Probability that the signal itself clicks: scale * eta * T."""
        return self.signal_scale * self.detector_efficiency * self.transmittance

    @property
    def p_click(self) -> float:
        """Click probability per frame: signal plus dark counts."""
        return self.p_signal + self.dark_count_prob

    @property
    def sifting(self) -> float:
        return (self.n_pulses - 1) / self.n_pulses


@dataclass(frozen=True)
class QberBreakdown:
    p_signal: float
    p_dark: float
    p_click: float
    e_b: float


def qber(model: ChannelModel) -> QberBreakdown:
    """Detection probabilities and the bit error rate they imply."""
    p_signal, p_dark, p_click = model.p_signal, model.dark_count_prob, model.p_click
    if p_click <= 0.0:
        raise ValueError(f"no detector clicks at {model.distance_km:g} km: the click "
                         "probability is zero")
    e_b = (0.5 * p_dark + model.baseline_error * p_signal) / p_click
    return QberBreakdown(p_signal=p_signal, p_dark=p_dark, p_click=p_click, e_b=e_b)


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy with the 0*log(0) = 0 convention."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("binary entropy argument must lie in [0, 1]")
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def shrinking_factor(attacked_fraction: float, p_co: float) -> float:
    """Privacy-amplification exponent for a partially attacked key.

    Touched bits carry collision probability ``p_co``, untouched bits 1/2, so
    tau = -g*log2(p_co) + (1 - g) with g the touched fraction.
    """
    if not 0.0 <= attacked_fraction <= 1.0:
        raise ValueError("attacked fraction must lie in [0, 1]")
    if not 0.5 <= p_co <= 1.0:
        raise ValueError("per-bit collision probability must lie in [1/2, 1]")
    g = attacked_fraction
    return -g * math.log2(p_co) + (1.0 - g)


def _collision_bound(e_b: float) -> float:
    """Right-hand side of the collision bound behind :func:`tau_lower_bound`."""
    return 1.0 - e_b ** 2 - (1.0 - 6.0 * e_b) ** 2 / 2.0


def tau_lower_bound(e_b: float) -> float:
    """Shrinking factor implied by the general-individual-attack collision bound
    p_co <= 1 - e_b**2 - (1 - 6 e_b)**2 / 2."""
    p_co = _collision_bound(e_b)
    if p_co <= 0.0:
        raise ValueError(f"collision bound is non-positive at e_b={e_b}")
    return -math.log2(min(p_co, 1.0))


def _tau_lower_clamped(e_b: float) -> float:
    """Lower-bound shrinking factor with the half-bit collision floor applied.

    The raw bound dips below the physical floor p_co >= 1/2 for large error
    rates; sweeps clamp it so tau stays in [0, 1] at every distance.
    """
    return -math.log2(min(max(_collision_bound(e_b), 0.5), 1.0))


def secure_key_rate(model: ChannelModel, tau: float, e_b: float) -> float:
    """R = max(0, s * p_click * (tau - f_ec * h(e_b)))."""
    p_click = qber(model).p_click
    return max(0.0, model.sifting * p_click * (tau - model.f_ec * binary_entropy(e_b)))


def unconditional_rate(e_b: float, r_sifted: float) -> float:
    """Coherent-attack lower bound R >= R_sifted*(1 - h(e_b) - h((3+sqrt5) e_b)),
    floored at zero."""
    arg = (3.0 + _SQRT5) * e_b
    if arg > 1.0:
        raise ValueError("phase error argument exceeds 1")
    return max(0.0, r_sifted * (1.0 - binary_entropy(e_b) - binary_entropy(arg)))


# ---------------------------------------------------------------------------
# attack profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttackProfile:
    """Summary of an individual attack as the key-rate machinery sees it.

    ``per_intercept_error`` is the error probability each intercepted bit
    suffers at the receiver, so hiding inside an observed error rate e_b
    allows a fraction e_b / per_intercept_error to be intercepted.
    ``per_attacked_bit_collision`` is Eve's collision probability on the
    sifted bits her attack touched.
    """

    name: str
    per_intercept_error: float
    per_attacked_bit_collision: float

    def __post_init__(self) -> None:
        if not 0.0 < self.per_intercept_error <= 1.0:
            raise ValueError("per-intercept error must lie in (0, 1]")
        if not 0.5 <= self.per_attacked_bit_collision <= 1.0:
            raise ValueError("per-attacked-bit collision must lie in [1/2, 1]")

    def intercepted_fraction(self, e_b: float) -> float:
        if e_b < 0.0:
            raise ValueError("error rate must be non-negative")
        return min(e_b / self.per_intercept_error, 1.0)

    def tau(self, e_b: float, sifting: float) -> float:
        g = min(sifting * self.intercepted_fraction(e_b), 1.0)
        return shrinking_factor(g, self.per_attacked_bit_collision)


# ---------------------------------------------------------------------------
# finite-size correction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteSizeParams:
    """Block sizes for parameter estimation: n_key key bits, k_pe sampled bits,
    confidence parameter eps_prime."""

    n_key: int
    k_pe: int
    eps_prime: float

    def __post_init__(self) -> None:
        if self.n_key < 1 or self.k_pe < 1:
            raise ValueError("block sizes must be positive")
        if not 0.0 < self.eps_prime < 1.0:
            raise ValueError("confidence parameter must lie in (0, 1)")


def finite_size_deviation(fs: FiniteSizeParams, e_obs: float) -> float:
    """One-sided tail deviation t with e_key <= e_obs + t.

    Statistical fluctuation of the observed error rate over a finite sample;
    the failure probabilities of error correction and privacy amplification
    are orders of magnitude smaller and are not modelled.
    """
    if not 0.0 < e_obs < 1.0:
        raise ValueError("observed error rate must lie strictly inside (0, 1)")
    n, k, e, eps = float(fs.n_key), float(fs.k_pe), e_obs, fs.eps_prime
    c = math.exp(1.0 / (8.0 * (n + k)) + 1.0 / (12.0 * k)
                 - 1.0 / (12.0 * k * e + 1.0) - 1.0 / (12.0 * k * (1.0 - e) + 1.0))
    log_arg = math.sqrt(n + k) * c / (math.sqrt(2.0 * math.pi * n * k * e * (1.0 - e)) * eps)
    if log_arg <= 1.0:
        raise ValueError(f"finite-size deviation is undefined: log argument {log_arg:.6g} <= 1 "
                         f"(eps={eps:g} is too loose for n={fs.n_key}, k={fs.k_pe}, e_obs={e:g})")
    return math.sqrt(2.0 * (n + k) * e * (1.0 - e) / (k * n) * math.log(log_arg))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

LOWER_BOUND = "lower-bound"
UNCONDITIONAL = "unconditional"


def keyrate_sweep(model: ChannelModel,
                  profiles: Mapping[str, AttackProfile] | Sequence[AttackProfile],
                  distances: Sequence[float],
                  finite_size: FiniteSizeParams | None = None,
                  include_bounds: bool = True) -> list[dict[str, float]]:
    """One row per distance with e_b, p_click and per-attack tau and R.

    In finite-size mode the observed e_b is inflated by the parameter
    estimation deviation before entering the shrinking factors and the
    entropy terms; detection probabilities are unchanged.  Rows are emitted
    in the given distance order and are fully deterministic.
    """
    if isinstance(profiles, Mapping):
        profile_list = list(profiles.values())
    else:
        profile_list = list(profiles)
    rows: list[dict[str, float]] = []
    for dist in distances:
        m = model.at_distance(float(dist))
        q = qber(m)
        e_eff = q.e_b
        if finite_size is not None:
            e_eff = q.e_b + finite_size_deviation(finite_size, q.e_b)
        row: dict[str, float] = {
            "distance_km": float(dist),
            "e_b": q.e_b,
            "p_click": q.p_click,
        }
        if finite_size is not None:
            row["e_b_finite"] = e_eff
        for prof in profile_list:
            tau = prof.tau(e_eff, m.sifting)
            row[f"tau_{prof.name}"] = tau
            row[f"r_{prof.name}"] = secure_key_rate(m, tau, e_eff)
        if include_bounds:
            tau_low = _tau_lower_clamped(e_eff)
            row[f"tau_{LOWER_BOUND}"] = tau_low
            row[f"r_{LOWER_BOUND}"] = secure_key_rate(m, tau_low, e_eff)
            row[f"r_{UNCONDITIONAL}"] = (
                unconditional_rate(e_eff, m.sifting * q.p_click)
                if (3.0 + _SQRT5) * e_eff <= 1.0 else 0.0
            )
        rows.append(row)
    return rows
