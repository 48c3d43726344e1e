"""Channel model and its error rate, shrinking factors and secure key rates.

The asymptotic secure key rate against an individual attack is

    R = R_sifted * [tau - f_ec * h(e_b)],        R_sifted = s * p_click,

with s = (n-1)/n the sifting parameter of n = 3..``MAX_PULSES`` pulses, h the
binary entropy, f_ec the error correction inefficiency and tau the
privacy-amplification shrinking factor.  For an attack that touches a
fraction g of the sifted key and leaves Eve with per-bit collision
probability p_co on touched bits (1/2 on untouched ones),
tau = -g*log2(p_co) + (1 - g).

The detection model is a single photon (or weak pulse) per frame:
p_signal = eta * 10**(-alpha*L/10), optionally scaled by a source intensity,
p_click = p_signal + p_dark, and dark counts are uncorrelated with the key so
half of them are errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Collection, Sequence

_SQRT5 = math.sqrt(5.0)

# The package's one pulse range, 3..MAX_PULSES, of every channel, ensemble
# and attack; kept in this numpy-free layer for ChannelModel.
MAX_PULSES = 12


def _whole(value: float, what: str) -> int:
    """``value`` as an int; raises ``ValueError`` naming ``what`` when it has
    a fractional part or is not finite."""
    if value % 1 != 0:
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ChannelModel:
    """Fibre loss, detector and error-correction parameters.

    Construction checks every field against its physical domain (all finite,
    the pulse count whole and in [3, ``MAX_PULSES``], the range every
    attack takes) and the click probability p_signal + p_dark at
    ``distance_km`` against 1.
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
        object.__setattr__(self, "n_pulses", _whole(self.n_pulses, "pulse count"))
        if not 0.0 < self.detector_efficiency <= 1.0:
            raise ValueError("detector efficiency must be in (0, 1]")
        if not 0.0 <= self.dark_count_prob <= 1.0:
            raise ValueError("dark count probability must be in [0, 1]")
        if not 0.0 <= self.baseline_error <= 0.5:
            raise ValueError("baseline error must be in [0, 0.5]")
        if not 1.0 <= self.f_ec < math.inf:
            raise ValueError("error correction inefficiency must be finite and >= 1")
        if not 3 <= self.n_pulses <= MAX_PULSES:
            raise ValueError(f"pulse count must lie in [3, {MAX_PULSES}], got {self.n_pulses}")
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
    def e_b(self) -> float:
        """Bit error rate per click: half the dark counts and the baseline
        error of the signal clicks."""
        if self.p_click <= 0.0:
            raise ValueError(f"no detector clicks at {self.distance_km:g} km: the click "
                             "probability is zero")
        return (0.5 * self.dark_count_prob + self.baseline_error * self.p_signal) / self.p_click

    @property
    def sifting(self) -> float:
        """Fraction of detection slots usable for key: (n-1)/n."""
        return (self.n_pulses - 1) / self.n_pulses


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


def tau_lower_bound(e_b: float) -> float:
    """Shrinking factor implied by the general-individual-attack collision bound
    p_co <= 1 - e**2 - (1 - 6 e)**2 / 2 (Waks, Takesue & Yamamoto, Phys. Rev.
    A 73, 012344, 2006), taken at e = min(e_b, 3/19).

    The bound rises from 1/2 at e = 0 to its peak 37/38 at e = 3/19 and falls
    after it.  Eve can always add noise, so a collision probability she
    reaches at some error rate she also reaches at every larger one; the
    bound is held at its peak past 3/19, which keeps tau non-increasing.
    Raises ``ValueError`` for e_b outside [0, 1/2].
    """
    if not 0.0 <= e_b <= 0.5:
        raise ValueError("error rate must lie in [0, 1/2]")
    e = min(e_b, 3.0 / 19.0)
    return -math.log2(1.0 - e ** 2 - (1.0 - 6.0 * e) ** 2 / 2.0)


def secure_key_rate(model: ChannelModel, tau: float, e_b: float) -> float:
    """R = max(0, s * p_click * (tau - f_ec * h(e_b))); zero on a channel with no clicks."""
    return max(0.0, model.sifting * model.p_click * (tau - model.f_ec * binary_entropy(e_b)))


def unconditional_rate(e_b: float, r_sifted: float) -> float:
    """Coherent-attack lower bound R >= R_sifted*(1 - h(e_b) - h((3+sqrt5) e_b)),
    floored at zero, and zero once the phase error (3+sqrt5) e_b reaches 1/2,
    past which h would shrink again and revive the rate.  Raises
    ``ValueError`` for e_b outside [0, 1/2]."""
    if not 0.0 <= e_b <= 0.5:
        raise ValueError("error rate must lie in [0, 1/2]")
    arg = (3.0 + _SQRT5) * e_b
    if arg >= 0.5:
        return 0.0
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
        if not e_b >= 0.0:  # NaN fails
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
    confidence parameter eps_prime.  Both block sizes must be positive whole
    numbers; a whole float such as 1e6 is stored as an int."""

    n_key: int
    k_pe: int
    eps_prime: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_key", _whole(self.n_key, "block size n"))
        object.__setattr__(self, "k_pe", _whole(self.k_pe, "block size k"))
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
    if not math.isfinite(log_arg):
        raise ValueError(f"finite-size deviation is undefined: eps={eps!r} is too small "
                         f"(the log argument overflows for n={fs.n_key}, k={fs.k_pe})")
    if log_arg <= 1.0:
        raise ValueError(f"finite-size deviation is undefined: log argument {log_arg:.6g} <= 1 "
                         f"(eps={eps:g} is too loose for n={fs.n_key}, k={fs.k_pe}, e_obs={e:g})")
    return math.sqrt(2.0 * (n + k) * e * (1.0 - e) / (k * n) * math.log(log_arg))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

# The explicit attacks by name, in the order ``attacks.ATTACK_PROFILES`` builds
# them; the two bounds below need no attack.
EXPLICIT_ATTACKS = ("ir", "med", "cloning", "unitary")
LOWER_BOUND = "lower-bound"
UNCONDITIONAL = "unconditional"


def keyrate_sweep(model: ChannelModel,
                  profiles: Sequence[AttackProfile],
                  distances: Sequence[float],
                  finite_size: FiniteSizeParams | None = None,
                  bounds: Collection[str] = (LOWER_BOUND, UNCONDITIONAL)
                  ) -> list[dict[str, float]]:
    """One row per distance with e_b, p_click and per-attack tau and R.

    Each name in ``bounds`` adds its columns after the attacks', in this
    order: tau and R of :data:`LOWER_BOUND`, R of :data:`UNCONDITIONAL`;
    any other name raises ``ValueError``.  In finite-size mode the observed
    e_b is inflated by the parameter estimation deviation, capped at 1/2,
    before entering the shrinking factors and the entropy terms; detection
    probabilities are unchanged.  Rows are emitted in the given distance
    order and are fully deterministic.
    """
    unknown = set(bounds) - {LOWER_BOUND, UNCONDITIONAL}
    if unknown:
        raise ValueError(f"unknown key-rate bounds: {sorted(unknown)}")
    rows: list[dict[str, float]] = []
    for dist in distances:
        m = replace(model, distance_km=float(dist))
        e_b = e_eff = m.e_b
        if finite_size is not None:
            e_eff = min(0.5, e_b + finite_size_deviation(finite_size, e_b))
        row: dict[str, float] = {"distance_km": float(dist), "e_b": e_b, "p_click": m.p_click}
        if finite_size is not None:
            row["e_b_finite"] = e_eff
        for prof in profiles:
            tau = prof.tau(e_eff, m.sifting)
            row[f"tau_{prof.name}"] = tau
            row[f"r_{prof.name}"] = secure_key_rate(m, tau, e_eff)
        if LOWER_BOUND in bounds:
            tau_low = tau_lower_bound(e_eff)
            row[f"tau_{LOWER_BOUND}"] = tau_low
            row[f"r_{LOWER_BOUND}"] = secure_key_rate(m, tau_low, e_eff)
        if UNCONDITIONAL in bounds:
            row[f"r_{UNCONDITIONAL}"] = unconditional_rate(e_eff, m.sifting * m.p_click)
        rows.append(row)
    return rows
