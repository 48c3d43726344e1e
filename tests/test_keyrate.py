import math

import numpy as np
import pytest

from dpsqkd.keyrate import (AttackProfile, ChannelModel, FiniteSizeParams,
                            binary_entropy, finite_size_deviation,
                            keyrate_sweep, qber, secure_key_rate,
                            shrinking_factor, tau_lower_bound,
                            unconditional_rate)

DEFAULT_PROFILES = {
    "ir": AttackProfile("ir", 1.0 / 3.0, 0.75),
    "med": AttackProfile("med", 0.25, 13.0 / 18.0),
    "cloning": AttackProfile("cloning", 1.0 / 7.0, 0.6133786848),
    "unitary": AttackProfile("unitary", 0.1527084, 0.6318782),
}


def alt_finite_size_deviation(n, k, e, eps):
    """Second, independently written transcription of the tail deviation."""
    log_c = (1.0 / (8.0 * (n + k)) + 1.0 / (12.0 * k)
             - 1.0 / (12.0 * k * e + 1.0) - 1.0 / (12.0 * k * (1.0 - e) + 1.0))
    log_term = (0.5 * math.log(n + k) + log_c
                - 0.5 * math.log(2.0 * math.pi * n * k * e * (1.0 - e))
                - math.log(eps))
    return math.sqrt(2.0 * (n + k) * e * (1.0 - e) / (k * n) * log_term)


# ---------------------------------------------------------------------------
# channel and entropy
# ---------------------------------------------------------------------------

def test_qber_at_zero_distance():
    q = qber(ChannelModel())
    assert q.p_signal == pytest.approx(0.1)
    assert q.p_click == pytest.approx(0.100001)
    assert q.e_b == pytest.approx((5e-7 + 1e-3) / 0.100001, abs=1e-12)
    assert q.e_b == pytest.approx(0.0100, abs=1e-4)


def test_qber_dark_count_limit():
    q = qber(ChannelModel(distance_km=400.0))
    assert q.e_b == pytest.approx(0.5, abs=1e-2)
    q0 = qber(ChannelModel(baseline_error=0.0, dark_count_prob=0.0))
    assert q0.e_b == 0.0


def test_qber_monotone_in_distance():
    models = [ChannelModel(distance_km=d) for d in np.linspace(0, 200, 41)]
    ebs = [qber(m).e_b for m in models]
    clicks = [qber(m).p_click for m in models]
    assert all(b >= a - 1e-15 for a, b in zip(ebs, ebs[1:]))
    assert all(b <= a + 1e-15 for a, b in zip(clicks, clicks[1:]))


def test_channel_validation():
    with pytest.raises(ValueError):
        ChannelModel(detector_efficiency=0.0)
    with pytest.raises(ValueError):
        ChannelModel(f_ec=0.9)
    with pytest.raises(ValueError):
        ChannelModel(loss_db_per_km=-1.0)
    with pytest.raises(ValueError):
        ChannelModel().at_distance(-50.0)
    for n in (2, 7, 13):
        with pytest.raises(ValueError, match="pulse count"):
            ChannelModel(n_pulses=n)


def test_binary_entropy():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.11) == pytest.approx(0.4999, abs=1e-4)
    with pytest.raises(ValueError):
        binary_entropy(1.1)


# ---------------------------------------------------------------------------
# shrinking factors
# ---------------------------------------------------------------------------

def test_shrinking_factor_examples():
    g = (2.0 / 3.0) * 4.0 * 0.03
    assert shrinking_factor(g, 0.72) == pytest.approx(0.9579, abs=1e-4)
    assert shrinking_factor(0.0, 0.72) == 1.0
    assert shrinking_factor(1.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        shrinking_factor(1.2, 0.72)
    with pytest.raises(ValueError):
        shrinking_factor(0.5, 0.4)


def test_tau_lower_bound_values():
    assert tau_lower_bound(0.0) == pytest.approx(1.0, abs=1e-12)
    assert tau_lower_bound(1.0 / 6.0) == pytest.approx(-math.log2(35.0 / 36.0), abs=1e-12)
    assert tau_lower_bound(1.0 / 6.0) == pytest.approx(0.0406, abs=1e-3)
    with pytest.raises(ValueError):
        tau_lower_bound(0.45)


def test_tau_lower_bound_decreasing_then_flat():
    # strictly decreasing up to the stationary point at e = 3/19
    grid = np.linspace(0.0, 3.0 / 19.0, 60)
    vals = [tau_lower_bound(e) for e in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    # mild uptick beyond the stationary point, still far below 1
    assert tau_lower_bound(1.0 / 6.0) > tau_lower_bound(3.0 / 19.0)
    assert tau_lower_bound(1.0 / 6.0) < 0.05


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------

def test_secure_key_rate_limits():
    m = ChannelModel(dark_count_prob=0.0, baseline_error=0.0)
    assert secure_key_rate(m, 1.0, 0.0) == pytest.approx(2.0 / 3.0 * 0.1, abs=1e-12)
    assert secure_key_rate(m, 0.0, 0.25) == 0.0  # floored at zero


def test_secure_key_rate_zero_crossing():
    m = ChannelModel()
    # tau = f*h(e) is the cutoff
    e = 0.05
    tau_star = m.f_ec * binary_entropy(e)
    assert secure_key_rate(m, tau_star, e) == 0.0
    assert secure_key_rate(m, tau_star + 1e-3, e) > 0.0


def test_unconditional_rate():
    assert unconditional_rate(0.0, 0.5) == pytest.approx(0.5)
    e_star = 0.5 / (3.0 + math.sqrt(5.0))
    assert unconditional_rate(e_star, 0.5) == 0.0
    grid = np.linspace(0.0, 0.09, 40)
    vals = [unconditional_rate(e, 1.0) for e in grid]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        unconditional_rate(0.3, 0.5)


def test_med_beats_lower_bound_at_50km():
    m = ChannelModel(distance_km=50.0)
    e = qber(m).e_b
    r_med = secure_key_rate(m, DEFAULT_PROFILES["med"].tau(e, m.sifting), e)
    r_low = secure_key_rate(m, tau_lower_bound(e), e)
    assert r_med > r_low > 0.0


# ---------------------------------------------------------------------------
# finite size
# ---------------------------------------------------------------------------

def test_finite_size_two_transcriptions_agree():
    fs = FiniteSizeParams(n_key=10 ** 6, k_pe=10 ** 4, eps_prime=1e-9)
    t = finite_size_deviation(fs, 0.02)
    assert t == pytest.approx(alt_finite_size_deviation(1e6, 1e4, 0.02, 1e-9), abs=1e-12)
    assert t == pytest.approx(0.008244924826454126, abs=1e-12)
    assert t > 0.0


def test_finite_size_monotonicities():
    ks = [10 ** 3, 3 * 10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6]
    ts = [finite_size_deviation(FiniteSizeParams(10 ** 6, k, 1e-9), 0.02) for k in ks]
    assert all(b < a for a, b in zip(ts, ts[1:]))
    epss = [1e-3, 1e-6, 1e-9, 1e-12]
    ts = [finite_size_deviation(FiniteSizeParams(10 ** 6, 10 ** 4, e), 0.02) for e in epss]
    assert all(b > a for a, b in zip(ts, ts[1:]))


def test_finite_size_domain():
    fs = FiniteSizeParams(n_key=10 ** 6, k_pe=10 ** 4, eps_prime=1e-9)
    with pytest.raises(ValueError):
        finite_size_deviation(fs, 0.0)
    with pytest.raises(ValueError):
        finite_size_deviation(fs, 1.0)
    with pytest.raises(ValueError):
        FiniteSizeParams(n_key=0, k_pe=1, eps_prime=0.5)
    loose = FiniteSizeParams(n_key=10 ** 6, k_pe=10 ** 4, eps_prime=0.999)
    with pytest.raises(ValueError, match="log argument"):
        finite_size_deviation(loose, 0.4)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_rows_and_orderings():
    rows = keyrate_sweep(ChannelModel(), DEFAULT_PROFILES, np.arange(0.0, 151.0, 5.0))
    assert len(rows) == 31
    for row in rows:
        taus = [row[f"tau_{n}"] for n in DEFAULT_PROFILES]
        assert all(0.0 <= t <= 1.0 for t in taus)
        assert row["tau_lower-bound"] <= min(taus) + 1e-12
        assert all(row[f"r_{n}"] >= 0.0 for n in DEFAULT_PROFILES)


def test_sweep_empty():
    assert keyrate_sweep(ChannelModel(), DEFAULT_PROFILES, []) == []


def test_sweep_deterministic():
    a = keyrate_sweep(ChannelModel(), DEFAULT_PROFILES, [0.0, 25.0, 50.0])
    b = keyrate_sweep(ChannelModel(), DEFAULT_PROFILES, [0.0, 25.0, 50.0])
    assert a == b


def test_finite_size_sweep_reduces_rates():
    fs = FiniteSizeParams(n_key=10 ** 6, k_pe=10 ** 4, eps_prime=1e-9)
    dists = np.arange(0.0, 101.0, 10.0)
    asym = keyrate_sweep(ChannelModel(), DEFAULT_PROFILES, dists)
    fin = keyrate_sweep(ChannelModel(), DEFAULT_PROFILES, dists, finite_size=fs)
    for ra, rf in zip(asym, fin):
        assert rf["e_b_finite"] > rf["e_b"]
        for name in DEFAULT_PROFILES:
            assert rf[f"r_{name}"] <= ra[f"r_{name}"] + 1e-15
