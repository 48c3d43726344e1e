import math

import numpy as np
import pytest

from dpsqkd.keyrate import (LOWER_BOUND, UNCONDITIONAL, AttackProfile,
                            ChannelModel, FiniteSizeParams, binary_entropy,
                            finite_size_deviation, keyrate_sweep,
                            secure_key_rate, shrinking_factor,
                            tau_lower_bound, unconditional_rate)

DEFAULT_PROFILES = {
    "ir": AttackProfile("ir", 1.0 / 3.0, 0.75),
    "med": AttackProfile("med", 0.25, 13.0 / 18.0),
    "cloning": AttackProfile("cloning", 1.0 / 7.0, 0.6133786848),
    "unitary": AttackProfile("unitary", 0.1527084, 0.6318782),
}
PROFILE_LIST = list(DEFAULT_PROFILES.values())  # the sweep's one input type


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
    m = ChannelModel()
    assert m.p_signal == pytest.approx(0.1)
    assert m.p_click == pytest.approx(0.100001)
    assert m.e_b == pytest.approx((5e-7 + 1e-3) / 0.100001, abs=1e-12)
    assert m.e_b == pytest.approx(0.0100, abs=1e-4)


def test_qber_dark_count_limit():
    assert ChannelModel(distance_km=400.0).e_b == pytest.approx(0.5, abs=1e-2)
    assert ChannelModel(baseline_error=0.0, dark_count_prob=0.0).e_b == 0.0


def test_qber_monotone_in_distance():
    models = [ChannelModel(distance_km=d) for d in np.linspace(0, 200, 41)]
    ebs = [m.e_b for m in models]
    clicks = [m.p_click for m in models]
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
    for field, message in [("f_ec", "error correction"), ("loss_db_per_km", "fibre loss"),
                           ("signal_scale", "signal scale"), ("distance_km", "distance")]:
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=message):
                ChannelModel(**{field: value})
    for fields in ({"dark_count_prob": 1.0, "detector_efficiency": 1.0},
                   {"dark_count_prob": 0.5, "detector_efficiency": 1.0},
                   {"dark_count_prob": 1e-6, "detector_efficiency": 1.0},
                   {"signal_scale": 2.0, "detector_efficiency": 0.6}):
        with pytest.raises(ValueError, match="click probability .* exceeds 1"):
            ChannelModel(**fields)


def test_click_probability_bound_follows_the_distance():
    edge = ChannelModel(dark_count_prob=0.0, detector_efficiency=1.0)
    assert edge.p_click == 1.0
    far = ChannelModel(dark_count_prob=0.5, detector_efficiency=1.0, distance_km=50.0)
    assert far.p_click == pytest.approx(0.6, abs=1e-12)
    with pytest.raises(ValueError, match="click probability"):
        far.at_distance(0.0)


def test_zero_click_channel():
    """With no clicks the error rate is undefined and names why; the key rate is 0."""
    dark = ChannelModel(signal_scale=0.0, dark_count_prob=0.0)
    assert dark.p_click == 0.0
    with pytest.raises(ValueError, match="no detector clicks at 0 km"):
        dark.e_b
    assert secure_key_rate(dark, 1.0, 0.01) == 0.0


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
    # past e = 3/19 the bound is held at its peak p_co = 37/38
    peak = tau_lower_bound(3.0 / 19.0)
    assert peak == pytest.approx(-math.log2(37.0 / 38.0), abs=1e-12)
    assert peak == pytest.approx(0.0385, abs=1e-4)
    assert tau_lower_bound(1.0 / 6.0) == tau_lower_bound(0.45) == tau_lower_bound(0.5) == peak
    for e_b in (-1e-9, 0.5 + 1e-9, math.nan):
        with pytest.raises(ValueError):
            tau_lower_bound(e_b)


def test_tau_lower_bound_decreasing_then_flat():
    """Strictly decreasing up to the stationary point e = 3/19 of the collision
    bound, flat after it, so it never rises again, and within [0, 1] on every
    physical error rate."""
    grid = np.linspace(0.0, 3.0 / 19.0, 60)
    vals = [tau_lower_bound(e) for e in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    past = [tau_lower_bound(e) for e in np.linspace(3.0 / 19.0, 0.5, 60)]
    assert past == [vals[-1]] * 60
    assert all(0.0 < t <= 1.0 for t in vals + past)


def test_lower_bound_column_is_tau_lower_bound_and_never_revives():
    """The sweep's lower-bound column is tau_lower_bound of the error rate it
    uses, also in finite-size mode, and with f_ec = 1 its rate stays 0 from
    the first distance where it is 0: past e = 3/19 tau is held while
    h(e_b) keeps rising."""
    distances = np.arange(200.0, 331.0, 10.0)
    for finite_size in (None, FiniteSizeParams(1000, 50, 1e-9)):
        rows = keyrate_sweep(ChannelModel(f_ec=1.0), [], distances,
                             finite_size=finite_size, bounds=(LOWER_BOUND,))
        errors = [row.get("e_b_finite", row["e_b"]) for row in rows]
        assert max(errors) > 3.0 / 19.0
        assert [row["tau_lower-bound"] for row in rows] == [tau_lower_bound(e) for e in errors]
        rates = [row["r_lower-bound"] for row in rows]
        assert 0.0 in rates and not any(rates[rates.index(0.0):])


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
    # every physical error rate: past a phase error of 1/2, h((3+sqrt5) e)
    # shrinks, and the rate must not revive
    grid = np.linspace(0.0, 0.5, 200)
    vals = [unconditional_rate(e, 1.0) for e in grid]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    assert unconditional_rate(0.3, 0.5) == 0.0
    assert unconditional_rate(0.5, 0.5) == 0.0
    for e_b in (-1e-9, 0.5 + 1e-9, math.nan):
        with pytest.raises(ValueError):
            unconditional_rate(e_b, 0.5)


def test_attack_profile_rejects_a_nan_error_rate():
    """NaN once passed ``e_b < 0``: intercepted_fraction returned NaN, and
    tau then blamed the attacked fraction."""
    profile = DEFAULT_PROFILES["med"]
    for call in (lambda: profile.intercepted_fraction(math.nan),
                 lambda: profile.tau(math.nan, 0.5)):
        with pytest.raises(ValueError, match="error rate must be non-negative"):
            call()


@pytest.mark.parametrize("collision", [0.49, 1.01, math.nan])
def test_attack_profile_rejects_a_collision_outside_its_range(collision):
    with pytest.raises(ValueError, match=r"collision must lie in \[1/2, 1\]"):
        AttackProfile("med", 0.25, collision)


def test_med_beats_lower_bound_at_50km():
    m = ChannelModel(distance_km=50.0)
    e = m.e_b
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


def test_channel_rejects_fractional_pulse_count():
    with pytest.raises(ValueError, match="pulse count must be a whole number"):
        ChannelModel(n_pulses=3.5)
    model = ChannelModel(n_pulses=4.0)
    assert model.n_pulses == 4 and isinstance(model.n_pulses, int)
    assert model.sifting == 0.75


def test_finite_size_rejects_fractional_block_sizes():
    for n_key, k_pe in ((1.5, 10), (10, 2.5), (math.inf, 10), (10, math.nan)):
        with pytest.raises(ValueError, match="whole number"):
            FiniteSizeParams(n_key, k_pe, 1e-9)
    fs = FiniteSizeParams(1e6, 1e4, 1e-9)
    assert (fs.n_key, fs.k_pe) == (10 ** 6, 10 ** 4)
    assert isinstance(fs.n_key, int) and isinstance(fs.k_pe, int)


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
    # a subnormal eps overflows the log argument: an error, not an infinite deviation
    tight = FiniteSizeParams(n_key=10 ** 6, k_pe=10 ** 4, eps_prime=5e-324)
    with pytest.raises(ValueError, match="eps=5e-324 is too small"):
        finite_size_deviation(tight, 0.02)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_rows_and_orderings():
    rows = keyrate_sweep(ChannelModel(), PROFILE_LIST, np.arange(0.0, 151.0, 5.0))
    assert len(rows) == 31
    for row in rows:
        taus = [row[f"tau_{n}"] for n in DEFAULT_PROFILES]
        assert all(0.0 <= t <= 1.0 for t in taus)
        assert row["tau_lower-bound"] <= min(taus) + 1e-12
        assert all(row[f"r_{n}"] >= 0.0 for n in DEFAULT_PROFILES)


@pytest.mark.parametrize("bounds,columns", [
    ((LOWER_BOUND,), ["tau_lower-bound", "r_lower-bound"]),
    ((UNCONDITIONAL,), ["r_unconditional"]),
    ((UNCONDITIONAL, LOWER_BOUND), ["tau_lower-bound", "r_lower-bound", "r_unconditional"]),
    ((), []),
])
def test_sweep_selects_each_bound_by_name(bounds, columns):
    """Each bound name adds only its own columns, after the attacks, in a fixed order."""
    rows = keyrate_sweep(ChannelModel(), PROFILE_LIST, [0.0, 50.0], bounds=bounds)
    both = keyrate_sweep(ChannelModel(), PROFILE_LIST, [0.0, 50.0])
    for row, full in zip(rows, both):
        assert list(row) == list(full)[:-3] + columns
        assert all(row[c] == full[c] for c in row)


def test_sweep_rejects_an_unknown_bound_name():
    """A misspelt bound fails before any row, instead of dropping its columns."""
    with pytest.raises(ValueError, match="unknown key-rate bounds: \\['lower_bound'\\]"):
        keyrate_sweep(ChannelModel(), PROFILE_LIST, [0.0], bounds=("lower_bound",))


def test_sweep_empty():
    assert keyrate_sweep(ChannelModel(), PROFILE_LIST, []) == []


def test_sweep_deterministic():
    a = keyrate_sweep(ChannelModel(), PROFILE_LIST, [0.0, 25.0, 50.0])
    b = keyrate_sweep(ChannelModel(), PROFILE_LIST, [0.0, 25.0, 50.0])
    assert a == b


def test_finite_size_sweep_reduces_rates():
    fs = FiniteSizeParams(n_key=10 ** 6, k_pe=10 ** 4, eps_prime=1e-9)
    dists = np.arange(0.0, 101.0, 10.0)
    asym = keyrate_sweep(ChannelModel(), PROFILE_LIST, dists)
    fin = keyrate_sweep(ChannelModel(), PROFILE_LIST, dists, finite_size=fs)
    for ra, rf in zip(asym, fin):
        assert rf["e_b_finite"] > rf["e_b"]
        for name in DEFAULT_PROFILES:
            assert rf[f"r_{name}"] <= ra[f"r_{name}"] + 1e-15


def test_finite_size_rates_stay_zero_above_half_qber():
    """With a small sample the inflated QBER passes 1/2 beyond 230 km; it is
    capped there, so no rate revives on the way out to 300 km."""
    fs = FiniteSizeParams(1000, 50, 1e-9)
    rows = keyrate_sweep(ChannelModel(), PROFILE_LIST, np.arange(200.0, 301.0, 10.0),
                         finite_size=fs)
    assert max(row["e_b_finite"] for row in rows) == 0.5
    for row in rows:
        assert all(row[key] == 0.0 for key in row if key.startswith("r_")), row
