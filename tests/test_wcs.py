import math

import numpy as np
import pytest

from dpsqkd.keyrate import ChannelModel
from dpsqkd.wcs import (WcsParams, phase_mismatch_qber, slice_averaged_qber,
                        usd_block_identification, usd_known_fraction,
                        usd_success, wcs_ir_fraction, wcs_key_rates)
from oracles import leggauss_slice_qber


def triangular_expectation(f, width, tol=1e-11):
    """Adaptive-Simpson expectation over the symmetric triangular law on
    [-width, width]; written independently of the quadrature in the package."""
    def integrand(x):
        return f(x) * (width - x) / width ** 2

    def simpson(a, b, fa, fm, fb):
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def adaptive(a, b, fa, fm, fb, whole, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = integrand(lm), integrand(rm)
        left = simpson(a, m, fa, flm, fm)
        right = simpson(m, b, fm, frm, fb)
        if depth > 40 or abs(left + right - whole) < 15.0 * tol:
            return left + right
        return (adaptive(a, m, fa, flm, fm, left, depth + 1)
                + adaptive(m, b, fm, frm, fb, right, depth + 1))

    a, b = 0.0, width
    fa, fb = integrand(a), integrand(b)
    fm = integrand(0.5 * (a + b))
    return 2.0 * adaptive(a, b, fa, fm, fb, simpson(a, b, fa, fm, fb), 0)


def test_usd_success():
    assert usd_success(0.0) == 0.0
    assert usd_success(0.4) == pytest.approx(1.0 - math.exp(-0.8), abs=1e-15)
    assert usd_success(0.4) == pytest.approx(0.5507, abs=1e-4)
    grid = np.linspace(0.0, 2.0, 50)
    vals = [usd_success(m) for m in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        usd_success(-0.1)


def test_usd_block_identification():
    assert usd_block_identification(0.4) == pytest.approx(0.16698470834288898, abs=1e-12)


def test_wcs_ir_fraction():
    assert wcs_ir_fraction(0.0) == 0.0
    assert wcs_ir_fraction(0.4) == pytest.approx((2.0 / 9.0) * 0.4 * math.exp(-0.4), abs=1e-15)
    assert wcs_ir_fraction(0.4) == pytest.approx(0.0596, abs=1e-4)
    # maximised at mu = 1 (derivative of mu*exp(-mu) vanishes there)
    grid = np.linspace(0.01, 3.0, 600)
    best = grid[int(np.argmax([wcs_ir_fraction(m) for m in grid]))]
    assert best == pytest.approx(1.0, abs=1e-2)


def test_phase_mismatch_qber():
    assert phase_mismatch_qber(0.4, 0.0) == 0.0
    assert phase_mismatch_qber(0.4, math.pi) == pytest.approx(1.0 - math.exp(-0.4), abs=1e-15)
    assert phase_mismatch_qber(0.4, math.pi) == pytest.approx(0.3297, abs=1e-4)
    # small-angle expansion mu*delta^2/4
    for delta in (1e-3, 5e-3, 1e-2):
        approx = 0.4 * delta ** 2 / 4.0
        assert phase_mismatch_qber(0.4, delta) == pytest.approx(approx, rel=1e-3)


def test_slice_averaged_qber_matches_independent_quadrature():
    for slices in (1, 4, 16):
        params = WcsParams(mean_photon_number=0.4, slices=slices)
        width = 2.0 * math.pi / slices
        oracle = triangular_expectation(
            lambda d: -math.expm1(-0.4 * math.sin(d / 2.0) ** 2), width)
        assert slice_averaged_qber(params) == pytest.approx(oracle, abs=1e-9)


@pytest.mark.filterwarnings("ignore:mean photon number above 1:UserWarning")
@pytest.mark.parametrize("mu", [1e-3, 0.1, 0.4, 1.0, 3.0, 10.0, 30.0, 100.0])
def test_slice_averaged_qber_matches_the_160_point_rule(mu):
    for slices in (1, 2, 3, 4, 8, 16, 64, 1000):
        params = WcsParams(mean_photon_number=mu, slices=slices)
        assert abs(slice_averaged_qber(params) - leggauss_slice_qber(mu, slices)) <= 1e-14


def test_slice_averaged_qber_non_increasing_in_m():
    vals = [slice_averaged_qber(WcsParams(mean_photon_number=0.4, slices=m))
            for m in (1, 2, 4, 8, 15, 16, 32, 64)]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_slice_averaged_qber_value_at_16():
    # frozen quadrature value; the mismatch penalty is ~2.5e-3 at 16 slices
    assert slice_averaged_qber(WcsParams()) == pytest.approx(0.0025492363, abs=1e-9)
    assert slice_averaged_qber(WcsParams()) < phase_mismatch_qber(0.4, math.pi / 8.0)


def test_wcs_params_validation():
    for mu in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="mean photon number"):
            WcsParams(mean_photon_number=mu)
    with pytest.raises(ValueError):
        WcsParams(slices=0)
    with pytest.raises(ValueError, match="slice count must be a whole number"):
        WcsParams(slices=2.5)
    assert WcsParams(slices=16.0).slices == 16
    with pytest.warns(UserWarning, match="weak-coherent"):
        WcsParams(mean_photon_number=1.5)


def test_strong_source_warning_names_the_caller():
    with pytest.warns(UserWarning, match="weak-coherent") as record:
        WcsParams(mean_photon_number=1.5)
    assert record[0].filename == __file__


def test_usd_known_fraction_limits():
    assert usd_known_fraction(0.4, 1.0) == 0.0
    assert usd_known_fraction(0.4, 0.0) == pytest.approx(usd_block_identification(0.4))
    grid = np.linspace(0.0, 1.0, 30)
    vals = [usd_known_fraction(0.4, t) for t in grid]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_wcs_key_rate_sweep():
    rows = wcs_key_rates(WcsParams(), ChannelModel(), np.arange(0.0, 101.0, 5.0))
    assert len(rows) == 21
    for row in rows:
        # phase randomisation costs at least the 1/16 sifting versus USD
        assert row["r_phase_randomized"] <= row["r_usd"] + 1e-15
        assert row["r_phase_randomized"] <= row["r_ir"] + 1e-15
        assert 0.0 <= row["e_b"] <= 0.5
    # regression pins at 0 km (deterministic model evaluation)
    r0 = rows[0]
    assert r0["tau_ir"] == pytest.approx(1.0 - wcs_ir_fraction(0.4), abs=1e-12)
    assert r0["tau_usd"] == pytest.approx(1.0, abs=1e-12)
    assert r0["p_click"] == pytest.approx(0.4 * 0.1 + 1e-6, abs=1e-12)


def test_wcs_single_slice_degenerates_to_plain_ir():
    params = WcsParams(mean_photon_number=0.4, slices=1)
    rows = wcs_key_rates(params, ChannelModel(), [0.0], attacks=("phase-randomized",))
    penalty = slice_averaged_qber(params)
    assert penalty == pytest.approx(
        triangular_expectation(lambda d: -math.expm1(-0.4 * math.sin(d / 2.0) ** 2),
                               2.0 * math.pi), abs=1e-9)
    assert rows[0]["r_phase_randomized"] >= 0.0


def test_wcs_unknown_attack_rejected():
    with pytest.raises(ValueError, match="unknown WCS attack"):
        wcs_key_rates(WcsParams(), ChannelModel(), [0.0], attacks=("bs",))


@pytest.mark.parametrize("n", [4, 6])
def test_wcs_key_rates_are_three_pulse_only(n):
    # the IR and USD fractions are three-pulse results; an (n-1)/n sifting
    # rescale of them is no n-pulse key rate
    with pytest.raises(ValueError, match=rf"three-pulse only \(n_pulses = {n}\)"):
        wcs_key_rates(WcsParams(), ChannelModel(n_pulses=n), [0.0])
