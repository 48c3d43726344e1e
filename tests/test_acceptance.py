"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see every line.  Three
criteria assert targets that the exact values provably miss: two
two-decimal figures and one QBER threshold met only for M >= 26 (the
computed values and the reason are printed in the failing clause); those
assertions are kept as stated rather than loosened.
"""

import math

import numpy as np
import pytest

from dpsqkd.attacks import med_problem, standard_attack_profiles
from dpsqkd.dps import _key_slot_ber, mzi_transfer, spectral_error_terms
from dpsqkd.keyrate import (ChannelModel, FiniteSizeParams,
                            finite_size_deviation, keyrate_sweep,
                            tau_lower_bound)
from dpsqkd.sdp import SdpSolution, verify_kkt
from dpsqkd.wcs import (WcsParams, slice_averaged_qber, usd_success,
                        wcs_key_rates)


@pytest.fixture(scope="module")
def profiles3():
    return standard_attack_profiles(3)


def check(num, label, clauses):
    ok = all(flag for flag, _ in clauses)
    print(f"\nACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {label}")
    for flag, detail in clauses:
        print(f"    {'ok  ' if flag else 'FAIL'} {detail}")
    assert ok, "; ".join(d for flag, d in clauses if not flag)


def test_criterion_01_med_optimum(med3):
    clauses = [
        (abs(med3.p_success - 0.75) <= 1e-6,
         f"MED optimum {med3.p_success:.9f} = 0.75 within 1e-6"),
        (bool(np.all(np.abs(np.diag(med3.confusion) - 0.75) <= 5e-3)),
         "confusion diagonal within 5e-3 of 3/4"),
        (bool(np.all(np.abs(med3.confusion[~np.eye(4, dtype=bool)] - 1 / 12) <= 5e-3)),
         "confusion off-diagonal within 5e-3 of 1/12"),
    ]
    check(1, "three-pulse MED optimum and confusion table", clauses)


def test_criterion_02_handbuilt_povm_optimal(ens3):
    # the closed-form dual Y = I/4, of value Tr Y = 3/4, has the multipliers
    # y_j = Tr(B_j)/4 on the orthonormal completeness operators B_j
    problem = med_problem(ens3)
    hand = [0.75 * ens3.densities]
    y = np.array([np.trace(op).real / 4 for op in problem.ops[0][:, 0]])
    candidate = SdpSolution(x=hand, y=y, primal_objective=0.75, dual_objective=0.75,
                            gap=0.0, iterations=0)
    report = verify_kkt(problem, candidate, tol=1e-6)
    clauses = [
        (report.passed, f"rank-one +-0.25 POVM certified: {report.conditions}"),
        (report.complementary_slackness <= 1e-6,
         f"complementary slackness {report.complementary_slackness:.2e} <= 1e-6"),
    ]
    check(2, "hand-built POVM passes the optimality certificate", clauses)


def test_criterion_03_med_collision(med3, ens3):
    def brute(confusion, priors, bit_map):
        total = 0.0
        positions = len(bit_map[0])
        for pos in range(positions):
            for z in range(confusion.shape[1]):
                p_z = sum(priors[i] * confusion[i][z] for i in range(len(priors)))
                if p_z == 0:
                    continue
                p0 = sum(priors[i] * confusion[i][z] for i in range(len(priors))
                         if bit_map[i][pos] == 0) / p_z
                total += (p0 ** 2 + (1 - p0) ** 2) * p_z / positions
        return total

    oracle = brute(med3.confusion, ens3.priors, ens3.bit_map)
    clauses = [
        (abs(med3.collision_probability - 0.72) <= 1e-2,
         f"collision probability {med3.collision_probability:.6f} = 0.72 within 1e-2"
         " (exact 13/18)"),
        (abs(med3.collision_probability - oracle) <= 1e-10,
         f"independent Bayes brute force agrees to {abs(med3.collision_probability - oracle):.1e}"),
    ]
    check(3, "MED collision probability", clauses)


def test_criterion_04_medn(med4, med5):
    clauses = [
        (abs(med4.p_success - 0.50) <= 1e-2,
         f"four-pulse optimum {med4.p_success:.6f} = 0.50 within 1e-2"),
        (abs(med5.p_success - 0.31) <= 1e-2,
         f"five-pulse optimum {med5.p_success:.6f} = 0.31 within 1e-2 (exact 5/16)"),
    ]
    check(4, "four- and five-pulse MED optima", clauses)


def test_criterion_05_optimal_cloning(clone3):
    from oracles import block_choi, cptp_residuals
    neg, tp = cptp_residuals(block_choi(clone3), 3)
    off = float(np.abs(clone3.bob_states[0][0, 1]))
    clauses = [
        (abs(clone3.avg_two_copy_fidelity - 0.78) <= 5e-3,
         f"two-copy fidelity {clone3.avg_two_copy_fidelity:.6f} = 0.78 within 5e-3 (exact 7/9)"),
        (all(abs(f - 0.81) <= 5e-3 for f in clone3.per_state_clone_fidelity),
         f"clone fidelity {clone3.per_state_clone_fidelity[0]:.6f} = 0.81 within 5e-3 (exact 17/21)"),
        (abs(off - 0.23) <= 5e-3,
         f"off-diagonal magnitude {off:.6f}; target 0.23 +- 5e-3 missed by "
         f"{abs(off - 0.23):.1e}: the optimum is exactly 5/21 = 0.238095 and 0.23 is its "
         "two-decimal truncation"),
        (neg <= 1e-7 and tp <= 1e-7,
         f"CPTP residuals negativity={neg:.1e}, trace-preservation={tp:.1e} <= 1e-7"),
    ]
    check(5, "optimal cloning fidelities and channel validity", clauses)


def test_criterion_06_depolarizing_identification(ens3, clone3):
    from dpsqkd.attacks import depolarizing_fit
    printed = [0.69 * ens3.densities[i] + (0.31 / 3) * np.eye(3) for i in range(4)]
    fits_printed = [depolarizing_fit(ens3.densities[i], printed[i])[0] for i in range(4)]
    fits_solver = [depolarizing_fit(ens3.densities[i], clone3.bob_states[i])[0]
                   for i in range(4)]
    clauses = [
        (all(abs(p - 0.31) <= 1e-2 for p in fits_printed),
         f"fit of the two-decimal clone rendering gives p = {fits_printed[0]:.4f} = 0.31"),
        (max(fits_printed) - min(fits_printed) <= 1e-3,
         "fitted p identical across the four states (two-decimal rendering)"),
        (max(fits_solver) - min(fits_solver) <= 1e-3,
         f"solver-output fits share one p = {fits_solver[0]:.6f} (exact 2/7) "
         f"within {max(fits_solver) - min(fits_solver):.1e}"),
    ]
    check(6, "depolarizing identification of the cloning map", clauses)


def test_criterion_07_cloning_ber(ens3, clone3):
    spectral = [sum(lam * w for lam, w in spectral_error_terms(bob, i, ens3))
                for i, bob in enumerate(clone3.bob_states)]
    direct = _key_slot_ber(clone3.bob_states, ens3.bit_map).tolist()
    agreement = max(abs(a - b) for a, b in zip(spectral, direct))
    clauses = [
        (agreement <= 1e-10,
         f"spectral and direct mixed-state routes agree to {agreement:.1e}"),
        (all(abs(b - 0.13) <= 5e-3 for b in direct),
         f"key-slot wrong-port probability is {direct[0]:.6f} = (1 - 17/21)/2 = 2/21, "
         "not 0.13: the clone's degenerate 2/21 error eigenspace carries total "
         "wrong-port weight 1, so the direct rate is 2/21 = 0.0952 in any eigenbasis; "
         "the detection-conditioned variant gives 1/7 = 0.1429, also outside 0.13 +- 5e-3"),
    ]
    check(7, "cloning bit-error rate via two independent routes", clauses)


def test_criterion_08_post_cloning_med(clone_med3):
    diag = np.diag(clone_med3.confusion)
    clauses = [
        (bool(np.all(np.abs(diag - 0.607) <= 5e-3)),
         f"post-cloning confusion diagonal {diag[0]:.6f} = 0.607 within 5e-3 (exact 17/28)"),
        (abs(clone_med3.collision_probability - 0.61) <= 1e-2,
         f"post-cloning collision probability {clone_med3.collision_probability:.6f}"
         " = 0.61 within 1e-2"),
    ]
    check(8, "discrimination after the optimal cloner", clauses)


def test_criterion_09_unitary_cloner(ens3, unitary3, unitary_med3):
    basis, q_opt, avg_fid, params, bobs = unitary3
    entries = {
        "b00[0,1]≈0.28": (float(bobs[0][0, 1].real), 0.28),
        "b01[0,1]≈0.22": (float(bobs[1][0, 1].real), 0.22),
        "b01[0,2]≈-0.25": (float(bobs[1][0, 2].real), -0.25),
        "b01[2,2]≈0.44": (float(bobs[1][2, 2].real), 0.44),
        "b11[0,0]≈0.36": (float(bobs[3][0, 0].real), 0.36),
        "b11[0,2]≈0.14": (float(bobs[3][0, 2].real), 0.14),
        "b11[1,2]≈-0.17": (float(bobs[3][1, 2].real), -0.17),
    }
    matrices_ok = all(abs(v - t) <= 1e-2 for v, t in entries.values())
    ber_cond = float(np.mean(_key_slot_ber(bobs, ens3.bit_map, conditional=True)))
    ber_plain = float(np.mean(_key_slot_ber(bobs, ens3.bit_map)))
    clauses = [
        (abs(q_opt - 0.23) <= 1e-2,
         f"closed-form q_opt = {q_opt:.6f} = 0.23 within 1e-2"),
        (params.unitarity_residual() <= 1e-12,
         f"unitarity residual {params.unitarity_residual():.1e} <= 1e-12"),
        (abs(avg_fid - 0.78) <= 1e-2,
         f"average clone fidelity {avg_fid:.6f} = 0.78 within 1e-2"),
        (matrices_ok,
         "transformed matrices match the expected entries "
         f"{ {k: round(v, 4) for k, (v, _) in entries.items()} }"),
        (abs(ber_cond - 0.15) <= 1e-2,
         f"detection-conditioned BER {ber_cond:.6f} = 0.15 within 1e-2 "
         f"(unconditional accounting gives {ber_plain:.4f})"),
        (abs(unitary_med3.p_success - 0.603) <= 5e-3,
         f"post-cloning MED success {unitary_med3.p_success:.6f} = 0.603 within 5e-3"),
    ]
    check(9, "unitary symmetric cloner", clauses)


def test_criterion_10_shrinking_factor_ordering(profiles3):
    grid = np.linspace(0.005, 0.08, 100)
    ok_order, ok_range = True, True
    for e in grid:
        taus = {name: p.tau(float(e), 2.0 / 3.0) for name, p in profiles3.items()}
        low = tau_lower_bound(float(e))
        if low > min(taus.values()) + 1e-12:
            ok_order = False
        if not all(0.0 <= t <= 1.0 for t in taus.values()):
            ok_range = False
    at_zero = all(abs(p.tau(0.0, 2.0 / 3.0) - 1.0) <= 1e-12 for p in profiles3.values())
    clauses = [
        (ok_order, "tau_lower-bound <= min(tau_ir, tau_med, tau_cloning, tau_unitary) "
                   "on the 100-point grid e_b in [0.005, 0.08]"),
        (ok_range, "all shrinking factors within [0, 1] on the grid"),
        (at_zero, "tau(e_b = 0) = 1 for every attack"),
    ]
    check(10, "shrinking-factor ordering against the generic bound", clauses)


def test_criterion_11_finite_size(profiles3):
    fs = FiniteSizeParams(n_key=10 ** 6, k_pe=10 ** 4, eps_prime=1e-9)
    t = finite_size_deviation(fs, 0.02)

    def alt(n, k, e, eps):
        log_c = (1 / (8 * (n + k)) + 1 / (12 * k)
                 - 1 / (12 * k * e + 1) - 1 / (12 * k * (1 - e) + 1))
        log_term = (0.5 * math.log(n + k) + log_c
                    - 0.5 * math.log(2 * math.pi * n * k * e * (1 - e)) - math.log(eps))
        return math.sqrt(2 * (n + k) * e * (1 - e) / (k * n) * log_term)

    t2 = alt(1e6, 1e4, 0.02, 1e-9)
    ks = [10 ** 3, 10 ** 4, 10 ** 5]
    t_by_k = [finite_size_deviation(FiniteSizeParams(10 ** 6, k, 1e-9), 0.02) for k in ks]
    epss = [1e-6, 1e-9, 1e-12]
    t_by_eps = [finite_size_deviation(FiniteSizeParams(10 ** 6, 10 ** 4, e), 0.02)
                for e in epss]
    dists = np.arange(0.0, 101.0, 10.0)
    asym = keyrate_sweep(ChannelModel(), list(profiles3.values()), dists)
    fin = keyrate_sweep(ChannelModel(), list(profiles3.values()), dists, finite_size=fs)
    reduced = all(
        fin[i][f"r_{name}"] <= asym[i][f"r_{name}"] + 1e-15
        for i in range(len(dists)) for name in profiles3
    )
    clauses = [
        (abs(t - t2) <= 1e-12,
         f"two transcriptions agree: |{t:.12f} - {t2:.12f}| <= 1e-12"),
        (all(b < a for a, b in zip(t_by_k, t_by_k[1:])), "t decreases as k grows"),
        (all(b > a for a, b in zip(t_by_eps, t_by_eps[1:])), "t grows as eps' shrinks"),
        (reduced, "finite-size key rate <= asymptotic at every distance"),
    ]
    check(11, "finite-size deviation and its effect on the key rate", clauses)


def test_criterion_12_wcs():
    params = WcsParams(mean_photon_number=0.4, slices=16)
    u = usd_success(0.4)
    slice_qber = slice_averaged_qber(params)
    mono = [slice_averaged_qber(WcsParams(mean_photon_number=0.4, slices=m))
            for m in (1, 2, 4, 8, 16, 32, 64)]
    rows = wcs_key_rates(params, ChannelModel(), np.arange(0.0, 101.0, 5.0))
    pointwise = all(r["r_phase_randomized"] <= r["r_usd"] + 1e-15 for r in rows)
    clauses = [
        (abs(u - (1.0 - math.exp(-0.8))) <= 1e-4,
         f"usd_success(0.4) = {u:.6f} = 1 - exp(-0.8) within 1e-4"),
        (slice_qber < 1e-3,
         f"slice-averaged QBER at (M=16, mu=0.4) is {slice_qber:.6f} > 1e-3: the "
         "triangular phase difference over a pi/8-wide slice has "
         "E[sin^2(delta/2)] = (1 - E[cos delta])/2 = 6.4e-3, so the QBER settles near "
         "0.4 * 6.4e-3 = 2.5e-3; it drops below 1e-3 only for M >= 26"),
        (all(b <= a + 1e-15 for a, b in zip(mono, mono[1:])),
         "slice-averaged QBER non-increasing in M"),
        (pointwise, "phase-randomized key rate <= USD key rate pointwise on 0-100 km"),
    ]
    check(12, "weak-coherent-state analysis", clauses)


def test_criterion_13_property_suites(ens3, med3, clone3, clone_med3, unitary_med3):
    from oracles import block_choi, cptp_residuals
    povm_sum = sum(med3.povm.elements)
    povm_ok = (float(np.max(np.abs(povm_sum - np.eye(3)))) <= 1e-8 and
               all(float(np.min(np.linalg.eigvalsh(el))) >= -1e-9
                   for el in med3.povm.elements))
    neg, tp = cptp_residuals(block_choi(clone3), 3)
    mzi_ok = True
    for n in range(3, 9):
        tu, tv = mzi_transfer(n)
        if float(np.max(np.abs(tu.conj().T @ tu + tv.conj().T @ tv - np.eye(n)))) > 1e-12:
            mzi_ok = False
    rng = np.random.default_rng(99)
    lin_ok = True
    for _ in range(10):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        r1 = a @ a.conj().T
        r1 /= np.trace(r1).real
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        r2 = b @ b.conj().T
        r2 /= np.trace(r2).real
        lam = rng.uniform()
        mix = lam * r1 + (1 - lam) * r2
        bits = ens3.bit_map[0]
        expect = lam * _key_slot_ber(r1, bits) + (1 - lam) * _key_slot_ber(r2, bits)
        if abs(_key_slot_ber(mix, bits) - expect) > 1e-10:
            lin_ok = False
    dpi_ok = (clone_med3.p_success <= med3.p_success + 1e-8 and
              unitary_med3.p_success <= med3.p_success + 1e-8)
    clauses = [
        (povm_ok, "POVM completeness within 1e-8 and element positivity within 1e-9"),
        (neg <= 1e-7 and tp <= 1e-7, "cloning channel CPTP within 1e-7"),
        (mzi_ok, "interferometer transfer unitary within 1e-12 for n = 3..8"),
        (lin_ok, "bit-error rate linear in the density operator within 1e-10"),
        (dpi_ok, "data processing: post-cloning discrimination never beats direct MED"),
    ]
    check(13, "module property suites", clauses)
