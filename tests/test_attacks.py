import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dpsqkd import attacks, sdp
from dpsqkd.attacks import (Povm, UnitaryClonerParams, aligned_cloning_basis,
                            apply_choi, apply_unitary_cloner,
                            cloning_problem, collision_probability,
                            complex_matrix_doc, cptp_residuals,
                            depolarizing_fit, holevo_certificate,
                            ir_attack_profile,
                            ir_monte_carlo_collision, med_attack,
                            med_on_cloned, med_problem, med_result_doc,
                            optimal_cloner, optimal_cloning_attack,
                            optimize_unitary_q, pgm_povm,
                            standard_attack_profiles, unitary_cloner_output,
                            unitary_cloning_attack)
from dpsqkd.cli import main
from dpsqkd.dps import DpsEnsemble, ber_of_state, dps_ensemble
from dpsqkd.keyrate import AttackProfile
from dpsqkd.linalg import outer, partial_trace, tensor


def brute_force_collision(confusion, priors, bit_map):
    """Independent Bayes-posterior accumulation over (state, outcome, position)."""
    n_states, n_outcomes = confusion.shape
    positions = len(bit_map[0])
    total = 0.0
    for pos in range(positions):
        for z in range(n_outcomes):
            joint = {i: priors[i] * confusion[i][z] for i in range(n_states)}
            p_z = sum(joint.values())
            if p_z == 0.0:
                continue
            p0 = sum(v for i, v in joint.items() if bit_map[i][pos] == 0) / p_z
            p1 = 1.0 - p0
            total += (p0 ** 2 + p1 ** 2) * p_z / positions
    return total


# ---------------------------------------------------------------------------
# minimum-error discrimination
# ---------------------------------------------------------------------------

def test_med3_success_and_confusion(med3):
    assert med3.p_success == pytest.approx(0.75, abs=1e-6)
    assert_allclose(np.diag(med3.confusion), np.full(4, 0.75), atol=1e-5)
    off = med3.confusion[~np.eye(4, dtype=bool)]
    assert_allclose(off, np.full(12, 1.0 / 12.0), atol=1e-5)
    assert med3.kkt.passed
    rows = med3.confusion.sum(axis=1)
    assert_allclose(rows, np.ones(4), atol=1e-8)


@pytest.mark.parametrize("n,expected", [(4, 0.5), (5, 0.3125)])
def test_medn_success(n, expected, request):
    result = request.getfixturevalue(f"med{n}")
    assert result.p_success == pytest.approx(expected, abs=1e-6)


def test_pgm_matches_sdp_optimum(med3, med4, med5):
    for n, med in ((3, med3), (4, med4), (5, med5)):
        ens = dps_ensemble(n)
        povm = pgm_povm(ens.states, ens.priors)
        success = sum(p * np.trace(ens.density(i) @ povm.elements[i]).real
                      for i, p in enumerate(ens.priors))
        assert success == pytest.approx(med.p_success, abs=1e-7)


@pytest.mark.parametrize("fixture", ["med3", "med4", "med5", "clone_med3", "unitary_med3"])
def test_med_result_invariants(fixture, request):
    """Confusion rows are probability distributions and the POVM is complete."""
    result = request.getfixturevalue(fixture)
    assert np.min(result.confusion) >= -1e-12
    assert_allclose(result.confusion.sum(axis=1), 1.0, atol=1e-8)
    d = result.povm.elements[0].shape[0]
    assert_allclose(np.sum(result.povm.elements, axis=0), np.eye(d), atol=1e-8)


def general_med(states, priors, bit_map):
    """Independent route: the general solve of the full MED problem, read out
    without the covariant lift or the PSD clipping of ``med_attack``.
    Returns (p_success, collision, confusion, povm elements)."""
    rhos = [outer(s) if np.ndim(s) == 1 else np.asarray(s) for s in states]
    sol = sdp.solve(med_problem(rhos, priors))
    elements = np.array([sol.x[f"P{i + 1}"] for i in range(len(rhos))])
    confusion = np.array([[np.trace(rho @ el).real for el in elements] for rho in rhos])
    p_success = float(np.asarray(priors) @ np.diag(confusion))
    return p_success, collision_probability(confusion, priors, bit_map), confusion, elements


def assert_matches_general_med(result, states, priors, bit_map):
    p_success, collision, confusion, elements = general_med(states, priors, bit_map)
    assert result.p_success == pytest.approx(p_success, abs=1e-7)
    assert result.collision_probability == pytest.approx(collision, abs=1e-7)
    assert_allclose(result.confusion, confusion, rtol=0, atol=1e-7)
    assert_allclose(result.povm.elements, elements, rtol=0, atol=1e-7)


@pytest.fixture
def covariant_calls(monkeypatch):
    """Names of the symmetry-reduced solutions taken while the test runs."""
    calls = []
    for name in ("_covariant_med_solution", "_covariant_cloner_solution"):
        def spy(*args, _name=name, _real=getattr(attacks, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(attacks, name, spy)
    return calls


@pytest.mark.parametrize("n", [3, 4, 5])
def test_covariant_med_matches_general_solve(n, request):
    """The seed-block route of a DpsEnsemble and the general 2**(n-1)-block
    solve of the same states reach the same optimum."""
    ens = dps_ensemble(n)
    covariant = request.getfixturevalue(f"med{n}")
    assert_matches_general_med(covariant, ens.states, ens.priors, ens.bit_map)
    pgm = pgm_povm(ens.states, ens.priors)
    assert_allclose(covariant.povm.elements, pgm.elements, rtol=0, atol=1e-7)
    assert holevo_certificate(ens.states, ens.priors, covariant.povm)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_covariant_med_certified_on_full_problem(n, request):
    result = request.getfixturevalue(f"med{n}") if n < 6 else med_attack(dps_ensemble(n))
    count = 2 ** (n - 1)
    assert len(result.problem.blocks) == count and len(result.solution.x) == count
    assert len(result.solution.y) == n * n  # one multiplier per completeness entry
    assert result.kkt.passed, result.kkt.conditions
    assert result.p_success == pytest.approx(n / count, abs=1e-7)


@pytest.mark.parametrize("n", [8, 10])
def test_covariant_med_certified_above_the_attack_cap(n):
    """The full-problem certificate stays cheap beyond the CLI's n = 6 cap:
    the completeness operators are stored once, not once per block."""
    ens = dps_ensemble(n)
    result = med_attack(ens)
    count = 2 ** (n - 1)
    assert len(result.problem.blocks) == count and len(result.solution.x) == count
    assert result.kkt.passed, result.kkt.conditions
    assert result.p_success == pytest.approx(n / count, abs=1e-7)
    pgm = pgm_povm(ens.states, ens.priors)
    assert_allclose(result.povm.elements, pgm.elements, rtol=0, atol=1e-7)


def test_covariant_lift_is_checked_not_assumed(ens3, covariant_calls):
    """Skewed priors break the sign symmetry; the lifted seed pair is then
    not optimal, and the full-problem certificate says so.  ``med_attack``
    therefore takes the general route for them, which passes."""
    priors = np.array([0.4, 0.2, 0.2, 0.2])
    rhos = [ens3.density(i) for i in range(4)]
    lifted = attacks._covariant_med_solution(rhos, priors)
    report = sdp.verify_kkt(med_problem(rhos, priors), lifted, tol=1e-6)
    assert not report.passed
    assert not report.conditions["dual_psd"]
    del covariant_calls[:]
    skewed = DpsEnsemble(n=3, states=ens3.states, priors=priors, bit_map=ens3.bit_map)
    result = med_attack(skewed)
    assert covariant_calls == []
    assert result.kkt.passed, result.kkt.conditions


@pytest.mark.parametrize("n", [3, 4, 5])
def test_optimal_clone_med_matches_general_solve(n, covariant_calls):
    """Eve's optimal-cloner clones are sign covariant, so their MED runs on
    the seed block and reaches the general solve's optimum."""
    ens = dps_ensemble(n)
    clone = optimal_cloner(ens)
    del covariant_calls[:]
    result = med_on_cloned(clone.eve_states, ens.priors, ens.bit_map)
    assert covariant_calls == ["_covariant_med_solution"]
    assert result.kkt.passed, result.kkt.conditions
    assert_matches_general_med(result, clone.eve_states, ens.priors, ens.bit_map)


def test_unitary_clones_keep_the_general_route(ens3, unitary3, covariant_calls):
    _, _, _, _, bobs = unitary3
    assert not attacks._sign_covariant(bobs, ens3.priors)
    result = med_on_cloned(bobs, ens3.priors, ens3.bit_map)
    assert covariant_calls == []
    assert result.kkt.passed


def test_confusion_matches_trace_loop(med4):
    ens = dps_ensemble(4)
    loop = [[np.trace(ens.density(i) @ el).real for el in med4.povm.elements]
            for i in range(len(ens.states))]
    assert_allclose(med4.confusion, loop, rtol=0, atol=1e-12)
    assert med4.p_success == pytest.approx(
        sum(ens.priors[i] * loop[i][i] for i in range(len(loop))), abs=1e-12)


@pytest.mark.parametrize("eps,valid", [(5e-10, True), (2e-9, False)])
def test_povm_rejects_negative_elements(eps, valid):
    elements = (np.diag([1.0, -eps]), np.diag([0.0, 1.0 + eps]))
    if valid:
        Povm(elements=elements)
    else:
        with pytest.raises(ValueError, match="not positive semidefinite"):
            Povm(elements=elements)


@pytest.mark.parametrize("eps,valid", [(5e-9, True), (2e-8, False)])
def test_povm_rejects_incomplete_sets(eps, valid):
    elements = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0 - eps]))
    if valid:
        Povm(elements=elements)
    else:
        with pytest.raises(ValueError, match="do not sum to the identity"):
            Povm(elements=elements)


def test_povm_rejects_mixed_dimensions():
    with pytest.raises(ValueError, match="share one dimension"):
        Povm(elements=(np.eye(2), np.zeros((3, 3))))


def test_holevo_certificate(ens3, med3):
    assert holevo_certificate(ens3.states, ens3.priors, med3.povm)
    assert holevo_certificate(ens3.states, ens3.priors, pgm_povm(ens3.states, ens3.priors))


def test_collision_probability_table(med3, ens3):
    assert med3.collision_probability == pytest.approx(13.0 / 18.0, abs=1e-5)
    assert med3.collision_probability == pytest.approx(0.72, abs=1e-2)
    oracle = brute_force_collision(med3.confusion, ens3.priors, ens3.bit_map)
    assert med3.collision_probability == pytest.approx(oracle, abs=1e-10)


def test_collision_probability_perfect_discrimination(ens3):
    assert collision_probability(np.eye(4), ens3.priors, ens3.bit_map) == pytest.approx(1.0)


def test_med_result_serialises(med3):
    doc = json.loads(json.dumps(med_result_doc(med3), sort_keys=True))
    assert doc["kkt_passed"] is True
    assert doc["p_success"] == pytest.approx(0.75, abs=1e-6)
    assert len(doc["povm"]) == 4


def test_cloning_result_serialises(clone3):
    """The clone report renders each Bob state with complex_matrix_doc; the
    JSON round trip gives the matrices back exactly."""
    doc = json.loads(json.dumps([complex_matrix_doc(b) for b in clone3.bob_states]))
    assert len(doc) == 4
    for bob, rendered in zip(clone3.bob_states, doc):
        pairs = np.array(rendered)
        assert np.array_equal(pairs[..., 0] + 1j * pairs[..., 1], bob)
    assert clone3.avg_two_copy_fidelity == pytest.approx(7 / 9, abs=1e-5)


# ---------------------------------------------------------------------------
# optimal cloning
# ---------------------------------------------------------------------------

def test_cloning_fidelities(clone3):
    assert clone3.avg_two_copy_fidelity == pytest.approx(7.0 / 9.0, abs=1e-6)
    assert_allclose(clone3.per_state_clone_fidelity, np.full(4, 17.0 / 21.0), atol=1e-6)
    assert clone3.kkt.passed


def test_cloning_reduced_states(clone3, ens3):
    for i in range(4):
        bob, eve = clone3.bob_states[i], clone3.eve_states[i]
        assert np.max(np.abs(bob - eve)) <= 1e-6
        assert_allclose(np.diag(bob).real, np.full(3, 1.0 / 3.0), atol=1e-6)
    mags = np.abs(clone3.bob_states[0][np.triu_indices(3, 1)])
    assert_allclose(mags, np.full(3, 5.0 / 21.0), atol=1e-6)


def test_cloning_is_cptp(clone3):
    neg, tp = cptp_residuals(clone3.choi, 3)
    assert neg <= 1e-7
    assert tp <= 1e-7


def full_cloner(ens):
    """Independent route: the general solve of the one d**3 Choi block, read
    out through apply_choi.  Returns (choi, two-copy fidelity, per-state
    fidelities, Bob's states, Eve's states)."""
    d = ens.n
    choi = sdp.solve(cloning_problem(ens.states, ens.priors)).x["J"]
    two_copy, fids, bobs, eves = 0.0, [], [], []
    for p, s in zip(ens.priors, ens.states):
        joint = apply_choi(choi, outer(s))
        bobs.append(partial_trace(joint, [d, d], keep=[0]))
        eves.append(partial_trace(joint, [d, d], keep=[1]))
        fids.append(np.vdot(s, bobs[-1] @ s).real)
        pair = np.kron(s, s)
        two_copy += p * np.vdot(pair, joint @ pair).real
    return choi, two_copy, fids, bobs, eves


@pytest.mark.parametrize("n", [3, 4, 5])
def test_character_block_cloner_matches_full_solve(n, covariant_calls):
    ens = dps_ensemble(n)
    result = optimal_cloner(ens)
    assert covariant_calls == ["_covariant_cloner_solution"]
    choi, two_copy, fids, bobs, eves = full_cloner(ens)
    assert_allclose(result.choi, choi, rtol=0, atol=1e-7)
    assert result.avg_two_copy_fidelity == pytest.approx(two_copy, abs=1e-7)
    assert_allclose(result.per_state_clone_fidelity, fids, rtol=0, atol=1e-7)
    assert_allclose(result.bob_states, bobs, rtol=0, atol=1e-7)
    assert_allclose(result.eve_states, eves, rtol=0, atol=1e-7)


@pytest.mark.parametrize("n,count,largest", [(3, 4, 7), (4, 8, 10), (5, 15, 13), (6, 26, 16)])
def test_character_blocks(n, count, largest):
    blocks = attacks._character_blocks(n)
    assert len(blocks) == count
    assert max(ix.size for ix in blocks) == largest
    assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(n ** 3))
    # the cloning objective of the DPS ensemble has no weight between blocks
    ens = dps_ensemble(n)
    q = cloning_problem(ens.states, ens.priors).objective["J"]
    label = np.zeros(n ** 3, dtype=int)
    for b, ix in enumerate(blocks):
        label[ix] = b
    assert np.max(np.abs(q[label[:, None] != label[None, :]])) <= 1e-15


@pytest.mark.parametrize("n,two_copy", [(3, 7 / 9), (4, 0.625), (5, 0.52), (6, 0.444444)])
def test_character_block_cloner_certified_on_full_problem(n, two_copy, covariant_calls):
    ens = dps_ensemble(n)
    result = optimal_cloner(ens)
    assert covariant_calls == ["_covariant_cloner_solution"]
    assert result.problem.blocks == [("J", n ** 3)]
    assert len(result.solution.y) == n * n  # one multiplier per trace-preservation entry
    assert result.kkt.passed, result.kkt.conditions
    report = sdp.verify_kkt(cloning_problem(ens.states, ens.priors), result.solution, tol=1e-6)
    assert report.passed, report.conditions
    assert result.avg_two_copy_fidelity == pytest.approx(two_copy, abs=1e-6)


def test_skewed_priors_take_the_general_cloner_route(ens3, covariant_calls):
    result = optimal_cloner(list(ens3.states), priors=[0.4, 0.2, 0.2, 0.2])
    assert covariant_calls == []
    assert result.kkt.passed, result.kkt.conditions


def test_apply_choi_convention():
    # the identity-channel Choi reproduces its input exactly
    d = 3
    pairs = np.zeros((d * d * d, d * d * d), dtype=complex)
    for a in range(d):
        for b in range(d):
            ea, eb = np.zeros(d), np.zeros(d)
            ea[a] = eb[b] = 1.0
            # Phi(E_ab) = E_ab into the first output, fixed |0><0| on the second
            e0 = np.zeros(d); e0[0] = 1.0
            pairs += tensor(np.outer(ea, eb), np.outer(ea, eb), outer(e0))
    rng = np.random.default_rng(5)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    joint = apply_choi(pairs, outer(psi))
    assert_allclose(partial_trace(joint, [d, d], keep=[0]), outer(psi), atol=1e-12)


def test_depolarizing_fit_of_solver_output(clone3, ens3):
    fits = [depolarizing_fit(ens3.density(i), clone3.bob_states[i]) for i in range(4)]
    ps = [p for p, _ in fits]
    assert_allclose(ps, np.full(4, 2.0 / 7.0), atol=1e-6)
    assert max(ps) - min(ps) <= 1e-3
    assert all(r <= 1e-5 for _, r in fits)


def test_depolarizing_fit_trivials(ens3):
    rho = ens3.density(0)
    p, resid = depolarizing_fit(rho, rho)
    assert p == pytest.approx(0.0, abs=1e-12) and resid <= 1e-12
    p, resid = depolarizing_fit(rho, np.eye(3) / 3)
    assert p == pytest.approx(1.0, abs=1e-12) and resid <= 1e-12


def test_depolarizing_fit_two_decimal_matrix(ens3):
    """Fitting the two-decimal rendering of the clone (off-diagonal 0.23)
    gives p = 0.31 exactly: 1 - 3*0.23."""
    for i in range(4):
        rho = ens3.density(i)
        printed = 0.69 * rho + (0.31 / 3.0) * np.eye(3)
        p, resid = depolarizing_fit(rho, printed)
        assert p == pytest.approx(0.31, abs=1e-12)
        assert resid <= 1e-2


def test_med_on_cloned(clone_med3):
    assert clone_med3.p_success == pytest.approx(0.75 - 1.0 / 7.0, abs=1e-5)
    assert_allclose(np.diag(clone_med3.confusion), np.full(4, 0.75 - 1.0 / 7.0), atol=1e-4)
    assert clone_med3.collision_probability == pytest.approx(0.6133786848, abs=1e-5)


def test_med_on_pure_states_reduces_to_direct(ens3, med3):
    again = med_on_cloned([ens3.density(i) for i in range(4)], ens3.priors, ens3.bit_map)
    assert again.p_success == pytest.approx(med3.p_success, abs=1e-6)


def test_data_processing_inequality(med3, clone_med3, unitary_med3):
    assert clone_med3.p_success <= med3.p_success + 1e-8
    assert unitary_med3.p_success <= med3.p_success + 1e-8


# ---------------------------------------------------------------------------
# unitary cloner
# ---------------------------------------------------------------------------

def test_aligned_basis(ens3):
    basis = aligned_cloning_basis(ens3)
    assert_allclose(basis[0].real * np.sqrt(3), [1, 1, 1], atol=1e-12)
    assert_allclose(basis[1].real * np.sqrt(6), [1, 1, -2], atol=1e-12)
    assert_allclose(basis[2].real * np.sqrt(2), [1, -1, 0], atol=1e-12)


def test_unitary_params_validation(ens3):
    basis = aligned_cloning_basis(ens3)
    with pytest.raises(ValueError, match="unitary range"):
        UnitaryClonerParams(d=3, q=0.6, basis=basis)
    with pytest.raises(ValueError, match="orthonormal"):
        UnitaryClonerParams(d=3, q=0.2, basis=(basis[0], basis[0], basis[2]))
    params = UnitaryClonerParams(d=3, q=0.23, basis=basis)
    assert params.unitarity_residual() <= 1e-12


def test_unitary_cloner_is_isometry():
    for d in (3, 5):
        ens = dps_ensemble(d)
        basis = aligned_cloning_basis(ens)
        params = UnitaryClonerParams(d=d, q=0.23, basis=basis)
        x = np.eye(d)
        v = np.zeros((d ** 3, d), dtype=complex)
        for i in range(d):
            col = params.p * tensor(basis[i], basis[i], x[i])
            for j in range(d):
                if j != i:
                    col = col + params.q * (tensor(basis[i], basis[j], x[j])
                                            + tensor(basis[j], basis[i], x[j]))
            v[:, i] = col
        assert_allclose(v.conj().T @ v, np.eye(d), atol=1e-10)
        # tripartite output of any normalised input stays pure
        for s in ens.states:
            out = v @ np.array([np.vdot(b, s) for b in basis])
            assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-10)
            rho_ab = partial_trace(outer(out), [d, d, d], keep=[0, 1])
            assert_allclose(rho_ab, unitary_cloner_output(params, s), atol=1e-10)


def test_unitary_cloner_symmetric_and_q0_identity(ens3):
    basis = aligned_cloning_basis(ens3)
    params = UnitaryClonerParams(d=3, q=0.23, basis=basis)
    for s in ens3.states:
        bob, eve = apply_unitary_cloner(params, s)
        assert_allclose(bob, eve, atol=1e-10)
    trivial = UnitaryClonerParams(d=3, q=0.0, basis=basis)
    bob, _ = apply_unitary_cloner(trivial, ens3.states[0])
    assert_allclose(bob, ens3.density(0), atol=1e-12)


def test_unitary_cloner_rejects_unnormalised(ens3):
    basis = aligned_cloning_basis(ens3)
    params = UnitaryClonerParams(d=3, q=0.23, basis=basis)
    with pytest.raises(ValueError, match="normalised"):
        apply_unitary_cloner(params, 2.0 * ens3.states[0])


def test_transformed_matrices_at_printed_q(ens3):
    """At q = 0.23 the four clone outputs show the expected entry pattern."""
    basis = aligned_cloning_basis(ens3)
    params = UnitaryClonerParams(d=3, q=0.23, basis=basis)
    bobs = {tuple(ens3.bit_map[i]): apply_unitary_cloner(params, ens3.states[i])[0].real
            for i in range(4)}
    b00 = bobs[(0, 0)]
    assert_allclose(np.diag(b00), np.full(3, 1 / 3), atol=1e-6)
    assert b00[0, 1] == pytest.approx(0.28, abs=1e-2)
    b01 = bobs[(0, 1)]  # state [1, 1, -1]
    assert b01[0, 1] == pytest.approx(0.22, abs=1e-2)
    assert b01[0, 2] == pytest.approx(-0.25, abs=1e-2)
    assert b01[2, 2] == pytest.approx(0.44, abs=1e-2)
    b11 = bobs[(1, 1)]  # state [1, -1, 1]
    assert b11[0, 0] == pytest.approx(0.36, abs=1e-2)
    assert b11[0, 1] == pytest.approx(-0.25, abs=1e-2)
    assert b11[0, 2] == pytest.approx(0.14, abs=1e-2)
    assert b11[1, 2] == pytest.approx(-0.17, abs=1e-2)


def test_optimize_unitary_q(unitary3):
    _, q_opt, avg_fid, params, _ = unitary3
    assert q_opt == pytest.approx(0.2327743, abs=1e-4)
    assert avg_fid == pytest.approx(0.7816341, abs=1e-6)
    assert params.unitarity_residual() <= 1e-12


def test_optimize_single_state_needs_no_cloning(ens3):
    basis = aligned_cloning_basis(ens3)
    q_opt, fid = optimize_unitary_q([basis[0]], basis=basis, priors=[1.0])
    assert q_opt == pytest.approx(0.0, abs=1e-4)
    assert fid == pytest.approx(1.0, abs=1e-6)


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def cloned_fidelity(q, states, priors, basis):
    """Mean single-clone fidelity evaluated through apply_unitary_cloner."""
    params = UnitaryClonerParams(d=len(basis), q=q, basis=basis)
    return sum(pr * float(np.real(s.conj() @ apply_unitary_cloner(params, s)[0] @ s))
               for pr, s in zip(priors, states))


def golden_section_q(states, priors, basis, tol=1e-7):
    """Independent route: golden-section search of the fidelity over the unitary range."""
    lo, hi = 0.0, 1.0 / np.sqrt(2.0 * (len(basis) - 1))
    c1, c2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    f1, f2 = (cloned_fidelity(c, states, priors, basis) for c in (c1, c2))
    while hi - lo > tol:
        if f1 < f2:
            lo, c1, f1 = c1, c2, f2
            c2 = lo + _GOLDEN * (hi - lo)
            f2 = cloned_fidelity(c2, states, priors, basis)
        else:
            hi, c2, f2 = c2, c1, f1
            c1 = hi - _GOLDEN * (hi - lo)
            f1 = cloned_fidelity(c1, states, priors, basis)
    q = (lo + hi) / 2.0
    return q, cloned_fidelity(q, states, priors, basis)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_closed_form_q_matches_golden_section(n):
    ens = dps_ensemble(n)
    basis = aligned_cloning_basis(ens)
    q_opt, fid = optimize_unitary_q(ens, basis)
    q_search, fid_search = golden_section_q(ens.states, ens.priors, basis)
    assert q_opt == pytest.approx(q_search, abs=1e-6)
    assert fid >= fid_search - 1e-12
    assert fid == pytest.approx(cloned_fidelity(q_opt, ens.states, ens.priors, basis),
                                abs=1e-12)


def test_closed_form_q_at_eight_pulses():
    ens = dps_ensemble(8)
    basis = aligned_cloning_basis(ens)
    q_opt, fid = optimize_unitary_q(ens, basis)
    assert 0.0 < q_opt < 1.0 / np.sqrt(2.0 * 7)
    assert fid == pytest.approx(cloned_fidelity(q_opt, ens.states, ens.priors, basis),
                                abs=1e-12)


def test_optimize_unitary_q_keeps_input_checks(ens3):
    basis = aligned_cloning_basis(ens3)
    states, priors = list(ens3.states), list(ens3.priors)
    with pytest.raises(ValueError, match="orthonormal"):
        optimize_unitary_q(ens3, (basis[0], basis[0], basis[2]))
    with pytest.raises(ValueError, match="normalised"):
        optimize_unitary_q([2.0 * states[0]] + states[1:], basis=basis, priors=priors)
    with pytest.raises(ValueError, match="explicit priors and basis"):
        optimize_unitary_q(states, basis=basis)
    with pytest.raises(ValueError, match="explicit priors and basis"):
        optimize_unitary_q(states, priors=priors)


def test_unitary_ber_values(ens3, unitary3):
    _, _, _, _, bobs = unitary3
    plain = [ber_of_state(bobs[i], i, ens3) for i in range(4)]
    cond = [ber_of_state(bobs[i], i, ens3, conditional=True) for i in range(4)]
    assert np.mean(plain) == pytest.approx(0.1023080, abs=1e-5)
    assert np.mean(cond) == pytest.approx(0.1527084, abs=1e-5)


def test_unitary_med_after(unitary_med3):
    assert unitary_med3.p_success == pytest.approx(0.6031312, abs=1e-5)
    assert unitary_med3.collision_probability == pytest.approx(0.6318782, abs=1e-5)


# ---------------------------------------------------------------------------
# interception bookkeeping
# ---------------------------------------------------------------------------

def test_intercept_fraction():
    def fraction(p_error_per_intercept, e_b):
        return AttackProfile("x", p_error_per_intercept, 0.75).intercepted_fraction(e_b)

    assert fraction(0.25, 0.01) == pytest.approx(0.04)
    assert fraction(0.13, 0.01) == pytest.approx(0.01 / 0.13)
    assert fraction(0.15, 0.01) == pytest.approx(0.0666667, abs=1e-6)
    assert fraction(0.13, 0.5) == 1.0  # clamped
    with pytest.raises(ValueError):
        fraction(0.0, 0.01)


def test_ir_profile():
    prof = ir_attack_profile()
    assert prof.per_intercept_error == pytest.approx(1.0 / 3.0)
    assert prof.intercepted_fraction(0.01) == pytest.approx(0.03)
    assert prof.tau(0.0, 2.0 / 3.0) == pytest.approx(1.0)


def test_ir_monte_carlo_validates_collision_model():
    definite = ir_monte_carlo_collision(200_000, seed=7)
    assert definite == pytest.approx(0.75, abs=5e-3)
    physical = ir_monte_carlo_collision(200_000, seed=7, mode="mzi")
    assert physical == pytest.approx(2.0 / 3.0, abs=5e-3)
    # the definite-knowledge model is the conservative one
    assert definite >= physical


def test_standard_attack_profiles():
    profiles = standard_attack_profiles(3)
    assert set(profiles) == {"ir", "med", "cloning", "unitary"}
    assert profiles["med"].per_intercept_error == pytest.approx(0.25, abs=1e-5)
    assert profiles["med"].per_attacked_bit_collision == pytest.approx(13 / 18, abs=1e-5)
    assert profiles["cloning"].per_intercept_error == pytest.approx(1 / 7, abs=1e-5)
    assert profiles["cloning"].per_attacked_bit_collision == pytest.approx(0.613379, abs=1e-4)
    assert profiles["unitary"].per_intercept_error == pytest.approx(0.152708, abs=1e-4)
    assert profiles["unitary"].per_attacked_bit_collision == pytest.approx(0.631878, abs=1e-4)


# (per_intercept_error, per_attacked_bit_collision) at n=4, stored from a solver
# that built the full d^2 x d^2 NT operator, so they check the operator-free
# Schur assembly from outside; MED's error is 1 - 4/2**3 in closed form.
N4_PROFILES = {
    "ir": (1 / 3, 0.75),
    "med": (0.5000000159246911, 0.6249999893835394),
    "cloning": (0.20000000573303617, 0.5449999819465273),
    "unitary": (0.1913347745354961, 0.5497831690714734),
}


def test_standard_attack_profiles_n4(monkeypatch):
    reports = []

    def recording_verify_kkt(*args, **kwargs):
        reports.append(verify_kkt(*args, **kwargs))
        return reports[-1]

    verify_kkt = sdp.verify_kkt
    monkeypatch.setattr(sdp, "verify_kkt", recording_verify_kkt)
    profiles = standard_attack_profiles(4)
    got = {name: (p.per_intercept_error, p.per_attacked_bit_collision)
           for name, p in profiles.items()}
    assert set(got) == set(N4_PROFILES)
    for name, want in N4_PROFILES.items():
        assert got[name] == pytest.approx(want, abs=1e-6), name
    assert len(reports) == 4  # MED, cloner, MED on each of the two clone ensembles
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("failing,attack", [
    (0, "med"), (1, "optimal cloner"), (2, "MED after optimal cloning"),
    (3, "MED after unitary cloning")])
def test_uncertified_optimum_never_reaches_a_profile(monkeypatch, failing, attack):
    calls = []

    def verify_kkt_failing_once(*args, **kwargs):
        report = verify_kkt(*args, **kwargs)
        if len(calls) == failing:
            report.conditions["dual_psd"] = False
        calls.append(report)
        return report

    verify_kkt = sdp.verify_kkt
    monkeypatch.setattr(sdp, "verify_kkt", verify_kkt_failing_once)
    with pytest.raises(attacks.UncertifiedOptimumError,
                       match=f"^{attack}: KKT certificate failed \\(dual_psd\\)$"):
        standard_attack_profiles(3)
    assert len(calls) == failing + 1


@pytest.mark.parametrize("n", [3, 4])
def test_cloning_profiles_read_the_cloning_attacks(n):
    ens = dps_ensemble(n)
    profiles = standard_attack_profiles(n)
    assert optimal_cloning_attack(ens).profile == profiles["cloning"]
    assert unitary_cloning_attack(ens).profile == profiles["unitary"]


@pytest.mark.parametrize("mode,attack", [("optimal", "cloning"), ("unitary", "unitary")])
def test_clone_report_reads_the_profiled_attack(capsys, mode, attack):
    profile = standard_attack_profiles(3)[attack]
    assert main(["clone", "--mode", mode]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert np.mean(doc["ber_conditional"]) == pytest.approx(
        profile.per_intercept_error, abs=1e-11)
    assert doc["med_after"]["collision_probability"] == pytest.approx(
        profile.per_attacked_bit_collision, abs=1e-11)


def test_keyrate_builds_each_named_profile_once(monkeypatch, capsys):
    calls = []

    def counting_med_attack(*args, **kwargs):
        calls.append(args)
        return med_attack_real(*args, **kwargs)

    med_attack_real = attacks.med_attack
    monkeypatch.setattr(attacks, "med_attack", counting_med_attack)
    assert main(["keyrate", "--attacks", "med,med", "--stop-km", "0"]) == 0
    row = json.loads(capsys.readouterr().out)["rows"][0]
    assert len(calls) == 1
    assert "tau_med" in row


def test_med_attack_requires_priors(ens3):
    with pytest.raises(ValueError, match="priors"):
        med_attack(list(ens3.states))
