import dataclasses
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dpsqkd import attacks, dps, sdp
from dpsqkd.attacks import (Povm, UnitaryClonerParams, aligned_cloning_basis,
                            apply_unitary_cloner, cloning_problem, collision_probability,
                            depolarizing_fit,
                            ir_attack_profile, med_attack,
                            med_on_cloned, med_problem,
                            optimal_cloner, optimal_cloning_attack,
                            optimize_unitary_q,
                            standard_attack_profiles, unitary_cloning_attack)
from dpsqkd.cli import main
from dpsqkd.dps import DpsEnsemble, _key_slot_ber, dps_ensemble, sign_patterns
from dpsqkd.keyrate import AttackProfile, shrinking_factor
from dpsqkd.linalg import outer, partial_trace
from oracles import (apply_choi, block_choi, choi_kets, covariance_residual_norm,
                     cptp_residuals, duality_bracket, full_cloner, full_cloning_problem,
                     holevo_certificate, ir_monte_carlo_collision, lifted_med_pair,
                     off_block_norm, pgm_povm)


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
        povm = pgm_povm(ens)
        success = sum(p * np.trace(ens.densities[i] @ povm.elements[i]).real
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


def general_med(ens):
    """Independent route: the general solve of the full MED problem, read out
    without the covariant lift or the PSD clipping of ``med_attack``.
    Returns (p_success, collision, confusion, povm elements)."""
    sol = sdp.solve(med_problem(ens))
    (elements,) = sol.x
    confusion = np.array([[np.trace(rho @ el).real for el in elements] for rho in ens.densities])
    p_success = float(ens.priors @ np.diag(confusion))
    return p_success, collision_probability(confusion, ens.priors, ens.bit_map), confusion, elements


def assert_matches_general_med(result, ens):
    p_success, collision, confusion, elements = general_med(ens)
    assert result.p_success == pytest.approx(p_success, abs=1e-7)
    assert result.collision_probability == pytest.approx(collision, abs=1e-7)
    assert_allclose(result.confusion, confusion, rtol=0, atol=1e-7)
    assert_allclose(result.povm.elements, elements, rtol=0, atol=1e-7)


@pytest.fixture
def covariant_calls(monkeypatch):
    """The attack of each symmetry-reduced problem that ``_reduced_optimum``
    takes while the test runs: "med" for a seed block, one group, and
    "cloner" for character blocks, two groups."""
    calls, real = [], attacks._reduced_optimum

    def spy(problem, delta):
        calls.append("med" if len(problem.cost) == 1 else "cloner")
        return real(problem, delta)
    monkeypatch.setattr(attacks, "_reduced_optimum", spy)
    return calls


def assert_seed_certified_on_full_problem(result, ens):
    """The MED optimum of a sign-covariant ``ens`` sits on one n x n seed
    block with n multipliers, passes its reduced certificate, and its lift
    (oracles.lifted_med_pair) passes the KKT check of the full problem, with
    one multiplier per real symmetric completeness entry: the data are real."""
    n = ens.n
    assert [c.shape for c in result.problem.cost] == [(1, n, n)] and len(result.solution.y) == n
    assert result.kkt.passed, result.kkt.conditions
    lifted = lifted_med_pair(ens, result)
    assert lifted.x[0].shape == (2 ** (n - 1), n, n) and len(lifted.y) == n * (n + 1) // 2
    report = sdp.verify_kkt(med_problem(ens), lifted, tol=attacks._KKT_TOL)
    assert report.passed, report.conditions


@pytest.mark.parametrize("n", [3, 4, 5])
def test_covariant_med_matches_general_solve(n, request):
    """The lifted seed-block candidate of a DpsEnsemble and the general
    2**(n-1)-block solve of the same states reach the same optimum."""
    ens = dps_ensemble(n)
    covariant = request.getfixturevalue(f"med{n}")
    assert_matches_general_med(covariant, ens)
    pgm = pgm_povm(ens)
    assert_allclose(covariant.povm.elements, pgm.elements, rtol=0, atol=1e-7)
    assert holevo_certificate(ens, covariant.povm)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_covariant_med_certified_on_full_problem(n, request):
    result = request.getfixturevalue(f"med{n}") if n < 6 else med_attack(dps_ensemble(n))
    assert_seed_certified_on_full_problem(result, dps_ensemble(n))
    assert result.p_success == pytest.approx(n / 2 ** (n - 1), abs=1e-7)


@pytest.mark.parametrize("n", [8, 10])
def test_covariant_med_certified_above_the_attack_cap(n):
    """Beyond the CLI's n = 6 cap the route stays on the seed block, and its
    lift still passes the full problem, built here as an oracle."""
    ens = dps_ensemble(n)
    result = med_attack(ens)
    assert_seed_certified_on_full_problem(result, ens)
    assert result.p_success == pytest.approx(n / 2 ** (n - 1), abs=1e-7)
    pgm = pgm_povm(ens)
    assert_allclose(result.povm.elements, pgm.elements, rtol=0, atol=1e-7)


def test_covariant_lift_is_checked_not_assumed(ens3, covariant_calls, monkeypatch):
    """Skewed priors break the sign symmetry, so ``med_attack`` takes the
    general route for them, whose solve passes.  Forced onto the seed route
    by a zero covariance residual, their seed pair passes the seed's own
    check, but its lift is not optimal: the full problem's certificate fails
    it, and so does the reduced certificate given the true residual."""
    skewed = dataclasses.replace(ens3, priors=[0.4, 0.2, 0.2, 0.2])
    result = med_attack(skewed)
    assert covariant_calls == []
    assert [c.shape for c in result.problem.cost] == [(4, 3, 3)]
    assert result.kkt.passed, result.kkt.conditions
    delta = attacks._covariance_residual(skewed)
    monkeypatch.setattr(attacks, "_covariance_residual", lambda ens: 0.0)
    seed = med_attack(skewed)
    assert covariant_calls == ["med"] and seed.kkt.passed, seed.kkt.conditions
    report = sdp.verify_kkt(med_problem(skewed), lifted_med_pair(skewed, seed), tol=1e-6)
    assert not report.passed
    assert not report.conditions["dual_psd"]
    reduced = attacks._reduced_kkt(seed.problem, seed.solution, delta)
    assert [name for name, ok in reduced.conditions.items() if not ok] == ["objective_covariant"]


@pytest.fixture
def solved(monkeypatch):
    """The problems that ``sdp.solve`` is called on while the test runs."""
    problems, solve = [], sdp.solve
    monkeypatch.setattr(sdp, "solve", lambda problem: problems.append(problem) or solve(problem))
    return problems


def sign_orbit(seed):
    """The sign-covariant ensemble U_g seed U_g^dagger of a ket or density
    operator, with the priors and key bits of ``dps_ensemble(len(seed))``."""
    seed = np.asarray(seed, dtype=complex)
    signs = sign_patterns(len(seed))
    states = (signs * seed / np.linalg.norm(seed) if seed.ndim == 1
              else signs[:, :, None] * seed * signs[:, None, :])
    return dataclasses.replace(dps_ensemble(len(seed)), states=states)


def eigh_inputs(monkeypatch):
    """The input shapes of the ``np.linalg.eigh`` calls from here on."""
    shapes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a, *args, **kwargs: shapes.append(np.shape(a))
                        or eigh(a, *args, **kwargs))
    return shapes


@pytest.mark.parametrize("seed", [*range(3, 9), [1, 2, 1], [1, 2, 2, 1]],
                         ids=[*map(str, range(3, 9)), "solved-3", "solved-4"])
def test_covariant_med_clips_its_seed_once(seed, monkeypatch):
    """A sign-covariant MED eigendecomposes no stack of more than one
    operator, also where its seed block is solved: its G elements are the
    one clipped seed, lifted by the sign products, bit for bit."""
    ens = dps_ensemble(seed) if isinstance(seed, int) else sign_orbit(seed)
    shapes = eigh_inputs(monkeypatch)
    result = med_attack(ens)
    assert shapes and all(math.prod(shape[:-2]) == 1 for shape in shapes), shapes
    assert (result.solution.iterations > 0) == isinstance(seed, list)
    signs = sign_patterns(ens.n)
    clipped = attacks._project_psd(result.solution.x[0][0] / len(signs))
    assert np.array_equal(result.povm.elements, signs[:, :, None] * clipped * signs[:, None, :])


@pytest.mark.parametrize("n", [3, 4])
def test_general_med_clips_every_solver_block(n, monkeypatch):
    """Off the sign orbit each of the G solver blocks is clipped, in one
    batched eigendecomposition."""
    ens = dps_ensemble(n)
    bent = ens.states.copy()
    bent[1, 0] += 0.3
    bent[1] /= np.linalg.norm(bent[1])
    shapes = eigh_inputs(monkeypatch)
    result = med_attack(dataclasses.replace(ens, states=bent))
    assert shapes[-1] == (2 ** (n - 1), n, n)
    assert np.array_equal(result.povm.elements, attacks._project_psd(result.solution.x[0]))


@pytest.mark.parametrize("seed,solves", [
    ([1, 2, 1], 1),  # a top eigenvector of uneven weight meets no completeness row
    ([1, 2, 2, 1], 1),
    (np.eye(3) / 3, 1),  # degenerate: one top eigenvector misses the rows
])
def test_reduced_problems_solve_only_off_the_top_eigenspace(seed, solves, solved, monkeypatch):
    """Sign-covariant ensembles other than DPS: MED and the optimal cloner take
    the top-eigenspace optimum where it certifies, and otherwise solve once:
    MED its seed block, the cloner its character blocks.  Either way the
    optimum passes its certificate, its MED lift passes the full problem,
    and it matches the general solve.  Each certificate runs once per pair:
    on the failed candidate, then on the solved pair, whose report the
    reduced certificate wraps."""
    reports, verify_kkt = [], sdp.verify_kkt
    monkeypatch.setattr(sdp, "verify_kkt",
                        lambda *args, **kwargs: reports.append(verify_kkt(*args, **kwargs))
                        or reports[-1])
    ens = sign_orbit(seed)
    assert attacks._covariance_residual(ens) == 0.0
    med = med_attack(ens)
    assert solved == [med.problem] * solves
    assert (med.solution.iterations > 0) == (solves == 1)
    assert [r.passed for r in reports] == [False] * solves + [True]
    assert med.kkt.conditions == {**reports[-1].conditions, "objective_covariant": True}
    full = verify_kkt(med_problem(ens), lifted_med_pair(ens, med), tol=attacks._KKT_TOL)
    assert full.passed, full.conditions
    assert med.p_success == pytest.approx(general_med(ens)[0], abs=1e-7)
    if ens.states.ndim == 2:  # the cloners take kets only
        del solved[:], reports[:]
        clone = optimal_cloner(ens)
        assert solved == [clone.problem] * solves
        assert [r.passed for r in reports] == [False] * solves + [True]
        assert clone.kkt.passed, clone.kkt.conditions
        _, two_copy, _, bobs, _ = full_cloner(ens)
        assert clone.avg_two_copy_fidelity == pytest.approx(two_copy, abs=1e-7)
        assert_allclose(clone.bob_states, bobs, rtol=0, atol=1e-6)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_optimal_clone_med_matches_general_solve(n, covariant_calls):
    """Eve's optimal-cloner clones lie exactly on the sign orbit of clone 0
    (delta = 0), so their MED takes the seed-block candidate, whose lift
    passes the full problem and reaches the general solve's optimum."""
    ens = dps_ensemble(n)
    clone = optimal_cloner(ens)
    clones = dataclasses.replace(ens, states=clone.eve_states)
    assert attacks._covariance_residual(clones) == 0.0
    del covariant_calls[:]
    result = med_on_cloned(ens, clone.eve_states)
    assert covariant_calls == ["med"]
    assert_seed_certified_on_full_problem(result, clones)
    assert_matches_general_med(result, clones)


def test_unitary_clones_keep_the_general_route(ens3, unitary3, unitary_attack_at,
                                               covariant_calls):
    """The unitary clones, whose basis is aligned with state 0, are far from
    the sign orbit of clone 0, so their MED takes the general route."""
    for n, delta in zip(range(3, 7), (0.5151, 0.2299, 0.1011, 0.04635)):
        attack = unitary_attack_at(n)
        residual = attacks._covariance_residual(
            dataclasses.replace(attack.ensemble, states=attack.bob_states))
        assert residual == pytest.approx(delta, rel=1e-3), n
        assert n * residual > attacks._KKT_TOL
    _, _, _, _, bobs = unitary3
    result = med_on_cloned(ens3, bobs)
    assert covariant_calls == []
    assert result.kkt.passed


def test_confusion_matches_trace_loop(med4):
    ens = dps_ensemble(4)
    loop = [[np.trace(ens.densities[i] @ el).real for el in med4.povm.elements]
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
    # NaN has no eigenvalue to compare, and fails rather than passes
    with pytest.raises(ValueError, match="not positive semidefinite"):
        Povm(elements=(np.full((2, 2), np.nan),))


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
    for stack in (np.eye(2), np.zeros((2, 2, 3))):  # not (K, d, d)
        with pytest.raises(ValueError, match="share one dimension"):
            Povm(elements=stack)


def test_povm_rejects_an_empty_set():
    with pytest.raises(ValueError, match="at least one element"):
        Povm(elements=())


def test_povm_rejects_non_hermitian_elements():
    """Each element has the eigenvalues 0.5 +- 0.1i and the pair sums to the
    identity, but neither element is Hermitian, so neither is PSD."""
    pair = (np.array([[0.5, 0.1], [-0.1, 0.5]]), np.array([[0.5, -0.1], [0.1, 0.5]]))
    with pytest.raises(ValueError, match="not positive semidefinite"):
        Povm(elements=pair)


def test_povm_elements_are_one_read_only_stack(med3):
    """Sequence input is copied once into a read-only (K, d, d) complex128
    stack; the caller's array stays writable and unshared."""
    given = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    povm = Povm(elements=given)
    for stack, shape in ((povm.elements, (2, 2, 2)), (med3.povm.elements, (4, 3, 3))):
        assert isinstance(stack, np.ndarray) and stack.shape == shape
        assert stack.dtype == np.complex128 and not stack.flags.writeable
    assert given.flags.writeable and not np.shares_memory(given, povm.elements)
    with pytest.raises(ValueError, match="read-only"):
        povm.elements[0, 0, 0] = 0.0


def orthogonal_pair():
    """Two orthogonal kets on C^3; the first has no weight on e_0."""
    return DpsEnsemble(states=[[0.0, 1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)], [1.0, 0.0, 0.0]],
                       priors=[0.5, 0.5], bit_map=[[0, 0], [1, 1]])


def test_holevo_certificate(ens3, med3):
    assert holevo_certificate(ens3, med3.povm)
    assert holevo_certificate(ens3, pgm_povm(ens3))
    # the PGM elements shifted by one state: Y = sum_i p_i rho_i P_(i+1) is
    # not Hermitian, which fails the witness before its PSD test
    shifted = Povm(elements=np.roll(pgm_povm(ens3).elements, -1, axis=0))
    y = sum(p * rho @ el for p, rho, el in zip(ens3.priors, ens3.densities, shifted.elements))
    assert np.max(np.abs(y - y.conj().T)) > 1e-3
    assert not holevo_certificate(ens3, shifted)
    # two orthogonal kets leave a kernel of the average state, which the PGM
    # spreads evenly over its elements; it stays optimal
    pair = orthogonal_pair()
    povm = pgm_povm(pair)
    kernel = outer(np.array([0.0, 1.0, -1.0]) / np.sqrt(2.0))
    assert_allclose(povm.elements, pair.densities + kernel / 2, rtol=0, atol=1e-12)
    assert holevo_certificate(pair, povm)


def test_collision_probability_table(med3, ens3):
    assert med3.collision_probability == pytest.approx(13.0 / 18.0, abs=1e-5)
    assert med3.collision_probability == pytest.approx(0.72, abs=1e-2)
    oracle = brute_force_collision(med3.confusion, ens3.priors, ens3.bit_map)
    assert med3.collision_probability == pytest.approx(oracle, abs=1e-10)


def test_collision_probability_perfect_discrimination(ens3):
    assert collision_probability(np.eye(4), ens3.priors, ens3.bit_map) == pytest.approx(1.0)
    # the last outcome never occurs, so it drops out of the average
    confusion = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.7, 0.3, 0.0],
                          [0.0, 0.2, 0.8, 0.0], [0.5, 0.25, 0.25, 0.0]])
    args = (confusion, ens3.priors, ens3.bit_map)
    assert collision_probability(*args) == pytest.approx(brute_force_collision(*args), abs=1e-15)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_collision_probability_rejects_non_finite_entries(ens3, value):
    """A NaN table once gave 0.0, outside [1/2, 1], as every outcome was skipped."""
    with pytest.raises(ValueError, match="must be finite"):
        collision_probability(np.full((2, 2), value), [0.5, 0.5], [[0], [1]])
    priors = np.array(ens3.priors)
    priors[0] = value
    with pytest.raises(ValueError, match="must be finite"):
        collision_probability(np.eye(4), priors, ens3.bit_map)


def _report(capsys, *argv):
    assert main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


def _complex(pairs):
    """A rendered complex array, [real, imag] pairs in its last axis, back as numbers."""
    pairs = np.array(pairs)
    return pairs[..., 0] + 1j * pairs[..., 1]


def test_med_result_serialises(med3, capsys):
    """The med report renders the confusion table and the POVM elements to
    12 significant digits, complex entries as [real, imag] pairs."""
    doc = _report(capsys, "med", "--n", "3")
    assert doc["kkt_passed"] is True
    assert doc["p_success"] == pytest.approx(0.75, abs=1e-6)
    assert_allclose(doc["confusion"], med3.confusion, rtol=1e-11, atol=1e-13)
    assert_allclose(_complex(doc["povm"]), np.array(med3.povm.elements), rtol=1e-11, atol=1e-13)


def test_cloning_result_serialises(clone3, capsys):
    """The clone report renders each Bob state as rows of [real, imag] pairs."""
    doc = _report(capsys, "clone", "--mode", "optimal")
    assert_allclose(_complex(doc["bob_states"]), np.array(clone3.bob_states),
                    rtol=1e-11, atol=1e-13)
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
    neg, tp = cptp_residuals(block_choi(clone3), 3)
    assert neg <= 1e-7
    assert tp <= 1e-7


@pytest.mark.parametrize("n", [3, 4, 5])
def test_character_block_cloner_matches_full_solve(n, covariant_calls):
    ens = dps_ensemble(n)
    result = optimal_cloner(ens)
    assert covariant_calls == ["cloner"]
    choi, two_copy, fids, bobs, eves = full_cloner(ens)
    assert_allclose(block_choi(result), choi, rtol=0, atol=1e-7)
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
    # each block is one sign function over all 2**(n-1) patterns, not only
    # over the generators that label it, and no two blocks share one
    signs = sign_patterns(n)
    characters = np.einsum("gi,gj,gk->ijkg", signs, signs, signs).reshape(n ** 3, -1)
    assert all(np.all(characters[ix] == characters[ix[0]]) for ix in blocks)
    assert len(np.unique(characters[[ix[0] for ix in blocks]], axis=0)) == len(blocks)
    # the cloning objective of the DPS ensemble has no weight between blocks
    ens = dps_ensemble(n)
    q = full_cloning_problem(ens).cost[0][0]
    label = np.zeros(n ** 3, dtype=int)
    for b, ix in enumerate(blocks):
        label[ix] = b
    assert np.max(np.abs(q[label[:, None] != label[None, :]])) <= 1e-15


@pytest.mark.parametrize("d", range(3, 13))
def test_character_blocks_are_contiguous_by_size(d):
    """The d blocks of size 3d-2 come first, then the C(d, 3) of size 6: so
    cloning_problem's groups, one per run of equal sizes, are one per size,
    and its solver, the top-eigenspace candidate and the clone scatter see
    the blocks in the order of _character_blocks."""
    assert ([b.size for b in attacks._character_blocks(d)]
            == [3 * d - 2] * d + [6] * math.comb(d, 3))


def scattered(solution, d):
    """A character-block cloner pair placed on the full cloning problem: the
    primal blocks at their kets, the multipliers as Y = diag(y), read as
    Re Tr(B_j Y) against the completeness basis B_j of its rows."""
    x = np.zeros((d ** 3, d ** 3), dtype=complex)
    for ix, xb in zip(attacks._character_blocks(d), (xb for xg in solution.x for xb in xg)):
        x[np.ix_(ix, ix)] = xb
    y = [np.trace(op @ np.diag(solution.y)).real
         for op in sdp.povm_completeness_constraints(d)[0][:, 0]]
    return dataclasses.replace(solution, x=[x[None]], y=np.array(y))


@pytest.mark.parametrize("n,two_copy", [(3, 7 / 9), (4, 0.625), (5, 0.52), (6, 0.444444)])
def test_character_block_cloner_certified_on_full_problem(n, two_copy, covariant_calls):
    ens = dps_ensemble(n)
    result = optimal_cloner(ens)
    assert covariant_calls == ["cloner"]
    assert sum(map(len, result.problem.cost)) == len(attacks._character_blocks(n))
    assert len(result.solution.y) == n  # one multiplier per diagonal trace-preservation entry
    assert result.kkt.passed, result.kkt.conditions
    full = scattered(result.solution, n)
    report = sdp.verify_kkt(full_cloning_problem(ens), full, tol=1e-6)
    assert report.passed, report.conditions
    assert_allclose(block_choi(result), full.x[0][0], rtol=0, atol=1e-9)
    assert result.avg_two_copy_fidelity == pytest.approx(two_copy, abs=1e-6)


def mutated_ensembles(ens):
    """(name, ensemble) of the ensemble and of mutations of it: a global
    sign per ket (ket 0 among those flipped), skewed priors, ket 1 bent
    towards e_0 by 1e-1, 1e-2 and 1e-3, and all three at once."""
    signs = np.where(np.arange(len(ens.priors)) % 3 == 0, -1.0, 1.0)[:, None]
    skewed = ens.priors * np.linspace(0.5, 1.5, len(ens.priors))
    cases = [("covariant", ens.states, ens.priors), ("signs", signs * ens.states, ens.priors),
             ("skewed", ens.states, skewed / skewed.sum())]
    for eps in (1e-1, 1e-2, 1e-3):
        bent = ens.states.copy()
        bent[1, 0] += eps
        bent[1] /= np.linalg.norm(bent[1])
        cases.append((f"bent {eps:g}", bent, ens.priors))
    cases.append(("all", signs * bent, skewed / skewed.sum()))
    return [(name, dataclasses.replace(ens, states=kets, priors=priors))
            for name, kets, priors in cases]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_reduced_cloner_certificate_agrees_with_full(n):
    """The reduced certificate and the full problem's KKT check give the same
    verdict on the block optimum with zeroed multipliers, and on the pair of
    the ensemble and of each of its mutations (see mutated_ensembles)."""
    ens = dps_ensemble(n)
    problem = cloning_problem(ens)
    solution, _ = attacks._reduced_optimum(problem, 0.0)

    def verdicts(problem, solution, mutated):
        delta = attacks._covariance_residual(mutated)
        reduced = attacks._reduced_kkt(problem, solution, delta)
        return (reduced.passed, sdp.verify_kkt(full_cloning_problem(mutated),
                                               scattered(solution, n), tol=1e-6).passed)

    zeroed = dataclasses.replace(solution, y=np.zeros_like(solution.y))
    assert verdicts(problem, zeroed, ens) == (False, False)
    # a sign per ket leaves the objective alone; the other mutations move Q
    # away from the blocks, which cloning_problem builds from ket 0 alone
    for name, mutated in mutated_ensembles(ens):
        expected = (True, True) if name in ("covariant", "signs") else (False, False)
        problem = cloning_problem(mutated)
        solution, _ = attacks._reduced_optimum(problem, attacks._covariance_residual(mutated))
        assert verdicts(problem, solution, mutated) == expected, name


@pytest.mark.parametrize("n", [3, 4, 5])
def test_reduced_med_certificate_agrees_with_full(n, monkeypatch):
    """The MED twin of the test above.  Forced onto the seed route by a zero
    covariance residual, the seed pair of the ensemble and of each of its
    mutations is checked by the reduced certificate, given the true
    residual, and its lift by the full problem's KKT check.  Both pass the
    ensemble and its signs, and both fail zeroed multipliers, skewed
    priors and a ket bent by 1e-1.  The reduced certificate is sufficient,
    not necessary: the seed optimum adapts to a slightly bent ket, so its
    lift misses the full conditions only to second order in the bend,
    while delta grows to first order, and at 1e-3 the full check passes
    what the reduced one refuses."""
    ens = dps_ensemble(n)
    residual = attacks._covariance_residual
    monkeypatch.setattr(attacks, "_covariance_residual", lambda ens: 0.0)

    def verdicts(seed, mutated):
        reduced = attacks._reduced_kkt(seed.problem, seed.solution, residual(mutated))
        return (reduced.passed, sdp.verify_kkt(med_problem(mutated), lifted_med_pair(mutated, seed),
                                               tol=attacks._KKT_TOL).passed)

    seed = med_attack(ens)
    zeroed = dataclasses.replace(seed, solution=dataclasses.replace(
        seed.solution, y=np.zeros_like(seed.solution.y)))
    assert verdicts(zeroed, ens) == (False, False)
    # a sign per ket leaves the densities alone; the other mutations move them
    for name, mutated in mutated_ensembles(ens):
        reduced, full = verdicts(med_attack(mutated), mutated)
        assert reduced == (name in ("covariant", "signs")), name
        assert full >= reduced, name
        if name in ("skewed", "bent 0.1", "all"):
            assert not full, name


@pytest.mark.parametrize("n", range(3, 9))
def test_covariance_residual_bounds_the_med_objective_distance(n):
    """sum_g ||E_g||_F <= 3 delta for the distance
    E_g = p_g rho_g - U_g (rho_bar/G) U_g^dagger of each block's MED
    objective from the lifted seed objective, rho_bar = sum_g p_g U_g rho_g U_g
    (see attacks._reduced_kkt), over the mutations of mutated_ensembles."""
    signs = sign_patterns(n)
    for name, mutated in mutated_ensembles(dps_ensemble(n)):
        weighted = mutated.priors[:, None, None] * mutated.densities
        rho_bar = sum(np.outer(s, s) * w for s, w in zip(signs, weighted))
        moved = np.array([np.outer(s, s) * rho_bar for s in signs]) / len(signs)
        distance = np.linalg.norm(weighted - moved, axis=(1, 2)).sum()
        assert distance <= 3.0 * attacks._covariance_residual(mutated) + 1e-15, name


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("eps", [1e-9, 1e-8])
def test_slightly_bent_kets_take_the_symmetry_reduced_routes(n, eps, covariant_calls,
                                                             monkeypatch):
    """Ket 1 bent towards e_0 by 1e-9 or 1e-8 is within n delta <= _KKT_TOL of
    the sign orbit: the optimal cloner takes it and certifies its candidate,
    whose scattered pair passes the full cloning problem's KKT check, and
    MED certifies its seed candidate without a solve, whose lift passes the
    full MED problem.  Each attack evaluates delta once."""
    ens = dps_ensemble(n)
    bent = ens.states.copy()
    bent[1, 0] += eps
    bent[1] /= np.linalg.norm(bent[1])
    mutated = dataclasses.replace(ens, states=bent)
    assert 0.0 < n * attacks._covariance_residual(mutated) <= attacks._KKT_TOL
    residuals = []
    monkeypatch.setattr(attacks, "_covariance_residual",
                        lambda e, _real=attacks._covariance_residual:
                        residuals.append(_real(e)) or residuals[-1])
    clone = optimal_cloner(mutated)
    assert len(residuals) == 1
    assert clone.kkt.passed and clone.solution.iterations == 0, clone.kkt.conditions
    full = sdp.verify_kkt(full_cloning_problem(mutated),
                          scattered(clone.solution, n), tol=attacks._KKT_TOL)
    assert full.passed, full.conditions
    med = med_attack(mutated)
    assert len(residuals) == 2
    assert med.solution.iterations == 0 and med.kkt.passed, med.kkt.conditions
    full = sdp.verify_kkt(med_problem(mutated), lifted_med_pair(mutated, med),
                          tol=attacks._KKT_TOL)
    assert full.passed, full.conditions
    assert covariant_calls == ["cloner", "med"]


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("eps", [1e-7, 3e-7])
def test_bent_seed_candidate_off_the_povm_rows_is_solved(n, eps, solved, covariant_calls):
    """Ket 1 bent by 1e-7 or 3e-7 keeps MED on its seed block, but the
    candidate's least-squares weights miss the completeness rows by more
    than a POVM admits, though within the certificate's tolerance.  So the
    seed is solved once, and its POVM sums to the identity."""
    ens = dps_ensemble(n)
    kets = ens.states.copy()
    kets[1, 0] += eps
    kets[1] /= np.linalg.norm(kets[1])
    mutated = dataclasses.replace(ens, states=kets)
    assert n * attacks._covariance_residual(mutated) <= attacks._KKT_TOL
    med = med_attack(mutated)
    assert covariant_calls == ["med"] and solved == [med.problem]
    candidate = attacks._top_eigenspace_solution(med.problem)
    assert np.max(np.abs(np.diag(candidate.x[0][0]).real - 1.0)) > attacks._POVM_SUM_ATOL
    assert med.kkt.passed, med.kkt.conditions
    assert np.max(np.abs(med.povm.elements.sum(axis=0) - np.eye(n))) <= attacks._POVM_SUM_ATOL


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("skew", [False, True])
def test_off_block_norm_matches_dense_objective(n, skew):
    """The Gram-matrix identity for ||Q_off||_F against the off-block entries
    of the dense objective Q = V^T diag(p) conj(V) of full_cloning_problem, read
    through the character blocks.  Q is formed here directly: building the
    whole problem at n = 8 takes seconds, for its 64 dense constraints."""
    ens = dps_ensemble(n)
    priors = ens.priors * np.linspace(0.5, 1.5, len(ens.priors)) if skew else ens.priors
    priors = priors / priors.sum()
    v = choi_kets(ens.states)
    q = v.T @ (priors[:, None] * v.conj())
    if n == 3:
        assert_allclose(q, full_cloning_problem(dataclasses.replace(ens, priors=priors)
                                                ).cost[0][0], rtol=0, atol=0)
    blocks = attacks._character_blocks(n)
    label = np.zeros(n ** 3, dtype=int)
    for b, ix in enumerate(blocks):
        label[ix] = b
    dense = np.linalg.norm(q[label[:, None] != label[None, :]])
    gram = off_block_norm({b: q[np.ix_(ix, ix)] for b, ix in enumerate(blocks)},
                          ens.states, priors)
    assert gram == pytest.approx(dense, rel=0, abs=1e-7)
    assert (dense > 1e-2) == skew


@pytest.mark.parametrize("n", range(3, 9))
def test_covariance_residual_bounds_the_objective_distance(n):
    """delta of _covariance_residual, read off the density operators, is at
    least ||Q - Q_cov||_F, the distance of the cloning objective from that of
    the sign orbit of ket 0, whose blocks cloning_problem builds.  The
    distance is exact from the dense objectives up to n = 5 and from the
    Gram oracle up to n = 8; each comparison allows its own rounding, 1e-13
    dense and 1e-7 Gram (see oracles.off_block_norm).  A sign per ket moves
    neither, and every other mutation fails the certificate's condition
    n delta <= _KKT_TOL."""
    ens = dps_ensemble(n)
    orbit = choi_kets(sign_patterns(n) * ens.states[0])
    q_cov = orbit.T @ orbit.conj() / len(orbit)
    problem = cloning_problem(ens)
    costs = (cb for cost in problem.cost for cb in cost)
    for block, cb in zip(attacks._character_blocks(n), costs, strict=True):
        assert_allclose(q_cov[np.ix_(block, block)], cb, rtol=0, atol=1e-15)
    for name, mutated in mutated_ensembles(ens):
        kets, priors = mutated.states, mutated.priors
        delta = attacks._covariance_residual(mutated)
        gram = covariance_residual_norm(kets, priors)
        assert delta >= gram - 1e-7, name
        if n <= 5:
            v = choi_kets(kets)
            exact = np.linalg.norm(v.T @ (priors[:, None] * v.conj()) - q_cov)
            assert gram == pytest.approx(exact, rel=0, abs=1e-7), name
            assert delta >= exact - 1e-13, name
        if name in ("covariant", "signs"):  # a sign flip is exact
            assert delta == 0.0, name
        else:
            assert gram > 1e-6 and n * delta > attacks._KKT_TOL, name


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_covariant_cloner_builds_no_full_operator(n, monkeypatch, covariant_calls):
    """The sign-covariant route diagonalises nothing of size n**3; it reads
    its one joint output off the blocks."""
    sizes = []

    def spy(module, name, record):
        real = getattr(module, name)

        def wrapper(a, *args, **kwargs):
            record(a)
            return real(a, *args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("eigh", "eigvalsh"):
        spy(np.linalg, name, lambda a: sizes.append(np.shape(a)[-1]))
    result = optimal_cloner(dps_ensemble(n))
    assert covariant_calls == ["cloner"]
    assert max(sizes) < n ** 3
    assert result.kkt.passed, result.kkt.conditions


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_cloning_problem_is_the_cloners_one_problem(n, monkeypatch):
    """cloning_problem builds the character-block SDP, one block per
    character in two groups, the n blocks of size 3n-2 and the C(n, 3) of
    size 6, and one row per input index, whose operators are exact 0/1
    diagonals that sum to the identity on every block; it is the only
    SdpProblem that optimal_cloner builds."""
    ens = dps_ensemble(n)
    problem = cloning_problem(ens)
    shapes = [(n, 3 * n - 2, 3 * n - 2), (math.comb(n, 3), 6, 6)]
    assert [c.shape for c in problem.cost] == shapes
    assert [a.shape for a in problem.ops] == [(n, *shape) for shape in shapes]
    assert len(problem.rhs) == n
    for a in problem.ops:
        assert set(np.unique(a)) <= {0.0, 1.0}
        assert_allclose(a.sum(axis=0), np.broadcast_to(np.eye(a.shape[-1]), a.shape[1:]),
                        rtol=0, atol=0)
    events = []

    def record(name, real):
        def wrapper(*args, **kwargs):
            events.append(f"{name}(")
            out = real(*args, **kwargs)
            events.append(f"){name}")
            return out
        return wrapper

    monkeypatch.setattr(sdp, "SdpProblem", record("SdpProblem", sdp.SdpProblem))
    monkeypatch.setattr(attacks, "cloning_problem",
                        record("cloning_problem", attacks.cloning_problem))
    result = optimal_cloner(ens)
    assert events == ["cloning_problem(", "SdpProblem(", ")SdpProblem", ")cloning_problem"]
    assert [c.shape for c in result.problem.cost] == shapes


@pytest.mark.parametrize("n", range(3, 13))
def test_optimal_cloner_at_every_pulse_count(n):
    """Up to dps.MAX_PULSES the reduced certificate passes, with the DPS kets
    exactly on the sign orbit of ket 0 (delta = 0), the two-copy
    fidelity meets its closed form (3n-2)/n**2, and both clones of every
    state are exactly depolarised."""
    ens = dps_ensemble(n)
    clone = optimal_cloner(ens)
    assert clone.kkt.passed, clone.kkt.conditions
    assert "objective_covariant" in clone.kkt.conditions
    assert attacks._covariance_residual(ens) == 0.0
    assert clone.avg_two_copy_fidelity == pytest.approx((3 * n - 2) / n ** 2, rel=0, abs=1e-12)
    fits = [depolarizing_fit(rho, c) for rho, c in
            zip([*ens.densities] * 2, [*clone.bob_states, *clone.eve_states])]
    assert max(residual for _, residual in fits) <= 1e-12


def test_optimal_cloner_rejects_non_covariant_ensembles(ens3, covariant_calls):
    """Skewed priors, a subset of the states and a reordering of them each break
    the sign covariance; the cloner refuses them before any solve."""
    skewed = dataclasses.replace(ens3, priors=[0.4, 0.2, 0.2, 0.2])
    subset = DpsEnsemble(states=ens3.states[:2], priors=[0.5, 0.5], bit_map=ens3.bit_map[:2])
    order = [1, 0, 2, 3]
    swapped = DpsEnsemble(states=ens3.states[order], priors=ens3.priors,
                          bit_map=ens3.bit_map[order])
    for ens in (skewed, subset, swapped):
        with pytest.raises(ValueError, match="^the optimal cloner needs a sign-covariant ensemble$"):
            optimal_cloner(ens)
    assert covariant_calls == []


def test_cloners_reject_density_operators(ens3):
    mixed = dataclasses.replace(ens3, states=ens3.densities)
    for cloner in (optimal_cloner, cloning_problem, aligned_cloning_basis, optimize_unitary_q):
        with pytest.raises(ValueError, match="pure-state ensemble"):
            cloner(mixed)


def random_density(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("d", [3, 4])
def test_apply_choi_matches_the_kronecker_product(d):
    """The contraction equals J (I x rho^T x I) traced over the input factor."""
    rng = np.random.default_rng(d)
    a = rng.normal(size=(d ** 3, d ** 3)) + 1j * rng.normal(size=(d ** 3, d ** 3))
    rho = random_density(rng, d)
    sandwich = a @ np.kron(np.eye(d), np.kron(rho.T, np.eye(d)))
    assert_allclose(apply_choi(a, rho), partial_trace(sandwich, [d, d, d], keep=[0, 2]),
                    rtol=1e-13, atol=1e-13)


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
            pairs += np.kron(np.kron(np.outer(ea, eb), np.outer(ea, eb)), outer(e0))
    rng = np.random.default_rng(5)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    joint = apply_choi(pairs, outer(psi))
    assert_allclose(partial_trace(joint, [d, d], keep=[0]), outer(psi), atol=1e-12)


def test_depolarizing_fit_of_solver_output(clone3, ens3):
    fits = [depolarizing_fit(ens3.densities[i], clone3.bob_states[i]) for i in range(4)]
    ps = [p for p, _ in fits]
    assert_allclose(ps, np.full(4, 2.0 / 7.0), atol=1e-6)
    assert max(ps) - min(ps) <= 1e-3
    assert all(r <= 1e-5 for _, r in fits)


def test_depolarizing_fit_trivials(ens3):
    rho = ens3.densities[0]
    p, resid = depolarizing_fit(rho, rho)
    assert p == pytest.approx(0.0, abs=1e-12) and resid <= 1e-12
    p, resid = depolarizing_fit(rho, np.eye(3) / 3)
    assert p == pytest.approx(1.0, abs=1e-12) and resid <= 1e-12
    # a maximally mixed original fits any p: p = 0, residual the distance
    p, resid = depolarizing_fit(np.eye(3) / 3, rho)
    assert p == 0.0 and resid == pytest.approx(np.linalg.norm(rho - np.eye(3) / 3), abs=1e-15)
    with pytest.raises(ValueError, match="operators must share a dimension"):
        depolarizing_fit(rho, np.eye(2) / 2)


def test_depolarizing_fit_two_decimal_matrix(ens3):
    """Fitting the two-decimal rendering of the clone (off-diagonal 0.23)
    gives p = 0.31 exactly: 1 - 3*0.23."""
    for i in range(4):
        rho = ens3.densities[i]
        printed = 0.69 * rho + (0.31 / 3.0) * np.eye(3)
        p, resid = depolarizing_fit(rho, printed)
        assert p == pytest.approx(0.31, abs=1e-12)
        assert resid <= 1e-2


def test_med_on_cloned(clone_med3):
    assert clone_med3.p_success == pytest.approx(0.75 - 1.0 / 7.0, abs=1e-5)
    assert_allclose(np.diag(clone_med3.confusion), np.full(4, 0.75 - 1.0 / 7.0), atol=1e-4)
    assert clone_med3.collision_probability == pytest.approx(0.6133786848, abs=1e-5)


def test_med_on_pure_states_reduces_to_direct(ens3, med3):
    again = med_on_cloned(ens3, ens3.densities)
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
    # a state 0 with no weight on e_0 makes the candidate e_1 dependent: it is
    # skipped, and e_0 completes the basis
    expected = np.array([[0.0, 1.0, 1.0], [0.0, 1.0, -1.0], [np.sqrt(2.0), 0.0, 0.0]])
    assert_allclose(aligned_cloning_basis(orthogonal_pair()), expected / np.sqrt(2.0),
                    rtol=0, atol=1e-12)


def test_unitary_params_validation(ens3):
    basis = aligned_cloning_basis(ens3)
    with pytest.raises(ValueError, match="unitary range"):
        UnitaryClonerParams(q=0.6, basis=basis)
    with pytest.raises(ValueError, match="orthonormal"):
        UnitaryClonerParams(q=0.2, basis=(basis[0], basis[0], basis[2]))
    with pytest.raises(ValueError, match="orthonormal"):
        UnitaryClonerParams(q=0.2, basis=np.where(np.eye(3, dtype=bool), np.nan, basis))
    with pytest.raises(ValueError, match=r"\(d, d\) array"):
        UnitaryClonerParams(q=0.2, basis=basis[:2])
    params = UnitaryClonerParams(q=0.23, basis=basis)
    assert params.d == 3
    assert params.unitarity_residual() <= 1e-12


@pytest.mark.parametrize("basis", [np.eye(1), np.zeros((0, 0))])
def test_unitary_params_need_two_kets(basis):
    with pytest.raises(ValueError, match="at least two kets"):
        UnitaryClonerParams(q=0.0, basis=basis)


def test_unitary_cloner_is_isometry():
    """The isometry, built term by term, keeps every input pure, and the
    partial traces of its output onto each clone factor are the closed-form
    clones of apply_unitary_cloner, at n = 3..8."""
    for d in range(3, 9):
        ens = dps_ensemble(d)
        basis = aligned_cloning_basis(ens)
        params = UnitaryClonerParams(q=0.23, basis=basis)
        x = np.eye(d)
        v = np.zeros((d ** 3, d), dtype=complex)
        for i in range(d):
            col = params.p * np.kron(np.kron(basis[i], basis[i]), x[i])
            for j in range(d):
                if j != i:
                    col = col + params.q * (np.kron(np.kron(basis[i], basis[j]), x[j])
                                            + np.kron(np.kron(basis[j], basis[i]), x[j]))
            v[:, i] = col
        assert_allclose(v.conj().T @ v, np.eye(d), atol=1e-10)
        clones = apply_unitary_cloner(params, ens.states)
        assert clones.shape == (len(ens.states), d, d)
        # tripartite output of any normalised input stays pure
        for s, clone in zip(ens.states, clones):
            out = v @ np.array([np.vdot(b, s) for b in basis])
            assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-10)
            for factor in (0, 1):
                assert_allclose(partial_trace(outer(out), [d, d, d], keep=[factor]), clone,
                                rtol=0, atol=1e-12)


def test_unitary_cloner_symmetric_and_q0_identity(ens3):
    """The clone stack holds density operators, and at q = 0 the cloner copies
    its basis kets exactly, such as state 0, the first aligned basis ket."""
    basis = aligned_cloning_basis(ens3)
    clones = apply_unitary_cloner(UnitaryClonerParams(q=0.23, basis=basis), ens3.states)
    assert_allclose(clones, clones.conj().transpose(0, 2, 1), atol=1e-15)
    assert_allclose(np.trace(clones, axis1=1, axis2=2), np.ones(4), atol=1e-12)
    assert np.min(np.linalg.eigvalsh(clones)) >= -1e-12
    trivial = UnitaryClonerParams(q=0.0, basis=basis)
    assert_allclose(apply_unitary_cloner(trivial, ens3.states)[0], ens3.densities[0], atol=1e-12)


def test_unitary_cloner_rejects_unnormalised(ens3):
    basis = aligned_cloning_basis(ens3)
    params = UnitaryClonerParams(q=0.23, basis=basis)
    with pytest.raises(ValueError, match="normalised"):
        apply_unitary_cloner(params, np.array([ens3.states[0], 2.0 * ens3.states[1]]))
    with pytest.raises(ValueError, match="normalised"):
        apply_unitary_cloner(params, np.array([ens3.states[0], np.full(3, np.nan)]))


def test_transformed_matrices_at_printed_q(ens3):
    """At q = 0.23 the four clone outputs show the expected entry pattern."""
    basis = aligned_cloning_basis(ens3)
    params = UnitaryClonerParams(q=0.23, basis=basis)
    clones = apply_unitary_cloner(params, ens3.states).real
    bobs = {tuple(bits): clone for bits, clone in zip(ens3.bit_map, clones)}
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
    single = DpsEnsemble(states=[basis[0]], priors=[1.0], bit_map=[ens3.bit_map[0]])
    q_opt, fid = optimize_unitary_q(single)
    assert q_opt == pytest.approx(0.0, abs=1e-4)
    assert fid == pytest.approx(1.0, abs=1e-6)


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def cloned_fidelity(q, states, priors, basis):
    """Mean single-clone fidelity evaluated through apply_unitary_cloner."""
    clones = apply_unitary_cloner(UnitaryClonerParams(q=q, basis=basis), states)
    return float(priors @ np.einsum("gi,gij,gj->g", states.conj(), clones, states).real)


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
    q_opt, fid = optimize_unitary_q(ens)
    q_search, fid_search = golden_section_q(ens.states, ens.priors, basis)
    assert q_opt == pytest.approx(q_search, abs=1e-6)
    assert fid >= fid_search - 1e-12
    assert fid == pytest.approx(cloned_fidelity(q_opt, ens.states, ens.priors, basis),
                                abs=1e-12)


def test_closed_form_q_at_eight_pulses():
    ens = dps_ensemble(8)
    basis = aligned_cloning_basis(ens)
    q_opt, fid = optimize_unitary_q(ens)
    assert 0.0 < q_opt < 1.0 / np.sqrt(2.0 * 7)
    assert fid == pytest.approx(cloned_fidelity(q_opt, ens.states, ens.priors, basis),
                                abs=1e-12)


def test_unitary_cloning_attack_at_eight_pulses(monkeypatch):
    """Above the attack cap the post-cloning MED of the unitary clones runs the
    general solve over 2**7 blocks of 8 x 8 with 36 shared completeness
    operators, the real symmetric ones, since the clones are real, and its
    optimum passes the KKT conditions on the full problem.  A channel cannot
    raise the MED success probability n / 2**(n-1)."""
    solve, solved = sdp.solve, []
    monkeypatch.setattr(sdp, "solve", lambda problem: solved.append(problem) or solve(problem))
    med = unitary_cloning_attack(dps_ensemble(8)).med_after
    assert len(solved) == 1 and solved[0] is med.problem
    assert [c.shape for c in med.problem.cost] == [(2 ** 7, 8, 8)]
    assert [a.shape for a in med.problem.ops] == [(36, 1, 8, 8)]
    report = sdp.verify_kkt(med.problem, med.solution)
    assert report.passed, report.conditions
    assert 1.0 / 2 ** 7 < med.p_success < 8.0 / 2 ** 7


@pytest.mark.parametrize("n,iterations", [(3, 9), (4, 14), (5, 10), (6, 20), (7, 14), (8, 19)])
def test_unitary_post_cloning_med_iterations(n, iterations, unitary_attack_at):
    """The one general solve left at runtime takes no more iterations in real
    arithmetic, with the step lengths read off the NT eigendecompositions,
    than the complex solver with its own step-length factorisation did."""
    med = unitary_attack_at(n).med_after
    assert 0 < med.solution.iterations <= iterations
    assert med.kkt.passed, med.kkt.conditions


def test_rendered_arrays_stay_complex(med3, cloning_attack3, unitary_attack3):
    """Real SDP data run in float64, but the POVM elements and clone stacks
    that reports render as [re, im] pairs stay complex128."""
    med = unitary_attack3.med_after
    assert med.solution.x[0].dtype == np.float64  # the general solve's optimum
    for povm in (med3.povm, cloning_attack3.med_after.povm, med.povm):
        assert {el.dtype for el in povm.elements} == {np.dtype(np.complex128)}
    for attack in (cloning_attack3, unitary_attack3):
        assert attack.bob_states.dtype == np.complex128


def test_optimize_unitary_q_keeps_input_checks(ens3):
    # an unnormalised state cannot reach the optimisation: its ensemble is refused
    with pytest.raises(ValueError, match="unit norm"):
        optimize_unitary_q(dataclasses.replace(ens3, states=[2.0 * ens3.states[0],
                                                             *ens3.states[1:]]))


def test_unitary_ber_values(ens3, unitary3):
    _, _, _, _, bobs = unitary3
    plain = _key_slot_ber(bobs, ens3.bit_map)
    cond = _key_slot_ber(bobs, ens3.bit_map, conditional=True)
    assert np.mean(plain) == pytest.approx(0.1023080, abs=1e-5)
    assert np.mean(cond) == pytest.approx(0.1527084, abs=1e-5)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("attack_at", ["cloning_attack_at", "unitary_attack_at"])
def test_clone_ber_equals_per_clone_ber(n, attack_at, request):
    """One read of the clone stack gives the BER of each clone read alone."""
    attack = request.getfixturevalue(attack_at)(n)
    for conditional in (False, True):
        per_clone = [_key_slot_ber(bob, bits, conditional)
                     for bob, bits in zip(attack.bob_states, attack.ensemble.bit_map)]
        assert_allclose(attack.ber(conditional), per_clone, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [3, 4])
def test_profiles_check_only_whole_clone_stacks(n, monkeypatch):
    """Each certified clone stack is checked once, as a whole, when Eve's MED
    takes it as an ensemble; the BER reads the clones without re-checking them."""
    shapes = []

    def spy(rho, _real=dps.is_density):
        shapes.append(np.shape(rho))
        return _real(rho)

    monkeypatch.setattr(dps, "is_density", spy)
    standard_attack_profiles(n)
    assert shapes == [(2 ** (n - 1), n, n)] * 2


def test_unitary_med_after(unitary_med3):
    assert unitary_med3.p_success == pytest.approx(0.6031312, abs=1e-5)
    assert unitary_med3.collision_probability == pytest.approx(0.6318782, abs=1e-5)


# ---------------------------------------------------------------------------
# closed forms at every pulse count
# ---------------------------------------------------------------------------

# The optima below sit on top eigenvectors and need no interior-point solve,
# so they meet their closed forms to rounding, not to the solver's GAP_TOL.
CLOSED_FORM_TOL = 1e-12


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_dps_attacks_run_no_solve(n, solved):
    """On a DPS ensemble, MED, the optimal cloner and MED of its clones each
    take the top-eigenspace optimum of their reduced problem."""
    ens = dps_ensemble(n)
    med = med_attack(ens)
    attack = optimal_cloning_attack(ens)
    assert solved == []
    for solution in (med.solution, attack.cloner.solution, attack.med_after.solution):
        assert solution.iterations == 0 and solution.iterates == []


def test_sign_covariant_med_builds_no_full_problem(monkeypatch, solved):
    """MED of the DPS states at n = 3..10 and of the optimal clones at
    n = 3..5 stays on its seed block: no med_problem is built and no solve
    runs.  standard_attack_profiles(4) builds med_problem once, for the
    unitary clones, and solves it."""
    built, real = [], attacks.med_problem
    monkeypatch.setattr(attacks, "med_problem", lambda ens: built.append(ens) or real(ens))
    for n in range(3, 11):
        assert [c.shape for c in med_attack(dps_ensemble(n)).problem.cost] == [(1, n, n)]
    for n in range(3, 6):
        ens = dps_ensemble(n)
        med_on_cloned(ens, optimal_cloner(ens).eve_states)
    assert built == [] and solved == []
    standard_attack_profiles(4)
    assert len(built) == 1 and len(solved) == 1
    assert [c.shape for c in solved[0].cost] == [(8, 4, 4)]
    assert_allclose(built[0].states, unitary_cloning_attack(dps_ensemble(4)).bob_states,
                    rtol=0, atol=0)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_closed_forms_at_every_pulse_count(n, cloning_attack_at):
    """The certified optima of MED and of the optimal cloner, and the shrinking
    factors they imply, against closed forms; G = 2**(n-1).

    MED.  With psi_g = s_g/sqrt(n) and t = s_g * s_h entrywise,
    <psi_g|psi_h> = sum_i t_i / n.  For i != j half of the sign patterns have
    s_i s_j = -1, so sum_g |psi_g><psi_g| = (G/n) I.  The average state is
    I/n, and the square-root measurement P_h = (n/G)|psi_h><psi_h| has the
    table (n/G)|<psi_g|psi_h>|**2, whose diagonal gives p_success = n/G.
    Every outcome has probability 1/G, and its posterior that key bit j
    of state g equals that of state h exceeds the opposite one by
    D = (1/(nG)) sum_t (sum_i t_i)**2 t_j t_{j+1} = 2/n, since only the two
    index pairs {i, k} = {j, j+1} survive the sign average.  The collision
    probability is ((1+D)/2)**2 + ((1-D)/2)**2 = 1/2 + D**2/2 = 1/2 + 2/n**2.

    Optimal cloner.  With v_g = psi_g x conj(psi_g) x psi_g the objective is
    Q = sum_g v_g v_g^dagger / G.  Its nonzero eigenvalues are those of the
    group-circulant Gram matrix <v_g|v_h>/G = (sum_i t_i / n)**3 / G, one per
    character of the sign group.  The character t -> t_m gives
    E_t[(sum_i t_i)**3 t_m] / n**3 = (3n-2)/n**3, as 3n-2 index triples pair
    up with m.  Three-index characters give 6/n**3, and all others give 0.
    The dual point Y = lambda_max(Q) I is feasible, so the two-copy fidelity
    is at most n lambda_max = (3n-2)/n**2.  The Choi operator
    J = sum_m |w_m><w_m| / (3n-2), with w_m = sum_a (|a a m> + |a m a>
    + |m a a>) - 2|m m m> the top eigenvector of the character t_m, is
    trace preserving (each ||w_m||**2 = 3n-2) and attains the bound.  It
    maps psi to the joint output sum_m U_m U_m^T / (3n-2), where
    U_m = psi e_m^T + e_m psi^T + psi_m (I - 2 e_m e_m^T).  Both clones are
    ((n+2) |psi><psi| + (2 - 4/n) I) / (3n-2): depolarised with
    p = 2(n-2)/(3n-2).

    Post-cloning MED.  On the clones (1-p) rho_g + p I/n, the objective of
    any POVM is (1-p) times its objective on the states plus p/G.  So the
    same measurement stays optimal, with p_success ((1-p)n + p)/G and table
    (1-p) C + p/G.  The uniform p/G splits each key bit evenly, so D shrinks
    to (1-p) D.  The collision probability is
    1/2 + 2(1-p)**2/n**2 = 1/2 + 2(n+2)**2/(n**2 (3n-2)**2).

    Shrinking factors.  With collision probability (1 + D**2)/2 on a
    touched fraction g, tau = -g log2 p_co + 1 - g = 1 - g log2(1 + D**2).
    """
    ens = dps_ensemble(n)
    count = 2 ** (n - 1)
    med = med_attack(ens)
    pgm_table = n / count * np.abs(ens.states.conj() @ ens.states.T) ** 2
    assert med.p_success == pytest.approx(n / count, abs=CLOSED_FORM_TOL)
    assert_allclose(med.confusion, pgm_table, rtol=0, atol=CLOSED_FORM_TOL)
    d_med = 2 / n
    assert med.collision_probability == pytest.approx(0.5 + d_med ** 2 / 2,
                                                      abs=CLOSED_FORM_TOL)

    attack = cloning_attack_at(n)
    assert attack.cloner.kkt.passed, attack.cloner.kkt.conditions
    assert attack.fidelity == pytest.approx((3 * n - 2) / n ** 2, abs=CLOSED_FORM_TOL)
    p = 2 * (n - 2) / (3 * n - 2)
    clones = [*attack.cloner.bob_states, *attack.cloner.eve_states]
    fits = [depolarizing_fit(rho, c) for rho, c in zip([*ens.densities] * 2, clones)]
    assert_allclose([fit for fit, _ in fits], p, rtol=0, atol=CLOSED_FORM_TOL)
    assert max(residual for _, residual in fits) <= 1e-12  # exactly depolarised
    after = attack.med_after
    assert after.p_success == pytest.approx(((1 - p) * n + p) / count, abs=CLOSED_FORM_TOL)
    assert_allclose(after.confusion, (1 - p) * pgm_table + p / count,
                    rtol=0, atol=CLOSED_FORM_TOL)
    d_clone = (1 - p) * d_med
    assert after.collision_probability == pytest.approx(
        0.5 + 2 * (n + 2) ** 2 / (n ** 2 * (3 * n - 2) ** 2), abs=CLOSED_FORM_TOL)

    for g in (0.5, 1.0):
        for result, d in ((med, d_med), (after, d_clone)):
            assert shrinking_factor(g, result.collision_probability) == pytest.approx(
                1 - g * np.log2(1 + d ** 2), abs=CLOSED_FORM_TOL)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_every_med_optimum_sits_in_its_duality_bracket(n, cloning_attack_at, unitary_attack_at):
    """The weak-duality bracket of each returned POVM, which reads no solver
    multiplier, holds its p_success: to rounding for the DPS states and the
    optimal clones, whose optima are closed-form, and within 5e-5 for the
    unitary clones, the one general solve (widths 1.4e-7 to 1.8e-5)."""
    ens = dps_ensemble(n)
    optimal, unitary = cloning_attack_at(n), unitary_attack_at(n)
    for states, med, width in [
        (ens.states, med_attack(ens), CLOSED_FORM_TOL),
        (optimal.cloner.eve_states, optimal.med_after, CLOSED_FORM_TOL),
        (unitary.bob_states, unitary.med_after, 5e-5),
    ]:
        lower, upper = duality_bracket(dataclasses.replace(ens, states=states), med.povm)
        assert lower == pytest.approx(med.p_success, abs=CLOSED_FORM_TOL)
        assert -CLOSED_FORM_TOL <= upper - med.p_success <= width


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
    # one certificate per optimum: MED, cloner, MED of the optimal clones and
    # MED of the unitary clones
    assert len(reports) == 4
    assert all(r.passed for r in reports)


# The verify_kkt calls of standard_attack_profiles(3) that certify the four
# attack optima, one call per optimum.
CERTIFICATE_CALLS = (0, 1, 2, 3)


@pytest.mark.parametrize("failing,attack", [
    (0, "med"), (1, "optimal cloner"), (2, "MED after optimal cloning"),
    (3, "MED after unitary cloning")])
def test_uncertified_optimum_never_reaches_a_profile(monkeypatch, failing, attack):
    """From one attack's certificate on, every certificate fails.  A
    sign-covariant attack then solves its reduced problem and certifies that
    pair too (two checks); the general MED of the unitary clones has one."""
    checks = 1 if attack == "MED after unitary cloning" else 2
    calls = []

    def verify_kkt_failing_from(*args, **kwargs):
        report = verify_kkt(*args, **kwargs)
        if len(calls) >= CERTIFICATE_CALLS[failing]:
            report.conditions["dual_psd"] = False
        calls.append(report)
        return report

    verify_kkt = sdp.verify_kkt
    monkeypatch.setattr(sdp, "verify_kkt", verify_kkt_failing_from)
    with pytest.raises(attacks.UncertifiedOptimumError,
                       match=f"^{attack}: KKT certificate failed \\(dual_psd\\)$"):
        standard_attack_profiles(3)
    assert len(calls) == CERTIFICATE_CALLS[failing] + checks


@pytest.mark.parametrize("error", [sdp.MaxIterationsError, sdp.NumericalBreakdownError])
def test_solver_failure_keeps_its_class_and_names_the_attack(monkeypatch, error):
    def failing(*args, **kwargs):
        raise error("no convergence")

    monkeypatch.setattr(attacks, "med_attack", failing)
    with pytest.raises(error, match="^med: no convergence$"):
        standard_attack_profiles(3)


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
