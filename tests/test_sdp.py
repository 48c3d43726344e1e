import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dpsqkd.dps import dps_ensemble
from dpsqkd.linalg import outer, tensor
from dpsqkd.sdp import (InfeasibleConstraintsError, MaxIterationsError,
                        SdpProblem, SdpSolution, SolveOptions,
                        partial_trace_identity_constraints,
                        povm_completeness_constraints, smat, solve, svec,
                        verify_kkt)


def two_state_problem():
    e0, e1 = np.eye(2)[0], np.eye(2)[1]
    names = ["P1", "P2"]
    return SdpProblem(
        blocks=[(n, 2) for n in names],
        objective={"P1": 0.5 * outer(e0), "P2": 0.5 * outer(e1)},
        constraints=povm_completeness_constraints(2, names),
    )


def med3_problem():
    ens = dps_ensemble(3)
    names = [f"P{i + 1}" for i in range(4)]
    objective = {names[i]: 0.25 * ens.density(i) for i in range(4)}
    return ens, SdpProblem(blocks=[(n, 3) for n in names], objective=objective,
                           constraints=povm_completeness_constraints(3, names))


def test_svec_roundtrip_and_inner_product(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a = (a + a.conj().T) / 2
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = (b + b.conj().T) / 2
    assert_allclose(smat(svec(a), 4), a, atol=1e-12)
    assert svec(a) @ svec(b) == pytest.approx(np.trace(a @ b).real, abs=1e-10)


def test_orthogonal_discrimination_is_perfect():
    sol = solve(two_state_problem())
    assert sol.primal_objective == pytest.approx(1.0, abs=1e-6)
    assert_allclose(sol.x["P1"], np.diag([1.0, 0.0]), atol=1e-5)
    assert_allclose(sol.x["P2"], np.diag([0.0, 1.0]), atol=1e-5)


def test_med3_value_and_duality():
    _, problem = med3_problem()
    sol = solve(problem)
    assert sol.primal_objective == pytest.approx(0.75, abs=1e-6)
    # weak duality: the dual upper-bounds the primal for a maximisation
    assert sol.dual_objective >= sol.primal_objective - 1e-6
    assert sol.gap <= 1e-7 * (1.0 + abs(sol.primal_objective))


def test_solution_feasibility_tolerances():
    _, problem = med3_problem()
    sol = solve(problem)
    report = verify_kkt(problem, sol, tol=1e-7)
    assert report.passed, report.conditions
    assert report.equality_residual <= 1e-8
    assert report.primal_min_eigenvalue >= -1e-8


def test_verify_kkt_flags_perturbed_primal():
    _, problem = med3_problem()
    sol = solve(problem)
    bad = {n: x.copy() for n, x in sol.x.items()}
    bad["P1"][0, 0] += 0.1
    perturbed = SdpSolution(x=bad, y=sol.y, z=sol.z,
                            primal_objective=sol.primal_objective,
                            dual_objective=sol.dual_objective,
                            gap=sol.gap, iterations=sol.iterations)
    report = verify_kkt(problem, perturbed, tol=1e-6)
    assert not report.conditions["primal_equalities"]
    assert not report.passed


def test_hand_built_optimal_povm_certified_by_solver_dual():
    """The rank-one projectors (3/4)|psi_i><psi_i| (entries +-0.25) are optimal;
    they must satisfy complementary slackness against the solver's dual."""
    ens, problem = med3_problem()
    sol = solve(problem)
    hand = {f"P{i + 1}": 0.75 * ens.density(i) for i in range(4)}
    candidate = SdpSolution(x=hand, y=sol.y, z=sol.z,
                            primal_objective=0.75, dual_objective=sol.dual_objective,
                            gap=abs(0.75 - sol.dual_objective), iterations=0)
    report = verify_kkt(problem, candidate, tol=1e-6)
    assert report.passed, report.conditions
    assert report.complementary_slackness <= 1e-6


def test_feasible_povm_never_beats_optimum(rng):
    ens, problem = med3_problem()
    opt = solve(problem).primal_objective
    for _ in range(5):
        raw = []
        for _ in range(4):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            raw.append(a @ a.conj().T + 1e-6 * np.eye(3))
        total = sum(raw)
        w, v = np.linalg.eigh(total)
        inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
        povm = [inv_sqrt @ p @ inv_sqrt for p in raw]
        value = sum(0.25 * np.trace(ens.density(i) @ povm[i]).real for i in range(4))
        assert value <= opt + 1e-7


def test_unitary_conjugation_invariance():
    ens, problem = med3_problem()
    rng = np.random.default_rng(42)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    u, _ = np.linalg.qr(a)
    names = [f"P{i + 1}" for i in range(4)]
    objective = {names[i]: 0.25 * (u @ ens.density(i) @ u.conj().T) for i in range(4)}
    rotated = SdpProblem(blocks=[(n, 3) for n in names], objective=objective,
                         constraints=povm_completeness_constraints(3, names))
    base = solve(problem).primal_objective
    assert solve(rotated).primal_objective == pytest.approx(base, abs=1e-8)


def test_partial_trace_constraint_builder():
    cons = partial_trace_identity_constraints("J", [2, 2, 2], keep=1)
    assert len(cons) == 4
    # a maximally mixed Choi (identity/4) satisfies Tr_{out,out}(J) = I exactly
    j = np.eye(8) / 4.0
    for coeffs, rhs in cons:
        assert np.trace(coeffs["J"] @ j).real == pytest.approx(rhs, abs=1e-12)
    # the builder places the kept factor in the middle
    e01 = np.zeros((2, 2)); e01[0, 1] = e01[1, 0] = 1 / np.sqrt(2)
    expected = tensor(np.eye(2), e01, np.eye(2))
    found = any(np.allclose(c["J"], expected) for c, _ in cons)
    assert found


def test_rank_deficient_constraints_rejected():
    cons = [({"P1": np.eye(2)}, 1.0), ({"P1": 2.0 * np.eye(2)}, 3.0)]
    with pytest.raises(InfeasibleConstraintsError):
        SdpProblem(blocks=[("P1", 2)], objective={"P1": np.eye(2)}, constraints=cons)


def test_non_hermitian_data_rejected():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        SdpProblem(blocks=[("P1", 2)], objective={"P1": bad},
                   constraints=povm_completeness_constraints(2, ["P1"]))


def test_max_iterations_error():
    _, problem = med3_problem()
    with pytest.raises(MaxIterationsError):
        solve(problem, SolveOptions(max_iterations=2))


def test_deterministic_resolves():
    _, problem = med3_problem()
    a = solve(problem)
    b = solve(problem)
    assert a.primal_objective == b.primal_objective
    assert a.iterations == b.iterations
    for n in a.x:
        assert np.array_equal(a.x[n], b.x[n])


def test_iterate_trace_dump(tmp_path):
    _, problem = med3_problem()
    path = tmp_path / "trace.jsonl"
    solve(problem, SolveOptions(trace_path=str(path)))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) >= 3
    assert {"iteration", "mu", "gap"} <= set(lines[0])
    assert lines[-1]["mu"] < lines[0]["mu"]
