import numpy as np
import pytest
from numpy.testing import assert_allclose

from dpsqkd import attacks, sdp
from dpsqkd.dps import dps_ensemble
from dpsqkd.linalg import hermitian_part, outer, tensor
from dpsqkd.sdp import (InfeasibleConstraintsError, MaxIterationsError,
                        SdpProblem, SdpSolution,
                        partial_trace_identity_constraints,
                        povm_completeness_constraints, smat, solve, svec,
                        verify_kkt)


def two_state_problem():
    e0, e1 = np.eye(2)[0], np.eye(2)[1]
    names = ["P1", "P2"]
    return SdpProblem(
        blocks=[(n, 2) for n in names],
        objective={"P1": 0.5 * outer(e0), "P2": 0.5 * outer(e1)},
        constraints=povm_completeness_constraints(2),
    )


def med3_problem():
    ens = dps_ensemble(3)
    names = [f"P{i + 1}" for i in range(4)]
    objective = {names[i]: 0.25 * ens.density(i) for i in range(4)}
    return ens, SdpProblem(blocks=[(n, 3) for n in names], objective=objective,
                           constraints=povm_completeness_constraints(3))


def test_svec_roundtrip_and_inner_product(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a = (a + a.conj().T) / 2
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = (b + b.conj().T) / 2
    assert_allclose(smat(svec(a), 4), a, atol=1e-12)
    assert svec(a) @ svec(b) == pytest.approx(np.trace(a @ b).real, abs=1e-10)
    # stacks map matrix by matrix
    stack = np.stack([a, b])
    assert_allclose(svec(stack), [svec(a), svec(b)], atol=0)
    assert_allclose(smat(svec(stack), 4), stack, atol=1e-12)


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
                         constraints=povm_completeness_constraints(3))
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


def interleaved_problem(best):
    """Blocks [A: 2, B: 3, C: 2] under Tr X_A + Tr X_B + Tr X_C = 1.

    The optimum is the largest eigenvalue over all cost blocks, attained by
    the projector onto its eigenvector; ``best`` gets the largest one.
    """
    dims = {"A": 2, "B": 3, "C": 2}
    cost = {
        "A": np.array([[1.0, 1j], [-1j, 0.0]]),
        "B": np.array([[0.5, 0.2, 0.0], [0.2, -1.0, 0.3j], [0.0, -0.3j, 0.1]]),
        "C": np.array([[-1.0, 0.5], [0.5, 0.2]]),
    }
    cost[best] = cost[best] + 3.0 * np.eye(dims[best])
    constraints = [({n: np.eye(d) for n, d in dims.items()}, 1.0)]
    return dims, cost, SdpProblem(blocks=list(dims.items()), objective=cost,
                                  constraints=constraints)


@pytest.mark.parametrize("best", ["A", "B", "C"])
def test_interleaved_block_dimensions(best):
    dims, cost, problem = interleaved_problem(best)
    sol = solve(problem)
    w, v = np.linalg.eigh(cost[best])
    assert sol.primal_objective == pytest.approx(w[-1], abs=1e-6)
    assert sol.y[0] == pytest.approx(w[-1], abs=1e-6)
    assert list(sol.x) == list(dims)
    for n, d in dims.items():
        expected = np.outer(v[:, -1], v[:, -1].conj()) if n == best else np.zeros((d, d))
        assert_allclose(sol.x[n], expected, atol=1e-5)
    assert verify_kkt(problem, sol).passed


def test_coefficient_errors_name_the_block():
    _, cost, _ = interleaved_problem("A")
    blocks = [("A", 2), ("B", 3), ("C", 2)]
    skew = {"A": np.eye(2), "B": np.eye(3), "C": np.array([[0.0, 1.0], [0.0, 0.0]])}
    with pytest.raises(ValueError, match="constraint operator for block 'C' is not Hermitian"):
        SdpProblem(blocks=blocks, objective=cost, constraints=[(skew, 1.0)])
    with pytest.raises(ValueError, match="objective operator for block 'B' has shape"):
        SdpProblem(blocks=blocks, objective={"B": np.eye(2)}, constraints=[])
    with pytest.raises(ValueError, match="unknown block 'D'"):
        SdpProblem(blocks=blocks, objective={"D": np.eye(2)}, constraints=[])


def test_rank_deficient_constraints_rejected():
    cons = [({"P1": np.eye(2)}, 1.0), ({"P1": 2.0 * np.eye(2)}, 3.0)]
    with pytest.raises(InfeasibleConstraintsError):
        SdpProblem(blocks=[("P1", 2)], objective={"P1": np.eye(2)}, constraints=cons)
    # a repeated shared operator
    shared = povm_completeness_constraints(2)
    with pytest.raises(InfeasibleConstraintsError, match=r"rank deficient \(4 < 5\)"):
        SdpProblem(blocks=[("P1", 2), ("P2", 2)], objective={},
                   constraints=shared + [shared[1]])


def test_non_hermitian_data_rejected():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        SdpProblem(blocks=[("P1", 2)], objective={"P1": bad},
                   constraints=povm_completeness_constraints(2))
    with pytest.raises(ValueError, match="constraint operator for the blocks of dimension 2 "
                                         "is not Hermitian"):
        SdpProblem(blocks=[("P1", 2), ("P2", 2)], objective={}, constraints=[(bad, 1.0)])


def test_max_iterations_error(monkeypatch):
    _, problem = med3_problem()
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", 2)
    with pytest.raises(MaxIterationsError,
                       match=r"within 2 iterations; last iterate: gap \S+, primal "
                             r"infeasibility \S+, dual infeasibility \S+$"):
        solve(problem)


def test_deterministic_resolves():
    _, problem = med3_problem()
    a = solve(problem)
    b = solve(problem)
    assert a.primal_objective == b.primal_objective
    assert a.iterations == b.iterations
    for n in a.x:
        assert np.array_equal(a.x[n], b.x[n])


def test_iterate_trace_dump():
    _, problem = med3_problem()
    records = solve(problem).iterates
    assert len(records) >= 3
    assert {"iteration", "mu", "gap"} <= set(records[0])
    assert records[-1]["mu"] < records[0]["mu"]
    # the symmetry-reduced attacks carry the records of their reduced solve
    for solution in (attacks.med_attack(dps_ensemble(4)).solution,
                     attacks.optimal_cloner(dps_ensemble(3)).solution):
        assert len(solution.iterates) == solution.iterations


def cloning3_problem():
    ens = dps_ensemble(3)
    return attacks.cloning_problem(ens.states, ens.priors)


def svec_reference(problem):
    """The svec constraint matrix expanded block by block from
    ``problem.constraints``: a shared operator is repeated on every block of
    its dimension, and blocks are grouped by dimension in order of first
    appearance."""
    first: dict[int, int] = {}
    for _, d in problem.blocks:
        first.setdefault(d, len(first))
    order = sorted(problem.blocks, key=lambda block: first[block[1]])
    rows = []
    for coeffs, _ in problem.constraints:
        ops = [coeffs.get(n, np.zeros((d, d))) if isinstance(coeffs, dict)
               else coeffs if np.shape(coeffs) == (d, d) else np.zeros((d, d))
               for n, d in order]
        rows.append(np.concatenate([svec(op) for op in ops]))
    return np.array(rows)


def med4_problem():
    ens = dps_ensemble(4)
    return attacks.med_problem(ens.states, ens.priors)


def mixed_problem():
    """Blocks [A: 2, B: 3, C: 2]: a shared operator on A and C next to a
    per-block row, so the shared one is copied into both blocks."""
    return SdpProblem(blocks=[("A", 2), ("B", 3), ("C", 2)], objective={},
                      constraints=[(np.array([[1.0, 0.5j], [-0.5j, 2.0]]), 1.0),
                                   ({"A": np.eye(2), "B": np.eye(3)}, 1.0)])


@pytest.mark.parametrize("build", [lambda: interleaved_problem("B")[2], cloning3_problem,
                                   med4_problem, mixed_problem],
                         ids=["interleaved", "cloning-n3", "med-n4-shared", "mixed"])
def test_constraint_map_matches_svec_reference(build, rng):
    """A(X) and A*(y) against the svec constraint matrix: the representation
    the solver iterated on before, kept here as the oracle."""
    problem = build()
    groups, m = problem._groups, len(problem.constraints)
    amat = svec_reference(problem)
    x = [hermitian_part(rng.normal(size=(len(g.names), g.d, g.d))
                        + 1j * rng.normal(size=(len(g.names), g.d, g.d))) for g in groups]
    y = rng.normal(size=m)
    ax = sdp._apply(groups, x)
    adj = [np.broadcast_to(a, xg.shape) for a, xg in zip(sdp._adjoint(groups, y), x)]
    assert_allclose(ax, amat @ np.concatenate([svec(xg).ravel() for xg in x]), rtol=0, atol=1e-12)
    assert_allclose(np.concatenate([svec(a).ravel() for a in adj]), amat.T @ y,
                    rtol=0, atol=1e-12)
    # <A(X), y> = sum_b <X_b, A*(y)_b>
    pairing = sum(np.einsum("bkl,blk->", xg, a).real for xg, a in zip(x, adj))
    assert ax @ y == pytest.approx(pairing, abs=1e-12)


def test_shared_operators_stored_once():
    """The 16 completeness operators of the 8-block n=4 MED are stored as
    m * d**2 entries, not m * B * d**2; next to a per-block row a shared
    operator is copied into every block."""
    (group,) = med4_problem()._groups
    assert len(group.names) == 8
    assert group.ops.size == 16 * 4 * 4
    pair, single = mixed_problem()._groups
    assert pair.names == ("A", "C") and pair.ops.shape == (2, 2, 2, 2)
    assert_allclose(pair.ops[0, 1], pair.ops[0, 0], rtol=0, atol=0)
    assert single.ops.shape == (2, 1, 3, 3)


def test_solve_without_constraints():
    """maximize <-I, X> over X >= 0 alone: the optimum is X = 0, value 0."""
    problem = SdpProblem(blocks=[("X", 2)], objective={"X": -np.eye(2)}, constraints=[])
    sol = solve(problem)
    assert sol.y.shape == (0,)
    assert sol.primal_objective == pytest.approx(0.0, abs=1e-7)
    assert_allclose(sol.x["X"], np.zeros((2, 2)), atol=1e-7)
    assert verify_kkt(problem, sol).passed
