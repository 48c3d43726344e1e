import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dpsqkd import attacks, sdp
from dpsqkd.dps import dps_ensemble
from dpsqkd.linalg import hermitian_part, outer, partial_trace
from dpsqkd.sdp import (InfeasibleConstraintsError, MaxIterationsError,
                        NumericalBreakdownError, SdpProblem, SdpSolution,
                        povm_completeness_constraints, solve, verify_kkt)
from oracles import full_cloning_problem


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
    objective = {names[i]: 0.25 * ens.densities[i] for i in range(4)}
    return ens, SdpProblem(blocks=[(n, 3) for n in names], objective=objective,
                           constraints=povm_completeness_constraints(3))


def test_completeness_constraints_share_one_read_only_basis():
    """Each call returns a new list over the same cached, read-only operators
    B_j, an orthonormal Hermitian basis, Tr(B_i B_j) = delta_ij, whose
    right-hand sides r_j give sum_j r_j B_j = I; the real rows are the real
    symmetric prefix, which spans the identity too."""
    first, second = povm_completeness_constraints(3), povm_completeness_constraints(3)
    assert first is not second
    for (a, r), (b, s) in zip(first, second):
        assert np.shares_memory(a, b) and not a.flags.writeable and r == s
    with pytest.raises(ValueError, match="read-only"):
        first[0][0][0, 0] = 2.0
    for d in range(1, 6):
        for real in (False, True):
            cons = povm_completeness_constraints(d, real=real)
            ops = np.array([op for op, _ in cons])
            rhs = np.array([r for _, r in cons])
            assert len(cons) == (d * (d + 1) // 2 if real else d * d)
            assert_allclose(np.einsum("ikl,jlk->ij", ops, ops), np.eye(len(cons)),
                            rtol=0, atol=1e-15)
            assert_allclose(ops, ops.conj().transpose(0, 2, 1), rtol=0, atol=0)
            assert_allclose(np.einsum("j,jkl->kl", rhs, ops), np.eye(d), rtol=0, atol=0)
            assert np.any(ops.imag) == (not real and d > 1)


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
    perturbed = SdpSolution(x=bad, y=sol.y,
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
    hand = {f"P{i + 1}": 0.75 * ens.densities[i] for i in range(4)}
    candidate = SdpSolution(x=hand, y=sol.y,
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
        value = sum(0.25 * np.trace(ens.densities[i] @ povm[i]).real for i in range(4))
        assert value <= opt + 1e-7


def test_unitary_conjugation_invariance():
    ens, problem = med3_problem()
    rng = np.random.default_rng(42)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    u, _ = np.linalg.qr(a)
    names = [f"P{i + 1}" for i in range(4)]
    objective = {names[i]: 0.25 * (u @ ens.densities[i] @ u.conj().T) for i in range(4)}
    rotated = SdpProblem(blocks=[(n, 3) for n in names], objective=objective,
                         constraints=povm_completeness_constraints(3))
    base = solve(problem).primal_objective
    assert solve(rotated).primal_objective == pytest.approx(base, abs=1e-8)


def test_partial_trace_constraint_builder():
    """The dense cloning oracle's d**2 rows at d = 3 read the traces
    Tr(B_j Tr_{out,out} J) against the completeness basis B_j and ask for
    Tr(B_j), with the input factor in the middle."""
    cons = full_cloning_problem(dps_ensemble(3)).constraints
    assert len(cons) == 9
    # a maximally mixed Choi (identity/9) satisfies Tr_{out,out}(J) = I exactly
    j = np.eye(27) / 9.0
    for coeffs, rhs in cons:
        assert np.trace(coeffs["J"] @ j).real == pytest.approx(rhs, abs=1e-12)
    basis = [op for op, _ in povm_completeness_constraints(3)]
    assert_allclose([rhs for _, rhs in cons], [np.trace(b).real for b in basis], rtol=0, atol=0)
    rng = np.random.default_rng(3)
    h = hermitian_part(rng.normal(size=(27, 27)) + 1j * rng.normal(size=(27, 27)))
    reduced = partial_trace(h, [3, 3, 3], keep=[1])
    assert_allclose([np.trace(c["J"] @ h).real for c, _ in cons],
                    [np.trace(b @ reduced).real for b in basis], rtol=0, atol=1e-12)
    e01 = np.zeros((3, 3)); e01[0, 1] = e01[1, 0] = 1 / np.sqrt(2)
    expected = np.kron(np.kron(np.eye(3), e01), np.eye(3))
    assert any(np.allclose(c["J"], expected) for c, _ in cons)


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
    with pytest.raises(ValueError, match="duplicate block names"):
        SdpProblem(blocks=blocks + [("A", 2)], objective={}, constraints=[])
    with pytest.raises(ValueError, match=r"shared constraint operator of shape \(4, 4\) "
                                         "matches no block dimension"):
        SdpProblem(blocks=blocks, objective={}, constraints=[(np.eye(4), 1.0)])


def test_verify_kkt_rejects_mismatched_shapes():
    """A pair whose block names, multiplier count or block shapes differ from
    the problem's is an error, not a failed certificate."""
    _, problem = med3_problem()
    sol = solve(problem)
    for bad in (dataclasses.replace(sol, x={n: x for n, x in sol.x.items() if n != "P4"}),
                dataclasses.replace(sol, y=sol.y[:-1])):
        with pytest.raises(ValueError, match="solution shapes do not match the problem"):
            verify_kkt(problem, bad)
    with pytest.raises(ValueError, match="primal block 'P2' has wrong shape"):
        verify_kkt(problem, dataclasses.replace(sol, x={**sol.x, "P2": np.eye(2)}))


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
    # every record but the converged last one carries the step taken from it
    step_keys = {"alpha_p", "alpha_d", "sigma", "scaling_s", "schur_s", "step_s"}
    for record in records[:-1]:
        assert step_keys <= set(record)
        assert 0.0 < record["alpha_p"] <= 1.0 and 0.0 < record["alpha_d"] <= 1.0
        assert 0.05 <= record["sigma"] <= 0.8
        assert min(record[k] for k in ("scaling_s", "schur_s", "step_s")) >= 0.0
    assert not step_keys & set(records[-1])
    # the symmetry-reduced attacks carry the records of their reduced solve
    for solution in (attacks.med_attack(dps_ensemble(4)).solution,
                     attacks.optimal_cloner(dps_ensemble(3)).solution):
        assert len(solution.iterates) == solution.iterations


def cloning3_problem():
    return full_cloning_problem(dps_ensemble(3))


def trace_reference(problem, x, y):
    """(A(X), A*(y)) by definition from ``problem.constraints``, for X and the
    adjoint given as {block name: operator}: A(X)_j = sum_b Re Tr(A_{j,b} X_b)
    and A*(y)_b = sum_j y_j A_{j,b}, with a shared operator acting on every
    block of its dimension."""
    def operator(coeffs, name, d):
        if isinstance(coeffs, dict):
            return np.asarray(coeffs.get(name, np.zeros((d, d))))
        return coeffs if np.shape(coeffs) == (d, d) else np.zeros((d, d))

    ax = [sum(np.trace(operator(coeffs, name, d) @ x[name]).real for name, d in problem.blocks)
          for coeffs, _ in problem.constraints]
    adj = {name: sum((yj * operator(coeffs, name, d)
                      for yj, (coeffs, _) in zip(y, problem.constraints)), np.zeros((d, d)))
           for name, d in problem.blocks}
    return np.array(ax), adj


def med4_problem():
    ens = dps_ensemble(4)
    return attacks.med_problem(ens)


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
    """A(X) and A*(y) on the real view of the stacks against their definitions
    by explicit traces and sums over ``problem.constraints``."""
    problem = build()
    groups, m = problem._groups, len(problem.constraints)
    # real data take real symmetric iterates, as the solver holds them
    x = [hermitian_part(rng.normal(size=(len(g.names), g.d, g.d))
                        + (0 if g.real else 1j) * rng.normal(size=(len(g.names), g.d, g.d)))
         for g in groups]
    y = rng.normal(size=m)
    ax = sdp._apply(groups, x)
    adj = [np.broadcast_to(a, xg.shape) for a, xg in zip(sdp._adjoint(groups, y), x)]
    ax_ref, adj_ref = trace_reference(problem, problem._named(x), y)
    assert_allclose(ax, ax_ref, rtol=0, atol=1e-12)
    for name, a in problem._named(adj).items():
        assert_allclose(a, adj_ref[name], rtol=0, atol=1e-12)
    # <A(X), y> = sum_b <X_b, A*(y)_b>
    pairing = sum(np.einsum("bkl,blk->", xg, a).real for xg, a in zip(x, adj))
    assert ax @ y == pytest.approx(pairing, abs=1e-12)


def random_scalings(groups, rng):
    """One random positive definite (B, d, d) stack per group, real symmetric
    on a group of real data."""
    out = []
    for g in groups:
        a = (rng.normal(size=(len(g.names), g.d, g.d))
             + (0 if g.real else 1j) * rng.normal(size=(len(g.names), g.d, g.d)))
        out.append(a @ a.conj().transpose(0, 2, 1) / g.d + np.eye(g.d))
    return out


@pytest.mark.parametrize("seed", [2 ** 20, 1, 2000])
@pytest.mark.parametrize("build", [lambda: interleaved_problem("B")[2], cloning3_problem,
                                   med4_problem, mixed_problem],
                         ids=["interleaved", "cloning-n3", "med-n4-shared", "mixed"])
def test_schur_matches_per_column_oracle(build, seed):
    """The loop-free Schur complement against its per-column form, column j =
    A(W A_j W), for three independent draws of the scalings W per build."""
    problem = build()
    groups, m = problem._groups, len(problem.constraints)
    w = random_scalings(groups, np.random.default_rng(seed))
    oracle = np.column_stack([sdp._apply(groups, [wg @ g.ops[j] @ wg
                                                  for g, wg in zip(groups, w)])
                              for j in range(m)])
    assert_allclose(sdp._schur(groups, w, m), oracle, rtol=0, atol=1e-12)


def test_shared_operators_stored_once():
    """The 10 real symmetric completeness operators of the 8-block n=4 MED
    are stored as m * d**2 entries, not m * B * d**2; next to a per-block row
    a shared operator is copied into every block."""
    (group,) = med4_problem()._groups
    assert len(group.names) == 8
    assert group.ops.size == 10 * 4 * 4
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


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("source", ["dps", "unitary-clones"])
def test_real_optimum_certifies_complex_embedding(n, source, unitary_attack_at):
    """Real MED data solved in real arithmetic, on the n(n+1)/2 real symmetric
    completeness rows, against the complex embedding with all n**2 completeness rows.
    The optima agree, the real pair with zero imaginary multipliers passes
    the complex certificate, and Re X of the complex optimum with its real
    multipliers passes the real one."""
    real = (unitary_attack_at(n).med_after.problem if source == "unitary-clones"
            else attacks.med_problem(dps_ensemble(n)))
    embedded = SdpProblem(blocks=real.blocks, objective=real.objective,
                          constraints=povm_completeness_constraints(n))
    assert [g.real for g in real._groups] == [True]
    assert [g.real for g in embedded._groups] == [False]
    m = n * (n + 1) // 2
    assert len(real.constraints) == m and len(embedded.constraints) == n * n
    ours, theirs = solve(real), solve(embedded)
    assert ours.primal_objective == pytest.approx(theirs.primal_objective, abs=1e-9)
    assert ours.dual_objective == pytest.approx(theirs.dual_objective, abs=1e-9)
    padded = dataclasses.replace(ours, y=np.concatenate([ours.y, np.zeros(n * n - m)]))
    report = verify_kkt(embedded, padded)
    assert report.passed, report.conditions
    report = verify_kkt(real, dataclasses.replace(theirs, y=theirs.y[:m]))
    assert report.passed, report.conditions


def test_verify_kkt_bounds_the_imaginary_part_on_real_data():
    """On real data Im X enters the primal eigenvalue as a Weyl bound: an
    imaginary part that makes X indefinite fails the certificate, although
    Re X alone would pass."""
    problem = SdpProblem(blocks=[("P1", 2), ("P2", 2)],
                         objective={"P1": np.diag([0.5, 0.0]), "P2": np.diag([0.0, 0.5])},
                         constraints=povm_completeness_constraints(2, real=True))
    sol = solve(problem)
    report = verify_kkt(problem, sol)
    assert report.passed and report.primal_min_eigenvalue == pytest.approx(0.0, abs=1e-7)
    twisted = {n: x + 0.5j * np.array([[0.0, 1.0], [-1.0, 0.0]]) for n, x in sol.x.items()}
    report = verify_kkt(problem, dataclasses.replace(sol, x=twisted))
    assert not report.conditions["primal_psd"]
    assert report.primal_min_eigenvalue <= -0.5 * np.sqrt(2) + 1e-6
    assert report.conditions["primal_equalities"] and report.conditions["duality_gap"]


def random_pd(rng, shape, dtype):
    """A random positive definite stack of the given shape and dtype."""
    a = rng.normal(size=shape) + (1j * rng.normal(size=shape) if dtype is complex else 0)
    return a @ a.conj().transpose(0, 2, 1) / shape[-1] + 0.1 * np.eye(shape[-1])


@pytest.mark.parametrize("dtype", [float, complex])
def test_nt_scaling_factors(dtype, rng):
    """W Z W = X, Z^-1 Z = I, and L^-1 X L^-H = I, L^-1 Z L^-H = I for the
    step lengths' inverse factors, from the two eigendecompositions, in
    the iterates' dtype."""
    x, z = random_pd(rng, (5, 4, 4), dtype), random_pd(rng, (5, 4, 4), dtype)
    w, zinv, lx, lz = sdp._nt_scaling(x, z)
    assert {a.dtype for a in (w, zinv, lx, lz)} == {np.dtype(dtype)}
    eye = np.broadcast_to(np.eye(4), x.shape)
    assert_allclose(w @ z @ w, x, rtol=0, atol=1e-12)
    assert_allclose(w, w.conj().transpose(0, 2, 1), rtol=0, atol=1e-12)
    assert_allclose(zinv @ z, eye, rtol=0, atol=1e-12)
    for linv, a in ((lx, x), (lz, z)):
        assert_allclose(linv @ a @ linv.conj().transpose(0, 2, 1), eye, rtol=0, atol=1e-12)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("bad", [np.array([[1.0, 2.0], [2.0, 1.0]]),  # eigenvalues -1, 3
                                 np.diag([1.0, 0.0])], ids=["indefinite", "singular"])
def test_nt_scaling_rejects_iterates_outside_the_cone(dtype, bad):
    """The NT scaling's two eigendecompositions are the solver's only cone
    checks: a block of Z or X that is not positive definite raises."""
    eye = np.tile(np.eye(2, dtype=dtype), (3, 1, 1))
    off = eye.copy()
    off[1] = bad * (np.array([[1, 1j], [-1j, 1]]) if dtype is complex else 1)
    with pytest.raises(NumericalBreakdownError, match="dual iterate left the cone"):
        sdp._nt_scaling(eye, off)
    with pytest.raises(NumericalBreakdownError, match="primal iterate left the cone"):
        sdp._nt_scaling(off, eye)
