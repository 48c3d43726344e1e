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


def med_form(cost):
    """An MED-shaped problem: the (B, d, d) ``cost`` stack as one group under
    the shared completeness rows."""
    ops, rhs = povm_completeness_constraints(cost.shape[-1])
    return SdpProblem([cost], [ops], rhs)


def two_state_problem():
    return med_form(0.5 * np.array([outer(e) for e in np.eye(2)]))


def med3_problem():
    ens = dps_ensemble(3)
    return ens, med_form(0.25 * ens.densities)


def test_completeness_constraints_share_one_read_only_basis():
    """Each call returns the same cached, read-only pair: the (m, 1, d, d)
    float64 stack of the m = d(d+1)/2 operators B_j, an orthonormal basis of
    the real symmetric operators, Tr(B_i B_j) = delta_ij, and the right-hand
    sides r_j, which give sum_j r_j B_j = I."""
    (first, r), (second, s) = povm_completeness_constraints(3), povm_completeness_constraints(3)
    assert first is second and r is s
    for array in (first, r):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 2.0
    for d in range(1, 6):
        stack, rhs = povm_completeness_constraints(d)
        m = d * (d + 1) // 2
        assert stack.shape == (m, 1, d, d) and rhs.shape == (m,)
        assert stack.dtype == np.float64
        ops = stack[:, 0]
        assert_allclose(np.einsum("ikl,jlk->ij", ops, ops), np.eye(m), rtol=0, atol=1e-15)
        assert_allclose(ops, ops.transpose(0, 2, 1), rtol=0, atol=0)
        assert_allclose(np.einsum("j,jkl->kl", rhs, ops), np.eye(d), rtol=0, atol=0)


def test_orthogonal_discrimination_is_perfect():
    sol = solve(two_state_problem())
    assert sol.primal_objective == pytest.approx(1.0, abs=1e-6)
    assert_allclose(sol.x[0], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], atol=1e-5)


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
    bad = [x.copy() for x in sol.x]
    bad[0][0, 0, 0] += 0.1
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
    hand = [0.75 * ens.densities]
    candidate = SdpSolution(x=hand, y=sol.y,
                            primal_objective=0.75, dual_objective=sol.dual_objective,
                            gap=abs(0.75 - sol.dual_objective), iterations=0)
    report = verify_kkt(problem, candidate, tol=1e-6)
    assert report.passed, report.conditions
    assert report.complementary_slackness <= 1e-6


def test_feasible_povm_never_beats_optimum(rng):
    """Complex POVMs included: the real optimum bounds them all."""
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
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)))  # a real orthogonal rotation
    rotated = med_form(0.25 * (u @ ens.densities @ u.T))
    base = solve(problem).primal_objective
    assert solve(rotated).primal_objective == pytest.approx(base, abs=1e-8)


def test_partial_trace_constraint_builder():
    """The dense cloning oracle's d(d+1)/2 rows at d = 3 read the traces
    Tr(B_j Tr_{out,out} J) against the completeness basis B_j and ask for
    Tr(B_j), with the input factor in the middle."""
    problem = full_cloning_problem(dps_ensemble(3))
    (ops,) = problem.ops
    assert ops.shape == (6, 1, 27, 27)
    ops = ops[:, 0]
    # a maximally mixed Choi (identity/9) satisfies Tr_{out,out}(J) = I exactly
    j = np.eye(27) / 9.0
    for op, rhs in zip(ops, problem.rhs):
        assert np.trace(op @ j).real == pytest.approx(rhs, abs=1e-12)
    basis = povm_completeness_constraints(3)[0][:, 0]
    assert_allclose(problem.rhs, [np.trace(b).real for b in basis], rtol=0, atol=0)
    rng = np.random.default_rng(3)
    h = hermitian_part(rng.normal(size=(27, 27)))
    reduced = partial_trace(h, [3, 3, 3], keep=[1])
    assert_allclose([np.trace(op @ h).real for op in ops],
                    [np.trace(b @ reduced).real for b in basis], rtol=0, atol=1e-12)
    e01 = np.zeros((3, 3)); e01[0, 1] = e01[1, 0] = 1 / np.sqrt(2)
    expected = np.kron(np.kron(np.eye(3), e01), np.eye(3))
    assert any(np.allclose(op, expected) for op in ops)


def interleaved_problem(best):
    """Blocks [A: 2, B: 3, C: 2], each its own group, under
    Tr X_A + Tr X_B + Tr X_C = 1: two groups of one dimension with a group
    of another between them.

    The optimum is the largest eigenvalue over all cost blocks, attained by
    the projector onto its eigenvector; ``best`` gets the largest one.
    """
    dims = {"A": 2, "B": 3, "C": 2}
    cost = {
        "A": np.array([[1.0, 1.0], [1.0, 0.0]]),
        "B": np.array([[0.5, 0.2, 0.0], [0.2, -1.0, 0.3], [0.0, 0.3, 0.1]]),
        "C": np.array([[-1.0, 0.5], [0.5, 0.2]]),
    }
    cost[best] = cost[best] + 3.0 * np.eye(dims[best])
    return dims, cost, SdpProblem([c[None] for c in cost.values()],
                                  [np.eye(d)[None, None] for d in dims.values()], [1.0])


@pytest.mark.parametrize("best", ["A", "B", "C"])
def test_interleaved_block_dimensions(best):
    dims, cost, problem = interleaved_problem(best)
    sol = solve(problem)
    w, v = np.linalg.eigh(cost[best])
    assert sol.primal_objective == pytest.approx(w[-1], abs=1e-6)
    assert sol.y[0] == pytest.approx(w[-1], abs=1e-6)
    assert [xg.shape for xg in sol.x] == [(1, d, d) for d in dims.values()]
    for (n, d), xg in zip(dims.items(), sol.x):
        expected = np.outer(v[:, -1], v[:, -1]) if n == best else np.zeros((d, d))
        assert_allclose(xg[0], expected, atol=1e-5)
    assert verify_kkt(problem, sol).passed


def test_coefficient_errors_name_the_block():
    """A malformed problem names the stack at fault, and a non-Hermitian
    operator its index in the stack: (block) of a cost stack, (row, block)
    of a constraint stack."""
    _, _, problem = interleaved_problem("A")
    cost, ops = list(problem.cost), list(problem.ops)
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="constraint stack 2 is not Hermitian at index 0, 0"):
        SdpProblem(cost, ops[:2] + [skew[None, None]], [1.0])
    with pytest.raises(ValueError, match="cost stack 1 is not Hermitian at index 0"):
        SdpProblem([cost[0], np.pad(skew, (0, 1))[None], cost[2]], ops, [1.0])
    with pytest.raises(ValueError, match=r"cost stack 0 has shape \(2, 2\), expected \(B, d, d\)"):
        SdpProblem([np.eye(2)] + cost[1:], ops, [1.0])
    with pytest.raises(ValueError, match=r"constraint stack 1 has shape \(1, 1, 2, 2\), "
                                         r"expected \(1, 1 or 1, 3, 3\)"):
        SdpProblem(cost, [ops[0], ops[0], ops[2]], [1.0])
    with pytest.raises(ValueError, match=r"constraint stack 0 has shape \(1, 1, 2, 2\), "
                                         r"expected \(2, 1 or 1, 2, 2\)"):
        SdpProblem(cost, ops, [1.0, 0.0])
    with pytest.raises(ValueError, match="one cost and one constraint stack per group"):
        SdpProblem(cost, ops[:2], [1.0])
    for rhs in ([], [1.0]):
        with pytest.raises(ValueError, match="^a problem needs at least one group$"):
            SdpProblem([], [], rhs)


def test_verify_kkt_rejects_mismatched_shapes():
    """A pair whose stack count, multiplier count or stack shapes differ
    from the problem's is an error, not a failed certificate."""
    _, problem = med3_problem()
    sol = solve(problem)
    for bad in (dataclasses.replace(sol, x=sol.x + sol.x),
                dataclasses.replace(sol, y=sol.y[:-1])):
        with pytest.raises(ValueError, match="solution shapes do not match the problem"):
            verify_kkt(problem, bad)
    with pytest.raises(ValueError, match="primal stack 0 has wrong shape"):
        verify_kkt(problem, dataclasses.replace(sol, x=[sol.x[0][:3]]))


def test_rank_deficient_constraints_rejected():
    with pytest.raises(InfeasibleConstraintsError):
        SdpProblem([np.eye(2)[None]], [np.array([np.eye(2), 2.0 * np.eye(2)])[:, None]],
                   [1.0, 3.0])
    # a repeated shared operator
    shared, rhs = povm_completeness_constraints(2)
    with pytest.raises(InfeasibleConstraintsError, match=r"rank deficient \(3 < 4\)"):
        SdpProblem([np.zeros((2, 2, 2))], [np.concatenate([shared, shared[1:2]])],
                   [*rhs, rhs[1]])


def test_non_hermitian_data_rejected():
    """A non-Hermitian operator is rejected wherever it sits, and so is a NaN
    entry, which fails the Hermiticity test rather than passing it."""
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="cost stack 0 is not Hermitian at index 0"):
        med_form(bad[None])
    with pytest.raises(ValueError, match="constraint stack 0 is not Hermitian at index 0, 0"):
        SdpProblem([np.zeros((2, 2, 2))], [bad[None, None]], [1.0])
    with pytest.raises(ValueError, match="cost stack 0 is not Hermitian at index 1"):
        med_form(np.array([np.eye(2), np.full((2, 2), np.nan)]))
    with pytest.raises(ValueError, match="constraint stack 0 is not Hermitian at index 0, 0"):
        SdpProblem([np.zeros((2, 2, 2))], [np.diag([1.0, np.nan])[None, None]], [1.0])


def test_max_iterations_error(monkeypatch):
    _, problem = med3_problem()
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", 2)
    with pytest.raises(MaxIterationsError,
                       match=r"within 2 iterations; last iterate: gap \S+, primal "
                             r"infeasibility \S+, dual infeasibility \S+$"):
        solve(problem)


def test_collapsed_step_lengths_name_the_iteration(monkeypatch):
    """A step rule that allows no step stops the solve in iteration 0, with
    that iteration's residuals."""
    _, problem = med3_problem()
    monkeypatch.setattr(sdp, "_max_step", lambda linv, d: 0.0)
    with pytest.raises(NumericalBreakdownError,
                       match=r"^step lengths collapsed in iteration 0; last iterate: gap \S+, "
                             r"primal infeasibility \S+, dual infeasibility \S+$"):
        solve(problem)


def test_stalled_equality_residual_is_infeasible(monkeypatch):
    """Tr X = -1 has no PSD solution: when the iterations run out, the
    equality residual is far from zero, and the solve reports the
    constraints as inconsistent rather than as slow."""
    problem = SdpProblem([np.zeros((1, 2, 2))], [np.eye(2)[None, None]], [-1.0])
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", 5)
    with pytest.raises(InfeasibleConstraintsError,
                       match=r"^equality residual stalled; constraints look inconsistent; "
                             r"last iterate: gap \S+") as info:
        solve(problem)
    assert isinstance(info.value.__cause__, MaxIterationsError)


def test_deterministic_resolves():
    _, problem = med3_problem()
    a = solve(problem)
    b = solve(problem)
    assert a.primal_objective == b.primal_objective
    assert a.iterations == b.iterations
    for xa, xb in zip(a.x, b.x, strict=True):
        assert np.array_equal(xa, xb)


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
    """(A(X), A*(y)) by definition, block by block, from the stacks
    ``problem.ops``, for X and the adjoint as one (B, d, d) stack per group:
    A(X)_j = sum_b Re Tr(A_{j,b} X_b) and A*(y)_b = sum_j y_j A_{j,b}, with an
    (m, 1, d, d) stack acting on every block of its group."""
    ax, adj = np.zeros(len(y)), []
    for ops, xg in zip(problem.ops, x):
        ops = np.broadcast_to(ops, (len(y), *xg.shape))
        for j in range(len(y)):
            ax[j] += sum(np.trace(op @ xb).real for op, xb in zip(ops[j], xg))
        adj.append(np.array([sum(yj * op for yj, op in zip(y, ops[:, b]))
                             for b in range(len(xg))]))
    return ax, adj


def med4_problem():
    ens = dps_ensemble(4)
    return attacks.med_problem(ens)


def mixed_problem():
    """Groups [A, C] of dimension 2 and [B] of dimension 3 under two rows:
    one operator on both A and C, and identities on A and B.  The pair's
    stack holds both rows per block, the first one copied into both blocks;
    B's first row is zero."""
    shared = np.array([[1.0, 0.5], [0.5, 2.0]])
    pair = np.array([[shared, shared], [np.eye(2), np.zeros((2, 2))]])
    single = np.array([np.zeros((3, 3)), np.eye(3)])[:, None]
    return SdpProblem([np.zeros((2, 2, 2)), np.zeros((1, 3, 3))], [pair, single], [1.0, 1.0])


@pytest.mark.parametrize("build", [lambda: interleaved_problem("B")[2], cloning3_problem,
                                   med4_problem, mixed_problem],
                         ids=["interleaved", "cloning-n3", "med-n4-shared", "mixed"])
def test_constraint_map_matches_svec_reference(build, rng):
    """A(X) and A*(y) on the flattened stacks against their definitions
    by explicit traces and sums over ``problem.ops``."""
    problem = build()
    groups, m = problem._groups, len(problem.rhs)
    x = [hermitian_part(rng.normal(size=g.cost.shape)) for g in groups]
    y = rng.normal(size=m)
    ax = sdp._apply(groups, x)
    adj = [np.broadcast_to(a, xg.shape) for a, xg in zip(sdp._adjoint(groups, y), x)]
    ax_ref, adj_ref = trace_reference(problem, x, y)
    assert_allclose(ax, ax_ref, rtol=0, atol=1e-12)
    for a, ref in zip(adj, adj_ref, strict=True):
        assert_allclose(a, ref, rtol=0, atol=1e-12)
    # <A(X), y> = sum_b <X_b, A*(y)_b>
    pairing = sum(np.einsum("bkl,blk->", xg, a).real for xg, a in zip(x, adj))
    assert ax @ y == pytest.approx(pairing, abs=1e-12)


def random_scalings(groups, rng):
    """One random real symmetric positive definite (B, d, d) stack per group."""
    out = []
    for g in groups:
        a = rng.normal(size=g.cost.shape)
        out.append(a @ a.transpose(0, 2, 1) / g.d + np.eye(g.d))
    return out


@pytest.mark.parametrize("seed", [2 ** 20, 1, 2000])
@pytest.mark.parametrize("build", [lambda: interleaved_problem("B")[2], cloning3_problem,
                                   med4_problem, mixed_problem],
                         ids=["interleaved", "cloning-n3", "med-n4-shared", "mixed"])
def test_schur_matches_per_column_oracle(build, seed):
    """The loop-free Schur complement against its per-column form, column j =
    A(W A_j W), for three independent draws of the scalings W per build."""
    problem = build()
    groups, m = problem._groups, len(problem.rhs)
    w = random_scalings(groups, np.random.default_rng(seed))
    oracle = np.column_stack([sdp._apply(groups, [wg @ g.ops[j] @ wg
                                                  for g, wg in zip(groups, w)])
                              for j in range(m)])
    assert_allclose(sdp._schur(groups, w, m), oracle, rtol=0, atol=1e-12)


def test_shared_operators_stored_once():
    """The 10 real symmetric completeness operators of the 8-block n=4 MED
    are stored as m * d**2 entries, not m * B * d**2, and the solver reads
    them as shared; a stack of one block per row is not shared."""
    (group,) = med4_problem()._groups
    assert len(group.cost) == 8 and group.shared
    assert group.ops.size == 10 * 4 * 4
    pair, single = mixed_problem()._groups
    assert pair.ops.shape == (2, 2, 2, 2) and not pair.shared
    assert single.ops.shape == (2, 1, 3, 3) and not single.shared


def test_problem_copies_the_given_stacks():
    """The fields are the one copy of the problem: read-only float64 stacks
    and right-hand sides, shared with none of the builder's arrays, and the
    very arrays the solver reads.  So a later change to the builder's arrays
    reaches neither the fields nor the solution.  Data with a nonzero
    imaginary part are rejected, a Hermitian cost, a skew constraint and a
    right-hand side alike."""
    ens = dps_ensemble(3)
    ops, rhs = (a.copy() for a in povm_completeness_constraints(3))
    cost = 0.25 * ens.densities
    problem = SdpProblem([cost], [ops], rhs)
    assert isinstance(problem.cost, tuple) and isinstance(problem.ops, tuple)
    (group,) = problem._groups
    assert group.cost is problem.cost[0] and group.ops is problem.ops[0]
    for kept, given in ((problem.cost[0], cost), (problem.ops[0], ops), (problem.rhs, rhs)):
        assert kept.dtype == np.float64 and not kept.flags.writeable
        assert np.array_equal(kept, given) and not np.shares_memory(kept, given)
    before = solve(problem)
    for given in (cost, ops, rhs):
        given[...] = 0.0
    assert np.array_equal(problem.cost[0], 0.25 * ens.densities)
    assert np.array_equal(problem.rhs, povm_completeness_constraints(3)[1])
    after = solve(problem)
    assert after.primal_objective == before.primal_objective
    assert np.array_equal(after.x[0], before.x[0]) and np.array_equal(after.y, before.y)
    assert verify_kkt(problem, after).passed
    tilted = cost.astype(complex)
    tilted[1, 0, 1] += 1e-3j
    tilted[1, 1, 0] -= 1e-3j
    with pytest.raises(ValueError, match="^cost stack 0 must be real: DPS phases are 0 or pi$"):
        med_form(tilted)
    ops, rhs = povm_completeness_constraints(2)
    with pytest.raises(ValueError, match="^constraint stack 0 must be real"):
        SdpProblem([np.zeros((1, 2, 2))], [ops + 1e-3j * ops[::-1]], rhs)
    with pytest.raises(ValueError, match="^right-hand sides must be real"):
        SdpProblem([np.zeros((1, 2, 2))], [ops], rhs + 1e-3j)


def test_problem_is_frozen():
    """No field can be assigned after construction, and the stacks are
    read-only, so the candidate, the solver and the certificate all read
    the problem as it was checked.  Two problems compare by identity: an
    equal copy is another problem, and the comparison raises nothing."""
    _, problem = med3_problem()
    for name in ("cost", "ops", "rhs"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(problem, name, getattr(problem, name))
    twin = dataclasses.replace(problem)
    assert problem == problem and problem != twin and not problem == twin
    assert len({problem, twin, problem}) == 2


def test_solve_without_constraints():
    """maximize <-I, X> over X >= 0 alone: the optimum is X = 0, value 0."""
    problem = SdpProblem([-np.eye(2)[None]], [np.zeros((0, 1, 2, 2))], [])
    sol = solve(problem)
    assert sol.y.shape == (0,)
    assert sol.primal_objective == pytest.approx(0.0, abs=1e-7)
    assert_allclose(sol.x[0], np.zeros((1, 2, 2)), atol=1e-7)
    assert verify_kkt(problem, sol).passed


def test_verify_kkt_rejects_a_complex_primal():
    """The certificate runs on float64 copies: a primal stack with a nonzero
    imaginary part is an error, named by its index, a complex128 stack with
    a zero one is not."""
    problem = med_form(np.array([np.diag([0.5, 0.0]), np.diag([0.0, 0.5])]))
    sol = solve(problem)
    assert verify_kkt(problem, dataclasses.replace(sol, x=[sol.x[0].astype(complex)])).passed
    twisted = [x + 0.5j * np.array([[0.0, 1.0], [-1.0, 0.0]]) for x in sol.x]
    with pytest.raises(ValueError, match="^primal stack 0 must be real: DPS phases are 0 or pi$"):
        verify_kkt(problem, dataclasses.replace(sol, x=twisted))


def random_pd(rng, shape):
    """A random real symmetric positive definite stack of the given shape."""
    a = rng.normal(size=shape)
    return a @ a.transpose(0, 2, 1) / shape[-1] + 0.1 * np.eye(shape[-1])


def test_nt_scaling_factors(rng):
    """W Z W = X, Z^-1 Z = I, and L^-1 X L^-T = I, L^-1 Z L^-T = I for the
    step lengths' inverse factors, from the two eigendecompositions, all
    float64."""
    x, z = random_pd(rng, (5, 4, 4)), random_pd(rng, (5, 4, 4))
    w, zinv, lx, lz = sdp._nt_scaling(x, z)
    assert {a.dtype for a in (w, zinv, lx, lz)} == {np.dtype(np.float64)}
    eye = np.broadcast_to(np.eye(4), x.shape)
    assert_allclose(w @ z @ w, x, rtol=0, atol=1e-12)
    assert_allclose(w, w.transpose(0, 2, 1), rtol=0, atol=1e-12)
    assert_allclose(zinv @ z, eye, rtol=0, atol=1e-12)
    for linv, a in ((lx, x), (lz, z)):
        assert_allclose(linv @ a @ linv.transpose(0, 2, 1), eye, rtol=0, atol=1e-12)


@pytest.mark.parametrize("bad", [np.array([[1.0, 2.0], [2.0, 1.0]]),  # eigenvalues -1, 3
                                 np.diag([1.0, 0.0])], ids=["indefinite", "singular"])
def test_nt_scaling_rejects_iterates_outside_the_cone(bad):
    """The NT scaling's two eigendecompositions are the solver's only cone
    checks: a block of Z or X that is not positive definite raises."""
    eye = np.tile(np.eye(2), (3, 1, 1))
    off = eye.copy()
    off[1] = bad
    with pytest.raises(NumericalBreakdownError, match="dual iterate left the cone"):
        sdp._nt_scaling(eye, off)
    with pytest.raises(NumericalBreakdownError, match="primal iterate left the cone"):
        sdp._nt_scaling(off, eye)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_right_hand_side_rejected(value):
    """A right-hand side that is NaN or infinite is rejected where the
    problem is built, not left for the solver to stumble on."""
    problem = attacks.med_problem(dps_ensemble(3))
    rhs = np.array(problem.rhs)
    rhs[0] = value
    with pytest.raises(ValueError, match="right-hand sides must be finite"):
        dataclasses.replace(problem, rhs=rhs)


@pytest.mark.parametrize("routine", ["eigh", "eigvalsh"])
def test_lapack_failure_is_a_named_solver_error(monkeypatch, routine):
    """A LAPACK failure in the NT scaling (``eigh``) or a step length
    (``eigvalsh``) is a NumericalBreakdownError, so a certified attack
    raises an SdpError that names the attack and the last residuals."""
    ens = dps_ensemble(3)
    bent = ens.states.copy()
    bent[1, 0] += 0.3  # far off the sign orbit: MED solves the full problem
    bent[1] /= np.linalg.norm(bent[1])
    bent_ens = dataclasses.replace(ens, states=bent)

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, routine, failing)
    with pytest.raises(sdp.SdpError, match=r"^med: LAPACK failed in iteration 0 \(Eigenvalues "
                                           r"did not converge\); last iterate: gap \S+, "
                                           r"primal infeasibility \S+, dual infeasibility \S+$"
                       ) as info:
        attacks.certified("med", attacks.med_attack, bent_ens)
    assert isinstance(info.value, NumericalBreakdownError)


def test_non_finite_iterate_stops_the_solve(monkeypatch):
    """``eigh`` need not raise on NaN input.  With every call after the
    first returning NaN, the NT scaling's primal cone check fails in
    iteration 0, and a certified attack raises an SdpError naming it, not a
    MaxIterationsError after 200 NaN iterations."""
    ens = dps_ensemble(3)
    bent = ens.states.copy()
    bent[1, 0] += 0.3  # far off the sign orbit: MED solves the full problem
    bent[1] /= np.linalg.norm(bent[1])
    bent_ens = dataclasses.replace(ens, states=bent)
    eigh, calls = np.linalg.eigh, []

    def nan_after_first(a, *args, **kwargs):
        calls.append(1)
        w, v = eigh(a, *args, **kwargs)
        return (w, v) if len(calls) == 1 else (np.full_like(w, np.nan), np.full_like(v, np.nan))

    monkeypatch.setattr(np.linalg, "eigh", nan_after_first)
    with pytest.raises(sdp.SdpError, match="^med: primal iterate left the cone$") as info:
        attacks.certified("med", attacks.med_attack, bent_ens)
    assert isinstance(info.value, NumericalBreakdownError)
    assert len(calls) == 2  # both eigendecompositions of iteration 0, no more


def test_non_finite_residual_names_the_iteration(monkeypatch):
    """A NaN search direction, taken in full by a step rule blind to it,
    stops the solve at the top of the next iteration, which names that
    iteration and the last finite residuals."""
    _, problem = med3_problem()
    solve_linear, max_step, calls = np.linalg.solve, sdp._max_step, []

    def nan_in_iteration_1(a, b):
        calls.append(1)  # two triangular solves per iteration
        x = solve_linear(a, b)
        return np.full_like(x, np.nan) if len(calls) == 3 else x

    monkeypatch.setattr(np.linalg, "solve", nan_in_iteration_1)
    monkeypatch.setattr(sdp, "_max_step", lambda linv, d: max_step(linv, d)
                        if np.all(np.isfinite(d)) else np.inf)
    with pytest.raises(NumericalBreakdownError,
                       match=r"^non-finite iterate in iteration 2; last iterate: gap \d\S+, "
                             r"primal infeasibility \d\S+, dual infeasibility \d\S+$"):
        solve(problem)


def test_nan_step_length_stops_the_solve(monkeypatch):
    """A NaN eigenvalue in the step rule stops the solve where it appears:
    ``min([1.0, nan])`` would otherwise take a full step.  The error names
    the step, iteration 0 and the residuals of that iteration."""
    ens = dps_ensemble(3)
    bent = ens.states.copy()
    bent[1, 0] += 0.3  # far off the sign orbit: MED solves the full problem
    bent[1] /= np.linalg.norm(bent[1])
    bent_ens = dataclasses.replace(ens, states=bent)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.full(a.shape[:-1], np.nan))
    with pytest.raises(sdp.SdpError, match=r"^med: NaN step length in iteration 0; last "
                                           r"iterate: gap \d\S+, primal infeasibility \d\S+, "
                                           r"dual infeasibility \d\S+$") as info:
        attacks.certified("med", attacks.med_attack, bent_ens)
    assert isinstance(info.value, NumericalBreakdownError)
