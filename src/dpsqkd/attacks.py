"""Explicit individual attacks on DPS QKD and their figures of merit.

Four eavesdropping strategies are modelled:

* minimum-error discrimination (MED) of the signal ensemble, solved as a
  semidefinite program over POVM elements;
* the optimal two-clone map, solved as a semidefinite program over the
  Choi operator of the cloning channel;
* a symmetric unitary cloning machine with a single cloning coefficient,
  whose optimum is the top eigenvector of a 2x2 quadratic form;
* the intercept-resend baseline with a receiver-identical measurement.

Every SDP is assembled through the named constraint builders of
:mod:`dpsqkd.sdp`; no attack code touches raw svec index arithmetic.  An
ensemble that is covariant under the sign group of the DPS states (see
:func:`_sign_covariant`) is solved on a symmetry-reduced problem: MED on one
n x n seed block, the optimal cloner on the character blocks of its Choi
operator.  Either way the optimum is lifted back and certified on the full
problem, so every result describes the full SDP.  Each cloning attack is one
certified :class:`CloningAttack`, read by the ``clone`` report and by its
key-rate profile.  :data:`ATTACK_PROFILES` builds the per-intercept errors and
collision probabilities that feed the shrinking factors in :mod:`dpsqkd.keyrate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence, TypeVar

import numpy as np

from . import sdp
from .dps import MAX_PULSES, DpsEnsemble, ber_of_state, dps_ensemble
from .keyrate import AttackProfile
from .linalg import dagger, eig_hermitian, hermitian_part, outer, partial_trace

_POVM_SUM_ATOL = 1e-8
_POVM_PSD_ATOL = 1e-9


# ---------------------------------------------------------------------------
# minimum error discrimination
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Povm:
    """A positive operator-valued measure: PSD elements that sum to identity."""

    elements: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        d = self.elements[0].shape[0]
        if any(el.shape != (d, d) for el in self.elements):
            raise ValueError("POVM elements must share one dimension")
        stack = np.array(self.elements, dtype=complex)
        if float(np.min(np.linalg.eigvalsh(hermitian_part(stack)))) < -_POVM_PSD_ATOL:
            raise ValueError("POVM element is not positive semidefinite")
        if float(np.max(np.abs(stack.sum(axis=0) - np.eye(d)))) > _POVM_SUM_ATOL:
            raise ValueError("POVM elements do not sum to the identity")


@dataclass
class MedResult:
    povm: Povm
    confusion: np.ndarray  # confusion[i, j] = P(outcome j | state i)
    p_success: float
    collision_probability: float
    problem: sdp.SdpProblem
    solution: sdp.SdpSolution
    kkt: sdp.KktReport


def _as_densities(states: Sequence[np.ndarray]) -> list[np.ndarray]:
    out = []
    for s in states:
        s = np.asarray(s, dtype=complex)
        out.append(outer(s) if s.ndim == 1 else s)
    return out


def _block_names(count: int) -> list[str]:
    return [f"P{i + 1}" for i in range(count)]


def med_problem(states: Sequence[np.ndarray], priors: Sequence[float]) -> sdp.SdpProblem:
    """SDP for minimum-error discrimination: maximise sum_i p(i) <rho_i, P_i>
    over POVMs {P_i}."""
    rhos = _as_densities(states)
    d = rhos[0].shape[0]
    names = _block_names(len(rhos))
    objective = {n: priors[i] * rhos[i] for i, n in enumerate(names)}
    constraints = sdp.povm_completeness_constraints(d)
    return sdp.SdpProblem(blocks=[(n, d) for n in names], objective=objective,
                          constraints=constraints)


def med_attack(ensemble: DpsEnsemble | Sequence[np.ndarray],
               priors: Sequence[float] | None = None,
               bit_map: Sequence[Sequence[int]] | None = None) -> MedResult:
    """Optimal minimum-error discrimination of an ensemble.

    Accepts a :class:`DpsEnsemble` or an explicit list of states (kets or
    density operators) with priors.  A sign-covariant ensemble (see
    :func:`_sign_covariant`), such as a DPS ensemble or the clones of the
    optimal cloner, is solved on one n x n seed block instead of 2**(n-1)
    blocks (see :func:`_covariant_med_solution`); any other ensemble runs
    the general solve.  Either way the optimum is certified on the full
    problem (:func:`med_problem`) through the KKT conditions before the
    result is returned, so ``problem``, ``solution`` and ``kkt`` describe
    the full SDP.
    """
    if isinstance(ensemble, DpsEnsemble):
        states: Sequence[np.ndarray] = ensemble.states
        priors = ensemble.priors
        bit_map = ensemble.bit_map
    else:
        states = ensemble
        if priors is None:
            raise ValueError("explicit state lists need explicit priors")
    if abs(sum(priors) - 1.0) > 1e-9:
        raise ValueError("priors must sum to 1")

    rhos = _as_densities(states)
    problem = med_problem(rhos, priors)
    if _sign_covariant(rhos, priors):
        solution = _covariant_med_solution(rhos, priors)
    else:
        solution = sdp.solve(problem)
    kkt = sdp.verify_kkt(problem, solution, tol=1e-6)
    names = _block_names(len(rhos))
    elements = _project_psd(np.array([solution.x[n] for n in names]))
    povm = Povm(elements=tuple(elements))
    confusion = np.einsum("ikl,jlk->ij", np.array(rhos), elements).real
    p_success = float(np.asarray(priors, dtype=float) @ np.diag(confusion))
    p_co = (collision_probability(confusion, priors, bit_map)
            if bit_map is not None else math.nan)
    return MedResult(povm=povm, confusion=confusion, p_success=p_success,
                     collision_probability=p_co, problem=problem,
                     solution=solution, kkt=kkt)


_COVARIANCE_TOL = 1e-12


@lru_cache(maxsize=None)
def _sign_patterns(d: int) -> np.ndarray:
    """(2**(d-1), d) array of exact +-1 signs: row g is the diagonal of the
    sign matrix U_g that maps |+...+> to state g of ``dps_ensemble(d)``.

    Shared and read-only: every symmetry-reduced solve and every route
    check reads it.
    """
    signs = np.sign(np.array(dps_ensemble(d).states).real)
    signs.flags.writeable = False
    return signs


def _sign_covariant(rhos: Sequence[np.ndarray], priors: Sequence[float]) -> bool:
    """Whether an ensemble is covariant under the sign group of ``dps_ensemble(d)``.

    True for 2**(d-1) states on C^d with uniform priors and
    rho_g = U_g rho_0 U_g^dagger to _COVARIANCE_TOL of the largest entry,
    in the order of ``dps_ensemble(d)``.  The DPS states and the clones of
    the optimal cloner qualify; the clones of the unitary cloner, whose
    basis is aligned with state 0, and skewed priors do not.
    """
    count, d = len(rhos), rhos[0].shape[0]
    if not 3 <= d <= MAX_PULSES or count != 2 ** (d - 1):
        return False
    if np.max(np.abs(np.asarray(priors, dtype=float) - 1.0 / count)) > _COVARIANCE_TOL:
        return False
    stack = np.array(rhos)
    signs = _sign_patterns(d)
    moved = signs[:, :, None] * stack[0] * signs[:, None, :]
    return bool(np.max(np.abs(stack - moved)) <= _COVARIANCE_TOL * np.max(np.abs(stack)))


def _covariant_med_solution(rhos: Sequence[np.ndarray], priors: Sequence[float]) -> sdp.SdpSolution:
    """Solve the MED SDP of a sign-covariant ensemble on one seed block and
    lift the optimum onto the full problem of :func:`med_problem`.

    With the sign matrices U_g = diag(s_g) of :func:`_sign_patterns`, an
    optimal POVM can be taken covariant, P_g = U_g P0 U_g^dagger (Eldar,
    Megretski & Verghese, IEEE Trans. Inf. Theory 49, 2003).  Since
    sum_g U_g P0 U_g^dagger = 2**(n-1) diag(P0), completeness reduces to
    diag(P0) = 1/2**(n-1), and the objective to <rho_bar, P0> with
    rho_bar = sum_g p_g U_g^dagger rho_g U_g.  The seed dual y lifts to
    Y = diag(y)/2**(n-1), so the full problem's multipliers, one per svec
    entry of the completeness constraint, are svec(Y) and its slacks
    Z_g = Y - p_g rho_g.  The lifted pair is returned uncertified; the
    caller checks it on the full problem, which fails when the ensemble is
    not covariant.
    """
    count, n = len(rhos), rhos[0].shape[0]
    signs = _sign_patterns(n)
    weighted = np.asarray(priors, dtype=float)[:, None, None] * np.array(rhos)
    rho_bar = np.einsum("gk,gkl,gl->kl", signs, weighted, signs)
    unit = np.eye(n)
    seed = sdp.SdpProblem(
        blocks=[("P0", n)], objective={"P0": rho_bar},
        constraints=[({"P0": np.diag(unit[k])}, 1.0 / count) for k in range(n)])
    sol = sdp.solve(seed)
    lifted = signs[:, :, None] * sol.x["P0"] * signs[:, None, :]
    dual = np.diag(sol.y / count)
    names = _block_names(count)
    return sdp.SdpSolution(
        x=dict(zip(names, lifted)), y=sdp.svec(dual), z=dict(zip(names, dual - weighted)),
        primal_objective=sol.primal_objective, dual_objective=sol.dual_objective,
        gap=sol.gap, iterations=sol.iterations, iterates=sol.iterates)


def _project_psd(h: np.ndarray) -> np.ndarray:
    """Clip the tiny negative interior-point slack off an almost-PSD operator,
    or off each operator of a stack (..., d, d)."""
    lam, vecs = np.linalg.eigh(hermitian_part(np.asarray(h, dtype=complex)))
    return (vecs * np.clip(lam, 0.0, None)[..., None, :]) @ dagger(vecs)


def collision_probability(confusion: np.ndarray, priors: Sequence[float],
                          bit_map: Sequence[Sequence[int]]) -> float:
    """Average per-bit collision probability sum_{x,z} P(x|z)^2 P(z).

    ``z`` runs over measurement outcomes and ``x`` over the logical bit at a
    phase position; positions are averaged uniformly.  Posteriors follow from
    the confusion table and the priors by Bayes' rule; outcomes with zero
    probability are skipped.
    """
    joint = np.asarray(priors, dtype=float)[:, None] * np.asarray(confusion, dtype=float)
    p_z = joint.sum(axis=0)
    seen = p_z > 0.0
    joint, p_z = joint[:, seen], p_z[seen]
    bits = np.asarray(bit_map)
    total = 0.0
    for x in (0, 1):
        # (position, outcome) table of P(x, z) / P(z)
        posterior = ((bits == x).T @ joint) / p_z
        total += float(np.sum(posterior ** 2 * p_z))
    return total / bits.shape[1]


def pgm_povm(states: Sequence[np.ndarray], priors: Sequence[float]) -> Povm:
    """Square-root ("pretty good") measurement of an ensemble.

    P_i = S^{-1/2} p_i rho_i S^{-1/2} with S the average state; for the
    symmetric DPS ensembles this measurement attains the minimum-error
    optimum, which makes it an independent check on the SDP route.
    """
    rhos = _as_densities(states)
    d = rhos[0].shape[0]
    s = sum(priors[i] * rhos[i] for i in range(len(rhos)))
    dec = eig_hermitian(s)
    inv_sqrt = np.zeros((d, d), dtype=complex)
    for k in range(d):
        if dec.eigenvalues[k] > 1e-12:
            v = dec.eigenvectors[:, k]
            inv_sqrt += np.outer(v, v.conj()) / np.sqrt(dec.eigenvalues[k])
    elements = [inv_sqrt @ (priors[i] * rhos[i]) @ inv_sqrt for i in range(len(rhos))]
    # on a rank-deficient average state, spread the kernel evenly to complete the POVM
    kernel = np.eye(d, dtype=complex) - sum(elements)
    if float(np.max(np.abs(kernel))) > _POVM_SUM_ATOL:
        elements = [el + kernel / len(elements) for el in elements]
    return Povm(elements=tuple(elements))


def holevo_certificate(states: Sequence[np.ndarray], priors: Sequence[float],
                       povm: Povm, atol: float = 1e-6) -> bool:
    """Helstrom optimality witness: Y = sum_i p_i rho_i P_i is Hermitian and
    Y - p_j rho_j is PSD for every j."""
    rhos = _as_densities(states)
    y = sum(priors[i] * rhos[i] @ povm.elements[i] for i in range(len(rhos)))
    if float(np.max(np.abs(y - dagger(y)))) > atol:
        return False
    y = hermitian_part(y)
    return all(
        float(np.min(np.linalg.eigvalsh(y - priors[j] * rhos[j]))) >= -atol
        for j in range(len(rhos))
    )


# ---------------------------------------------------------------------------
# optimal map-based cloning
# ---------------------------------------------------------------------------

CHOI_BLOCK = "J"


@dataclass
class CloningResult:
    """Choi operator of the optimal symmetric cloner and derived quantities.

    The Choi operator lives on (bob-out) x (input) x (eve-out) with the input
    factor in the middle; trace preservation reads Tr_{out,out}(J) = I_in.
    """

    choi: np.ndarray
    avg_two_copy_fidelity: float
    per_state_clone_fidelity: list[float]
    bob_states: list[np.ndarray]
    eve_states: list[np.ndarray]
    problem: sdp.SdpProblem
    solution: sdp.SdpSolution
    kkt: sdp.KktReport


def cloning_problem(states: Sequence[np.ndarray],
                    priors: Sequence[float]) -> sdp.SdpProblem:
    """SDP for the optimal symmetric cloner in the Choi representation.

    Maximises the prior-averaged two-copy fidelity <psi psi| Phi(psi)|psi psi>
    over completely positive trace-preserving maps Phi.
    """
    d = np.asarray(states[0]).size
    q = np.zeros((d ** 3, d ** 3), dtype=complex)
    for i, s in enumerate(states):
        s = np.asarray(s, dtype=complex)
        v = np.kron(s, np.kron(s.conj(), s))  # conjugate sits on the input factor
        q += priors[i] * np.outer(v, v.conj())
    constraints = sdp.partial_trace_identity_constraints(CHOI_BLOCK, [d, d, d], keep=1)
    return sdp.SdpProblem(blocks=[(CHOI_BLOCK, d ** 3)], objective={CHOI_BLOCK: q},
                          constraints=constraints)


def apply_choi(choi: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Joint (bob, eve) output state of the cloning channel on input ``rho``."""
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[0]
    sandwich = choi @ np.kron(np.eye(d), np.kron(rho.T, np.eye(d)))
    return partial_trace(sandwich, [d, d, d], keep=[0, 2])


def optimal_cloner(ensemble: DpsEnsemble | Sequence[np.ndarray],
                   priors: Sequence[float] | None = None) -> CloningResult:
    """Solve for the optimal symmetric cloning channel of a pure-state ensemble.

    A sign-covariant ensemble (see :func:`_sign_covariant`), such as a DPS
    ensemble, is solved on the character blocks of the Choi operator (see
    :func:`_covariant_cloner_solution`); any other ensemble runs the general
    solve over the one d**3 block.  Either way the optimum is certified on
    the full problem (:func:`cloning_problem`) through the KKT conditions, so
    ``problem``, ``solution`` and ``kkt`` describe the full SDP.
    """
    if isinstance(ensemble, DpsEnsemble):
        states: Sequence[np.ndarray] = ensemble.states
        priors = ensemble.priors
    else:
        states = ensemble
        if priors is None:
            raise ValueError("explicit state lists need explicit priors")
    d = np.asarray(states[0]).size
    problem = cloning_problem(states, priors)
    if _sign_covariant(_as_densities(states), priors):
        solution = _covariant_cloner_solution(problem, d)
    else:
        solution = sdp.solve(problem)
    kkt = sdp.verify_kkt(problem, solution, tol=1e-6)
    choi = _project_psd(solution.x[CHOI_BLOCK])

    bob_states, eve_states, fids = [], [], []
    two_copy = 0.0
    for i, s in enumerate(states):
        s = np.asarray(s, dtype=complex)
        joint = apply_choi(choi, outer(s))
        bob = partial_trace(joint, [d, d], keep=[0])
        eve = partial_trace(joint, [d, d], keep=[1])
        bob_states.append(bob)
        eve_states.append(eve)
        fids.append(float(np.real(s.conj() @ bob @ s)))
        pair = np.kron(s, s)
        two_copy += priors[i] * float(np.real(pair.conj() @ joint @ pair))
    return CloningResult(
        choi=choi, avg_two_copy_fidelity=two_copy,
        per_state_clone_fidelity=fids, bob_states=bob_states,
        eve_states=eve_states, problem=problem, solution=solution, kkt=kkt,
    )


def _character_blocks(d: int) -> list[np.ndarray]:
    """Ket indices of the character blocks of (out) x (in) x (out).

    The sign group acts on the Choi operator as U_g x conj(U_g) x U_g, which
    multiplies the basis ket |i j k> by s_g(i) s_g(j) s_g(k).  Kets with the
    same sign function g -> s_g(i) s_g(j) s_g(k) span one block of an
    invariant Choi operator (Gatermann & Parrilo, J. Pure Appl. Algebra 192,
    2004).  Blocks are listed in order of their first ket.
    """
    signs = _sign_patterns(d)
    labels = np.einsum("gi,gj,gk->ijkg", signs, signs, signs).reshape(d ** 3, -1)
    _, first, inverse = np.unique(labels, axis=0, return_index=True, return_inverse=True)
    inverse = inverse.ravel()
    return [np.flatnonzero(inverse == b) for b in np.argsort(first)]


def _covariant_cloner_solution(problem: sdp.SdpProblem, d: int) -> sdp.SdpSolution:
    """Solve the cloning SDP of a sign-covariant ensemble on the character
    blocks of its Choi operator and lift the optimum onto ``problem``, the
    full :func:`cloning_problem`.

    The objective and the constraints are invariant under the sign group, so
    an optimal Choi operator can be taken invariant, hence block diagonal
    over :func:`_character_blocks`.  Each block keeps its part of the
    objective.  Of the d**2 trace-preservation constraints
    Tr_{out,out}(J) = I only the d diagonal ones touch the blocks: for each
    input index k, the diagonal of J summed over the kets |i k l> is 1.  The
    off-diagonal ones hold on any block-diagonal operator.  The block primal
    and slack scatter into the full J and Z, and the d multipliers lift to
    Y = diag(y), whose svec holds the full problem's multipliers.  The
    lifted pair is returned uncertified; the caller checks it on the full
    problem.
    """
    q = problem.objective[CHOI_BLOCK]
    blocks = _character_blocks(d)
    names = [f"J{b}" for b in range(len(blocks))]
    inputs = [ix // d % d for ix in blocks]  # input index j of each ket |i j k>
    reduced = sdp.SdpProblem(
        blocks=[(name, ix.size) for name, ix in zip(names, blocks)],
        objective={name: q[np.ix_(ix, ix)] for name, ix in zip(names, blocks)},
        constraints=[({name: np.diag(j == k).astype(float) for name, j in zip(names, inputs)}, 1.0)
                     for k in range(d)])
    sol = sdp.solve(reduced)
    choi, slack = np.zeros_like(q), np.zeros_like(q)
    for name, ix in zip(names, blocks):
        choi[np.ix_(ix, ix)] = sol.x[name]
        slack[np.ix_(ix, ix)] = sol.z[name]
    return sdp.SdpSolution(
        x={CHOI_BLOCK: choi}, y=sdp.svec(np.diag(sol.y)), z={CHOI_BLOCK: slack},
        primal_objective=sol.primal_objective, dual_objective=sol.dual_objective,
        gap=sol.gap, iterations=sol.iterations, iterates=sol.iterates)


def cptp_residuals(choi: np.ndarray, d: int) -> tuple[float, float]:
    """(negativity, trace-preservation residual) of a Choi operator on
    (out) x (in) x (out)."""
    neg = max(0.0, -float(np.min(np.linalg.eigvalsh(hermitian_part(choi)))))
    marginal = partial_trace(choi, [d, d, d], keep=[1])
    tp = float(np.max(np.abs(marginal - np.eye(d))))
    return neg, tp


def depolarizing_fit(original: np.ndarray, cloned: np.ndarray) -> tuple[float, float]:
    """Least-squares fit of cloned ~ (1-p) original + (p/d) I.

    Returns the fitted p and the Frobenius residual of the fit.
    """
    original = np.asarray(original, dtype=complex)
    cloned = np.asarray(cloned, dtype=complex)
    if original.shape != cloned.shape:
        raise ValueError("operators must share a dimension")
    d = original.shape[0]
    a = original - np.eye(d) / d
    b = cloned - np.eye(d) / d
    denom = float(np.real(np.trace(dagger(a) @ a)))
    if denom <= 1e-15:
        # original already maximally mixed: any p fits, residual is direct
        return 0.0, float(np.linalg.norm(cloned - original))
    p = 1.0 - float(np.real(np.trace(dagger(a) @ b))) / denom
    resid = float(np.linalg.norm(cloned - ((1.0 - p) * original + p / d * np.eye(d))))
    return p, resid


# ---------------------------------------------------------------------------
# unitary symmetric cloner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnitaryClonerParams:
    """Symmetric cloning isometry on basis kets {e_i}:

        |e_i>|0>|X>  ->  p |e_i>|e_i>|X_i>
                         + q sum_{j != i} (|e_i>|e_j> + |e_j>|e_i>) |X_j>,

    with p**2 + 2(d-1) q**2 = 1 fixing p from q (unitarity).  The machine
    register states X_j are orthonormal labels and never materialise.
    """

    d: int
    q: float
    basis: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.basis) != self.d:
            raise ValueError("basis must contain d kets")
        b = self.basis_matrix
        if float(np.max(np.abs(b @ dagger(b) - np.eye(self.d)))) > 1e-10:
            raise ValueError("basis is not orthonormal")
        if not 0.0 <= self.q <= 1.0 / math.sqrt(2.0 * (self.d - 1)):
            raise ValueError("cloning coefficient out of the unitary range")

    @property
    def basis_matrix(self) -> np.ndarray:
        """(d, d) array whose rows are the basis kets."""
        return np.array(self.basis, dtype=complex)

    @property
    def p(self) -> float:
        return math.sqrt(max(0.0, 1.0 - 2.0 * (self.d - 1) * self.q ** 2))

    def unitarity_residual(self) -> float:
        return abs(self.p ** 2 + 2.0 * (self.d - 1) * self.q ** 2 - 1.0)


def aligned_cloning_basis(ensemble: DpsEnsemble) -> tuple[np.ndarray, ...]:
    """Orthonormal basis whose first vector is the all-plus ensemble state.

    Aligning the basis with one ensemble state maximises the fourth powers of
    the expansion coefficients, which is where the symmetric cloner performs
    best.  The remaining vectors complete the basis by Gram-Schmidt and are
    sign-normalised so the first non-zero component is positive.
    """
    vecs = [np.asarray(ensemble.states[0], dtype=complex)]
    n = ensemble.n
    for cand_idx in range(n - 1, -1, -1):
        if len(vecs) == n:
            break
        cand = np.zeros(n, dtype=complex)
        cand[cand_idx] = 1.0
        for v in vecs:
            cand = cand - np.vdot(v, cand) * v
        nrm = np.linalg.norm(cand)
        if nrm < 1e-9:
            continue
        cand = cand / nrm
        first = cand[np.argmax(np.abs(cand) > 1e-12)]
        if abs(first) > 1e-12 and first.real < 0:
            cand = -cand
        vecs.append(cand)
    return tuple(vecs)


def _basis_coefficients(basis_matrix: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """Coefficients <e_j|psi> of normalised kets (last axis) in the cloning basis."""
    kets = np.asarray(kets, dtype=complex)
    if np.any(np.abs(np.linalg.norm(kets, axis=-1) - 1.0) > 1e-9):
        raise ValueError("input ket must be normalised")
    return kets @ basis_matrix.conj().T


def unitary_cloner_output(params: UnitaryClonerParams, psi: np.ndarray) -> np.ndarray:
    """Joint (bob, eve) state after the cloning isometry, machine traced out.

    The machine label X_k carries the branch sum_a v_ka (|e_a e_k> + |e_k e_a>)
    with v_ka = q c_a for a != k and v_kk = p c_k / 2, c = <e|psi>; the state
    is B B^dagger for the (d^2, d) matrix B of those branches.
    """
    e = params.basis_matrix
    c = _basis_coefficients(e, psi)
    d, q = params.d, params.q
    v = q * np.broadcast_to(c, (d, d)) + np.diag((params.p / 2.0 - q) * c)
    half = np.einsum("ka,ax,ky->xyk", v, e, e)
    branches = (half + half.transpose(1, 0, 2)).reshape(d * d, d)
    return branches @ dagger(branches)


def apply_unitary_cloner(params: UnitaryClonerParams,
                         psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(bob_state, eve_state) reduced density operators of the two clones."""
    rho_ab = unitary_cloner_output(params, psi)
    d = params.d
    bob = partial_trace(rho_ab, [d, d], keep=[0])
    eve = partial_trace(rho_ab, [d, d], keep=[1])
    return bob, eve


def optimize_unitary_q(ensemble: DpsEnsemble | Sequence[np.ndarray],
                       basis: tuple[np.ndarray, ...] | None = None,
                       priors: Sequence[float] | None = None) -> tuple[float, float]:
    """Exact maximum of the mean single-clone fidelity over the cloning coefficient.

    With w_gj = |<e_j|psi_g>|^2, the clone of psi_g has fidelity
    F_g = sum_j (p w_gj + q (1 - w_gj))^2 + q^2 w_gj (1 - w_gj), so the mean
    fidelity is the quadratic form [p q] G [p q]^T with G >= 0 entrywise,
    maximised on the unitarity ellipse p^2 + 2(d-1) q^2 = 1.  The optimum is
    the top eigenvector of D^(-1/2) G D^(-1/2), D = diag(1, 2(d-1)); by
    Perron-Frobenius it can be taken non-negative, so it lies on the feasible
    quarter-ellipse.  Returns (q_opt, avg_fidelity).
    """
    if isinstance(ensemble, DpsEnsemble):
        states: Sequence[np.ndarray] = ensemble.states
        priors = ensemble.priors
        if basis is None:
            basis = aligned_cloning_basis(ensemble)
    else:
        states = ensemble
        if priors is None or basis is None:
            raise ValueError("explicit state lists need explicit priors and basis")
    params = UnitaryClonerParams(d=len(basis), q=0.0, basis=tuple(basis))
    w = np.abs(_basis_coefficients(params.basis_matrix, states)) ** 2
    terms = np.stack([w * w, w * (1.0 - w), 1.0 - w]).sum(axis=2)
    a, b, c = terms @ np.asarray(priors, dtype=float)
    r = 1.0 / math.sqrt(2.0 * (params.d - 1))
    lam, vecs = np.linalg.eigh(np.array([[a, b * r], [b * r, c * r * r]]))
    return float(r * abs(vecs[1, -1])), float(lam[-1])


# ---------------------------------------------------------------------------
# post-cloning discrimination and attack profiles
# ---------------------------------------------------------------------------

def med_on_cloned(eve_states: Sequence[np.ndarray], priors: Sequence[float],
                  bit_map: Sequence[Sequence[int]] | None = None) -> MedResult:
    """Minimum-error discrimination of the (generally mixed) clone ensemble."""
    stack = np.array(eve_states, dtype=complex)
    if float(np.min(np.linalg.eigvalsh(hermitian_part(stack)))) < -1e-7:
        raise ValueError("clone states must be valid density operators")
    return med_attack(list(eve_states), priors=priors, bit_map=bit_map)


IR_ERROR = 1.0 / 3.0
IR_COLLISION = 0.75


def ir_attack_profile() -> AttackProfile:
    """Intercept-resend with a receiver-identical interferometer.

    Each intercepted frame gives Eve one definite phase-difference bit; a key
    bit later detected from an attacked frame matches Eve's known position
    with probability 1/2, so her per-attacked-bit collision probability is
    (1/2)*1 + (1/2)*(1/2) = 3/4, and resending disturbs one bit in three.
    """
    return AttackProfile(name="ir", per_intercept_error=IR_ERROR,
                         per_attacked_bit_collision=IR_COLLISION)


def ir_monte_carlo_collision(samples: int, seed: int = 7, n: int = 3,
                             mode: str = "definite") -> float:
    """Monte-Carlo estimate of the per-attacked-bit collision probability.

    ``definite`` assumes Eve always learns one uniformly chosen phase
    position per intercepted frame (the model behind
    :func:`ir_attack_profile`).  ``mzi`` gives her the physical
    interferometer instead, whose boundary slots teach her nothing with
    probability 1/n, lowering the average collision probability.
    """
    rng = np.random.default_rng(seed)
    positions = n - 1
    eve_pos = rng.integers(0, positions, size=samples)
    bob_pos = rng.integers(0, positions, size=samples)
    collision = np.where(eve_pos == bob_pos, 1.0, 0.5)
    if mode == "mzi":
        learned = rng.random(samples) < (positions / n)
        collision = np.where(learned, collision, 0.5)
    elif mode != "definite":
        raise ValueError(f"unknown mode {mode!r}")
    return float(np.mean(collision))


class UncertifiedOptimumError(sdp.SdpError):
    """An attack optimum failed its KKT certificate on the full problem."""


_Result = TypeVar("_Result", MedResult, CloningResult)


def certified(result: _Result, attack: str) -> _Result:
    """Return ``result`` if its KKT certificate passed.

    Otherwise raise :class:`UncertifiedOptimumError` naming the attack and
    the failing KKT conditions, so an uncertified optimum never reaches a
    key rate or a report.
    """
    failed = [name for name, ok in result.kkt.conditions.items() if not ok]
    if failed:
        raise UncertifiedOptimumError(
            f"{attack}: KKT certificate failed ({', '.join(failed)})")
    return result


@dataclass
class CloningAttack:
    """A certified cloning attack on a DPS ensemble: ``cloner`` is a :class:`CloningResult`
    (two-copy ``fidelity``) or :class:`UnitaryClonerParams` (mean single-clone
    ``fidelity``), and ``med_after`` is Eve's certified MED of her clones."""

    name: str
    ensemble: DpsEnsemble
    cloner: CloningResult | UnitaryClonerParams
    fidelity: float
    bob_states: list[np.ndarray]
    med_after: MedResult

    def ber(self, conditional: bool = False) -> list[float]:
        """Bit-error rate of each of Bob's clones (see :func:`ber_of_state`)."""
        return [ber_of_state(bob, i, self.ensemble, conditional=conditional)
                for i, bob in enumerate(self.bob_states)]

    @property
    def profile(self) -> AttackProfile:
        """Cloning disturbs every frame it touches: the error is the mean
        detection-conditioned BER of Bob's clones, the collision from ``med_after``."""
        return AttackProfile(name=self.name,
                             per_intercept_error=float(np.mean(self.ber(conditional=True))),
                             per_attacked_bit_collision=self.med_after.collision_probability)


def optimal_cloning_attack(ens: DpsEnsemble) -> CloningAttack:
    """The optimal cloner, followed by MED of Eve's clones."""
    clone = certified(optimal_cloner(ens), "optimal cloner")
    med_after = certified(med_on_cloned(clone.eve_states, ens.priors, ens.bit_map),
                          "MED after optimal cloning")
    return CloningAttack(name="cloning", ensemble=ens, cloner=clone,
                         fidelity=clone.avg_two_copy_fidelity,
                         bob_states=clone.bob_states, med_after=med_after)


def unitary_cloning_attack(ens: DpsEnsemble) -> CloningAttack:
    """The unitary cloner at its optimal coefficient in the aligned basis, then
    MED of the clones, which the symmetric isometry makes equal for Bob and Eve."""
    basis = aligned_cloning_basis(ens)
    q_opt, fidelity = optimize_unitary_q(ens, basis)
    params = UnitaryClonerParams(d=ens.n, q=q_opt, basis=basis)
    bobs = [apply_unitary_cloner(params, s)[0] for s in ens.states]
    med_after = certified(med_on_cloned(bobs, ens.priors, ens.bit_map),
                          "MED after unitary cloning")
    return CloningAttack(name="unitary", ensemble=ens, cloner=params, fidelity=fidelity,
                         bob_states=bobs, med_after=med_after)


def _med_profile(ens: DpsEnsemble) -> AttackProfile:
    """MED errs with the state-level probability 1 - p_success per intercepted frame."""
    med = certified(med_attack(ens), "med")
    return AttackProfile(name="med", per_intercept_error=1.0 - med.p_success,
                         per_attacked_bit_collision=med.collision_probability)


# Each explicit attack by name, as a builder ensemble -> key-rate profile.
ATTACK_PROFILES: dict[str, Callable[[DpsEnsemble], AttackProfile]] = {
    "ir": lambda ens: ir_attack_profile(),
    "med": _med_profile,
    "cloning": lambda ens: optimal_cloning_attack(ens).profile,
    "unitary": lambda ens: unitary_cloning_attack(ens).profile,
}


def standard_attack_profiles(n: int = 3) -> dict[str, AttackProfile]:
    """Every attack of :data:`ATTACK_PROFILES` on ``dps_ensemble(n)``, in table order."""
    ens = dps_ensemble(n)
    return {name: build(ens) for name, build in ATTACK_PROFILES.items()}


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------

def complex_matrix_doc(m: np.ndarray) -> list[list[list[float]]]:
    """Plain-data rendering of a complex matrix: rows of [real, imag] pairs."""
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


def med_result_doc(result: MedResult) -> dict:
    """Plain-data report of a discrimination result: figures, confusion, POVM, KKT."""
    return {
        "p_success": result.p_success,
        "collision_probability": result.collision_probability,
        "confusion": [[float(v) for v in row] for row in result.confusion],
        "povm": [complex_matrix_doc(el) for el in result.povm.elements],
        "kkt_passed": result.kkt.passed,
    }
