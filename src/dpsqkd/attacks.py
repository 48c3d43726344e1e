"""Explicit individual attacks on DPS QKD and their figures of merit.

Four eavesdropping strategies are modelled:

* minimum-error discrimination (MED) of the signal ensemble, solved as a
  semidefinite program over POVM elements, read out as one :class:`Povm` stack;
* the optimal two-clone map of a sign-covariant ensemble, solved as a
  semidefinite program over the character blocks of the Choi operator of
  the cloning channel;
* a symmetric unitary cloning machine with a single cloning coefficient,
  whose optimum is the top eigenvector of a 2x2 quadratic form and whose
  clones have a closed form;
* the intercept-resend baseline with a receiver-identical measurement.

An ensemble on the sign orbit of its state 0, as the DPS states are, has
a symmetry-reduced problem: :func:`med_attack` builds the n x n MED seed
block itself, and :func:`cloning_problem` states the optimal cloner on the
character blocks of its Choi operator (the n**3 x n**3 cloning SDP is never
built).  :func:`med_problem`, the full 2**(n-1)-block MED problem, is built
only off the sign orbit.  No attack code depends on the order of their
constraint rows.  One covariance residual delta decides the route (see
:func:`_covariance_residual`): each attack evaluates it once, and
n delta <= ``_KKT_TOL`` routes MED to its seed block, admits an ensemble to
the optimal cloner and is the one extra condition of the reduced
certificate of both (see :func:`_reduced_kkt`), which implies the KKT
conditions of the full problem.  Both reduced problems take one route (see
:func:`_reduced_optimum`).  Their constraint operators partition the
identity, so the uniform multiplier y = lambda_max(C) is dual feasible, and
a primal on the top eigenvectors of the objective that meets the equality
rows closes the gap (see :func:`_top_eigenspace_solution`).  That candidate
is certified once, and the reduced problem is solved only when it is
missing or fails; it passes for MED and the optimal cloner of the DPS
states and for MED of the optimal clones.  Each cloning attack is one
certified :class:`CloningAttack`, read by the ``clone`` report and by its
key-rate profile.
:data:`ATTACK_PROFILES` builds the per-intercept errors and collision
probabilities that feed the shrinking factors in :mod:`dpsqkd.keyrate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import groupby
from typing import Callable, Sequence, TypeVar

import numpy as np

from . import sdp
from .dps import MAX_PULSES, DpsEnsemble, _key_slot_ber, dps_ensemble, sign_patterns
from .keyrate import AttackProfile
from .linalg import hermitian_part, is_psd, outer, partial_trace, real_array

_POVM_SUM_ATOL = 1e-8
_POVM_PSD_ATOL = 1e-9
_KKT_TOL = 1e-6  # of every attack optimum's KKT certificate


# ---------------------------------------------------------------------------
# minimum error discrimination
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Povm:
    """A POVM, held as a read-only float64 (K, d, d) copy of its elements:
    each PSD by :func:`~dpsqkd.linalg.is_psd`, and summing to the identity."""

    elements: np.ndarray

    def __post_init__(self) -> None:
        stack = real_array(self.elements, "POVM elements")
        if stack.ndim and not len(stack):
            raise ValueError("a POVM needs at least one element")
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise ValueError("POVM elements must share one dimension")
        if not is_psd(stack, _POVM_PSD_ATOL):
            raise ValueError("POVM element is not positive semidefinite")
        if not float(np.max(np.abs(stack.sum(axis=0) - np.eye(stack.shape[1])))) <= _POVM_SUM_ATOL:
            raise ValueError("POVM elements do not sum to the identity")
        stack.flags.writeable = False
        object.__setattr__(self, "elements", stack)


@dataclass
class MedResult:
    """An optimal minimum-error measurement and its figures of merit.

    ``confusion[i, j]`` is the probability P(outcome j | state i) of the
    POVM ``povm``, whose element j guesses state j.  ``problem``,
    ``solution`` and ``kkt`` describe the problem the optimum was reached
    on: for a sign-covariant ensemble the n x n seed block, whose ``kkt`` is
    the reduced certificate (see :func:`_reduced_kkt`), and for any other
    ensemble the full :func:`med_problem`, one block per state.
    """

    povm: Povm
    confusion: np.ndarray
    p_success: float
    collision_probability: float
    problem: sdp.SdpProblem
    solution: sdp.SdpSolution
    kkt: sdp.KktReport


def med_problem(ens: DpsEnsemble) -> sdp.SdpProblem:
    """SDP for minimum-error discrimination: maximise sum_i p(i) <rho_i, P_i>
    over POVMs {P_i}, one group of G blocks under the shared completeness
    rows.

    The states are real (see :class:`~dpsqkd.dps.DpsEnsemble`), so the
    problem is stated over real symmetric P_i, and nothing is lost against
    Hermitian POVMs: for a Hermitian optimum P_i, Re P_i = (P_i + conj P_i)/2
    is PSD, sums to the identity and has the same value, since
    Tr(rho Im P) = 0 for real symmetric rho; and a real dual point is a
    Hermitian one of the same value, so the real certificate certifies the
    optimum over all POVMs."""
    ops, rhs = sdp.povm_completeness_constraints(ens.n)
    return sdp.SdpProblem([ens.priors[:, None, None] * ens.densities], [ops], rhs)


def med_attack(ens: DpsEnsemble) -> MedResult:
    """Optimal minimum-error discrimination of an ensemble.

    An ensemble within n delta <= ``_KKT_TOL`` of the sign orbit of its
    state 0 (see :func:`_covariance_residual`), such as a DPS ensemble or
    the clones of the optimal cloner, is solved on one n x n seed block Q.
    With the sign matrices U_g = diag(s_g) of
    :func:`~dpsqkd.dps.sign_patterns`, an optimal POVM can be taken
    covariant, P_g = U_g Q U_g^dagger / G with G = 2**(n-1) (Eldar,
    Megretski & Verghese, IEEE Trans. Inf. Theory 49, 2003).  Half the sign
    patterns flip each off-diagonal entry, so sum_g P_g = diag(Q):
    completeness reads diag(Q)_k = 1, one row per k, and the objective is
    <rho_bar/G, Q> with rho_bar = sum_g p_g U_g^dagger rho_g U_g.  Rows of
    right-hand side 1, not diag(P_0) = 1/G, keep the seed's equality
    residual the full one, and G is a power of two, so the lift is exact in
    floating point.  The DPS states have rho_bar = |+><+|, with |+> the
    uniform superposition, so the top-eigenspace candidate Q = n |+><+|
    gives p_success = n/G.  The seed is certified through
    :func:`_reduced_kkt` and solved only when its candidate fails (see
    :func:`_reduced_optimum`).  Q/G is clipped to PSD before the lift: the
    lift multiplies entries by +-1, which commutes with the clip, so one
    n x n eigendecomposition clips all G elements.  Any other ensemble
    builds its full :func:`med_problem`, solves it, certifies the pair and
    clips each of its G blocks.
    """
    count, n = len(ens.priors), ens.n
    delta = _covariance_residual(ens)
    if n * delta <= _KKT_TOL:
        signs = sign_patterns(n)
        rho_bar = np.einsum("gk,gkl,gl->kl", signs, ens.priors[:, None, None] * ens.densities,
                            signs)
        # one block; row k is the unit |k><k|
        problem = sdp.SdpProblem([rho_bar[None] / count],
                                 [np.eye(n)[:, None, :, None] * np.eye(n)], np.ones(n))
        solution, kkt = _reduced_optimum(problem, delta)
        seed = _project_psd(solution.x[0][0] / count)
        x = signs[:, :, None] * seed * signs[:, None, :]
    else:
        problem = med_problem(ens)
        solution = sdp.solve(problem)
        kkt = sdp.verify_kkt(problem, solution, tol=_KKT_TOL)
        x = _project_psd(solution.x[0])
    povm = Povm(elements=x)
    # confusion[i, j] = Tr(rho_i E_j) = sum_kl rho_i[k, l] E_j[k, l], E_j symmetric
    confusion = ens.densities.reshape(count, -1) @ povm.elements.reshape(count, -1).T
    return MedResult(povm=povm, confusion=confusion,
                     p_success=float(ens.priors @ np.diag(confusion)),
                     collision_probability=collision_probability(confusion, ens.priors,
                                                                 ens.bit_map),
                     problem=problem, solution=solution, kkt=kkt)


def _covariance_residual(ens: DpsEnsemble) -> float:
    """delta = sum_g |p_g - 1/G| + (3/G) sum_g ||rho_g - U_g rho_0 U_g^dagger||_F,
    the distance of an ensemble from the sign orbit of its state 0 with
    uniform priors, in the order of ``dps_ensemble(n)``, in O(G n**2); it is
    infinite unless G = 2**(n-1) and 3 <= n <= ``MAX_PULSES``.

    The one rule n delta <= ``_KKT_TOL`` routes MED to its seed block,
    admits an ensemble to :func:`optimal_cloner` and is the condition
    ``objective_covariant`` of :func:`_reduced_kkt`, where delta bounds the
    distance of either attack's full objective from its covariant form.
    The DPS states and the clones of the optimal cloner have delta = 0; the
    clones of the unitary cloner, whose basis is aligned with state 0, and
    skewed priors do not.
    """
    count, n = len(ens.priors), ens.n
    if not 3 <= n <= MAX_PULSES or count != 2 ** (n - 1):
        return math.inf
    signs = sign_patterns(n)
    moved = signs[:, :, None] * ens.densities[0] * signs[:, None, :]
    return float(np.abs(ens.priors - 1.0 / count).sum()
                 + 3.0 / count * np.linalg.norm(ens.densities - moved, axis=(1, 2)).sum())


_TIE_TOL = 1e-9  # relative gap below which two top eigenvalues are one, up to rounding


def _top_eigenspace_solution(problem: sdp.SdpProblem) -> sdp.SdpSolution | None:
    """The top-eigenspace candidate for the optimum of a reduced
    ``problem`` whose constraint operators sum to the identity on every
    block; ``None`` when it has none.

    If sum_j A_{j,b} = I on every block b, the uniform multipliers
    y = lambda * 1 give the dual slacks Z_b = lambda I - C_b, which are PSD
    for lambda = max_b lambda_max(C_b): a dual point of value
    lambda * sum_j r_j.  Put the primal on a unit top eigenvector u_b of
    each block whose top eigenvalue is lambda, X_b = t_b u_b u_b^dagger,
    and zero elsewhere.  Then <X_b, Z_b> = 0, and the primal value
    sum_b t_b lambda = lambda sum_j sum_b t_b <A_{j,b}, u_b u_b^dagger>
    equals the dual one wherever the weights solve the equality rows
    sum_b t_b <A_{j,b}, u_b u_b^dagger> = r_j.  So a solution t >= 0 of
    those rows closes the gap, and the pair is optimal.  The weights come
    from least squares; a negative one leaves no candidate.  No KKT check
    runs: the pair, which records no iterations, is returned uncertified,
    and the caller certifies it (see :func:`_reduced_optimum`).  The
    certificate fails when the rows have no exact solution: when a top
    eigenvector has uneven weight on the rows, or when the top eigenspace
    of a block is degenerate and the one eigenvector taken from it misses
    them.  The spectra and rows are read off the problem's fields, one block
    at a time.
    """
    blocks = []  # (top eigenvalue, top eigenvector, group, index) of every block
    for g, cost in enumerate(problem.cost):
        w, v = np.linalg.eigh(cost)
        blocks += [(w[k, -1], v[k, :, -1], g, k) for k in range(len(w))]
    lam = max(block[0] for block in blocks)
    top = [block for block in blocks if block[0] >= lam - _TIE_TOL * abs(lam)]
    rows = [[u @ problem.ops[g][j, k] @ u for _, u, g, k in top] for j in range(len(problem.rhs))]
    t = np.linalg.lstsq(np.array(rows), problem.rhs, rcond=None)[0]
    if np.any(t < 0.0):
        return None
    x = [np.zeros_like(cost) for cost in problem.cost]
    for tb, (_, u, g, k) in zip(t, top):
        x[g][k] = tb * outer(u)
    primal = float(sum(tb * wb for tb, (wb, *_) in zip(t, top)))
    dual = float(lam * problem.rhs.sum())
    return sdp.SdpSolution(x=x, y=np.full(len(problem.rhs), lam), primal_objective=primal,
                           dual_objective=dual, gap=abs(primal - dual), iterations=0)


def _reduced_optimum(problem: sdp.SdpProblem, delta: float
                     ) -> tuple[sdp.SdpSolution, sdp.KktReport]:
    """The optimum of a symmetry-reduced ``problem`` of an ensemble with
    covariance residual ``delta``, the MED seed block of :func:`med_attack`
    or the character-block :func:`cloning_problem`, and its certificate
    (:func:`_reduced_kkt`).  The top-eigenspace candidate
    (:func:`_top_eigenspace_solution`) is certified once; only when it is
    missing or fails, or meets its equality rows only to within more than
    ``_POVM_SUM_ATOL``, is ``problem`` solved, and that pair certified.  The
    last case is a MED seed whose top eigenvector has slightly uneven weight
    on the rows, bent off the sign orbit or not: its least-squares weights
    miss the rows by about that unevenness, which the certificate admits
    but the completeness check of :class:`Povm` does not."""
    candidate = _top_eigenspace_solution(problem)
    if candidate is not None:
        kkt = _reduced_kkt(problem, candidate, delta)
        if kkt.passed and kkt.equality_residual <= _POVM_SUM_ATOL:
            return candidate, kkt
    solution = sdp.solve(problem)
    return solution, _reduced_kkt(problem, solution, delta)


def _reduced_kkt(problem: sdp.SdpProblem, solution: sdp.SdpSolution,
                 delta: float) -> sdp.KktReport:
    """KKT certificate of a pair of a symmetry-reduced ``problem`` on the
    full problem, which is not built, of an ensemble with covariance
    residual ``delta`` (see :func:`_covariance_residual`): the MED seed
    block of :func:`med_attack` on :func:`med_problem`, or the
    character-block :func:`cloning_problem` on the d**3 x d**3 cloning SDP
    with objective Q = sum_g p_g |v_g><v_g|.

    Each reduced problem is built from the sign orbit of state 0 with
    uniform priors.  ``verify_kkt`` on the reduced pair gives the full
    conditions for that orbit (a), and one more condition,
    ``objective_covariant``: d delta <= ``_KKT_TOL``, with one constraint
    row per index k of C^d, bounds how far the ensemble's own objective
    moves them (b).

    MED, with G = 2**(n-1) and d = n.
    (a) The seed pair (Q, y) lifts to P_g = U_g Q U_g^dagger / G and
        Y = diag(y), whose multipliers on the orthonormal completeness
        basis B_j of :func:`med_problem` are Re Tr(B_j Y).  Since
        sum_g P_g = diag(Q), the full equality residual is the seed's.
        P_g >= 0 iff Q >= 0, and both dual objectives are sum_k y_k.  U_g
        is diagonal, so the slack is Z_g = Y - p_g rho_g
        = U_g Z_Q U_g^dagger - E_g, E_g = p_g rho_g - U_g (rho_bar/G) U_g^dagger,
        the primal objective is the seed's plus sum_g <E_g, P_g>, and
        <P_g, Z_g> = <Q, Z_Q>/G - <E_g, P_g>.
    (b) Write p_g = 1/G + a_g and rho_g = U_g rho_0 U_g^dagger + D_g.
        Then rho_bar - rho_0 = sum_h p_h U_h^dagger D_h U_h, so
        E_g = a_g rho_g + D_g/G - U_g (rho_bar - rho_0) U_g^dagger / G, and
        with ||rho_g||_F <= 1 and ||D_h||_F <= 2,
        sum_g ||E_g||_F <= 3 sum_g |a_g| + (2/G) sum_g ||D_g||_F <= 3 delta.
        The smallest eigenvalue of Z_g drops by at most 3 delta (Weyl's
        inequality), and |<E_g, P_g>| <= ||E_g||_2 Tr P_g, with
        Tr P_g = n/G from the equality rows, so the gap and slackness move
        by at most 3 n delta / G.

    Cloner.
    (a) The blocks of ``problem`` are those of Q_cov, the objective of the
        sign orbit of state 0.  Scatter the blocks into J and Z, and lift
        the d multipliers y to Y = diag(y), whose traces Re Tr(B_j Y)
        against the orthonormal basis B_j of the trace-preservation rows
        give the full problem's d**2 multipliers.  With objective Q_cov,
        the block report is the full one.  J is PSD iff its blocks are,
        and <Q_cov, J> is the sum of the block objectives, since neither
        has off-block entries.  A trace-preservation constraint with
        j != k pairs kets |i j l>, |i k l> whose sign labels differ (some
        pattern has s_g(j) != s_g(k)), so it reads off-block entries of J
        only: zero, its right-hand side.  The diagonal constraints are the
        block ones.  A* of these multipliers is I x Y x I, the diagonal
        operator y_j on |i j l>, so the slack Z = I x Y x I - Q_cov has the
        block slacks on its blocks, and the dual objective is sum_k y_k.
        <J, Z> is the sum of the block terms, which the block gap and
        equalities bound.  The multipliers of the j != k constraints are
        zero, since Y is diagonal.
    (b) delta bounds ||E||_F, E = Q - Q_cov:
        E = sum_g (p_g - 1/G) |v_g><v_g| + (1/G) sum_g (|v_g><v_g| - |w_g><w_g|)
        with w_g = W_g v_0 (see :func:`cloning_problem`).  The projector
        |v_g><v_g| = rho_g x conj(rho_g) x rho_g has factors of unit norm,
        and |w_g><w_g| is the same product of sigma_g = U_g rho_0 U_g^dagger,
        so three telescoped factors give
        || |v_g><v_g| - |w_g><w_g| ||_F <= 3 ||rho_g - sigma_g||_F, and
        ||E||_F <= delta.  The states carry no phase, so none is aligned.
        Going from Q_cov to Q leaves the primal conditions and the dual
        objective alone.  The slack becomes Z - E, whose smallest
        eigenvalue drops by at most ||E||_2 <= delta (Weyl's inequality).
        The primal objective and <J, Z> move by <E, J>, and
        |<E, J>| <= ||E||_2 Tr J = d delta for J >= 0, as the
        trace-preservation rows give Tr J = Tr I = d.

    So a passing report gives the full conditions at 2 ``_KKT_TOL``: dual
    PSD to -(_KKT_TOL + 3 delta), the gap and slackness to their reduced
    bounds plus d delta, as d >= 3.  Skewed priors or a bent ket make
    delta large and fail.
    """
    report = sdp.verify_kkt(problem, solution, tol=_KKT_TOL)
    within = len(problem.rhs) * delta <= _KKT_TOL  # one row per index of C^d
    return replace(report, conditions={**report.conditions, "objective_covariant": within})


def _project_psd(h: np.ndarray) -> np.ndarray:
    """Clip the tiny negative interior-point slack off an almost-PSD operator,
    or off each operator of a stack (..., d, d)."""
    lam, vecs = np.linalg.eigh(hermitian_part(h))
    return (vecs * np.clip(lam, 0.0, None)[..., None, :]) @ vecs.swapaxes(-1, -2)


def collision_probability(confusion: np.ndarray, priors: Sequence[float],
                          bit_map: Sequence[Sequence[int]]) -> float:
    """Average per-bit collision probability sum_{x,z} P(x|z)^2 P(z).

    ``z`` runs over measurement outcomes and ``x`` over the logical bit at a
    phase position; positions are averaged uniformly.  Posteriors follow from
    the confusion table and the priors by Bayes' rule; outcomes with zero
    probability are skipped.  Non-finite entries raise ``ValueError``.
    """
    priors, confusion = np.asarray(priors, dtype=float), np.asarray(confusion, dtype=float)
    if not (np.all(np.isfinite(priors)) and np.all(np.isfinite(confusion))):
        raise ValueError("priors and confusion entries must be finite")
    joint = priors[:, None] * confusion
    p_z = joint.sum(axis=0)
    seen = p_z > 0.0
    p_z = p_z[seen]
    bits = np.asarray(bit_map)
    total = 0.0
    for x in (0, 1):
        # (position, outcome) table of P(x, z) / P(z) over the outcomes that occur
        posterior = ((bits == x).T @ joint)[:, seen] / p_z
        total += float(np.sum(posterior ** 2 * p_z))
    return total / bits.shape[1]


# ---------------------------------------------------------------------------
# optimal map-based cloning
# ---------------------------------------------------------------------------

@dataclass
class CloningResult:
    """The optimal symmetric cloner and derived quantities.

    The Choi operator J lives on (bob-out) x (input) x (eve-out) with the
    input factor in the middle; trace preservation reads
    Tr_{out,out}(J) = I_in.  J is block diagonal, with the blocks of the
    stacks of ``solution.x``, in order and clipped to PSD, at the kets of
    :func:`_character_blocks`, and is never formed.  ``problem``,
    ``solution`` and ``kkt`` describe the character-block
    :func:`cloning_problem`, and ``kkt`` carries the extra condition
    ``objective_covariant`` of the reduced certificate (see
    :func:`_reduced_kkt`).  The clones are (G, n, n) stacks in the order of
    the ensemble's states.
    """

    avg_two_copy_fidelity: float
    per_state_clone_fidelity: list[float]
    bob_states: np.ndarray
    eve_states: np.ndarray
    problem: sdp.SdpProblem
    solution: sdp.SdpSolution
    kkt: sdp.KktReport


def _kets(ens: DpsEnsemble) -> np.ndarray:
    """The (G, n) ket stack of a pure-state ensemble; the cloners take no other."""
    if ens.states.ndim != 2:
        raise ValueError("cloning needs a pure-state ensemble, not density operators")
    return ens.states


def cloning_problem(ens: DpsEnsemble) -> sdp.SdpProblem:
    """SDP for the optimal symmetric cloner of the sign orbit of state 0 of a
    pure-state ensemble, on the character blocks (:func:`_character_blocks`)
    of its Choi operator J.

    The full SDP maximises the two-copy fidelity <Q, J>,
    Q = sum_g p_g |v_g><v_g| with v_g = psi_g x conj(psi_g) x psi_g, over
    J >= 0 on (out) x (in) x (out) with Tr_{out,out}(J) = I.  On the orbit
    psi_g = U_g psi_0 with uniform priors, v_g = W_g v_0, where
    W_g = U_g x U_g x U_g is diagonal and equals the character chi_b(g) on
    block b.  So Q_cov = (1/G) sum_g W_g |v_0><v_0| W_g has the blocks
    (1/G) sum_g chi_b(g) chi_c(g) v_0[b] v_0[c]^dagger: zero for b != c by
    the orthogonality of characters, and on block b the rank-one
    v_0[b] v_0[b]^dagger, its objective here.  Of the d**2
    trace-preservation rows only the d diagonal ones touch the blocks: for
    each input index k, the diagonal of J over the kets |i k l> sums to 1.
    Each run of blocks of one size is one group, with one broadcast for
    its d rows: the d blocks of size 3d-2, then the C(d, 3) of size 6.

    Only state 0 enters, and :func:`_reduced_kkt` bounds how far the
    ensemble's own Q is from Q_cov.  So any pure-state ensemble builds it,
    and the certificate can be tested on skewed priors and bent kets.

    State 0 is real (see :class:`~dpsqkd.dps.DpsEnsemble`), so the blocks
    are real, and the real optimum is the optimum over all Choi operators:
    Re J of a Hermitian optimum J is PSD, trace preserving and of the same
    value, and a real dual point is a Hermitian one of the same value.
    """
    d, psi = ens.n, _kets(ens)[0]
    v0 = np.einsum("i,j,k->ijk", psi, psi, psi).ravel()
    cost, ops = [], []
    for _, run in groupby(_character_blocks(d), key=len):  # one group per run of equal sizes
        ix = np.array(list(run))
        cost.append(outer(v0[ix]))
        # row k is diag(j == k) on every block, with j the input index of each ket |i j l>
        ops.append((ix // d % d == np.arange(d)[:, None, None])[..., None] * np.eye(ix.shape[1]))
    return sdp.SdpProblem(cost, ops, np.ones(d))


def optimal_cloner(ens: DpsEnsemble) -> CloningResult:
    """Solve for the optimal symmetric cloning channel of a pure-state
    ensemble on the sign orbit of its state 0, such as a DPS ensemble.

    An ensemble of density operators, or one outside n delta <= ``_KKT_TOL``
    (see :func:`_covariance_residual`), raises ``ValueError``.  Its one
    problem is the character-block :func:`cloning_problem`, certified
    through :func:`_reduced_kkt` and solved only when the top-eigenspace
    candidate fails (see :func:`_reduced_optimum`), and the clones are read
    off the blocks (see :func:`_block_clones`); no d**3 x d**3 problem or
    operator is built.  For the DPS states n blocks share the top
    eigenvalue (3n-2)/n**3, one per character t -> t_m, and unit weights on
    them give the trace-preserving optimum of two-copy fidelity
    (3n-2)/n**2.
    """
    _kets(ens)  # density operators raise before the covariance check
    delta = _covariance_residual(ens)
    if not ens.n * delta <= _KKT_TOL:
        raise ValueError("the optimal cloner needs a sign-covariant ensemble")
    problem = cloning_problem(ens)
    solution, kkt = _reduced_optimum(problem, delta)
    bob_states, eve_states, two_copy = _block_clones(solution, ens.states[0])
    fids = np.einsum("gi,gij,gj->g", ens.states, bob_states, ens.states).tolist()
    return CloningResult(
        avg_two_copy_fidelity=two_copy,
        per_state_clone_fidelity=fids, bob_states=bob_states,
        eve_states=eve_states, problem=problem, solution=solution, kkt=kkt,
    )


@lru_cache(maxsize=None)
def _character_blocks(d: int) -> tuple[np.ndarray, ...]:
    """Ket indices of the character blocks of (out) x (in) x (out).

    The sign group acts on the Choi operator as U_g x conj(U_g) x U_g, which
    multiplies the basis ket |i j k> by s_g(i) s_g(j) s_g(k).  Kets with the
    same sign function g -> s_g(i) s_g(j) s_g(k) span one block of an
    invariant Choi operator (Gatermann & Parrilo, J. Pure Appl. Algebra 192,
    2004).  The sign patterns multiply as their indices XOR,
    s_{g^h} = s_g * s_h, so that sign function is a character of the group
    and is fixed by its values on the d-1 generators g = 1 << m; each ket is
    labelled by those.  Blocks are listed in order of their first ket.
    Shared and read-only, like :func:`~dpsqkd.dps.sign_patterns`.
    """
    signs = sign_patterns(d)[1 << np.arange(d - 1)]
    labels = np.einsum("gi,gj,gk->ijkg", signs, signs, signs).reshape(d ** 3, -1)
    _, first, inverse = np.unique(labels, axis=0, return_index=True, return_inverse=True)
    inverse = inverse.ravel()
    blocks = tuple(np.flatnonzero(inverse == b) for b in np.argsort(first))
    for ix in blocks:
        ix.flags.writeable = False
    return blocks


def _block_clones(solution: sdp.SdpSolution, psi: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, float]:
    """(Bob's clones, Eve's clones, two-copy fidelity) of a character-block
    cloner optimum; ``psi`` is state 0 of the ensemble.

    The blocks of the stacks of ``solution.x``, in order, are those of
    :func:`_character_blocks`.  Negative eigenvalues are clipped one stack
    at a time.  The joint output of rho = |psi><psi|,
    out[(i k), (a c)] = sum_{j l} J[(i j k), (a l c)] rho[j, l], is read
    off the clipped blocks X_b, without forming J: given
    i and k, the input index j fixes the sign label of |i j k>, so the kets
    of one block have distinct output pairs (i k), and X_b adds its
    entrywise product with rho[j, l] at its own pairs.  The partial traces
    of the joint output are Bob's and Eve's clones of ``psi``.  A
    block-diagonal Choi operator is invariant under the sign group, so
    Bob_g = U_g Bob_0 U_g^dagger, likewise Eve_g, and every state has the
    two-copy fidelity <psi psi|joint|psi psi>.
    """
    d, rho = psi.size, outer(psi)
    joint = np.zeros((d * d, d * d))
    clipped = (xb for xg in solution.x for xb in _project_psd(xg))
    for ix, xb in zip(_character_blocks(d), clipped):
        pairs, j = ix // (d * d) * d + ix % d, ix // d % d  # (i k) and j of each ket |i j k>
        joint[pairs[:, None], pairs] += xb * rho[j[:, None], j]
    pair = np.kron(psi, psi)
    signs = sign_patterns(d)
    bob, eve = (signs[:, :, None] * partial_trace(joint, [d, d], keep=[k]) * signs[:, None, :]
                for k in (0, 1))
    return bob, eve, float(pair @ joint @ pair)


def depolarizing_fit(original: np.ndarray, cloned: np.ndarray) -> tuple[float, float]:
    """Least-squares fit of cloned ~ (1-p) original + (p/d) I.

    Both are (d, d) operators of one shape, else ``ValueError``.  Returns
    the fitted p and the Frobenius residual of the fit.
    """
    original, cloned = real_array(original, "original"), real_array(cloned, "clone")
    if original.ndim != 2 or original.shape != cloned.shape or len(set(original.shape)) != 1:
        raise ValueError("operators must share a dimension: two (d, d) arrays")
    d = len(original)
    a, b = original - np.eye(d) / d, cloned - np.eye(d) / d
    denom = float(np.vdot(a, a))
    if denom <= 1e-15:
        # original already maximally mixed: any p fits, residual is direct
        return 0.0, float(np.linalg.norm(cloned - original))
    p = 1.0 - float(np.vdot(a, b)) / denom
    resid = float(np.linalg.norm(cloned - ((1.0 - p) * original + p / d * np.eye(d))))
    return p, resid


# ---------------------------------------------------------------------------
# unitary symmetric cloner
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class UnitaryClonerParams:
    """Symmetric cloning isometry on the orthonormal basis kets {e_i}, the
    rows of the (d, d) array ``basis`` (stored as a read-only float64 copy):

        |e_i>|0>|X>  ->  p |e_i>|e_i>|X_i>
                         + q sum_{j != i} (|e_i>|e_j> + |e_j>|e_i>) |X_j>,

    with p**2 + 2(d-1) q**2 = 1 fixing p from q (unitarity).  The machine
    register states X_j are orthonormal labels and never materialise.
    """

    q: float
    basis: np.ndarray

    def __post_init__(self) -> None:
        b = real_array(self.basis, "basis kets")
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError("basis must be a (d, d) array of d kets")
        if len(b) < 2:
            raise ValueError("a cloning basis needs at least two kets")
        if not float(np.max(np.abs(b @ b.T - np.eye(len(b))))) <= 1e-10:  # NaN fails
            raise ValueError("basis is not orthonormal")
        b.flags.writeable = False
        object.__setattr__(self, "basis", b)
        if not 0.0 <= self.q <= 1.0 / math.sqrt(2.0 * (self.d - 1)):
            raise ValueError("cloning coefficient out of the unitary range")

    @property
    def d(self) -> int:
        return len(self.basis)

    @property
    def p(self) -> float:
        return math.sqrt(max(0.0, 1.0 - 2.0 * (self.d - 1) * self.q ** 2))

    def unitarity_residual(self) -> float:
        return abs(self.p ** 2 + 2.0 * (self.d - 1) * self.q ** 2 - 1.0)


def aligned_cloning_basis(ensemble: DpsEnsemble) -> np.ndarray:
    """Orthonormal basis, as the rows of an (n, n) array, whose first vector
    is the all-plus ensemble state.

    Aligning the basis with one ensemble state maximises the fourth powers of
    the expansion coefficients, which is where the symmetric cloner performs
    best.  The remaining vectors complete the basis by Gram-Schmidt and are
    sign-normalised so the first non-zero component is positive.
    """
    vecs = [_kets(ensemble)[0]]
    n = ensemble.n
    for cand_idx in range(n - 1, -1, -1):
        if len(vecs) == n:
            break
        cand = np.zeros(n)
        cand[cand_idx] = 1.0
        for v in vecs:
            cand = cand - (v @ cand) * v
        nrm = np.linalg.norm(cand)
        if nrm < 1e-9:
            continue
        cand = cand / nrm
        if cand[np.argmax(np.abs(cand) > 1e-12)] < -1e-12:  # the first nonzero entry
            cand = -cand
        vecs.append(cand)
    return np.array(vecs)


def apply_unitary_cloner(params: UnitaryClonerParams, kets: np.ndarray) -> np.ndarray:
    """(G, d, d) stack of the clones of a (G, d) stack of normalised kets.

    Bob's and Eve's clones are equal, by the isometry's swap symmetry.  With
    c_g = <e|psi_g> in the cloning basis and r = p - 2q, machine label X_k
    carries the (bob, eve) amplitude matrix M_k = q (c e_k^T + e_k c^T)
    + r c_k e_k e_k^T in that basis.  Each M_k is symmetric, so both clones
    are sum_k M_k M_k^dagger, which expands with |c| = 1 to

        ((d+2) q^2 + 2qr) |psi><psi| + q^2 I + (2qr + r^2) sum_a |c_a|^2 |e_a><e_a|,

    of trace 2(d-1) q^2 + p^2 = 1.
    """
    kets = real_array(kets, "input kets")
    if kets.ndim != 2 or kets.shape[1] != params.d:
        raise ValueError(f"input kets must be a (G, {params.d}) stack, got shape {kets.shape}")
    if not np.all(np.abs(np.linalg.norm(kets, axis=-1) - 1.0) <= 1e-9):  # NaN fails
        raise ValueError("input kets must be normalised")
    e, d, q = params.basis, params.d, params.q
    r = params.p - 2.0 * q
    w = (kets @ e.T) ** 2
    return (((d + 2) * q * q + 2.0 * q * r) * outer(kets)
            + q * q * np.eye(d) + (2.0 * q * r + r * r) * ((e.T * w[:, None, :]) @ e))


def optimize_unitary_q(ens: DpsEnsemble) -> tuple[float, float]:
    """Exact maximum of the mean single-clone fidelity over the cloning
    coefficient, in the basis of :func:`aligned_cloning_basis`.

    With w_gj = |<e_j|psi_g>|^2, the clone of psi_g has fidelity
    F_g = sum_j (p w_gj + q (1 - w_gj))^2 + q^2 w_gj (1 - w_gj), so the mean
    fidelity is the quadratic form [p q] G [p q]^T with G >= 0 entrywise,
    maximised on the unitarity ellipse p^2 + 2(d-1) q^2 = 1.  The optimum is
    the top eigenvector of D^(-1/2) G D^(-1/2), D = diag(1, 2(d-1)); by
    Perron-Frobenius it can be taken non-negative, so it lies on the feasible
    quarter-ellipse.  Returns (q_opt, avg_fidelity).
    """
    w = (_kets(ens) @ aligned_cloning_basis(ens).T) ** 2
    terms = np.stack([w * w, w * (1.0 - w), 1.0 - w]).sum(axis=2)
    a, b, c = terms @ ens.priors
    r = 1.0 / math.sqrt(2.0 * (ens.n - 1))
    lam, vecs = np.linalg.eigh(np.array([[a, b * r], [b * r, c * r * r]]))
    return float(r * abs(vecs[1, -1])), float(lam[-1])


# ---------------------------------------------------------------------------
# post-cloning discrimination and attack profiles
# ---------------------------------------------------------------------------

def med_on_cloned(ens: DpsEnsemble, clones: np.ndarray) -> MedResult:
    """Minimum-error discrimination of the clones of the states of ``ens``,
    with its priors and key bits."""
    return med_attack(replace(ens, states=clones))


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


class UncertifiedOptimumError(sdp.SdpError):
    """An attack optimum failed its KKT certificate: on its full problem, or
    through the reduced certificate that implies it."""


_Result = TypeVar("_Result", MedResult, CloningResult)


def certified(attack: str, build: Callable[..., _Result], *args) -> _Result:
    """Return ``build(*args)`` if its KKT certificate passed.

    Otherwise raise :class:`UncertifiedOptimumError` naming the attack and
    the failing KKT conditions, so an uncertified optimum never reaches a
    key rate or a report.  A solver failure inside ``build`` is re-raised as
    the same class with the attack's name in front of its message.
    """
    try:
        result = build(*args)
    except sdp.SdpError as exc:
        raise type(exc)(f"{attack}: {exc}") from exc
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
    bob_states: np.ndarray
    med_after: MedResult

    def ber(self, conditional: bool = False) -> list[float]:
        """Bit-error rate of each of Bob's clones against its state's key bits:
        the wrong-port click probability over the key slots, divided by the
        key-slot click probability when ``conditional``, read off the whole
        certified stack in one call of :func:`dpsqkd.dps._key_slot_ber`."""
        return _key_slot_ber(self.bob_states, self.ensemble.bit_map, conditional).tolist()

    @property
    def profile(self) -> AttackProfile:
        """Cloning disturbs every frame it touches: the error is the mean
        detection-conditioned BER of Bob's clones, the collision from ``med_after``."""
        return AttackProfile(name=self.name,
                             per_intercept_error=float(np.mean(self.ber(conditional=True))),
                             per_attacked_bit_collision=self.med_after.collision_probability)


def optimal_cloning_attack(ens: DpsEnsemble) -> CloningAttack:
    """The optimal cloner, followed by MED of Eve's clones."""
    clone = certified("optimal cloner", optimal_cloner, ens)
    med_after = certified("MED after optimal cloning", med_on_cloned, ens, clone.eve_states)
    return CloningAttack(name="cloning", ensemble=ens, cloner=clone,
                         fidelity=clone.avg_two_copy_fidelity,
                         bob_states=clone.bob_states, med_after=med_after)


def unitary_cloning_attack(ens: DpsEnsemble) -> CloningAttack:
    """The unitary cloner at its optimal coefficient in the aligned basis, then
    MED of the clones, which the symmetric isometry makes equal for Bob and Eve."""
    q_opt, fidelity = optimize_unitary_q(ens)
    params = UnitaryClonerParams(q=q_opt, basis=aligned_cloning_basis(ens))
    bobs = apply_unitary_cloner(params, ens.states)
    med_after = certified("MED after unitary cloning", med_on_cloned, ens, bobs)
    return CloningAttack(name="unitary", ensemble=ens, cloner=params, fidelity=fidelity,
                         bob_states=bobs, med_after=med_after)


def _med_profile(ens: DpsEnsemble) -> AttackProfile:
    """MED errs with the state-level probability 1 - p_success per intercepted frame."""
    med = certified("med", med_attack, ens)
    return AttackProfile(name="med", per_intercept_error=1.0 - med.p_success,
                         per_attacked_bit_collision=med.collision_probability)


# Each explicit attack by name, as a builder ensemble -> key-rate profile, in
# the order of :data:`dpsqkd.keyrate.EXPLICIT_ATTACKS`.
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

