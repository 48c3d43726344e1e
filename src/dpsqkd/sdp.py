"""Primal-dual interior-point solver for small dense semidefinite programs.

Problems are stated in primal standard form over Hermitian blocks:

    maximize    sum_b <C_b, X_b>
    subject to  sum_b <A_{j,b}, X_b> = r_j      (j = 1..m)
                X_b >= 0,

with <A, B> = Tr(A B) the Hilbert-Schmidt inner product of Hermitian
operators.  The dual reads

    minimize    sum_j r_j y_j
    subject to  Z_b := sum_j y_j A_{j,b} - C_b >= 0.

The solver follows the central path with Nesterov-Todd scaling: one Newton
step per iteration toward X Z = sigma*mu*I, step lengths clipped by a 0.98
fraction-to-boundary rule.  Runs are reproducible bit for bit.

A problem comes in the form the solver runs on: its blocks in groups, each
group of B blocks of one dimension d given as one (B, d, d) stack of cost
operators and one (m, B, d, d) stack of constraint operators.  Every
operator the iteration touches (iterates, residuals, search directions) is
held as one (B, d, d) stack per group: scaling, step lengths and inverses
run once per group, not once per block.  A constraint stack of shape
(m, 1, d, d) holds one operator per constraint that acts on every block of
its group, as the POVM completeness constraints do.  The constraint map
A(X)_j = sum_b <A_{j,b}, X_b> and its adjoint A*(y)_b = sum_j y_j A_{j,b}
are real matrix-vector products on the real view of the stacks, since
Re Tr(A H) of Hermitian A and H is the real dot product of their entries;
on a shared stack A(X) pairs A_j with sum_b X_b and A*(y) is one (d, d)
operator broadcast over the blocks.
The NT operator X -> W X W is applied, never stored.  The Schur complement
M_ij = sum_b <A_{i,b}, W_b A_{j,b} W_b> (Todd, Toh & Tutuncu, SIAM J.
Optim. 8, 1998) is assembled without a loop over constraints.  On a shared
group it is Re(A K A^T), with A the (m, d^2) operator matrix and
K = sum_b W_b^T (x) W_b, its indices permuted to match A: one (d^2, B) x
(B, d^2) product, O(B d^4) time where the columns would cost O(m B d^3).
Any other group forms W A_j W for every column j in one batched product,
as many entries as its stored constraint operators, and pairs it with
every A_i in one real matrix product; a d x d block costs O(m d^3) time
per iteration, where a stored d^2 x d^2 operator would cost O(d^6).  Per
group and iteration the only LAPACK calls on the block stacks are two
``eigh``, of Z and of the scaled X, and two ``eigvalsh``: the two
eigendecompositions give W, the centring term's Z^-1 and inverse factors
of X and Z, from which each step length is one ``eigvalsh`` (see
:func:`_nt_scaling`).  They are also the iteration's only cone checks.
The constraint count m is small, so all linear algebra is dense.

Real data are solved in real arithmetic.  When every objective and
constraint operator of a problem is real, decided once over all its
stacks, the problem stores float64 stacks, and the iterates, the constraint map
and :func:`verify_kkt` stay real; otherwise every stack is complex128.
This is sound.  Take real C_b and A_{j,b}, and the complex problem that
adds purely imaginary constraint operators i S (S real antisymmetric) of
right-hand side zero, as the full completeness basis does.  For real
symmetric A and Hermitian X, Tr(A X) = Tr(A Re X), since Im X is antisymmetric, and
Re X = (X + conj X)/2 is PSD when X is; so Re X of a complex optimum is
feasible for the real problem with the same objective.  A real X meets
every row Tr(i S X) = 0, so the two optima are equal.  A real dual (y, Z)
is a complex dual with zero multipliers on the imaginary rows, the same Z
and the same value, so a real certificate certifies the complex problem
too.  :func:`povm_completeness_constraints` accordingly states, for real
data, only the real symmetric rows, the prefix of its basis.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .linalg import ATOL_ALGEBRA, dagger, hermitian_part


class SdpError(RuntimeError):
    """Base class for solver failures."""


class MaxIterationsError(SdpError):
    """The iteration limit was reached before convergence."""


class NumericalBreakdownError(SdpError):
    """The Newton system or a scaling factorisation became indefinite."""


class InfeasibleConstraintsError(SdpError):
    """Constraint rows are rank deficient or mutually inconsistent."""


# Convergence: relative duality gap, relative primal and dual infeasibility.
GAP_TOL = 1e-7
PRIMAL_FEAS_TOL = 1e-9
DUAL_FEAS_TOL = 1e-8
STEP_FRACTION = 0.98  # fraction-to-boundary rule
MAX_ITERATIONS = 200


# ---------------------------------------------------------------------------
# problem and solution containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Group:
    """One group of B blocks of dimension d, as the solver holds it.

    ``ops[j, k]`` is the operator of constraint j on block k, ``cost[k]``
    its objective operator.  A group whose ``ops`` is (m, 1, d, d) with
    B > 1 is shared: ``ops[j, 0]`` acts on every block.  Both stacks are
    float64 when the problem's data are real, else complex128.
    """

    ops: np.ndarray
    cost: np.ndarray

    @property
    def d(self) -> int:
        return self.cost.shape[-1]

    @property
    def shared(self) -> bool:
        """Whether ``ops[:, 0]`` acts on every one of several blocks."""
        return self.ops.shape[1] < len(self.cost)

    @property
    def real(self) -> bool:
        """Whether the data are real, stored as float64 stacks."""
        return self.cost.dtype == float

    @property
    def rows(self) -> np.ndarray:
        """``ops`` as m real rows, a view: row j holds the entries of
        constraint j's operators on the group, as real and imaginary parts
        when they are complex."""
        return self.ops.reshape(len(self.ops), self.ops.shape[1] * self.d ** 2).view(float)


@dataclass
class SdpProblem:
    """Standard-form SDP over groups of Hermitian PSD blocks.

    ``cost[g]`` is the (B, d, d) stack of the objective operators of group
    g's B blocks of dimension d, and ``ops[g]`` the (m, B, d, d) stack of
    their constraint operators: ``ops[g][j, k]`` is A_{j,b} of constraint j
    on block k of the group, zero where the constraint does not touch it.
    An (m, 1, d, d) stack holds one operator per constraint acting on every
    block of the group, stored, checked and rank-tested once.  ``rhs``
    holds the m right-hand sides.  The blocks are ordered by group, then
    within each stack; groups may share a dimension.  The fields keep the
    stacks as given.

    Construction checks the shapes, that every right-hand side is finite,
    that every operator is Hermitian to ATOL_ALGEBRA relative to its
    largest entry, and that the constraint rows are linearly independent as
    Hermitian operators, tested on their real rows.  It also copies the
    stacks once for the solver: float64 when every operator of every stack
    is real, complex128 otherwise.  The solver and :func:`verify_kkt` read
    only these copies.
    """

    cost: Sequence[np.ndarray]
    ops: Sequence[np.ndarray]
    rhs: Sequence[float]

    def __post_init__(self) -> None:
        self._b = np.array(self.rhs, dtype=float)
        if self._b.ndim != 1 or len(self.cost) != len(self.ops):
            raise ValueError("a problem takes one cost and one constraint stack per group "
                             "and a vector of right-hand sides")
        if not all(map(math.isfinite, self._b.tolist())):
            raise ValueError("right-hand sides must be finite")
        m = self._b.size
        cost, ops = [np.asarray(c) for c in self.cost], [np.asarray(a) for a in self.ops]
        for g, (c, a) in enumerate(zip(cost, ops)):
            if c.ndim != 3 or c.shape[1] != c.shape[2] or 0 in c.shape:
                raise ValueError(f"cost stack {g} has shape {c.shape}, expected (B, d, d)")
            if a.shape not in ((m, *c.shape), (m, 1, *c.shape[1:])):
                raise ValueError(f"constraint stack {g} has shape {a.shape}, expected "
                                 f"({m}, {len(c)} or 1, {c.shape[1]}, {c.shape[2]})")
        real = not any(np.iscomplexobj(s) and s.imag.any() for s in cost + ops)
        cost, ops = ([np.array(np.real(s) if real else s, dtype=float if real else complex)
                      for s in stacks] for stacks in (cost, ops))
        for role, stacks in (("cost", cost), ("constraint", ops)):
            for g, stack in enumerate(stacks):
                asym = np.max(np.abs(stack - dagger(stack)), axis=(-2, -1))
                scale = np.maximum(1.0, np.max(np.abs(stack), axis=(-2, -1)))
                ok = asym <= ATOL_ALGEBRA * scale  # NaN fails too
                if not ok.all():
                    raise ValueError(f"{role} stack {g} is not Hermitian at index "
                                     f"{', '.join(map(str, np.argwhere(~ok)[0]))}")
        self._groups = [_Group(a, c) for c, a in zip(cost, ops)]
        if m:
            # the real rows have the Gram matrix Re Tr(A_i A_j) of the
            # operators, hence their singular values; LAPACK finds them two
            # to three times faster on the tall transpose
            a = np.concatenate([g.rows for g in self._groups], axis=1)
            rank = np.linalg.matrix_rank(a.T, tol=1e-9 * max(1.0, float(np.max(np.abs(a)))))
            if rank < m:
                raise InfeasibleConstraintsError(
                    f"constraint rows are rank deficient ({rank} < {m})"
                )


@dataclass
class SdpSolution:
    """A primal/dual pair and how the solver reached it.

    A pair found without a solve, such as the top-eigenspace optima of
    :mod:`dpsqkd.attacks`, has ``iterations`` 0 and an empty ``iterates``.
    Otherwise ``iterates`` holds one record per iteration, the converged one
    last, with keys ``iteration``, ``mu``, ``gap``, ``primal_infeasibility``
    and ``dual_infeasibility``.  Every record but the last also holds the step
    taken from it: ``alpha_p``, ``alpha_d``, ``sigma``, and the seconds spent
    on the NT scaling, its factors and the centring term (``scaling_s``), on
    assembling and factorising the Schur complement and solving for the
    direction (``schur_s``), and on the step lengths, one ``eigvalsh`` each
    for X and Z, and the update (``step_s``).  ``x`` holds one (B, d, d)
    stack per group of the problem, in its order; the solve returns it in
    the problem's dtype: float64 on real data.  The dual slack is not stored:
    Z_b = sum_j y_j A_{j,b} - C_b follows from ``y``, and :func:`verify_kkt`
    recomputes it.
    """

    x: list[np.ndarray]
    y: np.ndarray
    primal_objective: float
    dual_objective: float
    gap: float
    iterations: int
    iterates: list[dict[str, float]] = field(default_factory=list)


@dataclass
class KktReport:
    """Residuals of the optimality conditions of a candidate primal/dual pair."""

    equality_residual: float
    primal_min_eigenvalue: float
    dual_min_eigenvalue: float
    complementary_slackness: float
    duality_gap: float
    tol: float
    conditions: dict[str, bool] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.conditions.values())


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def _apply(groups: Sequence[_Group], x: Sequence[np.ndarray]) -> np.ndarray:
    """A(X)_j = sum_b Re<A_{j,b}, X_b> for one (B, d, d) stack per group, in
    the problem's dtype.

    Re Tr(A X) = Re sum_kl A_kl conj(X_kl) for Hermitian A, a real dot
    product of the real views: one matrix-vector product per group.  A
    shared group pairs A_j with sum_b X_b.
    """
    return sum(g.rows @ (np.add.reduce(xg) if g.shared else xg).reshape(-1).view(float)
               for g, xg in zip(groups, x))


def _adjoint(groups: Sequence[_Group], y: np.ndarray) -> list[np.ndarray]:
    """A*(y)_b = sum_j y_j A_{j,b} as one (B, d, d) stack per group; for a
    shared group one (1, d, d) operator, which broadcasts over the blocks."""
    return [(y @ g.rows).view(g.ops.dtype).reshape(g.ops.shape[1:]) for g in groups]


def _norm(stacks: Sequence[np.ndarray]) -> float:
    """Frobenius norm over all blocks of all stacks."""
    return float(np.sqrt(sum(np.vdot(s, s).real for s in stacks)))


def _nt_scaling(x: np.ndarray, z: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(W, Z^-1, L_x^-1, L_z^-1) of Hermitian (B, d, d) stacks X and Z, from
    one eigendecomposition of Z and one of R X R^H.

    With Z = V diag(s)^2 V^H, let R = diag(s) V^H, so that Z = R^H R, and
    let M = R X R^H = U diag(m) U^H; X > 0 iff m > 0.  With G = R^-1 U, the
    NT point is W = R^-1 M^(1/2) R^-H = G diag(m)^(1/2) G^H, since then
    W Z W = R^-1 M R^-H = X.  The same factors give the centring term's
    Z^-1 = V diag(s)^-2 V^H and the step lengths' inverse factors
    L_x^-1 = diag(m)^(-1/2) U^H R of X = L_x L_x^H and L_z^-1 = R^-H of
    Z = L_z L_z^H.  These two eigendecompositions are the iteration's
    only cone checks.
    """
    wz, vz = np.linalg.eigh(z)
    if wz[:, 0].min() <= 0:
        raise NumericalBreakdownError("dual iterate left the cone")
    s, vzh = np.sqrt(wz)[:, :, None], dagger(vz)
    r, lz = s * vzh, vzh / s
    wm, vm = np.linalg.eigh(r @ x @ dagger(r))
    if wm[:, 0].min() <= 0:
        raise NumericalBreakdownError("primal iterate left the cone")
    g = dagger(lz) @ vm
    sm = np.sqrt(wm)
    return ((g * sm[:, None, :]) @ dagger(g), dagger(lz) @ lz,
            (dagger(vm) @ r) / sm[:, :, None], lz)


def _schur(groups: Sequence[_Group], w: Sequence[np.ndarray], m: int) -> np.ndarray:
    """M_ij = sum_b Re<A_{i,b}, W_b A_{j,b} W_b> over all groups, unsymmetrised.

    A shared group contributes Re(A K A^T) with A = ops as (m, d^2) rows and
    K[(k,l),(p,q)] = sum_b W_b[l,p] W_b[q,k], so (A K A^T)_ij is
    sum_b Tr(A_i W_b A_j W_b); K has d^4 entries, as many as M itself for the
    d^2 completeness operators.  Any other group forms W A_j W for every
    column j at once and pairs it with every A_i as :func:`_apply` does.
    """
    schur = np.zeros((m, m))
    for g, wg in zip(groups, w):
        d2 = g.d ** 2
        if g.shared:
            a = g.ops.reshape(m, d2)
            wf = wg.reshape(len(wg), d2)
            k = (wf.T @ wf).reshape((g.d,) * 4).transpose(3, 0, 1, 2).reshape(d2, d2)
            schur += (a @ k @ a.T).real
            continue
        t = (wg @ g.ops @ wg).reshape(m, g.ops.shape[1] * d2)
        schur += g.rows @ t.view(float).T
    return schur


def _max_step(linv: np.ndarray, d: np.ndarray) -> float:
    """sup {a : L_b L_b^H + a d_b >= 0 for every b}, given the inverse
    factors L_b^-1 of a (B, d, d) stack of Hermitian PD operators."""
    lam = float(np.linalg.eigvalsh(linv @ d @ dagger(linv))[:, 0].min())
    return np.inf if lam >= -1e-14 else -1.0 / lam


def _last(gap: float, pinf: float, dinf: float) -> str:
    return (f"last iterate: gap {gap:.3e}, primal infeasibility {pinf:.3e}, "
            f"dual infeasibility {dinf:.3e}")


def solve(problem: SdpProblem) -> SdpSolution:
    """Solve the block SDP; deterministic for identical inputs.

    Converges when the duality gap is within GAP_TOL of 1 + |primal
    objective| and the primal and dual residuals, relative to 1 + |r| and
    1 + |C|, are within PRIMAL_FEAS_TOL and DUAL_FEAS_TOL.  Raises
    :class:`MaxIterationsError` after MAX_ITERATIONS iterations,
    :class:`NumericalBreakdownError`, also for any LAPACK failure, or
    :class:`InfeasibleConstraintsError`.
    """
    groups, b = problem._groups, problem._b
    m = b.size
    r_inf = float(np.max(np.abs(b), initial=0.0))
    x = [np.tile(np.eye(g.d, dtype=g.cost.dtype) * (1.0 + r_inf), (len(g.cost), 1, 1))
         for g in groups]
    z = [np.tile(np.eye(g.d, dtype=g.cost.dtype), (len(g.cost), 1, 1)) for g in groups]
    y = np.zeros(m)
    reg = 1e-14 * np.eye(m)

    total_dim = sum(g.d * len(g.cost) for g in groups)
    b_scale = 1.0 + float(np.linalg.norm(b))
    c_scale = 1.0 + _norm([g.cost for g in groups])
    iterates: list[dict[str, float]] = []
    alpha_prev = 1.0
    gap = pinf = dinf = np.nan  # reported if no iteration runs

    for it in range(MAX_ITERATIONS):
        pobj = sum(float(np.vdot(g.cost, xg).real) for g, xg in zip(groups, x))
        dobj = float(b @ y)
        rp = b - _apply(groups, x)
        rd = [g.cost - a + zg for g, a, zg in zip(groups, _adjoint(groups, y), z)]
        mu = sum(float(np.vdot(zg, xg).real) for xg, zg in zip(x, z)) / total_dim
        gap = abs(pobj - dobj)
        pinf = float(np.linalg.norm(rp)) / b_scale
        dinf = _norm(rd) / c_scale
        iterates.append({"iteration": it, "mu": mu, "gap": gap,
                         "primal_infeasibility": pinf, "dual_infeasibility": dinf})
        if (gap <= GAP_TOL * (1.0 + abs(pobj))
                and pinf <= PRIMAL_FEAS_TOL and dinf <= DUAL_FEAS_TOL):
            break

        t0 = time.perf_counter()
        # a LAPACK failure, such as a Schur complement that lost positive
        # definiteness, is a breakdown, so that callers catching SdpError see it
        try:
            w, zinv, lx, lz = zip(*(_nt_scaling(xg, zg) for xg, zg in zip(x, z)))
            sigma = float(np.clip((1.0 - alpha_prev) ** 2, 0.05, 0.8))
            rc = [sigma * mu * zi - xg for xg, zi in zip(x, zinv)]
            t1 = time.perf_counter()
            schur = _schur(groups, w, m)
            ls = np.linalg.cholesky((schur + schur.T) / 2 + reg)
            rhs = _apply(groups, [r + wg @ d @ wg for r, wg, d in zip(rc, w, rd)]) - rp
            dy = np.linalg.solve(ls.T, np.linalg.solve(ls, rhs))
            dz = [a - d for a, d in zip(_adjoint(groups, dy), rd)]
            dx = [r - wg @ d @ wg for r, wg, d in zip(rc, w, dz)]
            t2 = time.perf_counter()

            alpha_p = min([1.0] + [STEP_FRACTION * _max_step(f, d) for f, d in zip(lx, dx)])
            alpha_d = min([1.0] + [STEP_FRACTION * _max_step(f, d) for f, d in zip(lz, dz)])
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdownError(
                f"LAPACK failed in iteration {it} ({exc}); {_last(gap, pinf, dinf)}") from exc
        if max(alpha_p, alpha_d) < 1e-10:
            raise NumericalBreakdownError("step lengths collapsed")
        alpha_prev = min(alpha_p, alpha_d)

        x = [xg + alpha_p * d for xg, d in zip(x, dx)]
        z = [zg + alpha_d * d for zg, d in zip(z, dz)]
        y = y + alpha_d * dy
        iterates[-1].update(alpha_p=alpha_p, alpha_d=alpha_d, sigma=sigma,
                            scaling_s=t1 - t0, schur_s=t2 - t1,
                            step_s=time.perf_counter() - t2)
    else:
        last = _last(gap, pinf, dinf)
        status = MaxIterationsError(
            f"no convergence within {MAX_ITERATIONS} iterations; {last}")
        if float(np.linalg.norm(b - _apply(groups, x))) / b_scale > 1e-5:
            raise InfeasibleConstraintsError(
                f"equality residual stalled; constraints look inconsistent; {last}") from status
        raise status

    return SdpSolution(
        x=[hermitian_part(xg) for xg in x], y=y.copy(),
        primal_objective=pobj, dual_objective=dobj, gap=gap,
        iterations=len(iterates), iterates=iterates,
    )


def verify_kkt(problem: SdpProblem, solution: SdpSolution, tol: float = 1e-7) -> KktReport:
    """Check a primal/dual pair against the optimality conditions.

    The dual slack is computed from the multipliers as
    ``Z_b = sum_j y_j A_{j,b} - C_b``, so the pair is checked on ``x`` and
    ``y`` alone.  Complementary slackness is the
    largest |<X_b, Z_b>| across blocks.  On real data the check runs in real
    arithmetic on Re X_b, which alone enters the equalities, the objective
    and <X_b, Z_b>; a complex X_b = Re X_b + i Im X_b, with i Im X_b
    Hermitian, has eig_min(X_b) >= eig_min(Re X_b) - ||Im X||_F by Weyl's
    inequality, with the norm over the blocks of X_b's dimension, and
    ``primal_min_eigenvalue`` is this lower bound, exact for a real X.
    """
    groups = problem._groups
    if len(solution.x) != len(groups) or len(solution.y) != problem._b.size:
        raise ValueError("solution shapes do not match the problem")
    wrong = [g for g, (xg, group) in enumerate(zip(solution.x, groups))
             if np.shape(xg) != group.cost.shape]
    if wrong:
        raise ValueError(f"primal stack {wrong[0]} has wrong shape")

    y = np.asarray(solution.y, dtype=float)
    x = [np.array(xg, dtype=complex) for xg in solution.x]
    # on real data Im X enters only as a Weyl bound on the primal eigenvalues
    spread = [_norm([xg.imag]) if g.real else 0.0 for g, xg in zip(groups, x)]
    x = [xg.real.copy() if g.real else xg for g, xg in zip(groups, x)]
    z = [a - g.cost for g, a in zip(groups, _adjoint(groups, y))]
    pmin = dmin = np.inf
    slack = pobj = 0.0
    for g, xg, zg, sg in zip(groups, x, z, spread):
        pmin = min(pmin, float(np.min(np.linalg.eigvalsh(hermitian_part(xg))[:, 0] - sg)))
        dmin = min(dmin, float(np.min(np.linalg.eigvalsh(hermitian_part(zg))[:, 0])))
        slack = max(slack, float(np.max(np.abs(np.einsum("bkl,blk->b", xg, zg).real))))
        pobj += float(np.einsum("bkl,blk->", g.cost, xg).real)
    eq_res = float(np.max(np.abs(_apply(groups, x) - problem._b), initial=0.0))
    dobj = float(problem._b @ y)

    conditions = {
        "primal_equalities": eq_res <= tol,
        "primal_psd": pmin >= -tol,
        "dual_psd": dmin >= -tol,
        "complementary_slackness": slack <= tol * (1.0 + abs(pobj)),
        "duality_gap": abs(pobj - dobj) <= tol * (1.0 + abs(pobj)),
    }
    return KktReport(
        equality_residual=eq_res, primal_min_eigenvalue=pmin,
        dual_min_eigenvalue=dmin, complementary_slackness=slack,
        duality_gap=abs(pobj - dobj), tol=tol, conditions=conditions,
    )


# ---------------------------------------------------------------------------
# completeness constraints
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _completeness_basis(d: int) -> np.ndarray:
    """The operators of :func:`povm_completeness_constraints` as a read-only
    (d**2, 1, d, d) stack; computed once per d."""
    iu, ju = np.triu_indices(d, 1)
    diag, sym = np.arange(d), d + np.arange(iu.size)
    anti = sym + iu.size
    basis = np.zeros((d * d, 1, d, d), dtype=complex)
    basis[diag, 0, diag, diag] = 1.0
    basis[sym, 0, iu, ju] = basis[sym, 0, ju, iu] = 1.0 / np.sqrt(2.0)
    basis[anti, 0, iu, ju] = 1j / np.sqrt(2.0)
    basis[anti, 0, ju, iu] = -1j / np.sqrt(2.0)
    basis.flags.writeable = False
    return basis


def povm_completeness_constraints(dim: int, real: bool = False
                                  ) -> tuple[np.ndarray, np.ndarray]:
    """(ops, rhs) of the constraints stating that the blocks of a group of
    dimension ``dim`` sum to the identity on C^dim: ``ops`` is the
    (m, 1, dim, dim) constraint stack of one shared operator per element of
    an orthonormal Hermitian basis B_j, acting on every block of the group,
    and ``rhs`` holds Tr(B_j) = <B_j, I>.  First come the units |k><k|
    (right-hand side 1), then (|k><l| + |l><k|)/sqrt(2) and
    i(|k><l| - |l><k|)/sqrt(2), each over k < l in ``np.triu_indices`` order
    (right-hand side 0).  Since Tr(B_i B_j) = delta_ij, a dual operator Y in
    the span of the rows has the multipliers y_j = Re Tr(B_j Y), with
    sum_j y_j B_j = Y.  With ``real``, for real data, only the
    dim(dim+1)/2 real symmetric rows, the prefix, which span the real
    symmetric Y: the purely imaginary rest is vacuous on a real X.  ``ops``
    is a read-only view of one cached stack; ``rhs`` is new on every call."""
    count = dim * (dim + 1) // 2 if real else dim * dim
    return _completeness_basis(dim)[:count], (np.arange(count) < dim).astype(float)
