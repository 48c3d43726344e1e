"""Primal-dual interior-point solver for small dense semidefinite programs.

Problems are stated in primal standard form over named Hermitian blocks:

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

Blocks of equal dimension d are grouped, in order of first appearance, and
every operator the iteration touches (iterates, residuals, search
directions, constraint and cost data) is held as one (B, d, d) stack per
group: scaling, step lengths and inverses run once per group, not once per
block.  A constraint may carry one shared operator that acts on every block
of its dimension, as the POVM completeness constraints do.  A group touched
only by shared operators stores them once, as an (m, 1, d, d) stack; any
other group stores (m, B, d, d).  The constraint map
A(X)_j = sum_b <A_{j,b}, X_b> and its adjoint A*(y)_b = sum_j y_j A_{j,b}
are real matrix-vector products on the real view of the complex stacks,
since Re Tr(A H) of Hermitian A and H is the real dot product of their
entries; on a shared stack A(X) pairs A_j with sum_b X_b and A*(y) is one
(d, d) operator broadcast over the blocks.
The NT operator X -> W X W is applied, never stored.  The Schur complement
M_ij = sum_b <A_{i,b}, W_b A_{j,b} W_b> (Todd, Toh & Tutuncu, SIAM J.
Optim. 8, 1998) is assembled one column j at a time as A(W A_j W), so
memory stays at one (B, d, d) product per group and a d x d block costs
O(m d^3) time per iteration, where a stored d^2 x d^2 operator would cost
O(d^6).  The constraint count m is small, so all linear algebra is dense.

The symmetric vectorisation ``svec`` (diagonal entries, then sqrt(2)-scaled
real and imaginary off-diagonal parts) maps a Hermitian operator to a real
vector and preserves inner products.  It is the basis in which the
constraint builders below state their rows and in which the symmetry lifts
of :mod:`dpsqkd.attacks` express their multipliers; the iteration itself
never vectorises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

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
# symmetric vectorisation
# ---------------------------------------------------------------------------

_SQRT2 = np.sqrt(2.0)


def svec(h: np.ndarray) -> np.ndarray:
    """Real vector of length d**2 representing a Hermitian d x d operator.

    A stack of shape (..., d, d) maps to (..., d**2).
    """
    h = np.asarray(h, dtype=complex)
    iu, ju = np.triu_indices(h.shape[-1], 1)
    upper = h[..., iu, ju]
    return np.concatenate([
        np.real(np.diagonal(h, axis1=-2, axis2=-1)),
        _SQRT2 * np.real(upper),
        _SQRT2 * np.imag(upper),
    ], axis=-1)


def smat(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`svec`, also on stacks (..., d**2) -> (..., d, d)."""
    v = np.asarray(v, dtype=float)
    iu, ju = np.triu_indices(d, 1)
    k = iu.size
    h = np.zeros(v.shape[:-1] + (d, d), dtype=complex)
    diag = np.arange(d)
    h[..., diag, diag] = v[..., :d]
    upper = (v[..., d:d + k] + 1j * v[..., d + k:d + 2 * k]) / _SQRT2
    h[..., iu, ju] = upper
    h[..., ju, iu] = upper.conj()
    return h


# ---------------------------------------------------------------------------
# problem and solution containers
# ---------------------------------------------------------------------------

# (coefficients, rhs): a block name -> operator map, or one (d, d) array
# shared by every block of dimension d
Constraint = tuple[Mapping[str, np.ndarray] | np.ndarray, float]


@dataclass(frozen=True)
class _Group:
    """The blocks of one dimension d, stacked in order of first appearance.

    ``ops[j, k]`` is the operator of constraint j on block ``names[k]`` (zero
    where the constraint does not touch the block), ``cost[k]`` its
    objective operator.  A group that only shared constraint operators touch
    stores ``ops`` as (m, 1, d, d): ``ops[j, 0]`` acts on every block.
    """

    d: int
    names: tuple[str, ...]
    ops: np.ndarray
    cost: np.ndarray

    @property
    def shared(self) -> bool:
        """Whether ``ops[:, 0]`` acts on every one of several blocks."""
        return self.ops.shape[1] < len(self.names)

    @property
    def rows(self) -> np.ndarray:
        """``ops`` as m real rows, a view: row j holds the real and imaginary
        parts of the entries of constraint j's operators on the group."""
        return self.ops.reshape(len(self.ops), self.ops.shape[1] * self.d ** 2).view(float)


@dataclass
class SdpProblem:
    """Standard-form SDP over named Hermitian PSD blocks.

    ``blocks`` lists (name, dimension) pairs.  ``objective`` maps block names
    to Hermitian cost operators (missing blocks contribute zero).  Each
    constraint is a (coefficients, rhs) pair whose coefficients are either a
    map from block names to Hermitian operators or one Hermitian (d, d)
    operator shared by every block of dimension d.  Constraint rows must be
    linearly independent after symmetric vectorisation; this is checked at
    construction.

    Construction also stacks the data once for the solver: blocks of equal
    dimension form one group, in order of first appearance, holding one
    (B, d, d) stack of cost operators and one stack of constraint operators.
    That stack is (m, 1, d, d) when only shared operators touch the group,
    so a shared operator is stored, checked and rank-tested once, not once
    per block; otherwise it is (m, B, d, d), with shared operators copied
    into every block.  The solver and :func:`verify_kkt` read only these
    stacks; the svec constraint matrix exists only while the rank is checked.
    """

    blocks: Sequence[tuple[str, int]]
    objective: Mapping[str, np.ndarray]
    constraints: Sequence[Constraint]

    def __post_init__(self) -> None:
        names = [n for n, _ in self.blocks]
        if len(set(names)) != len(names):
            raise ValueError("duplicate block names")
        by_dim: dict[int, list[str]] = {}
        for name, d in self.blocks:
            by_dim.setdefault(d, []).append(name)
        where = {n: (g, k) for g, group in enumerate(by_dim.values())
                 for k, n in enumerate(group)}
        self._where = {n: where[n] for n in names}  # block order
        cost = self._stack([self.objective], by_dim, "objective")
        ops = self._stack([co for co, _ in self.constraints], by_dim, "constraint")
        self._groups = [_Group(d, tuple(group), o, c[0])
                        for (d, group), o, c in zip(by_dim.items(), ops, cost)]
        m = len(self.constraints)
        self._b = np.array([float(r) for _, r in self.constraints])
        if m:
            a = np.concatenate([svec(g.ops).reshape(m, -1) for g in self._groups], axis=1)
            # the tall transpose has the same singular values; LAPACK finds
            # them two to three times faster for these wide rows
            rank = np.linalg.matrix_rank(a.T, tol=1e-9 * max(1.0, float(np.max(np.abs(a)))))
            if rank < m:
                raise InfeasibleConstraintsError(
                    f"constraint rows are rank deficient ({rank} < {m})"
                )

    def _stack(self, maps: Sequence[Mapping[str, np.ndarray] | np.ndarray],
               by_dim: Mapping[int, Sequence[str]], role: str) -> list[np.ndarray]:
        """Coefficient operators as one (len(maps), B, d, d) stack per group,
        or (len(maps), 1, d, d) for a group that only shared operators touch.

        Every operator must be Hermitian to ATOL_ALGEBRA relative to its
        largest entry.
        """
        dims = list(by_dim)
        shared = {co.shape for co in maps if isinstance(co, np.ndarray)}
        named = {self._where[n][0] for co in maps if not isinstance(co, np.ndarray)
                 for n in co if n in self._where}
        stacks = [np.zeros((len(maps), 1 if (d, d) in shared and g not in named
                            else len(group), d, d), dtype=complex)
                  for g, (d, group) in enumerate(by_dim.items())]
        for j, coeffs in enumerate(maps):
            if isinstance(coeffs, np.ndarray):
                if (coeffs.ndim != 2 or coeffs.shape[0] != coeffs.shape[1]
                        or coeffs.shape[0] not in by_dim):
                    raise ValueError(f"shared {role} operator of shape {coeffs.shape} "
                                     "matches no block dimension")
                stacks[dims.index(len(coeffs))][j] = coeffs  # broadcasts over the blocks
                continue
            for name, op in coeffs.items():
                if name not in self._where:
                    raise ValueError(f"{role} references unknown block {name!r}")
                g, k = self._where[name]
                op, d = np.asarray(op), dims[g]
                if op.shape != (d, d):
                    raise ValueError(f"{role} operator for block {name!r} has shape "
                                     f"{op.shape}, expected {(d, d)}")
                stacks[g][j, k] = op
        for group, stack in zip(by_dim.values(), stacks):
            d, width = stack.shape[-1], stack.shape[1]
            ops = stack.reshape(-1, d, d)
            step = max(1, 2 ** 14 // d ** 2)  # operators per check keeps temporaries small
            for lo in range(0, len(ops), step):
                chunk = ops[lo:lo + step]
                asym = np.max(np.abs(chunk - dagger(chunk)), axis=(-2, -1))
                scale = np.maximum(1.0, np.max(np.abs(chunk), axis=(-2, -1)))
                bad = np.flatnonzero(asym > ATOL_ALGEBRA * scale)
                if bad.size:
                    where = (f"block {group[(lo + bad[0]) % width]!r}" if width == len(group)
                             else f"the blocks of dimension {d}")
                    raise ValueError(f"{role} operator for {where} is not Hermitian")
        return stacks

    def _named(self, stacks: Sequence[np.ndarray]) -> dict[str, np.ndarray]:
        """Name -> matrix views into one stack per group, in block order."""
        return {n: stacks[g][k] for n, (g, k) in self._where.items()}


@dataclass
class SdpSolution:
    """A primal/dual pair and how the solver reached it.

    ``iterates`` holds one record per iteration, the converged one last, with
    keys ``iteration``, ``mu``, ``gap``, ``primal_infeasibility`` and
    ``dual_infeasibility``.
    """

    x: dict[str, np.ndarray]
    y: np.ndarray
    z: dict[str, np.ndarray]
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

def _chol(mat: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdownError(f"{what} lost positive definiteness") from exc


def _apply(groups: Sequence[_Group], x: Sequence[np.ndarray]) -> np.ndarray:
    """A(X)_j = sum_b Re<A_{j,b}, X_b> for one (B, d, d) stack per group.

    Re Tr(A X) = Re sum_kl A_kl conj(X_kl) for Hermitian A, a real dot
    product of the real views: one matrix-vector product per group.  A
    shared group pairs A_j with sum_b X_b.
    """
    return sum(g.rows @ (np.add.reduce(xg) if g.shared else xg).reshape(-1).view(float)
               for g, xg in zip(groups, x))


def _adjoint(groups: Sequence[_Group], y: np.ndarray) -> list[np.ndarray]:
    """A*(y)_b = sum_j y_j A_{j,b} as one (B, d, d) stack per group; for a
    shared group one (1, d, d) operator, which broadcasts over the blocks."""
    return [(y @ g.rows).view(complex).reshape(g.ops.shape[1:]) for g in groups]


def _norm(stacks: Sequence[np.ndarray]) -> float:
    """Frobenius norm over all blocks of all stacks."""
    return float(np.sqrt(sum(np.vdot(s, s).real for s in stacks)))


def _nt_scaling(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The NT points W > 0 with W Z W = X, for stacks (B, d, d) of X and Z."""
    wz, vz = np.linalg.eigh(hermitian_part(z))
    if np.min(wz[:, 0]) <= 0:
        raise NumericalBreakdownError("dual iterate left the cone")
    zh = (vz * np.sqrt(wz)[:, None, :]) @ dagger(vz)
    zih = (vz * (1.0 / np.sqrt(wz))[:, None, :]) @ dagger(vz)
    wm, vm = np.linalg.eigh(hermitian_part(zh @ x @ zh))
    if np.min(wm[:, 0]) <= 0:
        raise NumericalBreakdownError("primal iterate left the cone")
    mh = (vm * np.sqrt(wm)[:, None, :]) @ dagger(vm)
    return zih @ mh @ zih


def _max_step(x: np.ndarray, dx: np.ndarray) -> float:
    """sup {a : x + a*dx >= 0} over a stack (B, d, d) of PSD x."""
    linv = np.linalg.inv(_chol(hermitian_part(x), "step-length factorisation"))
    lam = float(np.min(np.linalg.eigvalsh(hermitian_part(linv @ dx @ dagger(linv)))[:, 0]))
    return np.inf if lam >= -1e-14 else -1.0 / lam


def solve(problem: SdpProblem) -> SdpSolution:
    """Solve the block SDP; deterministic for identical inputs.

    Converges when the duality gap is within GAP_TOL of 1 + |primal
    objective| and the primal and dual residuals, relative to 1 + |r| and
    1 + |C|, are within PRIMAL_FEAS_TOL and DUAL_FEAS_TOL.  Raises
    :class:`MaxIterationsError` after MAX_ITERATIONS iterations,
    :class:`NumericalBreakdownError` or :class:`InfeasibleConstraintsError`.
    """
    groups, b = problem._groups, problem._b
    m = b.size
    r_inf = float(np.max(np.abs(b), initial=0.0))
    x = [np.tile(np.eye(g.d, dtype=complex) * (1.0 + r_inf), (len(g.names), 1, 1))
         for g in groups]
    z = [np.tile(np.eye(g.d, dtype=complex), (len(g.names), 1, 1)) for g in groups]
    y = np.zeros(m)

    total_dim = sum(g.d * len(g.names) for g in groups)
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
        mu = sum(float(np.einsum("bij,bji->", xg, zg).real) for xg, zg in zip(x, z)) / total_dim
        gap = abs(pobj - dobj)
        pinf = float(np.linalg.norm(rp)) / b_scale
        dinf = _norm(rd) / c_scale
        iterates.append({"iteration": it, "mu": mu, "gap": gap,
                         "primal_infeasibility": pinf, "dual_infeasibility": dinf})
        if (gap <= GAP_TOL * (1.0 + abs(pobj))
                and pinf <= PRIMAL_FEAS_TOL and dinf <= DUAL_FEAS_TOL):
            break

        w = [_nt_scaling(xg, zg) for xg, zg in zip(x, z)]
        sigma = float(np.clip((1.0 - alpha_prev) ** 2, 0.05, 0.8))
        rc = [sigma * mu * np.linalg.inv(zg) - xg for xg, zg in zip(x, z)]
        # Column j is A(W A_j W), one (B, d, d) product per group at a time.
        schur = np.zeros((m, m))
        for j in range(m):
            schur[:, j] = _apply(groups, [wg @ g.ops[j] @ wg for g, wg in zip(groups, w)])
        schur = (schur + schur.T) / 2
        ls = _chol(schur + 1e-14 * np.eye(m), "Schur complement")
        rhs = _apply(groups, [r + wg @ d @ wg for r, wg, d in zip(rc, w, rd)]) - rp
        dy = np.linalg.solve(ls.T, np.linalg.solve(ls, rhs))
        dz = [a - d for a, d in zip(_adjoint(groups, dy), rd)]
        dx = [r - wg @ d @ wg for r, wg, d in zip(rc, w, dz)]

        alpha_p = min([1.0] + [STEP_FRACTION * _max_step(xg, d) for xg, d in zip(x, dx)])
        alpha_d = min([1.0] + [STEP_FRACTION * _max_step(zg, d) for zg, d in zip(z, dz)])
        if max(alpha_p, alpha_d) < 1e-10:
            raise NumericalBreakdownError("step lengths collapsed")
        alpha_prev = min(alpha_p, alpha_d)

        x = [hermitian_part(xg + alpha_p * d) for xg, d in zip(x, dx)]
        z = [hermitian_part(zg + alpha_d * d) for zg, d in zip(z, dz)]
        y = y + alpha_d * dy
    else:
        last = (f"last iterate: gap {gap:.3e}, primal infeasibility {pinf:.3e}, "
                f"dual infeasibility {dinf:.3e}")
        status = MaxIterationsError(
            f"no convergence within {MAX_ITERATIONS} iterations; {last}")
        if float(np.linalg.norm(b - _apply(groups, x))) / b_scale > 1e-5:
            raise InfeasibleConstraintsError(
                f"equality residual stalled; constraints look inconsistent; {last}") from status
        raise status

    return SdpSolution(
        x=problem._named(x), y=y.copy(), z=problem._named(z),
        primal_objective=pobj, dual_objective=dobj, gap=gap,
        iterations=len(iterates), iterates=iterates,
    )


def verify_kkt(problem: SdpProblem, solution: SdpSolution, tol: float = 1e-7) -> KktReport:
    """Check a primal/dual pair against the optimality conditions.

    The dual slack is recomputed from the multipliers as
    ``Z_b = sum_j y_j A_{j,b} - C_b`` so the report is independent of the
    slack matrices stored in the solution.  Complementary slackness is the
    largest |<X_b, Z_b>| across blocks.
    """
    names = [n for n, _ in problem.blocks]
    if set(solution.x) != set(names) or len(solution.y) != len(problem.constraints):
        raise ValueError("solution shapes do not match the problem")
    wrong = [n for n, d in problem.blocks if np.shape(solution.x[n]) != (d, d)]
    if wrong:
        raise ValueError(f"primal block {wrong[0]!r} has wrong shape")

    groups = problem._groups
    y = np.asarray(solution.y, dtype=float)
    x = [np.array([solution.x[n] for n in g.names], dtype=complex) for g in groups]
    z = [a - g.cost for g, a in zip(groups, _adjoint(groups, y))]
    pmin = dmin = np.inf
    slack = pobj = 0.0
    for g, xg, zg in zip(groups, x, z):
        pmin = min(pmin, float(np.min(np.linalg.eigvalsh(hermitian_part(xg))[:, 0])))
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
# named constraint builders
# ---------------------------------------------------------------------------

def povm_completeness_constraints(dim: int) -> list[Constraint]:
    """Constraints stating that the blocks of dimension ``dim`` sum to the
    identity on C^dim: one shared operator per svec entry, acting on every
    block of that dimension."""
    basis = smat(np.eye(dim * dim), dim)  # svec unit vectors as operators
    eye = svec(np.eye(dim))
    return [(basis[k], float(eye[k])) for k in range(dim * dim)]


def partial_trace_identity_constraints(block: str, dims: Sequence[int],
                                       keep: int) -> list[Constraint]:
    """Constraints stating Tr_{others}(X_block) = identity on subsystem ``keep``.

    ``dims`` are the tensor-factor dimensions of the block; all factors other
    than ``keep`` are traced out.
    """
    dims = list(dims)
    if not 0 <= keep < len(dims):
        raise ValueError("keep index out of range")
    dk = dims[keep]
    basis = smat(np.eye(dk * dk), dk)
    eye = svec(np.eye(dk))
    left = int(np.prod(dims[:keep])) if keep else 1
    right = int(np.prod(dims[keep + 1:])) if keep + 1 < len(dims) else 1
    out: list[Constraint] = []
    for k in range(dk * dk):
        op = np.kron(np.eye(left), np.kron(basis[k], np.eye(right)))
        out.append(({block: op}, float(eye[k])))
    return out
