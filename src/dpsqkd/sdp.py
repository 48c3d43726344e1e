"""Primal-dual interior-point solver for small dense semidefinite programs.

Problems are stated in primal standard form over named Hermitian blocks:

    maximize    sum_b <C_b, X_b>
    subject to  sum_b <A_{j,b}, X_b> = r_j      (j = 1..m)
                X_b >= 0,

with <A, B> = Tr(A B) the Hilbert-Schmidt inner product of Hermitian
operators.  The dual reads

    minimize    sum_j r_j y_j
    subject to  Z_b := sum_j y_j A_{j,b} - C_b >= 0.

Each Hermitian block is mapped to a real vector by the symmetric
vectorisation ``svec`` (diagonal entries, then sqrt(2)-scaled real and
imaginary off-diagonal parts), which preserves inner products.  The solver
follows the central path with Nesterov-Todd scaling: one Newton step per
iteration toward X Z = sigma*mu*I, step lengths clipped by a 0.98
fraction-to-boundary rule.  Runs are reproducible bit for bit.

Blocks of equal dimension d are grouped, in order of first appearance, and
every iterate is held as one (B, d, d) stack per group: scaling, step
lengths, inverses and svec run once per group, not once per block.  The NT
operator X -> W X W is applied, never stored.  The Schur complement
M_ij = sum_b <A_{i,b}, W_b A_{j,b} W_b> (Todd, Toh & Tutuncu, SIAM J.
Optim. 8, 1998) is assembled one column j at a time from the batched
product W A_j W, so memory stays at one (B, d, d) product per group and a
d x d block costs O(m d^3) time per iteration, where a stored d^2 x d^2
operator would cost O(d^6).  The constraint count m is small, so all linear
algebra is dense.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
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


# ---------------------------------------------------------------------------
# symmetric vectorisation
# ---------------------------------------------------------------------------

_SQRT2 = np.sqrt(2.0)


@lru_cache(maxsize=None)
def _upper(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Strict upper-triangle indices of a d x d matrix, shared and read-only.

    svec and smat run on every solver iteration; rebuilding the indices each
    time dominates the cost of small blocks.
    """
    iu, ju = np.triu_indices(d, 1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def svec(h: np.ndarray) -> np.ndarray:
    """Real vector of length d**2 representing a Hermitian d x d operator.

    A stack of shape (..., d, d) maps to (..., d**2).
    """
    h = np.asarray(h, dtype=complex)
    iu, ju = _upper(h.shape[-1])
    upper = h[..., iu, ju]
    return np.concatenate([
        np.real(np.diagonal(h, axis1=-2, axis2=-1)),
        _SQRT2 * np.real(upper),
        _SQRT2 * np.imag(upper),
    ], axis=-1)


def smat(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`svec`, also on stacks (..., d**2) -> (..., d, d)."""
    v = np.asarray(v, dtype=float)
    iu, ju = _upper(d)
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

Constraint = tuple[Mapping[str, np.ndarray], float]


@dataclass(frozen=True)
class _Group:
    """The blocks of one dimension d, stacked in order of first appearance.

    ``ops[j, k]`` is the operator of constraint j on block ``names[k]`` (zero
    where the constraint does not touch the block), ``cost[k]`` its
    objective operator.
    """

    d: int
    names: tuple[str, ...]
    ops: np.ndarray
    cost: np.ndarray

    @property
    def size(self) -> int:
        """Length of the group's svec segment."""
        return len(self.names) * self.d ** 2


@dataclass
class SdpProblem:
    """Standard-form SDP over named Hermitian PSD blocks.

    ``blocks`` lists (name, dimension) pairs.  ``objective`` maps block names
    to Hermitian cost operators (missing blocks contribute zero), and each
    constraint is a (coefficients, rhs) pair with Hermitian coefficient
    operators.  Constraint rows must be linearly independent after symmetric
    vectorisation; this is checked at construction.

    Construction also stacks the data once for the solver: blocks of equal
    dimension form one group, and the svec constraint matrix concatenates
    the groups in order of first appearance.
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
        self._amat = np.concatenate([svec(g.ops).reshape(m, g.size) for g in self._groups],
                                    axis=1)
        self._c = np.concatenate([svec(g.cost).ravel() for g in self._groups])
        self._b = np.array([float(r) for _, r in self.constraints])
        if m:
            a = self._amat
            rank = np.linalg.matrix_rank(a, tol=1e-9 * max(1.0, float(np.max(np.abs(a)))))
            if rank < m:
                raise InfeasibleConstraintsError(
                    f"constraint rows are rank deficient ({rank} < {m})"
                )

    def _stack(self, maps: Sequence[Mapping[str, np.ndarray]],
               by_dim: Mapping[int, Sequence[str]], role: str) -> list[np.ndarray]:
        """Coefficient operators as one (len(maps), B, d, d) stack per group.

        Every operator must be Hermitian to ATOL_ALGEBRA relative to its
        largest entry.
        """
        dims = list(by_dim)
        stacks = [np.zeros((len(maps), len(group), d, d), dtype=complex)
                  for d, group in by_dim.items()]
        for j, coeffs in enumerate(maps):
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
            for row in stack:  # one (B, d, d) row at a time keeps temporaries small
                asym = np.max(np.abs(row - dagger(row)), axis=(-2, -1))
                scale = np.maximum(1.0, np.max(np.abs(row), axis=(-2, -1)))
                bad = np.flatnonzero(asym > ATOL_ALGEBRA * scale)
                if bad.size:
                    raise ValueError(f"{role} operator for block {group[bad[0]]!r} "
                                     "is not Hermitian")
        return stacks

    def _named(self, stacks: Sequence[np.ndarray]) -> dict[str, np.ndarray]:
        """Name -> matrix views into one stack per group, in block order."""
        return {n: stacks[g][k] for n, (g, k) in self._where.items()}


@dataclass
class SolveOptions:
    gap_tol: float = 1e-7
    feas_tol: float = 1e-9
    max_iterations: int = 200
    step_fraction: float = 0.98
    trace_path: str | None = None


@dataclass
class SdpSolution:
    x: dict[str, np.ndarray]
    y: np.ndarray
    z: dict[str, np.ndarray]
    primal_objective: float
    dual_objective: float
    gap: float
    iterations: int


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


def solve(problem: SdpProblem, options: SolveOptions | None = None) -> SdpSolution:
    """Solve the block SDP; deterministic for identical inputs and options.

    Raises :class:`MaxIterationsError`, :class:`NumericalBreakdownError` or
    :class:`InfeasibleConstraintsError` on failure.
    """
    opts = options or SolveOptions()
    groups = problem._groups
    amat, b, c = problem._amat, problem._b, problem._c
    m = amat.shape[0]
    splits = np.cumsum([g.size for g in groups])[:-1]

    def pack(stacks: Sequence[np.ndarray]) -> np.ndarray:
        return np.concatenate([svec(s).ravel() for s in stacks])

    def unpack(vec: np.ndarray) -> list[np.ndarray]:
        return [smat(v.reshape(len(g.names), g.d ** 2), g.d)
                for g, v in zip(groups, np.split(vec, splits))]

    r_inf = float(np.max(np.abs(b))) if m else 0.0
    x = [np.tile(np.eye(g.d, dtype=complex) * (1.0 + r_inf), (len(g.names), 1, 1))
         for g in groups]
    z = [np.tile(np.eye(g.d, dtype=complex), (len(g.names), 1, 1)) for g in groups]
    y = np.zeros(m)

    total_dim = sum(g.d * len(g.names) for g in groups)
    b_scale = 1.0 + float(np.linalg.norm(b))
    c_scale = 1.0 + float(np.linalg.norm(c))
    trace_lines: list[str] = []
    alpha_prev = 1.0

    status: SdpError | None = MaxIterationsError(
        f"no convergence within {opts.max_iterations} iterations")
    iterations = 0
    for it in range(opts.max_iterations):
        iterations = it + 1
        xv = pack(x)
        pobj = float(c @ xv)
        dobj = float(b @ y)
        rp = b - amat @ xv
        rd = c - amat.T @ y + pack(z)
        mu = sum(float(np.einsum("bij,bji->", xg, zg).real) for xg, zg in zip(x, z)) / total_dim
        gap = abs(pobj - dobj)
        pinf = float(np.linalg.norm(rp)) / b_scale
        dinf = float(np.linalg.norm(rd)) / c_scale

        if opts.trace_path is not None:
            trace_lines.append(json.dumps({
                "iteration": it, "mu": mu, "gap": gap,
                "primal_infeasibility": pinf, "dual_infeasibility": dinf,
            }))
        if (gap <= opts.gap_tol * (1.0 + abs(pobj))
                and pinf <= opts.feas_tol and dinf <= max(opts.feas_tol, 1e-8)):
            status = None
            break

        w = [_nt_scaling(xg, zg) for xg, zg in zip(x, z)]

        def apply_t(vec: np.ndarray) -> np.ndarray:
            """svec(W X W) per group, for X = smat(vec)."""
            return pack([wg @ s @ wg for wg, s in zip(w, unpack(vec))])

        sigma = float(np.clip((1.0 - alpha_prev) ** 2, 0.05, 0.8))
        rcv = pack([sigma * mu * np.linalg.inv(zg) - xg for xg, zg in zip(x, z)])
        if m:
            # Column j is <A_i, W A_j W> for all i, one (B, d, d) product at a
            # time.  Viewing complex operators as real arrays turns
            # Re Tr(A H) of a Hermitian H into a real dot product.
            schur = np.zeros((m, m))
            for g, wg in zip(groups, w):
                a_flat = g.ops.reshape(m, -1).view(float)
                for j in range(m):
                    schur[:, j] += a_flat @ (wg @ g.ops[j] @ wg).reshape(-1).view(float)
            schur = (schur + schur.T) / 2
            ls = _chol(schur + 1e-14 * np.eye(m), "Schur complement")
            rhs = amat @ rcv + amat @ apply_t(rd) - rp
            dy = np.linalg.solve(ls.T, np.linalg.solve(ls, rhs))
        else:
            dy = np.zeros(0)
        dzv = amat.T @ dy - rd
        dx, dz = unpack(rcv - apply_t(dzv)), unpack(dzv)

        alpha_p = min([1.0] + [opts.step_fraction * _max_step(xg, d) for xg, d in zip(x, dx)])
        alpha_d = min([1.0] + [opts.step_fraction * _max_step(zg, d) for zg, d in zip(z, dz)])
        if max(alpha_p, alpha_d) < 1e-10:
            raise NumericalBreakdownError("step lengths collapsed")
        alpha_prev = min(alpha_p, alpha_d)

        x = [hermitian_part(xg + alpha_p * d) for xg, d in zip(x, dx)]
        z = [hermitian_part(zg + alpha_d * d) for zg, d in zip(z, dz)]
        y = y + alpha_d * dy

    if opts.trace_path is not None:
        with open(opts.trace_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(trace_lines) + "\n")
    if status is not None:
        if m and float(np.linalg.norm(b - amat @ pack(x))) / b_scale > 1e-5:
            raise InfeasibleConstraintsError(
                "equality residual stalled; constraints look inconsistent") from status
        raise status

    pobj = float(c @ pack(x))
    dobj = float(b @ y)
    return SdpSolution(
        x=problem._named(x), y=y.copy(), z=problem._named(z),
        primal_objective=pobj, dual_objective=dobj, gap=abs(pobj - dobj),
        iterations=iterations,
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

    y = np.asarray(solution.y, dtype=float)
    values = np.zeros(len(y))
    pmin = dmin = np.inf
    slack = pobj = 0.0
    for g in problem._groups:
        xg = np.array([solution.x[n] for n in g.names], dtype=complex)
        zg = np.einsum("j,jbkl->bkl", y, g.ops) - g.cost
        values += np.einsum("jbkl,blk->j", g.ops, xg).real
        pmin = min(pmin, float(np.min(np.linalg.eigvalsh(hermitian_part(xg))[:, 0])))
        dmin = min(dmin, float(np.min(np.linalg.eigvalsh(hermitian_part(zg))[:, 0])))
        slack = max(slack, float(np.max(np.abs(np.einsum("bkl,blk->b", xg, zg).real))))
        pobj += float(np.einsum("bkl,blk->", g.cost, xg).real)
    eq_res = float(np.max(np.abs(values - problem._b), initial=0.0))
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

def povm_completeness_constraints(dim: int, block_names: Sequence[str]) -> list[Constraint]:
    """Constraints stating that the named blocks sum to the identity on C^dim."""
    basis = smat(np.eye(dim * dim), dim)  # svec unit vectors as operators
    eye = svec(np.eye(dim))
    out: list[Constraint] = []
    for k in range(dim * dim):
        coeffs = {n: basis[k].copy() for n in block_names}
        out.append((coeffs, float(eye[k])))
    return out


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
