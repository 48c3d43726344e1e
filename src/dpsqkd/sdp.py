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

The NT operator X -> W X W is applied, never stored: the Schur complement
is assembled as M_ij = sum_b <A_{i,b}, W_b A_{j,b} W_b> (Todd, Toh &
Tutuncu, SIAM J. Optim. 8, 1998), so a d x d block costs O(m d^3) time per
iteration, where a stored d^2 x d^2 operator would cost O(d^6).  The
constraint count m is small, so all linear algebra is dense.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .linalg import ATOL_ALGEBRA, dagger


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

    svec and smat run per block on every solver iteration; rebuilding the
    indices each time dominates the cost of small blocks.
    """
    iu, ju = np.triu_indices(d, 1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def svec(h: np.ndarray) -> np.ndarray:
    """Real vector of length d**2 representing a Hermitian d x d operator."""
    h = np.asarray(h, dtype=complex)
    d = h.shape[0]
    iu, ju = _upper(d)
    return np.concatenate([
        np.real(np.diag(h)),
        _SQRT2 * np.real(h[iu, ju]),
        _SQRT2 * np.imag(h[iu, ju]),
    ])


def smat(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`svec`."""
    v = np.asarray(v, dtype=float)
    iu, ju = _upper(d)
    k = iu.size
    h = np.zeros((d, d), dtype=complex)
    h[np.arange(d), np.arange(d)] = v[:d]
    upper = (v[d:d + k] + 1j * v[d + k:d + 2 * k]) / _SQRT2
    h[iu, ju] = upper
    h[ju, iu] = upper.conj()
    return h


def _svec_stack(stack: np.ndarray) -> np.ndarray:
    """Apply svec to a stack of Hermitian matrices, shape (k, d, d) -> (k, d**2)."""
    k, d, _ = stack.shape
    iu, ju = _upper(d)
    return np.concatenate([
        np.real(stack[:, np.arange(d), np.arange(d)]),
        _SQRT2 * np.real(stack[:, iu, ju]),
        _SQRT2 * np.imag(stack[:, iu, ju]),
    ], axis=1)


def _hermitian_basis(d: int) -> np.ndarray:
    """Stack of d**2 Hermitian basis matrices matching the svec ordering."""
    out = np.zeros((d * d, d, d), dtype=complex)
    for i in range(d):
        out[i, i, i] = 1.0
    iu, ju = _upper(d)
    k = iu.size
    for idx in range(k):
        i, j = iu[idx], ju[idx]
        out[d + idx, i, j] = 1 / _SQRT2
        out[d + idx, j, i] = 1 / _SQRT2
        out[d + k + idx, i, j] = 1j / _SQRT2
        out[d + k + idx, j, i] = -1j / _SQRT2
    return out


# ---------------------------------------------------------------------------
# problem and solution containers
# ---------------------------------------------------------------------------

Constraint = tuple[Mapping[str, np.ndarray], float]


@dataclass
class SdpProblem:
    """Standard-form SDP over named Hermitian PSD blocks.

    ``blocks`` lists (name, dimension) pairs.  ``objective`` maps block names
    to Hermitian cost operators (missing blocks contribute zero), and each
    constraint is a (coefficients, rhs) pair with Hermitian coefficient
    operators.  Constraint rows must be linearly independent after symmetric
    vectorisation; this is checked at construction.
    """

    blocks: Sequence[tuple[str, int]]
    objective: Mapping[str, np.ndarray]
    constraints: Sequence[Constraint]

    def __post_init__(self) -> None:
        names = [n for n, _ in self.blocks]
        if len(set(names)) != len(names):
            raise ValueError("duplicate block names")
        dims = dict(self.blocks)
        for name, op in self.objective.items():
            _check_coeff(op, dims, name, "objective")
        for coeffs, _ in self.constraints:
            for name, op in coeffs.items():
                _check_coeff(op, dims, name, "constraint")
        a = self._constraint_matrix()
        if a.shape[0]:
            rank = np.linalg.matrix_rank(a, tol=1e-9 * max(1.0, float(np.max(np.abs(a)))))
            if rank < a.shape[0]:
                raise InfeasibleConstraintsError(
                    f"constraint rows are rank deficient ({rank} < {a.shape[0]})"
                )

    # --- svec assembly -----------------------------------------------------

    def _offsets(self) -> dict[str, tuple[int, int]]:
        out, pos = {}, 0
        for name, d in self.blocks:
            out[name] = (pos, d)
            pos += d * d
        return out

    def _total_len(self) -> int:
        return sum(d * d for _, d in self.blocks)

    def _constraint_matrix(self) -> np.ndarray:
        offs = self._offsets()
        m = len(self.constraints)
        a = np.zeros((m, self._total_len()))
        for j, (coeffs, _) in enumerate(self.constraints):
            for name, op in coeffs.items():
                pos, d = offs[name]
                a[j, pos:pos + d * d] = svec(op)
        return a

    def _rhs(self) -> np.ndarray:
        return np.array([float(r) for _, r in self.constraints])

    def _objective_vector(self) -> np.ndarray:
        offs = self._offsets()
        c = np.zeros(self._total_len())
        for name, op in self.objective.items():
            pos, d = offs[name]
            c[pos:pos + d * d] = svec(op)
        return c


def _check_coeff(op: np.ndarray, dims: Mapping[str, int], name: str, role: str) -> None:
    if name not in dims:
        raise ValueError(f"{role} references unknown block {name!r}")
    op = np.asarray(op)
    d = dims[name]
    if op.shape != (d, d):
        raise ValueError(f"{role} operator for block {name!r} has shape {op.shape}, expected {(d, d)}")
    if np.max(np.abs(op - dagger(op))) > ATOL_ALGEBRA * max(1.0, float(np.max(np.abs(op)))):
        raise ValueError(f"{role} operator for block {name!r} is not Hermitian")


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
    """The NT point W > 0 with W Z W = X."""
    wz, vz = np.linalg.eigh((z + dagger(z)) / 2)
    if wz[0] <= 0:
        raise NumericalBreakdownError("dual iterate left the cone")
    zh = (vz * np.sqrt(wz)) @ dagger(vz)
    zih = (vz * (1.0 / np.sqrt(wz))) @ dagger(vz)
    m = zh @ x @ zh
    wm, vm = np.linalg.eigh((m + dagger(m)) / 2)
    if wm[0] <= 0:
        raise NumericalBreakdownError("primal iterate left the cone")
    mh = (vm * np.sqrt(wm)) @ dagger(vm)
    return zih @ mh @ zih


def _max_step(x: np.ndarray, dx: np.ndarray) -> float:
    """sup {a : x + a*dx >= 0} for PSD x."""
    l = _chol((x + dagger(x)) / 2, "step-length factorisation")
    linv = np.linalg.inv(l)
    s = linv @ dx @ dagger(linv)
    lam = float(np.linalg.eigvalsh((s + dagger(s)) / 2)[0])
    return np.inf if lam >= -1e-14 else -1.0 / lam


def solve(problem: SdpProblem, options: SolveOptions | None = None) -> SdpSolution:
    """Solve the block SDP; deterministic for identical inputs and options.

    Raises :class:`MaxIterationsError`, :class:`NumericalBreakdownError` or
    :class:`InfeasibleConstraintsError` on failure.
    """
    opts = options or SolveOptions()
    names = [n for n, _ in problem.blocks]
    dims = dict(problem.blocks)
    offs = problem._offsets()
    amat = problem._constraint_matrix()
    b = problem._rhs()
    c = problem._objective_vector()
    m = amat.shape[0]
    ops = {n: np.zeros((m, dims[n], dims[n]), dtype=complex) for n in names}
    for j, (coeffs, _) in enumerate(problem.constraints):
        for n, op in coeffs.items():
            ops[n][j] = op

    r_inf = float(np.max(np.abs(b))) if m else 0.0
    x = {n: np.eye(dims[n], dtype=complex) * (1.0 + r_inf) for n in names}
    z = {n: np.eye(dims[n], dtype=complex) for n in names}
    y = np.zeros(m)

    total_dim = sum(dims[n] for n in names)
    b_scale = 1.0 + (float(np.linalg.norm(b)) if m else 0.0)
    c_scale = 1.0 + float(np.linalg.norm(c))
    trace_lines: list[str] = []
    alpha_prev = 1.0

    def pack(mats: dict[str, np.ndarray]) -> np.ndarray:
        out = np.zeros(problem._total_len())
        for n in names:
            pos, d = offs[n]
            out[pos:pos + d * d] = svec(mats[n])
        return out

    def unpack(vec: np.ndarray) -> dict[str, np.ndarray]:
        out = {}
        for n in names:
            pos, d = offs[n]
            out[n] = smat(vec[pos:pos + d * d], d)
        return out

    status: SdpError | None = MaxIterationsError(
        f"no convergence within {opts.max_iterations} iterations")
    iterations = 0
    for it in range(opts.max_iterations):
        iterations = it + 1
        xv = pack(x)
        zv = pack(z)
        pobj = float(c @ xv)
        dobj = float(b @ y) if m else 0.0
        rp = b - amat @ xv if m else np.zeros(0)
        rd = c - (amat.T @ y if m else 0.0) + zv
        mu = sum(np.real(np.trace(x[n] @ z[n])) for n in names) / total_dim
        gap = abs(pobj - dobj)
        pinf = float(np.linalg.norm(rp)) / b_scale if m else 0.0
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

        w = {n: _nt_scaling(x[n], z[n]) for n in names}

        def apply_t(vec: np.ndarray) -> np.ndarray:
            """svec(W X W) per block, for X = smat(vec)."""
            out = np.zeros_like(vec)
            for n in names:
                pos, d = offs[n]
                out[pos:pos + d * d] = svec(w[n] @ smat(vec[pos:pos + d * d], d) @ w[n])
            return out

        sigma = float(np.clip((1.0 - alpha_prev) ** 2, 0.05, 0.8))
        rcv = pack({n: sigma * mu * np.linalg.inv(z[n]) - x[n] for n in names})
        if m:
            schur = sum(amat[:, offs[n][0]:offs[n][0] + dims[n] ** 2]
                        @ _svec_stack(w[n] @ ops[n] @ w[n]).T for n in names)
            schur = (schur + schur.T) / 2
            ls = _chol(schur + 1e-14 * np.eye(m), "Schur complement")
            rhs = amat @ rcv + amat @ apply_t(rd) - rp
            dy = np.linalg.solve(ls.T, np.linalg.solve(ls, rhs))
        else:
            dy = np.zeros(0)
        dzv = (amat.T @ dy if m else 0.0) - rd
        dx, dz = unpack(rcv - apply_t(dzv)), unpack(dzv)

        alpha_p = min(1.0, min((opts.step_fraction * _max_step(x[n], dx[n]) for n in names),
                               default=1.0))
        alpha_d = min(1.0, min((opts.step_fraction * _max_step(z[n], dz[n]) for n in names),
                               default=1.0))
        if max(alpha_p, alpha_d) < 1e-10:
            raise NumericalBreakdownError("step lengths collapsed")
        alpha_prev = min(alpha_p, alpha_d)

        for n in names:
            x[n] = x[n] + alpha_p * dx[n]
            z[n] = z[n] + alpha_d * dz[n]
            x[n] = (x[n] + dagger(x[n])) / 2
            z[n] = (z[n] + dagger(z[n])) / 2
        y = y + alpha_d * dy

    if opts.trace_path is not None:
        with open(opts.trace_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(trace_lines) + "\n")
    if status is not None:
        if m and float(np.linalg.norm(b - amat @ pack(x))) / b_scale > 1e-5:
            raise InfeasibleConstraintsError(
                "equality residual stalled; constraints look inconsistent") from status
        raise status

    xv = pack(x)
    pobj = float(c @ xv)
    dobj = float(b @ y) if m else 0.0
    return SdpSolution(
        x={n: x[n] for n in names}, y=y.copy(), z={n: z[n] for n in names},
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
    dims = dict(problem.blocks)
    names = [n for n, _ in problem.blocks]
    if set(solution.x) != set(names) or len(solution.y) != len(problem.constraints):
        raise ValueError("solution shapes do not match the problem")
    for n in names:
        if np.asarray(solution.x[n]).shape != (dims[n], dims[n]):
            raise ValueError(f"primal block {n!r} has wrong shape")

    eq_res = 0.0
    for coeffs, rhs in problem.constraints:
        val = sum(float(np.real(np.trace(np.asarray(op, dtype=complex) @ solution.x[n])))
                  for n, op in coeffs.items())
        eq_res = max(eq_res, abs(val - rhs))

    zimp = {n: -np.asarray(problem.objective.get(n, np.zeros((dims[n], dims[n]))),
                           dtype=complex)
            for n in names}
    for j, (coeffs, _) in enumerate(problem.constraints):
        for n, op in coeffs.items():
            zimp[n] = zimp[n] + solution.y[j] * np.asarray(op, dtype=complex)

    pmin = min(float(np.linalg.eigvalsh((solution.x[n] + dagger(solution.x[n])) / 2)[0])
               for n in names)
    dmin = min(float(np.linalg.eigvalsh((zimp[n] + dagger(zimp[n])) / 2)[0])
               for n in names)
    slack = max(abs(float(np.real(np.trace(solution.x[n] @ zimp[n])))) for n in names)

    pobj = sum(float(np.real(np.trace(
        np.asarray(problem.objective.get(n, np.zeros((dims[n], dims[n]))), dtype=complex)
        @ solution.x[n]))) for n in names)
    dobj = float(problem._rhs() @ solution.y) if len(solution.y) else 0.0

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
    basis = _hermitian_basis(dim)
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
    basis = _hermitian_basis(dk)
    eye = svec(np.eye(dk))
    left = int(np.prod(dims[:keep])) if keep else 1
    right = int(np.prod(dims[keep + 1:])) if keep + 1 < len(dims) else 1
    out: list[Constraint] = []
    for k in range(dk * dk):
        op = np.kron(np.eye(left), np.kron(basis[k], np.eye(right)))
        out.append(({block: op}, float(eye[k])))
    return out
