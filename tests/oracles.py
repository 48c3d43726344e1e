"""Independent checks that only the tests read: the dense cloning SDP and
its solved cloner, its objective's norms from Gram matrices, the dense Choi
operator of a cloner and its action, a Choi operator's CPTP residuals, the
lift of a MED seed pair onto the full MED problem, the square-root
measurement, the Helstrom witness and the weak-duality bracket of a POVM, a
Monte-Carlo model of the intercept-resend collision probability, and
numpy's 160-point Gauss-Legendre expectation of the slice-averaged
phase-mismatch QBER."""

import dataclasses
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from dpsqkd import attacks, sdp
from dpsqkd.dps import sign_patterns
from dpsqkd.linalg import dagger, hermitian_part, partial_trace


def choi_kets(kets: np.ndarray) -> np.ndarray:
    """(G, d**3) matrix V whose row g is psi_g x conj(psi_g) x psi_g for the
    (G, d) ``kets``, so that the cloning objective is Q = V^T diag(p) conj(V)."""
    return np.einsum("gi,gj,gk->gijk", kets, kets.conj(), kets).reshape(len(kets), -1)


def full_cloning_problem(ens) -> sdp.SdpProblem:
    """The cloning SDP on one dense d**3 x d**3 Choi block J on
    (out) x (in) x (out): maximise <Q, J>, Q = V^T diag(p) conj(V), subject to
    Tr_{out,out}(J) = I, stated as the d(d+1)/2 rows <I x B x I, J> = Tr(B)
    over the orthonormal basis B of the real symmetric operators of
    :func:`dpsqkd.sdp.povm_completeness_constraints`."""
    eye = np.eye(ens.n)
    v = choi_kets(attacks._kets(ens))
    basis, rhs = sdp.povm_completeness_constraints(ens.n)
    ops = np.array([np.kron(eye, np.kron(b, eye)) for b in basis[:, 0]])
    return sdp.SdpProblem([(v.T @ (ens.priors[:, None] * v.conj()))[None]], [ops[:, None]], rhs)


def objective_inner(a: np.ndarray, p: np.ndarray, b: np.ndarray, q: np.ndarray) -> float:
    """<Q_a, Q_b>_F of the cloning objectives Q_a = sum_g p_g |v_g><v_g| of
    the kets ``a`` and priors ``p``, and Q_b of ``b`` and ``q``, without
    forming either: since <v_g|w_h> = |<a_g|b_h>|**2 <a_g|b_h>, it is
    sum_{g,h} p_g q_h |<a_g|b_h>|**6, one Gram matrix."""
    return float(p @ np.abs(a.conj() @ b.T) ** 6 @ q)


def off_block_norm(blocks, kets: np.ndarray, priors: np.ndarray) -> float:
    """||Q_off||_F of the cloning objective Q of the (G, d) ``kets`` and
    ``priors``, given its diagonal ``blocks`` (a mapping from any key to each
    block): ||Q_off||_F**2 = ||Q||_F**2 - sum_b ||Q_b||_F**2, with ||Q||_F**2
    from :func:`objective_inner`.  The subtraction loses about
    sqrt(eps) ||Q||_F ~ 1e-8."""
    diag = sum(float(np.vdot(c, c).real) for c in blocks.values())
    return math.sqrt(max(objective_inner(kets, priors, kets, priors) - diag, 0.0))


def covariance_residual_norm(kets: np.ndarray, priors: np.ndarray) -> float:
    """||Q - Q_cov||_F, with Q the cloning objective of ``kets`` and ``priors``
    and Q_cov that of the sign orbit U_g psi_0 of state 0 with uniform
    priors, from the three :func:`objective_inner` terms of
    ||Q||**2 + ||Q_cov||**2 - 2 <Q, Q_cov>; the subtraction loses about 1e-8."""
    orbit = sign_patterns(kets.shape[1]) * kets[0]
    uniform = np.full(len(kets), 1.0 / len(kets))
    square = (objective_inner(kets, priors, kets, priors)
              + objective_inner(orbit, uniform, orbit, uniform)
              - 2.0 * objective_inner(kets, priors, orbit, uniform))
    return math.sqrt(max(square, 0.0))


def block_choi(result) -> np.ndarray:
    """The dense d**3 x d**3 Choi operator of a :class:`~dpsqkd.attacks.CloningResult`:
    its blocks, clipped to PSD as the cloner reads them, scattered at the kets
    of their characters."""
    d = result.bob_states.shape[-1]
    choi = np.zeros((d ** 3, d ** 3), dtype=complex)
    blocks = (xb for xg in result.solution.x for xb in xg)
    for ix, xb in zip(attacks._character_blocks(d), blocks):
        choi[np.ix_(ix, ix)] = attacks._project_psd(xb)
    return choi


def apply_choi(choi: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Joint (bob, eve) output state of the cloning channel on input ``rho``:
    out[(i k), (a b)] = sum_{j l} J[(i j k), (a l b)] rho[j, l]."""
    d = rho.shape[0]
    return np.einsum("ijkalb,jl->ikab", choi.reshape((d,) * 6), rho).reshape(d * d, d * d)


def full_cloner(ens):
    """Independent route: the general solve of the one d**3 Choi block, read
    out through apply_choi.  Returns (choi, two-copy fidelity, per-state
    fidelities, Bob's states, Eve's states)."""
    d = ens.n
    choi = sdp.solve(full_cloning_problem(ens)).x[0][0]
    two_copy, fids, bobs, eves = 0.0, [], [], []
    for p, s in zip(ens.priors, ens.states):
        joint = apply_choi(choi, np.outer(s, s.conj()))
        bobs.append(partial_trace(joint, [d, d], keep=[0]))
        eves.append(partial_trace(joint, [d, d], keep=[1]))
        fids.append(np.vdot(s, bobs[-1] @ s).real)
        pair = np.kron(s, s)
        two_copy += p * np.vdot(pair, joint @ pair).real
    return choi, two_copy, fids, bobs, eves


def cptp_residuals(choi: np.ndarray, d: int) -> tuple[float, float]:
    """(negativity, trace-preservation residual) of a Choi operator on
    (out) x (in) x (out)."""
    neg = max(0.0, -float(np.min(np.linalg.eigvalsh(hermitian_part(choi)))))
    marginal = partial_trace(choi, [d, d, d], keep=[1])
    tp = float(np.max(np.abs(marginal - np.eye(d))))
    return neg, tp


def lifted_med_pair(ens, result) -> sdp.SdpSolution:
    """The seed pair (Q, y) of a sign-covariant :class:`~dpsqkd.attacks.MedResult`
    scattered onto the full problem ``attacks.med_problem(ens)``: the blocks
    P_g = U_g Q U_g^dagger / G, G = 2**(n-1), and the multipliers
    y_j = Re Tr(B_j diag(y)) against the completeness operators B_j of its
    rows."""
    signs = sign_patterns(ens.n)
    lifted = signs[:, :, None] * result.solution.x[0][0] * signs[:, None, :] / len(signs)
    y = [np.trace(op @ np.diag(result.solution.y)).real
         for op in attacks.med_problem(ens).ops[0][:, 0]]
    return dataclasses.replace(result.solution, x=[lifted], y=np.array(y))


def pgm_povm(ens) -> attacks.Povm:
    """Square-root ("pretty good") measurement of an ensemble.

    P_i = S^{-1/2} p_i rho_i S^{-1/2} with S the average state; for the
    symmetric DPS ensembles this measurement attains the minimum-error
    optimum, which makes it an independent check on the SDP route.
    """
    weighted = ens.priors[:, None, None] * ens.densities
    lam, vecs = np.linalg.eigh(weighted.sum(axis=0))
    keep = lam > 1e-12
    inv_sqrt = (vecs[:, keep] / np.sqrt(lam[keep])) @ dagger(vecs[:, keep])
    elements = inv_sqrt @ weighted @ inv_sqrt
    # on a rank-deficient average state, spread the kernel evenly to complete the POVM
    kernel = np.eye(ens.n) - elements.sum(axis=0)
    if float(np.max(np.abs(kernel))) > attacks._POVM_SUM_ATOL:
        elements = elements + kernel / len(elements)
    return attacks.Povm(elements=elements)


def holevo_certificate(ens, povm) -> bool:
    """Helstrom optimality witness, to the attacks' KKT tolerance:
    Y = sum_i p_i rho_i P_i is Hermitian and Y - p_j rho_j is PSD for every j."""
    tol = attacks._KKT_TOL
    weighted = ens.priors[:, None, None] * ens.densities
    y = np.sum(weighted @ povm.elements, axis=0)
    if float(np.max(np.abs(y - dagger(y)))) > tol:
        return False
    return float(np.min(np.linalg.eigvalsh(hermitian_part(y) - weighted))) >= -tol


def duality_bracket(ens, povm) -> tuple[float, float]:
    """(lower, upper) bounds on the MED optimum of ``ens`` from ``povm`` alone,
    with no solver multipliers.  lower = sum_g p_g Tr(rho_g P_g) is the POVM's
    own success probability.  With Y = herm(sum_g p_g rho_g P_g) and
    delta = max(0, -min_g lambda_min(Y - p_g rho_g)), Y + delta I >= p_g rho_g
    for every g, so Y + delta I is dual feasible, and by weak duality no POVM
    succeeds with probability above upper = Tr Y + n delta."""
    weighted = ens.priors[:, None, None] * ens.densities
    products = weighted @ povm.elements
    lower = float(np.trace(products, axis1=1, axis2=2).real.sum())
    y = hermitian_part(products.sum(axis=0))
    delta = max(0.0, -float(np.min(np.linalg.eigvalsh(y - weighted))))
    return lower, float(np.trace(y).real) + ens.n * delta


def ir_monte_carlo_collision(samples: int, seed: int = 7, n: int = 3,
                             mode: str = "definite") -> float:
    """Monte-Carlo estimate of the per-attacked-bit collision probability.

    ``definite`` assumes Eve always learns one uniformly chosen phase
    position per intercepted frame (the model behind
    :func:`dpsqkd.attacks.ir_attack_profile`).  ``mzi`` gives her the
    physical interferometer instead, whose boundary slots teach her nothing
    with probability 1/n, lowering the average collision probability.
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


def leggauss_slice_qber(mu: float, slices: int) -> float:
    """Slice-averaged phase-mismatch QBER from numpy's 160-point
    Gauss-Legendre rule: the expectation of 1 - exp(-mu sin^2(delta/2))
    over the triangular law on [-w, w], w = 2pi/slices, folded onto [0, w]
    with density 2 (w - delta) / w^2."""
    w = 2.0 * math.pi / slices
    x, wt = leggauss(160)
    delta = 0.5 * w * (x + 1.0)
    density = 2.0 * (w - delta) / w ** 2
    vals = -np.expm1(-mu * np.sin(delta / 2.0) ** 2)
    return float(np.sum(wt * 0.5 * w * density * vals))
