"""Independent checks that only the tests read: the dense cloning SDP, a
Choi operator's CPTP residuals, the Helstrom witness of a POVM and a
Monte-Carlo model of the intercept-resend collision probability."""

import numpy as np

from dpsqkd import attacks, sdp
from dpsqkd.linalg import dagger, hermitian_part, partial_trace


def full_cloning_problem(ens) -> sdp.SdpProblem:
    """The cloning SDP on one dense d**3 x d**3 Choi block J on
    (out) x (in) x (out): maximise <Q, J>, Q = V^T diag(p) conj(V), subject to
    Tr_{out,out}(J) = I, stated as the d**2 rows <I x B x I, J> = Tr(B) over
    the svec basis B of :func:`dpsqkd.sdp.povm_completeness_constraints`."""
    d, eye = ens.n, np.eye(ens.n)
    v = attacks._choi_kets(attacks._kets(ens))
    return sdp.SdpProblem(blocks=[("J", d ** 3)],
                          objective={"J": v.T @ (ens.priors[:, None] * v.conj())},
                          constraints=[({"J": np.kron(eye, np.kron(op, eye))}, rhs)
                                       for op, rhs in sdp.povm_completeness_constraints(d)])


def cptp_residuals(choi: np.ndarray, d: int) -> tuple[float, float]:
    """(negativity, trace-preservation residual) of a Choi operator on
    (out) x (in) x (out)."""
    neg = max(0.0, -float(np.min(np.linalg.eigvalsh(hermitian_part(choi)))))
    marginal = partial_trace(choi, [d, d, d], keep=[1])
    tp = float(np.max(np.abs(marginal - np.eye(d))))
    return neg, tp


def holevo_certificate(ens, povm) -> bool:
    """Helstrom optimality witness, to the attacks' KKT tolerance:
    Y = sum_i p_i rho_i P_i is Hermitian and Y - p_j rho_j is PSD for every j."""
    tol = attacks._KKT_TOL
    weighted = ens.priors[:, None, None] * ens.densities
    y = np.sum(weighted @ np.array(povm.elements), axis=0)
    if float(np.max(np.abs(y - dagger(y)))) > tol:
        return False
    return float(np.min(np.linalg.eigvalsh(hermitian_part(y) - weighted))) >= -tol


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
