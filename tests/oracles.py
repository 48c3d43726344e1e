"""Independent checks that only the tests read: a Choi operator's CPTP
residuals and a Monte-Carlo model of the intercept-resend collision
probability."""

import numpy as np

from dpsqkd.linalg import hermitian_part, partial_trace


def cptp_residuals(choi: np.ndarray, d: int) -> tuple[float, float]:
    """(negativity, trace-preservation residual) of a Choi operator on
    (out) x (in) x (out)."""
    neg = max(0.0, -float(np.min(np.linalg.eigvalsh(hermitian_part(choi)))))
    marginal = partial_trace(choi, [d, d, d], keep=[1])
    tp = float(np.max(np.abs(marginal - np.eye(d))))
    return neg, tp


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
