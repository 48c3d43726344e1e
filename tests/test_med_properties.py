"""Property test of MED over generated small ensembles.

Every certified MED optimum lands inside the weak-duality bracket of its own
POVM (``oracles.duality_bracket``, which reads no solver multiplier), or the
attack raises a named :class:`~dpsqkd.sdp.SdpError` that carries its name.
No other exception may escape, whatever route the ensemble takes: the seed
block of a sign-covariant ensemble or the full problem of any other.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from dpsqkd import sdp
from dpsqkd.attacks import certified, med_attack
from dpsqkd.dps import dps_ensemble
from oracles import duality_bracket

# upper - p_success of the general solve's interior-point POVM; measured up
# to 1.3e-4 over 1,500 random draws of these ensembles
BRACKET_WIDTH = 5e-4


def bent(n: int, eps: float):
    """The DPS ensemble with ket 1 bent towards e_0 by ``eps``."""
    ens = dps_ensemble(n)
    kets = ens.states.copy()
    kets[1, 0] += eps
    kets[1] /= np.linalg.norm(kets[1])
    return dataclasses.replace(ens, states=kets)


@st.composite
def ensembles(draw):
    """An n = 3..4 ensemble of G = 2**(n-1) random real kets, random real
    densities or bent DPS kets (bends from 1e-9 to 1e-1), with uniform or
    skewed priors."""
    n = draw(st.sampled_from([3, 4]))
    kind = draw(st.sampled_from(["kets", "densities", "bent"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ens = dps_ensemble(n)
    count = len(ens.priors)
    if kind == "kets":
        kets = rng.normal(size=(count, n))
        ens = dataclasses.replace(ens, states=kets / np.linalg.norm(kets, axis=1)[:, None])
    elif kind == "densities":
        a = rng.normal(size=(count, n, n))
        rho = a @ a.transpose(0, 2, 1)
        ens = dataclasses.replace(ens, states=rho / np.trace(rho, axis1=1, axis2=2)[:, None, None])
    else:
        ens = bent(n, 10.0 ** draw(st.floats(-9.0, -1.0)))
    if draw(st.booleans()):
        weights = rng.uniform(0.05, 1.0, size=count)
        ens = dataclasses.replace(ens, priors=weights / weights.sum())
        kind += ", skewed"
    event(kind)
    return ens


@settings(max_examples=60)
@given(ens=ensembles())
# bends whose seed candidate meets its rows only to 1e-8..2e-7: within the
# certificate's tolerance, outside the POVM's completeness tolerance
@example(ens=bent(3, 3.5e-8))
@example(ens=bent(4, 3e-7))
def test_med_lands_in_its_duality_bracket_or_raises_a_named_error(ens):
    try:
        result = certified("med", med_attack, ens)
    except sdp.SdpError as exc:
        assert type(exc) is not sdp.SdpError and str(exc).startswith("med: "), repr(exc)
        event(type(exc).__name__)
        return
    event("seed block" if len(result.problem.cost[0]) == 1 else "full problem")
    lower, upper = duality_bracket(ens, result.povm)
    assert lower == pytest.approx(result.p_success, abs=1e-12)
    assert -1e-12 <= upper - result.p_success <= BRACKET_WIDTH
