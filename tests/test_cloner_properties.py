"""Property test of the optimal cloner over ensembles near the sign orbit.

A DPS ensemble with ket 1 bent, its priors skewed, or both, is either
within n delta <= ``_KKT_TOL`` of the sign orbit of its state 0, where the
certified character-block cloner must reach the two-copy fidelity of the
dense cloning SDP (``oracles.full_cloner``), or outside it, where the cloner
refuses it with ``ValueError``.  A solver failure must be an
:class:`~dpsqkd.sdp.SdpError` that carries the attack's name.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from dpsqkd import attacks, sdp
from dpsqkd.attacks import certified, optimal_cloner
from dpsqkd.dps import dps_ensemble
from oracles import full_cloner


@st.composite
def near_orbit_ensembles(draw):
    """An n = 3..4 DPS ensemble, with ket 1 bent towards e_0 by 1e-10 to
    1e-1 or not, and priors skewed linearly by a relative 1e-10 to 1e-1 or
    uniform."""
    n = draw(st.sampled_from([3, 4]))
    ens = dps_ensemble(n)
    if draw(st.booleans()):
        kets = ens.states.copy()
        kets[1, 0] += 10.0 ** draw(st.floats(-10.0, -1.0))
        kets[1] /= np.linalg.norm(kets[1])
        ens = dataclasses.replace(ens, states=kets)
    if draw(st.booleans()):
        skew = 10.0 ** draw(st.floats(-10.0, -1.0))
        weights = 1.0 + skew * np.linspace(-1.0, 1.0, len(ens.priors))
        ens = dataclasses.replace(ens, priors=weights / weights.sum())
    return ens


@settings(max_examples=40, deadline=None)
@given(ens=near_orbit_ensembles())
def test_optimal_cloner_matches_the_dense_cloner_or_refuses(ens):
    within = ens.n * attacks._covariance_residual(ens) <= attacks._KKT_TOL
    try:
        result = certified("optimal cloner", optimal_cloner, ens)
    except ValueError as exc:
        assert not within and str(exc) == "the optimal cloner needs a sign-covariant ensemble"
        event("off the orbit")
        return
    except sdp.SdpError as exc:
        assert type(exc) is not sdp.SdpError and str(exc).startswith("optimal cloner: "), repr(exc)
        event(type(exc).__name__)
        return
    event("certified")
    assert within
    _, two_copy, *_ = full_cloner(ens)
    assert result.avg_two_copy_fidelity == pytest.approx(two_copy, abs=1e-6)
