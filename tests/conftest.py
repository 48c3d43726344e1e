import functools

import numpy as np
import pytest
from hypothesis import settings

from dpsqkd.attacks import (med_attack, optimal_cloner, optimal_cloning_attack,
                            unitary_cloning_attack)
from dpsqkd.dps import dps_ensemble

settings.register_profile("suite", deadline=None, max_examples=40, derandomize=True)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def ens3():
    return dps_ensemble(3)


@pytest.fixture(scope="session")
def med3(ens3):
    return med_attack(ens3)


@pytest.fixture(scope="session")
def med4():
    return med_attack(dps_ensemble(4))


@pytest.fixture(scope="session")
def med5():
    return med_attack(dps_ensemble(5))


@pytest.fixture(scope="session")
def clone3(ens3):
    return optimal_cloner(ens3)


@pytest.fixture(scope="session")
def cloning_attack3(ens3):
    return optimal_cloning_attack(ens3)


@pytest.fixture(scope="session")
def clone_med3(cloning_attack3):
    return cloning_attack3.med_after


@pytest.fixture(scope="session")
def cloning_attack_at():
    """optimal_cloning_attack(dps_ensemble(n)), built once per n for the session."""
    return functools.lru_cache(maxsize=None)(lambda n: optimal_cloning_attack(dps_ensemble(n)))


@pytest.fixture(scope="session")
def unitary_attack3(ens3):
    return unitary_cloning_attack(ens3)


@pytest.fixture(scope="session")
def unitary_attack_at():
    """unitary_cloning_attack(dps_ensemble(n)), built once per n for the session."""
    return functools.lru_cache(maxsize=None)(lambda n: unitary_cloning_attack(dps_ensemble(n)))


@pytest.fixture(scope="session")
def unitary3(unitary_attack3):
    """(basis, q_opt, avg_fidelity, params, bob_states) of the unitary cloner."""
    params = unitary_attack3.cloner
    return params.basis, params.q, unitary_attack3.fidelity, params, unitary_attack3.bob_states


@pytest.fixture(scope="session")
def unitary_med3(unitary_attack3):
    return unitary_attack3.med_after


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
