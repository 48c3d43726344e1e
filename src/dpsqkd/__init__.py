"""Security of differential-phase-shift QKD against explicit individual attacks.

The package models the n-pulse single-photon DPS protocol, solves the
eavesdropper's optimal minimum-error discrimination and cloning strategies
as semidefinite programs with an in-house interior-point solver, evaluates
the bit errors those attacks cause at the receiver's interferometer, and
turns the resulting collision probabilities into shrinking factors and
secure key rates versus distance, including finite-size and
weak-coherent-state variants.
"""

from .attacks import (AttackProfile, CloningResult, MedResult, Povm,
                      UnitaryClonerParams, aligned_cloning_basis, apply_choi,
                      apply_unitary_cloner, collision_probability,
                      depolarizing_fit, ir_attack_profile,
                      med_attack, med_on_cloned, optimal_cloner,
                      optimize_unitary_q, pgm_povm, standard_attack_profiles)
from .dps import (ClickDistribution, DpsEnsemble,
                  ber_of_state, dps_ensemble,
                  mzi_click_distribution, mzi_transfer, spectral_error_terms)
from .keyrate import (ChannelModel, FiniteSizeParams, binary_entropy,
                      finite_size_deviation, keyrate_sweep, secure_key_rate,
                      shrinking_factor, tau_lower_bound, unconditional_rate)
from .linalg import partial_trace
from .sdp import KktReport, SdpProblem, SdpSolution, solve, verify_kkt
from .wcs import (WcsParams, phase_mismatch_qber, slice_averaged_qber,
                  usd_block_identification, usd_success, wcs_ir_fraction,
                  wcs_key_rates)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
