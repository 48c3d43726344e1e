"""Security of differential-phase-shift QKD against explicit individual attacks.

The package models the n-pulse single-photon DPS protocol, solves the
eavesdropper's optimal minimum-error discrimination and cloning strategies
as semidefinite programs with an in-house interior-point solver, evaluates
the bit errors those attacks cause at the receiver's interferometer, and
turns the resulting collision probabilities into shrinking factors and
secure key rates versus distance, including finite-size and
weak-coherent-state variants.

``import dpsqkd`` loads no layer: each exported name imports its layer on
first use (PEP 562) and is then bound in this namespace, so a caller that
needs only :mod:`dpsqkd.keyrate` never loads numpy or the SDP solver.
"""

__version__ = "0.1.0"

# Each exported name -> the layer that defines it; a layer's own name maps to itself.
_LAYER_OF = {
    **dict.fromkeys(("attacks", "CloningResult", "MedResult", "Povm", "UnitaryClonerParams",
                     "aligned_cloning_basis", "apply_unitary_cloner",
                     "collision_probability", "depolarizing_fit", "ir_attack_profile",
                     "med_attack", "med_on_cloned", "optimal_cloner", "optimize_unitary_q",
                     "standard_attack_profiles"), "attacks"),
    **dict.fromkeys(("dps", "DpsEnsemble", "dps_ensemble", "mzi_click_distribution",
                     "mzi_transfer", "spectral_error_terms"), "dps"),
    **dict.fromkeys(("keyrate", "AttackProfile", "ChannelModel", "FiniteSizeParams",
                     "binary_entropy", "finite_size_deviation", "keyrate_sweep",
                     "secure_key_rate", "shrinking_factor", "tau_lower_bound",
                     "unconditional_rate"), "keyrate"),
    **dict.fromkeys(("linalg", "partial_trace"), "linalg"),
    **dict.fromkeys(("sdp", "KktReport", "SdpProblem", "SdpSolution", "solve", "verify_kkt"),
                    "sdp"),
    **dict.fromkeys(("wcs", "WcsParams", "phase_mismatch_qber", "slice_averaged_qber",
                     "usd_block_identification", "usd_success", "wcs_ir_fraction",
                     "wcs_key_rates"), "wcs"),
}
__all__ = sorted(_LAYER_OF)


def __getattr__(name):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ rather than importlib.import_module, because only the former
    # is timed by ``python -X importtime``; both bind the layer in this namespace
    __import__(f"{__name__}.{layer}")
    module = globals()[layer]
    value = module if name == layer else getattr(module, name)
    # bound as a plain global, so later lookups, and patches of vars(dpsqkd), skip this hook
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
