"""Finite-sample risk certificates for contracting reservoir filters.

Submodules: dependence (the value types of dependence data), processes
(dependent input generators and coupling coefficients), reservoir (filter
families and their constraint caps), learning (losses, risks, ERM), bounds
(the certificate chain and its inversion), validation (Monte Carlo stress
tests), specs (the JSON spec reader and writer of every config type), cli
(config-driven front end).

The names below load their submodule on first access (PEP 562), so
importing the package, or running ``python -m rcbounds.cli``, loads no
layer that the request does not use.
"""

import importlib

_EXPORTS = {
    "bounds": (
        "BoundInputs",
        "BoundReport",
        "ChainConstants",
        "PhiFunction",
        "block_length",
        "bound_from_constants",
        "bound_inputs_from_class",
        "expected_gap_constants",
        "geometric_envelope",
        "min_sample_size",
        "min_sample_size_from_constants",
        "rademacher_constant",
        "risk_bound",
    ),
    "dependence": (
        "DependenceProfile",
        "InnovationLaw",
        "Moment",
    ),
    "learning": (
        "IndependentJoint",
        "LossFunction",
        "TeacherJoint",
        "empirical_risk",
        "exact_risk",
        "fit_readout_erm",
        "idealized_empirical_risk",
        "sample_joint",
        "statistical_risk_mc",
    ),
    "processes": (
        "ARFIMAProcess",
        "GARCHProcess",
        "IIDProcess",
        "MAProcess",
        "VAR1Process",
        "batch_paths",
        "dependence_params",
        "estimate_theta",
        "fit_theta_decay",
        "generate_path",
        "model_from_spec",
        "model_to_spec",
    ),
    "reservoir": (
        "EchoStateClass",
        "EchoStateReservoir",
        "Hypothesis",
        "LinearClass",
        "LinearReservoir",
        "RandomEchoStateClass",
        "Readout",
        "StateAffineClass",
        "StateAffineReservoir",
        "esp_convergence_check",
        "final_outputs",
        "random_esn",
        "run_filter",
        "sample_from_class",
        "zero_input_fixed_point",
    ),
    "validation": (
        "candidate_set",
        "consistency_curve",
        "history_lipschitz_check",
        "mc_rademacher",
        "risk_gap_experiment",
        "teacher_target_profile",
        "truncation_gap_experiment",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
