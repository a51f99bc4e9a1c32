"""Exact and Monte Carlo analysis of random walks confined to convex cones."""

from .errors import ConewalkError
from .exact_dp import (
    EscapeBounds,
    ExactSequence,
    StateLayer,
    escape_probability_bounds,
    excursion_sequence,
    survival_layers,
    survival_sequence,
    tilted_survival_functional,
)
from .laplace import (
    DriftClass,
    LaplaceAnalysis,
    analyze,
    classify_drift,
    laplace_eval,
    minimize_global,
    minimize_over_dual,
    tilt_distribution,
)
from .mc import (
    McEstimate,
    simulate_survival,
    simulate_tilted,
)
from .model import (
    ConeSpec,
    StepDistribution,
    WalkModel,
    brute_force_excursion,
    brute_force_survival,
    build_model,
    load_model,
    parse_model,
)
from .oned import (
    OneDimModel,
    asymptotic_reference,
    closed_form_coefficients,
    escape_prob_1d,
)
from .seqlab import (
    NoRecurrenceUpTo,
    RecurrenceModel,
    SequenceVerdict,
    estimate_rho,
    excursion_exponent_fit,
    guess_recurrence,
    sequence_verdict,
    subexponential_profile,
)

__all__ = [
    "ConeSpec", "ConewalkError", "DriftClass", "EscapeBounds", "ExactSequence",
    "LaplaceAnalysis", "McEstimate", "NoRecurrenceUpTo", "OneDimModel",
    "RecurrenceModel", "SequenceVerdict", "StateLayer", "StepDistribution",
    "WalkModel", "analyze", "asymptotic_reference", "brute_force_excursion",
    "brute_force_survival", "build_model", "classify_drift",
    "closed_form_coefficients", "escape_prob_1d", "escape_probability_bounds",
    "estimate_rho", "excursion_exponent_fit", "excursion_sequence",
    "guess_recurrence", "laplace_eval", "load_model", "minimize_global",
    "minimize_over_dual", "parse_model", "sequence_verdict",
    "simulate_survival", "simulate_tilted", "subexponential_profile",
    "survival_layers", "survival_sequence", "tilt_distribution",
    "tilted_survival_functional",
]
__version__ = "0.1.0"
