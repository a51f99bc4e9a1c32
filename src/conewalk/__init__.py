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

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
