"""Quantumness of two-state qubit ensembles.

Quantum discord of the state that correlates a classical label with the
prepared qubit equals the gap between the Holevo bound and the accessible
information, and both sides share one optimal measurement axis.  This
package computes all of it in the Bloch picture: closed forms where they
exist (pure pairs, the rank-2 geometric eigenpair), a plane-restricted
golden-section search for the rest, and dense sphere-grid oracles that
cross-check every optimizer.
"""

from .qstate import (
    binary_entropy,
    example_pair_bloch,
    pure_overlap,
    purity,
    shannon_entropy,
    von_neumann_entropy,
)
from .ensemble import (
    QubitEnsemble,
    average_state,
    cq_state_entropy,
    cq_state_spectrum,
    holevo_chi,
    quantum_mutual_information,
    random_ensemble,
    random_pure_pair,
)
from .measurement import (
    canonical_axis,
    classical_mutual_information,
    conditional_entropy,
    post_measurement_purity,
)
from .discord import (
    AnalyticConditionsReport,
    KoashiWinterBreakdown,
    OptimizationResult,
    accessible_information,
    average_state_eigen_split,
    check_analytic_conditions,
    concurrence_pure_ensemble,
    discord_pure_koashi_winter,
    eof_from_concurrence,
    example_discord_closed_form,
    quantum_discord,
    stationarity_residual,
)
from .geodiscord import (
    GeoBranchReport,
    GeoQuadraticForm,
    NonStationaryAxisError,
    ensemble_purity,
    example_geo_closed_form,
    geo_choice_classifier,
    geo_stationarity_residual,
    geometric_discord,
    quadratic_form,
)
from .oracle import brute_force_accessible, brute_force_geo, fibonacci_sphere

__version__ = "0.1.0"

__all__ = [
    "AnalyticConditionsReport",
    "GeoBranchReport",
    "GeoQuadraticForm",
    "KoashiWinterBreakdown",
    "NonStationaryAxisError",
    "OptimizationResult",
    "QubitEnsemble",
    "accessible_information",
    "average_state",
    "average_state_eigen_split",
    "binary_entropy",
    "brute_force_accessible",
    "brute_force_geo",
    "canonical_axis",
    "check_analytic_conditions",
    "classical_mutual_information",
    "concurrence_pure_ensemble",
    "conditional_entropy",
    "cq_state_entropy",
    "cq_state_spectrum",
    "discord_pure_koashi_winter",
    "ensemble_purity",
    "eof_from_concurrence",
    "example_discord_closed_form",
    "example_geo_closed_form",
    "example_pair_bloch",
    "fibonacci_sphere",
    "geo_choice_classifier",
    "geo_stationarity_residual",
    "geometric_discord",
    "holevo_chi",
    "post_measurement_purity",
    "pure_overlap",
    "purity",
    "quadratic_form",
    "quantum_discord",
    "quantum_mutual_information",
    "random_ensemble",
    "random_pure_pair",
    "shannon_entropy",
    "von_neumann_entropy",
]
