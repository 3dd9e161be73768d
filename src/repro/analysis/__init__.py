"""Analyses over executions: similarity, clustering, statistics."""

from repro.analysis.coverage import (
    CoverageSummary,
    coverage_summary,
    discovery_rate,
    saturation_curve,
)
from repro.analysis.kmedoids import ClusteringResult, k_medoids, limit_study
from repro.analysis.similarity import (
    digit_similarity,
    distance_matrix,
    greedy_chain,
    rf_distance,
)
from repro.analysis.stats import (
    UniquenessStats,
    estimated_signature_bits,
    estimated_signature_cardinality,
    uniqueness,
)

__all__ = [
    "ClusteringResult",
    "CoverageSummary",
    "coverage_summary",
    "discovery_rate",
    "saturation_curve",
    "UniquenessStats",
    "digit_similarity",
    "distance_matrix",
    "estimated_signature_bits",
    "estimated_signature_cardinality",
    "greedy_chain",
    "k_medoids",
    "limit_study",
    "rf_distance",
    "uniqueness",
]
