"""Optimal grace-period strategies for transactional conflict resolution."""

from .adversary import AdversaryModel, remaining_time, sample_length, worst_case_for_det
from .costmodel import (
    ConflictInstance,
    conflict_cost,
    expected_cost,
    opt_cost,
    ratio_profile,
)
from .oracle import (
    abort_density_comparison,
    lagrange_identity_check,
    optimality_probe,
    run_verification_suite,
    verify_pdf,
    worst_case_ratio,
)
from .rng import Stream, Streams, derive_seed, stream, streams
from .strategy import (
    ConflictMode,
    GracePeriodStrategy,
    RatioReport,
    StrategyKind,
    StrategySpec,
    Variant,
    competitive_ratio,
    det_competitive_ratio,
    det_threshold,
    lagrange_corner,
    make_strategy,
    threshold_condition,
)

__version__ = "0.1.0"

__all__ = [
    "AdversaryModel", "ConflictInstance", "ConflictMode",
    "GracePeriodStrategy", "RatioReport", "StrategyKind", "StrategySpec",
    "Stream", "Streams", "Variant", "abort_density_comparison",
    "competitive_ratio", "conflict_cost", "derive_seed",
    "det_competitive_ratio", "det_threshold", "expected_cost",
    "lagrange_corner", "lagrange_identity_check", "make_strategy",
    "optimality_probe", "opt_cost", "ratio_profile",
    "remaining_time", "run_verification_suite", "sample_length", "stream",
    "streams", "threshold_condition", "verify_pdf", "worst_case_ratio",
    "worst_case_for_det",
]
