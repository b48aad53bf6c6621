"""knnsweep: pick the best k for kNN classification in one pass.

Cross-validated accuracy for every neighborhood size is computed from one
sorted cross-fold neighbor list per row, a block of rows at a time, instead
of re-running the classifier per k. A brute-force cross-validation oracle is
included for verification and benchmarking.
"""

__version__ = "0.1.0"

from .dataset import Dataset, FoldAssignment, generate_synthetic, load_csv, stratified_folds
from .distance import (
    DEFAULT_MEMORY_BUDGET,
    METRICS,
    SortedDistanceMatrix,
    build_sorted_matrix,
    dump_matrix,
    estimate_footprint,
    load_matrix_dump,
    pairwise_distance,
)
from .oracle import (
    FoldDistanceCache,
    KSchedule,
    cross_validate,
    full_schedule,
    knn_classify,
    logarithmic_schedule,
    naive_search,
)
from .sweep import (
    TIE_POLICIES,
    AccuracyMatrix,
    KSearchReport,
    accuracy_curve_export,
    classify_at_k,
    row_blocks,
    select_k,
    sweep,
)

__all__ = [
    "Dataset", "FoldAssignment", "load_csv", "stratified_folds", "generate_synthetic",
    "METRICS", "DEFAULT_MEMORY_BUDGET", "SortedDistanceMatrix", "pairwise_distance",
    "build_sorted_matrix", "estimate_footprint", "dump_matrix", "load_matrix_dump",
    "TIE_POLICIES", "AccuracyMatrix", "KSearchReport", "classify_at_k", "sweep",
    "row_blocks", "select_k", "accuracy_curve_export",
    "KSchedule", "knn_classify", "cross_validate", "logarithmic_schedule",
    "full_schedule", "naive_search", "FoldDistanceCache",
]
