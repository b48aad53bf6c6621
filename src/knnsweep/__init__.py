"""knnsweep: pick the best k for kNN classification in one pass.

Cross-validated accuracy for every neighborhood size is computed from one
sorted cross-fold neighbor list per row, a block of rows at a time, instead
of re-running the classifier per k. A brute-force cross-validation oracle is
included for verification and benchmarking.
"""

__version__ = "0.1.0"

from .dataset import Dataset, FoldAssignment, generate_synthetic, load_csv, stratified_folds
from .distance import METRICS, SortedDistanceMatrix, build_sorted_matrix
from .oracle import (
    FoldDistanceCache,
    KSchedule,
    cross_validate,
    full_schedule,
    knn_classify,
    logarithmic_schedule,
    naive_search,
)
from .sweep import (DEFAULT_MEMORY_BUDGET, TIE_POLICIES, AccuracyMatrix, KSearchReport, LabelPanel,
                    accuracy_curve_export, classify_at_k, row_blocks, select_k, sweep, tally_type)

__all__ = [
    "Dataset", "FoldAssignment", "load_csv", "stratified_folds", "generate_synthetic",
    "METRICS", "DEFAULT_MEMORY_BUDGET", "SortedDistanceMatrix", "build_sorted_matrix",
    "TIE_POLICIES", "AccuracyMatrix", "KSearchReport", "classify_at_k", "LabelPanel",
    "sweep", "row_blocks", "tally_type", "select_k", "accuracy_curve_export",
    "KSchedule", "knn_classify", "cross_validate", "logarithmic_schedule",
    "full_schedule", "naive_search", "FoldDistanceCache",
]
