"""Adaptive tag selection over black-box relevance scores.

Given per-image tag scores from any annotator, this package decides which
and how many tags to keep per image: it learns per-tag thresholds on a
labeled "seen" vocabulary, extrapolates the selection count to an unlabeled
"novel" vocabulary, and optionally refines novel scores through tag
co-occurrence similarity.  Baseline strategies, image-level evaluation
metrics, weak-supervision relevance scoring, score fusion, file formats,
and a seeded synthetic benchmark round out the toolkit.
"""

from .baselines import (
    ComparisonReport,
    STRATEGY_NAMES,
    StrategyRow,
    StrategySpec,
    compare,
    run_strategy,
    table1_strategies,
)
from .core import (
    FROM_FALLBACK,
    FROM_NOVEL_TOPK,
    FROM_SEEN_THRESHOLDING,
    GroundTruth,
    ScoreTable,
    SelectedTag,
    SelectionResult,
    Vocabulary,
    rank_all_tags,
    rank_tags,
    validate_inputs,
)
from .errors import DegenerateFitError, FormatError, TagSelectError, UntrainableTagError
from .fusion import FusionModel, fuse, learn_weights, threshold_selection_strategy
from .metrics import EvaluationReport, ImageEval, ap_image, evaluate, f_image
from .relevance import (
    ClickRecord,
    DEFAULT_ENGINE_WEIGHTS,
    SearchHit,
    SearchRecord,
    TaggedImage,
    TopPositives,
    click_relevance,
    search_relevance,
    semantic_field,
    top_positives,
)
from .selection import (
    AdaptiveConfig,
    k_novel,
    refine_novel_scores,
    select_by_threshold,
)
from .similarity import (
    CooccurrenceStats,
    SimilarityMatrix,
    fcs,
    ngd,
    pair_similarity,
    similarity_matrix,
)
from .synthetic import SyntheticBenchmark, SyntheticSpec, generate_synthetic
from .thresholds import (
    TagStats,
    ThresholdModel,
    fit_lsq,
    learn_all_thresholds,
    learn_threshold,
    predict_threshold,
    tag_stats,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveConfig",
    "ClickRecord",
    "ComparisonReport",
    "CooccurrenceStats",
    "DEFAULT_ENGINE_WEIGHTS",
    "DegenerateFitError",
    "EvaluationReport",
    "FormatError",
    "FROM_FALLBACK",
    "FROM_NOVEL_TOPK",
    "FROM_SEEN_THRESHOLDING",
    "FusionModel",
    "GroundTruth",
    "ImageEval",
    "STRATEGY_NAMES",
    "ScoreTable",
    "SearchHit",
    "SearchRecord",
    "SelectedTag",
    "SelectionResult",
    "SimilarityMatrix",
    "StrategyRow",
    "StrategySpec",
    "SyntheticBenchmark",
    "SyntheticSpec",
    "TagSelectError",
    "TagStats",
    "TaggedImage",
    "ThresholdModel",
    "TopPositives",
    "UntrainableTagError",
    "Vocabulary",
    "ap_image",
    "click_relevance",
    "compare",
    "evaluate",
    "f_image",
    "fcs",
    "fit_lsq",
    "fuse",
    "generate_synthetic",
    "k_novel",
    "learn_all_thresholds",
    "learn_threshold",
    "learn_weights",
    "ngd",
    "pair_similarity",
    "predict_threshold",
    "rank_all_tags",
    "rank_tags",
    "refine_novel_scores",
    "run_strategy",
    "search_relevance",
    "select_by_threshold",
    "semantic_field",
    "similarity_matrix",
    "table1_strategies",
    "tag_stats",
    "threshold_selection_strategy",
    "top_positives",
    "validate_inputs",
]
