"""The named tag-selection strategies compared against each other: fixed
top-k, batch-statistic thresholds, reconstructed thresholds, hybrids of
learned and reconstructed thresholds, and the adaptive method.

Provenance flags follow the selection mechanism: thresholded picks carry
from_seen_thresholding (also on novel columns in the full-vocabulary
baselines), extrapolated novel picks from_novel_topk, and top-k prefixes
from_fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    GroundTruth,
    ScoreTable,
    SelectionResult,
    Vocabulary,
    rank_columns,
    require_finite,
)
from .errors import TagSelectError
from .metrics import _mean_f, _prepare, evaluate
from .selection import AdaptiveConfig, adaptive_rows, learned_pool, refine_table, select_rows
from .similarity import SimilarityMatrix
from .thresholds import ThresholdModel, _lsq_thresholds, tag_stats

STRATEGY_NAMES = (
    "top_k",
    "mu_sigma",
    "lsq",
    "hybrid_tau_musigma",
    "hybrid_tau_lsq",
    "adaptive",
)


@dataclass(frozen=True)
class StrategySpec:
    """One comparison row: a strategy name plus its parameters."""

    name: str
    k: int = AdaptiveConfig.fallback_k
    w: float = AdaptiveConfig.w
    refine: bool = False

    def __post_init__(self):
        if self.name not in STRATEGY_NAMES:
            raise TagSelectError(
                f"unknown strategy {self.name!r}; valid names: {', '.join(STRATEGY_NAMES)}"
            )

    def describe(self) -> str:
        if self.name == "top_k":
            return f"top_{self.k}"
        if self.name == "adaptive":
            suffix = f"_refined_w{self.w:g}" if self.refine else ""
            return f"adaptive{suffix}"
        return self.name


def table1_strategies(
    k: int = AdaptiveConfig.fallback_k, w: float = AdaptiveConfig.w, refine: bool = False
) -> tuple[StrategySpec, ...]:
    """All six strategies in their customary comparison order."""
    return tuple(StrategySpec(name, k=k, w=w, refine=refine) for name in STRATEGY_NAMES)


def _require_model(spec: StrategySpec, model: ThresholdModel | None) -> ThresholdModel:
    if model is None:
        raise TagSelectError(f"strategy {spec.name!r} requires a threshold model")
    return model


def _check_table(table: ScoreTable, vocab: Vocabulary) -> None:
    if table.tags != vocab.tags:
        raise TagSelectError("score table columns must match the vocabulary order")
    require_finite(table)


def run_strategy(
    spec: StrategySpec,
    table: ScoreTable,
    vocab: Vocabulary,
    model: ThresholdModel | None = None,
    sim: SimilarityMatrix | None = None,
    cfg: AdaptiveConfig | None = None,
) -> SelectionResult:
    """Run one strategy over every image of a vocabulary-aligned table.

    The statistic-based thresholds (mu_sigma, lsq, and the hybrids' novel
    side) are computed on the batch being annotated, as they need no labels;
    learned thresholds and lsq coefficients come from the model, trained
    elsewhere.  ``cfg`` overrides the adaptive knobs derived from ``spec``.
    A non-finite score raises a ``TagSelectError`` before any selection.
    """
    _check_table(table, vocab)
    if cfg is None:
        cfg = AdaptiveConfig(fallback_k=spec.k, refine=spec.refine, w=spec.w)

    if spec.name == "top_k":
        return select_rows(table, fallback_k=spec.k)
    if spec.name == "adaptive":
        return adaptive_rows(table, vocab, _require_model(spec, model), sim, cfg)

    # The other rows threshold every column: mu_sigma and lsq by batch
    # statistics, the hybrids by learned thresholds where available and
    # batch-statistic predictions for novel (and untrainable seen) tags.
    model = None if spec.name == "mu_sigma" else _require_model(spec, model)
    stats = tag_stats(table)
    # The thresholds are checked before the coefficients.
    pool, tau = learned_pool(table, vocab, model) if spec.name.startswith("hybrid") else ([], [])
    # Overflowing statistics give inf or nan quietly, as Python floats do.
    with np.errstate(over="ignore", invalid="ignore"):
        thr = _lsq_thresholds(model, stats) if spec.name.endswith("lsq") else stats.mu + stats.sigma
    thr[pool] = tau
    return select_rows(table, np.arange(table.n_tags), thr)


@dataclass(frozen=True)
class StrategyRow:
    spec: StrategySpec
    mf: float
    map: float
    mean_selected: float
    n_excluded: int

    def to_dict(self) -> dict:
        return {
            "strategy": self.spec.name,
            "label": self.spec.describe(),
            "k": self.spec.k,
            "w": self.spec.w,
            "refine": self.spec.refine,
            "mf": self.mf,
            "map": self.map,
            "mean_selected": self.mean_selected,
            "n_excluded": self.n_excluded,
        }


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    rows: tuple[StrategyRow, ...]

    def to_dict(self) -> dict:
        return {"rows": [r.to_dict() for r in self.rows]}

    def format_table(self) -> str:
        header = f"{'strategy':<24}{'mf':>10}{'map':>10}{'mean_tags':>12}{'excluded':>10}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r.spec.describe():<24}{r.mf:>10.4f}{r.map:>10.4f}"
                f"{r.mean_selected:>12.2f}{r.n_excluded:>10}"
            )
        return "\n".join(lines)


def compare(
    strategies: Sequence[StrategySpec],
    table: ScoreTable,
    truth: GroundTruth,
    vocab: Vocabulary,
    model: ThresholdModel | None = None,
    sim: SimilarityMatrix | None = None,
    refined_rankings: bool = False,
) -> ComparisonReport:
    """Evaluate several strategies on one table with shared rankings.

    All strategies are judged on one raw ranking of the table, so their MAP
    values are identical by construction: selection cannot alter ranking
    quality.  With ``refined_rankings``, adaptive strategies that refine
    scores are instead judged on the rankings of the refined table, so their
    MAP may differ.  Non-finite scores raise, as in ``run_strategy``, before
    any selection.

    The raw ranking is prepared for evaluation once; each row on it then
    adds up its per-image F, and no per-image report is built.  A row on
    refined rankings is scored by ``evaluate``.
    """
    if not strategies:
        raise TagSelectError("compare needs at least one strategy")
    _check_table(table, vocab)
    # The raw ranking's evaluation is prepared at its first use, after that
    # strategy's selection, so errors keep evaluate's order; the ranking is
    # not kept once it is prepared.
    raw = None
    rows = []
    for spec in strategies:
        if refined_rankings and spec.name == "adaptive" and spec.refine:
            # Refinement changes no seen column and no fallback image, so the
            # refined table, selected on without refining again, gives the same
            # tags.  Knobs and model are checked in run_strategy's order.
            cfg = AdaptiveConfig(fallback_k=spec.k, w=spec.w)
            refined = refine_table(table, vocab, _require_model(spec, model), sim, spec.w)
            selections = run_strategy(spec, refined, vocab, model, sim, cfg)
            report = evaluate(truth, selections, rank_columns(refined))
            mf, map_, n_excluded = report.mf, report.map, report.n_excluded
        else:
            selections = run_strategy(spec, table, vocab, model, sim)
            if raw is None:
                raw = _prepare(truth, selections.images, rank_columns(table), True)
            mf, map_, n_excluded = _mean_f(raw, selections), raw.map, len(raw.excluded)
        mean_selected = int(selections.offsets[-1]) / len(selections.images)
        rows.append(StrategyRow(spec, mf, map_, mean_selected, n_excluded))
    return ComparisonReport(tuple(rows))
