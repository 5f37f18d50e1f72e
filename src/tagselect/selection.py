"""Tag-selection strategies: fixed top-k, per-tag thresholding, and the
adaptive method that thresholds the seen vocabulary, extrapolates how many
novel tags to take, and optionally refines novel scores through tag
similarity before ranking them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .core import (
    FROM_FALLBACK,
    FROM_NOVEL_TOPK,
    FROM_SEEN_THRESHOLDING,
    ScoreTable,
    SelectedTag,
    Vocabulary,
    rank_tags,
)
from .errors import TagSelectError
from .similarity import SimilarityMatrix
from .thresholds import ThresholdModel


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs of the adaptive strategy.

    ``fallback_k`` is the top-k size used when no seen tag clears its
    threshold.  ``refine`` turns on similarity-based refinement of novel
    scores; ``w`` blends the raw score with the refinement term.  Refined
    scores always drive the novel ranking; they are reported in the output
    only when ``report_refined`` is set.  The count extrapolation always
    rounds half up; that rule is fixed, not configurable.
    """

    fallback_k: int = 5
    refine: bool = False
    w: float = 0.5
    report_refined: bool = False

    def __post_init__(self):
        if not isinstance(self.fallback_k, int) or self.fallback_k < 1:
            raise TagSelectError(f"fallback_k must be a positive integer, got {self.fallback_k!r}")
        if not 0.0 <= self.w <= 1.0:
            raise TagSelectError(f"refinement weight must lie in [0, 1], got {self.w!r}")


def select_topk(table: ScoreTable, image: str, k: int) -> tuple[SelectedTag, ...]:
    """The k highest-scoring tags of the image, ties broken by tag string."""
    if not isinstance(k, int) or not 1 <= k <= table.n_tags:
        raise TagSelectError(f"k must lie in [1, {table.n_tags}], got {k!r}")
    row = table.row(image)
    ranked = rank_tags(table, image)[:k]
    return tuple(
        SelectedTag(t, float(row[table.tag_index(t)]), FROM_FALLBACK) for t in ranked
    )


def select_by_threshold(
    table: ScoreTable,
    image: str,
    thresholds: Mapping[str, float],
    tag_subset: Iterable[str],
) -> frozenset[str]:
    """Tags of the subset whose score strictly exceeds their threshold.

    A score exactly equal to the threshold is not selected.  Every subset
    tag must have a threshold and a score column.
    """
    row = table.row(image)
    chosen = []
    for t in tag_subset:
        try:
            tau = thresholds[t]
        except KeyError:
            raise TagSelectError(f"no threshold given for tag {t!r}") from None
        if row[table.tag_index(t)] > tau:
            chosen.append(t)
    return frozenset(chosen)


def threshold_rows(
    table: ScoreTable, thresholds: np.ndarray
) -> dict[str, tuple[SelectedTag, ...]]:
    """Strict-threshold selection over all table columns at once.

    ``thresholds`` holds one value per column; ``+inf`` keeps a column out.
    Each image's picks are ordered by descending score, then tag string.
    """
    mask = table.scores > thresholds[None, :]
    rows: dict[str, tuple[SelectedTag, ...]] = {}
    tags = table.tags
    for i, image in enumerate(table.images):
        idx = np.flatnonzero(mask[i])
        row = table.scores[i]
        ordered = sorted(idx, key=lambda j: (-row[j], tags[j]))
        rows[image] = tuple(
            SelectedTag(tags[j], float(row[j]), FROM_SEEN_THRESHOLDING) for j in ordered
        )
    return rows


def k_novel(seen_size: int, novel_size: int, a_size: int) -> int:
    """How many novel tags to select, extrapolating the seen selection rate.

    Computes round-half-up(novel_size * a_size / seen_size) in exact integer
    arithmetic, capped at novel_size.
    """
    if seen_size < 1:
        raise TagSelectError("seen_size must be at least 1")
    if novel_size < 0 or a_size < 0 or a_size > seen_size:
        raise TagSelectError("need 0 <= a_size <= seen_size and novel_size >= 0")
    k = (2 * novel_size * a_size + seen_size) // (2 * seen_size)
    return min(k, novel_size)


def refine_novel_scores(
    table: ScoreTable,
    image: str,
    vocab: Vocabulary,
    selected_seen: Iterable[str],
    model: ThresholdModel,
    sim: SimilarityMatrix,
    w: float,
) -> dict[str, float]:
    """Blend each novel tag's score with evidence from the selected seen tags.

    For novel tag t the new score is
        w * f(x,t) + (1-w) * (1/|A|) * sum over t' in A of
            sim(t,t') * (f(x,t') / tau_t' - 1)
    where A is the selected seen set.  Each summand is non-negative whenever
    similarities are non-negative, because membership in A means the score
    cleared its (positive) threshold.  Seen-tag scores are never modified;
    only the novel row is returned, keyed by tag.
    """
    if not 0.0 <= w <= 1.0:
        raise TagSelectError(f"refinement weight must lie in [0, 1], got {w!r}")
    # Summation over A runs in table column order, fixed at construction,
    # so the float result is deterministic regardless of the set's order.
    a_tags = sorted(set(selected_seen), key=table.tag_index)
    if not a_tags:
        raise TagSelectError("refinement needs a non-empty selected seen set")
    row = table.row(image)
    ratios = []
    for t in a_tags:
        if not vocab.is_seen(t):
            raise TagSelectError(f"refinement anchor {t!r} is not a seen tag")
        tau = model.tau.get(t)
        if tau is None:
            raise TagSelectError(f"selected seen tag {t!r} has no learned threshold")
        if tau <= 0.0:
            raise TagSelectError(
                f"threshold for {t!r} is {tau!r}; scores cannot be normalized by it"
            )
        ratios.append(row[table.tag_index(t)] / tau - 1.0)
    ratios = np.array(ratios, dtype=np.float64)
    novel = list(vocab.novel_tags)
    sim_block = sim.values[np.ix_(
        [sim.index(t) for t in novel], [sim.index(t) for t in a_tags]
    )]
    additive = sim_block @ ratios / len(a_tags)
    refined = {}
    for i, t in enumerate(novel):
        refined[t] = w * float(row[table.tag_index(t)]) + (1.0 - w) * float(additive[i])
    return refined


def select_adaptive(
    table: ScoreTable,
    image: str,
    vocab: Vocabulary,
    model: ThresholdModel,
    sim: SimilarityMatrix | None,
    cfg: AdaptiveConfig,
) -> tuple[SelectedTag, ...]:
    """The adaptive strategy for one image.

    Seen tags with learned thresholds form the candidate pool; those whose
    scores clear their thresholds become A.  When A is empty the image falls
    back to plain top-k over the full vocabulary.  Otherwise the novel count
    is extrapolated from |A| over the pool size and the top novel tags are
    appended, ranked by refined scores when refinement is on.  Untrainable
    seen tags count in neither the pool nor the extrapolation.
    """
    pool = [t for t in vocab.seen_tags if t in model.tau]
    a_set = select_by_threshold(table, image, model.tau, pool)
    if not a_set:
        return select_topk(table, image, cfg.fallback_k)
    if cfg.refine and sim is None:
        raise TagSelectError("refinement requires a similarity matrix")

    row = table.row(image)
    k = k_novel(len(pool), len(vocab.novel_tags), len(a_set))

    seen_part = sorted(a_set, key=lambda t: (-row[table.tag_index(t)], t))
    result = [
        SelectedTag(t, float(row[table.tag_index(t)]), FROM_SEEN_THRESHOLDING)
        for t in seen_part
    ]
    if k > 0:
        novel = list(vocab.novel_tags)
        raw = {t: float(row[table.tag_index(t)]) for t in novel}
        if cfg.refine:
            ranking = refine_novel_scores(table, image, vocab, a_set, model, sim, cfg.w)
        else:
            ranking = raw
        picks = sorted(novel, key=lambda t: (-ranking[t], t))[:k]
        reported = ranking if (cfg.refine and cfg.report_refined) else raw
        result.extend(SelectedTag(t, reported[t], FROM_NOVEL_TOPK) for t in picks)
    return tuple(result)
