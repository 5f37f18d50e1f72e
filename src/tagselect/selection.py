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
    SelectionResult,
    Vocabulary,
    order_rows,
    require_finite,
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


_PROVENANCES = (FROM_SEEN_THRESHOLDING, FROM_NOVEL_TOPK, FROM_FALLBACK)
_EMPTY = np.zeros(0, dtype=np.intp)


def select_rows(
    table: ScoreTable,
    pool: np.ndarray = _EMPTY,
    tau: np.ndarray = _EMPTY,
    novel: np.ndarray = _EMPTY,
    fallback_k: int | None = None,
    ranked: np.ndarray | None = None,
) -> SelectionResult:
    """The selection kernel behind every strategy, one array pass over all
    images.  The ``pool`` columns (ascending) whose scores strictly exceed
    ``tau`` form each image's set A, by descending score; the top
    k_novel(|pool|, |novel|, |A|) ``novel`` columns by ``ranked`` (default:
    the scores) follow.  With ``fallback_k``, which must lie in [1, n_tags]
    whether or not any image falls back, an image whose A is empty gets the
    top ``fallback_k`` columns instead.  Ties go to the lexically smaller tag."""
    if fallback_k is not None and (
        not isinstance(fallback_k, int) or not 1 <= fallback_k <= table.n_tags
    ):
        raise TagSelectError(f"k must lie in [1, {table.n_tags}], got {fallback_k!r}")
    require_finite(table)
    scores = table.scores
    tag_rank = table._tag_rank
    mask = scores[:, pool] > tau
    a_size = np.count_nonzero(mask, axis=1)
    # Only the selected cells are sorted: a lexsort of whole rows costs more
    # than the selection itself when A is small.
    r, j = np.nonzero(mask)
    c = pool[j]
    order = np.lexsort((tag_rank[c], -scores[r, c], r))
    parts = [(r[order], c[order], np.full(r.size, 0))]
    # An empty pool selects nothing, so its k_novel is 0.
    k = np.minimum((2 * novel.size * a_size + pool.size) // max(2 * pool.size, 1), novel.size)
    take = np.flatnonzero(k)
    key = (scores if ranked is None else ranked)[take][:, novel]
    i, j = np.nonzero(np.arange(novel.size) < k[take, None])
    parts.append((take[i], novel[order_rows(key, tag_rank[novel])[i, j]], np.full(i.size, 1)))
    if fallback_k is not None and not a_size.all():
        fallback = np.flatnonzero(a_size == 0)
        c = order_rows(scores[fallback], tag_rank)[:, :fallback_k].ravel()
        parts.append((np.repeat(fallback, fallback_k), c, np.full(c.size, 2)))

    # A stable sort by image keeps each image's seen picks before its novel
    # ones; an image with fallback picks has neither.
    r, c, p = (np.concatenate(arrays) for arrays in zip(*parts))
    order = np.argsort(r, kind="stable")
    r, c, p = r[order], c[order], p[order]
    picks = [
        SelectedTag(table.tags[j], s, _PROVENANCES[q])
        for j, s, q in zip(c.tolist(), scores[r, c].tolist(), p.tolist())
    ]
    ends = np.cumsum(np.bincount(r, minlength=table.n_images)).tolist()
    return SelectionResult(
        table.images, {x: picks[lo:hi] for x, lo, hi in zip(table.images, [0, *ends], ends)}
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


def _columns(
    table: ScoreTable, vocab: Vocabulary, model: ThresholdModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adaptive pool (trainable seen columns), its thresholds, novel columns."""
    pool = sorted(table.tag_index(t) for t in vocab.seen_tags if t in model.tau)
    tau = np.array([model.tau[table.tags[c]] for c in pool], dtype=np.float64)
    novel = [table.tag_index(t) for t in vocab.novel_tags]
    return np.array(pool, dtype=np.intp), tau, np.array(novel, dtype=np.intp)


def refine_table(
    table: ScoreTable,
    vocab: Vocabulary,
    model: ThresholdModel,
    sim: SimilarityMatrix | None,
    w: float,
) -> ScoreTable:
    """The table with ``refine_novel_scores`` applied to every image whose
    selected seen set is non-empty; other images keep their raw scores.
    Every pool threshold must be positive, selected or not."""
    if sim is None:
        raise TagSelectError("refinement requires a similarity matrix")
    if not 0.0 <= w <= 1.0:
        raise TagSelectError(f"refinement weight must lie in [0, 1], got {w!r}")
    require_finite(table)
    pool, tau, novel = _columns(table, vocab, model)
    bad = [repr(table.tags[c]) for c in pool[tau <= 0.0]]
    if bad:
        raise TagSelectError(
            f"thresholds of {', '.join(bad)} are not positive; refinement divides by them"
        )
    scores = np.array(table.scores)
    mask = scores[:, pool] > tau
    # Pool tags that no image selects take no part in any sum.
    keep = mask.any(axis=0)
    pool, tau, mask = pool[keep], tau[keep], mask[:, keep]
    block = sim.values[np.ix_(
        [sim.index(table.tags[c]) for c in novel], [sim.index(table.tags[c]) for c in pool]
    )]
    ratios = scores[:, pool] / tau - 1.0
    for i in np.flatnonzero(mask.any(axis=1)):
        a = np.flatnonzero(mask[i])
        # One product per image with a C-contiguous (novel x A) block sums
        # over A in the order refine_novel_scores does; a masked product
        # over the pool, or a strided block, can move the last bit.
        additive = block.take(a, axis=1) @ ratios[i, a] / a.size
        scores[i, novel] = w * scores[i, novel] + (1.0 - w) * additive
    return ScoreTable(table.images, table.tags, scores)


def adaptive_rows(
    table: ScoreTable,
    vocab: Vocabulary,
    model: ThresholdModel,
    sim: SimilarityMatrix | None,
    cfg: AdaptiveConfig,
) -> SelectionResult:
    """The adaptive strategy for every image of the table.

    Seen tags with learned thresholds form the candidate pool; those whose
    scores clear their thresholds become A.  When A is empty the image falls
    back to plain top-k over the full vocabulary.  Otherwise the novel count
    is extrapolated from |A| over the pool size and the top novel tags are
    appended, ranked by refined scores when refinement is on.  Untrainable
    seen tags count in neither the pool nor the extrapolation.
    """
    pool, tau, novel = _columns(table, vocab, model)
    ranked = None
    if cfg.refine:
        refined = refine_table(table, vocab, model, sim, cfg.w)
        ranked = refined.scores
        if cfg.report_refined:
            # Refinement changes no seen column and no fallback image.
            table = refined
    return select_rows(table, pool, tau, novel, cfg.fallback_k, ranked)
