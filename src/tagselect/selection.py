"""Tag-selection strategies: fixed top-k, per-tag thresholding, and the
adaptive method that thresholds the seen vocabulary, extrapolates how many
novel tags to take, and optionally refines novel scores through tag
similarity before ranking them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .core import (
    BLOCK_CELLS,
    FROM_FALLBACK,
    FROM_NOVEL_TOPK,
    FROM_SEEN_THRESHOLDING,
    PROVENANCE_CODE,
    ScoreTable,
    SelectionResult,
    Vocabulary,
    _argsort_descending,
    _nonzero_2d,
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
        _check_weight(self.w)


def _check_weight(w: float) -> None:
    if not 0.0 <= w <= 1.0:
        raise TagSelectError(f"refinement weight must lie in [0, 1], got {w!r}")


def _round_half_up(p, q):
    """round-half-up(p / q) for positive ``q``, in exact integer arithmetic;
    ``p`` and ``q`` are ints or int arrays."""
    return (2 * p + q) // (2 * q)


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
    images.  The ``pool`` columns whose scores strictly exceed ``tau`` form
    each image's set A, by descending score; the top k_novel(|pool|,
    |novel|, |A|) ``novel`` columns follow, by their scores or, given
    ``ranked``, an n_images x |novel| matrix, by its column j for
    ``novel[j]``.  With ``fallback_k``, which must lie in [1, n_tags]
    whether or not any image falls back, an image whose A is empty gets the
    top ``fallback_k`` columns instead.  Ties go to the lexically smaller
    tag, so the result does not depend on the order of ``pool`` or
    ``novel``; the columns of each are distinct.  The images are selected a
    block of rows at a time, and only their picks are kept."""
    if fallback_k is not None and (
        not isinstance(fallback_k, int) or not 1 <= fallback_k <= table.n_tags
    ):
        raise TagSelectError(f"k must lie in [1, {table.n_tags}], got {fallback_k!r}")
    require_finite(table)
    scores = table.scores
    # Each column's threshold, +inf off the pool, which no finite score
    # exceeds: a block's mask then needs no copy of the pool's scores.
    cut = np.full(table.n_tags, np.inf)
    cut[pool] = tau
    # Rows per block by the widest gather but the fallback's: it gathers
    # every column of its images, which are few unless the pool is empty,
    # in blocks of its own.
    width = max(pool.size, novel.size) if pool.size else table.n_tags
    step = max(1, BLOCK_CELLS // max(width, 1))
    sizes = np.empty(table.n_images, dtype=np.intp)
    parts = [(_EMPTY, np.zeros(0), np.zeros(0, dtype=np.int8))]
    for r0 in range(0, table.n_images, step):
        block = scores[r0 : r0 + step]
        key = None if ranked is None else ranked[r0 : r0 + step]
        r, c, p = _select_block(block, cut, pool.size, novel, fallback_k, key, table._tag_rank)
        sizes[r0 : r0 + step] = np.bincount(r, minlength=len(block))
        parts.append((c, block[r, c], p))
    columns, picked, provenance = (np.concatenate(arrays) for arrays in zip(*parts))
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    return SelectionResult._from_arrays(
        table.images, table.tags, offsets, columns, picked, provenance
    )


def _select_block(
    scores: np.ndarray,
    cut: np.ndarray,
    n_pool: int,
    novel: np.ndarray,
    fallback_k: int | None,
    ranked: np.ndarray | None,
    tag_rank: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``select_rows`` over one block of rows of ``scores`` (and of
    ``ranked``), for a pool of ``n_pool`` columns, whose scores must exceed
    their ``cut`` to be picked; ``cut`` is +inf on every other column.  It
    returns the rows and columns of the block's picks, row by row and
    each row's in selection order, and their int8 provenance codes, which
    index PROVENANCE_ORDER."""
    parts = [(_EMPTY, _EMPTY, FROM_SEEN_THRESHOLDING)]
    # An empty pool selects nothing, and its k_novel is 0.
    a_size = np.zeros(len(scores), dtype=np.intp)
    if n_pool:
        mask = scores > cut
        a_size = np.count_nonzero(mask, axis=1)
        # Only the selected cells are sorted, grouped by image: sorting
        # whole rows costs more than the selection itself when A is small.
        r, c = _nonzero_2d(mask)
        del mask
        order = _argsort_descending(scores[r, c], tag_rank[c], r)
        parts.append((r[order], c[order], FROM_SEEN_THRESHOLDING))
        k = np.minimum(_round_half_up(novel.size * a_size, n_pool), novel.size)
        take = np.flatnonzero(k)
        if take.size:
            key = scores[np.ix_(take, novel)] if ranked is None else ranked[take]
            r, c = _top_columns(key, tag_rank[novel], k[take])
            parts.append((take[r], novel[c], FROM_NOVEL_TOPK))
    if fallback_k is not None and not a_size.all():
        fallback = np.flatnonzero(a_size == 0)
        # Every fallback image gets fallback_k picks, which lies in [1, n_tags].
        k = np.full(fallback.size, fallback_k)
        step = max(1, BLOCK_CELLS // scores.shape[1])
        for s in range(0, fallback.size, step):
            rows = fallback[s : s + step]
            r, c = _top_columns(scores[rows], tag_rank, k[s : s + step])
            parts.append((rows[r], c, FROM_FALLBACK))
    r, c, p = (np.concatenate(arrays) for arrays in zip(*(
        (r, c, np.full(r.size, PROVENANCE_CODE[source], dtype=np.int8))
        for r, c, source in parts
    )))
    # Each part's rows ascend, as ``_argsort_descending`` (given rows) and
    # ``_top_columns`` order them, so a block with one part needs no merge:
    # this spares a sort per block to the selections of fusion and of the
    # mu-sigma baseline (seen picks only) and of top-k (fallback only).
    if len(parts) > 2:
        # A stable sort by image keeps each image's seen picks before its
        # novel ones; an image with fallback picks has neither.
        order = np.argsort(r, kind="stable")
        r, c, p = r[order], c[order], p[order]
    return r, c, p


def _partitions(top: int, n_cols: int) -> bool:
    """Whether ``_top_columns`` finds the first ``top`` columns of rows of
    ``n_cols`` by a partition rather than by sorting whole rows.  Measured
    on 400 rows of distinct keys, the partition cost less from 64 columns
    on while ``top`` was at most an eighth of them; on fewer columns, or
    from about a quarter of them on, it could cost up to 1.5x more, and at
    ``top = n_cols`` 2-6x more.  Keys with ties favour the partition."""
    return n_cols >= 64 and 8 * top <= n_cols


def _top_columns(
    key: np.ndarray, ties: np.ndarray, k: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The first ``k[i]`` columns of row i of ``order_rows(key, ties)``, for
    counts ``k`` in [0, n_cols]: (rows, columns), rows ascending and each
    row's columns best first.

    When ``_partitions`` holds for K = max(k), only the cells at or above
    each row's K-th best key are ordered, so ties at that key stay in.  The
    K-th best comes from a partition of the negated keys, which puts NaN
    last as the order does: a row whose K-th best key is NaN keeps every
    cell.  Otherwise whole rows are sorted and row i keeps its first k[i]."""
    top = int(k.max(initial=0))
    if top == 0:
        return _EMPTY, _EMPTY
    if not _partitions(top, key.shape[1]):
        order = order_rows(key, ties)[:, :top]
        rows = np.repeat(np.arange(key.shape[0]), k)
        if (k == top).all():
            return rows, order.ravel()
        return rows, order[np.arange(top) < k[:, None]]
    kth = -key
    kth.partition(top - 1, axis=1)
    kth = -kth[:, top - 1, None]
    keep = key >= kth
    keep[np.isnan(kth[:, 0])] = True
    r, c = _nonzero_2d(keep)
    order = _argsort_descending(key[r, c], ties[c], r)
    r, c = r[order], c[order]
    # Each kept cell's place in its row's order.
    sizes = np.bincount(r, minlength=key.shape[0])
    place = np.arange(r.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    first = place < k[r]
    return r[first], c[first]


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
    return min(_round_half_up(novel_size * a_size, seen_size), novel_size)


def _blend(raw, block_t, rows, cols, ratios, w):
    """``w * raw + (1-w) * mean over A of sim * ratio`` per image (row):
    the A cells are ``rows`` and ``cols``, row-major with each row's columns
    ascending, with their ``ratios``, and every row has one at least; row k
    of ``block_t`` holds sim(column k, novel tag).  Each row adds its products in ascending column order, so
    every cell equals a scalar ``acc += sim * ratio`` loop bit for bit; no
    BLAS kernel picks the order.  The rows are taken by |A| descending, so
    those with a p-th A column form a prefix, and each position p is one
    accumulation over it."""
    size = np.bincount(rows, minlength=raw.shape[0])
    order = np.argsort(-size, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    # Row by row, with each row at its rank: the A columns, ascending, and
    # their ratios.
    at = (rank[rows], np.arange(rows.size) - (np.cumsum(size) - size)[rows])
    top = int(size.max(initial=0))
    columns = np.zeros((raw.shape[0], top), dtype=np.intp)
    columns[at] = cols
    weights = np.zeros((raw.shape[0], top))
    weights[at] = ratios
    live = np.count_nonzero(size[:, None] > np.arange(top), axis=0)
    acc = np.zeros(raw.shape)
    terms = np.empty(raw.shape)
    # The indices are in range: "clip" only spares ``take`` a buffer.
    for p, n in enumerate(live.tolist()):
        term = np.take(block_t, columns[:n, p], axis=0, out=terms[:n], mode="clip")
        term *= weights[:n, p, None]
        acc[:n] += term
    # w * raw + (1-w) * (acc / |A|), row by row, in place where it can be.
    mean = np.take(acc, rank, axis=0, out=terms, mode="clip")
    del acc
    mean /= size[:, None]
    mean *= 1.0 - w
    blend = w * raw
    blend += mean
    return blend


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
    _check_weight(w)
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
    novel = vocab.novel_tags
    block = sim.values[np.ix_([sim.index(t) for t in novel], [sim.index(t) for t in a_tags])]
    raw = row[[table.tag_index(t) for t in novel]]
    a = np.arange(len(a_tags))
    refined = _blend(
        raw[None], np.ascontiguousarray(block.T), np.zeros_like(a), a, np.array(ratios), w
    )
    return dict(zip(novel, refined[0].tolist()))


def learned_pool(
    table: ScoreTable, vocab: Vocabulary, model: ThresholdModel
) -> tuple[np.ndarray, np.ndarray]:
    """The learned seen columns (ascending) and their thresholds, from the
    one selection-side reader of ``model.tau``, which refuses a threshold on
    a tag that is not seen.  ``select_rows`` does not depend on the pool's
    order, but ``_blend`` sums over A in pool order, and that order fixes
    the refined scores' bits."""
    for t in model.tau:
        if t not in vocab or not vocab.is_seen(t):
            raise TagSelectError(f"threshold given for {t!r}, not a seen tag")
    pool = sorted(table.tag_index(t) for t in model.tau)
    tau = np.array([model.tau[table.tags[c]] for c in pool], dtype=np.float64)
    return np.array(pool, dtype=np.intp), tau


def _novel_columns(table: ScoreTable, vocab: Vocabulary) -> np.ndarray:
    return np.array([table.tag_index(t) for t in vocab.novel_tags], dtype=np.intp)


def refine_table(
    table: ScoreTable,
    vocab: Vocabulary,
    model: ThresholdModel,
    sim: SimilarityMatrix | None,
    w: float,
) -> ScoreTable:
    """The table with ``refine_novel_scores`` applied to every image whose
    selected seen set is non-empty; other images keep their raw scores.
    Every pool threshold must be positive, selected or not.  A refined
    score that is not finite, as a tiny threshold can overflow a ratio,
    raises, naming the first such cell in row-major order."""
    if model is None:
        raise TagSelectError("refinement requires a threshold model")
    _check_refinable(table, sim, w)
    pool, tau = learned_pool(table, vocab, model)
    return table._derived(_refined(table, pool, tau, _novel_columns(table, vocab), sim, w, True))


def _check_refinable(table: ScoreTable, sim: SimilarityMatrix | None, w: float) -> None:
    """The checks that ``refine_table`` makes before it reads the model,
    in its order."""
    if sim is None:
        raise TagSelectError("refinement requires a similarity matrix")
    _check_weight(w)
    require_finite(table)


def _refined(
    table: ScoreTable,
    pool: np.ndarray,
    tau: np.ndarray,
    novel: np.ndarray,
    sim: SimilarityMatrix,
    w: float,
    whole: bool,
) -> np.ndarray:
    """The scores of ``refine_table``'s result, over the learned ``pool``
    and its thresholds ``tau``, after ``_check_refinable``: the whole
    matrix, or only its ``novel`` columns, n_images x |novel|, which is all
    a selection ranks.  The one copy is refined a block of rows at a time,
    so that the masks, ratios and blend of one block are all it is held
    beside."""
    bad = [repr(table.tags[c]) for c in pool[tau <= 0.0]]
    if bad:
        raise TagSelectError(
            f"thresholds of {', '.join(bad)} are not positive; refinement divides by them"
        )
    # The block first, so that its transients do not sit beside the copy.
    block = sim._block(
        [sim.index(table.tags[c]) for c in novel], [sim.index(table.tags[c]) for c in pool]
    )
    block_t = np.ascontiguousarray(block.T)
    if whole:
        refined, columns = np.array(table.scores), novel
    else:
        refined, columns = table.scores[:, novel], np.arange(novel.size)
    step = max(1, BLOCK_CELLS // max(pool.size, novel.size, 1))
    for r0 in range(0, table.n_images, step):
        part, out = table.scores[r0 : r0 + step], refined[r0 : r0 + step]
        mask = part[:, pool] > tau
        hit = np.flatnonzero(mask.any(axis=1))
        r, j = _nonzero_2d(mask[hit])
        cells = np.ix_(hit, columns)
        with np.errstate(over="ignore", invalid="ignore"):
            ratios = part[hit[r], pool[j]] / tau[j] - 1.0
            values = _blend(out[cells], block_t, r, j, ratios, w)
        bad = ~np.isfinite(values)
        if bad.any():
            i = np.flatnonzero(bad.any(axis=1))[0]
            image, tag = table.images[r0 + hit[i]], table.tags[novel[bad[i]].min()]
            raise TagSelectError(
                f"refinement gives a non-finite score for image {image!r}, tag {tag!r}"
            )
        out[cells] = values
        del values  # so that it does not sit beside the next block's
    return refined


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
    pool, tau = learned_pool(table, vocab, model)
    novel = _novel_columns(table, vocab)
    ranked = None
    if cfg.refine:
        _check_refinable(table, sim, cfg.w)
        ranked = _refined(table, pool, tau, novel, sim, cfg.w, cfg.report_refined)
        if cfg.report_refined:
            # Refinement changes no seen column and no fallback image, so
            # the refined table, ranked by its own scores, selects the same.
            table, ranked = table._derived(ranked), None
    return select_rows(table, pool, tau, novel, cfg.fallback_k, ranked)
