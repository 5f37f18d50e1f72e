"""Image-level evaluation: per-image F of the selected tag set, average
precision of the tag ranking, and their corpus means."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, takewhile
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import BLOCK_CELLS, GroundTruth, SelectionResult, TagRankings, _nonzero_2d
from .errors import TagSelectError


@dataclass(frozen=True)
class ImageEval:
    precision: float
    recall: float
    f: float
    ap: float


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    """Per-image metrics plus corpus means.

    ``mf`` and ``map`` average F and AP over the included images only;
    ``excluded`` lists images dropped for missing ground truth, incomplete
    coverage, or an empty relevant set.
    """

    per_image: Mapping[str, ImageEval]
    mf: float
    map: float
    excluded: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "per_image", dict(self.per_image))
        object.__setattr__(self, "excluded", tuple(self.excluded))

    @property
    def n_included(self) -> int:
        return len(self.per_image)

    @property
    def n_excluded(self) -> int:
        return len(self.excluded)

    def to_dict(self, per_image: bool = False) -> dict:
        d = {
            "mf": self.mf,
            "map": self.map,
            "n_included": self.n_included,
            "n_excluded": self.n_excluded,
            "excluded": list(self.excluded),
        }
        if per_image:
            d["per_image"] = {
                x: {"precision": e.precision, "recall": e.recall, "f": e.f, "ap": e.ap}
                for x, e in self.per_image.items()
            }
        return d


def f_image(relevant: Iterable[str], predicted: Iterable[str]) -> tuple[float, float, float]:
    """Precision, recall and F1 of a predicted tag set against the relevant
    set.  An empty prediction scores 0; the relevant set must be non-empty
    (such images are excluded upstream)."""
    r = frozenset(relevant)
    p = frozenset(predicted)
    if not r:
        raise TagSelectError("relevant set is empty; image must be excluded upstream")
    hit = len(r & p)
    precision = hit / len(p) if p else 0.0
    recall = hit / len(r)
    if precision + recall == 0.0:
        return precision, recall, 0.0
    return precision, recall, 2.0 * precision * recall / (precision + recall)


def ap_image(relevant: Iterable[str], ranked: Sequence[str]) -> float:
    """Average precision of a tag ranking: mean over the relevant ranks of
    the precision at that rank, normalized by the relevant-set size."""
    r = frozenset(relevant)
    if not r:
        raise TagSelectError("relevant set is empty; image must be excluded upstream")
    seen = set()
    hits = 0
    acc = 0.0
    for i, t in enumerate(ranked, start=1):
        if t in seen:
            raise TagSelectError(f"ranking contains duplicate tag {t!r}")
        seen.add(t)
        if t in r:
            hits += 1
            acc += hits / i
    return acc / len(r)


def evaluate(
    truth: GroundTruth,
    selections: SelectionResult,
    rankings: Mapping[str, Sequence[str]] | TagRankings,
    require_full_coverage: bool = True,
) -> EvaluationReport:
    """Score per-image selections and rankings against ground truth.

    Each image's ranking defines the tag universe it is judged over, and
    universes may differ from image to image.  With ``require_full_coverage``
    (the default) an image is excluded unless every universe tag carries a
    defined label; this mirrors dropping test images without full ground
    truth.  With it off, undefined tags are masked out of both the ranking
    and the prediction set instead.  Images with an empty relevant set are
    always excluded.  Corpus means run over included images.

    ``rankings`` maps each image to its ranked tags, or is a ``TagRankings``
    (from ``rank_columns``), which ranks every image over the same tags and
    is used without per-image strings.

    Every image is scored in one array pass, and the floats equal those of
    ``f_image`` and ``ap_image`` bit for bit: an image's AP adds its
    precisions left to right in rank order, and ``mf``/``map`` add the
    per-image values left to right in image order, as the scalar loop does.
    """
    prepared = _prepare(truth, selections.images, rankings, require_full_coverage)
    return _score(prepared, selections)


@dataclass(frozen=True, eq=False)
class _Prepared:
    """The part of an evaluation that depends on the truth, the images and
    their rankings only: the included images, with their labels and
    relevant masks as rows over the coverage columns plus the padding
    column, and their AP.  ``_score`` adds any selection over ``images``."""

    truth: GroundTruth
    images: tuple[str, ...]
    require_full_coverage: bool
    positions: np.ndarray
    labels: np.ndarray
    relevant: np.ndarray
    n_relevant: np.ndarray
    excluded: tuple[str, ...]
    ap: list[float]
    map: float


def _prepare(
    truth: GroundTruth,
    images: tuple[str, ...],
    rankings: Mapping[str, Sequence[str]] | TagRankings,
    require_full_coverage: bool,
) -> _Prepared:
    """Everything of ``evaluate`` that no selection enters, with every error
    ``evaluate`` raises, in its order."""
    if isinstance(rankings, TagRankings):
        position = {x: i for i, x in enumerate(rankings.images)}
        found = list(takewhile(lambda i: i is not None, map(position.get, images)))
    else:
        universes: list[Sequence[str]] = []
        for x in images:
            try:
                universes.append(rankings[x])
            except KeyError:
                break
        found = range(len(universes))
    # Images up to the first one without a ranking are prepared, so that an
    # error in one of them is raised before the missing ranking, in image
    # order, as a per-image loop would.
    in_truth = [i for i, x in enumerate(images[: len(found)]) if truth.has_image(x)]
    n = len(in_truth)
    n_cov = len(truth.coverage)
    if isinstance(rankings, TagRankings):
        # int32 columns (there are at most n_cov + 1), gathered by ``order``
        # a block of rows at a time: no intp copy of the whole ranking is
        # made.
        cols32 = truth.columns(rankings.tags).astype(np.int32)
        picked = np.array([found[i] for i in in_truth], dtype=np.intp)

        def ranked_rows(r0: int, r1: int) -> np.ndarray:
            return cols32[rankings.order[picked[r0:r1]]]

        lengths = np.full(n, len(rankings.tags))
    else:
        chosen = [universes[i] for i in in_truth]
        lengths = np.fromiter(map(len, chosen), dtype=np.intp, count=n)

        def ranked_rows(r0: int, r1: int) -> np.ndarray:
            columns = truth.columns(chain.from_iterable(chosen[r0:r1]))
            return _pad_rows(columns, lengths[r0:r1], n_cov)

    # Row i of a block of ``ranked_rows`` holds the ranked tags of image
    # ``in_truth[r0 + i]`` as coverage columns, padded on the right with
    # column ``n_cov``, which stands for every tag outside the coverage and
    # is never labeled.  The rows are taken a block at a time.
    labels = np.full((n, n_cov + 1), -1, dtype=np.int8)
    labels[:, :n_cov] = truth.labels[[truth.image_index(images[i]) for i in in_truth]]
    relevant = np.empty(labels.shape, dtype=bool)
    n_relevant = np.empty(n, dtype=np.intp)
    included = np.empty(n, dtype=bool)
    ap_sum = np.empty(n)
    step = max(1, BLOCK_CELLS // max(int(lengths.max(initial=0)), n_cov + 1))
    for r0 in range(0, n, step):
        r1 = min(n, r0 + step)
        ranked_b = ranked_rows(r0, r1)
        labels_b = labels[r0:r1]
        rows = np.arange(r1 - r0)[:, None]
        label = labels_b[rows, ranked_b]
        is_judged = label >= 0
        n_judged = np.count_nonzero(is_judged, axis=1)
        in_ranking = np.zeros(labels_b.shape, dtype=bool)
        in_ranking[rows, ranked_b] = True
        n_distinct = np.count_nonzero(in_ranking & (labels_b >= 0), axis=1)
        relevant_b = relevant[r0:r1]
        np.logical_and(in_ranking, labels_b == 1, out=relevant_b)
        n_relevant[r0:r1] = np.count_nonzero(relevant_b, axis=1)
        included_b = included[r0:r1]
        np.greater(n_relevant[r0:r1], 0, out=included_b)
        if require_full_coverage:
            included_b &= n_judged == lengths[r0:r1]
        duplicated = np.flatnonzero(included_b & (n_judged > n_distinct))
        if duplicated.size:
            i = int(duplicated[0])
            judged = [truth.coverage[c] for c in ranked_b[i, is_judged[i]].tolist()]
            ap_image([truth.coverage[c] for c in np.flatnonzero(relevant_b[i])], judged)  # raises
        # AP: at the k-th relevant tag of an image, judged at position i, the
        # precision is k / i.  Column k of an image's row holds that
        # precision, after a zero column; the row-wise cumsum adds them left
        # to right, in rank order, as ``ap_image`` does, and the zeros after
        # a row's last hit keep its sum.  The hits come row by row, so k
        # counts from each row's first hit.
        r, c = _nonzero_2d(label == 1)
        n_hits = np.bincount(r, minlength=r1 - r0)
        k = np.arange(1, r.size + 1) - (np.cumsum(n_hits) - n_hits)[r]
        precisions = np.zeros((r1 - r0, int(n_hits.max(initial=0)) + 1))
        precisions[r, k] = k / np.cumsum(is_judged, axis=1, dtype=np.int32)[r, c]
        ap_sum[r0:r1] = np.cumsum(precisions, axis=1)[:, -1]
    if len(found) < len(images):
        raise TagSelectError(f"no ranking given for image {images[len(found)]!r}")
    keep = np.flatnonzero(included)
    if not keep.size:
        raise TagSelectError("no evaluable image: every image lacks usable ground truth")
    ap = (ap_sum[keep] / n_relevant[keep]).tolist()

    positions = np.array(in_truth, dtype=np.intp)[keep]
    kept = set(positions.tolist())
    excluded = tuple(x for i, x in enumerate(images) if i not in kept)
    return _Prepared(
        truth, images, require_full_coverage, positions, labels[keep],
        relevant[keep], n_relevant[keep], excluded, ap, sum(ap) / len(ap),
    )


def _score(p: _Prepared, selections: SelectionResult) -> EvaluationReport:
    """The report of ``selections``, which must be over the prepared images:
    ``_image_prf`` with an ``ImageEval`` for each included image."""
    precision, recall, f = _image_prf(p, selections)
    f = f.tolist()
    per_image = dict(zip(
        [p.images[i] for i in p.positions.tolist()],
        map(ImageEval, precision.tolist(), recall.tolist(), f, p.ap),
    ))
    return EvaluationReport(per_image, sum(f) / len(f), p.map, p.excluded)


def _mean_f(p: _Prepared, selections: SelectionResult) -> float:
    """``_score(p, selections).mf``, without the per-image report."""
    f = _image_prf(p, selections)[2].tolist()
    return sum(f) / len(f)


def _image_prf(
    p: _Prepared, selections: SelectionResult
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Precision, recall and F of each included image, in image order, under
    ``selections``, which must be over the prepared images."""
    images = selections.images
    if images != p.images:
        raise TagSelectError("selections are not over the images of the prepared evaluation")
    n_cov = len(p.truth.coverage)
    # Predictions as coverage columns, through one map of the selection's tags.
    n_pred = np.diff(selections.offsets)
    kept = np.zeros(len(images), dtype=bool)
    kept[p.positions] = True
    picks = p.truth.columns(selections.column_tags)[selections.columns]
    pred = _pad_rows(picks[np.repeat(kept, n_pred)], n_pred[kept], n_cov)
    rows = np.arange(len(p.positions))[:, None]
    hits = np.count_nonzero(p.relevant[rows, pred], axis=1)
    if p.require_full_coverage:
        n_pred = n_pred[kept]
    else:
        n_pred = np.count_nonzero(p.labels[rows, pred] >= 0, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(n_pred > 0, hits / n_pred, 0.0)
        recall = hits / p.n_relevant
        denom = precision + recall
        f = np.where(denom == 0.0, 0.0, 2.0 * precision * recall / denom)
    return precision, recall, f


def _pad_rows(values: np.ndarray, lengths: np.ndarray, fill: int) -> np.ndarray:
    """Consecutive runs of ``values`` of the given lengths, one row per run,
    padded on the right with ``fill``."""
    grid = np.full((lengths.size, int(lengths.max(initial=0))), fill, dtype=np.intp)
    grid[np.arange(grid.shape[1]) < lengths[:, None]] = values
    return grid
