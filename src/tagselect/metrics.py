"""Image-level evaluation: per-image F of the selected tag set, average
precision of the tag ranking, and their corpus means."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import GroundTruth, SelectedTag, SelectionResult
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
    rankings: Mapping[str, Sequence[str]],
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

    Every image is scored in one array pass, and the floats equal those of
    ``f_image`` and ``ap_image`` bit for bit: an image's AP adds its
    precisions left to right in rank order, and ``mf``/``map`` add the
    per-image values left to right in image order, as the scalar loop does.
    """
    images = selections.images
    universes: list[Sequence[str]] = []
    for x in images:
        try:
            universes.append(rankings[x])
        except KeyError:
            break
    missing = images[len(universes)] if len(universes) < len(images) else None
    # Images up to the first one without a ranking are scored, so that an
    # error in one of them is raised before the missing ranking, in image
    # order, as a per-image loop would.
    in_truth = [i for i, x in enumerate(images[: len(universes)]) if truth.has_image(x)]
    names = [images[i] for i in in_truth]
    scored = _score_images(
        truth, names, [universes[i] for i in in_truth],
        [selections.row(x) for x in names], require_full_coverage,
    )
    if missing is not None:
        raise TagSelectError(f"no ranking given for image {missing!r}")
    per_image = {names[i]: ImageEval(*values) for i, values in scored}
    if not per_image:
        raise TagSelectError("no evaluable image: every image lacks usable ground truth")
    excluded = tuple(x for x in images if x not in per_image)
    mf = sum(e.f for e in per_image.values()) / len(per_image)
    mean_ap = sum(e.ap for e in per_image.values()) / len(per_image)
    return EvaluationReport(per_image, mf, mean_ap, excluded)


def _score_images(
    truth: GroundTruth,
    images: list[str],
    universes: list[Sequence[str]],
    selected: list[tuple[SelectedTag, ...]],
    require_full_coverage: bool,
) -> list[tuple[int, tuple[float, float, float, float]]]:
    """(position, (precision, recall, F, AP)) of every included image.

    Tags are encoded as cells ``image * width + column`` of a flat grid over
    the images and the truth coverage, plus one last column that stands for
    every tag outside the coverage and is never labeled.
    """
    n = len(images)
    n_cov = len(truth.coverage)
    width = n_cov + 1
    index_dtype = np.int32 if n * width < 2**31 else np.int64
    column = {t: j for j, t in enumerate(truth.coverage)}
    labels = np.full((n, width), -1, dtype=np.int8)
    labels[:, :n_cov] = truth.labels[[truth.image_index(x) for x in images]]
    labels = labels.ravel()

    # Ranked positions, image-major and in rank order.
    lengths = np.fromiter(map(len, universes), dtype=np.intp, count=n)
    cells = _cells(column, n_cov, chain.from_iterable(universes), lengths, index_dtype)
    owner = cells // width
    label = labels[cells]
    ranked = np.zeros(n * width, dtype=bool)
    ranked[cells] = True
    is_judged = label >= 0
    n_judged = np.bincount(owner[is_judged], minlength=n)
    n_distinct = np.count_nonzero((ranked & (labels >= 0)).reshape(n, width), axis=1)
    relevant = ranked & (labels == 1)
    n_relevant = np.count_nonzero(relevant.reshape(n, width), axis=1)
    included = n_relevant > 0
    if require_full_coverage:
        included &= n_judged == lengths
    duplicated = np.flatnonzero(included & (n_judged > n_distinct))
    if duplicated.size:
        i = int(duplicated[0])
        order = [t for t in universes[i] if truth.label(images[i], t) is not None]
        ap_image(truth.relevant_set(images[i]), order)  # raises on the duplicate

    # AP: at the k-th relevant tag of an image, judged at position i, the
    # precision is k / i; each image adds its precisions in rank order.
    judged_pos = np.cumsum(is_judged, dtype=index_dtype)
    del is_judged
    hit_at = np.flatnonzero(label == 1)
    del label
    hit_owner = owner[hit_at]
    del owner
    n_hits = np.bincount(hit_owner, minlength=n)
    hit_start = np.cumsum(n_hits) - n_hits
    judged_start = np.cumsum(n_judged) - n_judged
    k = np.arange(hit_at.size, dtype=index_dtype) - hit_start[hit_owner]
    precision_at = (k + 1) / (judged_pos[hit_at] - judged_start[hit_owner])
    del judged_pos, hit_at
    acc = np.zeros(n)
    by_depth = np.argsort(k, kind="stable")
    bounds = np.searchsorted(k[by_depth], np.arange(int(n_hits.max(initial=0)) + 1))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        at = by_depth[lo:hi]  # the (depth+1)-th hit of distinct images
        acc[hit_owner[at]] += precision_at[at]

    # F from |P| and the hits among the predictions.
    n_pred = np.fromiter(map(len, selected), dtype=np.intp, count=n)
    pred = _cells(
        column, n_cov, (st.tag for row in selected for st in row), n_pred, index_dtype
    )
    pred_owner = pred // width
    hits = np.bincount(pred_owner[relevant[pred]], minlength=n)
    if not require_full_coverage:
        n_pred = np.bincount(pred_owner[labels[pred] >= 0], minlength=n)

    keep = np.flatnonzero(included)
    hits, n_pred, n_rel = hits[keep], n_pred[keep], n_relevant[keep]
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(n_pred > 0, hits / n_pred, 0.0)
        recall = hits / n_rel
        denom = precision + recall
        f = np.where(denom == 0.0, 0.0, 2.0 * precision * recall / denom)
    ap = acc[keep] / n_rel
    return list(zip(
        keep.tolist(), zip(precision.tolist(), recall.tolist(), f.tolist(), ap.tolist())
    ))


def _cells(
    column: Mapping[str, int],
    outside: int,
    tags: Iterable[str],
    lengths: np.ndarray,
    dtype: type,
) -> np.ndarray:
    """Flat grid cells of consecutive per-image tag lists of the given lengths."""
    cols = np.fromiter(
        map(column.get, tags, repeat(outside)), dtype=dtype, count=int(lengths.sum())
    )
    owner = np.repeat(np.arange(lengths.size, dtype=dtype), lengths)
    return owner * (outside + 1) + cols
