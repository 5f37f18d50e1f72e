"""Per-tag decision machinery learned on the seen vocabulary: score
statistics, F-optimal thresholds, and their least-squares reconstruction
from the statistics."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .core import (
    BLOCK_CELLS,
    GroundTruth,
    ScoreTable,
    Vocabulary,
    _id_index,
    _lookup,
    require_finite,
)
from .errors import DegenerateFitError, TagSelectError, UntrainableTagError

# Relative tolerance for declaring the 2x2 (or 3x3) normal matrix singular.
_DET_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class TagStats:
    """Per-tag score mean and population standard deviation."""

    tags: tuple[str, ...]
    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        tags, index = _id_index(self.tags, "tag", "statistics contain duplicate tags")
        object.__setattr__(self, "tags", tags)
        mu = np.array(self.mu, dtype=np.float64)
        sigma = np.array(self.sigma, dtype=np.float64)
        if mu.shape != (len(tags),) or sigma.shape != (len(tags),):
            raise TagSelectError("stats arrays must align with the tag list")
        if (sigma < 0).any():
            raise TagSelectError("standard deviations must be non-negative")
        mu.setflags(write=False)
        sigma.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "_index", index)

    def index(self, tag: str) -> int:
        return _lookup(self._index, tag, "no statistics for tag {!r}")

    def get(self, tag: str) -> tuple[float, float]:
        i = self.index(tag)
        return float(self.mu[i]), float(self.sigma[i])


def tag_stats(table: ScoreTable) -> TagStats:
    """Mean and population (divide-by-n) standard deviation per tag, over
    the image collection held by the table.  Scores near the largest double
    overflow them to inf without a warning; ``require_finite_stats`` refuses
    them where they are fit or written.  The table computes them once and
    keeps them (``ScoreTable._stats``), as its scores are read-only."""
    return table._stats


def _tag_stats(table: ScoreTable) -> TagStats:
    """``tag_stats`` computed afresh.  The standard deviation equals
    ``np.std``'s bit for bit, without its full-size temporary: numpy's
    axis-0 sum of a C-contiguous matrix of two or more columns adds the rows
    to a running sum in order, and so does ``_squared_deviations``.  A
    single column, or another memory layout, takes ``np.std``, whose sum
    runs in another order there."""
    _require_images(table)
    scores = table.scores
    with np.errstate(over="ignore", invalid="ignore"):
        mu = scores.mean(axis=0)
        if scores.shape[1] < 2 or not scores.flags.c_contiguous:
            sigma = scores.std(axis=0)
        else:
            sigma = np.sqrt(_squared_deviations(scores, mu) / scores.shape[0])
    return TagStats(table.tags, mu, sigma)


def _squared_deviations(scores: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Each column's sum of squared deviations from ``mu``, a block of
    ``BLOCK_CELLS`` cells at a time: each block's squares follow the running
    sum in one buffer, which one axis-0 sum adds up row after row."""
    n, m = scores.shape
    step = max(1, BLOCK_CELLS // m)
    buffer = np.empty((min(n, step) + 1, m))
    for r0 in range(0, n, step):
        part = scores[r0 : r0 + step]
        squares = buffer[1 : len(part) + 1]
        np.subtract(part, mu, out=squares)
        np.square(squares, out=squares)
        # The first block starts the sum itself, as numpy's does.
        start = 1 if r0 == 0 else 0
        buffer[0] = buffer[start : len(part) + 1].sum(axis=0)
    return buffer[0].copy()


def require_finite_stats(stats: TagStats, tags: Sequence[str] | None = None) -> None:
    """Raise naming the first of ``tags`` (default: all of the statistics'
    tags) whose mean or standard deviation is not finite."""
    idx = np.arange(len(stats.tags)) if tags is None else [stats.index(t) for t in tags]
    mu, sigma = stats.mu[idx], stats.sigma[idx]
    bad = ~(np.isfinite(mu) & np.isfinite(sigma))
    if bad.any():
        i = int(np.argmax(bad))
        raise TagSelectError(
            f"score statistics of tag {stats.tags[idx[i]]!r} are not finite: "
            f"mu {float(mu[i])!r}, sigma {float(sigma[i])!r}"
        )


def _require_images(table: ScoreTable) -> None:
    if table.n_images == 0:
        raise TagSelectError("cannot compute statistics of an empty score table")


def _f_optimal_cuts(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F1-optimal threshold of the rule "select iff score > tau" for every
    row: (tau, F at tau), one entry per row; every tau is finite.

    ``scores`` is a rows x items float64 matrix, finite; ``labels`` has its
    shape, int8 with 1 = relevant, 0 = irrelevant and -1 = undefined (the
    item does not take part), and every row holds at least one relevant and
    one irrelevant label.

    The rule can only realize selection sets that form prefixes of a row's
    descending score order ending at a distinct-value boundary, so one
    midpoint per boundary plus one cut below the minimum covers every
    achievable F value (Lipton, Elkan & Naryanaswamy, ECML-PKDD 2014).  Tied
    scores enter the positive count only at a boundary, so the order the
    sort gives them cannot change a candidate, and the sort need not be
    stable.
    """
    k, n = scores.shape
    defined = labels >= 0
    n_def = np.count_nonzero(defined, axis=1)
    n_pos = np.count_nonzero(labels == 1, axis=1)
    # Descending scores, undefined items last; the sorted rows are read
    # through flat indices, as take_along_axis would but in one 1-D take.
    key = np.where(defined, -scores, np.inf)
    flat = np.argsort(key, axis=1)
    flat += n * np.arange(k)[:, None]
    key = key.ravel().take(flat)
    # Cutting after the first ``sel`` defined items is a candidate when the
    # next item scores strictly lower, is undefined or does not exist; the
    # last candidate, below the minimum, selects every defined item.
    sel = np.arange(1.0, n + 1)
    cand = sel <= n_def[:, None]
    cand[:, :-1] &= key[:, :-1] < key[:, 1:]
    f = np.cumsum(labels.ravel().take(flat) == 1, axis=1, dtype=np.float64)
    f *= 2.0
    f /= sel + n_pos[:, None]
    f[~cand] = -np.inf
    rows = np.arange(k)
    s = scores.ravel()
    # The cut below the minimum is 1 less, or the next double down where 1
    # is below the minimum's spacing; below -max double no finite cut lies,
    # and that candidate drops out.
    least = s[flat[rows, n_def - 1]]
    tau = least - 1.0
    near = tau == least
    with np.errstate(over="ignore"):
        tau[near] = np.nextafter(least[near], -np.inf)
    floor = np.isinf(tau)
    f[floor, n_def[floor] - 1] = -np.inf
    # Candidates run in descending-tau order, so the first maximum is the
    # largest threshold among ties.
    best = np.argmax(f, axis=1)
    hi = s[flat[rows, best]]
    mid = best < n_def - 1
    hi, lo = hi[mid], s[flat[rows[mid], best[mid] + 1]]
    with np.errstate(over="ignore"):
        half = (hi + lo) / 2.0
    # Two scores that sum past the largest double are halved first; every
    # finite midpoint keeps its bits.
    wide = ~np.isfinite(half)
    half[wide] = hi[wide] / 2.0 + lo[wide] / 2.0
    tau[mid] = half
    # A row whose scores all equal -max double has no candidate left; its
    # tau, that score, selects nothing, for an F of 0.
    return tau, np.maximum(f[rows, best], 0.0)


def learn_threshold(pairs: Sequence[tuple[float, bool]]) -> tuple[float, float]:
    """Threshold maximizing F1 of the rule "select iff score > tau".

    Candidate cuts are the midpoints between consecutive distinct sorted
    scores plus one cut below the minimum (selecting everything).  Returns
    (tau, F at tau); among equally good cuts the largest tau wins, which
    selects the fewest items.
    """
    pairs = list(pairs)
    if not pairs:
        raise UntrainableTagError("no labeled scores given")
    scores = np.array([[float(s) for s, _ in pairs]], dtype=np.float64)
    labels = np.array([[bool(l) for _, l in pairs]], dtype=np.int8)
    n_pos = int(labels.sum())
    if n_pos == 0 or n_pos == len(pairs):
        raise UntrainableTagError(
            "threshold learning needs at least one positive and one negative label"
        )
    if not np.isfinite(scores).all():
        raise TagSelectError("threshold learning requires finite scores")
    tau, f = _f_optimal_cuts(scores, labels)
    return float(tau[0]), float(f[0])


@dataclass(frozen=True, eq=False)
class ThresholdModel:
    """Learned per-tag thresholds plus the statistics they were fit from.

    ``tau`` maps exactly the trainable seen tags (those with at least one
    positive and one negative label) to their thresholds, stored as finite
    floats, and ``stats`` must cover every tag with a threshold; seen tags
    that could not be trained are listed in ``untrainable``.  ``lsq_coeffs``
    reconstructs thresholds from (mu, sigma); it is (a, b) without an
    intercept, or (a, b, c) when fit with one.
    """

    tau: Mapping[str, float]
    stats: TagStats
    lsq_coeffs: tuple[float, ...] | None = None
    untrainable: tuple[str, ...] = ()

    def __post_init__(self):
        tau = {}
        for t, v in self.tau.items():
            self.stats.index(t)  # raises for a tag without statistics
            if not isinstance(v, numbers.Real):
                raise TagSelectError(f"threshold for {t!r} must be a real number, got {v!r}")
            tau[t] = _finite_threshold(t, float(v))
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "untrainable", tuple(self.untrainable))
        if self.lsq_coeffs is not None:
            coeffs = tuple(self.lsq_coeffs)
            if not all(isinstance(c, numbers.Real) and math.isfinite(c) for c in coeffs):
                raise TagSelectError(
                    f"lsq coefficients must be finite real numbers, got {coeffs!r}"
                )
            if len(coeffs) not in (2, 3):
                raise TagSelectError("lsq coefficients must be (a, b) or (a, b, c)")
            object.__setattr__(self, "lsq_coeffs", tuple(map(float, coeffs)))


def _finite_threshold(tag: str, value: float) -> float:
    if not math.isfinite(value):
        raise TagSelectError(f"threshold for {tag!r} must be finite, got {value!r}")
    return value


def _det(m: list[list[Fraction]]) -> Fraction:
    """Determinant of a 2x2 or 3x3 matrix by cofactors along the first row."""
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def fit_lsq(model: ThresholdModel, intercept: bool = False) -> tuple[float, ...]:
    """Least-squares reconstruction of the learned thresholds from per-tag
    statistics: minimizes sum over trainable tags of (a*mu + b*sigma - tau)^2.

    Solved through the normal equations by Cramer's rule.  With
    ``intercept`` a constant term c is added; the default is the pure
    two-coefficient form.
    """
    tags = list(model.tau)
    if len(tags) < 2:
        raise DegenerateFitError("need at least two learned thresholds to fit")
    require_finite_stats(model.stats, tags)
    idx = [model.stats.index(t) for t in tags]
    mu, sigma = model.stats.mu[idx], model.stats.sigma[idx]
    tau = np.array([model.tau[t] for t in tags], dtype=np.float64)
    cols = (mu, sigma, np.ones_like(mu)) if intercept else (mu, sigma)
    # Exactly rounded sums of elementwise products, solved in exact rational
    # arithmetic: the same bits on every machine, which BLAS does not promise.
    gram = [[Fraction(math.fsum((x * y).tolist())) for y in cols] for x in cols]
    rhs = [Fraction(math.fsum((x * tau).tolist())) for x in cols]
    det = _det(gram)
    if abs(det) <= _DET_RTOL * max(math.prod(gram[i][i] for i in range(len(cols))), 1e-300):
        raise DegenerateFitError("normal matrix is rank deficient; thresholds "
                                 "cannot be expressed in these statistics")
    # Cramer's rule: coefficient i is det(gram with column i set to rhs) / det.
    return tuple(
        float(_det([row[:i] + [b] + row[i + 1:] for row, b in zip(gram, rhs)]) / det)
        for i in range(len(cols))
    )


def learn_all_thresholds(
    table: ScoreTable,
    truth: GroundTruth,
    vocab: Vocabulary,
    fit_coeffs: bool = True,
    intercept: bool = False,
) -> ThresholdModel:
    """Learn a threshold for every trainable seen tag and fit the
    least-squares reconstruction (skipped when ``fit_coeffs`` is off).

    The truth must label seen tags only (a training ground truth); its
    images must all be present in the score table.  Seen tags with no
    labels, or labels of a single class, are recorded as untrainable.
    Statistics cover the full vocabulary, computed on the training table;
    every score in it must be finite.  The thresholds of all trainable tags
    are learned in one array pass over a tags x images matrix.
    """
    require_finite(table)
    img_rows, cols, labels, trained = _seen_label_rows(table, truth, vocab)
    stats = tag_stats(table)
    seen = vocab.seen_tags
    tau: dict[str, float] = {}
    if trained.any():
        learned, _ = _f_optimal_cuts(table.scores.T[cols][:, img_rows], labels)
        tau = dict(zip([t for t, ok in zip(seen, trained) if ok], learned.tolist()))
    untrainable = [t for t, ok in zip(seen, trained) if not ok]
    model = ThresholdModel(tau=tau, stats=stats, untrainable=tuple(untrainable))
    if not fit_coeffs:
        return model
    return replace(model, lsq_coeffs=fit_lsq(model, intercept=intercept))


def _seen_label_rows(
    table: ScoreTable, truth: GroundTruth, vocab: Vocabulary
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The table row of each truth image; for each trainable seen tag (one
    with a positive and a negative label), in seen order, its table column
    and its labels over the truth images; and which seen tags are
    trainable.  Raises when the truth labels a non-seen tag, or names an
    image or a labeled seen tag that the table lacks."""
    seen_set = set(vocab.seen_tags)
    outside = [t for t in truth.coverage if t not in seen_set]
    if outside:
        raise TagSelectError(
            f"training labels cover non-seen tags, e.g. {outside[0]!r}"
        )
    img_rows = np.array([table.image_index(x) for x in truth.images], dtype=np.intp)
    seen = vocab.seen_tags
    # One row of labels per seen tag; a tag outside the coverage has none.
    cover = truth.columns(seen)
    inside = cover < len(truth.coverage)
    labels = np.full((len(seen), len(truth.images)), -1, dtype=np.int8)
    labels[inside] = truth.labels.T[cover[inside]]
    n_def = np.count_nonzero(labels >= 0, axis=1)
    n_pos = np.count_nonzero(labels == 1, axis=1)
    trained = (n_pos > 0) & (n_pos < n_def)
    # Every seen tag with a label must be a table column.
    cols = np.array([table.tag_index(t) if d else 0 for t, d in zip(seen, n_def > 0)],
                    dtype=np.intp)
    return img_rows, cols[trained], labels[trained], trained


def _lsq_thresholds(model: ThresholdModel, stats: TagStats) -> np.ndarray:
    """``predict_threshold(model, t, "lsq")`` for every tag of ``stats``, in
    its order, by the same operations, so every threshold keeps its bits."""
    if model.lsq_coeffs is None:
        raise DegenerateFitError("model carries no least-squares coefficients")
    a, b, *c = model.lsq_coeffs
    tau = a * stats.mu + b * stats.sigma
    if c:
        tau += c[0]
    return tau


def predict_threshold(model: ThresholdModel, tag: str, mode: str) -> float:
    """Threshold for one tag under a given rule.

    ``mu_sigma`` needs only statistics, ``lsq`` additionally the fitted
    coefficients, ``learned`` requires the tag to be trainable seen.
    """
    if mode == "mu_sigma":
        mu, sigma = model.stats.get(tag)
        return mu + sigma
    if mode == "lsq":
        if model.lsq_coeffs is None:
            raise DegenerateFitError("model carries no least-squares coefficients")
        mu, sigma = model.stats.get(tag)
        coeffs = model.lsq_coeffs
        value = coeffs[0] * mu + coeffs[1] * sigma
        if len(coeffs) == 3:
            value += coeffs[2]
        return value
    if mode == "learned":
        try:
            return model.tau[tag]
        except KeyError:
            raise TagSelectError(
                f"no learned threshold for tag {tag!r} (novel or untrainable)"
            ) from None
    raise TagSelectError(f"unknown threshold mode {mode!r}")
