"""Per-tag decision machinery learned on the seen vocabulary: score
statistics, F-optimal thresholds, and their least-squares reconstruction
from the statistics."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .core import GroundTruth, ScoreTable, Vocabulary
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
        tags = tuple(self.tags)
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
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(tags)})

    def index(self, tag: str) -> int:
        try:
            return self._index[tag]
        except KeyError:
            raise TagSelectError(f"no statistics for tag {tag!r}") from None

    def get(self, tag: str) -> tuple[float, float]:
        i = self.index(tag)
        return float(self.mu[i]), float(self.sigma[i])


def tag_stats(table: ScoreTable) -> TagStats:
    """Mean and population (divide-by-n) standard deviation per tag, over
    the image collection held by the table."""
    if table.n_images == 0:
        raise TagSelectError("cannot compute statistics of an empty score table")
    mu = table.scores.mean(axis=0)
    sigma = table.scores.std(axis=0)
    return TagStats(table.tags, mu, sigma)


def _learn_threshold_arrays(scores: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    n_pos = int(labels.sum())
    n = scores.shape[0]
    if n_pos == 0 or n_pos == n:
        raise UntrainableTagError(
            "threshold learning needs at least one positive and one negative label"
        )
    if not np.isfinite(scores).all():
        raise TagSelectError("threshold learning requires finite scores")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    tp = np.cumsum(y)
    # The rule "select iff score > tau" can only realize selection sets that
    # form prefixes of the descending score order ending at a distinct-value
    # boundary.  One midpoint per boundary plus one cut below the minimum
    # covers every achievable F value.
    boundary = np.flatnonzero(s[:-1] > s[1:])
    cut_tau = (s[boundary] + s[boundary + 1]) / 2.0
    cut_sel = boundary + 1.0
    taus = np.concatenate([cut_tau, [s[-1] - 1.0]])
    sel = np.concatenate([cut_sel, [float(n)]])
    tps = np.concatenate([tp[boundary], [float(n_pos)]]).astype(np.float64)
    f = 2.0 * tps / (sel + n_pos)
    # Candidates are generated in descending-tau order, so the first maximum
    # is the largest threshold among ties.
    best = int(np.argmax(f))
    return float(taus[best]), float(f[best])


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
    scores = np.array([float(s) for s, _ in pairs], dtype=np.float64)
    labels = np.array([bool(l) for _, l in pairs], dtype=bool)
    return _learn_threshold_arrays(scores, labels)


@dataclass(frozen=True, eq=False)
class ThresholdModel:
    """Learned per-tag thresholds plus the statistics they were fit from.

    ``tau`` maps exactly the trainable seen tags (those with at least one
    positive and one negative label) to their thresholds; seen tags that
    could not be trained are listed in ``untrainable``.  ``lsq_coeffs``
    reconstructs thresholds from (mu, sigma); it is (a, b) without an
    intercept, or (a, b, c) when fit with one.
    """

    tau: Mapping[str, float]
    stats: TagStats
    lsq_coeffs: tuple[float, ...] | None = None
    untrainable: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "tau", dict(self.tau))
        object.__setattr__(self, "untrainable", tuple(self.untrainable))
        if self.lsq_coeffs is not None:
            coeffs = tuple(float(c) for c in self.lsq_coeffs)
            if len(coeffs) not in (2, 3):
                raise TagSelectError("lsq coefficients must be (a, b) or (a, b, c)")
            object.__setattr__(self, "lsq_coeffs", coeffs)


def fit_lsq(model: ThresholdModel, intercept: bool = False) -> tuple[float, ...]:
    """Least-squares reconstruction of the learned thresholds from per-tag
    statistics: minimizes sum over trainable tags of (a*mu + b*sigma - tau)^2.

    Solved through the normal equations.  With ``intercept`` a constant term
    c is added; the default is the pure two-coefficient form.
    """
    tags = list(model.tau)
    if len(tags) < 2:
        raise DegenerateFitError("need at least two learned thresholds to fit")
    idx = [model.stats.index(t) for t in tags]
    mu = model.stats.mu[idx]
    sigma = model.stats.sigma[idx]
    tau = np.array([model.tau[t] for t in tags], dtype=np.float64)
    if intercept:
        cols = (mu, sigma, np.ones_like(mu))
    else:
        cols = (mu, sigma)
    k = len(cols)
    gram = np.empty((k, k), dtype=np.float64)
    rhs = np.empty(k, dtype=np.float64)
    for i in range(k):
        rhs[i] = float(cols[i] @ tau)
        for j in range(i, k):
            gram[i, j] = gram[j, i] = float(cols[i] @ cols[j])
    if not intercept:
        det = gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0]
        if abs(det) <= _DET_RTOL * max(gram[0, 0] * gram[1, 1], 1e-300):
            raise DegenerateFitError("normal matrix is rank deficient; thresholds "
                                     "cannot be expressed in these statistics")
        a = (gram[1, 1] * rhs[0] - gram[0, 1] * rhs[1]) / det
        b = (gram[0, 0] * rhs[1] - gram[0, 1] * rhs[0]) / det
        return (float(a), float(b))
    det = float(np.linalg.det(gram))
    scale = float(np.prod([gram[i, i] for i in range(k)]))
    if abs(det) <= _DET_RTOL * max(scale, 1e-300):
        raise DegenerateFitError("normal matrix is rank deficient; thresholds "
                                 "cannot be expressed in these statistics")
    sol = np.linalg.solve(gram, rhs)
    return tuple(float(v) for v in sol)


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
    Statistics cover the full vocabulary, computed on the training table.
    """
    seen_set = set(vocab.seen_tags)
    outside = [t for t in truth.coverage if t not in seen_set]
    if outside:
        raise TagSelectError(
            f"training labels cover non-seen tags, e.g. {outside[0]!r}"
        )
    img_rows = np.array([table.image_index(x) for x in truth.images], dtype=np.intp)
    stats = tag_stats(table)
    tau: dict[str, float] = {}
    untrainable: list[str] = []
    for t in vocab.seen_tags:
        if not truth.covers(t):
            untrainable.append(t)
            continue
        col = truth.column(t)
        defined = col >= 0
        if not defined.any():
            untrainable.append(t)
            continue
        scores = table.scores[img_rows[defined], table.tag_index(t)]
        labels = col[defined] == 1
        try:
            tau[t], _ = _learn_threshold_arrays(scores, labels)
        except UntrainableTagError:
            untrainable.append(t)
    model = ThresholdModel(tau=tau, stats=stats, untrainable=tuple(untrainable))
    if not fit_coeffs:
        return model
    return replace(model, lsq_coeffs=fit_lsq(model, intercept=intercept))


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
