"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way (explicit
loops, exhaustive enumeration, library solvers).  Apart from the similarity
and selection oracles at the end, it shares no code with the package; those
compose the package's scalar references (``fcs``, ``select_by_threshold``,
``k_novel``, ``refine_novel_scores``), which their own tests pin down, to
check the array passes built on them.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from tagselect import (
    SimilarityMatrix,
    fcs,
    k_novel,
    refine_novel_scores,
    select_by_threshold,
)


def brute_force_threshold(scores, labels):
    """Exhaustively evaluate every candidate cut: one below the minimum and
    the midpoint between each pair of consecutive distinct sorted scores.
    Returns (tau, F) with the largest tau among F-maximizers."""
    scores = list(map(float, scores))
    labels = list(map(bool, labels))
    n_pos = sum(labels)
    assert 0 < n_pos < len(scores)
    distinct = sorted(set(scores))
    candidates = [distinct[0] - 1.0]
    for lo, hi in zip(distinct, distinct[1:]):
        candidates.append((lo + hi) / 2.0)
    best_tau, best_f = None, -1.0
    for tau in candidates:
        tp = sum(1 for s, y in zip(scores, labels) if y and s > tau)
        sel = sum(1 for s in scores if s > tau)
        f = 2.0 * tp / (sel + n_pos)
        if f > best_f or (f == best_f and tau > best_tau):
            best_tau, best_f = tau, f
    return best_tau, best_f


def two_pass_stats(column):
    """Textbook two-pass mean and population standard deviation."""
    xs = list(map(float, column))
    mean = sum(xs) / len(xs)
    var = sum((x - mean) ** 2 for x in xs) / len(xs)
    return mean, math.sqrt(var)


def lstsq_coeffs(mu, sigma, tau):
    """Least-squares fit of tau ~ a*mu + b*sigma through numpy's solver."""
    design = np.column_stack([mu, sigma])
    sol, *_ = np.linalg.lstsq(design, np.asarray(tau, dtype=float), rcond=None)
    return float(sol[0]), float(sol[1])


def ngd_longhand(f_t, f_u, f_tu, n):
    """Literal transcription of the normalized distance formula."""
    if f_tu == 0:
        return math.inf
    num = max(math.log(f_t), math.log(f_u)) - math.log(f_tu)
    if num < 0:
        num = 0.0
    if num == 0.0:
        return 0.0
    den = math.log(n) - min(math.log(f_t), math.log(f_u))
    if den <= 0:
        return math.inf
    return num / den


def f_from_confusion(relevant, predicted):
    """F1 recomputed from explicit tp/fp/fn counts."""
    relevant = set(relevant)
    predicted = set(predicted)
    tp = len(relevant & predicted)
    fp = len(predicted - relevant)
    fn = len(relevant - predicted)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn)
    if precision + recall == 0:
        return precision, recall, 0.0
    return precision, recall, 2 * precision * recall / (precision + recall)


def ap_literal(relevant, ranked):
    """Average precision via the double loop of its definition: for each
    rank i holding a relevant tag, count the relevant tags in the top i."""
    relevant = set(relevant)
    ranked = list(ranked)
    total = 0.0
    for i in range(1, len(ranked) + 1):
        if ranked[i - 1] in relevant:
            r_i = sum(1 for j in range(i) if ranked[j] in relevant)
            total += r_i / i
    return total / len(relevant)


def sorted_tags(score_by_tag):
    """Full ranking by (descending score, ascending tag) via sorted()."""
    return [t for t, _ in sorted(score_by_tag.items(), key=lambda kv: (-kv[1], kv[0]))]


def round_half_up_fraction(novel_size, a_size, seen_size):
    """Exact rational round-half-up of novel_size * a_size / seen_size."""
    return int(Fraction(novel_size * a_size, seen_size) + Fraction(1, 2))


def fuse_elementwise(matrices, weights):
    """Weighted sum with explicit Python loops."""
    n, m = matrices[0].shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            out[i, j] = sum(w * mat[i, j] for w, mat in zip(weights, matrices))
    return out


def evaluate_corpus(relevant_by_image, predicted_by_image, ranking_by_image):
    """Corpus means recomputed image by image with the oracles above.
    Images with an empty relevant set are skipped."""
    fs, aps = [], []
    for image, relevant in relevant_by_image.items():
        if not relevant:
            continue
        _, _, f = f_from_confusion(relevant, predicted_by_image[image])
        fs.append(f)
        aps.append(ap_literal(relevant, ranking_by_image[image]))
    return sum(fs) / len(fs), sum(aps) / len(aps)


def similarity_matrix_oracle(stats, vocab):
    """The similarity matrix from one scalar ``fcs`` call per unordered
    pair of present tags, mirrored."""
    tags = vocab.tags
    n = len(tags)
    values = np.zeros((n, n), dtype=np.float64)
    np.fill_diagonal(values, 1.0)
    present = [i for i, t in enumerate(tags) if stats.has_tag(t)]
    missing = tuple(t for t in tags if not stats.has_tag(t))
    for pos, i in enumerate(present):
        for j in present[pos + 1:]:
            v = fcs(stats, tags[i], tags[j])
            values[i, j] = v
            values[j, i] = v
    return SimilarityMatrix(tags, values, missing)


def _row(table, image):
    return {t: table.score(image, t) for t in table.tags}


def threshold_oracle(table, image, thresholds):
    """Strict thresholding of every column, picks ordered by sorted()."""
    row = _row(table, image)
    chosen = select_by_threshold(table, image, thresholds, table.tags)
    ordered = sorted(chosen, key=lambda t: (-row[t], t))
    return [(t, repr(row[t]), "from_seen_thresholding") for t in ordered]


def topk_oracle(table, image, k):
    """The k best tags by sorted(), as the fixed top-k strategy reports them."""
    row = _row(table, image)
    return [(t, repr(row[t]), "from_fallback") for t in sorted_tags(row)[:k]]


def refined_scores_oracle(table, image, vocab, model, sim, w):
    """Every tag's score after refinement: the novel tags' scores are
    replaced by refine_novel_scores when the image's selected seen set is
    non-empty, otherwise all scores stay raw."""
    row = _row(table, image)
    pool = [t for t in vocab.seen_tags if t in model.tau]
    chosen = select_by_threshold(table, image, model.tau, pool)
    if chosen:
        row.update(refine_novel_scores(table, image, vocab, chosen, model, sim, w))
    return row


def adaptive_oracle(
    table, image, vocab, model, sim, fallback_k=5, refine=False, w=0.5, report_refined=False
):
    """The adaptive strategy for one image as (tag, repr(score), provenance)
    triples: threshold the trainable seen tags, fall back to top-k when none
    clears, else append the top k_novel novel tags by raw or refined score."""
    row = _row(table, image)
    pool = [t for t in vocab.seen_tags if t in model.tau]
    chosen = select_by_threshold(table, image, model.tau, pool)
    if not chosen:
        return topk_oracle(table, image, fallback_k)
    picks = [
        (t, repr(row[t]), "from_seen_thresholding")
        for t in sorted(chosen, key=lambda t: (-row[t], t))
    ]
    k = k_novel(len(pool), len(vocab.novel_tags), len(chosen))
    if k:
        ranking = {t: row[t] for t in vocab.novel_tags}
        if refine:
            ranking = refine_novel_scores(table, image, vocab, chosen, model, sim, w)
        shown = ranking if report_refined else row
        picks += [(t, repr(shown[t]), "from_novel_topk") for t in sorted_tags(ranking)[:k]]
    return picks
