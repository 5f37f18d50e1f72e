"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way (explicit
loops, exhaustive enumeration, library solvers).  Apart from the
all-tags threshold, similarity and selection oracles and the line-at-a-time
loaders at the end, it shares no code with the package; those compose the
package's scalar references (``fcs``, ``select_by_threshold``, ``k_novel``,
``refine_novel_scores``), which their own tests pin down, or read and build
its data classes, to check the array passes built on them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

import numpy as np

from tagselect import (
    CooccurrenceStats,
    FormatError,
    GroundTruth,
    ScoreTable,
    SelectionResult,
    SimilarityMatrix,
    Vocabulary,
    fcs,
    k_novel,
    refine_novel_scores,
    select_by_threshold,
)
from tagselect.core import PROVENANCE_CODE
from tagselect.formats import tsv_lines


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


def per_tag_threshold(scores, labels):
    """One tag's F-optimal (tau, F) from a stable sort and explicit
    candidate lists, one call per tag: the reference that the package's
    batched learner is held to by ``repr``.  ``scores`` and ``labels`` are
    1-D arrays of one tag's judged images, with both classes present."""
    n_pos = int(labels.sum())
    n = scores.shape[0]
    assert 0 < n_pos < n
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    tp = np.cumsum(y)
    boundary = np.flatnonzero(s[:-1] > s[1:])
    cut_tau = (s[boundary] + s[boundary + 1]) / 2.0
    cut_sel = boundary + 1.0
    taus = np.concatenate([cut_tau, [s[-1] - 1.0]])
    sel = np.concatenate([cut_sel, [float(n)]])
    tps = np.concatenate([tp[boundary], [float(n_pos)]]).astype(np.float64)
    f = 2.0 * tps / (sel + n_pos)
    best = int(np.argmax(f))
    return float(taus[best]), float(f[best])


def learn_all_thresholds_oracle(table, truth, vocab):
    """(tau, untrainable) of ``learn_all_thresholds`` from one
    ``per_tag_threshold`` call per seen tag, in vocabulary order."""
    img_rows = np.array([table.image_index(x) for x in truth.images], dtype=np.intp)
    tau, untrainable = {}, []
    for t in vocab.seen_tags:
        col = truth.column(t) if truth.covers(t) else np.full(len(truth.images), -1)
        defined = col >= 0
        labels = col[defined] == 1
        if labels.all() or not labels.any():
            untrainable.append(t)
            continue
        scores = table.scores[img_rows[defined], table.tag_index(t)]
        tau[t], _ = per_tag_threshold(scores, labels)
    return tau, tuple(untrainable)


def two_pass_stats(column):
    """Textbook two-pass mean and population standard deviation."""
    xs = list(map(float, column))
    mean = sum(xs) / len(xs)
    var = sum((x - mean) ** 2 for x in xs) / len(xs)
    return mean, math.sqrt(var)


def lstsq_coeffs(mu, sigma, tau, intercept=False):
    """Least-squares fit of tau ~ a*mu + b*sigma (+ c with ``intercept``)
    through numpy's solver."""
    columns = [mu, sigma, np.ones(len(mu))] if intercept else [mu, sigma]
    sol, *_ = np.linalg.lstsq(np.column_stack(columns), np.asarray(tau, dtype=float), rcond=None)
    return tuple(float(v) for v in sol)


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


def refine_loop(table, image, vocab, selected_seen, model, sim, w):
    """Refined novel scores by the formula of refine_novel_scores, summed one
    term at a time (``acc += sim * ratio``) over A in table column order."""
    row = _row(table, image)
    anchors = sorted(selected_seen, key=table.tag_index)
    refined = {}
    for t in vocab.novel_tags:
        acc = 0.0
        for a in anchors:
            acc += float(sim.values[sim.index(t), sim.index(a)]) * (row[a] / model.tau[a] - 1.0)
        refined[t] = w * row[t] + (1.0 - w) * (acc / len(anchors))
    return refined


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


# The score, truth, co-occurrence and selections loaders as they read one
# line at a time, kept verbatim (only renamed) as the reference for the
# block-wise codec of ``tagselect.formats``.  The selections loader reads its
# lines through the package's ``tsv_lines``, as it did in the package.

def _rows(path) -> Iterator[tuple[int, list[str]]]:
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line or line.startswith("#"):
                continue
            yield lineno, line.split("\t")


def _need_fields(path, lineno, fields, n) -> None:
    if len(fields) != n:
        raise FormatError(path, lineno, f"expected {n} tab-separated fields, got {len(fields)}")


def _parse_float(path, lineno, text) -> float:
    try:
        return float(text)
    except ValueError:
        raise FormatError(path, lineno, f"not a number: {text!r}") from None


def _parse_count(path, lineno, text) -> int:
    try:
        value = int(text)
    except ValueError:
        raise FormatError(path, lineno, f"not an integer: {text!r}") from None
    if value < 0:
        raise FormatError(path, lineno, f"count must be non-negative: {text!r}")
    return value


def load_scores_oracle(path, vocab: Vocabulary) -> ScoreTable:
    """Dense score table; every image must carry a score for every
    vocabulary tag.  Column order follows the vocabulary."""
    images: list[str] = []
    img_index: dict[str, int] = {}
    chunks: list[np.ndarray] = []
    filled: list[np.ndarray] = []
    n = len(vocab.tags)
    for lineno, fields in _rows(path):
        _need_fields(path, lineno, fields, 3)
        image, tag, text = fields
        if not image:
            raise FormatError(path, lineno, "empty image id")
        if tag not in vocab:
            raise FormatError(path, lineno, f"unknown tag {tag!r}")
        score = _parse_float(path, lineno, text)
        i = img_index.get(image)
        if i is None:
            i = len(images)
            img_index[image] = i
            images.append(image)
            chunks.append(np.zeros(n, dtype=np.float64))
            filled.append(np.zeros(n, dtype=bool))
        j = vocab.index(tag)
        if filled[i][j]:
            raise FormatError(path, lineno, f"duplicate score for ({image!r}, {tag!r})")
        chunks[i][j] = score
        filled[i][j] = True
    for i, image in enumerate(images):
        if not filled[i].all():
            missing = vocab.tags[int(np.flatnonzero(~filled[i])[0])]
            raise FormatError(
                path, 0, f"image {image!r} lacks a score for tag {missing!r}"
            )
    scores = np.vstack(chunks) if chunks else np.zeros((0, n), dtype=np.float64)
    return ScoreTable(tuple(images), vocab.tags, scores)


def load_truth_oracle(path, vocab: Vocabulary | None = None) -> GroundTruth:
    pairs: list[tuple[str, str, int]] = []
    seen_cells: set[tuple[str, str]] = set()
    for lineno, fields in _rows(path):
        _need_fields(path, lineno, fields, 3)
        image, tag, label = fields
        if not image:
            raise FormatError(path, lineno, "empty image id")
        if not tag:
            raise FormatError(path, lineno, "empty tag")
        if vocab is not None and tag not in vocab:
            raise FormatError(path, lineno, f"unknown tag {tag!r}")
        if label not in ("0", "1"):
            raise FormatError(path, lineno, f"label must be 0 or 1, got {label!r}")
        if (image, tag) in seen_cells:
            raise FormatError(path, lineno, f"duplicate label for ({image!r}, {tag!r})")
        seen_cells.add((image, tag))
        pairs.append((image, tag, int(label)))
    if not pairs:
        raise FormatError(path, 0, "ground truth file holds no labels")
    return GroundTruth.from_pairs(pairs)


def load_cooccurrence_oracle(path) -> CooccurrenceStats:
    """Counts straight into the matrix.  Checks that need every single count
    and the total (a single count above the total, a pair naming an unknown
    tag or above one of its single counts) run once the file is read, and
    name the first bad row in file order."""
    single: dict[str, tuple[int, int]] = {}
    pair: dict[tuple[str, str], tuple[int, int]] = {}
    total: int | None = None
    for lineno, fields in _rows(path):
        kind = fields[0]
        if kind == "1":
            _need_fields(path, lineno, fields, 3)
            tag, count = fields[1], _parse_count(path, lineno, fields[2])
            if not tag:
                raise FormatError(path, lineno, "empty tag")
            if tag in single:
                raise FormatError(path, lineno, f"duplicate singleton count for {tag!r}")
            single[tag] = (count, lineno)
        elif kind == "2":
            _need_fields(path, lineno, fields, 4)
            a, b = fields[1], fields[2]
            if not a or not b:
                raise FormatError(path, lineno, "empty tag")
            if not a < b:
                raise FormatError(
                    path, lineno, f"pair rows need tag_a < tag_b, got {a!r}, {b!r}"
                )
            if (a, b) in pair:
                raise FormatError(path, lineno, f"duplicate pair count for ({a!r}, {b!r})")
            pair[(a, b)] = (_parse_count(path, lineno, fields[3]), lineno)
        elif kind == "N":
            _need_fields(path, lineno, fields, 2)
            if total is not None:
                raise FormatError(path, lineno, "duplicate total row")
            total = _parse_count(path, lineno, fields[1])
            if not 0 < total <= np.iinfo(np.int64).max:
                raise FormatError(
                    path, lineno, f"collection size must be in [1, 2**63), got {total}"
                )
        else:
            raise FormatError(path, lineno, f"unknown row kind {kind!r} (need 1, 2 or N)")
    if total is None:
        raise FormatError(path, 0, "missing total row 'N<TAB>count'")
    bad: list[tuple[int, str]] = [
        (lineno, f"occurrence count for {tag!r} exceeds collection size {total}")
        for tag, (count, lineno) in single.items()
        if count > total
    ]
    for (a, b), (count, lineno) in pair.items():
        fa = single.get(a)
        fb = single.get(b)
        if fa is None or fb is None:
            unknown = a if fa is None else b
            bad.append((lineno, f"pair count references unknown tag {unknown!r}"))
        elif count > fa[0] or count > fb[0]:
            bad.append((lineno, f"pair count for {(a, b)!r} exceeds one of its single counts"))
    if bad:
        raise FormatError(path, *min(bad))
    tags = sorted(single)
    index = {t: i for i, t in enumerate(tags)}
    counts = np.zeros((len(tags), len(tags)), dtype=np.int64)
    np.fill_diagonal(counts, [single[t][0] for t in tags])
    if pair:
        rows = np.array([index[a] for a, _ in pair])
        cols = np.array([index[b] for _, b in pair])
        values = np.array([c for c, _ in pair.values()], dtype=np.int64)
        counts[rows, cols] = values
        counts[cols, rows] = values
    return CooccurrenceStats.from_counts(tags, counts, total)


def load_selections_oracle(path) -> SelectionResult:
    """Images in order of first appearance, each with its rows in file order."""
    image_index: dict[str, int] = {}
    tag_index: dict[str, int] = {}
    picked: set[tuple[int, int]] = set()
    rows: list[int] = []
    cols: list[int] = []
    scores: list[float] = []
    codes: list[int] = []
    for lineno, fields in tsv_lines(path, "selections"):
        _need_fields(path, lineno, fields, 4)
        image, tag, text, provenance = fields
        if not image:
            raise FormatError(path, lineno, "empty image id")
        if not tag:
            raise FormatError(path, lineno, "empty tag")
        if provenance not in PROVENANCE_CODE:
            raise FormatError(path, lineno, f"unknown provenance {provenance!r}")
        score = _parse_float(path, lineno, text)
        cell = (image_index.setdefault(image, len(image_index)),
                tag_index.setdefault(tag, len(tag_index)))
        if cell in picked:
            raise FormatError(path, lineno, f"duplicate selection ({image!r}, {tag!r})")
        picked.add(cell)
        rows.append(cell[0])
        cols.append(cell[1])
        scores.append(score)
        codes.append(PROVENANCE_CODE[provenance])
    image_of = np.array(rows, dtype=np.intp)
    order = np.argsort(image_of, kind="stable")
    sizes = np.bincount(image_of, minlength=len(image_index))
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    return SelectionResult._from_arrays(
        tuple(image_index), tuple(tag_index), offsets,
        np.array(cols, dtype=np.intp)[order],
        np.array(scores, dtype=np.float64)[order],
        np.array(codes, dtype=np.int8)[order],
    )
