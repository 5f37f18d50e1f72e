"""File formats: line-oriented TSV with '#' comment lines, UTF-8, LF line
endings.  Floats are serialized with repr(), the shortest representation
that round-trips exactly.

Formats:
    scores       image_id<TAB>tag<TAB>score
    vocabulary   tag<TAB>seen|novel
    truth        image_id<TAB>tag<TAB>0|1
    cooccurrence 1<TAB>tag<TAB>count  /  2<TAB>tag_a<TAB>tag_b<TAB>count
                 (tag_a < tag_b)  /  N<TAB>count  (exactly one total row)
    selections   image_id<TAB>tag<TAB>score<TAB>provenance
    thresholds   tag<TAB>tau<TAB>mu<TAB>sigma with '-' for a missing tau,
                 plus one coefficient row lsq<TAB>a<TAB>b (the tag name
                 'lsq' is reserved)
    report       JSON object (sorted keys, 2-space indent)
"""

from __future__ import annotations

import json
from typing import Iterator

import numpy as np

from .core import (
    NOVEL,
    PROVENANCES,
    SEEN,
    GroundTruth,
    ScoreTable,
    SelectedTag,
    SelectionResult,
    Vocabulary,
)
from .errors import FormatError
from .similarity import CooccurrenceStats
from .thresholds import TagStats, ThresholdModel

_LSQ_ROW = "lsq"


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


def _parse_finite(path, lineno, text) -> float:
    value = _parse_float(path, lineno, text)
    if not np.isfinite(value):
        raise FormatError(path, lineno, f"not a finite number: {text!r}")
    return value


def _parse_count(path, lineno, text) -> int:
    try:
        value = int(text)
    except ValueError:
        raise FormatError(path, lineno, f"not an integer: {text!r}") from None
    if value < 0:
        raise FormatError(path, lineno, f"count must be non-negative: {text!r}")
    return value


def _fmt(value: float) -> str:
    return repr(float(value))


# ---------------------------------------------------------------- vocabulary

def load_vocabulary(path) -> Vocabulary:
    tags: list[str] = []
    partition: dict[str, str] = {}
    for lineno, fields in _rows(path):
        _need_fields(path, lineno, fields, 2)
        tag, side = fields
        if not tag:
            raise FormatError(path, lineno, "empty tag")
        if side not in (SEEN, NOVEL):
            raise FormatError(path, lineno, f"partition must be 'seen' or 'novel', got {side!r}")
        if tag in partition:
            raise FormatError(path, lineno, f"duplicate tag {tag!r}")
        tags.append(tag)
        partition[tag] = side
    if not tags:
        raise FormatError(path, 0, "vocabulary file holds no tags")
    return Vocabulary(tuple(tags), partition)


def save_vocabulary(vocab: Vocabulary, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# tag\tseen|novel\n")
        for t in vocab.tags:
            fh.write(f"{t}\t{vocab.partition[t]}\n")


# -------------------------------------------------------------------- scores

def load_scores(path, vocab: Vocabulary) -> ScoreTable:
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


def save_scores(table: ScoreTable, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# image_id\ttag\tscore\n")
        for i, image in enumerate(table.images):
            row = table.scores[i]
            for j, tag in enumerate(table.tags):
                fh.write(f"{image}\t{tag}\t{_fmt(row[j])}\n")


# --------------------------------------------------------------------- truth

def load_truth(path, vocab: Vocabulary | None = None) -> GroundTruth:
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


def save_truth(truth: GroundTruth, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# image_id\ttag\t0|1\n")
        for image, tag, label in truth.iter_pairs():
            fh.write(f"{image}\t{tag}\t{label}\n")


# ------------------------------------------------------------- cooccurrence

def load_cooccurrence(path) -> CooccurrenceStats:
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


def save_cooccurrence(stats: CooccurrenceStats, path) -> None:
    """Singles and pairs in ascending tag order; pairs that never co-occur
    are not written."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# 1\ttag\tcount | 2\ttag_a\ttag_b\tcount | N\tcount\n")
        fh.write(f"N\t{stats.total}\n")
        for tag, count in stats.single.items():
            fh.write(f"1\t{tag}\t{count}\n")
        for (a, b), count in stats.pair.items():
            fh.write(f"2\t{a}\t{b}\t{count}\n")


# ---------------------------------------------------------------- selections

def load_selections(path) -> SelectionResult:
    images: list[str] = []
    rows: dict[str, list[SelectedTag]] = {}
    for lineno, fields in _rows(path):
        _need_fields(path, lineno, fields, 4)
        image, tag, text, provenance = fields
        if not image:
            raise FormatError(path, lineno, "empty image id")
        if not tag:
            raise FormatError(path, lineno, "empty tag")
        if provenance not in PROVENANCES:
            raise FormatError(path, lineno, f"unknown provenance {provenance!r}")
        score = _parse_float(path, lineno, text)
        if image not in rows:
            images.append(image)
            rows[image] = []
        if any(st.tag == tag for st in rows[image]):
            raise FormatError(path, lineno, f"duplicate selection ({image!r}, {tag!r})")
        rows[image].append(SelectedTag(tag, score, provenance))
    return SelectionResult(tuple(images), {x: tuple(r) for x, r in rows.items()})


def save_selections(result: SelectionResult, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# image_id\ttag\tscore\tprovenance\n")
        for image in result.images:
            for st in result.row(image):
                fh.write(f"{image}\t{st.tag}\t{_fmt(st.score)}\t{st.provenance}\n")


# ---------------------------------------------------------------- thresholds

def load_thresholds(path, vocab: Vocabulary) -> ThresholdModel:
    """Rebuild a ThresholdModel.  Statistics must cover exactly the
    vocabulary; seen tags without a stored threshold are listed untrainable.
    Only seen tags may carry a threshold, and every value must be finite."""
    tags: list[str] = []
    tag_set: set[str] = set()
    mu: list[float] = []
    sigma: list[float] = []
    tau: dict[str, float] = {}
    coeffs: tuple[float, ...] | None = None
    for lineno, fields in _rows(path):
        if fields[0] == _LSQ_ROW:
            if coeffs is not None:
                raise FormatError(path, lineno, "duplicate coefficient row")
            if len(fields) not in (3, 4):
                raise FormatError(path, lineno, "coefficient row needs 2 or 3 values")
            coeffs = tuple(_parse_finite(path, lineno, v) for v in fields[1:])
            continue
        _need_fields(path, lineno, fields, 4)
        tag, tau_text, mu_text, sigma_text = fields
        if tag not in vocab:
            raise FormatError(path, lineno, f"unknown tag {tag!r}")
        if tag in tag_set:
            raise FormatError(path, lineno, f"duplicate tag {tag!r}")
        tag_set.add(tag)
        tags.append(tag)
        mu.append(_parse_finite(path, lineno, mu_text))
        sigma.append(_parse_finite(path, lineno, sigma_text))
        if sigma[-1] < 0:
            raise FormatError(path, lineno, f"negative standard deviation: {sigma_text!r}")
        if tau_text != "-":
            if vocab.partition[tag] != SEEN:
                raise FormatError(path, lineno, f"threshold given for {tag!r}, not a seen tag")
            tau[tag] = _parse_finite(path, lineno, tau_text)
    if set(tags) != set(vocab.tags):
        raise FormatError(path, 0, "threshold statistics do not cover the vocabulary")
    untrainable = tuple(t for t in vocab.seen_tags if t not in tau)
    stats = TagStats(tuple(tags), np.array(mu), np.array(sigma))
    return ThresholdModel(tau=tau, stats=stats, lsq_coeffs=coeffs, untrainable=untrainable)


def save_thresholds(model: ThresholdModel, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# tag\ttau\tmu\tsigma ('-' = no learned threshold)\n")
        if model.lsq_coeffs is not None:
            values = "\t".join(_fmt(c) for c in model.lsq_coeffs)
            fh.write(f"{_LSQ_ROW}\t{values}\n")
        stats = model.stats
        for i, tag in enumerate(stats.tags):
            if tag == _LSQ_ROW:
                raise FormatError(path, 0, "the tag name 'lsq' is reserved in this format")
            tau = _fmt(model.tau[tag]) if tag in model.tau else "-"
            fh.write(f"{tag}\t{tau}\t{_fmt(stats.mu[i])}\t{_fmt(stats.sigma[i])}\n")


# -------------------------------------------------------------------- report

def save_report(report, path) -> None:
    obj = report.to_dict() if hasattr(report, "to_dict") else report
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
