"""File formats: line-oriented TSV with '#' comment lines, UTF-8, written
with LF line endings and read with LF, CRLF or CR.  Floats are serialized
with repr(), the shortest representation that round-trips exactly.

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
import operator
import os
import stat
from itertools import islice, repeat
from typing import Iterator, NamedTuple

import numpy as np

from .core import (
    NOVEL,
    PROVENANCE_CODE,
    PROVENANCE_ORDER,
    SEEN,
    GroundTruth,
    ScoreTable,
    SelectionResult,
    Vocabulary,
    _sorted_rank,
)
from .errors import FormatError, TagSelectError
from .similarity import CooccurrenceStats
from .thresholds import TagStats, ThresholdModel, require_finite_stats

_LSQ_ROW = "lsq"
_LABELS = {"0": False, "1": True}
_ROW_FIELDS = {"1": 3, "2": 4, "N": 2}  # co-occurrence row kind -> fields


#: Physical lines read, checked and converted at a time.  The score, truth,
#: co-occurrence and selections loaders keep only arrays across blocks, so a
#: large file never sits in memory whole, as text or as strings.
BLOCK_LINES = 1 << 12

_NL, _TAB, _HASH, _ONE = ord("\n"), ord("\t"), ord("#"), ord("1")


class _Block(NamedTuple):
    """The data lines of one block: neither blank nor a '#' comment."""

    linenos: np.ndarray  # 1-based line number of each data line
    ntabs: np.ndarray  # tabs on each data line
    fields: list[str]  # every data line's tab-separated fields, flat


def _open(path, kind):
    try:
        return open(path, "rb")
    except OSError as exc:
        raise TagSelectError(f"cannot read {kind} file {str(path)!r}: {exc}") from None


def _refuse_comments(path, ids, kind) -> None:
    """Refuse, before anything is written, an id that would start a line with
    '#': every loader skips such a line as a comment."""
    for x in ids:
        if x.startswith("#"):
            raise FormatError(
                path, 0, f"{kind} {x!r} starts with '#' and would read back as a comment"
            )


def _create(path, kind):
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise TagSelectError(f"cannot write {kind} file {str(path)!r}: {exc}") from None


def _blocks(path, kind) -> Iterator[_Block]:
    """Read a UTF-8 file ``BLOCK_LINES`` lines at a time.  Line endings are
    universal (LF, CRLF or a lone CR) and lines are numbered from 1, as in
    text mode; blocks are counted in LF-terminated lines, so a file whose
    lines all end in a lone CR is read as one block.  A block that holds an
    invalid byte yields the lines before that byte's line, then raises a
    FormatError naming it."""
    with _open(path, kind) as fh:
        first = 1
        while raw := b"".join(islice(fh, BLOCK_LINES)):
            if b"\r" in raw:
                raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            error = None
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raw = raw[: raw.rfind(b"\n", 0, exc.start) + 1]
                byte = exc.object[exc.start]
                error = FormatError(
                    path, first + raw.count(b"\n"),
                    f"not valid UTF-8 (byte {byte:#04x}: {exc.reason})",
                )
                text = raw.decode("utf-8")
            if raw:
                block, n_lines = _split_block(raw, text, first)
                if len(block.linenos):
                    yield block
                first += n_lines
                del block
            if error is not None:
                raise error
            del raw, text  # so that the next block is not read beside this one


def _split_block(raw: bytes, text: str, first: int) -> tuple[_Block, int]:
    """Find the data lines of ``raw`` (``text`` decoded) by array operations
    on its bytes and split them into flat fields; returns the block and its
    number of lines."""
    buf = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(buf == _NL)
    if raw[-1] != _NL:
        ends = np.append(ends, len(raw))
    starts = np.concatenate(([0], ends[:-1] + 1))
    data = (ends > starts) & (buf[starts] != _HASH)
    tabs = np.flatnonzero(buf == _TAB)
    # No tab sits on a newline, so a line's tabs are those before its end
    # and not before the previous line's end.
    ntabs = np.diff(np.searchsorted(tabs, ends), prepend=0)
    fields: list[str] = []
    if data.any():
        if not data.all():
            kept = np.repeat(data, np.diff(starts, append=len(raw)))
            text = buf[kept].tobytes().decode("utf-8")
        fields = text.removesuffix("\n").replace("\n", "\t").split("\t")
    return _Block(first + np.flatnonzero(data), ntabs[data], fields), len(ends)


def _columns(path, kind, width) -> Iterator[tuple[np.ndarray, list[list[str]]]]:
    """Blocks of data lines as ``width`` field columns, with their line
    numbers.  A line with another number of fields ends the stream: the lines
    before it are yielded, then its FormatError is raised."""
    for block in _blocks(path, kind):
        wrong = np.flatnonzero(block.ntabs != width - 1)
        n = int(wrong[0]) if len(wrong) else len(block.linenos)
        if n:
            flat = block.fields[: n * width]
            yield block.linenos[:n], [flat[j::width] for j in range(width)]
            del flat
        if len(wrong):
            raise FormatError(path, int(block.linenos[n]), _field_count(width, block.ntabs[n] + 1))
        del block


def tsv_lines(path, kind) -> Iterator[tuple[int, list[str]]]:
    """The lines of a file that are neither blank nor a '#' comment, one at
    a time, as (line number, tab-separated fields).  ``kind`` names the file
    in the error raised when it cannot be opened."""
    for block in _blocks(path, kind):
        stops = np.cumsum(block.ntabs + 1).tolist()
        for lineno, start, stop in zip(block.linenos.tolist(), [0, *stops], stops):
            yield lineno, block.fields[start:stop]


def _find(values: list, value) -> int | None:
    """Index of the first occurrence of ``value``, or None."""
    try:
        return values.index(value)
    except ValueError:
        return None


def _first_true(mask: np.ndarray) -> int | None:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if len(hits) else None


def _parse_all(parse, texts: list[str]) -> tuple[list, int | None]:
    """``parse`` over ``texts`` up to the first text it rejects: the values
    before that text and its index (None when every text parses)."""
    try:
        return list(map(parse, texts)), None
    except ValueError:
        values = []
        for text in texts:
            try:
                values.append(parse(text))
            except ValueError:
                return values, len(values)
        raise


def _indices(index: dict[str, int], keys: list[str]) -> np.ndarray:
    """Each key's position in ``index``; keys not yet in it are added in
    order of first appearance."""
    for key in dict.fromkeys(keys):
        index.setdefault(key, len(index))
    return np.fromiter(map(index.__getitem__, keys), dtype=np.intp, count=len(keys))


def _cycle_cells(
    index: dict[str, int], cycle: list[str], images: list[str], tags: list[str]
) -> tuple[np.ndarray, np.ndarray] | None:
    """Rows and columns of a block in the layout the writers give: ``tags``
    follow ``cycle`` (distinct tags, each at its column) from some phase, and
    each cycle-aligned run of lines holds one image.  These are the arrays
    that looking up each line's image in ``index`` and tag in ``cycle`` would
    give, with no lookup per line.  Any other block gives None and leaves
    ``index`` unchanged."""
    n, m = len(cycle), len(tags)
    phase = _find(cycle, tags[0]) if n and m else None
    if phase is None or tags != (cycle * ((phase + m - 1) // n + 1))[phase: phase + m]:
        return None
    bounds = [0, *range(n - phase, m, n), m]
    runs = list(zip(bounds, bounds[1:]))
    if any(images[a:b].count(images[a]) != b - a for a, b in runs):
        return None
    heads = [images[a] for a, _ in runs]
    return np.repeat(_indices(index, heads), np.diff(bounds)), (phase + np.arange(m)) % n


def _at(rows: np.ndarray, i: int | None) -> int | None:
    """Block index of position ``i`` among ``rows``; None stays None."""
    return None if i is None else int(rows[i])


def _int_array(values: list[int]) -> np.ndarray:
    """int64, or Python ints (object) when one is out of the int64 range."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _check_lines(path, linenos, *rules) -> None:
    """Raise the FormatError of the earliest failing line, if any.  ``rules``
    are (index of the first line the rule rejects or None, message for a
    line index) in rule order: on one line, the earlier rule wins."""
    failing = [(i, rank, message) for rank, (i, message) in enumerate(rules) if i is not None]
    if failing:
        i, _, message = min(failing, key=lambda f: f[:2])
        raise FormatError(path, int(linenos[i]), message(i))


def _file_size(path) -> int:
    """Bytes in ``path`` if it names a regular file, else 0; a file that
    cannot be examined gives 0, and the open that follows reports it."""
    try:
        info = os.stat(path)
    except OSError:
        return 0
    return info.st_size if stat.S_ISREG(info.st_mode) else 0


def _grow(array: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """``array``, zero-padded to at least ``rows`` x ``cols``; a dimension
    that must grow at least doubles, so filling costs amortized linear
    copying."""
    have_rows, have_cols = array.shape
    if rows <= have_rows and cols <= have_cols:
        return array
    grown = np.zeros(
        (max(rows, 2 * have_rows) if rows > have_rows else have_rows,
         max(cols, 2 * have_cols) if cols > have_cols else have_cols),
        dtype=array.dtype,
    )
    grown[:have_rows, :have_cols] = array
    return grown


def _mark_new(filled: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> int | None:
    """Mark the cells (rows[i], cols[i]) of ``filled``.  Returns the first i
    whose cell an earlier block or an earlier line had marked, else None."""
    if not len(rows):
        return None
    flat = filled.reshape(-1)  # a view: ``_grow`` builds C-contiguous arrays
    codes = rows * filled.shape[1] + cols
    lo, hi = int(codes.min()), int(codes.max()) + 1
    before = np.count_nonzero(flat[lo:hi])
    taken = flat[codes]
    flat[codes] = True
    if np.count_nonzero(flat[lo:hi]) == before + len(codes):
        return None
    _, first = np.unique(codes, return_index=True)
    repeat = np.ones(len(codes), dtype=bool)
    repeat[first] = False
    return _first_true(taken | repeat)


def _field_count(want, got) -> str:
    return f"expected {want} tab-separated fields, got {got}"


def _need_fields(path, lineno, fields, n) -> None:
    if len(fields) != n:
        raise FormatError(path, lineno, _field_count(n, len(fields)))


def _parse_finite(path, lineno, text) -> float:
    try:
        value = float(text)
    except ValueError:
        raise FormatError(path, lineno, f"not a number: {text!r}") from None
    if not np.isfinite(value):
        raise FormatError(path, lineno, f"not a finite number: {text!r}")
    return value


def _total_count(text, total) -> tuple[int | None, str | None]:
    """The collection size a total row gives, or None and why the row is
    rejected; ``total`` is the size an earlier total row gave, if any."""
    if total is not None:
        return None, "duplicate total row"
    try:
        value = int(text)
    except ValueError:
        return None, f"not an integer: {text!r}"
    if value < 0:
        return None, f"count must be non-negative: {text!r}"
    if not 0 < value <= np.iinfo(np.int64).max:
        return None, f"collection size must be in [1, 2**63), got {value}"
    return value, None


# ---------------------------------------------------------------- vocabulary

def load_vocabulary(path) -> Vocabulary:
    tags: list[str] = []
    partition: dict[str, str] = {}
    for lineno, fields in tsv_lines(path, "vocabulary"):
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
    _refuse_comments(path, vocab.tags, "tag")
    with _create(path, "vocabulary") as fh:
        fh.write("# tag\tseen|novel\n")
        for t in vocab.tags:
            fh.write(f"{t}\t{vocab.partition[t]}\n")


# -------------------------------------------------------------------- scores

def load_scores(path, vocab: Vocabulary) -> ScoreTable:
    """Dense score table; every image must carry a score for every
    vocabulary tag.  Column order follows the vocabulary, image order first
    appearance."""
    n = len(vocab.tags)
    column = {t: j for j, t in enumerate(vocab.tags)}
    img_index: dict[str, int] = {}
    # A complete image has a line per tag, of at least its tag's bytes, two
    # tabs, an image id, a score and a newline: so the file's size bounds
    # its images.  ``np.zeros`` leaves the pages beyond the images it holds
    # untouched; a file with more images than that grows by ``_grow``.
    bound = _file_size(path) // sum(len(t.encode("utf-8")) + 5 for t in vocab.tags)
    scores = np.zeros((bound, n), dtype=np.float64)
    filled = np.zeros((bound, n), dtype=bool)
    cycle = list(vocab.tags)
    for linenos, (images, tags, texts) in _columns(path, "scores", 3):
        cells = _cycle_cells(img_index, cycle, images, tags)
        if cells is None:
            cols = np.fromiter(map(column.get, tags, repeat(-1)), dtype=np.intp, count=len(tags))
            unknown = _first_true(cols < 0)  # no cell: only the lines before it are marked
            rows = _indices(img_index, images)
        else:
            (rows, cols), unknown = cells, None
        values, bad_value = _parse_all(float, texts)
        filled = _grow(filled, len(img_index), n)
        _check_lines(
            path, linenos,
            (_find(images, ""), lambda i: "empty image id"),
            (unknown, lambda i: f"unknown tag {tags[i]!r}"),
            (bad_value, lambda i: f"not a number: {texts[i]!r}"),
            (_mark_new(filled, rows[:unknown], cols[:unknown]),
             lambda i: f"duplicate score for ({images[i]!r}, {tags[i]!r})"),
        )
        scores = _grow(scores, len(img_index), n)
        scores[rows, cols] = values
        # Drop this block's columns before the next block is read, so that
        # they do not sit in memory beside it; this sets the peak.
        del images, tags, texts, values, rows, cols
    images = tuple(img_index)
    incomplete = _first_true(~filled[: len(images)].all(axis=1))
    if incomplete is not None:
        missing = vocab.tags[int(np.flatnonzero(~filled[incomplete])[0])]
        raise FormatError(
            path, 0, f"image {images[incomplete]!r} lacks a score for tag {missing!r}"
        )
    # Shrunk in place, not copied: no other reference to ``scores`` or view
    # of it exists.
    scores.resize((len(images), n), refcheck=False)
    return ScoreTable._taking(images, vocab.tags, scores)


def save_scores(table: ScoreTable, path) -> None:
    _refuse_comments(path, table.images, "image id")
    with _create(path, "scores") as fh:
        fh.write("# image_id\ttag\tscore\n")
        for image, row in zip(table.images, table.scores):
            for tag, score in zip(table.tags, row.tolist()):
                fh.write(f"{image}\t{tag}\t{score!r}\n")


# --------------------------------------------------------------------- truth

def load_truth(path, vocab: Vocabulary | None = None) -> GroundTruth:
    """Labels over the tags the file names; image and coverage order follow
    first appearance.  With ``vocab``, every tag must be a vocabulary tag."""
    img_index: dict[str, int] = {}
    tag_index: dict[str, int] = {}
    filled = np.zeros((0, 0), dtype=bool)
    relevant = np.zeros((0, 0), dtype=bool)
    for linenos, (images, tags, labels) in _columns(path, "truth", 3):
        unknown = None
        # A block that passes names only tags of earlier blocks, which passed
        # the vocabulary check.  The first block sets the coverage order.
        cells = _cycle_cells(img_index, list(tag_index), images, tags)
        if cells is None:
            if vocab is not None:
                outside = [t for t in dict.fromkeys(tags) if t not in vocab]
                unknown = tags.index(outside[0]) if outside else None
            rows, cols = _indices(img_index, images), _indices(tag_index, tags)
        else:
            rows, cols = cells
        # Every label one character, each '0' or '1': one pass over them.
        joined = "".join(labels)
        if "" not in labels and len(labels) == len(joined) == sum(map(joined.count, "01")):
            values, bad_label = np.frombuffer(joined.encode(), np.uint8) == _ONE, None
        else:
            values = list(map(_LABELS.get, labels))
            bad_label = _find(values, None)
        filled = _grow(filled, len(img_index), len(tag_index))
        _check_lines(
            path, linenos,
            (_find(images, ""), lambda i: "empty image id"),
            (_find(tags, ""), lambda i: "empty tag"),
            (unknown, lambda i: f"unknown tag {tags[i]!r}"),
            (bad_label, lambda i: f"label must be 0 or 1, got {labels[i]!r}"),
            (_mark_new(filled, rows, cols),
             lambda i: f"duplicate label for ({images[i]!r}, {tags[i]!r})"),
        )
        relevant = _grow(relevant, len(img_index), len(tag_index))
        relevant[rows, cols] = values
        # As in load_scores: the block's columns must not sit in memory
        # beside the next block.
        del images, tags, labels, joined, values, rows, cols
    if not img_index:
        raise FormatError(path, 0, "ground truth file holds no labels")
    shape = (slice(len(img_index)), slice(len(tag_index)))
    labels = relevant[shape].astype(np.int8)
    labels[~filled[shape]] = -1
    return GroundTruth(tuple(img_index), tuple(tag_index), labels)


def save_truth(truth: GroundTruth, path) -> None:
    """Every defined label, one row each.  The file holds nothing else, so
    an image or a coverage tag without a defined label would not read
    back: the first such image, else the first such tag, is refused before
    anything is written, and so is a truth with no labels at all."""
    _refuse_comments(path, truth.images, "image id")
    defined = truth.labels >= 0
    for kind, ids, labelled in (
        ("image", truth.images, defined.any(axis=1)),
        ("coverage tag", truth.coverage, defined.any(axis=0)),
    ):
        if not labelled.all():
            raise FormatError(path, 0, f"{kind} {ids[int(np.argmin(labelled))]!r} "
                                       "has no defined label and would not read back")
    if not truth.images:
        raise FormatError(path, 0, "ground truth holds no labels and would not read back")
    with _create(path, "truth") as fh:
        fh.write("# image_id\ttag\t0|1\n")
        # Row-major, so image-major in stored order, as iter_pairs yields.
        r, c = np.nonzero(truth.labels >= 0)
        fh.writelines(
            f"{image}\t{tag}\t{label}\n"
            for image, tag, label in zip(
                np.array(truth.images, dtype=object)[r].tolist(),
                np.array(truth.coverage, dtype=object)[c].tolist(),
                truth.labels[r, c].tolist(),
            )
        )


# ------------------------------------------------------------- cooccurrence

def load_cooccurrence(path) -> CooccurrenceStats:
    """Counts straight into the matrix.  Every count rule is checked once,
    on the lines: those that need every single count and the total (a
    single count above the total, a pair naming an unknown tag or above one
    of its single counts) once the file is read, naming the first bad row
    in file order.  The matrix is then filled in sorted tag order and taken
    over unchecked."""
    tag_id: dict[str, int] = {}  # every tag a row names, by first appearance
    # Per block and row kind: tag ids, counts and line numbers.
    singles: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    pairs: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    singles_seen = np.zeros((0, 1), dtype=bool)  # by tag id
    pairs_seen = np.zeros((0, 0), dtype=bool)  # by (tag_a id, tag_b id)
    total: int | None = None
    for block in _blocks(path, "co-occurrence"):
        fields, linenos = block.fields, block.linenos
        starts = np.cumsum(block.ntabs + 1) - (block.ntabs + 1)
        kinds = list(map(fields.__getitem__, starts.tolist()))
        width = np.fromiter(map(_ROW_FIELDS.get, kinds, repeat(0)), dtype=np.intp, count=len(kinds))
        wrong = _first_true(width != block.ntabs + 1)
        width = width[:wrong]

        def cell(i, k):
            return fields[starts[i] + k]

        def column(rows, k):
            return list(map(fields.__getitem__, (starts[rows] + k).tolist()))

        s = np.flatnonzero(width == 3)
        tags, s_counts = column(s, 1), column(s, 2)
        s_counts, s_bad = _parse_all(int, s_counts)
        p = np.flatnonzero(width == 4)
        a, b, p_counts = column(p, 1), column(p, 2), column(p, 3)
        p_counts, p_bad = _parse_all(int, p_counts)
        ids, ia, ib = _indices(tag_id, tags), _indices(tag_id, a), _indices(tag_id, b)
        singles_seen = _grow(singles_seen, len(tag_id), 1)
        pairs_seen = _grow(pairs_seen, len(tag_id), len(tag_id))
        empty = [i for i in (_find(a, ""), _find(b, "")) if i is not None]
        t_bad = t_why = None
        for i in np.flatnonzero(width == 2).tolist():
            value, t_why = _total_count(cell(i, 1), total)
            if t_why is not None:
                t_bad = i
                break
            total = value
        # Rules in order per row kind; rows of different kinds never share a
        # line, so only the order within a kind matters.  The malformed row
        # comes last: every other rule reads only the lines before it.
        _check_lines(
            path, linenos,
            (_at(s, s_bad), lambda i: f"not an integer: {cell(i, 2)!r}"),
            (_at(s, _first_true(_int_array(s_counts) < 0)),
             lambda i: f"count must be non-negative: {cell(i, 2)!r}"),
            (_at(s, _find(tags, "")), lambda i: "empty tag"),
            (_at(s, _mark_new(singles_seen, ids, np.zeros_like(ids))),
             lambda i: f"duplicate singleton count for {cell(i, 1)!r}"),
            (_at(p, min(empty, default=None)), lambda i: "empty tag"),
            (_at(p, _find(list(map(operator.lt, a, b)), False)),
             lambda i: f"pair rows need tag_a < tag_b, got {cell(i, 1)!r}, {cell(i, 2)!r}"),
            (_at(p, _mark_new(pairs_seen, ia, ib)),
             lambda i: f"duplicate pair count for ({cell(i, 1)!r}, {cell(i, 2)!r})"),
            (_at(p, p_bad), lambda i: f"not an integer: {cell(i, 3)!r}"),
            (_at(p, _first_true(_int_array(p_counts) < 0)),
             lambda i: f"count must be non-negative: {cell(i, 3)!r}"),
            (t_bad, lambda i: t_why),
            (wrong, lambda i: f"unknown row kind {kinds[i]!r} (need 1, 2 or N)"
             if kinds[i] not in _ROW_FIELDS
             else _field_count(_ROW_FIELDS[kinds[i]], block.ntabs[i] + 1)),
        )
        singles.append((ids, _int_array(s_counts), linenos[s]))
        pairs.append((ia, ib, _int_array(p_counts), linenos[p]))
    if total is None:
        raise FormatError(path, 0, "missing total row 'N<TAB>count'")
    # A total row was read, so there is at least one block.
    ids, counts_of, s_lineno = map(np.concatenate, zip(*singles))
    ia, ib, pair_count, p_lineno = map(np.concatenate, zip(*pairs))
    names = list(tag_id)
    bad: list[tuple[int, str]] = []
    k = _first_true(counts_of > total)
    if k is not None:
        bad.append((int(s_lineno[k]),
                    f"occurrence count for {names[ids[k]]!r} exceeds collection size {total}"))
    known = np.zeros(len(names), dtype=bool)
    known[ids] = True
    single_count = np.zeros(len(names), dtype=counts_of.dtype)
    single_count[ids] = counts_of
    unknown = ~(known[ia] & known[ib])
    exceeds = ~unknown & ((pair_count > single_count[ia]) | (pair_count > single_count[ib]))
    k = _first_true(unknown | exceeds)
    if k is not None:
        tag_a, tag_b = names[ia[k]], names[ib[k]]
        bad.append((int(p_lineno[k]), (
            f"pair count references unknown tag {tag_b if known[ia[k]] else tag_a!r}"
            if unknown[k]
            else f"pair count for {(tag_a, tag_b)!r} exceeds one of its single counts"
        )))
    if bad:
        raise FormatError(path, *min(bad))
    # Every named tag has a single count: a pair naming any other tag failed above.
    rank = _sorted_rank(names)
    ids, ia, ib = rank[ids], rank[ia], rank[ib]
    counts = np.zeros((len(names), len(names)), dtype=np.int64)
    counts[ids, ids] = counts_of
    counts[ia, ib] = pair_count
    counts[ib, ia] = pair_count
    return CooccurrenceStats._taking(sorted(names), counts, total)


def save_cooccurrence(stats: CooccurrenceStats, path) -> None:
    """Singles and pairs in ascending tag order; pairs that never co-occur
    are not written."""
    with _create(path, "co-occurrence") as fh:
        fh.write("# 1\ttag\tcount | 2\ttag_a\ttag_b\tcount | N\tcount\n")
        fh.write(f"N\t{stats.total}\n")
        for tag, count in stats.single.items():
            fh.write(f"1\t{tag}\t{count}\n")
        for (a, b), count in stats.pair.items():
            fh.write(f"2\t{a}\t{b}\t{count}\n")


# ---------------------------------------------------------------- selections

def load_selections(path) -> SelectionResult:
    """Images in order of first appearance, each with its rows in file order."""
    image_index: dict[str, int] = {}
    tag_index: dict[str, int] = {}
    picked = np.zeros((0, 0), dtype=bool)
    # Per block: image and tag indices, scores and provenance codes.
    parts = [(np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0), np.zeros(0, np.int8))]
    for linenos, (images, tags, texts, provenance) in _columns(path, "selections", 4):
        codes = list(map(PROVENANCE_CODE.get, provenance))
        scores, bad_score = _parse_all(float, texts)
        rows, cols = _indices(image_index, images), _indices(tag_index, tags)
        picked = _grow(picked, len(image_index), len(tag_index))
        _check_lines(
            path, linenos,
            (_find(images, ""), lambda i: "empty image id"),
            (_find(tags, ""), lambda i: "empty tag"),
            (_find(codes, None), lambda i: f"unknown provenance {provenance[i]!r}"),
            (bad_score, lambda i: f"not a number: {texts[i]!r}"),
            (_mark_new(picked, rows, cols),
             lambda i: f"duplicate selection ({images[i]!r}, {tags[i]!r})"),
        )
        scores, codes = np.array(scores, dtype=np.float64), np.array(codes, dtype=np.int8)
        parts.append((rows, cols, scores, codes))
    image_of, cols, scores, codes = map(np.concatenate, zip(*parts))
    order = np.argsort(image_of, kind="stable")
    sizes = np.bincount(image_of, minlength=len(image_index))
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    return SelectionResult._from_arrays(
        tuple(image_index), tuple(tag_index), offsets, cols[order], scores[order], codes[order],
    )


def save_selections(result: SelectionResult, path) -> None:
    _refuse_comments(path, result.images, "image id")
    tags = result.column_tags
    images = np.repeat(np.array(result.images, dtype=object), np.diff(result.offsets))
    with _create(path, "selections") as fh:
        fh.write("# image_id\ttag\tscore\tprovenance\n")
        fh.writelines(
            f"{image}\t{tags[j]}\t{score!r}\t{PROVENANCE_ORDER[p]}\n"
            for image, j, score, p in zip(
                images.tolist(), result.columns.tolist(),
                result.scores.tolist(), result.provenance.tolist(),
            )
        )


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
    for lineno, fields in tsv_lines(path, "thresholds"):
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
    if _LSQ_ROW in model.stats.tags:
        raise FormatError(path, 0, "the tag name 'lsq' is reserved in this format")
    _refuse_comments(path, model.stats.tags, "tag")
    # load_thresholds refuses what does not parse as finite.
    require_finite_stats(model.stats)
    with _create(path, "thresholds") as fh:
        fh.write("# tag\ttau\tmu\tsigma ('-' = no learned threshold)\n")
        if model.lsq_coeffs is not None:
            values = "\t".join(map(repr, model.lsq_coeffs))
            fh.write(f"{_LSQ_ROW}\t{values}\n")
        stats = model.stats
        for tag, mu, sigma in zip(stats.tags, stats.mu.tolist(), stats.sigma.tolist()):
            tau = repr(model.tau[tag]) if tag in model.tau else "-"
            fh.write(f"{tag}\t{tau}\t{mu!r}\t{sigma!r}\n")


# -------------------------------------------------------------------- report

def save_report(report, path) -> None:
    obj = report.to_dict() if hasattr(report, "to_dict") else report
    with _create(path, "report") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path) -> dict:
    with _open(path, "report") as fh:
        return json.load(fh)
