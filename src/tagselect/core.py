"""Shared data model: vocabulary partition, score tables, labels, selections.

Conventions used throughout the package:

* tag and image identifiers are non-empty strings without tabs or newlines,
  unique within their list; every type checks its lists with ``_id_index``;
* score matrices are float64 with one row per image and one column per tag,
  column order given by the vocabulary;
* every tie between tags is broken by ascending lexicographic order on the
  tag string, so all outputs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import TagSelectError

SEEN = "seen"
NOVEL = "novel"

# Provenance labels for selected tags.
FROM_SEEN_THRESHOLDING = "from_seen_thresholding"
FROM_NOVEL_TOPK = "from_novel_topk"
FROM_FALLBACK = "from_fallback"
#: A selection's provenance codes index this tuple.
PROVENANCE_ORDER = (FROM_SEEN_THRESHOLDING, FROM_NOVEL_TOPK, FROM_FALLBACK)
PROVENANCE_CODE = {p: i for i, p in enumerate(PROVENANCE_ORDER)}

#: Matrix cells, or tag pairs, that a kernel over a whole table or a
#: vocabulary's pairs handles at a time, so that its transients stay a fixed
#: size however large the input.
BLOCK_CELLS = 1 << 16


def _check_identifier(value: str, kind: str) -> None:
    if not isinstance(value, str) or not value:
        raise TagSelectError(f"{kind} must be a non-empty string, got {value!r}")
    if "\t" in value or "\n" in value or "\r" in value:
        raise TagSelectError(f"{kind} {value!r} contains tab or newline characters")


def _id_index(
    values: Iterable[str], kind: str, duplicates: str
) -> tuple[tuple[str, ...], dict[str, int]]:
    """``values`` as a tuple of checked identifiers, and each one's position
    in it; a repeated value raises ``duplicates``."""
    values = tuple(values)
    for value in values:
        _check_identifier(value, kind)
    index = {value: i for i, value in enumerate(values)}
    if len(index) != len(values):
        raise TagSelectError(duplicates)
    return values, index


def _lookup(index: Mapping[str, int], key: str, message: str) -> int:
    """``index[key]``; a missing key raises ``message`` formatted with it."""
    position = index.get(key)
    if position is None:
        raise TagSelectError(message.format(key))
    return position


@dataclass(frozen=True)
class Vocabulary:
    """Ordered tag list partitioned into disjoint seen and novel subsets.

    ``tags`` fixes the column order of every score matrix; ``partition``
    maps each tag to ``"seen"`` or ``"novel"``.
    """

    tags: tuple[str, ...]
    partition: Mapping[str, str]

    def __post_init__(self):
        tags, index = _id_index(self.tags, "tag", "vocabulary contains duplicate tags")
        object.__setattr__(self, "tags", tags)
        if not tags:
            raise TagSelectError("vocabulary must contain at least one tag")
        part = dict(self.partition)
        if set(part) != set(tags):
            raise TagSelectError("partition must label exactly the vocabulary tags")
        for t, side in part.items():
            if side not in (SEEN, NOVEL):
                raise TagSelectError(f"tag {t!r} has invalid partition label {side!r}")
        object.__setattr__(self, "partition", part)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "seen_tags", tuple(t for t in tags if part[t] == SEEN))
        object.__setattr__(self, "novel_tags", tuple(t for t in tags if part[t] == NOVEL))

    @classmethod
    def from_partition(cls, seen: Iterable[str], novel: Iterable[str]) -> "Vocabulary":
        seen = tuple(seen)
        novel = tuple(novel)
        tags = seen + novel
        part = {t: SEEN for t in seen}
        part.update({t: NOVEL for t in novel})
        if len(part) != len(tags):
            raise TagSelectError("seen and novel tag lists overlap or repeat")
        return cls(tags, part)

    def index(self, tag: str) -> int:
        return _lookup(self._index, tag, "unknown tag {!r}")

    def __contains__(self, tag: str) -> bool:
        return tag in self._index

    def __len__(self) -> int:
        return len(self.tags)

    def is_seen(self, tag: str) -> bool:
        self.index(tag)
        return self.partition[tag] == SEEN


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """Dense image-by-tag score matrix.

    The matrix is float64 and read-only after construction.  Structural
    problems (duplicate ids, shape mismatch) raise immediately; semantic
    problems such as non-finite entries are reported by validate_inputs so
    that damaged files can still be inspected.
    """

    images: tuple[str, ...]
    tags: tuple[str, ...]
    scores: np.ndarray

    def __post_init__(self):
        self._init(np.array)

    @classmethod
    def _taking(cls, images: Sequence[str], tags: Sequence[str], scores: np.ndarray) -> "ScoreTable":
        """``ScoreTable(images, tags, scores)`` that takes over a float64
        ``scores`` built for it, and makes it read-only, instead of copying
        it; every check runs, with its message."""
        table = object.__new__(cls)
        for name, value in (("images", images), ("tags", tags), ("scores", scores)):
            object.__setattr__(table, name, value)
        table._init(np.asarray)
        return table

    def _init(self, to_array) -> None:
        """Check the fields and build the indexes; ``to_array`` turns the
        given scores into the float64 matrix."""
        images, img_index = _id_index(
            self.images, "image id", "score table contains duplicate image ids"
        )
        tags, tag_index = _id_index(self.tags, "tag", "score table contains duplicate tags")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "tags", tags)
        self._set_scores(to_array(self.scores, dtype=np.float64))
        object.__setattr__(self, "_img_index", img_index)
        object.__setattr__(self, "_tag_index", tag_index)
        # Each column's rank among the sorted tag strings: tags are unique,
        # so ties broken by it are broken by the strings themselves.
        tag_rank = np.empty(len(tags), dtype=np.int32)
        tag_rank[np.argsort(np.array(tags, dtype=object))] = np.arange(len(tags), dtype=np.int32)
        object.__setattr__(self, "_tag_rank", tag_rank)

    def _set_scores(self, arr: np.ndarray) -> None:
        if arr.shape != (len(self.images), len(self.tags)):
            raise TagSelectError(
                f"score matrix shape {arr.shape} does not match "
                f"{len(self.images)} images x {len(self.tags)} tags"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "scores", arr)

    def _derived(self, scores: np.ndarray) -> "ScoreTable":
        """A table of new ``scores`` over this one's images and tags, which
        are already checked: it shares their indexes and tag ranks, and only
        the matrix is checked.  A float64 ``scores`` is taken over, not
        copied, and made read-only.  Nothing cached from the scores is
        shared."""
        table = object.__new__(ScoreTable)
        for name in ("images", "tags", "_img_index", "_tag_index", "_tag_rank"):
            object.__setattr__(table, name, getattr(self, name))
        table._set_scores(np.asarray(scores, dtype=np.float64))
        return table

    @cached_property
    def _non_finite(self) -> int | None:
        """The row-major index of the first non-finite score, None when
        every score is finite: the scores are read-only, so the table is
        scanned once however often it is checked."""
        finite = np.isfinite(self.scores)
        return None if finite.all() else int(np.argmin(finite))

    @cached_property
    def _stats(self) -> "TagStats":
        """``thresholds.tag_stats`` of the table, computed on first use and
        kept, as the scores are read-only."""
        from .thresholds import _tag_stats

        return _tag_stats(self)

    @property
    def n_images(self) -> int:
        return len(self.images)

    @property
    def n_tags(self) -> int:
        return len(self.tags)

    def image_index(self, image: str) -> int:
        return _lookup(self._img_index, image, "unknown image {!r}")

    def tag_index(self, tag: str) -> int:
        return _lookup(self._tag_index, tag, "unknown tag {!r}")

    def row(self, image: str) -> np.ndarray:
        return self.scores[self.image_index(image)]

    def score(self, image: str, tag: str) -> float:
        return float(self.scores[self.image_index(image), self.tag_index(tag)])

    def restrict(self, tags: Sequence[str]) -> "ScoreTable":
        """Column subset in the given order; image order is preserved."""
        cols = [self.tag_index(t) for t in tags]
        return ScoreTable._taking(self.images, tuple(tags), self.scores[:, cols])


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Relevance labels over a coverage universe of tags.

    ``labels`` is int8 with 1 = relevant, 0 = irrelevant and -1 = undefined
    (the image was never judged for that tag).  ``coverage`` lists the tags
    over which labels may be defined, in a fixed order.
    """

    images: tuple[str, ...]
    coverage: tuple[str, ...]
    labels: np.ndarray

    def __post_init__(self):
        images, img_index = _id_index(
            self.images, "image id", "ground truth contains duplicate image ids"
        )
        coverage, tag_index = _id_index(
            self.coverage, "tag", "ground truth coverage contains duplicate tags"
        )
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "coverage", coverage)
        arr = np.array(self.labels, dtype=np.int8)
        if arr.shape != (len(images), len(coverage)):
            raise TagSelectError(
                f"label matrix shape {arr.shape} does not match "
                f"{len(images)} images x {len(coverage)} tags"
            )
        bad = (arr < -1) | (arr > 1)
        if bad.any():
            raise TagSelectError("labels must be 1, 0 or -1 (undefined)")
        arr.setflags(write=False)
        object.__setattr__(self, "labels", arr)
        object.__setattr__(self, "_img_index", img_index)
        object.__setattr__(self, "_tag_index", tag_index)

    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[tuple[str, str, int]],
        coverage: Sequence[str] | None = None,
    ) -> "GroundTruth":
        """Build from (image, tag, relevant) triples.

        Image order and, when not given, coverage order follow first
        appearance.  Duplicate (image, tag) pairs are rejected.
        """
        pairs = list(pairs)
        images: list[str] = []
        img_index: dict[str, int] = {}
        tags: list[str] = []
        tag_index: dict[str, int] = {}
        if coverage is not None:
            tags = list(coverage)
            tag_index = {t: j for j, t in enumerate(tags)}
        cells: dict[tuple[int, int], int] = {}
        for image, tag, rel in pairs:
            if image not in img_index:
                img_index[image] = len(images)
                images.append(image)
            if tag not in tag_index:
                if coverage is not None:
                    raise TagSelectError(f"label tag {tag!r} outside declared coverage")
                tag_index[tag] = len(tags)
                tags.append(tag)
            key = (img_index[image], tag_index[tag])
            if key in cells:
                raise TagSelectError(f"duplicate label for ({image!r}, {tag!r})")
            cells[key] = 1 if rel else 0
        labels = np.full((len(images), len(tags)), -1, dtype=np.int8)
        for (i, j), v in cells.items():
            labels[i, j] = v
        return cls(tuple(images), tuple(tags), labels)

    def has_image(self, image: str) -> bool:
        return image in self._img_index

    def covers(self, tag: str) -> bool:
        return tag in self._tag_index

    def columns(self, tags: Iterable[str]) -> np.ndarray:
        """The coverage column of each tag, and ``len(coverage)`` for a tag
        outside the coverage."""
        outside = repeat(len(self.coverage))
        return np.fromiter(map(self._tag_index.get, tags, outside), dtype=np.intp)

    def image_index(self, image: str) -> int:
        return _lookup(self._img_index, image, "image {!r} not present in ground truth")

    def label(self, image: str, tag: str) -> bool | None:
        """True/False when judged, None when the label is undefined."""
        i = self.image_index(image)
        j = self._tag_index.get(tag)
        if j is None:
            return None
        v = self.labels[i, j]
        return None if v < 0 else bool(v)

    def relevant_set(self, image: str) -> frozenset[str]:
        i = self.image_index(image)
        row = self.labels[i]
        return frozenset(self.coverage[j] for j in np.flatnonzero(row == 1))

    def has_full_coverage(self, image: str, tags: Iterable[str]) -> bool:
        """True when every listed tag carries a defined label for the image."""
        i = self.image_index(image)
        for t in tags:
            j = self._tag_index.get(t)
            if j is None or self.labels[i, j] < 0:
                return False
        return True

    def column(self, tag: str) -> np.ndarray:
        """Label column aligned with self.images (int8, -1 undefined)."""
        j = _lookup(self._tag_index, tag, "tag {!r} not in ground truth coverage")
        return self.labels[:, j]

    def iter_pairs(self) -> Iterator[tuple[str, str, int]]:
        """Defined labels as (image, tag, 0/1), image-major in stored order."""
        for i, image in enumerate(self.images):
            row = self.labels[i]
            for j in np.flatnonzero(row >= 0):
                yield image, self.coverage[j], int(row[j])


@dataclass(frozen=True)
class SelectedTag:
    """A tag chosen for an image, with the reported score and where it
    came from (seen thresholding, novel extrapolation, or top-k fallback)."""

    tag: str
    score: float
    provenance: str

    def __post_init__(self):
        _check_identifier(self.tag, "tag")
        if self.provenance not in PROVENANCE_CODE:
            raise TagSelectError(f"invalid provenance {self.provenance!r}")
        object.__setattr__(self, "score", float(self.score))


@dataclass(frozen=True, eq=False, init=False)
class SelectionResult:
    """Per-image ordered tag selections, held as compressed sparse rows.

    The picks of ``images[i]`` are entries ``offsets[i]:offsets[i + 1]`` of
    three read-only arrays: ``columns`` indexes ``column_tags``, ``scores``
    is float64 and ``provenance`` holds int8 codes into
    ``PROVENANCE_ORDER``.  ``SelectionResult(images, rows)`` builds them
    from ``SelectedTag`` rows and checks them; ``row``, ``tags`` and
    ``tag_set`` build their objects on each call.
    """

    images: tuple[str, ...]
    column_tags: tuple[str, ...]
    offsets: np.ndarray
    columns: np.ndarray
    scores: np.ndarray
    provenance: np.ndarray

    def __init__(self, images: Iterable[str], rows: Mapping[str, Iterable[SelectedTag]]):
        images, _ = _id_index(images, "image id", "selection result contains duplicate image ids")
        rows = dict(rows)
        if set(rows) != set(images):
            raise TagSelectError("selection rows must cover exactly the listed images")
        for image, row in rows.items():
            row = tuple(row)
            rows[image] = row
            tags = [st.tag for st in row]
            if len(set(tags)) != len(tags):
                raise TagSelectError(f"image {image!r} has duplicate selected tags")
        picks = [st for x in images for st in rows[x]]
        column: dict[str, int] = {}
        columns = [column.setdefault(st.tag, len(column)) for st in picks]
        self._init(
            images,
            tuple(column),
            np.cumsum([0, *(len(rows[x]) for x in images)]),
            np.array(columns, dtype=np.intp),
            np.array([st.score for st in picks], dtype=np.float64),
            np.array([PROVENANCE_CODE[st.provenance] for st in picks], dtype=np.int8),
        )

    @classmethod
    def _from_arrays(
        cls,
        images: tuple[str, ...],
        column_tags: tuple[str, ...],
        offsets: np.ndarray,
        columns: np.ndarray,
        scores: np.ndarray,
        provenance: np.ndarray,
    ) -> "SelectionResult":
        """Wrap arrays built by the selection kernel or a loader, unchecked."""
        result = cls.__new__(cls)
        result._init(images, column_tags, offsets, columns, scores, provenance)
        return result

    def _init(self, images, column_tags, offsets, columns, scores, provenance) -> None:
        for array in (offsets, columns, scores, provenance):
            array.setflags(write=False)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "column_tags", column_tags)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "_index", {x: i for i, x in enumerate(images)})

    def _picks(self, image: str) -> slice:
        i = _lookup(self._index, image, "image {!r} not present in selections")
        return slice(self.offsets[i], self.offsets[i + 1])

    def row(self, image: str) -> tuple[SelectedTag, ...]:
        picks = self._picks(image)
        return tuple(
            SelectedTag(self.column_tags[j], s, PROVENANCE_ORDER[p])
            for j, s, p in zip(
                self.columns[picks].tolist(),
                self.scores[picks].tolist(),
                self.provenance[picks].tolist(),
            )
        )

    def tags(self, image: str) -> tuple[str, ...]:
        return tuple(self.column_tags[j] for j in self.columns[self._picks(image)].tolist())

    def tag_set(self, image: str) -> frozenset[str]:
        return frozenset(self.tags(image))

    def reindex(self, images: Sequence[str]) -> "SelectionResult":
        """The selections of ``images`` (distinct ids), in that order; an
        image this result lacks gets an empty selection."""
        # An absent image maps to one past the last row, whose size is 0.
        rows = np.array([self._index.get(x, len(self.images)) for x in images], dtype=np.intp)
        sizes = np.append(np.diff(self.offsets), 0)[rows]
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        take = np.repeat(self.offsets[rows] - offsets[:-1], sizes) + np.arange(offsets[-1])
        return SelectionResult._from_arrays(
            tuple(images), self.column_tags, offsets,
            self.columns[take], self.scores[take], self.provenance[take],
        )


def validate_inputs(
    vocab: Vocabulary,
    table: ScoreTable,
    truth: GroundTruth | None = None,
) -> list[str]:
    """Cross-check a score table (and optional ground truth) against a
    vocabulary.  Returns a list of human-readable violations; empty means
    consistent.  Unlike the constructors this never raises: it is meant for
    inspecting suspect inputs.
    """
    violations: list[str] = []
    vocab_set = set(vocab.tags)
    table_set = set(table.tags)
    for t in table.tags:
        if t not in vocab_set:
            violations.append(f"score table tag {t!r} not in vocabulary")
    for t in vocab.tags:
        if t not in table_set:
            violations.append(f"vocabulary tag {t!r} missing from score table")
    if table_set == vocab_set and table.tags != vocab.tags:
        violations.append("score table column order differs from vocabulary order")
    bad = ~np.isfinite(table.scores)
    for i, j in zip(*np.nonzero(bad)):
        violations.append(
            f"non-finite score for image {table.images[i]!r}, tag {table.tags[j]!r}"
        )
    if truth is not None:
        for t in truth.coverage:
            if t not in vocab_set:
                violations.append(f"ground truth labels tag {t!r} absent from vocabulary")
        img_set = set(table.images)
        for x in truth.images:
            if x not in img_set:
                violations.append(f"ground truth image {x!r} missing from score table")
    return violations


def require_finite(table: ScoreTable) -> None:
    """Raise a ``TagSelectError`` naming the first non-finite score in
    row-major order; ``validate_inputs`` lists every bad cell instead."""
    if table._non_finite is not None:
        i, j = divmod(table._non_finite, table.n_tags)
        raise TagSelectError(
            f"non-finite score for image {table.images[i]!r}, tag {table.tags[j]!r}; "
            "run validate to list every bad cell"
        )


def rank_tags(table: ScoreTable, image: str) -> list[str]:
    """All tags of the table ranked by descending score; ties broken by
    ascending tag string so the ranking is a deterministic total order."""
    order = order_rows(table.row(image)[None], table._tag_rank)[0]
    return [table.tags[i] for i in order]


def order_rows(scores: np.ndarray, tag_rank: np.ndarray) -> np.ndarray:
    """Column order of each row of ``scores`` by descending score, ties
    broken by ascending ``tag_rank``, as ``np.lexsort`` gives it, as intp;
    the rows are sorted ``BLOCK_CELLS`` cells at a time."""
    return _order_into(np.empty(scores.shape, dtype=np.intp), scores, tag_rank)


def _order_into(order: np.ndarray, scores: np.ndarray, tag_rank: np.ndarray) -> np.ndarray:
    """``order_rows(scores, tag_rank)`` written into ``order``, an integer
    array of the shape of ``scores``, a block of rows at a time."""
    n, m = scores.shape
    step = max(1, BLOCK_CELLS // max(m, 1))
    for r0 in range(0, n, step):
        order[r0 : r0 + step] = _argsort_descending(scores[r0 : r0 + step], tag_rank)
    return order


def _nonzero_2d(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.nonzero`` of a 2-D mask: the rows and columns of its true cells,
    row-major, split from their flat indices by one ``divmod``, which costs
    less than numpy's 2-D path.  A mask without columns has no true cell."""
    flat = np.flatnonzero(mask)
    if not mask.shape[1]:
        return flat, flat.copy()
    return np.divmod(flat, mask.shape[1])


def _argsort_descending(
    key: np.ndarray, ties: np.ndarray, rows: np.ndarray | None = None
) -> np.ndarray:
    """The order of ``key`` by descending value, ties broken by ascending
    ``ties``: ``np.lexsort((ties, -key), axis=-1)`` for a 2-D ``key`` with
    one tie rank per column or, given ``rows``, the ascending row of each
    entry of a 1-D ``key``, ``np.lexsort((ties, -key, rows))`` with one tie
    rank per entry.

    A row whose keys are distinct and not NaN has only one such order, so
    the reverse of numpy's unstable argsort gives it, whichever SIMD kernel
    that dispatches to.  Only the rows whose sorted keys are not strictly
    monotonic (a tie, or a NaN, which compares false) take the lexsort."""
    if rows is None:
        ranked = np.sort(key, axis=-1)
        tied = ~(ranked[:, 1:] > ranked[:, :-1]).all(axis=-1)
        del ranked
        if not tied.any():
            return np.argsort(key, axis=-1)[:, ::-1]
        order = np.empty(key.shape, dtype=np.intp)
        order[~tied] = np.argsort(key[~tied], axis=-1)[:, ::-1]
        key = -key[tied]
        order[tied] = np.lexsort((np.broadcast_to(ties, key.shape), key), axis=-1)
        return order
    order = np.argsort(key)[::-1]
    # A stable regroup by row keeps each row's keys descending; row numbers
    # of 16 bits or fewer get numpy's radix sort.
    row_key = rows.astype(np.min_scalar_type(rows.max(initial=0)))
    order = order[np.argsort(row_key[order], kind="stable")]
    ranked = key[order]
    tied_at = ~(ranked[1:] < ranked[:-1]) & (rows[1:] == rows[:-1])
    if tied_at.any():
        tied = np.flatnonzero(np.isin(rows, rows[1:][tied_at]))
        order[tied] = tied[np.lexsort((ties[tied], -key[tied], rows[tied]))]
    return order


class TagRankings(NamedTuple):
    """Every image's ranking as column indices, best first: row i of
    ``order`` ranks the tags of ``tags`` for ``images[i]``.  ``rank_columns``
    gives ``order`` the narrowest unsigned dtype that holds ``len(tags) - 1``:
    uint8 up to 256 tags, uint16 up to 65,536."""

    images: tuple[str, ...]
    tags: tuple[str, ...]
    order: np.ndarray


def rank_columns(table: ScoreTable) -> TagRankings:
    """``rank_tags`` for every image, as columns of the table, from
    ``order_rows``, in the narrowest unsigned dtype that holds every column
    index; it is filled a block of rows at a time, so no intp copy of the
    whole order is made."""
    order = np.empty(table.scores.shape, dtype=np.min_scalar_type(max(table.n_tags - 1, 0)))
    return TagRankings(table.images, table.tags, _order_into(order, table.scores, table._tag_rank))

