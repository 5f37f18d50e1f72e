"""Tag-to-tag similarity from co-occurrence counts.

The distance between two tags is a normalized log ratio of their joint and
marginal occurrence counts in a reference collection; similarity is its
exponential decay, which lands in [0, 1] with 1 meaning the tags always
occur together and 0 meaning they never do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .core import Vocabulary, _id_index, _lookup, _row_blocks, _rows_per_block
from .errors import TagSelectError


_INT64_MAX = int(np.iinfo(np.int64).max)
_DUPLICATE_TAGS = "co-occurrence tags contain duplicates"


def _pair_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def _check_total(total) -> None:
    if not isinstance(total, int) or total < 1:
        raise TagSelectError(f"collection size must be a positive integer, got {total!r}")
    if total > _INT64_MAX:
        raise TagSelectError(f"collection size {total} exceeds the int64 range")


@dataclass(frozen=True, eq=False, init=False)
class CooccurrenceStats:
    """Occurrence counts over a reference collection.

    ``tags`` is sorted, and ``counts`` is a read-only, symmetric int64
    matrix over them: ``counts[i, i]`` counts the images carrying tag i,
    ``counts[i, j]`` the images carrying both i and j.  ``total`` is the
    collection size.

    ``CooccurrenceStats(single, pair, total)`` builds the matrix from
    mappings: ``single[t]`` per tag and ``pair[(a, b)]`` in either key
    order.  A missing pair key means the tags never co-occur; a diagonal key
    must equal the single count.  ``from_counts`` takes the matrix itself.
    """

    tags: tuple[str, ...]
    counts: np.ndarray
    total: int

    def __init__(
        self, single: Mapping[str, int], pair: Mapping[tuple[str, str], int], total: int
    ):
        _check_total(total)
        single = dict(single)
        for t, c in single.items():
            if not isinstance(c, int) or c < 0:
                raise TagSelectError(f"occurrence count for {t!r} must be a non-negative integer")
            if c > total:
                raise TagSelectError(f"occurrence count for {t!r} exceeds collection size")
        _id_index(single, "tag", _DUPLICATE_TAGS)  # before sorted() compares the keys
        tags = tuple(sorted(single))
        index = {t: i for i, t in enumerate(tags)}
        counts = np.zeros((len(tags), len(tags)), dtype=np.int64)
        np.fill_diagonal(counts, [single[t] for t in tags])
        keys: set[tuple[str, str]] = set()
        for key, c in pair.items():
            a, b = key
            norm = _pair_key(a, b)
            if norm in keys:
                raise TagSelectError(f"duplicate pair count for {norm!r}")
            keys.add(norm)
            if not isinstance(c, int) or c < 0:
                raise TagSelectError(f"pair count for {norm!r} must be a non-negative integer")
            for t in norm:
                if t not in single:
                    raise TagSelectError(f"pair count references unknown tag {t!r}")
            if a == b:
                if c != single[a]:
                    raise TagSelectError(
                        f"diagonal pair count for {a!r} disagrees with its single count"
                    )
                continue
            if c > min(single[a], single[b]):
                raise TagSelectError(
                    f"pair count for {norm!r} exceeds one of its single counts"
                )
            counts[index[a], index[b]] = counts[index[b], index[a]] = c
        self._init(tags, counts, total)

    @classmethod
    def from_counts(
        cls, tags: Sequence[str], counts: np.ndarray, total: int
    ) -> "CooccurrenceStats":
        """Build from an integer count matrix over ``tags`` (in any order)
        whose diagonal holds the single counts, checked with array
        operations under the constructor's rules and messages."""
        _check_total(total)
        tags, _ = _id_index(tags, "tag", _DUPLICATE_TAGS)
        n = len(tags)
        arr = np.asarray(counts)
        if arr.shape != (n, n):
            raise TagSelectError(f"count matrix shape {arr.shape} is not {n}x{n}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise TagSelectError(f"count matrix must hold integers, got dtype {arr.dtype}")
        order = sorted(range(n), key=tags.__getitem__)
        tags = tuple(tags[i] for i in order)
        arr = arr[np.ix_(order, order)]
        diag = arr.diagonal()

        def first_pair(mask):
            i, j = np.argwhere(mask)[0]
            return (tags[i], tags[j])

        asymmetric = arr != arr.T
        if asymmetric.any():
            raise TagSelectError(f"count matrix is not symmetric at {first_pair(asymmetric)!r}")
        del asymmetric
        for bad, message in (
            (diag < 0, "occurrence count for {!r} must be a non-negative integer"),
            (diag > total, "occurrence count for {!r} exceeds collection size"),
        ):
            if bad.any():
                raise TagSelectError(message.format(tags[int(np.argmax(bad))]))
        # With the diagonal valid, a cell above its smaller single count is
        # never on the diagonal; by symmetry the first bad cell has i < j.
        for bad, message in (
            (arr < 0, "pair count for {!r} must be a non-negative integer"),
            (
                (arr > diag[:, None]) | (arr > diag),
                "pair count for {!r} exceeds one of its single counts",
            ),
        ):
            if bad.any():
                raise TagSelectError(message.format(first_pair(bad)))
        stats = cls.__new__(cls)
        stats._init(tags, arr.astype(np.int64, copy=False), total)
        return stats

    @classmethod
    def _taking(cls, tags: Sequence[str], counts: np.ndarray, total: int) -> "CooccurrenceStats":
        """Statistics that take over ``counts``, an int64 matrix over the
        sorted ``tags`` built for them, and make it read-only.  Its builder
        guarantees the count rules of ``from_counts``, which are not checked
        again; the total and the tags are."""
        _check_total(total)
        tags, _ = _id_index(tags, "tag", _DUPLICATE_TAGS)
        stats = cls.__new__(cls)
        stats._init(tags, counts, total)
        return stats

    def _init(self, tags: tuple[str, ...], counts: np.ndarray, total: int) -> None:
        counts.setflags(write=False)
        object.__setattr__(self, "tags", tags)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(tags)})

    @cached_property
    def single(self) -> Mapping[str, int]:
        """Read-only tag -> occurrence count, in sorted tag order."""
        return MappingProxyType(dict(zip(self.tags, self.counts.diagonal().tolist())))

    @cached_property
    def pair(self) -> Mapping[tuple[str, str], int]:
        """Read-only (a, b) -> count of the co-occurring pairs, a < b, in
        ascending key order."""
        rows, cols = np.nonzero(np.triu(self.counts, 1))
        t = self.tags
        values = self.counts[rows, cols].tolist()
        return MappingProxyType(
            {(t[i], t[j]): c for i, j, c in zip(rows.tolist(), cols.tolist(), values)}
        )

    def single_count(self, tag: str) -> int:
        i = self._index.get(tag)
        return 0 if i is None else int(self.counts[i, i])

    def pair_count(self, a: str, b: str) -> int:
        if a == b:
            return self.single_count(a)
        i = self._index.get(a)
        j = self._index.get(b)
        return 0 if i is None or j is None else int(self.counts[i, j])

    def has_tag(self, tag: str) -> bool:
        return self.single_count(tag) > 0


def ngd(stats: CooccurrenceStats, a: str, b: str) -> float:
    """Normalized co-occurrence distance between two tags.

    Returns +inf when the tags never co-occur, 0 when one always implies
    the other.  Both tags must occur at least once and the collection must
    hold at least two images, otherwise the logs are meaningless.
    """
    fa = stats.single_count(a)
    fb = stats.single_count(b)
    if fa <= 0:
        raise TagSelectError(f"tag {a!r} has no occurrences; distance undefined")
    if fb <= 0:
        raise TagSelectError(f"tag {b!r} has no occurrences; distance undefined")
    if stats.total < 2:
        raise TagSelectError("collection must hold at least two images")
    fab = stats.pair_count(a, b)
    if fab == 0:
        return math.inf
    log_fa = math.log(fa)
    log_fb = math.log(fb)
    num = max(log_fa, log_fb) - math.log(fab)
    # Counts inconsistent with a hard subset relation can push the numerator
    # slightly negative; distance is clamped at 0.
    if num <= 0.0:
        return 0.0
    den = math.log(stats.total) - min(log_fa, log_fb)
    if den <= 0.0:
        return math.inf
    return num / den


def fcs(stats: CooccurrenceStats, a: str, b: str) -> float:
    """Similarity in [0, 1]: exponential decay of the co-occurrence distance."""
    return math.exp(-ngd(stats, a, b))


def pair_similarity(stats: CooccurrenceStats, a: str, b: str) -> float:
    """fcs with the degenerate cases folded in: a tag absent from the
    collection has similarity 0 to everything (and 1 to itself)."""
    if a == b:
        return 1.0
    if not stats.has_tag(a) or not stats.has_tag(b):
        return 0.0
    return fcs(stats, a, b)


@dataclass(frozen=True, eq=False, init=False)
class SimilarityMatrix:
    """Symmetric tag similarity over a fixed tag order.

    ``missing`` lists tags that had no occurrences in the statistics; their
    off-diagonal similarities are 0.  ``SimilarityMatrix(tags, values,
    missing)`` copies a dense matrix.  ``similarity_matrix`` gives one that
    computes from co-occurrence counts: ``values``, read-only, is built on
    its first access, and ``_block`` computes any block without it.
    """

    tags: tuple[str, ...]
    missing: tuple[str, ...]

    def __init__(self, tags: Sequence[str], values: np.ndarray, missing: Sequence[str]):
        self._init(tags, missing)
        arr = np.array(values, dtype=np.float64)
        n = len(self.tags)
        if arr.shape != (n, n):
            raise TagSelectError(f"similarity matrix shape {arr.shape} is not {n}x{n}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def _init(self, tags: Sequence[str], missing: Sequence[str]) -> None:
        tags, index = _id_index(tags, "tag", "similarity matrix contains duplicate tags")
        object.__setattr__(self, "tags", tags)
        object.__setattr__(self, "missing", tuple(missing))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_memo", None)

    @cached_property
    def values(self) -> np.ndarray:
        """The dense matrix, from one ``_compute`` per block of rows [r0,
        r1) over columns r0 on, mirrored: each unordered pair is computed
        about once."""
        n = len(self.tags)
        values = np.empty((n, n))
        r0 = 0
        while r0 < n:
            r1 = min(n, r0 + _rows_per_block(n - r0))
            block = self._compute(np.arange(r0, r1), np.arange(r0, n))
            values[r0:r1, r0:] = block
            values[r0:, r0:r1] = block.T
            r0 = r1
        values.setflags(write=False)
        return values

    def _block(self, rows, cols) -> np.ndarray:
        """``values[np.ix_(rows, cols)]`` bit for bit, for sequences of tag
        indices, without building ``values``.  The last block computed is
        kept, read-only, and returned again for the same rows and cols."""
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        if "values" in self.__dict__:
            return self.values[np.ix_(rows, cols)]
        key = (rows.tobytes(), cols.tobytes())
        if self._memo is None or self._memo[0] != key:
            block = self._compute(rows, cols)
            block.setflags(write=False)
            object.__setattr__(self, "_memo", (key, block))
        return self._memo[1]

    def _compute(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The block over tag indices ``rows`` x ``cols`` from the counts, a
        block of rows at a time: 1 where the tags are equal, 0 where
        either is absent, ``fcs`` elsewhere.  ``_fcs_block`` is symmetric in
        its two tags, so a cell's bits do not depend on its side."""
        out = np.zeros((len(rows), len(cols)))
        counts, col, f_code, log_f, log_total = self._source
        r = np.flatnonzero(col[rows] >= 0)
        c = np.flatnonzero(col[cols] >= 0)
        if len(c):
            c_col, c_code = col[cols[c]], f_code[cols[c]]
            for s in _row_blocks(len(r), len(c)):
                rr = r[s]
                r_tags = rows[rr]
                # A cell's value depends only on its (single, single, joint)
                # counts: each distinct triple is computed once.
                joint, joint_code = _dedup(counts[np.ix_(col[r_tags], c_col)].ravel())
                # log 0 is never used: _fcs_block masks pairs with fab == 0.
                log_joint = np.array([math.log(c) if c else 0.0 for c in joint.tolist()])
                key = f_code[r_tags, None] * len(log_f) + c_code
                key *= len(joint)
                key += joint_code.reshape(key.shape)
                del joint_code
                triples, inverse = _dedup(key.ravel())
                del key
                pair, fab = np.divmod(triples, len(joint))
                a, b = np.divmod(pair, len(log_f))
                sims = _fcs_block(joint[fab], log_joint[fab], log_f[a], log_f[b], log_total)
                out[np.ix_(rr, c)] = sims[inverse].reshape(len(rr), len(c))
        out[rows[:, None] == cols] = 1.0
        return out

    def index(self, tag: str) -> int:
        return _lookup(self._index, tag, "tag {!r} not in similarity matrix")

    def value(self, a: str, b: str) -> float:
        """One cell, from ``values`` if it is built, else computed without
        touching the block ``_block`` keeps for refinement."""
        i, j = self.index(a), self.index(b)
        if "values" in self.__dict__:
            return float(self.values[i, j])
        return float(self._compute(np.array([i]), np.array([j]))[0, 0])


def similarity_matrix(stats: CooccurrenceStats, vocab: Vocabulary) -> SimilarityMatrix:
    """Pairwise similarity for all vocabulary tags, computed on demand.

    Only the tag-to-count-column map, ``missing`` and the checks run here;
    ``values`` is built on its first access and ``_block`` computes just the
    cells asked for, so refinement computes only the novel x learned-pool
    block.  The diagonal is exactly 1.  Tags without occurrence counts are
    reported in ``missing`` and get 0 against every other tag.  Every other
    value is ``fcs`` bit for bit, so the matrix is exactly symmetric.  The
    logs and exponentials are libm's ``math.log`` and ``math.exp`` (numpy's
    differ in the last bit); the rest is IEEE arithmetic that numpy rounds
    as Python does.
    """
    sim = object.__new__(SimilarityMatrix)
    tags = vocab.tags
    col = np.array([stats._index.get(t, -1) for t in tags], dtype=np.intp)
    known = col >= 0
    f = np.zeros(len(tags), dtype=np.int64)
    f[known] = stats.counts.diagonal()[col[known]]
    # From here on, col is -1 for every tag without occurrences.
    col[f <= 0] = -1
    sim._init(tags, [tags[i] for i in np.flatnonzero(col < 0)])
    if np.count_nonzero(col >= 0) > 1 and stats.total < 2:
        raise TagSelectError("collection must hold at least two images")
    # Each tag's single count is coded by its place among the distinct
    # ones, whose logs are taken once.
    distinct, f_code = np.unique(f, return_inverse=True)
    log_f = np.array([math.log(c) if c > 0 else 0.0 for c in distinct.tolist()])
    log_total = math.log(stats.total)
    object.__setattr__(sim, "_source", (stats.counts, col, f_code, log_f, log_total))
    return sim


#: ``_dedup`` takes a presence table while the key range is at most this
#: many times the number of keys, and sorts otherwise.
_PRESENCE_RANGE = 4


def _dedup(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)`` for a 1-D array of
    non-negative integers: the distinct keys ascending, and each key's
    position among them.  A key range of at most ``_PRESENCE_RANGE`` times
    the keys is marked in a presence table, which costs no sort."""
    bound = int(keys.max(initial=-1)) + 1
    if bound > _PRESENCE_RANGE * keys.size:
        return np.unique(keys, return_inverse=True)
    present = np.zeros(bound, dtype=bool)
    present[keys] = True
    position = np.cumsum(present, dtype=np.intp)
    position -= 1
    return np.flatnonzero(present).astype(keys.dtype, copy=False), position[keys]


def _fcs_block(fab, log_fab, log_fa, log_fb, log_total):
    """``fcs`` of a block of pairs, elementwise, from their joint counts
    ``fab`` (of any shape) and the logs of those counts (any value where
    ``fab`` is 0), the logs of their single counts (arrays that broadcast
    to it) and the log of the collection size."""
    num = np.maximum(log_fa, log_fb) - log_fab
    den = log_total - np.minimum(log_fa, log_fb)
    with np.errstate(divide="ignore", invalid="ignore"):
        dist = num / den
    # ngd's branches, lowest precedence first.
    dist[den <= 0.0] = math.inf
    dist[num <= 0.0] = 0.0
    dist[fab == 0] = math.inf
    # exp(-inf) is 0: only the finite distances go through math.exp.
    sims = np.zeros(dist.shape)
    live = dist < math.inf
    sims[live] = np.fromiter(map(math.exp, (-dist[live]).tolist()), dtype=np.float64)
    return sims
