"""Seeded synthetic benchmark: a vocabulary split into seen and novel
halves, a labeled training collection, a fully labeled evaluation
collection, and co-occurrence counts consistent with the labels.

The adaptive method assumes that an image's relevant tags appear at the
same rate inside the seen and the novel subsets.  The generator makes that
hypothesis true by construction: it draws a target count per image, gives
the seen side its proportional share (rounded half up), and derives the
novel share with exactly the count-extrapolation rule the selector uses.
A perfect scorer is therefore perfectly recoverable: with zero noise the
adaptive strategy selects precisely the relevant tags of every image.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields

import numpy as np

from .core import GroundTruth, ScoreTable, Vocabulary, _row_blocks, _rows_per_block, _sorted_rank
from .errors import TagSelectError
from .selection import _round_half_up, k_novel
from .similarity import CooccurrenceStats


@dataclass(frozen=True)
class SyntheticSpec:
    """Generator parameters.

    ``n_images`` sizes the evaluation collection and ``n_train`` the
    training slice labeled over seen tags only.  Each image's relevant
    count is driven by a uniform integer draw on [count_min, count_max];
    scores are 1 for relevant plus centered Gaussian noise.
    """

    n_images: int = 2000
    n_train: int = 1000
    n_seen: int = 107
    n_novel: int = 100
    count_min: int = 1
    count_max: int = 20
    noise_std: float = 0.3

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, int) and not isinstance(value, numbers.Integral):
                raise TagSelectError(f"{f.name} must be an integer, got {value!r}")
        if self.n_images < 1 or self.n_train < 1:
            raise TagSelectError("collection sizes must be positive")
        if self.n_seen < 1 or self.n_novel < 0:
            raise TagSelectError("need at least one seen tag and non-negative novel count")
        if not 1 <= self.count_min <= self.count_max:
            raise TagSelectError("need 1 <= count_min <= count_max")
        if self.count_max > self.n_seen + self.n_novel:
            raise TagSelectError("count_max cannot exceed the vocabulary size")
        noise = self.noise_std
        if not (isinstance(noise, numbers.Real) and np.isfinite(noise) and noise >= 0):
            raise TagSelectError("noise_std must be finite and non-negative")


@dataclass(frozen=True, eq=False)
class SyntheticBenchmark:
    vocab: Vocabulary
    train_table: ScoreTable
    train_truth: GroundTruth
    eval_table: ScoreTable
    eval_truth: GroundTruth
    cooccurrence: CooccurrenceStats


def _relevance_block(rng: np.random.Generator, spec: SyntheticSpec, n: int) -> np.ndarray:
    n_tags = spec.n_seen + spec.n_novel
    rel = np.zeros((n, n_tags), dtype=bool)
    counts = rng.integers(spec.count_min, spec.count_max + 1, size=n)
    for i in range(n):
        c_seen = min(_round_half_up(int(counts[i]) * spec.n_seen, n_tags), spec.n_seen)
        c_novel = k_novel(spec.n_seen, spec.n_novel, c_seen)
        rel[i, rng.choice(spec.n_seen, size=c_seen, replace=False)] = True
        if c_novel:
            picks = rng.choice(spec.n_novel, size=c_novel, replace=False)
            rel[i, spec.n_seen + picks] = True
    return rel


def _scores(rng: np.random.Generator, spec: SyntheticSpec, rel: np.ndarray) -> np.ndarray:
    scores = rng.normal(0.0, spec.noise_std, size=rel.shape)
    scores += rel
    return scores


def _cooccurrence(rels: tuple[np.ndarray, ...], rank: np.ndarray) -> np.ndarray:
    """The int64 tag x tag count matrix of the boolean label rows ``rels``,
    with column c of each at place ``rank[c]``: how many rows carry each tag
    and each pair of tags.  Each label of a row is paired with every label
    of its row, itself included, and each pair adds one to its cell: exact
    integer counting.  The rows are read a block at a time, and their pairs
    tallied ``_rows_per_block(8)`` at a time, an eighth of a block's cells,
    or one label's pairs where its row holds more tags than that."""
    n_tags = len(rank)
    joint = np.zeros((n_tags, n_tags), dtype=np.int64)
    cells = joint.reshape(-1)
    most = _rows_per_block(8)
    for rel in rels:
        for block in _row_blocks(rel.shape[0], n_tags):
            rows, cols = np.nonzero(rel[block])
            labels = rank[cols]
            length = np.bincount(rows)
            # Label e has ``width[e]`` pairs: pairs end[e] - width[e] up to
            # end[e] pair it with its row's labels, which start at first.
            first = np.cumsum(length) - length
            width = length[rows]
            end = np.cumsum(width)
            e0 = 0
            while e0 < len(labels):
                start = int(end[e0] - width[e0])
                e1 = max(e0 + 1, int(np.searchsorted(end, start + most, "right")))
                w = width[e0:e1]
                partner = np.arange(start, int(end[e1 - 1]))
                partner -= np.repeat(end[e0:e1] - w - first[rows[e0:e1]], w)
                code = labels[partner]
                code += np.repeat(labels[e0:e1] * n_tags, w)
                np.add.at(cells, code, 1)
                e0 = e1
    return joint


def generate_synthetic(spec: SyntheticSpec, seed: int) -> SyntheticBenchmark:
    """Deterministic benchmark for a fixed (spec, seed) pair.

    The training truth covers seen tags only; the evaluation truth covers
    the full vocabulary.  Co-occurrence counts are tallied from the label
    co-assignments of all generated images, so pair counts can never exceed
    their marginals.
    """
    rng = np.random.default_rng(seed)
    seen = tuple(f"seen_{i:03d}" for i in range(spec.n_seen))
    novel = tuple(f"novel_{i:03d}" for i in range(spec.n_novel))
    vocab = Vocabulary.from_partition(seen, novel)

    train_images = tuple(f"train_{i:05d}" for i in range(spec.n_train))
    eval_images = tuple(f"img_{i:05d}" for i in range(spec.n_images))

    # Each table takes over its fresh score matrix rather than copying it.
    rel_train = _relevance_block(rng, spec, spec.n_train)
    train_table = ScoreTable._taking(train_images, vocab.tags, _scores(rng, spec, rel_train))
    rel_eval = _relevance_block(rng, spec, spec.n_images)
    eval_table = ScoreTable._taking(eval_images, vocab.tags, _scores(rng, spec, rel_eval))
    train_truth = GroundTruth(
        train_images, seen, rel_train[:, : spec.n_seen].view(np.int8)
    )
    eval_truth = GroundTruth(eval_images, vocab.tags, rel_eval.view(np.int8))

    # The counts are tallied in sorted tag order, which the statistics
    # keep; by construction they are symmetric and within their marginals.
    joint = _cooccurrence((rel_train, rel_eval), _sorted_rank(vocab.tags))
    stats = CooccurrenceStats._taking(
        tuple(sorted(vocab.tags)), joint, spec.n_train + spec.n_images
    )
    return SyntheticBenchmark(vocab, train_table, train_truth, eval_table, eval_truth, stats)
