"""Small random threshold-learning and selection problems for the property
tests that hold the batched threshold and selection kernels to the per-tag
and per-image oracles in ``oracles``.

Scores and thresholds come from a few distinct values, so ties between
tags and scores equal to their threshold are common, and tag strings are
shuffled, so their lexical order differs from the column order.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import strategies as st

from tagselect import (
    AdaptiveConfig,
    GroundTruth,
    ScoreTable,
    SimilarityMatrix,
    ThresholdModel,
    Vocabulary,
    tag_stats,
)
from tagselect import core

SCORES = (-0.5, 0.0, 0.25, 0.5, 0.75, 1.0)
THRESHOLDS = (0.25, 0.5, 0.75)
SIMILARITIES = (0.0, 0.3, 0.7, 1.0)
NAMES = tuple(f"t{c}" for c in "abcdefghi")
# Training scores include both zeros, which compare equal but print apart.
TRAIN_SCORES = (-0.5, -0.0, 0.0, 0.25, 0.5, 1.0)
# Label columns: mixed with 30% undefined, single-class, or all undefined.
MIXED = (1, 1, 1, 0, 0, 0, 0, -1, -1, -1)
LABEL_COLUMNS = (MIXED, MIXED, MIXED, (1, -1), (0, -1), (-1,))
MOSTLY = (True, True, True, False)


@st.composite
def threshold_problems(draw):
    """(vocab, table, truth) for ``learn_all_thresholds``: up to 6 seen and 2
    novel tags and up to 12 images.  The truth judges about 3/4 of the
    images and covers about 3/4 of the seen tags, each in shuffled order and
    possibly none; each covered column is mixed, single-class or all
    undefined."""
    n_seen = draw(st.integers(1, 6))
    n_novel = draw(st.integers(0, 2))
    m = n_seen + n_novel
    names = draw(st.permutations(NAMES))[:m]
    vocab = Vocabulary.from_partition(names[:n_seen], names[n_seen:])
    n = draw(st.integers(1, 12))
    cells = draw(st.lists(st.sampled_from(TRAIN_SCORES), min_size=n * m, max_size=n * m))
    images = tuple(f"x{i}" for i in range(n))
    table = ScoreTable(images, vocab.tags, np.reshape(cells, (n, m)))
    judged = [x for x in draw(st.permutations(images)) if draw(st.sampled_from(MOSTLY))]
    coverage = [t for t in draw(st.permutations(vocab.seen_tags)) if draw(st.sampled_from(MOSTLY))]
    columns = [
        draw(st.lists(st.sampled_from(draw(st.sampled_from(LABEL_COLUMNS))),
                      min_size=len(judged), max_size=len(judged)))
        for _ in coverage
    ]
    labels = np.reshape(np.array(columns, dtype=np.int8).T, (len(judged), len(coverage)))
    return vocab, table, GroundTruth(tuple(judged), tuple(coverage), labels)


@st.composite
def selection_problems(draw):
    """(vocab, table, model, sim, cfg): up to 5 seen and 4 novel tags, up to
    6 images, and an adaptive config without refinement.  Seen tags without
    a threshold are untrainable; thresholds are positive, so refinement
    applies.  Depending on the draw, images fall back to top-k (no seen tag
    clears), get k_novel = 0 (a small |A| over a large pool) or take every
    novel tag."""
    n_seen = draw(st.integers(1, 5))
    n_novel = draw(st.integers(0, 4))
    m = n_seen + n_novel
    names = draw(st.permutations(NAMES))[:m]
    vocab = Vocabulary.from_partition(names[:n_seen], names[n_seen:])
    n = draw(st.integers(1, 6))
    cells = draw(st.lists(st.sampled_from(SCORES), min_size=n * m, max_size=n * m))
    images = tuple(f"x{i}" for i in range(n))
    table = ScoreTable(images, vocab.tags, np.reshape(cells, (n, m)))
    trainable = draw(
        st.lists(st.sampled_from([True, True, False]), min_size=n_seen, max_size=n_seen)
    )
    tau = {
        t: draw(st.sampled_from(THRESHOLDS))
        for t, keep in zip(vocab.seen_tags, trainable)
        if keep
    }
    coeffs = draw(st.sampled_from([(1.0, 0.5), (0.5, -0.25), (0.75, 1.0, -0.25)]))
    model = ThresholdModel(
        tau=tau,
        stats=tag_stats(table),
        lsq_coeffs=coeffs,
        untrainable=tuple(t for t in vocab.seen_tags if t not in tau),
    )
    pairs = draw(st.lists(st.sampled_from(SIMILARITIES), min_size=m * m, max_size=m * m))
    upper = np.triu(np.reshape(pairs, (m, m)), 1)
    sim = SimilarityMatrix(vocab.tags, upper + upper.T + np.eye(m), ())
    cfg = AdaptiveConfig(
        fallback_k=draw(st.integers(1, m)), w=draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    )
    return vocab, table, model, sim, cfg


@st.composite
def refinement_problems(draw):
    """(vocab, table, model, sim, w) with continuous values, so that the
    order of the sum over A shows in the last bits: up to 12 seen tags, all
    trainable, and up to 6 novel ones, with table columns and similarity
    rows in two further orders.  Each image's A is a drawn subset of 1 up to
    all seen tags; w is 0, 0.3 or 1."""
    n_seen = draw(st.integers(1, 12))
    n_novel = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vocab = Vocabulary.from_partition(
        [f"s{i:02d}" for i in range(n_seen)], [f"n{i}" for i in range(n_novel)]
    )
    tau = rng.uniform(0.1, 0.8, size=n_seen)
    scores = np.empty((n, n_seen + n_novel))
    for i in range(n):
        above = rng.permutation(n_seen) < draw(st.integers(1, n_seen))
        gap = rng.uniform(0.01, 0.5, size=n_seen)
        scores[i, :n_seen] = np.where(above, tau + gap, tau - gap)
    scores[:, n_seen:] = rng.uniform(-0.5, 1.0, size=(n, n_novel))
    columns = rng.permutation(n_seen + n_novel)
    table = ScoreTable(
        tuple(f"x{i}" for i in range(n)),
        tuple(vocab.tags[c] for c in columns),
        scores[:, columns],
    )
    model = ThresholdModel(tau=dict(zip(vocab.seen_tags, tau.tolist())), stats=tag_stats(table))
    values = rng.uniform(0.0, 1.0, size=(n_seen + n_novel,) * 2)
    values = (values + values.T) / 2
    np.fill_diagonal(values, 1.0)
    rows = rng.permutation(n_seen + n_novel)
    sim = SimilarityMatrix(
        tuple(vocab.tags[r] for r in rows), values[np.ix_(rows, rows)], ()
    )
    return vocab, table, model, sim, draw(st.sampled_from([0.0, 0.3, 1.0]))


def refine_modes(cfg):
    """``cfg`` without refinement, refining, and refining with refined
    scores reported."""
    return [
        replace(cfg, refine=refine, report_refined=report)
        for refine, report in ((False, False), (True, False), (True, True))
    ]


#: ``BLOCK_CELLS`` values small enough that the problems above span many
#: row blocks: one row per block up to a few rows.
SMALL_BLOCKS = st.sampled_from([1, 2, 3, 5, 8, 13, 21])


@contextmanager
def small_blocks(cells):
    """Every row-block kernel with ``cells`` cells per block: each takes its
    blocks from ``core._row_blocks`` or ``core._rows_per_block``, which read
    ``core.BLOCK_CELLS``."""
    with mock.patch.object(core, "BLOCK_CELLS", cells):
        yield
