"""Small random selection problems for the property tests that hold the
batched selection kernel to the per-image oracles in ``oracles``.

Scores and thresholds come from a few distinct values, so ties between
tags and scores equal to their threshold are common, and tag strings are
shuffled, so their lexical order differs from the column order.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import strategies as st

from tagselect import (
    AdaptiveConfig,
    ScoreTable,
    SimilarityMatrix,
    ThresholdModel,
    Vocabulary,
    tag_stats,
)

SCORES = (-0.5, 0.0, 0.25, 0.5, 0.75, 1.0)
THRESHOLDS = (0.25, 0.5, 0.75)
SIMILARITIES = (0.0, 0.3, 0.7, 1.0)
NAMES = tuple(f"t{c}" for c in "abcdefghi")


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


def refine_modes(cfg):
    """``cfg`` without refinement, refining, and refining with refined
    scores reported."""
    return [
        replace(cfg, refine=refine, report_refined=report)
        for refine, report in ((False, False), (True, False), (True, True))
    ]
