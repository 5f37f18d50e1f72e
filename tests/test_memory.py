"""Peak memory of the loaders, of evaluation's prepared part, of selection
and refinement, and of the kernels whose work grows with the square of the
vocabulary, traced by ``tracemalloc``: each call's peak over what it
started with must stay within a few times the bytes of what it returns or
reads, independent of file length and of the number of tag pairs.  A
loader that holds a long run of lines as bytes, text and split strings at
once, a prepared evaluation that copies the whole ranking as intp, a
similarity or co-occurrence build that holds a transient per tag pair, a
ranking that copies the whole score matrix, a threshold learning that
gathers every seen column at once, or a selection, refinement or scoring
that builds its masks, ratios, blend or padded predictions over the whole
table fails these bounds."""

import tracemalloc

import numpy as np
import pytest

from tagselect import (
    CooccurrenceStats,
    ScoreTable,
    StrategySpec,
    SyntheticSpec,
    ThresholdModel,
    compare,
    evaluate,
    formats,
    generate_synthetic,
    learn_all_thresholds,
    rank_columns,
    rank_tags,
    run_strategy,
    similarity_matrix,
    table1_strategies,
)
from tagselect.metrics import _prepare
from tagselect.selection import refine_table, select_rows
from tagselect.thresholds import _tag_stats, tag_stats

# The README walkthrough's eval vocabulary with a fifth of its images:
# 82,800 score lines and as many truth lines, many blocks of the codec.
SPEC = SyntheticSpec(n_images=400, n_train=1)
# Top-100 picks give a selections file of 40,000 lines.
TOP_K = 100


def traced_peak(fn):
    """``fn()`` and its peak of traced memory above what was traced at the
    call, in bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def nbytes(*arrays) -> int:
    return sum(a.nbytes for a in arrays)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("memory")
    bench = generate_synthetic(SPEC, seed=3)
    paths = {name: root / f"{name}.tsv" for name in ("scores", "truth", "selections")}
    formats.save_scores(bench.eval_table, paths["scores"])
    formats.save_truth(bench.eval_truth, paths["truth"])
    formats.save_selections(select_rows(bench.eval_table, fallback_k=TOP_K), paths["selections"])
    return bench, paths


def test_load_scores(files):
    bench, paths = files
    table, peak = traced_peak(lambda: formats.load_scores(paths["scores"], bench.vocab))
    assert table.scores.shape == (400, 207)
    # The loader sizes its matrix by the rows the file's length allows,
    # about 2.9x the rows here; tracemalloc counts those pages, which stay
    # untouched and outside the resident set, so the peak is about 6.1x.
    assert peak < 8 * nbytes(table.scores), peak


def test_load_truth(files):
    bench, paths = files
    truth, peak = traced_peak(lambda: formats.load_truth(paths["truth"], bench.vocab))
    assert truth.labels.shape == (400, 207)
    assert peak < 30 * nbytes(truth.labels), peak


def test_load_selections(files):
    _, paths = files
    result, peak = traced_peak(lambda: formats.load_selections(paths["selections"]))
    assert len(result.columns) == 400 * TOP_K
    size = nbytes(result.offsets, result.columns, result.scores, result.provenance)
    assert peak < 9 * size, peak


def test_restrict(files):
    table = files[0].eval_table
    tags = table.tags[::-1]
    restricted, peak = traced_peak(lambda: table.restrict(tags))
    assert np.array_equal(restricted.scores, table.scores[:, ::-1])
    # The selected columns once: a second copy would be 2x.
    assert peak < 1.5 * nbytes(restricted.scores), peak


@pytest.mark.parametrize("require_full_coverage", [True, False])
def test_prepare(files, require_full_coverage):
    bench = files[0]
    table, truth = bench.eval_table, bench.eval_truth
    rankings = rank_columns(table)
    prepared, peak = traced_peak(
        lambda: _prepare(truth, table.images, rankings, require_full_coverage)
    )
    size = nbytes(prepared.labels, prepared.relevant)
    assert peak < 11 * size, peak


# A 1,000-tag vocabulary: 499,500 tag pairs, an 8 MB similarity matrix.
WIDE = SyntheticSpec(n_images=400, n_train=1, n_seen=500, n_novel=500, count_max=60)


@pytest.fixture(scope="module")
def wide():
    return generate_synthetic(WIDE, seed=1)


# The wide_compare workload's spec: 1,000 training images of 1,000 tags.
WIDE_SPEC = SyntheticSpec(n_images=400, n_train=1000, n_seen=500, n_novel=500, count_max=60)


# The co-occurrence counts are tallied in sorted tag order, a block of pairs
# at a time, into the matrix the statistics keep: about 1.16x and 1.29x
# here.  A float product per row block and a sorted copy with its checks
# take 2.10x and 1.38x.
@pytest.mark.parametrize("spec, bound", [(WIDE, 1.4), (SyntheticSpec(), 1.35)],
                         ids=["wide", "default"])
def test_generate_synthetic(spec, bound):
    bench, peak = traced_peak(lambda: generate_synthetic(spec, seed=1))
    size = nbytes(bench.train_table.scores, bench.train_truth.labels, bench.eval_table.scores,
                  bench.eval_truth.labels, bench.cooccurrence.counts)
    assert peak < bound * size, peak


def test_learn_all_thresholds():
    bench = generate_synthetic(WIDE_SPEC, seed=1)
    table = bench.train_table
    model, peak = traced_peak(lambda: learn_all_thresholds(table, bench.train_truth, bench.vocab))
    assert len(model.tau) == 500
    # The statistics and one block of tags' cuts: about 0.43x the training
    # scores.  The seen columns gathered twice and cut at once take 2.76x.
    assert peak < 0.6 * nbytes(table.scores), peak


def test_similarity_matrix(wide):
    # The dense build, which similarity_matrix itself leaves to the first
    # read of values.
    values, peak = traced_peak(lambda: similarity_matrix(wide.cooccurrence, wide.vocab).values)
    assert values.shape == (1000, 1000)
    # The matrix plus one block of rows' transients (about 1.3x here).
    assert peak < 1.7 * nbytes(values), peak


def test_refine_table(wide):
    # 500 novel x 500 pool cells of similarity, 2 MB; the dense matrix
    # would add 8 MB.
    model = ThresholdModel(dict.fromkeys(wide.vocab.seen_tags, 0.5), tag_stats(wide.eval_table))
    sim = similarity_matrix(wide.cooccurrence, wide.vocab)
    refined, peak = traced_peak(
        lambda: refine_table(wide.eval_table, wide.vocab, model, sim, 0.5)
    )
    # The similarity block and its transpose, the copied scores and one
    # row block's transients: about 2.9x here.  Masks, ratios and blend
    # over the whole table take 4.28x.
    assert peak < 3.5 * nbytes(refined.scores), peak


def test_mu_sigma(wide):
    # Every column is in the pool.  Statistics, mask, picks and merge are
    # built a block of rows at a time: about 0.60x here.  Whole-table
    # statistics and picks take 1.32x, and a full-height copy of the scores
    # 1.44x.
    result, peak = traced_peak(
        lambda: run_strategy(StrategySpec("mu_sigma"), wide.eval_table, wide.vocab)
    )
    assert peak < 0.8 * nbytes(wide.eval_table.scores), peak


# The README walkthrough's sizes, 2,000 images x 207 tags: a row block is
# 316 images, so the table holds seven.
@pytest.fixture(scope="module")
def walkthrough():
    bench = generate_synthetic(SyntheticSpec(), seed=1)
    model = learn_all_thresholds(bench.train_table, bench.train_truth, bench.vocab)
    return bench, model, similarity_matrix(bench.cooccurrence, bench.vocab)


def test_refined_adaptive(walkthrough):
    bench, model, sim = walkthrough
    spec = StrategySpec("adaptive", refine=True)
    result, peak = traced_peak(
        lambda: run_strategy(spec, bench.eval_table, bench.vocab, model, sim)
    )
    # The refined novel columns, the similarity block and one row block's
    # transients: about 1.12x here.  A refined copy of the whole table takes
    # 1.64x, and refinement and selection over the whole table 3.63x.
    assert peak < 1.3 * nbytes(bench.eval_table.scores), peak


def test_prepare_by_row_blocks(walkthrough):
    bench = walkthrough[0]
    table, truth = bench.eval_table, bench.eval_truth
    rankings = rank_columns(table)
    prepared, peak = traced_peak(lambda: _prepare(truth, table.images, rankings, True))
    # The labels and relevant masks, and one row block's gathered ranking
    # and AP transients: about 0.75x here.  The whole ranking gathered at
    # once, and its AP arrays, take 1.85x.
    assert peak < 1.2 * nbytes(table.scores), peak


def test_prepare_mapping_by_row_blocks(walkthrough):
    bench = walkthrough[0]
    table, truth = bench.eval_table, bench.eval_truth
    rankings = {x: rank_tags(table, x) for x in table.images}
    prepared, peak = traced_peak(lambda: _prepare(truth, table.images, rankings, True))
    # Each row block's rankings padded as intp: about 0.93x here.  The whole
    # padded ranking takes 2.2x.
    assert peak < 1.2 * nbytes(table.scores), peak


def test_tag_stats_by_row_blocks(walkthrough):
    table = walkthrough[0].eval_table
    stats, peak = traced_peak(lambda: _tag_stats(table))
    # One block's squared deviations: about 0.18x here; np.std's
    # full-size temporary takes 1.0x.
    assert peak < 0.5 * nbytes(table.scores), peak


def test_compare(walkthrough):
    bench, model, sim = walkthrough
    table = bench.eval_table
    report, peak = traced_peak(
        lambda: compare(table1_strategies(), table, bench.eval_truth, bench.vocab, model, sim)
    )
    # About 1.00x here.  Each selection's predictions padded whole, as one
    # intp grid, take 1.12x; whole-table statistics, picks and an intp
    # ranking 1.83x.
    assert peak < 1.1 * nbytes(table.scores), peak


def test_evaluate_on_rank_columns(walkthrough):
    bench, model, _ = walkthrough
    table = bench.eval_table
    selections = run_strategy(StrategySpec("adaptive"), table, bench.vocab, model)
    report, peak = traced_peak(
        lambda: evaluate(bench.eval_truth, selections, rank_columns(table))
    )
    # A narrow order and one row block's transients: about 0.86x here; an
    # intp order takes 1.75x.
    assert peak < 1.0 * nbytes(table.scores), peak


# order_rows sorts BLOCK_CELLS cells at a time, so what rank_columns holds
# besides the order is one block's transients, not a copy of the table.  At
# 400 x 207 one block is 316 of the 400 rows, so the two cannot be told
# apart there; these tables hold 6 blocks or more.
@pytest.mark.parametrize("n_images, n_tags", [(400, 1000), (2000, 207)])
def test_rank_columns(n_images, n_tags):
    scores = np.random.default_rng(5).normal(size=(n_images, n_tags))
    table = ScoreTable(
        tuple(f"x{i}" for i in range(n_images)), tuple(f"t{j}" for j in range(n_tags)), scores
    )
    rankings, peak = traced_peak(lambda: rank_columns(table))
    # The order in its narrow dtype (uint16 and uint8 here) and one block's
    # transients: about 0.47x and 0.34x the score matrix.  An intp order
    # takes 1.22x.
    assert peak < 0.6 * nbytes(table.scores), peak


def test_from_counts(wide):
    stats = wide.cooccurrence
    # In vocabulary order, which from_counts sorts.
    index = {t: i for i, t in enumerate(stats.tags)}
    order = [index[t] for t in wide.vocab.tags]
    counts = stats.counts[np.ix_(order, order)]
    built, peak = traced_peak(
        lambda: CooccurrenceStats.from_counts(wide.vocab.tags, counts, stats.total)
    )
    assert np.array_equal(built.counts, stats.counts)
    assert peak < 1.8 * nbytes(built.counts), peak


# One block of rows at a time, whether partitioned (k = 5) or sorted whole
# (k = 126): about 0.34x and 1.26x the score matrix here.  Sorting all
# rows at once takes 2.0x and 2.26x.
@pytest.mark.parametrize("k, bound", [(5, 0.5), (126, 1.85)])
def test_top_k_fallback(wide, k, bound):
    # Every image falls back to its top k of 1,000 tags.
    result, peak = traced_peak(lambda: select_rows(wide.eval_table, fallback_k=k))
    size = nbytes(result.offsets, result.columns, result.scores, result.provenance)
    assert peak < 100 * size, peak
    assert peak < bound * nbytes(wide.eval_table.scores), peak
