"""Peak memory of the loaders and of evaluation's prepared part, traced by
``tracemalloc`` on a 400-image x 207-tag file set: each call's peak over
what it started with must stay within a few times the bytes of what it
returns, independent of file length.  A loader that holds a long run of
lines as bytes, text and split strings at once, or a prepared evaluation
that copies the whole ranking as intp, fails these bounds."""

import tracemalloc

import pytest

from tagselect import SyntheticSpec, formats, generate_synthetic, rank_columns
from tagselect.metrics import _prepare
from tagselect.selection import select_rows

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
