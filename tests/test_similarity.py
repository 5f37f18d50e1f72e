"""Co-occurrence statistics, the normalized distance, and its similarity."""

import hashlib
import math
from contextlib import contextmanager
from functools import cached_property
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tagselect import core, similarity
from tagselect import (
    AdaptiveConfig,
    CooccurrenceStats,
    SimilarityMatrix,
    StrategySpec,
    SyntheticSpec,
    TagSelectError,
    Vocabulary,
    compare,
    fcs,
    generate_synthetic,
    ngd,
    pair_similarity,
    run_strategy,
    similarity_matrix,
    table1_strategies,
)
from tagselect.selection import refine_table


def make_stats(fa, fb, fab, n):
    return CooccurrenceStats({"a": fa, "b": fb}, {("a", "b"): fab}, n)


class TestCooccurrenceStats:
    def test_pair_keys_are_normalized(self):
        stats = CooccurrenceStats({"a": 3, "b": 2}, {("b", "a"): 1}, 10)
        assert stats.pair_count("a", "b") == 1
        assert stats.pair_count("b", "a") == 1

    def test_missing_pair_defaults_to_zero(self):
        stats = CooccurrenceStats({"a": 3, "b": 2}, {}, 10)
        assert stats.pair_count("a", "b") == 0

    def test_diagonal_defaults_to_single(self):
        stats = CooccurrenceStats({"a": 3}, {}, 10)
        assert stats.pair_count("a", "a") == 3

    def test_diagonal_must_match_single(self):
        with pytest.raises(TagSelectError):
            CooccurrenceStats({"a": 3}, {("a", "a"): 2}, 10)

    def test_pair_cannot_exceed_single(self):
        with pytest.raises(TagSelectError):
            make_stats(3, 2, 5, 10)

    def test_single_cannot_exceed_total(self):
        with pytest.raises(TagSelectError):
            CooccurrenceStats({"a": 11}, {}, 10)

    def test_pair_referencing_unknown_tag(self):
        with pytest.raises(TagSelectError):
            CooccurrenceStats({"a": 1}, {("a", "zzz"): 1}, 10)

    def test_duplicate_pair_after_normalization(self):
        with pytest.raises(TagSelectError):
            CooccurrenceStats({"a": 3, "b": 3}, {("a", "b"): 1, ("b", "a"): 1}, 10)

    def test_total_above_int64_rejected(self):
        with pytest.raises(TagSelectError) as exc:
            CooccurrenceStats({"a": 1}, {}, 2**63)
        assert str(exc.value) == "collection size 9223372036854775808 exceeds the int64 range"

    @pytest.mark.parametrize("name", ["", "a\tb", "a\nb", "a\rb"])
    def test_tag_no_tsv_line_can_hold_rejected(self, name):
        if name:
            message = f"tag {name!r} contains tab or newline characters"
        else:
            message = "tag must be a non-empty string, got ''"
        with pytest.raises(TagSelectError) as exc:
            CooccurrenceStats({name: 1, "c": 1}, {}, 2)
        assert str(exc.value) == message
        with pytest.raises(TagSelectError) as exc:
            CooccurrenceStats.from_counts([name, "x"], np.eye(2, dtype=np.int64), 2)
        assert str(exc.value) == message

    def test_counts_must_be_integers(self):
        with pytest.raises(TagSelectError):
            CooccurrenceStats({"a": 1.5}, {}, 10)
        with pytest.raises(TagSelectError):
            CooccurrenceStats({"a": 1}, {}, 0)


class TestNgd:
    def test_identical_marginals_full_overlap_is_zero(self):
        assert ngd(make_stats(50, 50, 50, 1000), "a", "b") == 0.0

    def test_disjoint_tags_are_infinitely_far(self):
        assert ngd(make_stats(50, 50, 0, 1000), "a", "b") == math.inf

    @pytest.mark.parametrize("a, b", [("a", "b"), ("b", "a")])
    def test_absent_tag_has_no_distance(self, a, b):
        with pytest.raises(TagSelectError) as exc:
            ngd(make_stats(0, 3, 0, 10), a, b)
        assert str(exc.value) == "tag 'a' has no occurrences; distance undefined"

    def test_longhand_example(self):
        # f(a)=1000, f(b)=100, f(ab)=50 in a million images:
        # num = ln 1000 - ln 50, den = ln 1e6 - ln 100.
        stats = make_stats(1000, 100, 50, 10**6)
        expected = (math.log(1000) - math.log(50)) / (math.log(10**6) - math.log(100))
        assert ngd(stats, "a", "b") == pytest.approx(expected, abs=0, rel=0)
        assert ngd(stats, "a", "b") == oracles.ngd_longhand(1000, 100, 50, 10**6)

    def test_subset_relation(self):
        # b occurs only alongside a: the numerator reduces to ln(fa/fab).
        expected = (math.log(500) - math.log(20)) / (math.log(1000) - math.log(20))
        assert ngd(make_stats(500, 20, 20, 1000), "a", "b") == expected

    def test_degenerate_denominator_is_inf(self):
        # A tag on every image: the normalizer collapses.
        stats = make_stats(1000, 1000, 500, 1000)
        assert ngd(stats, "a", "b") == math.inf

    def test_self_distance_is_zero(self):
        stats = make_stats(50, 20, 10, 1000)
        assert ngd(stats, "a", "a") == 0.0

    def test_absent_tag_rejected(self):
        stats = CooccurrenceStats({"a": 5, "b": 0}, {}, 100)
        with pytest.raises(TagSelectError):
            ngd(stats, "a", "b")

    def test_tiny_collection_rejected(self):
        with pytest.raises(TagSelectError):
            ngd(CooccurrenceStats({"a": 1, "b": 1}, {("a", "b"): 1}, 1), "a", "b")

    def test_matches_longhand_on_random_counts(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(2, 10**6))
            fa = int(rng.integers(1, n + 1))
            fb = int(rng.integers(1, n + 1))
            fab = int(rng.integers(0, min(fa, fb) + 1))
            stats = make_stats(fa, fb, fab, n)
            assert ngd(stats, "a", "b") == oracles.ngd_longhand(fa, fb, fab, n)


class TestFcs:
    def test_range_anchors(self):
        assert fcs(make_stats(50, 50, 50, 1000), "a", "b") == 1.0
        assert fcs(make_stats(50, 50, 0, 1000), "a", "b") == 0.0

    def test_is_exp_of_negated_distance(self):
        stats = make_stats(1000, 100, 50, 10**6)
        assert fcs(stats, "a", "b") == math.exp(-ngd(stats, "a", "b"))

    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_bounds_symmetry_and_self_similarity(self, data):
        n = data.draw(st.integers(min_value=2, max_value=10**6))
        fa = data.draw(st.integers(min_value=1, max_value=n))
        fb = data.draw(st.integers(min_value=1, max_value=n))
        fab = data.draw(st.integers(min_value=0, max_value=min(fa, fb)))
        stats = make_stats(fa, fb, fab, n)
        v = fcs(stats, "a", "b")
        assert 0.0 <= v <= 1.0
        assert v == fcs(stats, "b", "a")
        assert fcs(stats, "a", "a") == 1.0

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_monotone_in_pair_count(self, data):
        n = data.draw(st.integers(min_value=3, max_value=10**4))
        fa = data.draw(st.integers(min_value=2, max_value=n - 1))
        fb = data.draw(st.integers(min_value=2, max_value=n - 1))
        cap = min(fa, fb)
        fab = data.draw(st.integers(min_value=0, max_value=cap - 1))
        lo = fcs(make_stats(fa, fb, fab, n), "a", "b")
        hi = fcs(make_stats(fa, fb, fab + 1, n), "a", "b")
        assert hi >= lo


class TestPairSimilarity:
    def test_absent_tags_score_zero(self):
        stats = CooccurrenceStats({"a": 5}, {}, 100)
        assert pair_similarity(stats, "a", "ghost") == 0.0
        assert pair_similarity(stats, "ghost", "a") == 0.0

    def test_self_similarity_is_one_even_when_absent(self):
        stats = CooccurrenceStats({"a": 5}, {}, 100)
        assert pair_similarity(stats, "ghost", "ghost") == 1.0

    def test_agrees_with_fcs_when_defined(self):
        stats = make_stats(1000, 100, 50, 10**6)
        assert pair_similarity(stats, "a", "b") == fcs(stats, "a", "b")


class TestSimilarityMatrix:
    def test_shape_must_match_the_tags(self):
        with pytest.raises(TagSelectError) as exc:
            SimilarityMatrix(("a", "b"), np.eye(3), ())
        assert str(exc.value) == "similarity matrix shape (3, 3) is not 2x2"

    def test_constructor_copies_the_given_matrix(self):
        values = np.eye(2)
        sim = SimilarityMatrix(["a", "b"], values, ["b"])
        assert not np.shares_memory(sim.values, values) and not sim.values.flags.writeable
        assert (sim.tags, sim.missing, sim.index("b")) == (("a", "b"), ("b",), 1)

    def test_values_are_built_once_and_not_copied(self):
        vocab = Vocabulary.from_partition(["a", "b"], ["c"])
        stats = CooccurrenceStats.from_counts(
            ("a", "b", "c"), np.array([[3, 1, 0], [1, 2, 0], [0, 0, 1]]), 10
        )
        with dense_builds() as built:
            sim = similarity_matrix(stats, vocab)
            assert built == []
            assert sim.values is sim.values
        assert len(built) == 1 and built[0] is sim.values
        assert not sim.values.flags.writeable

    def test_disjoint_tags_give_identity(self):
        vocab = Vocabulary.from_partition(["a"], ["b"])
        stats = make_stats(10, 10, 0, 100)
        sim = similarity_matrix(stats, vocab)
        assert np.array_equal(sim.values, np.eye(2))

    def test_values_match_fcs_elementwise(self):
        vocab = Vocabulary.from_partition(["a", "b"], ["c"])
        stats = CooccurrenceStats(
            {"a": 40, "b": 30, "c": 20},
            {("a", "b"): 10, ("a", "c"): 5, ("b", "c"): 2},
            500,
        )
        sim = similarity_matrix(stats, vocab)
        for x in vocab.tags:
            for y in vocab.tags:
                if x == y:
                    assert sim.value(x, y) == 1.0
                else:
                    assert sim.value(x, y) == fcs(stats, x, y)

    def test_exactly_symmetric(self):
        vocab = Vocabulary.from_partition([f"s{i}" for i in range(6)], ["n0", "n1"])
        rng = np.random.default_rng(11)
        single = {t: int(rng.integers(5, 50)) for t in vocab.tags}
        pair = {}
        tags = vocab.tags
        for i in range(len(tags)):
            for j in range(i + 1, len(tags)):
                cap = min(single[tags[i]], single[tags[j]])
                pair[(tags[i], tags[j])] = int(rng.integers(0, cap + 1))
        sim = similarity_matrix(CooccurrenceStats(single, pair, 200), vocab)
        assert np.array_equal(sim.values, sim.values.T)

    def test_missing_tags_reported_and_zeroed(self):
        vocab = Vocabulary.from_partition(["a", "b"], ["ghost"])
        stats = make_stats(10, 10, 5, 100)
        sim = similarity_matrix(stats, vocab)
        assert sim.missing == ("ghost",)
        assert sim.value("ghost", "a") == 0.0
        assert sim.value("ghost", "ghost") == 1.0

    def test_unknown_tag_lookup(self):
        vocab = Vocabulary.from_partition(["a"], ["b"])
        sim = similarity_matrix(make_stats(10, 10, 0, 100), vocab)
        with pytest.raises(TagSelectError) as exc:
            sim.value("a", "zzz")
        assert str(exc.value) == "tag 'zzz' not in similarity matrix"

    def test_one_value_does_not_build_the_matrix(self, small_bench):
        sim = similarity_matrix(small_bench.cooccurrence, small_bench.vocab)
        seen, novel = small_bench.vocab.seen_tags[0], small_bench.vocab.novel_tags[0]
        with dense_builds() as built:
            got = sim.value(novel, seen)
        assert built == [] and "values" not in vars(sim)
        assert got == sim.values[sim.index(novel), sim.index(seen)]


@contextmanager
def dense_builds():
    """Collects the dense ``values`` arrays built while the context is open,
    in order."""
    built = []
    build = SimilarityMatrix.values.func

    def spy(sim):
        built.append(build(sim))
        return built[-1]

    spied = cached_property(spy)
    spied.__set_name__(SimilarityMatrix, "values")
    with mock.patch.object(SimilarityMatrix, "values", spied):
        yield built


NAMES = ("a", "b", "c", "d", "e", "f")


@st.composite
def cooccurrence_problems(draw):
    """A vocabulary and statistics over overlapping tag sets, with counts
    drawn from a small palette so that ties and extremes are common: zero
    counts, tags on every image, and pairs equal to both singles."""
    vocab_tags = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=6, unique=True))
    n_seen = draw(st.integers(0, len(vocab_tags)))
    vocab = Vocabulary.from_partition(vocab_tags[:n_seen], vocab_tags[n_seen:])
    total = draw(st.one_of(st.just(1), st.integers(2, 12), st.integers(2, 10**6)))
    palette = [0, total] + draw(st.lists(st.integers(0, total), min_size=1, max_size=3))
    stats_tags = draw(st.lists(st.sampled_from(NAMES), max_size=6, unique=True))
    single = {t: draw(st.sampled_from(palette)) for t in stats_tags}
    pair = {}
    for pos, a in enumerate(stats_tags):
        for b in stats_tags[pos + 1:]:
            cap = min(single[a], single[b])
            key = (a, b) if draw(st.booleans()) else (b, a)
            pair[key] = draw(st.sampled_from([0, cap, draw(st.integers(0, cap))]))
    return vocab, CooccurrenceStats(single, pair, total)


def outcome(build):
    try:
        return build()
    except TagSelectError as exc:
        return str(exc)


class TestSimilarityMatrixParity:
    @settings(deadline=None, max_examples=400)
    @given(cooccurrence_problems())
    def test_bit_identical_to_pairwise_loop(self, problem):
        vocab, stats = problem
        got = outcome(lambda: similarity_matrix(stats, vocab))
        want = outcome(lambda: oracles.similarity_matrix_oracle(stats, vocab))
        if isinstance(want, str):
            assert got == want
            return
        assert got.tags == want.tags
        assert got.missing == want.missing
        assert np.array_equal(got.values.view(np.int64), want.values.view(np.int64))

    @settings(deadline=None, max_examples=200)
    @given(cooccurrence_problems(), st.sampled_from([1, 2, 7, 12]))
    def test_row_blocks_keep_every_bit(self, problem, block):
        vocab, stats = problem
        want = outcome(lambda: oracles.similarity_matrix_oracle(stats, vocab))
        with mock.patch.object(core, "BLOCK_CELLS", block):
            got = outcome(lambda: similarity_matrix(stats, vocab))
            if isinstance(want, str):
                assert got == want
                return
            assert got.missing == want.missing
            assert_same_bits(got.values, want.values)

    @pytest.mark.parametrize("block", [1, 2, 7, 50])
    def test_row_blocks_of_every_height(self, small_bench, block):
        # 20 present tags and one absent, 21 in all: the rows [r0, r1) of a
        # block run against the columns from r0 on, max(1, block // (21 -
        # r0)) of them.  Blocks of 1, 2 and 7 cells take one row at a time
        # until the last few rows; blocks of 50 cells take 2, 2, 2, 3, 4, 6
        # and 2 rows.
        vocab, stats = ghost_problem(small_bench)
        with mock.patch.object(core, "BLOCK_CELLS", block):
            got = similarity_matrix(stats, vocab)
            values = got.values
        want = oracles.similarity_matrix_oracle(stats, vocab)
        assert got.missing == want.missing == ("ghost",)
        assert_same_bits(values, want.values)

    def test_every_branch_of_the_distance(self):
        # a, b: fab == fa == fb (num <= 0); c, d: on every image with
        # 0 < fab < total (den <= 0); e never co-occurs; ghost is absent.
        vocab = Vocabulary.from_partition(["a", "b", "c", "d"], ["e", "f", "ghost"])
        stats = CooccurrenceStats(
            {"a": 7, "b": 7, "c": 50, "d": 50, "e": 3, "f": 20, "out": 9},
            {("a", "b"): 7, ("c", "d"): 20, ("a", "f"): 4, ("c", "f"): 20, ("f", "out"): 2},
            50,
        )
        got = similarity_matrix(stats, vocab)
        want = oracles.similarity_matrix_oracle(stats, vocab)
        assert np.array_equal(got.values.view(np.int64), want.values.view(np.int64))
        assert got.missing == ("ghost",)
        assert got.value("a", "b") == 1.0
        assert got.value("c", "d") == 0.0
        assert got.value("a", "e") == 0.0
        assert 0.0 < got.value("a", "f") < 1.0

    def test_counts_whose_numpy_log_differs_from_libm(self):
        # np.log(9170), np.log(19143), np.log(94869) and np.log(102327) are
        # one ulp off math.log on numpy 2.4.6; the values must still be
        # libm's.
        vocab = Vocabulary.from_partition(["a", "b"], ["c", "d"])
        stats = CooccurrenceStats(
            {"a": 9170, "b": 19143, "c": 94869, "d": 102327},
            {("a", "b"): 9170, ("b", "c"): 19143, ("c", "d"): 94869, ("a", "d"): 5000},
            136085,
        )
        got = similarity_matrix(stats, vocab)
        want = oracles.similarity_matrix_oracle(stats, vocab)
        assert np.array_equal(got.values.view(np.int64), want.values.view(np.int64))

    def test_tiny_collection_rejected_like_the_loop(self):
        vocab = Vocabulary.from_partition(["a", "b"], [])
        stats = CooccurrenceStats({"a": 1, "b": 1}, {}, 1)
        with pytest.raises(TagSelectError, match="at least two images"):
            similarity_matrix(stats, vocab)
        # With a single present tag there is no pair to compute.
        one = CooccurrenceStats({"a": 1, "b": 0}, {}, 1)
        assert similarity_matrix(one, vocab).missing == ("b",)


def ghost_problem(bench):
    """The bench's statistics over its vocabulary plus one absent novel
    tag, ``ghost``."""
    vocab = Vocabulary.from_partition(bench.vocab.seen_tags, (*bench.vocab.novel_tags, "ghost"))
    return vocab, bench.cooccurrence


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestBlock:
    """``_block(rows, cols)`` is ``values[np.ix_(rows, cols)]`` bit for bit,
    computed without ``values``."""

    @settings(deadline=None, max_examples=300)
    @given(cooccurrence_problems(), st.data())
    def test_equals_the_cells_of_values(self, problem, data):
        vocab, stats = problem
        want = outcome(lambda: oracles.similarity_matrix_oracle(stats, vocab))
        if isinstance(want, str):
            assert outcome(lambda: similarity_matrix(stats, vocab)) == want
            return
        # Unsorted, repeated and overlapping indices, absent tags included.
        index = st.integers(0, len(vocab.tags) - 1)
        rows = data.draw(st.lists(index, max_size=8))
        cols = data.draw(st.lists(index, max_size=8))
        # 1 to 4 rows per block when every column tag is present.
        rows_per_block = data.draw(st.integers(1, 4))
        with mock.patch.object(core, "BLOCK_CELLS", rows_per_block * max(1, len(cols))):
            sim = similarity_matrix(stats, vocab)
            got = sim._block(rows, cols)
        assert "values" not in vars(sim)
        cells = np.ix_(rows, cols)
        assert_same_bits(got, want.values[cells])
        assert_same_bits(got, similarity_matrix(stats, vocab).values[cells])

    @pytest.mark.parametrize("block", [1, 2, 7, 32, core.BLOCK_CELLS])
    def test_rows_and_cols_in_any_order(self, small_bench, block):
        vocab, stats = ghost_problem(small_bench)
        ghost = len(vocab.tags) - 1
        assert vocab.tags[ghost] == "ghost"
        # Both unsorted, with repeats; 3, 7 and the absent tag on both sides.
        rows = [3, 0, ghost, 3, 19, 7, 1]
        cols = [ghost, 7, 3, 3, 0, 5, 19, 2]
        with mock.patch.object(core, "BLOCK_CELLS", block):
            got = similarity_matrix(stats, vocab)._block(rows, cols)
        want = oracles.similarity_matrix_oracle(stats, vocab).values[np.ix_(rows, cols)]
        assert_same_bits(got, want)
        assert (got[2, 0], got[0, 2], got[0, 3], got[5, 1]) == (1.0, 1.0, 1.0, 1.0)
        assert not got[2, 1:].any() and not got[[0, 1, 3, 4, 5, 6], 0].any()

    def test_slices_a_given_matrix(self):
        values = np.array([[1.0, 0.25, 0.5], [0.25, 1.0, 0.0], [0.5, 0.0, 1.0]])
        sim = SimilarityMatrix(("a", "b", "c"), values, ())
        assert_same_bits(sim._block([2, 0], [0, 0, 1]), values[np.ix_([2, 0], [0, 0, 1])])

    def test_the_last_block_is_kept(self, small_bench):
        sim = similarity_matrix(small_bench.cooccurrence, small_bench.vocab)
        with mock.patch.object(
            SimilarityMatrix, "_compute", autospec=True, side_effect=SimilarityMatrix._compute
        ) as compute:
            first = sim._block([0, 1], [2, 3, 4])
            assert sim._block([0, 1], [2, 3, 4]) is first
            assert compute.call_count == 1
            # The same cells split the other way are another block.
            assert_same_bits(sim._block([0, 1, 2], [3, 4])[:2, :], first[:, 1:])
            assert compute.call_count == 2
        assert not first.flags.writeable


class TestDedup:
    """``_compute`` evaluates ``_fcs_block`` once per distinct (single,
    single, joint) count triple of a row block; ``_dedup`` finds them
    through a presence table when the keys span a small range, else
    through ``np.unique``."""

    @settings(deadline=None, max_examples=300)
    @given(cooccurrence_problems(), st.data(), st.sampled_from([0, similarity._PRESENCE_RANGE]))
    def test_cells_equal_fcs_block_and_fcs(self, problem, data, presence_range):
        # Zero joint counts, equal tags, tags without counts and, in blocks of
        # a few cells, counts up to 10**6 that take np.unique; a presence
        # range of 0 sends every dedup through np.unique.
        vocab, stats = problem
        sim = outcome(lambda: similarity_matrix(stats, vocab))
        if isinstance(sim, str):
            return
        tags = vocab.tags
        index = st.integers(0, len(tags) - 1)
        rows = data.draw(st.lists(index, max_size=8))
        cols = data.draw(st.lists(index, max_size=8))
        rows_per_block = data.draw(st.integers(1, 4))
        with mock.patch.object(core, "BLOCK_CELLS", rows_per_block * max(1, len(cols))), \
                mock.patch.object(similarity, "_PRESENCE_RANGE", presence_range):
            got = sim._block(rows, cols)
        for i, r in enumerate(rows):
            for j, c in enumerate(cols):
                assert repr(float(got[i, j])) == repr(pair_similarity(stats, tags[r], tags[c]))
        # The kernel on every cell at once, with no dedup.
        f = np.array([stats.single_count(t) for t in tags], dtype=np.int64)
        log_f = np.array([math.log(c) if c else 0.0 for c in f.tolist()])
        fab = np.array([[stats.pair_count(tags[r], tags[c]) for c in cols] for r in rows],
                       dtype=np.int64).reshape(len(rows), len(cols))
        live = (f[rows, None] > 0) & (f[cols] > 0) & (np.array(rows)[:, None] != cols)
        if live.any():
            log_fab = np.array([math.log(c) if c else 0.0 for c in fab.ravel().tolist()])
            direct = similarity._fcs_block(
                fab, log_fab.reshape(fab.shape), log_f[rows, None], log_f[cols],
                math.log(stats.total)
            )
            assert_same_bits(got[live], direct[live])

    @staticmethod
    def check_dedup(keys):
        got = similarity._dedup(keys)
        want = np.unique(keys, return_inverse=True)
        assert len(got) == 2
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)

    @settings(max_examples=300)
    @given(st.one_of(
        st.lists(st.integers(0, 40), max_size=40), st.lists(st.integers(0, 2**62), max_size=40)
    ))
    def test_dedup_equals_unique(self, keys):
        self.check_dedup(np.array(keys, dtype=np.int64))

    def test_dedup_paths(self):
        # 10 keys below 40: a presence table, no sort.
        small = np.array([7, 3, 39, 3, 0, 7, 7, 12, 0, 38], dtype=np.int64)
        with mock.patch.object(np, "unique", side_effect=AssertionError("sorted")):
            got = similarity._dedup(small)
        assert got[0].tolist() == [0, 3, 7, 12, 38, 39]
        assert got[1].tolist() == [2, 1, 5, 1, 0, 2, 2, 3, 0, 4]
        self.check_dedup(small)
        # Counts of order 10**11: np.unique.
        large = small * 10**10
        with mock.patch.object(np, "unique", wraps=np.unique) as unique:
            similarity._dedup(large)
        assert unique.call_count == 1
        self.check_dedup(large)
        self.check_dedup(np.zeros(0, dtype=np.int64))

    def test_wide_matrix_keeps_its_bits(self):
        # The wide benchmark's 1,000-tag matrix, pinned as the sha256 of its
        # bytes.
        bench = generate_synthetic(SyntheticSpec(
            n_images=400, n_train=1000, n_seen=500, n_novel=500, count_min=1, count_max=60
        ), 1)
        values = similarity_matrix(bench.cooccurrence, bench.vocab).values
        assert hashlib.sha256(values.tobytes()).hexdigest() == (
            "33f708725bf16151b91d526975b953307e8805443636c7e037b13fa920bd46f1"
        )


class TestLazyMatrix:
    """Refinement computes only the novel x learned-pool block, never the
    dense matrix."""

    def test_refined_strategies_never_build_values(self, small_bench, small_model):
        b = small_bench
        sim = similarity_matrix(b.cooccurrence, b.vocab)
        with dense_builds() as built:
            run_strategy(StrategySpec("adaptive", refine=True), b.eval_table, b.vocab,
                         small_model, sim)
            run_strategy(StrategySpec("adaptive", refine=True), b.eval_table, b.vocab,
                         small_model, sim, AdaptiveConfig(refine=True, report_refined=True))
            for refined_rankings in (False, True):
                compare(table1_strategies(refine=True), b.eval_table, b.eval_truth, b.vocab,
                        small_model, sim, refined_rankings=refined_rankings)
        assert built == [] and "values" not in vars(sim)

    def test_refinement_computes_its_block_once(self, small_bench, small_model):
        b = small_bench
        spec = StrategySpec("adaptive", refine=True)
        want = run_strategy(spec, b.eval_table, b.vocab, small_model,
                            similarity_matrix(b.cooccurrence, b.vocab))
        sim = similarity_matrix(b.cooccurrence, b.vocab)
        with mock.patch.object(
            SimilarityMatrix, "_compute", autospec=True, side_effect=SimilarityMatrix._compute
        ) as compute:
            first = refine_table(b.eval_table, b.vocab, small_model, sim, 0.5)
            again = refine_table(b.eval_table, b.vocab, small_model, sim, 0.5)
            got = run_strategy(spec, b.eval_table, b.vocab, small_model, sim)
        assert compute.call_count == 1
        assert np.array_equal(first.scores, again.scores)
        assert [repr(got.row(x)) for x in got.images] == [repr(want.row(x)) for x in want.images]

    def test_value_keeps_the_refinement_block(self, small_bench, small_model):
        # A value() call between two refinements computes its one cell and
        # leaves the kept block alone, so the block is computed once.
        b = small_bench
        sim = similarity_matrix(b.cooccurrence, b.vocab)
        novel, seen = b.vocab.novel_tags[0], b.vocab.seen_tags[0]
        want = similarity_matrix(b.cooccurrence, b.vocab).values[sim.index(novel),
                                                                   sim.index(seen)]
        with mock.patch.object(
            SimilarityMatrix, "_compute", autospec=True, side_effect=SimilarityMatrix._compute
        ) as compute:
            first = refine_table(b.eval_table, b.vocab, small_model, sim, 0.5)
            got = sim.value(novel, seen)
            again = refine_table(b.eval_table, b.vocab, small_model, sim, 0.5)
        shapes = [(len(rows), len(cols)) for (_, rows, cols), _ in compute.call_args_list]
        assert shapes == [(len(b.vocab.novel_tags), len(small_model.tau)), (1, 1)]
        assert repr(got) == repr(float(want))
        assert np.array_equal(first.scores, again.scores)
        assert "values" not in vars(sim)


def count_matrix(stats, order):
    """The count matrix of ``stats`` with rows and columns in ``order``."""
    counts = [[stats.pair_count(a, b) for b in order] for a in order]
    return np.array(counts, dtype=np.int64).reshape(len(order), len(order))


class TestFromCounts:
    @settings(deadline=None, max_examples=200)
    @given(cooccurrence_problems(), st.randoms(use_true_random=False))
    def test_same_views_as_the_mapping_constructor(self, problem, rnd):
        _, stats = problem
        order = list(stats.tags)
        rnd.shuffle(order)
        built = CooccurrenceStats.from_counts(order, count_matrix(stats, order), stats.total)
        assert built.tags == stats.tags == tuple(sorted(stats.tags))
        assert np.array_equal(built.counts, stats.counts)
        assert built.counts.dtype == np.int64 and not built.counts.flags.writeable
        assert built.total == stats.total
        assert built.single == stats.single
        assert built.pair == stats.pair
        assert list(built.pair) == sorted(built.pair)
        assert all(a < b and c > 0 for (a, b), c in built.pair.items())
        for a in (*order, "ghost"):
            assert built.has_tag(a) == stats.has_tag(a)
            assert built.single_count(a) == stats.single_count(a)
            for b in (*order, "ghost"):
                assert built.pair_count(a, b) == stats.pair_count(a, b)

    @pytest.mark.parametrize(
        "single, pair, total",
        [
            ({"a": 11, "b": 2}, {}, 10),
            ({"a": -1, "b": 2}, {}, 10),
            ({"a": 3, "b": 2}, {("a", "b"): 3}, 10),
            ({"a": 3, "b": 2}, {("a", "b"): -1}, 10),
            ({"a": 3, "b": 2}, {}, 0),
        ],
    )
    def test_rejects_what_the_mapping_constructor_rejects(self, single, pair, total):
        with pytest.raises(TagSelectError) as mapped:
            CooccurrenceStats(single, pair, total)
        counts = np.diag(list(single.values()))
        for (a, b), c in pair.items():
            counts[0, 1] = counts[1, 0] = c
        with pytest.raises(TagSelectError) as matrix:
            CooccurrenceStats.from_counts(list(single), counts, total)
        assert str(matrix.value) == str(mapped.value)

    @pytest.mark.parametrize(
        "tags, counts, message",
        [
            (["a", "b"], [[3, 1], [0, 2]], "not symmetric"),
            (["a", "b"], [[3.0, 1.0], [1.0, 2.0]], "integers"),
            (["a", "b"], [[3]], "shape"),
            (["a", "a"], [[3, 1], [1, 2]], "duplicates"),
        ],
    )
    def test_rejects_malformed_matrices(self, tags, counts, message):
        with pytest.raises(TagSelectError, match=message):
            CooccurrenceStats.from_counts(tags, np.array(counts), 10)

    def test_taking_checks_the_tags_and_the_total(self):
        # The generator's constructor: the count rules are its builder's,
        # but the tags and the total are checked as from_counts checks them.
        counts = np.array([[3, 1], [1, 2]], dtype=np.int64)
        for tags, total in [(("a", "a"), 10), (("a", "b\t"), 10), (("a", "b"), 0),
                            (("a", "b"), 2**63), (("a", "b"), 1.5)]:
            with pytest.raises(TagSelectError) as taking:
                CooccurrenceStats._taking(tags, counts.copy(), total)
            with pytest.raises(TagSelectError) as checked:
                CooccurrenceStats.from_counts(tags, counts.copy(), total)
            assert str(taking.value) == str(checked.value)
        stats = CooccurrenceStats._taking(["a", "b"], counts, 10)
        assert stats.counts is counts and not counts.flags.writeable
        assert stats.tags == ("a", "b")
        assert stats.pair == {("a", "b"): 1} and stats.single == {"a": 3, "b": 2}

    def test_views_are_read_only(self):
        stats = CooccurrenceStats({"a": 3, "b": 2}, {("b", "a"): 1, ("a", "a"): 3}, 10)
        assert stats.pair == {("a", "b"): 1}
        with pytest.raises(TypeError):
            stats.single["a"] = 4
        with pytest.raises(ValueError):
            stats.counts[0, 0] = 4
