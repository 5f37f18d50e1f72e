"""Data model: vocabulary, score tables, ground truth, selections, ranking."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tagselect import core, selection
from tagselect.core import _argsort_descending, _nonzero_2d, order_rows
from tagselect.selection import _top_columns, select_rows
from tagselect import (
    FROM_FALLBACK,
    FROM_NOVEL_TOPK,
    FROM_SEEN_THRESHOLDING,
    GroundTruth,
    ScoreTable,
    SelectedTag,
    SelectionResult,
    TagSelectError,
    Vocabulary,
    rank_columns,
    rank_tags,
    validate_inputs,
)


def make_table(images, tags, scores):
    return ScoreTable(tuple(images), tuple(tags), np.array(scores, dtype=float))


class TestVocabulary:
    def test_from_partition_orders_seen_first(self):
        v = Vocabulary.from_partition(["b", "a"], ["z"])
        assert v.tags == ("b", "a", "z")
        assert v.seen_tags == ("b", "a")
        assert v.novel_tags == ("z",)

    def test_membership_and_index(self, tiny_vocab):
        assert "apple" in tiny_vocab
        assert "missing" not in tiny_vocab
        assert tiny_vocab.index("boat") == 1
        assert tiny_vocab.is_seen("cat")
        assert not tiny_vocab.is_seen("dune")
        with pytest.raises(TagSelectError):
            tiny_vocab.index("missing")

    def test_len(self, tiny_vocab):
        assert len(tiny_vocab) == 5

    def test_duplicate_tags_rejected(self):
        with pytest.raises(TagSelectError):
            Vocabulary.from_partition(["a", "a"], ["b"])
        with pytest.raises(TagSelectError):
            Vocabulary.from_partition(["a"], ["a"])

    def test_duplicate_tags_rejected_by_the_constructor(self):
        with pytest.raises(TagSelectError) as exc:
            Vocabulary(("a", "b", "a"), {"a": "seen", "b": "novel"})
        assert str(exc.value) == "vocabulary contains duplicate tags"

    def test_partition_must_cover_tags(self):
        with pytest.raises(TagSelectError):
            Vocabulary(("a", "b"), {"a": "seen"})
        with pytest.raises(TagSelectError):
            Vocabulary(("a",), {"a": "unknown"})

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(TagSelectError):
            Vocabulary((), {})

    def test_identifier_checks(self):
        with pytest.raises(TagSelectError):
            Vocabulary.from_partition(["a\tb"], [])
        with pytest.raises(TagSelectError):
            Vocabulary.from_partition([""], [])


class TestScoreTable:
    def test_basic_access(self, tiny_table):
        assert tiny_table.n_images == 3
        assert tiny_table.n_tags == 5
        assert tiny_table.score("im0", "apple") == 0.9
        assert tiny_table.row("im1").tolist() == [0.1, 0.8, 0.3, 0.6, 0.5]

    def test_scores_are_read_only(self, tiny_table):
        with pytest.raises(ValueError):
            tiny_table.scores[0, 0] = 2.0

    def test_unknown_ids(self, tiny_table):
        with pytest.raises(TagSelectError):
            tiny_table.row("nope")
        with pytest.raises(TagSelectError):
            tiny_table.score("im0", "nope")

    def test_shape_mismatch(self):
        with pytest.raises(TagSelectError):
            make_table(["i"], ["a", "b"], [[1.0]])

    def test_duplicate_ids(self):
        with pytest.raises(TagSelectError):
            make_table(["i", "i"], ["a"], [[1.0], [2.0]])
        with pytest.raises(TagSelectError):
            make_table(["i"], ["a", "a"], [[1.0, 2.0]])

    def test_taking_keeps_the_given_matrix(self):
        scores = np.array([[1.0, -0.0]])
        table = ScoreTable._taking(["i"], ["b", "a"], scores)
        assert table.scores is scores and not scores.flags.writeable
        assert (table.images, table.tags, table.score("i", "a")) == (("i",), ("b", "a"), -0.0)
        assert table._tag_rank.tolist() == [1, 0]
        # The public constructor copies.
        assert not np.shares_memory(ScoreTable(("i",), ("b", "a"), scores).scores, scores)

    def test_taking_checks_the_shape(self):
        with pytest.raises(TagSelectError) as exc:
            ScoreTable._taking(("i",), ("a", "b"), np.zeros((1, 3)))
        assert str(exc.value) == "score matrix shape (1, 3) does not match 1 images x 2 tags"

    def test_restrict_reorders_columns(self, tiny_table):
        sub = tiny_table.restrict(["cat", "apple"])
        assert sub.tags == ("cat", "apple")
        assert sub.images == tiny_table.images
        assert sub.score("im0", "cat") == 0.7
        assert sub.score("im0", "apple") == 0.9

    def test_non_finite_scores_construct_but_flag(self, tiny_vocab):
        # Construction succeeds so the damaged file can still be inspected;
        # validate_inputs names the offending cell.
        scores = np.zeros((1, 5))
        scores[0, 2] = np.nan
        table = ScoreTable(("im0",), tiny_vocab.tags, scores)
        violations = validate_inputs(tiny_vocab, table)
        assert len(violations) == 1
        assert "im0" in violations[0] and "cat" in violations[0]


class TestGroundTruth:
    def test_from_pairs_first_appearance_order(self, tiny_truth):
        assert tiny_truth.images == ("im0", "im1", "im2")
        assert tiny_truth.coverage == ("apple", "boat", "cat")

    def test_labels(self, tiny_truth):
        assert tiny_truth.label("im0", "apple") is True
        assert tiny_truth.label("im0", "boat") is False
        assert tiny_truth.label("im0", "dune") is None

    def test_relevant_and_defined_sets(self, tiny_truth):
        assert tiny_truth.relevant_set("im0") == {"apple", "cat"}

    def test_full_coverage(self, tiny_truth):
        assert tiny_truth.has_full_coverage("im0", ["apple", "boat"])
        assert not tiny_truth.has_full_coverage("im0", ["apple", "dune"])

    def test_duplicate_pair_rejected(self):
        with pytest.raises(TagSelectError):
            GroundTruth.from_pairs([("i", "a", 1), ("i", "a", 0)])

    def test_declared_coverage_restricts_tags(self):
        with pytest.raises(TagSelectError):
            GroundTruth.from_pairs([("i", "a", 1)], coverage=["b"])

    def test_partial_labels_are_undefined(self):
        truth = GroundTruth.from_pairs([("i", "a", 1), ("j", "b", 0)])
        assert truth.label("i", "b") is None
        assert truth.label("j", "a") is None

    def test_column_and_iter_pairs(self, tiny_truth):
        assert tiny_truth.column("apple").tolist() == [1, 0, 1]
        pairs = list(tiny_truth.iter_pairs())
        assert ("im0", "apple", 1) in pairs
        assert len(pairs) == 9
        with pytest.raises(TagSelectError):
            tiny_truth.column("dune")

    @pytest.mark.parametrize(
        "images, coverage, shape, message",
        [
            (("i", "i"), ("a",), (2, 1), "ground truth contains duplicate image ids"),
            (("i",), ("a", "a"), (1, 2), "ground truth coverage contains duplicate tags"),
            (("i",), ("a",), (2, 1), "label matrix shape (2, 1) does not match 1 images x 1 tags"),
        ],
    )
    def test_constructor_checks(self, images, coverage, shape, message):
        with pytest.raises(TagSelectError) as exc:
            GroundTruth(images, coverage, np.zeros(shape, dtype=np.int8))
        assert str(exc.value) == message

    def test_unknown_image_index(self, tiny_truth):
        with pytest.raises(TagSelectError) as exc:
            tiny_truth.image_index("nope")
        assert str(exc.value) == "image 'nope' not present in ground truth"

    def test_label_values_validated(self):
        with pytest.raises(TagSelectError):
            GroundTruth(("i",), ("a",), np.array([[3]], dtype=np.int8))


class TestSelectionResult:
    def test_rows_must_cover_images(self):
        with pytest.raises(TagSelectError):
            SelectionResult(("i",), {})

    def test_duplicate_selected_tag_rejected(self):
        row = (
            SelectedTag("a", 1.0, FROM_FALLBACK),
            SelectedTag("a", 0.5, FROM_FALLBACK),
        )
        with pytest.raises(TagSelectError):
            SelectionResult(("i",), {"i": row})

    def test_tag_accessors(self):
        row = (SelectedTag("b", 1.0, FROM_FALLBACK), SelectedTag("a", 0.5, FROM_FALLBACK))
        sel = SelectionResult(("i",), {"i": row})
        assert sel.tags("i") == ("b", "a")
        assert sel.tag_set("i") == {"a", "b"}
        with pytest.raises(TagSelectError):
            sel.row("j")

    def test_invalid_provenance(self):
        with pytest.raises(TagSelectError):
            SelectedTag("a", 1.0, "guesswork")

    def test_constructor_messages(self):
        row = (SelectedTag("a", 1.0, FROM_FALLBACK),)
        with pytest.raises(TagSelectError, match="contains duplicate image ids"):
            SelectionResult(("i", "i"), {"i": row})
        with pytest.raises(TagSelectError, match="must cover exactly the listed images"):
            SelectionResult(("i",), {"i": row, "j": row})
        with pytest.raises(TagSelectError, match="image 'i' has duplicate selected tags"):
            SelectionResult(("i",), {"i": row + row})

    def rows(self):
        return {
            "j": (),
            "i": (
                SelectedTag("b", 1.5, FROM_SEEN_THRESHOLDING),
                SelectedTag("a", 0.25, FROM_NOVEL_TOPK),
            ),
            "k": (SelectedTag("a", -0.0, FROM_FALLBACK),),
        }

    def test_rows_are_held_as_read_only_arrays(self):
        sel = SelectionResult(("i", "j", "k"), self.rows())
        assert sel.column_tags == ("b", "a")
        assert sel.offsets.tolist() == [0, 2, 2, 3]
        assert sel.columns.tolist() == [0, 1, 1]
        assert sel.scores.dtype == np.float64 and sel.provenance.dtype == np.int8
        assert [repr(v) for v in sel.scores.tolist()] == ["1.5", "0.25", "-0.0"]
        assert sel.provenance.tolist() == [0, 1, 2]
        for array in (sel.offsets, sel.columns, sel.scores, sel.provenance):
            assert not array.flags.writeable
        for x, row in self.rows().items():
            assert sel.row(x) == row
            assert sel.tags(x) == tuple(st.tag for st in row)
        assert repr(sel.row("k")[0].score) == "-0.0"

    def test_reindex_keeps_rows_and_adds_empty_ones(self):
        sel = SelectionResult(("i", "j", "k"), self.rows())
        moved = sel.reindex(("k", "x", "i"))
        assert moved.images == ("k", "x", "i")
        assert moved.offsets.tolist() == [0, 1, 1, 3]
        assert moved.row("x") == ()
        for x in ("k", "i"):
            assert moved.row(x) == sel.row(x)
        with pytest.raises(TagSelectError, match="image 'j' not present in selections"):
            moved.row("j")
        empty = SelectionResult((), {}).reindex(("x", "y"))
        assert empty.offsets.tolist() == [0, 0, 0] and empty.row("y") == ()


class TestValidateInputs:
    def test_consistent_inputs_are_clean(self, tiny_vocab, tiny_table, tiny_truth):
        assert validate_inputs(tiny_vocab, tiny_table, tiny_truth) == []

    def test_tag_set_mismatch_reported(self, tiny_vocab):
        table = make_table(["i"], ["apple", "boat", "cat", "dune", "extra"], [[0] * 5])
        violations = validate_inputs(tiny_vocab, table)
        assert any("'extra'" in v and "not in vocabulary" in v for v in violations)
        assert any("'echo'" in v and "missing" in v for v in violations)

    def test_column_order_mismatch_reported(self, tiny_vocab, tiny_table):
        shuffled = tiny_table.restrict(["boat", "apple", "cat", "dune", "echo"])
        violations = validate_inputs(tiny_vocab, shuffled)
        assert violations == ["score table column order differs from vocabulary order"]

    def test_truth_problems_reported(self, tiny_vocab, tiny_table):
        truth = GroundTruth.from_pairs([("ghost", "apple", 1)])
        violations = validate_inputs(tiny_vocab, tiny_table, truth)
        assert any("'ghost'" in v for v in violations)
        bad_tag = GroundTruth.from_pairs([("im0", "wurst", 1)])
        violations = validate_inputs(tiny_vocab, tiny_table, bad_tag)
        assert any("'wurst'" in v for v in violations)


class TestRankTags:
    def test_simple_ranking(self, tiny_table):
        assert rank_tags(tiny_table, "im0") == ["apple", "cat", "dune", "boat", "echo"]

    def test_ties_break_by_tag_string(self, tiny_table):
        # im2 scores are all 0.5, so the ranking is alphabetical.
        assert rank_tags(tiny_table, "im2") == ["apple", "boat", "cat", "dune", "echo"]

    def test_matches_sort_oracle_on_random_tables(self):
        rng = np.random.default_rng(42)
        tags = tuple(f"t{i:03d}" for i in range(207))
        for trial in range(10):
            # Quantized scores force plenty of ties.
            scores = rng.integers(0, 7, size=(1, 207)) / 4.0
            table = ScoreTable(("x",), tags, scores)
            expected = oracles.sorted_tags({t: table.score("x", t) for t in tags})
            assert rank_tags(table, "x") == expected

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=12))
    def test_invariant_under_monotone_transform(self, values):
        # Any strictly increasing rescale of the scores preserves the ranking.
        tags = tuple(f"g{i}" for i in range(len(values)))
        base = np.array([values], dtype=float)
        table = ScoreTable(("x",), tags, base)
        rescaled = ScoreTable(("x",), tags, base * 3.0 + 11.0)
        assert rank_tags(table, "x") == rank_tags(rescaled, "x")


class TestRankAllTags:
    # Column order deliberately not lexicographic, so the tie-break cannot
    # fall back on column order.
    TAGS = ("kiwi", "Apple", "b", "apple", "a1", "a", "zeta", "B", "a10", "a2")

    @staticmethod
    def ranked(table):
        """``rank_columns`` as tag strings, one list per image."""
        rankings = rank_columns(table)
        return [[rankings.tags[c] for c in row] for row in rankings.order.tolist()]

    def assert_batched_equals_scalar(self, table):
        """``rank_columns`` and ``rank_tags`` share ``order_rows``, so both
        are checked against the ``sorted()`` reference as well as each
        other."""
        expected = [oracles.sorted_tags(dict(zip(table.tags, row)))
                    for row in table.scores.tolist()]
        assert [rank_tags(table, x) for x in table.images] == expected
        assert self.ranked(table) == expected

    def test_all_equal_rows(self):
        n, m = 4, len(self.TAGS)
        table = make_table([f"x{i}" for i in range(n)], self.TAGS, np.full((n, m), 0.25))
        self.assert_batched_equals_scalar(table)
        assert self.ranked(table)[0] == sorted(self.TAGS)

    def test_signed_zeros_tie(self):
        rows = [
            [0.0, -0.0, 0.0, -0.0, 1.0, -1.0, -0.0, 0.0, 0.0, -0.0],
            [-0.0] * 5 + [0.0] * 5,
        ]
        table = make_table(["x0", "x1"], self.TAGS, rows)
        self.assert_batched_equals_scalar(table)
        assert self.ranked(table)[1] == sorted(self.TAGS)

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_matches_rank_tags_on_tied_tables(self, data):
        m = data.draw(st.integers(1, len(self.TAGS)))
        tags = data.draw(st.permutations(self.TAGS))[:m]
        n = data.draw(st.integers(0, 6))
        values = st.sampled_from((0.0, -0.0, 0.5, -0.5, 1.0, 1e-300))
        rows = data.draw(st.lists(
            st.lists(values, min_size=m, max_size=m), min_size=n, max_size=n
        ))
        table = ScoreTable(tuple(f"x{i}" for i in range(n)), tuple(tags),
                           np.array(rows, dtype=float).reshape(n, m))
        self.assert_batched_equals_scalar(table)

    def test_matches_rank_tags_on_random_tables(self):
        rng = np.random.default_rng(43)
        tags = tuple(f"t{i:03d}" for i in rng.permutation(207))
        scores = rng.integers(0, 7, size=(50, 207)) / 4.0
        self.assert_batched_equals_scalar(make_table([f"x{i}" for i in range(50)], tags, scores))


def lexsort_rows(scores, tag_rank):
    """The reference order: one 2-D lexsort by descending score, ties by
    ascending tag rank."""
    return np.lexsort((np.broadcast_to(tag_rank, scores.shape), -scores), axis=-1)


# Values that tie (0.0 and -0.0 compare equal), sort last (NaN) or sit at
# the ends (the infinities).
SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan, 0.5, -0.5)


@st.composite
def mixed_rows(draw, n, m, special=SPECIAL):
    """``n`` rows of ``m`` scores: each row either ``m`` distinct floats,
    which have one order only, or draws from ``special``, which tie."""
    rows = []
    for _ in range(n):
        if draw(st.booleans()):
            floats = st.floats(allow_nan=False, width=64)
            rows.append(draw(st.lists(floats, min_size=m, max_size=m, unique=True)))
        else:
            rows.append(draw(st.lists(st.sampled_from(special), min_size=m, max_size=m)))
    return np.array(rows, dtype=np.float64).reshape(n, m)


class TestOrderKernel:
    """``order_rows`` sorts a block of rows at a time with numpy's unstable
    argsort and reorders only the rows with a tie or a NaN; the seen cells of
    ``select_rows`` are sorted the same way, grouped by image.  Both must
    equal the lexsort they replace bit for bit."""

    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_order_rows_matches_lexsort_over_many_blocks(self, data):
        m = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(0, 30))
        scores = data.draw(mixed_rows(n, m))
        tag_rank = np.array(data.draw(st.permutations(range(2 * m)))[:m])
        # One to four rows per block.
        with mock.patch.object(core, "BLOCK_CELLS", data.draw(st.integers(1, 4 * m))):
            order = order_rows(scores, tag_rank)
        assert order.dtype == np.intp and order.shape == (n, m)
        assert np.array_equal(order, lexsort_rows(scores, tag_rank))
        # Tags named so that their string order is their rank order.
        tags = [f"t{r:02d}" for r in tag_rank.tolist()]
        for row, ranked in zip(scores.tolist(), order.tolist()):
            if not any(map(math.isnan, row)):
                assert [tags[c] for c in ranked] == oracles.sorted_tags(dict(zip(tags, row)))

    def test_more_rows_than_a_block(self):
        rng = np.random.default_rng(7)
        tags = tuple(f"t{i:03d}" for i in rng.permutation(207))
        n = 2 * (core.BLOCK_CELLS // len(tags)) + 17
        scores = rng.normal(size=(n, len(tags)))
        scores[::3] = np.round(scores[::3] * 4) / 4  # quarter steps: many ties
        scores[5, :4] = [0.0, -0.0, 0.0, -0.0]
        scores[400, 10:13] = [math.inf, -math.inf, math.inf]
        table = make_table([f"x{i}" for i in range(n)], tags, scores)
        order = rank_columns(table).order
        assert np.array_equal(order, lexsort_rows(scores, table._tag_rank))
        for i in [*range(0, n, 97), 5, 400]:
            expected = oracles.sorted_tags(dict(zip(tags, scores[i].tolist())))
            assert [tags[c] for c in order[i].tolist()] == expected
        scores[n - 1, 7] = math.nan
        tag_rank = table._tag_rank
        assert np.array_equal(order_rows(scores, tag_rank), lexsort_rows(scores, tag_rank))

    def test_one_column_and_no_rows(self):
        assert order_rows(np.array([[math.nan], [1.0], [-0.0]]), np.array([0])).tolist() == [
            [0], [0], [0]
        ]
        empty = order_rows(np.zeros((0, 4)), np.arange(4))
        assert empty.shape == (0, 4) and empty.dtype == np.intp

    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_cell_order_matches_lexsort(self, data):
        n = data.draw(st.integers(0, 40))
        values = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))
        key = np.array(data.draw(st.lists(values, min_size=n, max_size=n)), dtype=np.float64)
        # Row numbers past 2**16 take numpy's non-radix stable sort.
        rows = np.sort(np.array(
            data.draw(st.lists(st.integers(0, 70_000), min_size=n, max_size=n)), dtype=np.intp
        ))
        ties = np.array(data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))
        got = _argsort_descending(key, ties, rows)
        assert np.array_equal(got, np.lexsort((ties, -key, rows)))

    @settings(deadline=None, max_examples=100)
    @given(st.data())
    def test_select_rows_with_some_images_tied(self, data):
        m = data.draw(st.integers(1, 8))
        n = data.draw(st.integers(1, 25))
        # Finite scores only: select_rows refuses the others.
        scores = data.draw(mixed_rows(n, m, special=(0.0, -0.0, 0.25, 0.5, 1.0)))
        scores[~np.isfinite(scores)] = 0.75
        tags = data.draw(st.permutations([f"g{i}" for i in range(m)]))
        table = make_table([f"x{i}" for i in range(n)], tags, scores)
        tau = np.array(data.draw(st.lists(
            st.sampled_from((-1.0, -0.0, 0.2, 0.5)), min_size=m, max_size=m
        )))
        result = select_rows(table, np.arange(m), tau)
        thresholds = dict(zip(tags, tau.tolist()))
        for x in table.images:
            got = [(p.tag, repr(p.score), p.provenance) for p in result.row(x)]
            assert got == oracles.threshold_oracle(table, x, thresholds), x

    def test_select_rows_ties_in_one_image_only(self):
        # Column order is not tag order, so a tie cannot follow the columns.
        tags = ("d", "b", "c", "a")
        scores = [[0.9, 0.7, 0.8, 0.6], [0.5, 0.9, 0.5, 0.5], [0.3, 0.4, 0.2, 0.1]]
        table = make_table(["x0", "x1", "x2"], tags, scores)
        tau = np.array([0.15, 0.15, 0.15, 0.15])
        result = select_rows(table, np.arange(4), tau)
        assert [result.tags(x) for x in table.images] == [
            ("d", "c", "b", "a"), ("b", "a", "c", "d"), ("b", "d", "c"),
        ]
        thresholds = dict.fromkeys(tags, 0.15)
        for x in table.images:
            got = [(p.tag, repr(p.score), p.provenance) for p in result.row(x)]
            assert got == oracles.threshold_oracle(table, x, thresholds), x


class TestTopColumns:
    """``_top_columns(key, ties, k)`` orders only the cells at or above each
    row's K-th best key; it must give the first ``k[i]`` columns of row i of
    ``order_rows`` exactly."""

    @staticmethod
    def check(key, ties, k):
        i, j = np.nonzero(np.arange(key.shape[1]) < k[:, None])
        want = order_rows(key, ties)[i, j]
        # The partition on every shape, even for k = n_cols; whole rows on
        # every shape; and the rule that chooses between them.
        for rule in (lambda top, n: True, lambda top, n: False, selection._partitions):
            with mock.patch.object(selection, "_partitions", rule):
                rows, cols = _top_columns(key, ties, k)
            assert rows.tolist() == i.tolist()
            assert cols.tolist() == want.tolist()

    @settings(deadline=None, max_examples=400)
    @given(st.data())
    def test_prefixes_of_order_rows(self, data):
        # Rows of distinct floats, or of ties, +-0.0, +-inf and NaN; counts
        # from 0 to every column, on shapes with no rows or no columns too.
        m = data.draw(st.integers(0, 7))
        n = data.draw(st.integers(0, 12))
        key = data.draw(mixed_rows(n, m))
        ties = np.array(data.draw(st.permutations(range(m))), dtype=np.intp)
        k = np.array(data.draw(st.lists(st.integers(0, m), min_size=n, max_size=n)),
                     dtype=np.intp)
        self.check(key, ties, k)

    def test_boundary_ties_and_nan_rows(self):
        nan, inf = math.nan, math.inf
        key = np.array([
            [0.5, 0.5, 0.5, 0.1, 0.5],  # four cells tie at the best key
            [nan, 1.0, nan, -inf, 0.0],  # the 4th best is NaN: at K >= 4 all stay
            [0.0, -0.0, -0.0, 0.0, 0.0],  # +-0.0 tie
            [inf, -inf, inf, nan, -inf],
        ])
        ties = np.array([3, 1, 4, 0, 2])
        for k in ([2, 3, 2, 4], [0, 5, 1, 0], [5, 5, 5, 5], [1, 1, 1, 1]):
            self.check(key, ties, np.array(k))

    @pytest.mark.parametrize("shape", [(0, 4), (3, 0), (0, 0)])
    def test_no_rows_or_no_columns(self, shape):
        self.check(np.zeros(shape), np.arange(shape[1]), np.zeros(shape[0], dtype=np.intp))


class TestNonzero2d:
    """``_nonzero_2d`` gives ``np.nonzero``'s rows and columns, row-major,
    with its dtype, and warns about nothing, a mask without rows or columns
    included."""

    @staticmethod
    def check(mask):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            got = _nonzero_2d(mask)
        want = np.nonzero(mask)
        assert len(got) == 2
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)

    @settings(deadline=None, max_examples=200)
    @given(st.integers(0, 9), st.integers(0, 9), st.sampled_from((0.0, 0.1, 0.5, 1.0)),
           st.integers(0, 2**32 - 1))
    def test_equals_nonzero_on_random_masks(self, n, m, p, seed):
        mask = np.random.default_rng(seed).random((n, m)) < p
        self.check(mask)
        self.check(mask.T)

    @pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0)])
    def test_empty_shapes(self, shape):
        self.check(np.zeros(shape, dtype=bool))


class TestNarrowRankings:
    @pytest.mark.parametrize("m, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16)])
    def test_order_is_the_lexsort_in_the_narrowest_dtype(self, m, dtype):
        rng = np.random.default_rng(m)
        tags = tuple(f"t{i:03d}" for i in rng.permutation(m))
        scores = np.round(rng.normal(size=(300, m)) * 4) / 4  # many ties
        table = make_table([f"x{i}" for i in range(300)], tags, scores)
        for cells in (1, 1000, 1 << 16):
            with mock.patch.object(core, "BLOCK_CELLS", cells):
                order = rank_columns(table).order
            assert order.dtype == dtype
            assert np.array_equal(order, lexsort_rows(scores, table._tag_rank))
