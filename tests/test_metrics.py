"""Image-level F and average precision, and the corpus evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import problems
from tagselect import (
    FROM_FALLBACK,
    GroundTruth,
    ImageEval,
    ScoreTable,
    SelectedTag,
    SelectionResult,
    TagRankings,
    TagSelectError,
    ap_image,
    compare,
    evaluate,
    f_image,
    learn_weights,
    metrics,
    rank_columns,
    rank_tags,
    run_strategy,
    similarity_matrix,
    table1_strategies,
)
from tagselect.metrics import _image_prf, _mean_f, _prepare, _score


class TestFImage:
    def test_perfect_prediction(self):
        assert f_image({"a", "b"}, {"a", "b"}) == (1.0, 1.0, 1.0)

    def test_half_overlap(self):
        p, r, f = f_image({"a", "b"}, {"a", "c"})
        assert (p, r) == (0.5, 0.5)
        assert f == 0.5

    def test_empty_prediction_scores_zero(self):
        assert f_image({"a"}, set()) == (0.0, 0.0, 0.0)

    def test_disjoint_prediction_scores_zero(self):
        assert f_image({"a"}, {"b", "c"}) == (0.0, 0.0, 0.0)

    def test_precision_recall_asymmetry(self):
        p, r, f = f_image({"a", "b", "c", "d"}, {"a"})
        assert p == 1.0
        assert r == 0.25
        assert f == pytest.approx(2 * 0.25 / 1.25)

    def test_empty_relevant_set_rejected(self):
        with pytest.raises(TagSelectError):
            f_image(set(), {"a"})

    def test_matches_confusion_oracle(self):
        rng = np.random.default_rng(47)
        universe = [f"t{i}" for i in range(12)]
        for _ in range(200):
            relevant = {t for t in universe if rng.random() < 0.4}
            if not relevant:
                relevant = {universe[0]}
            predicted = {t for t in universe if rng.random() < 0.4}
            p, r, f = f_image(relevant, predicted)
            op, orr, of = oracles.f_from_confusion(relevant, predicted)
            assert (p, r, f) == pytest.approx((op, orr, of), abs=1e-12)


class TestApImage:
    def test_relevant_on_top_is_perfect(self):
        assert ap_image({"a", "b"}, ["a", "b", "c", "d"]) == 1.0

    def test_worked_example(self):
        # Relevant at ranks 1 and 3 of two relevant: (1/1 + 2/3) / 2 = 5/6.
        assert ap_image({"a", "b"}, ["a", "x", "b", "y"]) == pytest.approx(5 / 6)

    def test_no_relevant_ranked_is_zero(self):
        assert ap_image({"a"}, ["x", "y"]) == 0.0

    def test_missing_relevant_tags_still_normalize(self):
        # One of two relevant tags never appears: AP is halved.
        assert ap_image({"a", "b"}, ["a", "x"]) == 0.5

    def test_duplicate_ranking_rejected(self):
        with pytest.raises(TagSelectError):
            ap_image({"a"}, ["a", "a"])

    def test_empty_relevant_set_rejected(self):
        with pytest.raises(TagSelectError):
            ap_image(set(), ["a"])

    def test_matches_literal_oracle(self):
        rng = np.random.default_rng(53)
        universe = [f"t{i}" for i in range(15)]
        for _ in range(200):
            relevant = {t for t in universe if rng.random() < 0.3}
            if not relevant:
                relevant = {universe[3]}
            ranked = list(rng.permutation(universe))[: int(rng.integers(1, 16))]
            assert ap_image(relevant, ranked) == pytest.approx(
                oracles.ap_literal(relevant, ranked), abs=1e-12
            )

    @settings(deadline=None, max_examples=100)
    @given(st.data())
    def test_swapping_relevant_downward_never_helps(self, data):
        universe = [f"t{i}" for i in range(8)]
        relevant = set(
            data.draw(st.lists(st.sampled_from(universe), min_size=1, unique=True))
        )
        ranked = data.draw(st.permutations(universe))
        i = data.draw(st.integers(min_value=0, max_value=6))
        j = data.draw(st.integers(min_value=i + 1, max_value=7))
        if ranked[i] in relevant and ranked[j] not in relevant:
            worse = list(ranked)
            worse[i], worse[j] = worse[j], worse[i]
            assert ap_image(relevant, worse) <= ap_image(relevant, ranked)


def selections_of(mapping):
    rows = {
        x: tuple(SelectedTag(t, 1.0, FROM_FALLBACK) for t in tags)
        for x, tags in mapping.items()
    }
    return SelectionResult(tuple(mapping), rows)


class TestEvaluate:
    def test_single_perfect_image(self):
        truth = GroundTruth.from_pairs([("i", "a", 1), ("i", "b", 0)])
        report = evaluate(truth, selections_of({"i": ["a"]}), {"i": ["a", "b"]})
        assert report.mf == 1.0
        assert report.map == 1.0
        assert report.n_included == 1
        assert report.excluded == ()

    def test_corpus_means_average_over_images(self):
        truth = GroundTruth.from_pairs(
            [("i", "a", 1), ("i", "b", 0), ("j", "a", 0), ("j", "b", 1)]
        )
        sels = selections_of({"i": ["a"], "j": ["a"]})
        rankings = {"i": ["a", "b"], "j": ["a", "b"]}
        report = evaluate(truth, sels, rankings)
        # Image i is perfect; image j selected the wrong tag (F=0, AP=1/2).
        assert report.mf == 0.5
        assert report.map == 0.75
        per = report.per_image
        assert per["i"].f == 1.0 and per["j"].f == 0.0
        assert per["j"].ap == 0.5

    def test_image_without_truth_is_excluded(self):
        truth = GroundTruth.from_pairs([("i", "a", 1)])
        sels = selections_of({"i": ["a"], "ghost": ["a"]})
        report = evaluate(truth, sels, {"i": ["a"], "ghost": ["a"]})
        assert report.excluded == ("ghost",)
        assert report.n_included == 1

    def test_incomplete_coverage_excludes_by_default(self):
        truth = GroundTruth.from_pairs([("i", "a", 1), ("j", "a", 1), ("j", "b", 0)])
        sels = selections_of({"i": ["a"], "j": ["a"]})
        rankings = {"i": ["a", "b"], "j": ["a", "b"]}
        report = evaluate(truth, sels, rankings)
        # Image i lacks a label for b, which its ranking mentions.
        assert report.excluded == ("i",)
        assert set(report.per_image) == {"j"}

    def test_partial_coverage_masks_instead(self):
        truth = GroundTruth.from_pairs([("i", "a", 1), ("j", "a", 1), ("j", "b", 0)])
        sels = selections_of({"i": ["a", "b"], "j": ["a"]})
        rankings = {"i": ["b", "a"], "j": ["a", "b"]}
        report = evaluate(truth, sels, rankings, require_full_coverage=False)
        # For image i the unlabeled tag b is dropped from both the ranking
        # and the prediction, leaving a perfect single-tag image.
        assert report.excluded == ()
        assert report.per_image["i"].f == 1.0
        assert report.per_image["i"].ap == 1.0

    def test_empty_relevant_set_is_excluded(self):
        truth = GroundTruth.from_pairs([("i", "a", 0), ("i", "b", 0), ("j", "a", 1), ("j", "b", 0)])
        sels = selections_of({"i": ["a"], "j": ["a"]})
        rankings = {"i": ["a", "b"], "j": ["a", "b"]}
        report = evaluate(truth, sels, rankings)
        assert report.excluded == ("i",)

    def test_no_evaluable_images_rejected(self):
        truth = GroundTruth.from_pairs([("i", "a", 0)])
        with pytest.raises(TagSelectError):
            evaluate(truth, selections_of({"i": ["a"]}), {"i": ["a"]})

    def test_missing_ranking_rejected(self):
        truth = GroundTruth.from_pairs([("i", "a", 1), ("j", "a", 1)])
        sels = selections_of({"i": ["a"], "j": ["a"]})
        with pytest.raises(TagSelectError, match="no ranking given for image 'j'"):
            evaluate(truth, sels, {"i": ["a"]})

    def test_matches_corpus_oracle(self):
        rng = np.random.default_rng(59)
        universe = [f"t{i}" for i in range(10)]
        images = [f"im{i}" for i in range(60)]
        pairs = []
        relevant_by_image = {}
        for x in images:
            labels = {t: int(rng.random() < 0.3) for t in universe}
            if sum(labels.values()) == 0:
                labels[universe[0]] = 1
            pairs.extend((x, t, v) for t, v in labels.items())
            relevant_by_image[x] = {t for t, v in labels.items() if v}
        truth = GroundTruth.from_pairs(pairs)
        predicted = {
            x: list(rng.permutation(universe))[: int(rng.integers(0, 6))] for x in images
        }
        rankings = {x: list(rng.permutation(universe)) for x in images}
        report = evaluate(truth, selections_of(predicted), rankings)
        omf, omap = oracles.evaluate_corpus(relevant_by_image, predicted, rankings)
        assert report.mf == pytest.approx(omf, abs=1e-12)
        assert report.map == pytest.approx(omap, abs=1e-12)
        assert report.n_included == 60

    def test_report_serialization(self):
        truth = GroundTruth.from_pairs([("i", "a", 1), ("i", "b", 0)])
        report = evaluate(truth, selections_of({"i": ["a"]}), {"i": ["a", "b"]})
        d = report.to_dict()
        assert d["mf"] == 1.0 and "per_image" not in d
        d = report.to_dict(per_image=True)
        assert d["per_image"]["i"]["ap"] == 1.0


def evaluate_per_image(truth, selections, rankings, require_full_coverage=True):
    """The corpus evaluation as one loop over images and the scalar F/AP."""
    per_image = {}
    excluded = []
    for x in selections.images:
        try:
            universe = list(rankings[x])
        except KeyError:
            raise TagSelectError(f"no ranking given for image {x!r}") from None
        if not truth.has_image(x):
            excluded.append(x)
            continue
        predicted = selections.tag_set(x)
        if require_full_coverage:
            if not truth.has_full_coverage(x, universe):
                excluded.append(x)
                continue
            judged = universe
        else:
            judged = [t for t in universe if truth.label(x, t) is not None]
            predicted = frozenset(t for t in predicted if truth.label(x, t) is not None)
        relevant = frozenset(t for t in judged if truth.label(x, t))
        if not relevant:
            excluded.append(x)
            continue
        precision, recall, f = f_image(relevant, predicted)
        per_image[x] = (precision, recall, f, ap_image(relevant, judged))
    if not per_image:
        raise TagSelectError("no evaluable image: every image lacks usable ground truth")
    mf = sum(v[2] for v in per_image.values()) / len(per_image)
    mean_ap = sum(v[3] for v in per_image.values()) / len(per_image)
    return per_image, mf, mean_ap, tuple(excluded)


POOL = [f"t{i}" for i in range(9)]
# Tags that may be ranked or selected but that no ground truth covers.
STRAYS = ["u0", "u1"]


@st.composite
def evaluation_instances(draw, duplicates=False, missing=False):
    """Random truth, selections and rankings over a small tag pool.

    Coverage is a random part of the pool, labels may be undefined, some
    selected images have no truth, rankings have per-image universes that
    may reach outside the coverage, and selections may be empty or name
    tags their ranking lacks.
    """
    coverage = draw(st.lists(st.sampled_from(POOL), unique=True))
    names = [f"im{i}" for i in range(draw(st.integers(1, 7)))]
    in_truth = [x for x in names if draw(st.integers(0, 3))]
    label = st.sampled_from((-1, 0, 1, 1) if draw(st.booleans()) else (0, 1))
    labels = draw(st.lists(
        st.lists(label, min_size=len(coverage), max_size=len(coverage)),
        min_size=len(in_truth), max_size=len(in_truth),
    ))
    truth = GroundTruth(in_truth, coverage, np.array(labels, dtype=np.int8).reshape(
        len(in_truth), len(coverage)))
    anywhere = st.sampled_from(POOL + STRAYS)
    covered = st.sampled_from(coverage) if coverage else anywhere
    # Most universes stay inside the coverage, so that full coverage holds
    # often enough to be tested.
    rows = {x: draw(st.lists(anywhere, unique=True, max_size=6)) for x in names}
    rankings = {
        x: draw(st.lists(
            covered if draw(st.integers(0, 3)) else anywhere,
            unique=not duplicates, max_size=12,
        ))
        for x in names
    }
    if missing and draw(st.booleans()):
        del rankings[draw(st.sampled_from(names))]
    return truth, selections_of(rows), rankings


def assert_matches_per_image(truth, sels, rankings, full, batched=None):
    """``evaluate`` on ``batched`` (default: ``rankings``, the same ranked
    tags) equals the per-image loop on ``rankings``, or raises its error."""
    batched = rankings if batched is None else batched
    try:
        want = evaluate_per_image(truth, sels, rankings, require_full_coverage=full)
    except TagSelectError as exc:
        with pytest.raises(TagSelectError) as got:
            evaluate(truth, sels, batched, require_full_coverage=full)
        assert str(got.value) == str(exc)
        return
    per_image, mf, mean_ap, excluded = want
    report = evaluate(truth, sels, batched, require_full_coverage=full)
    assert (repr(report.mf), repr(report.map)) == (repr(mf), repr(mean_ap))
    assert list(report.per_image) == list(per_image)
    for x, values in per_image.items():
        e = report.per_image[x]
        assert tuple(map(repr, (e.precision, e.recall, e.f, e.ap))) == tuple(map(repr, values))
    assert report.excluded == excluded


class TestBatchedEvaluate:
    @settings(deadline=None, max_examples=300)
    @given(evaluation_instances(), st.booleans())
    def test_equals_per_image_scalar_loop(self, instance, full):
        assert_matches_per_image(*instance, full)

    @settings(deadline=None, max_examples=300)
    @given(evaluation_instances(duplicates=True, missing=True), st.booleans())
    def test_errors_match_per_image_scalar_loop(self, instance, full):
        assert_matches_per_image(*instance, full)

    @settings(deadline=None, max_examples=300)
    @given(evaluation_instances(duplicates=True, missing=True), st.booleans(),
           problems.SMALL_BLOCKS)
    def test_small_row_blocks_equal_per_image_scalar_loop(self, instance, full, cells):
        # The preparation and the scoring of the selections over many row
        # blocks of a few images each.
        with problems.small_blocks(cells):
            assert_matches_per_image(*instance, full)

    def test_duplicate_in_a_later_block_is_raised_first(self):
        # One image per block.  im0..im2 have no relevant tag; im3 ranks b
        # twice; im4 has no ranking.  The duplicate comes first, then the
        # missing ranking, then the lack of an evaluable image.
        truth = GroundTruth(
            [f"im{i}" for i in range(5)], ["a", "b"],
            np.array([[0, 0], [0, 0], [0, 0], [1, 0], [1, 0]], dtype=np.int8),
        )
        sels = selections_of({f"im{i}": ["a"] for i in range(5)})
        rankings = {f"im{i}": ["a", "b"] for i in range(3)}
        cases = [
            ({"im3": ["a", "b", "b"]}, "ranking contains duplicate tag 'b'"),
            ({"im3": ["a", "b"]}, "no ranking given for image 'im4'"),
        ]
        with problems.small_blocks(1):
            for im3, message in cases:
                for full in (True, False):
                    assert_matches_per_image(truth, sels, {**rankings, **im3}, full)
                    with pytest.raises(TagSelectError, match=message):
                        evaluate(truth, sels, {**rankings, **im3}, require_full_coverage=full)
            no_relevant = GroundTruth(truth.images, truth.coverage, np.zeros((5, 2), np.int8))
            everyone = {**rankings, "im3": ["a", "b"], "im4": ["b", "a"]}
            with pytest.raises(TagSelectError, match="no evaluable image"):
                evaluate(no_relevant, sels, everyone)

    def test_different_universes_and_stray_tags(self):
        truth = GroundTruth.from_pairs(
            [("i", "a", 1), ("i", "b", 0), ("i", "c", 1), ("j", "a", 0), ("j", "c", 1)]
        )
        sels = selections_of({"i": ["c", "z"], "j": ["a", "b"], "k": []})
        rankings = {"i": ["b", "c", "a"], "j": ["c", "z", "a"], "k": ["a"]}
        for full in (True, False):
            assert_matches_per_image(truth, sels, rankings, full)
        report = evaluate(truth, sels, rankings, require_full_coverage=False)
        # j: the unlabeled b is masked out of the prediction, z out of the ranking.
        assert report.per_image["j"] == ImageEval(0.0, 0.0, 0.0, 1.0)
        assert report.excluded == ("k",)

    def test_empty_selection_scores_zero(self):
        truth = GroundTruth.from_pairs([("i", "a", 1), ("i", "b", 0)])
        report = evaluate(truth, selections_of({"i": []}), {"i": ["b", "a"]})
        assert report.per_image["i"] == ImageEval(0.0, 0.0, 0.0, 0.5)

    def test_duplicate_judged_tag_is_named(self):
        truth = GroundTruth.from_pairs([("i", "a", 1), ("i", "b", 0)])
        with pytest.raises(TagSelectError, match="duplicate tag 'b'"):
            evaluate(truth, selections_of({"i": ["a"]}), {"i": ["a", "b", "b"]})

    def test_duplicate_unjudged_tag_is_masked(self):
        truth = GroundTruth.from_pairs([("i", "a", 1), ("i", "b", 0)])
        sels = selections_of({"i": ["a"]})
        report = evaluate(truth, sels, {"i": ["a", "z", "z"]}, require_full_coverage=False)
        assert report.per_image["i"] == ImageEval(1.0, 1.0, 1.0, 1.0)

    def test_earlier_duplicate_wins_over_later_missing_ranking(self):
        truth = GroundTruth.from_pairs([("i", "a", 1), ("j", "a", 1)])
        sels = selections_of({"i": ["a"], "j": ["a"]})
        with pytest.raises(TagSelectError, match="duplicate tag 'a'"):
            evaluate(truth, sels, {"i": ["a", "a"]})

    def test_long_rankings_sum_in_rank_and_image_order(self):
        # Dozens of relevant tags per image and hundreds of images: a
        # pairwise or blocked sum would differ from the scalar loop in the
        # last bits here.
        rng = np.random.default_rng(61)
        tags = [f"t{i}" for i in range(80)]
        images = [f"im{i}" for i in range(300)]
        labels = rng.choice(np.array([-1, 0, 1], dtype=np.int8), p=[0.1, 0.4, 0.5],
                            size=(len(images), len(tags)))
        truth = GroundTruth(images, tags, labels)
        sels = selections_of({x: list(rng.choice(tags, size=int(rng.integers(0, 30)),
                                                 replace=False)) for x in images})
        rankings = {x: list(rng.permutation(tags)) for x in images}
        assert_matches_per_image(truth, sels, rankings, False)
        full = GroundTruth(images, tags, np.abs(labels))
        assert_matches_per_image(full, sels, rankings, True)


@st.composite
def column_instances(draw):
    """A score table with tied scores, a truth over part of its tags (plus
    tags it lacks) and part of its images, and selections of table tags,
    some of them empty."""
    tags = draw(st.lists(st.sampled_from(POOL + STRAYS), min_size=1, unique=True))
    names = [f"im{i}" for i in range(draw(st.integers(1, 7)))]
    scores = draw(st.lists(
        st.lists(st.sampled_from((0.0, 0.25, 0.5, 1.0)), min_size=len(tags), max_size=len(tags)),
        min_size=len(names), max_size=len(names),
    ))
    table = ScoreTable(names, tags, np.array(scores).reshape(len(names), len(tags)))
    coverage = draw(st.lists(st.sampled_from(POOL), unique=True))
    in_truth = [x for x in names if draw(st.integers(0, 3))]
    label = st.sampled_from((-1, 0, 1, 1) if draw(st.booleans()) else (0, 1))
    labels = draw(st.lists(
        st.lists(label, min_size=len(coverage), max_size=len(coverage)),
        min_size=len(in_truth), max_size=len(in_truth),
    ))
    truth = GroundTruth(in_truth, coverage, np.array(labels, dtype=np.int8).reshape(
        len(in_truth), len(coverage)))
    rows = {x: draw(st.lists(st.sampled_from(tags), unique=True, max_size=4)) for x in names}
    return table, truth, selections_of(rows)


def report_repr(report):
    return (
        repr(report.mf), repr(report.map), repr(list(report.per_image.items())),
        report.excluded,
    )


class TestOneScoringPath:
    """``compare`` and fusion hand ``evaluate`` a ``TagRankings``; every
    other caller hands it a mapping of ranked tag strings.  Both must give
    the same report."""

    @settings(deadline=None, max_examples=300)
    @given(column_instances(), st.booleans())
    def test_columns_and_strings_give_identical_reports(self, instance, full):
        table, truth, sels = instance
        columns = rank_columns(table)
        strings = {x: rank_tags(table, x) for x in table.images}
        try:
            want = report_repr(evaluate(truth, sels, strings, require_full_coverage=full))
        except TagSelectError as exc:
            with pytest.raises(TagSelectError) as got:
                evaluate(truth, sels, columns, require_full_coverage=full)
            assert str(got.value) == str(exc)
            return
        got = evaluate(truth, sels, columns, require_full_coverage=full)
        assert report_repr(got) == want

    @settings(deadline=None, max_examples=300)
    @given(column_instances(), st.booleans(), problems.SMALL_BLOCKS)
    def test_columns_in_small_row_blocks_equal_per_image_scalar_loop(
        self, instance, full, cells
    ):
        # The int32 ranking is gathered a block of rows at a time.
        table, truth, sels = instance
        strings = {x: rank_tags(table, x) for x in table.images}
        with problems.small_blocks(cells):
            assert_matches_per_image(truth, sels, strings, full, rank_columns(table))

    def test_rank_columns_index_the_table_tags(self):
        scores = np.array([[0.5, 0.5, 1.0], [0.0, 1.0, 0.0]])
        table = ScoreTable(("i", "j"), ("b", "a", "c"), scores)
        rankings = rank_columns(table)
        assert isinstance(rankings, TagRankings)
        assert rankings.images == ("i", "j") and rankings.tags == ("b", "a", "c")
        assert [[rankings.tags[c] for c in row] for row in rankings.order.tolist()] == [
            rank_tags(table, x) for x in table.images
        ]

    def test_missing_ranking_rows_follow_image_order(self):
        truth = GroundTruth.from_pairs([("i", "a", 1), ("j", "a", 1)])
        table = ScoreTable(("i",), ("a",), np.array([[1.0]]))
        sels = selections_of({"i": ["a"], "j": ["a"]})
        with pytest.raises(TagSelectError, match="no ranking given for image 'j'"):
            evaluate(truth, sels, rank_columns(table))

    def test_string_path_still_rejects_a_duplicate_ranked_tag(self):
        truth = GroundTruth.from_pairs([("i", "a", 1), ("i", "b", 0)])
        table = ScoreTable(("i",), ("a", "b"), np.array([[1.0, 0.0]]))
        sels = selections_of({"i": ["a"]})
        assert evaluate(truth, sels, rank_columns(table)).map == 1.0
        with pytest.raises(TagSelectError, match="ranking contains duplicate tag 'b'"):
            evaluate(truth, sels, {"i": ["a", "b", "b"]})


@st.composite
def prepared_instances(draw):
    """A truth, rankings from a score table (as ``TagRankings`` or as tag
    strings) or with per-image universes, and several selections over the
    ranked images."""
    if draw(st.booleans()):
        table, truth, first = draw(column_instances())
        names = list(table.images)
        if draw(st.booleans()):
            rankings = rank_columns(table)
        else:
            rankings = {x: rank_tags(table, x) for x in names}
    else:
        truth, first, rankings = draw(evaluation_instances())
        names = list(first.images)
    tags = st.sampled_from(POOL + STRAYS)
    more = [
        selections_of({x: draw(st.lists(tags, unique=True, max_size=5)) for x in names})
        for _ in range(draw(st.integers(1, 3)))
    ]
    return truth, rankings, [first, *more]


class TestPreparedEvaluation:
    """``evaluate`` is ``_prepare`` then ``_score``; a ranking prepared once
    scores every selection over its images as ``evaluate`` does."""

    @settings(deadline=None, max_examples=300)
    @given(prepared_instances(), st.booleans())
    def test_prepared_once_equals_evaluate_per_selection(self, instance, full):
        truth, rankings, selections = instance
        images = selections[0].images
        try:
            prepared = _prepare(truth, images, rankings, full)
        except TagSelectError as exc:
            for sels in selections:
                with pytest.raises(TagSelectError) as got:
                    evaluate(truth, sels, rankings, require_full_coverage=full)
                assert str(got.value) == str(exc)
            return
        for sels in selections:
            want = report_repr(evaluate(truth, sels, rankings, require_full_coverage=full))
            assert report_repr(_score(prepared, sels)) == want

    @settings(deadline=None, max_examples=300)
    @given(prepared_instances(), st.booleans())
    def test_array_kernel_equals_the_report(self, instance, full):
        """``_image_prf`` gives the report's per-image precision, recall and
        F, in image order, and ``_mean_f`` its ``mf``, by repr; an empty
        selection of every image among them."""
        truth, rankings, selections = instance
        images = selections[0].images
        try:
            prepared = _prepare(truth, images, rankings, full)
        except TagSelectError:
            return
        for sels in [*selections, selections_of({x: [] for x in images})]:
            report = evaluate(truth, sels, rankings, require_full_coverage=full)
            got = [array.tolist() for array in _image_prf(prepared, sels)]
            assert repr(got) == repr([
                [getattr(e, name) for e in report.per_image.values()]
                for name in ("precision", "recall", "f")
            ])
            assert repr(_mean_f(prepared, sels)) == repr(report.mf)

    @settings(deadline=None, max_examples=300)
    @given(prepared_instances(), st.booleans(), st.data())
    def test_selection_over_other_images_is_refused(self, instance, full, data):
        truth, rankings, selections = instance
        images = list(selections[0].images)
        try:
            prepared = _prepare(truth, tuple(images), rankings, full)
        except TagSelectError:
            return
        # Other images: reordered, fewer, or with one that has no ranking.
        others = data.draw(st.permutations(images))[: data.draw(st.integers(1, len(images)))]
        if data.draw(st.booleans()):
            others.insert(data.draw(st.integers(0, len(others))), "ghost")
        sels = selections[-1].reindex(others)
        if others == images:
            want = report_repr(evaluate(truth, sels, rankings, require_full_coverage=full))
            assert report_repr(_score(prepared, sels)) == want
            return
        with pytest.raises(TagSelectError) as exc:
            _score(prepared, sels)
        assert str(exc.value) == "selections are not over the images of the prepared evaluation"


class TestReportObjects:
    """An ``ImageEval`` is built for each included image where a report is
    returned, by ``evaluate``, and nowhere else: fusion's objective and
    ``compare``'s rows on the raw ranking add up the per-image F arrays."""

    @staticmethod
    def count_builds(monkeypatch):
        built = []
        image_eval = metrics.ImageEval

        def counting(*args):
            built.append(args)
            return image_eval(*args)

        monkeypatch.setattr(metrics, "ImageEval", counting)
        return built

    @pytest.mark.parametrize("objective", ["mf", "map"])
    def test_learn_weights_builds_none(self, monkeypatch, small_bench, objective):
        base = small_bench.train_table
        rng = np.random.default_rng(3)
        tables = [
            ScoreTable(base.images, base.tags, base.scores + rng.normal(0.0, s, base.scores.shape))
            for s in (0.2, 0.4, 0.8)
        ]
        built = self.count_builds(monkeypatch)
        learn_weights(tables, small_bench.train_truth, small_bench.vocab, objective=objective,
                      grid_step=0.25, max_sweeps=2)
        assert built == []

    def test_compare_on_the_raw_ranking_builds_none(self, monkeypatch, small_bench,
                                                    small_model):
        b = small_bench
        sim = similarity_matrix(b.cooccurrence, b.vocab)
        specs = table1_strategies(refine=True)
        want = []
        for spec in specs:
            selections = run_strategy(spec, b.eval_table, b.vocab, small_model, sim)
            report = evaluate(b.eval_truth, selections, rank_columns(b.eval_table))
            want.append((repr(report.mf), repr(report.map), report.n_excluded))
        built = self.count_builds(monkeypatch)
        rows = compare(specs, b.eval_table, b.eval_truth, b.vocab, small_model, sim).rows
        assert built == []
        assert [(repr(r.mf), repr(r.map), r.n_excluded) for r in rows] == want

    def test_evaluate_builds_one_per_included_image(self, monkeypatch, small_bench,
                                                     small_model):
        b = small_bench
        selections = run_strategy(table1_strategies()[0], b.eval_table, b.vocab, small_model)
        built = self.count_builds(monkeypatch)
        report = evaluate(b.eval_truth, selections, rank_columns(b.eval_table),
                          require_full_coverage=False)
        assert len(built) == report.n_included > 0
