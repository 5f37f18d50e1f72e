"""Selection strategies: top-k, thresholding, the novel-count
extrapolation, score refinement, and the adaptive method."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import problems
from tagselect import (
    AdaptiveConfig,
    FROM_FALLBACK,
    FROM_NOVEL_TOPK,
    FROM_SEEN_THRESHOLDING,
    STRATEGY_NAMES,
    ScoreTable,
    SimilarityMatrix,
    StrategySpec,
    SyntheticSpec,
    TagSelectError,
    TagStats,
    ThresholdModel,
    Vocabulary,
    compare,
    generate_synthetic,
    k_novel,
    learn_all_thresholds,
    rank_all_tags,
    refine_novel_scores,
    run_strategy,
    select_by_threshold,
    similarity_matrix,
)
from tagselect.selection import refine_table

ADAPTIVE = StrategySpec("adaptive")


def top_k(k):
    return StrategySpec("top_k", k=k)


class TestSelectTopk:
    def test_picks_highest_scores(self, tiny_table, tiny_vocab):
        picks = run_strategy(top_k(2), tiny_table, tiny_vocab).row("im0")
        assert [p.tag for p in picks] == ["apple", "cat"]
        assert [p.score for p in picks] == [0.9, 0.7]
        assert all(p.provenance == FROM_FALLBACK for p in picks)

    def test_k_equal_to_vocabulary(self, tiny_table, tiny_vocab):
        picks = run_strategy(top_k(5), tiny_table, tiny_vocab).row("im2")
        # All-equal scores: alphabetical order.
        assert [p.tag for p in picks] == ["apple", "boat", "cat", "dune", "echo"]

    def test_k_out_of_range(self, tiny_table, tiny_vocab):
        with pytest.raises(TagSelectError):
            run_strategy(top_k(0), tiny_table, tiny_vocab)
        with pytest.raises(TagSelectError):
            run_strategy(top_k(6), tiny_table, tiny_vocab)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(19)
        vocab = Vocabulary.from_partition([f"t{i:02d}" for i in range(40)], [])
        scores = rng.integers(0, 5, size=(1, 40)) / 2.0
        table = ScoreTable(("x",), vocab.tags, scores)
        expected = oracles.sorted_tags({t: table.score("x", t) for t in vocab.tags})[:7]
        assert [p.tag for p in run_strategy(top_k(7), table, vocab).row("x")] == expected


class TestSelectByThreshold:
    def test_strictly_greater_only(self, tiny_table):
        thr = {"apple": 0.9, "boat": 0.1, "cat": 0.69}
        chosen = select_by_threshold(tiny_table, "im0", thr, ["apple", "boat", "cat"])
        # apple scores exactly its threshold: not selected.
        assert chosen == {"boat", "cat"}

    def test_all_below_gives_empty_set(self, tiny_table):
        thr = {"apple": 2.0, "boat": 2.0}
        assert select_by_threshold(tiny_table, "im0", thr, ["apple", "boat"]) == frozenset()

    def test_missing_threshold_rejected(self, tiny_table):
        with pytest.raises(TagSelectError):
            select_by_threshold(tiny_table, "im0", {}, ["apple"])

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(29)
        tags = tuple(f"t{i}" for i in range(25))
        table = ScoreTable(("x",), tags, rng.normal(size=(1, 25)))
        thr = {t: float(rng.normal()) for t in tags}
        chosen = select_by_threshold(table, "x", thr, tags)
        expected = {t for t in tags if table.score("x", t) > thr[t]}
        assert chosen == expected


class TestKNovel:
    def test_balanced_vocabulary_rate(self):
        # 3 of 107 seen tags selected -> 3 of 100 novel tags.
        assert k_novel(107, 100, 3) == 3

    def test_empty_selection_gives_zero(self):
        assert k_novel(107, 100, 0) == 0

    def test_full_selection_caps_at_novel_size(self):
        assert k_novel(107, 100, 107) == 100

    def test_rounds_half_up(self):
        # 1 * 1 / 2 = 0.5 rounds up to 1.
        assert k_novel(2, 1, 1) == 1
        # 3 * 1 / 2 = 1.5 rounds up to 2.
        assert k_novel(2, 3, 1) == 2

    def test_cap_applies_after_rounding(self):
        assert k_novel(2, 3, 2) == 3

    def test_argument_validation(self):
        with pytest.raises(TagSelectError):
            k_novel(0, 5, 0)
        with pytest.raises(TagSelectError):
            k_novel(5, 5, 6)
        with pytest.raises(TagSelectError):
            k_novel(5, -1, 1)

    @settings(deadline=None, max_examples=300)
    @given(
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=0, max_value=500),
        st.data(),
    )
    def test_matches_exact_rational_oracle(self, seen, novel, data):
        a = data.draw(st.integers(min_value=0, max_value=seen))
        expected = min(oracles.round_half_up_fraction(novel, a, seen), novel)
        assert k_novel(seen, novel, a) == expected

    @settings(deadline=None, max_examples=100)
    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=200))
    def test_monotone_in_selection_size(self, seen, novel):
        values = [k_novel(seen, novel, a) for a in range(seen + 1)]
        assert all(lo <= hi for lo, hi in zip(values, values[1:]))
        assert values[0] == 0
        assert all(0 <= v <= novel for v in values)


def refine_fixture():
    """Two seen tags (one selected), two novel tags, hand-checkable values."""
    vocab = Vocabulary.from_partition(["s1", "s2"], ["n1", "n2"])
    table = ScoreTable(
        ("x",),
        vocab.tags,
        np.array([[0.4, 0.3, 0.1, 0.6]]),
    )
    stats = TagStats(vocab.tags, np.zeros(4), np.zeros(4))
    model = ThresholdModel(tau={"s1": 0.2, "s2": 0.5}, stats=stats)
    values = np.array(
        [
            [1.0, 0.2, 0.5, 0.0],
            [0.2, 1.0, 0.3, 0.7],
            [0.5, 0.3, 1.0, 0.1],
            [0.0, 0.7, 0.1, 1.0],
        ]
    )
    sim = SimilarityMatrix(vocab.tags, values, ())
    return vocab, table, model, sim


class TestRefineNovelScores:
    def test_hand_checked_value(self):
        vocab, table, model, sim = refine_fixture()
        refined = refine_novel_scores(table, "x", vocab, ["s1"], model, sim, w=0.5)
        # n1: 0.5*0.1 + 0.5 * 0.5 * (0.4/0.2 - 1) = 0.05 + 0.25 = 0.30
        assert refined["n1"] == 0.3
        # n2: sim(n2, s1) = 0 kills the additive term.
        assert refined["n2"] == 0.5 * 0.6

    def test_identity_at_full_weight(self):
        vocab, table, model, sim = refine_fixture()
        refined = refine_novel_scores(table, "x", vocab, ["s1"], model, sim, w=1.0)
        assert refined == {"n1": 0.1, "n2": 0.6}

    def test_averages_over_selected_seen(self):
        vocab, table, model, sim = refine_fixture()
        refined = refine_novel_scores(table, "x", vocab, ["s1", "s2"], model, sim, w=0.0)
        # Ratios: s1 -> 0.4/0.2 - 1 = 1, s2 -> 0.3/0.5 - 1 = -0.4.
        expected_n1 = (0.5 * 1.0 + 0.3 * (0.3 / 0.5 - 1.0)) / 2
        assert refined["n1"] == pytest.approx(expected_n1, abs=1e-15)

    def test_nonpositive_threshold_rejected(self):
        vocab, table, model, sim = refine_fixture()
        bad = ThresholdModel(tau={"s1": 0.0}, stats=model.stats)
        with pytest.raises(TagSelectError):
            refine_novel_scores(table, "x", vocab, ["s1"], bad, sim, w=0.5)

    def test_empty_selected_seen_rejected(self):
        vocab, table, model, sim = refine_fixture()
        with pytest.raises(TagSelectError):
            refine_novel_scores(table, "x", vocab, [], model, sim, w=0.5)

    def test_novel_anchor_rejected(self):
        vocab, table, model, sim = refine_fixture()
        with pytest.raises(TagSelectError):
            refine_novel_scores(table, "x", vocab, ["n1"], model, sim, w=0.5)

    def test_anchor_without_threshold_rejected(self):
        vocab, table, model, sim = refine_fixture()
        solo = ThresholdModel(tau={"s1": 0.2}, stats=model.stats)
        with pytest.raises(TagSelectError):
            refine_novel_scores(table, "x", vocab, ["s2"], solo, sim, w=0.5)

    def test_additive_term_non_negative_for_cleared_thresholds(self):
        # Every anchor cleared its positive threshold and similarities are
        # non-negative, so refined >= w * raw holds exactly.
        rng = np.random.default_rng(43)
        seen = [f"s{i}" for i in range(6)]
        novel = [f"n{i}" for i in range(4)]
        vocab = Vocabulary.from_partition(seen, novel)
        for _ in range(25):
            tau = {t: float(rng.uniform(0.1, 0.8)) for t in seen}
            row = np.empty(10)
            row[:6] = [tau[t] + rng.uniform(0.01, 0.5) for t in seen]
            row[6:] = rng.uniform(-0.2, 1.0, size=4)
            table = ScoreTable(("x",), vocab.tags, row[None, :])
            values = rng.uniform(0.0, 1.0, size=(10, 10))
            values = (values + values.T) / 2
            np.fill_diagonal(values, 1.0)
            sim = SimilarityMatrix(vocab.tags, values, ())
            model = ThresholdModel(
                tau=tau, stats=TagStats(vocab.tags, np.zeros(10), np.zeros(10))
            )
            w = float(rng.uniform(0.0, 1.0))
            refined = refine_novel_scores(table, "x", vocab, seen, model, sim, w)
            for j, t in enumerate(novel):
                assert refined[t] >= w * row[6 + j]


def adaptive_fixture():
    """Three seen tags (one untrainable), four novel tags."""
    vocab = Vocabulary.from_partition(["s1", "s2", "s3"], ["n1", "n2", "n3", "n4"])
    stats = TagStats(vocab.tags, np.zeros(7), np.zeros(7))
    # s3 is untrainable: it must not count in the pool.
    model = ThresholdModel(
        tau={"s1": 0.5, "s2": 0.5}, stats=stats, untrainable=("s3",)
    )
    eye = np.eye(7)
    sim = SimilarityMatrix(vocab.tags, eye, ())
    return vocab, model, sim


class TestSelectAdaptive:
    def test_counts_follow_extrapolation(self):
        vocab, model, sim = adaptive_fixture()
        row = np.array([[0.9, 0.1, 0.9, 0.6, 0.2, 0.8, 0.4]])
        table = ScoreTable(("x",), vocab.tags, row)
        picks = run_strategy(ADAPTIVE, table, vocab, model, sim).row("x")
        # A = {s1}; pool size 2 (s3 untrainable), so k_novel = rhu(4*1/2) = 2.
        seen_part = [p for p in picks if p.provenance == FROM_SEEN_THRESHOLDING]
        novel_part = [p for p in picks if p.provenance == FROM_NOVEL_TOPK]
        assert [p.tag for p in seen_part] == ["s1"]
        assert [p.tag for p in novel_part] == ["n3", "n1"]
        assert len(picks) == 1 + k_novel(2, 4, 1)

    def test_untrainable_high_scorer_stays_out(self):
        vocab, model, sim = adaptive_fixture()
        # s3 has the top score but no threshold: never selected, never counted.
        row = np.array([[0.6, 0.6, 99.0, 0.0, 0.0, 0.0, 0.0]])
        table = ScoreTable(("x",), vocab.tags, row)
        picks = run_strategy(ADAPTIVE, table, vocab, model, sim).row("x")
        tags = [p.tag for p in picks]
        assert "s3" not in tags
        assert tags[:2] == ["s1", "s2"]
        # |A| = pool size = 2 -> all four novel tags.
        assert len(picks) == 2 + 4

    def test_empty_selection_falls_back_to_topk(self):
        vocab, model, sim = adaptive_fixture()
        row = np.array([[0.1, 0.2, 0.9, 0.8, 0.7, 0.6, 0.5]])
        table = ScoreTable(("x",), vocab.tags, row)
        picks = run_strategy(StrategySpec("adaptive", k=3), table, vocab, model, sim).row("x")
        assert [p.tag for p in picks] == ["s3", "n1", "n2"]
        assert all(p.provenance == FROM_FALLBACK for p in picks)

    def test_seen_part_ordered_by_score(self):
        vocab, model, sim = adaptive_fixture()
        row = np.array([[0.7, 0.9, 0.0, 0.0, 0.0, 0.0, 0.0]])
        table = ScoreTable(("x",), vocab.tags, row)
        picks = run_strategy(ADAPTIVE, table, vocab, model, sim).row("x")
        seen_part = [p.tag for p in picks if p.provenance == FROM_SEEN_THRESHOLDING]
        assert seen_part == ["s2", "s1"]

    def test_refinement_changes_novel_ranking_not_reported_scores(self):
        vocab = Vocabulary.from_partition(["s1", "s2"], ["n1", "n2"])
        # A = {s1}; pool size 2 -> exactly one novel pick.
        table = ScoreTable(("x",), vocab.tags, np.array([[1.0, 0.0, 0.5, 0.52]]))
        stats = TagStats(vocab.tags, np.zeros(4), np.zeros(4))
        model = ThresholdModel(tau={"s1": 0.5, "s2": 0.5}, stats=stats)
        # n1 is strongly tied to s1, n2 not at all.
        values = np.array(
            [
                [1.0, 0.0, 0.9, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.9, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        sim = SimilarityMatrix(vocab.tags, values, ())

        # Four tags: the fallback k must not exceed the vocabulary size.
        raw = run_strategy(StrategySpec("adaptive", k=2), table, vocab, model, sim).row("x")
        assert [p.tag for p in raw if p.provenance == FROM_NOVEL_TOPK] == ["n2"]

        refining = StrategySpec("adaptive", k=2, refine=True, w=0.5)
        refined = run_strategy(refining, table, vocab, model, sim).row("x")
        novel = [p for p in refined if p.provenance == FROM_NOVEL_TOPK]
        # Refinement hoists n1 past n2, but the reported score stays raw.
        assert [p.tag for p in novel] == ["n1"]
        assert novel[0].score == 0.5

        cfg = AdaptiveConfig(fallback_k=2, refine=True, w=0.5, report_refined=True)
        reported = run_strategy(refining, table, vocab, model, sim, cfg).row("x")
        novel = [p for p in reported if p.provenance == FROM_NOVEL_TOPK]
        # 0.5*0.5 + 0.5 * 0.9 * (1.0/0.5 - 1) = 0.25 + 0.45 = 0.70
        assert novel[0].score == pytest.approx(0.7, abs=1e-15)

    def test_refinement_needs_similarity(self):
        vocab, model, _ = adaptive_fixture()
        row = np.array([[0.9, 0.1, 0.0, 0.6, 0.2, 0.8, 0.4]])
        table = ScoreTable(("x",), vocab.tags, row)
        with pytest.raises(TagSelectError):
            run_strategy(StrategySpec("adaptive", refine=True), table, vocab, model, None)

    def test_count_law_on_benchmark(self, small_bench, small_model):
        vocab = small_bench.vocab
        table = small_bench.eval_table
        pool = [t for t in vocab.seen_tags if t in small_model.tau]
        result = run_strategy(StrategySpec("adaptive", k=5), table, vocab, small_model)
        for image in table.images:
            picks = result.row(image)
            a = select_by_threshold(table, image, small_model.tau, pool)
            if not a:
                assert len(picks) == 5
                assert {p.provenance for p in picks} == {FROM_FALLBACK}
            else:
                expected = len(a) + k_novel(len(pool), len(vocab.novel_tags), len(a))
                assert len(picks) == expected
                seen_part = {p.tag for p in picks if p.provenance == FROM_SEEN_THRESHOLDING}
                assert seen_part == a

    def test_fallback_k_above_vocabulary_rejected_whether_or_not_used(self):
        vocab = Vocabulary.from_partition(["s1", "s2"], ["n1"])
        model = ThresholdModel(
            tau={"s1": 0.5, "s2": 0.5}, stats=TagStats(vocab.tags, np.zeros(3), np.zeros(3))
        )
        # No image falls back in the first table; the one image does in the second.
        for row in ([0.9, 0.9, 0.1], [0.1, 0.1, 0.1]):
            table = ScoreTable(("x",), vocab.tags, np.array([row]))
            with pytest.raises(TagSelectError, match=r"k must lie in \[1, 3\], got 50"):
                run_strategy(StrategySpec("adaptive", k=50), table, vocab, model)

    def test_config_validation(self):
        with pytest.raises(TagSelectError):
            AdaptiveConfig(fallback_k=0)
        with pytest.raises(TagSelectError):
            AdaptiveConfig(w=1.5)


def triples(picks):
    return [(p.tag, repr(p.score), p.provenance) for p in picks]


class TestSelectionKernel:
    """The batched kernel against the per-image oracles in ``oracles``."""

    @settings(deadline=None, max_examples=200)
    @given(problems.selection_problems())
    def test_refined_table_and_rankings_match_oracle(self, problem):
        vocab, table, model, sim, cfg = problem
        refined = refine_table(table, vocab, model, sim, cfg.w)
        for x, ranking in zip(table.images, rank_all_tags(refined)):
            want = oracles.refined_scores_oracle(table, x, vocab, model, sim, cfg.w)
            assert {t: repr(refined.score(x, t)) for t in table.tags} == {
                t: repr(v) for t, v in want.items()
            }
            assert ranking == oracles.sorted_tags(want)

    def test_default_spec_refined_scores_match_oracle_bit_for_bit(self):
        # Refined scores reported on the default benchmark equal the
        # per-image reference to the last bit.  A masked product over the
        # whole pool, or a strided (novel x A) block, changes the summation
        # order and shifts hundreds of them by one ulp.
        bench = generate_synthetic(SyntheticSpec(), 0)
        vocab, table = bench.vocab, bench.eval_table
        model = learn_all_thresholds(bench.train_table, bench.train_truth, vocab)
        sim = similarity_matrix(bench.cooccurrence, vocab)
        cfg = AdaptiveConfig(refine=True, report_refined=True)
        spec = StrategySpec("adaptive", refine=True)
        result = run_strategy(spec, table, vocab, model, sim, cfg=cfg)
        mismatched = [
            x
            for x in table.images
            if triples(result.row(x))
            != oracles.adaptive_oracle(table, x, vocab, model, sim, 5, True, 0.5, True)
        ]
        assert mismatched == []
        picks = {p.tag: p.score for p in result.row("img_00005")}
        assert repr(picks["novel_063"]) == "0.6217664472615939"

    def test_first_non_finite_score_is_named_before_selection(self):
        vocab, model, sim = adaptive_fixture()
        scores = np.full((3, 7), 0.6)
        scores[2, 0] = np.nan
        scores[1, 5] = np.inf
        table = ScoreTable(("x0", "x1", "x2"), vocab.tags, scores)
        message = "non-finite score for image 'x1', tag 'n3'"
        for name in STRATEGY_NAMES:
            with pytest.raises(TagSelectError, match=message):
                run_strategy(StrategySpec(name, refine=True), table, vocab, model, sim)
        with pytest.raises(TagSelectError, match=message):
            refine_table(table, vocab, model, sim, 0.5)

    def test_every_nonpositive_pool_threshold_is_named(self, small_bench):
        vocab = small_bench.vocab
        table = small_bench.eval_table
        sim = similarity_matrix(small_bench.cooccurrence, vocab)
        seen = vocab.seen_tags
        tau = {t: 0.5 for t in seen}
        tau[seen[4]] = -0.25
        tau[seen[1]] = 0.0
        model = ThresholdModel(tau=tau, stats=TagStats(vocab.tags, np.zeros(20), np.zeros(20)))
        message = f"thresholds of {seen[1]!r}, {seen[4]!r} are not positive"
        refining = StrategySpec("adaptive", refine=True)
        with pytest.raises(TagSelectError, match=message):
            run_strategy(refining, table, vocab, model, sim)
        with pytest.raises(TagSelectError, match=message):
            refine_table(table, vocab, model, sim, 0.5)
        with pytest.raises(TagSelectError, match=message):
            compare([refining], table, small_bench.eval_truth, vocab, model, sim,
                    refined_rankings=True)
        # Without refinement nothing divides by the thresholds.
        run_strategy(StrategySpec("adaptive"), table, vocab, model, sim)
