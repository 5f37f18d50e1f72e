"""Selection strategies: top-k, thresholding, the novel-count
extrapolation, score refinement, and the adaptive method."""

import hashlib
from dataclasses import replace
from unittest import mock

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
    SelectionResult,
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
    rank_tags,
    refine_novel_scores,
    run_strategy,
    select_by_threshold,
    similarity_matrix,
    tag_stats,
)
from tagselect import selection
from tagselect.selection import (
    _novel_columns,
    _round_half_up,
    learned_pool,
    refine_table,
    select_rows,
)

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

    # On 72 tags, k = 1 and 9 are partitioned (8k <= 72); k = 10 and 72
    # sort whole rows, as do 40 tags at any k.
    @pytest.mark.parametrize(
        "n_images, n_tags, k", [(1, 40, 7), (30, 72, 1), (30, 72, 9), (30, 72, 10), (30, 72, 72)]
    )
    def test_matches_sort_oracle(self, n_images, n_tags, k):
        rng = np.random.default_rng(19)
        vocab = Vocabulary.from_partition([f"t{i:02d}" for i in range(n_tags)], [])
        images = ("x",) if n_images == 1 else tuple(f"x{i:02d}" for i in range(n_images))
        # Half-integer scores, so rows hold ties.
        scores = rng.integers(0, 5, size=(n_images, n_tags)) / 2.0
        table = ScoreTable(images, vocab.tags, scores)
        # Thresholds above every score: every image falls back to its top k.
        model = ThresholdModel(dict.fromkeys(vocab.tags, 3.0), tag_stats(table))
        results = (
            run_strategy(top_k(k), table, vocab),
            run_strategy(StrategySpec("adaptive", k=k), table, vocab, model),
        )
        for x in images:
            expected = oracles.sorted_tags({t: table.score(x, t) for t in vocab.tags})[:k]
            for result in results:
                assert [p.tag for p in result.row(x)] == expected


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

    @settings(deadline=None, max_examples=200)
    @given(
        st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=8),
        st.integers(min_value=1, max_value=10**4),
    )
    def test_round_half_up_on_ints_and_arrays(self, numerators, q):
        # The one count law behind k_novel, the kernel and the generator.
        want = [oracles.round_half_up_fraction(p, 1, q) for p in numerators]
        assert [_round_half_up(p, q) for p in numerators] == want
        assert _round_half_up(np.array(numerators), q).tolist() == want
        assert _round_half_up(np.array(numerators), np.full(len(numerators), q)).tolist() == want

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

    def test_numpy_scalar_threshold_reads_as_a_number(self):
        vocab, table, model, sim = refine_fixture()
        bad = ThresholdModel(tau={"s1": np.float64(-0.5)}, stats=model.stats)
        with pytest.raises(TagSelectError) as exc:
            refine_novel_scores(table, "x", vocab, ["s1"], bad, sim, w=0.5)
        assert str(exc.value) == (
            "threshold for 's1' is -0.5; scores cannot be normalized by it"
        )

    @pytest.mark.parametrize("w", [-0.1, 1.5])
    def test_weight_outside_unit_interval_rejected(self, w):
        vocab, table, model, sim = refine_fixture()
        message = f"refinement weight must lie in [0, 1], got {w!r}"
        with pytest.raises(TagSelectError) as exc:
            refine_novel_scores(table, "x", vocab, ["s1"], model, sim, w)
        assert str(exc.value) == message
        with pytest.raises(TagSelectError) as exc:
            refine_table(table, vocab, model, sim, w)
        assert str(exc.value) == message

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
        for x in table.images:
            ranking = rank_tags(refined, x)
            want = oracles.refined_scores_oracle(table, x, vocab, model, sim, cfg.w)
            assert {t: repr(refined.score(x, t)) for t in table.tags} == {
                t: repr(v) for t, v in want.items()
            }
            assert ranking == oracles.sorted_tags(want)

    @settings(deadline=None, max_examples=200)
    @given(problems.refinement_problems())
    def test_refinement_paths_equal_scalar_loop(self, problem):
        # refine_table and refine_novel_scores share one summation helper,
        # so they are each held to a plain Python loop instead.
        vocab, table, model, sim, w = problem
        refined = refine_table(table, vocab, model, sim, w)
        for x in table.images:
            chosen = select_by_threshold(table, x, model.tau, vocab.seen_tags)
            want = {
                t: repr(v)
                for t, v in oracles.refine_loop(table, x, vocab, chosen, model, sim, w).items()
            }
            per_image = refine_novel_scores(table, x, vocab, chosen, model, sim, w)
            assert {t: repr(v) for t, v in per_image.items()} == want
            assert {t: repr(refined.score(x, t)) for t in vocab.novel_tags} == want

    @settings(deadline=None, max_examples=200)
    @given(problems.selection_problems(), st.data())
    def test_result_does_not_depend_on_pool_or_novel_order(self, problem, data):
        # Fusion's selector passes its trained columns in seen-tag order.
        vocab, table, model, _, _ = problem
        pool, tau = learned_pool(table, vocab, model)
        novel = _novel_columns(table, vocab)
        p = np.array(data.draw(st.permutations(range(pool.size))), dtype=np.intp)
        q = np.array(data.draw(st.permutations(range(novel.size))), dtype=np.intp)
        k = data.draw(st.sampled_from([None, 1, table.n_tags]))
        want = select_rows(table, pool, tau, novel, k)
        got = select_rows(table, pool[p], tau[p], novel[q], k)
        for name in ("offsets", "columns", "scores", "provenance"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name

    @settings(deadline=None, max_examples=200)
    @given(problems.selection_problems(), st.data())
    def test_partition_and_whole_rows_select_the_same(self, problem, data):
        # The novel top-k and the fallback, refined or not, whichever way
        # _top_columns takes.
        vocab, table, model, sim, cfg = problem
        pool, tau = learned_pool(table, vocab, model)
        novel = _novel_columns(table, vocab)
        k = data.draw(st.none() | st.integers(1, table.n_tags))
        ranked = data.draw(st.sampled_from([None, refine_table(table, vocab, model, sim, cfg.w)]))
        ranked = None if ranked is None else ranked.scores[:, novel]
        got = []
        for always in (True, False):
            with mock.patch.object(selection, "_partitions", lambda top, n: always):
                got.append(select_rows(table, pool, tau, novel, k, ranked))
        for name in ("offsets", "columns", "scores", "provenance"):
            a, b = (getattr(r, name) for r in got)
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name

    def test_default_spec_refined_scores_match_oracle_bit_for_bit(self):
        # Refined scores reported on the default benchmark equal the
        # per-image reference to the last bit.  The pinned value is the sum
        # over A in table column order; any other order (a BLAS product, say)
        # moves thousands of refined cells in their last bits.
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
        assert repr(picks["novel_063"]) == "0.621766447261594"

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

    def test_overflowing_refinement_is_refused_on_every_path(self, small_bench, small_model):
        vocab, table, truth = small_bench.vocab, small_bench.eval_table, small_bench.eval_truth
        sim = similarity_matrix(small_bench.cooccurrence, vocab)
        # A finite, positive threshold that a score divided by overflows.
        anchor = min(small_model.tau, key=table.tag_index)
        model = replace(small_model, tau={**small_model.tau, anchor: 1e-310})
        # The first non-finite refined cell in row-major order, by the
        # scalar reference.
        bad = []
        with np.errstate(over="ignore", invalid="ignore"):
            for x in table.images:
                a_set = select_by_threshold(table, x, model.tau, model.tau)
                if a_set:
                    refined = refine_novel_scores(table, x, vocab, a_set, model, sim, 0.5)
                    bad += [(x, t) for t in table.tags if not np.isfinite(refined.get(t, 0.0))]
        x, t = bad[0]
        message = f"refinement gives a non-finite score for image {x!r}, tag {t!r}"
        refining = StrategySpec("adaptive", refine=True)
        reported = AdaptiveConfig(refine=True, report_refined=True)
        for call in (
            lambda: refine_table(table, vocab, model, sim, 0.5),
            lambda: run_strategy(refining, table, vocab, model, sim),
            lambda: run_strategy(refining, table, vocab, model, sim, reported),
            lambda: compare([refining], table, truth, vocab, model, sim),
            lambda: compare([refining], table, truth, vocab, model, sim, refined_rankings=True),
        ):
            with pytest.raises(TagSelectError) as raised:
                call()
            assert str(raised.value) == message


def blocks_problem():
    """Four seen tags and three novel ones in a shuffled column order, with
    continuous scores and similarities, over six images: x0, x1 and x5 tie
    at |A| = 2, x2 has an empty A, x3 has |A| = 1 and x4 every pool
    column."""
    vocab = Vocabulary.from_partition(["s0", "s1", "s2", "s3"], ["n0", "n1", "n2"])
    tags = ("n1", "s2", "s0", "n0", "s3", "s1", "n2")
    tau = {"s0": 0.3, "s1": 0.45, "s2": 0.6, "s3": 0.35}
    above = [{"s0", "s2"}, {"s1", "s3"}, set(), {"s1"}, set(tau), {"s2", "s3"}]
    rng = np.random.default_rng(17)
    rows = []
    for a in above:
        row = {t: v + (rng.uniform(0.01, 0.5) if t in a else -rng.uniform(0.01, 0.3))
               for t, v in tau.items()}
        row.update({t: rng.uniform(-0.5, 1.0) for t in vocab.novel_tags})
        rows.append([row[t] for t in tags])
    table = ScoreTable(tuple(f"x{i}" for i in range(len(rows))), tags, np.array(rows))
    model = ThresholdModel(tau=tau, stats=tag_stats(table))
    values = rng.uniform(size=(7, 7))
    values = (values + values.T) / 2
    np.fill_diagonal(values, 1.0)
    return vocab, table, model, SimilarityMatrix(vocab.tags, values, ())


class TestRefinementRowBlocks:
    """``refine_table`` refines a block of rows at a time; with
    ``BLOCK_CELLS`` patched small, small problems span many blocks, and the
    result must not depend on where the blocks end."""

    @settings(deadline=None, max_examples=200)
    @given(problems.refinement_problems(), problems.SMALL_BLOCKS)
    def test_equals_scalar_loop(self, problem, cells):
        vocab, table, model, sim, w = problem
        with problems.small_blocks(cells):
            refined = refine_table(table, vocab, model, sim, w)
        for x in table.images:
            chosen = select_by_threshold(table, x, model.tau, vocab.seen_tags)
            want = oracles.refine_loop(table, x, vocab, chosen, model, sim, w)
            assert {t: repr(refined.score(x, t)) for t in vocab.novel_tags} == {
                t: repr(v) for t, v in want.items()
            }

    @settings(deadline=None, max_examples=200)
    @given(problems.selection_problems(), problems.SMALL_BLOCKS)
    def test_refined_table_matches_oracle(self, problem, cells):
        vocab, table, model, sim, cfg = problem
        with problems.small_blocks(cells):
            refined = refine_table(table, vocab, model, sim, cfg.w)
        for x in table.images:
            want = oracles.refined_scores_oracle(table, x, vocab, model, sim, cfg.w)
            assert {t: repr(refined.score(x, t)) for t in table.tags} == {
                t: repr(v) for t, v in want.items()
            }

    def test_ties_empty_and_single_anchor_rows_at_every_block_edge(self):
        # Four pool columns: 1 to 4 images per block, then all six.
        vocab, table, model, sim = blocks_problem()
        digests = set()
        for cells in (1, 4, 8, 12, 16, 20, 1 << 16):
            with problems.small_blocks(cells):
                refined = refine_table(table, vocab, model, sim, 0.5)
            digests.add(digest(refined.scores))
            for x in table.images:
                want = oracles.refined_scores_oracle(table, x, vocab, model, sim, 0.5)
                assert {t: repr(refined.score(x, t)) for t in table.tags} == {
                    t: repr(v) for t, v in want.items()
                }, (cells, x)
        assert len(digests) == 1
        # x2's A is empty: its scores stay raw.
        assert np.array_equal(refined.scores[2], table.scores[2])

    def test_one_pool_column(self):
        vocab, table, model, sim = blocks_problem()
        solo = ThresholdModel(tau={"s1": 0.45}, stats=model.stats,
                              untrainable=("s0", "s2", "s3"))
        for cells in (1, 2, 3, 6):
            with problems.small_blocks(cells):
                refined = refine_table(table, vocab, solo, sim, 0.3)
            for x in table.images:
                want = oracles.refined_scores_oracle(table, x, vocab, solo, sim, 0.3)
                assert {t: repr(refined.score(x, t)) for t in table.tags} == {
                    t: repr(v) for t, v in want.items()
                }

    def test_overflow_in_two_blocks_names_the_earlier_cell(self):
        # A tiny s0 threshold overflows the ratios of x1 and x4, the two
        # images whose s0 score is positive, which lie in different blocks.
        # The first bad cell in row-major order is x1's leftmost novel
        # column, n1, not n0, the first novel tag.
        vocab, table, model, sim = blocks_problem()
        scores = np.array(table.scores)
        scores[[0, 2, 3, 5], table.tag_index("s0")] = -1.0
        table = ScoreTable(table.images, table.tags, scores)
        model = replace(model, tau={**model.tau, "s0": 1e-310})
        message = "refinement gives a non-finite score for image 'x1', tag 'n1'"
        for cells in (4, 8, 12):
            with problems.small_blocks(cells), pytest.raises(TagSelectError) as raised:
                refine_table(table, vocab, model, sim, 0.5)
            assert str(raised.value) == message


class TestOneRefinementSetUp:
    def test_refined_adaptive_finds_pool_and_novel_columns_once(
        self, small_bench, small_model
    ):
        # Both are loops over every tag in Python.
        sim = similarity_matrix(small_bench.cooccurrence, small_bench.vocab)
        spec = StrategySpec("adaptive", refine=True)
        with mock.patch.object(selection, "learned_pool", wraps=learned_pool) as pool, \
                mock.patch.object(selection, "_novel_columns", wraps=_novel_columns) as novel:
            run_strategy(spec, small_bench.eval_table, small_bench.vocab, small_model, sim)
        assert (pool.call_count, novel.call_count) == (1, 1)


class TestKernelOutputPassesCheckedConstructor:
    """The kernel builds its array-backed result unchecked; rebuilt from its
    rows through the public constructor, every result must be accepted and
    equal the kernel's row by row."""

    @pytest.mark.parametrize("spec", [
        SyntheticSpec(),
        SyntheticSpec(n_images=60, n_train=120, n_seen=150, n_novel=150, count_max=40),
    ], ids=["default", "60x300"])
    def test_every_strategy_with_and_without_refinement(self, spec):
        bench = generate_synthetic(spec, 3)
        vocab, table = bench.vocab, bench.eval_table
        model = learn_all_thresholds(bench.train_table, bench.train_truth, vocab)
        sim = similarity_matrix(bench.cooccurrence, vocab)
        for name in STRATEGY_NAMES:
            for refine in (False, True):
                result = run_strategy(StrategySpec(name, refine=refine), table, vocab, model, sim)
                rows = {x: result.row(x) for x in result.images}
                rebuilt = SelectionResult(result.images, rows)
                assert rebuilt.images == result.images == table.images
                for x in result.images:
                    assert triples(rebuilt.row(x)) == triples(rows[x])
                    assert rebuilt.tags(x) == result.tags(x)
                assert int(result.offsets[-1]) == sum(map(len, rows.values()))


# The benchmark's wide_compare inputs: 400 eval images over 500 seen and
# 500 novel tags.
WIDE = SyntheticSpec(n_images=400, n_train=1000, n_seen=500, n_novel=500, count_min=1,
                     count_max=60)


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestWideGolden:
    """Every strategy's selection arrays on the wide inputs (seed 1), pinned
    as sha256 digests of their bytes: a rewrite of the top-k, the
    similarity block or the table checks must keep every bit."""

    SELECTIONS = {
        ("top_k", 1): "d960015683b5a8822c202788c950dc891a71b75d01ebf2df52e473864b7b663e",
        ("top_k", 5): "dcb369c046f7a43a22dc57aba5956fa525e828487a74a078f09d1b6476ddfe82",
        ("top_k", 1000): "5575e8a69fc2ab8f5b25c7ebac2e94c8e171da0c455edaca5b45b17feb689ca2",
        ("mu_sigma", 5): "b77f46c8baa9a1a606d3bb689cfe4bf91e14f5aba57a2be10cf6b6eaa0993cdb",
        ("lsq", 5): "6b855371d46bc4c268297784a12d9a634a9d81af59fbb30e6216e7f92b73e42e",
        ("hybrid_tau_musigma", 5):
            "bc35f6f0bdf14a4f75bd3878d71aa2beae7d8084d7c87268e8afc99961fcb35d",
        ("hybrid_tau_lsq", 5): "99d4e572ea91f789d7804d89c64becdc9aed1e86f1d5792ffb22574bc6281c1a",
        ("adaptive", 5): "5b728933c94f36f290526807a74155c50afc242daa2b9f85e0c9fe3cb9191c5d",
    }
    REFINED = "34f24022ca5761f247b825edd460f40c3f3fbe7d7a6f21bcfd3f622423883805"
    REPORT_REFINED = "985ff53616170d008e98c9dbc8afb70c8dfadd65121eac3df5caf8c1858736ac"
    REFINED_SCORES = "0a441f3c8cc0e80fed598b9c7371308c7835b9f89253dd8248ed9bd676737b66"

    @pytest.fixture(scope="class")
    def wide(self):
        bench = generate_synthetic(WIDE, 1)
        model = learn_all_thresholds(bench.train_table, bench.train_truth, bench.vocab)
        return bench, model

    @staticmethod
    def select(wide, spec, cfg=None):
        bench, model = wide
        sim = similarity_matrix(bench.cooccurrence, bench.vocab)
        r = run_strategy(spec, bench.eval_table, bench.vocab, model, sim, cfg)
        return digest(r.offsets, r.columns, r.scores, r.provenance)

    @pytest.mark.parametrize("name, k", list(SELECTIONS))
    def test_unrefined(self, wide, name, k):
        assert self.select(wide, StrategySpec(name, k=k)) == self.SELECTIONS[name, k]

    def test_refined(self, wide):
        bench, model = wide
        spec = StrategySpec("adaptive", refine=True)
        assert self.select(wide, spec) == self.REFINED
        cfg = AdaptiveConfig(refine=True, report_refined=True)
        assert self.select(wide, spec, cfg) == self.REPORT_REFINED
        sim = similarity_matrix(bench.cooccurrence, bench.vocab)
        refined = refine_table(bench.eval_table, bench.vocab, model, sim, 0.5)
        assert digest(refined.scores) == self.REFINED_SCORES
