"""Per-tag statistics, F-optimal threshold learning, and the least-squares
reconstruction of thresholds from statistics."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import problems
from tagselect import (
    DegenerateFitError,
    GroundTruth,
    ScoreTable,
    TagSelectError,
    TagStats,
    ThresholdModel,
    UntrainableTagError,
    Vocabulary,
    fit_lsq,
    learn_all_thresholds,
    learn_threshold,
    predict_threshold,
    tag_stats,
)


class TestTagStats:
    def test_constant_column(self):
        table = ScoreTable(("a", "b", "c"), ("t",), np.array([[1.0], [1.0], [1.0]]))
        stats = tag_stats(table)
        assert stats.get("t") == (1.0, 0.0)

    def test_two_point_column_uses_population_std(self):
        table = ScoreTable(("a", "b"), ("t",), np.array([[0.0], [2.0]]))
        # Population std of {0, 2} is 1, not sqrt(2).
        assert tag_stats(table).get("t") == (1.0, 1.0)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(0.3, 1.7, size=(100, 4))
        table = ScoreTable(
            tuple(f"i{k}" for k in range(100)), ("a", "b", "c", "d"), scores
        )
        stats = tag_stats(table)
        for j, t in enumerate(table.tags):
            mu, sigma = oracles.two_pass_stats(scores[:, j])
            got_mu, got_sigma = stats.get(t)
            assert got_mu == pytest.approx(mu, abs=1e-12)
            assert got_sigma == pytest.approx(sigma, abs=1e-12)

    def test_empty_table_rejected(self):
        table = ScoreTable((), ("t",), np.zeros((0, 1)))
        with pytest.raises(TagSelectError):
            tag_stats(table)

    def test_arrays_must_align_with_the_tags(self):
        with pytest.raises(TagSelectError) as exc:
            TagStats(("t", "u"), np.array([0.0]), np.array([1.0, 1.0]))
        assert str(exc.value) == "stats arrays must align with the tag list"

    def test_stats_lookup_errors(self):
        stats = TagStats(("t",), np.array([0.0]), np.array([1.0]))
        with pytest.raises(TagSelectError):
            stats.get("u")
        with pytest.raises(TagSelectError):
            TagStats(("t",), np.array([0.0]), np.array([-1.0]))


class TestLearnThreshold:
    def test_perfectly_separable(self):
        # Positives at 1, negatives at 0: the midpoint cut is perfect.
        pairs = [(1.0, True), (0.0, False), (1.0, True), (0.0, False)]
        tau, f = learn_threshold(pairs)
        assert tau == 0.5
        assert f == 1.0

    def test_interleaved_example(self):
        pairs = [(0.9, True), (0.5, False), (0.4, True), (0.1, False)]
        tau, f = learn_threshold(pairs)
        b_tau, b_f = oracles.brute_force_threshold([0.9, 0.5, 0.4, 0.1], [1, 0, 1, 0])
        assert (tau, f) == (b_tau, b_f)
        # Keeping only the 0.9 positive costs recall; taking the top three
        # trades it for precision 2/3. F picks the larger.
        assert f == 2 * 2 / (3 + 2)
        assert tau == 0.25

    def test_tie_resolves_to_largest_tau(self):
        # Cuts at 3.5 and below 1 both give F = 2/3; the larger wins.
        pairs = [(4.0, True), (3.0, False), (2.0, False), (1.0, True)]
        tau, f = learn_threshold(pairs)
        assert f == pytest.approx(2 / 3)
        assert tau == 3.5

    def test_all_below_cut_when_negatives_on_top(self):
        # One positive at the bottom: selecting everything maximizes F.
        pairs = [(3.0, False), (2.0, False), (1.0, True)]
        tau, _ = learn_threshold(pairs)
        assert tau == 0.0  # one below the minimum score

    def test_tied_scores_share_a_side(self):
        # Equal scores cannot be split: only one candidate cut exists.
        pairs = [(1.0, True), (1.0, False), (0.0, False)]
        tau, f = learn_threshold(pairs)
        assert tau == 0.5
        assert f == 2 * 1 / (2 + 1)

    def test_single_class_inputs_rejected(self):
        with pytest.raises(UntrainableTagError):
            learn_threshold([(1.0, True), (0.5, True)])
        with pytest.raises(UntrainableTagError):
            learn_threshold([(1.0, False), (0.5, False)])
        with pytest.raises(UntrainableTagError):
            learn_threshold([])

    def test_non_finite_scores_rejected(self):
        with pytest.raises(TagSelectError):
            learn_threshold([(float("nan"), True), (0.0, False)])

    def test_midpoint_past_the_largest_double_stays_finite(self):
        # 1.7e308 + 1.6e308 overflows; the cut halves each score first, and
        # with warnings as errors no overflow may be reported.
        tau, f = learn_threshold([(1.7e308, True), (1.6e308, False)])
        assert 1.6e308 < tau < 1.7e308
        assert f == 1.0

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            # Half-integer scores produce frequent exact ties.
            scores = rng.integers(-4, 5, size=n) / 2.0
            labels = rng.integers(0, 2, size=n).astype(bool)
            if labels.all() or not labels.any():
                labels[0] = not labels[0]
            tau, f = learn_threshold(list(zip(scores, labels)))
            b_tau, b_f = oracles.brute_force_threshold(scores, labels)
            assert tau == b_tau
            assert f == b_f

    def test_dominates_every_candidate_cut(self):
        rng = np.random.default_rng(23)
        scores = rng.normal(size=40)
        labels = rng.integers(0, 2, size=40).astype(bool)
        labels[0], labels[1] = True, False
        _, f = learn_threshold(list(zip(scores, labels)))
        n_pos = int(labels.sum())
        for cut in np.concatenate([scores - 1e-9, scores + 1e-9]):
            tp = int(((scores > cut) & labels).sum())
            sel = int((scores > cut).sum())
            assert f >= 2 * tp / (sel + n_pos)

    @settings(deadline=None, max_examples=100)
    @given(
        st.lists(
            st.tuples(st.integers(min_value=-20, max_value=20), st.booleans()),
            min_size=2,
            max_size=25,
        ),
        st.integers(min_value=-10, max_value=10),
    )
    def test_translation_equivariance(self, int_pairs, shift):
        # Integer scores keep midpoints exact, so shifting scores by a
        # constant shifts the learned threshold by exactly that constant.
        labels = [lab for _, lab in int_pairs]
        if all(labels) or not any(labels):
            int_pairs = int_pairs + [(21, not labels[0])]
        base = [(float(s), lab) for s, lab in int_pairs]
        moved = [(float(s + shift), lab) for s, lab in int_pairs]
        tau0, f0 = learn_threshold(base)
        tau1, f1 = learn_threshold(moved)
        assert tau1 == tau0 + shift
        assert f1 == f0


class TestThresholdModel:
    STATS = TagStats(("a", "b"), np.zeros(2), np.ones(2))

    def test_thresholds_are_stored_as_floats(self):
        model = ThresholdModel(tau={"a": np.float64(-0.5), "b": np.int64(2)}, stats=self.STATS)
        assert model.tau == {"a": -0.5, "b": 2.0}
        assert all(type(v) is float for v in model.tau.values())

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -np.inf])
    def test_non_finite_threshold_rejected(self, value):
        with pytest.raises(TagSelectError) as exc:
            ThresholdModel(tau={"b": 0.5, "a": value}, stats=self.STATS)
        assert str(exc.value) == f"threshold for 'a' must be finite, got {float(value)!r}"

    def test_threshold_for_a_tag_without_statistics_rejected(self):
        with pytest.raises(TagSelectError) as exc:
            ThresholdModel(tau={"a": 0.5, "zzz": 0.5}, stats=self.STATS)
        assert str(exc.value) == "no statistics for tag 'zzz'"

    @pytest.mark.parametrize("value", ["0.5", "x", None])
    def test_threshold_must_be_a_real_number(self, value):
        with pytest.raises(TagSelectError) as exc:
            ThresholdModel(tau={"a": value}, stats=self.STATS)
        assert str(exc.value) == f"threshold for 'a' must be a real number, got {value!r}"

    @pytest.mark.parametrize("coeffs", [(float("nan"), 2.0), (1.0, np.inf, 0.5), ("1", 2.0)])
    def test_lsq_coefficients_must_be_finite_reals(self, coeffs):
        with pytest.raises(TagSelectError) as exc:
            ThresholdModel(tau={}, stats=self.STATS, lsq_coeffs=coeffs)
        assert str(exc.value) == f"lsq coefficients must be finite real numbers, got {coeffs!r}"

    def test_lsq_coefficients_are_stored_as_floats(self):
        model = ThresholdModel(tau={}, stats=self.STATS, lsq_coeffs=(np.float64(0.5), 2))
        assert model.lsq_coeffs == (0.5, 2.0)
        assert all(type(c) is float for c in model.lsq_coeffs)

    @pytest.mark.parametrize("coeffs", [(1.0,), (1.0, 2.0, 3.0, 4.0)])
    def test_lsq_coefficient_count(self, coeffs):
        with pytest.raises(TagSelectError) as exc:
            ThresholdModel(tau={}, stats=self.STATS, lsq_coeffs=coeffs)
        assert str(exc.value) == "lsq coefficients must be (a, b) or (a, b, c)"


class TestFitLsq:
    @staticmethod
    def model_from(mu, sigma, tau_values, tags=None):
        tags = tags or tuple(f"t{i}" for i in range(len(mu)))
        stats = TagStats(tags, np.array(mu, dtype=float), np.array(sigma, dtype=float))
        return ThresholdModel(tau=dict(zip(tags, tau_values)), stats=stats)

    def test_exact_recovery_of_mu_plus_sigma(self):
        mu = [0.1, 0.4, 0.7, 0.2]
        sigma = [0.3, 0.1, 0.2, 0.5]
        tau = [m + s for m, s in zip(mu, sigma)]
        model = self.model_from(mu, sigma, tau)
        a, b = fit_lsq(model)
        assert a == pytest.approx(1.0, abs=1e-9)
        assert b == pytest.approx(1.0, abs=1e-9)

    def test_exact_recovery_of_two_mu(self):
        mu = [0.1, 0.4, 0.7]
        sigma = [0.3, 0.1, 0.2]
        tau = [2 * m for m in mu]
        a, b = fit_lsq(self.model_from(mu, sigma, tau))
        assert a == pytest.approx(2.0, abs=1e-9)
        assert b == pytest.approx(0.0, abs=1e-9)

    def test_matches_library_solver_on_random_instances(self):
        for intercept in (False, True):
            rng = np.random.default_rng(31)
            for _ in range(50):
                n = int(rng.integers(3, 40))
                mu = rng.normal(0.5, 0.3, size=n)
                sigma = np.abs(rng.normal(0.3, 0.15, size=n))
                tau = rng.normal(0.6, 0.25, size=n)
                coeffs = fit_lsq(self.model_from(mu, sigma, tau), intercept=intercept)
                want = oracles.lstsq_coeffs(mu, sigma, tau, intercept=intercept)
                assert len(coeffs) == len(want) == 2 + intercept
                assert coeffs == pytest.approx(want, abs=1e-9)

    def test_intercept_variant(self):
        rng = np.random.default_rng(37)
        mu = rng.normal(0.5, 0.3, size=20)
        sigma = np.abs(rng.normal(0.3, 0.15, size=20))
        tau = 0.8 * mu + 0.4 * sigma + 0.05
        a, b, c = fit_lsq(self.model_from(mu, sigma, tau), intercept=True)
        assert a == pytest.approx(0.8, abs=1e-9)
        assert b == pytest.approx(0.4, abs=1e-9)
        assert c == pytest.approx(0.05, abs=1e-9)

    def test_residual_never_exceeds_naive_coefficients(self):
        rng = np.random.default_rng(41)
        mu = rng.normal(0.5, 0.3, size=30)
        sigma = np.abs(rng.normal(0.3, 0.15, size=30))
        tau = rng.normal(0.6, 0.25, size=30)
        a, b = fit_lsq(self.model_from(mu, sigma, tau))
        fitted = ((a * mu + b * sigma - tau) ** 2).sum()
        naive = ((mu + sigma - tau) ** 2).sum()
        assert fitted <= naive + 1e-12

    def test_degenerate_design_rejected(self):
        # sigma identically zero with constant mu: rank 1 normal matrix.
        model = self.model_from([0.5, 0.5, 0.5], [0.0, 0.0, 0.0], [0.4, 0.5, 0.6])
        with pytest.raises(DegenerateFitError):
            fit_lsq(model)

    @pytest.mark.parametrize("sigma", [0.25, 0.3])
    def test_constant_sigma_with_intercept_rejected(self, sigma):
        # A constant sigma column is a multiple of the ones column: rank 2
        # normal matrix in three unknowns, though the form without an
        # intercept still fits.
        mu = [0.1, 0.4, 0.7, 0.2]
        model = self.model_from(mu, [sigma] * 4, [0.4, 0.5, 0.6, 0.3])
        fit_lsq(model)
        with pytest.raises(DegenerateFitError, match="normal matrix is rank deficient; "
                           "thresholds cannot be expressed in these statistics"):
            fit_lsq(model, intercept=True)

    def test_needs_two_thresholds(self):
        model = self.model_from([0.5], [0.1], [0.4])
        with pytest.raises(DegenerateFitError):
            fit_lsq(model)


class TestLearnAllThresholds:
    def test_small_benchmark_end_to_end(self, small_bench, small_model):
        vocab = small_bench.vocab
        model = small_model
        # Every trainable tag is seen; untrainable tags are disjoint.
        assert set(model.tau) <= set(vocab.seen_tags)
        assert set(model.untrainable).isdisjoint(model.tau)
        assert set(model.tau) | set(model.untrainable) == set(vocab.seen_tags)
        assert model.lsq_coeffs is not None and len(model.lsq_coeffs) == 2
        # Statistics cover the full vocabulary.
        assert model.stats.tags == vocab.tags

    def test_per_tag_agreement_with_standalone_learner(self, small_bench, small_model):
        table, truth = small_bench.train_table, small_bench.train_truth
        for t in small_bench.vocab.seen_tags:
            col = truth.column(t)
            defined = col >= 0
            rows = [truth.images[i] for i in np.flatnonzero(defined)]
            pairs = [(table.score(x, t), bool(truth.label(x, t))) for x in rows]
            if t in small_model.untrainable:
                with pytest.raises(UntrainableTagError):
                    learn_threshold(pairs)
            else:
                tau, _ = learn_threshold(pairs)
                assert repr(small_model.tau[t]) == repr(tau)

    def test_learns_a_column_near_the_largest_double(self):
        vocab = Vocabulary.from_partition(["s0"], [])
        table = ScoreTable(("a", "b"), ("s0",), np.array([[1.7e308], [1.6e308]]))
        truth = GroundTruth(("a", "b"), ("s0",), np.array([[1], [0]]))
        # The column's mean and deviation overflow; only its threshold is
        # checked here.
        with np.errstate(over="ignore", invalid="ignore"):
            model = learn_all_thresholds(table, truth, vocab, fit_coeffs=False)
        assert model.tau == {"s0": learn_threshold([(1.7e308, True), (1.6e308, False)])[0]}
        assert 1.6e308 < model.tau["s0"] < 1.7e308

    @settings(deadline=None, max_examples=300)
    @given(problems.threshold_problems())
    def test_matches_per_column_oracle(self, problem):
        vocab, table, truth = problem
        model = learn_all_thresholds(table, truth, vocab, fit_coeffs=False)
        tau, untrainable = oracles.learn_all_thresholds_oracle(table, truth, vocab)
        assert repr(model.tau) == repr(tau)
        assert model.untrainable == untrainable

    @staticmethod
    def two_image_table(vocab):
        scores = np.arange(2.0 * len(vocab.tags)).reshape(2, -1)
        return ScoreTable(("i0", "i1"), vocab.tags, scores)

    def test_truth_without_images(self):
        vocab = Vocabulary.from_partition(["s", "t"], ["n"])
        truth = GroundTruth((), ("s", "t"), np.zeros((0, 2), dtype=np.int8))
        model = learn_all_thresholds(self.two_image_table(vocab), truth, vocab,
                                     fit_coeffs=False)
        assert model.tau == {}
        assert model.untrainable == ("s", "t")

    def test_one_training_image(self):
        vocab = Vocabulary.from_partition(["s", "t"], ["n"])
        table = ScoreTable(("i",), vocab.tags, np.array([[0.9, 0.1, 0.4]]))
        truth = GroundTruth.from_pairs([("i", "s", 1), ("i", "t", 0)])
        model = learn_all_thresholds(table, truth, vocab, fit_coeffs=False)
        assert model.tau == {}
        assert model.untrainable == ("s", "t")
        assert model.stats.get("n") == (0.4, 0.0)

    def test_truth_covering_no_seen_tag(self):
        vocab = Vocabulary.from_partition(["s", "t"], ["n"])
        truth = GroundTruth(("i0", "i1"), (), np.zeros((2, 0), dtype=np.int8))
        model = learn_all_thresholds(self.two_image_table(vocab), truth, vocab,
                                     fit_coeffs=False)
        assert model.tau == {}
        assert model.untrainable == ("s", "t")

    def test_all_undefined_column_warns_nothing(self):
        vocab = Vocabulary.from_partition(["s", "t"], ["n"])
        truth = GroundTruth(("i0", "i1"), ("s", "t"), np.array([[0, -1], [1, -1]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = learn_all_thresholds(self.two_image_table(vocab), truth, vocab,
                                         fit_coeffs=False)
        assert model.tau == {"s": 1.5}
        assert model.untrainable == ("t",)

    def test_untrainable_in_vocabulary_order(self):
        vocab = Vocabulary.from_partition(["d", "b", "e", "a", "c"], ["n"])
        # Coverage in another order; "c" is not covered at all.
        truth = GroundTruth(
            ("i0", "i1"),
            ("a", "e", "b", "d"),
            np.array([[1, 1, 0, -1], [0, 1, 1, -1]]),
        )
        model = learn_all_thresholds(self.two_image_table(vocab), truth, vocab,
                                     fit_coeffs=False)
        assert list(model.tau) == ["b", "a"]
        assert model.untrainable == ("d", "e", "c")

    def test_non_finite_score_rejected_before_any_other_check(self):
        vocab = Vocabulary.from_partition(["s"], ["n"])
        table = ScoreTable(("i",), vocab.tags, np.array([[np.inf, 0.5]]))
        # Labels on a novel tag, for an image the table lacks.
        truth = GroundTruth.from_pairs([("j", "n", 1)])
        with pytest.raises(TagSelectError, match="non-finite score for image 'i', tag 's'"):
            learn_all_thresholds(table, truth, vocab)

    def test_single_class_tag_recorded_untrainable(self):
        vocab = Vocabulary.from_partition(["hot", "cold"], ["new"])
        table = ScoreTable(
            ("i0", "i1", "i2"),
            vocab.tags,
            np.array([[0.9, 0.8, 0.1], [0.7, 0.6, 0.2], [0.2, 0.4, 0.3]]),
        )
        truth = GroundTruth.from_pairs(
            [
                ("i0", "hot", 1),
                ("i1", "hot", 0),
                ("i2", "hot", 0),
                # "cold" is always positive: no threshold can be learned.
                ("i0", "cold", 1),
                ("i1", "cold", 1),
                ("i2", "cold", 1),
            ]
        )
        model = learn_all_thresholds(table, truth, vocab, fit_coeffs=False)
        assert "hot" in model.tau
        assert model.untrainable == ("cold",)

    def test_truth_on_novel_tags_rejected(self):
        vocab = Vocabulary.from_partition(["s"], ["n"])
        table = ScoreTable(("i",), vocab.tags, np.array([[0.5, 0.5]]))
        truth = GroundTruth.from_pairs([("i", "n", 1)])
        with pytest.raises(TagSelectError):
            learn_all_thresholds(table, truth, vocab)

    def test_non_finite_score_rejected_outside_the_trained_columns(self):
        vocab = Vocabulary.from_partition(["s"], ["n"])
        table = ScoreTable(("i", "j"), vocab.tags, np.array([[0.9, 0.1], [0.2, np.nan]]))
        truth = GroundTruth.from_pairs([("i", "s", 1), ("j", "s", 0)])
        with pytest.raises(TagSelectError, match="non-finite score for image 'j', tag 'n'"):
            learn_all_thresholds(table, truth, vocab, fit_coeffs=False)

    def test_fit_coeffs_flag(self, small_bench):
        model = learn_all_thresholds(
            small_bench.train_table,
            small_bench.train_truth,
            small_bench.vocab,
            fit_coeffs=False,
        )
        assert model.lsq_coeffs is None


class TestPredictThreshold:
    @staticmethod
    def make_model():
        stats = TagStats(("t", "u"), np.array([0.2, 0.5]), np.array([0.1, 0.3]))
        return ThresholdModel(tau={"t": 0.7}, stats=stats, lsq_coeffs=(2.0, -1.0))

    def test_mu_sigma(self):
        model = self.make_model()
        assert predict_threshold(model, "t", "mu_sigma") == pytest.approx(0.3)
        assert predict_threshold(model, "u", "mu_sigma") == pytest.approx(0.8)

    def test_lsq(self):
        model = self.make_model()
        assert predict_threshold(model, "t", "lsq") == pytest.approx(2 * 0.2 - 0.1)
        no_coeffs = ThresholdModel(tau={}, stats=model.stats)
        with pytest.raises(DegenerateFitError):
            predict_threshold(no_coeffs, "t", "lsq")

    def test_lsq_with_intercept(self):
        stats = TagStats(("t",), np.array([0.2]), np.array([0.1]))
        model = ThresholdModel(tau={}, stats=stats, lsq_coeffs=(2.0, -1.0, 0.05))
        assert predict_threshold(model, "t", "lsq") == pytest.approx(0.35)

    def test_learned(self):
        model = self.make_model()
        assert predict_threshold(model, "t", "learned") == 0.7
        with pytest.raises(TagSelectError):
            predict_threshold(model, "u", "learned")

    def test_unknown_mode(self):
        with pytest.raises(TagSelectError):
            predict_threshold(self.make_model(), "t", "median")
