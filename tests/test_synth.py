"""The seeded synthetic benchmark: determinism, construction invariants,
and perfect recovery in the noiseless limit."""

import numpy as np
import pytest

from tagselect import (
    SyntheticSpec,
    TagSelectError,
    compare,
    evaluate,
    generate_synthetic,
    k_novel,
    learn_all_thresholds,
    rank_tags,
    run_strategy,
    similarity_matrix,
    table1_strategies,
)
from tagselect.synthetic import _round_half_up


class TestSpecValidation:
    def test_defaults_are_valid(self):
        spec = SyntheticSpec()
        assert spec.n_seen == 107 and spec.n_novel == 100

    def test_bad_sizes_rejected(self):
        with pytest.raises(TagSelectError):
            SyntheticSpec(n_images=0)
        with pytest.raises(TagSelectError):
            SyntheticSpec(n_seen=0)
        with pytest.raises(TagSelectError):
            SyntheticSpec(count_min=0)
        with pytest.raises(TagSelectError):
            SyntheticSpec(count_min=5, count_max=4)
        with pytest.raises(TagSelectError):
            SyntheticSpec(n_seen=3, n_novel=2, count_max=9)
        with pytest.raises(TagSelectError):
            SyntheticSpec(noise_std=-0.1)


class TestRoundHalfUp:
    def test_half_rounds_up(self):
        assert _round_half_up(1, 2) == 1
        assert _round_half_up(3, 2) == 2

    def test_exact_values_untouched(self):
        assert _round_half_up(6, 3) == 2
        assert _round_half_up(0, 7) == 0


class TestGenerator:
    def test_same_seed_reproduces_everything(self, small_spec):
        a = generate_synthetic(small_spec, seed=123)
        b = generate_synthetic(small_spec, seed=123)
        assert a.vocab.tags == b.vocab.tags
        assert np.array_equal(a.train_table.scores, b.train_table.scores)
        assert np.array_equal(a.eval_table.scores, b.eval_table.scores)
        assert np.array_equal(a.eval_truth.labels, b.eval_truth.labels)
        assert a.cooccurrence.single == b.cooccurrence.single
        assert a.cooccurrence.pair == b.cooccurrence.pair

    def test_different_seeds_differ(self, small_spec):
        a = generate_synthetic(small_spec, seed=1)
        b = generate_synthetic(small_spec, seed=2)
        assert not np.array_equal(a.eval_table.scores, b.eval_table.scores)

    def test_shapes_and_coverage(self, small_bench, small_spec):
        assert small_bench.train_table.n_images == small_spec.n_train
        assert small_bench.eval_table.n_images == small_spec.n_images
        assert small_bench.train_truth.coverage == small_bench.vocab.seen_tags
        assert small_bench.eval_truth.coverage == small_bench.vocab.tags
        # Training labels are fully defined over the seen tags.
        assert (small_bench.train_truth.labels >= 0).all()
        assert (small_bench.eval_truth.labels >= 0).all()

    def test_relevant_counts_satisfy_extrapolation_law(self, small_bench, small_spec):
        # Per image, the novel relevant count is exactly the selector's
        # extrapolation of the seen relevant count.
        labels = small_bench.eval_truth.labels
        n_seen = small_spec.n_seen
        for i in range(labels.shape[0]):
            c_seen = int((labels[i, :n_seen] == 1).sum())
            c_novel = int((labels[i, n_seen:] == 1).sum())
            assert c_novel == k_novel(n_seen, small_spec.n_novel, c_seen)

    def test_every_image_has_a_relevant_seen_tag(self, small_bench, small_spec):
        # count_min >= 1 and the proportional seen share rounds to >= 1
        # whenever seen tags dominate the vocabulary.
        labels = small_bench.eval_truth.labels[:, : small_spec.n_seen]
        assert ((labels == 1).sum(axis=1) >= 1).all()

    def test_cooccurrence_counts_are_consistent(self, small_bench):
        stats = small_bench.cooccurrence
        assert stats.total == small_bench.train_table.n_images + small_bench.eval_table.n_images
        for (a, b), c in stats.pair.items():
            assert c <= min(stats.single[a], stats.single[b])

    def test_cooccurrence_matches_label_matrix(self):
        # Noiseless scores expose every label, including the novel labels of
        # training images that the training truth deliberately omits.
        spec = SyntheticSpec(
            n_seen=6, n_novel=5, n_train=30, n_images=25, count_max=5, noise_std=0.0
        )
        bench = generate_synthetic(spec, seed=13)
        rel = np.vstack(
            [bench.train_table.scores == 1.0, bench.eval_table.scores == 1.0]
        ).astype(int)
        tags = bench.vocab.tags
        joint = rel.T @ rel
        for i, t in enumerate(tags):
            assert bench.cooccurrence.single_count(t) == joint[i, i]
        for i in range(len(tags)):
            for j in range(i + 1, len(tags)):
                assert bench.cooccurrence.pair_count(tags[i], tags[j]) == joint[i, j]

    def test_scores_equal_labels_plus_noise_scale(self, small_spec):
        silent = SyntheticSpec(
            n_seen=small_spec.n_seen,
            n_novel=small_spec.n_novel,
            n_train=small_spec.n_train,
            n_images=small_spec.n_images,
            count_min=small_spec.count_min,
            count_max=small_spec.count_max,
            noise_std=0.0,
        )
        bench = generate_synthetic(silent, seed=5)
        assert np.array_equal(
            bench.eval_table.scores, (bench.eval_truth.labels == 1).astype(float)
        )


class TestNoiselessRecovery:
    def test_adaptive_is_perfect_without_noise(self):
        spec = SyntheticSpec(
            n_seen=20, n_novel=15, n_train=200, n_images=150, count_max=8, noise_std=0.0
        )
        bench = generate_synthetic(spec, seed=3)
        model = learn_all_thresholds(bench.train_table, bench.train_truth, bench.vocab)
        result = run_strategy(
            table1_strategies()[5], bench.eval_table, bench.vocab, model
        )
        rankings = {x: rank_tags(bench.eval_table, x) for x in result.images}
        report = evaluate(bench.eval_truth, result, rankings)
        assert report.mf == 1.0

    def test_per_image_selection_equals_truth_without_noise(self):
        spec = SyntheticSpec(
            n_seen=10, n_novel=8, n_train=80, n_images=40, count_max=6, noise_std=0.0
        )
        bench = generate_synthetic(spec, seed=9)
        model = learn_all_thresholds(bench.train_table, bench.train_truth, bench.vocab)
        result = run_strategy(table1_strategies()[5], bench.eval_table, bench.vocab, model)
        for x in bench.eval_table.images:
            assert result.tag_set(x) == bench.eval_truth.relevant_set(x)


class TestComparisonOnBenchmark:
    def test_all_strategies_run_on_small_benchmark(self, small_bench, small_model):
        sim = similarity_matrix(small_bench.cooccurrence, small_bench.vocab)
        report = compare(
            table1_strategies(),
            small_bench.eval_table,
            small_bench.eval_truth,
            small_bench.vocab,
            small_model,
            sim,
        )
        for row in report.rows:
            assert 0.0 <= row.mf <= 1.0
            assert 0.0 <= row.map <= 1.0
            assert row.n_excluded == 0
