"""Score-table fusion and simplex weight learning."""

import numpy as np
import pytest

import oracles
from tagselect import (
    GroundTruth,
    ScoreTable,
    StrategySpec,
    TagSelectError,
    Vocabulary,
    fuse,
    learn_weights,
    run_strategy,
)


def tables_and_vocab(seed, n_images=10, n_seen=4, n_novel=2, m=2):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary.from_partition(
        [f"s{i}" for i in range(n_seen)], [f"n{i}" for i in range(n_novel)]
    )
    images = tuple(f"im{i}" for i in range(n_images))
    tables = [
        ScoreTable(images, vocab.tags, rng.normal(0.4, 0.3, size=(n_images, len(vocab))))
        for _ in range(m)
    ]
    return vocab, tables


class TestFuse:
    def test_single_table_identity(self):
        _, tables = tables_and_vocab(1, m=1)
        fused = fuse(tables, [1.0])
        assert np.array_equal(fused.scores, tables[0].scores)

    def test_two_table_convex_combination(self):
        _, tables = tables_and_vocab(2)
        fused = fuse(tables, [0.25, 0.75])
        expected = 0.25 * tables[0].scores + 0.75 * tables[1].scores
        assert np.allclose(fused.scores, expected, atol=0)

    def test_matches_elementwise_oracle(self):
        _, tables = tables_and_vocab(3, m=3)
        weights = [0.2, 0.5, 0.3]
        fused = fuse(tables, weights)
        expected = oracles.fuse_elementwise([t.scores for t in tables], weights)
        assert np.allclose(fused.scores, expected, atol=1e-12)

    def test_identical_tables_are_a_fixed_point(self):
        _, tables = tables_and_vocab(4, m=1)
        table = tables[0]
        fused = fuse([table, table], [0.3, 0.7])
        assert np.allclose(fused.scores, table.scores, atol=1e-12)

    def test_weight_validation(self):
        _, tables = tables_and_vocab(5)
        with pytest.raises(TagSelectError):
            fuse(tables, [0.5, 0.6])
        with pytest.raises(TagSelectError):
            fuse(tables, [1.5, -0.5])
        with pytest.raises(TagSelectError):
            fuse(tables, [1.0])
        with pytest.raises(TagSelectError):
            fuse([], [])

    def test_mismatched_tables_rejected(self):
        _, tables = tables_and_vocab(6)
        other = ScoreTable(
            ("alien",), tables[0].tags, np.zeros((1, len(tables[0].tags)))
        )
        with pytest.raises(TagSelectError):
            fuse([tables[0], other], [0.5, 0.5])


def full_truth(vocab, images, rng, p=0.35):
    pairs = []
    for x in images:
        labels = {t: int(rng.random() < p) for t in vocab.seen_tags}
        # Guarantee a relevant seen tag so every image stays evaluable.
        labels[vocab.seen_tags[0]] = 1
        pairs.extend((x, t, v) for t, v in labels.items())
    return GroundTruth.from_pairs(pairs)


class TestLearnWeights:
    def test_identical_tables_keep_uniform_weights(self):
        vocab, tables = tables_and_vocab(7, m=1)
        table = tables[0]
        rng = np.random.default_rng(7)
        truth = full_truth(vocab, table.images, rng)
        model = learn_weights([table, table], truth, vocab, grid_step=0.25)
        # Every weight vector fuses to the same table: no strict improvement
        # exists, so the uniform start survives and the history is flat.
        assert model.weights == (0.5, 0.5)
        assert len(set(model.history)) == 1

    def test_perfect_table_attracts_mass(self):
        rng = np.random.default_rng(8)
        vocab = Vocabulary.from_partition(["s0", "s1", "s2", "s3"], ["n0"])
        images = tuple(f"im{i}" for i in range(12))
        rel = rng.random(size=(12, 5)) < 0.4
        # Every image gets one guaranteed relevant seen tag, and every seen
        # column keeps a negative example so no tag is untrainable.
        for i in range(12):
            rel[i, i % 4] = True
        for j in range(4):
            rel[j + 1, j] = False
        perfect = ScoreTable(images, vocab.tags, rel.astype(float))
        noise = ScoreTable(images, vocab.tags, rng.normal(0.5, 1.0, size=(12, 5)))
        pairs = [
            (x, t, int(rel[i, j]))
            for i, x in enumerate(images)
            for j, t in enumerate(vocab.seen_tags)
        ]
        truth = GroundTruth.from_pairs(pairs)
        model = learn_weights([perfect, noise], truth, vocab, grid_step=0.25)
        assert model.weights[0] > model.weights[1]
        assert model.objective == 1.0

    def test_history_is_non_decreasing(self):
        vocab, tables = tables_and_vocab(9, n_images=14, m=3)
        rng = np.random.default_rng(9)
        truth = full_truth(vocab, tables[0].images, rng)
        model = learn_weights(tables, truth, vocab, grid_step=0.25, max_sweeps=5)
        assert all(a <= b for a, b in zip(model.history, model.history[1:]))
        assert abs(sum(model.weights) - 1.0) <= 1e-9
        assert all(w >= 0 for w in model.weights)

    def test_result_never_below_uniform(self):
        for seed in range(5):
            vocab, tables = tables_and_vocab(100 + seed, n_images=12, m=3)
            rng = np.random.default_rng(seed)
            truth = full_truth(vocab, tables[0].images, rng)
            model = learn_weights(tables, truth, vocab, grid_step=0.25, max_sweeps=3)
            assert model.objective >= model.history[0]

    def test_custom_strategy_and_map_objective(self):
        vocab, tables = tables_and_vocab(11, n_images=8)
        rng = np.random.default_rng(11)
        truth = full_truth(vocab, tables[0].images, rng)

        def top2(table):
            return run_strategy(StrategySpec("top_k", k=2), table, vocab)

        model = learn_weights(
            tables, truth, vocab, selection_strategy=top2,
            objective="map", grid_step=0.5, max_sweeps=2,
        )
        assert model.objective_name == "map"
        assert 0.0 <= model.objective <= 1.0

    def test_argument_validation(self):
        vocab, tables = tables_and_vocab(12)
        rng = np.random.default_rng(12)
        truth = full_truth(vocab, tables[0].images, rng)
        with pytest.raises(TagSelectError):
            learn_weights(tables[:1], truth, vocab)
        with pytest.raises(TagSelectError):
            learn_weights(tables, truth, vocab, objective="accuracy")
        with pytest.raises(TagSelectError):
            learn_weights(tables, truth, vocab, grid_step=0.0)
        with pytest.raises(TagSelectError):
            learn_weights(tables, truth, vocab, max_sweeps=0)

    def test_truth_disjoint_from_tags_rejected(self):
        vocab, tables = tables_and_vocab(13)
        stranger = GroundTruth.from_pairs([("im0", "zzz", 1)])
        with pytest.raises(TagSelectError):
            learn_weights(tables, stranger, vocab)

    def test_model_serialization(self):
        vocab, tables = tables_and_vocab(14, n_images=6)
        rng = np.random.default_rng(14)
        truth = full_truth(vocab, tables[0].images, rng)
        model = learn_weights(tables, truth, vocab, grid_step=0.5, max_sweeps=1)
        d = model.to_dict()
        assert set(d) == {"weights", "objective", "history"}
        assert d["history"][-1] == model.objective
