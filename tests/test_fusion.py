"""Score-table fusion and simplex weight learning."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tagselect import (
    GroundTruth,
    ScoreTable,
    StrategySpec,
    SyntheticSpec,
    TagSelectError,
    Vocabulary,
    evaluate,
    fuse,
    fusion,
    generate_synthetic,
    learn_all_thresholds,
    learn_weights,
    rank_tags,
    run_strategy,
    threshold_selection_strategy,
)
from tagselect.selection import learned_pool, select_rows


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

    def test_fused_table_is_checked_and_read_only(self):
        _, tables = tables_and_vocab(10)
        fused = fuse(tables, [0.5, 0.5])
        assert fused.scores.dtype == np.float64 and not fused.scores.flags.writeable
        fresh = ScoreTable(fused.images, fused.tags, fused.scores)
        assert [rank_tags(fused, x) for x in fused.images] == [
            rank_tags(fresh, x) for x in fresh.images
        ]
        with pytest.raises(TagSelectError) as exc:
            tables[0]._derived(np.zeros((2, 3)))
        assert str(exc.value) == "score matrix shape (2, 3) does not match 10 images x 6 tags"

    def test_mismatched_tables_rejected(self):
        _, tables = tables_and_vocab(6)
        other = ScoreTable(
            ("alien",), tables[0].tags, np.zeros((1, len(tables[0].tags)))
        )
        with pytest.raises(TagSelectError):
            fuse([tables[0], other], [0.5, 0.5])


BIG = np.finfo(np.float64).max


def fuse_reference(matrices, weights):
    """``w0*T0 + w1*T1 + ...``, left to right, with the weights as ``fuse``
    checks them."""
    w = [float(v) for v in weights]
    acc = w[0] * matrices[0]
    for wi, m in zip(w[1:], matrices[1:]):
        acc = acc + wi * m
    return acc


class TestFuseBits:
    """``fuse`` builds the sum in place and equals the left-to-right sum
    bit for bit, overflow to inf included; its inputs stay as they were,
    and its result is a read-only array of its own."""

    @staticmethod
    def check(matrices, weights):
        images = tuple(f"im{i}" for i in range(matrices[0].shape[0]))
        tags = tuple(f"t{j}" for j in range(matrices[0].shape[1]))
        tables = [ScoreTable(images, tags, m) for m in matrices]
        before = [t.scores.tobytes() for t in tables]
        with np.errstate(over="ignore"):
            fused = fuse(tables, weights).scores
            want = fuse_reference([t.scores for t in tables], weights)
        assert fused.tobytes() == want.tobytes()
        assert [t.scores.tobytes() for t in tables] == before
        assert not fused.flags.writeable
        assert not any(np.shares_memory(fused, t.scores) for t in tables)
        return fused

    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_equals_the_left_to_right_sum(self, data):
        m = data.draw(st.integers(1, 5))
        n_rows, n_cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        value = st.one_of(
            st.floats(-BIG, BIG),
            st.sampled_from((BIG, -BIG, np.nextafter(BIG, 0.0), 0.0, -0.0)),
        )
        matrices = [
            np.array(data.draw(st.lists(value, min_size=n_rows * n_cols,
                                        max_size=n_rows * n_cols))).reshape(n_rows, n_cols)
            for _ in range(m)
        ]
        raw = data.draw(
            st.lists(st.sampled_from((0.0, 1.0, 0.25, 0.3, 3.0)), min_size=m, max_size=m)
            .filter(lambda ws: sum(ws) > 0)
        )
        weights = [w / sum(raw) for w in raw]
        if data.draw(st.booleans()):
            # Within the tolerance of a unit sum, and enough to overflow.
            weights[weights.index(max(weights))] += 5e-10
        self.check(matrices, weights)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_overflow_to_inf(self, m):
        matrices = [np.array([[BIG, -BIG, 1.0]])] * m
        weights = [1.0 / m] * m
        weights[0] += 5e-10
        fused = self.check(matrices, weights)
        assert fused.tolist()[0][:2] == [np.inf, -np.inf]


def full_truth(vocab, images, rng, p=0.35):
    pairs = []
    for x in images:
        labels = {t: int(rng.random() < p) for t in vocab.seen_tags}
        # Guarantee a relevant seen tag so every image stays evaluable.
        labels[vocab.seen_tags[0]] = 1
        pairs.extend((x, t, v) for t, v in labels.items())
    return GroundTruth.from_pairs(pairs)


class TestLearnWeights:
    @pytest.mark.parametrize("sweeps, message", [
        (1.5, "max_sweeps must be an integer, got 1.5"),
        ("2", "max_sweeps must be an integer, got '2'"),
        (0, "max_sweeps must be at least 1"),
    ])
    def test_max_sweeps_must_be_a_positive_integer(self, sweeps, message):
        vocab, tables = tables_and_vocab(7, m=2)
        truth = full_truth(vocab, tables[0].images, np.random.default_rng(7))
        with pytest.raises(TagSelectError) as exc:
            learn_weights(tables, truth, vocab, max_sweeps=sweeps)
        assert str(exc.value) == message

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

    def test_grid_step_not_dividing_one_keeps_its_last_step(self):
        # Fusing all-ones with all-zeros scores every cell with the first
        # weight, so the selector records each weight vector tried.  A flat
        # objective makes the first coordinate visit its whole grid: 0, 0.3,
        # 0.6, 0.9 and then 1.0, which a step of 0.3 does not reach.
        vocab, (table,) = tables_and_vocab(3, m=1)
        ones = ScoreTable(table.images, table.tags, np.ones_like(table.scores))
        zeros = ScoreTable(table.images, table.tags, np.zeros_like(table.scores))
        truth = full_truth(vocab, table.images, np.random.default_rng(3))
        tried = []

        def record(fused):
            tried.append(float(fused.scores[0, 0]))
            return select_rows(fused, fallback_k=1)

        model = learn_weights([ones, zeros], truth, vocab, record, grid_step=0.3)
        assert tried[:6] == [0.5, 0.0, 0.3, 0.6, 3 * 0.3, 1.0]
        assert model.weights == (0.5, 0.5)

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


class TestThresholdSelectionStrategy:
    def test_keeps_seen_tags_above_their_learned_thresholds(self):
        vocab, tables = tables_and_vocab(15, n_images=12)
        truth = full_truth(vocab, tables[0].images, np.random.default_rng(15))
        select = threshold_selection_strategy(truth, vocab)
        # A table without the novel columns selects the same way.
        for table in (tables[0], tables[0].restrict(vocab.seen_tags)):
            model = learn_all_thresholds(table, truth, vocab, fit_coeffs=False)
            thresholds = {t: model.tau.get(t, np.inf) for t in table.tags}
            result = select(table)
            assert result.offsets[-1] > 0
            for x in table.images:
                got = [(s.tag, repr(s.score), s.provenance) for s in result.row(x)]
                assert got == oracles.threshold_oracle(table, x, thresholds)

    def test_follows_each_tables_image_order(self):
        vocab, tables = tables_and_vocab(16, n_images=12)
        truth = full_truth(vocab, tables[0].images, np.random.default_rng(16))
        select = threshold_selection_strategy(truth, vocab)
        # The images in another order, then the first order with other
        # scores, then fewer tags: each result is that of learning on the
        # table it is given.
        shuffled = ScoreTable(tables[0].images[::-1], vocab.tags, tables[0].scores[::-1])
        for table in (tables[0], shuffled, tables[1], tables[0].restrict(vocab.seen_tags)):
            model = learn_all_thresholds(table, truth, vocab, fit_coeffs=False)
            want = select_rows(table, *learned_pool(table, vocab, model))
            got = select(table)
            assert got.images == table.images == want.images
            for x in table.images:
                assert [(s.tag, repr(s.score), s.provenance) for s in got.row(x)] == [
                    (s.tag, repr(s.score), s.provenance) for s in want.row(x)
                ]

    def test_non_finite_score_is_named(self):
        vocab, tables = tables_and_vocab(17, n_images=6)
        truth = full_truth(vocab, tables[0].images, np.random.default_rng(17))
        select = threshold_selection_strategy(truth, vocab)
        select(tables[0])
        scores = np.array(tables[0].scores)
        scores[2, 4] = np.nan
        with pytest.raises(TagSelectError) as exc:
            select(ScoreTable(tables[0].images, vocab.tags, scores))
        assert str(exc.value) == (
            "non-finite score for image 'im2', tag 'n0'; run validate to list every bad cell"
        )

    def test_overflowing_midpoint_threshold_is_finite(self):
        # Two scores near the largest double: their sum overflows, so the
        # cut between them is taken from their halves.
        vocab = Vocabulary.from_partition(["s0", "s1"], [])
        images = ("im0", "im1", "im2")
        scores = np.array([[1.7e308, 0.9], [1.6e308, 0.1], [0.0, 0.2]])
        table = ScoreTable(images, vocab.tags, scores)
        truth = GroundTruth(images, vocab.tags, [[1, 1], [0, 0], [0, 1]])
        got = threshold_selection_strategy(truth, vocab)(table)
        # The column's mean and deviation overflow; selection reads neither.
        with np.errstate(over="ignore", invalid="ignore"):
            model = learn_all_thresholds(table, truth, vocab, fit_coeffs=False)
        assert 1.6e308 < model.tau["s0"] < 1.7e308
        want = select_rows(table, *learned_pool(table, vocab, model))
        assert [[s.tag for s in got.row(x)] for x in images] == [["s0", "s1"], [], ["s1"]]
        for x in images:
            assert [(s.tag, repr(s.score), s.provenance) for s in got.row(x)] == [
                (s.tag, repr(s.score), s.provenance) for s in want.row(x)
            ]


class TestSelectorLayoutCache:
    """The default selector reads the truth's label rows once per table
    layout (its images and tags), not once per call."""

    @staticmethod
    def count_builds(monkeypatch):
        builds = []
        build = fusion._seen_label_rows

        def counting(table, *args):
            builds.append((table.images, table.tags))
            return build(table, *args)

        monkeypatch.setattr(fusion, "_seen_label_rows", counting)
        return builds

    @pytest.mark.parametrize("objective", ["mf", "map"])
    def test_one_build_per_learn_weights(self, monkeypatch, objective):
        tables, truth, vocab = fusion_problem(1)
        builds = self.count_builds(monkeypatch)
        learn_weights(tables, truth, vocab, objective=objective, grid_step=0.25, max_sweeps=3)
        assert builds == [(tables[0].images, tables[0].tags)]

    def test_rebuilds_on_each_change_of_images_or_tags(self, monkeypatch):
        vocab, tables = tables_and_vocab(18, n_images=12)
        truth = full_truth(vocab, tables[0].images, np.random.default_rng(18))
        shuffled = ScoreTable(tables[0].images[::-1], vocab.tags, tables[0].scores[::-1])
        seen_only = tables[0].restrict(vocab.seen_tags)
        feed = [tables[0], tables[1], shuffled, shuffled, tables[0], seen_only, tables[1],
                seen_only]
        want = [
            [(s.tag, repr(s.score), s.provenance) for x in t.images for s in r.row(x)]
            for t, r in ((t, threshold_selection_strategy(truth, vocab)(t)) for t in feed)
        ]
        builds = self.count_builds(monkeypatch)
        select = threshold_selection_strategy(truth, vocab)
        for i, table in enumerate(feed):
            result = select(table)
            got = [(s.tag, repr(s.score), s.provenance) for x in table.images
                   for s in result.row(x)]
            assert got == want[i], i
        # tables[1] shares tables[0]'s images and tags; every other step
        # changes one of them.
        assert builds == [(t.images, t.tags) for t in
                          (tables[0], shuffled, tables[0], seen_only, tables[1], seen_only)]


def fusion_problem(seed):
    """Three noisy copies of a small synthetic training table, and its truth
    with one label in five dropped, so that the objective masks them."""
    spec = SyntheticSpec(n_images=4, n_train=40, n_seen=10, n_novel=6, count_max=6)
    bench = generate_synthetic(spec, seed)
    base = bench.train_table
    rng = np.random.default_rng(seed)
    tables = [
        ScoreTable(base.images, base.tags, base.scores + rng.normal(0.0, s, base.scores.shape))
        for s in (0.2, 0.4, 0.8)
    ]
    truth = bench.train_truth
    rows, cols = truth.labels.shape
    dropped = np.add.outer(np.arange(rows), np.arange(cols)) % 5 == 0
    truth = GroundTruth(truth.images, truth.coverage, np.where(dropped, -1, truth.labels))
    return tables, truth, bench.vocab


def public_objective(tables, truth, select, objective, weights):
    """The learner's objective, rebuilt from public functions."""
    fused = fuse(tables, weights)
    selections = select(fused)
    judged = fused.restrict([t for t in fused.tags if truth.covers(t)])
    rankings = {x: rank_tags(judged, x) for x in selections.images}
    report = evaluate(truth, selections, rankings, require_full_coverage=False)
    return report.mf if objective == "mf" else report.map


class TestObjective:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("objective", ["mf", "map"])
    @pytest.mark.parametrize("selector", ["default", "top_k", "reordering"])
    def test_every_call_equals_the_public_objective(self, monkeypatch, seed, objective, selector):
        tables, truth, vocab = fusion_problem(seed)
        given = None
        select = threshold_selection_strategy(truth, vocab)
        if selector == "top_k":
            def given(table):
                return run_strategy(StrategySpec("top_k", k=3), table, vocab)
        elif selector == "reordering":
            # Selections over the images in reverse order for some weights,
            # picked by a digit of a fused score: an evaluation prepared for
            # one order cannot score the other.
            orders = set()

            def given(table):
                result = select_rows(table, fallback_k=2)
                flip = int(table.scores[0, 0] * 1e6) % 2 == 1
                orders.add(flip)
                return result.reindex(table.images[::-1]) if flip else result
        if given is not None:
            select = given
        calls = []
        learner_objective = fusion._objective

        def logged(*args):
            of = learner_objective(*args)

            def score(weights):
                calls.append((weights, of(weights)))
                return calls[-1][1]

            return score

        monkeypatch.setattr(fusion, "_objective", logged)
        model = learn_weights(tables, truth, vocab, given, objective=objective,
                              grid_step=0.25, max_sweeps=3)
        assert len(calls) > 10
        if selector == "reordering":
            assert orders == {False, True}
        for weights, value in calls:
            assert repr(value) == repr(public_objective(tables, truth, select, objective, weights))
        uniform = public_objective(tables, truth, select, objective, np.full(3, 1 / 3))
        final = public_objective(tables, truth, select, objective, model.weights)
        assert (repr(model.history[0]), repr(model.objective)) == (repr(uniform), repr(final))


def golden_problem():
    """Three noisy copies of a synthetic training table and its truth, as
    the benchmark's fusion workload builds them, at a size that learns in
    well under a second."""
    spec = SyntheticSpec(n_images=4, n_train=150, n_seen=20, n_novel=12, count_max=8)
    bench = generate_synthetic(spec, 11)
    base = bench.train_table
    rng = np.random.default_rng((11, 1))
    tables = [
        ScoreTable(base.images, base.tags, base.scores + rng.normal(0.0, s, base.scores.shape))
        for s in (0.2, 0.4, 0.8)
    ]
    return tables, bench.train_truth, bench.vocab


class TestGolden:
    """The learned weights, the ascent history and one fused matrix, pinned
    as literals: a rewrite of fusion, of its objective or of the kernels
    under them must keep every float."""

    LEARNED = {
        "mf": (
            "(0.8, 0.09999999999999998, 0.09999999999999998)",
            "(0.7405468975468973, 0.818041366041366, 0.818041366041366)",
        ),
        "map": (
            "(0.8526315789473685, 0.1, 0.047368421052631574)",
            "(0.8403862395774162, 0.915248148148148, 0.915248148148148)",
        ),
    }
    FUSED_SHA256 = "9c053a8d34e6fd1b7a0739e86f1dae287ee79969ce3da467b83604d0f20733fd"

    @pytest.mark.parametrize("objective", ["mf", "map"])
    def test_learned_weights_and_history(self, objective):
        tables, truth, vocab = golden_problem()
        model = learn_weights(tables, truth, vocab, objective=objective, grid_step=0.1,
                              max_sweeps=2)
        assert (repr(model.weights), repr(model.history)) == self.LEARNED[objective]

    def test_fused_bytes(self):
        tables, _, _ = golden_problem()
        fused = fuse(tables, [0.2, 0.3, 0.5])
        assert hashlib.sha256(fused.scores.tobytes()).hexdigest() == self.FUSED_SHA256
