"""The seeded synthetic benchmark: determinism, construction invariants,
perfect recovery in the noiseless limit, and pinned outputs."""

import hashlib

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

    @pytest.mark.parametrize(
        "field", ["n_images", "n_train", "n_seen", "n_novel", "count_min", "count_max"]
    )
    @pytest.mark.parametrize("value", [2.5, 3.0, "3"])
    def test_sizes_must_be_integers(self, field, value):
        with pytest.raises(TagSelectError) as exc:
            SyntheticSpec(**{field: value})
        assert str(exc.value) == f"{field} must be an integer, got {value!r}"

    def test_numpy_integer_sizes_accepted(self):
        assert SyntheticSpec(n_images=np.int64(3)).n_images == 3

    def test_noise_std_must_be_a_number(self):
        with pytest.raises(TagSelectError) as exc:
            SyntheticSpec(noise_std="0.3")
        assert str(exc.value) == "noise_std must be finite and non-negative"


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


def field_digests(bench) -> dict[str, str]:
    """sha256 of every array (with its dtype and shape) and every id tuple
    of a benchmark."""
    fields = {
        "vocab.tags": bench.vocab.tags,
        "vocab.seen_tags": bench.vocab.seen_tags,
    }
    for name in ("train_table", "eval_table"):
        table = getattr(bench, name)
        fields.update({f"{name}.images": table.images, f"{name}.tags": table.tags,
                       f"{name}.scores": table.scores})
    for name in ("train_truth", "eval_truth"):
        truth = getattr(bench, name)
        fields.update({f"{name}.images": truth.images, f"{name}.coverage": truth.coverage,
                       f"{name}.labels": truth.labels})
    fields.update({"cooccurrence.tags": bench.cooccurrence.tags,
                   "cooccurrence.counts": bench.cooccurrence.counts})
    digests = {}
    for key, value in fields.items():
        h = hashlib.sha256()
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype.str}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update("\n".join(value).encode())
        digests[key] = h.hexdigest()
    return digests


# The spec of the benchmark's wide_compare workload: 1,000 tags.
WIDE_SPEC = SyntheticSpec(
    n_images=400, n_train=1000, n_seen=500, n_novel=500, count_min=1, count_max=60
)
GOLDEN = {
    ("default", 0): (3000, {
        "vocab.tags": "b27f8efd3808d441e0805e33026bbac553d9672fe4f6421ee83340b288f90e09",
        "vocab.seen_tags": "be9fc5ffd6c69f56d00e218ff500a50af5afd38dd9c7f550a5da307ffefc3a3a",
        "train_table.images": "2304c0f4bcb7a9de1244677e1e18dfbe28fa91185ca297204e702034ac5c22cf",
        "train_table.tags": "b27f8efd3808d441e0805e33026bbac553d9672fe4f6421ee83340b288f90e09",
        "train_table.scores": "a2e10800f61161d27453ac01c1f16287a03fa8da25fb49ba2aabb5785192d249",
        "train_truth.images": "2304c0f4bcb7a9de1244677e1e18dfbe28fa91185ca297204e702034ac5c22cf",
        "train_truth.coverage": "be9fc5ffd6c69f56d00e218ff500a50af5afd38dd9c7f550a5da307ffefc3a3a",
        "train_truth.labels": "001248e73fbcec4394f83afab872a42383362cadb45f3016a8fd552b7c7735af",
        "eval_table.images": "24110a56abddb30714200bc5bcf5a8503d27ee58ccf9df24ceda025ab3afc511",
        "eval_table.tags": "b27f8efd3808d441e0805e33026bbac553d9672fe4f6421ee83340b288f90e09",
        "eval_table.scores": "248852bcbd4da4b242e21b0e66455c5caeb6018bdcecb6249e9093dc50625270",
        "eval_truth.images": "24110a56abddb30714200bc5bcf5a8503d27ee58ccf9df24ceda025ab3afc511",
        "eval_truth.coverage": "b27f8efd3808d441e0805e33026bbac553d9672fe4f6421ee83340b288f90e09",
        "eval_truth.labels": "bdc6a4ee2d14c5cf2891b9221558ca98e7055dffe3e531d34a87d4cbd17a2b1f",
        "cooccurrence.tags": "a72fa148dedd816888d0ddb52fdb215025554ec0aea177ea5b9f6eb8affe0622",
        "cooccurrence.counts": "edbe8b84fdc434ac69383e945862f1024f187a5855698df6b6c48b8de9c2dcbb",
    }),
    ("wide", 1): (1400, {
        "vocab.tags": "413462c88deb08e3722cbd9ba05dabda4b0817193b67722cff3aefbf5ffc343a",
        "vocab.seen_tags": "9ace9130110c7085caea4e972dc315b9080933657d373b5439b2b279336035ab",
        "train_table.images": "2304c0f4bcb7a9de1244677e1e18dfbe28fa91185ca297204e702034ac5c22cf",
        "train_table.tags": "413462c88deb08e3722cbd9ba05dabda4b0817193b67722cff3aefbf5ffc343a",
        "train_table.scores": "c5d1e6be65b027d607b1274c592dcb32d00065acf75dbda973087147f26ce604",
        "train_truth.images": "2304c0f4bcb7a9de1244677e1e18dfbe28fa91185ca297204e702034ac5c22cf",
        "train_truth.coverage": "9ace9130110c7085caea4e972dc315b9080933657d373b5439b2b279336035ab",
        "train_truth.labels": "cabd4c55f14960099312a1afdfd934f2c5578e9b617a76b30d8068e29fcb300e",
        "eval_table.images": "44ff649683f7924881e69ba732905dc193381f1ca598780b0544d5d0d2dce3c0",
        "eval_table.tags": "413462c88deb08e3722cbd9ba05dabda4b0817193b67722cff3aefbf5ffc343a",
        "eval_table.scores": "c9af62f1c232d8ad4280639e1a25f0f61f8f97c94e7c172fede81f6f79eac09d",
        "eval_truth.images": "44ff649683f7924881e69ba732905dc193381f1ca598780b0544d5d0d2dce3c0",
        "eval_truth.coverage": "413462c88deb08e3722cbd9ba05dabda4b0817193b67722cff3aefbf5ffc343a",
        "eval_truth.labels": "f76e91aa92cefb4a4b21dd0b4f7d5f2391f7c97a113797624eda88075b1a104e",
        "cooccurrence.tags": "37992bc2422e31eddf752dd17cfa77686dc48aac35ddad30681c90f799a5c4ac",
        "cooccurrence.counts": "6409d29097fdbfcb715b1e24328cc371f50ce5f7702d3153b961364cd68b2726",
    }),
}


class TestGoldenOutputs:
    """Every array and id list of two benchmarks, pinned bit for bit, so
    that a change to how the generator computes cannot change what it
    returns."""

    @pytest.mark.parametrize("name, spec, seed", [
        ("default", SyntheticSpec(), 0),
        ("wide", WIDE_SPEC, 1),
    ])
    def test_pinned_digests(self, name, spec, seed):
        bench = generate_synthetic(spec, seed)
        total, digests = GOLDEN[(name, seed)]
        assert bench.cooccurrence.total == total
        assert field_digests(bench) == digests
