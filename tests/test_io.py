"""TSV and JSON round-trips, parse errors with line numbers, and the
byte-determinism of writers."""

import os
import threading

import numpy as np
import pytest

import oracles

from tagselect import (
    CooccurrenceStats,
    FormatError,
    GroundTruth,
    ScoreTable,
    SelectedTag,
    SelectionResult,
    TagSelectError,
    TagStats,
    ThresholdModel,
    Vocabulary,
)
from tagselect.cli import main
from tagselect.core import FROM_FALLBACK, FROM_NOVEL_TOPK, FROM_SEEN_THRESHOLDING
from tagselect.formats import (
    load_cooccurrence,
    load_report,
    load_scores,
    load_selections,
    load_thresholds,
    load_truth,
    load_vocabulary,
    save_cooccurrence,
    save_report,
    save_scores,
    save_selections,
    save_thresholds,
    save_truth,
    save_vocabulary,
)


@pytest.fixture
def vocab():
    return Vocabulary.from_partition(["alpha", "beta"], ["gamma"])


class TestVocabularyFormat:
    def test_round_trip(self, tmp_path, vocab):
        path = tmp_path / "vocab.tsv"
        save_vocabulary(vocab, path)
        loaded = load_vocabulary(path)
        assert loaded.tags == vocab.tags
        assert loaded.partition == vocab.partition

    def test_bad_partition_label(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("alpha\tseen\nbeta\tmaybe\n")
        with pytest.raises(FormatError) as err:
            load_vocabulary(path)
        assert err.value.lineno == 2

    def test_duplicate_tag(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("alpha\tseen\nalpha\tnovel\n")
        with pytest.raises(FormatError) as err:
            load_vocabulary(path)
        assert err.value.lineno == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("# only a comment\n")
        with pytest.raises(FormatError):
            load_vocabulary(path)


class TestScoresFormat:
    def test_round_trip_bit_exact(self, tmp_path, vocab):
        rng = np.random.default_rng(67)
        table = ScoreTable(
            ("im0", "im1"), vocab.tags, rng.normal(size=(2, 3))
        )
        path = tmp_path / "scores.tsv"
        save_scores(table, path)
        loaded = load_scores(path, vocab)
        assert loaded.images == table.images
        assert loaded.tags == table.tags
        # repr() serialization round-trips doubles exactly.
        assert np.array_equal(loaded.scores, table.scores)

    def test_empty_but_commented_file_gives_empty_table(self, tmp_path, vocab):
        path = tmp_path / "scores.tsv"
        path.write_text("# image_id\ttag\tscore\n")
        table = load_scores(path, vocab)
        assert table.images == ()
        assert table.scores.shape == (0, 3)

    def test_more_images_than_complete_ones_would_fit(self, tmp_path, vocab):
        # One line per image: the file's 90 bytes bound complete images at
        # three, and its six images outgrow that bound before the missing
        # scores are named.
        path = tmp_path / "scores.tsv"
        path.write_text("".join(f"im{i}\talpha\t0.5\n" for i in range(6)))
        message = f"{path}:0: image 'im0' lacks a score for tag 'beta'"
        for load in (load_scores, oracles.load_scores_oracle):
            with pytest.raises(FormatError) as err:
                load(path, vocab)
            assert str(err.value) == message

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_pipe_loads_as_the_file_does(self, tmp_path, vocab):
        # A pipe has no size to bound the images by.
        rng = np.random.default_rng(5)
        table = ScoreTable(tuple(f"im{i}" for i in range(40)), vocab.tags,
                           rng.normal(size=(40, 3)))
        path = tmp_path / "scores.tsv"
        save_scores(table, path)
        pipe = tmp_path / "scores.pipe"
        os.mkfifo(pipe)
        writer = threading.Thread(
            target=lambda: pipe.write_bytes(path.read_bytes()), daemon=True
        )
        writer.start()
        try:
            loaded = load_scores(pipe, vocab)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert loaded.images == table.images
        assert loaded.scores.tobytes() == table.scores.tobytes()

    def test_unknown_tag_names_line(self, tmp_path, vocab):
        path = tmp_path / "scores.tsv"
        path.write_text("im0\talpha\t0.5\nim0\twrong\t0.5\n")
        with pytest.raises(FormatError) as err:
            load_scores(path, vocab)
        assert err.value.lineno == 2
        assert "wrong" in str(err.value)

    def test_missing_cell_rejected(self, tmp_path, vocab):
        path = tmp_path / "scores.tsv"
        path.write_text("im0\talpha\t0.5\nim0\tbeta\t0.5\n")
        with pytest.raises(FormatError) as err:
            load_scores(path, vocab)
        assert "gamma" in str(err.value)

    def test_duplicate_cell_rejected(self, tmp_path, vocab):
        path = tmp_path / "scores.tsv"
        path.write_text("im0\talpha\t0.5\nim0\talpha\t0.6\n")
        with pytest.raises(FormatError) as err:
            load_scores(path, vocab)
        assert err.value.lineno == 2

    def test_non_numeric_score_rejected(self, tmp_path, vocab):
        path = tmp_path / "scores.tsv"
        path.write_text("im0\talpha\thigh\n")
        with pytest.raises(FormatError) as err:
            load_scores(path, vocab)
        assert err.value.lineno == 1

    def test_field_count_enforced(self, tmp_path, vocab):
        path = tmp_path / "scores.tsv"
        path.write_text("im0\talpha\n")
        with pytest.raises(FormatError):
            load_scores(path, vocab)

    def test_empty_image_id_rejected(self, tmp_path, vocab):
        path = tmp_path / "scores.tsv"
        path.write_text("im0\talpha\t0.5\n\talpha\t0.5\n")
        with pytest.raises(FormatError, match=r"scores\.tsv:2: empty image id"):
            load_scores(path, vocab)

    def test_double_save_is_byte_identical(self, tmp_path, vocab):
        rng = np.random.default_rng(71)
        table = ScoreTable(("im0",), vocab.tags, rng.normal(size=(1, 3)))
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        save_scores(table, a)
        save_scores(table, b)
        assert a.read_bytes() == b.read_bytes()


class TestTruthFormat:
    def test_round_trip_with_partial_coverage(self, tmp_path):
        truth = GroundTruth.from_pairs(
            [("im0", "alpha", 1), ("im0", "beta", 0), ("im1", "beta", 1)]
        )
        path = tmp_path / "truth.tsv"
        save_truth(truth, path)
        loaded = load_truth(path)
        assert loaded.images == truth.images
        assert loaded.label("im1", "alpha") is None
        assert loaded.label("im1", "beta") is True

    def test_unknown_tag_against_vocabulary(self, tmp_path, vocab):
        path = tmp_path / "truth.tsv"
        path.write_text("im0\talpha\t1\nim0\tzzz\t1\n")
        with pytest.raises(FormatError) as err:
            load_truth(path, vocab)
        assert err.value.lineno == 2

    def test_bad_label_value(self, tmp_path):
        path = tmp_path / "truth.tsv"
        path.write_text("im0\talpha\t2\n")
        with pytest.raises(FormatError) as err:
            load_truth(path)
        assert "label" in str(err.value)

    def test_duplicate_label_rejected(self, tmp_path):
        path = tmp_path / "truth.tsv"
        path.write_text("im0\talpha\t1\nim0\talpha\t0\n")
        with pytest.raises(FormatError) as err:
            load_truth(path)
        assert err.value.lineno == 2

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "truth.tsv"
        path.write_text("")
        with pytest.raises(FormatError):
            load_truth(path)

    def test_empty_truth_is_not_written(self, tmp_path):
        # Its file would hold only the header, which load_truth refuses.
        path = tmp_path / "truth.tsv"
        with pytest.raises(FormatError) as err:
            save_truth(GroundTruth((), (), np.zeros((0, 0))), path)
        assert str(err.value) == (
            f"{path}:0: ground truth holds no labels and would not read back"
        )
        assert not path.exists()

    @pytest.mark.parametrize(
        "line, message",
        [("\talpha\t1", "empty image id"), ("im1\t\t1", "empty tag")],
    )
    def test_empty_identifier_rejected(self, tmp_path, line, message):
        path = tmp_path / "truth.tsv"
        path.write_text(f"im0\talpha\t1\n{line}\n")
        with pytest.raises(FormatError, match=rf"truth\.tsv:2: {message}"):
            load_truth(path)


class TestCooccurrenceFormat:
    @staticmethod
    def stats():
        return CooccurrenceStats(
            {"alpha": 10, "beta": 5, "gamma": 0},
            {("alpha", "beta"): 3},
            100,
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "cooc.tsv"
        save_cooccurrence(self.stats(), path)
        loaded = load_cooccurrence(path)
        assert loaded.single == self.stats().single
        assert loaded.pair == self.stats().pair
        assert loaded.total == 100

    def test_missing_total_rejected(self, tmp_path):
        path = tmp_path / "cooc.tsv"
        path.write_text("1\talpha\t10\n")
        with pytest.raises(FormatError) as err:
            load_cooccurrence(path)
        assert "total" in str(err.value)

    def test_unordered_pair_rejected(self, tmp_path):
        path = tmp_path / "cooc.tsv"
        path.write_text("N\t100\n1\talpha\t10\n1\tbeta\t5\n2\tbeta\talpha\t3\n")
        with pytest.raises(FormatError) as err:
            load_cooccurrence(path)
        assert err.value.lineno == 4

    def test_unknown_row_kind(self, tmp_path):
        path = tmp_path / "cooc.tsv"
        path.write_text("3\talpha\tbeta\tgamma\t1\n")
        with pytest.raises(FormatError) as err:
            load_cooccurrence(path)
        assert err.value.lineno == 1

    def test_negative_count_rejected(self, tmp_path):
        path = tmp_path / "cooc.tsv"
        path.write_text("N\t100\n1\talpha\t-3\n")
        with pytest.raises(FormatError) as err:
            load_cooccurrence(path)
        assert err.value.lineno == 2

    def test_pair_exceeding_single_rejected_at_build(self, tmp_path):
        path = tmp_path / "cooc.tsv"
        path.write_text("N\t100\n1\talpha\t2\n1\tbeta\t5\n2\talpha\tbeta\t4\n")
        with pytest.raises(TagSelectError) as err:
            load_cooccurrence(path)
        assert isinstance(err.value, FormatError)
        assert err.value.lineno == 4

    @pytest.mark.parametrize(
        "line", ["1\t\t5", "2\t\talpha\t1", "2\talpha\t\t1"]
    )
    def test_empty_tag_rejected(self, tmp_path, line):
        path = tmp_path / "cooc.tsv"
        path.write_text(f"N\t100\n1\talpha\t10\n{line}\n")
        with pytest.raises(FormatError, match=r"cooc\.tsv:3: empty tag"):
            load_cooccurrence(path)

    def test_pair_naming_unknown_tag_rejected(self, tmp_path):
        path = tmp_path / "cooc.tsv"
        path.write_text("N\t100\n1\talpha\t10\n2\talpha\tzeta\t1\n1\tbeta\t5\n")
        with pytest.raises(FormatError, match=r"cooc\.tsv:3: .*unknown tag 'zeta'"):
            load_cooccurrence(path)

    def test_single_exceeding_total_rejected(self, tmp_path):
        path = tmp_path / "cooc.tsv"
        path.write_text("1\talpha\t10\n1\tbeta\t500\nN\t100\n")
        with pytest.raises(FormatError) as err:
            load_cooccurrence(path)
        assert err.value.lineno == 2

    def test_first_bad_row_in_file_order(self, tmp_path):
        # Pair rows may precede the singles they name; each keeps its line.
        path = tmp_path / "cooc.tsv"
        path.write_text(
            "2\talpha\tbeta\t9\n2\talpha\tzeta\t1\nN\t100\n1\talpha\t10\n1\tbeta\t5\n"
        )
        with pytest.raises(FormatError, match="exceeds one of its single counts") as err:
            load_cooccurrence(path)
        assert err.value.lineno == 1

    def test_zero_pair_rows_are_checked_but_not_kept(self, tmp_path):
        path = tmp_path / "cooc.tsv"
        path.write_text("N\t100\n1\talpha\t10\n1\tbeta\t5\n2\talpha\tbeta\t0\n")
        stats = load_cooccurrence(path)
        assert stats.pair == {}
        assert stats.pair_count("alpha", "beta") == 0
        path.write_text("N\t100\n1\talpha\t10\n2\talpha\tbeta\t0\n")
        with pytest.raises(FormatError, match="unknown tag 'beta'"):
            load_cooccurrence(path)

    def test_non_positive_total_rejected(self, tmp_path):
        path = tmp_path / "cooc.tsv"
        path.write_text("1\talpha\t0\nN\t0\n")
        with pytest.raises(FormatError) as err:
            load_cooccurrence(path)
        assert err.value.lineno == 2


class TestSelectionsFormat:
    def test_round_trip(self, tmp_path):
        result = SelectionResult(
            ("im0", "im1"),
            {
                "im0": (
                    SelectedTag("alpha", 0.75, FROM_SEEN_THRESHOLDING),
                    SelectedTag("gamma", 0.5, FROM_FALLBACK),
                ),
                "im1": (),
            },
        )
        path = tmp_path / "sel.tsv"
        save_selections(result, path)
        loaded = load_selections(path)
        assert loaded.row("im0") == result.row("im0")
        # Images with no rows are unrepresentable in the file: they vanish.
        assert loaded.images == ("im0",)

    def test_unknown_provenance_rejected(self, tmp_path):
        path = tmp_path / "sel.tsv"
        path.write_text("im0\talpha\t0.5\tby_vibes\n")
        with pytest.raises(FormatError) as err:
            load_selections(path)
        assert err.value.lineno == 1

    def test_duplicate_selection_rejected(self, tmp_path):
        path = tmp_path / "sel.tsv"
        path.write_text(
            "im0\talpha\t0.5\tfrom_fallback\nim0\talpha\t0.4\tfrom_fallback\n"
        )
        with pytest.raises(FormatError) as err:
            load_selections(path)
        assert err.value.lineno == 2

    def test_empty_image_id_rejected(self, tmp_path):
        path = tmp_path / "sel.tsv"
        path.write_text("im0\talpha\t0.5\tfrom_fallback\n\talpha\t0.5\tfrom_fallback\n")
        with pytest.raises(FormatError, match=r"sel\.tsv:2: empty image id"):
            load_selections(path)

    def test_empty_tag_rejected(self, tmp_path):
        path = tmp_path / "sel.tsv"
        path.write_text("im0\talpha\t0.5\tfrom_fallback\nim0\t\t0.5\tfrom_fallback\n")
        with pytest.raises(FormatError, match=r"sel\.tsv:2: empty tag"):
            load_selections(path)


    def test_images_keep_first_appearance_and_rows_keep_file_order(self, tmp_path):
        path = tmp_path / "sel.tsv"
        path.write_text(
            "im1\tbeta\t0.5\tfrom_seen_thresholding\n"
            "im0\talpha\t1e-3\tfrom_fallback\n"
            "# comment\n"
            "im1\talpha\t-0.0\tfrom_novel_topk\n"
        )
        loaded = load_selections(path)
        assert loaded.images == ("im1", "im0")
        assert loaded.offsets.tolist() == [0, 2, 3]
        assert [(p.tag, repr(p.score), p.provenance) for p in loaded.row("im1")] == [
            ("beta", "0.5", FROM_SEEN_THRESHOLDING),
            ("alpha", "-0.0", FROM_NOVEL_TOPK),
        ]
        assert loaded.tags("im0") == ("alpha",)
        out = tmp_path / "out.tsv"
        save_selections(loaded, out)
        assert out.read_text().splitlines()[1:] == [
            "im1\tbeta\t0.5\tfrom_seen_thresholding",
            "im1\talpha\t-0.0\tfrom_novel_topk",
            "im0\talpha\t0.001\tfrom_fallback",
        ]

    def test_empty_file_gives_no_images(self, tmp_path):
        path = tmp_path / "sel.tsv"
        path.write_text("# image_id\ttag\tscore\tprovenance\n")
        loaded = load_selections(path)
        assert loaded.images == () and loaded.offsets.tolist() == [0]


class TestWriters:
    """Every writer reports an output path it cannot open as a data error,
    before writing anything, as the readers do for their inputs."""

    @pytest.mark.parametrize("kind, save, make", [
        ("vocabulary", save_vocabulary, lambda vocab: vocab),
        ("scores", save_scores,
         lambda vocab: ScoreTable(("im0",), vocab.tags, np.array([[0.5, 0.25, 1.0]]))),
        ("truth", save_truth, lambda vocab: GroundTruth.from_pairs([("im0", "alpha", 1)])),
        ("co-occurrence", save_cooccurrence, lambda vocab: TestCooccurrenceFormat.stats()),
        ("selections", save_selections,
         lambda vocab: SelectionResult(("im0",), {"im0": ()})),
        ("thresholds", save_thresholds, lambda vocab: TestThresholdsFormat.model(vocab)),
        ("report", save_report, lambda vocab: {"mf": 0.5}),
    ])
    def test_missing_directory_is_a_data_error(self, tmp_path, vocab, kind, save, make):
        path = tmp_path / "nosuchdir" / "out"
        with pytest.raises(TagSelectError) as err:
            save(make(vocab), path)
        assert type(err.value) is TagSelectError
        assert str(err.value) == (
            f"cannot write {kind} file {str(path)!r}: "
            f"[Errno 2] No such file or directory: {str(path)!r}"
        )
        assert not path.parent.exists()

    # Each writer's first field, holding an id that starts with '#': every
    # loader would skip its line as a comment.
    @pytest.mark.parametrize("save, make, kind, bad", [
        (save_vocabulary, lambda: Vocabulary.from_partition(["a", "#s"], ["#n"]), "tag", "#s"),
        (save_scores, lambda: ScoreTable(("im0", "#img"), ("a",), np.zeros((2, 1))),
         "image id", "#img"),
        (save_truth, lambda: GroundTruth.from_pairs([("im0", "a", 1), ("#img", "#a", 0)]),
         "image id", "#img"),
        (save_selections,
         lambda: SelectionResult(("#img",), {"#img": [SelectedTag("a", 0.5, FROM_FALLBACK)]}),
         "image id", "#img"),
        (save_thresholds, lambda: ThresholdModel(
            tau={"#s": 0.5}, stats=TagStats(("a", "#s"), np.zeros(2), np.zeros(2))
        ), "tag", "#s"),
    ])
    def test_first_field_id_starting_with_hash_is_refused(self, tmp_path, save, make, kind, bad):
        path = tmp_path / "out.tsv"
        with pytest.raises(FormatError) as err:
            save(make(), path)
        assert str(err.value) == (
            f"{path}:0: {kind} {bad!r} starts with '#' and would read back as a comment"
        )
        assert not path.exists()

    def test_hash_in_a_later_field_is_written(self, tmp_path):
        truth = GroundTruth.from_pairs([("im0", "#a", 1)])
        save_truth(truth, tmp_path / "truth.tsv")
        assert load_truth(tmp_path / "truth.tsv").coverage == ("#a",)


class TestFloatText:
    """Every float a writer emits is ``repr`` of a Python float: the
    shortest text that reads back to the same double."""

    # The sign of zero, the least subnormal, a sum off its decimal, and a
    # value that repr writes in exponent form.
    @pytest.mark.parametrize("x", [-0.0, 5e-324, 0.1 + 0.2, 1e22], ids=repr)
    def test_every_float_field_is_repr_of_float(self, tmp_path, vocab, x):
        scores, selections, thresholds = (tmp_path / n for n in ("s.tsv", "sel.tsv", "t.tsv"))
        save_scores(ScoreTable(("im0",), vocab.tags, np.full((1, 3), x)), scores)
        picks = {"im0": [SelectedTag("alpha", x, FROM_FALLBACK)]}
        save_selections(SelectionResult(("im0",), picks), selections)
        # Under numpy 2, repr of a np.float64 is "np.float64(...)".
        stats = TagStats(vocab.tags, np.full(3, x), np.full(3, x))
        model = ThresholdModel(tau={"alpha": np.float64(x)}, stats=stats, lsq_coeffs=(x, x, x))
        save_thresholds(model, thresholds)

        def rows(path):
            return [line.split("\t") for line in path.read_text().splitlines()
                    if not line.startswith("#")]

        fields = (
            [f[2] for f in rows(scores)]
            + [f[2] for f in rows(selections)]
            + [v for f in rows(thresholds) for v in f[1:] if v != "-"]
        )
        # 3 scores, 1 selection, the lsq row's 3, alpha's tau/mu/sigma and
        # the mu/sigma of beta and gamma.
        assert len(fields) == 3 + 1 + 3 + 3 + 2 * 2
        assert set(fields) == {repr(float(x))}


class TestThresholdsFormat:
    @staticmethod
    def model(vocab, coeffs=(0.9, 1.1)):
        stats = TagStats(
            vocab.tags, np.array([0.2, 0.3, 0.4]), np.array([0.05, 0.0, 0.15])
        )
        return ThresholdModel(
            tau={"alpha": 0.61},
            stats=stats,
            lsq_coeffs=coeffs,
            untrainable=("beta",),
        )

    def test_round_trip(self, tmp_path, vocab):
        model = self.model(vocab)
        path = tmp_path / "thr.tsv"
        save_thresholds(model, path)
        loaded = load_thresholds(path, vocab)
        assert loaded.tau == model.tau
        assert loaded.untrainable == ("beta",)
        assert loaded.lsq_coeffs == model.lsq_coeffs
        assert np.array_equal(loaded.stats.mu, model.stats.mu)
        assert np.array_equal(loaded.stats.sigma, model.stats.sigma)

    def test_round_trip_without_coeffs(self, tmp_path, vocab):
        model = self.model(vocab, coeffs=None)
        path = tmp_path / "thr.tsv"
        save_thresholds(model, path)
        assert load_thresholds(path, vocab).lsq_coeffs is None

    def test_intercept_coeffs_round_trip(self, tmp_path, vocab):
        model = self.model(vocab, coeffs=(0.9, 1.1, -0.05))
        path = tmp_path / "thr.tsv"
        save_thresholds(model, path)
        assert load_thresholds(path, vocab).lsq_coeffs == (0.9, 1.1, -0.05)

    def test_coverage_must_match_vocabulary(self, tmp_path, vocab):
        path = tmp_path / "thr.tsv"
        path.write_text("alpha\t0.5\t0.2\t0.1\n")
        with pytest.raises(FormatError):
            load_thresholds(path, vocab)

    def test_duplicate_tag_rejected(self, tmp_path, vocab):
        path = tmp_path / "thr.tsv"
        path.write_text(
            "alpha\t0.5\t0.2\t0.1\nalpha\t0.6\t0.2\t0.1\n"
        )
        with pytest.raises(FormatError) as err:
            load_thresholds(path, vocab)
        assert err.value.lineno == 2

    def test_duplicate_coefficient_row_rejected(self, tmp_path, vocab):
        path = tmp_path / "thr.tsv"
        path.write_text("lsq\t1.0\t1.0\nlsq\t2.0\t2.0\n")
        with pytest.raises(FormatError) as err:
            load_thresholds(path, vocab)
        assert err.value.lineno == 2

    @pytest.mark.parametrize(
        "line",
        [
            "alpha\tnan\t0.2\t0.1",
            "alpha\tinf\t0.2\t0.1",
            "alpha\t0.5\t-inf\t0.1",
            "alpha\t0.5\t0.2\tnan",
            "lsq\t0.9\tinf",
            "lsq\t0.9\t1.1\tnan",
        ],
    )
    def test_non_finite_value_rejected(self, tmp_path, vocab, line):
        path = tmp_path / "thr.tsv"
        path.write_text(f"beta\t-\t0.3\t0.0\n{line}\ngamma\t-\t0.4\t0.1\n")
        with pytest.raises(FormatError, match=r"thr\.tsv:2: not a finite number"):
            load_thresholds(path, vocab)

    def test_threshold_on_novel_tag_rejected(self, tmp_path, vocab):
        path = tmp_path / "thr.tsv"
        path.write_text("alpha\t0.5\t0.2\t0.1\nbeta\t-\t0.3\t0.0\ngamma\t0.4\t0.4\t0.1\n")
        with pytest.raises(FormatError, match=r"thr\.tsv:3: threshold given for 'gamma'"):
            load_thresholds(path, vocab)

    def test_reserved_tag_name_refused_on_save(self, tmp_path):
        vocab = Vocabulary.from_partition(["lsq"], ["other"])
        stats = TagStats(vocab.tags, np.zeros(2), np.zeros(2))
        model = ThresholdModel(tau={}, stats=stats)
        path = tmp_path / "thr.tsv"
        with pytest.raises(FormatError) as err:
            save_thresholds(model, path)
        assert str(err.value) == f"{path}:0: the tag name 'lsq' is reserved in this format"
        assert not path.exists()

    def test_non_finite_statistics_refused_on_save(self, tmp_path):
        # load_thresholds would refuse the inf that repr writes.
        stats = TagStats(("a", "b"), np.array([0.0, np.inf]), np.array([1.0, np.inf]))
        path = tmp_path / "thr.tsv"
        with pytest.raises(TagSelectError) as err:
            save_thresholds(ThresholdModel(tau={}, stats=stats), path)
        assert str(err.value) == "score statistics of tag 'b' are not finite: mu inf, sigma inf"
        assert not path.exists()


class TestReportFormat:
    def test_round_trip_sorted_and_indented(self, tmp_path):
        path = tmp_path / "report.json"
        save_report({"b": 1, "a": [1.5, 2.5]}, path)
        text = path.read_text()
        # Keys are sorted, output is indented, file ends with a newline.
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")
        assert load_report(path) == {"b": 1, "a": [1.5, 2.5]}

    def test_objects_with_to_dict_are_unwrapped(self, tmp_path):
        class Boxed:
            def to_dict(self):
                return {"value": 3}

        path = tmp_path / "report.json"
        save_report(Boxed(), path)
        assert load_report(path) == {"value": 3}


class TestErrorMessage:
    def test_format_error_carries_location(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("alpha\tseen\nbeta\n")
        with pytest.raises(FormatError) as err:
            load_vocabulary(path)
        assert err.value.lineno == 2
        assert str(path) in str(err.value)
        assert err.value.category == "format"


# One valid file per loader, then one corrupted line per rejection rule.
VALID = {
    "vocabulary": "# tag\tseen|novel\nalpha\tseen\nbeta\tseen\ngamma\tnovel\n",
    "scores": (
        "# image_id\ttag\tscore\n"
        "x1\talpha\t0.9\nx1\tbeta\t0.2\nx1\tgamma\t0.5\n"
        "x2\talpha\t0.1\nx2\tbeta\t0.7\nx2\tgamma\t0.3\n"
    ),
    "truth": "# image_id\ttag\t0|1\nx1\talpha\t1\nx1\tbeta\t0\nx2\tgamma\t1\n",
    "cooccurrence": (
        "# 1\ttag\tcount | 2\ttag_a\ttag_b\tcount | N\tcount\n"
        "N\t10\n1\talpha\t5\n1\tbeta\t4\n1\tgamma\t3\n2\talpha\tbeta\t2\n2\talpha\tgamma\t1\n"
    ),
    "selections": (
        "# image_id\ttag\tscore\tprovenance\n"
        "x1\talpha\t0.9\tfrom_seen_thresholding\n"
        "x1\tgamma\t0.5\tfrom_novel_topk\n"
        "x2\tbeta\t0.7\tfrom_fallback\n"
    ),
    "thresholds": (
        "# tag\ttau\tmu\tsigma\n"
        "lsq\t0.9\t1.1\nalpha\t0.61\t0.2\t0.05\nbeta\t-\t0.3\t0.0\ngamma\t-\t0.4\t0.15\n"
    ),
}
LOADERS = {
    "vocabulary": lambda path, vocab: load_vocabulary(path),
    "scores": load_scores,
    "truth": load_truth,
    "cooccurrence": lambda path, vocab: load_cooccurrence(path),
    "selections": lambda path, vocab: load_selections(path),
    "thresholds": load_thresholds,
}
# Commenting a line out drops it, which file-level checks report at line 0.
CASE_FIELDS = "kind, line, text, lineno, message"
REJECTIONS = [
    ("vocabulary", 3, "\tseen", 3, "empty tag"),
    ("vocabulary", 2, "alpha", 2, "expected 2 tab-separated fields, got 1"),
    ("vocabulary", 4, "gamma\tboth", 4, "partition must be 'seen' or 'novel', got 'both'"),
    ("vocabulary", 3, "alpha\tnovel", 3, "duplicate tag 'alpha'"),
    ("scores", 3, "\tbeta\t0.2", 3, "empty image id"),
    ("scores", 2, "x1\talpha", 2, "expected 3 tab-separated fields, got 2"),
    ("scores", 4, "x1\tdelta\t0.5", 4, "unknown tag 'delta'"),
    ("scores", 5, "x2\talpha\tlow", 5, "not a number: 'low'"),
    ("scores", 3, "x1\talpha\t0.4", 3, "duplicate score for ('x1', 'alpha')"),
    ("scores", 6, "# x2\tbeta\t0.7", 0, "image 'x2' lacks a score for tag 'beta'"),
    ("truth", 2, "\talpha\t1", 2, "empty image id"),
    ("truth", 3, "x1\tbeta", 3, "expected 3 tab-separated fields, got 2"),
    ("truth", 3, "x1\t\t0", 3, "empty tag"),
    ("truth", 4, "x2\tdelta\t1", 4, "unknown tag 'delta'"),
    ("truth", 4, "x2\tgamma\t2", 4, "label must be 0 or 1, got '2'"),
    ("truth", 3, "x1\talpha\t0", 3, "duplicate label for ('x1', 'alpha')"),
    ("cooccurrence", 6, "2\talpha\tbeta\t9", 6,
     "pair count for ('alpha', 'beta') exceeds one of its single counts"),
    ("cooccurrence", 3, "3\talpha\t5", 3, "unknown row kind '3' (need 1, 2 or N)"),
    ("cooccurrence", 3, "1\talpha", 3, "expected 3 tab-separated fields, got 2"),
    ("cooccurrence", 3, "1\talpha\tfive", 3, "not an integer: 'five'"),
    ("cooccurrence", 4, "1\tbeta\t-4", 4, "count must be non-negative: '-4'"),
    ("cooccurrence", 4, "1\t\t4", 4, "empty tag"),
    ("cooccurrence", 4, "1\talpha\t4", 4, "duplicate singleton count for 'alpha'"),
    ("cooccurrence", 6, "2\t\tbeta\t2", 6, "empty tag"),
    ("cooccurrence", 6, "2\tbeta\talpha\t2", 6,
     "pair rows need tag_a < tag_b, got 'beta', 'alpha'"),
    ("cooccurrence", 7, "2\talpha\tbeta\t1", 7, "duplicate pair count for ('alpha', 'beta')"),
    ("cooccurrence", 7, "2\talpha\tdelta\t1", 7, "pair count references unknown tag 'delta'"),
    ("cooccurrence", 3, "1\talpha\t11", 3,
     "occurrence count for 'alpha' exceeds collection size 10"),
    ("cooccurrence", 2, "N\t0", 2, "collection size must be in [1, 2**63), got 0"),
    ("cooccurrence", 3, "N\t10", 3, "duplicate total row"),
    ("cooccurrence", 2, "# N\t10", 0, "missing total row 'N<TAB>count'"),
    ("selections", 3, "x1\t\t0.5\tfrom_novel_topk", 3, "empty tag"),
    ("selections", 2, "x1\talpha\t0.9", 2, "expected 4 tab-separated fields, got 3"),
    ("selections", 4, "\tbeta\t0.7\tfrom_fallback", 4, "empty image id"),
    ("selections", 4, "x2\tbeta\t0.7\tguessed", 4, "unknown provenance 'guessed'"),
    ("selections", 4, "x2\tbeta\thigh\tfrom_fallback", 4, "not a number: 'high'"),
    ("selections", 3, "x1\talpha\t0.5\tfrom_novel_topk", 3, "duplicate selection ('x1', 'alpha')"),
    ("thresholds", 4, "beta\t-\t0.3\t-0.1", 4, "negative standard deviation: '-0.1'"),
    ("thresholds", 5, "\t-\t0.4\t0.15", 5, "unknown tag ''"),
    ("thresholds", 5, "delta\t-\t0.4\t0.15", 5, "unknown tag 'delta'"),
    ("thresholds", 2, "lsq\t0.9", 2, "coefficient row needs 2 or 3 values"),
    ("thresholds", 3, "lsq\t0.9\t1.1", 3, "duplicate coefficient row"),
    ("thresholds", 2, "lsq\t0.9\tinf", 2, "not a finite number: 'inf'"),
    ("thresholds", 3, "alpha\t0.61\t0.2", 3, "expected 4 tab-separated fields, got 3"),
    ("thresholds", 4, "alpha\t-\t0.3\t0.0", 4, "duplicate tag 'alpha'"),
    ("thresholds", 3, "alpha\tmid\t0.2\t0.05", 3, "not a number: 'mid'"),
    ("thresholds", 3, "alpha\t0.61\tnan\t0.05", 3, "not a finite number: 'nan'"),
    ("thresholds", 5, "gamma\t0.5\t0.4\t0.15", 5, "threshold given for 'gamma', not a seen tag"),
    ("thresholds", 5, "# gamma\t-\t0.4\t0.15", 0,
     "threshold statistics do not cover the vocabulary"),
]
# The first case of each file also runs through a command that reads it.
CLI_ARGS = {
    "vocabulary": ["validate", "--vocab", "{vocabulary}", "--scores", "{scores}"],
    "scores": ["validate", "--vocab", "{vocabulary}", "--scores", "{scores}"],
    "truth": ["validate", "--vocab", "{vocabulary}", "--scores", "{scores}", "--truth", "{truth}"],
    "cooccurrence": [
        "refine", "--vocab", "{vocabulary}", "--scores", "{scores}",
        "--thresholds", "{thresholds}", "--cooccurrence", "{cooccurrence}", "--out", "{out}",
    ],
    "selections": [
        "evaluate", "--vocab", "{vocabulary}", "--scores", "{scores}", "--truth", "{truth}",
        "--selections", "{selections}", "--out", "{out}",
    ],
    "thresholds": [
        "select", "--vocab", "{vocabulary}", "--scores", "{scores}", "--strategy", "adaptive",
        "--thresholds", "{thresholds}", "--out", "{out}",
    ],
}
CLI_CASES = [next(case for case in REJECTIONS if case[0] == kind) for kind in CLI_ARGS]


def case_ids(cases) -> list[str]:
    return [f"{kind}: {message}" for kind, *_, message in cases]


def corrupted_files(tmp_path, kind, line, text) -> dict[str, str]:
    """Every valid file, with ``line`` of the ``kind`` file replaced by ``text``."""
    paths = {"out": str(tmp_path / "out")}
    for name, content in VALID.items():
        lines = content.splitlines()
        if name == kind:
            lines[line - 1] = text
        paths[name] = str(tmp_path / f"{name}.tsv")
        (tmp_path / f"{name}.tsv").write_text("\n".join(lines) + "\n")
    return paths


class TestLoaderRejections:
    def test_valid_files_load(self, tmp_path, vocab):
        paths = corrupted_files(tmp_path, None, 0, "")
        for kind, load in LOADERS.items():
            load(paths[kind], vocab)

    @pytest.mark.parametrize(CASE_FIELDS, REJECTIONS, ids=case_ids(REJECTIONS))
    def test_corrupt_line_is_named(self, tmp_path, vocab, kind, line, text, lineno, message):
        path = corrupted_files(tmp_path, kind, line, text)[kind]
        with pytest.raises(FormatError) as err:
            LOADERS[kind](path, vocab)
        assert err.value.lineno == lineno
        assert str(err.value) == f"{path}:{lineno}: {message}"

    @pytest.mark.parametrize(CASE_FIELDS, CLI_CASES, ids=case_ids(CLI_CASES))
    def test_cli_exits_with_file_and_line(
        self, tmp_path, capsys, kind, line, text, lineno, message
    ):
        paths = corrupted_files(tmp_path, kind, line, text)
        assert main([arg.format(**paths) for arg in CLI_ARGS[kind]]) == 1
        assert capsys.readouterr().err.startswith(f"error[format]: {paths[kind]}:{lineno}:")
