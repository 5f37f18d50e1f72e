"""TSV and JSON round-trips, parse errors with line numbers, and the
byte-determinism of writers."""

import numpy as np
import pytest

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
from tagselect.core import FROM_FALLBACK, FROM_SEEN_THRESHOLDING
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
        with pytest.raises(TagSelectError):
            load_cooccurrence(path)


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
        with pytest.raises(FormatError):
            save_thresholds(model, tmp_path / "thr.tsv")


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
