"""End-to-end command-line workflows on a tiny generated benchmark."""

import json
import warnings

import numpy as np
import pytest

import oracles
from tagselect import (
    STRATEGY_NAMES,
    GroundTruth,
    StrategySpec,
    SyntheticSpec,
    TagSelectError,
    compare,
    evaluate,
    formats,
    rank_tags,
    run_strategy,
    similarity_matrix,
)
from tagselect import cli
from tagselect.cli import _config_args, main
from tagselect.selection import refine_table
from test_similarity import dense_builds

BENCH_ARGS = [
    "--n-images", "30",
    "--n-train", "40",
    "--n-seen", "8",
    "--n-novel", "6",
    "--count-min", "2",
    "--count-max", "5",
    "--noise-std", "0.2",
]


@pytest.fixture
def bench_dir(tmp_path):
    out = tmp_path / "bench"
    assert main(["gen-synth", "--out-dir", str(out), "--seed", "4", *BENCH_ARGS]) == 0
    return out


def run(*argv):
    return main([str(a) for a in argv])


@pytest.mark.parametrize("n_images", [50, 1000])
def test_report_refined_selection_equals_selection_on_refined_table(tmp_path, n_images):
    # 400 tags.  The refined select and refine compute only the similarity
    # block of the 200 novel tags against the learned seen tags.  At 50 eval
    # images four novel tags (novel_000, novel_005, novel_150, novel_152)
    # have no co-occurrence counts, so zero rows reach the block kernel; at
    # 1,000 every tag has counts, and refinement runs in four row blocks of
    # 327 images.  Refining while selecting, with the refined scores
    # reported, and selecting on the refined table without refining again
    # choose on the same scores: the two files must be byte-identical.
    bench = tmp_path / "bench"
    assert run("gen-synth", "--out-dir", bench, "--seed", 1, "--n-images", n_images,
               "--n-train", 100, "--n-seen", 200, "--n-novel", 200) == 0
    vocab = ["--vocab", bench / "vocabulary.tsv"]
    model = ["--thresholds", tmp_path / "thresholds.tsv",
             "--cooccurrence", bench / "cooccurrence.tsv"]
    assert run("learn-thresholds", *vocab, "--scores", bench / "train_scores.tsv",
               "--truth", bench / "train_truth.tsv", "--out", tmp_path / "thresholds.tsv") == 0
    assert run("select", *vocab, "--scores", bench / "eval_scores.tsv", "--strategy",
               "adaptive", *model, "--refine", "--out", tmp_path / "selections.tsv") == 0
    assert run("refine", *vocab, "--scores", bench / "eval_scores.tsv", *model,
               "--out", tmp_path / "refined.tsv") == 0
    assert run("select", *vocab, "--scores", bench / "eval_scores.tsv", "--strategy",
               "adaptive", *model, "--refine", "--report-refined",
               "--out", tmp_path / "reported.tsv") == 0
    assert run("select", *vocab, "--scores", tmp_path / "refined.tsv", "--strategy",
               "adaptive", "--thresholds", tmp_path / "thresholds.tsv",
               "--out", tmp_path / "on_refined.tsv") == 0
    reported = (tmp_path / "reported.tsv").read_bytes()
    assert reported == (tmp_path / "on_refined.tsv").read_bytes()


class TestGenSynth:
    def test_writes_all_files(self, bench_dir):
        names = {p.name for p in bench_dir.iterdir()}
        assert names == {
            "vocabulary.tsv",
            "train_scores.tsv",
            "train_truth.tsv",
            "eval_scores.tsv",
            "eval_truth.tsv",
            "cooccurrence.tsv",
        }


class TestLibraryDefaults:
    """An option left out reaches no library call, so the library's own
    default applies; a given value reaches the library's checks, zero too."""

    @pytest.fixture
    def gen_synth_specs(self, monkeypatch):
        specs = []

        def generate(spec, seed):
            specs.append((spec, seed))
            raise TagSelectError("stop before writing")

        monkeypatch.setattr(cli, "generate_synthetic", generate)
        return specs

    def test_gen_synth_without_size_options_uses_the_spec_defaults(
        self, gen_synth_specs, tmp_path
    ):
        assert run("gen-synth", "--out-dir", tmp_path / "bench") == 1
        assert gen_synth_specs == [(SyntheticSpec(), 0)]

    def test_gen_synth_passes_the_given_size_options(self, gen_synth_specs, tmp_path):
        assert run("gen-synth", "--out-dir", tmp_path / "b", "--seed", "3", *BENCH_ARGS) == 1
        assert gen_synth_specs == [(
            SyntheticSpec(
                n_images=30, n_train=40, n_seen=8, n_novel=6,
                count_min=2, count_max=5, noise_std=0.2,
            ),
            3,
        )]

    def test_compare_strategies_without_knobs(self, bench_dir, tmp_path):
        thresholds = tmp_path / "thr.tsv"
        assert run(
            "learn-thresholds",
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bench_dir / "train_scores.tsv",
            "--truth", bench_dir / "train_truth.tsv",
            "--out", thresholds,
        ) == 0
        out = tmp_path / "compare.json"
        code = run(
            "compare",
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bench_dir / "eval_scores.tsv",
            "--truth", bench_dir / "eval_truth.tsv",
            "--thresholds", thresholds,
            "--strategies", " top_k, adaptive,",
            "--out", out,
        )
        assert code == 0
        rows = json.loads(out.read_text())["rows"]
        assert [r["label"] for r in rows] == ["top_5", "adaptive"]
        for row in rows:
            spec = StrategySpec(row["strategy"])
            assert (row["k"], row["w"], row["refine"]) == (spec.k, spec.w, spec.refine)

    def test_zero_k_reaches_the_library_check(self, bench_dir, tmp_path, capsys):
        code = run(
            "select",
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bench_dir / "eval_scores.tsv",
            "--strategy", "top_k",
            "--k", "0",
            "--out", tmp_path / "sel.tsv",
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error[data]: fallback_k must be a positive integer, got 0\n"
        )

    def test_zero_w_reaches_the_library(self, bench_dir, tmp_path):
        thresholds = tmp_path / "thr.tsv"
        assert run(
            "learn-thresholds",
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bench_dir / "train_scores.tsv",
            "--truth", bench_dir / "train_truth.tsv",
            "--out", thresholds,
        ) == 0
        out = tmp_path / "compare.json"
        code = run(
            "compare",
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bench_dir / "eval_scores.tsv",
            "--truth", bench_dir / "eval_truth.tsv",
            "--thresholds", thresholds,
            "--cooccurrence", bench_dir / "cooccurrence.tsv",
            "--strategies", "adaptive",
            "--refine",
            "--w", "0",
            "--out", out,
        )
        assert code == 0
        [row] = json.loads(out.read_text())["rows"]
        assert (row["label"], row["w"]) == ("adaptive_refined_w0", 0.0)


class TestEmptyOptionValues:
    """An option given as the empty string is used, not taken for absent."""

    @pytest.mark.parametrize(
        "command, option, message",
        [
            ("validate", "--truth", "cannot read truth file"),
            ("select", "--thresholds", "cannot read thresholds file"),
            ("select", "--cooccurrence", "cannot read co-occurrence file"),
            ("compare", "--strategies", "compare needs at least one strategy"),
        ],
    )
    def test_empty_value_is_not_ignored(
        self, bench_dir, tmp_path, capsys, command, option, message
    ):
        extra = {
            "validate": [],
            "select": ["--strategy", "top_k", "--out", tmp_path / "out"],
            "compare": ["--truth", bench_dir / "eval_truth.tsv", "--out", tmp_path / "out"],
        }[command]
        code = run(
            command,
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bench_dir / "eval_scores.tsv",
            *extra,
            option, "",
        )
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error[data]: {message}")
        assert not (tmp_path / "out").exists()

    def test_empty_model_out_is_not_ignored(self, bench_dir, tmp_path, capsys):
        code = run(
            "fuse",
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bench_dir / "train_scores.tsv",
            "--scores", bench_dir / "train_scores.tsv",
            "--learn",
            "--truth", bench_dir / "train_truth.tsv",
            "--max-sweeps", "1",
            "--model-out", "",
            "--out", tmp_path / "out",
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error[data]: cannot write report file '': "
            "[Errno 2] No such file or directory: ''\n"
        )
        assert not (tmp_path / "out").exists()


class TestValidate:
    def test_consistent_benchmark_is_ok(self, bench_dir, capsys):
        code = run(
            "validate",
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bench_dir / "eval_scores.tsv",
            "--truth", bench_dir / "eval_truth.tsv",
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_nan_score_is_reported(self, bench_dir, capsys):
        scores = bench_dir / "eval_scores.tsv"
        lines = scores.read_text().splitlines()
        first = lines[1].split("\t")
        lines[1] = "\t".join([first[0], first[1], "nan"])
        scores.write_text("\n".join(lines) + "\n")
        code = run(
            "validate",
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", scores,
        )
        assert code == 1
        out, err = capsys.readouterr()
        assert "non-finite score" in out
        assert "error[data]" in err

    def test_malformed_file_exits_with_format_error(self, bench_dir, capsys):
        bad = bench_dir / "broken.tsv"
        bad.write_text("just one field\n")
        code = run(
            "validate",
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bad,
        )
        assert code == 1
        assert "error[format]" in capsys.readouterr().err

    def test_empty_image_id_is_a_format_error(self, bench_dir, capsys):
        scores = bench_dir / "eval_scores.tsv"
        lines = scores.read_text().splitlines()
        lines[1] = "\t".join(["", *lines[1].split("\t")[1:]])
        scores.write_text("\n".join(lines) + "\n")
        code = run("validate", "--vocab", bench_dir / "vocabulary.tsv", "--scores", scores)
        assert code == 1
        assert f"error[format]: {scores}:2: empty image id" in capsys.readouterr().err

    def test_undecodable_file_is_a_format_error_naming_the_line(self, bench_dir, capsys):
        scores = bench_dir / "eval_scores.tsv"
        lines = scores.read_bytes().split(b"\n")
        lines[2] = b"\xff" + lines[2]
        scores.write_bytes(b"\n".join(lines))
        code = run("validate", "--vocab", bench_dir / "vocabulary.tsv", "--scores", scores)
        assert code == 1
        assert capsys.readouterr().err == (
            f"error[format]: {scores}:3: not valid UTF-8 (byte 0xff: invalid start byte)\n"
        )

    def test_unreadable_file_is_reported_without_a_traceback(self, bench_dir, tmp_path, capsys):
        missing = tmp_path / "nosuch.tsv"
        code = run("validate", "--vocab", bench_dir / "vocabulary.tsv", "--scores", missing)
        assert code == 1
        assert capsys.readouterr().err == (
            f"error[data]: cannot read scores file {str(missing)!r}: "
            f"[Errno 2] No such file or directory: {str(missing)!r}\n"
        )


class TestPipeline:
    def test_learn_select_evaluate_compare(self, bench_dir, tmp_path, capsys):
        thresholds = tmp_path / "thresholds.tsv"
        code = run(
            "learn-thresholds",
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bench_dir / "train_scores.tsv",
            "--truth", bench_dir / "train_truth.tsv",
            "--out", thresholds,
        )
        assert code == 0
        assert thresholds.exists()

        selections = tmp_path / "selections.tsv"
        code = run(
            "select",
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bench_dir / "eval_scores.tsv",
            "--strategy", "adaptive",
            "--thresholds", thresholds,
            "--out", selections,
        )
        assert code == 0

        report = tmp_path / "eval.json"
        code = run(
            "evaluate",
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bench_dir / "eval_scores.tsv",
            "--truth", bench_dir / "eval_truth.tsv",
            "--selections", selections,
            "--out", report,
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert 0.0 <= payload["mf"] <= 1.0
        assert payload["n_included"] == 30

        comparison = tmp_path / "compare.json"
        code = run(
            "compare",
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bench_dir / "eval_scores.tsv",
            "--truth", bench_dir / "eval_truth.tsv",
            "--thresholds", thresholds,
            "--cooccurrence", bench_dir / "cooccurrence.tsv",
            "--out", comparison,
            "--text",
        )
        assert code == 0
        rows = json.loads(comparison.read_text())["rows"]
        assert [r["strategy"] for r in rows] == [
            "top_k",
            "mu_sigma",
            "lsq",
            "hybrid_tau_musigma",
            "hybrid_tau_lsq",
            "adaptive",
        ]
        table = capsys.readouterr().out
        assert "adaptive" in table

    def test_every_strategy_round_trip_equals_compare(self, tmp_path):
        # Seed 2 at 100 images gives every threshold strategy some image with
        # an empty selection, which the selections file has no row for.
        bench = tmp_path / "bench"
        args = [*BENCH_ARGS[2:], "--n-images", "100"]
        assert run("gen-synth", "--out-dir", bench, "--seed", 2, *args) == 0
        io = [
            "--vocab", bench / "vocabulary.tsv",
            "--scores", bench / "eval_scores.tsv",
        ]
        truth = ["--truth", bench / "eval_truth.tsv"]
        thresholds = tmp_path / "thresholds.tsv"
        assert run(
            "learn-thresholds",
            "--vocab", bench / "vocabulary.tsv",
            "--scores", bench / "train_scores.tsv",
            "--truth", bench / "train_truth.tsv",
            "--out", thresholds,
        ) == 0
        comparison = tmp_path / "compare.json"
        assert run("compare", *io, *truth, "--thresholds", thresholds, "--out", comparison) == 0
        rows = {r["strategy"]: r for r in json.loads(comparison.read_text())["rows"]}
        assert set(rows) == set(STRATEGY_NAMES)
        missing_rows = 0
        for name in STRATEGY_NAMES:
            selections = tmp_path / f"{name}.tsv"
            assert run(
                "select", *io, "--strategy", name, "--thresholds", thresholds,
                "--out", selections,
            ) == 0
            lines = selections.read_text().splitlines()[1:]
            missing_rows += 100 - len({line.split("\t")[0] for line in lines})
            report = tmp_path / f"{name}.json"
            assert run("evaluate", *io, *truth, "--selections", selections, "--out", report) == 0
            got = json.loads(report.read_text())
            want = rows[name]
            assert (repr(got["mf"]), repr(got["map"])) == (repr(want["mf"]), repr(want["map"]))
            assert got["n_excluded"] == want["n_excluded"]
            assert got["n_included"] + got["n_excluded"] == 100
        assert missing_rows > 0

    def test_evaluate_rejects_selection_for_unscored_image(self, bench_dir, tmp_path, capsys):
        selections = tmp_path / "selections.tsv"
        selections.write_text("# image_id\ttag\tscore\tprovenance\nghost\tt0\t0.5\tfrom_fallback\n")
        code = run(
            "evaluate",
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bench_dir / "eval_scores.tsv",
            "--truth", bench_dir / "eval_truth.tsv",
            "--selections", selections,
            "--out", tmp_path / "eval.json",
        )
        assert code == 1
        assert "'ghost'" in capsys.readouterr().err

    def test_evaluate_rejects_selection_of_unknown_tag(self, bench_dir, tmp_path, capsys):
        image = formats.load_scores(
            bench_dir / "eval_scores.tsv", formats.load_vocabulary(bench_dir / "vocabulary.tsv")
        ).images[3]
        selections = tmp_path / "selections.tsv"
        selections.write_text(f"{image}\tnot_a_tag\t0.5\tfrom_fallback\n")
        code = run(
            "evaluate",
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bench_dir / "eval_scores.tsv",
            "--truth", bench_dir / "eval_truth.tsv",
            "--selections", selections,
            "--out", tmp_path / "eval.json",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"error[data]: selections give image {image!r} the unknown tag 'not_a_tag'" in err

    def test_refine_rewrites_novel_columns(self, bench_dir, tmp_path):
        thresholds = tmp_path / "thresholds.tsv"
        run(
            "learn-thresholds",
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bench_dir / "train_scores.tsv",
            "--truth", bench_dir / "train_truth.tsv",
            "--out", thresholds,
        )
        refined = tmp_path / "refined.tsv"
        code = run(
            "refine",
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bench_dir / "eval_scores.tsv",
            "--thresholds", thresholds,
            "--cooccurrence", bench_dir / "cooccurrence.tsv",
            "--w", "0.5",
            "--out", refined,
        )
        assert code == 0
        # Seen columns are untouched.
        original = {
            tuple(l.split("\t")[:2]): l.split("\t")[2]
            for l in (bench_dir / "eval_scores.tsv").read_text().splitlines()
            if not l.startswith("#")
        }
        rewritten = {
            tuple(l.split("\t")[:2]): l.split("\t")[2]
            for l in refined.read_text().splitlines()
            if not l.startswith("#")
        }
        assert all(
            rewritten[key] == value
            for key, value in original.items()
            if key[1].startswith("seen_")
        )
        assert any(
            rewritten[key] != value
            for key, value in original.items()
            if key[1].startswith("novel_")
        )

    def test_refine_output_matches_oracle(self, bench_dir, tmp_path):
        thresholds = tmp_path / "thresholds.tsv"
        run(
            "learn-thresholds",
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bench_dir / "train_scores.tsv",
            "--truth", bench_dir / "train_truth.tsv",
            "--out", thresholds,
        )
        refined = tmp_path / "refined.tsv"
        assert run(
            "refine",
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bench_dir / "eval_scores.tsv",
            "--thresholds", thresholds,
            "--cooccurrence", bench_dir / "cooccurrence.tsv",
            "--w", "0.25",
            "--out", refined,
        ) == 0
        vocab = formats.load_vocabulary(bench_dir / "vocabulary.tsv")
        table = formats.load_scores(bench_dir / "eval_scores.tsv", vocab)
        model = formats.load_thresholds(thresholds, vocab)
        sim = similarity_matrix(formats.load_cooccurrence(bench_dir / "cooccurrence.tsv"), vocab)
        got = formats.load_scores(refined, vocab)
        assert got.images == table.images
        for x in table.images:
            want = oracles.refined_scores_oracle(table, x, vocab, model, sim, 0.25)
            assert {t: repr(got.score(x, t)) for t in vocab.tags} == {
                t: repr(v) for t, v in want.items()
            }

    @pytest.mark.parametrize("command", ["select", "select-report", "compare", "refine"])
    def test_refining_commands_never_build_the_dense_similarity(
        self, bench_dir, tmp_path, command
    ):
        thresholds = tmp_path / "thresholds.tsv"
        run(
            "learn-thresholds",
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bench_dir / "train_scores.tsv",
            "--truth", bench_dir / "train_truth.tsv",
            "--out", thresholds,
        )
        io = ["--vocab", bench_dir / "vocabulary.tsv", "--scores", bench_dir / "eval_scores.tsv"]
        model = ["--thresholds", thresholds, "--cooccurrence", bench_dir / "cooccurrence.tsv"]
        refine = ["--strategy", "adaptive", "--refine"]
        name, argv = {
            "select": ("select", refine),
            "select-report": ("select", [*refine, "--report-refined"]),
            "compare": ("compare", ["--truth", bench_dir / "eval_truth.tsv", "--refine",
                                    "--refined-rankings"]),
            "refine": ("refine", []),
        }[command]
        with dense_builds() as built:
            assert run(name, *io, *model, *argv, "--out", tmp_path / "out") == 0
        assert built == []

    @pytest.mark.parametrize(
        "command", ["select", "select-report", "compare", "compare-refined", "refine"]
    )
    def test_refinement_that_overflows_is_refused(self, bench_dir, tmp_path, capsys, command):
        thresholds = tmp_path / "thresholds.tsv"
        run(
            "learn-thresholds",
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bench_dir / "train_scores.tsv",
            "--truth", bench_dir / "train_truth.tsv",
            "--out", thresholds,
        )
        # One learned threshold set to a finite, positive value that a score
        # divided by overflows.
        lines = thresholds.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("seen_"))
        tag, _, *stats = lines[at].split("\t")
        lines[at] = "\t".join([tag, "1e-310", *stats])
        thresholds.write_text("\n".join(lines) + "\n")
        vocab = formats.load_vocabulary(bench_dir / "vocabulary.tsv")
        with pytest.raises(TagSelectError, match="^refinement gives a non-finite score") as raised:
            refine_table(
                formats.load_scores(bench_dir / "eval_scores.tsv", vocab),
                vocab,
                formats.load_thresholds(thresholds, vocab),
                similarity_matrix(formats.load_cooccurrence(bench_dir / "cooccurrence.tsv"), vocab),
                0.5,
            )
        io = ["--vocab", bench_dir / "vocabulary.tsv", "--scores", bench_dir / "eval_scores.tsv"]
        model = ["--thresholds", thresholds, "--cooccurrence", bench_dir / "cooccurrence.tsv"]
        refine = ["--strategy", "adaptive", "--refine"]
        compare = ["--truth", bench_dir / "eval_truth.tsv", "--refine"]
        name, argv = {
            "select": ("select", refine),
            "select-report": ("select", [*refine, "--report-refined"]),
            "compare": ("compare", compare),
            "compare-refined": ("compare", [*compare, "--refined-rankings"]),
            "refine": ("refine", []),
        }[command]
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(name, *io, *model, *argv, "--out", out) == 1
        assert caught == []
        assert f"error[data]: {raised.value}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", ["learn-thresholds", "select", "compare", "refine", "evaluate", "fuse"]
    )
    def test_non_finite_score_is_rejected(self, bench_dir, tmp_path, capsys, command):
        thresholds = tmp_path / "thresholds.tsv"
        run(
            "learn-thresholds",
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bench_dir / "train_scores.tsv",
            "--truth", bench_dir / "train_truth.tsv",
            "--out", thresholds,
        )
        # learn-thresholds trains on seen tags only; its bad cells, lines 11
        # and 40, are both in novel columns.
        train = command == "learn-thresholds"
        scores = bench_dir / ("train_scores.tsv" if train else "eval_scores.tsv")
        bad = 11 if train else 3
        lines = scores.read_text().splitlines()
        for lineno, value in ((40, "inf"), (bad, "nan")):
            image, tag, _ = lines[lineno].split("\t")
            lines[lineno] = "\t".join([image, tag, value])
        first = lines[bad].split("\t")[:2]
        assert not train or first[1].startswith("novel_")
        scores.write_text("\n".join(lines) + "\n")
        io = ["--vocab", bench_dir / "vocabulary.tsv", "--scores", scores]
        model = ["--thresholds", thresholds, "--cooccurrence", bench_dir / "cooccurrence.tsv"]
        no_selections = tmp_path / "selections.tsv"
        no_selections.write_text("")
        argv = {
            "learn-thresholds": ["--truth", bench_dir / "train_truth.tsv"],
            "select": [*model, "--strategy", "adaptive", "--refine"],
            "compare": [*model, "--truth", bench_dir / "eval_truth.tsv"],
            "refine": model,
            "evaluate": ["--truth", bench_dir / "eval_truth.tsv", "--selections", no_selections],
            "fuse": ["--weights", "1.0"],
        }[command]
        out = tmp_path / "out"
        assert run(command, *io, *argv, "--out", out) == 1
        err = capsys.readouterr().err
        assert f"error[data]: non-finite score for image {first[0]!r}, tag {first[1]!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["select", "compare", "refine"])
    def test_non_finite_threshold_is_a_format_error(self, bench_dir, tmp_path, capsys, command):
        thresholds = tmp_path / "thresholds.tsv"
        run(
            "learn-thresholds",
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bench_dir / "train_scores.tsv",
            "--truth", bench_dir / "train_truth.tsv",
            "--out", thresholds,
        )
        lines = thresholds.read_text().splitlines()
        lineno = next(i for i, line in enumerate(lines) if line.startswith("seen_0"))
        fields = lines[lineno].split("\t")
        lines[lineno] = "\t".join([fields[0], "nan", *fields[2:]])
        thresholds.write_text("\n".join(lines) + "\n")
        io = ["--vocab", bench_dir / "vocabulary.tsv", "--scores", bench_dir / "eval_scores.tsv"]
        model = ["--thresholds", thresholds, "--cooccurrence", bench_dir / "cooccurrence.tsv"]
        argv = {
            "select": ["--strategy", "adaptive", "--refine"],
            "compare": ["--truth", bench_dir / "eval_truth.tsv"],
            "refine": [],
        }[command]
        out = tmp_path / "out"
        assert run(command, *io, *model, *argv, "--out", out) == 1
        err = capsys.readouterr().err
        assert f"error[format]: {thresholds}:{lineno + 1}: not a finite number: 'nan'" in err
        assert not out.exists()

    def test_fuse_fixed_and_learned(self, bench_dir, tmp_path, capsys):
        fused = tmp_path / "fused.tsv"
        code = run(
            "fuse",
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bench_dir / "eval_scores.tsv",
            "--scores", bench_dir / "eval_scores.tsv",
            "--weights", "0.7,0.3",
            "--out", fused,
        )
        assert code == 0
        assert fused.exists()

        model_out = tmp_path / "weights.json"
        code = run(
            "fuse",
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bench_dir / "train_scores.tsv",
            "--scores", bench_dir / "train_scores.tsv",
            "--learn",
            "--truth", bench_dir / "train_truth.tsv",
            "--grid-step", "0.25",
            "--max-sweeps", "2",
            "--model-out", model_out,
            "--out", tmp_path / "fused2.tsv",
        )
        assert code == 0
        payload = json.loads(model_out.read_text())
        # Identical inputs cannot be improved on: uniform weights survive.
        assert payload["weights"] == [0.5, 0.5]
        assert len(set(payload["history"])) == 1
        capsys.readouterr()

    def test_fuse_requires_weights_or_learn(self, bench_dir, tmp_path, capsys):
        code = run(
            "fuse",
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bench_dir / "eval_scores.tsv",
            "--scores", bench_dir / "eval_scores.tsv",
            "--out", tmp_path / "fused.tsv",
        )
        assert code == 1
        assert "error[data]" in capsys.readouterr().err

    def test_fuse_rejects_model_out_without_learn(self, bench_dir, tmp_path, capsys):
        code = run(
            "fuse",
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bench_dir / "eval_scores.tsv",
            "--scores", bench_dir / "eval_scores.tsv",
            "--weights", "0.5,0.5",
            "--model-out", tmp_path / "m.json",
            "--out", tmp_path / "fused.tsv",
        )
        assert code == 1
        assert capsys.readouterr().err == "error[data]: --model-out requires --learn\n"
        assert list(tmp_path.iterdir()) == [bench_dir]

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--truth", "truth.tsv"),
            ("--objective", "map"),
            ("--grid-step", "0.1"),
            ("--max-sweeps", "3"),
        ],
    )
    def test_fuse_rejects_learn_only_option_without_learn(
        self, tmp_path, capsys, option, value
    ):
        # No input file exists: the option is refused before any is read.
        code = run(
            "fuse",
            "--vocab", tmp_path / "vocabulary.tsv",
            "--scores", tmp_path / "a.tsv",
            "--scores", tmp_path / "b.tsv",
            "--weights", "0.5,0.5",
            option, value,
            "--out", tmp_path / "fused.tsv",
        )
        assert code == 1
        assert capsys.readouterr().err == f"error[data]: {option} requires --learn\n"
        assert list(tmp_path.iterdir()) == []

    def test_fuse_learn_requires_truth(self, tmp_path, capsys):
        code = run(
            "fuse",
            "--vocab", tmp_path / "vocabulary.tsv",
            "--scores", tmp_path / "a.tsv",
            "--scores", tmp_path / "b.tsv",
            "--learn",
            "--out", tmp_path / "fused.tsv",
        )
        assert code == 1
        assert capsys.readouterr().err == "error[data]: --learn requires --truth\n"
        assert list(tmp_path.iterdir()) == []

    def test_fuse_rejects_weights_with_learn(self, bench_dir, tmp_path, capsys):
        code = run(
            "fuse",
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bench_dir / "train_scores.tsv",
            "--scores", bench_dir / "train_scores.tsv",
            "--learn",
            "--truth", bench_dir / "train_truth.tsv",
            "--weights", "0.5,0.5",
            "--model-out", tmp_path / "m.json",
            "--out", tmp_path / "fused.tsv",
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error[data]: --weights cannot be combined with --learn\n"
        )
        assert list(tmp_path.iterdir()) == [bench_dir]

    def test_evaluate_checks_selection_images_in_file_order(self, bench_dir, tmp_path, capsys):
        # An absent image and an unknown tag: whichever image comes first in
        # the file is reported, and an absent image before its own tags.
        image = formats.load_scores(
            bench_dir / "eval_scores.tsv", formats.load_vocabulary(bench_dir / "vocabulary.tsv")
        ).images[0]
        io = [
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bench_dir / "eval_scores.tsv",
            "--truth", bench_dir / "eval_truth.tsv",
            "--out", tmp_path / "eval.json",
        ]
        unknown = f"{image}\tseen_000\t0.5\tfrom_fallback\n{image}\tnot_a_tag\t0.5\tfrom_fallback\n"
        ghost = "ghost\tseen_000\t0.5\tfrom_fallback\n"
        selections = tmp_path / "selections.tsv"
        for text, message in (
            (unknown + ghost, f"selections give image {image!r} the unknown tag 'not_a_tag'"),
            (ghost + unknown, "selections name image 'ghost', absent from the score table"),
            ("ghost\tnot_a_tag\t0.5\tfrom_fallback\n",
             "selections name image 'ghost', absent from the score table"),
        ):
            selections.write_text(text)
            assert run("evaluate", *io, "--selections", selections) == 1
            assert capsys.readouterr().err == f"error[data]: {message}\n"

    def test_evaluate_scores_every_image_of_an_empty_selections_file(self, bench_dir, tmp_path):
        selections = tmp_path / "selections.tsv"
        selections.write_text("# image_id\ttag\tscore\tprovenance\n")
        report = tmp_path / "eval.json"
        assert run(
            "evaluate",
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bench_dir / "eval_scores.tsv",
            "--truth", bench_dir / "eval_truth.tsv",
            "--selections", selections,
            "--out", report,
        ) == 0
        got = json.loads(report.read_text())
        assert (got["mf"], got["n_included"]) == (0.0, 30)

    @pytest.mark.parametrize("partial", [False, True])
    def test_cli_evaluate_equals_library_evaluate_and_compare(self, bench_dir, tmp_path, partial):
        # The CLI reads selections back from their file and ranks by columns;
        # the library path ranks by tag strings, and compare by columns again.
        vocab = formats.load_vocabulary(bench_dir / "vocabulary.tsv")
        table = formats.load_scores(bench_dir / "eval_scores.tsv", vocab)
        truth = formats.load_truth(bench_dir / "eval_truth.tsv", vocab)
        if partial:
            # Drop some labels, so that partial coverage masks them: one
            # cell in seven, in diagonal stripes, so that every image and
            # every tag keeps a label and the truth file can hold them.
            rows, cols = truth.labels.shape
            truth = GroundTruth(truth.images, truth.coverage, np.where(
                np.add.outer(np.arange(rows), np.arange(cols)) % 7 == 0, -1, truth.labels,
            ))
            formats.save_truth(truth, tmp_path / "truth.tsv")
        truth_path = tmp_path / "truth.tsv" if partial else bench_dir / "eval_truth.tsv"
        thresholds = tmp_path / "thresholds.tsv"
        assert run(
            "learn-thresholds",
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bench_dir / "train_scores.tsv",
            "--truth", bench_dir / "train_truth.tsv",
            "--out", thresholds,
        ) == 0
        io = ["--vocab", bench_dir / "vocabulary.tsv", "--scores", bench_dir / "eval_scores.tsv"]
        selections = tmp_path / "selections.tsv"
        assert run("select", *io, "--strategy", "adaptive", "--thresholds", thresholds,
                   "--out", selections) == 0
        report_path = tmp_path / "eval.json"
        coverage = ["--partial-coverage"] if partial else []
        assert run("evaluate", *io, "--truth", truth_path, "--selections", selections,
                   *coverage, "--out", report_path) == 0
        got = json.loads(report_path.read_text())

        model = formats.load_thresholds(thresholds, vocab)
        spec = StrategySpec("adaptive")
        library = evaluate(
            truth, run_strategy(spec, table, vocab, model),
            {x: rank_tags(table, x) for x in table.images},
            require_full_coverage=not partial,
        )
        assert (repr(got["mf"]), repr(got["map"])) == (repr(library.mf), repr(library.map))
        assert got["excluded"] == list(library.excluded)
        if not partial:
            row = compare([spec], table, truth, vocab, model).rows[0]
            assert (repr(row.mf), repr(row.map)) == (repr(library.mf), repr(library.map))
        else:
            assert library.excluded == ()


class TestWriterErrors:
    @pytest.mark.parametrize("command", ["learn-thresholds", "select"])
    def test_missing_output_directory_is_a_data_error(self, bench_dir, tmp_path, capsys, command):
        out = tmp_path / "nosuchdir" / "out.tsv"
        io = ["--vocab", bench_dir / "vocabulary.tsv"]
        if command == "learn-thresholds":
            argv = [*io, "--scores", bench_dir / "train_scores.tsv",
                    "--truth", bench_dir / "train_truth.tsv"]
            kind = "thresholds"
        else:
            argv = [*io, "--scores", bench_dir / "eval_scores.tsv", "--strategy", "top_k"]
            kind = "selections"
        assert run(command, *argv, "--out", out) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error[data]: cannot write {kind} file {str(out)!r}: "
            f"[Errno 2] No such file or directory: {str(out)!r}\n"
        )


    @pytest.mark.parametrize("tag", ["seen_003", "novel_002"])
    def test_overflowing_statistics_fail_before_writing(self, bench_dir, tmp_path, capsys, tag):
        # A seen column stops the lsq fit, a novel one the writer; under
        # warnings as errors, the overflow itself reports nothing.
        vocab = formats.load_vocabulary(bench_dir / "vocabulary.tsv")
        table = formats.load_scores(bench_dir / "train_scores.tsv", vocab)
        scores = np.array(table.scores)
        scores[:, table.tag_index(tag)] = np.linspace(1.6e308, 1.7e308, table.n_images)
        formats.save_scores(table._derived(scores), tmp_path / "scores.tsv")
        out = tmp_path / "thresholds.tsv"
        assert run(
            "learn-thresholds", "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", tmp_path / "scores.tsv", "--truth", bench_dir / "train_truth.tsv",
            "--out", out,
        ) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error[data]: score statistics of tag {tag!r} are not finite: mu inf, sigma inf\n"
        )
        assert not out.exists()


class TestConfigExpansion:
    def test_config_file_sets_options(self, bench_dir, tmp_path):
        cfg = tmp_path / "select.cfg"
        cfg.write_text("strategy=top_k\nk=3\n")
        selections = tmp_path / "sel.tsv"
        code = run(
            "select",
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bench_dir / "eval_scores.tsv",
            "--config", cfg,
            "--out", selections,
        )
        assert code == 0
        rows = [
            l for l in selections.read_text().splitlines() if not l.startswith("#")
        ]
        by_image = {}
        for line in rows:
            image = line.split("\t")[0]
            by_image.setdefault(image, 0)
            by_image[image] += 1
        assert set(by_image.values()) == {3}

    def test_explicit_flag_after_config_wins(self, bench_dir, tmp_path):
        cfg = tmp_path / "select.cfg"
        cfg.write_text("strategy=top_k\nk=3\n")
        selections = tmp_path / "sel.tsv"
        code = run(
            "select",
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bench_dir / "eval_scores.tsv",
            "--config", cfg,
            "--k", "2",
            "--out", selections,
        )
        assert code == 0
        rows = [
            l for l in selections.read_text().splitlines() if not l.startswith("#")
        ]
        assert len(rows) == 2 * 30

    def test_boolean_values_toggle_flags(self, tmp_path, bench_dir):
        cfg = tmp_path / "eval.cfg"
        cfg.write_text("per-image=true\n")
        thresholds = tmp_path / "thr.tsv"
        run(
            "learn-thresholds",
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bench_dir / "train_scores.tsv",
            "--truth", bench_dir / "train_truth.tsv",
            "--out", thresholds,
        )
        selections = tmp_path / "sel.tsv"
        run(
            "select",
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bench_dir / "eval_scores.tsv",
            "--strategy", "top_k",
            "--thresholds", thresholds,
            "--out", selections,
        )
        report = tmp_path / "report.json"
        code = run(
            "evaluate",
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bench_dir / "eval_scores.tsv",
            "--truth", bench_dir / "eval_truth.tsv",
            "--selections", selections,
            "--config", cfg,
            "--out", report,
        )
        assert code == 0
        assert "per_image" in json.loads(report.read_text())

    def test_equals_form_indented_comment_and_false_value(self, bench_dir, tmp_path, capsys):
        cfg = tmp_path / "compare.cfg"
        cfg.write_text("  # indented comment\nstrategies = top_k\ntext=true\ntext = FALSE\n")
        assert _config_args(str(cfg)) == ["--strategies", "top_k", "--text", "--no-text"]
        out = tmp_path / "compare.json"
        code = run(
            "compare",
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bench_dir / "eval_scores.tsv",
            "--truth", bench_dir / "eval_truth.tsv",
            f"--config={cfg}",
            "--out", out,
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert [r["label"] for r in json.loads(out.read_text())["rows"]] == ["top_5"]

    def test_empty_config_key_reports_position(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("strategy=top_k\n = 3\n")
        code = main(["select", "--config", str(cfg)])
        assert code == 1
        assert capsys.readouterr().err == f"error[format]: {cfg}:2: empty key\n"

    def test_missing_config_file_fails_cleanly(self, capsys):
        code = main(["--config", "/nonexistent/conf", "validate", "--vocab", "x", "--scores", "y"])
        assert code == 1
        assert "error[data]" in capsys.readouterr().err

    def test_bad_config_line_reports_position(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("strategy top_k\n")
        code = main(["select", "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error[format]" in err
        assert ":1:" in err

    def test_undecodable_config_line_reports_position(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"# options\r\nstrategy = top_k\r\nk = \xff\r\n")
        code = main(["select", "--config", str(cfg)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error[format]: {cfg}:3: not valid UTF-8 (byte 0xff: invalid start byte)\n"
        )


class TestUsageErrors:
    def test_unknown_strategy_is_an_argparse_error(self, bench_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(
                "select",
                "--vocab", bench_dir / "vocabulary.tsv",
                "--scores", bench_dir / "eval_scores.tsv",
                "--strategy", "psychic",
                "--out", tmp_path / "sel.tsv",
            )
        assert exc.value.code == 2

    def test_non_numeric_fuse_weight_is_an_argparse_error(self, bench_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(
                "fuse",
                "--vocab", bench_dir / "vocabulary.tsv",
                "--scores", bench_dir / "eval_scores.tsv",
                "--scores", bench_dir / "eval_scores.tsv",
                "--weights", "0.5,abc",
                "--out", tmp_path / "fused.tsv",
            )
        assert exc.value.code == 2
        assert "argument --weights: invalid float_list value: '0.5,abc'" in capsys.readouterr().err

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
