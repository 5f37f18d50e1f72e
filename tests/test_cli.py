"""End-to-end command-line workflows on a tiny generated benchmark."""

import json

import pytest

import oracles
from tagselect import STRATEGY_NAMES, formats, similarity_matrix
from tagselect.cli import main

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

    @pytest.mark.parametrize("command", ["select", "compare", "refine"])
    def test_non_finite_score_is_rejected(self, bench_dir, tmp_path, capsys, command):
        thresholds = tmp_path / "thresholds.tsv"
        run(
            "learn-thresholds",
            "--vocab", bench_dir / "vocabulary.tsv",
            "--scores", bench_dir / "train_scores.tsv",
            "--truth", bench_dir / "train_truth.tsv",
            "--out", thresholds,
        )
        scores = bench_dir / "eval_scores.tsv"
        lines = scores.read_text().splitlines()
        for lineno, value in ((40, "inf"), (3, "nan")):
            image, tag, _ = lines[lineno].split("\t")
            lines[lineno] = "\t".join([image, tag, value])
        first = lines[3].split("\t")[:2]
        scores.write_text("\n".join(lines) + "\n")
        io = ["--vocab", bench_dir / "vocabulary.tsv", "--scores", scores]
        model = ["--thresholds", thresholds, "--cooccurrence", bench_dir / "cooccurrence.tsv"]
        argv = {
            "select": ["--strategy", "adaptive", "--refine"],
            "compare": ["--truth", bench_dir / "eval_truth.tsv"],
            "refine": [],
        }[command]
        out = tmp_path / "out"
        assert run(command, *io, *model, *argv, "--out", out) == 1
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
