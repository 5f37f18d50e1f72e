"""The command-line surface: its option strings and help texts, the size
options gen-synth takes from ``SyntheticSpec``, and the README's commands."""

import argparse
import re
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

from tagselect import SyntheticSpec
from tagselect.cli import _expand_config, build_parser

README = Path(__file__).resolve().parent.parent / "README.md"

REQUIRED = {"required": True}
SWITCH = {"action": argparse.BooleanOptionalAction, "default": False}
VOCAB = ("--vocab", "vocabulary TSV", REQUIRED)
SCORES = ("--scores", "score table TSV", REQUIRED)
TRUTH = ("--truth", "ground truth TSV", REQUIRED)
K = ("--k", "top-k / fallback size", {})
W = ("--w", "refinement blend weight", {})
REFINE = ("--refine", "refine novel scores through tag similarity", SWITCH)

# Snapshot of the published surface: per subcommand its help line and, in
# declaration order, each option as (flag, help, keywords that shape the
# help text).  Defaults are left out: the help texts print none.
SURFACE = {
    "validate": ("cross-check vocabulary, scores and truth", [
        VOCAB, SCORES, ("--truth", "ground truth TSV", {}),
    ]),
    "learn-thresholds": ("learn per-tag thresholds on labeled data", [
        VOCAB, SCORES, TRUTH,
        ("--out", "output thresholds TSV", REQUIRED),
        ("--intercept", "add an intercept to the least-squares reconstruction", SWITCH),
    ]),
    "select": ("run one selection strategy", [
        VOCAB, SCORES,
        ("--strategy", None, {"required": True, "choices": (
            "top_k", "mu_sigma", "lsq", "hybrid_tau_musigma", "hybrid_tau_lsq", "adaptive",
        )}),
        ("--thresholds", "thresholds TSV (strategies using a model)", {}),
        ("--cooccurrence", "co-occurrence TSV (refinement)", {}),
        K, W, REFINE,
        ("--report-refined", "write refined novel scores instead of raw ones", SWITCH),
        ("--out", "output selections TSV", REQUIRED),
    ]),
    "refine": ("rewrite novel score columns with refined values", [
        VOCAB, SCORES,
        ("--thresholds", None, REQUIRED),
        ("--cooccurrence", None, REQUIRED),
        W,
        ("--out", "output scores TSV", REQUIRED),
    ]),
    "evaluate": ("score selections against ground truth", [
        VOCAB, SCORES, TRUTH,
        ("--selections", None, REQUIRED),
        ("--partial-coverage", "mask undefined labels instead of excluding the image", SWITCH),
        ("--per-image", "include per-image metrics in the report", SWITCH),
        ("--out", "output report JSON", REQUIRED),
    ]),
    "fuse": ("weighted sum of several score tables", [
        ("--vocab", None, REQUIRED),
        ("--scores", "repeat per table", {"action": "append", "required": True}),
        ("--weights", "comma-separated weights summing to 1", {}),
        ("--learn", "learn weights by coordinate ascent on --truth", SWITCH),
        ("--truth", None, {}),
        ("--objective", None, {"choices": ("mf", "map")}),
        ("--grid-step", None, {}),
        ("--max-sweeps", None, {}),
        ("--model-out", "write learned weights JSON here", {}),
        ("--out", "output fused scores TSV", REQUIRED),
    ]),
    "compare": ("run strategies side by side", [
        VOCAB, SCORES, TRUTH,
        ("--thresholds", None, {}),
        ("--cooccurrence", None, {}),
        ("--strategies", "comma-separated names (default: all six)", {}),
        K, W, REFINE,
        ("--refined-rankings", "judge refining strategies on refined rankings", SWITCH),
        ("--text", "also print an aligned text table", SWITCH),
        ("--out", "output report JSON", REQUIRED),
    ]),
    "gen-synth": ("generate the synthetic benchmark", [
        ("--out-dir", None, REQUIRED),
        *((flag, None, {}) for flag in (
            "--seed", "--n-images", "--n-train", "--n-seen", "--n-novel",
            "--count-min", "--count-max", "--noise-std",
        )),
    ]),
}


def snapshot_parser():
    parser = argparse.ArgumentParser(
        prog="tagselect",
        description="Adaptive tag selection over black-box relevance scores.",
    )
    parser.add_argument(
        "--config", metavar="FILE",
        help="key=value file expanded into long options at this position",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, options) in SURFACE.items():
        p = sub.add_parser(name, help=text)
        for flag, help_text, keywords in options:
            p.add_argument(flag, help=help_text, **keywords)
    return parser


def subcommands(parser):
    [action] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def option_strings(parser):
    return sorted(s for a in parser._actions for s in a.option_strings)


class TestSurface:
    def test_top_level_help_is_the_snapshot(self):
        assert build_parser().format_help() == snapshot_parser().format_help()

    @pytest.mark.parametrize("name", list(SURFACE))
    def test_subcommand_options_and_help_are_the_snapshot(self, name):
        got = subcommands(build_parser())[name]
        want = subcommands(snapshot_parser())[name]
        assert option_strings(got) == option_strings(want)
        assert got.format_help() == want.format_help()

    def test_subcommands_and_option_count(self):
        parsers = subcommands(build_parser())
        assert list(parsers) == list(SURFACE)
        assert sum(len(option_strings(p)) for p in parsers.values()) == 87

    def test_gen_synth_size_options_are_the_spec_fields(self):
        gen_synth = subcommands(build_parser())["gen-synth"]
        sizes = [a for a in gen_synth._actions if a.dest not in ("help", "out_dir", "seed")]
        assert [a.dest for a in sizes] == [f.name for f in fields(SyntheticSpec)]
        assert [a.option_strings for a in sizes] == [
            [f"--{f.name.replace('_', '-')}"] for f in fields(SyntheticSpec)
        ]
        assert [a.type for a in sizes] == [type(f.default) for f in fields(SyntheticSpec)]


def readme_commands():
    """The arguments of every ``tagselect`` line in the README's sh blocks,
    continuation lines joined."""
    text = README.read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["tagselect"]:
                commands.append(words[1:])
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert [c[0] for c in commands] == [
        "gen-synth", "validate", "learn-thresholds", "select", "evaluate", "compare",
        "refine", "fuse", "fuse",
    ]
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(_expand_config(argv))
        assert args.command == argv[0]
