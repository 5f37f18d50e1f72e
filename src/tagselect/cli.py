"""Command-line interface.

Subcommands map one-to-one onto the library operations: validate inputs,
learn thresholds, select tags, refine novel scores, evaluate selections,
fuse score tables, compare strategies, and generate the synthetic
benchmark.  A ``--config FILE`` of key=value lines expands, in place, to
the corresponding long options, so flags given after it still win.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import formats
from .baselines import STRATEGY_NAMES, StrategySpec, compare, run_strategy, table1_strategies
from .core import SelectionResult, rank_all_tags, validate_inputs
from .errors import FormatError, TagSelectError
from .fusion import fuse, learn_weights
from .metrics import evaluate
from .selection import AdaptiveConfig, refine_table
from .similarity import similarity_matrix
from .synthetic import SyntheticSpec, generate_synthetic
from .thresholds import learn_all_thresholds


def _config_args(path: str) -> list[str]:
    """Expand a key=value config file into long CLI options.

    Keys use the option name with either '-' or '_'; values 'true'/'false'
    toggle boolean flags, anything else is passed as the option argument.
    """
    args: list[str] = []
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise TagSelectError(f"cannot read config file {path!r}: {exc}") from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise FormatError(path, lineno, "expected key=value")
            key, value = line.split("=", 1)
            key = key.strip().replace("_", "-")
            value = value.strip()
            if not key:
                raise FormatError(path, lineno, "empty key")
            if value.lower() == "true":
                args.append(f"--{key}")
            elif value.lower() == "false":
                args.append(f"--no-{key}")
            else:
                args.extend([f"--{key}", value])
    return args


def _expand_config(argv: list[str]) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--config" and i + 1 < len(argv):
            out.extend(_config_args(argv[i + 1]))
            i += 2
        elif arg.startswith("--config="):
            out.extend(_config_args(arg.split("=", 1)[1]))
            i += 1
        else:
            out.append(arg)
            i += 1
    return out


def _load_common(args):
    vocab = formats.load_vocabulary(args.vocab)
    table = formats.load_scores(args.scores, vocab)
    return vocab, table


def cmd_validate(args) -> int:
    vocab, table = _load_common(args)
    truth = formats.load_truth(args.truth, vocab) if args.truth else None
    violations = validate_inputs(vocab, table, truth)
    for v in violations:
        print(v)
    if violations:
        print(f"error[data]: {len(violations)} violation(s) found", file=sys.stderr)
        return 1
    print("ok")
    return 0


def cmd_learn_thresholds(args) -> int:
    vocab, table = _load_common(args)
    truth = formats.load_truth(args.truth, vocab)
    model = learn_all_thresholds(table, truth, vocab, intercept=args.intercept)
    formats.save_thresholds(model, args.out)
    print(f"learned {len(model.tau)} thresholds, {len(model.untrainable)} untrainable")
    return 0


def cmd_select(args) -> int:
    vocab, table = _load_common(args)
    model = None
    if args.thresholds:
        model = formats.load_thresholds(args.thresholds, vocab)
    sim = None
    if args.cooccurrence:
        sim = similarity_matrix(formats.load_cooccurrence(args.cooccurrence), vocab)
    spec = StrategySpec(args.strategy, k=args.k, w=args.w, refine=args.refine)
    cfg = AdaptiveConfig(
        fallback_k=args.k, refine=args.refine, w=args.w, report_refined=args.report_refined
    )
    result = run_strategy(spec, table, vocab, model, sim, cfg=cfg)
    formats.save_selections(result, args.out)
    return 0


def cmd_refine(args) -> int:
    """Rewrite the novel-tag columns of a score table by ``refine_table``."""
    vocab, table = _load_common(args)
    model = formats.load_thresholds(args.thresholds, vocab)
    sim = similarity_matrix(formats.load_cooccurrence(args.cooccurrence), vocab)
    formats.save_scores(refine_table(table, vocab, model, sim, args.w), args.out)
    return 0


def cmd_evaluate(args) -> int:
    vocab, table = _load_common(args)
    truth = formats.load_truth(args.truth, vocab)
    rankings = dict(zip(table.images, rank_all_tags(table)))
    loaded = formats.load_selections(args.selections)
    for x in loaded.images:
        if x not in rankings:
            raise TagSelectError(f"selections name image {x!r}, absent from the score table")
        for t in loaded.tags(x):
            if t not in vocab:
                raise TagSelectError(f"selections give image {x!r} the unknown tag {t!r}")
    # The selections file has no row for an image with an empty selection,
    # so every scored image is evaluated and a missing row counts as empty.
    selections = SelectionResult(
        table.images, {x: loaded.rows.get(x, ()) for x in table.images}
    )
    report = evaluate(
        truth, selections, rankings, require_full_coverage=not args.partial_coverage
    )
    formats.save_report(report.to_dict(per_image=args.per_image), args.out)
    print(
        f"mf={report.mf!r} map={report.map!r} "
        f"included={report.n_included} excluded={report.n_excluded}"
    )
    return 0


def cmd_fuse(args) -> int:
    vocab = formats.load_vocabulary(args.vocab)
    tables = [formats.load_scores(p, vocab) for p in args.scores]
    if args.learn:
        if not args.truth:
            raise TagSelectError("--learn requires --truth")
        truth = formats.load_truth(args.truth, vocab)
        model = learn_weights(
            tables,
            truth,
            vocab,
            objective=args.objective,
            grid_step=args.grid_step,
            max_sweeps=args.max_sweeps,
        )
        weights = model.weights
        if args.model_out:
            formats.save_report(model.to_dict(), args.model_out)
        print("weights: " + " ".join(repr(v) for v in weights))
    else:
        if not args.weights:
            raise TagSelectError("give --weights or --learn")
        weights = args.weights
    fused = fuse(tables, weights)
    formats.save_scores(fused, args.out)
    return 0


def cmd_compare(args) -> int:
    vocab, table = _load_common(args)
    truth = formats.load_truth(args.truth, vocab)
    model = None
    if args.thresholds:
        model = formats.load_thresholds(args.thresholds, vocab)
    sim = None
    if args.cooccurrence:
        sim = similarity_matrix(formats.load_cooccurrence(args.cooccurrence), vocab)
    if args.strategies:
        names = [s.strip() for s in args.strategies.split(",") if s.strip()]
        specs = [StrategySpec(n, k=args.k, w=args.w, refine=args.refine) for n in names]
    else:
        specs = list(table1_strategies(k=args.k, w=args.w, refine=args.refine))
    report = compare(
        specs, table, truth, vocab, model, sim, refined_rankings=args.refined_rankings
    )
    formats.save_report(report, args.out)
    if args.text:
        print(report.format_table())
    return 0


def cmd_gen_synth(args) -> int:
    spec = SyntheticSpec(
        n_images=args.n_images,
        n_train=args.n_train,
        n_seen=args.n_seen,
        n_novel=args.n_novel,
        count_min=args.count_min,
        count_max=args.count_max,
        noise_std=args.noise_std,
    )
    bench = generate_synthetic(spec, args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    formats.save_vocabulary(bench.vocab, out / "vocabulary.tsv")
    formats.save_scores(bench.train_table, out / "train_scores.tsv")
    formats.save_truth(bench.train_truth, out / "train_truth.tsv")
    formats.save_scores(bench.eval_table, out / "eval_scores.tsv")
    formats.save_truth(bench.eval_truth, out / "eval_truth.tsv")
    formats.save_cooccurrence(bench.cooccurrence, out / "cooccurrence.tsv")
    print(f"wrote benchmark to {out}")
    return 0


def float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def _add_io(parser, scores=True, truth=False, truth_optional=False):
    parser.add_argument("--vocab", required=True, help="vocabulary TSV")
    if scores:
        parser.add_argument("--scores", required=True, help="score table TSV")
    if truth:
        parser.add_argument("--truth", required=not truth_optional, help="ground truth TSV")


def _add_strategy_knobs(parser):
    parser.add_argument("--k", type=int, default=5, help="top-k / fallback size")
    parser.add_argument("--w", type=float, default=0.5, help="refinement blend weight")
    parser.add_argument(
        "--refine", action=argparse.BooleanOptionalAction, default=False,
        help="refine novel scores through tag similarity",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tagselect",
        description="Adaptive tag selection over black-box relevance scores.",
    )
    parser.add_argument(
        "--config", metavar="FILE",
        help="key=value file expanded into long options at this position",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="cross-check vocabulary, scores and truth")
    _add_io(p, truth=True, truth_optional=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("learn-thresholds", help="learn per-tag thresholds on labeled data")
    _add_io(p, truth=True)
    p.add_argument("--out", required=True, help="output thresholds TSV")
    p.add_argument(
        "--intercept", action=argparse.BooleanOptionalAction, default=False,
        help="add an intercept to the least-squares reconstruction",
    )
    p.set_defaults(func=cmd_learn_thresholds)

    p = sub.add_parser("select", help="run one selection strategy")
    _add_io(p)
    p.add_argument("--strategy", required=True, choices=STRATEGY_NAMES)
    p.add_argument("--thresholds", help="thresholds TSV (strategies using a model)")
    p.add_argument("--cooccurrence", help="co-occurrence TSV (refinement)")
    _add_strategy_knobs(p)
    p.add_argument(
        "--report-refined", action=argparse.BooleanOptionalAction, default=False,
        help="write refined novel scores instead of raw ones",
    )
    p.add_argument("--out", required=True, help="output selections TSV")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("refine", help="rewrite novel score columns with refined values")
    _add_io(p)
    p.add_argument("--thresholds", required=True)
    p.add_argument("--cooccurrence", required=True)
    p.add_argument("--w", type=float, default=0.5, help="refinement blend weight")
    p.add_argument("--out", required=True, help="output scores TSV")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("evaluate", help="score selections against ground truth")
    _add_io(p, truth=True)
    p.add_argument("--selections", required=True)
    p.add_argument(
        "--partial-coverage", action=argparse.BooleanOptionalAction, default=False,
        help="mask undefined labels instead of excluding the image",
    )
    p.add_argument(
        "--per-image", action=argparse.BooleanOptionalAction, default=False,
        help="include per-image metrics in the report",
    )
    p.add_argument("--out", required=True, help="output report JSON")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("fuse", help="weighted sum of several score tables")
    p.add_argument("--vocab", required=True)
    p.add_argument("--scores", action="append", required=True, help="repeat per table")
    p.add_argument("--weights", type=float_list, help="comma-separated weights summing to 1")
    p.add_argument(
        "--learn", action=argparse.BooleanOptionalAction, default=False,
        help="learn weights by coordinate ascent on --truth",
    )
    p.add_argument("--truth")
    p.add_argument("--objective", choices=("mf", "map"), default="mf")
    p.add_argument("--grid-step", type=float, default=0.05)
    p.add_argument("--max-sweeps", type=int, default=20)
    p.add_argument("--model-out", help="write learned weights JSON here")
    p.add_argument("--out", required=True, help="output fused scores TSV")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("compare", help="run strategies side by side")
    _add_io(p, truth=True)
    p.add_argument("--thresholds")
    p.add_argument("--cooccurrence")
    p.add_argument("--strategies", help="comma-separated names (default: all six)")
    _add_strategy_knobs(p)
    p.add_argument(
        "--refined-rankings", action=argparse.BooleanOptionalAction, default=False,
        help="judge refining strategies on refined rankings",
    )
    p.add_argument(
        "--text", action=argparse.BooleanOptionalAction, default=False,
        help="also print an aligned text table",
    )
    p.add_argument("--out", required=True, help="output report JSON")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gen-synth", help="generate the synthetic benchmark")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-images", type=int, default=2000)
    p.add_argument("--n-train", type=int, default=1000)
    p.add_argument("--n-seen", type=int, default=107)
    p.add_argument("--n-novel", type=int, default=100)
    p.add_argument("--count-min", type=int, default=1)
    p.add_argument("--count-max", type=int, default=20)
    p.add_argument("--noise-std", type=float, default=0.3)
    p.set_defaults(func=cmd_gen_synth)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _expand_config(argv)
    except TagSelectError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return 1
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TagSelectError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
