"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup``, runs its timed
part in ``run_pass`` and checks the outputs of the last pass in ``check``.
All of them run one operation at a time in one client: a closed loop of
batch jobs, with no threads and ``jobs`` left at 1.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

import tagselect as ts
from tagselect import cli, formats


class Workload:
    name = ""
    spec = ts.SyntheticSpec()

    def __init__(self, root: Path, work: Path, seed: int, ledger, clock, in_process: bool):
        self.root = root
        self.work = work
        self.seed = seed
        self.ledger = ledger
        self.clock = clock
        self.in_process = in_process
        self.tracer = None
        #: (name, wall seconds, reference-speed seconds) of each timed
        #: operation of the current pass.
        self.timings: list[tuple[str, float, float]] = []

    def op(self, name: str, fn):
        """Run one timed operation of a pass and return its result."""
        with self.ledger.op(name):
            wall, scaled, result = self.clock.time(fn)
        self.timings.append((name, wall, scaled))
        return result

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def count(self, name: str, value: float = 1) -> None:
        if self.tracer:
            self.tracer.count(name, value)

    def describe(self) -> dict:
        n = self.spec.n_images * (self.spec.n_seen + self.spec.n_novel)
        return {"spec": asdict(self.spec), "score_matrix_bytes": 8 * n}

    def after_pass(self) -> None:
        """Untimed work after each pass."""

    def layer_extras(self) -> dict[str, float]:
        """Per-layer metrics measured outside the traced passes."""
        return {}

    def outputs(self) -> dict[str, str]:
        """sha256 of each file the workload wrote."""
        return {}


# ------------------------------------------------------------- walkthrough

class Walkthrough(Workload):
    """The README CLI walkthrough, one ``tagselect`` process per step.

    Set-up is ``gen-synth``; the timed part is ``learn-thresholds``, ``select
    --strategy adaptive --refine``, ``evaluate`` and ``compare``.  The traced
    run calls ``tagselect.cli.main`` in-process instead, for both its traced
    and untraced passes, so that the tracing overhead compares like with like.
    """

    name = "walkthrough"

    def __init__(self, *args):
        super().__init__(*args)
        self.bench = self.work / "bench"
        self.out = self.work / "out"
        self.out.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.hashes: dict[str, str] | None = None

    def steps(self) -> list[list[str]]:
        b, o = self.bench, self.out
        vocab = ["--vocab", str(b / "vocabulary.tsv")]
        scores = ["--scores", str(b / "eval_scores.tsv")]
        truth = ["--truth", str(b / "eval_truth.tsv")]
        model = ["--thresholds", str(o / "thresholds.tsv"),
                 "--cooccurrence", str(b / "cooccurrence.tsv")]
        return [
            ["learn-thresholds", *vocab, "--scores", str(b / "train_scores.tsv"),
             "--truth", str(b / "train_truth.tsv"), "--out", str(o / "thresholds.tsv")],
            ["select", *vocab, *scores, "--strategy", "adaptive", *model,
             "--refine", "--out", str(o / "selections.tsv")],
            ["evaluate", *vocab, *scores, *truth,
             "--selections", str(o / "selections.tsv"), "--out", str(o / "eval.json")],
            ["compare", *vocab, *scores, *truth, *model, "--text",
             "--out", str(o / "compare.json")],
        ]

    def _cli(self, argv: list[str]) -> float:
        """Run one subcommand; return its peak RSS in MB (0 in-process)."""
        name = argv[0].replace("-", "_")
        stdout = self.out / f"{name}.stdout"
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with self.span(f"cli.{name}"), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
            stdout.write_text(out.getvalue())
            rss = 0.0
        else:
            with open(stdout, "w") as fo, open(self.out / f"{name}.stderr", "w") as fe:
                proc = subprocess.Popen(
                    [sys.executable, "-m", "tagselect.cli", *argv],
                    stdout=fo, stderr=fe, env=self.env, cwd=self.work,
                )
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                except BaseException:
                    proc.kill()
                    proc.wait()
                    raise
            # wait4 reaped the child; tell Popen so it does not wait again.
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            rss = usage.ru_maxrss / 1024.0
        if code != 0:
            raise RuntimeError(f"tagselect {argv[0]} exited with {code}")
        return rss

    def setup(self) -> None:
        flags = [x for k, v in asdict(self.spec).items()
                 for x in (f"--{k.replace('_', '-')}", str(v))]
        with self.ledger.op("cli.gen_synth"):
            self._cli(["gen-synth", "--out-dir", str(self.bench), "--seed", str(self.seed),
                       *flags])

    def run_pass(self) -> dict:
        rss = [self.op(f"cli.{argv[0].replace('-', '_')}", lambda: self._cli(argv))
               for argv in self.steps()]
        return {"images": self.spec.n_images, "peak_rss_mb": max(rss)}

    def after_pass(self) -> None:
        hashes = {p.name: _sha256(p) for p in sorted(self.out.iterdir())
                  if p.suffix in (".tsv", ".json")}
        with self.ledger.check("outputs identical across passes"):
            if self.hashes is not None and hashes != self.hashes:
                raise RuntimeError("a rerun on the same inputs changed an output file")
        self.hashes = hashes

    def layer_extras(self) -> dict[str, float]:
        """``cli.import_s``: interpreter start plus package import, median of 3."""
        command = [sys.executable, "-c", "import tagselect.cli"]
        times = [
            self.clock.time(lambda: subprocess.run(command, env=self.env, cwd=self.work,
                                                   check=True))[1]
            for _ in range(3)
        ]
        return {"cli.import_s": statistics.median(times)}

    def check(self) -> None:
        b, o = self.bench, self.out
        vocab = formats.load_vocabulary(b / "vocabulary.tsv")
        table = formats.load_scores(b / "eval_scores.tsv", vocab)
        truth = formats.load_truth(b / "eval_truth.tsv", vocab)
        model = formats.load_thresholds(o / "thresholds.tsv", vocab)
        sim = ts.similarity_matrix(formats.load_cooccurrence(b / "cooccurrence.tsv"), vocab)
        spec = ts.StrategySpec("adaptive", refine=True)
        library = ts.run_strategy(spec, table, vocab, model, sim)
        with self.ledger.check("selections file equals library selection"):
            cli_sel = formats.load_selections(o / "selections.tsv")
            rows = {x: [(s.tag, repr(s.score), s.provenance) for s in library.row(x)]
                    for x in library.images if library.row(x)}
            got = {x: [(s.tag, repr(s.score), s.provenance) for s in cli_sel.row(x)]
                   for x in cli_sel.images}
            if rows != got:
                raise RuntimeError("CLI selections differ from the library's")
        with self.ledger.check("CLI evaluate equals library evaluate"):
            rankings = {x: ts.rank_tags(table, x) for x in library.images}
            report = ts.evaluate(truth, library, rankings)
            got = formats.load_report(o / "eval.json")
            if (repr(got["mf"]), repr(got["map"])) != (repr(report.mf), repr(report.map)):
                raise RuntimeError(
                    f"CLI mf/map {got['mf']!r}/{got['map']!r} != library "
                    f"{report.mf!r}/{report.map!r}"
                )
        with self.ledger.check("compare report lists six strategies"):
            rows = formats.load_report(o / "compare.json")["rows"]
            if [r["strategy"] for r in rows] != list(ts.STRATEGY_NAMES):
                raise RuntimeError("compare report rows are not the six strategies")

    def outputs(self) -> dict:
        inputs = {f"bench/{p.name}": _sha256(p) for p in sorted(self.bench.iterdir())}
        return {**inputs, **{f"out/{k}": v for k, v in (self.hashes or {}).items()}}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ------------------------------------------------------------ wide_compare

class WideCompare(Workload):
    """In-process library calls on a 1000-tag vocabulary, no file I/O.

    400 eval images keep the score matrix (3.2 MB) above the per-core L2 and
    each call under about 3 s, short enough for ``Clock`` to track the
    machine's speed; at 1000 images ``compare`` alone runs 7 s.
    """

    name = "wide_compare"
    spec = ts.SyntheticSpec(n_images=400, n_train=1000, n_seen=500, n_novel=500,
                            count_min=1, count_max=60)
    #: Every SAMPLE_STEP-th image has its F and AP recomputed by the scalar
    #: reference functions.
    SAMPLE_STEP = 25

    def setup(self) -> None:
        with self.span("synthetic.generate"):
            self.bench = ts.generate_synthetic(self.spec, self.seed)

    def run_pass(self) -> dict:
        b = self.bench
        self.last = None
        model = self.op("op.learn_all_thresholds",
                        lambda: ts.learn_all_thresholds(b.train_table, b.train_truth, b.vocab))
        sim = self.op("op.similarity_matrix", lambda: ts.similarity_matrix(b.cooccurrence, b.vocab))
        refined_spec = ts.StrategySpec("adaptive", refine=True)
        plain = self.op("op.adaptive", lambda: ts.run_strategy(
            ts.StrategySpec("adaptive"), b.eval_table, b.vocab, model, sim))
        refined = self.op("op.adaptive_refine", lambda: ts.run_strategy(
            refined_spec, b.eval_table, b.vocab, model, sim))
        report = self.op("op.compare", lambda: ts.compare(
            ts.table1_strategies(), b.eval_table, b.eval_truth, b.vocab, model, sim,
            refined_rankings=False))
        self.op("op.compare_refined", lambda: ts.compare(
            [refined_spec], b.eval_table, b.eval_truth, b.vocab, model, sim,
            refined_rankings=True))
        self.last = (model, plain, refined, report)
        return {"images": self.spec.n_images}

    def check(self) -> None:
        b = self.bench
        model, plain, refined, report = self.last
        pool = len(model.tau)
        n_novel = len(b.vocab.novel_tags)
        for label, result in (("adaptive", plain), ("adaptive refined", refined)):
            with self.ledger.check(f"count law, {label}"):
                for x in result.images:
                    provenances = [s.provenance for s in result.row(x)]
                    if ts.FROM_FALLBACK in provenances:
                        continue
                    a = provenances.count(ts.FROM_SEEN_THRESHOLDING)
                    k = provenances.count(ts.FROM_NOVEL_TOPK)
                    if k != ts.k_novel(pool, n_novel, a):
                        raise RuntimeError(f"{x}: {k} novel picks for |A|={a}")
        rankings = {x: ts.rank_tags(b.eval_table, x) for x in plain.images}
        evaluation = ts.evaluate(b.eval_truth, plain, rankings)
        with self.ledger.check("compare row equals evaluate"):
            row = next(r for r in report.rows if r.spec.name == "adaptive")
            if (repr(row.mf), repr(row.map)) != (repr(evaluation.mf), repr(evaluation.map)):
                raise RuntimeError("compare's adaptive row differs from evaluate")
        with self.ledger.check("sampled F/AP equal the scalar references"):
            for x in plain.images[:: self.SAMPLE_STEP]:
                relevant = b.eval_truth.relevant_set(x)
                f = ts.f_image(relevant, plain.tag_set(x))[2]
                ap = ts.ap_image(relevant, rankings[x])
                got = evaluation.per_image[x]
                if abs(f - got.f) > 1e-12 or abs(ap - got.ap) > 1e-12:
                    raise RuntimeError(f"{x}: evaluate F/AP {got.f!r}/{got.ap!r} "
                                       f"!= scalar {f!r}/{ap!r}")


# ------------------------------------------------------------ fusion_learn

class FusionLearn(Workload):
    """In-process fusion weight learning over three noisy training tables."""

    name = "fusion_learn"
    #: Standard deviation of the Gaussian noise added to each copy.
    NOISE = (0.2, 0.4, 0.8)
    GRID_STEP = 0.1
    #: One coordinate sweep is ~32 objective evaluations on every seed; how
    #: many further sweeps run depends on the seed (up to ~90 evaluations
    #: in all), which would make run_s vary with the seed, not the code.
    MAX_SWEEPS = 1
    #: Objective evaluations per ``Clock`` segment (about 1.5 s).
    SEGMENT_EVALS = 8

    def describe(self) -> dict:
        n = self.spec.n_train * (self.spec.n_seen + self.spec.n_novel)
        return {"spec": asdict(self.spec), "copy_noise_std": list(self.NOISE),
                "objective": "mf", "grid_step": self.GRID_STEP, "max_sweeps": self.MAX_SWEEPS,
                "score_matrix_bytes": 8 * n * len(self.NOISE)}

    def setup(self) -> None:
        with self.span("synthetic.generate"):
            bench = ts.generate_synthetic(self.spec, self.seed)
        base = bench.train_table
        rng = np.random.default_rng((self.seed, 1))
        self.tables = [
            ts.ScoreTable(base.images, base.tags,
                          base.scores + rng.normal(0.0, s, base.scores.shape))
            for s in self.NOISE
        ]
        self.truth, self.vocab = bench.train_truth, bench.vocab

    def _strategy(self):
        inner = ts.threshold_selection_strategy(self.truth, self.vocab)

        def counted(table):
            # Traced passes are scaled per pass: reference runs inside
            # learn_weights would count as its self time.
            if self.evals and self.evals % self.SEGMENT_EVALS == 0 and not self.tracer:
                self.clock.checkpoint()
            self.evals += 1
            self.count("fusion.objective_evals")
            with self.span("fusion.select"):
                return inner(table)

        return counted

    def run_pass(self) -> dict:
        self.evals = 0
        self.model = self.op("op.learn_weights", lambda: ts.learn_weights(
            self.tables, self.truth, self.vocab, selection_strategy=self._strategy(),
            objective="mf", grid_step=self.GRID_STEP, max_sweeps=self.MAX_SWEEPS,
        ))
        return {"images": self.spec.n_train * self.evals, "fusion.objective_evals": self.evals}

    def _objective(self, weights) -> float:
        """The learner's objective, rebuilt from public functions."""
        fused = ts.fuse(self.tables, weights)
        selections = ts.threshold_selection_strategy(self.truth, self.vocab)(fused)
        judged = fused.restrict([t for t in fused.tags if self.truth.covers(t)])
        rankings = {x: ts.rank_tags(judged, x) for x in selections.images}
        return ts.evaluate(self.truth, selections, rankings, require_full_coverage=False).mf

    def check(self) -> None:
        model = self.model
        with self.ledger.check("history non-decreasing"):
            if any(b < a for a, b in zip(model.history, model.history[1:])):
                raise RuntimeError(f"history decreases: {model.history}")
        with self.ledger.check("weights on the simplex"):
            w = np.array(model.weights)
            if (w < 0).any() or abs(float(w.sum()) - 1.0) > 1e-9:
                raise RuntimeError(f"weights off the simplex: {model.weights}")
        with self.ledger.check("objective at least uniform"):
            m = len(self.tables)
            uniform = self._objective(np.full(m, 1.0 / m))
            final = self._objective(model.weights)
            if repr(uniform) != repr(model.history[0]) or repr(final) != repr(model.objective):
                raise RuntimeError("recomputed objectives differ from the model's history")
            if final < uniform:
                raise RuntimeError(f"final objective {final!r} below uniform {uniform!r}")


WORKLOADS = {w.name: w for w in (Walkthrough, WideCompare, FusionLearn)}
