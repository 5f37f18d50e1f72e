"""The six named strategies and their side-by-side comparison."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

import oracles
import problems

from tagselect import (
    FROM_NOVEL_TOPK,
    FROM_SEEN_THRESHOLDING,
    STRATEGY_NAMES,
    GroundTruth,
    ScoreTable,
    SimilarityMatrix,
    StrategySpec,
    TagSelectError,
    ThresholdModel,
    Vocabulary,
    compare,
    learn_all_thresholds,
    predict_threshold,
    run_strategy,
    select_by_threshold,
    similarity_matrix,
    table1_strategies,
    tag_stats,
)
from tagselect import baselines, selection, thresholds
from tagselect.selection import refine_table


def strategy(name, **kw):
    return StrategySpec(name, **kw)


def check_every_strategy(problem):
    """Each strategy's rows equal the per-image oracle by (tag, repr(score),
    provenance), on tie-heavy tables with shuffled tag strings."""
    vocab, table, model, sim, cfg = problem
    batch = replace(model, stats=tag_stats(table))
    mu_sigma = {t: predict_threshold(batch, t, "mu_sigma") for t in vocab.tags}
    lsq = {t: predict_threshold(batch, t, "lsq") for t in vocab.tags}
    thresholds = {
        "mu_sigma": mu_sigma,
        "lsq": lsq,
        "hybrid_tau_musigma": {**mu_sigma, **model.tau},
        "hybrid_tau_lsq": {**lsq, **model.tau},
    }
    runs = [(name, cfg) for name in STRATEGY_NAMES[:-1]]
    runs += [("adaptive", mode) for mode in problems.refine_modes(cfg)]
    for name, mode in runs:
        spec = strategy(name, k=cfg.fallback_k)
        result = run_strategy(spec, table, vocab, model, sim, cfg=mode)
        assert result.images == table.images
        for x in table.images:
            got = [(p.tag, repr(p.score), p.provenance) for p in result.row(x)]
            if name == "top_k":
                want = oracles.topk_oracle(table, x, cfg.fallback_k)
            elif name == "adaptive":
                want = oracles.adaptive_oracle(
                    table, x, vocab, model, sim, mode.fallback_k, mode.refine, mode.w,
                    mode.report_refined,
                )
            else:
                want = oracles.threshold_oracle(table, x, thresholds[name])
            assert got == want, (name, mode, x)


class TestStrategySpec:
    def test_unknown_name_rejected(self):
        with pytest.raises(TagSelectError):
            StrategySpec("best_guess")

    def test_describe_labels(self):
        assert strategy("top_k", k=7).describe() == "top_7"
        assert strategy("mu_sigma").describe() == "mu_sigma"
        assert strategy("adaptive").describe() == "adaptive"
        assert strategy("adaptive", refine=True, w=0.5).describe() == "adaptive_refined_w0.5"

    def test_table1_covers_all_strategies(self):
        specs = table1_strategies()
        assert tuple(s.name for s in specs) == STRATEGY_NAMES


class TestRunStrategy:
    def test_topk_selects_k_everywhere(self, small_bench):
        result = run_strategy(
            strategy("top_k", k=5), small_bench.eval_table, small_bench.vocab
        )
        assert all(len(result.row(x)) == 5 for x in result.images)

    def test_mu_sigma_ignores_constant_columns(self):
        # sigma = 0 means the threshold equals the constant score itself,
        # and strict comparison never selects the tag.
        vocab = Vocabulary.from_partition(["flat", "vary"], ["n"])
        scores = np.array([[0.5, 0.9, 0.1], [0.5, 0.1, 0.2], [0.5, 0.2, 0.0]])
        table = ScoreTable(("a", "b", "c"), vocab.tags, scores)
        result = run_strategy(strategy("mu_sigma"), table, vocab)
        for x in table.images:
            assert "flat" not in result.tag_set(x)

    def test_mu_sigma_uses_batch_statistics(self, small_bench):
        table = small_bench.eval_table
        vocab = small_bench.vocab
        stats = tag_stats(table)
        result = run_strategy(strategy("mu_sigma"), table, vocab)
        thr = {t: stats.get(t)[0] + stats.get(t)[1] for t in vocab.tags}
        for x in list(table.images)[:20]:
            expected = select_by_threshold(table, x, thr, vocab.tags)
            assert result.tag_set(x) == expected

    def test_lsq_reconstruction_uses_coeffs_on_batch_stats(self, small_bench, small_model):
        table = small_bench.eval_table
        vocab = small_bench.vocab
        a, b = small_model.lsq_coeffs
        stats = tag_stats(table)
        result = run_strategy(strategy("lsq"), table, vocab, small_model)
        thr = {t: a * stats.get(t)[0] + b * stats.get(t)[1] for t in vocab.tags}
        for x in list(table.images)[:20]:
            assert result.tag_set(x) == select_by_threshold(table, x, thr, vocab.tags)

    def test_hybrid_uses_learned_tau_on_trainable_seen(self, small_bench, small_model):
        table = small_bench.eval_table
        vocab = small_bench.vocab
        result = run_strategy(strategy("hybrid_tau_musigma"), table, vocab, small_model)
        stats = tag_stats(table)
        thr = {}
        for t in vocab.tags:
            if t in small_model.tau:
                thr[t] = small_model.tau[t]
            else:
                mu, sigma = stats.get(t)
                thr[t] = mu + sigma
        for x in list(table.images)[:20]:
            assert result.tag_set(x) == select_by_threshold(table, x, thr, vocab.tags)

    def test_hybrid_seen_part_matches_adaptive(self, small_bench, small_model):
        # On trainable seen tags, the hybrid rows and the adaptive strategy
        # apply the same thresholds, so their seen picks coincide.
        table = small_bench.eval_table
        vocab = small_bench.vocab
        hybrid = run_strategy(strategy("hybrid_tau_lsq"), table, vocab, small_model)
        adaptive = run_strategy(strategy("adaptive"), table, vocab, small_model)
        trainable = set(small_model.tau)
        for x in list(table.images)[:30]:
            adaptive_seen = {
                p.tag for p in adaptive.row(x) if p.provenance == FROM_SEEN_THRESHOLDING
            }
            if not adaptive_seen:
                continue  # fallback image: hybrid has no matching notion
            hybrid_seen = {t for t in hybrid.tag_set(x) if t in trainable}
            assert hybrid_seen == adaptive_seen

    def test_model_required_where_it_matters(self, small_bench):
        table = small_bench.eval_table
        vocab = small_bench.vocab
        for name in ("lsq", "hybrid_tau_musigma", "hybrid_tau_lsq", "adaptive"):
            with pytest.raises(TagSelectError):
                run_strategy(strategy(name), table, vocab, None)

    def test_vocabulary_alignment_enforced(self, small_bench, small_model):
        table = small_bench.eval_table
        shuffled = table.restrict(tuple(reversed(table.tags)))
        with pytest.raises(TagSelectError):
            run_strategy(strategy("top_k"), shuffled, small_bench.vocab, small_model)

    @settings(deadline=None, max_examples=200)
    @given(problems.selection_problems())
    def test_every_strategy_matches_oracle(self, problem):
        check_every_strategy(problem)

    @settings(deadline=None, max_examples=200)
    @given(problems.selection_problems(), problems.SMALL_BLOCKS)
    def test_every_strategy_matches_oracle_in_small_row_blocks(self, problem, cells):
        # The threshold mask, the novel top-k, the fallback and refinement
        # over many row blocks of a few images each.
        with problems.small_blocks(cells):
            check_every_strategy(problem)

    def test_adaptive_novel_picks_flagged(self, small_bench, small_model):
        table = small_bench.eval_table
        result = run_strategy(
            strategy("adaptive"), table, small_bench.vocab, small_model
        )
        novel_set = set(small_bench.vocab.novel_tags)
        for x in list(result.images)[:30]:
            for p in result.row(x):
                if p.provenance == FROM_NOVEL_TOPK:
                    assert p.tag in novel_set


THRESHOLD_STRATEGIES = ("mu_sigma", "lsq", "hybrid_tau_musigma", "hybrid_tau_lsq")


def handed_thresholds(name, table, vocab, model):
    """The threshold vector that ``run_strategy`` hands to ``select_rows``."""
    handed = []

    def capture(table, pool, tau, *args):
        handed.append(tau)
        return selection.select_rows(table, pool, tau, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(baselines, "select_rows", capture)
        run_strategy(strategy(name), table, vocab, model)
    (tau,) = handed
    assert tau.dtype == np.float64 and tau.shape == (table.n_tags,)
    return [repr(v) for v in tau.tolist()]


def scalar_thresholds(name, table, model):
    """The same vector from ``predict_threshold``, one tag at a time, on the
    batch statistics; the hybrids take the model's learned thresholds."""
    stats = tag_stats(table)
    batch = ThresholdModel({}, stats) if name == "mu_sigma" else replace(model, stats=stats)
    mode = "lsq" if name.endswith("lsq") else "mu_sigma"
    learned = model.tau if name.startswith("hybrid") else {}
    return [
        repr(learned[t] if t in learned else predict_threshold(batch, t, mode))
        for t in table.tags
    ]


class TestThresholdVectors:
    @settings(deadline=None, max_examples=200)
    @given(problems.selection_problems())
    def test_every_threshold_equals_the_scalar_rule(self, problem):
        # The model's statistics come from another table, so only the batch
        # statistics can give the scalar values; models have two or three
        # coefficients and untrainable seen tags, and tables constant columns.
        vocab, table, model, _, _ = problem
        other = ScoreTable(table.images, table.tags, table.scores * 0.5 + 0.125)
        model = replace(model, stats=tag_stats(other))
        for name in THRESHOLD_STRATEGIES:
            assert handed_thresholds(name, table, vocab, model) == scalar_thresholds(
                name, table, model
            ), name

    @pytest.mark.parametrize("intercept", [False, True])
    def test_learned_models_on_the_eval_table(self, small_bench, intercept):
        bench = small_bench
        model = learn_all_thresholds(
            bench.train_table, bench.train_truth, bench.vocab, intercept=intercept
        )
        assert len(model.lsq_coeffs) == 2 + intercept
        for name in THRESHOLD_STRATEGIES:
            assert handed_thresholds(name, bench.eval_table, bench.vocab, model) == (
                scalar_thresholds(name, bench.eval_table, model)
            ), name

    def test_constant_and_overflowing_columns(self):
        # A constant column (sigma 0); a column whose statistics overflow to
        # inf and nan; one whose mean is -inf and deviation inf, so mu + sigma
        # is nan; and one whose mean is finite but 4 * mu overflows.  No
        # warning is raised, as the scalar rule raises none.
        vocab = Vocabulary.from_partition(["flat", "huge"], ["sink", "big"])
        scores = np.array([
            [0.5, 1.7e308, -1.7e308, 6e307],
            [0.5, 1.6e308, -1.6e308, 6e307],
            [0.5, 0.0, 0.0, 6e307],
        ])
        table = ScoreTable(("a", "b", "c"), vocab.tags, scores)
        with np.errstate(over="ignore", invalid="ignore"):
            stats = tag_stats(table)
        for coeffs in [(4.0, 0.5), (4.0, -0.5, -0.25)]:
            model = ThresholdModel({"flat": 0.25}, stats, coeffs, ("huge",))
            for name in THRESHOLD_STRATEGIES:
                got = handed_thresholds(name, table, vocab, model)
                assert got == scalar_thresholds(name, table, model), (coeffs, name)
                assert "nan" in got


class TestStrategyErrors:
    """Each threshold strategy's errors, with their text, in the order they
    are checked: the model, then the table's images, then the model's
    thresholds (read by ``learned_pool`` alone), then the lsq coefficients
    (read by ``_lsq_thresholds`` alone)."""

    VOCAB = Vocabulary.from_partition(["a", "b"], ["n"])
    TABLE = ScoreTable(("x", "y"), VOCAB.tags, [[0.1, 0.5, 0.9], [0.3, 0.2, 0.4]])
    EMPTY = ScoreTable((), VOCAB.tags, np.zeros((0, 3)))
    WIDER = ScoreTable(("x", "y"), VOCAB.tags + ("zzz",), [[0.1, 0.5, 0.9, 0.0]] * 2)

    def run(self, name, table, model):
        with pytest.raises(TagSelectError) as exc:
            run_strategy(strategy(name), table, self.VOCAB, model)
        return type(exc.value).__name__, str(exc.value)

    @pytest.mark.parametrize("name", ["lsq", "hybrid_tau_musigma", "hybrid_tau_lsq"])
    def test_model_is_checked_first(self, name):
        want = ("TagSelectError", f"strategy {name!r} requires a threshold model")
        assert self.run(name, self.TABLE, None) == want
        assert self.run(name, self.EMPTY, None) == want

    @pytest.mark.parametrize("name", THRESHOLD_STRATEGIES)
    def test_empty_table_before_the_models_thresholds(self, name):
        # The model's threshold for a tag outside the table is not reached.
        model = ThresholdModel({"zzz": 0.5}, tag_stats(self.WIDER))
        want = ("TagSelectError", "cannot compute statistics of an empty score table")
        assert self.run(name, self.EMPTY, model) == want

    @pytest.mark.parametrize("name", ["lsq", "hybrid_tau_lsq"])
    def test_missing_coefficients(self, name):
        model = ThresholdModel({"a": 0.3}, tag_stats(self.TABLE))
        assert self.run(name, self.TABLE, model) == (
            "DegenerateFitError", "model carries no least-squares coefficients"
        )

    def test_thresholds_before_the_coefficients(self):
        model = ThresholdModel({"a": 0.3, "n": 0.5}, tag_stats(self.TABLE))
        assert self.run("hybrid_tau_lsq", self.TABLE, model) == (
            "TagSelectError", "threshold given for 'n', not a seen tag"
        )
        assert self.run("lsq", self.TABLE, model) == (
            "DegenerateFitError", "model carries no least-squares coefficients"
        )

    # Each reader: its subject in the missing-model message, the model parts
    # it reads, and the call, which returns something comparable.
    READERS = {
        "lsq": ("strategy 'lsq'", {"coefficients"}, lambda c, m: c.selected("lsq", m)),
        "hybrid_tau_musigma": (
            "strategy 'hybrid_tau_musigma'", {"thresholds"},
            lambda c, m: c.selected("hybrid_tau_musigma", m),
        ),
        "hybrid_tau_lsq": (
            "strategy 'hybrid_tau_lsq'", {"thresholds", "coefficients"},
            lambda c, m: c.selected("hybrid_tau_lsq", m),
        ),
        "adaptive": (
            "strategy 'adaptive'", {"thresholds"}, lambda c, m: c.selected("adaptive", m)
        ),
        "adaptive_refined": (
            "strategy 'adaptive'", {"thresholds"},
            lambda c, m: c.selected("adaptive", m, refine=True),
        ),
        "compare_refined_rankings": (
            "strategy 'adaptive'", {"thresholds"},
            lambda c, m: compare(
                [strategy("adaptive", k=1, refine=True)], c.table, c.truth, c.vocab, m, c.sim,
                refined_rankings=True,
            ).to_dict(),
        ),
        "refine_table": (
            "refinement", {"thresholds"},
            lambda c, m: refine_table(c.table, c.vocab, m, c.sim, 0.5).scores.tobytes(),
        ),
    }

    class Case:
        """A vocabulary, a table over it, its truth and similarity, and a
        well-formed model with learned thresholds on every seen tag."""

        def __init__(self, vocab):
            self.vocab = vocab
            self.table = TestStrategyErrors.TABLE.restrict(vocab.tags)
            n = len(vocab)
            labels = np.array([[0, 1, 1], [1, 0, 0]])
            self.truth = GroundTruth(("x", "y"), vocab.tags, labels[:, :n])
            sim = np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.75], [0.25, 0.75, 1.0]])
            self.sim = SimilarityMatrix(vocab.tags, sim[:n, :n], ())
            self.model = ThresholdModel(
                {"a": 0.2, "b": 0.3}, tag_stats(TestStrategyErrors.WIDER), (1.0, 0.5)
            )

        def selected(self, name, model, **kw):
            spec = strategy(name, k=1, **kw)
            result = run_strategy(spec, self.table, self.vocab, model, self.sim)
            return [repr(result.row(x)) for x in result.images]

    # Each defect: the vocabulary, the model part it breaks, the message (None
    # for the reader's missing-model message) and the model that carries it.
    NOVEL_COLUMN = Vocabulary.from_partition(["a", "b"], ["n"])
    ALL_LEARNED = Vocabulary.from_partition(["a", "b"], [])
    DEFECTS = {
        "no_model": (NOVEL_COLUMN, "model", None, lambda m: None),
        "threshold_outside_the_vocabulary": (
            NOVEL_COLUMN, "thresholds",
            ("TagSelectError", "threshold given for 'zzz', not a seen tag"),
            lambda m: replace(m, tau={**m.tau, "zzz": 0.5}),
        ),
        "threshold_on_a_novel_tag": (
            NOVEL_COLUMN, "thresholds",
            ("TagSelectError", "threshold given for 'n', not a seen tag"),
            lambda m: replace(m, tau={**m.tau, "n": 0.5}),
        ),
        "no_coefficients_with_a_novel_column": (
            NOVEL_COLUMN, "coefficients",
            ("DegenerateFitError", "model carries no least-squares coefficients"),
            lambda m: replace(m, lsq_coeffs=None),
        ),
        "no_coefficients_with_every_column_learned": (
            ALL_LEARNED, "coefficients",
            ("DegenerateFitError", "model carries no least-squares coefficients"),
            lambda m: replace(m, lsq_coeffs=None),
        ),
    }

    @pytest.mark.parametrize("reader", list(READERS))
    @pytest.mark.parametrize("defect", list(DEFECTS))
    def test_each_reader_refuses_the_defects_of_what_it_reads(self, defect, reader):
        # Every reader needs a model; a reader refuses a defect in a part it
        # reads, with that part's one message, and otherwise runs as on the
        # model without the defect.
        vocab, part, want, corrupt = self.DEFECTS[defect]
        subject, reads, call = self.READERS[reader]
        case = self.Case(vocab)
        bad = corrupt(case.model)
        if part == "model" or part in reads:
            if want is None:
                want = ("TagSelectError", f"{subject} requires a threshold model")
            with pytest.raises(TagSelectError) as exc:
                call(case, bad)
            assert (type(exc.value).__name__, str(exc.value)) == want
        else:
            assert call(case, bad) == call(case, case.model)


class TestCompare:
    def test_all_six_rows_share_map(self, small_bench, small_model):
        # Without refined rankings every row, refining or not, is judged on
        # the one raw ranking, so the MAP values are the same float.
        sim = similarity_matrix(small_bench.cooccurrence, small_bench.vocab)
        for refine in (False, True):
            report = compare(
                table1_strategies(refine=refine),
                small_bench.eval_table,
                small_bench.eval_truth,
                small_bench.vocab,
                small_model,
                sim,
                refined_rankings=False,
            )
            assert len(report.rows) == 6
            assert {repr(r.map) for r in report.rows} == {repr(report.rows[0].map)}

    def test_identical_specs_give_identical_rows(self, small_bench, small_model):
        report = compare(
            [strategy("top_k", k=5), strategy("top_k", k=5)],
            small_bench.eval_table,
            small_bench.eval_truth,
            small_bench.vocab,
            small_model,
        )
        first, second = report.rows
        assert (first.mf, first.map, first.mean_selected) == (
            second.mf,
            second.map,
            second.mean_selected,
        )

    def test_mean_selected_counts_rows(self, small_bench, small_model):
        report = compare(
            [strategy("top_k", k=3)],
            small_bench.eval_table,
            small_bench.eval_truth,
            small_bench.vocab,
            small_model,
        )
        assert report.rows[0].mean_selected == 3.0

    def test_refined_rankings_exempt_from_shared_map(self, small_bench, small_model):
        sim = similarity_matrix(small_bench.cooccurrence, small_bench.vocab)
        report = compare(
            [strategy("top_k", k=5), strategy("adaptive", refine=True, w=0.5)],
            small_bench.eval_table,
            small_bench.eval_truth,
            small_bench.vocab,
            small_model,
            sim,
            refined_rankings=True,
        )
        # The refined adaptive row may legitimately differ in MAP.
        assert len(report.rows) == 2

    def test_refined_rankings_refine_once_per_strategy(self, small_bench, small_model,
                                                       monkeypatch):
        calls = []

        def counting(table, *args):
            calls.append(table)
            return refine_table(table, *args)

        monkeypatch.setattr(baselines, "refine_table", counting)
        monkeypatch.setattr(selection, "refine_table", counting)
        sim = similarity_matrix(small_bench.cooccurrence, small_bench.vocab)
        specs = [
            strategy("top_k"),
            strategy("adaptive", refine=True),
            strategy("adaptive", refine=True, w=0.25),
        ]
        compare(specs, small_bench.eval_table, small_bench.eval_truth, small_bench.vocab,
                small_model, sim, refined_rankings=True)
        assert calls == [small_bench.eval_table] * 2

    def test_one_finite_scan_and_one_tag_stats_per_table(self, small_bench, small_model,
                                                         monkeypatch):
        b = small_bench
        # A new table, so that nothing is cached on it yet.
        table = ScoreTable(b.eval_table.images, b.eval_table.tags, b.eval_table.scores)
        sim = similarity_matrix(b.cooccurrence, b.vocab)
        scanned, built = [], []
        isfinite, stats_type = np.isfinite, thresholds.TagStats

        def scan(a, *args, **kwargs):
            if np.shape(a) == table.scores.shape:
                scanned.append(a)
            return isfinite(a, *args, **kwargs)

        def build(tags, mu, sigma):
            built.append(tags)
            return stats_type(tags, mu, sigma)

        monkeypatch.setattr(np, "isfinite", scan)
        monkeypatch.setattr(thresholds, "TagStats", build)
        for refined_rankings in (False, True):
            compare(table1_strategies(refine=True), table, b.eval_truth, b.vocab, small_model,
                    sim, refined_rankings=refined_rankings)
        # The table and, for refined rankings, the refined one: each scanned
        # once; the statistics of the table built once.
        assert len(scanned) == 2 and scanned[0] is table.scores
        assert scanned[1] is not table.scores
        assert built == [table.tags]

    def test_refined_rankings_without_model_name_the_model(self, small_bench):
        sim = similarity_matrix(small_bench.cooccurrence, small_bench.vocab)
        with pytest.raises(TagSelectError, match="requires a threshold model"):
            compare([strategy("adaptive", refine=True)], small_bench.eval_table,
                    small_bench.eval_truth, small_bench.vocab, None, sim,
                    refined_rankings=True)

    def test_empty_strategy_list_rejected(self, small_bench):
        with pytest.raises(TagSelectError):
            compare(
                [],
                small_bench.eval_table,
                small_bench.eval_truth,
                small_bench.vocab,
            )

    def test_report_round_trip_dict(self, small_bench, small_model):
        report = compare(
            [strategy("top_k", k=5)],
            small_bench.eval_table,
            small_bench.eval_truth,
            small_bench.vocab,
            small_model,
        )
        d = report.to_dict()
        assert d["rows"][0]["strategy"] == "top_k"
        assert d["rows"][0]["label"] == "top_5"
        text = report.format_table()
        assert "top_5" in text and "mf" in text
