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
    ScoreTable,
    StrategySpec,
    TagSelectError,
    Vocabulary,
    compare,
    predict_threshold,
    run_strategy,
    select_by_threshold,
    similarity_matrix,
    table1_strategies,
    tag_stats,
)
from tagselect import baselines, selection
from tagselect.selection import refine_table


def strategy(name, **kw):
    return StrategySpec(name, **kw)


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
        # Each strategy's rows equal the per-image oracle by (tag, repr(score),
        # provenance), on tie-heavy tables with shuffled tag strings.
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


class TestCompare:
    def test_all_six_rows_share_map(self, small_bench, small_model):
        sim = similarity_matrix(small_bench.cooccurrence, small_bench.vocab)
        report = compare(
            table1_strategies(),
            small_bench.eval_table,
            small_bench.eval_truth,
            small_bench.vocab,
            small_model,
            sim,
        )
        assert len(report.rows) == 6
        maps = [r.map for r in report.rows]
        assert max(maps) - min(maps) <= 1e-12

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
