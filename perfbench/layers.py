"""Which library functions the traced run wraps, and the per-layer metrics
derived from the spans and counters they leave.

Each module calls its dependencies through its own namespace (``from
.metrics import evaluate`` binds ``tagselect.baselines.evaluate``), so a
function is wrapped in every namespace that calls it.  Counters come from
the returned objects and from file sizes, never from inside the program.
"""

from __future__ import annotations

import os

# Namespaces whose bindings are wrapped: the package root (the benchmark's
# own calls), and every module that calls another module's public function.
NAMESPACES = (
    "tagselect",
    "tagselect.cli",
    "tagselect.baselines",
    "tagselect.fusion",
    "tagselect.selection",
    "tagselect.thresholds",
)

FORMATS = (
    "load_vocabulary", "save_vocabulary",
    "load_scores", "save_scores",
    "load_truth", "save_truth",
    "load_cooccurrence", "save_cooccurrence",
    "load_selections", "save_selections",
    "load_thresholds", "save_thresholds",
    "save_report",
)


def _strategy_span(a) -> str:
    spec = a["spec"]
    if spec.name != "adaptive":
        return f"baselines.{spec.name}"
    refine = a["cfg"].refine if a["cfg"] is not None else spec.refine
    return "selection.adaptive_refine" if refine else "selection.adaptive"


def _wrapped(tracer) -> dict:
    from tagselect import FROM_FALLBACK, FROM_NOVEL_TOPK, FROM_SEEN_THRESHOLDING

    def thresholds(model, a):
        tracer.count("thresholds.trained", len(model.tau))
        tracer.count("thresholds.untrainable", len(model.untrainable))

    def similarity(sim, a):
        present = len(sim.tags) - len(sim.missing)
        tracer.count("similarity.pairs", present * (present - 1) // 2)

    def selection(result, a):
        if a["spec"].name != "adaptive":
            return
        for image in result.images:
            provenances = [st.provenance for st in result.row(image)]
            tracer.count("selection.images")
            tracer.count("selection.tags_selected", len(provenances))
            if FROM_FALLBACK in provenances:
                tracer.count("selection.images_fallback")
            else:
                tracer.count("selection.a_total", provenances.count(FROM_SEEN_THRESHOLDING))
                tracer.count("selection.k_novel_total", provenances.count(FROM_NOVEL_TOPK))

    def metrics(report, a):
        tracer.count("metrics.included", report.n_included)
        tracer.count("metrics.excluded", report.n_excluded)

    return {
        "generate_synthetic": ("synthetic.generate", None),
        "learn_all_thresholds": ("thresholds.learn_all", thresholds),
        "tag_stats": ("thresholds.tag_stats", None),
        "similarity_matrix": ("similarity.matrix", similarity),
        "run_strategy": (_strategy_span, selection),
        "compare": (
            lambda a: "baselines.compare_refined" if a["refined_rankings"] else "baselines.compare",
            None,
        ),
        "evaluate": (
            lambda a: "metrics.evaluate" if a["require_full_coverage"]
            else "metrics.evaluate_partial",
            metrics,
        ),
        "rank_tags": ("core.rank_tags", None),
        "fuse": ("fusion.fuse", None),
        "learn_weights": ("fusion.learn_weights", None),
    }


def install(tracer) -> None:
    """Wrap the traced functions; ``tracer.restore()`` undoes it."""
    import importlib

    wrapped = _wrapped(tracer)
    for ns_name in NAMESPACES:
        ns = importlib.import_module(ns_name)
        for attr, (name, after) in wrapped.items():
            if hasattr(ns, attr):
                tracer.patch(ns, attr, name, after)

    formats = importlib.import_module("tagselect.formats")

    def read(result, a):
        tracer.count("formats.bytes_read", os.path.getsize(a["path"]))

    def written(result, a):
        tracer.count("formats.bytes_written", os.path.getsize(a["path"]))

    for attr in FORMATS:
        tracer.patch(formats, attr, f"formats.{attr}", read if attr.startswith("load") else written)


# Span names measured on the set-up roots; every other span is measured on
# the timed-pass roots.
SETUP_SPANS = (
    "synthetic.generate",
    "cli.gen_synth",
    "formats.save_vocabulary",
    "formats.save_scores",
    "formats.save_truth",
    "formats.save_cooccurrence",
)


def per_root(tracer, root, setup: bool) -> dict[str, float]:
    """Layer metrics of one set-up or one timed pass.

    Every span name ``x`` gives ``x_s`` (total) and ``x_self_s``; counters
    keep their names, and ratios are formed per root.
    """
    total, self_time = tracer.totals(root)
    out: dict[str, float] = {}
    for name in total:
        if name in ("setup", "pass") or (name in SETUP_SPANS) != setup:
            continue
        out[f"{name}_s"] = total[name]
        out[f"{name}_self_s"] = self_time[name]
    if setup:
        return out
    counts = dict(tracer.counters.get(root[0], {}))
    out.update(counts)
    images = counts.get("selection.images", 0)
    fallback = counts.get("selection.images_fallback", 0)
    if images:
        out["selection.fallback_ratio"] = fallback / images
    if images > fallback:
        out["selection.mean_a"] = counts["selection.a_total"] / (images - fallback)
        out["selection.mean_k_novel"] = counts["selection.k_novel_total"] / (images - fallback)
    evals = counts.get("fusion.objective_evals", 0)
    if evals:
        out["fusion.objective_s"] = total["fusion.learn_weights"] / evals
    return out
