"""Output bytes must not depend on the BLAS or sort kernel that numpy runs.

An OpenBLAS built with ``DYNAMIC_ARCH`` picks its kernels for the CPU at
load time, and ``OPENBLAS_CORETYPE`` forces that choice.  Each kernel may
sum a dot product in its own order, so a result that went through BLAS can
differ in the last bit from one machine to the next.  This test runs the
commands whose outputs hold such sums under four kernels and asserts that
they write the same bytes.  Where OpenBLAS ignores the variable (a build
without ``DYNAMIC_ARCH``, another BLAS, or a CPU lacking a kernel's
instructions, where OpenBLAS falls back to one it can run), every run uses
the same kernel and the test passes trivially; the CI log prints numpy's
BLAS configuration to tell which case ran.

numpy's unstable argsort likewise dispatches at import to a SIMD kernel
for the CPU (AVX-512, AVX2 or none), and ``NPY_DISABLE_CPU_FEATURES`` turns
tiers of them off.  Each kernel orders equal keys its own way; the tag
orders must not show it.  The second test hashes every ranking, selection
and comparison under each tier this CPU and numpy can turn off, and passes
trivially where there is none (a CPU or numpy without such tiers).
"""

import os
import subprocess
import sys
from pathlib import Path

from tagselect.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
CORETYPES = ("Haswell", "Sandybridge", "Prescott", "Nehalem")
OUTPUTS = ("thr.tsv", "thr_c.tsv", "refined.tsv", "sel.tsv")

# One interpreter per kernel runs every command: OpenBLAS reads the variable
# once, when numpy loads it.
PIPELINE = """
import sys
from tagselect.cli import main

bench, out = sys.argv[1:]
io = ["--vocab", f"{bench}/vocabulary.tsv"]
train = [*io, "--scores", f"{bench}/train_scores.tsv", "--truth", f"{bench}/train_truth.tsv"]
model = ["--thresholds", f"{out}/thr.tsv", "--cooccurrence", f"{bench}/cooccurrence.tsv"]
evals = [*io, "--scores", f"{bench}/eval_scores.tsv", *model]
for argv in (
    ["learn-thresholds", *train, "--out", f"{out}/thr.tsv"],
    ["learn-thresholds", *train, "--intercept", "--out", f"{out}/thr_c.tsv"],
    ["refine", *evals, "--out", f"{out}/refined.tsv"],
    ["select", *evals, "--strategy", "adaptive", "--refine", "--report-refined",
     "--out", f"{out}/sel.tsv"],
):
    assert main(argv) == 0, argv
"""


def test_outputs_identical_under_every_openblas_kernel(tmp_path):
    bench = tmp_path / "bench"
    assert main([
        "gen-synth", "--out-dir", str(bench),
        "--n-images", "100", "--n-train", "100", "--n-seen", "40", "--n-novel", "30",
    ]) == 0
    written = {}
    for coretype in CORETYPES:
        out = tmp_path / coretype
        out.mkdir()
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_CORETYPE=coretype)
        subprocess.run(
            [sys.executable, "-c", PIPELINE, str(bench), str(out)],
            env=env, check=True, timeout=300,
        )
        written[coretype] = {name: (out / name).read_bytes() for name in OUTPUTS}
    first = written[CORETYPES[0]]
    differing = [
        (coretype, name)
        for coretype in CORETYPES[1:]
        for name in OUTPUTS
        if written[coretype][name] != first[name]
    ]
    assert differing == []


# Every ranking and selection on a continuous and on a tie-heavy table, as
# one digest.
ORDERS = """
import hashlib
import json

import numpy as np
import tagselect as ts

spec = ts.SyntheticSpec(n_images=150, n_train=150, n_seen=60, n_novel=60)
bench = ts.generate_synthetic(spec, seed=1)
model = ts.learn_all_thresholds(bench.train_table, bench.train_truth, bench.vocab)
sim = ts.similarity_matrix(bench.cooccurrence, bench.vocab)
raw = bench.eval_table
quarter = ts.ScoreTable(raw.images, raw.tags, np.round(raw.scores * 4) / 4)
strategies = [*ts.table1_strategies(), ts.StrategySpec("adaptive", refine=True)]
digest = hashlib.sha256()
for table in (raw, quarter):
    digest.update(ts.rank_columns(table).order.tobytes())
    for strategy in strategies:
        result = ts.run_strategy(strategy, table, bench.vocab, model, sim)
        for array in (result.offsets, result.columns, result.scores, result.provenance):
            digest.update(array.tobytes())
    for refined in (False, True):
        report = ts.compare(strategies, table, bench.eval_truth, bench.vocab, model, sim,
                            refined_rankings=refined)
        digest.update(json.dumps(report.to_dict()).encode())
print(digest.hexdigest())
"""


def sort_tiers() -> list[list[str]]:
    """The CPU features to turn off for each SIMD tier that numpy dispatches
    to on this CPU, highest first: AVX-512, then AVX2 as well.  A tier is
    named ``X86_V4``/``X86_V3`` by newer numpy and ``AVX512_SKX``/``AVX2`` by
    older; every dispatched feature after its head goes off with it."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    features = getattr(umath, "__cpu_features__", {})
    on = [f for f in getattr(umath, "__cpu_dispatch__", ()) if features.get(f)]
    tiers = []
    for heads in (("X86_V4", "AVX512_SKX"), ("X86_V3", "AVX2")):
        head = next((f for f in heads if f in on), None)
        if head is not None:
            tiers.append(on[on.index(head):])
    return tiers


def test_orders_identical_under_every_sort_kernel():
    digests = {}
    for disabled in [[], *sort_tiers()]:
        env = dict(os.environ, PYTHONPATH=str(SRC), NPY_DISABLE_CPU_FEATURES=" ".join(disabled))
        run = subprocess.run(
            [sys.executable, "-c", ORDERS], env=env, check=True, timeout=300,
            capture_output=True, text=True,
        )
        digests[" ".join(disabled) or "none"] = run.stdout.strip()
    assert len(set(digests.values())) == 1, digests
