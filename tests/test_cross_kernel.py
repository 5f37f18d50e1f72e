"""Output bytes must not depend on the BLAS kernel that numpy runs.

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
