"""Run one tagselect benchmark workload and print its metrics.

    python3 perfbench/run.py --workload walkthrough --seed 1 --seconds 15 --trace 0

Run it from the repository root; it imports the package from ``src/``.  The
workload builds its inputs from ``--seed``, sets up three times, then
repeats its timed pass until ``--seconds`` have elapsed (at least once) and
checks the outputs.  With ``--trace 1`` it alternates untraced and traced
passes and reports per-layer metrics instead; the spans are written to
``perfbench/work/trace-<workload>-seed<seed>.json``.

The next-to-last line of standard output is the full report (environment,
every metric with its unit, failures, output hashes); the last line holds
only the metrics named in ``BENCHMARK.json``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import layers
from spans import Tracer, median_by_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3


class OpFailed(Exception):
    """An operation failed and is already counted in the ledger."""


class Ledger:
    """Operations and output checks attempted, and those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def _fail(self, name: str, exc: BaseException) -> None:
        self.failures.append(f"{name}: {exc!r}")

    @contextmanager
    def op(self, name: str):
        """A step the rest of the pass depends on: a failure ends the pass."""
        self.attempted += 1
        try:
            yield
        except Exception as exc:
            self._fail(name, exc)
            raise OpFailed(name) from exc

    @contextmanager
    def check(self, name: str):
        """An output check: a failure is counted and the run goes on."""
        self.attempted += 1
        try:
            yield
        except Exception as exc:
            self._fail(name, exc)

    def run(self, name: str, fn) -> bool:
        try:
            fn()
            return True
        except OpFailed:
            return False
        except Exception as exc:
            self.attempted += 1
            self._fail(name, exc)
            return False


def unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.startswith("formats.bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    if name.startswith("selection.mean_"):
        return "tags"
    return "count"


# ------------------------------------------------------------- environment

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_bytes() -> dict[str, int]:
    """Per-core cache sizes of CPU 0, keyed L1d/L1i/L2/L3."""
    sizes: dict[str, int] = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        key = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1:], 1)
        sizes[key] = int(size.rstrip("KM")) * scale
    return sizes


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(wl) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "cache_bytes": _cache_bytes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "workload": wl.name,
        "seed": wl.seed,
        **wl.describe(),
    }


# ----------------------------------------------------------- machine speed

def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


#: Median time of ``reference_work`` on the 2-vCPU Intel Xeon VM the bounds
#: were set on (Python 3.11.7).  It fixes the scale of every reported time.
REF_NOMINAL_S = 0.1


def reference_work() -> None:
    """Fixed interpreter-bound work: build, sort, index, print and parse
    (float, tag) pairs, in chunks of 5,000 so that it adds little to the
    peak RSS.  The cyclic GC is off, so that the size of the workload's heap
    does not change its time."""
    gc.disable()
    try:
        rng = random.Random(0)
        for _ in range(10):
            pairs = [(rng.random(), f"tag_{i:04d}") for i in range(5_000)]
            pairs.sort()
            index = {tag: value for value, tag in pairs}
            text = "\n".join(repr(index[tag]) for _, tag in pairs)
            if len(set(map(float, text.split("\n")))) != len(pairs):
                raise RuntimeError("reference work lost values")
    finally:
        gc.enable()


class Clock:
    """Times operations at a fixed reference speed.

    On a shared VM the same code runs up to 1.8x slower from one minute to
    the next, and its speed wanders by 10-20% within seconds.  So an
    operation is timed in segments of at most a few seconds: the operation
    itself, or the stretches between its ``checkpoint`` calls.  Each segment
    is bracketed by three runs of ``reference_work``, and its wall time is
    multiplied by ``REF_NOMINAL_S`` over the median of the six reference
    times around it.  Consecutive segments share a bracket, and the
    reference runs are not part of any segment.
    """

    def __init__(self):
        reference_work()  # warm-up: a new process runs it slower at first
        self.samples: list[float] = []
        self._last = self._sample()
        self._start = 0.0
        self._wall = self._scaled = 0.0

    def _sample(self) -> list[float]:
        taken = [_timed(reference_work) for _ in range(3)]
        self.samples.extend(taken)
        return taken

    def time(self, fn) -> tuple[float, float, object]:
        """Run ``fn``; return its wall seconds, its seconds at reference
        speed, and its result."""
        self._wall = self._scaled = 0.0
        self._start = time.perf_counter()
        result = fn()
        self.checkpoint()
        return self._wall, self._scaled, result

    def checkpoint(self) -> None:
        """End the current segment of the operation being timed."""
        wall = time.perf_counter() - self._start
        before = self._last
        self._last = self._sample()
        self._wall += wall
        self._scaled += wall * REF_NOMINAL_S / statistics.median(before + self._last)
        self._start = time.perf_counter()


def _scaled(metrics: dict[str, float], factor: float) -> dict[str, float]:
    """Times multiplied by ``factor``; other metrics unchanged."""
    return {k: v * factor if unit(k) == "s" else v for k, v in metrics.items()}


# ----------------------------------------------------------------- running

def _pass_metrics(wl, extra: dict) -> dict[str, float]:
    """Per-pass metrics from the operation times the pass recorded, at
    reference speed and, under ``wall.``, as measured."""
    out = {"peak_rss_mb": extra.get("peak_rss_mb") or
           resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    out.update((k, v) for k, v in extra.items() if k not in ("images", "peak_rss_mb"))
    for prefix, i in (("", 2), ("wall.", 1)):
        run_s = sum(t[i] for t in wl.timings)
        out[f"{prefix}run_s"] = run_s
        out[f"{prefix}images_per_s"] = extra["images"] / run_s
        out.update((f"{prefix}{t[0]}_s", t[i]) for t in wl.timings)
    return out


def measure(wl, seconds: float, ledger: Ledger, clock: Clock) -> tuple[dict, dict]:
    """End-to-end metrics (medians over set-ups and timed passes), and the
    samples they are the medians of."""
    setups: list[tuple] = []
    passes: list[dict] = []

    def body():
        for _ in range(SETUPS):
            setups.append(clock.time(wl.setup))
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            wl.timings = []
            passes.append(_pass_metrics(wl, wl.run_pass()))
            wl.after_pass()

    if ledger.run("set-up and timed passes", body) and passes:
        ledger.run("output checks", wl.check)
    metrics = median_by_key(passes)
    if setups:
        metrics["setup_s"] = statistics.median(t[1] for t in setups)
        metrics["wall.setup_s"] = statistics.median(t[0] for t in setups)
    metrics["passes"] = len(passes)
    samples = {"setup_s": [t[1] for t in setups], "run_s": [p["run_s"] for p in passes]}
    return metrics, samples


def measure_traced(
    wl, seconds: float, ledger: Ledger, clock: Clock, spans_path: Path
) -> tuple[dict, dict]:
    """Per-layer metrics (medians over traced set-ups and traced passes, at
    reference speed), and the untraced and traced pass times."""
    tracer = Tracer()
    setups: list[tuple[list, float]] = []  # (root span, speed factor)
    passes: list[tuple[list, float]] = []
    plain: list[float] = []
    traced: list[float] = []

    @contextmanager
    def tracing(kind: str):
        layers.install(tracer)
        wl.tracer = tracer
        try:
            with tracer.span(kind) as root:
                yield root
        finally:
            tracer.restore()
            wl.tracer = None

    def body():
        for _ in range(SETUPS):
            with tracing("setup") as root:
                wall, scaled, _ = clock.time(wl.setup)
            setups.append((root, scaled / wall))
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            # Alternate which pass of the pair runs first, so that warm-up
            # and drift do not all land on one side of trace.overhead_s.
            order = (False, True) if len(passes) % 2 == 0 else (True, False)
            for traced_pass in order:
                wl.timings = []
                if traced_pass:
                    with tracing("pass") as root:
                        wl.run_pass()
                else:
                    wl.run_pass()
                wall = sum(t[1] for t in wl.timings)
                scaled = sum(t[2] for t in wl.timings)
                if traced_pass:
                    passes.append((root, scaled / wall))
                    traced.append(scaled)
                else:
                    plain.append(scaled)
                wl.after_pass()

    if ledger.run("set-up and timed passes", body) and passes:
        ledger.run("output checks", wl.check)
        with ledger.check("counters repeat across passes"):
            counts = [dict(tracer.counters[root[0]]) for root, _ in passes]
            if any(c != counts[0] for c in counts):
                raise RuntimeError(f"counters differ between passes: {counts}")
    tracer.write(spans_path)
    metrics = median_by_key([_scaled(layers.per_root(tracer, root, setup=True), f)
                             for root, f in setups])
    metrics.update(median_by_key([_scaled(layers.per_root(tracer, root, setup=False), f)
                                  for root, f in passes]))
    if plain and traced:
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics.update(wl.layer_extras())
    metrics["passes"] = len(passes)
    return metrics, {"run_s_untraced": plain, "run_s_traced": traced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "tagselect" / "__init__.py").is_file():
        print(f"perfbench: no tagselect package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import tagselect

    if Path(tagselect.__file__).resolve().parent != src / "tagselect":
        print(f"perfbench: imported tagselect from {tagselect.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())

    ledger = Ledger()
    clock = Clock()
    work = HERE / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](ROOT, work, args.seed, ledger, clock, bool(args.trace))
        if args.trace:
            spans_path = HERE / "work" / f"trace-{args.workload}-seed{args.seed}.json"
            metrics, samples = measure_traced(wl, args.seconds, ledger, clock, spans_path)
        else:
            metrics, samples = measure(wl, args.seconds, ledger, clock)
        outputs = wl.outputs()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    samples["reference_s"] = clock.samples

    # A layer the workload never calls has no spans and no counters: it
    # reads 0 here.
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted
        },
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(wl),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in sorted(metrics.items())},
        "samples": samples,
        "failures": ledger.failures,
        "outputs_sha256": outputs,
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
