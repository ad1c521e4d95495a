"""dlcheck benchmark: one workload, one run.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``.  With ``--trace 0`` the run warms up with one pass over the
workload's inputs, then repeats whole passes for at least ``--seconds``
seconds, measuring set-up time in fresh interpreters between them, and
reports the end-to-end metrics over each event's and each input's best
time across the passes.  With ``--trace 1`` it runs a fixed number of passes
untraced, then traced, and reports the per-layer metrics of the traced
passes, plus the tracing overhead; the span table is written to
``.perfbench/``.  Every verdict is checked in both modes.  Human-readable
lines come first; the last line of standard output is one JSON object.
See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9  # set-up samples per timed run
SETUP_TRIES = 5  # interpreters per sample; a sample is their best time

SETUP_CODE = """\
import time
t0 = time.perf_counter()
import dlcheck, dlcheck.engine, dlcheck.report
from dlcheck.notebook import default_kb
default_kb()
print(repr(time.perf_counter() - t0))
"""


def fail(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def setup_once() -> float:
    """What every CLI call pays before its first notebook, in a fresh
    interpreter: importing the package and loading the knowledge base."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        fail(f"set-up interpreter failed:\n{proc.stderr}")
    return float(proc.stdout.strip())


@dataclass
class Pass:
    """Verdicts and times of one pass, in input order: each input's wall
    time and the wall times of its events."""
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    event_ms: list[list[float]] = field(default_factory=list)
    item_ms: list[float] = field(default_factory=list)
    seconds: float = 0.0


def run_pass(items) -> Pass:
    out = Pass()
    t0 = time.perf_counter()
    for item in items:
        events: list[float] = []
        t1 = time.perf_counter()
        reason = workloads.run_case(item, events)
        out.item_ms.append((time.perf_counter() - t1) * 1e3)
        out.event_ms.append(events)
        out.attempted += 1
        if reason is not None:
            out.failures.append(reason)
    out.seconds = time.perf_counter() - t0
    return out


def best_times(passes: list[Pass]) -> tuple[list[float], list[float]]:
    """Each event's and each input's minimum over the passes.  The inputs
    are deterministic, so the minimum is the cost of the work itself; the
    host's bursts of slowness, which last from milliseconds to seconds,
    only ever add to it."""
    items = [min(col) for col in zip(*(p.item_ms for p in passes))]
    events = [min(col)
              for i in range(len(items))
              for col in zip(*(p.event_ms[i] for p in passes), strict=True)]
    return events, items


def tail(name: str, values, q: int) -> float:
    """The q-th percentile, interpolating between closest ranks."""
    value = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    beyond = sum(v > value for v in values)
    print(f"{name}: p{q} of {len(values)} best times, {beyond} beyond")
    return value


def timed_run(workload, items, seconds: float):
    """Whole passes until ``seconds`` have elapsed, after a warm-up pass.
    The set-up interpreters run one at a time between the passes, spread
    evenly over the run.  A set-up sample is the best of ``SETUP_TRIES``
    interpreters a ``1/SETUP_TRIES`` share of the run apart, so that, like
    the other timings, it leaves out the host's slow stretches; the median
    of the samples is reported."""
    setup_once()  # writes the bytecode cache, not reported
    run_pass(items)  # warm-up, not reported
    gc.collect()
    runs = SETUP_SAMPLES * SETUP_TRIES
    setup: list[float] = []
    passes: list[Pass] = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        due = runs * (time.perf_counter() - t0) / seconds
        while len(setup) < min(runs, due):
            setup.append(setup_once())
        passes.append(run_pass(items))
    while len(setup) < runs:
        setup.append(setup_once())
    samples = [min(setup[i::SETUP_SAMPLES]) for i in range(SETUP_SAMPLES)]
    event_ms, item_ms = best_times(passes)
    print(f"passes: {len(passes)} and {len(setup)} set-ups in "
          f"{time.perf_counter() - t0:.3f} s, "
          f"{len(item_ms)} inputs and {len(event_ms)} events per pass")
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "event_ms_p50": (statistics.median(event_ms), "ms"),
        "event_ms_tail": (tail("event_ms_tail", event_ms, workload.event_tail), "ms"),
        "item_ms_p50": (statistics.median(item_ms), "ms"),
        "item_ms_tail": (tail("item_ms_tail", item_ms, workload.item_tail), "ms"),
        "items_per_s": (len(item_ms) / sum(item_ms) * 1e3, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return passes, metrics


def traced_run(workload, items, seed: int):
    """The same passes untraced and traced, after a warm-up pass; the
    difference in wall time is the tracing overhead."""
    run_pass(items)  # warm-up, not reported
    items = items * workload.trace_passes
    gc.collect()
    untraced = run_pass(items).seconds
    tracer = tracing.Tracer()
    tracer.install()
    try:
        gc.collect()
        traced = run_pass(items)
    finally:
        tracer.remove()
    out = ROOT / ".perfbench" / f"spans-{workload.name}-seed{seed}.json"
    tracer.write(out)
    print(f"span table: {out.relative_to(ROOT)}")
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.inputs"] = (traced.attempted, "count")
    metrics["trace.untraced_ms"] = (untraced * 1e3, "ms")
    metrics["trace.overhead_ms"] = ((traced.seconds - untraced) * 1e3, "ms")
    return [traced], metrics


def load_program():
    """Import dlcheck from this checkout's sources, then the modules that
    drive it; exit 2 when the checkout holds no sources."""
    global tracing, workloads
    if not (SRC / "dlcheck" / "__init__.py").is_file():
        fail(f"no dlcheck sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import dlcheck
    if Path(dlcheck.__file__).resolve().parent != SRC / "dlcheck":
        fail(f"imported dlcheck from {dlcheck.__file__}, not from {SRC}")
    import tracing
    import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    load_program()

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(workloads.WORKLOADS)}")
    items = workload.make_pass(args.seed, ROOT)
    print(f"workload: {workload.name}, seed {args.seed}, {len(items)} inputs per pass, "
          f"inputs sha256 {workloads.inputs_digest(items)[:16]}")

    if args.trace:
        passes, metrics = traced_run(workload, items, args.seed)
    else:
        passes, metrics = timed_run(workload, items, args.seconds)

    attempted = sum(t.attempted for t in passes)
    failures = [r for t in passes for r in t.failures]
    failed = len(failures)
    print(f"failed_ratio: {failed / attempted:.6f} ({failed} of {attempted} inputs)")
    for reason in sorted(set(failures))[:10]:
        print(f"  failed: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
