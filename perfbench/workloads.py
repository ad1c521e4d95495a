"""Seeded workload generators and the operations the benchmark times.

Every workload is a fixed list of inputs (one *pass*) made from the seed.
The benchmark repeats whole passes, so each input is timed equally often
and the cost mix of a run does not depend on where the clock stopped.

Notebook workloads carry the findings each notebook must produce, fixed by
construction (or by ``labels.json`` for the checked-in corpus), never read
back from the analyzer.  Generated notebooks keep every leak within the
default depth bound and avoid the constructs ROADMAP item 3 lists as known
soundness holes (uses nested in ``if``/``for``, ``iloc`` after a row-reordering
transform), so a wrong verdict here is a regression, not a known defect.

Per-seed cost must stay steady because the benchmark's noise is judged by
comparing runs made with different seeds.  So sizes come from fixed grids,
and the seed draws what does not change the amount of work: names,
transforms, window widths and positions, leak targets, and the order.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from dlcheck import engine, fuzz, notebook

IMPORTS = ("import pandas as pd\n"
           "from sklearn.model_selection import train_test_split\n"
           "from sklearn.preprocessing import StandardScaler\n"
           "from sklearn.linear_model import LogisticRegression")

# KB class "other": each keeps rows in order, so none hits the known
# row-reordering hole, and each translates to a real statement (an unknown
# call would translate to an empty cell and make a trivial start event).
TRANSFORMS = ("dropna()", "fillna(0)", "round(2)", "abs()", "copy()",
              "interpolate()", "reset_index()", "clip(0, 1)")


def notebook_bytes(cells) -> bytes:
    """A minimal nbformat-4 document with one code cell per source.

    The benchmark's own serializer, not ``dlcheck.corpus.notebook_bytes``,
    so the inputs stay byte-identical when the program changes."""
    return json.dumps({
        "nbformat": 4, "nbformat_minor": 5,
        "metadata": {"language_info": {"name": "python"}},
        "cells": [{"cell_type": "code", "metadata": {}, "outputs": [],
                   "execution_count": None, "source": c} for c in cells],
    }).encode()


@dataclass(frozen=True)
class NotebookCase:
    name: str
    data: bytes
    expected: frozenset  # of (kind, train_var, test_var)
    k_bound: int = 5

    def run(self, event_ms: list) -> str | None:
        """Bytes to verdict: load, one event per valid start cell, union of
        finding keys.  Appends each event's wall time to ``event_ms``;
        returns None when the verdict matches, else the reason."""
        nb = notebook.load_notebook(self.data, notebook.default_kb())
        cfg = engine.PropagationConfig(k_bound=self.k_bound)
        found = set()
        for start in engine.valid_starts(nb):
            t0 = time.perf_counter()
            analysis = engine.analyze_notebook(nb, cfg, start=start)
            event_ms.append((time.perf_counter() - t0) * 1e3)
            found.update(r.finding.key for r in analysis.findings)
        if found == self.expected:
            return None
        return (f"{self.name}: missing {sorted(self.expected - found)}, "
                f"unexpected {sorted(found - self.expected)}")

    def digest(self) -> bytes:
        return self.name.encode() + self.data + repr(sorted(self.expected)).encode()


@dataclass(frozen=True)
class FuzzCase:
    """One random program: ``fuzz.fuzz_soundness`` with a budget of one,
    which draws the program from ``random.Random(seed)``."""
    seed: int

    def run(self, event_ms: list) -> str | None:
        """The program's own fuzz entry point for one program, timed as the
        event: generation, then the differential check against the concrete
        oracle.  A soundness violation fails."""
        t0 = time.perf_counter()
        report = fuzz.fuzz_soundness(budget=1, seed=self.seed)
        event_ms.append((time.perf_counter() - t0) * 1e3)
        return "; ".join(p for v in report.violations for p in v["problems"]) or None

    def digest(self) -> bytes:
        program, inputs = fuzz.generate_program(random.Random(self.seed))
        return repr((program, sorted(inputs.items()))).encode()


def run_case(case, event_ms: list) -> str | None:
    """``case.run``, with an exception counted as a failed operation."""
    try:
        return case.run(event_ms)
    except Exception as e:
        return f"{type(e).__name__}: {e}"


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def corpus_pass(seed: int, root: Path) -> list[NotebookCase]:
    """The 20 checked-in notebooks, scored against labels.json.  Small,
    realistic notebooks where load and translation are a large share of the
    time.  The seed only fixes the order within a pass."""
    directory = root / "corpus" / "notebooks"
    labels = json.loads((directory / "labels.json").read_text())
    cases = [
        NotebookCase(
            e["notebook"], (directory / e["notebook"]).read_bytes(),
            frozenset((x["kind"], x["train_var"], x["test_var"])
                      for x in e["expected"]))
        for e in labels
    ]
    random.Random(seed).shuffle(cases)
    return cases


# (K, siblings of the first read): trace counts grow as n^(K-1), so these
# spread the per-notebook cost evenly from ~60 to ~2400 traces; an odd count
# keeps the median inside one notebook's timings, not between two.
FANOUT_GRID = tuple([(3, n) for n in range(8, 21)] + [(4, n) for n in range(5, 11)]
                    + [(5, n) for n in range(4, 8)])


def fanout_pass(seed: int, root: Path) -> list[NotebookCase]:
    """One read (every third notebook: two) followed by sibling cells that
    apply a KB-known transform to the read frame and so commute, then one
    evaluation cell reading a sibling of the first read.  The K-bounded DFS
    explores every interleaving of the siblings.  Every other notebook
    leaks, alternately by an overlap and by a taint, so halting and full
    exploration are both timed."""
    rng = random.Random(seed)
    cases = []
    for i, (k_bound, n) in enumerate(FANOUT_GRID):
        counts = (n, 3) if i % 3 == 2 else (n,)
        cells = []
        for s, m in enumerate(counts):
            cells.append(f"{IMPORTS}\nsrc{s} = pd.read_csv(\"part{s}.csv\")")
            cells += [f"x{s}_{j} = src{s}.{rng.choice(TRANSFORMS)}" for j in range(m)]
        target = f"x0_{rng.randrange(n)}"
        kind = ("clean", "overlap", "clean", "taint")[i % 4]
        if kind == "taint":
            cells.append(f"scaled = StandardScaler().fit_transform({target})\n"
                         "tr, te = train_test_split(scaled)")
            expected = {("taint", "tr", "te")}
        elif kind == "overlap":
            lo = rng.randint(0, 500)
            cells.append(f"hold = {target}.iloc[{lo}:{lo + rng.randint(10, 99)}]\n"
                         f"m = LogisticRegression()\nm.fit({target})\n"
                         "m.predict(hold)")
            expected = {("overlap", target, "hold")}
        else:
            cells.append(f"tr, te = train_test_split({target})")
            expected = set()
        if kind != "overlap":
            cells[-1] += "\nm = LogisticRegression()\nm.fit(tr)\nm.predict(te)"
        name = f"fanout-k{k_bound}-n{'+'.join(map(str, counts))}-{kind}"
        cases.append(NotebookCase(name, notebook_bytes(cells),
                                  frozenset(expected), k_bound))
    rng.shuffle(cases)
    return cases


# Disjoint window groups per notebook.  An odd count keeps the median inside
# one notebook's timings.  Small notebooks (at most ≈25 ms) and a short pass
# (13 notebooks, ≈0.1 s) keep best times steady: a long input rarely runs
# through without one of the host's slow bursts.
WINDOW_CLUSTERS = tuple(range(6, 19))
FILES = ("events", "sales", "sensors", "visits", "orders", "clicks", "trips", "logs")


def window_layout(clusters: int) -> tuple[list[tuple[int, int]], int]:
    """The row windows of one notebook and the first row past them.

    Drawn from a generator seeded by the size alone, never by the workload
    seed: ``set_reduce`` orders frames by the text of their bounds and
    restarts after every merge, so the cost of the same number of windows
    at other positions varies by up to 51%.  Fixed layouts keep the work
    of a pass the same for every seed."""
    rng = random.Random(clusters)
    extra = set(rng.sample(range(clusters), clusters // 3))
    windows = []
    pos = rng.randint(0, 40)
    for c in range(clusters):
        width = rng.randint(5, 30)
        windows.append((pos, pos + width))
        if c in extra:
            # Python-adjacent; the inclusive row abstraction shares
            # the boundary row, so the two windows merge.
            windows.append((pos + width, pos + width + rng.randint(5, 30)))
        pos = windows[-1][1] + rng.randint(3, 20)
    return windows, pos


def windows_pass(seed: int, root: Path) -> list[NotebookCase]:
    """``pd.concat`` of many row windows of one file.  Gapped windows stay
    disjoint, so the frame set grows and every merge re-reduces it; a third
    as many windows again sit adjacent to a kept window and merge into it.
    The test slice lies inside one window (overlap leak, every other
    notebook) or past the last one (clean).  The engine scan is trivial;
    the frame-set domain does the work.  The window layouts are fixed (see
    ``window_layout``); the seed draws the file, the test slice and the
    order."""
    rng = random.Random(seed)
    cases = []
    for i, clusters in enumerate(WINDOW_CLUSTERS):
        leaky = i % 2 == 1
        windows, end = window_layout(clusters)
        if leaky:
            lo, hi = windows[rng.randrange(len(windows))]
            a = rng.randint(lo, hi - 2)
            test = (a, rng.randint(a + 1, hi))
        else:
            test = (end + 5, end + 5 + rng.randint(20, 200))
        parts = ", ".join(f"df.iloc[{a}:{b}]" for a, b in windows)
        cells = [
            f'{IMPORTS}\ndf = pd.read_csv("{rng.choice(FILES)}.csv")',
            f"w = pd.concat([{parts}])",
            f"te = df.iloc[{test[0]}:{test[1]}]\n"
            "m = LogisticRegression()\nm.fit(w)\nm.predict(te)",
        ]
        expected = {("overlap", "w", "te")} if leaky else set()
        cases.append(NotebookCase(f"windows-{clusters}-{'leak' if leaky else 'clean'}",
                                  notebook_bytes(cells), frozenset(expected)))
    rng.shuffle(cases)
    return cases


FUZZ_PROGRAMS = 600  # per pass, ≈0.2 s


def fuzz_pass(seed: int, root: Path) -> list[FuzzCase]:
    """Random .dfl programs from ``fuzz.generate_program``, each checked
    against the concrete oracle.  The only workload that runs ``oracle``,
    ``fuzz`` and whole-program ``interp.run_program``."""
    rng = random.Random(seed)
    return [FuzzCase(rng.getrandbits(64)) for _ in range(FUZZ_PROGRAMS)]


@dataclass(frozen=True)
class Workload:
    name: str
    make_pass: Callable[[int, Path], list]
    # Tail percentiles over one pass's best times (see run.best_times):
    # the highest of p75/p90/p98/p99 that leaves about 10 events or inputs
    # beyond it, but at least p75 events and p90 inputs, so on the small
    # passes the tail is the cost of the few most expensive inputs.  Fixed
    # per workload so that runs and commits stay comparable.
    event_tail: int
    item_tail: int
    # Passes in a traced run; more for small passes, so per-layer times and
    # the tracing overhead are not read off a few milliseconds.
    trace_passes: int = 1


WORKLOADS = {w.name: w for w in (
    Workload("corpus", corpus_pass, 75, 90, trace_passes=10),
    Workload("fanout", fanout_pass, 90, 90),
    Workload("windows", windows_pass, 90, 90),
    Workload("fuzz", fuzz_pass, 98, 98),
)}


def inputs_digest(items) -> str:
    """SHA-256 over one pass's inputs, for the determinism self-check."""
    h = hashlib.sha256()
    for item in items:
        h.update(item.digest())
    return h.hexdigest()
