"""Report assembly, rendering, corpus scoring, and timing.

The JSON layout is versioned and documented in docs/report-schema.md; the
text rendering lists exactly the same findings.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from .domains import source_to_json
from .engine import PropagationConfig, analyze_notebook
from .interp import Finding, run_program, transfer
from .lang import parse_program, stmt_text
from .notebook import CellIR, KnowledgeBase, load_notebook, Notebook, NotebookError

SCHEMA = "dlcheck-report/1"


@dataclass
class Report:
    target: str
    findings: list[dict] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    timing_ms: dict[str, float] = field(default_factory=dict)
    states: list[dict] | None = None

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def to_json(self) -> str:
        doc = {
            "schema": SCHEMA,
            "target": self.target,
            "findings": self.findings,
            "warnings": self.warnings,
            "timing_ms": self.timing_ms,
        }
        if self.states is not None:
            doc["states"] = self.states
        return json.dumps(doc, indent=2)

    def to_text(self) -> str:
        lines = [f"target: {self.target}"]
        if not self.findings:
            lines.append("no data leakage found")
        for f in self.findings:
            lines.append(
                f"{f['kind'].upper()}: train {f['train_var']!r} / test {f['test_var']!r}"
                f" share {f['file']!r}")
            lines.append(f"  witness: {f['witness']}")
            if f.get("trace"):
                lines.append("  cells: " + " -> ".join(str(c) for c in f["trace"]))
            if f.get("sites"):
                lines.append(f"  sites: {f['sites'][0]} / {f['sites'][1]}")
        for w in self.warnings:
            lines.append(f"warning: {w}")
        lines.append("timing: " + ", ".join(
            f"{k}={v:.1f}ms" for k, v in self.timing_ms.items()))
        return "\n".join(lines)


def _finding_dict(f: Finding, trace) -> dict:
    d = {
        "kind": f.kind,
        "train_var": f.train_var,
        "test_var": f.test_var,
        "file": f.file,
        "witness": f.witness,
        "sites": [f.train_site, f.test_site],
    }
    if trace is not None:
        d["trace"] = list(trace)
    return d


def analyze_path(path, cfg: PropagationConfig | None = None,
                 kb: KnowledgeBase | None = None, dump_state: bool = False,
                 start: int | None = None) -> Report:
    """Analyze a .dfl program or .ipynb notebook file.  A program is
    analyzed as a notebook of one cell, with id 1, run to its end: its
    findings carry no trace."""
    path = Path(path)
    report = Report(target=str(path))
    data = path.read_bytes()
    notebook = path.suffix == ".ipynb"
    t0 = time.perf_counter()
    if notebook:
        nb = load_notebook(data, kb)
    else:
        text = data.decode("utf-8")
        program = parse_program(text)
        nb = Notebook((CellIR(1, text, program.statements, frozenset(), (), ()),))
        cfg = replace(cfg or PropagationConfig(), halt_on_finding=False)
    t1 = time.perf_counter()
    analysis = analyze_notebook(nb, cfg, start=start)
    t2 = time.perf_counter()
    report.findings = [_finding_dict(r.finding, r.trace if notebook else None)
                       for r in analysis.findings]
    report.warnings = analysis.warnings
    report.timing_ms = {"translate" if notebook else "parse": (t1 - t0) * 1e3,
                        "analyze": (t2 - t1) * 1e3}
    if dump_state and not notebook:
        steps = []

        def recorded(s, m):
            m = transfer(s, m)
            steps.append((s, m))
            return m

        run_program(program.statements, warnings=[], transfer_fn=recorded)
        report.states = [
            {"statement": stmt_text(s),
             "env": {v: source_to_json(val) for v, val in m.env.items()}}
            for s, m in steps]
    return report


# ---------------------------------------------------------------------------
# Corpus scoring
# ---------------------------------------------------------------------------

@dataclass
class CorpusRow:
    notebook: str
    expected: list[tuple]
    reported: list[tuple]
    tp: int = 0
    fp: int = 0
    fn: int = 0
    path_lengths: list[int] = field(default_factory=list)
    error: str | None = None


@dataclass
class CorpusSummary:
    rows: list[CorpusRow] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def totals(self):
        tp = sum(r.tp for r in self.rows)
        fp = sum(r.fp for r in self.rows)
        fn = sum(r.fn for r in self.rows)
        return tp, fp, fn

    @property
    def precision(self) -> float:
        tp, fp, _ = self.totals()
        return tp / (tp + fp) if tp + fp else 1.0

    @property
    def recall(self) -> float:
        tp, _, fn = self.totals()
        return tp / (tp + fn) if tp + fn else 1.0

    def kind_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.rows:
            for kind, _, _ in r.reported:
                counts[kind] = counts.get(kind, 0) + 1
        return counts

    def histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for r in self.rows:
            for n in r.path_lengths:
                hist[n] = hist.get(n, 0) + 1
        return dict(sorted(hist.items()))

    def to_text(self) -> str:
        lines = []
        for r in self.rows:
            status = "ERROR " + r.error if r.error else \
                f"tp={r.tp} fp={r.fp} fn={r.fn}"
            lines.append(f"{r.notebook}: {status}")
        tp, fp, fn = self.totals()
        lines.append(f"totals: tp={tp} fp={fp} fn={fn}")
        lines.append(f"precision={self.precision:.3f} recall={self.recall:.3f}")
        lines.append("by kind: " + json.dumps(self.kind_counts()))
        lines.append("error path length histogram (cells -> findings): "
                     + json.dumps({str(k): v for k, v in self.histogram().items()}))
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps({
            "schema": SCHEMA,
            "rows": [{
                "notebook": r.notebook,
                "tp": r.tp, "fp": r.fp, "fn": r.fn,
                "reported": [list(t) for t in r.reported],
                "expected": [list(t) for t in r.expected],
                "error": r.error,
            } for r in self.rows],
            "precision": self.precision,
            "recall": self.recall,
            "by_kind": self.kind_counts(),
            "path_length_histogram": {str(k): v for k, v in self.histogram().items()},
            "warnings": self.warnings,
        }, indent=2)


def _check_labels(labels) -> None:
    """Raise ValueError naming the first entry or field of a labels document
    that is not a list of {notebook, expected: [{kind, train_var, test_var}]}
    objects."""
    if not isinstance(labels, list):
        raise ValueError("labels: not a list of entries")
    for i, entry in enumerate(labels):
        if not isinstance(entry, dict):
            raise ValueError(f"labels[{i}] is not an object")
        if not isinstance(entry.get("notebook"), str):
            raise ValueError(f"labels[{i}]: 'notebook' is missing or not a string")
        if not isinstance(entry.get("expected"), list):
            raise ValueError(f"labels[{i}]: 'expected' is missing or not a list")
        for j, e in enumerate(entry["expected"]):
            where = f"labels[{i}].expected[{j}]"
            if not isinstance(e, dict):
                raise ValueError(f"{where} is not an object")
            for key in ("kind", "train_var", "test_var"):
                if not isinstance(e.get(key), str):
                    raise ValueError(f"{where}: {key!r} is missing or not a string")


def score_corpus(directory, labels_path, cfg: PropagationConfig | None = None,
                 kb: KnowledgeBase | None = None) -> CorpusSummary:
    """Analyze every labeled notebook and tally reported findings against
    the expected (kind, train_var, test_var) triples.  A second label entry
    for a notebook, and a ``.ipynb`` in the directory with no entry, are
    error rows, not scored."""
    directory = Path(directory)
    with open(labels_path, encoding="utf-8") as fh:
        labels = json.load(fh)
    _check_labels(labels)
    summary = CorpusSummary()
    labeled = set()

    def run_one(entry) -> CorpusRow:
        name = entry["notebook"]
        expected = [(e["kind"], e["train_var"], e["test_var"])
                    for e in entry["expected"]]
        row = CorpusRow(notebook=name, expected=expected, reported=[])
        path = directory / name
        if name in labeled:
            row.error = "duplicate label entry"
            return row
        labeled.add(name)
        if not path.exists():
            row.error = "missing notebook"
            return row
        try:
            nb = load_notebook(path.read_bytes(), kb)
            analysis = analyze_notebook(nb, cfg)
        except NotebookError as e:
            row.error = str(e)
            return row
        row.reported = [r.finding.key for r in analysis.findings]
        exp = set(expected)
        row.path_lengths = [r.path_length for r in analysis.findings
                            if r.finding.key in exp]
        rep = set(row.reported)
        row.tp = len(exp & rep)
        row.fp = len(rep - exp)
        row.fn = len(exp - rep)
        return row

    rows = [run_one(e) for e in labels]
    rows += [CorpusRow(notebook=p.name, expected=[], reported=[],
                       error="unlabeled notebook")
             for p in directory.glob("*.ipynb") if p.name not in labeled]
    summary.rows = sorted(rows, key=lambda r: r.notebook)
    for r in summary.rows:
        if r.error:
            summary.warnings.append(f"{r.notebook}: {r.error}")
    return summary


# ---------------------------------------------------------------------------
# Benchmarking
# ---------------------------------------------------------------------------

@dataclass
class BenchResult:
    runs: int
    events: int
    per_event_ms: list[float]

    @property
    def median_ms(self) -> float:
        # Imported here: ``statistics`` loads ``fractions`` and ``decimal``,
        # which only the bench command needs.
        import statistics
        return statistics.median(self.per_event_ms) if self.per_event_ms else 0.0

    @property
    def max_ms(self) -> float:
        return max(self.per_event_ms) if self.per_event_ms else 0.0

    def to_text(self) -> str:
        return (f"runs={self.runs} events/run={self.events} "
                f"median={self.median_ms:.1f}ms max={self.max_ms:.1f}ms per event")

    def to_json(self) -> str:
        return json.dumps({
            "schema": SCHEMA, "runs": self.runs, "events": self.events,
            "median_ms": self.median_ms, "max_ms": self.max_ms,
        }, indent=2)


def bench_notebook(data: bytes, runs: int = 10,
                   cfg: PropagationConfig | None = None,
                   kb: KnowledgeBase | None = None) -> BenchResult:
    """Time each triggering event (one propagation from a valid start cell)
    across repeated runs."""
    nb = load_notebook(data, kb)
    per_event = []
    events = 0
    for _ in range(runs):
        analysis = analyze_notebook(nb, cfg)
        events = analysis.events
        per_event.extend(s * 1e3 for s in analysis.event_seconds)
    return BenchResult(runs=runs, events=events, per_event_ms=per_event)
