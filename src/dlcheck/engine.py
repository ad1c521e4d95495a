"""Inter-cell propagation for notebooks.

Analysis starts at a cell with no unbound variables, then flows the
abstract state into every cell whose precondition is covered by it,
depth-first.  A branch stops when it hits the depth bound, has no valid
successor, re-enters a cell with a state already covered there (fixpoint
subsumption), or detects a leak while halt-on-finding is enabled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .interp import (
    AbstractState,
    AnalysisError,
    BOT_STATE,
    Finding,
    check_leakage,
    state_leq,
    transfer,
)
from .lang import stmt_uses
from .notebook import CellIR, Notebook


class EngineError(Exception):
    pass


@dataclass(frozen=True)
class PropagationConfig:
    k_bound: int | None = 5  # None means unbounded
    halt_on_finding: bool = True

    def __post_init__(self):
        if self.k_bound is not None and self.k_bound < 1:
            raise ValueError("k_bound must be at least 1")


@dataclass(frozen=True)
class ExecutionTrace:
    cells: tuple[int, ...]
    findings: tuple[Finding, ...]
    termination: str  # bound | no-valid-successor | subsumed | halted-on-finding


def phi(m: AbstractState, pre) -> bool:
    """Propagation gate: every precondition variable is bound to at least
    one known source frame, and there is something to propagate."""
    if not pre:
        return False
    return all(v in m.env and m.env[v].frames for v in pre)


def _run_cell(cell: CellIR, state: AbstractState, halt: bool, warnings: list):
    """Analyze one cell; returns (state, findings, halted)."""
    findings: list[Finding] = []
    for s in cell.statements:
        try:
            state = transfer(s, state)
        except AnalysisError as e:
            warnings.append(f"cell {cell.id}: {e}")
            continue
        uses = stmt_uses(s)
        if uses:
            hits = check_leakage(state, uses)
            if hits:
                if halt:
                    findings.append(hits[0])
                    return _export(cell, state), findings, True
                findings.extend(hits)
    return _export(cell, state), findings, False


def _export(cell: CellIR, state: AbstractState) -> AbstractState:
    """Re-expose each user variable under its plain name so successor cells
    can bind it."""
    for base, final in cell.exports:
        if final in state.env and final != base:
            state = state.bind(base, state.env[final], final in state.aligned)
    return state


def propagate(nb: Notebook, start: int, cfg: PropagationConfig | None = None,
              warnings: list | None = None,
              records: list | None = None) -> list[ExecutionTrace]:
    """All propagation branches from one start cell.

    When ``records`` is given, every finding is also appended to it as a
    ``FindingRecord`` with the cell chain up to its discovery (leaf traces
    repeat inherited findings, so leaf length overstates the error path
    when branches keep running past a finding).
    """
    cfg = cfg or PropagationConfig()
    warnings = warnings if warnings is not None else []
    start_cell = nb.cell(start)
    if start_cell.precondition:
        raise EngineError(
            f"cell {start} cannot start an execution: unbound variables "
            f"{sorted(start_cell.precondition)}")

    # Seen-states are tracked per branch (append on entry, pop on exit): a
    # branch stops when it re-enters a cell with nothing new to contribute,
    # but a sibling branch reaching the same cell first is not affected.
    seen: dict[int, list[AbstractState]] = {c.id: [] for c in nb.cells}
    traces: list[ExecutionTrace] = []

    def dfs(cell: CellIR, state_in: AbstractState, path: tuple[int, ...],
            findings: tuple[Finding, ...]):
        if any(state_leq(state_in, s) for s in seen[cell.id]):
            traces.append(ExecutionTrace(path + (cell.id,), findings, "subsumed"))
            return
        seen[cell.id].append(state_in)
        try:
            state, new, halted = _run_cell(cell, state_in, cfg.halt_on_finding,
                                           warnings)
            path = path + (cell.id,)
            findings = findings + tuple(new)
            if records is not None:
                records.extend(FindingRecord(f, path) for f in new)
            if halted:
                traces.append(ExecutionTrace(path, findings, "halted-on-finding"))
                return
            candidates = [c for c in nb.cells if phi(state, c.precondition)]
            if not candidates:
                traces.append(ExecutionTrace(path, findings, "no-valid-successor"))
                return
            if cfg.k_bound is not None and len(path) >= cfg.k_bound:
                traces.append(ExecutionTrace(path, findings, "bound"))
                return
            for c in candidates:
                dfs(c, state, path, findings)
        finally:
            seen[cell.id].pop()

    dfs(start_cell, BOT_STATE, (), ())
    return traces


def valid_starts(nb: Notebook) -> list[int]:
    return [c.id for c in nb.cells if not c.precondition]


@dataclass
class FindingRecord:
    finding: Finding
    trace: tuple[int, ...]

    @property
    def path_length(self) -> int:
        return len(self.trace)


@dataclass
class NotebookAnalysis:
    findings: list[FindingRecord] = field(default_factory=list)
    traces: list[ExecutionTrace] = field(default_factory=list)
    events: int = 0
    event_seconds: list[float] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def analyze_notebook(nb: Notebook, cfg: PropagationConfig | None = None,
                     start: int | None = None) -> NotebookAnalysis:
    """Propagate from every valid start cell (or one given cell) and
    aggregate deduplicated findings, each with its shortest witness trace."""
    cfg = cfg or PropagationConfig()
    out = NotebookAnalysis()
    for c in nb.cells:
        out.warnings.extend(f"cell {c.id}: {w}" for w in c.warnings)
    starts = [start] if start is not None else valid_starts(nb)
    if not starts:
        out.warnings.append("no valid start cells (all cells have unbound variables)")
        return out
    best: dict[tuple, FindingRecord] = {}
    for s in starts:
        t0 = time.perf_counter()
        records: list[FindingRecord] = []
        traces = propagate(nb, s, cfg, out.warnings, records)
        out.event_seconds.append(time.perf_counter() - t0)
        out.events += 1
        out.traces.extend(traces)
        for rec in records:
            prev = best.get(rec.finding.key)
            if prev is None or rec.path_length < prev.path_length:
                best[rec.finding.key] = rec
    out.findings = sorted(
        best.values(),
        key=lambda r: (r.finding.kind, r.finding.train_var, r.finding.test_var),
    )
    return out
