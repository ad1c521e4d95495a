"""Inter-cell propagation for notebooks.

Analysis starts at a cell with no unbound variables, then flows the
abstract state into every cell whose precondition is covered by it,
depth-first.  A branch stops when it hits the depth bound, has no valid
successor, detects a leak while halt-on-finding is enabled, or is
subsumed: it re-enters a cell with a state already covered there on the
same branch, its cell leaves the state it entered with unchanged (the
parent is expanding that state one level up, over the same successors),
or it reaches a state that an earlier branch has already expanded at the
same or a shallower depth.

Only relevant cells are searched (``Notebook.relevant``).  A cell is
relevant if it holds a train/test use at any depth, or if it writes a
variable whose incoming binding a relevant cell may read: a precondition
variable, a variable the cell assigns in a branch arm or loop body (the
incoming binding is joined in), or a use's argument (a later use's leak
check looks it up again).  A cell writes its assigned variables and every
export whose final name differs from its base.  A cell that is not
relevant writes nothing a relevant cell reads, so dropping it from a path
leaves every relevant cell's input, gate and findings as they were, and
the path only gets shorter: no finding or shortest witness is lost.  Start
cells are not sliced; an irrelevant start has no valid successor.

Successors come from the notebook's index (variable -> relevant cells
whose precondition names it): ``phi`` tests the readers of the variables
the state binds to a frame, and the answer is cached per set of such live
variables.  The expansion memo is what keeps the search from re-expanding
a state that commuting cells reach in several orders; it only keeps
expansions that did not depend on the branch they were made on (see
``propagate``), so the findings and their witness traces are the ones a
full search reports.

A cell runs through ``interp.run_program``, the fold ``.dfl`` programs
take, and each event hands it one cache of the values its ``Select`` and
``Merge`` statements bind.  Branches run the same cells again, often on
the same inputs, and these two are the costly transfers (frame-set
constraint and reduction), so a statement run again on equal source
values binds the stored value instead of running ``transfer`` again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .domains import SourceAbs
from .interp import (
    AbstractState,
    BOT_STATE,
    Finding,
    run_program,
    state_leq,
    transfer,
)
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
    """One branch of the search: the cells it ran and why it stopped."""
    cells: tuple[int, ...]
    # bound | no-valid-successor | subsumed | halted-on-finding.  "subsumed"
    # is a re-entry with a state covered on the same branch (the cell did not
    # run again), or the cell ran and its successors did not: it left the
    # state it entered with unchanged, or an earlier branch already expanded
    # that state at the same or a shallower depth.
    termination: str


def phi(m: AbstractState, pre) -> bool:
    """Propagation gate: every precondition variable is bound to at least
    one known source frame, and there is something to propagate."""
    if not pre:
        return False
    return all(v in m.env and m.env[v].frames for v in pre)


def successors(nb: Notebook, state: AbstractState, live: frozenset[str],
               cache: dict) -> tuple[int, ...]:
    """The positions in ``nb.cells`` of the relevant cells ``phi`` admits
    after ``state``, in notebook order.

    ``live`` is the set of variables the state binds to at least one frame.
    ``phi`` admits a cell only when its precondition is a non-empty subset
    of ``live``, so the candidates are the readers of the live variables,
    and the answer depends on ``live`` alone: it is cached per live set."""
    out = cache.get(live)
    if out is None:
        out = cache[live] = tuple(
            i for i in sorted({i for v in live for i in nb.readers.get(v, ())})
            if phi(state, nb.cells[i].precondition))
    return out


def _export(cell: CellIR, state: AbstractState) -> AbstractState:
    """Re-expose each user variable under its plain name so successor cells
    can bind it; every source is read before any export rebinds a name."""
    env = state.env
    for base, final in cell.exports:
        if final in env and final != base:
            state = state.bind(base, env[final])
    return state


def propagate(nb: Notebook, start: int, cfg: PropagationConfig | None = None,
              warnings: list | None = None,
              records: list | None = None) -> list[ExecutionTrace]:
    """All propagation branches from one start cell, as traces.  Each
    finding is appended once, where it is found, to ``records`` as a
    ``FindingRecord``; the findings made on a trace are the records whose
    trace is a prefix of its cells."""
    cfg = cfg or PropagationConfig()
    warnings = warnings if warnings is not None else []
    records = records if records is not None else []
    start_cell = nb.by_id.get(start)
    if start_cell is None:
        ids = [c.id for c in nb.cells]
        if ids and ids == list(range(ids[0], ids[0] + len(ids))):
            known = f"{ids[0]} to {ids[-1]}"
        else:
            known = ", ".join(map(str, ids)) or "none"
        raise EngineError(f"no cell {start}: the notebook's cell ids are {known}")
    if start_cell.precondition:
        raise EngineError(
            f"cell {start} cannot start an execution: unbound variables "
            f"{sorted(start_cell.precondition)}")

    # Seen-states are tracked per branch (append on entry, pop on exit), each
    # with its depth: a branch stops when it re-enters a cell with nothing new
    # to contribute, but a sibling branch reaching the same cell first is not
    # affected.  A cell's list is made on its first visit.
    seen: dict[int, list[tuple[AbstractState, int]]] = {}
    # Output state -> the depth of a finished expansion of it.  An expansion
    # is kept only if every seen-state that cut a branch below it was entered
    # strictly below it: then it did not depend on the path that led to it,
    # and re-expanding an equal state no shallower finds nothing earlier or
    # shorter.
    memo: dict[tuple, int] = {}
    cache: dict[frozenset[str], tuple[int, ...]] = {}
    # (statement id, its inputs) -> value; statement ids are stable while
    # ``nb`` holds the statements.
    values: dict[tuple, SourceAbs] = {}
    traces: list[ExecutionTrace] = []
    unhit = float("inf")

    def dfs(cell: CellIR, state_in: AbstractState, path: tuple[int, ...]) -> float:
        """Expand one node.  Returns the shallowest depth at which a
        seen-state cut a branch in its subtree (``unhit`` if none did); a
        cut is charged to the deepest seen-state that covers the state."""
        entries = seen.get(cell.id)
        if entries is None:
            entries = seen[cell.id] = []
        for s, entered in reversed(entries):
            if state_leq(state_in, s):
                traces.append(ExecutionTrace(path + (cell.id,), "subsumed"))
                return entered
        path = path + (cell.id,)
        depth = len(path)
        entries.append((state_in, depth))
        try:
            state, new, halted = run_program(
                cell.statements, state_in, warnings=warnings,
                halt=cfg.halt_on_finding, cell=cell.id, values=values,
                transfer_fn=transfer)
            records.extend(FindingRecord(f, path) for f in new)
            if halted:
                traces.append(ExecutionTrace(path, "halted-on-finding"))
                return unhit
            state = _export(cell, state)
            live = frozenset(v for v, a in state.env.items() if a.frames)
            candidates = successors(nb, state, live, cache)
            if not candidates:
                traces.append(ExecutionTrace(path, "no-valid-successor"))
                return unhit
            if cfg.k_bound is not None and depth >= cfg.k_bound:
                traces.append(ExecutionTrace(path, "bound"))
                return unhit
            # The parent exported ``state_in`` and is expanding it one level
            # up: an unchanged state's subtree is a deeper copy of that one.
            # The cut depends on the state alone, so it keeps no expansion
            # above it out of the memo.
            if state == state_in:
                traces.append(ExecutionTrace(path, "subsumed"))
                return unhit
            key = (frozenset(state.env.items()), state.train_uses,
                   state.test_uses)
            if memo.get(key, depth + 1) <= depth:
                traces.append(ExecutionTrace(path, "subsumed"))
                return unhit
            hit = unhit
            for i in candidates:
                hit = min(hit, dfs(nb.cells[i], state, path))
            if hit > depth:
                memo[key] = depth
            return hit
        finally:
            entries.pop()

    dfs(start_cell, BOT_STATE, ())
    del dfs  # its closure refers to it: free the event without the cyclic GC
    return traces


def valid_starts(nb: Notebook) -> list[int]:
    return [c.id for c in nb.cells if not c.precondition]


@dataclass
class FindingRecord:
    """A finding, recorded once: ``trace`` ends at the cell that found it."""
    finding: Finding
    trace: tuple[int, ...]

    @property
    def path_length(self) -> int:
        return len(self.trace)


@dataclass
class NotebookAnalysis:
    findings: list[FindingRecord] = field(default_factory=list)
    traces: list[ExecutionTrace] = field(default_factory=list)
    event_seconds: list[float] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def events(self) -> int:
        """The number of propagations run, one per start cell."""
        return len(self.event_seconds)


def analyze_notebook(nb: Notebook, cfg: PropagationConfig | None = None,
                     start: int | None = None) -> NotebookAnalysis:
    """Propagate from every valid start cell (or one given cell) and
    aggregate deduplicated findings, each with its shortest witness trace.
    Each engine warning is kept once, in first-seen order: a cell whose
    statement fails warns on every visit."""
    cfg = cfg or PropagationConfig()
    out = NotebookAnalysis(warnings=list(nb.cell_warnings))
    starts = [start] if start is not None else valid_starts(nb)
    if not starts:
        out.warnings.append("no valid start cells (all cells have unbound variables)")
        return out
    best: dict[tuple, FindingRecord] = {}
    warnings: list[str] = []
    for s in starts:
        t0 = time.perf_counter()
        records: list[FindingRecord] = []
        traces = propagate(nb, s, cfg, warnings, records)
        out.event_seconds.append(time.perf_counter() - t0)
        out.traces.extend(traces)
        for rec in records:
            prev = best.get(rec.finding.key)
            if prev is None or rec.path_length < prev.path_length:
                best[rec.finding.key] = rec
    out.warnings.extend(dict.fromkeys(warnings))
    out.findings = sorted(
        best.values(),
        key=lambda r: (r.finding.kind, r.finding.train_var, r.finding.test_var),
    )
    return out
