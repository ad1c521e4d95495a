"""Differential tests of the engine against the plain depth-first search it
replaced: relevance slicing, the successor index, the expansion memo and
the statement-value cache must not change any finding, witness trace or
warning."""

import random

import pytest

from conftest import corpus_cases

from dlcheck import engine, interp
from dlcheck.corpus import notebook_bytes, synthetic_notebook
from dlcheck.engine import (
    ExecutionTrace,
    FindingRecord,
    PropagationConfig,
    analyze_notebook,
    valid_starts,
)
from dlcheck.interp import BOT_STATE, AnalysisError, check_leakage
from dlcheck.lang import Merge, Read, Select, Use, stmt_uses
from dlcheck.notebook import CellIR, Notebook, load_notebook


def reference_run_cell(cell, state, halt, warnings):
    """Analyze one cell by running ``transfer`` on every statement; returns
    (state, findings, halted).  It shares no cache with the engine."""
    findings = []
    for s in cell.statements:
        try:
            state = engine.transfer(s, state)
        except AnalysisError as e:
            warnings.append(f"cell {cell.id}: {e}")
            continue
        uses = stmt_uses(s)
        if uses:
            hits = check_leakage(state, uses)
            if hits:
                if halt:
                    findings.append(hits[0])
                    return engine._export(cell, state), findings, True
                findings.extend(hits)
    return engine._export(cell, state), findings, False


def reference_propagate(nb, start, cfg, warnings, records):
    """The plain search: every successor is found by testing every cell with
    ``phi``, and every interleaving is expanded."""
    seen = {c.id: [] for c in nb.cells}
    traces = []

    def dfs(cell, state_in, path):
        if any(engine.state_leq(state_in, s) for s in seen[cell.id]):
            traces.append(ExecutionTrace(path + (cell.id,), "subsumed"))
            return
        seen[cell.id].append(state_in)
        try:
            state, new, halted = reference_run_cell(cell, state_in,
                                                    cfg.halt_on_finding, warnings)
            path = path + (cell.id,)
            records.extend(FindingRecord(f, path) for f in new)
            if halted:
                traces.append(ExecutionTrace(path, "halted-on-finding"))
                return
            candidates = [c for c in nb.cells if engine.phi(state, c.precondition)]
            if not candidates:
                traces.append(ExecutionTrace(path, "no-valid-successor"))
                return
            if cfg.k_bound is not None and len(path) >= cfg.k_bound:
                traces.append(ExecutionTrace(path, "bound"))
                return
            for c in candidates:
                dfs(c, state, path)
        finally:
            seen[cell.id].pop()

    dfs(nb.by_id[start], BOT_STATE, ())
    return traces


def reference_runs(nb, cfg, starts):
    """``reference_propagate`` from each start: its finding records and its
    engine warnings."""
    runs = {}
    for s in starts:
        records, warnings = [], []
        reference_propagate(nb, s, cfg, warnings, records)
        runs[s] = records, warnings
    return runs


def reference_analyze(nb, cfg, start=None, runs=None):
    """``analyze_notebook`` over ``reference_propagate``, reduced to what
    must not change: the findings with their witness traces, and the
    warnings (engine warnings once each, in first-seen order).  ``runs``
    may hold the per-start runs already made."""
    warnings = [f"cell {c.id}: {w}" for c in nb.cells for w in c.warnings]
    starts = [start] if start is not None else valid_starts(nb)
    if not starts:
        return [], warnings + ["no valid start cells (all cells have unbound variables)"]
    runs = runs or reference_runs(nb, cfg, starts)
    best = {}
    engine_warnings = []
    for s in starts:
        records, run_warnings = runs[s]
        engine_warnings += run_warnings
        for rec in records:
            prev = best.get(rec.finding.key)
            if prev is None or rec.path_length < prev.path_length:
                best[rec.finding.key] = rec
    findings = sorted(best.values(), key=lambda r: r.finding.key)
    return _records(findings), warnings + list(dict.fromkeys(engine_warnings))


def _records(findings):
    return [(r.finding.key, r.finding.witness, r.finding.file,
             r.finding.train_site, r.finding.test_site, r.trace)
            for r in findings]


def _analyze(nb, cfg, start=None):
    res = analyze_notebook(nb, cfg, start=start)
    return _records(res.findings), res.warnings


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

IMPORTS = ("import pandas as pd\n"
           "from sklearn.model_selection import train_test_split\n"
           "from sklearn.preprocessing import StandardScaler")


def fanout_notebook(n, kind, reads=1):
    """One read per ``reads``, each followed by ``n`` commuting sibling
    cells, then one cell that uses a sibling of the first read."""
    cells = []
    for r in range(reads):
        cells.append(f'{IMPORTS}\nsrc{r} = pd.read_csv("part{r}.csv")')
        cells += [f"x{r}_{j} = src{r}.dropna()" for j in range(n)]
    if kind == "overlap":
        cells.append("hold = x0_1.iloc[10:20]\nm.fit(x0_1)\nm.predict(hold)")
    elif kind == "taint":
        cells.append("s = StandardScaler().fit_transform(x0_0)\n"
                     "tr, te = train_test_split(s)\nm.fit(tr)\nm.predict(te)")
    else:
        cells.append("tr, te = train_test_split(x0_0)\nm.fit(tr)\nm.predict(te)")
    return notebook_bytes(cells)


_NAMES = ("a", "b", "c")


def _dense_stmt(rng):
    v, w, u = (rng.choice(_NAMES) for _ in range(3))
    lo = rng.randint(0, 60)
    return rng.choice([
        f'{v} = pd.read_csv("{rng.choice("fg")}.csv")',
        f"{v} = {w}.dropna()",
        f"{v} = {w}.iloc[{lo}:{lo + rng.randint(1, 60)}]",
        f"{v} = {w}.iloc[{lo}:{lo + rng.randint(1, 60)}]",
        f"{v} = pd.concat([{w}, {u}])",
        f"{v} = StandardScaler().fit_transform({w})",
        f"{v}, {u} = train_test_split({w})",
        f"m.fit({v})",
        f"m.predict({v})",
        f"m.fit({v})\nm.predict({w})",
        f"m.fit({v})\nm.fit({w})",
        f"m.predict({v})\nm.predict({w})",
    ])


def dense_notebook(seed):
    """A small random notebook over three shared variable names, so most
    cells commute, rebind each other's inputs, or both.  Some cells hold
    ``if``/``else`` or ``for`` bodies."""
    rng = random.Random(seed)
    cells = [f'{IMPORTS}\na = pd.read_csv("f.csv")\nb = a.iloc[0:50]']
    for _ in range(rng.randint(2, 5)):
        shape = rng.random()
        if shape < 0.1:
            cells.append(f"if c:\n    {_dense_stmt(rng)}\nelse:\n    {_dense_stmt(rng)}"
                         .replace("\nm.", "\n    m."))
        elif shape < 0.2:
            body = "\n".join(_dense_stmt(rng) for _ in range(2))
            cells.append("for i in r:\n    " + body.replace("\n", "\n    "))
        else:
            cells.append(_dense_stmt(rng))
    return notebook_bytes(cells)


# Cells 2 and 3 commute, and the two orders reach states that differ only
# in the order of their train uses; the test use in cell 4, which needs
# both, then pairs first with a different train use, and halt-on-finding
# keeps only that one.
USE_ORDER = notebook_bytes([
    f'{IMPORTS}\nr = pd.read_csv("f.csv")',
    "p = r.dropna()\nm.fit(p)",
    "q = r.dropna()\nm.fit(q)",
    "y = p.iloc[5:9]\nm.predict(y)\nw = q.dropna()",
])


def windows_notebook(seed):
    """``pd.concat`` of row windows of one file, each gapped from or
    Python-adjacent to the one before, then a test slice inside a window, in
    a gap or past the last window.  Some notebooks rebind ``df`` to a slice
    or to a gapped selection, so the concat cell runs again on other
    inputs, aligned or not."""
    rng = random.Random(seed)
    windows, pos = [], rng.randint(0, 20)
    for _ in range(rng.randint(2, 6)):
        width = rng.randint(3, 15)
        windows.append((pos, pos + width))
        pos += width + rng.choice((0, rng.randint(2, 10)))
    gaps = [(a + 1, b - 1) for (_, a), (b, _) in zip(windows, windows[1:])
            if b > a + 1]
    where = rng.choice(("window", "gap", "past"))
    if where == "window":
        lo, hi = rng.choice(windows)
        test = (lo + 1, hi)
    elif where == "gap" and gaps:
        test = rng.choice(gaps)
    else:
        test = (pos + 5, pos + 5 + rng.randint(1, 30))
    parts = ", ".join(f"df.iloc[{a}:{b}]" for a, b in windows)
    cells = [f'{IMPORTS}\ndf = pd.read_csv("f.csv")',
             f"w = pd.concat([{parts}])",
             f"te = df.iloc[{test[0]}:{test[1]}]\nm.fit(w)\nm.predict(te)"]
    rebind = rng.choice((None, "df.iloc[5:]", "df.iloc[[0, 3, 7]]"))
    if rebind:
        cells.insert(2, f"df = {rebind}")
    return notebook_bytes(cells)


INPUTS = {
    "corpus": [data for _name, data in corpus_cases()],
    "orders": [USE_ORDER],
    "fanout": [fanout_notebook(n, kind, reads)
               for n in (2, 4, 6) for kind in ("clean", "overlap", "taint")
               for reads in (1, 2) if n < 6 or reads == 1],
    "synthetic": [synthetic_notebook(50)],
    **{f"dense{i}": [dense_notebook(s) for s in range(i * 60, i * 60 + 60)]
       for i in range(5)},
    "windows": [windows_notebook(s) for s in range(24)],
}


@pytest.mark.parametrize("group", sorted(INPUTS))
def test_analysis_matches_reference_search(group, monkeypatch):
    """Identical findings (key, witness, file, sites, trace) and warnings
    for halt-on-finding on and off, K from 2 to 5, all starts together and
    each start on its own; and at every node the indexed successors are
    exactly the relevant cells ``phi`` admits.  The reference searches
    every cell."""
    indexed = engine.successors
    checked_nodes = 0

    def checked(nb, state, live, cache):
        nonlocal checked_nodes
        out = indexed(nb, state, live, cache)
        assert live == {v for v, a in state.env.items() if a.frames}
        assert [nb.cells[i] for i in out] == [
            c for i, c in enumerate(nb.cells)
            if i in nb.relevant and engine.phi(state, c.precondition)]
        checked_nodes += 1
        return out

    monkeypatch.setattr(engine, "successors", checked)
    compared = 0
    for data in INPUTS[group]:
        nb = load_notebook(data)
        for halt in (True, False):
            for k in (2, 3, 4, 5):
                cfg = PropagationConfig(k_bound=k, halt_on_finding=halt)
                starts = valid_starts(nb)
                runs = reference_runs(nb, cfg, starts)
                for start in [None, *starts]:
                    expected = reference_analyze(nb, cfg, start, runs)
                    assert _analyze(nb, cfg, start) == expected, \
                        (group, data, halt, k, start)
                    compared += 1
    assert compared and checked_nodes


def test_dense_inputs_cover_branches_loops_and_findings():
    nbs = [load_notebook(data) for i in range(5) for data in INPUTS[f"dense{i}"]]
    assert len(nbs) >= 300
    sources = [c.source for nb in nbs for c in nb.cells]
    assert any(s.startswith("if ") for s in sources)
    assert any(s.startswith("for ") for s in sources)
    with_findings = sum(bool(analyze_notebook(nb).findings) for nb in nbs)
    assert 0.2 * len(nbs) < with_findings < 0.9 * len(nbs)


def test_commuting_siblings_are_expanded_once(monkeypatch):
    """One read and six commuting siblings at K=5: the memo expands each
    set of siblings once instead of once per order."""
    nb = load_notebook(notebook_bytes(
        [f'{IMPORTS}\ndf = pd.read_csv("a.csv")']
        + [f"x{j} = df.dropna()" for j in range(6)]
        + ["m.fit(pd.concat([x0, x1, x2, x3, x4, x5]))"]))
    cfg = PropagationConfig(k_bound=5)
    transfer = engine.transfer
    calls = 0

    def counted(s, m):
        nonlocal calls
        calls += 1
        return transfer(s, m)

    monkeypatch.setattr(engine, "transfer", counted)
    expected = reference_analyze(nb, cfg)
    reference_calls, calls = calls, 0
    assert _analyze(nb, cfg) == expected
    assert calls * 2 <= reference_calls


def test_expansion_cut_above_its_node_is_not_reused():
    """Cells 2 and 3 rebind ``p`` to the same window of ``r``, so the
    branches (1, 2) and (1, 3) reach one state.  Below cell 2, (1, 2, 2)
    re-enters cell 2 with a state already seen on the path.  That cut
    depends on the path, so cell 2's expansion may not be reused below
    cell 3: the search must explore exactly what the plain search
    explores."""
    nb = load_notebook(notebook_bytes([
        f'{IMPORTS}\nr = pd.read_csv("f.csv")\np = r.dropna()',
        "p = r.iloc[1:]",
        "p = r.iloc[1:]",
        "m.fit(p)",
    ]))
    cfg = PropagationConfig(k_bound=3)
    expected = reference_propagate(nb, 1, cfg, [], [])
    assert any(t.termination == "subsumed" for t in expected)
    assert engine.propagate(nb, 1, cfg) == expected


def test_failing_statement_warns_once():
    """A cell whose statement raises on every visit: the engine warns on
    each visit, the analysis keeps the warning once."""
    read = Read("a", "f.csv", site="1:1")
    bad = Select("b", "ghost", None, None, site="2:1")
    copy = Select("c", "a", None, None, site="3:1")
    use = Use("train", ("b", "c"), site="4:1")
    nb = Notebook((
        CellIR(1, "", (read,), frozenset(), (), ()),
        CellIR(2, "", (bad,), frozenset({"a"}), (), ()),
        CellIR(3, "", (copy,), frozenset({"a"}), (), ()),
        CellIR(4, "", (use,), frozenset({"b", "c"}), (), ()),
    ))
    raw = []
    engine.propagate(nb, 1, PropagationConfig(k_bound=5), raw)
    assert len(raw) > 1 and len(set(raw)) == 1
    assert analyze_notebook(nb).warnings == raw[:1]
    assert reference_analyze(nb, PropagationConfig(k_bound=5))[1] == raw[:1]


def test_alignment_and_both_merge_operands_key_the_value_cache():
    """Cells 2 and 3 bind ``a`` to the same frame, aligned and not, so the
    select in cell 4 narrows only after cell 2.  The concat's left operand
    is the same on every branch; only its right operand differs."""
    nb = load_notebook(notebook_bytes([
        f'{IMPORTS}\ndf = pd.read_csv("f.csv")\nx = df.iloc[0:3]\nt = df.iloc[5:9]',
        "a = df.iloc[0:10]",
        "a = df.iloc[[0, 10]]",
        "b = a.iloc[2:4]\nc = pd.concat([x, b])\nm.fit(b)\nm.fit(c)\nm.predict(t)",
    ]))
    cfg = PropagationConfig(k_bound=5, halt_on_finding=False)
    findings, warnings = _analyze(nb, cfg)
    assert (findings, warnings) == reference_analyze(nb, cfg)
    assert [(key, trace) for key, *_, trace in findings] == [
        (("overlap", "b", "t"), (1, 3, 4)), (("overlap", "c", "t"), (1, 3, 4))]


def test_rerun_concat_cell_makes_no_further_reduction(monkeypatch):
    """A three-cell windows notebook at K=5 with halt-on-finding off: the
    concat cell runs again on later branches with the inputs it had, so one
    search reduces each distinct merge input once."""
    nb = load_notebook(notebook_bytes([
        f'{IMPORTS}\ndf = pd.read_csv("f.csv")',
        "w = pd.concat([df.iloc[0:10], df.iloc[20:30], df.iloc[30:45], df.iloc[60:70]])",
        "te = df.iloc[40:50]\nm.fit(w)\nm.predict(te)",
    ]))
    cfg = PropagationConfig(k_bound=5, halt_on_finding=False)
    inputs = set()
    transfer = engine.transfer

    def recorded(s, m):
        if isinstance(s, Merge):
            inputs.add((id(s), *(m.env[v] for v in s.sources)))
        return transfer(s, m)

    set_reduce = interp.set_reduce
    calls = 0

    def counted(frames, parts=()):
        nonlocal calls
        calls += 1
        return set_reduce(frames, parts)

    monkeypatch.setattr(engine, "transfer", recorded)
    monkeypatch.setattr(interp, "set_reduce", counted)
    reference_propagate(nb, 1, cfg, [], [])
    reference_calls, calls = calls, 0
    engine.propagate(nb, 1, cfg)
    # The key holds the statement and its sources' values: one reduction
    # per distinct input.
    assert reference_calls > calls == len(inputs) == 1
