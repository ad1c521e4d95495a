import pytest

from conftest import CORPUS_DIR

from dlcheck import engine
from dlcheck.corpus import notebook_bytes
from dlcheck.domains import SourceAbs, frame
from dlcheck.engine import (
    EngineError,
    ExecutionTrace,
    PropagationConfig,
    analyze_notebook,
    phi,
    propagate,
    valid_starts,
)
from dlcheck.interp import BOT_STATE
from dlcheck.notebook import load_notebook

FIG_CELLS = [
    'df = pd.read_csv("heart.csv")',
    "y = df[['target']]\nX = df.drop('target', axis=1)\n\n"
    "X_train = X.iloc[:split+1] \nX_test = X.iloc[split:end]\n\n"
    "y_train = y.iloc[:split+1]\ny_test = y.iloc[split:end]\n",
    "lr_clf = LogisticRegression()\ntrain1 = lr_clf.fit(X_train, y_train)",
    "train_score = accuracy_score(y_test, lr_clf.predict(X_test))",
]


def fig_notebook():
    return load_notebook(notebook_bytes(FIG_CELLS))


def test_phi_requires_nonempty_covered_precondition():
    st = BOT_STATE.bind("df", SourceAbs(frozenset({frame("f")}), False, True))
    assert phi(st, {"df"}) is True
    assert phi(st, set()) is False
    assert phi(st, {"ghost"}) is False
    empty = BOT_STATE.bind("df", SourceAbs(frozenset(), False))
    assert phi(empty, {"df"}) is False


def test_propagate_rejects_invalid_start():
    nb = fig_notebook()
    with pytest.raises(EngineError):
        propagate(nb, 2)


def test_fig_notebook_halts_with_one_overlap():
    nb = fig_notebook()
    records = []
    traces = propagate(nb, 1, PropagationConfig(k_bound=5), records=records)
    halted = [t for t in traces if t.termination == "halted-on-finding"]
    assert any(t.cells == (1, 2, 3, 4) for t in halted)
    best = min(halted, key=lambda t: len(t.cells))
    # the findings on a trace are the records whose trace is a prefix of it
    found = [r.finding for r in records if best.cells[:len(r.trace)] == r.trace]
    assert len(found) == 1
    assert found[0].kind == "overlap"


def test_single_cell_notebook_no_successor():
    nb = load_notebook(notebook_bytes(['df = pd.read_csv("a.csv")']))
    records = []
    traces = propagate(nb, 1, records=records)
    assert len(traces) == 1
    assert traces[0].termination == "no-valid-successor"
    assert traces[0].cells == (1,)
    assert records == []


def test_mutually_feeding_cells_subsume():
    nb = load_notebook(notebook_bytes([
        'a = pd.read_csv("f.csv")',
        "b = a.dropna()",
        "c = b.head()",
        "m.fit(b)\nm.predict(c)",
    ]))
    # cell 2 needs a, cell 3 needs b; after 2 -> 3 the state admits 2 again
    # with nothing new, so some branch must end in subsumption
    traces = propagate(nb, 1, PropagationConfig(k_bound=None))
    assert any(t.termination == "subsumed" for t in traces)
    assert all(len(t.cells) < 20 for t in traces)


def test_k_bound_respected():
    nb = fig_notebook()
    traces = propagate(nb, 1, PropagationConfig(k_bound=2))
    assert all(len(t.cells) <= 2 for t in traces)
    assert any(t.termination == "bound" for t in traces)


def test_unbounded_propagation_terminates():
    nb = fig_notebook()
    traces = propagate(nb, 1, PropagationConfig(k_bound=None,
                                                halt_on_finding=False))
    assert traces
    assert all(t.termination != "bound" for t in traces)


def test_rerun_that_changes_nothing_is_not_expanded():
    """The split cell re-run on its own output binds the values it had:
    the state is the one its parent is expanding one level up, so the
    re-run stops there."""
    nb = load_notebook((CORPUS_DIR / "c1_split_then_scale.ipynb").read_bytes())
    traces = propagate(nb, 2)
    assert ExecutionTrace((2, 3, 3), "subsumed") in traces
    assert not any(t.cells[:3] == (2, 3, 3) and len(t.cells) > 3 for t in traces)


def test_rerun_that_moves_a_window_is_expanded():
    nb = load_notebook(notebook_bytes([
        'import pandas as pd\nr = pd.read_csv("f.csv")\np = r.dropna()',
        "p = p.iloc[1:]",
        "m.fit(p)",
    ]))
    traces = propagate(nb, 1, PropagationConfig(k_bound=4, halt_on_finding=False))
    assert any(t.cells[:3] == (1, 2, 2) and len(t.cells) > 3 for t in traces)


def test_unbounded_all_uses_fanout_stops_at_unchanged_reruns():
    """One read, four cells that each fit on their own window, and one
    prediction on a window none of them holds: every cell re-run adds no
    use, so the unbounded search stops there instead of running every
    interleaving of re-runs (48,141 traces)."""
    nb = load_notebook(notebook_bytes(
        ['import pandas as pd\ndf = pd.read_csv("f.csv")']
        + [f"x{i} = df.iloc[{10 * i}:{10 * i + 5}]\nm.fit(x{i})" for i in range(4)]
        + ["m.predict(df.iloc[500:505])"]))
    res = analyze_notebook(nb, PropagationConfig(k_bound=None, halt_on_finding=False))
    assert res.findings == []
    assert len(res.traces) == 521


def test_trace_respects_phi_at_each_step():
    nb = fig_notebook()
    by_id = {c.id: c for c in nb.cells}
    for t in propagate(nb, 1, PropagationConfig(k_bound=4)):
        for cid in t.cells[1:]:
            assert by_id[cid].precondition  # successors always have needs


def test_findings_insensitive_to_cell_declaration_order():
    # swap the two use cells; the same (kind, train, test) keys must emerge
    swapped = [FIG_CELLS[0], FIG_CELLS[1], FIG_CELLS[3], FIG_CELLS[2]]
    a = analyze_notebook(fig_notebook())
    b = analyze_notebook(load_notebook(notebook_bytes(swapped)))
    keys = lambda res: {r.finding.key for r in res.findings}  # noqa: E731
    assert keys(a) == keys(b) != set()


def test_analyze_notebook_dedups_and_reports_shortest():
    res = analyze_notebook(fig_notebook())
    assert len(res.findings) == 1
    rec = res.findings[0]
    assert rec.finding.key == ("overlap", "X_train", "X_test")
    assert rec.trace == (1, 2, 3, 4)
    assert res.events == len(valid_starts(fig_notebook()))


def test_no_valid_starts_warns():
    nb = load_notebook(notebook_bytes(["y = x.dropna()"]))
    res = analyze_notebook(nb)
    assert res.findings == []
    assert any("no valid start" in w for w in res.warnings)


def test_no_halt_keeps_collecting():
    nb = fig_notebook()
    res = analyze_notebook(nb, PropagationConfig(k_bound=5, halt_on_finding=False))
    # without halting, the crossing pairs surface too
    keys = {r.finding.key for r in res.findings}
    assert ("overlap", "X_train", "X_test") in keys
    assert len(keys) >= 2
    # path lengths reflect the discovery point, not how far branches ran on
    rec = next(r for r in res.findings
               if r.finding.key == ("overlap", "X_train", "X_test"))
    assert rec.path_length == 4


def test_start_cell_restriction():
    nb = fig_notebook()
    res = analyze_notebook(nb, start=1)
    assert res.events == 1
    assert res.findings


def test_one_statement_per_cell_taint_chain():
    # the normalize-before-split bug spread across six cells; the witness
    # chain must walk all of them
    nb = load_notebook(notebook_bytes([
        'import pandas as pd\nfrom sklearn.preprocessing import StandardScaler\n'
        'data = pd.read_csv("data.csv")',
        'X_norm = StandardScaler().fit_transform(data)',
        'X_train = X_norm[int(0.025*len(X_norm))+1:]',
        'X_test = X_norm[:int(0.025*len(X_norm))]',
        'model = LogisticRegression()\nmodel.fit(X_train)',
        'model.predict(X_test)',
    ]))
    res = analyze_notebook(nb, PropagationConfig(k_bound=6))
    assert len(res.findings) == 1
    rec = res.findings[0]
    assert rec.finding.kind == "taint"
    assert rec.path_length == 6 and rec.trace == (1, 2, 3, 4, 5, 6)


@pytest.mark.parametrize("header", ["for i in r:", "if c:"])
def test_uses_nested_in_a_body_are_checked(header):
    nb = load_notebook(notebook_bytes([
        'import pandas as pd\ndf = pd.read_csv("a.csv")',
        f"{header}\n    m.fit(df)\n    m.predict(df)",
    ]))
    res = analyze_notebook(nb)
    assert [r.finding.key for r in res.findings] == [("overlap", "df", "df")]


# ---------------------------------------------------------------------------
# Relevance slicing
# ---------------------------------------------------------------------------

def _keys_and_traces(cells, k_bound=5):
    nb = load_notebook(notebook_bytes(cells))
    res = analyze_notebook(nb, PropagationConfig(k_bound=k_bound,
                                                 halt_on_finding=False))
    return [(r.finding.key, r.trace) for r in res.findings]


def test_writer_inside_a_loop_body_is_relevant():
    # the only writer of x assigns it in a for body
    assert _keys_and_traces([
        'import pandas as pd\ndf = pd.read_csv("f.csv")',
        "for i in r:\n    x = df.iloc[0:50]",
        "m.fit(x)\nm.predict(df.iloc[40:60])",
    ]) == [(("overlap", "x", "_t0"), (1, 2, 3))]


def test_relevance_runs_to_a_fixpoint():
    # read -> a -> b -> use: the writer of a matters only through b's writer
    assert _keys_and_traces([
        'import pandas as pd\ndf = pd.read_csv("f.csv")',
        "a = df.dropna()",
        "b = a.iloc[0:50]",
        "m.fit(b)\nm.predict(df.iloc[40:60])",
    ]) == [(("overlap", "b", "_t0"), (1, 2, 3, 4))]


@pytest.mark.parametrize("cells, key", [
    # x is assigned in the loop body or one arm only, so the binding cell 2
    # made is joined in when the loop runs zero times or the arm is not taken
    (["x = df.iloc[50:60]",
      "for i in r:\n    x = df.iloc[0:10]\nm.fit(x)\nm.predict(df.iloc[40:70])"],
     ("overlap", "x", "_t1")),
    (["x = df.iloc[50:60]",
      "if c:\n    x = df.iloc[0:10]\nm.fit(x)\nm.predict(df.iloc[40:70])"],
     ("overlap", "x'", "_t1")),
    # the test use's check looks up the train use's x again, after cell 2
    # rebound it
    (["x = df.iloc[50:60]", "x = df.iloc[0:10]\nm.fit(x)",
      "m.predict(df.iloc[55:58])"],
     ("overlap", "x", "_t0")),
], ids=["loop", "branch", "use"])
def test_writer_of_a_read_that_is_not_a_precondition_is_relevant(cells, key):
    """No precondition names x, yet the cell that writes it can change a
    finding, so it must be searched."""
    found = _keys_and_traces(['import pandas as pd\ndf = pd.read_csv("f.csv")']
                             + cells)
    assert [k for k, _ in found] == [key]


@pytest.mark.xfail(strict=True, reason="a recorded use is looked up again by "
                   "variable name, so cell 3's rebinding of x hides the leak")
def test_rebinding_a_train_variable_keeps_the_recorded_use():
    """The run 1, 2, 3, 4 fits on rows 50-60 and predicts rows 55-58.  Cell 3
    rebinds x to rows of w before the test use is checked, and the check
    pairs z with what x is bound to then.  At K=5 the leak surfaces only
    through the longer witness 1, 2, 3, 2, 4."""
    assert _keys_and_traces([
        'df = pd.read_csv("f.csv")',
        "x = df.iloc[50:60]\nm.fit(x)\nw = df.iloc[0:5]",
        "x = w.iloc[0:3]\nz = df.iloc[55:58]",
        "m.predict(z)",
    ], k_bound=4) == [(("overlap", "x", "z"), (1, 2, 3, 4))]


@pytest.mark.parametrize("halt", [True, False])
def test_exports_read_the_cell_state_before_any_rebinding(halt):
    """Cell 2 exports data, bound to the frame df had, and df, rebound to
    rows 100-200.  The export of data must read df before the export of df
    rebinds it: the model is fit on rows 0-10 of the original frame."""
    nb = load_notebook(notebook_bytes([
        'import pandas as pd\ndf = pd.read_csv("f.csv")\nkeep = df.iloc[0:20]',
        "data = df\ndf = df.iloc[100:200]",
        "tr = data.iloc[0:10]\nm.fit(tr)\nm.predict(keep)",
    ]))
    res = analyze_notebook(nb, PropagationConfig(k_bound=5, halt_on_finding=halt))
    assert [(r.finding.key, r.trace) for r in res.findings] == [
        (("overlap", "tr", "keep"), (1, 2, 3))]


# A name read from an earlier cell (ROADMAP item 3(e)): whether it is a frame
# is not decided, so each of these leaks is missed without a warning.

@pytest.mark.xfail(strict=True, reason="an alias alone in a cell translates "
                   "to nothing, so the cell only runs as a start and never "
                   "exports data")
def test_alias_of_a_frame_from_an_earlier_cell_is_exported():
    assert _keys_and_traces([
        'import pandas as pd\ndf = pd.read_csv("f.csv")',
        "data = df",
        "tr = data.iloc[0:50]\nte = data.iloc[40:60]\nm.fit(tr)\nm.predict(te)",
    ]) == [(("overlap", "tr", "te"), (1, 2, 3))]


@pytest.mark.xfail(strict=True, reason="a positional argument bound in an "
                   "earlier cell joins the precondition as a frame, and phi "
                   "never admits the cell when it is a scalar")
def test_scalar_argument_from_an_earlier_cell_does_not_gate_the_cell():
    assert _keys_and_traces([
        'import pandas as pd\nfrom sklearn.model_selection import '
        'train_test_split\nfrom sklearn.preprocessing import StandardScaler\n'
        'df = pd.read_csv("f.csv")\nfill = 0',
        "z = StandardScaler().fit_transform(df.fillna(fill))\n"
        "tr, te = train_test_split(z)\nm.fit(tr)\nm.predict(te)",
    ]) == [(("taint", "tr", "te"), (1, 2))]


def test_siblings_that_feed_no_use_are_not_searched(monkeypatch):
    """One read, six siblings that only read it, and an evaluation cell on
    one sibling, at K=5.  The siblings re-export ``df`` unchanged, which
    writes nothing; counting them as writers of ``df`` would search every
    interleaving of them again (531 transfers) instead of 21."""
    nb = load_notebook(notebook_bytes(
        ['import pandas as pd\nfrom sklearn.model_selection import '
         'train_test_split\ndf = pd.read_csv("a.csv")']
        + [f"x{j} = df.dropna()" for j in range(6)]
        + ["tr, te = train_test_split(x3)\nm.fit(tr)\nm.predict(te)"]))
    transfer = engine.transfer
    calls = 0

    def counted(s, m):
        nonlocal calls
        calls += 1
        return transfer(s, m)

    monkeypatch.setattr(engine, "transfer", counted)
    res = analyze_notebook(nb, PropagationConfig(k_bound=5))
    assert res.findings == [] and res.events == 1
    assert calls <= 40
    assert nb.relevant == {0, 4, 7}
