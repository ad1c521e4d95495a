import ast
import gc
import json
import random
import re
import sys

import pytest

from conftest import corpus_cases

from dlcheck import notebook
from dlcheck.corpus import notebook_bytes
from dlcheck.engine import PropagationConfig, analyze_notebook
from dlcheck.lang import (
    Apply,
    Branch,
    INF,
    Loop,
    Merge,
    Phi,
    Read,
    RowExpr,
    RowInterval,
    Select,
    Use,
    stmt_sources,
    stmt_target,
)
from dlcheck.notebook import (
    CellIR,
    KnowledgeBase,
    Notebook,
    NotebookError,
    _SCOPES,
    _cell_facts,
    _statements,
    default_kb,
    load_notebook,
    translate_cell,
)

FIG_CELLS = [
    'df = pd.read_csv("heart.csv")',
    "y = df[['target']]\nX = df.drop('target', axis=1)\n\n"
    "X_train = X.iloc[:split+1] \nX_test = X.iloc[split:end]\n\n"
    "y_train = y.iloc[:split+1]\ny_test = y.iloc[split:end]\n",
    "lr_clf = LogisticRegression(solver='liblinear')\n"
    "train1 = lr_clf.fit(X_train, y_train)",
    "train_score = accuracy_score(y_test, lr_clf.predict(X_test))",
]


def test_translate_read_csv():
    cell = translate_cell('df = pd.read_csv("heart.csv")')
    assert cell.statements == (Read("df", "heart.csv"),)


def test_translate_iloc_slice_with_symbolic_end():
    cell = translate_cell("X_train = X.iloc[:split+1]")
    assert cell.statements == (
        Select("X_train", "X",
               rows=RowInterval(RowExpr.const(0), RowExpr.symbol("split", 1))),
    )


def test_non_dataframe_statement_dropped_with_warning():
    cell = translate_cell('print("hi")')
    assert cell.statements == ()
    assert any("non-dataframe statement dropped" in w for w in cell.warnings)


def test_syntax_error_cell():
    cell = translate_cell("def broken(:\n  pass")
    assert cell.statements == ()
    assert any("syntax error" in w for w in cell.warnings)


def test_column_projection_forms():
    one = translate_cell("y = df['target']")
    assert one.statements[0].cols == frozenset({"target"})
    many = translate_cell("y = df[['a', 'b']]")
    assert many.statements[0].cols == frozenset({"a", "b"})


def test_drop_keeps_whole_frame():
    cell = translate_cell("X = df.drop('target', axis=1)")
    assert cell.statements == (Select("X", "df", rows=None, cols=None),)


def test_subscript_meaning_depends_on_accessor():
    # plain [] with a variable or int key picks columns, not rows: the
    # frame must stay whole
    by_var = translate_cell("y = df[target_col]").statements[0]
    assert by_var.rows is None and by_var.cols is None
    by_int = translate_cell("y = df[3]").statements[0]
    assert by_int.rows is None and by_int.cols is None
    # iloc keys are positions
    from dlcheck.lang import RowList
    by_pos = translate_cell("y = df.iloc[k]").statements[0]
    assert by_pos.rows == RowList((RowExpr.symbol("k"),))


def test_boolean_mask_select_keeps_rows():
    # An empty positional slice is opaque too: it keeps the whole frame.
    for source in ("adults = df[df.age > 18]", "adults = df.iloc[5:2]"):
        cell = translate_cell(source)
        sel = cell.statements[-1]
        assert isinstance(sel, Select) and sel.rows is None
        assert any("opaque subscript" in w for w in cell.warnings)


def test_loc_with_row_and_column_parts():
    cell = translate_cell("y = df.loc[0:9, ['a', 'b']]")
    sel = cell.statements[0]
    assert sel.rows == RowInterval(RowExpr.const(0), RowExpr.const(9))
    assert sel.cols == frozenset({"a", "b"})


def test_negative_slice_binds_fresh_symbol():
    # "last five rows" starts at an unknown position: a fresh symbol keeps
    # it comparable-to-nothing, which downstream checks treat conservatively
    cell = translate_cell("y = df.iloc[-5:]")
    rows = cell.statements[0].rows
    assert isinstance(rows, RowInterval)
    assert rows.lo.sym is not None and rows.hi == INF


def test_scaler_chain_is_normalize():
    cell = translate_cell("X = StandardScaler().fit_transform(df)")
    assert cell.statements == (Apply("X", "normalize", "df"),)


def test_self_reassignment_reads_previous_version():
    cell = translate_cell("X = StandardScaler().fit_transform(X)")
    assert cell.statements == (Apply("X'", "normalize", "X"),)
    assert cell.precondition == frozenset({"X"})
    assert ("X", "X'") in cell.exports


def test_train_test_split_expands_to_complementary_selects():
    cell = translate_cell("X_train, X_test = train_test_split(X)")
    a, b = cell.statements
    assert isinstance(a, Select) and isinstance(b, Select)
    assert a.rows.lo == RowExpr.const(0)
    assert b.rows.lo == a.rows.hi.shift(1)
    assert b.rows.hi == INF
    cell4 = translate_cell("A, B, C, D = train_test_split(X, y)")
    assert [s.target for s in cell4.statements] == ["A", "B", "C", "D"]
    assert cell4.statements[0].source == "X"
    assert cell4.statements[2].source == "y"


def test_fit_and_predict_become_uses():
    cell = translate_cell("m = LogisticRegression()\nm.fit(X_train, y_train)\n"
                          "m.predict(X_test)")
    uses = [s for s in cell.statements if isinstance(s, Use)]
    assert uses == [Use("train", ("X_train", "y_train")), Use("test", ("X_test",))]


def test_concat_of_list_argument():
    cell = translate_cell("import pandas as pd\ndf = pd.concat([a, b])")
    assert cell.statements == (Merge("df", "concat", ("a", "b")),)


def test_merge_method_is_join():
    cell = translate_cell("z = a.merge(b, on='id')")
    assert cell.statements == (Merge("z", "join", ("a", "b")),)


def test_unknown_function_warned_and_opaque():
    cell = translate_cell("z = mystery(df)")
    assert cell.statements == (Apply("z", "unknown", "df"),)
    assert any("unknown function 'mystery'" in w for w in cell.warnings)


def test_branch_translation_joins_arms():
    cell = translate_cell(
        "if cond:\n    clean = df.dropna()\nelse:\n    clean = df.fillna(0)\n"
        "out = clean.head()")
    kinds = [type(s).__name__ for s in cell.statements]
    assert kinds[0] == "Branch" and "Phi" in kinds
    assert cell.precondition == frozenset({"df"})


def test_loop_translation():
    cell = translate_cell("for i in range(3):\n    df = df.interpolate()")
    assert len(cell.statements) == 1 and isinstance(cell.statements[0], Loop)
    (inner,) = cell.statements[0].body
    assert inner == Apply("df", "interpolate", "df")


def test_ssa_versions_prime_naming():
    cell = translate_cell("x = pd.read_csv('a.csv')\nx = x.dropna()\nx = x.head()")
    targets = [s.target for s in cell.statements]
    assert targets == ["x", "x'", "x''"]
    assert dict(cell.exports)["x"] == "x''"


# Cells that first read two frames, so that the expression forms below see
# frames bound in the same cell.
READS = 'import pandas as pd\na = pd.read_csv("a.csv")\nb = pd.read_csv("b.csv")\n'


@pytest.mark.parametrize("line, expected", [
    ("c = a + b", Merge("c", "concat", ("a", "b"))),
    ("c = a * 2", Apply("c", "arith", "a")),
    ("c = a if q else b", Merge("c", "concat", ("a", "b"))),
    ("c = a if q else 0", Apply("c", "pick", "a")),
    ("c = a.values", Apply("c", "values", "a")),
    ("a.values", Apply("_t2", "values", "a")),
    ("a += b", Merge("a'", "concat", ("a", "b"))),
    ("c = a.fillna(b)", Merge("c", "concat", ("a", "b"))),
    ("c = pd.concat([a])", Apply("c", "concat", "a")),
])
def test_expression_forms_lower_to_one_statement(line, expected):
    cell = translate_cell(READS + line)
    assert cell.statements == (Read("a", "a.csv"), Read("b", "b.csv"), expected)
    assert cell.statements[-1].site == "cell 1[2]"
    assert cell.warnings == ()


def test_concat_of_three_is_one_merge():
    cell = translate_cell(READS + 'c = pd.read_csv("c.csv")\nd = pd.concat([a, b, c])')
    assert cell.statements[3:] == (Merge("d", "concat", ("a", "b", "c")),)
    assert [s.site for s in cell.statements[3:]] == ["cell 1[3]"]
    assert dict(cell.exports)["d"] == "d"


def test_split_arity_mismatch_is_opaque_per_target():
    cell = translate_cell(READS + "p, q, r = train_test_split(a, b)")
    assert cell.statements[2:] == tuple(Apply(t, "unknown", "a") for t in "pqr")
    assert [s.site for s in cell.statements[2:]] == \
        ["cell 1[2]", "cell 1[3]", "cell 1[4]"]
    assert cell.warnings == (
        "train_test_split arity not understood; targets treated as opaque",)


def test_if_ends_in_phi_of_the_arms():
    cell = translate_cell(
        READS + "if z:\n    a = a.dropna()\nelse:\n    a = a.fillna(0)")
    assert cell.statements[2:] == (
        Branch(((Apply("a'", "dropna", "a"),), (Apply("a''", "fillna", "a"),))),
        Phi("a'''", ("a'", "a''")),
    )
    assert [s.site for s in cell.statements[2:]] == ["cell 1[4]", "cell 1[5]"]
    assert dict(cell.exports)["a"] == "a'''"


def test_if_over_non_frames_leaves_a_non_frame():
    cell = translate_cell("if c:\n    n = 1\nelse:\n    n = 2\nz = n.dropna()")
    assert cell.statements == (Branch(((), ())),)
    assert cell.precondition == frozenset()
    assert cell.warnings == ()


def test_plain_alias_emits_no_statement():
    cell = translate_cell(READS + "y = a\nz = y.dropna()")
    assert cell.statements[2:] == (Apply("z", "dropna", "a"),)
    assert dict(cell.exports)["y"] == "a"
    assert cell.precondition == frozenset()
    assert cell.warnings == ()


def test_alias_of_a_non_frame_is_not_a_frame():
    cell = translate_cell("n = 3\ny = n\nz = y.dropna()")
    assert cell.statements == ()
    assert cell.precondition == frozenset()
    assert cell.warnings == ()


def test_annotated_assignment_with_a_value_binds_it():
    cell = translate_cell(READS + "c: pd.DataFrame = a.dropna()")
    assert cell.statements[2:] == (Apply("c", "dropna", "a"),)
    assert cell.warnings == ()


def test_annotation_without_a_value_binds_nothing():
    cell = translate_cell("b: pd.DataFrame\nz = b.dropna()")
    assert cell.statements == (Apply("z", "dropna", "b"),)
    assert cell.precondition == frozenset({"b"})
    assert cell.warnings == ()


@pytest.mark.parametrize("line", [
    "p, q = a, b",                       # not a call
    "p, q = fs[0](a)",                   # no function name
    "p, q = a.dropna()",                 # not a split
    "(p, q), r = train_test_split(a)",   # a target that is not a name
])
def test_tuple_assignment_that_is_not_a_split_is_dropped(line):
    cell = translate_cell(READS + line)
    assert cell.statements == (Read("a", "a.csv"), Read("b", "b.csv"))
    assert cell.warnings == ("unsupported tuple assignment dropped",)


def test_cell_precondition_define_then_use():
    cell = translate_cell("x = pd.read_csv('f.csv')\ny = x.dropna()")
    assert cell.precondition == frozenset()
    assert translate_cell("").precondition == frozenset()


# Test-local copies of the two walkers that ``notebook._walk`` replaced: the
# recursive ``cell_precondition`` closure and the relevance walk, with the
# index ``Notebook.__post_init__`` built from it.

def _reference_precondition(statements) -> frozenset[str]:
    pre: set[str] = set()
    defined: set[str] = set()

    def walk(stmts):
        for s in stmts:
            if isinstance(s, Branch):
                snapshot = set(defined)
                arm_defs = []
                for arm in s.arms:
                    defined.clear()
                    defined.update(snapshot)
                    walk(arm)
                    arm_defs.append(set(defined))
                defined.clear()
                defined.update(snapshot.union(*arm_defs) if arm_defs else snapshot)
                continue
            if isinstance(s, Loop):
                walk(s.body)
                continue
            for v in stmt_sources(s):
                if v not in defined:
                    pre.add(v)
            t = stmt_target(s)
            if t is not None:
                defined.add(t)

    walk(statements)
    return frozenset(pre)


def _reference_walk(stmts, nested, assigned, inputs) -> bool:
    has_use = False
    for s in stmts:
        if isinstance(s, Branch):
            for arm in s.arms:
                has_use |= _reference_walk(arm, True, assigned, inputs)
        elif isinstance(s, Loop):
            has_use |= _reference_walk(s.body, True, assigned, inputs)
        elif isinstance(s, Use):
            inputs.update(s.args)
            has_use = True
        elif (t := stmt_target(s)) is not None:
            assigned.add(t)
            if nested:
                inputs.add(t)
    return has_use


def _reference_index(cells):
    """(relevant, readers) as the parent of the merged walk built them."""
    writers: dict[str, list[int]] = {}
    inputs: list[set[str]] = []
    work: list[int] = []
    for i, c in enumerate(cells):
        assigned: set[str] = set()
        inputs.append(set(c.precondition))
        if _reference_walk(c.statements, False, assigned, inputs[i]):
            work.append(i)
        for v in assigned.union(b for b, f in c.exports if b != f):
            writers.setdefault(v, []).append(i)
    relevant: set[int] = set()
    while work:
        i = work.pop()
        if i not in relevant:
            relevant.add(i)
            work.extend(j for v in inputs[i] for j in writers.get(v, ()))
    readers: dict[str, list[int]] = {}
    for i in sorted(relevant):
        for v in cells[i].precondition:
            readers.setdefault(v, []).append(i)
    return frozenset(relevant), readers


WALK_VARS = ("a", "b", "c", "d", "e")


def _random_statements(rng, depth: int) -> tuple:
    """Reads before and after definitions come from drawing every name from
    one small pool; nested blocks may be empty or hold further blocks."""
    out = []
    for _ in range(rng.randrange(0 if depth else 1, 5)):
        t, x, y = (rng.choice(WALK_VARS) for _ in range(3))
        roll = rng.randrange(10 if depth < 3 else 7)
        if roll == 0:
            out.append(Read(t, "f.csv"))
        elif roll == 1:
            out.append(Select(t, x))
        elif roll == 2:
            out.append(Merge(t, "concat", (x, y)))
        elif roll == 3:
            out.append(Apply(t, rng.choice(("normalize", "dropna")), x))
        elif roll == 4:
            out.append(Phi(t, (x, y)))
        elif roll in (5, 6):
            out.append(Use(rng.choice(("train", "test")), (x,)))
        elif roll in (7, 8):
            out.append(Branch(tuple(_random_statements(rng, depth + 1)
                                    for _ in range(rng.randrange(3)))))
        else:
            out.append(Loop(_random_statements(rng, depth + 1)))
    return tuple(out)


def test_merged_walk_matches_the_reference_walkers():
    rng = random.Random(13)
    shapes = {"branch in loop": 0, "empty arm": 0, "armless branch": 0,
              "nested branch": 0, "read after definition": 0}

    def shape(stmts, in_loop=False, in_branch=False):
        defined = set()
        for s in stmts:
            if isinstance(s, Branch):
                shapes["branch in loop"] += in_loop
                shapes["nested branch"] += in_branch
                shapes["armless branch"] += not s.arms
                shapes["empty arm"] += any(not arm for arm in s.arms)
                for arm in s.arms:
                    shape(arm, in_loop, True)
            elif isinstance(s, Loop):
                shape(s.body, True, in_branch)
            else:
                shapes["read after definition"] += any(
                    v in defined for v in stmt_sources(s))
                if not isinstance(s, Use):
                    defined.add(s.target)

    for _ in range(300):
        cells = []
        for i in range(5):
            stmts = _random_statements(rng, 0)
            shape(stmts)
            pre = _cell_facts(stmts, ())[0]
            assert pre == _reference_precondition(stmts), stmts
            exports = tuple((v, v + rng.choice(("", "'")))
                            for v in WALK_VARS if rng.random() < 0.3)
            cells.append(CellIR(i, "", stmts, pre, exports, ()))
        nb = Notebook(tuple(cells))
        assert (nb.relevant, nb.readers) == _reference_index(nb.cells), cells
    assert all(shapes.values()), shapes


def test_loading_leaves_no_reference_cycle():
    """Every object a load makes is freed by reference counting, so loading
    leaves nothing for the cyclic collector.  Slice bounds stay constants or
    names: ``ast.dump`` of a richer bound makes a cycle of its own."""
    data = notebook_bytes([
        "import pandas as pd\n"
        "from sklearn.model_selection import train_test_split\n"
        "df = pd.read_csv('a.csv')",
        "def prep(d):\n    return d.dropna()",
        "if c:\n    df = prep(df)\nelse:\n    df = df.fillna(0)",
        "for i in r:\n    part = df.iloc[0:n]\n    df = pd.concat([df, part])",
        "tr, te = train_test_split(df)\nm.fit(tr)\nm.predict(te)",
    ])
    load_notebook(data)
    gc.collect()
    gc.disable()
    try:
        nb = load_notebook(data)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert any(isinstance(s, Branch) for s in nb.cells[2].statements)
    assert any(isinstance(s, Loop) for s in nb.cells[3].statements)
    assert analyze_notebook(nb).findings


@pytest.mark.parametrize("halt", [True, False])
def test_analysis_leaves_no_reference_cycle(halt):
    """A fanout-shaped notebook (one read, commuting sibling cells, a cell
    that uses all siblings): the search recurses, memoizes and caches, and
    everything it makes is freed by reference counting."""
    data = notebook_bytes(
        ["import pandas as pd\ndf = pd.read_csv('a.csv')"]
        + [f"x{j} = df.dropna()" for j in range(3)]
        + ["w = pd.concat([x0, x1, x2])\nhold = x1.iloc[10:20]\nm.fit(w)\n"
           "m.predict(hold)"])
    nb = load_notebook(data)
    cfg = PropagationConfig(halt_on_finding=halt)
    analyze_notebook(nb, cfg)
    gc.collect()
    gc.disable()
    try:
        analysis = analyze_notebook(nb, cfg)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert [r.finding.key for r in analysis.findings] == [("overlap", "w", "hold")]
    assert len(analysis.traces) > 4


# -- notebook loading ------------------------------------------------------------

def test_load_fig_notebook():
    nb = load_notebook(notebook_bytes(FIG_CELLS))
    assert len(nb.cells) == 4
    selects = [s for s in nb.cells[1].statements if isinstance(s, Select)]
    assert len(selects) == 6
    assert nb.cells[1].precondition == frozenset({"df"})


def test_load_notebook_without_code_cells():
    nb = load_notebook(notebook_bytes([], markdown=["# just prose"]))
    assert nb.cells == ()


def test_load_rejects_malformed_json():
    with pytest.raises(NotebookError):
        load_notebook(b"{not json")


@pytest.mark.parametrize("cells, where", [
    ({"cell_type": "code", "source": "x = 1"}, "'cells' is not a list"),
    (["x = 1"], "cells[0] is not an object"),
    ([{"cell_type": "markdown", "source": "# t"},
      {"cell_type": "code", "source": 5}], "cells[1]: source"),
    ([{"cell_type": "code", "source": ["x = 1\n", None]}], "cells[0]: source"),
], ids=["cells-not-a-list", "cell-not-an-object", "source-not-text",
        "source-list-not-text"])
def test_load_rejects_malformed_cells(cells, where):
    data = json.dumps({"nbformat": 4, "cells": cells}).encode()
    with pytest.raises(NotebookError, match=re.escape(where)):
        load_notebook(data)


def test_load_rejects_old_nbformat():
    doc = json.loads(notebook_bytes(["x = 1"]).decode())
    doc["nbformat"] = 3
    with pytest.raises(NotebookError):
        load_notebook(json.dumps(doc).encode())


def test_translation_deterministic():
    data = notebook_bytes(FIG_CELLS)
    assert load_notebook(data) == load_notebook(data)


def test_imports_visible_across_cells():
    nb = load_notebook(notebook_bytes([
        "import pandas as pd",
        "df = pd.concat([a, b])",
    ]))
    assert nb.cells[1].statements == (Merge("df", "concat", ("a", "b")),)
    assert "pd" not in nb.cells[1].precondition


# -- function inlining --------------------------------------------------------------

def test_inline_known_function():
    nb = load_notebook(notebook_bytes([
        "def prep(d):\n    return StandardScaler().fit_transform(d)",
        "y = prep(x)",
    ]))
    assert nb.cells[1].statements == (Apply("y", "normalize", "x"),)


def test_load_parses_each_code_cell_once(monkeypatch):
    calls = []
    parse = ast.parse
    monkeypatch.setattr(ast, "parse", lambda *a, **k: calls.append(1) or parse(*a, **k))
    load_notebook(notebook_bytes([
        "import pandas as pd",
        "def prep(d):\n    return d.dropna()",
        "y = prep(pd.read_csv('a.csv'))",
        "def broken(:",
    ], markdown=["# title"]))
    assert len(calls) == 4


def test_load_walks_each_cell_ir_once(monkeypatch):
    """One top-level walk of a cell's statements finds both its
    precondition and what the notebook's relevance index needs."""
    calls = []
    walk = notebook._walk

    def counted(stmts, nested, *rest):
        calls.append(nested)
        return walk(stmts, nested, *rest)

    monkeypatch.setattr(notebook, "_walk", counted)
    nb = load_notebook(notebook_bytes([
        "import pandas as pd\ndf = pd.read_csv('a.csv')",
        "if c:\n    df = df.dropna()\nfor i in r:\n    df = df.fillna(0)",
        "def broken(:",
        "m.fit(df.iloc[0:10])\nm.predict(df.iloc[5:20])",
    ], markdown=["# title"]))
    assert calls.count(False) == 4
    assert True in calls
    assert nb.relevant == {0, 1, 3}


# Definitions and imports nested in every kind of statement list.
NESTED_SOURCES = [
    "if c:\n    def f(d):\n        return d.dropna()\nelse:\n"
    "    import numpy as np\n    def f(d):\n        return d.head()\ny = f(x)",
    "for i in r:\n    import numpy as np\nelse:\n    from pandas import concat\n"
    "    def f(d):\n        return d\ny = f(x)",
    "while c:\n    def f(d):\n        return d.dropna()\nelse:\n"
    "    if c:\n        import pandas as pd\n    def f(d):\n        return d.fillna(0)",
    "try:\n    import pandas as pd\n    def f(d):\n        return d.dropna()\n"
    "except ImportError as e:\n    def f(d):\n        return d.head()\n"
    "except (KeyError, ValueError):\n    from pandas import concat\n"
    "else:\n    if c:\n        def f(d):\n            return d.tail()\n"
    "finally:\n    for i in r:\n        def f(d):\n            return d.abs()\n"
    "    def f(d):\n        return d.copy()\ny = f(x)",
    "with open(p) as h, open(q) as k:\n    from pandas import concat as cc\n"
    "    def g(d):\n        return cc([d, d])\ny = g(x)",
    "match v:\n    case 1 if w:\n        def f(d):\n            return d.dropna()\n"
    "    case [a, *rest]:\n        import pandas as pd\n    case _:\n"
    "        def f(d):\n            return d.head()\ny = f(x)",
    "class C(Base):\n    import pandas as pd\n    def f(self, d):\n        return d\n"
    "    class D:\n        def f(self):\n            import numpy\n"
    "def f(d):\n    return d.tail()\ny = f(x)",
    "def outer(d):\n    import pandas as pd\n    def f(e):\n        return e.dropna()\n"
    "    if d:\n        def f(e):\n            return e\n    return f(d)\n"
    "def f(d):\n    return d.head()\ny = outer(x)\nz = f(x)",
    "async def f(d):\n    async with s:\n        import pandas as pd\n"
    "    async for i in r:\n        def g(e):\n            return e\n    else:\n"
    "        from numpy import sum\n    return d\n"
    "h = lambda: [i for i in x if i]\ny = f(x) if c else {k: v for k, v in z}",
]
if sys.version_info >= (3, 11):
    NESTED_SOURCES.append(
        "try:\n    import pandas as pd\nexcept* ValueError:\n    def f(d):\n"
        "        return d.head()\nelse:\n    if c:\n        def f(d):\n"
        "            return d.tail()\nfinally:\n    from numpy import sum")


def _prescan_nodes(nodes):
    return [n for n in nodes
            if isinstance(n, (ast.FunctionDef, ast.Import, ast.ImportFrom))]


def test_statement_walk_meets_definitions_and_imports_in_ast_walk_order():
    """``_statements`` meets the definitions and imports ``ast.walk`` meets,
    in its order, except those inside a function or class body."""
    sources = list(NESTED_SOURCES)
    for _name, data in corpus_cases():
        sources += ["".join(c["source"]) for c in json.loads(data)["cells"]
                    if c["cell_type"] == "code"]
    met = 0
    for src in sources:
        tree = ast.parse(src)
        scoped = {id(n) for s in ast.walk(tree) if isinstance(s, _SCOPES)
                  for n in ast.walk(s) if n is not s}
        expected = [n for n in _prescan_nodes(ast.walk(tree))
                    if id(n) not in scoped]
        assert _prescan_nodes(_statements(tree)) == expected, src
        met += len(expected)
    assert met > 60


@pytest.mark.parametrize("else_arm, inlined", [
    # One level deeper than the handler's definition: breadth-first order
    # meets the handler first, so the else arm's definition is the last.
    ("    if ok:\n        def f(d):\n            return d.dropna()\n", "dropna"),
    # On the handler's level: met before the handler's body, so the
    # handler's definition is the last.
    ("    def f(d):\n        return d.dropna()\n", "head"),
], ids=["else-arm-nested", "else-arm-direct"])
def test_load_keeps_the_last_definition_in_breadth_first_order(else_arm, inlined):
    nb = load_notebook(notebook_bytes([
        "try:\n    import pandas as pd\nexcept ImportError:\n"
        "    def f(d):\n        return d.head()\nelse:\n" + else_arm,
        "y = f(x)",
    ]))
    assert nb.cells[1].statements == (Apply("y", inlined, "x"),)


SHADOW_PREFIX = [
    "import pandas as pd\nfrom sklearn.model_selection import train_test_split\n"
    "from sklearn.preprocessing import StandardScaler\ndf = pd.read_csv('a.csv')",
    "def prep(d):\n    return StandardScaler().fit_transform(d)",
]
SPLIT_FIT_PREDICT = "tr, te = train_test_split(z)\nm.fit(tr)\nm.predict(te)"
SPLIT_ALIAS = "from sklearn.model_selection import train_test_split as split"
SHUFFLE_ROWS = "def shuffle_rows(d):\n    from random import shuffle as split\n    return d"
ALIASED_SPLIT_FIT_PREDICT = "tr, te = split(z)\nm.fit(tr)\nm.predict(te)"


@pytest.mark.parametrize("cells", [
    ["def report(d):\n    def prep(e):\n        return e\n    return prep(d)",
     "z = prep(df)\n" + SPLIT_FIT_PREDICT],
    ["class Report:\n    def prep(self, e):\n        return e",
     "z = prep(df)\n" + SPLIT_FIT_PREDICT],
    ["def report(d):\n    def prep(e):\n        return e\n    return prep(d)\n"
     "r = report(df)\nz = prep(df)\n" + SPLIT_FIT_PREDICT],
    [SPLIT_ALIAS, SHUFFLE_ROWS, "z = prep(df)\n" + ALIASED_SPLIT_FIT_PREDICT],
    [SPLIT_ALIAS, "class Shuffler:\n    from random import shuffle as split",
     "z = prep(df)\n" + ALIASED_SPLIT_FIT_PREDICT],
    [SPLIT_ALIAS, SHUFFLE_ROWS,
     "r = shuffle_rows(df)\nz = prep(df)\n" + ALIASED_SPLIT_FIT_PREDICT],
], ids=["function-body", "class-body", "same-cell-after-a-call",
        "import-in-function-body", "import-in-class-body", "import-after-a-call"])
def test_nested_definition_does_not_shadow_a_module_function(cells):
    """A ``prep`` defined, or a ``split`` imported, in a function or class
    body is local to it: later cells, and the rest of its own cell after a
    call, still call the module-level scaler ``prep`` and splitter
    ``split``."""
    nb = load_notebook(notebook_bytes(SHADOW_PREFIX + cells))
    assert Apply("z", "normalize", "df") in nb.cells[-1].statements
    assert [r.finding.key for r in analyze_notebook(nb).findings] == [
        ("taint", "tr", "te")]


def test_load_visits_no_expression_node(monkeypatch):
    """The definition and import prescan walks statements only: a cell
    holding a 5,000-element list literal costs no generic tree walk."""
    calls = []
    for name in ("walk", "iter_child_nodes"):
        real = getattr(ast, name)
        monkeypatch.setattr(
            ast, name, lambda *a, real=real, **k: calls.append(1) or real(*a, **k))
    nb = load_notebook(notebook_bytes([
        "import pandas as pd",
        "xs = [" + ", ".join(["0"] * 5000) + "]\ndf = pd.read_csv('a.csv')",
    ]))
    assert nb.cells[1].statements == (Read("df", "a.csv"),)
    assert calls == []


def test_cell_too_deep_to_parse_is_a_syntax_error():
    nb = load_notebook(notebook_bytes([
        "import pandas as pd\ndf = pd.read_csv('a.csv')",
        "x = " + "-" * 5000 + "1",
        "y = df.dropna()",
    ]))
    assert nb.cells[1].statements == ()
    assert nb.cells[1].warnings == ("syntax error: nested too deeply to parse",)
    assert nb.cells[2].statements == (Apply("y", "dropna", "df"),)


def test_cell_too_deep_to_translate_names_the_cell():
    with pytest.raises(NotebookError, match=r"^cell 2: expression nested too deeply"):
        load_notebook(notebook_bytes([
            "import pandas as pd\ndf = pd.read_csv('a.csv')",
            "x = df" + " + 0" * 1000,
        ]))


def test_never_defined_function_is_unknown():
    cell = translate_cell("y = impute(x)")
    assert cell.statements == (Apply("y", "unknown", "x"),)
    assert any("unknown function" in w for w in cell.warnings)


def test_recursive_function_degrades_with_warning():
    nb = load_notebook(notebook_bytes([
        "def rec(d):\n    return rec(d.dropna())",
        "y = rec(x)",
    ]))
    assert any("recursive function 'rec'" in w for w in nb.cells[1].warnings)
    assert any(isinstance(s, Apply) and s.fn == "unknown"
               for s in nb.cells[1].statements)


@pytest.mark.parametrize("defs, entry, calls, stopped", [
    ("def f(d):\n    return f(d.dropna())", "f", 1, "f"),
    ("def f(d):\n    return g(d.dropna())\ndef g(d):\n    return f(d.dropna())",
     "f", 2, "f"),
    ("".join(f"def f{i}(d):\n    return f{i + 1}(d.dropna())\n" for i in range(12)),
     "f0", 8, "f8"),
])
def test_inlining_stops_at_recursion_or_depth(defs, entry, calls, stopped):
    nb = load_notebook(notebook_bytes([
        defs, f'import pandas as pd\nx = pd.read_csv("a.csv")\ny = {entry}(x)']))
    temps = ["x"] + [f"_t{i}" for i in range(2, calls + 2)]
    assert nb.cells[1].statements == (
        Read("x", "a.csv"),
        *(Apply(t, "dropna", s) for s, t in zip(temps, temps[1:])),
        Apply("y", "unknown", temps[-1]),
    )
    if calls == 8:
        # A chain of distinct functions stops at the depth limit, not a recursion.
        assert nb.cells[1].warnings == (
            f"function {stopped!r} called past the inlining depth limit of 8"
            " treated as unknown",)
    else:
        assert nb.cells[1].warnings == (
            f"recursive function {stopped!r} treated as unknown",)


def test_inlining_depth_limit_has_its_own_warning():
    """``f1`` -> ... -> ``f9`` recurses nowhere: the call of ``f9``, the
    ninth nested one, is past the depth limit, and the warning names it."""
    defs = "".join(f"def f{i}(d):\n    return f{i + 1}(d.dropna())\n" for i in range(1, 9))
    nb = load_notebook(notebook_bytes([
        defs + "def f9(d):\n    return d.dropna()",
        'import pandas as pd\nx = pd.read_csv("a.csv")\ny = f1(x)']))
    assert nb.cells[1].warnings == (
        "function 'f9' called past the inlining depth limit of 8 treated as unknown",)
    assert nb.cells[1].statements[-1] == Apply("y", "unknown", "_t9")


def test_true_recursion_keeps_the_recursion_warning():
    """A function that calls itself through another stops at its second
    entry, well inside the depth limit, with the recursion warning."""
    nb = load_notebook(notebook_bytes([
        "def f(d):\n    return g(d.dropna())\ndef g(d):\n    return h(d.dropna())\n"
        "def h(d):\n    return g(d.dropna())",
        'import pandas as pd\nx = pd.read_csv("a.csv")\ny = f(x)']))
    assert nb.cells[1].warnings == ("recursive function 'g' treated as unknown",)
    assert nb.cells[1].statements[-1] == Apply("y", "unknown", "_t4")


def test_chained_assignment_binds_every_name():
    """``x = z = value`` rebinds ``x`` as ``x = value`` would, so the test
    slice read through ``x`` overlaps the training slice; ``z`` is the same
    value."""
    def cell(assign):
        return ('import pandas as pd\nfrom sklearn.linear_model import LogisticRegression\n'
                'm = LogisticRegression()\ndf = pd.read_csv("f.csv")\nx = df.iloc[0:3]\n'
                f"{assign}\nm.fit(df.iloc[10:20])\nm.predict(x)")

    chained = load_notebook(notebook_bytes([cell("x = z = df.iloc[10:20]")]))
    plain = load_notebook(notebook_bytes([cell("x = df.iloc[10:20]")]))
    assert chained.cells[0].statements == plain.cells[0].statements
    assert chained.cells[0].warnings == ()
    assert [r.finding.key for r in analyze_notebook(chained).findings] == [
        ("overlap", "_t4", "x'")]
    via_z = cell("x = z = df.iloc[10:20]").replace("m.predict(x)", "m.predict(z)")
    assert load_notebook(notebook_bytes([via_z])).cells[0].statements == \
        plain.cells[0].statements


def test_multi_statement_function_body_inlines():
    nb = load_notebook(notebook_bytes([
        "def prep(d):\n    t = d.dropna()\n    return t.head()",
        "y = prep(x)",
    ]))
    assert [type(s).__name__ for s in nb.cells[1].statements] == ["Apply", "Apply"]
    assert nb.cells[1].statements[-1].target == "y"


# -- knowledge base -------------------------------------------------------------------

def test_translated_cells_respect_ssa_and_precondition_subset():
    from dlcheck.lang import stmt_target

    def check_ssa(stmts, taken, in_loop=False):
        for s in stmts:
            if isinstance(s, Branch):
                for arm in s.arms:
                    check_ssa(arm, taken, in_loop)
            elif isinstance(s, Loop):
                check_ssa(s.body, set(), in_loop=True)
            else:
                t = stmt_target(s)
                if t is not None and not in_loop:
                    assert t not in taken, f"target {t} reassigned"
                    taken.add(t)

    for name, data in corpus_cases():
        nb = load_notebook(data)
        for c in nb.cells:
            check_ssa(c.statements, set())
            names = set(re.findall(r"[A-Za-z_]\w*", c.source))
            assert set(c.precondition) <= names, (name, c.id)


def test_unbound_model_receivers_are_not_frames():
    cell = translate_cell("X2 = scaler.transform(X)")
    assert cell.statements[0].source == "X"
    assert cell.precondition == frozenset({"X"})


def test_kb_lookup_order():
    kb = default_kb()
    assert kb.lookup("pandas", "read_csv") == ("source", "pandas")
    assert kb.lookup("df", "iloc") == ("select", "df")
    assert kb.lookup(None, "fit") == ("train", "*")
    assert kb.lookup(None, "no_such_fn") == ("unknown", None)


def test_kb_loads_from_custom_path(tmp_path):
    path = tmp_path / "kb.json"
    path.write_text(json.dumps({"entries": [
        {"namespace": "*", "function": "mynorm", "class": "normalize"},
    ]}))
    kb = KnowledgeBase.load(path)
    assert kb.lookup(None, "mynorm") == ("normalize", "*")
    cell = translate_cell("y = mynorm(x)", kb=kb)
    assert cell.statements == (Apply("y", "normalize", "x"),)


@pytest.mark.parametrize("imports, split", [
    ("from sklearn.model_selection import train_test_split", "train_test_split"),
    ("import sklearn.model_selection as ms", "ms.train_test_split"),
], ids=["from-import", "module-alias"])
def test_split_is_looked_up_in_its_module_namespace(imports, split):
    """A knowledge base that lists the splitter under its module only still
    splits a tuple assignment: a split's callee resolves as a call's does."""
    entries = dict(default_kb().entries)
    del entries[("*", "train_test_split")]
    nb = load_notebook(notebook_bytes([
        "import pandas as pd\n" + imports + "\ndf = pd.read_csv('a.csv')",
        f"z = StandardScaler().fit_transform(df)\ntr, te = {split}(z)\n"
        "m.fit(tr)\nm.predict(te)",
    ]), KnowledgeBase(entries))
    assert nb.cells[1].warnings == ()
    assert [r.finding.key for r in analyze_notebook(nb).findings] == [
        ("taint", "tr", "te")]


@pytest.mark.parametrize("name", ["_ts", "_train", "xs"])
def test_every_user_frame_variable_is_exported(name):
    """Cell 3 reads the last binding of cell 2's variable, whatever its
    name starts with; the first binding does not overlap the test rows."""
    nb = load_notebook(notebook_bytes([
        'df = pd.read_csv("f.csv")',
        f"{name} = df.iloc[0:10]\n{name} = df.iloc[50:60]",
        f"m.fit({name})\nm.predict(df.iloc[55:58])",
    ]))
    assert dict(nb.cells[1].exports)[name] == name + "'"
    assert [r.finding.key for r in analyze_notebook(nb).findings] == [
        ("overlap", name, "_t0")]


def test_a_later_assignment_keeps_a_user_frame_named_like_a_temporary():
    """A user variable may be named like a translator temporary: the next
    assignment in its cell leaves ``_t1`` among the cell's frames, so the
    fit on it is kept and the overlap is found."""
    nb = load_notebook(notebook_bytes([
        'df = pd.read_csv("f.csv")',
        "_t1 = df.iloc[0:10]\nx = df.dropna()\nm.fit(_t1)\nm.predict(df.iloc[5:8])",
    ]))
    assert nb.cells[1].warnings == ()
    assert ("_t1", "_t1") in nb.cells[1].exports
    assert [r.finding.key for r in analyze_notebook(nb).findings] == [
        ("overlap", "_t1", "_t2")]


def test_kb_rejects_unknown_class(tmp_path):
    path = tmp_path / "kb.json"
    path.write_text(json.dumps({"entries": [
        {"namespace": "*", "function": "f", "class": "bogus"},
    ]}))
    with pytest.raises(NotebookError):
        KnowledgeBase.load(path)


@pytest.mark.parametrize("doc, message", [
    ({}, "'entries' is missing or not a list"),
    ({"entries": 5}, "'entries' is missing or not a list"),
    ([], "'entries' is missing or not a list"),
    ({"entries": [5]}, "entries[0] is not an object"),
    ({"entries": [{"namespace": "*", "function": "f", "class": "source"},
                  {"namespace": "pandas", "function": "read_csv"}]},
     "entries[1]: 'class' is missing or not a string"),
    ({"entries": [{"namespace": "*", "function": 3, "class": "source"}]},
     "entries[0]: 'function' is missing or not a string"),
    ({"entries": [{"namespace": "*", "function": "f", "class": "bogus"}]},
     "entries[0]: unknown class 'bogus'"),
])
def test_kb_rejects_malformed_entries(tmp_path, doc, message):
    path = tmp_path / "kb.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(NotebookError) as e:
        KnowledgeBase.load(path)
    assert message in str(e.value)
