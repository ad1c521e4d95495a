"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Frozen expected values come from independent hand
derivations (enumeration, arithmetic on the published examples); rows are
0-indexed throughout.
"""

import itertools
import json
import random
import time
from fractions import Fraction

from conftest import CORPUS_DIR

from dlcheck.corpus import notebook_bytes, synthetic_notebook
from dlcheck.domains import (
    AbsDataFrame,
    col_join,
    col_leq,
    col_meet,
    df_constrain,
    df_join,
    df_leq,
    df_meet,
    df_overlap,
    frame,
    is_canonical,
    row_contains,
    row_index,
    row_join,
    row_leq,
    row_meet,
    row_unindex,
    rows,
    set_join,
    set_leq,
    set_reduce,
    SourceAbs,
    src_join,
    src_leq,
)
from dlcheck.engine import PropagationConfig, analyze_notebook
from dlcheck.fuzz import broken_normalize_transfer, fuzz_soundness
from dlcheck.interp import BOT_STATE, transfer
from dlcheck.lang import (
    Apply,
    INF,
    Merge,
    RowExpr,
    RowInterval,
    Select,
    parse_program,
)
from dlcheck.notebook import load_notebook
from dlcheck.oracle import (
    ConcreteFrame,
    alpha_dependencies,
    alpha_pointwise,
    concrete_run,
    deps_equal,
    enumerate_independence,
)
from dlcheck.report import analyze_path, bench_notebook, score_corpus

NORMALIZE_FIRST = """data = read("data.csv")
n = normalize(data)
tr = n.select[[0 .. 1]][]
te = n.select[[2 .. 3]][]
train(tr)
test(te)
"""

SPLIT_FIRST = """data = read("data.csv")
a = data.select[[0 .. 1]][]
b = data.select[[2 .. 3]][]
tr = normalize(a)
te = normalize(b)
train(tr)
test(te)
"""

MOTIVATING = """data = read("data.csv")
X = data.select[][{"X_1", "X_2", "y"}]
X_norm = normalize(X)
X_train = X_norm.select[[s + 1 .. R]][]
X_test = X_norm.select[[0 .. s]][]
train(X_train)
test(X_test)
"""

FIG4_CELLS = [
    'df = pd.read_csv("heart.csv")',
    "y = df[['target']]\nX = df.drop('target', axis=1)\n\n"
    "X_train = X.iloc[:split+1] \nX_test = X.iloc[split:end]\n\n"
    "y_train = y.iloc[:split+1]\ny_test = y.iloc[split:end]\n",
    "lr_clf = LogisticRegression(solver='liblinear')\n"
    "train1 = lr_clf.fit(X_train, y_train)",
    "train_score = accuracy_score(y_test, lr_clf.predict(X_test))",
]


def _report(n, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def _table(ts, var):
    """Outputs as a rows x 16 integer matrix, columns ordered by the
    published enumeration (last row outermost, then rows 1..3)."""
    cols = []
    for t0, t1, t2, t3 in itertools.product([3, 9], repeat=4):
        inp = (t1, t2, t3, t0)
        key = (("data.csv", tuple((Fraction(v),) for v in inp)),)
        out = ts.entries[key][var]
        cols.append([out[r][0] for r in range(len(out))])
    return [[c[r] for c in cols] for r in range(len(cols[0]))]


def test_criterion_1_enumeration_tables():
    t0 = time.perf_counter()
    leaky = parse_program(NORMALIZE_FIRST)
    clean = parse_program(SPLIT_FIRST)
    shapes = {"data.csv": (4, 1)}
    ts1, ind1, wit1 = enumerate_independence(leaky, {3, 9}, shapes)
    ts2, ind2, wit2 = enumerate_independence(clean, {3, 9}, shapes)

    exp_train_first = [[0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 0],
                       [0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 0]]
    exp_test_first = [[0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0],
                      [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 0]]
    exp_train_second = [[0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0],
                        [0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0]]
    exp_test_second = [[0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
                       [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0]]

    ok = (
        _table(ts1, "tr") == exp_train_first
        and _table(ts1, "te") == exp_test_first
        and _table(ts2, "tr") == exp_train_second
        and _table(ts2, "te") == exp_test_second
        and ind1 is False and ind2 is True
    )
    # the published witness: input 3|9|9|9, first row flipped
    witness_key = (("data.csv", ((Fraction(3),), (Fraction(9),),
                                 (Fraction(9),), (Fraction(9),))),)
    ok = ok and (witness_key, "data.csv", 0) in wit1 and not wit2
    dt = time.perf_counter() - t0
    _report(1, ok and dt < 1.0,
            f"both 16-column tables bit-exact, ind={ind1}/{ind2}, {dt:.2f}s")


def test_criterion_2_dependency_maps():
    t0 = time.perf_counter()
    inputs = {"data.csv": ConcreteFrame.of([3, 9, 9, 3])}
    split_first = parse_program(SPLIT_FIRST)
    norm_first = parse_program(NORMALIZE_FIRST)

    first_half = frozenset({("data.csv", 0), ("data.csv", 1)})
    second_half = frozenset({("data.csv", 2), ("data.csv", 3)})
    everything = first_half | second_half
    expected_disjoint = {"tr": {0: first_half, 1: first_half},
                         "te": {0: second_half, 1: second_half}}
    expected_coupled = {"tr": {0: everything, 1: everything},
                        "te": {0: everything, 1: everything}}

    direct1 = concrete_run(split_first, inputs)
    direct2 = concrete_run(norm_first, inputs)
    ok = deps_equal(direct1, expected_disjoint, ["tr", "te"])
    ok = ok and deps_equal(direct2, expected_coupled, ["tr", "te"])

    shapes = {"data.csv": (4, 1)}
    for program, expected in ((split_first, expected_disjoint),
                              (norm_first, expected_coupled)):
        ts, _, _ = enumerate_independence(program, {3, 9}, shapes)
        via_alpha = alpha_pointwise(alpha_dependencies(ts))
        ok = ok and deps_equal(via_alpha, expected, ["tr", "te"])
    dt = time.perf_counter() - t0
    _report(2, ok and dt < 1.0,
            f"both maps equal via constructive and trace routes, {dt:.2f}s")


def test_criterion_3_domain_goldens():
    ok = row_index(rows(10, 14)) == rows(0, 4)
    ok = ok and row_unindex(rows(10, 14), rows(1, 3)) == rows(11, 13)

    a = frame("file", {"id", "city"}, 10, 14)
    b = frame("file", {"country"}, 12, 15)
    c = frame("file", {"id"}, 12, 15)
    ok = ok and df_overlap(a, b) is False and df_overlap(a, c) is True
    joined = df_join(a, b)
    ok = ok and joined == frame("file", {"id", "city", "country"}, 10, 15)
    ok = ok and df_meet(a, c) == frame("file", {"id"}, 12, 14)
    ok = ok and df_constrain(joined, frozenset({"city"}), rows(1, 2)) == \
        frame("file", {"city"}, 11, 12)

    reduced = set_reduce({
        frame("file1", {"id"}, 1, 10), frame("file1", {"id"}, 9, 12),
        frame("file2", {"name"}, 0, 100), frame("file3", {"zip"}, 0, 100)})
    ok = ok and reduced == frozenset({
        frame("file1", {"id"}, 1, 12), frame("file2", {"name"}, 0, 100),
        frame("file3", {"zip"}, 0, 100)})
    _report(3, ok, "index/unindex, overlap/join/meet/constrain, reduce goldens")


def test_criterion_4_worked_example_states(tmp_path):
    path = tmp_path / "motivating.dfl"
    path.write_text(MOTIVATING)
    report = analyze_path(path, dump_state=True)

    top_frame = {"file": "data.csv", "cols": "top", "rows": ["0", "inf"]}
    proj = {"file": "data.csv", "cols": ["X_1", "X_2", "y"], "rows": ["0", "inf"]}
    expected_bindings = [
        ("data", {"sources": [top_frame], "tainted": False}),
        ("X", {"sources": [proj], "tainted": False}),
        ("X_norm", {"sources": [proj], "tainted": True}),
        ("X_train", {"sources": [proj], "tainted": True}),
        ("X_test", {"sources": [proj], "tainted": True}),
    ]
    ok = len(report.states) == 7
    env = {}
    for i, (var, val) in enumerate(expected_bindings):
        env[var] = val
        ok = ok and report.states[i]["env"] == env
    ok = ok and [(f["kind"], f["train_var"], f["test_var"])
                 for f in report.findings] == [("taint", "X_train", "X_test")]
    _report(4, ok, "states m1..m5 match and exactly one taint finding")


def test_criterion_5_overlap_notebook():
    nb = load_notebook(notebook_bytes(FIG4_CELLS))
    res = analyze_notebook(nb, PropagationConfig(k_bound=5))
    ok = len(res.findings) == 1
    rec = res.findings[0]
    ok = ok and rec.finding.kind == "overlap"
    ok = ok and (rec.finding.train_var, rec.finding.test_var) == ("X_train", "X_test")
    ok = ok and rec.path_length == 4
    # the shared row sits at the split symbol
    ok = ok and "split" in rec.finding.witness
    _report(5, ok, f"one overlap finding, path length {rec.path_length}, "
                   f"witness {rec.finding.witness!r}")


def test_criterion_6_soundness_fuzz():
    t0 = time.perf_counter()
    report = fuzz_soundness(budget=1000, seed=1)
    mutated = fuzz_soundness(budget=1000, seed=1,
                             transfer_fn=broken_normalize_transfer)
    dt = time.perf_counter() - t0
    ok = report.programs == 1000 and not report.violations
    ok = ok and len(mutated.violations) >= 1
    ok = ok and dt < 60.0
    _report(6, ok, f"1000 programs, 0 violations; mutated normalize caught "
                   f"{len(mutated.violations)} times; {dt:.1f}s")


def _random_expr(rng):
    if rng.random() < 0.5:
        return RowExpr.const(rng.randrange(12))
    return RowExpr.symbol(rng.choice("st"), rng.randrange(7))


def _random_interval(rng):
    from dlcheck.lang import expr_le
    lo, hi = _random_expr(rng), _random_expr(rng)
    if rng.random() < 0.15:
        hi = INF
    if expr_le(lo, hi) is False:
        lo, hi = hi, lo
    return rows(lo, hi)


def _random_cols(rng):
    if rng.random() < 0.3:
        return None
    return frozenset(rng.sample(["a", "b", "c"], rng.randint(1, 3)))


def _random_frame(rng):
    return AbsDataFrame(rng.choice("fg"), _random_cols(rng), _random_interval(rng))


def _random_set(rng):
    return set_reduce([_random_frame(rng) for _ in range(rng.randint(0, 3))])


def _random_source(rng):
    return SourceAbs(_random_set(rng), rng.random() < 0.5)


def test_criterion_7_lattice_property_suite():
    rng = random.Random(20240817)
    cases = 0
    t0 = time.perf_counter()

    for _ in range(6000):  # column lattice laws
        a, b, c = (_random_cols(rng) for _ in range(3))
        assert col_join(a, b) == col_join(b, a); cases += 1
        assert col_meet(a, b) == col_meet(b, a); cases += 1
        assert col_join(a, col_join(b, c)) == col_join(col_join(a, b), c); cases += 1
        assert col_join(a, a) == a and col_meet(a, a) == a; cases += 1
        assert col_join(a, col_meet(a, b)) == a; cases += 1
        assert col_leq(a, col_join(a, b)) and col_leq(col_meet(a, b), a); cases += 1

    for _ in range(6000):  # row interval laws (joins definite, meets sound)
        a, b = _random_interval(rng), _random_interval(rng)
        j = row_join(a, b)
        assert row_join(a, b) == row_join(b, a); cases += 1
        assert row_leq(a, j) and row_leq(b, j); cases += 1
        assert row_join(a, a) == a; cases += 1
        m = row_meet(a, b)
        assert m == row_meet(b, a); cases += 1
        for n in (0, 1, 5, 11):
            if row_contains(a, n) and row_contains(b, n):
                assert row_contains(m, n)
        cases += 1
        assert row_leq(row_meet(a, a), a); cases += 1

    for _ in range(5000):  # frame layer
        a, b = _random_frame(rng), _random_frame(rng)
        assert df_overlap(a, b) == df_overlap(b, a); cases += 1
        assert df_overlap(a, a); cases += 1
        assert df_leq(a, a); cases += 1
        if a.file == b.file:
            j = df_join(a, b)
            assert df_leq(a, j) and df_leq(b, j); cases += 1

    for _ in range(3000):  # canonical sets
        s1, s2 = _random_set(rng), _random_set(rng)
        j = set_join(s1, s2)
        assert j == set_join(s2, s1); cases += 1
        assert set_leq(s1, j) and set_leq(s2, j); cases += 1
        assert is_canonical(j); cases += 1
        assert set_join(s1, s1) == s1; cases += 1

    for _ in range(3000):  # taint-paired sources
        x, y = _random_source(rng), _random_source(rng)
        j = src_join(x, y)
        assert src_leq(x, j) and src_leq(y, j); cases += 1
        assert src_join(x, x) == x; cases += 1
        assert j.tainted == (x.tainted or y.tainted); cases += 1

    # transfer monotonicity in the regime the engine relies on: the wider
    # state narrows nowhere (no aligned variables)
    stmts = [
        Apply("y", "normalize", "x"),
        Apply("y", "clean", "x"),
        Select("y", "x", rows=RowInterval(RowExpr.const(0), RowExpr.const(3))),
        Select("y", "x", cols=frozenset({"a"})),
        Merge("y", "concat", ("x", "x")),
    ]
    for _ in range(4000):
        wide_val = _random_source(rng)
        narrow_val = SourceAbs(_random_set(rng), wide_val.tainted and rng.random() < 0.9)
        if not src_leq(narrow_val, wide_val):
            narrow_val = wide_val
        narrow = BOT_STATE.bind("x", SourceAbs(
            narrow_val.frames, narrow_val.tainted, rng.random() < 0.5))
        wide = BOT_STATE.bind("x", wide_val)
        s = rng.choice(stmts)
        assert src_leq(transfer(s, narrow).env["y"], transfer(s, wide).env["y"])
        cases += 1

    dt = time.perf_counter() - t0
    ok = cases >= 100_000
    _report(7, ok, f"{cases} randomized lattice/monotonicity cases, 0 failures, {dt:.1f}s")


def test_criterion_8_latency():
    data = synthetic_notebook(50, seed=0)
    res = bench_notebook(data, runs=10, cfg=PropagationConfig(k_bound=5))
    ok = res.median_ms < 1000.0 and res.events > 0
    _report(8, ok, f"50-cell notebook, K=5: median {res.median_ms:.1f}ms, "
                   f"max {res.max_ms:.1f}ms per event over {res.events} events")


def test_criterion_9_corpus_score():
    labels = CORPUS_DIR / "labels.json"
    summary = score_corpus(CORPUS_DIR, labels)
    kinds = {"taint": 0, "overlap": 0}
    with open(labels, encoding="utf-8") as fh:
        for entry in json.load(fh):
            for e in entry["expected"]:
                kinds[e["kind"]] += 1
    ok = summary.precision == 1.0 and summary.recall == 1.0
    ok = ok and kinds["taint"] >= 5 and kinds["overlap"] >= 5
    ok = ok and len(summary.rows) == 20
    _report(9, ok, f"20 notebooks ({kinds['taint']} taint / {kinds['overlap']} "
                   f"overlap labels): precision={summary.precision:.2f} "
                   f"recall={summary.recall:.2f}")
