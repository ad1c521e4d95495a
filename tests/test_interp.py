import random
from dataclasses import replace
from itertools import permutations

import pytest

from dlcheck.domains import (
    SourceAbs,
    TOP_ROWS,
    frame,
    is_canonical,
    rows,
    set_constrain,
    set_join,
    set_leq,
    set_reduce,
    source_covers,
    src_join,
    src_leq,
)
from dlcheck.interp import (
    AnalysisError,
    BOT_STATE,
    AbstractState,
    _selector_window,
    _widen_value,
    check_leakage,
    run_program,
    state_join,
    state_leq,
    transfer,
    widen_state,
)
from dlcheck.lang import (
    Apply,
    Branch,
    Loop,
    Merge,
    Phi,
    Read,
    RowExpr,
    RowInterval,
    RowList,
    Select,
    Use,
    parse_program,
)

MOTIVATING = """
data = read("data.csv")
X = data.select[][{"X_1", "X_2", "y"}]
X_norm = normalize(X)
X_train = X_norm.select[[s + 1 .. R]][]
X_test = X_norm.select[[0 .. s]][]
train(X_train)
test(X_test)
"""


def _state(**env):
    st = BOT_STATE
    for var, val in env.items():
        st = st.bind(var, val)
    return st


def test_transfer_read():
    st = transfer(Read("data", "data.csv"), BOT_STATE)
    assert st.env["data"] == SourceAbs(frozenset({frame("data.csv")}), False, True)


def test_transfer_normalize_taints():
    st = transfer(Read("X", "data.csv"), BOT_STATE)
    st = transfer(Select("X2", "X", cols=frozenset({"X_1", "X_2", "y"})), st)
    st = transfer(Apply("X_norm", "normalize", "X2"), st)
    val = st.env["X_norm"]
    assert val.tainted
    assert val.frames == frozenset({frame("data.csv", {"X_1", "X_2", "y"})})


def test_tainted_select_does_not_narrow():
    st = transfer(Read("X", "f"), BOT_STATE)
    st = transfer(Apply("N", "normalize", "X"), st)
    st = transfer(Select("T", "N", rows=RowInterval(RowExpr.const(0), RowExpr.const(1))), st)
    assert st.env["T"] == st.env["N"]


def test_untainted_select_narrows():
    st = transfer(Read("X", "f"), BOT_STATE)
    st = transfer(Select("T", "X", rows=RowInterval(RowExpr.const(2), RowExpr.const(5))), st)
    assert st.env["T"].frames == frozenset({frame("f", None, 2, 5)})
    # a second, relative selection composes positionally
    st = transfer(Select("U", "T", rows=RowList((RowExpr.const(0), RowExpr.const(1)))), st)
    assert st.env["U"].frames == frozenset({frame("f", None, 2, 3)})


def test_select_after_merge_keeps_rows():
    """Positions after a merge no longer track file rows, so narrowing by
    position would drop real dependencies."""
    st = transfer(Read("a", "f"), BOT_STATE)
    st = transfer(Read("b", "f"), st)
    st = transfer(Merge("c", "concat", ("a", "b")), st)
    st = transfer(Select("d", "c", rows=RowInterval(RowExpr.const(5), RowExpr.const(6))), st)
    assert st.env["d"].frames == st.env["c"].frames


def test_gapped_list_select_breaks_alignment():
    st = transfer(Read("x", "f"), BOT_STATE)
    st = transfer(Select("y", "x", rows=RowList((RowExpr.const(0), RowExpr.const(2)))), st)
    assert st.env["y"].frames == frozenset({frame("f", None, 0, 2)})
    assert not st.env["y"].aligned
    st = transfer(Select("z", "y", rows=RowList((RowExpr.const(1),))), st)
    assert st.env["z"].frames == frozenset({frame("f", None, 0, 2)})


def test_empty_list_select_on_an_aligned_source_binds_no_frame():
    st = transfer(Read("x", "f"), BOT_STATE)
    st = transfer(Select("y", "x", rows=RowList(())), st)
    assert st.env["y"] == SourceAbs(frozenset(), False, True)


def test_empty_list_select_on_an_unaligned_source_keeps_its_frames():
    """Positions of an unaligned value do not track its frames, so only the
    columns are constrained, as for any other row selector."""
    st = transfer(Read("x", "f"), BOT_STATE)
    st = transfer(Select("y", "x", rows=RowList((RowExpr.const(0), RowExpr.const(2)))), st)
    st = transfer(Select("z", "y", rows=RowList(()), cols=frozenset({"a"})), st)
    assert st.env["z"] == SourceAbs(frozenset({frame("f", {"a"}, 0, 2)}), False, False)


def test_merge_joins_sources_and_taint():
    st = transfer(Read("a", "f"), BOT_STATE)
    st = transfer(Read("b", "g"), st)
    st = transfer(Apply("bn", "normalize", "b"), st)
    st = transfer(Merge("m", "join", ("a", "bn")), st)
    assert st.env["m"].tainted
    assert st.env["m"].frames == frozenset({frame("f"), frame("g")})


def test_use_records_sites_and_env_unchanged():
    st = transfer(Read("a", "f"), BOT_STATE)
    st2 = transfer(Use("train", ("a",), site="line 2"), st)
    assert st2.env == st.env
    assert st2.train_uses == (("a", "line 2"),)


def test_unbound_variable_reported():
    with pytest.raises(AnalysisError) as e:
        transfer(Apply("y", "normalize", "ghost", site="line 7"), BOT_STATE)
    assert "ghost" in str(e.value) and "line 7" in str(e.value)


# -- whole-program analysis -----------------------------------------------------

def _findings(text):
    warnings = []
    _, findings, halted = run_program(parse_program(text).statements,
                                      warnings=warnings)
    assert warnings == [] and not halted
    return findings


def test_worked_example_states_and_finding():
    states = []

    def recorded(s, m):
        m = transfer(s, m)
        states.append(m)
        return m

    warnings = []
    _, findings, _ = run_program(parse_program(MOTIVATING).statements,
                                 warnings=warnings, transfer_fn=recorded)
    assert warnings == []
    m1, m2, m3, m4, m5 = states[:5]
    full = rows(0, "inf")
    assert m1.env["data"].frames == frozenset({frame("data.csv")})
    assert not m1.env["data"].tainted
    cols = {"X_1", "X_2", "y"}
    assert m2.env["X"].frames == frozenset({frame("data.csv", cols)})
    assert m3.env["X_norm"].tainted
    assert m4.env["X_train"] == m3.env["X_norm"]
    assert m5.env["X_test"] == m3.env["X_norm"]
    assert all(f.rows == full for f in m5.env["X_test"].frames)
    assert [f.key for f in findings] == [("taint", "X_train", "X_test")]


def test_clean_split_then_normalize():
    findings = _findings("""
        data = read("data.csv")
        a = data.select[[0 .. 1]][]
        b = data.select[[2 .. 3]][]
        tr = normalize(a)
        te = normalize(b)
        train(tr)
        test(te)
    """)
    assert findings == []


def test_no_uses_no_findings():
    findings = _findings('x = read("f")\ny = normalize(x)')
    assert findings == []


# the uses the states below record
TR_TE_USES = [Use("train", ("tr",)), Use("test", ("te",))]


def test_check_leakage_symbolic_disjoint():
    s = RowExpr.symbol("s")
    st = _state(
        tr=SourceAbs(frozenset({frame("f", {"c"}, s.shift(1), "inf")}), False),
        te=SourceAbs(frozenset({frame("f", {"c"}, 0, s)}), False),
    ).record_use("train", ("tr",), None).record_use("test", ("te",), None)
    assert check_leakage(st, TR_TE_USES) == []


def test_check_leakage_overlap_at_split_symbol():
    s = RowExpr.symbol("s")
    st = _state(
        tr=SourceAbs(frozenset({frame("f", None, 0, s.shift(1))}), False),
        te=SourceAbs(frozenset({frame("f", None, s, RowExpr.symbol("e"))}), False),
    ).record_use("train", ("tr",), None).record_use("test", ("te",), None)
    found = check_leakage(st, TR_TE_USES)
    assert [f.kind for f in found] == ["overlap"]
    assert found[0].file == "f"


def test_finding_deduplication_per_pair():
    st = _state(
        a=SourceAbs(frozenset({frame("f", None, 0, 5), frame("g", None, 0, 5)}), False),
        b=SourceAbs(frozenset({frame("f", None, 3, 9), frame("g", None, 3, 9)}), False),
    ).record_use("train", ("a",), None).record_use("test", ("b",), None)
    uses = [Use("train", ("a",)), Use("test", ("b",))]
    assert len(check_leakage(st, uses)) == 1


# -- control flow -----------------------------------------------------------------

def test_branch_joins_arms():
    arms = (
        (Select("y", "x", rows=RowInterval(RowExpr.const(0), RowExpr.const(3))),),
        (Select("z", "x", rows=RowInterval(RowExpr.const(6), RowExpr.const(9))),),
    )
    st = transfer(Read("x", "f"), BOT_STATE)
    st = transfer(Branch(arms), st)
    st = transfer(Phi("w", ("y", "z")), st)
    assert st.env["w"].frames == frozenset({frame("f", None, 0, 3), frame("f", None, 6, 9)})


def test_phi_single_bound_source():
    st = transfer(Read("x", "f"), BOT_STATE)
    st = transfer(Phi("w", ("ghost", "x")), st)
    assert st.env["w"] == st.env["x"]
    with pytest.raises(AnalysisError):
        transfer(Phi("w", ("nope",)), BOT_STATE)


def test_loop_accumulates_to_fixpoint():
    # x grows by merging in y each iteration; the loop must reach x >= x0 | y
    body = (Merge("x", "concat", ("x", "y")),)
    st = transfer(Read("x", "f"), BOT_STATE)
    st = transfer(Read("y", "g"), st)
    st = transfer(Select("x", "x", rows=RowInterval(RowExpr.const(0), RowExpr.const(3))), st)
    out = transfer(Loop(body), st)
    assert source_covers(out.env["x"], "g", 100)
    assert source_covers(out.env["x"], "f", 2)


def test_loop_terminates_with_widening():
    # shifting selects produce strictly descending intervals; widening kills
    # the descent and the join keeps the first iterations covered
    body = (Select("x", "x", rows=RowInterval(RowExpr.const(1), RowExpr.const(1_000_000))),)
    st = transfer(Read("x", "f"), BOT_STATE)
    out = transfer(Loop(body), st)
    assert source_covers(out.env["x"], "f", 0)


def test_transfer_monotone_on_env_samples():
    narrow = _state(x=SourceAbs(frozenset({frame("f", {"a"}, 2, 5)}), False))
    wide = _state(x=SourceAbs(frozenset({frame("f", None, 0, "inf")}), True))
    assert state_leq(narrow, wide)
    for stmt in (
        Apply("y", "normalize", "x"),
        Apply("y", "clean", "x"),
        Select("y", "x", rows=RowInterval(RowExpr.const(0), RowExpr.const(1))),
        Merge("y", "concat", ("x", "x")),
    ):
        a = transfer(stmt, narrow)
        b = transfer(stmt, wide)
        assert src_leq(a.env["y"], b.env["y"]), stmt


def test_state_join_keeps_both_sides():
    a = transfer(Read("x", "f"), BOT_STATE)
    b = transfer(Read("y", "g"), BOT_STATE)
    j = state_join(a, b)
    assert set(j.env) == {"x", "y"}
    assert state_leq(a, j) and state_leq(b, j)


# ---------------------------------------------------------------------------
# Alignment rules against a reference that keeps alignment beside the
# environment, as a set of aligned variable names
# ---------------------------------------------------------------------------

def _split(st: AbstractState):
    """A state's env as (unflagged env, aligned names): the reference form."""
    env = {v: replace(a, aligned=False) for v, a in st.env.items()}
    return env, frozenset(v for v, a in st.env.items() if a.aligned)


def _ref_bind(m, var, value, aligned):
    env, al = m
    return {**env, var: value}, (al | {var} if aligned else al - {var})


def _ref_join(a, b):
    (ea, aa), (eb, ab) = a, b
    env, aligned = {}, set()
    for v in list(ea) + [x for x in eb if x not in ea]:
        if v in ea and v in eb:
            env[v] = src_join(ea[v], eb[v])
            if v in aa and v in ab and ea[v] == eb[v]:
                aligned.add(v)
        else:
            env[v] = ea[v] if v in ea else eb[v]
            if v in (aa if v in ea else ab):
                aligned.add(v)
    return env, frozenset(aligned)


def _ref_leq(a, b):
    (ea, aa), (eb, ab) = a, b
    return (all(v in eb and src_leq(x, eb[v]) for v, x in ea.items())
            and ab <= aa | (eb.keys() - ea.keys()))


def _ref_widen(prev, nxt):
    env, aligned = dict(nxt[0]), set(nxt[1])
    for v, x in nxt[0].items():
        if v in prev[0] and not src_leq(x, prev[0][v]):
            env[v] = _widen_value(x)
            aligned.discard(v)
    return env, frozenset(aligned)


def _ref_transfer(s, m):
    env, aligned = m
    if isinstance(s, Phi):
        bound = [v for v in s.sources if v in env]
        value = env[bound[0]]
        for v in bound[1:]:
            value = src_join(value, env[v])
        return _ref_bind(m, s.target, value, all(v in aligned for v in bound)
                         and all(env[v] == env[bound[0]] for v in bound))
    src = env[s.source]
    if isinstance(s, Apply):
        if s.is_normalize:
            return _ref_bind(m, s.target, SourceAbs(src.frames, True), False)
        return _ref_bind(m, s.target, src, s.source in aligned)
    if src.tainted:
        return _ref_bind(m, s.target, src, s.source in aligned)
    window, contiguous = _selector_window(s.rows)
    if s.source in aligned:
        frames = set_constrain(src.frames, s.cols, window)
        return _ref_bind(m, s.target, SourceAbs(frames, False),
                         contiguous and len(frames) <= 1)
    frames = set_constrain(src.frames, s.cols, TOP_ROWS)
    return _ref_bind(m, s.target, SourceAbs(frames, False), False)


ALIGN_VARS = ("a", "b", "c", "d")


def _random_value(rng, pool):
    """A value from a small pool, so that equal values are frequent, with a
    random alignment flag."""
    return replace(rng.choice(pool), aligned=rng.random() < 0.5)


def _random_state(rng, pool):
    st = BOT_STATE
    for v in ALIGN_VARS:
        if rng.random() < 0.75:
            st = st.bind(v, _random_value(rng, pool))
    return st


def _wider(rng, pool, st):
    """A state that often covers ``st``: each value kept, joined with
    another, re-flagged or dropped, and sometimes a new variable."""
    out = BOT_STATE
    for v in ALIGN_VARS:
        x = st.env.get(v)
        r = rng.random()
        if x is None:
            if r < 0.3:
                out = out.bind(v, _random_value(rng, pool))
        elif r < 0.4:
            out = out.bind(v, x)
        elif r < 0.7:
            out = out.bind(v, src_join(x, _random_value(rng, pool)))
        elif r < 0.9:
            out = out.bind(v, replace(x, aligned=not x.aligned))
    return out


def _random_align_stmt(rng, st):
    bound = list(st.env)
    kind = rng.random()
    target = rng.choice(ALIGN_VARS + ("t",))
    if kind < 0.3:
        return Phi(target, tuple(rng.sample(ALIGN_VARS, rng.randint(1, 4))))
    source = rng.choice(bound)
    if kind < 0.5:
        return Apply(target, rng.choice(("normalize", "dropna")), source)
    lo = rng.randint(0, 6)
    selector = rng.choice((
        None,
        RowInterval(RowExpr.const(lo), RowExpr.const(lo + rng.randint(0, 5))),
        RowList((RowExpr.const(lo), RowExpr.const(lo + 1))),
        RowList((RowExpr.const(lo), RowExpr.const(lo + 2))),
    ))
    cols = rng.choice((None, frozenset({"x"}), frozenset({"x", "y"})))
    return Select(target, source, rows=selector, cols=cols)


def test_alignment_rules_match_the_aligned_set_reference():
    """``state_join``, ``state_leq``, ``widen_state`` and the ``Phi``,
    ``Select`` and ``Apply`` transfers treat the alignment flag a value
    carries as the older rules treated a set of aligned names beside the
    environment."""
    rng = random.Random(12)
    pool = [
        SourceAbs(set_reduce([frame(f, cols, lo, lo + n)]), tainted)
        for f, cols, lo, n, tainted in (
            ("f", None, 0, 9, False), ("f", None, 2, 4, False),
            ("f", {"x"}, 0, 3, False), ("g", None, 0, 9, False),
            ("f", None, 0, 9, True), ("g", {"x", "y"}, 5, 2, True),
        )
    ] + [SourceAbs(set_reduce([frame("f", None, 0, 2), frame("f", None, 6, 8)]),
                   False)]
    outcomes = {True: 0, False: 0}
    aligned_results = 0
    for _ in range(2000):
        a = _random_state(rng, pool)
        for b in (_wider(rng, pool, a), _random_state(rng, pool)):
            ra, rb = _split(a), _split(b)
            assert _split(state_join(a, b)) == _ref_join(ra, rb)
            leq = state_leq(a, b)
            assert leq == _ref_leq(ra, rb)
            outcomes[leq] += 1
            assert _split(widen_state(a, b)) == _ref_widen(ra, rb)
            assert _split(widen_state(b, a)) == _ref_widen(rb, ra)
        if not a.env:
            continue
        s = _random_align_stmt(rng, a)
        if isinstance(s, Phi) and not any(v in a.env for v in s.sources):
            continue
        out = _split(transfer(s, a))
        assert out == _ref_transfer(s, ra), s
        aligned_results += s.target in out[1]
    assert min(outcomes.values()) > 300 and aligned_results > 300


@pytest.mark.parametrize("op", ["concat", "join"])
def test_merge_of_many_sources_transfers_as_the_binary_chain(op):
    """Frames, taint and alignment of one n-source merge equal those of the
    binary chain it replaces."""
    rng = random.Random(8)
    pool = [
        SourceAbs(set_reduce([frame(f, cols, lo, lo + n)]), tainted)
        for f, cols, lo, n, tainted in (
            ("f", None, 0, 9, False), ("f", None, 2, 4, False),
            ("f", {"x"}, 0, 3, False), ("g", None, 0, 9, False),
            ("f", None, 0, 9, True), ("f", None, 12, 3, False),
            ("f", {"x", "y"}, 5, 2, False),
        )
    ] + [SourceAbs(set_reduce([frame("f", None, 0, 2), frame("f", None, 6, 8)]),
                   False)]
    for _ in range(500):
        st = _state(**{v: _random_value(rng, pool) for v in ALIGN_VARS})
        sources = tuple(rng.choice(ALIGN_VARS) for _ in range(rng.randint(2, 4)))
        chain, prev = st, sources[0]
        for i, v in enumerate(sources[1:]):
            chain = transfer(Merge(f"_m{i}", op, (prev, v)), chain)
            prev = f"_m{i}"
        value = transfer(Merge("t", op, sources), st).env["t"]
        assert value == chain.env[prev], sources
        assert not value.aligned


def test_merge_of_symbolic_sources_is_one_reduction_of_their_union():
    """Three sources whose ``g`` frames have bounds on two symbols.  The
    left-to-right fold of ``set_join`` gives ``g^T_[6, s+76]``: joining
    ``g^T_[28, 32]`` with ``g^T_[30, s+76]`` first keeps the symbolic end.
    One reduction of the union gives ``g^T_[6, inf]``.  Both are sound; the
    merge's value is canonical, covers every source, and is the same for
    every order of the sources."""
    s, t = (lambda k: RowExpr.symbol("s", k)), (lambda k: RowExpr.symbol("t", k))
    values = {
        "a": SourceAbs(frozenset({frame("f", {"a"}, t(25), t(101)), frame("g", None, 28, 32)})),
        "b": SourceAbs(frozenset({frame("f", None, 135, 142), frame("f", None, 90, 92),
                                  frame("g", None, 30, s(76))})),
        "c": SourceAbs(frozenset({frame("f", {"a"}, s(40), s(42)), frame("f", {"c"}, 47, 53),
                                  frame("g", {"a", "b", "c"}, s(6), s(8))})),
    }
    st = _state(**values)
    fold = set_join(set_join(values["a"].frames, values["b"].frames), values["c"].frames)
    assert frame("g", None, 6, s(76)) in fold
    got = {transfer(Merge("m", "concat", order), st).env["m"].frames
           for order in permutations(values)}
    assert got == {frozenset({frame("f", None, 25, "inf"), frame("g", None, 6, "inf")})}
    merged = got.pop()
    assert is_canonical(merged)
    assert all(set_leq(v.frames, merged) for v in values.values())
