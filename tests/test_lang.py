import gc
import random

import pytest
from hypothesis import given, strategies as st

from dlcheck.fuzz import generate_program
from dlcheck.lang import (
    INF,
    Apply,
    Branch,
    DslError,
    Loop,
    Merge,
    ParseError,
    Phi,
    Program,
    Read,
    RowExpr,
    RowInterval,
    RowList,
    Select,
    SsaError,
    UndefinedVariableError,
    Use,
    expr_le,
    expr_lt,
    input_sources,
    parse_program,
    program_text,
    used_vars,
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


def test_parse_read():
    p = parse_program('data = read("data.csv")')
    assert p.statements == (Read("data", "data.csv"),)


def test_parse_empty_program():
    assert parse_program("").statements == ()
    assert parse_program("# only a comment\n\n").statements == ()


def test_parse_motivating_program():
    p = parse_program(MOTIVATING)
    assert len(p.statements) == 7
    sel = p.statements[3]
    assert isinstance(sel, Select)
    assert sel.rows == RowInterval(RowExpr.symbol("s", 1), RowExpr.symbol("R"))
    assert p.statements[1].cols == frozenset({"X_1", "X_2", "y"})


def test_ssa_violation_rejected():
    with pytest.raises(SsaError):
        parse_program('x = read("f")\nx = read("g")')


def test_undefined_variable_rejected():
    with pytest.raises(UndefinedVariableError):
        parse_program("y = normalize(x)")


@pytest.mark.parametrize("node", [
    Branch(((), ())),
    Loop((Apply("b", "clean", "a"),)),
    Phi("b", ("a",)),
], ids=["Branch", "Loop", "Phi"])
def test_program_rejects_control_flow(node):
    with pytest.raises(DslError, match=f"^{type(node).__name__} is not a program statement$"):
        Program((Read("a", "f"), node))


@pytest.mark.parametrize("lo, hi, missing", [
    (None, None, "lower"),
    (None, RowExpr.const(3), "lower"),
    (RowExpr.const(0), None, "upper"),
])
def test_row_interval_names_a_missing_bound(lo, hi, missing):
    """An interval is never empty, so no ``Select`` holds a range that
    ``stmt_text`` cannot print or the oracle cannot read."""
    with pytest.raises(ValueError, match=f"^{missing} bound is missing$"):
        Select("y", "x", rows=RowInterval(lo, hi))


@pytest.mark.parametrize("lo, hi, message", [
    (0, 5, "lower bound 0 is not a RowExpr"),
    (RowExpr.const(0), 5, "upper bound 5 is not a RowExpr"),
    ("s", INF, "lower bound 's' is not a RowExpr"),
])
def test_row_interval_rejects_a_bound_that_is_no_row_expression(lo, hi, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        RowInterval(lo, hi)


@pytest.mark.parametrize("sources", [(), ("a",)])
def test_merge_needs_two_or_more_sources(sources):
    with pytest.raises(ValueError, match="^a merge needs two or more sources"):
        Merge("t", "concat", sources)


def test_parse_and_print_a_merge_of_three():
    p = parse_program('a = read("f")\nb = read("g")\nc = join(a, b , a)')
    assert p.statements[2] == Merge("c", "join", ("a", "b", "a"))
    assert program_text(p).splitlines()[2] == "c = join(a, b, a)"


def test_syntax_error_carries_line():
    with pytest.raises(ParseError) as e:
        parse_program('a = read("f")\nb = ???')
    assert e.value.line == 2


def test_parse_error_names_the_line_alone():
    with pytest.raises(ParseError) as e:
        parse_program('a = read("f")\nbogus line')
    assert str(e.value) == "line 2: unrecognized statement 'bogus line'"


@pytest.mark.parametrize("bad", [
    'x = read(f)',                 # unquoted file
    'x = y.select[0][]',           # rows not wrapped in an array
    'train()',                     # empty use
    'x = concat(a)',               # arity
])
def test_malformed_statements(bad):
    with pytest.raises(ParseError):
        parse_program(bad)


def test_input_sources():
    assert input_sources(parse_program(MOTIVATING)) == {"data.csv"}
    assert input_sources(parse_program("")) == frozenset()
    two = parse_program('a = read("a.csv")\nb = read("b.csv")')
    assert input_sources(two) == {"a.csv", "b.csv"}


def test_input_sources_leaves_no_reference_cycle():
    p, _ = generate_program(random.Random(3))
    gc.collect()
    gc.disable()
    try:
        files = input_sources(p)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert files


def test_used_vars():
    train, test = used_vars(parse_program(MOTIVATING))
    assert (train, test) == ({"X_train"}, {"X_test"})
    assert used_vars(parse_program("")) == (frozenset(), frozenset())
    p = parse_program('a = read("f")\nb = read("g")\ntrain(a)\ntrain(b)\ntest(a)')
    assert used_vars(p) == ({"a", "b"}, {"a"})


def test_metadata_insensitive_to_unrelated_statement_order():
    a = parse_program('x = read("f")\ny = read("g")\ntrain(x)\ntest(y)')
    b = parse_program('y = read("g")\nx = read("f")\ntest(y)\ntrain(x)')
    assert input_sources(a) == input_sources(b)
    assert used_vars(a) == used_vars(b)


def test_pretty_print_round_trip_motivating():
    p = parse_program(MOTIVATING)
    assert parse_program(program_text(p)) == p


# -- randomized round trip ----------------------------------------------------

_names = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True)
_row_exprs = st.one_of(
    st.integers(0, 50).map(RowExpr.const),
    st.tuples(st.sampled_from(["s", "t", "k"]), st.integers(-3, 20)).map(
        lambda p: RowExpr.symbol(*p)),
)


@st.composite
def _programs(draw):
    n = draw(st.integers(1, 8))
    stmts = []
    bound = []
    for i in range(n):
        target = f"v{i}"
        if not bound or draw(st.booleans()):
            stmts.append(Read(target, draw(st.sampled_from(["a.csv", "b.csv"]))))
        else:
            src = draw(st.sampled_from(bound))
            kind = draw(st.integers(0, 2))
            if kind == 0 and len(bound) >= 2:
                others = draw(st.lists(st.sampled_from(bound), min_size=1, max_size=3))
                stmts.append(Merge(target, draw(st.sampled_from(["concat", "join"])),
                                   (src, *others)))
            elif kind == 1:
                rows = draw(st.one_of(
                    st.none(),
                    st.lists(_row_exprs, min_size=0, max_size=3).map(
                        lambda xs: RowList(tuple(xs))),
                    st.tuples(st.integers(0, 5), st.integers(5, 20)).map(
                        lambda p: RowInterval(RowExpr.const(p[0]), RowExpr.const(p[1]))),
                ))
                cols = draw(st.one_of(st.none(), st.sets(
                    st.sampled_from(["a", "b", "c"]), min_size=1).map(frozenset)))
                stmts.append(Select(target, src, rows=rows, cols=cols))
            else:
                stmts.append(Apply(target, draw(st.sampled_from(
                    ["normalize", "clean", "fold"])), src))
        bound.append(target)
    if draw(st.booleans()):
        stmts.append(Use("train", (draw(st.sampled_from(bound)),)))
    return Program(tuple(stmts))


@given(_programs())
def test_round_trip_random_programs(p):
    assert parse_program(program_text(p)) == p


def test_parser_rejects_garbage_with_its_own_errors():
    import random
    import string
    from dlcheck.lang import DslError
    rng = random.Random(4)
    alphabet = string.ascii_letters + string.digits + ' .[]{}()=",#_+-\n'
    for _ in range(3000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 60)))
        try:
            parse_program(text)
        except DslError:
            pass


# -- three-valued position comparisons ----------------------------------------

def test_expr_le_basics():
    s1 = RowExpr.symbol("s", 1)
    s0 = RowExpr.symbol("s")
    assert expr_le(RowExpr.const(3), RowExpr.const(5)) is True
    assert expr_le(s0, s1) is True
    assert expr_le(s1, s0) is False
    assert expr_le(RowExpr.const(0), s0) is True
    assert expr_le(RowExpr.const(2), RowExpr.symbol("s", 5)) is True
    assert expr_le(RowExpr.symbol("s", 5), RowExpr.const(3)) is False
    assert expr_le(s0, RowExpr.symbol("t")) is None
    assert expr_le(s0, INF) is True
    assert expr_lt(s0, s1) is True


@given(_row_exprs, _row_exprs)
def test_expr_le_matches_valuations(a, b):
    """Definite answers must agree with every small valuation."""
    verdict = expr_le(a, b)
    if verdict is None:
        return
    for s in range(0, 30):
        for t in range(0, 30):
            env = {"s": s, "t": t, "k": t}
            va = env[a.sym] + a.offset if a.sym else a.offset
            vb = env[b.sym] + b.offset if b.sym else b.offset
            if va < 0 or vb < 0:
                continue  # inadmissible valuation
            assert (va <= vb) == verdict
