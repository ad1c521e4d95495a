import copy
import random
from fractions import Fraction
from pathlib import Path

import pytest

from dlcheck.cli import main
from dlcheck.fuzz import generate_program
from dlcheck.lang import (
    Merge,
    Phi,
    Read,
    RowExpr,
    RowList,
    Select,
    parse_program,
    used_vars,
)
from dlcheck.oracle import (
    ConcreteFrame,
    OracleError,
    alpha_dependencies,
    alpha_pointwise,
    check_lemma1,
    collapse_rows,
    concrete_run,
    deps_equal,
    enumerate_independence,
    step,
)

DFL_DIR = Path(__file__).resolve().parents[1] / "corpus" / "dfl"

FOUR_ROWS = {"data.csv": ConcreteFrame.of([3, 9, 9, 3])}

SPLIT_FIRST = parse_program("""
    data = read("data.csv")
    a = data.select[[0 .. 1]][]
    b = data.select[[2 .. 3]][]
    tr = normalize(a)
    te = normalize(b)
    train(tr)
    test(te)
""")

NORMALIZE_FIRST = parse_program("""
    data = read("data.csv")
    n = normalize(data)
    tr = n.select[[0 .. 1]][]
    te = n.select[[2 .. 3]][]
    train(tr)
    test(te)
""")


def cells(*rows):
    return frozenset(("data.csv", r) for r in rows)


def test_read_dependencies_are_per_row():
    deps = concrete_run(parse_program('x = read("data.csv")\ntrain(x)'), FOUR_ROWS)
    assert deps["x"] == {r: cells(r) for r in range(4)}


def test_split_first_gives_disjoint_deps():
    deps = concrete_run(SPLIT_FIRST, FOUR_ROWS)
    assert deps["tr"] == {0: cells(0, 1), 1: cells(0, 1)}
    assert deps["te"] == {0: cells(2, 3), 1: cells(2, 3)}
    assert check_lemma1(deps, {"tr"}, {"te"}) is True


def test_normalize_first_couples_everything():
    deps = concrete_run(NORMALIZE_FIRST, FOUR_ROWS)
    allc = cells(0, 1, 2, 3)
    assert deps["tr"] == {0: allc, 1: allc}
    assert deps["te"] == {0: allc, 1: allc}
    assert check_lemma1(deps, {"tr"}, {"te"}) is False


def test_lemma1_vacuous_on_empty_side():
    deps = concrete_run(SPLIT_FIRST, FOUR_ROWS)
    assert check_lemma1(deps, set(), {"te"}) is True


def test_concat_shifts_right_operand():
    p = parse_program("""
        x = read("a.csv")
        y = read("b.csv")
        z = concat(x, y)
        train(z)
    """)
    deps = concrete_run(p, {"a.csv": ConcreteFrame.of([3, 9]),
                            "b.csv": ConcreteFrame.of([9])})
    assert deps["z"] == {0: frozenset({("a.csv", 0)}),
                        1: frozenset({("a.csv", 1)}),
                        2: frozenset({("b.csv", 0)})}


def test_join_matches_on_shared_key_values():
    p = parse_program("""
        x = read("a.csv")
        y = read("b.csv")
        z = join(x, y)
        train(z)
    """)
    a = ConcreteFrame.of([[3, 1], [9, 2]], labels=("k", "u"))
    b = ConcreteFrame.of([[3, 7], [3, 8]], labels=("k", "w"))
    deps = concrete_run(p, {"a.csv": a, "b.csv": b})
    # only the key value 3 matches: left row 0 against both right rows
    assert deps["z"] == {
        0: frozenset({("a.csv", 0), ("b.csv", 0)}),
        1: frozenset({("a.csv", 0), ("b.csv", 1)}),
    }


def test_join_requires_shared_label():
    p = parse_program('x = read("a.csv")\ny = read("b.csv")\nz = join(x, y)')
    with pytest.raises(OracleError):
        concrete_run(p, {"a.csv": ConcreteFrame.of([1], labels=("u",)),
                         "b.csv": ConcreteFrame.of([1], labels=("w",))})


def test_select_out_of_range():
    p = parse_program('x = read("a.csv")\ny = x.select[[5]][]')
    with pytest.raises(OracleError):
        concrete_run(p, {"a.csv": ConcreteFrame.of([1, 2])})


def test_missing_input_frame():
    with pytest.raises(OracleError):
        concrete_run(parse_program('x = read("a.csv")'), {})


def test_select_with_repeated_indices():
    p = parse_program('x = read("a.csv")\ny = x.select[[1, 1, 0]][]\ntrain(y)')
    deps = concrete_run(p, {"a.csv": ConcreteFrame.of([5, 6])})
    assert deps["y"] == {0: frozenset({("a.csv", 1)}),
                        1: frozenset({("a.csv", 1)}),
                        2: frozenset({("a.csv", 0)})}


def test_other_is_per_row_identity():
    p = parse_program('x = read("a.csv")\ny = scrub(x)\ntrain(y)')
    deps = concrete_run(p, {"a.csv": ConcreteFrame.of([5, 6])})
    assert deps["y"] == deps["x"]


def test_minmax_normalization_values():
    p = parse_program('x = read("a.csv")\ny = normalize(x)\ntrain(y)')
    ts, ind, _ = enumerate_independence(p, {3, 9}, {"a.csv": (2, 1)})
    key = (("a.csv", ((Fraction(3),), (Fraction(9),))),)
    assert ts.entries[key]["y"] == ((Fraction(0),), (Fraction(1),))
    # all-equal column collapses to zero
    key2 = (("a.csv", ((Fraction(9),), (Fraction(9),))),)
    assert ts.entries[key2]["y"] == ((Fraction(0),), (Fraction(0),))


def test_enumerate_budget():
    p = parse_program('x = read("a.csv")\ntrain(x)')
    with pytest.raises(OracleError):
        enumerate_independence(p, {3, 9}, {"a.csv": (20, 1)}, budget=100)


SPLIT_AFTER_NORMALIZE = parse_program(
    'a = read("f.csv")\nb = normalize(a)\nc = b.select[[0 .. 0]][]\n'
    'd = b.select[[1 .. 2]][]\ntrain(c)\ntest(d)')


@pytest.mark.parametrize("values", [[3], [3, 3], []])
def test_enumerate_rejects_fewer_than_two_distinct_values(values):
    # One value cannot change any row, so it would report independence.
    with pytest.raises(OracleError, match="at least two distinct values"):
        enumerate_independence(SPLIT_AFTER_NORMALIZE, values, {"f.csv": (3, 1)})


JOIN_PROGRAM = 'a = read("a.csv")\nj = join(a, a)\ntrain(j)\ntest(a)\n'


def test_enumerate_rejects_a_join(tmp_path, capsys):
    # A join's row count depends on the values, so single-row flips of one
    # assignment would compare frames of different shapes.
    with pytest.raises(OracleError, match="^join is not enumerable$"):
        enumerate_independence(parse_program(JOIN_PROGRAM), {3, 9}, {"a.csv": (2, 1)})
    path = tmp_path / "join.dfl"
    path.write_text(JOIN_PROGRAM)
    assert main(["oracle", str(path), "--shape", "a.csv=2x1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: join is not enumerable\n"


def test_enumerate_checks_shapes_values_and_budget_before_the_join():
    p = parse_program(JOIN_PROGRAM)
    with pytest.raises(OracleError, match="no shape declared"):
        enumerate_independence(p, {3, 9}, {})
    with pytest.raises(OracleError, match="at least two distinct values"):
        enumerate_independence(p, {3}, {"a.csv": (2, 1)})
    with pytest.raises(OracleError, match="exceed budget"):
        enumerate_independence(p, {3, 9}, {"a.csv": (20, 1)}, budget=100)
    # The join is reported before any statement runs, so a select that
    # fails on every assignment before it is never reached.
    late = parse_program('a = read("a.csv")\nb = a.select[[5]][]\nj = join(b, a)\n'
                         'train(j)\ntest(a)\n')
    with pytest.raises(OracleError, match="^join is not enumerable$"):
        enumerate_independence(late, {3, 9}, {"a.csv": (2, 1)})


def test_enumerate_independence_verdicts():
    _, ind_bad, wit = enumerate_independence(NORMALIZE_FIRST, {3, 9},
                                             {"data.csv": (4, 1)})
    assert ind_bad is False and wit
    _, ind_ok, wit_ok = enumerate_independence(SPLIT_FIRST, {3, 9},
                                               {"data.csv": (4, 1)})
    assert ind_ok is True and not wit_ok


def test_enumerate_ignores_inputs_when_unused():
    p = parse_program('x = read("a.csv")\ny = read("b.csv")\ntrain(y)\ntest(y)')
    # x never reaches a use; changing it never changes outputs
    ts, ind, _ = enumerate_independence(p, {3, 9}, {"a.csv": (2, 1), "b.csv": (1, 1)})
    assert ind is False  # y feeds both sides
    deps = alpha_pointwise(alpha_dependencies(ts))
    assert "a.csv" not in {f for rows in deps.values() for r in rows.values()
                           for f, _ in r}


def test_alpha_dependencies_split_first():
    ts, _, _ = enumerate_independence(SPLIT_FIRST, {3, 9}, {"data.csv": (4, 1)})
    deps = alpha_dependencies(ts)
    assert deps == frozenset(
        ("data.csv", i, v, j)
        for (i, v) in [(0, "tr"), (1, "tr"), (2, "te"), (3, "te")]
        for j in (0, 1)
    )


def test_alpha_pointwise_shapes():
    assert alpha_pointwise(frozenset()) == {}
    single = alpha_pointwise({("f", 0, "o", 1)})
    assert single == {"o": {1: frozenset({("f", 0)})}}


def test_constant_outputs_have_no_dependencies():
    # a one-row min-max normalization is identically zero, so no flip can
    # be observed and the trace table yields the empty dependency set
    p = parse_program("""
        x = read("a.csv")
        n = normalize(x)
        m = scrub(n)
        train(n)
        test(m)
    """)
    ts, _, _ = enumerate_independence(p, {3, 9}, {"a.csv": (1, 1)})
    assert alpha_dependencies(ts) == frozenset()


def test_unused_inputs_make_independence_vacuous():
    p = parse_program('x = read("a.csv")\ny = normalize(x)')
    ts, ind, wit = enumerate_independence(p, {3, 9}, {"a.csv": (2, 1)})
    assert ind is True and not wit


def test_alpha_route_matches_constructive_on_paper_programs():
    for p in (SPLIT_FIRST, NORMALIZE_FIRST):
        ts, _, _ = enumerate_independence(p, {3, 9}, {"data.csv": (4, 1)})
        via_alpha = alpha_pointwise(alpha_dependencies(ts))
        direct = concrete_run(p, FOUR_ROWS)
        assert deps_equal(via_alpha, direct, ["tr", "te"])


def test_constructive_overapproximates_on_degenerate_inputs():
    """A single-row min-max normalization is constant, so flipping the input
    cannot be observed; the constructive map still records the dependency.
    This is the direction in which trace-derived and constructive
    dependencies legitimately diverge."""
    p = parse_program("""
        x = read("a.csv")
        n = normalize(x)
        train(n)
        test(x)
    """)
    inputs = {"a.csv": ConcreteFrame.of([3])}
    deps = concrete_run(p, inputs)
    assert check_lemma1(deps, {"n"}, {"x"}) is False
    _, ind, _ = enumerate_independence(p, {3, 9}, {"a.csv": (1, 1)})
    assert ind is True  # the train side is the constant 0, so only test moves
    p2 = parse_program("""
        x = read("a.csv")
        n = normalize(x)
        m = scrub(n)
        train(n)
        test(m)
    """)
    deps2 = concrete_run(p2, inputs)
    assert check_lemma1(deps2, {"n"}, {"m"}) is False
    _, ind2, _ = enumerate_independence(p2, {3, 9}, {"a.csv": (1, 1)})
    assert ind2 is True  # both sides are the constant 0


def test_collapse_rows():
    deps = concrete_run(SPLIT_FIRST, FOUR_ROWS)
    flat = collapse_rows(deps)
    assert flat["tr"] == cells(0, 1)
    assert used_vars(SPLIT_FIRST) == ({"tr"}, {"te"})


# -- one statement step ----------------------------------------------------------

STEP_INPUTS = {"a.csv": ConcreteFrame.of([3, 9], labels=("u",)),
               "b.csv": ConcreteFrame.of([3], labels=("w",))}


def _fold(p, inputs):
    """``concrete_run`` rebuilt from ``step``: bind each statement's result."""
    env = {}
    for s in p.statements:
        b = step(env, s, inputs)
        if b is not None:
            env[s.target] = b
    return {var: dict(enumerate(b.deps)) for var, b in env.items()}


def _outcome(run, p, inputs):
    try:
        return run(p, inputs)
    except OracleError as e:
        return f"OracleError: {e}"


@pytest.mark.parametrize("stmt, message", [
    (Select("z", "nope"), "unbound variable 'nope'"),
    (Select("z", "x", rows=RowList((RowExpr.const(5),))),
     "select index 5 out of range"),
    (Merge("z", "concat", ("x", "y")), "concat needs identical column labels"),
    (Merge("z", "join", ("x", "y")), "join needs a shared column label"),
    (Read("z", "c.csv"), "no input frame for file 'c.csv'"),
    (Phi("z", ("x", "y")), "construct not supported concretely: Phi"),
], ids=["unbound", "select-range", "concat-labels", "join-no-shared-label",
        "missing-input", "unsupported"])
def test_step_error_leaves_env_unchanged(stmt, message):
    env = {var: step({}, Read(var, f), STEP_INPUTS)
           for var, f in (("x", "a.csv"), ("y", "b.csv"))}
    before = copy.deepcopy(env)
    with pytest.raises(OracleError, match=message):
        step(env, stmt, STEP_INPUTS)
    assert env == before


def _chain_binding(env, op, sources):
    """The binding the chain of binary merges over ``sources`` gives its
    last temporary."""
    env = dict(env)
    prev = sources[0]
    for i, v in enumerate(sources[1:]):
        env[f"_m{i}"] = step(env, Merge(f"_m{i}", op, (prev, v)), {})
        prev = f"_m{i}"
    return env[prev]


@pytest.mark.parametrize("op", ["concat", "join"])
def test_merge_of_many_sources_steps_as_the_binary_chain(op):
    """Labels, cells and per-row dependencies of one n-source merge equal
    those of the binary chain it replaces, and so does any error."""
    rng = random.Random(17)
    bound = 0
    for _ in range(400):
        inputs = {
            f"f{i}.csv": ConcreteFrame.of(
                [[rng.choice((3, 9)) for _ in labels] for _ in range(rng.randint(0, 3))],
                labels=labels)
            for i, labels in enumerate(rng.choice([("k",), ("k",), ("k", "u")])
                                       for _ in range(4))
        }
        env = {f"x{i}": step({}, Read(f"x{i}", f), inputs)
               for i, f in enumerate(inputs)}
        sources = tuple(rng.choice(list(env)) for _ in range(rng.randint(2, 4)))
        outcomes = []
        for run in (lambda: step(env, Merge("t", op, sources), inputs),
                    lambda: _chain_binding(env, op, sources)):
            try:
                b = run()
                outcomes.append((b.frame.labels, b.frame.cells, b.deps))
            except OracleError as e:
                outcomes.append(str(e))
        assert outcomes[0] == outcomes[1], sources
        bound += not isinstance(outcomes[0], str)
    assert bound > 150


def test_concrete_run_is_a_fold_of_step():
    data = ConcreteFrame.of([[3, 9, 3], [9, 9, 3], [3, 3, 9], [9, 3, 3]],
                            labels=("X_1", "X_2", "y"))
    cases = [(parse_program(path.read_text()), {"data.csv": data})
             for path in sorted(DFL_DIR.glob("*.dfl"))]
    rng = random.Random(11)
    cases += [generate_program(rng) for _ in range(200)]
    outcomes = [(_outcome(concrete_run, p, inputs), _outcome(_fold, p, inputs))
                for p, inputs in cases]
    assert [i for i, (a, b) in enumerate(outcomes) if a != b] == []
    # The symbolic rows of motivating.dfl stop both runs; every other
    # program runs to the end.
    assert sum(isinstance(a, dict) for a, _ in outcomes) == len(cases) - 1
