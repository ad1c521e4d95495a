import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import dlcheck
from dlcheck import fuzz, interp
from dlcheck.engine import PropagationConfig, analyze_notebook
from dlcheck.fuzz import (
    MAX_FILES,
    MAX_ROWS,
    MAX_STATEMENTS,
    VALUES,
    broken_normalize_transfer,
    check_program,
    fuzz_soundness,
    generate_program,
)
from dlcheck.interp import AnalysisError
from dlcheck.lang import (
    Apply,
    Merge,
    Program,
    Read,
    RowExpr,
    RowInterval,
    RowList,
    Select,
    Use,
    parse_program,
    program_text,
    used_vars,
)
from dlcheck.notebook import CellIR, Notebook
from dlcheck.oracle import ConcreteFrame, OracleError, check_lemma1, concrete_run


def whole_prefix_generate_program(rng: random.Random):
    """Reference generator: runs ``concrete_run`` on the whole program so far,
    and builds a ``Program``, for every candidate statement and for every row
    count it reads.  ``generate_program`` must draw and return the same."""
    n_files = rng.randint(1, MAX_FILES)
    files = [f"f{i}.csv" for i in range(n_files)]
    inputs = {
        f: ConcreteFrame.of([rng.choice(VALUES) for _ in range(rng.randint(1, MAX_ROWS))],
                            labels=("k",))
        for f in files
    }

    stmts = []
    counter = 0

    def fresh():
        nonlocal counter
        counter += 1
        return f"v{counter - 1}"

    for f in files:
        stmts.append(Read(fresh(), f))

    def nrows_of() -> dict[str, int]:
        env = concrete_run(Program(tuple(stmts)), inputs)
        return {v: len(rows) for v, rows in env.items()}

    ops = ["select", "select", "select", "normalize", "normalize", "other",
           "concat", "concat", "join"]
    n_body = rng.randint(1, MAX_STATEMENTS - len(stmts) - 2)
    for _ in range(n_body):
        sizes = nrows_of()
        bound = list(sizes)
        for _attempt in range(8):
            op = rng.choice(ops)
            src = rng.choice(bound)
            if op == "select":
                n = sizes[src]
                if n == 0:
                    sel = rng.choice([None, RowList(())])
                else:
                    style = rng.random()
                    if style < 0.2:
                        sel = None
                    elif style < 0.6:
                        lo = rng.randrange(n)
                        hi = rng.randrange(lo, n)
                        sel = RowInterval(RowExpr.const(lo), RowExpr.const(hi))
                    else:
                        k = rng.randint(1, n)
                        sel = RowList(tuple(
                            RowExpr.const(rng.randrange(n)) for _ in range(k)))
                cand = Select(fresh(), src, rows=sel)
            elif op == "normalize":
                cand = Apply(fresh(), "normalize", src)
            elif op == "other":
                cand = Apply(fresh(), "scrub", src)
            else:
                other = rng.choice(bound)
                cand = Merge(fresh(), "concat" if op == "concat" else "join", (src, other))
            try:
                trial = stmts + [cand]
                env = concrete_run(Program(tuple(trial)), inputs)
                if len(env[cand.target]) > fuzz.MAX_DERIVED_ROWS:
                    counter -= 1
                    continue
            except OracleError:
                counter -= 1
                continue
            stmts.append(cand)
            break

    bound = [s.target for s in stmts]
    tail = bound[len(bound) // 2:]
    train = tuple(dict.fromkeys(rng.choice(tail if rng.random() < 0.7 else bound)
                                for _ in range(rng.randint(1, 2))))
    test = tuple(dict.fromkeys(rng.choice(tail if rng.random() < 0.7 else bound)
                               for _ in range(rng.randint(1, 2))))
    stmts.append(Use("train", train))
    stmts.append(Use("test", test))
    return Program(tuple(stmts)), inputs


def test_generator_yields_runnable_programs():
    rng = random.Random(42)
    for _ in range(50):
        p, inputs = generate_program(rng)
        deps = concrete_run(p, inputs)  # must not raise
        assert set(inputs) == {s.file for s in p.statements if hasattr(s, "file")}
        train, test = used_vars(p)
        assert train and test
        assert deps


def test_generator_deterministic_per_seed():
    a = [generate_program(random.Random(7))[0] for _ in range(5)]
    b = [generate_program(random.Random(7))[0] for _ in range(5)]
    assert a == b


# At 64 rows the limit rejects a candidate in about 1 of 500 programs, and a
# later attempt nearly always binds the same name again.  At 2 rows whole
# body steps are rejected, so a rejected candidate that stayed bound would be
# drawn as a source or used.
@pytest.mark.parametrize("row_limit, seeds", [(64, 2000), (2, 500)])
def test_generator_matches_whole_prefix_reference(monkeypatch, row_limit, seeds):
    monkeypatch.setattr(fuzz, "MAX_DERIVED_ROWS", row_limit)
    for seed in range(seeds):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        p, inputs = generate_program(rng)
        ref_p, ref_inputs = whole_prefix_generate_program(ref_rng)
        assert (p, sorted(inputs.items())) == (ref_p, sorted(ref_inputs.items())), seed
        assert rng.getstate() == ref_rng.getstate(), seed


@pytest.mark.parametrize("transfer_fn", [None, broken_normalize_transfer],
                         ids=["sound", "mutated-normalize"])
def test_fuzz_report_matches_whole_prefix_reference(monkeypatch, transfer_fn):
    report = fuzz_soundness(300, seed=5, transfer_fn=transfer_fn).to_json()
    monkeypatch.setattr(fuzz, "generate_program", whole_prefix_generate_program)
    assert report == fuzz_soundness(300, seed=5, transfer_fn=transfer_fn).to_json()


def test_fuzzing_runs_the_oracle_once_per_program(monkeypatch):
    calls = []

    def counted(p, inputs):
        calls.append(p)
        return concrete_run(p, inputs)

    monkeypatch.setattr(fuzz, "concrete_run", counted)
    assert fuzz_soundness(budget=50, seed=3).programs == 50
    assert len(calls) == 50


def test_generator_replays_across_string_hash_seeds():
    script = ("import random\n"
              "from dlcheck.fuzz import generate_program\n"
              "from dlcheck.lang import program_text\n"
              "for s in range(50):\n"
              "    print(program_text(generate_program(random.Random(s))[0]))\n")
    src = str(Path(dlcheck.__file__).resolve().parents[1])
    texts = [
        subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONHASHSEED": hash_seed,
                             "PYTHONPATH": src}).stdout
        for hash_seed in ("1", "3")
    ]
    assert texts[0] and texts[0] == texts[1]


def test_fuzz_small_budget_clean():
    report = fuzz_soundness(budget=150, seed=5)
    assert report.ok, report.to_json()
    assert report.programs == 150


def test_mutated_normalize_detected():
    report = fuzz_soundness(budget=300, seed=5,
                            transfer_fn=broken_normalize_transfer)
    assert not report.ok
    assert any("not covered" in p or "no analyzer finding" in p
               for v in report.violations for p in v["problems"])


def test_ungated_select_narrowing_detected():
    """Narrowing selects without the positional-alignment gate (the naive
    rule) drops dependencies after merges and permuted row lists; the
    fuzzer must be able to see that."""
    import dlcheck.interp as interp
    from dlcheck.domains import SourceAbs, set_constrain
    from dlcheck.lang import Select

    def ungated(s, m):
        if isinstance(s, Select) and s.source in m.env \
                and not m.env[s.source].tainted:
            src = m.env[s.source]
            window, _ = interp._selector_window(s.rows)
            frames = (frozenset() if window is None
                      else set_constrain(src.frames, s.cols, window))
            return m.bind(s.target, SourceAbs(frames, False, True))
        return interp.transfer(s, m)

    report = fuzz_soundness(budget=500, seed=1, transfer_fn=ungated)
    assert not report.ok


def test_lemma1_false_implies_finding_on_known_leak():
    p = parse_program("""
        x = read("f0.csv")
        n = normalize(x)
        a = n.select[[0 .. 1]][]
        b = n.select[[2 .. 3]][]
        train(a)
        test(b)
    """)
    inputs = {"f0.csv": ConcreteFrame.of([3, 9, 3, 9])}
    deps = concrete_run(p, inputs)
    assert not check_lemma1(deps, {"a"}, {"b"})
    assert check_program(p, inputs) == []


def test_a_statement_the_analyzer_skips_is_a_violation():
    """The fold skips a statement whose transfer fails, with a warning.  The
    soundness check counts the warning, even where the concrete run leaks
    nothing and every variable stays covered."""
    p = parse_program('x = read("f0.csv")\ny = normalize(x)\ntrain(y)')

    def failing(s, m):
        if isinstance(s, Apply):
            raise AnalysisError("unsupported transform", s.site)
        return interp.transfer(s, m)

    inputs = {"f0.csv": ConcreteFrame.of([3, 9])}
    assert check_program(p, inputs) == []
    problems = check_program(p, inputs, failing)
    assert [q for q in problems if q.startswith("analyzer skipped")] == [
        "analyzer skipped a statement: unsupported transform (at line 2)",
        "analyzer skipped a statement: unbound variable 'y' (at line 3)"]


def test_program_and_one_cell_notebook_report_the_same_findings():
    """Generated programs give the same findings (key, witness, sites) when
    the fold runs them and when they are the one cell of a notebook
    analyzed with halt-on-finding off."""
    rng = random.Random(23)
    cfg = PropagationConfig(halt_on_finding=False)
    with_findings = 0
    for _ in range(300):
        p, _inputs = generate_program(rng)
        warnings = []
        _, findings, halted = interp.run_program(p.statements, warnings=warnings)
        first = {}
        for f in findings:
            first.setdefault(f.key, f)
        nb = Notebook((CellIR(1, "", p.statements, frozenset(), (), ()),))
        analysis = analyze_notebook(nb, cfg)
        assert [(f.key, f.witness, f.train_site, f.test_site)
                for _, f in sorted(first.items())] == [
            (r.finding.key, r.finding.witness, r.finding.train_site,
             r.finding.test_site) for r in analysis.findings], program_text(p)
        assert warnings == analysis.warnings == [] and not halted
        with_findings += bool(findings)
    assert 30 < with_findings < 300


def test_read_use_only_programs_trivially_sound():
    p = parse_program('x = read("f0.csv")\ntrain(x)\ntest(x)')
    assert check_program(p, {"f0.csv": ConcreteFrame.of([3, 9])}) == []


def test_fuzz_report_json_round_trips():
    import json
    report = fuzz_soundness(budget=5, seed=0)
    doc = json.loads(report.to_json())
    assert doc["programs"] == 5 and doc["seed"] == 0
