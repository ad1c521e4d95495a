import os
import random
import subprocess
import sys
from pathlib import Path

import dlcheck
from dlcheck.fuzz import (
    broken_normalize_transfer,
    check_program,
    fuzz_soundness,
    generate_program,
)
from dlcheck.lang import parse_program, used_vars
from dlcheck.oracle import ConcreteFrame, check_lemma1, concrete_run


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
    from dlcheck.domains import ColumnAbs, SourceAbs, TOP_COLS, set_constrain
    from dlcheck.lang import Select

    def ungated(s, m):
        if isinstance(s, Select) and s.source in m.env \
                and not m.env[s.source].tainted:
            src = m.env[s.source]
            cols = TOP_COLS if s.cols is None else ColumnAbs(frozenset(s.cols))
            window, _ = interp._selector_window(s.rows)
            frames = set_constrain(src.frames, cols, window)
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


def test_read_use_only_programs_trivially_sound():
    p = parse_program('x = read("f0.csv")\ntrain(x)\ntest(x)')
    assert check_program(p, {"f0.csv": ConcreteFrame.of([3, 9])}) == []


def test_fuzz_report_json_round_trips():
    import json
    report = fuzz_soundness(budget=5, seed=0)
    doc = json.loads(report.to_json())
    assert doc["programs"] == 5 and doc["seed"] == 0
