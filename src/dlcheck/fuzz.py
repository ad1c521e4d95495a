"""Differential soundness fuzzing.

Generates random symbol-free programs with concrete input frames, runs the
concrete dependency semantics and the abstract analyzer on each, and checks
that (a) the abstract sources of every variable cover its concrete source
cells, and (b) whenever the concrete check reports leakage, the analyzer
reports at least one finding.

The generated grammar uses row-only selections: the concrete dependency
semantics tracks (file, row) cells and ignores column projections, so
column-subsetting selects would exercise a disagreement between the
cell-level ground truth and the column-sensitive overlap predicate rather
than a property of the transfer functions.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace

from . import interp
from .lang import (
    Apply,
    Merge,
    Program,
    Read,
    RowExpr,
    RowInterval,
    RowList,
    Select,
    Use,
    program_text,
    used_vars,
)
from .oracle import (
    ConcreteFrame,
    OracleError,
    check_lemma1,
    collapse_rows,
    concrete_run,
    step,
)
from .domains import source_covers


def broken_normalize_transfer(s, m):
    """Deliberately wrong transfer: normalization no longer taints.

    Used to confirm the fuzzer can actually catch an unsound rule.
    """
    if isinstance(s, Apply) and s.is_normalize:
        return interp.transfer(replace(s, fn="mutated_noop"), m)
    return interp.transfer(s, m)


MAX_STATEMENTS = 8
MAX_FILES = 2
MAX_ROWS = 4
MAX_DERIVED_ROWS = 64  # a candidate statement with more rows is dropped
VALUES = (3, 9)


def generate_program(rng: random.Random):
    """One random well-formed program plus concrete input frames.

    The concrete environment of the statements kept so far is kept beside
    them, so each candidate statement runs once, through ``oracle.step``,
    and is kept only when it runs and has at most ``MAX_DERIVED_ROWS`` rows.
    """
    n_files = rng.randint(1, MAX_FILES)
    files = [f"f{i}.csv" for i in range(n_files)]
    inputs = {
        f: ConcreteFrame.of([rng.choice(VALUES) for _ in range(rng.randint(1, MAX_ROWS))],
                            labels=("k",))
        for f in files
    }

    # ``env`` binds one variable per kept statement, so its size names the
    # next one.
    stmts = []
    env = {}
    for f in files:
        read = Read(f"v{len(env)}", f)
        env[read.target] = step(env, read, inputs)
        stmts.append(read)

    ops = ["select", "select", "select", "normalize", "normalize", "other",
           "concat", "concat", "join"]
    n_body = rng.randint(1, MAX_STATEMENTS - len(stmts) - 2)
    for _ in range(n_body):
        bound = list(env)
        target = f"v{len(env)}"
        for _attempt in range(8):
            op = rng.choice(ops)
            src = rng.choice(bound)
            if op == "select":
                n = env[src].frame.nrows
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
                cand = Select(target, src, rows=sel)
            elif op == "normalize":
                cand = Apply(target, "normalize", src)
            elif op == "other":
                cand = Apply(target, "scrub", src)
            else:
                other = rng.choice(bound)
                cand = Merge(target, "concat" if op == "concat" else "join", (src, other))
            try:
                b = step(env, cand, inputs)
            except OracleError:
                continue
            if b.frame.nrows > MAX_DERIVED_ROWS:
                continue
            env[cand.target] = b
            stmts.append(cand)
            break

    bound = list(env)
    # Bias uses toward derived variables so transformations sit on the path
    # between sources and uses.
    tail = bound[len(bound) // 2:]
    # dict.fromkeys, not a set: the order of the use's arguments must not
    # depend on string hashing, so a seed replays across interpreters.
    train = tuple(dict.fromkeys(rng.choice(tail if rng.random() < 0.7 else bound)
                                for _ in range(rng.randint(1, 2))))
    test = tuple(dict.fromkeys(rng.choice(tail if rng.random() < 0.7 else bound)
                               for _ in range(rng.randint(1, 2))))
    stmts.append(Use("train", train))
    stmts.append(Use("test", test))
    return Program(tuple(stmts)), inputs


@dataclass
class FuzzReport:
    seed: int
    programs: int = 0
    violations: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed, "programs": self.programs,
             "violations": self.violations},
            indent=2,
        )


def check_program(p: Program, inputs, transfer_fn=None) -> list[str]:
    """Soundness defects of the analyzer on one program, a skipped statement
    among them; empty when sound."""
    problems = []
    deps = concrete_run(p, inputs)
    warnings: list[str] = []
    # Called through the module so that a wrapper installed on
    # ``interp.run_program`` sees the call.
    final, findings, _ = interp.run_program(p.statements, warnings=warnings,
                                            transfer_fn=transfer_fn)
    flat = collapse_rows(deps)
    for var, cells in flat.items():
        abs_val = final.env.get(var)
        for (file, row) in cells:
            if abs_val is None or not source_covers(abs_val, file, row):
                problems.append(
                    f"{var}: concrete cell {file}[{row}] not covered by "
                    f"{abs_val if abs_val is not None else 'nothing'}")
                break
    train, test = used_vars(p)
    if not check_lemma1(deps, train, test) and not findings:
        problems.append("concrete leakage but no analyzer finding")
    problems += [f"analyzer skipped a statement: {w}" for w in warnings]
    return problems


def fuzz_soundness(budget: int = 1000, seed: int = 1,
                   transfer_fn=None) -> FuzzReport:
    """Run the differential check over ``budget`` random programs."""
    rng = random.Random(seed)
    report = FuzzReport(seed=seed)
    for _ in range(budget):
        p, inputs = generate_program(rng)
        report.programs += 1
        problems = check_program(p, inputs, transfer_fn)
        if problems:
            report.violations.append({
                "program": program_text(p),
                "inputs": {
                    f: [[str(v) for v in row] for row in frame.cells]
                    for f, frame in inputs.items()
                },
                "problems": problems,
            })
    return report
