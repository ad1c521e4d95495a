"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

1. Determinism, for every workload: two traced runs with seed 1, in
   separate interpreters, report exactly the same per-layer counts and
   ratios; and seed 2 generates different inputs.
2. Verdict check: one deliberately wrong expected label, on the corpus and
   on a generated workload, is caught as a failed input.

Exits 1 when any check fails.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

import run

SEED = 1

# Units of per-layer metrics that must repeat exactly; times may not.
EXACT_UNITS = ("count", "ratio")


def traced_metrics(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"traced run of {workload} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def check_determinism(workload: str, seed: int) -> bool:
    make_pass = run.workloads.WORKLOADS[workload].make_pass
    first = run.workloads.inputs_digest(make_pass(seed, run.ROOT))
    same = first == run.workloads.inputs_digest(make_pass(seed, run.ROOT))
    differs = first != run.workloads.inputs_digest(make_pass(seed + 1, run.ROOT))
    a, b = traced_metrics(workload, seed), traced_metrics(workload, seed)
    exact = [k for k, v in a.items() if v["unit"] in EXACT_UNITS]
    moved = [f"{k}: {a[k]['value']} vs {b[k]['value']}"
             for k in exact if a[k]["value"] != b[k]["value"]]
    ok = same and differs and not moved
    print(f"{'PASS' if ok else 'FAIL'} determinism {workload}: "
          f"{len(exact)} counts and ratios repeat{'' if not moved else ' except ' + '; '.join(moved)}; "
          f"seed {seed} inputs {'repeat' if same else 'DIFFER'}, "
          f"seed {seed + 1} inputs {'differ' if differs else 'ARE THE SAME'}")
    return ok


def check_verdicts(workload: str, seed: int) -> bool:
    """Corrupt one expected label and show that the pass reports it failed."""
    items = run.workloads.WORKLOADS[workload].make_pass(seed, run.ROOT)
    honest = run.run_pass(items)
    victim = items[0]
    wrong = victim.expected ^ {("overlap", "no_such_train", "no_such_test")}
    corrupted = [dataclasses.replace(victim, expected=frozenset(wrong))] + items[1:]
    tally = run.run_pass(corrupted)
    ok = not honest.failures and len(tally.failures) == 1
    print(f"{'PASS' if ok else 'FAIL'} verdict check {workload}: failed "
          f"{len(honest.failures)}/{honest.attempted} with true labels, "
          f"{len(tally.failures)}/{tally.attempted} with one wrong label "
          f"({tally.failures[0] if tally.failures else 'not caught'})")
    return ok


def main() -> int:
    run.load_program()
    ok = all([check_verdicts("corpus", SEED), check_verdicts("fanout", SEED)]
             + [check_determinism(w, SEED) for w in run.workloads.WORKLOADS])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
