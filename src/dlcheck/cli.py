"""Command-line entry points.

Subcommands: ``analyze`` (a .dfl program or .ipynb notebook), ``corpus``
(score a labeled directory), ``oracle`` (enumerate independence for a
program, or run the soundness fuzzer), and ``bench`` (per-event latency).
Exit codes: 0 no findings, 1 findings, 2 error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path


class UsageError(Exception):
    """Arguments the command cannot run with; ``main`` prints the message as
    it is and exits 2."""


def _at_least_one(command: str, option: str, value: int | None):
    if value is not None and value < 1:
        raise UsageError(f"{command}: {option} must be at least 1, got {value}")


def _prop_config(args):
    from .engine import PropagationConfig
    k = None
    if args.k != "inf":
        try:
            k = int(args.k)
        except ValueError:
            raise UsageError(f"{args.command}: --k expects a number or 'inf', "
                             f"got {args.k!r}") from None
        _at_least_one(args.command, "--k", k)
    return PropagationConfig(k_bound=k, halt_on_finding=not args.no_halt_on_finding)


def _load_kb(args):
    from .notebook import KnowledgeBase, default_kb
    path = args.kb or os.environ.get("DLCHECK_KB")
    return KnowledgeBase.load(path) if path else default_kb()


def _add_common(p):
    p.add_argument("--k", default="5",
                   help="propagation depth bound (number or 'inf')")
    p.add_argument("--no-halt-on-finding", action="store_true",
                   help="keep propagating a branch after a finding")
    p.add_argument("--kb", help="knowledge base JSON (or DLCHECK_KB env var)")
    p.add_argument("--format", choices=("text", "json"), default="text")


def cmd_analyze(args) -> int:
    from .report import analyze_path
    if Path(args.path).suffix == ".ipynb" and args.dump_state:
        raise UsageError("analyze: --dump-state applies to .dfl programs, not "
                         "to an .ipynb notebook")
    report = analyze_path(
        args.path, cfg=_prop_config(args), kb=_load_kb(args),
        dump_state=args.dump_state, start=args.start_cell)
    print(report.to_json() if args.format == "json" else report.to_text())
    return report.exit_code


def cmd_corpus(args) -> int:
    from .report import score_corpus
    labels = args.labels or str(Path(args.directory) / "labels.json")
    summary = score_corpus(args.directory, labels, cfg=_prop_config(args),
                           kb=_load_kb(args))
    print(summary.to_json() if args.format == "json" else summary.to_text())
    return 0 if not summary.warnings else 2


def cmd_oracle(args) -> int:
    if args.fuzz is not None:
        _at_least_one("oracle", "--fuzz", args.fuzz)
        from .fuzz import broken_normalize_transfer, fuzz_soundness
        transfer_fn = broken_normalize_transfer if args.mutate_normalize else None
        report = fuzz_soundness(budget=args.fuzz, seed=args.seed,
                                transfer_fn=transfer_fn)
        print(report.to_json())
        return 0 if report.ok else 1
    if not args.path:
        raise UsageError("oracle: a program path or --fuzz N is required")
    from .lang import parse_program, used_vars
    from .oracle import (alpha_dependencies, alpha_pointwise, check_lemma1,
                         concrete_run, ConcreteFrame, enumerate_independence)
    program = parse_program(Path(args.path).read_text())
    shapes = {}
    for item in args.shape or []:
        m = re.fullmatch(r"(.+)=(\d+)[xX](\d+)", item)
        if m is None:
            raise UsageError(f"oracle: --shape expects FILE=RxC, got {item!r}")
        shapes[m[1]] = (int(m[2]), int(m[3]))
    try:
        values = [int(v) for v in args.values.split(",")]
    except ValueError:
        raise UsageError("oracle: --values expects comma-separated integers, "
                         f"got {args.values!r}") from None
    ts, independent, witnesses = enumerate_independence(
        program, values, shapes, budget=args.budget)
    # Constructive dependencies are value-independent for the enumerable
    # (join-free) fragment, so any single assignment serves.
    first_key = next(iter(ts.entries))
    deps = concrete_run(program, {f: ConcreteFrame.of(cells) for f, cells in first_key})
    train, test = used_vars(program)
    doc = {
        "independent": independent,
        "witnesses": [
            {"inputs": {f: [[str(v) for v in row] for row in cells]
                        for f, cells in key},
             "file": f, "row": r}
            for key, f, r in witnesses[:8]
        ],
        "lemma1": check_lemma1(deps, train, test),
        "dependencies": {
            v: {str(r): sorted(f"{f}[{i}]" for f, i in cells)
                for r, cells in rows.items()}
            for v, rows in alpha_pointwise(alpha_dependencies(ts)).items()
        },
    }
    print(json.dumps(doc, indent=2))
    return 0 if independent else 1


def cmd_bench(args) -> int:
    from .report import bench_notebook
    _at_least_one("bench", "--runs", args.runs)
    _at_least_one("bench", "--synthetic", args.synthetic)
    if args.synthetic is not None:
        from .corpus import synthetic_notebook
        data = synthetic_notebook(args.synthetic, seed=args.seed)
    else:
        if not args.path:
            raise UsageError("bench: a notebook path or --synthetic N is required")
        data = Path(args.path).read_bytes()
    result = bench_notebook(data, runs=args.runs, cfg=_prop_config(args),
                            kb=_load_kb(args))
    print(result.to_json() if args.format == "json" else result.to_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlcheck",
        description="Detect train/test data leakage in data-frame programs "
                    "and notebooks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze a .dfl program or .ipynb notebook")
    p.add_argument("path")
    _add_common(p)
    p.add_argument("--dump-state", action="store_true",
                   help="include per-statement abstract states (.dfl only)")
    p.add_argument("--start-cell", type=int, default=None,
                   help="propagate from this cell only (a .dfl program is cell 1)")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("corpus", help="score a labeled notebook corpus")
    p.add_argument("directory")
    p.add_argument("--labels", help="labels JSON (default: DIR/labels.json)")
    _add_common(p)
    p.set_defaults(fn=cmd_corpus)

    p = sub.add_parser("oracle", help="concrete independence oracle / fuzzer")
    p.add_argument("path", nargs="?")
    p.add_argument("--values", default="3,9",
                   help="comma-separated value domain, two or more distinct values")
    p.add_argument("--shape", action="append", metavar="FILE=RxC",
                   help="input shape, repeatable")
    p.add_argument("--budget", type=int, default=2 ** 16,
                   help="max enumerated assignments (not used with --fuzz)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--fuzz", type=int, default=None, metavar="N",
                   help="differentially fuzz N random programs instead")
    p.add_argument("--mutate-normalize", action="store_true",
                   help="fuzz against a deliberately broken normalize rule")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("bench", help="per-event analysis latency")
    p.add_argument("path", nargs="?")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--synthetic", type=int, default=None, metavar="CELLS",
                   help="benchmark a generated notebook with this many cells")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as e:
        print(e, file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - single reporting point for the CLI
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
