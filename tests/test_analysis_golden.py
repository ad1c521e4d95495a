"""The analysis of every notebook ``test_ir_golden`` pins, pinned by two
per-notebook digests in ``analysis_digests.json``, both taken from what
``analyze_notebook`` reports at K=5 with halt-on-finding on and off:

- ``answers`` covers the finding records (key, witness, file, sites,
  witness trace), the warnings and the number of events;
- ``search`` covers the traces, grouped by termination reason, each as the
  cells it ran.

A change to the engine or the domains that should leave every answer as it
is must keep every ``answers`` digest; a change that only reshapes the
search keeps them and moves ``search`` digests alone.  A change that means
to alter either rewrites the file with

    PYTHONPATH=src python tests/test_analysis_golden.py

which prints each notebook whose analysis changed, with the digests that
moved."""

import hashlib
import json
from pathlib import Path

from test_ir_golden import canonical, notebooks

from dlcheck.engine import PropagationConfig, analyze_notebook
from dlcheck.notebook import load_notebook

DIGESTS = Path(__file__).with_name("analysis_digests.json")


def analysis(data: bytes) -> dict[str, list]:
    """The ``answers`` and ``search`` parts of a notebook's analysis."""
    nb = load_notebook(data)
    out = {"answers": [], "search": []}
    for halt in (True, False):
        res = analyze_notebook(nb, PropagationConfig(k_bound=5, halt_on_finding=halt))
        reasons = sorted({t.termination for t in res.traces})
        out["answers"].append([canonical(res.findings), res.warnings, res.events])
        out["search"].append([[r, [t.cells for t in res.traces if t.termination == r]]
                              for r in reasons])
    return out


def _digest(x) -> str:
    text = json.dumps(x, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def analysis_digests(data: bytes) -> dict[str, str]:
    return {part: _digest(x) for part, x in analysis(data).items()}


def changed_notebooks(now: dict[str, dict[str, str]]) -> list[str]:
    """Each notebook whose digests in ``now`` differ from the pinned ones,
    as ``name (parts)``."""
    pinned = json.loads(DIGESTS.read_text())
    changed = []
    for name in sorted(pinned.keys() | now.keys()):
        was, got = pinned.get(name, {}), now.get(name, {})
        parts = [p for p in sorted(was.keys() | got.keys()) if was.get(p) != got.get(p)]
        if parts:
            changed.append(f"{name} ({', '.join(parts)})")
    return changed


def test_analysis_is_unchanged():
    now = {name: analysis_digests(data) for name, data in notebooks().items()}
    changed = changed_notebooks(now)
    assert not changed, f"analysis changed: {'; '.join(changed)}"


if __name__ == "__main__":
    digests = {name: analysis_digests(data) for name, data in notebooks().items()}
    changed = changed_notebooks(digests)
    DIGESTS.write_text(json.dumps(digests, indent=0) + "\n")
    for entry in changed:
        print(f"changed: {entry}")
    print(f"{DIGESTS.name}: {len(digests)} notebooks, {len(changed)} changed")
