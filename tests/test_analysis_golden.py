"""The analysis of every notebook ``test_ir_golden`` pins, pinned by a
per-notebook digest in ``analysis_digests.json``.  The digest covers what
``analyze_notebook`` reports at K=5 with halt-on-finding on and off: the
findings (key, witness, file, sites, witness trace), the traces grouped by
termination reason, the warnings and the number of events.  A change to the
engine or the domains that should leave every answer as it is must keep
every digest.  A change that means to alter an answer rewrites the file with

    PYTHONPATH=src python tests/test_analysis_golden.py

and the diff of the file names the notebooks whose analysis changed."""

import hashlib
import json
from pathlib import Path

from test_ir_golden import canonical, notebooks

from dlcheck.engine import PropagationConfig, analyze_notebook
from dlcheck.notebook import load_notebook

DIGESTS = Path(__file__).with_name("analysis_digests.json")


def analysis(data: bytes) -> list:
    nb = load_notebook(data)
    out = []
    for halt in (True, False):
        res = analyze_notebook(nb, PropagationConfig(k_bound=5, halt_on_finding=halt))
        reasons = sorted({t.termination for t in res.traces})
        traces = [[r, canonical([t for t in res.traces if t.termination == r])]
                  for r in reasons]
        out.append([canonical(res.findings), traces, res.warnings, res.events])
    return out


def analysis_digest(data: bytes) -> str:
    text = json.dumps(analysis(data), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_analysis_is_unchanged():
    pinned = json.loads(DIGESTS.read_text())
    now = {name: analysis_digest(data) for name, data in notebooks().items()}
    changed = [name for name in sorted(pinned.keys() | now.keys())
               if pinned.get(name) != now.get(name)]
    assert not changed, f"analysis changed: {', '.join(changed)}"


if __name__ == "__main__":
    digests = {name: analysis_digest(data) for name, data in notebooks().items()}
    DIGESTS.write_text(json.dumps(digests, indent=0) + "\n")
    print(f"{DIGESTS.name}: {len(digests)} notebooks")
