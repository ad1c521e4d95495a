"""The translated IR of every notebook the equivalence suite analyzes, pinned
by a per-notebook digest in ``ir_digests.json``.  A change to the load path
that should leave the IR as it is must keep every digest.  A change that
means to alter the IR rewrites the file with

    PYTHONPATH=src python tests/test_ir_golden.py

which prints each notebook whose IR changed."""

import dataclasses
import hashlib
import json
from pathlib import Path

from conftest import corpus_cases
from test_engine_equivalence import INPUTS
from test_notebook import NESTED_SOURCES

from dlcheck.corpus import notebook_bytes
from dlcheck.notebook import load_notebook

DIGESTS = Path(__file__).with_name("ir_digests.json")


def canonical(x):
    """``x`` as JSON data with every set sorted, so that the rendering does
    not depend on the string hash seed.  Dataclasses keep the fields their
    ``repr`` shows."""
    if dataclasses.is_dataclass(x):
        return [type(x).__name__, *([f.name, canonical(getattr(x, f.name))]
                                    for f in dataclasses.fields(x) if f.repr)]
    if isinstance(x, (set, frozenset)):
        return sorted((canonical(e) for e in x), key=json.dumps)
    if isinstance(x, (tuple, list)):
        return [canonical(e) for e in x]
    return x


def ir_digest(data: bytes) -> str:
    text = json.dumps(canonical(load_notebook(data)), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def notebooks() -> dict[str, bytes]:
    """The corpus notebooks by file name, then each other group of
    ``test_engine_equivalence.INPUTS`` and the nested definition sources of
    ``test_notebook`` by position."""
    out = {f"corpus/{name}": data for name, data in corpus_cases()}
    groups = {g: INPUTS[g] for g in sorted(INPUTS) if g != "corpus"}
    groups["nested"] = [notebook_bytes([s]) for s in NESTED_SOURCES]
    for group, datas in groups.items():
        out.update((f"{group}[{i}]", data) for i, data in enumerate(datas))
    return out


def changed_notebooks(now: dict[str, str]) -> list[str]:
    """The notebooks whose digest in ``now`` differs from the pinned one."""
    pinned = json.loads(DIGESTS.read_text())
    return [name for name in sorted(pinned.keys() | now.keys())
            if pinned.get(name) != now.get(name)]


def test_translated_ir_is_unchanged():
    now = {name: ir_digest(data) for name, data in notebooks().items()}
    changed = changed_notebooks(now)
    assert not changed, f"translated IR changed: {', '.join(changed)}"


if __name__ == "__main__":
    digests = {name: ir_digest(data) for name, data in notebooks().items()}
    changed = changed_notebooks(digests)
    DIGESTS.write_text(json.dumps(digests, indent=0) + "\n")
    for name in changed:
        print(f"changed: {name}")
    print(f"{DIGESTS.name}: {len(digests)} notebooks, {len(changed)} changed")
