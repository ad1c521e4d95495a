"""The labeled corpus as the tests see it: the checked-in ``corpus/notebooks``
directory, its ``.ipynb`` files and ``labels.json``, is its only copy."""

import json
from pathlib import Path

CORPUS_DIR = Path(__file__).resolve().parents[1] / "corpus" / "notebooks"


def corpus_cases() -> list[tuple[str, bytes]]:
    """(notebook name, notebook bytes) for each ``labels.json`` entry, in the
    file's order."""
    labels = json.loads((CORPUS_DIR / "labels.json").read_text(encoding="utf-8"))
    return [(e["notebook"], (CORPUS_DIR / e["notebook"]).read_bytes())
            for e in labels]
