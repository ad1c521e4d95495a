"""Notebook generators: ``notebook_bytes`` writes a minimal nbformat-4
document from code cell sources, and ``synthetic_notebook`` builds the
pipeline-shaped notebook used for latency benchmarking.

The labeled corpus is not here: its only copy is the checked-in
``corpus/notebooks`` directory, the ``.ipynb`` files plus ``labels.json``,
which ``dlcheck corpus`` scores.
"""

from __future__ import annotations

import json
import random

SCHEMA_CELLS = {
    "cell_type": "code",
    "metadata": {},
    "outputs": [],
    "execution_count": None,
}


def notebook_bytes(cells, markdown=()) -> bytes:
    """A minimal nbformat-4 document with the given code cell sources."""
    doc_cells = [{"cell_type": "markdown", "metadata": {}, "source": m}
                 for m in markdown]
    doc_cells += [dict(SCHEMA_CELLS, source=c) for c in cells]
    return json.dumps(
        {"nbformat": 4, "nbformat_minor": 5,
         "metadata": {"language_info": {"name": "python"}},
         "cells": doc_cells},
        indent=1,
    ).encode()


def synthetic_notebook(n_cells: int = 50, seed: int = 0) -> bytes:
    """A pipeline-shaped notebook for latency benchmarking: a few source
    cells, each followed by chains of single-step transforms, with a clean
    split and evaluation at the end of each chain."""
    rng = random.Random(seed)
    cells = ['import pandas as pd\nfrom sklearn.model_selection import train_test_split']
    var = 0
    chain_root = None
    transforms = ["dropna()", "fillna(0)", "reset_index()", "sort_values('a')",
                  "interpolate()", "round(2)"]
    while len(cells) < n_cells:
        if chain_root is None or rng.random() < 0.12:
            var += 1
            chain_root = f"d{var}"
            cells.append(f'{chain_root} = pd.read_csv("src{var}.csv")')
            steps = 0
            continue
        steps += 1
        prev = chain_root if steps == 1 else f"v{var}_{steps - 1}"
        if steps >= rng.randint(3, 6):
            cells.append(
                f"tr_{var}, te_{var} = train_test_split({prev})\n"
                f"m{var} = LogisticRegression()\nm{var}.fit(tr_{var})\n"
                f"m{var}.predict(te_{var})")
            chain_root = None
        else:
            cells.append(f"v{var}_{steps} = {prev}.{rng.choice(transforms)}")
    return notebook_bytes(cells[:n_cells])
