"""The benchmark's tracer still reaches every function it wraps.

``perfbench/tracing.py`` replaces functions at the module bindings it
names.  A renamed or no longer used binding fails only in a traced
benchmark run, so this test installs the tracer, runs three notebook
analyses and one fuzz program, and checks that every span was entered.  The
second notebook concatenates overlapping slices: a join of disjoint frame
sets does not reduce, so without it no ``set_reduce`` span would be entered.
The searches of the first two never compare two different frame sets, so
the third, whose scaling cell rebinds the variable it reads, is there to
enter ``set_leq``.
"""

import importlib
import importlib.util
from pathlib import Path

from conftest import CORPUS_DIR

from dlcheck import engine, fuzz, notebook

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_binding_and_restores_it():
    tracing = _load_tracing()
    originals = [(importlib.import_module(m), attr) for m, attr, _, _ in tracing.BINDINGS]
    before = [getattr(mod, attr) for mod, attr in originals]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name in ("t1_scale_before_split.ipynb", "o6_concat_overlap.ipynb",
                     "t4_scale_column_subset.ipynb"):
            data = (CORPUS_DIR / name).read_bytes()
            engine.analyze_notebook(notebook.load_notebook(data))
        assert fuzz.fuzz_soundness(budget=1).ok
    finally:
        tracer.remove()
    assert [getattr(mod, attr) for mod, attr in originals] == before
    spans = tracer.by_name()
    assert [name for _, _, name, _ in tracing.BINDINGS if name not in spans] == []
    counts = {name: value for name, (value, unit) in tracing.layer_metrics(tracer).items()
              if unit == "count" and (name.endswith(".calls") or name in (
                  "notebook.statements", "engine.events", "engine.traces"))}
    assert len(counts) > 10
    assert [name for name, value in counts.items() if not value] == []
