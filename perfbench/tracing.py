"""Spans around the public functions of each dlcheck layer, recorded from
outside the program.

``Tracer.install`` replaces each function at every module binding through
which callers reach it (``dlcheck.engine.transfer`` is the engine's binding
of ``dlcheck.interp.transfer``, ``dlcheck.interp.set_reduce`` the
interpreter's binding of the domains function, and so on), and
``Tracer.remove`` puts the originals back.  Spans are kept in memory,
aggregated per (span, parent span) so that millions of ``phi`` calls stay
small, and written out at the end.  A span's self time is its duration
minus the durations of the spans nested in it.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter


def _len_in_out(args, kwargs, result):
    return {"frames_in": len(args[0]), "frames_out": len(result)}


def _statements(stmts) -> int:
    n = 0
    for s in stmts:
        n += 1
        for arm in getattr(s, "arms", ()):
            n += _statements(arm)
        n += _statements(getattr(s, "body", ()))
    return n


def _notebook_size(args, kwargs, result):
    return {
        "statements": sum(_statements(c.statements) for c in result.cells),
        "warnings": len(result.warnings) + sum(len(c.warnings) for c in result.cells),
    }


def _analysis_counts(args, kwargs, result):
    counts = Counter(f"traces.{t.termination.replace('-', '_')}"
                     for t in result.traces)
    counts["traces"] = len(result.traces)
    counts["events"] = result.events
    return counts


# (module, attribute, span name, extra counts from (args, kwargs, result)).
# A span name is "<layer>.<function>"; several bindings share one name.
BINDINGS = (
    ("dlcheck.notebook", "load_notebook", "notebook.load", _notebook_size),
    ("dlcheck.notebook", "translate_cell", "notebook.translate", None),
    ("dlcheck.engine", "analyze_notebook", "engine.analyze", _analysis_counts),
    ("dlcheck.engine", "propagate", "engine.propagate", None),
    ("dlcheck.engine", "phi", "engine.phi", None),
    ("dlcheck.engine", "transfer", "interp.transfer", None),
    ("dlcheck.engine", "state_leq", "interp.state_leq", None),
    ("dlcheck.interp", "transfer", "interp.transfer", None),
    ("dlcheck.interp", "state_leq", "interp.state_leq", None),
    ("dlcheck.interp", "run_program", "interp.run_program", None),
    ("dlcheck.interp", "set_reduce", "domains.set_reduce", _len_in_out),
    ("dlcheck.interp", "df_overlap", "domains.df_overlap", None),
    ("dlcheck.domains", "set_reduce", "domains.set_reduce", _len_in_out),
    ("dlcheck.domains", "df_overlap", "domains.df_overlap", None),
    ("dlcheck.domains", "set_leq", "domains.set_leq", None),
    ("dlcheck.fuzz", "concrete_run", "oracle.concrete_run", None),
    ("dlcheck.oracle", "concrete_run", "oracle.concrete_run", None),
    ("dlcheck.fuzz", "generate_program", "fuzz.generate_program", None),
    ("dlcheck.fuzz", "check_program", "fuzz.check_program", None),
)


class _Agg:
    __slots__ = ("calls", "hits", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.hits = 0  # calls whose result was true
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.spans: dict[tuple[str, str], _Agg] = {}
        self.counts: Counter = Counter()
        self._stack: list[list] = [["<benchmark>", 0.0]]  # [name, child time]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, extra):
        stack, spans, counts = self._stack, self.spans, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1]
                parent[1] += dt
                agg = spans.get((name, parent[0]))
                if agg is None:
                    agg = spans[(name, parent[0])] = _Agg()
                agg.calls += 1
                agg.total += dt
                agg.self_time += dt - frame[1]
            if result is True:
                agg.hits += 1
            if extra is not None:
                for k, v in extra(args, kwargs, result).items():
                    counts[f"{name.split('.')[0]}.{k}"] += v
            return result

        return traced

    def install(self):
        for module, attr, name, extra in BINDINGS:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn, extra))

    def remove(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def by_name(self) -> dict[str, _Agg]:
        out: dict[str, _Agg] = {}
        for (name, _parent), agg in self.spans.items():
            acc = out.setdefault(name, _Agg())
            acc.calls += agg.calls
            acc.hits += agg.hits
            acc.total += agg.total
            acc.self_time += agg.self_time
        return out

    def write(self, path):
        """The span table: one row per (span, parent span)."""
        rows = [
            {"span": name, "parent": parent, "calls": a.calls, "true": a.hits,
             "total_ms": a.total * 1e3, "self_ms": a.self_time * 1e3}
            for (name, parent), a in sorted(self.spans.items())
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": rows, "counts": dict(self.counts)},
                                   indent=1))


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, as name -> (value, unit), from one traced pass."""
    spans = tracer.by_name()
    counts = tracer.counts

    def calls(name):
        return spans[name].calls if name in spans else 0

    def self_ms(name):
        return spans[name].self_time * 1e3 if name in spans else 0.0

    def hit_ratio(name):
        return spans[name].hits / spans[name].calls if calls(name) else 0.0

    m = {
        "notebook.load_ms": (self_ms("notebook.load"), "ms"),
        "notebook.translate_ms": (self_ms("notebook.translate"), "ms"),
        "notebook.translate.calls": (calls("notebook.translate"), "count"),
        "notebook.statements": (counts["notebook.statements"], "count"),
        "notebook.warnings": (counts["notebook.warnings"], "count"),
        "engine.events": (counts["engine.events"], "count"),
        "engine.propagate_ms": (self_ms("engine.propagate"), "ms"),
        "engine.phi.calls": (calls("engine.phi"), "count"),
        "engine.phi_ms": (self_ms("engine.phi"), "ms"),
        "engine.phi.hit_ratio": (hit_ratio("engine.phi"), "ratio"),
        "engine.traces": (counts["engine.traces"], "count"),
    }
    for reason in ("bound", "subsumed", "no_valid_successor", "halted_on_finding"):
        m[f"engine.traces.{reason}"] = (counts[f"engine.traces.{reason}"], "count")
    m.update({
        "interp.transfer.calls": (calls("interp.transfer"), "count"),
        "interp.transfer_ms": (self_ms("interp.transfer"), "ms"),
        "interp.state_leq.calls": (calls("interp.state_leq"), "count"),
        "interp.state_leq_ms": (self_ms("interp.state_leq"), "ms"),
        "interp.state_leq.hit_ratio": (hit_ratio("interp.state_leq"), "ratio"),
        "interp.run_program_ms": (self_ms("interp.run_program"), "ms"),
        "domains.set_reduce.calls": (calls("domains.set_reduce"), "count"),
        "domains.set_reduce_ms": (self_ms("domains.set_reduce"), "ms"),
        "domains.set_reduce.frames_in": (counts["domains.frames_in"], "count"),
        "domains.set_reduce.frames_out": (counts["domains.frames_out"], "count"),
        "domains.df_overlap.calls": (calls("domains.df_overlap"), "count"),
        "domains.set_leq.calls": (calls("domains.set_leq"), "count"),
        "domains.set_leq_ms": (self_ms("domains.set_leq"), "ms"),
        "oracle.concrete_run.calls": (calls("oracle.concrete_run"), "count"),
        "oracle.concrete_run_ms": (self_ms("oracle.concrete_run"), "ms"),
        "fuzz.generate_program_ms": (self_ms("fuzz.generate_program"), "ms"),
        "fuzz.check_program_ms": (self_ms("fuzz.check_program"), "ms"),
    })
    return m
