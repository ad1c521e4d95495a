"""Ground-truth engines for desk-scale validation of the analyzer.

Two independent routes compute what train/test data actually depend on:

* ``concrete_run`` executes a program once over given input frames and
  builds the per-row dependency map directly from the statement semantics
  (reads introduce per-row file cells, selections re-index, concat stacks,
  join unions matched rows, normalization couples every row, other
  transforms are per-row identity).

* ``enumerate_independence`` brute-forces every input assignment over a
  finite value domain, records the observed train/test values, and decides
  independence by checking that flipping any single input row can change
  the train side or the test side but never both.  ``alpha_dependencies``
  recovers row-level dependencies from that trace table and
  ``alpha_pointwise`` folds them into the same map shape ``concrete_run``
  produces.

Rows are indexed from 0 throughout.  Values are exact rationals so that
min-max normalization is reproducible bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .lang import (
    Apply,
    Merge,
    Program,
    Read,
    RowInterval,
    Select,
    Use,
    input_sources,
    used_vars,
)


class OracleError(Exception):
    """Concrete execution failed (bad inputs, indices, or constructs)."""


SourceCell = tuple[str, int]
DependencyMap = dict[str, dict[int, frozenset[SourceCell]]]


@dataclass(frozen=True)
class ConcreteFrame:
    """A labeled matrix of small values."""

    labels: tuple[str, ...]
    cells: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        for row in self.cells:
            if len(row) != len(self.labels):
                raise ValueError("ragged frame")

    @property
    def nrows(self) -> int:
        return len(self.cells)

    @staticmethod
    def of(values, labels=None) -> "ConcreteFrame":
        rows = tuple(
            tuple(Fraction(v) for v in (r if isinstance(r, (list, tuple)) else (r,)))
            for r in values
        )
        width = len(rows[0]) if rows else 1
        if labels is None:
            labels = tuple(f"c{i}" for i in range(width))
        return ConcreteFrame(tuple(labels), rows)


def _minmax_normalize(f: ConcreteFrame) -> ConcreteFrame:
    """Rescale each column to [0, 1]; an all-equal column maps to 0."""
    if not f.cells:
        return f
    cols = list(zip(*f.cells))
    out_cols = []
    for col in cols:
        lo, hi = min(col), max(col)
        if lo == hi:
            out_cols.append(tuple(Fraction(0) for _ in col))
        else:
            out_cols.append(tuple((v - lo) / (hi - lo) for v in col))
    return ConcreteFrame(f.labels, tuple(zip(*out_cols)))


def _const_index(e, what: str) -> int:
    if not e.is_const:
        raise OracleError(f"{what} requires concrete row positions, got {e}")
    return e.offset


def _selector_indices(rows, nrows: int) -> list[int]:
    if rows is None:
        return list(range(nrows))
    if isinstance(rows, RowInterval):
        lo = _const_index(rows.lo, "select")
        if rows.hi.inf:
            hi = nrows - 1
        else:
            hi = _const_index(rows.hi, "select")
        if hi >= nrows or lo > hi:
            raise OracleError(f"select range [{lo}, {hi}] out of range for {nrows} rows")
        return list(range(lo, hi + 1))
    idx = [_const_index(e, "select") for e in rows.items]
    for i in idx:
        if i >= nrows:
            raise OracleError(f"select index {i} out of range for {nrows} rows")
    return idx


@dataclass
class _Binding:
    frame: ConcreteFrame
    deps: list[frozenset[SourceCell]]


def _get(env: dict[str, _Binding], name: str, site) -> _Binding:
    if name not in env:
        raise OracleError(f"unbound variable {name!r} (at {site})")
    return env[name]


def _join(left: _Binding, right: _Binding) -> _Binding:
    """Rows of ``left`` and ``right`` matched on their first shared label."""
    shared = sorted(set(left.frame.labels) & set(right.frame.labels))
    if not shared:
        raise OracleError("join needs a shared column label")
    key = shared[0]
    li = left.frame.labels.index(key)
    ri = right.frame.labels.index(key)
    labels = left.frame.labels + tuple(c for c in right.frame.labels if c != key)
    cells = []
    deps = []
    for r1, row1 in enumerate(left.frame.cells):
        for r2, row2 in enumerate(right.frame.cells):
            if row1[li] == row2[ri]:
                rest = tuple(v for i, v in enumerate(row2) if i != ri)
                cells.append(row1 + rest)
                deps.append(left.deps[r1] | right.deps[r2])
    return _Binding(ConcreteFrame(labels, tuple(cells)), deps)


def step(env: dict[str, _Binding], s, inputs: dict[str, ConcreteFrame]) -> _Binding | None:
    """The binding statement ``s`` gives its target in ``env``, or ``None``
    for a ``Use`` (which only checks that its arguments are bound).

    ``env`` is read, never changed, so a caller can try a statement and keep
    the environment as it was when the statement raises ``OracleError``.
    """
    if isinstance(s, Read):
        if s.file not in inputs:
            raise OracleError(f"no input frame for file {s.file!r}")
        f = inputs[s.file]
        return _Binding(f, [frozenset({(s.file, r)}) for r in range(f.nrows)])
    if isinstance(s, Select):
        src = _get(env, s.source, s.site)
        idx = _selector_indices(s.rows, src.frame.nrows)
        if s.cols is None:
            keep = list(range(len(src.frame.labels)))
            labels = src.frame.labels
        else:
            missing = s.cols - set(src.frame.labels)
            if missing:
                raise OracleError(f"unknown columns {sorted(missing)} in select")
            keep = [i for i, c in enumerate(src.frame.labels) if c in s.cols]
            labels = tuple(src.frame.labels[i] for i in keep)
        cells = tuple(tuple(src.frame.cells[r][i] for i in keep) for r in idx)
        return _Binding(ConcreteFrame(labels, cells), [src.deps[r] for r in idx])
    if isinstance(s, Merge):
        srcs = [_get(env, v, s.site) for v in s.sources]
        if s.op == "concat":
            labels = srcs[0].frame.labels
            if any(b.frame.labels != labels for b in srcs[1:]):
                raise OracleError("concat needs identical column labels")
            return _Binding(ConcreteFrame(labels, sum((b.frame.cells for b in srcs), ())),
                            sum((b.deps for b in srcs), []))
        out = srcs[0]
        for b in srcs[1:]:
            out = _join(out, b)
        return out
    if isinstance(s, Apply):
        src = _get(env, s.source, s.site)
        if s.is_normalize:
            union = frozenset().union(*src.deps) if src.deps else frozenset()
            return _Binding(_minmax_normalize(src.frame), [union for _ in src.deps])
        return _Binding(src.frame, list(src.deps))
    if isinstance(s, Use):
        for a in s.args:
            _get(env, a, s.site)
        return None
    raise OracleError(f"construct not supported concretely: {type(s).__name__}")


def _execute(p: Program, inputs: dict[str, ConcreteFrame]):
    """Run the program, returning its environment: each assigned variable's
    frame and per-row source cells."""
    env: dict[str, _Binding] = {}
    for s in p.statements:
        b = step(env, s, inputs)
        if b is not None:
            env[s.target] = b
    return env


def concrete_run(p: Program, inputs: dict[str, ConcreteFrame]) -> DependencyMap:
    """Per-variable, per-row sets of input file cells each row depends on."""
    env = _execute(p, inputs)
    return {
        var: {r: b.deps[r] for r in range(len(b.deps))}
        for var, b in env.items()
    }


def collapse_rows(d: DependencyMap) -> dict[str, frozenset[SourceCell]]:
    return {
        var: frozenset().union(*rows.values()) if rows else frozenset()
        for var, rows in d.items()
    }


def check_lemma1(d: DependencyMap, train, test) -> bool:
    """True when every train variable's source cells are disjoint from every
    test variable's (unioned over rows)."""
    flat = collapse_rows({v: d[v] for v in set(train) | set(test) if v in d})
    for o1 in train:
        for o2 in test:
            if flat.get(o1, frozenset()) & flat.get(o2, frozenset()):
                return False
    return True


# ---------------------------------------------------------------------------
# Enumerative independence oracle
# ---------------------------------------------------------------------------

InputKey = tuple[tuple[str, tuple[tuple[Fraction, ...], ...]], ...]


@dataclass
class TraceSet:
    """Observed train/test outputs for every assignment of input values."""

    files: tuple[str, ...]
    shapes: dict[str, tuple[int, int]]
    values: tuple[Fraction, ...]
    train_vars: tuple[str, ...]
    test_vars: tuple[str, ...]
    entries: dict[InputKey, dict[str, tuple]]


def _input_space(files, shapes, values):
    per_file = []
    for f in files:
        r, c = shapes[f]
        grids = itertools.product(values, repeat=r * c)
        per_file.append([
            tuple(tuple(flat[i * c + j] for j in range(c)) for i in range(r))
            for flat in grids
        ])
    for combo in itertools.product(*per_file):
        yield tuple(zip(files, combo))


def enumerate_independence(
    p: Program,
    values,
    shapes: dict[str, tuple[int, int]],
    budget: int = 2 ** 16,
):
    """Execute the program on every input assignment and decide whether the
    train side and test side are independent.

    Returns ``(trace_set, independent, witnesses)`` where each witness is a
    ``(input key, file, row)`` triple for which flipping that row changed
    both sides.  Raises ``OracleError`` when ``values`` holds fewer than two
    distinct values, and for a program with a join: a join's row count
    depends on the values, and a flip is compared row by row.
    """
    files = tuple(sorted(input_sources(p)))
    for f in files:
        if f not in shapes:
            raise OracleError(f"no shape declared for file {f!r}")
    values = tuple(sorted({Fraction(v) for v in values}))
    if len(values) < 2:
        # With one value no row can change, so no dependence could show.
        raise OracleError("a value domain needs at least two distinct values, "
                          f"got {len(values)}")
    total_cells = sum(shapes[f][0] * shapes[f][1] for f in files)
    if len(values) ** total_cells > budget:
        raise OracleError(
            f"{len(values)}^{total_cells} assignments exceed budget {budget}")
    if any(isinstance(s, Merge) and s.op == "join" for s in p.statements):
        raise OracleError("join is not enumerable")
    train_vars, test_vars = used_vars(p)
    train_vars = tuple(sorted(train_vars))
    test_vars = tuple(sorted(test_vars))

    entries: dict[InputKey, dict[str, tuple]] = {}
    for key in _input_space(files, shapes, values):
        inputs = {f: ConcreteFrame.of(cells) for f, cells in key}
        env = _execute(p, inputs)
        entries[key] = {
            v: env[v].frame.cells for v in train_vars + test_vars
        }
    ts = TraceSet(files, dict(shapes), values, train_vars, test_vars, entries)
    witnesses = [
        (key, f, r) for key, f, r, changed in _flips(ts)
        if any(o in train_vars for o, _ in changed)
        and any(o in test_vars for o, _ in changed)
    ]
    return ts, not witnesses, witnesses


def _replace_row(key: InputKey, file: str, row: int, repl) -> InputKey:
    out = []
    for f, cells in key:
        if f == file:
            cells = tuple(repl if i == row else c for i, c in enumerate(cells))
        out.append((f, cells))
    return tuple(out)


Dependency = tuple[str, int, str, int]  # file, row, variable, row


def _flips(ts: TraceSet):
    """Every (input key, file, row) with the set of (used variable, row)
    pairs that some single-row flip of that input row changes.  A used
    variable has one shape under every join-free assignment, so a flip
    changes its value exactly when it changes one of these rows."""
    vars_ = ts.train_vars + ts.test_vars
    for key, row in ts.entries.items():
        frames = dict(key)
        for f in ts.files:
            nrows, ncols = ts.shapes[f]
            for r in range(nrows):
                changed = set()
                for repl in itertools.product(ts.values, repeat=ncols):
                    if repl == frames[f][r]:
                        continue
                    other = ts.entries[_replace_row(key, f, r, repl)]
                    for o in vars_:
                        before, after = row[o], other[o]
                        for rp in range(len(before)):
                            if before[rp] != after[rp]:
                                changed.add((o, rp))
                yield key, f, r, changed


def alpha_dependencies(ts: TraceSet) -> frozenset[Dependency]:
    """Row-level dependencies recovered from a complete trace table: file row
    r feeds used variable o at row r' when some single-row flip changes
    o[r']."""
    return frozenset((f, r, o, rp) for _, f, r, changed in _flips(ts)
                     for o, rp in changed)


def alpha_pointwise(deps) -> DependencyMap:
    """Fold dependencies into a per-variable, per-row source cell map."""
    out: DependencyMap = {}
    for f, r, o, rp in sorted(deps):
        rows = out.setdefault(o, {})
        rows[rp] = rows.get(rp, frozenset()) | {(f, r)}
    return out


def deps_equal(a: DependencyMap, b: DependencyMap, vars_) -> bool:
    """Per-variable per-row set equality, treating missing rows as empty."""
    for v in vars_:
        ra = a.get(v, {})
        rb = b.get(v, {})
        for r in set(ra) | set(rb):
            if ra.get(r, frozenset()) != rb.get(r, frozenset()):
                return False
    return True
