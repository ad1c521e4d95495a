"""Abstract interpreter: per-statement transfer functions over provenance
states, the train/test leakage check, and ``run_program``, the one fold of
both over statements, which ``.dfl`` programs and notebook cells share.

A state maps each variable to a source abstraction (canonical frame set,
taint flag and alignment flag) and records which variables reached
train/test uses.  The select rule only narrows row intervals when the
source is untainted *and* positionally aligned: a value is aligned when it
is a single frame whose interval tracks the source rows in order (reads,
and contiguous selections thereof).  Merges, gapped selections and
normalization break alignment, and narrowing through them would drop real
dependencies.  Alignment travels with the value, so binding, joining and
comparing values carries it; only ``state_leq`` and ``widen_state`` treat
it apart from the frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .domains import (
    AbsDataFrame,
    SourceAbs,
    TOP_ROWS,
    df_overlap,
    ordered_frames,
    set_constrain,
    set_reduce,
    src_join,
    src_leq,
)
from .lang import (
    INF,
    Apply,
    Branch,
    Loop,
    Merge,
    Phi,
    Read,
    RowExpr,
    RowInterval,
    Select,
    Statement,
    Use,
    expr_le,
    stmt_uses,
)


class AnalysisError(Exception):
    def __init__(self, msg: str, site: str | None = None):
        super().__init__(msg + (f" (at {site})" if site else ""))


@dataclass(frozen=True)
class AbstractState:
    env: dict[str, SourceAbs] = field(default_factory=dict)
    train_uses: tuple[tuple[str, str | None], ...] = ()
    test_uses: tuple[tuple[str, str | None], ...] = ()

    def bind(self, var: str, value: SourceAbs) -> "AbstractState":
        env = dict(self.env)
        env[var] = value
        return AbstractState(env, self.train_uses, self.test_uses)

    def record_use(self, kind: str, args, site) -> "AbstractState":
        uses = self.train_uses if kind == "train" else self.test_uses
        new = tuple(u for u in ((a, site) for a in args) if u not in uses)
        uses = uses + new
        if kind == "train":
            return AbstractState(self.env, uses, self.test_uses)
        return AbstractState(self.env, self.train_uses, uses)


BOT_STATE = AbstractState()


def state_leq(a: AbstractState, b: AbstractState) -> bool:
    """Pointwise order used for fixpoints and subsumption pruning.

    Requires b to be at least as wide and to narrow no more aggressively
    (a variable aligned in b is aligned in a), so analyses continued from b
    cover those continued from a.  A variable bound to the same value
    object in both states is skipped: every value is below itself.
    """
    for v, val in a.env.items():
        w = b.env.get(v)
        if w is val:
            continue
        if w is None or not src_leq(val, w) or w.aligned > val.aligned:
            return False
    return (
        set(a.train_uses) <= set(b.train_uses)
        and set(a.test_uses) <= set(b.test_uses)
    )


def state_join(a: AbstractState, b: AbstractState) -> AbstractState:
    env = dict(a.env)
    for v, val in b.env.items():
        env[v] = src_join(env[v], val) if v in env else val
    train = a.train_uses + tuple(u for u in b.train_uses if u not in a.train_uses)
    test = a.test_uses + tuple(u for u in b.test_uses if u not in a.test_uses)
    return AbstractState(env, train, test)


def _widen_value(v: SourceAbs) -> SourceAbs:
    frames = [
        replace(f, rows=RowInterval(f.rows.lo, INF))
        for f in v.frames
    ]
    return SourceAbs(set_reduce(frames), v.tainted)


def widen_state(prev: AbstractState, nxt: AbstractState) -> AbstractState:
    env = dict(nxt.env)
    for v, val in nxt.env.items():
        if v in prev.env and not src_leq(val, prev.env[v]):
            env[v] = _widen_value(val)
    return replace(nxt, env=env)


# ---------------------------------------------------------------------------
# Transfer functions
# ---------------------------------------------------------------------------

def _selector_window(rows) -> tuple[RowInterval | None, bool]:
    """Positional index window of a row selector (None for no rows) and
    whether the selection is contiguous (preserves positional alignment)."""
    if rows is None:
        return TOP_ROWS, True
    if isinstance(rows, RowInterval):
        return rows, True
    if not rows.items:
        return None, True
    lo = rows.items[0]
    hi = rows.items[0]
    for e in rows.items[1:]:
        if expr_le(e, lo) is True:
            lo = e
        elif expr_le(lo, e) is not True:
            lo = RowExpr.const(0)
        if expr_le(hi, e) is True:
            hi = e
        elif expr_le(e, hi) is not True:
            hi = INF
    contiguous = (
        all(e.is_const for e in rows.items)
        and [e.offset for e in rows.items]
        == list(range(rows.items[0].offset, rows.items[0].offset + len(rows.items)))
    )
    return RowInterval(lo, hi), contiguous


def _require(state: AbstractState, var: str, site) -> SourceAbs:
    if var not in state.env:
        raise AnalysisError(f"unbound variable {var!r}", site)
    return state.env[var]


def transfer(s: Statement, m: AbstractState) -> AbstractState:
    """Abstract effect of one statement."""
    if isinstance(s, Read):
        frames = frozenset({AbsDataFrame(s.file, None, TOP_ROWS)})
        return m.bind(s.target, SourceAbs(frames, False, True))

    if isinstance(s, Select):
        src = _require(m, s.source, s.site)
        if src.tainted:
            # Tainted rows are cross-correlated; narrowing would pretend the
            # selection only depends on the picked rows.
            return m.bind(s.target, src)
        window, contiguous = _selector_window(s.rows)
        if src.aligned:
            frames = (frozenset() if window is None
                      else set_constrain(src.frames, s.cols, window))
            out_aligned = contiguous and len(frames) <= 1
        else:
            # Row positions no longer line up with the tracked intervals, so
            # only the column part may be constrained.
            frames = set_constrain(src.frames, s.cols, TOP_ROWS)
            out_aligned = False
        return m.bind(s.target, SourceAbs(frames, False, out_aligned))

    if isinstance(s, Merge):
        # One reduction of the union of the sources' frames, so the value
        # does not depend on the order of the sources.
        srcs = [_require(m, v, s.site) for v in s.sources]
        parts = [src.frames for src in srcs]
        frames = set_reduce(frozenset().union(*parts), parts)
        return m.bind(s.target, SourceAbs(frames, any(src.tainted for src in srcs)))

    if isinstance(s, Apply):
        src = _require(m, s.source, s.site)
        if s.is_normalize:
            return m.bind(s.target, SourceAbs(src.frames, True))
        return m.bind(s.target, src)

    if isinstance(s, Use):
        for a in s.args:
            _require(m, a, s.site)
        return m.record_use(s.kind, s.args, s.site)

    if isinstance(s, Phi):
        bound = [v for v in s.sources if v in m.env]
        if not bound:
            raise AnalysisError(f"no source of {s.target!r} is bound", s.site)
        value = m.env[bound[0]]
        for v in bound[1:]:
            value = src_join(value, m.env[v])
        return m.bind(s.target, value)

    if isinstance(s, Branch):
        out = None
        for arm in s.arms:
            st = m
            for stmt in arm:
                st = transfer(stmt, st)
            out = st if out is None else state_join(out, st)
        return m if out is None else out

    if isinstance(s, Loop):
        state = m
        for i in range(100):
            st = state
            for stmt in s.body:
                st = transfer(stmt, st)
            nxt = state_join(state, st)
            if state_leq(nxt, state):
                return state
            state = widen_state(state, nxt) if i >= 3 else nxt
        raise AnalysisError("loop analysis did not stabilize", s.site)

    raise TypeError(f"not a statement: {s!r}")


# ---------------------------------------------------------------------------
# Leakage check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Finding:
    kind: str  # "taint" | "overlap"
    train_var: str
    test_var: str
    file: str
    witness: str
    train_site: str | None = field(default=None, compare=False)
    test_site: str | None = field(default=None, compare=False)

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.kind, self.train_var, self.test_var)

    def __str__(self) -> str:
        return (f"{self.kind}: train {self.train_var!r} vs test {self.test_var!r}"
                f" via {self.file!r} ({self.witness})")


def _pair_finding(m: AbstractState, o1, o2) -> Finding | None:
    """Leakage finding for one (train var, test var) pair, or None.

    A pair leaks when some train frame may share cells with some test frame.
    The leak is classified as a taint leak when either side went through a
    whole-set transformation, and as a plain overlap otherwise.
    """
    (train_var, train_site), (test_var, test_site) = o1, o2
    a = m.env.get(train_var)
    b = m.env.get(test_var)
    if a is None or b is None:
        return None
    for fa in ordered_frames(a.frames):
        for fb in ordered_frames(b.frames):
            if df_overlap(fa, fb):
                kind = "taint" if (a.tainted or b.tainted) else "overlap"
                witness = f"{fa} overlaps {fb}"
                if kind == "taint":
                    flags = []
                    if a.tainted:
                        flags.append(train_var)
                    if b.tainted:
                        flags.append(test_var)
                    witness += f"; tainted: {', '.join(flags)}"
                return Finding(kind, train_var, test_var, fa.file, witness,
                               train_site, test_site)
    return None


def check_leakage(m: AbstractState, uses) -> list[Finding]:
    """Leaking train/test pairs that ``uses`` add to the state, deduplicated
    per pair.

    ``uses`` are the ``Use`` nodes one statement contains, at any depth, and
    ``m`` the state after it ran: each use's arguments are checked against
    every recorded use of the other kind.  The uses are read from the
    statement, not from the state, because ``record_use`` keeps a (var, site)
    pair only once, and a cell may run again after its variable was rebound.
    """
    pairs = []
    for u in uses:
        new = [(a, u.site) for a in u.args]
        if u.kind == "train":
            pairs += [(o1, o2) for o1 in new for o2 in m.test_uses]
        else:
            pairs += [(o1, o2) for o1 in m.train_uses for o2 in new]
    findings: list[Finding] = []
    seen = set()
    for o1, o2 in pairs:
        f = _pair_finding(m, o1, o2)
        if f is not None and f.key not in seen:
            seen.add(f.key)
            findings.append(f)
    return findings


# ---------------------------------------------------------------------------
# Statement fold
# ---------------------------------------------------------------------------

def run_program(statements, state: AbstractState = BOT_STATE, *, warnings: list,
                halt: bool = False, cell: int | None = None,
                values: dict | None = None, transfer_fn=None):
    """Fold the transfer over ``statements`` from ``state``, checking the
    train/test pairs each statement's uses add; returns (state, findings,
    halted).  A statement whose transfer raises ``AnalysisError`` is skipped
    and warned about (naming ``cell`` if given).  With ``halt``, the fold
    stops at the first leak and keeps its first finding.  ``values``, when
    given, maps a ``Select`` or ``Merge`` and its source values to the value
    it binds, for callers that run statements again on equal inputs; a run
    that executes each statement once has nothing to reuse and passes none.
    ``transfer_fn`` replaces ``transfer`` for the top-level statements."""
    tf = transfer_fn or transfer
    findings: list[Finding] = []
    for s in statements:
        key = None
        if values is not None:
            kind = type(s)
            if kind is Select:
                key = (id(s), state.env.get(s.source))
            elif kind is Merge:
                key = (id(s), *map(state.env.get, s.sources))
            if key is not None:
                hit = values.get(key)
                if hit is not None:
                    state = state.bind(s.target, hit)
                    continue
        try:
            state = tf(s, state)
        except AnalysisError as e:
            warnings.append(str(e) if cell is None else f"cell {cell}: {e}")
            continue
        if key is not None:
            values[key] = state.env[s.target]
            continue
        uses = stmt_uses(s)
        if uses:
            hits = check_leakage(state, uses)
            if hits:
                if halt:
                    findings.append(hits[0])
                    return state, findings, True
                findings.extend(hits)
    return state, findings, False
