"""Provenance lattices used by the analyzer.

The stack, bottom-up: column abstractions (a ``frozenset`` of labels, or
``None`` for top: unknown columns), non-empty row intervals over the
naturals with possibly-symbolic bounds (``lang.RowInterval``), per-file
abstract frames, canonical sets of pairwise non-overlapping frames, and the
source abstraction that pairs a frame set with a taint flag and a
positional-alignment flag.  No interval or frame is empty: an empty frame
is one absent from its set, and ``row_meet``, ``row_unindex``, ``df_meet``
and ``df_constrain`` return ``None`` for an empty result.

Symbolic bounds make comparisons three-valued.  Unknown comparisons are
resolved conservatively: overlap tests answer "may overlap", join bounds
widen to the enclosing hull (0 below, infinity above), and meet bounds
keep either operand (both soundly over-approximate an intersection).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lang import INF, RowExpr, RowInterval, expr_add, expr_le, expr_lt, expr_sub


class DomainError(Exception):
    """Misuse of a domain operation (e.g. join across different files)."""


class EnumerationError(DomainError):
    """Concretization was asked to enumerate a symbolic or infinite interval."""


# ---------------------------------------------------------------------------
# Columns
# ---------------------------------------------------------------------------

def col_leq(a: frozenset[str] | None, b: frozenset[str] | None) -> bool:
    if b is None:
        return True
    if a is None:
        return False
    return a <= b


def col_join(a: frozenset[str] | None, b: frozenset[str] | None) -> frozenset[str] | None:
    if a is None or b is None:
        return None
    return a | b


def col_meet(a: frozenset[str] | None, b: frozenset[str] | None) -> frozenset[str] | None:
    if b is None:
        return a
    if a is None:
        return b
    return a & b


# ---------------------------------------------------------------------------
# Row intervals
# ---------------------------------------------------------------------------

TOP_ROWS = RowInterval(RowExpr.const(0), INF)


def rows(lo, hi) -> RowInterval:
    """Convenience constructor accepting ints, symbol names, RowExprs or inf."""
    def conv(x):
        if isinstance(x, RowExpr):
            return x
        if isinstance(x, int):
            return RowExpr.const(x)
        if x == "inf":
            return INF
        return RowExpr.symbol(x)
    return RowInterval(conv(lo), conv(hi))


def _min_expr(a: RowExpr, b: RowExpr, unknown: RowExpr) -> RowExpr:
    if expr_le(a, b) is True:
        return a
    if expr_le(b, a) is True:
        return b
    return unknown


def _max_expr(a: RowExpr, b: RowExpr, unknown: RowExpr) -> RowExpr:
    if expr_le(b, a) is True:
        return a
    if expr_le(a, b) is True:
        return b
    return unknown


def row_leq(a: RowInterval, b: RowInterval) -> bool:
    """Definite containment; unknown comparisons count as not contained."""
    return expr_le(b.lo, a.lo) is True and expr_le(a.hi, b.hi) is True


def _floor(e: RowExpr) -> int:
    """Smallest value the position can take under admissible valuations."""
    return e.offset if e.sym is None else max(e.offset, 0)


def row_join(a: RowInterval, b: RowInterval) -> RowInterval:
    # When the lower bounds are incomparable, the tightest sound constant
    # is the smaller of their floors (not 0).
    hull_lo = RowExpr.const(min(_floor(a.lo), _floor(b.lo)))
    return RowInterval(
        _min_expr(a.lo, b.lo, hull_lo),
        _max_expr(a.hi, b.hi, INF),
    )


def row_disjoint(a: RowInterval, b: RowInterval) -> bool:
    """True only when the intervals provably share no index.  When no bound
    has a symbol, the offsets are compared as integers."""
    alo, ahi, blo, bhi = a.lo, a.hi, b.lo, b.hi
    if alo.sym is None and ahi.sym is None and blo.sym is None and bhi.sym is None:
        # The lower bounds are constants; the upper ones constants or inf.
        return ((not ahi.inf and ahi.offset < blo.offset)
                or (not bhi.inf and bhi.offset < alo.offset))
    return expr_lt(ahi, blo) is True or expr_lt(bhi, alo) is True


def _pick(a: RowExpr, b: RowExpr) -> RowExpr:
    """Deterministic order-insensitive choice between two sound candidates."""
    return min(a, b, key=str)


def row_meet(a: RowInterval, b: RowInterval) -> RowInterval | None:
    """An interval that contains every index both operands contain; None
    when the operands provably share no index."""
    if row_disjoint(a, b):
        return None
    # On unknown bound comparisons either operand's bound over-approximates
    # the exact intersection; pick one symmetrically.
    lo = _max_expr(a.lo, b.lo, _pick(a.lo, b.lo))
    hi = _min_expr(a.hi, b.hi, _pick(a.hi, b.hi))
    if expr_le(lo, hi) is False:
        # Incomparable pick made the pair contradictory; fall back to the hull.
        lo = _min_expr(a.lo, b.lo, RowExpr.const(0))
        hi = _max_expr(a.hi, b.hi, INF)
    return RowInterval(lo, hi)


def row_index(r: RowInterval) -> RowInterval:
    """The 0-based index interval of ``r``: [l,u] maps to [0, u-l]."""
    width = expr_sub(r.hi, r.lo)
    if width is None:
        width = INF
    return RowInterval(RowExpr.const(0), width)


def row_unindex(r: RowInterval, ij: RowInterval) -> RowInterval | None:
    """The sub-interval of ``r`` between positional indices ``ij``; None
    when it is empty, as when ``ij`` provably starts past the end of ``r``.

    ``ij`` is first met with ``row_index(r)``, so out-of-range indices are
    clipped rather than rejected.  When no bound of ``r`` or ``ij`` has a
    symbol, the same window is computed on integers, with no ``row_index``
    or ``row_meet`` intermediates.
    """
    lo, hi, i, j = r.lo, r.hi, ij.lo, ij.hi
    if lo.sym is None and hi.sym is None and i.sym is None and j.sym is None:
        # lo and i are constants; hi and j are constants or inf.
        if not hi.inf and hi.offset - lo.offset < i.offset:
            return None
        if not j.inf and (hi.inf or lo.offset + j.offset < hi.offset):
            hi = RowExpr.const(lo.offset + j.offset)
        return RowInterval(lo.shift(i.offset), hi)
    ij = row_meet(row_index(r), ij)
    if ij is None:
        return None
    lo = expr_add(r.lo, ij.lo)
    if lo is None or lo.inf:
        lo = r.lo
    hi = expr_add(r.lo, ij.hi)
    if hi is None:
        hi = r.hi
    else:
        hi = _min_expr(hi, r.hi, r.hi)
    if expr_le(lo, hi) is False:
        return r
    return RowInterval(lo, hi)


def row_contains(r: RowInterval, n: int) -> bool:
    """Definite membership of a concrete index."""
    e = RowExpr.const(n)
    return expr_le(r.lo, e) is True and expr_le(e, r.hi) is True


def gamma_rows(r: RowInterval) -> frozenset[int]:
    if r.hi.inf or not (r.lo.is_const and r.hi.is_const):
        raise EnumerationError(f"cannot enumerate {r}")
    return frozenset(range(r.lo.offset, r.hi.offset + 1))


# ---------------------------------------------------------------------------
# Abstract frames
# ---------------------------------------------------------------------------

@dataclass(frozen=True, init=False)
class AbsDataFrame:
    """Provenance triple: file name, column abstraction, row interval.

    Neither the column set nor the row interval is ever empty; an empty
    frame is encoded by absence from a set.
    """

    file: str
    cols: frozenset[str] | None  # None is top
    rows: RowInterval
    # The sort key and the hash, computed once; neither takes part in
    # ``==``, ``repr`` or ``dataclasses.replace``.  The hash is the one the
    # generated ``__hash__`` would give, so set iteration order is unchanged.
    _key: tuple = field(init=False, compare=False, repr=False)
    _hash: int = field(init=False, compare=False, repr=False)

    def __init__(self, file: str, cols: frozenset[str] | None, rows: RowInterval):
        # Filling the instance dictionary in one call costs less than the
        # generated frozen ``__init__`` and ``__post_init__`` setting each
        # field through ``object.__setattr__``.
        if cols is not None and not cols:
            raise ValueError("frame columns cannot be empty")
        key = (file, ("~top",) if cols is None else tuple(sorted(cols)),
               str(rows.lo), str(rows.hi))
        self.__dict__.update(file=file, cols=cols, rows=rows, _key=key,
                             _hash=hash((file, cols, rows)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # String hashes differ between interpreters: a copy or an unpickled
        # frame recomputes its hash rather than carrying this one over.
        return (AbsDataFrame, (self.file, self.cols, self.rows))

    def __str__(self) -> str:
        cols = "T" if self.cols is None else "{" + ",".join(sorted(self.cols)) + "}"
        return f"{self.file}^{cols}_{self.rows}"


def frame(file: str, cols=None, lo=0, hi="inf") -> AbsDataFrame:
    return AbsDataFrame(file, None if cols is None else frozenset(cols), rows(lo, hi))


def df_leq(a: AbsDataFrame, b: AbsDataFrame) -> bool:
    return a.file == b.file and col_leq(a.cols, b.cols) and row_leq(a.rows, b.rows)


def df_overlap(a: AbsDataFrame, b: AbsDataFrame) -> bool:
    """May-overlap: false only when frames provably share no cell."""
    if a.file != b.file:
        return False
    # A frame's columns are never empty, so the meet is empty only when
    # both sets are finite and share no label.
    ac, bc = a.cols, b.cols
    if ac is not None and bc is not None and ac.isdisjoint(bc):
        return False
    return not row_disjoint(a.rows, b.rows)


def df_join(a: AbsDataFrame, b: AbsDataFrame) -> AbsDataFrame:
    if a.file != b.file:
        raise DomainError(f"join across files {a.file!r} and {b.file!r}")
    return AbsDataFrame(a.file, col_join(a.cols, b.cols), row_join(a.rows, b.rows))


def df_meet(a: AbsDataFrame, b: AbsDataFrame) -> AbsDataFrame | None:
    """Componentwise meet; None when the result is empty."""
    if a.file != b.file:
        raise DomainError(f"meet across files {a.file!r} and {b.file!r}")
    cols = col_meet(a.cols, b.cols)
    rows_ = row_meet(a.rows, b.rows)
    if (cols is not None and not cols) or rows_ is None:
        return None
    return AbsDataFrame(a.file, cols, rows_)


def df_constrain(a: AbsDataFrame, c: frozenset[str] | None,
                 ij: RowInterval) -> AbsDataFrame | None:
    """Restrict to the given columns and positional index window; None when
    the restriction is empty."""
    cols = col_meet(a.cols, c)
    if cols is not None and not cols:
        return None
    rows_ = row_unindex(a.rows, ij)
    if rows_ is None:
        return None
    return AbsDataFrame(a.file, cols, rows_)


# ---------------------------------------------------------------------------
# Canonical frame sets
# ---------------------------------------------------------------------------

def _frame_key(f: AbsDataFrame):
    return f._key


def ordered_frames(frames) -> tuple[AbsDataFrame, ...]:
    return tuple(sorted(frames, key=_frame_key))


def set_reduce(frames, parts=()) -> frozenset[AbsDataFrame]:
    """Join overlapping frames until the set is canonical.

    A set of at most one frame is canonical already and is returned as it
    is.  Otherwise the frames are inserted one at a time in
    ``ordered_frames`` order.  A frame that overlaps a kept one absorbs it,
    and the scan starts over: the join may overlap kept frames that neither
    operand did.  Terminates because every join removes a kept frame.

    ``parts`` optionally lists canonical sets whose union is ``frames``.
    Two frames that are both unjoined members of one part are known not to
    overlap, so that test is skipped; the result is the same as without
    ``parts``.
    """
    if len(frames) <= 1:
        return frozenset(frames)
    kept: list[AbsDataFrame] = []
    # Per kept frame, a bit per part the frame is an unjoined member of.
    owners: list[int] = []
    for f in ordered_frames(frames):
        mine = 0
        for bit, part in enumerate(parts):
            if f in part:
                mine |= 1 << bit
        i = 0
        while i < len(kept):
            if not owners[i] & mine and df_overlap(kept[i], f):
                f = df_join(kept.pop(i), f)
                owners.pop(i)
                mine = 0
                i = 0
            else:
                i += 1
        kept.append(f)
        owners.append(mine)
    return frozenset(kept)


def is_canonical(frames) -> bool:
    fs = ordered_frames(frames)
    return all(
        not df_overlap(fs[i], fs[j])
        for i in range(len(fs))
        for j in range(i + 1, len(fs))
    )


def set_leq(a, b) -> bool:
    """Every frame of ``a`` lies below some frame of ``b``.  A frame that is
    also in ``b`` is covered by itself (``df_leq`` is reflexive)."""
    b = frozenset(b)
    return all(x in b or any(df_leq(x, y) for y in b) for x in a)


def set_join(a, b) -> frozenset[AbsDataFrame]:
    """The canonical set of ``a``'s and ``b``'s frames.

    Both operands must be canonical, as every ``SourceAbs.frames`` is: no
    two frames of one operand are tested for overlap until one of them has
    been joined.  The result is ``set_reduce(set(a) | set(b))``.  When no
    frame of one operand may overlap a frame of the other, that reduction
    joins nothing, so the union is returned without it: a join then costs
    one overlap test per pair of frames the operands do not share.  Every
    such pair is tested, so the number of tests does not depend on the
    iteration order of the sets.
    """
    a, b = frozenset(a), frozenset(b)
    only_b = b - a
    if not any([df_overlap(x, y) for x in a - b for y in only_b]):
        return a | b
    return set_reduce(a | b, (a, b))


def set_constrain(frames, c: frozenset[str] | None,
                  ij: RowInterval) -> frozenset[AbsDataFrame]:
    out = []
    for f in frames:
        g = df_constrain(f, c, ij)
        if g is not None:
            out.append(g)
    return set_reduce(out)


# ---------------------------------------------------------------------------
# Source abstraction (frame set + taint + alignment)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, init=False)
class SourceAbs:
    """A frame set with a taint flag and a positional-alignment flag (see
    ``interp``).  The string form and the JSON dump leave alignment out."""

    frames: frozenset[AbsDataFrame] = frozenset()
    tainted: bool = False
    aligned: bool = False
    # Computed once, as ``AbsDataFrame._hash`` is: cache keys, memo keys and
    # ``state_leq`` hash values many times per event.  It is the hash the
    # generated ``__hash__`` would give, so iteration orders are unchanged.
    _hash: int = field(init=False, compare=False, repr=False)

    def __init__(self, frames: frozenset[AbsDataFrame] = frozenset(),
                 tainted: bool = False, aligned: bool = False):
        self.__dict__.update(frames=frames, tainted=tainted, aligned=aligned,
                             _hash=hash((frames, tainted, aligned)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # As for ``AbsDataFrame``: a copy recomputes the hash.
        return (SourceAbs, (self.frames, self.tainted, self.aligned))

    def __str__(self) -> str:
        inner = ", ".join(str(f) for f in ordered_frames(self.frames))
        flag = "maybe-tainted" if self.tainted else "untainted"
        return f"<{{{inner}}}, {flag}>"


def src_leq(a: SourceAbs, b: SourceAbs) -> bool:
    """Frames and taint only: ``interp.state_leq`` compares alignment."""
    return set_leq(a.frames, b.frames) and a.tainted <= b.tainted


def src_join(a: SourceAbs, b: SourceAbs) -> SourceAbs:
    """The join is aligned only when both operands are aligned and equal."""
    if a == b:
        return a
    return SourceAbs(set_join(a.frames, b.frames), a.tainted or b.tainted)


def source_covers(a: SourceAbs, file: str, row: int) -> bool:
    """Definite membership of a concrete source cell in the concretization."""
    return any(f.file == file and row_contains(f.rows, row) for f in a.frames)


def gamma_source(a: SourceAbs) -> frozenset[tuple[str, int]]:
    """Concrete source cells; only defined for finite symbol-free frames.

    Neither the taint flag nor column abstractions contribute cells; they
    exist to steer the transfer functions.
    """
    cells: set[tuple[str, int]] = set()
    for f in a.frames:
        for r in gamma_rows(f.rows):
            cells.add((f.file, r))
    return frozenset(cells)


# ---------------------------------------------------------------------------
# Debug serialization
# ---------------------------------------------------------------------------

def frame_to_json(f: AbsDataFrame) -> dict:
    return {
        "file": f.file,
        "cols": "top" if f.cols is None else sorted(f.cols),
        "rows": [str(f.rows.lo), str(f.rows.hi)],
    }


def source_to_json(a: SourceAbs) -> dict:
    return {
        "sources": [frame_to_json(f) for f in ordered_frames(a.frames)],
        "tainted": a.tainted,
    }
