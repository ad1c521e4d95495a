"""AST, parser and pretty-printer for the small data-frame language.

A program is a sequence of statements in single-assignment form: reads from
named data files, row/column selections, merges of two or more frames
(concat/join: the oracle stacks or joins them left to right, and the
analyzer's value is one reduction of the union of their frames), unary
functions (normalize or anything else, which is treated as a plain per-row
transform), and train/test uses.
Row positions may be symbolic (an identifier plus an integer offset) so that
data-dependent split points like ``split+1`` stay representable.

The text format is line oriented (one statement per line, ``#`` comments);
the grammar is documented in docs/dfl.md.  A program is straight-line.
``Branch``, ``Loop`` and ``Phi`` are analyzer-internal control-flow nodes
that the notebook frontend emits into cells; they have no surface syntax,
and a ``Program`` holds none of them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


class DslError(Exception):
    """Base class for language-level errors."""


class ParseError(DslError):
    def __init__(self, msg: str, line: int):
        super().__init__(f"line {line}: {msg}")
        self.line = line


class SsaError(DslError):
    """A program assigns a variable more than once."""


class UndefinedVariableError(DslError):
    """A statement reads a variable that no earlier statement assigned."""


# ---------------------------------------------------------------------------
# Row expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RowExpr:
    """A natural-valued row position: a constant, ``sym+offset``, or infinity.

    Symbolic expressions denote naturals under every admissible valuation,
    i.e. valuations are restricted to ``sym + offset >= 0``.
    """

    offset: int = 0
    sym: str | None = None
    inf: bool = False

    def __post_init__(self):
        if self.inf:
            if self.sym is not None or self.offset != 0:
                raise ValueError("inf carries no symbol or offset")
        elif self.sym is None and self.offset < 0:
            raise ValueError(f"negative constant row position {self.offset}")

    @staticmethod
    def const(n: int) -> "RowExpr":
        return RowExpr(offset=n)

    @staticmethod
    def symbol(name: str, offset: int = 0) -> "RowExpr":
        return RowExpr(offset=offset, sym=name)

    @property
    def is_const(self) -> bool:
        return self.sym is None and not self.inf

    def shift(self, k: int) -> "RowExpr":
        """Add an integer to this position (undefined for infinity)."""
        if self.inf:
            raise ValueError("cannot shift inf")
        return RowExpr(offset=self.offset + k, sym=self.sym)

    def __str__(self) -> str:
        if self.inf:
            return "inf"
        if self.sym is None:
            return str(self.offset)
        if self.offset == 0:
            return self.sym
        sign = "+" if self.offset > 0 else "-"
        return f"{self.sym} {sign} {abs(self.offset)}"


INF = RowExpr(inf=True)


def expr_le(a: RowExpr, b: RowExpr) -> bool | None:
    """Three-valued ``a <= b``: True/False when it holds/fails under every
    admissible valuation, None otherwise."""
    if a.inf:
        return b.inf
    if b.inf:
        return True
    if a.sym is None and b.sym is None:
        return a.offset <= b.offset
    if a.sym == b.sym:
        return a.offset <= b.offset
    if a.sym is None:
        # min over valuations of b is max(b.offset, 0)
        return True if a.offset <= max(b.offset, 0) else None
    if b.sym is None:
        # a exceeds any constant once its symbol grows, so only False is decidable
        return False if max(a.offset, 0) > b.offset else None
    return None


def expr_lt(a: RowExpr, b: RowExpr) -> bool | None:
    le = expr_le(b, a)
    if le is None:
        return None
    return not le


def expr_add(a: RowExpr, b: RowExpr) -> RowExpr | None:
    """Sum of two positions, or None when it is not representable
    (two distinct symbols)."""
    if a.inf or b.inf:
        return INF
    if a.sym is not None and b.sym is not None:
        return None
    if a.sym is not None:
        return a.shift(b.offset)
    return b.shift(a.offset)


def expr_sub(a: RowExpr, b: RowExpr) -> RowExpr | None:
    """Difference ``a - b`` when representable and provably natural."""
    if b.inf:
        return None
    if a.inf:
        return INF
    if a.sym == b.sym:
        d = a.offset - b.offset
        return RowExpr.const(d) if d >= 0 else None
    if b.sym is None:
        # (sym + o) - c keeps the symbol; admissible because a >= b held
        return RowExpr(offset=a.offset - b.offset, sym=a.sym)
    return None


@dataclass(frozen=True)
class RowInterval:
    """Non-empty inclusive interval ``[lo, hi]`` of row positions.

    A ``Select`` uses it as its range selector ``lo .. hi``; the analyzer's
    frames use it for the rows they cover.  No interval denotes no rows:
    an operation whose result may be empty returns ``None`` instead."""

    lo: RowExpr
    hi: RowExpr

    def __post_init__(self):
        if type(self.lo) is not RowExpr:
            raise ValueError("lower bound is missing" if self.lo is None
                             else f"lower bound {self.lo!r} is not a RowExpr")
        if type(self.hi) is not RowExpr:
            raise ValueError("upper bound is missing" if self.hi is None
                             else f"upper bound {self.hi!r} is not a RowExpr")
        if self.lo.inf:
            raise ValueError("lower bound cannot be inf")
        if expr_le(self.lo, self.hi) is False:
            raise ValueError(f"interval [{self.lo}, {self.hi}] is provably empty")

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RowList:
    items: tuple[RowExpr, ...]


RowSelector = RowList | RowInterval


@dataclass(frozen=True)
class Read:
    target: str
    file: str
    site: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Select:
    target: str
    source: str
    rows: RowSelector | None = None      # None selects all rows
    cols: frozenset[str] | None = None   # None selects all columns
    site: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Merge:
    """Two or more sources merged left to right: concat stacks their rows,
    join matches them.  The abstract value does not depend on the order:
    it is one reduction of the union of the sources' frames."""

    target: str
    op: str  # "concat" | "join"
    sources: tuple[str, ...]
    site: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.op not in ("concat", "join"):
            raise ValueError(f"unknown merge op {self.op!r}")
        if len(self.sources) < 2:
            raise ValueError(f"a merge needs two or more sources, got {self.sources!r}")


NORMALIZE = "normalize"


@dataclass(frozen=True)
class Apply:
    """Unary function application; ``fn == "normalize"`` taints, anything
    else is a non-tainting per-row transform."""

    target: str
    fn: str
    source: str
    site: str | None = field(default=None, compare=False)

    @property
    def is_normalize(self) -> bool:
        return self.fn == NORMALIZE


@dataclass(frozen=True)
class Use:
    kind: str  # "train" | "test"
    args: tuple[str, ...]
    site: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in ("train", "test"):
            raise ValueError(f"unknown use kind {self.kind!r}")


@dataclass(frozen=True)
class Branch:
    """Analyzer-internal: alternative statement sequences joined at exit."""

    arms: tuple[tuple["Statement", ...], ...]
    site: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Loop:
    """Analyzer-internal: a body iterated zero or more times; the body may
    rebind its own targets between iterations."""

    body: tuple["Statement", ...]
    site: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Phi:
    """Analyzer-internal: bind target to the join of the bound sources."""

    target: str
    sources: tuple[str, ...]
    site: str | None = field(default=None, compare=False)


Statement = Read | Select | Merge | Apply | Use | Branch | Loop | Phi


def stmt_target(s: Statement) -> str | None:
    if isinstance(s, (Read, Select, Merge, Apply, Phi)):
        return s.target
    return None


def stmt_sources(s: Statement) -> tuple[str, ...]:
    if isinstance(s, Select):
        return (s.source,)
    if isinstance(s, Apply):
        return (s.source,)
    if isinstance(s, Use):
        return s.args
    if isinstance(s, (Merge, Phi)):
        return s.sources
    return ()


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Program:
    """A straight-line sequence of ``Read``, ``Select``, ``Merge``,
    ``Apply`` and ``Use`` statements."""

    statements: tuple[Statement, ...]

    def __post_init__(self):
        defined: set[str] = set()
        for s in self.statements:
            if not isinstance(s, (Read, Select, Merge, Apply, Use)):
                raise DslError(f"{type(s).__name__} is not a program statement")
            for v in stmt_sources(s):
                if v not in defined:
                    raise UndefinedVariableError(
                        f"use of undefined variable {v!r} (at {s.site or '?'})")
            t = stmt_target(s)
            if t is not None:
                if t in defined:
                    raise SsaError(f"variable {t!r} assigned more than once (at {s.site or '?'})")
                defined.add(t)

    def __str__(self) -> str:
        return program_text(self)


def input_sources(p: Program) -> frozenset[str]:
    """All data file names read by the program."""
    return frozenset(s.file for s in p.statements if isinstance(s, Read))


def stmt_uses(s: Statement) -> tuple[Use, ...]:
    """The train/test uses a statement contains at any depth, in order."""
    if isinstance(s, Use):
        return (s,)
    if isinstance(s, Branch):
        return tuple(u for arm in s.arms for x in arm for u in stmt_uses(x))
    if isinstance(s, Loop):
        return tuple(u for x in s.body for u in stmt_uses(x))
    return ()


def used_vars(p: Program) -> tuple[frozenset[str], frozenset[str]]:
    """Variables passed to train uses and to test uses, respectively."""
    train: set[str] = set()
    test: set[str] = set()
    for s in p.statements:
        if isinstance(s, Use):
            (train if s.kind == "train" else test).update(s.args)
    return frozenset(train), frozenset(test)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_NAME = r"[A-Za-z_]\w*"
_READ_RE = re.compile(rf'^({_NAME})\s*=\s*read\(\s*"([^"]*)"\s*\)\s*$')
_MERGE_RE = re.compile(
    rf"^({_NAME})\s*=\s*(concat|join)\(\s*({_NAME}(?:\s*,\s*{_NAME})+)\s*\)\s*$")
_APPLY_RE = re.compile(rf"^({_NAME})\s*=\s*({_NAME})\(\s*({_NAME})\s*\)\s*$")
_USE_RE = re.compile(rf"^(train|test)\(\s*({_NAME}(?:\s*,\s*{_NAME})*)\s*\)\s*$")
_ROWEXPR_RE = re.compile(rf"^\s*(?:(\d+)|inf|({_NAME})(?:\s*([+-])\s*(\d+))?)\s*$")

_RESERVED = {"read", "concat", "join", "train", "test", "select"}


def _strip_comment(line: str) -> str:
    out = []
    in_str = False
    for ch in line:
        if ch == '"':
            in_str = not in_str
        if ch == "#" and not in_str:
            break
        out.append(ch)
    return "".join(out).strip()


def _parse_row_expr(text: str, lineno: int) -> RowExpr:
    m = _ROWEXPR_RE.match(text)
    if not m:
        raise ParseError(f"bad row expression {text.strip()!r}", lineno)
    if m.group(1) is not None:
        return RowExpr.const(int(m.group(1)))
    if m.group(2) is None:
        return INF
    off = int(m.group(4)) if m.group(4) else 0
    if m.group(3) == "-":
        off = -off
    return RowExpr.symbol(m.group(2), off)


def _parse_rows(text: str, lineno: int) -> RowSelector | None:
    text = text.strip()
    if not text:
        return None
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError("row selector must be a [..] array", lineno)
    inner = text[1:-1].strip()
    if not inner:
        return RowList(())
    if ".." in inner:
        lo_s, _, hi_s = inner.partition("..")
        lo = _parse_row_expr(lo_s, lineno)
        hi = _parse_row_expr(hi_s, lineno)
        try:
            return RowInterval(lo, hi)
        except ValueError as e:
            raise ParseError(str(e), lineno) from None
    items = tuple(_parse_row_expr(part, lineno) for part in inner.split(","))
    if any(it.inf for it in items):
        raise ParseError("explicit row lists cannot contain inf", lineno)
    return RowList(items)


def _parse_cols(text: str, lineno: int) -> frozenset[str] | None:
    text = text.strip()
    if not text:
        return None
    if text.startswith("{") and text.endswith("}"):
        text = text[1:-1]
    names = re.findall(r'"([^"]*)"', text)
    if not names:
        raise ParseError("column selector must list quoted names", lineno)
    return frozenset(names)


def _match_select(line: str, lineno: int) -> Select | None:
    head, sep, rest = line.partition(".select")
    if not sep:
        return None
    m = re.match(rf"^({_NAME})\s*=\s*({_NAME})\s*$", head)
    if not m:
        raise ParseError("malformed select statement", lineno)
    groups = []
    depth = 0
    start = None
    for i, ch in enumerate(rest):
        if ch == "[":
            if depth == 0:
                start = i
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced brackets in select", lineno)
            if depth == 0:
                groups.append(rest[start + 1:i])
        elif depth == 0 and not ch.isspace():
            raise ParseError(f"unexpected {ch!r} in select", lineno)
    if depth != 0 or len(groups) != 2:
        raise ParseError("select needs a row group and a column group", lineno)
    return Select(
        target=m.group(1),
        source=m.group(2),
        rows=_parse_rows(groups[0], lineno),
        cols=_parse_cols(groups[1], lineno),
        site=f"line {lineno}",
    )


def parse_program(text: str) -> Program:
    """Parse program text; rejects syntax errors, double assignment, and
    reads of never-assigned variables."""
    stmts: list[Statement] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        site = f"line {lineno}"
        if (m := _READ_RE.match(line)):
            stmts.append(Read(m.group(1), m.group(2), site=site))
            continue
        if ".select" in line:
            sel = _match_select(line, lineno)
            if sel is not None:
                stmts.append(sel)
                continue
        if (m := _MERGE_RE.match(line)):
            sources = tuple(a.strip() for a in m.group(3).split(","))
            stmts.append(Merge(m.group(1), m.group(2), sources, site=site))
            continue
        if (m := _USE_RE.match(line)):
            args = tuple(a.strip() for a in m.group(2).split(","))
            stmts.append(Use(m.group(1), args, site=site))
            continue
        if (m := _APPLY_RE.match(line)):
            fn = m.group(2)
            if fn in _RESERVED:
                raise ParseError(f"malformed {fn} statement", lineno)
            stmts.append(Apply(m.group(1), fn, m.group(3), site=site))
            continue
        raise ParseError(f"unrecognized statement {line!r}", lineno)
    return Program(tuple(stmts))


# ---------------------------------------------------------------------------
# Pretty-printer
# ---------------------------------------------------------------------------

def stmt_text(s: Statement) -> str:
    if isinstance(s, Read):
        return f'{s.target} = read("{s.file}")'
    if isinstance(s, Select):
        if s.rows is None:
            rows = ""
        elif isinstance(s.rows, RowList):
            rows = "[" + ", ".join(str(e) for e in s.rows.items) + "]"
        else:
            rows = f"[{s.rows.lo} .. {s.rows.hi}]"
        cols = "" if s.cols is None else "{" + ", ".join(f'"{c}"' for c in sorted(s.cols)) + "}"
        return f"{s.target} = {s.source}.select[{rows}][{cols}]"
    if isinstance(s, Merge):
        return f"{s.target} = {s.op}({', '.join(s.sources)})"
    if isinstance(s, Apply):
        return f"{s.target} = {s.fn}({s.source})"
    if isinstance(s, Use):
        return f"{s.kind}({', '.join(s.args)})"
    if isinstance(s, Branch):
        arms = " | ".join("; ".join(stmt_text(x) for x in arm) for arm in s.arms)
        return f"<branch {arms}>"
    if isinstance(s, Loop):
        return "<loop " + "; ".join(stmt_text(x) for x in s.body) + ">"
    if isinstance(s, Phi):
        return f"<{s.target} = phi({', '.join(s.sources)})>"
    raise TypeError(f"not a statement: {s!r}")


def program_text(p: Program) -> str:
    return "\n".join(stmt_text(s) for s in p.statements)
