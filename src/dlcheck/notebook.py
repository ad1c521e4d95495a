"""Notebook ingestion: extracts code cells from nbformat-4 JSON, translates
a recognized pandas/sklearn call subset into analyzer statements via an
editable knowledge base, and computes each cell's precondition (the
data-frame variables it reads but does not define).

The translation is deliberately name based: a method is classified by its
name (and, when resolvable, its module), not by the receiver's type.  That
mirrors how lightweight notebook linters behave and is a known false
positive source (two libraries sharing a method name).

Assignments are renamed to single-assignment form (x, x', x''); the latest
version of each user variable that holds a frame is exported for inter-cell
propagation.
If/else bodies become alternative arms merged by the analyzer; for/while
bodies become fixpoint-iterated loop nodes, inside which renaming is
suspended so a later iteration reads the previous one's bindings.
"""

from __future__ import annotations

import ast
import functools
import json
from dataclasses import dataclass, field
from importlib import resources

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
    RowList,
    Select,
    Statement,
    Use,
    stmt_sources,
)


class NotebookError(Exception):
    """The notebook file itself could not be digested."""


# ---------------------------------------------------------------------------
# Knowledge base
# ---------------------------------------------------------------------------

KB_CLASSES = {
    "source", "select", "merge_concat", "merge_join",
    "normalize", "other", "train", "test", "split",
}


@dataclass(frozen=True)
class KnowledgeBase:
    """(namespace, function) -> statement class.

    Namespaces: a module path ("pandas", "sklearn.preprocessing"), "df" for
    data-frame methods, or "*" for match-by-name-only.  Lookup tries the
    call's one namespace (see ``_Translator.callee``) and falls back to "*".
    """

    entries: dict[tuple[str, str], str]

    @staticmethod
    def load(path=None) -> "KnowledgeBase":
        if path is None:
            data = json.loads(resources.files("dlcheck").joinpath("kb.json").read_text())
        else:
            try:
                with open(path, encoding="utf-8") as fh:
                    data = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as e:
                raise NotebookError(f"knowledge base {path}: {e}") from None
        if not isinstance(data, dict) or not isinstance(data.get("entries"), list):
            raise NotebookError("knowledge base: 'entries' is missing or not a list")
        entries = {}
        for i, e in enumerate(data["entries"]):
            if not isinstance(e, dict):
                raise NotebookError(f"knowledge base entries[{i}] is not an object")
            for key in ("namespace", "function", "class"):
                if not isinstance(e.get(key), str):
                    raise NotebookError(f"knowledge base entries[{i}]: "
                                        f"{key!r} is missing or not a string")
            cls = e["class"]
            if cls not in KB_CLASSES:
                raise NotebookError(f"knowledge base entries[{i}]: "
                                    f"unknown class {cls!r}")
            entries[(e["namespace"], e["function"])] = cls
        return KnowledgeBase(entries)

    def lookup(self, namespace: str | None,
               function: str) -> tuple[str, str | None]:
        """The statement class and the namespace the match came from:
        ``namespace``'s entry, else the "*" entry, else ("unknown", None)."""
        cls = self.entries.get((namespace, function))
        if cls is not None:
            return cls, namespace
        cls = self.entries.get(("*", function))
        if cls is not None:
            return cls, "*"
        return "unknown", None


@functools.cache
def default_kb() -> KnowledgeBase:
    return KnowledgeBase.load()


# ---------------------------------------------------------------------------
# Cell IR
# ---------------------------------------------------------------------------

@dataclass(frozen=True, init=False)
class CellIR:
    id: int
    source: str
    statements: tuple[Statement, ...]
    precondition: frozenset[str]
    exports: tuple[tuple[str, str], ...]  # (user name, final renamed name)
    warnings: tuple[str, ...]
    # What ``Notebook``'s relevance index reads off the statements: whether
    # they hold a use, the variables the cell writes, and the variables
    # whose incoming binding its run may read (see ``_cell_facts``).  The
    # translator passes those of the walk that found the precondition;
    # otherwise they are found from the fields above.
    facts: tuple[bool, frozenset[str], frozenset[str]] = field(
        init=False, repr=False, compare=False)

    def __init__(self, id, source, statements, precondition, exports, warnings,
                 facts=None):
        # Every translated cell makes one: filling the instance dictionary
        # in one call costs half of what the generated frozen ``__init__``
        # does, field by field through ``object.__setattr__``.
        if facts is None:
            facts = _cell_facts(statements, exports, precondition)[1]
        self.__dict__.update(
            id=id, source=source, statements=statements,
            precondition=precondition, exports=exports, warnings=warnings,
            facts=facts)


@dataclass(frozen=True)
class Notebook:
    cells: tuple[CellIR, ...]
    warnings: tuple[str, ...] = ()
    # The engine's successor index, built with the notebook so that no
    # notebook event pays for it: each variable -> the positions (in
    # ``cells``) of the relevant cells whose precondition names it, and the
    # positions of the relevant cells.
    readers: dict[str, list[int]] = field(
        init=False, repr=False, compare=False)
    relevant: frozenset[int] = field(
        init=False, repr=False, compare=False)
    # Each cell by its id, and the cells' translation warnings, each
    # prefixed with its cell, in cell order.
    by_id: dict[int, CellIR] = field(init=False, repr=False, compare=False)
    cell_warnings: tuple[str, ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        writers: dict[str, list[int]] = {}
        work: list[int] = []
        for i, c in enumerate(self.cells):
            has_use, writes, _ = c.facts
            if has_use:
                work.append(i)
            for v in writes:
                writers.setdefault(v, []).append(i)
        # Relevant cells: those holding a use, then, to a fixpoint, every
        # cell that writes a variable a relevant cell's run may read.
        relevant: set[int] = set()
        while work:
            i = work.pop()
            if i not in relevant:
                relevant.add(i)
                work.extend(j for v in self.cells[i].facts[2]
                            for j in writers.get(v, ()))
        readers: dict[str, list[int]] = {}
        for i in sorted(relevant):
            for v in self.cells[i].precondition:
                readers.setdefault(v, []).append(i)
        object.__setattr__(self, "readers", readers)
        object.__setattr__(self, "relevant", frozenset(relevant))
        object.__setattr__(self, "by_id", {c.id: c for c in self.cells})
        object.__setattr__(self, "cell_warnings", tuple(
            f"cell {c.id}: {w}" for c in self.cells for w in c.warnings))


def _walk(stmts, nested: bool, defined: set[str], pre: set[str],
          inputs: set[str]) -> bool:
    """Whether the statements hold a train/test use, at any depth.  Adds to
    ``pre`` each variable read while not in ``defined`` (an arm sees only
    what was defined before its branch), and to ``defined`` each variable
    the statements assign, at any depth.  Adds to ``inputs`` those whose
    incoming binding their run may read besides the precondition: each
    variable assigned in a branch arm or loop body (the analysis joins the
    incoming binding in) and each use's argument (a later use's leak check
    looks it up again)."""
    has_use = False
    for s in stmts:
        kind = type(s)
        if kind is Branch:
            before = set(defined)
            for arm in s.arms:
                arm_defined = set(before)
                has_use |= _walk(arm, True, arm_defined, pre, inputs)
                defined |= arm_defined
        elif kind is Loop:
            has_use |= _walk(s.body, True, defined, pre, inputs)
        else:
            for v in stmt_sources(s):
                if v not in defined:
                    pre.add(v)
            if kind is Use:
                inputs.update(s.args)
                has_use = True
            else:
                defined.add(s.target)
                if nested:
                    inputs.add(s.target)
    return has_use


def _cell_facts(statements, exports, precondition=None):
    """The statements' precondition, or ``precondition`` when given, and
    the cell's ``CellIR.facts``, from one walk.  A cell writes what it
    assigns and each export whose final name differs from its base; its
    run may read its precondition and the walk's inputs."""
    defined: set[str] = set()
    pre: set[str] = set()
    inputs: set[str] = set()
    has_use = _walk(statements, False, defined, pre, inputs)
    if precondition is None:
        precondition = frozenset(pre)
    for base, final in exports:
        if base != final:
            defined.add(base)
    reads = precondition.union(inputs) if inputs else precondition
    return precondition, (has_use, frozenset(defined), reads)


# ---------------------------------------------------------------------------
# Translation
# ---------------------------------------------------------------------------

_MAX_INLINE_DEPTH = 8


def _record_import(node: ast.Import | ast.ImportFrom, imports: dict[str, str]):
    """Record in ``imports`` the dotted path of each name the import binds,
    as Python binds it: ``import a.b`` binds ``a`` to ``a``, ``import a.b
    as c`` binds ``c`` to ``a.b``, and ``from m import f`` binds ``f`` to
    ``m.f``."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            imports[name] = alias.name if alias.asname else name
    else:
        for alias in node.names:
            imports[alias.asname or alias.name] = f"{node.module or ''}.{alias.name}"


class _Translator:
    """Translates one cell.  Each scope (the cell, an inlined call) has three
    name maps: ``cur`` binds each name the scope assigns to its frame's
    renamed name, or to None when it holds no frame; ``defs`` holds the
    function definitions and ``imports`` each imported name's dotted path."""

    def __init__(self, kb: KnowledgeBase, defs, cell_id: int, imports):
        self.kb = kb
        # The caller's definition and import maps are shared: a definition
        # or an import in the cell replaces its map with an updated copy.
        self.defs = defs
        self.imports: dict[str, str] = imports
        self.cell_id = cell_id
        self.stmts: list[Statement] = []
        self.warnings: list[str] = []
        self.cur: dict[str, str | None] = {}   # user name -> frame's renamed name
        self.versions: dict[str, int] = {}     # user name -> next version number
        self.bound_syms: dict[str, str] = {}   # expression text -> symbol name
        self.temps = 0
        self.symbols = 0
        self.site_idx = 0
        self.loop_depth = 0
        self.inline_stack: list[str] = []

    # -- naming -------------------------------------------------------------

    def warn(self, msg: str):
        self.warnings.append(msg)

    def fresh_temp(self) -> str:
        self.temps += 1
        return f"_t{self.temps - 1}"

    def fresh_symbol(self) -> str:
        self.symbols += 1
        return f"_s{self.symbols - 1}"

    def assign_name(self, base: str, env: dict[str, str | None]) -> str:
        """The next renamed name of ``base``, made its binding in ``env``
        (the current names of the scope the assignment is in)."""
        if self.loop_depth and env.get(base) is not None:
            return env[base]  # rebind a frame in place inside loops
        v = self.versions.get(base, 0)
        self.versions[base] = v + 1
        name = base + "'" * v
        env[base] = name
        return name

    def emit(self, stmt, *args, **kwargs):
        """Append ``stmt(*args, **kwargs)`` at the next site of the cell."""
        self.stmts.append(
            stmt(*args, site=f"cell {self.cell_id}[{self.site_idx}]", **kwargs))
        self.site_idx += 1

    def define(self, target: tuple[str, dict] | None, stmt, *args,
               **kwargs) -> str:
        """Emit ``stmt(out, *args, **kwargs)`` binding the frame-valued
        result to a fresh temporary, or, when ``target`` is a user name
        and the scope it is assigned in, to the name's next version; returns
        the bound name.  The version is taken here, after the operands are
        translated, so that ``x = f(x)`` reads the previous one."""
        out = self.fresh_temp() if target is None else self.assign_name(*target)
        # ``emit``, inlined: most statements a cell emits come through here.
        self.stmts.append(
            stmt(out, *args, site=f"cell {self.cell_id}[{self.site_idx}]", **kwargs))
        self.site_idx += 1
        return out

    # -- helpers ------------------------------------------------------------

    def resolve(self, node) -> str | None:
        """The dotted path ``node`` names: an imported name that no variable
        of the scope shadows, or an attribute of such a path."""
        kind = type(node)
        if kind is ast.Name:
            return None if node.id in self.cur else self.imports.get(node.id)
        if kind is ast.Attribute:
            path = self.resolve(node.value)
            return None if path is None else f"{path}.{node.attr}"
        return None

    def callee(self, func) -> tuple[str | None, str | None, ast.expr | None]:
        """(function name, knowledge-base namespace, receiver) of a call's
        ``func``.  The namespace is the module part of an imported path
        (``m.f``, ``from m import f``), "df" for a method of any other
        receiver, and None for a bare name; the name is None when ``func``
        is no name."""
        path = self.resolve(func)
        if path is not None:
            ns, _, fn = path.rpartition(".")
            return fn, ns, None
        if type(func) is ast.Attribute:
            return func.attr, "df", func.value
        if type(func) is ast.Name:
            return func.id, None, None
        return None, None, None

    def df_args(self, call: ast.Call) -> list[str]:
        """Renamed names of the call's positional data-frame arguments,
        flattening a single list/tuple literal."""
        out = []
        args = call.args
        if len(args) == 1 and type(args[0]) in (ast.List, ast.Tuple):
            args = args[0].elts
        for a in args:
            if type(a) is not ast.Constant:
                v = self.eval_expr(a, allow_unbound_df=True)
                if v is not None:
                    out.append(v)
        return out

    def row_bound(self, node) -> RowExpr | None:
        """Row position of a slice bound; None when not representable."""
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return RowExpr.const(node.value) if node.value >= 0 else None
        if isinstance(node, ast.Name) and node.id not in self.cur:
            return RowExpr.symbol(node.id)
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)) \
                and isinstance(node.right, ast.Constant) \
                and isinstance(node.right.value, int):
            base = self.row_bound(node.left)
            if base is not None and not base.inf:
                k = node.right.value
                return base.shift(k if isinstance(node.op, ast.Add) else -k)
        # Anything richer is bound to a fresh symbol, one per distinct
        # expression text within the cell.
        text = ast.dump(node)
        if text not in self.bound_syms:
            self.bound_syms[text] = self.fresh_symbol()
        return RowExpr.symbol(self.bound_syms[text])

    def subscript_selector(self, sl, accessor: str) -> tuple:
        """(rows, cols, ok) interpretation of a subscript on a frame.

        For ``iloc`` (and ``loc`` on the default integer index) scalar and
        list subscripts are row positions; for plain ``[]`` they are column
        labels, so only string forms select columns and everything else
        keeps the whole frame.
        """
        positional = accessor in ("iloc", "loc")
        if isinstance(sl, ast.Tuple) and sl.elts:
            rows, _, ok = self.subscript_selector(sl.elts[0], accessor)
            cols = None
            if len(sl.elts) > 1:
                _, cols, ok2 = self.subscript_selector(sl.elts[1], accessor)
                ok = ok and ok2
            return rows, cols, ok
        if isinstance(sl, ast.Slice):
            if sl.step is not None:
                return None, None, False
            lo = self.row_bound(sl.lower) if sl.lower is not None else RowExpr.const(0)
            hi = self.row_bound(sl.upper) if sl.upper is not None else INF
            if lo is None or hi is None:
                return None, None, False
            try:
                return RowInterval(lo, hi), None, True
            except ValueError:
                return None, None, False
        if isinstance(sl, ast.Constant):
            if isinstance(sl.value, str):
                return None, frozenset({sl.value}), True
            if positional and isinstance(sl.value, int) and sl.value >= 0:
                return RowList((RowExpr.const(sl.value),)), None, True
            return None, None, False
        if isinstance(sl, ast.List):
            if all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                   for e in sl.elts):
                return None, frozenset(e.value for e in sl.elts), True
            if positional:
                items = [self.row_bound(e) for e in sl.elts]
                if all(it is not None and not it.inf for it in items):
                    return RowList(tuple(items)), None, True
            return None, None, False
        if positional and isinstance(sl, ast.Name) and sl.id not in self.cur:
            return RowList((RowExpr.symbol(sl.id),)), None, True
        return None, None, False

    # -- expressions ----------------------------------------------------------

    def eval_expr(self, node, target: tuple[str, dict] | None = None,
                  allow_unbound_df: bool = False) -> str | None:
        """Translate an expression; returns the renamed variable holding its
        value when it is data-frame shaped, else None.  ``target`` is the
        user name and scope (see ``define``) that the outermost emitted
        statement binds."""
        kind = type(node)
        if kind is ast.Name:
            name = node.id
            if name in self.cur or not allow_unbound_df:
                return self.cur.get(name)
            # Unbound: the user name itself becomes the current binding (it
            # will resolve against an earlier cell) and is reserved so that a
            # later assignment in this cell gets a fresh version.
            self.versions.setdefault(name, 1)
            self.cur[name] = name
            return name

        if kind is ast.Call:
            return self.eval_call(node, target)

        if kind is ast.Subscript:
            return self.eval_subscript(node, target)

        if kind is ast.Attribute:
            # df.values, df.T and friends: per-row views of the same data.
            # Only known frame accessors may pull in an unbound receiver;
            # arbitrary attribute reads would turn models into frames.
            if self.resolve(node) is not None:
                return None
            known = self.kb.lookup("df", node.attr)[1] == "df"
            recv = self.eval_expr(node.value, allow_unbound_df=known)
            if recv is not None:
                return self.define(target, Apply, node.attr, recv)
            return None

        if kind is ast.BinOp or kind is ast.IfExp:
            # Two frame operands concatenate; one passes through an opaque
            # per-row transform.
            binop = kind is ast.BinOp
            parts = (node.left, node.right) if binop else (node.body, node.orelse)
            vals = [self.eval_expr(p, allow_unbound_df=allow_unbound_df)
                    for p in parts]
            dfs = [v for v in vals if v is not None]
            if not dfs:
                return None
            return self.chain(dfs, target, "arith" if binop else "pick")

        return None

    def eval_subscript(self, node: ast.Subscript, target=None) -> str | None:
        base = node.value
        accessor = "__getitem__"
        if type(base) is ast.Attribute and base.attr in ("iloc", "loc"):
            accessor = base.attr
            base = base.value
        recv = self.eval_expr(base, allow_unbound_df=True)
        if recv is None:
            return None
        if self.kb.lookup("df", accessor)[0] != "select":
            return self.define(target, Apply, accessor, recv)
        rows, cols, ok = self.subscript_selector(node.slice, accessor)
        if not ok:
            self.warn(f"opaque subscript on {recv!r}; keeping all rows")
        return self.define(target, Select, recv, rows=rows, cols=cols)

    def eval_call(self, node: ast.Call, target=None) -> str | None:
        func = node.func
        if type(func) is ast.Name and func.id in self.defs:
            return self.inline_call(func.id, node, target)
        fn, ns, recv_node = self.callee(func)
        if fn is None:
            return None
        cls, matched_ns = self.kb.lookup(ns, fn)

        # A method receiver may be an unbound frame from an earlier cell only
        # when the knowledge base declares the method on frames; receivers of
        # name-only matches (fit, predict, transform, ...) are models and
        # scalers, never data.
        recv_df = None if recv_node is None else self.eval_expr(
            recv_node, allow_unbound_df=(matched_ns == "df"))

        if cls == "source":
            file = None
            if node.args and isinstance(node.args[0], ast.Constant) \
                    and isinstance(node.args[0].value, str):
                file = node.args[0].value
            if file is None:
                file = f"<{fn}:cell{self.cell_id}:{self.site_idx}>"
                self.warn(f"non-constant file name in {fn}; using {file}")
            return self.define(target, Read, file)

        if cls == "select":
            # drop() and other row/column complements: the removed part is
            # unknown, so keep the whole frame.
            src = recv_df if recv_df is not None else next(
                iter(self.df_args(node)), None)
            if src is None:
                return None
            return self.define(target, Select, src, rows=None, cols=None)

        if cls == "split":
            # Only meaningful under a tuple assignment; handled there.
            return None

        operands = ([recv_df] if recv_df else []) + self.df_args(node)
        if cls == "other":
            return self.chain(operands, target, fn) if operands else None
        if cls in ("train", "test"):
            if operands:
                self.emit(Use, cls, tuple(dict.fromkeys(operands)))
            else:
                self.warn(f"{fn} call without data-frame arguments dropped")
            return None
        if not operands:
            return None
        if cls in ("merge_concat", "merge_join"):
            op = "concat" if cls == "merge_concat" else "join"
            return self.chain(operands, target, fn, op)
        if cls == "normalize":
            return self.chain(operands[:1], target, "normalize")
        self.warn(f"unknown function {fn!r}; treating result as opaque transform")
        return self.chain(operands, target, "unknown")

    def chain(self, operands: list[str], target, fn: str, op: str = "concat") -> str:
        """Bind ``target`` (see ``define``) to ``Apply(fn)`` on one operand,
        or to one ``Merge`` of two or more operands with ``op``."""
        if len(operands) == 1:
            return self.define(target, Apply, fn, operands[0])
        return self.define(target, Merge, op, tuple(operands))

    def inline_call(self, name: str, node: ast.Call, target=None) -> str | None:
        if name in self.inline_stack or len(self.inline_stack) >= _MAX_INLINE_DEPTH:
            if name in self.inline_stack:
                self.warn(f"recursive function {name!r} treated as unknown")
            else:
                self.warn(f"function {name!r} called past the inlining depth limit "
                          f"of {_MAX_INLINE_DEPTH} treated as unknown")
            operands = self.df_args(node)
            return self.chain(operands[:1], target, "unknown") if operands else None
        fdef = self.defs[name]
        params = fdef.args
        positional = params.posonlyargs + params.args
        # Every parameter is local to the call: it holds the frame of its
        # positional or keyword argument, and no frame otherwise.
        scope = dict.fromkeys(p.arg for p in (
            *positional, params.vararg, *params.kwonlyargs, params.kwarg) if p)
        for p, a in zip(positional, node.args):
            scope[p.arg] = self.eval_expr(a, allow_unbound_df=True)
        for k in node.keywords:
            if k.arg in scope:
                scope[k.arg] = self.eval_expr(k.value, allow_unbound_df=True)
        # A definition or an import in the body is local to the call: it
        # replaces the maps, which are put back after the call.
        saved = (self.cur, self.defs, self.imports)
        self.inline_stack.append(name)
        self.cur = scope
        result = None
        for stmt in fdef.body:
            if type(stmt) is ast.Return:
                if stmt.value is not None:
                    result = self.eval_expr(stmt.value, target)
                break
            self.translate_stmt(stmt)
        self.inline_stack.pop()
        self.cur, self.defs, self.imports = saved
        return result

    # -- statements -----------------------------------------------------------

    def translate_stmt(self, node):
        kind = type(node)
        if kind is ast.Assign or kind is ast.AnnAssign or kind is ast.AugAssign:
            self.translate_assign(node)
            return

        if kind is ast.Expr:
            before = len(self.stmts)
            self.eval_expr(node.value)
            if len(self.stmts) == before:
                self.warn("non-dataframe statement dropped")
            return

        if kind is ast.Import or kind is ast.ImportFrom:
            self.imports = dict(self.imports)
            _record_import(node, self.imports)
            return

        if kind is ast.FunctionDef:
            self.defs = {**self.defs, node.name: node}
            return

        if kind is ast.If:
            self.translate_if(node)
            return

        if kind is ast.For or kind is ast.While:
            self.translate_loop(node)
            return

        self.warn("non-dataframe statement dropped")

    def translate_assign(self, node):
        value = node.value
        kind = type(node)
        if kind is ast.Assign:
            targets = node.targets
        elif kind is ast.AnnAssign:
            if value is None:
                return
            targets = [node.target]
        else:
            if type(node.target) is not ast.Name:
                self.warn("non-dataframe statement dropped")
                return
            targets = [node.target]
            value = ast.BinOp(left=ast.Name(id=node.target.id, ctx=ast.Load()),
                              op=node.op, right=value)

        first = targets[0]
        if len(targets) > 1:
            if not all(type(t) is ast.Name for t in targets):
                self.warn("unsupported assignment target dropped")
                return
            # x = z = value: the value is evaluated once and bound to each
            # name in turn, so bind the first name and alias the others to it.
            self.translate_assign(ast.Assign(targets=[first], value=value))
            for t in targets[1:]:
                self.translate_assign(
                    ast.Assign(targets=[t], value=ast.Name(id=first.id, ctx=ast.Load())))
            return

        if type(first) is not ast.Name:
            if type(first) is ast.Tuple:
                if not self.translate_split(first, value):
                    self.warn("unsupported tuple assignment dropped")
            else:
                self.warn("unsupported assignment target dropped")
            return

        base = first.id
        # The right side is translated before ``base`` is rebound, so that
        # self-references (x = scale(x)) read the previous version; the
        # statement binding its value takes the new one (see ``define``).
        # A bare name is an alias of its binding, which may be a frame of
        # an earlier cell.  Any other assignment takes one temporary number
        # of its own (the IR's temporaries are numbered so).
        alias = type(value) is ast.Name
        if not alias:
            self.temps += 1
        out = self.eval_expr(value, (base, self.cur), allow_unbound_df=alias)
        if out is None:
            # Non-frame value (models, scalars): the name takes a version
            # but holds no frame.
            self.assign_name(base, self.cur)
        self.cur[base] = out

    def translate_split(self, target_tuple: ast.Tuple, value) -> bool:
        """Lower ``a, b[, c, d] = train_test_split(...)`` into complementary
        selections around a fresh split point."""
        if type(value) is not ast.Call:
            return False
        fn, ns, _ = self.callee(value.func)
        if fn is None or self.kb.lookup(ns, fn)[0] != "split":
            return False
        names = [t.id if isinstance(t, ast.Name) else None for t in target_tuple.elts]
        if any(n is None for n in names):
            return False
        dfs = self.df_args(value)
        if not dfs or len(names) != 2 * len(dfs):
            self.warn(f"{fn} arity not understood; targets treated as opaque")
            if dfs:
                for n in names:
                    self.define((n, self.cur), Apply, "unknown", dfs[0])
            return True
        split = self.fresh_symbol()
        for i, src in enumerate(dfs):
            self.define((names[2 * i], self.cur), Select, src,
                        rows=RowInterval(RowExpr.const(0), RowExpr.symbol(split)))
            self.define((names[2 * i + 1], self.cur), Select, src,
                        rows=RowInterval(RowExpr.symbol(split, 1), INF))
        return True

    def translate_body(self, body) -> tuple[Statement, ...]:
        """The statements ``body`` translates to, kept out of the current
        statement list."""
        outer, self.stmts = self.stmts, []
        for stmt in body:
            self.translate_stmt(stmt)
        inner, self.stmts = self.stmts, outer
        return tuple(inner)

    def translate_if(self, node: ast.If):
        snapshot = dict(self.cur)

        def run_arm(body):
            self.cur = dict(snapshot)
            return self.translate_body(body), self.cur

        arm_a, env_a = run_arm(node.body)
        arm_b, env_b = run_arm(node.orelse)
        self.cur = dict(snapshot)
        self.emit(Branch, (arm_a, arm_b))
        # A name an arm binds, to a frame or to None, that the cell did not
        # bind before, or bound otherwise.
        changed = {b for env in (env_a, env_b) for b, v in env.items()
                   if b not in snapshot or v != snapshot[b]}
        for base in sorted(changed):
            frames = tuple(dict.fromkeys(
                v for env in (env_a, env_b)
                if (v := env.get(base, snapshot.get(base))) is not None))
            if frames:
                self.define((base, self.cur), Phi, frames)
            else:
                self.cur[base] = None

    def translate_loop(self, node):
        self.loop_depth += 1
        body = self.translate_body(node.body)
        self.loop_depth -= 1
        if body:
            self.emit(Loop, body)


def _parse_cell(source: str) -> ast.Module | SyntaxError:
    """The cell's syntax tree, or the error that stopped its parse.  A cell
    nested too deeply for the parser counts as a syntax error: Python
    cannot run it either."""
    try:
        return ast.parse(source)
    except SyntaxError as e:
        return e
    except RecursionError:
        return SyntaxError("nested too deeply to parse")


def translate_cell(source: str, kb: KnowledgeBase | None = None,
                   defs=None, cell_id: int = 1, imports=None,
                   tree: ast.Module | SyntaxError | None = None) -> CellIR:
    """Translate one cell's Python source into analyzer statements, with the
    function definitions ``defs`` and the import map ``imports`` (each name
    to its dotted path) in scope.  ``tree`` is the source's syntax tree, or
    its ``SyntaxError``, when the caller has already parsed it."""
    if tree is None:
        tree = _parse_cell(source)
    if isinstance(tree, SyntaxError):
        where = f" (line {tree.lineno})" if tree.lineno else ""
        return CellIR(cell_id, source, (), frozenset(), (),
                      (f"syntax error: {tree.msg}{where}",))
    t = _Translator(kb or default_kb(), defs or {}, cell_id, imports or {})
    try:
        statements = t.translate_body(tree.body)
    except RecursionError:
        # Dropping a cell Python can run would be unsound.
        raise NotebookError(
            f"cell {cell_id}: expression nested too deeply to translate") from None
    exports = tuple([item for item in t.cur.items() if item[1] is not None])
    precondition, facts = _cell_facts(statements, exports)
    return CellIR(cell_id, source, statements, precondition, exports,
                  tuple(t.warnings), facts)


# ---------------------------------------------------------------------------
# Notebook loading
# ---------------------------------------------------------------------------

def _code_cells(data: bytes) -> list[str]:
    try:
        doc = json.loads(data.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise NotebookError(f"JSON decode error: {e}") from None
    if not isinstance(doc, dict) or "cells" not in doc:
        raise NotebookError("not a notebook document")
    if doc.get("nbformat") != 4:
        raise NotebookError(f"unsupported nbformat version {doc.get('nbformat')!r}")
    if not isinstance(doc["cells"], list):
        raise NotebookError("'cells' is not a list")
    out = []
    for i, cell in enumerate(doc["cells"]):
        if not isinstance(cell, dict):
            raise NotebookError(f"cells[{i}] is not an object")
        if cell.get("cell_type") != "code":
            continue
        if "source" not in cell:
            # nbformat 4 requires the key: a cell without it is a truncated
            # notebook, not an empty cell.
            raise NotebookError(f"cells[{i}]: code cell has no source")
        src = cell["source"]
        if isinstance(src, list) and all(isinstance(line, str) for line in src):
            src = "".join(src)
        if not isinstance(src, str):
            raise NotebookError(
                f"cells[{i}]: source is neither a string nor a list of strings")
        out.append(src)
    return out


# The fields that hold statement lists, in the order of every node's
# ``_fields``: ``Try`` lists ``handlers`` before ``orelse``.
_BLOCKS = ("body", "handlers", "orelse", "finalbody", "cases")
# Statements whose body is a scope of its own.
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# The statement-list fields of each node type that holds statements and
# runs them in the enclosing scope.
_BLOCKS_OF = {
    cls: blocks
    for cls in (ast.ExceptHandler, ast.match_case, *ast.stmt.__subclasses__())
    if not issubclass(cls, _SCOPES)
    and (blocks := tuple(name for name in _BLOCKS if name in cls._fields))
}


def _statements(tree: ast.Module) -> list[ast.AST]:
    """The tree's nodes that are statements or hold statements (except
    handlers, match cases) and run in the module's scope, in ``ast.walk``'s
    breadth-first order.  Statements never nest inside an expression, so
    no expression is visited, and the bodies of functions and classes are
    not entered."""
    todo = list(tree.body)
    for node in todo:
        blocks = _BLOCKS_OF.get(type(node))
        if blocks is not None:
            for name in blocks:
                todo.extend(getattr(node, name))
    return todo


def load_notebook(data: bytes, kb: KnowledgeBase | None = None) -> Notebook:
    """Parse an .ipynb document and translate its code cells in order.

    Each cell sees the imports of the cells before it, and the function
    definitions of those cells and its own, that bind a name in the
    module's scope: at any depth of compound statements, but not inside a
    function or class body.
    """
    kb = kb or default_kb()
    defs: dict[str, ast.FunctionDef] = {}
    imports: dict[str, str] = {}
    cells = []
    for i, src in enumerate(_code_cells(data), start=1):
        tree = _parse_cell(src)
        # The cell translates with the import map of the cells before it,
        # so its own imports go into a copy.
        before = imports
        if not isinstance(tree, SyntaxError):
            for node in _statements(tree):
                kind = type(node)
                if kind is ast.FunctionDef:
                    defs[node.name] = node
                elif kind is ast.Import or kind is ast.ImportFrom:
                    if imports is before:
                        imports = dict(imports)
                    _record_import(node, imports)
        cells.append(translate_cell(src, kb, defs, i, before, tree))
    return Notebook(tuple(cells))
