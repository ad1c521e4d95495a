"""Every module-level function, class and constant of the package, and
every method of its module-level classes, is named somewhere in ``src/``,
``tests/`` or ``perfbench/`` outside its own definition; a definition
nothing names is dead code.  Dunders are exempt.
Every module-level import of a package module other than ``__init__.py``
(which re-exports) is named again in its module."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dlcheck"


def _definitions(tree: ast.Module):
    """(name, first line, last line) of each module-level definition and
    of each method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield m.name, m.lineno, m.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    yield t.id, node.lineno, node.end_lineno


def _words(lines) -> Counter:
    return Counter(w for line in lines for w in re.findall(r"\w+", line))


def test_every_module_level_definition_is_named_elsewhere():
    sources = {p: p.read_text(encoding="utf-8").splitlines()
               for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")}
    everywhere = _words(line for lines in sources.values() for line in lines)
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = sources[path]
        for name, first, last in _definitions(ast.parse("\n".join(lines))):
            if name.startswith("__") and name.endswith("__"):
                continue
            if everywhere[name] == _words(lines[first - 1:last])[name]:
                dead.append(f"{path.name}:{first} {name}")
    assert dead == []


def test_every_module_level_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in named:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
