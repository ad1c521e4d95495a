"""Every module-level function, class and constant of the package is named
somewhere in ``src/``, ``tests/`` or ``perfbench/`` outside its own
definition; a definition nothing names is dead code.  Dunders are exempt."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dlcheck"


def _definitions(tree: ast.Module):
    """(name, first line, last line) of each module-level definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
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
