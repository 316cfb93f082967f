"""Every function, class and method in superkit must have a caller.

A name counts as used when it appears as a whole word on some line of
``src/``, ``tests/``, ``perfbench/`` or ``README.md`` that is not one of its
own ``def``/``class`` lines.  Dunders are called by the language and are
exempt.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "superkit"


def _search_files():
    files = sorted(ROOT.glob("src/**/*.py")) + sorted(ROOT.glob("tests/*.py"))
    files += sorted(ROOT.glob("perfbench/*.py")) + sorted(ROOT.glob("perfbench/*.md"))
    return files + [ROOT / "README.md"]


def _definitions():
    """(name, path, line) of every non-dunder def and class in the package."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    out.append((node.name, path, node.lineno))
    return out


def test_every_definition_has_a_caller():
    defs = _definitions()
    own_lines = {}
    for name, path, line in defs:
        own_lines.setdefault(name, set()).add((path, line))
    lines = [(path, no, text)
             for path in _search_files()
             for no, text in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)]
    unused = []
    for name in sorted(own_lines):
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(text) for path, no, text in lines
                   if (path, no) not in own_lines[name]):
            unused.append(name)
    assert not unused, f"defined but never used: {unused}"
