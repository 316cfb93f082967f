"""Every function, class and method in superkit is reached from superkit.

A def counts as used only when some other code of ``src/superkit`` refers to
its name: as an AST ``Name`` (a call, a decorator, a value passed on), as an
``Attribute`` (``obj.name``, ``module.name``) or in an import.  References
inside the def's own body (recursion) do not count, and neither do uses in
``tests/`` or ``perfbench/``, words in string constants or in docs: a test
oracle belongs in ``tests/``, and a claim of the paper that only a test calls
needs a command that reports it.  The AST does not know the type behind
``obj.name``, so one attribute reference counts for every method of that
name.  Dunders are called by the language and are exempt.  There is no
allowlist.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "superkit"


def _references(node):
    """How often `node` and its subtree refer to each name."""
    out = Counter()
    for x in ast.walk(node):
        if isinstance(x, ast.Name):
            out[x.id] += 1
        elif isinstance(x, ast.Attribute):
            out[x.attr] += 1
        elif isinstance(x, ast.alias):
            out[x.name.rsplit(".", 1)[-1]] += 1
    return out


def unreferenced_defs(package=PACKAGE):
    """``module.name`` of every non-dunder def and class in `package` that no
    other code of the package refers to."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and total[node.name] == _references(node)[node.name]):
                unused.append(f"{module}.{node.name}")
    return unused


def test_every_definition_has_a_caller():
    unused = unreferenced_defs()
    assert not unused, f"defined in src/ but never referenced from src/: {unused}"


def test_references_count_only_from_other_package_code(tmp_path):
    """Recursion, string constants and docstrings are not references; a
    Name, an Attribute and an import each are."""
    (tmp_path / "a.py").write_text(
        'def used_by_name(): pass\n'
        'def used_by_attr(): pass\n'
        'def used_by_import(): pass\n'
        'def only_recursive(n): return only_recursive(n - 1)\n'
        'def only_in_strings(): pass\n'
        'def caller():\n'
        '    """only_in_strings is named here."""\n'
        '    return used_by_name(), getattr(caller, "only_in_strings")\n'
        'class Box:\n'
        '    def method(self): return self.used_by_attr\n',
        encoding="utf-8")
    (tmp_path / "b.py").write_text(
        'from a import used_by_import\nimport a\nx = a.Box().method(), a.caller\n',
        encoding="utf-8")
    assert unreferenced_defs(tmp_path) == ["a.only_recursive", "a.only_in_strings"]
