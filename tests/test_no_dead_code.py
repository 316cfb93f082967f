"""Every function, class and method in superkit must have a caller.

A function or class counts as used when its name appears as a whole word on
some line of ``src/``, ``tests/``, ``perfbench/`` or ``README.md`` that is not
one of its own ``def``/``class`` lines.  A method counts as used only where
it can be called: in ``.py`` files as an attribute (``obj.name``) or as a
word of a string constant that is not a docstring (``getattr(obj, "name")``,
a traced span name), and in Markdown as a word of a code span.  So a method
named like a common local variable or an English word does not pass for
used.  Dunders are called by the language and are exempt.
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
    """(name, path, line, is_method) of every non-dunder def and class in the package."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    is_method = id(node) in methods and not isinstance(node, ast.ClassDef)
                    out.append((node.name, path, node.lineno, is_method))
    return out


def _method_uses(path, text):
    """Names a method may be called by in one file: attribute names and the
    words of non-docstring string constants in Python, code spans in Markdown."""
    if path.suffix != ".py":
        return set(re.findall(r"\w+", " ".join(re.findall(r"`[^`]*`", text))))
    tree = ast.parse(text)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and ast.get_docstring(node) is not None}
    words = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            words.update(re.findall(r"\w+", node.value))
    return words


def test_every_definition_has_a_caller():
    own_lines, methods, others = {}, set(), set()
    for name, path, line, is_method in _definitions():
        own_lines.setdefault(name, set()).add((path, line))
        (methods if is_method else others).add(name)
    texts = {path: path.read_text(encoding="utf-8") for path in _search_files()}
    lines = [(path, no, line) for path, text in texts.items()
             for no, line in enumerate(text.splitlines(), 1)]
    method_uses = set().union(*(_method_uses(path, text) for path, text in texts.items()))

    def word_used(name):
        word = re.compile(rf"\b{re.escape(name)}\b")
        return any(word.search(text) for path, no, text in lines
                   if (path, no) not in own_lines[name])

    # a name defined both as a method and as a function or class passes both rules
    unused = [name for name in sorted(own_lines)
              if (name in methods and name not in method_uses)
              or (name in others and not word_used(name))]
    assert not unused, f"defined but never used: {unused}"
