"""Every function and method in superkit is reached from a command, and every
name a module imports is used there.

Reachability is measured, not guessed from names: a fresh interpreter sets a
``sys.setprofile`` hook before it imports superkit, records the code object of
every Python-level call, and runs ``superkit.cli.main`` on every argv of the
golden corpus (``tests/golden/regenerate.MATRIX``; one ``identities`` seed
stands for the ten, which run the same code) plus one human-readable report.
A def counts as reached when its code object ran, so calls from tests or
``perfbench/`` do not count, and neither does a caller that is itself never
run.  Import-time calls (``GEN_TABLE``) count.  A def is matched by the line
of its code object, which for a decorated def is its first decorator's line.
Dunders are called by the language and are exempt.  There is no allowlist.
"""

import ast
import json
import shutil
import sys
from pathlib import Path

from conftest import run_python

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "superkit"
sys.path.insert(0, str(ROOT / "tests" / "golden"))
from regenerate import MATRIX  # noqa: E402

SKIPPED_SEEDS = {f"identities_seed{s}" for s in range(1, 10)}
COMMANDS = [argv for name, (argv, _) in MATRIX.items() if name not in SKIPPED_SEEDS] + [
    ["identities", "--suite", "algebra"]]     # the human report: Report.print_human

# Run in the child interpreter: argv = [src dir, repository root, JSON argv list].
_CHILD = """
import contextlib, io, json, os, sys
src, root, commands = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
sys.path.insert(0, src)
os.chdir(root)
reached = set()
def hook(frame, event, arg):
    if event == "call":
        reached.add(frame.f_code)
sys.setprofile(hook)
from superkit import cli
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
sys.setprofile(None)
print(json.dumps(sorted({(os.path.realpath(c.co_filename), c.co_firstlineno) for c in reached})))
"""


def _defs(tree, prefix=""):
    """(first line, qualified name) of every non-dunder def in `tree`."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + node.name
            if not isinstance(node, ast.ClassDef) and not (
                    node.name.startswith("__") and node.name.endswith("__")):
                first = node.decorator_list[0] if node.decorator_list else node
                yield first.lineno, name
            yield from _defs(node, name + ".")
        else:
            yield from _defs(node, prefix)


def unreached_defs(src, commands=COMMANDS):
    """``module.qualname`` of every non-dunder def of ``<src>/superkit`` that
    no command of `commands` calls."""
    out = run_python("-c", _CHILD, str(src), str(ROOT), json.dumps(commands))
    assert out.returncode == 0, out.stderr
    reached = {tuple(x) for x in json.loads(out.stdout)}
    unreached = []
    for path in sorted((Path(src) / "superkit").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        unreached += [f"{path.stem}.{name}" for line, name in _defs(tree)
                      if (str(path.resolve()), line) not in reached]
    return unreached


def test_every_definition_is_reached_by_a_command():
    unreached = unreached_defs(PACKAGE.parent)
    assert not unreached, f"defined in src/ but reached by no command: {unreached}"


def test_reachability_lists_a_def_no_command_calls(tmp_path):
    """Negative control on a copy of the package: an appended def is listed;
    the cached ``build_parser`` and the import-time generator actions are not."""
    shutil.copytree(PACKAGE, tmp_path / "superkit",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "superkit" / "grassmann.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef never_called():\n    return 0\n")
    unreached = unreached_defs(tmp_path, [["content", "--sigma", "1", "--json"]])
    assert "grassmann.never_called" in unreached
    for name in ("cli.build_parser", "grassmann.wedge_gen", "grassmann.contract_gen"):
        assert name not in unreached


def _unused_imports(tree):
    """Names a module imports (``from __future__`` excepted) that it never
    uses as a name."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


def test_every_import_is_used():
    unused = {path.stem: names for path in sorted(PACKAGE.glob("*.py"))
              if (names := _unused_imports(ast.parse(path.read_text(encoding="utf-8"))))}
    assert not unused, f"imported but never used: {unused}"
