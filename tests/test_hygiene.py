"""Source hygiene: no module of the package or the tests imports a name it
never uses, every function and class of the package has a caller outside
the tests, each ``derive_seed`` label of the package is written in one
place, only the parser reads rotation chains, and the command line does not
load ``scipy.stats``.

Stdlib ``ast`` only.  A name counts as used when it appears as a name
anywhere in the module, quoted type annotations included; ``from __future__``
imports are exempt.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "alforge"
CHECKED = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _id(path: Path) -> str:
    """The module name inside the package, else the path from the root."""
    return path.name if path.parent == SRC else path.relative_to(ROOT).as_posix()


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(tree: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` and never referenced, in order."""
    tree = ast.parse(source)
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    used = _names(tree)
    for ann in _annotations(tree):
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= _names(ast.parse(ann.value, mode="eval"))
    return [name for name in imported if name not in used]


def test_checker_flags_unused():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "from x import a, b as c, d\n"
        "def f(y: 'd') -> None:\n"
        "    return c\n"
    )
    assert unused_imports(source) == ["os", "os", "a"]


@pytest.mark.parametrize("path", CHECKED, ids=_id)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _references(tree: ast.AST):
    """Every name ``tree`` refers to: names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _definitions(node: ast.AST, prefix: str = ""):
    """(qualified name, node) for every function and class under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + child.name, child
            yield from _definitions(child, f"{prefix}{child.name}.")
        else:
            yield from _definitions(child, prefix)


def unreferenced(defining: dict[str, str], referring: list[str]) -> list[str]:
    """The functions and classes of the ``defining`` sources (module name ->
    source) that no ``referring`` source, the defining ones among them,
    names outside the definition's own body, as ``module:qualified.name``.
    Names are matched by name alone, whatever object they reach; dunders are
    exempt."""
    count = Counter(name for source in referring for name in _references(ast.parse(source)))
    out = []
    for module, source in defining.items():
        for qualname, node in _definitions(ast.parse(source)):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if count[name] == sum(ref == name for ref in _references(node)):
                out.append(f"{module}:{qualname}")
    return out


def test_unreferenced_checker():
    lib = (
        "class A:\n"
        "    def __init__(self): pass\n"
        "    def used(self): return self.used()\n"
        "    def spare(self): pass\n"
        "def rec(n): return rec(n - 1)\n"
        "def helper(): pass\n"
        "def caller(): return helper()\n"
    )
    user = "from lib import A\nA().used()\n"
    assert unreferenced({"lib": lib}, [lib, user]) == ["lib:A.spare", "lib:rec", "lib:caller"]


def test_every_definition_has_a_caller():
    # Library code that only tests reach is dead weight: ``perfbench/``
    # counts as a caller, ``tests/`` does not.
    package = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    bench = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    assert unreferenced(package, [*package.values(), *bench]) == []


def seed_labels(source: str) -> list[str]:
    """The label expressions (every argument after the master seed and the
    grammar id) of the ``derive_seed`` calls in ``source``, as source text."""
    return [
        ", ".join(ast.unparse(arg) for arg in node.args[2:])
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "derive_seed"
    ]


def test_seed_label_checker():
    source = (
        "a = derive_seed(seed, g.params, 'train')\n"
        "b = derive_seed(seed, p, f'pairs-{kind}')\n"
        "def derive_seed(*parts): pass\n"
    )
    assert seed_labels(source) == ["'train'", "f'pairs-{kind}'"]


def test_each_seed_label_written_once():
    # A label copied into a second call site can drift from the first, and
    # then a subcommand no longer draws the pipeline's stream for that step.
    labels = [label for path in sorted(SRC.glob("*.py"))
              for label in seed_labels(path.read_text())]
    assert labels
    assert [label for label, n in Counter(labels).items() if n > 1] == []


ROTATION_NAMES = {"rotations", "permute_cyclic"}


def rotation_references(source: str) -> set[str]:
    """The names of ``ROTATION_NAMES`` that ``source`` defines, imports or
    references, as a name or as an attribute."""
    tree = ast.parse(source)
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    return (set(_references(tree)) | defined) & ROTATION_NAMES


def test_rotation_checker():
    source = (
        "from .parser import rotations as r\n"
        "def permute_cyclic(c): pass\n"
        "x = table.rotations(a)\n"
    )
    assert rotation_references(source) == {"rotations", "permute_cyclic"}
    assert rotation_references("x = table.closure(a, True)  # rotations\n") == set()


def test_only_the_parser_reads_rotation_chains():
    # Everything else closes codes with ``RuleTable.closure``, the chart's
    # own step; ``categories.py`` defines the single rotation step.
    allowed = {"parser.py": ROTATION_NAMES, "categories.py": {"permute_cyclic"}}
    wrong = {path.name: names for path in sorted(SRC.glob("*.py"))
             if (names := rotation_references(path.read_text()) - allowed.get(path.name, set()))}
    assert wrong == {}


def test_cli_import_leaves_out_scipy_stats():
    # ``pearson`` needs only the t tail (``scipy.special.stdtr``); the whole
    # of ``scipy.stats`` costs about a second on every command's start-up.
    code = "import sys, alforge.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.strip() == "False"
