"""Source hygiene: no module of the package, the tests or the scripts
imports a name it never uses, each ``derive_seed`` label of the package
is written in one place, and the command line does not load ``scipy.stats``.

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
CHECKED = sorted(SRC.glob("*.py")) + sorted(
    path for d in ("tests", "scripts") for path in (ROOT / d).glob("*.py")
)


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


def test_cli_import_leaves_out_scipy_stats():
    # ``pearson`` needs only the t tail (``scipy.special.stdtr``); the whole
    # of ``scipy.stats`` costs about a second on every command's start-up.
    code = "import sys, alforge.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.strip() == "False"
