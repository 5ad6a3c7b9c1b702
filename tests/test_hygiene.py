"""Source hygiene: no module of the package or the tests imports a name it
never uses, every function and class of the package has a caller outside
the tests, every default of the package is left out by a call outside the
tests, each ``derive_seed`` label of the package is written in one
place, only the parser rotates categories or reads rotation chains, the
parser classifies a category only when it interns it, only the shared draw
loop reads the draw budget, every random draw goes through the one draw
primitive, only the two JSON document writers use the json encoder, only
the per-grammar writer makes directories, only the pool runner imports
threads or processes, no function caches a function it defines, and the
command line loads neither scipy nor numpy nor the process pool's modules.

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


def _parameters(node: ast.AST, prefix: str = "", method: bool = False):
    """(qualified name, call name, passed parameters, defaulted parameters)
    for every function under ``node``.  A method's call name is its own, or
    its class's for ``__init__``, and its first parameter is passed by the
    call's receiver unless it is a ``staticmethod``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            for qualname, name, *params in _parameters(child, f"{prefix}{child.name}.", True):
                yield qualname, child.name if name == "__init__" else name, *params
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = child.args
            positional = [p.arg for p in a.posonlyargs + a.args]
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in child.decorator_list)
            defaulted = positional[len(positional) - len(a.defaults):] + [
                p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            passed = positional[1:] if method and not static else positional
            yield prefix + child.name, child.name, passed, defaulted
            yield from _parameters(child, f"{prefix}{child.name}.")
        else:
            yield from _parameters(child, prefix, method)


def unused_defaults(defining: dict[str, str], calling: list[str]) -> list[str]:
    """The defaults of the ``defining`` sources' functions (module name ->
    source) that no call in the ``calling`` sources leaves out, as
    ``module:qualified.name.parameter``.  Calls are matched by name alone;
    a starred argument passes every remaining positional parameter, and a
    call with ``**`` arguments is ignored."""
    calls: dict[str, list[ast.Call]] = {}
    for source in calling:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and not any(k.arg is None for k in node.keywords):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    out = []
    for module, source in defining.items():
        for qualname, name, passed, defaulted in _parameters(ast.parse(source)):
            left_out = set()
            for call in calls.get(name, ()):
                starred = any(isinstance(arg, ast.Starred) for arg in call.args)
                given = set(passed if starred else passed[:len(call.args)])
                left_out |= set(defaulted) - given - {k.arg for k in call.keywords}
            out += [f"{module}:{qualname}.{p}" for p in defaulted if p not in left_out]
    return out


def test_unused_defaults_checker():
    lib = (
        "class A:\n"
        "    def __init__(self, x=1, y=2): pass\n"
        "    def m(self, a, b=0, *, c=None): pass\n"
        "    @staticmethod\n"
        "    def s(a=0): pass\n"
        "def f(a, b=1, c=2): pass\n"
        "def g(k=0): pass\n"
    )
    user = (
        "A(5).m(1, c=3)\n"
        "A.s(1)\n"
        "f(*args)\n"
        "f(0, b=1, c=2)\n"
        "g(**options)\n"
    )
    assert unused_defaults({"lib": lib}, [user]) == [
        "lib:A.__init__.x", "lib:A.m.c", "lib:A.s.a", "lib:f.b", "lib:f.c", "lib:g.k",
    ]


def test_every_default_is_used():
    # A default that every program call overrides is a second, untested
    # behaviour of the function; ``perfbench/`` calls count, ``tests/`` do not.
    package = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    bench = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    assert unused_defaults(package, [*package.values(), *bench]) == []


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
    # ``parser.rotations`` is the only rotation code, and everything else
    # closes codes with ``RuleTable.closure``, the chart's own step.
    # ``permute_cyclic`` stays in ``ROTATION_NAMES`` so that a one-step
    # rotation helper of that name fails here outside the parser.
    wrong = {path.name: names for path in sorted(SRC.glob("*.py"))
             if path.name != "parser.py" and (names := rotation_references(path.read_text()))}
    assert wrong == {}


CLASSIFIERS = {"is_conjunction", "coordinable"}


def _scoped(source: str, find) -> set[str]:
    """``function:name`` for each name that ``find(node)`` yields for a node
    of ``source``, where ``function`` is the qualified name of the innermost
    enclosing function or class (empty at module level)."""
    out = set()

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}".lstrip("."))
                continue
            out.update(f"{where}:{name}" for name in find(child))
            visit(child, where)

    visit(ast.parse(source), "")
    return out


def calls_to(source: str, names: set[str]) -> set[str]:
    """``function:name`` (see `_scoped`) for each call in ``source`` of one
    of ``names``, as a name or as an attribute."""
    def find(node: ast.AST):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                yield name

    return _scoped(source, find)


def imports_of(source: str, modules: set[str]) -> set[str]:
    """``function:module`` (see `_scoped`) for each absolute import in
    ``source`` of one of ``modules`` or of a module or name inside one."""
    def find(node: ast.AST):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            return
        yield from {m for m in modules for name in names
                    if name == m or name.startswith(m + ".")}

    return _scoped(source, find)


def test_classifier_checker():
    source = (
        "from .combinators import coordinable\n"
        "class RuleTable:\n"
        "    def code(self, cat):\n"
        "        return coordinable(cat), c.is_conjunction(cat)\n"
        "def _fill(seq):\n"
        "    return [i for i, c in enumerate(seq) if is_conjunction(c)]\n"
        "ok = coordinable(S)\n"
        "f = is_conjunction\n"
    )
    assert calls_to(source, CLASSIFIERS) == {
        "RuleTable.code:coordinable", "RuleTable.code:is_conjunction",
        "_fill:is_conjunction", ":coordinable",
    }


def test_parser_classifies_only_when_interning():
    # After ``_encode`` the chart reads the facts ``RuleTable.code`` records
    # (``coordinating``, ``conjunctions``), not the categories again.
    calls = calls_to((SRC / "parser.py").read_text(), CLASSIFIERS)
    assert calls == {"RuleTable.code:coordinable", "RuleTable.code:is_conjunction"}


def references_to(source: str, names: set[str]) -> set[str]:
    """``function:name`` (see `_scoped`) for each place ``source`` reads one
    of ``names``, as a name, an attribute or an imported name."""
    def find(node: ast.AST):
        if isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        else:
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name in names:
            yield name

    return _scoped(source, find)


RANDOM_DRAWS = {"choice", "choices", "randrange", "randint", "sample", "shuffle"}
RANDOM_BITS = {"getrandbits"}
JSON_ENCODERS = {"dump", "dumps", "JSONEncoder"}


def test_reference_checker():
    source = (
        "import random\n"
        "from json import dumps as d, JSONEncoder\n"
        "def picker(rng):\n"
        "    getrandbits = rng.getrandbits\n"
        "    def pick(seq):\n"
        "        return seq[getrandbits(8)]\n"
        "    return pick\n"
        "class Sampler:\n"
        "    def draw(self, rng):\n"
        "        return rng.choice(self.pool), random.shuffle, json.dumps({})\n"
        "x = random.Random(1).randrange(3)\n"
        "doc = 'choice getrandbits dumps'\n"
        "def getrandbits_free(choice_of):\n"
        "    return choice_of\n"
    )
    names = RANDOM_DRAWS | RANDOM_BITS | JSON_ENCODERS
    assert references_to(source, names) == {
        ":dumps", ":JSONEncoder", "picker:getrandbits", "picker.pick:getrandbits",
        "Sampler.draw:choice", "Sampler.draw:shuffle", "Sampler.draw:dumps", ":randrange",
    }
    # a call of a draw method, as a name or an attribute
    assert calls_to(source, RANDOM_DRAWS) == {"Sampler.draw:choice", ":randrange"}


def test_every_random_draw_is_the_picker():
    # Every sampler draws with ``templates.picker``, which reproduces
    # ``Random.choice`` from ``getrandbits`` words (tests/test_sampler_draws.py);
    # a draw method of ``random.Random`` beside it would be a second draw.
    calls = {path.name: found for path in sorted(SRC.glob("*.py"))
             if (found := calls_to(path.read_text(), RANDOM_DRAWS))}
    assert calls == {}
    reads = {path.name: found for path in sorted(SRC.glob("*.py"))
             if (found := references_to(path.read_text(), RANDOM_BITS))}
    assert reads == {"templates.py": {"picker:getrandbits", "picker.pick:getrandbits"}}


def test_only_the_document_writers_use_the_json_encoder():
    # Each JSONL line is built from its record's fields (``corpus`` and
    # ``evaluation``), so the json encoder writes only whole documents.
    uses = {path.name: found for path in sorted(SRC.glob("*.py"))
            if (found := references_to(path.read_text(), JSON_ENCODERS))}
    assert uses == {"corpus.py": {"write_json:dump"},
                    "evaluation.py": {"TypologyTable.provenance_hash:dumps"}}


DIRECTORY_MAKERS = {"mkdir", "makedirs"}


def test_directory_maker_checker():
    source = (
        "import os\n"
        "def _save_sets(out_dir):\n"
        "    out_dir.mkdir(parents=True, exist_ok=True)\n"
        "def cmd_pipeline(args):\n"
        "    os.makedirs(args.out_dir)\n"
        "    Path(args.out_dir).mkdir()\n"
        "mkdir = None  # not a call\n"
    )
    assert calls_to(source, DIRECTORY_MAKERS) == {
        "_save_sets:mkdir", "cmd_pipeline:makedirs", "cmd_pipeline:mkdir",
    }


def test_only_the_grammar_writer_makes_directories():
    # A grammar's files are written in one block after all of its sets are
    # drawn and scored, and that block makes the out-dir, in the run's stage
    # when the out-dir is missing: a failed run leaves no directory.
    calls = {path.name: found for path in sorted(SRC.glob("*.py"))
             if (found := calls_to(path.read_text(), DIRECTORY_MAKERS))}
    assert calls == {"cli.py": {"_save_sets:mkdir"}}


CONCURRENCY = {"threading", "concurrent.futures", "multiprocessing"}


def test_concurrency_import_checker():
    source = (
        "import os, threading\n"
        "from concurrent import futures\n"
        "def _run_grammars():\n"
        "    import multiprocessing.pool\n"
        "    from concurrent.futures import wait\n"
        "class RuleTable:\n"
        "    def code(self):\n"
        "        import threadingx, concurrent\n"
        "        from .threading import lock\n"
    )
    assert imports_of(source, CONCURRENCY) == {
        ":threading", ":concurrent.futures",
        "_run_grammars:multiprocessing", "_run_grammars:concurrent.futures",
    }


def test_only_the_pool_runner_imports_concurrency():
    # Each process owns its rule tables: ``pipeline --threads N`` forks its
    # workers in ``cli._run_grammars``, whose threads only wait for them.
    imports = {path.name: found for path in sorted(SRC.glob("*.py"))
               if (found := imports_of(path.read_text(), CONCURRENCY))}
    assert imports == {"cli.py": {"_run_grammars:multiprocessing",
                                  "_run_grammars:concurrent.futures"}}


CACHES = {"cache", "lru_cache"}


def nested_caches(source: str) -> list[str]:
    """The qualified name of each function of ``source`` that is defined
    inside another function and decorated with ``functools.cache`` or
    ``lru_cache`` (bare, called, or as an attribute), in source order."""
    out = []

    def visit(node: ast.AST, where: str, nested: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{where}.{child.name}".lstrip(".")
                is_function = not isinstance(child, ast.ClassDef)
                if nested and is_function:
                    for deco in child.decorator_list:
                        target = deco.func if isinstance(deco, ast.Call) else deco
                        if getattr(target, "id", getattr(target, "attr", None)) in CACHES:
                            out.append(name)
                visit(child, name, nested or is_function)
            else:
                visit(child, where, nested)

    visit(ast.parse(source), "", False)
    return out


def test_nested_cache_checker():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@cache\n"
        "def top(x): pass\n"
        "class Table:\n"
        "    @functools.lru_cache(maxsize=None)\n"
        "    def method(self): pass\n"
        "def extract(chart):\n"
        "    @cache\n"
        "    def ways(i, j): pass\n"
        "    @functools.lru_cache(64)\n"
        "    def built(key): pass\n"
        "    def trees(key):\n"
        "        @functools.cache\n"
        "        def inner(): pass\n"
        "        @staticmethod\n"
        "        def plain(): pass\n"
        "    class Local:\n"
        "        @lru_cache\n"
        "        def method(self): pass\n"
    )
    assert nested_caches(source) == [
        "extract.ways", "extract.built", "extract.trees.inner", "extract.Local.method",
    ]


def test_no_cache_on_nested_functions():
    # A cache decorator on a function defined inside another builds a new
    # wrapper, and a new memo, on every call of the outer function; a memo
    # that lives for one call is a plain dict.
    found = {path.name: names for path in sorted(SRC.glob("*.py"))
             if (names := nested_caches(path.read_text()))}
    assert found == {}


BUDGET = "DRAWS_PER_RESULT"
OLD_BUDGETS = {"LONG_ATTEMPTS_FACTOR", "PAIR_RETRIES"}


def budget_references(source: str) -> list[str]:
    """``function:name`` for each place ``source`` names ``BUDGET`` or one of
    ``OLD_BUDGETS``, as a name, an attribute or an import, in source order,
    where ``function`` is the qualified name of the innermost enclosing
    function or class (empty at module level)."""
    out = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}".lstrip("."))
                continue
            name = (child.id if isinstance(child, ast.Name)
                    else child.attr if isinstance(child, ast.Attribute)
                    else child.name if isinstance(child, ast.alias) else None)
            if name == BUDGET or name in OLD_BUDGETS:
                out.append(f"{where}:{name}")
            visit(child, where)

    visit(ast.parse(source), "")
    return out


def test_budget_checker():
    source = (
        "DRAWS_PER_RESULT = 1000\n"
        "PAIR_RETRIES = 100\n"
        "def unique_draws(n):\n"
        "    return range(n * DRAWS_PER_RESULT)\n"
        "class Long:\n"
        "    def sample(self):\n"
        "        return templates.DRAWS_PER_RESULT\n"
        "from .templates import DRAWS_PER_RESULT as budget\n"
        "doc = 'DRAWS_PER_RESULT draws, LONG_ATTEMPTS_FACTOR'\n"
    )
    assert budget_references(source) == [
        ":DRAWS_PER_RESULT", ":PAIR_RETRIES", "unique_draws:DRAWS_PER_RESULT",
        "Long.sample:DRAWS_PER_RESULT", ":DRAWS_PER_RESULT",
    ]


def test_one_draw_budget():
    # Every sampler draws through ``templates.unique_draws``, so how many
    # draws a sampler may spend, and how it fails when they run out, is
    # decided there alone; the per-sampler budgets are gone.
    refs = {path.name: uses for path in sorted(SRC.glob("*.py"))
            if (uses := budget_references(path.read_text()))}
    assert refs == {"templates.py": [":DRAWS_PER_RESULT", "unique_draws:DRAWS_PER_RESULT"]}


def test_cli_import_leaves_out_scipy():
    # Only ``pearson``'s p-value needs scipy (``scipy.special.stdtr``), and
    # it imports it itself: scipy and numpy are most of a command's start-up
    # time and memory otherwise.
    code = ("import sys, alforge.cli; "
            "print(any(m.split('.')[0] in ('scipy', 'numpy') for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_out_the_pool():
    # ``pipeline --threads N`` imports its process pool itself: the two
    # modules would add about 30 ms to every command's start-up otherwise.
    code = ("import sys, alforge.cli; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.strip() == "[]"
