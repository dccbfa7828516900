"""Every name a module imports is used in that module, and every private
helper of the package is used by the package.

The import scan covers the package's modules, the test files and the
demos.  It is an AST scan, so it needs no linter: a name counts as used
when it is read anywhere in the module, in a string annotation included.
An import line marked `# noqa: F401` is exempt, and so is the package's
`__init__.py`, whose imports are its public interface.

The helper scan covers the module-level functions of the package whose
names start with an underscore: each must be referenced, as a name or an
attribute, somewhere in the package outside its own definition.  A
helper that only the tests call is dead code.

The route scan pins which functions of the package refer to the
order-complex entry points, so that a command path cannot start reading
order-complex homology unnoticed: the order complex is the oracle that
the synor complex and the interval ranks of the Koszul and crosscut
complexes are checked against.  interval_ranks, which reads those
complexes, is pinned with them: only `resolve` and the witness check
read it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "synorres"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("demos/*.py")])


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for note in annotations(tree):
        # an annotation such as -> "SynorComplex" names a type in a string
        for node in ast.walk(note):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(n.id for n in ast.walk(
                    ast.parse(node.value, mode="eval"))
                    if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in sorted(
        imported.items(), key=lambda item: item[1]) if name not in used]


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import_and_honours_noqa():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "from json import dumps, loads\n"
              "from sys import path  # noqa: F401\n"
              "from pathlib import Path\n"
              "def f(x: \"os\") -> \"Path\":\n"
              "    return loads, \"dumps\"\n")
    assert unused_imports(source) == ["line 3: dumps"]


def unreferenced_helpers(sources: dict[str, str]) -> list[str]:
    """The module-level private functions, as `module.name`, that no
    code in sources refers to outside their own definitions."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    helpers = {(name, node.name): node for name, tree in trees.items()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name.startswith("_")}
    inside = {id(n): key for key, node in helpers.items()
              for n in ast.walk(node)}
    used = set()
    for name, tree in trees.items():
        for node in ast.walk(tree):
            ref = node.id if isinstance(node, ast.Name) else \
                node.attr if isinstance(node, ast.Attribute) else None
            if ref is not None and inside.get(id(node)) != (name, ref):
                used.add(ref)
    return [f"{name}.{helper}" for name, helper in sorted(helpers)
            if helper not in used]


def test_every_private_helper_is_used_by_the_package():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unreferenced_helpers(sources) == []


def test_the_helper_scan_finds_a_dead_helper():
    # _dead calls _by_name, b reads _by_attribute off a, and only its
    # own body names _recursive; methods and public functions are exempt
    sources = {
        "a": ("def _by_name():\n    return 1\n"
              "def _by_attribute():\n    return 2\n"
              "def _recursive(n):\n    return _recursive(n - 1)\n"
              "def _dead():\n    return _by_name()\n"
              "class C:\n    def _method(self):\n        return 0\n"
              "def public():\n    return 3\n"),
        "b": "import a\nx = a._by_attribute\n",
    }
    assert unreferenced_helpers(sources) == ["a._dead", "a._recursive"]


ORDER_COMPLEX_ENTRY_POINTS = ("interval_ranks", "all_homology_ranks",
                              "betti_from_intervals", "synors",
                              "open_interval")


def referrers(sources: dict[str, str], names) -> dict[str, set[str]]:
    """For each of names, the code in sources that refers to it, as a
    name or an attribute: `module.function` or `module.Class.method`
    (nested functions count as their enclosing one), `module.Class` for
    the rest of a class body, or `module` for module-level code; imports
    are not references."""
    def named(prefix, node):
        return f"{prefix}.{node.name}" if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
            else prefix

    out = {name: set() for name in names}
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            owner = named(module, stmt)
            if isinstance(stmt, ast.ClassDef):
                owners = [(named(owner, node), node) for node in stmt.body]
            else:
                owners = [(owner, stmt)]
            for owner, tree in owners:
                for node in ast.walk(tree):
                    ref = node.id if isinstance(node, ast.Name) else \
                        node.attr if isinstance(node, ast.Attribute) else None
                    if ref in out:
                        out[ref].add(owner)
    return out


def test_only_the_oracles_read_the_order_complex():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert referrers(sources, ORDER_COMPLEX_ENTRY_POINTS) == {
        "interval_ranks": {"verify.DecompositionWitness.verify",
                           "cli.cmd_resolve"},
        "all_homology_ranks": {"resolution.betti_from_intervals",
                               "synor.synors", "cli._verify_properties"},
        "betti_from_intervals": set(),
        "synors": {"cli._verify_properties"},
        "open_interval": {"resolution.betti_from_intervals"},
    }


def test_the_route_scan_names_each_referrer():
    # a call, an attribute read and a bare reference all count, inside
    # functions, methods and module-level code; an import does not
    sources = {
        "a": ("from b import f\n"
              "def g():\n    def inner():\n        return f()\n"
              "    return inner\n"
              "class C:\n    x = f\n"
              "    def m(self):\n        return self.f\n"
              "table = {'f': f}\n"),
        "b": "def f():\n    return 1\ndef h():\n    return 2\n",
    }
    assert referrers(sources, ("f", "h")) == {
        "f": {"a.g", "a.C", "a.C.m", "a"}, "h": set()}
