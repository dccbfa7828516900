"""Every name a module imports is used in that module.

The scan covers the package's modules, the test files and the demos.
It is an AST scan, so it needs no linter: a name counts as used when it
is read anywhere in the module, in a string annotation included.  An
import line marked `# noqa: F401` is exempt, and so is the package's
`__init__.py`, whose imports are its public interface.
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
