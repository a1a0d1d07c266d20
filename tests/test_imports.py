"""Every import in the package modules and in the tests is used: a name an
import binds is read somewhere in its module.  A deletion that leaves an
import behind fails here.  fraclie/__init__.py is exempt, since its imports
are the package's exports."""
import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "fraclie").glob("*.py")
                 if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of a module that the module never
    reads, in source order.  A string annotation counts as a read of the
    names it parses to."""
    tree = ast.parse(source)
    bound: list[tuple[str, int]] = []
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds a; `import a.b as c` binds c
            bound += [(a.asname or a.name.split(".")[0], node.lineno)
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                bound += [(a.asname or a.name, node.lineno) for a in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                read.update(n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    src = ("import os\nfrom x import (a, b as c, D)\nimport p.q\n"
           "def f(y: 'D'):\n    print(a, p, 'c')\n")
    assert unused_imports(src) == ["line 1: os", "line 2: c"]
