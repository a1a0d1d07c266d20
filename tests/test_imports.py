"""Every import in the package modules and in the tests is used: a name an
import binds is read somewhere in its module.  A deletion that leaves an
import behind fails here.  fraclie/__init__.py is exempt, since its imports
are the package's exports.  The runtime import, that of fraclie.cli, holds
every package module but the test-only fraclie.lemmas, and of those only
fraclie.model builds a Field: the system's one, PDESystem.field."""
import ast
import pathlib
import subprocess
import sys

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


RUNTIME_PROBE = """
import sys
sys.path.insert(0, {src!r})
import fraclie.cli
print(" ".join(sorted(m for m in sys.modules if m.startswith("fraclie."))))
"""


def field_constructions(source: str) -> list[int]:
    """The lines of a module that call Field(...)."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) == "Field"
                 or getattr(node.func, "attr", None) == "Field")]


@pytest.mark.parametrize("path", sorted(
    p for p in (ROOT / "src" / "fraclie").glob("*.py")
    if p.name not in ("lemmas.py", "model.py")), ids=lambda p: p.name)
def test_only_the_model_builds_a_field_at_runtime(path):
    assert field_constructions(path.read_text()) == []


def test_the_scan_finds_a_field_construction():
    src = "from x import Field\nf = Field(a)\ng = linsolve.Field()\nh = fld.zero\n"
    assert field_constructions(src) == [2, 3]


def test_the_runtime_import_is_the_package_but_the_lemmas():
    # -S: no site hooks, so only this import loads package modules
    probe = RUNTIME_PROBE.format(src=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-S", "-c", probe],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    package = {f"fraclie.{p.stem}" for p in (ROOT / "src" / "fraclie").glob("*.py")
               if p.name != "__init__.py"}
    assert set(out.stdout.split()) == package - {"fraclie.lemmas"}
