"""No module of the package or of its tests imports a name it never uses.

A name counts as used when it appears anywhere in the module as a bare
name: a call, an annotation, a base class, a decorator or the head of an
attribute chain.  `from __future__` imports are exempt.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "drinfeldlab").glob("*.py")) + \
    sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str):
    """Names bound by import statements in source and never read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detector():
    source = ("import os, sys\nimport a.b as ab\nfrom x import (y, z as w)\n"
              "from __future__ import annotations\n"
              "def f(q: y) -> None:\n    return sys.path, ab\n")
    assert unused_imports(source) == [(1, "os"), (3, "w")]


@pytest.mark.parametrize("source", [
    "from m import f\nf()\n",
    "from m import T\ndef f(x: T):\n    pass\n",
    "from m import B\nclass C(B):\n    pass\n",
    "from m import d\n@d\ndef f():\n    pass\n",
    "import a.b.c\na.b.c.run()\n",
], ids=["call", "annotation", "base-class", "decorator", "attribute-head"])
def test_detector_counts_use(source):
    assert unused_imports(source) == []


def test_detector_attribute_tail_is_not_a_use():
    assert unused_imports("import os\nx.os\n") == [(1, "os")]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
