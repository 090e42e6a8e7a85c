"""No module of the package or of its tests imports a name it never uses,
no private top-level def or class of the package goes unreferenced, every
public one that the package never names is a declared entry point, and
no method goes unnamed by the package: a test oracle lives in
tests/helpers.py.

A name counts as used when it appears anywhere in the module as a bare
name: a call, an annotation, a base class, a decorator or the head of an
attribute chain.  `from __future__` imports are exempt.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

from drinfeldlab import drinfeld

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


PACKAGE = sorted((ROOT / "src" / "drinfeldlab").glob("*.py"))


def _names(node):
    """Every bare name and attribute name under node."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def _unreferenced_defs(sources, counts):
    """(module, name) of each top-level def or class in sources (module ->
    source text) whose name passes counts and that no other top-level
    statement of any of them names; a def that only calls itself is
    unreferenced."""
    defined = []
    used = set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = _names(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) \
                    and counts(stmt.name):
                defined.append((module, stmt.name))
                names.discard(stmt.name)
            used |= names
    return sorted((module, name) for module, name in defined
                  if name not in used)


def unreferenced_private_defs(sources):
    """The unreferenced top-level defs and classes named _x."""
    return _unreferenced_defs(
        sources, lambda name: name.startswith("_") and not name.startswith("__"))


def unreferenced_public_defs(sources):
    """The unreferenced top-level defs and classes with a public name."""
    return _unreferenced_defs(sources, lambda name: not name.startswith("_"))


def test_private_detector():
    sources = {"a": "def _used():\n    pass\n\ndef _dead():\n    _dead()\n",
               "b": "from a import _used\nclass _Gone:\n    pass\n"
                    "def f():\n    return _used()\n"}
    assert unreferenced_private_defs(sources) == [("a", "_dead"), ("b", "_Gone")]


def test_public_detector():
    sources = {"a": "def used():\n    pass\n\ndef dead():\n    dead()\n"
                    "def _helper():\n    pass\n",
               "b": "from a import used\nclass Gone:\n    pass\n"
                    "def f():\n    return used()\n"}
    assert unreferenced_public_defs(sources) == [
        ("a", "dead"), ("b", "Gone"), ("b", "f")]


def test_every_private_def_is_referenced():
    sources = {path.name: path.read_text() for path in PACKAGE}
    assert unreferenced_private_defs(sources) == []


# The public names that nothing in the package calls because callers outside
# it do: the text parsers, the four pipelines and the report and
# certificate tools.  The names that the benchmark's layer table wraps are
# entry points too (bench_entry_points below).
ENTRY_POINTS = (
    ("adelic.py", "certificate_json"),
    ("base.py", "felem_parse"),
    ("base.py", "rpoly_parse"),
    ("experiments.py", "generic_char_experiment"),
    ("experiments.py", "poly_parse"),
    ("experiments.py", "theta_box"),
    ("experiments.py", "uniform_dml_reduce"),
    ("experiments.py", "uniformity_probe"),
    ("experiments.py", "zero_dim_intersection"),
    ("kfield.py", "kelem_parse"),
    ("phimodule.py", "divisible_hull"),
    ("phimodule.py", "module_parse"),
    ("phimodule.py", "point_parse"),
    ("places.py", "place_parse"),
)

BENCH_LAYERS = ROOT / "bench" / "layers.py"


def bench_targets():
    """The dotted `<module>.<attr>` callables that bench/layers.py's
    targets() wraps, read with ast so that bench is not imported."""
    tree = ast.parse(BENCH_LAYERS.read_text())
    func = next(stmt for stmt in tree.body
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "targets")
    return sorted(ast.unparse(node.elts[1]) for node in ast.walk(func)
                  if isinstance(node, ast.Tuple) and len(node.elts) >= 2
                  and isinstance(node.elts[0], ast.Constant))


def bench_entry_points():
    """(module file, name) of each wrapped top-level def, and (module file,
    "Class.method") of each wrapped method."""
    out = set()
    for dotted in bench_targets():
        module, *rest = dotted.split(".")
        out.add((f"{module}.py", ".".join(rest)))
    return out


def test_bench_targets_are_read():
    targets = bench_targets()
    assert len(targets) == len(set(targets)) > 20
    assert {"places.get_trunc_ring", "base.fp_solve_many",
            "experiments.MultiPoly.evaluate"} <= set(targets)


@pytest.mark.parametrize("dotted", bench_targets())
def test_bench_target_resolves(dotted):
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"drinfeldlab.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    assert callable(obj)


def test_every_public_def_is_referenced_or_an_entry_point():
    sources = {path.name: path.read_text() for path in PACKAGE}
    assert set(unreferenced_public_defs(sources)) <= \
        set(ENTRY_POINTS) | bench_entry_points()


def test_entry_points_exist():
    defined = {(path.name, stmt.name) for path in PACKAGE
               for stmt in ast.parse(path.read_text()).body
               if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))}
    assert set(ENTRY_POINTS) <= defined


def unreferenced_methods(sources):
    """(module, "Class.method") of each non-dunder method of a top-level
    class in sources (module -> source text) whose name nothing else in
    them names as an attribute or a bare name; a method that only calls
    itself is unreferenced."""
    defined = []
    used = set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if not isinstance(stmt, ast.ClassDef):
                used |= _names(stmt)
                continue
            for item in stmt.body:
                names = _names(item)
                if isinstance(item, ast.FunctionDef) \
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__")):
                    defined.append((module, stmt.name, item.name))
                    names.discard(item.name)
                used |= names
    return sorted((module, f"{cls}.{name}") for module, cls, name in defined
                  if name not in used)


def test_method_detector():
    sources = {"a": "class A:\n    def __init__(self):\n        self.used()\n"
                    "    def used(self):\n        pass\n"
                    "    def dead(self):\n        return self.dead()\n"
                    "    @property\n    def prop(self):\n        pass\n",
               "b": "from a import A\nclass B(A):\n    def gone(self):\n"
                    "        pass\n"
                    "def f(a):\n    return a.prop\n"}
    assert unreferenced_methods(sources) == [("a", "A.dead"), ("b", "B.gone")]


def test_every_method_is_referenced_or_a_test_oracle():
    """A method that only the tests call is a test oracle or a builder of
    test data, and belongs in tests/helpers.py, not in the package."""
    sources = {path.name: path.read_text() for path in PACKAGE}
    assert set(unreferenced_methods(sources)) <= bench_entry_points()


# Module structure is read from one Smith form: phimodule._module_structure
# is the only caller of base.smith_normal_form in the package.
SMITH_OWNER = ("phimodule.py", "_module_structure")


def smith_form_sites(sources):
    """(module, line) of each name smith_normal_form in sources (module ->
    source text) outside base.py and the owner def; imports do not
    count."""
    found = []
    for module, source in sources.items():
        if module == "base.py":
            continue
        for stmt in ast.parse(source).body:
            if isinstance(stmt, ast.FunctionDef) \
                    and (module, stmt.name) == SMITH_OWNER:
                continue
            found += [(module, node.lineno) for node in ast.walk(stmt)
                      if (isinstance(node, ast.Name)
                          and node.id == "smith_normal_form")
                      or (isinstance(node, ast.Attribute)
                          and node.attr == "smith_normal_form")]
    return sorted(found)


def test_smith_form_detector():
    sources = {"base.py": "def smith_normal_form(a):\n    pass\n",
               "phimodule.py": "from .base import smith_normal_form\n"
                               "def _module_structure(rows):\n"
                               "    return smith_normal_form(rows)\n"
                               "def quotient(rows):\n"
                               "    return smith_normal_form(rows)\n",
               "adelic.py": "from . import base\n"
                            "def f(rows):\n"
                            "    return base.smith_normal_form(rows)\n"}
    assert smith_form_sites(sources) == [("adelic.py", 3),
                                         ("phimodule.py", 5)]


def test_one_smith_form_reading():
    sources = {path.name: path.read_text() for path in PACKAGE}
    assert smith_form_sites(sources) == []


# Text is for output.  A K-point, a K-element or a residue is its own key,
# so no printed form of one may stand in for its identity.
TEXT_CALLS = {"point_to_str", "kelem_to_str", "str"}
TEXT_NAMES = {"point_to_str", "kelem_to_str"}       # as in map(point_to_str, ...)
SET_BUILDERS = {"set", "frozenset"}
KEY_METHODS = {"add", "discard", "remove", "get", "setdefault", "pop",
               "fromkeys"}


def _key_positions(tree):
    """Every expression of tree used as a set or dict key: dict keys, set
    elements, subscripts, operands of in / not in, and the argument of
    set(), frozenset() and of the keyed dict and set methods."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            yield from (key for key in node.keys if key is not None)
        elif isinstance(node, ast.Set):
            yield from node.elts
        elif isinstance(node, ast.SetComp):
            yield node.elt
        elif isinstance(node, ast.DictComp):
            yield node.key
        elif isinstance(node, ast.Subscript):
            yield node.slice
        elif isinstance(node, ast.Compare):
            operands = [node.left] + node.comparators
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if isinstance(op, (ast.In, ast.NotIn)):
                    yield left
                    yield right
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id in SET_BUILDERS) or \
                    (isinstance(func, ast.Attribute)
                     and func.attr in KEY_METHODS):
                yield from node.args[:1]


def text_keys(source: str):
    """(line, text) of each key position of source that holds a printed
    form: a call of point_to_str, kelem_to_str or str, or the name of one
    of the first two handed on."""
    found = set()
    for expr in _key_positions(ast.parse(source)):
        for node in ast.walk(expr):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in TEXT_CALLS) or \
                    (isinstance(node, ast.Name) and node.id in TEXT_NAMES):
                found.add((expr.lineno, ast.unparse(expr)))
    return sorted(found)


@pytest.mark.parametrize("source", [
    "keys = {point_to_str(x): x for x in pts}\n",
    "keys = {point_to_str(x) for x in pts}\n",
    "keys = {kelem_to_str(a), kelem_to_str(b)}\n",
    "keys = {kelem_to_str(a): 1}\n",
    "keys = frozenset(point_to_str(x) for x in pts)\n",
    "keys = set(map(kelem_to_str, xs))\n",
    "seen.add(tuple(str(r) for r in x))\n",
    "d.setdefault(point_to_str(y), y)\n",
    "hits[point_to_str(x)] = x\n",
    "ok = kelem_to_str(u + v) not in pts\n",
    "ok = key in {point_to_str(x) for x in pts}\n",
], ids=["dict-comp", "set-comp", "set", "dict", "frozenset", "map", "add",
        "setdefault", "subscript", "not-in", "in"])
def test_text_key_detector_flags(source):
    assert text_keys(source)


@pytest.mark.parametrize("source", [
    "out = sorted(points, key=point_to_str)\n",
    "note = f\"closure:{point_to_str(x)}\"\n",
    "row = {\"points\": sorted(map(point_to_str, pts))}\n",
    "keys = frozenset(pts)\n",
    "ok = tuple(x) in keys\n",
], ids=["printed-order", "note", "json-value", "value-set", "value-in"])
def test_text_key_detector_passes(source):
    assert text_keys(source) == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_no_printed_form_is_an_identity(path):
    assert text_keys(path.read_text()) == []


# The division solver's bounds are derived from the data only: no entry
# point of it takes a bound or a scan range, and it has no type of
# bounds and no warning left to give.  Tests force a cap by patching its
# module constant.
SOLVER_CALLS = ("_division_system", "solve_additive_many", "division_points",
                "k_rational_torsion", "estimate_torsion_level_m",
                "modular_transcendence_probe")


@pytest.mark.parametrize("name", SOLVER_CALLS)
def test_solver_takes_no_bound(name):
    params = inspect.signature(getattr(drinfeld, name)).parameters
    assert not {"bounds", "max_exponent"} & set(params)


def test_solver_has_no_bound_layer():
    tree = ast.parse((ROOT / "src" / "drinfeldlab" / "drinfeld.py").read_text())
    defined = {stmt.name for stmt in tree.body
               if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))}
    assert not {"HeightProfile", "BoundTooSmallWarning"} & defined
    modules = {alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    assert "warnings" not in modules
    assert (drinfeld._HARD_CAP, drinfeld._ENUM_CAP) == (24, 7000)
