"""Every public name of the library has a caller outside the tests.

A public module-level function or class, or a public method, under
src/p1dom/ must be read somewhere else in src/p1dom/ (its own
definition and ``__init__.py``, the package's export list, do not
count) or in perfbench/.  A name only tests call belongs in
``tests/helpers.py``.  The walk uses the standard ``ast`` module, as
``test_unused_imports`` does, and matches by name.  A module-level name
``f`` is read by a loaded name ``f`` or an attribute ``.f``; a method
``f`` only by an attribute ``.f`` anywhere, so that a local variable or a
parameter of the same name does not hide an uncalled method.  A string
constant is no read, in perfbench either: the span tables of
``perfbench/tracing.py`` name what they wrap, and a name that only a
tracing table names is dead code the tracer reports as absent.

Matching by name cannot tell two methods of one name apart: a read of
``.f`` counts for every method ``f``, so an uncalled method that shares
its name with a called one is not seen.  An operator method is outside
this check: its name starts with "_", and no name reads it (``a + b``
calls ``__add__``).  So a second rule keeps the library free of them:
no class under src/p1dom/ defines an arithmetic operator method, by a
``def`` or by an assignment such as ``__rmul__ = __mul__``.  The sums
and products that only the tests form are functions of
``tests/helpers.py`` (``polyadd``, ``matmul``, ...).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "p1dom"
PERFBENCH = ROOT / "perfbench"

_BINARY = ("add", "sub", "mul", "matmul", "truediv", "floordiv", "mod",
           "divmod", "pow")
OPERATORS = frozenset(
    ["__neg__", "__pos__", "__abs__"]
    + [f"__{op}__" for op in _BINARY]
    + [f"__r{op}__" for op in _BINARY]
    + [f"__i{op}__" for op in _BINARY if op != "divmod"])


def definitions(tree):
    """(qualified name, name, node) of each public module-level function
    and class and each public method of a module-level class."""
    out = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            out.append((node.name, node.name, node))
        if isinstance(node, ast.ClassDef):
            out += [(f"{node.name}.{item.name}", item.name, item)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))
                    and not item.name.startswith("_")]
    return out


def reads(tree, skip=None):
    """(names, attributes) a tree reads: its loaded names and its
    attributes.  Nothing under the node ``skip`` counts."""
    names, attributes = set(), set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names, attributes


def uncalled(library: dict, perfbench: dict) -> list:
    """Sorted "module.qualname" of each public definition in ``library``
    (module name -> source) that no other part of it, nor any source in
    ``perfbench``, reads; the module ``__init__`` is not searched."""
    trees = {name: ast.parse(source) for name, source in library.items()
             if name != "__init__"}
    outside = [reads(ast.parse(source)) for source in perfbench.values()]
    everywhere = {name: reads(tree) for name, tree in trees.items()}
    missing = []
    for module, tree in trees.items():
        for qualname, name, node in definitions(tree):
            method = qualname != name

            def seen(found):
                names, attributes = found
                return name in attributes or (not method and name in names)

            if any(seen(found) for found in outside):
                continue
            if any(seen(found) for other, found in everywhere.items()
                   if other != module):
                continue
            if not seen(reads(tree, skip=node)):
                missing.append(f"{module}.{qualname}")
    return sorted(missing)


def operator_methods(library: dict) -> list:
    """Sorted "module.Class.name" of each name of OPERATORS that a class,
    at any depth, in ``library`` (module name -> source) defines or
    assigns in its body."""
    found = []
    for module, source in library.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [item.name]
                elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                    targets = (item.targets if isinstance(item, ast.Assign)
                               else [item.target])
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                found += [f"{module}.{node.name}.{name}" for name in names
                          if name in OPERATORS]
    return sorted(found)


def test_the_operator_rule_sees_an_operator_method():
    library = {"vectors": (
        "class Vec:\n"
        "    def __init__(self, x): self.x = x\n"
        "    def __add__(self, other): return Vec(self.x + other.x)\n"
        "    def __neg__(self): return Vec(-self.x)\n"
        "    __rmul__ = __mul__ = lambda self, k: Vec(self.x * k)\n"
        "    def __eq__(self, other): return self.x == other.x\n"
        "    def add(self, other): return self + other\n"
        "def outer():\n"
        "    class Inner:\n"
        "        def __isub__(self, other): return self\n"
        "    return Inner\n")}
    assert operator_methods(library) == [
        "vectors.Inner.__isub__", "vectors.Vec.__add__",
        "vectors.Vec.__mul__", "vectors.Vec.__neg__",
        "vectors.Vec.__rmul__"]


def test_no_library_class_defines_an_operator_method():
    library = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(LIBRARY.glob("*.py"))}
    assert "LaurentMatrix" in library["matrices"]
    assert operator_methods(library) == []


def test_the_check_sees_an_uncalled_name():
    library = {
        "__init__": "from .a import only_exported\n",
        "a": ("def used(): return helper_b()\n"
              "def only_exported(): pass\n"
              "def recursive(n): return recursive(n - 1)\n"
              "def _private(): pass\n"
              "class Shape:\n"
              "    def area(self): return self.area_of()\n"
              "    def area_of(self): pass\n"
              "    def spanned(self): pass\n"
              "    def scaled(self): pass\n"
              "    def stacked(self): pass\n"
              "    def _hidden(self): pass\n"
              "    def __eq__(self, other): pass\n"),
        # a parameter and a local that share a method's name read no method
        "b": ("from .a import used, Shape\n"
              "def helper_b(scaled=1): return used(), Shape, scaled\n"
              "def traced(): pass\n"
              "def measured(): pass\n"),
    }
    # a string naming a function or method is no read; code is
    perfbench = {"tracing": "SPANS = [('p1dom.a', 'Shape.spanned')]\n"
                            "LABEL = 'traced'\n",
                 "run": "from p1dom import b\nb.measured()\n"
                        "stacked = [1]\nprint(stacked)\n"}
    assert uncalled(library, perfbench) == [
        "a.Shape.area", "a.Shape.scaled", "a.Shape.spanned",
        "a.Shape.stacked", "a.only_exported", "a.recursive", "b.traced"]


def test_every_public_name_has_a_library_or_perfbench_caller():
    library = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(LIBRARY.glob("*.py"))}
    perfbench = {p.stem: p.read_text(encoding="utf-8")
                 for p in sorted(PERFBENCH.glob("*.py"))}
    assert uncalled(library, perfbench) == []
