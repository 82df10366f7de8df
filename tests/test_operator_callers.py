"""Every arithmetic operator method of the library has a library caller.

``test_library_callers`` matches the names that the source reads, and no
name reads an operator method: ``a + b`` calls ``__add__``.  So this test
probes at run time.  It wraps each method of OPERATORS that a class
under src/p1dom/ defines itself, runs the library's entry points, and
names each wrapped method that no call from a frame of a file under
src/p1dom/ or perfbench/ reached.  A method only the tests call belongs
in ``tests/helpers.py`` as a function, as the Laurent polynomial and
matrix arithmetic does (``polyadd``, ``matmul``, ...).

The entry points: ``verify``, ``dominate``, ``novikov``, ``extend``,
``homology`` and ``hyper`` in human and in report mode, and ``h0``, on
every file of samples/ (``two-minus-x.cplx`` and ``z-contraction.cplx``
take ``novikov`` down the Z paths); and the first ``cycle`` instances of
each perfbench workload at its default seed, the callers that
``test_library_callers`` also counts.

What the probe cannot reach:
- a library path that these runs do not take (an error branch, a size no
  sample or instance has): an operator called only there is named as
  uncalled, so a real caller on such a path needs an entry point here;
- the caller behind a call from inside another operator method of the
  library, which counts as a library call even when only the tests call
  the outer method; the outer one is named, and once it is gone the
  inner one is;
- a method that a class inherits from outside the library (a
  ``NamedTuple``'s ``tuple.__add__``), or that is set on a class after
  import, or defined on a class that is not a module-level name.
A call through a builtin such as ``sum`` or ``functools.reduce`` has no
frame of its own and counts for the Python frame that called the builtin.
"""

import contextlib
import functools
import importlib
import io
import pkgutil
import sys
from pathlib import Path

import p1dom
from p1dom import cli
from p1dom.matrices import LaurentMatrix

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "p1dom"
PERFBENCH = ROOT / "perfbench"
SAMPLES = sorted((ROOT / "samples").iterdir())
COMMANDS = ("verify", "dominate", "novikov", "extend", "homology", "hyper")

_BINARY = ("add", "sub", "mul", "matmul", "truediv", "floordiv", "mod",
           "divmod", "pow")
OPERATORS = (
    ["__neg__", "__pos__", "__abs__"]
    + [f"__{op}__" for op in _BINARY]
    + [f"__r{op}__" for op in _BINARY]
    + [f"__i{op}__" for op in _BINARY if op != "divmod"])


def library_classes():
    """Every class that a module of the ``p1dom`` package defines as a
    module-level name."""
    classes = []
    for info in pkgutil.iter_modules(p1dom.__path__):
        module = importlib.import_module(f"p1dom.{info.name}")
        classes += [obj for obj in vars(module).values()
                    if isinstance(obj, type)
                    and obj.__module__ == module.__name__]
    return classes


@functools.lru_cache(maxsize=None)
def _under(filename, roots):
    path = Path(filename).resolve()
    return any(path.is_relative_to(root) for root in roots)


def _probe(method, label, called, roots):
    """``method``, recording ``label`` in ``called`` when a frame of a
    file under ``roots`` calls it."""
    @functools.wraps(method)
    def probe(*args, **kwargs):
        if label not in called and _under(
                sys._getframe(1).f_code.co_filename, roots):
            called.add(label)
        return method(*args, **kwargs)
    return probe


def uncalled_operators(classes, roots, run):
    """Sorted "module.Class.method" of each method of OPERATORS that a
    class of ``classes`` defines itself and that no frame of a file under
    ``roots`` called while ``run()`` ran; the methods are restored
    afterwards."""
    roots = tuple(Path(root).resolve() for root in roots)
    called, wrapped = set(), []
    try:
        for cls in classes:
            for name in OPERATORS:
                method = cls.__dict__.get(name)
                if method is None:
                    continue
                label = f"{cls.__module__}.{cls.__qualname__}.{name}"
                wrapped.append((cls, name, method, label))
                setattr(cls, name, _probe(method, label, called, roots))
        run()
    finally:
        for cls, name, method, _ in wrapped:
            setattr(cls, name, method)
    return sorted(label for *_, label in wrapped if label not in called)


def run_entry_points(workdir):
    """The CLI on every sample, then the first instances of each
    perfbench workload; returns the exit codes of the CLI runs by
    argument list."""
    codes = {}
    out = str(workdir / "out")
    runs = [[command, str(path), "--format", fmt]
            for path in SAMPLES for command in COMMANDS
            for fmt in ("human", "report")]
    # h0 writes a complex file in either mode, so it takes no --format
    runs += [["h0", str(path), "--out", out] for path in SAMPLES]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        for argv in runs:
            codes[tuple(argv)] = cli.main(argv)
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    for cls in workloads.WORKLOADS.values():
        workload = cls()
        corpus = workload.setup(workload.default_seed, str(workdir),
                                workload.cycle)
        for inst in corpus:
            summary = workload.summarize(inst, workload.op(inst))
            assert workload.check(inst, summary) is None, (cls.name, inst)
    return codes


def test_the_probe_names_an_operator_only_the_tests_call(tmp_path):
    lib = tmp_path / "lib"
    lib.mkdir()
    (lib / "probe_vectors.py").write_text(
        "class Vec:\n"
        "    def __init__(self, x): self.x = x\n"
        "    def __add__(self, other): return Vec(self.x + other.x)\n"
        "    def __neg__(self): return Vec(-self.x)\n"
        "    def __sub__(self, other): return self + -other\n"
        "    def __mul__(self, k): return Vec(self.x * k)\n"
        "    __rmul__ = __mul__\n"
        "    def __eq__(self, other): return self.x == other.x\n"
        "def total(vs): return sum(vs, Vec(0))\n", encoding="utf-8")
    sys.path.insert(0, str(lib))
    try:
        vectors = importlib.import_module("probe_vectors")
    finally:
        sys.path.remove(str(lib))
        sys.modules.pop("probe_vectors", None)
    Vec = vectors.Vec
    methods = dict(vars(Vec))

    def run():
        # sum adds from the library frame of total; the test itself calls
        # __sub__ (whose own + and - are library calls), * and 2 *
        assert vectors.total([Vec(1), Vec(2)]) == Vec(3)
        assert Vec(5) - Vec(2) == Vec(3)
        assert Vec(2) * 3 == 2 * Vec(3)

    assert uncalled_operators([Vec], [lib], run) == [
        "probe_vectors.Vec.__mul__", "probe_vectors.Vec.__rmul__",
        "probe_vectors.Vec.__sub__"]
    # every method is restored, and a run that calls nothing names all
    assert dict(vars(Vec)) == methods
    assert uncalled_operators([Vec], [lib], lambda: None) == [
        "probe_vectors.Vec.__add__", "probe_vectors.Vec.__mul__",
        "probe_vectors.Vec.__neg__", "probe_vectors.Vec.__rmul__",
        "probe_vectors.Vec.__sub__"]


def test_every_operator_method_has_a_library_or_perfbench_caller(tmp_path):
    classes = library_classes()
    assert LaurentMatrix in classes
    codes = {}
    missing = uncalled_operators(
        classes, [LIBRARY, PERFBENCH],
        lambda: codes.update(run_entry_points(tmp_path)))
    # the runs reached the pipeline: verify passes
    assert codes[("verify", str(ROOT / "samples" / "x-minus-1.cplx"),
                  "--format", "report")] == 0
    assert missing == [], (
        "no library or perfbench frame calls " + ", ".join(missing))
