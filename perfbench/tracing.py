"""Outside-in tracing of p1dom: wrappers around the names layers call through.

The library is never edited.  A wrapper replaces a module-level function in
every ``p1dom`` module that binds it (``from .complexes import homology``
copies the name, so each copy is patched), or a method on its class.  Span
wrappers record ``(name, start, end, parent, op)`` in memory; counter
wrappers only count calls.  Names that no longer exist are reported as
absent, so a later refactor that deletes one does not break the run.
"""

from __future__ import annotations

import collections
import functools
import sys
import time


def _matrix_cells(m):
    return m.rows * m.cols


def _complex_cells(c):
    return sum(d.rows * d.cols for d in c.diffs.values())


def _complex_rank_total(c):
    return sum(c.rank(m) for m in c.degrees())


def _decided_sides(verdict):
    return sum(side.acyclic != "unknown"
               for side in (verdict.x_side, verdict.x_inv_side))


# Span wrappers: (module, attribute, span name, observer).  An observer
# returns {counter: increment} or {counter: ("max", value)} from the call's
# first argument and result; it runs outside the span's timed interval.
SPANS = (
    ("p1dom.cli", "main", "cli.main", None),
    ("p1dom.fileformat", "load_complex", "fileformat.load", None),
    ("p1dom.fileformat", "dumps_canonical", "fileformat.dump", None),
    ("p1dom.domination", "verify_theorem", "domination.verify", None),
    ("p1dom.domination", "dominate", "domination.dominate", None),
    ("p1dom.domination", "stabilised_series_dims", "domination.charts",
     lambda arg, res: {"domination.chart.order_max": ("max", res[1])}),
    ("p1dom.domination", "window_complex", "domination.window",
     lambda arg, res: {"domination.window.cells": _complex_cells(res)}),
    ("p1dom.domination", "novikov_check", "domination.novikov", None),
    ("p1dom.domination", "_novikov_integers", "domination.novikov_z",
     lambda arg, res: {"domination.novikov_z.sides": 2,
                       "domination.novikov_z.decided": _decided_sides(res)}),
    ("p1dom.complexes", "homology", "complexes.homology", None),
    ("p1dom.complexes", "homology_dims", "complexes.homology_dims", None),
    ("p1dom.matrices", "scalar_rank", "matrices.scalar_rank",
     lambda arg, res: {"matrices.scalar_rank.cells": _matrix_cells(arg)}),
    ("p1dom.matrices", "LaurentMatrix.determinant", "matrices.determinant",
     None),
    ("p1dom.smith", "smith_normal_form", "smith.snf",
     lambda arg, res: {"smith.snf.cells": _matrix_cells(arg)}),
    ("p1dom.extension", "extend_complex", "extension.extend", None),
    ("p1dom.extension", "restrict_to_torus", "extension.restrict", None),
    ("p1dom.sheaves", "cech_complex", "sheaves.cech",
     lambda arg, res: {"sheaves.w.rank_total": _complex_rank_total(res)}),
)

# Counter wrappers: (module, attribute, counter name).  A name ending in
# ".{kind}" is split by the coefficient ring kind of ``self``.
COUNTERS = (
    ("p1dom.laurent", "LaurentPoly.__init__", "laurent.poly.created"),
    ("p1dom.laurent", "LaurentPoly.__mul__", "laurent.mul.calls"),
    ("p1dom.scalars", "CoefficientRing.add", "scalars.ops.{kind}"),
    ("p1dom.scalars", "CoefficientRing.sub", "scalars.ops.{kind}"),
    ("p1dom.scalars", "CoefficientRing.mul", "scalars.ops.{kind}"),
    ("p1dom.scalars", "CoefficientRing.invert", "scalars.ops.{kind}"),
    ("p1dom.series", "TruncatedSeries.invert", "series.invert.calls"),
    ("p1dom.series", "TruncatedSeries.__mul__", "series.mul.calls"),
)


class Tracer:
    """In-memory span and counter store with wrapper installation."""

    def __init__(self):
        self.enabled = False
        self.op = None
        self.spans = []          # [name, start, end, parent, op, outermost]
        self.counts = collections.Counter()
        self.maxima = {}
        self.installed = {}      # wrapped name -> modules or class patched
        self.absent = []
        self._stack = []
        self._depth = collections.Counter()
        self._restore = []

    # -- installation -----------------------------------------------------

    def install(self):
        for module, attr, name, observer in SPANS:
            self._patch(module, attr, lambda fn, n=name, o=observer:
                        self._span_wrapper(n, fn, o))
        for module, attr, name in COUNTERS:
            self._patch(module, attr, lambda fn, n=name:
                        self._counter_wrapper(n, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, module_name, attr, make_wrapper):
        key = f"{module_name}.{attr}"
        module = sys.modules.get(module_name)
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None:
            self.absent.append(key)
            return
        wrapper = make_wrapper(original)
        if owner_name:
            self._restore.append((owner, leaf, original))
            setattr(owner, leaf, wrapper)
            self.installed[key] = [f"{module_name}.{owner_name}"]
            return
        # every p1dom module that imported the function by name
        patched = []
        for mod_name, mod in sorted(sys.modules.items()):
            if not (mod_name == "p1dom" or mod_name.startswith("p1dom.")):
                continue
            if getattr(mod, leaf, None) is original:
                self._restore.append((mod, leaf, original))
                setattr(mod, leaf, wrapper)
                patched.append(mod_name)
        self.installed[key] = patched

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn, observer):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            sid = len(tracer.spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else None,
                      tracer.op, tracer._depth[name] == 0]
            tracer.spans.append(record)
            tracer.counts[name + ".calls"] += 1
            stack.append(sid)
            tracer._depth[name] += 1
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._depth[name] -= 1
                stack.pop()
            if observer is not None:
                tracer._observe(name, observer, args, result)
            return result

        return wrapper

    def _counter_wrapper(self, name, fn):
        tracer = self
        counts = self.counts
        by_kind = name.endswith(".{kind}")
        prefix = name[:-len("{kind}")]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                counts[prefix + args[0].kind if by_kind else name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, name, observer, args, result):
        try:
            updates = observer(args[0], result)
        except (AttributeError, IndexError, TypeError) as exc:
            # a changed signature or result type loses the figure, not the op
            note = f"{name} observer ({exc})"
            if note not in self.absent:
                self.absent.append(note)
            return
        for key, value in updates.items():
            if isinstance(value, tuple):
                self.maxima[key] = max(self.maxima.get(key, 0), value[1])
            else:
                self.counts[key] += value

    # -- derived figures ------------------------------------------------------

    def inclusive_s(self, name):
        """Summed duration of the outermost spans called ``name``."""
        return sum(end - start for n, start, end, _, _, outer in self.spans
                   if n == name and outer)

    def self_times(self):
        """Span name -> duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for n, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = collections.Counter()
        for sid, (n, start, end, _, _, _) in enumerate(self.spans):
            out[n] += end - start - child[sid]
        return out

    def layer_self_times(self):
        """Layer (module) -> summed self time of its spans."""
        out = collections.Counter()
        for name, seconds in self.self_times().items():
            out[name.split(".")[0]] += seconds
        return out

    def span_records(self):
        return [{"id": sid, "name": n, "start": start, "end": end,
                 "parent": parent, "op": op}
                for sid, (n, start, end, parent, op, _)
                in enumerate(self.spans)]


def per_layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from one traced pass."""
    c = tracer.counts
    incl = tracer.inclusive_s
    sides = c["domination.novikov_z.sides"]
    values = {
        "cli.main.self_s": (tracer.self_times()["cli.main"], "s"),
        "fileformat.load_s": (incl("fileformat.load"), "s"),
        "fileformat.dump_s": (incl("fileformat.dump"), "s"),
        "domination.verify.s": (incl("domination.verify"), "s"),
        "domination.charts.s": (incl("domination.charts"), "s"),
        "domination.window.builds": (c["domination.window.calls"], "count"),
        "domination.window.build_s": (incl("domination.window"), "s"),
        "domination.window.cells": (c["domination.window.cells"], "count"),
        "domination.chart.order_max":
            (tracer.maxima.get("domination.chart.order_max", 0), "order"),
        "domination.novikov.calls": (c["domination.novikov.calls"], "count"),
        "domination.novikov.s": (incl("domination.novikov"), "s"),
        "domination.novikov_z.s": (incl("domination.novikov_z"), "s"),
        "domination.novikov_z.decided_frac":
            (c["domination.novikov_z.decided"] / sides if sides else 0.0,
             "frac"),
        "complexes.homology.calls": (c["complexes.homology.calls"], "count"),
        "complexes.homology.s": (incl("complexes.homology"), "s"),
        "complexes.homology_dims.calls":
            (c["complexes.homology_dims.calls"], "count"),
        "complexes.homology_dims.s": (incl("complexes.homology_dims"), "s"),
        "matrices.scalar_rank.calls":
            (c["matrices.scalar_rank.calls"], "count"),
        "matrices.scalar_rank.s": (incl("matrices.scalar_rank"), "s"),
        "matrices.scalar_rank.cells":
            (c["matrices.scalar_rank.cells"], "count"),
        "matrices.determinant.calls":
            (c["matrices.determinant.calls"], "count"),
        "matrices.determinant.s": (incl("matrices.determinant"), "s"),
        "smith.snf.calls": (c["smith.snf.calls"], "count"),
        "smith.snf.s": (incl("smith.snf"), "s"),
        "smith.snf.cells": (c["smith.snf.cells"], "count"),
        "laurent.poly.created": (c["laurent.poly.created"], "count"),
        "laurent.mul.calls": (c["laurent.mul.calls"], "count"),
        "scalars.ops.Q": (c["scalars.ops.Q"], "count"),
        "scalars.ops.GF": (c["scalars.ops.GF"], "count"),
        "series.invert.calls": (c["series.invert.calls"], "count"),
        "series.mul.calls": (c["series.mul.calls"], "count"),
        "extension.extend.s": (incl("extension.extend"), "s"),
        "sheaves.cech.s": (incl("sheaves.cech"), "s"),
        "sheaves.w.rank_total": (c["sheaves.w.rank_total"], "count"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}
