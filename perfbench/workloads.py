"""The benchmark's workloads: inputs from a seed, one op, output checks.

Every workload draws its corpus in order from one ``random.Random(seed)``
with the generators of ``p1dom.generators``, so the first instances do not
depend on the corpus size and seed 777 of verify-desk begins with the 100
instances of ``tests/test_acceptance.py``.  See NOTES.md for why each
workload exists.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

from p1dom import cli, complexes, domination, extension, sheaves
from p1dom import fileformat as ff
from p1dom.complexes import ChainComplex
from p1dom.generators import random_complex, random_novikov_acyclic
from p1dom.scalars import GF, QQ, ZZ


@dataclass
class Instance:
    index: int
    complex: ChainComplex
    path: str = ""
    q_sides: tuple | None = field(default=None, repr=False)


class OpFailed(Exception):
    """An op finished but its output is wrong."""


def alternating_sum(dims: dict) -> int:
    return sum((-1) ** (q % 2) * d for q, d in dims.items())


def ledger_summary(ledger_rows, w_ranks) -> dict:
    """Ledger rows [q, w, mid, plus, minus] and W ranks, JSON-ready."""
    return {"ledger": [list(r) for r in ledger_rows],
            "w_ranks": {str(m): r for m, r in sorted(w_ranks.items())}}


def check_ledger(summary) -> str | None:
    rows = summary["ledger"]
    for q, w, mid, plus, minus in rows:
        if w != mid + plus + minus:
            return f"ledger fails in degree {q}"
    h_w = {q: w for q, w, *_ in rows}
    ranks = {int(m): r for m, r in summary["w_ranks"].items()}
    if alternating_sum(h_w) != alternating_sum(ranks):
        return "Euler characteristic of H(W) differs from that of W"
    return None


class Workload:
    """A corpus drawn from a seed, the op run on each instance, its checks.

    One run measures ``passes`` passes over a corpus of ``corpus_size``
    instances, so a run times the same instances however fast the host or
    the program is.  ``ops_per_s`` sizes the corpus: about that many ops
    take one second at reference host speed (see ``hostref.py``).  The
    traced run uses the first ``traced_ops`` instances.
    """

    passes = 1
    cycle = 1          # rings repeat with this period; sizes round up to it

    def corpus_size(self, seconds):
        n = math.ceil(seconds * self.ops_per_s / self.passes / self.cycle)
        return max(1, n) * self.cycle

    def setup(self, seed, workdir, size):
        """The corpus for ``seed``: the same seed gives the same instances."""
        rng = random.Random(seed)
        return [Instance(i, self.draw(rng, i)) for i in range(size)]

    def check(self, inst, summary):
        return check_ledger(summary)


class VerifyDesk(Workload):
    """`p1dom verify FILE --format report` on desk-scale inputs, in-process."""

    name = "verify-desk"
    default_seed = 777
    ops_per_s = 17.0
    cycle = 5
    traced_ops = 150

    def draw(self, rng, i):
        # the rings of the acceptance corpus; max_rank 3 and span 1
        ring = QQ if i % 5 == 0 else GF(7)
        return random_novikov_acyclic(rng, ring)

    def setup(self, seed, workdir, size):
        corpus = super().setup(seed, workdir, size)
        for inst in corpus:
            inst.path = os.path.join(workdir, f"desk-{inst.index}.cplx")
            ff.save_path(inst.path, ff.complex_to_dict(inst.complex))
        self.out_path = os.path.join(workdir, "report.json")
        return corpus

    def op(self, inst):
        return cli.main(["verify", inst.path, "--format", "report",
                         "--out", self.out_path])

    def summarize(self, inst, code):
        if code != 0:
            raise OpFailed(f"verify exited with {code}")
        with open(self.out_path, encoding="utf-8") as fh:
            report = json.load(fh)
        if report["verdict"] != "PASS":
            raise OpFailed("verify returned FAIL")
        wit = report["witness"]
        rows = [(r["degree"], r["w_dim"], r["mid_kdim"], r["plus_dim"],
                 r["minus_dim"]) for r in wit["ledger"]]
        return ledger_summary(rows, {int(m): r
                                     for m, r in wit["w_ranks"].items()})


class VerifyStress(Workload):
    """verify_theorem on Novikov-acyclic complexes of total rank 10-20."""

    name = "verify-stress"
    default_seed = 2279
    ops_per_s = 0.6
    cycle = 2
    traced_ops = 10

    def draw(self, rng, i):
        ring = QQ if i % 2 == 0 else GF(10007)
        while True:
            c = random_novikov_acyclic(rng, ring, max_rank=10, span=2)
            if 10 <= sum(c.rank(m) for m in c.degrees()) <= 20:
                return c

    def op(self, inst):
        return domination.verify_theorem(inst.complex)

    def summarize(self, inst, report):
        if not report.passed:
            raise OpFailed("verify_theorem returned FAIL")
        wit = report.witness
        if not wit.ledger_holds:
            raise OpFailed("ledger does not hold")
        rows = [(r.degree, r.w_dim, r.mid_kdim, r.plus_dim, r.minus_dim)
                for r in wit.ledger]
        return ledger_summary(rows, wit.w_ranks())


class TorusSections(Workload):
    """novikov -> extend -> h0 -> homology, the chain that skips the charts."""

    name = "torus-sections"
    default_seed = 1403
    ops_per_s = 580.0
    passes = 9
    cycle = 3
    traced_ops = 300

    def draw(self, rng, i):
        ring = (QQ, GF(10007), ZZ)[i % 3]
        if ring is ZZ:
            # random_complex over Z mostly stops at the Euler shortcut
            return random_novikov_acyclic(rng, ZZ)
        # at most 3 pieces: see NOTES.md
        return random_complex(rng, ring, max_length=4, max_rank=3, span=3)

    def op(self, inst):
        c = inst.complex
        verdict = domination.novikov_check(c)
        ext = extension.extend_complex(c)
        w = sheaves.cech_complex(ext.sheaf)
        h = complexes.homology(w) if c.ring.is_field else None
        round_trip = extension.restrict_to_torus(ext.sheaf) == c
        return verdict, ext, w, h, round_trip

    def summarize(self, inst, result):
        verdict, ext, w, h, round_trip = result
        if not round_trip:
            raise OpFailed("restrict_to_torus(extend(C)) != C")
        return {
            "novikov": [verdict.x_side.acyclic, verdict.x_inv_side.acyclic],
            "profile": [[m, k, l] for m, (k, l) in sorted(ext.profile.items())],
            "w_ranks": {str(m): w.rank(m) for m in w.degrees()},
            "h_dims": None if h is None else
            {str(q): e.kdim for q, e in sorted(h.entries.items())},
        }

    def check(self, inst, summary):
        ranks = {int(m): r for m, r in summary["w_ranks"].items()}
        if summary["h_dims"] is not None:
            dims = {int(q): d for q, d in summary["h_dims"].items()}
            if alternating_sum(dims) != alternating_sum(ranks):
                return "Euler characteristic of H(W) differs from that of W"
        if inst.complex.ring is ZZ and "yes" in summary["novikov"]:
            if inst.q_sides is None:
                data = ff.complex_to_dict(inst.complex)
                data["ring"] = "Q"
                v = domination.novikov_check(ff.complex_from_dict(data))
                inst.q_sides = (v.x_side.acyclic, v.x_inv_side.acyclic)
            for z_side, q_side in zip(summary["novikov"], inst.q_sides):
                if z_side == "yes" and q_side != "yes":
                    return "Z-mode yes where the complex over Q is not acyclic"
        return None


WORKLOADS = {w.name: w for w in (VerifyDesk, VerifyStress, TorusSections)}
