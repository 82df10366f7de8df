"""Diagrams of chain complexes over one ring and their totalisation.

A diagram has the shape (minus --> mid <-- plus) with the two structure
maps being chain maps.  Its totalisation stacks, in degree n, the blocks
minus_n, plus_n, mid_{n+1}, with differential

    (a-, a+, a)  |->  (d a-, d a+, -mu_minus(a-) + mu_plus(a+) - d a).

It is a complex exactly when the diagram is valid, and then it is an
extension of minus (+) plus by mid[1], split in each degree; of the two,
only the first can fail, and ``ses_check`` checks it.

The levelwise kernel of (-mu_minus + mu_plus) is the complex of global
sections; its inclusion into the totalisation is a quasi-isomorphism
whenever every level has vanishing first cohomology.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import ChainComplex, ChainMap
from .errors import RingMismatchError, ShapeError
from .matrices import LaurentMatrix
from .smith import kernel_basis, kernel_coordinates


@dataclass(frozen=True)
class ComplexDiagram:
    minus: ChainComplex
    mid: ChainComplex
    plus: ChainComplex
    from_minus: ChainMap      # minus -> mid
    from_plus: ChainMap       # plus -> mid

    def __post_init__(self):
        rings = {self.minus.ring, self.mid.ring, self.plus.ring}
        bases = {self.minus.base, self.mid.base, self.plus.base}
        if len(rings) != 1 or len(bases) != 1:
            raise RingMismatchError(
                "diagram constituents live over different rings")
        if (self.from_minus.source != self.minus
                or self.from_minus.target != self.mid):
            raise ShapeError("from_minus must map minus into mid")
        if (self.from_plus.source != self.plus
                or self.from_plus.target != self.mid):
            raise ShapeError("from_plus must map plus into mid")

    @property
    def ring(self):
        return self.mid.ring

    @property
    def base(self):
        return self.mid.base

    def validate(self):
        problems = []
        for name, c in (("minus", self.minus), ("mid", self.mid),
                        ("plus", self.plus)):
            problems += [f"{name}: {p}" for p in c.validate()]
        problems += [f"from_minus: {p}" for p in self.from_minus.validate()]
        problems += [f"from_plus: {p}" for p in self.from_plus.validate()]
        return problems


@dataclass(frozen=True)
class DiagramMap:
    """Triple of chain maps compatible with the structure maps."""

    source: ComplexDiagram
    target: ComplexDiagram
    on_minus: ChainMap
    on_mid: ChainMap
    on_plus: ChainMap

    def validate(self):
        problems = []
        for name, f in (("minus", self.on_minus), ("mid", self.on_mid),
                        ("plus", self.on_plus)):
            problems += [f"on_{name}: {p}" for p in f.validate()]
        lo = min(self.source.mid.lo, self.target.mid.lo)
        hi = max(self.source.mid.hi, self.target.mid.hi)
        for m in range(lo, hi + 1):
            left = self.on_mid.component(m) @ self.source.from_minus.component(m)
            right = self.target.from_minus.component(m) @ self.on_minus.component(m)
            if left != right:
                problems.append(f"degree {m}: minus square does not commute")
            left = self.on_mid.component(m) @ self.source.from_plus.component(m)
            right = self.target.from_plus.component(m) @ self.on_plus.component(m)
            if left != right:
                problems.append(f"degree {m}: plus square does not commute")
        return problems


def _hyper_support(d: ComplexDiagram):
    lo = min(d.minus.lo, d.plus.lo, d.mid.lo - 1)
    hi = max(d.minus.hi, d.plus.hi, d.mid.hi - 1)
    return lo, hi


def hypercohomology(d: ComplexDiagram) -> ChainComplex:
    """Total complex of the diagram, blocks ordered (minus, plus, mid[1])."""
    ring = d.ring
    lo, hi = _hyper_support(d)
    ranks = {n: d.minus.rank(n) + d.plus.rank(n) + d.mid.rank(n + 1)
             for n in range(lo, hi + 1)}
    diffs = {}
    for n in range(lo + 1, hi + 1):
        diffs[n] = LaurentMatrix.block(ring, [
            [d.minus.diff(n), None, None],
            [None, d.plus.diff(n), None],
            [-d.from_minus.component(n), d.from_plus.component(n),
             -d.mid.diff(n + 1)],
        ])
    return ChainComplex(ring, d.base, lo, hi, ranks, diffs)


def phi_star(phi: DiagramMap) -> ChainMap:
    """Induced map on totalisations: blockwise (minus, plus, mid[1])."""
    src = hypercohomology(phi.source)
    tgt = hypercohomology(phi.target)
    ring = src.ring
    comps = {}
    for n in range(min(src.lo, tgt.lo), max(src.hi, tgt.hi) + 1):
        comps[n] = LaurentMatrix.block(ring, [
            [phi.on_minus.component(n), None, None],
            [None, phi.on_plus.component(n), None],
            [None, None, phi.on_mid.component(n + 1)],
        ])
    return ChainMap(src, tgt, comps)


def sections_matrix(d: ComplexDiagram, n: int) -> LaurentMatrix:
    """The level-n map (-mu_minus | mu_plus): minus_n + plus_n -> mid_n."""
    return LaurentMatrix.block(d.ring, [[-d.from_minus.component(n),
                                         d.from_plus.component(n)]])


def sections_complex(d: ComplexDiagram):
    """H0 applied levelwise, with its inclusion into the totalisation.

    Returns (h0 complex, iota: h0 -> hypercohomology(d)).  Each level is
    the kernel of the level map, a basis K_n from ``kernel_basis`` (a
    column echelon reduction over K[x,x^-1]), so the result is an honest
    complex of free modules.  Its differential in degree n is the matrix
    of coordinates, by ``kernel_coordinates``, of the images of K_n in
    the basis K_{n-1}.
    """
    ring = d.ring
    hyper = hypercohomology(d)
    lo = min(d.minus.lo, d.plus.lo)
    hi = max(d.minus.hi, d.plus.hi)
    kernels = {n: kernel_basis(sections_matrix(d, n))
               for n in range(lo, hi + 1)}
    ranks = {n: kernels[n].cols for n in range(lo, hi + 1)}
    diffs = {}
    for n in range(lo + 1, hi + 1):
        block = LaurentMatrix.block(ring, [[d.minus.diff(n), None],
                                           [None, d.plus.diff(n)]])
        image = block @ kernels[n]
        diffs[n] = kernel_coordinates(kernels[n - 1], image)
    h0 = ChainComplex(ring, d.base, lo, hi, ranks, diffs)
    comps = {}
    for n in range(lo, hi + 1):
        kb = kernels[n]
        pad = LaurentMatrix.zero(ring, d.mid.rank(n + 1), kb.cols)
        comps[n] = LaurentMatrix.block(ring, [[kb], [pad]])
    iota_map = ChainMap(h0, hyper, comps)
    return h0, iota_map


def iota(d: ComplexDiagram) -> ChainMap:
    """The inclusion of the levelwise global-sections complex."""
    _, incl = sections_complex(d)
    return incl


def ses_check(d: ComplexDiagram) -> bool:
    """The natural short exact sequence of complexes

        0 -> mid[1] -> total -> minus (+) plus -> 0

    holds for the canonical totalisation exactly when that is a complex.

    The total differential is block lower triangular with diagonal blocks
    d_minus, d_plus and -d_mid, so in each degree the inclusion of the mid
    block and the projection onto the (minus, plus) blocks are split exact,
    and the block form alone makes them commute with the differentials.
    What can fail is d.d = 0: its off-diagonal blocks are d mu - mu d for
    the two structure maps, so the total is a complex exactly when the
    three complexes are and both structure maps are chain maps.
    """
    return not hypercohomology(d).validate()
