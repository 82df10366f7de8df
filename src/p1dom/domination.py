"""Novikov acyclicity and the finite-domination witness pipeline.

Field mode decides acyclicity over both formal Laurent series rings at once,
by ranks.  Over a field K the rings K((x)) and K((x^-1)) are fields that
contain K(x), and the rank of a matrix over K(x) is the size of its largest
nonzero minor, which no field extension changes.  So C (x) K((x)) and
C (x) K((x^-1)) are acyclic exactly when every free rank

    f_q = rank C_q - rank d_q - rank d_{q+1}      (ranks over K(x))

is zero, which is also when every homology module over K[x,x^-1] is
torsion.  The rank terms telescope, so sum (-1)^q f_q is the Euler
characteristic chi(C): a nonzero chi is a sure "no".  Otherwise rank d_m
is the number of chart valuations ``_valuations`` reads in t = x, one per
nonzero elementary divisor over K[[x]]: the rank over K((x)), so over
K(x).  The invariant factors (``homology``) are computed only when the
``snf-torsion`` certificate is read.  Like ``homology``, ``novikov_check``
assumes d.d = 0 (in a complex f_q >= 0, ``complexes.homology_ranks``); the
CLI, ``verify_theorem`` and ``dominate`` check it first.  Over Z a square
two-term complex is acyclic on a side exactly when its determinant is a
unit of Z((t)), t = x or x^-1, that is when the determinant's lowest
coefficient in t is 1 or -1; that end coefficient is the whole certificate,
with no truncation order.  The determinant is read off the chart kernel in
t = x (``_determinant``).  Longer complexes run the same kernel as a
unit-pivot contraction on the exact entries (``_contraction_side``), which
is sound but may answer "unknown".  So one elimination serves the ranks,
the chart valuations and both Z paths: a stream of pivots whose key the
ring picks, read as far as each use needs by one reader per ring,
``_valuations`` over a field and ``_determinant`` or ``_contraction_side``
over Z.  A verdict renders its certificate (strings of factors and
determinants) only when read.

The witness produced for a Novikov-acyclic complex is the complex of global
sections W of the extension to the projective line (a ``ScalarComplex``:
sparse scalar rows, no Laurent matrix of constants), together with a ledger
checking, degree by degree,

    dim H_q(W) = dim_K H_q(C) + dim H_q(C+ (x) K[[x]]) + dim H_q(C- (x) K[[x^-1]]).

The chart columns are exact.  Over a field K, K[[x]] and K[[x^-1]] are discrete
valuation rings, so H_q of a chart complex after base change is a sum of
torsion modules K[[t]]/t^v, one for each nonzero elementary divisor of d_{q+1},
and its K-dimension is the sum of their valuations v.  These come from one
local elimination pass per differential (``_pivots``) on plain int coefficient
lists (``polylists``): residues mod p over GF(p) and integer rows over Q, with
Bareiss's exact division.  The witness reads each chart differential straight
off the rows of the torus differential and the twists, entry (i, j) being
x^(a_j(m) - a_i(m-1)) d_m[i][j] with a = -l on the plus side and a = k on the
minus side, so it builds no chart complex, renders no entry and builds no
window.  ``chart_homology`` reads the free rank and the torsion K-dimension of
each degree off the valuations, for the ledger and for ``p1dom hyper``, which
runs the elimination on an explicit K[x] complex.  The witness keeps the
valuations, per side and differential degree, as the record of the chart stage.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .complexes import (ChainComplex, HomologyReport, ScalarComplex, homology,
                        homology_dims, homology_ranks, require_valid)
from .errors import (NotNovikovAcyclicError, StabilisationFailureError,
                     UnsupportedRingError)
from .extension import extend_valid_complex
from .laurent import BaseRing, render
from .matrices import LaurentMatrix
from .polylists import ONE, exact_quotient, integer_row, lincomb, scaled
from .sheaves import SheafComplex, cech_complex

# ---------------------------------------------------------------------------
# chart homology over K[[x]] and K[[x^-1]]
# ---------------------------------------------------------------------------


def _chart_direction(c: ChainComplex) -> int:
    """+1 when the chart variable t is x (K[x]), -1 when it is x^-1."""
    if c.base == BaseRing.POLY:
        return 1
    if c.base == BaseRing.POLY_INV:
        return -1
    raise UnsupportedRingError(
        "chart valuations are defined for K[x] and K[x^-1] complexes")


def _pivots(ring, rows, direction: int, row_exps=None, col_exps=None):
    """Yield (v, r, j, unit) for each pivot of the elimination over K[[t]]
    of the chart matrix x^(col_exps[j] - row_exps[i]) rows[i][j] (no
    shift when the exponent lists are left out), ``rows`` being sparse
    rows of entries as in ``LaurentMatrix.data``, which it leaves as they
    are: v the pivot's t-adic valuation, r its row's position among the
    nonzero rows left, j its column and unit its unit u, an entry (0, c).
    Each caller stops reading where it likes, and no later step runs.

    t is x for direction 1 and x^-1 for direction -1, whose coefficient
    lists are the reversed lists in x.  The ring picks the pivot key.
    Over a field the pivot is an entry of least valuation v, then the
    first row and column; K[[t]] is a discrete valuation ring, so it is
    t^v u with u a unit, and row <- u row - (c / t^v) pivot_row clears its
    column by an invertible row operation, with no inverse and no
    truncation.  The pivot row's other entries are multiples of t^v, which
    column operations clear without touching the rest, so the pivot row
    and column drop out and v is one valuation of a nonzero elementary
    divisor.  Over Z an entry whose lowest coefficient in t is 1 or -1, a
    unit of Z((t)), comes first, then as over a field; c / t^v may then
    have negative exponents, and the v are only the pivots' valuations,
    which neither Z reader (``_determinant``, ``_contraction_side``)
    sums.  As in Bareiss's fraction-free elimination every remaining row
    is then divided, exactly, by the previous pivot's unit: entries stay
    minors of d up to a power of t, so their degrees and, over Q, the bit
    lengths of their coefficients grow linearly, not exponentially.

    The elimination runs on coefficient lists (``polylists``): residues
    mod p over GF(p), ints over Z; over Q each row is cleared of
    denominators (and made primitive) once and the elimination runs in
    Z[t], where the Bareiss division is exact because the minors are
    integral.  Scaling a row by a nonzero constant moves no valuation, but
    it would move a Z determinant, so only Q rows are scaled; rows are not
    made primitive between steps, which would break the exactness.  A
    division that leaves a remainder raises ShapeError.
    """
    p = ring.p
    clear = ring.kind == "Q"
    chart = []
    for i, row in enumerate(rows):
        shift = -row_exps[i] if row_exps else 0
        live = {}
        for j, (v, c) in row.items():
            v += shift + (col_exps[j] if col_exps else 0)
            live[j] = (v, c) if direction == 1 else (1 - v - len(c), c[::-1])
        if live and clear:
            live = dict(zip(live, integer_row(list(live.values()))))
        if live:
            chart.append(live)
    rows = chart
    prev = None
    while rows:
        if ring.is_field:
            v, r, j = min((e[0], r, j) for r, row in enumerate(rows)
                          for j, e in row.items())
        else:
            v, r, j = min((not ring.is_unit(e[1][0]), e[0], r, j)
                          for r, row in enumerate(rows)
                          for j, e in row.items())[1:]
        pivot_row = rows.pop(r)
        unit = (0, pivot_row.pop(j)[1])
        yield v, r, j, unit
        kept = []
        for row in rows:
            c = row.pop(j, None)
            if c is None:
                new = {k: lincomb(unit, e, None, None, p)
                       for k, e in row.items()}
            else:
                factor = scaled((c[0] - v, c[1]), -1, p)
                new = {k: lincomb(unit, row.get(k), factor, pivot_row.get(k),
                                  p)
                       for k in row.keys() | pivot_row.keys()}
            row = {k: e if prev is None else exact_quotient(e, prev, p)
                   for k, e in new.items() if e is not None}
            if row:
                kept.append(row)
        rows = kept
        prev = unit


def _valuations(c: ChainComplex, direction: int, exps=None) -> dict:
    """By degree, the sorted pivot valuations (``_pivots``) of each
    differential of the field complex ``c`` or, with ``exps``
    (``SheafComplex.chart_exponents``), of x^(exps[m][j] - exps[m-1][i])
    d_m[i][j]: the ledger and ``hyper`` sum them, ``novikov`` counts them."""
    out = {}
    for m, d in c.diffs.items():
        shifts = (exps[m - 1], exps[m]) if exps else ()
        out[m] = sorted([v for v, _, _, _ in _pivots(
            c.ring, d.data, direction, *shifts)])
    return out


def chart_homology(c: ChainComplex, valuations: dict | None = None) -> dict:
    """Degree q -> (free rank, torsion K-dimension) of H_q of the chart
    complex ``c`` after base change to K[[t]] (t = x on K[x], x^-1 on
    K[x^-1]), for q from lo to hi.

    K[[t]] is a discrete valuation ring, so H_q is a free module of rank
    ``homology_ranks`` on the pivot counts (the ranks over K((t))) plus the
    torsion sum K[[t]]/t^v over the valuations v of the nonzero elementary
    divisors of d_{q+1}, whose K-dimension is the sum of those v.  Given
    ``valuations`` (``_valuations``) no elimination runs and ``c`` gives
    only the ranks, as the middle complex of a sheaf does for its charts.
    Raises ShapeError when the counts show d.d != 0 (``homology_ranks``),
    and UnsupportedRingError over Z, where Z[[t]] is no such ring.
    """
    if not c.ring.is_field:
        raise UnsupportedRingError(
            f"chart homology needs field coefficients, not {c.ring.tag}")
    if valuations is None:
        valuations = _valuations(c, _chart_direction(c))
    free = homology_ranks(c.ranks,
                          {m: len(vs) for m, vs in valuations.items()})
    return {q: (free[q], sum(valuations.get(q + 1, ())))
            for q in c.degrees()}


def _torsion_dims(chart: dict, side: str) -> dict:
    """The torsion K-dimensions of the ``side`` chart's ``chart_homology``
    ``chart``; StabilisationFailureError, naming the degree, when it has a
    free part."""
    for q, (free, _) in chart.items():
        if free:
            raise StabilisationFailureError(
                f"{side} chart homology has a free part in degree {q}")
    return {q: torsion for q, (_, torsion) in chart.items()}


# ---------------------------------------------------------------------------
# Novikov acyclicity
# ---------------------------------------------------------------------------


class _Side(NamedTuple):
    acyclic: str  # "yes" | "no" | "unknown"
    method: str   # snf-torsion | unit-determinant | unit-contraction | euler
    render: Callable[[], dict]


class SideVerdict(_Side):
    """The Novikov verdict of one side and the method that decided it.

    The constructor wraps ``render`` so that it runs on the first read of
    ``certificate`` and keeps that dict, so a caller that reads only the
    answer builds none of its strings.  Two verdicts are equal when their
    answers, methods and rendered certificates are.
    """

    __slots__ = ()

    def __new__(cls, acyclic: str, method: str, render: Callable[[], dict]):
        memo = []

        def once():
            if not memo:
                memo.append(render())
            return memo[0]
        return super().__new__(cls, acyclic, method, once)

    @property
    def certificate(self) -> dict:
        return self.render()

    def __eq__(self, other):
        if not isinstance(other, SideVerdict):
            return NotImplemented
        return (self.acyclic == other.acyclic and self.method == other.method
                and self.certificate == other.certificate)

    __ne__ = object.__ne__     # tuple's would compare the render closures

    def __repr__(self):
        return f"SideVerdict(acyclic={self.acyclic!r}, method={self.method!r})"


class NovikovVerdict(NamedTuple):
    x_side: SideVerdict
    x_inv_side: SideVerdict

    @property
    def both_acyclic(self) -> bool:
        return self.x_side.acyclic == "yes" and self.x_inv_side.acyclic == "yes"


def novikov_check(c: ChainComplex) -> NovikovVerdict:
    """Novikov verdicts on the x and x^-1 sides; ``c`` must be a complex
    (d.d = 0), which is not checked (see the module docstring)."""
    if c.base != BaseRing.LAURENT:
        raise UnsupportedRingError(
            "Novikov acyclicity applies to K[x,x^-1]-complexes")
    if c.ring.is_field:
        return _novikov_field(c)
    return _novikov_integers(c)


def _euler(c: ChainComplex) -> int:
    return sum(r if m % 2 == 0 else -r for m, r in c.ranks.items())


def _novikov_field(c: ChainComplex,
                   report: HomologyReport | None = None) -> NovikovVerdict:
    """Both sides' verdict over a field: "yes" exactly when every free
    rank f_q = rank C_q - rank d_q - rank d_{q+1} over K(x) is zero.

    Over the fields K((x)) and K((x^-1)), which contain K(x), C (x) K((x))
    is acyclic iff rank C_q = rank d_q + rank d_{q+1} in every degree, the
    ranks being over K((x)); a minor of d_m lies in K(x), so the rank over
    K((x)) is the rank over K(x), and likewise on the x^-1 side.  These f_q
    are the free ranks of H_q over K[x,x^-1] (``homology``), so the answer
    is ``homology(c).all_torsion``.  With r_m = rank d_m,

        sum (-1)^q f_q = sum (-1)^q rank C_q - sum (-1)^q (r_q + r_{q+1})
                       = chi(C),

    as each r_m appears once with each sign.  In a complex f_q >= 0, so
    chi(C) != 0 forces some f_q > 0: "no" without a rank.  Otherwise
    r_m is the number of valuations ``_valuations`` reads for d_m in
    t = x, one per nonzero elementary divisor over the discrete valuation
    ring K[[x]] (a shift x^s d_m that clears the negative exponents moves
    every valuation by s and no rank), so the rank over K((x)).  As in
    ``homology``, d.d = 0 is assumed, not checked (the CLI,
    ``verify_theorem`` and ``dominate`` check it first); a degree where
    r_q + r_{q+1} exceeds rank C_q raises ShapeError (``homology_ranks``).

    ``report``, when the caller has ``homology(c)``, decides the verdict
    instead.  Otherwise the invariant factors are computed only when the
    ``snf-torsion`` certificate is read; both sides share it.
    """
    acyclic = (report.all_torsion if report is not None
               else _euler(c) == 0 and _free_ranks_vanish(c))

    def certificate():
        entries = (report or homology(c)).entries
        return {
            "method": "snf-torsion",
            "free_ranks": {str(q): e.free_rank for q, e in entries.items()},
            "torsion": {str(q): [render(c.ring, f) for f in e.torsion]
                        for q, e in entries.items() if e.torsion},
        }

    side = SideVerdict("yes" if acyclic else "no", "snf-torsion", certificate)
    # over a field both Novikov conditions are the same rank condition
    return NovikovVerdict(side, side)


def _free_ranks_vanish(c: ChainComplex) -> bool:
    """Every f_q (``homology_ranks``) is zero, each rank the number of
    chart valuations of its differential in t = x."""
    ranks = {m: len(vs) for m, vs in _valuations(c, 1).items()}
    return not any(homology_ranks(c.ranks, ranks).values())


def _novikov_integers(c: ChainComplex) -> NovikovVerdict:
    euler = _euler(c)
    if euler != 0:
        side = SideVerdict("no", "euler", lambda: {
            "method": "euler", "euler_characteristic": euler})
        return NovikovVerdict(side, side)
    two_term = _two_term_square(c)
    if two_term is not None:
        det = _determinant(two_term)
        return NovikovVerdict(_unit_det_side(c.ring, det, 1),
                              _unit_det_side(c.ring, det, -1))
    return NovikovVerdict(
        _contraction_side(c, 1), _contraction_side(c, -1))


def _two_term_square(c: ChainComplex):
    """The differential of a complex with two adjacent nonzero degrees
    (the 0x0 matrix when every rank is 0), None otherwise.  The caller
    has checked chi(C) = 0, so the two ranks are equal and the matrix is
    square."""
    present = [m for m, r in c.ranks.items() if r]
    if not present:
        return LaurentMatrix.zero(c.ring, 0, 0)
    if len(present) != 2 or present[1] - present[0] != 1:
        return None
    return c.diff(present[1])


def _determinant(d: LaurentMatrix):
    """The entry of the determinant of the square matrix ``d`` over Z or
    GF(p), read off the chart kernel in t = x: (-1)^s x^(sum v) u, the v
    the valuations and u the last unit of the pivots ``_pivots`` yields,
    when every row pivots, and None (zero) otherwise; s is the sum over
    the pivots (r, j) of r plus the position of j among the columns not
    yet taken.  The pivot order, which the ring picks, moves no
    determinant.

    Each step of the kernel is a Bareiss step on d with its pivot column
    divided by t^v.  Dividing a column commutes with the later minors,
    which are linear in it, so the last unit is the determinant of d with
    every pivot column j divided by its t^v, up to the sign of the row and
    column orders: bringing the pivot to the front of the rows and columns
    left takes r plus that position transpositions.  Over Z every
    division is exact and no row is scaled (the kernel scales only Q
    rows), so this is det d.
    """
    s, total, taken, unit = 0, 0, [], ONE
    for v, r, j, unit in _pivots(d.ring, d.data, 1):
        s += r + j - sum(k < j for k in taken)
        total += v
        taken.append(j)
    if len(taken) < d.rows:
        return None
    det = total, unit[1]
    if s % 2:
        det = scaled(det, -1, d.ring.p)
    return det[0], tuple(det[1])


def _unit_det_side(ring, det, direction: int) -> SideVerdict:
    """The verdict of a square two-term complex on one side: it is acyclic
    over Z((t)) exactly when its determinant is a unit there, t^v times a
    series whose constant term is 1 or -1.  So the answer and its proof
    are the determinant's lowest coefficient in t: at the x end for t = x,
    at the x^-1 end for t = x^-1 (0 for a zero determinant)."""
    end = 0 if det is None else det[1][0 if direction == 1 else -1]
    return SideVerdict("yes" if end in (1, -1) else "no", "unit-determinant",
                       lambda: {"determinant": render(ring, det),
                                "side": "x" if direction == 1 else "x^-1",
                                "end_coefficient": str(end)})


def _contraction_side(c: ChainComplex, direction: int) -> SideVerdict:
    """The Z-mode verdict of a longer complex on one side: "yes" when
    unit pivots of the chart kernel split off every generator, "unknown"
    at the first pivot whose lowest coefficient in t is not 1 or -1, or
    when generators are left.

    The walk runs the differentials in ascending degree.  It reads the
    ``_pivots`` of d_m's exact entries, with the rows emptied of the
    generators of C_{m-1} that d_{m-1}'s pivots took; over Z the kernel
    prefers a pivot whose lowest coefficient is 1 or -1, and the walk
    stops reading at the first pivot whose unit is no unit of Z((t)).
    Each pivot (r, j) takes generator j of C_m, whose row of d_{m+1} the
    next step empties, and its row's generator of C_{m-1}; so the
    generators left are the total rank less 2 per pivot.

    This is sound by the Gaussian elimination lemma over Z((t)), t = x or
    x^-1 (as in computational homology: Kaczynski, Mischaikow and Mrozek
    2004, section 4).  If d_m = [[a, b], [g, e]] has a unit a of Z((t))
    at (i, j), C is homotopy equivalent to the complex C' without
    generator j of C_m and generator i of C_{m-1}, where d_m' is
    e - g a^-1 b, d_{m+1}' is d_{m+1} without row j and d_{m-1}' is
    d_{m-1} without column i; so C (x) Z((t)) is acyclic when C' is.  A
    kernel step on the pivot a = t^v u replaces each other row r of d_m
    by (u r - (c / t^v) w) / u', w the pivot row, c the row's entry in
    column j and u' the previous pivot's u.  That is the row of
    e - g a^-1 b times u / u'.  A series whose lowest coefficient is 1
    or -1 is a unit of Z((t)), so a and u / u' are units, and the factor
    is a basis change of a generator of C_{m-1} left.  It changes d_{m-1}
    only in that generator's column, which is already zero: degrees
    ascend, and on d_{m-1} the kernel ran until no row was left, so
    d_{m-1}' is zero on the generators left.  The next step drops row j
    of d_{m+1}, and no later step reads d_{m-1}.  So when every
    generator leaves, C (x) Z((t)) is contractible.  The stop at the
    first non-unit pivot is the walk's answer anyway, and as the walk
    reads no further pivot, the kernel runs no later step.
    """
    var = "x" if direction == 1 else "x^-1"
    taken, eliminations = set(), []
    for m in range(c.lo + 1, c.hi + 1):
        rows = [{} if i in taken else row
                for i, row in enumerate(c.diff(m).data)]
        taken = set()
        for v, _, j, unit in _pivots(c.ring, rows, direction):
            if not c.ring.is_unit(unit[1][0]):
                return SideVerdict("unknown", "unit-contraction", lambda: {
                    "side": var, "degree": m,
                    "lowest_coefficient": str(unit[1][0])})
            taken.add(j)
            eliminations.append({"degree": m, "col": j, "pivot_valuation": v})
    left = sum(c.ranks.values()) - 2 * len(eliminations)
    if left:
        return SideVerdict("unknown", "unit-contraction", lambda: {
            "side": var, "remaining_generators": left})
    return SideVerdict("yes", "unit-contraction", lambda: {
        "side": var, "eliminations": eliminations})


# ---------------------------------------------------------------------------
# the witness pipeline
# ---------------------------------------------------------------------------


class LedgerRow(NamedTuple):
    degree: int
    w_dim: int
    mid_kdim: int
    plus_dim: int
    minus_dim: int

    @property
    def holds(self) -> bool:
        return self.w_dim == self.mid_kdim + self.plus_dim + self.minus_dim


class DominationWitness(NamedTuple):
    w: ScalarComplex
    sheaf: SheafComplex
    ledger: tuple
    # degree m -> the sorted valuations of the chart differential d_m
    plus_valuations: dict
    minus_valuations: dict

    @property
    def ledger_holds(self) -> bool:
        return all(row.holds for row in self.ledger)

    def w_ranks(self) -> dict:
        return {m: self.w.rank(m) for m in self.w.degrees()}

    def largest_valuations(self) -> tuple:
        """The largest plus and minus chart valuations, 0 when none."""
        return tuple(max((vs[-1] for vs in side.values() if vs), default=0)
                     for side in (self.plus_valuations,
                                  self.minus_valuations))

    def report_fields(self) -> dict:
        """The witness keys shared by the verify and dominate reports."""
        return {
            "twist_profile": [
                {"degree": m, "k": k, "l": l}
                for m, (k, l) in sorted(self.sheaf.twist_profile().items())],
            "ledger": [{**row._asdict(), "holds": row.holds}
                       for row in self.ledger],
            "chart_valuations": [
                {"degree": m, "plus": self.plus_valuations[m],
                 "minus": self.minus_valuations[m]}
                for m in sorted(self.plus_valuations)],
        }


def dominate(c: ChainComplex) -> DominationWitness:
    """Produce and validate the finite-domination witness.

    Requires field coefficients, d.d = 0 (ShapeError otherwise) and
    Novikov acyclicity on both sides.  The homology over K[x,x^-1] is
    computed once, for both the verdict and the ledger's mid column.
    """
    mid = _valid_homology(c)
    return _witness(extend_valid_complex(c).sheaf, mid)


def _valid_homology(c: ChainComplex) -> HomologyReport:
    """``homology(c)`` once ``c`` passes, in this order: field
    coefficients (over Z no Novikov search runs), d.d = 0 (a non-complex
    is a ShapeError, not a FAIL, and Novikov's field mode reads only the
    ranks of the differentials), the base K[x,x^-1]."""
    if not c.ring.is_field:
        raise UnsupportedRingError(
            "the domination witness needs field coefficients (Q or GF(p))")
    require_valid(c)
    if c.base != BaseRing.LAURENT:
        raise UnsupportedRingError(
            "Novikov acyclicity applies to K[x,x^-1]-complexes")
    return homology(c)


def _witness(sheaf: SheafComplex, mid: HomologyReport) -> DominationWitness:
    """The witness of a sheaf complex over a field complex C = sheaf.mid
    whose d.d = 0 is checked, from the homology ``mid`` of C over
    K[x,x^-1]; C is Novikov acyclic exactly when ``mid`` is all torsion
    (``_novikov_field``).  W is ``cech_complex(sheaf)``, which refuses a
    summand with n = k + l <= -2, so every level has H^1 = 0 and W
    computes the hypercohomology.  The numbers on both sides of the
    ledger depend on the twists, the equation does not: the tests check
    it on the extension of C, on that extension shifted to n = -1 in
    either split, on random legal profiles (per-row least twists given
    the level above, raised by 0-3 in k and in l) and on the paper's
    lifted mapping cone, whose levels mix twist splits.
    StabilisationFailureError names each degree where it fails, with its
    four numbers."""
    if not mid.all_torsion:
        raise NotNovikovAcyclicError(
            "homology has nonzero free rank in degrees "
            f"{sorted(mid.free_ranks())}")
    w = cech_complex(sheaf)
    w_dims = homology_dims(w)
    plus = _valuations(sheaf.mid, 1, sheaf.chart_exponents("plus"))
    minus = _valuations(sheaf.mid, -1, sheaf.chart_exponents("minus"))
    plus_dims = _torsion_dims(chart_homology(sheaf.mid, plus), "plus")
    minus_dims = _torsion_dims(chart_homology(sheaf.mid, minus), "minus")
    degrees = sorted(set(w_dims) | set(plus_dims) | set(minus_dims)
                     | set(mid.entries))
    ledger = tuple(LedgerRow(
        degree=q, w_dim=w_dims.get(q, 0), mid_kdim=mid.entry(q).kdim,
        plus_dim=plus_dims.get(q, 0), minus_dim=minus_dims.get(q, 0))
        for q in degrees)
    witness = DominationWitness(w, sheaf, ledger, plus, minus)
    failed = [row for row in witness.ledger if not row.holds]
    if failed:
        raise StabilisationFailureError(
            "ledger equation failed; chart dimensions disagree with H(W) "
            "in " + "; ".join(
                f"degree {r.degree}: w_dim {r.w_dim} != "
                f"{r.mid_kdim + r.plus_dim + r.minus_dim} = mid_kdim "
                f"{r.mid_kdim} + plus_dim {r.plus_dim} + minus_dim "
                f"{r.minus_dim}" for r in failed))
    return witness


# ---------------------------------------------------------------------------
# theorem verification
# ---------------------------------------------------------------------------


class TheoremCheck(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class TheoremReport(NamedTuple):
    verdict: str               # "PASS" | "FAIL"
    novikov: NovikovVerdict
    checks: tuple
    witness: DominationWitness | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"

    def to_dict(self) -> dict:
        data = {
            "verdict": self.verdict,
            "novikov": {
                "x_side": self.novikov.x_side.acyclic,
                "x_inv_side": self.novikov.x_inv_side.acyclic,
                "method": self.novikov.x_side.method,
            },
            "checks": [ch._asdict() for ch in self.checks],
        }
        if self.witness is not None:
            data["witness"] = {
                "w_ranks": {str(m): r
                            for m, r in sorted(self.witness.w_ranks().items())},
                **self.witness.report_fields(),
            }
        return data


def verify_theorem(c: ChainComplex) -> TheoremReport:
    """Full pipeline: hypothesis check, witness production, ledger audit.

    The checks run in the order of ``dominate`` (``_valid_homology``):
    over Z no Novikov search runs, and a non-complex is a ShapeError, not
    a FAIL.  The homology over K[x,x^-1] is computed once and serves the
    verdict, the FAIL detail and the ledger.

    A PASS reports one check, ``ledger-equation``: the audit ``_witness``
    makes, which raises StabilisationFailureError when it fails.  Nothing
    else can fail once the witness exists: W has ranks counted over the
    degree span of C, so it is strictly perfect, and ``_witness`` runs
    only on an all-torsion report, whose total K-dimension is finite.
    """
    mid = _valid_homology(c)
    verdict = _novikov_field(c, mid)
    if not verdict.both_acyclic:
        free = mid.free_ranks()
        checks = (TheoremCheck(
            "novikov-acyclic", False,
            "free rank " + ", ".join(
                f"{r} in degree {q}" for q, r in sorted(free.items()))),)
        return TheoremReport("FAIL", verdict, checks)
    witness = _witness(extend_valid_complex(c).sheaf, mid)
    checks = (TheoremCheck(
        "ledger-equation", True,
        "largest chart valuation: plus {}, minus {}".format(
            *witness.largest_valuations())),)
    return TheoremReport("PASS", verdict, checks, witness)
