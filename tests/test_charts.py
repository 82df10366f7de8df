"""Exact chart columns: local elimination over K[[x]] and K[[x^-1]].

The oracles are the quotient windows C/t^N, whose dimension in degree q is
sum min(N, v) over the valuations of d_{q+1} and d_q, the N/2N doubling
loop with its telescoping (kept below as a reference for the dimensions;
the exact columns need no order), and, for square
matrices of full rank, the t-adic valuation of the determinant.  Any
shape and rank is checked against sympy's Smith form over K[t] in
``test_sympy_oracle.py``.
"""

import math
import random
from fractions import Fraction

import pytest

from p1dom.complexes import ChainComplex, homology_dims
from p1dom.domination import _elementary_valuations
from p1dom.errors import (ShapeError, StabilisationFailureError,
                          UnsupportedRingError)
from p1dom.extension import extend_complex
from p1dom.generators import random_complex, random_novikov_acyclic
from p1dom.laurent import BaseRing, LaurentPoly
from p1dom.scalars import GF, QQ
from p1dom.smith import invariant_factors

from helpers import (P, chart, chart_homology_dims, check_base, determinant,
                     grid_matrix, maxdeg, mindeg, single, two_term,
                     window_complex)

RINGS = [QQ, GF(7), GF(10007)]
FREE = "{} chart homology has a free part in degree {}"


def doubling_reference(c, order, order_max):
    """Window dimensions at N and 2N, doubled until equal, telescoped.

    ``order_max`` bounds the windows this reference builds; the exact
    columns have no such cap."""
    n = order
    dims = homology_dims(window_complex(c, n))
    while True:
        double = homology_dims(window_complex(c, 2 * n))
        if dims == double:
            out, below = {}, 0
            for q in range(c.lo, c.hi + 1):
                out[q] = dims.get(q, 0) - below
                below = out[q]
            return out, n
        if 2 * n > order_max:
            raise StabilisationFailureError(
                f"chart homology dimensions did not stabilise by N={order_max}")
        n *= 2
        dims = double


def outcome(fn, *args):
    try:
        return fn(*args)
    except StabilisationFailureError as exc:
        return ("raised", str(exc))


def charts(ring, seed, count, acyclic=True):
    rng = random.Random(seed)
    for _ in range(count):
        if acyclic:
            c = random_novikov_acyclic(rng, ring, max_rank=3,
                                       span=rng.randint(1, 3))
        else:
            c = random_complex(rng, ring, max_length=3, max_rank=3, span=2)
        sheaf = extend_complex(c).sheaf
        yield chart(sheaf, "plus")
        yield chart(sheaf, "minus")


def direction(chart):
    return 1 if chart.base == BaseRing.POLY else -1


def side(chart):
    return "plus" if chart.base == BaseRing.POLY else "minus"


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.tag)
def test_window_dims_are_truncated_valuation_sums(ring):
    for chart in charts(ring, 2279, 8):
        vals = {m: _elementary_valuations(chart.diff(m),
                                          direction(chart))[0]
                for m in range(chart.lo + 1, chart.hi + 1)}
        for n in (1, 2, 8, 16, 32):
            want = {q: sum(min(n, v) for v in vals.get(q + 1, [])
                           + vals.get(q, []))
                    for q in chart.degrees()}
            assert homology_dims(window_complex(chart, n)) == want


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.tag)
def test_matches_the_doubling_loop(ring):
    rng = random.Random(778)
    for acyclic in (True, False):
        for chart in charts(ring, 777, 10, acyclic):
            free = [q for q in chart.degrees()
                    if chart.rank(q) > len(invariant_factors(chart.diff(q)))
                    + len(invariant_factors(chart.diff(q + 1)))]
            got = outcome(chart_homology_dims, chart)
            for order, order_max in ((16, 64), (1, 1), (1, 2), (2, 4),
                                     (rng.choice([1, 2, 4]),
                                      rng.choice([1, 4, 8, 64]))):
                want = outcome(doubling_reference, chart, order, order_max)
                if want[0] != "raised":
                    assert got == want[0]
                elif free:
                    assert got == ("raised", FREE.format(side(chart),
                                                         free[0]))
                else:
                    # the reference stopped at its cap before the windows
                    # agreed; uncapped, it agrees
                    assert got == doubling_reference(chart, order,
                                                     math.inf)[0]


def test_orders_of_the_named_examples():
    # the reference doubles 16 to 32 and to 128; the exact columns read
    # the valuations 20 and 70 with no order
    plus = chart(extend_complex(two_term(QQ, [(20, 1), (21, -1)])).sheaf,
                 "plus")
    assert chart_homology_dims(plus) == {0: 20, 1: 0}
    assert doubling_reference(plus, 16, 64) == ({0: 20, 1: 0}, 32)
    deep = chart(extend_complex(two_term(QQ, [(70, 1), (71, -1)])).sheaf,
                 "plus")
    assert chart_homology_dims(deep) == {0: 70, 1: 0}
    assert doubling_reference(deep, 16, 128) == ({0: 70, 1: 0}, 128)
    with pytest.raises(StabilisationFailureError, match="by N=64"):
        doubling_reference(deep, 16, 64)


def test_free_chart_homology_never_stabilises():
    # the error names the chart and the degree of the free part
    for base, name, degree in ((BaseRing.POLY, "plus", 0),
                               (BaseRing.POLY_INV, "minus", 2)):
        c = single(QQ, base, degree, 1)
        with pytest.raises(StabilisationFailureError) as err:
            chart_homology_dims(c)
        assert str(err.value) == FREE.format(name, degree)
        with pytest.raises(StabilisationFailureError, match="by N=4096"):
            doubling_reference(c, 8, 4096)


def test_rank_excess_is_an_invalid_chart_complex():
    # d_1 = x and d_2 = 1 have rank 1 each over K((x)), one more than C_1
    c = ChainComplex(QQ, BaseRing.POLY, 0, 2, {0: 1, 1: 1, 2: 1}, {
        1: grid_matrix(QQ, 1, 1, [[P(QQ, (1, 1))]]),
        2: grid_matrix(QQ, 1, 1, [[P(QQ, (0, 1))]])})
    with pytest.raises(ShapeError,
                       match=r"^invalid complex: degree 2: d\.d != 0$"):
        chart_homology_dims(c)


def test_laurent_complex_is_rejected():
    with pytest.raises(UnsupportedRingError):
        chart_homology_dims(two_term(QQ, [(1, 1)]))


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.tag)
@pytest.mark.parametrize("sign", [1, -1])
def test_square_valuations_sum_to_determinant_valuation(ring, sign):
    rng = random.Random(31 + sign)
    base = BaseRing.POLY if sign == 1 else BaseRing.POLY_INV
    for _ in range(30):
        n = rng.randint(1, 6)
        grid = [[LaurentPoly(ring, {sign * e: rng.randint(-4, 4)
                                    for e in range(rng.randint(0, 2),
                                                   rng.randint(1, 4))})
                 for _ in range(n)] for _ in range(n)]
        d = grid_matrix(ring, n, n, grid)
        check_base(d, base)
        det = determinant(d)
        vals = _elementary_valuations(d, sign)[0]
        if det.is_zero:
            assert len(vals) < n
        else:
            assert len(vals) == n
            assert sum(vals) == (mindeg(det) if sign == 1 else -maxdeg(det))


def test_elimination_degrees_grow_linearly(monkeypatch):
    # dividing by the previous pivot's unit keeps entries minors of d up to
    # a power of t, so no product passes degree 2 n D (D the entry degree);
    # without it the degrees can double at every pivot.  Over Q the same
    # division keeps the coefficients of every product below 2 H^2: an
    # entry's coefficients are those of a minor of d, whose l1 norm is at
    # most H, the product of the rows' l1 norms (a Hadamard-type bound),
    # and a product is a difference of two products of entries
    import p1dom.domination as domination

    degrees, bits = [], []
    original = domination.lincomb

    def recording(*args):
        out = original(*args)
        if out is not None:
            v, c = out
            degrees.append(v + len(c) - 1)
            bits.append(max(abs(x) for x in c).bit_length())
        return out

    monkeypatch.setattr(domination, "lincomb", recording)
    n, deg = 10, 2
    for ring in (GF(7), QQ):
        rng = random.Random(10)
        grid = [[LaurentPoly(ring, {e: ring.from_int(rng.choice([-1, 1])
                                                     * rng.randint(1, 6))
                                    for e in range(deg + 1)})
                 for _ in range(n)] for _ in range(n)]
        d = grid_matrix(ring, n, n, grid)
        degrees.clear()
        bits.clear()
        assert len(domination._elementary_valuations(d, 1)[0]) == n
        assert degrees and max(degrees) <= 2 * n * deg
        if not ring.p:
            h = math.prod(sum(abs(x) for p in row for _, x in p.items())
                          for row in grid)
            assert max(bits) <= 2 * int(h).bit_length() + 1


def test_chart_stage_does_no_laurent_or_fraction_arithmetic(monkeypatch):
    # the witness reads both charts' valuations off the middle complex and
    # the twists, on coefficient lists: no chart complex, no LaurentPoly
    # built (it has no arithmetic) and no Fraction arithmetic
    import p1dom.domination as domination

    rng = random.Random(5)
    sheaves = [extend_complex(random_novikov_acyclic(
        rng, ring, max_rank=6, span=3)).sheaf for ring in RINGS
        for _ in range(3)]
    want = [chart_homology_dims(chart(s, side))
            for s in sheaves for side in ("plus", "minus")]
    calls = []

    def recording(cls, name):
        original = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(cls, name, wrapper)

    for name in ("__init__", "from_entry"):
        recording(LaurentPoly, name)
    for name in ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__"):
        recording(Fraction, name)
    got = [domination._torsion_dims(domination.chart_homology(
               s.mid, domination._valuations(
                   s.mid, sign, s.chart_exponents(side))), side)
           for s in sheaves for side, sign in (("plus", 1), ("minus", -1))]
    monkeypatch.undo()
    assert calls == []
    assert got == want
