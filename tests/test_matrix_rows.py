"""Every Laurent matrix the library builds stores canonical sparse rows.

Row i of ``LaurentMatrix.data`` maps the column of each nonzero entry to
its ``polylists`` entry (v, c): c a tuple of canonical coefficients with
nonzero ends, no zero entry and no ``LaurentPoly``, columns ascending.
The loader, both generators, the zero differential of a missing degree,
the middle complex of an extension and the sums, differences and
products of the tests' matrix helpers are checked here; the arithmetic
also against ``LaurentPoly`` arithmetic on dense grids.  So are the
scalar rows of W, the global sections that ``cech_complex`` builds, and
of their loaded copy: both store rows with no scan of their keys.  The
public constructors refuse a row with a column key that is not an int
in range, a bool included.
"""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from p1dom import fileformat as ff
from p1dom.extension import extend_complex
from p1dom.generators import random_complex, random_novikov_acyclic
from p1dom.errors import ShapeError
from p1dom.matrices import LaurentMatrix, ScalarMatrix
from p1dom.scalars import GF, QQ, ZZ
from p1dom.sheaves import cech_complex

from helpers import (dense, grid_matrix, grid_product, matadd, matmul, matneg,
                     matsub, normalise, polyadd, polyneg, polysub,
                     random_matrix)


def assert_canonical_rows(m):
    assert type(m) is LaurentMatrix and len(m.data) == m.rows
    for row in m.data:
        assert type(row) is dict
        assert list(row) == sorted(row)
        for j, e in row.items():
            assert type(j) is int and 0 <= j < m.cols
            assert type(e) is tuple and len(e) == 2
            v, c = e
            assert type(v) is int and type(c) is tuple
            assert c and c[0] and c[-1]
            for x in filter(None, c):
                want = normalise(m.ring, x)
                assert x == want and type(x) is type(want)
                assert m.ring is not QQ or type(x) is Fraction


def assert_canonical_scalar_rows(m):
    assert type(m) is ScalarMatrix and len(m.data) == m.rows
    for row in m.data:
        assert type(row) is dict
        assert list(row) == sorted(row)
        for j, x in row.items():
            assert type(j) is int and 0 <= j < m.cols
            want = normalise(m.ring, x)
            assert x and x == want and type(x) is type(want)


def built_matrices(rng, ring):
    """The matrices the library builds from one draw of each generator:
    Laurent matrices, and the scalar matrices of W."""
    for c in (random_complex(rng, ring, max_length=4, max_rank=4, span=2),
              random_novikov_acyclic(rng, ring, span=2)):
        loaded = ff.complex_from_dict(ff.complex_to_dict(c))
        for m in range(c.lo + 1, c.hi + 1):
            assert loaded.diff(m) == c.diff(m)
        yield from c.diffs.values()
        yield from loaded.diffs.values()
        # the zero differentials around the support
        yield c.diff(c.lo)
        yield c.diff(c.hi + 1)
        sheaf = extend_complex(c).sheaf
        yield from sheaf.mid.diffs.values()
        w = cech_complex(sheaf)
        yield from w.diffs.values()
        yield from ff.complex_from_dict(ff.complex_to_dict(w)).diffs.values()


@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 2 ** 32 - 1),
       ring=st.sampled_from([QQ, GF(7), ZZ]))
def test_built_matrices_hold_canonical_rows(seed, ring):
    rng = random.Random(seed)
    for m in built_matrices(rng, ring):
        if type(m) is ScalarMatrix:
            assert_canonical_scalar_rows(m)
        else:
            assert_canonical_rows(m)
    rows, cols, n = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
    a = random_matrix(rng, ring, rows, cols, 2)
    b = random_matrix(rng, ring, rows, cols, 2)
    k = random_matrix(rng, ring, cols, n, 2)
    ga, gb = dense(a), dense(b)
    results = {
        "add": (matadd(a, b), [[polyadd(x, y) for x, y in zip(r, s)]
                               for r, s in zip(ga, gb)]),
        "sub": (matsub(a, b), [[polysub(x, y) for x, y in zip(r, s)]
                               for r, s in zip(ga, gb)]),
        "cancel": (matsub(a, a), [[polysub(x, x) for x in r] for r in ga]),
        "neg": (matneg(a), [[polyneg(x) for x in r] for r in ga]),
    }
    for name, (got, grid) in results.items():
        assert_canonical_rows(got)
        assert got == grid_matrix(ring, rows, cols, grid), name
    assert not any(matsub(a, a).data)
    product = matmul(a, k)
    assert_canonical_rows(product)
    assert product == grid_product(a, k)
    assert_canonical_rows(matmul(LaurentMatrix.zero(ring, rows, cols), k))


@pytest.mark.parametrize("cls, value", [
    (LaurentMatrix, (0, (Fraction(1),))), (ScalarMatrix, Fraction(1))])
@pytest.mark.parametrize("key", [5, 1, -1, 0.5, True, "a"])
def test_a_column_key_outside_the_matrix_is_refused(cls, value, key):
    # a key that is no int is refused where an int equal to it would be
    # in range: True == 1 with two columns
    cols = 1 if type(key) is int else 2
    with pytest.raises(ShapeError,
                       match=f"row 1 has column {re.escape(repr(key))} "):
        cls(QQ, 2, cols, [{0: value}, {0: value, key: value}])
    assert cls(QQ, 2, 1, [{0: value}, {}]).data[0] == {0: value}


@pytest.mark.parametrize("cls, value", [
    (LaurentMatrix, (0, (Fraction(1),))), (ScalarMatrix, Fraction(1))])
@pytest.mark.parametrize("rows, cols, count, message", [
    (-1, 1, 0, "negative matrix dimensions"),
    (1, -1, 1, "negative matrix dimensions"),
    (2, 1, 1, "1 row dicts for 2 rows"),
    (1, 1, 2, "2 row dicts for 1 rows"),
])
def test_a_shape_that_does_not_match_the_rows_is_refused(cls, value, rows,
                                                         cols, count,
                                                         message):
    with pytest.raises(ShapeError, match=f"^{message}$"):
        cls(QQ, rows, cols, [{} for _ in range(count)])

