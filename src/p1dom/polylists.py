"""Laurent polynomials as coefficient lists: the arithmetic that the
elimination kernels share, and the only module that divides them.

An entry is None (zero) or a pair (v, c): the Laurent polynomial
x^v * (c[0] + c[1] x + ... + c[n] x^n) with c[0] and c[-1] nonzero, so its
core degree is len(c) - 1 and its x-adic valuation is v.  Coefficients are
ints: residues mod p over GF(p), integers over Q (p = 0) once a row is
cleared of denominators (``cleared``, ``integer_row``) and over Z.  Entry
lists are never changed in place.

One long division, ``pseudo_divmod``, serves every kernel: the Smith and
column echelon eliminations of ``smith``, the forward substitution of
``smith.kernel_coordinates``, and, as ``exact_quotient``, the Bareiss
divisions of ``determinant`` (behind ``LaurentMatrix.determinant``) and of
the chart valuations of ``domination``.  ``LaurentPoly`` values are built
only for their input and output.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import ShapeError
from .laurent import LaurentPoly

ONE = (0, [1])


def from_laurent(poly):
    """The coefficient entry of a LaurentPoly."""
    if poly.is_zero:
        return None
    items = poly.items()
    lo, hi = items[0][0], items[-1][0]
    if lo == hi:
        return lo, [items[0][1]]
    c = [0] * (hi - lo + 1)
    for e, x in items:
        c[e - lo] = x
    return lo, c


def to_laurent(ring, e):
    """The LaurentPoly of a coefficient entry."""
    if e is None:
        return LaurentPoly.zero(ring)
    v, c = e
    return LaurentPoly(ring, {v + k: x for k, x in enumerate(c)})


def cleared(row):
    """(den, the entries of a Q row times den), den the lcm of their
    denominators, so that the new entries have int coefficients."""
    den = lcm(*(x.denominator for e in row if e is not None for x in e[1]))
    return den, [None if e is None else
                 (e[0], [x.numerator * (den // x.denominator) for x in e[1]])
                 for e in row]


def integer_row(row):
    """Entries of a Q row times the lcm of their denominators, divided by
    their content."""
    row = cleared(row)[1]
    make_primitive(row, range(len(row)))
    return row


def trim(v, c):
    """The entry x^v * (c[0] + c[1] x + ...) with zero end coefficients
    dropped."""
    hi = len(c)
    while hi and not c[hi - 1]:
        hi -= 1
    if not hi:
        return None
    lo = 0
    while not c[lo]:
        lo += 1
    return v + lo, c[lo:hi] if lo or hi < len(c) else c


def lincomb(f, a, g, b, p):
    """f*a + g*b; reduced mod p when p is nonzero."""
    if f is None or a is None:
        if g is None or b is None:
            return None
        terms = ((g, b),)
    elif g is None or b is None:
        terms = ((f, a),)
    else:
        terms = ((f, a), (g, b))
    lo = min(x[0] + y[0] for x, y in terms)
    hi = max(x[0] + y[0] + len(x[1]) + len(y[1]) for x, y in terms) - 1
    acc = [0] * (hi - lo)
    for (vx, cx), (vy, cy) in terms:
        off = vx + vy - lo
        for i, u in enumerate(cx, off):
            for k, w in enumerate(cy, i):
                acc[k] += u * w
    if p:
        acc = [u % p for u in acc]
    return trim(lo, acc)


def scaled(a, k, p):
    """k*a for a nonzero int k."""
    if a is None:
        return None
    v, c = a
    return v, [x * k % p for x in c] if p else [x * k for x in c]


def divided(a, k):
    """a/k for an int k that divides every coefficient of a."""
    return a[0], [x // k for x in a[1]]


def pseudo_divmod(a, b, p):
    """(m, q, r) with m*a = q*b + r, m a nonzero int and r zero (None) or
    of smaller core degree than b.

    Over GF(p) m is 1.  Over Z (p = 0) this is pseudo-division: a step
    whose leading coefficient lead(b) does not divide first multiplies
    the remainder and the quotient by lead(b)/gcd, and m collects those
    multipliers.
    """
    va, ca = a
    vb, cb = b
    n = len(cb) - 1
    top = len(ca) - 1 - n
    if top < 0:
        return 1, None, a
    rem = list(ca)
    quo = [0] * (top + 1)
    lead = cb[-1]
    m = 1
    if p:
        inv = pow(lead, p - 2, p)
        for k in range(top, -1, -1):
            f = rem[k + n] * inv % p
            if f:
                quo[k] = f
                for i, y in enumerate(cb, k):
                    rem[i] = (rem[i] - f * y) % p
    else:
        for k in range(top, -1, -1):
            x = rem[k + n]
            if not x:
                continue
            g = gcd(x, lead)
            s = lead // g
            if s != 1:
                rem = [s * y for y in rem]
                quo = [s * y for y in quo]
                m *= s
            f = x // g
            quo[k] = f
            for i, y in enumerate(cb, k):
                rem[i] -= f * y
    return m, trim(va - vb, quo), trim(va, rem[:n])


def exact_quotient(a, b, p):
    """a/b when b divides a: over GF(p), or over Z for p = 0.

    The pseudo-division of a by b, which is exact when it leaves no
    remainder and needs no multiplier but a sign: over Z a negative
    lead(b) makes each step's multiplier -1.  Raises ShapeError otherwise.
    """
    if a is None:
        return None
    m, q, r = pseudo_divmod(a, b, p)
    if r is None and m in (1, -1):
        return q if m == 1 else scaled(q, -1, p)
    raise ShapeError("exact division failed: the divisor leaves a "
                     "nonzero remainder")


def determinant(rows, p):
    """The determinant of a square matrix of entries, over GF(p) or Z.

    Bareiss's (1968) fraction-free elimination: each 2x2 cross product is
    divided exactly by the previous pivot, so every entry stays a minor.
    A zero pivot is swapped with a nonzero entry below it.
    """
    m = [list(row) for row in rows]
    n = len(m)
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if m[k][k] is None:
            swap = next((i for i in range(k + 1, n) if m[i][k] is not None),
                        None)
            if swap is None:
                return None
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        top, pivot = m[k], m[k][k]
        for row in m[k + 1:]:
            factor = scaled(row[k], -1, p)
            for j in range(k + 1, n):
                row[j] = exact_quotient(
                    lincomb(row[j], pivot, factor, top[j], p), prev, p)
        prev = pivot
    if not n:
        return ONE
    return m[-1][-1] if sign > 0 else scaled(m[-1][-1], -1, p)


def make_primitive(entries, indices):
    """Divide entries[i], i in indices, by the gcd of their coefficients."""
    g = gcd(*(x for i in indices if entries[i] is not None
              for x in entries[i][1]))
    if g > 1:
        for i in indices:
            if entries[i] is not None:
                entries[i] = divided(entries[i], g)
