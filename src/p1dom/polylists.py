"""Laurent polynomials as coefficient lists: the arithmetic that the
elimination kernels share.

An entry is None (zero) or a pair (v, c): the Laurent polynomial
x^v * (c[0] + c[1] x + ... + c[n] x^n) with c[0] and c[-1] nonzero, so its
core degree is len(c) - 1 and its x-adic valuation is v.  Coefficients are
ints: residues mod p over GF(p), integers over Q (p = 0) once a row is
cleared of denominators (``integer_row``).  Entry lists are never changed
in place.

The Smith kernels of ``smith`` and the chart valuations of ``domination``
eliminate on these entries; ``LaurentPoly`` values are built only for
their input and output.
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


def integer_row(row):
    """Entries of a Q row times the lcm of their denominators, divided by
    their content."""
    den = lcm(*(x.denominator for e in row if e is not None for x in e[1]))
    row = [None if e is None else
           (e[0], [x.numerator * (den // x.denominator) for x in e[1]])
           for e in row]
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


def exact_quotient(a, b, p):
    """a/b when b divides a: over GF(p), or over Z for p = 0.

    Long division from the top coefficient; raises ShapeError when a
    quotient coefficient is not an integer (p = 0) or the remainder is not
    zero.
    """
    if a is None:
        return None
    va, ca = a
    vb, cb = b
    lead = cb[-1]
    n = len(cb) - 1
    top = len(ca) - 1 - n
    if top >= 0:
        if not n:
            if p:
                inv = pow(lead, p - 2, p)
                return va - vb, [x * inv % p for x in ca]
            quo = [x // lead for x in ca]
            if all(q * lead == x for q, x in zip(quo, ca)):
                return va - vb, quo
        else:
            rem = list(ca)
            quo = [0] * (top + 1)
            inv = pow(lead, p - 2, p) if p else None
            for k in range(top, -1, -1):
                x = rem[k + n]
                if not x:
                    continue
                if p:
                    f = x * inv % p
                else:
                    f, r = divmod(x, lead)
                    if r:
                        break
                quo[k] = f
                for i, y in enumerate(cb, k):
                    rem[i] = (rem[i] - f * y) % p if p else rem[i] - f * y
            else:
                if not any(rem[:n]):
                    return trim(va - vb, quo)
    raise ShapeError("exact division failed: the divisor leaves a "
                     "nonzero remainder")


def make_primitive(entries, indices):
    """Divide entries[i], i in indices, by the gcd of their coefficients."""
    g = gcd(*(x for i in indices if entries[i] is not None
              for x in entries[i][1]))
    if g > 1:
        for i in indices:
            if entries[i] is not None:
                entries[i] = divided(entries[i], g)
