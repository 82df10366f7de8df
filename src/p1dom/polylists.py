"""Laurent polynomials as coefficient lists: the arithmetic that the
elimination kernels share, and the only module that divides them.

An entry is None (zero) or a pair (v, c): the Laurent polynomial
x^v * (c[0] + c[1] x + ... + c[n] x^n) with c[0] and c[-1] nonzero, so its
core degree is len(c) - 1 and its x-adic valuation is v.  The cells of a
Laurent matrix, the invariant factors and the Z determinant are entries
with c a tuple of canonical coefficients (residues mod p over GF(p), ints
over Z, Fractions over Q); ``laurent.render`` prints one.  Every kernel
reads the entries as is and combines them with ``lincomb``, ``scaled``
and ``trim``, so no c is ever changed in place.  The kernels clear a Q
row or column of denominators once (``cleared``, ``integer_row``) and
then eliminate on int coefficients with p = 0.

One long division, ``pseudo_divmod``, serves every kernel: the column
echelon elimination of ``smith`` and the gcds of its invariant factors,
and, as ``exact_quotient``, the lcms of the invariant factors and the
Bareiss divisions of the chart elimination of ``domination``, which also
gives the Z two-term determinant and the Z-mode contraction.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import ShapeError

ONE = (0, (1,))


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


def from_terms(terms, p):
    """The entry of the sum of x * x^e over the pairs (e, x) of ``terms``,
    x canonical, c a tuple; reduced mod p when p is nonzero."""
    if len(terms) < 2:  # zero or a monomial, whose coefficient is canonical
        e, x = terms[0] if terms else (0, 0)
        return (e, (x,)) if x else None
    exps = [e for e, _ in terms]
    lo = min(exps)
    c = [0] * (max(exps) - lo + 1)
    for e, x in terms:
        c[e - lo] = c[e - lo] + x if c[e - lo] else x
    entry = trim(lo, [x % p for x in c] if p else c)
    return entry and (entry[0], tuple(entry[1]))


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
    """f*a + g*b; reduced mod p when p is nonzero.

    Products by the int 1 or -1 (put ``ONE`` first) and sums with 0 are
    not computed, which matters for Fraction coefficients."""
    if f is None or a is None:
        f, a, g = g, b, None
        if f is None or a is None:
            return None
    elif b is None:
        g = None
    lo = f[0] + a[0]
    hi = lo + len(f[1]) + len(a[1])
    if g is not None:
        lo, hi = (min(lo, g[0] + b[0]),
                  max(hi, g[0] + b[0] + len(g[1]) + len(b[1])))
    acc = [0] * (hi - 1 - lo)
    for (vx, cx), (vy, cy) in ((f, a),) if g is None else ((f, a), (g, b)):
        if len(cx) > len(cy):
            cx, cy = cy, cx  # the outer loop runs over the shorter list
        for i, u in enumerate(cx, vx + vy - lo):
            if type(u) is not int or u not in (1, -1):
                row = [u * w for w in cy]
            else:
                row = cy if u == 1 else [-w for w in cy]
            for k, w in enumerate(row, i):
                acc[k] = acc[k] + w if acc[k] else w
    if p:
        acc = [u % p for u in acc]
    return trim(lo, acc)


def scaled(a, k, p):
    """k*a for a nonzero scalar k: an int, or over Q (p = 0) a Fraction."""
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


def make_primitive(entries, indices):
    """Divide entries[i], i in indices, by the gcd of their coefficients."""
    g = gcd(*(x for i in indices if entries[i] is not None
              for x in entries[i][1]))
    if g > 1:
        for i in indices:
            if entries[i] is not None:
                entries[i] = divided(entries[i], g)
