"""A fixed reference kernel that measures how fast the host runs right now.

On a shared VM the same Python code runs faster or slower by tens of
percent in phases lasting seconds to minutes.  The kernel below does the
kind of work p1dom does (row reduction over GF(p) and over Q, products of
sparse dict polynomials) without any p1dom code, so a change to the program
never moves it.  The benchmark times it between blocks of ops and scales
each block's op times by ``REFERENCE_MS / kernel time``: the figures it
reports are times at a host speed where one kernel run takes
``REFERENCE_MS`` milliseconds.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

# The kernel's usual time on a shared 2-vCPU Intel Xeon VM with Python
# 3.11.7, where it ranged from 5 to 11 ms; any constant works, as long as
# parent and change share it.
REFERENCE_MS = 9.0
REPEATS = 3


def kernel() -> int:
    rng = random.Random(1)
    p = 10007
    n = 24
    m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
    rank = 0
    for c in range(n):
        piv = next((i for i in range(rank, n) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        for i in range(rank + 1, n):
            f = m[i][c] * inv % p
            if f:
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    q = [[Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
          for _ in range(8)] for _ in range(8)]
    for c in range(8):
        piv = next((i for i in range(c, 8) if q[i][c]), None)
        if piv is None:
            continue
        q[c], q[piv] = q[piv], q[c]
        for i in range(c + 1, 8):
            f = q[i][c] / q[c][c]
            q[i] = [a - f * b for a, b in zip(q[i], q[c])]
    poly = {k: Fraction(k % 5 + 1, 3) for k in range(-6, 7)}
    for _ in range(6):
        out = {}
        for i, x in poly.items():
            for j, y in poly.items():
                out[i + j] = out.get(i + j, 0) + x * y
        poly = {k: v for k, v in out.items() if -6 <= k <= 6}
    return rank


def probe_ms() -> float:
    """Median time of ``REPEATS`` kernel runs, in milliseconds."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)
