"""Mapping tori of linear maps with prescribed invariant factors.

C_A = (R^n --(x I - A)--> R^n), R = K[x,x^-1], is the cone of x - A for
an integer matrix A similar over Z to the diagonal of the companions of
monic f_1 | f_2 | ... | f_k (``helpers.linear_map_torus``).  Its answers
are known by construction:

- over a field where every f_i(0) != 0, C_A is Novikov acyclic, H_1 = 0,
  the torsion of H_0 is the nonunit f_i and dim_K H_0 = n, so ``verify``
  passes with ``mid_kdim`` n in degree 0;
- over GF(p) the f_i reduce mod p; where p divides f_i(0) the reported
  factor loses its power of x, a unit of R, and ``mid_kdim`` drops by it;
- over Z, det(x I - A) = f_1 ... f_k has leading coefficient 1, so the
  x^-1 side is acyclic, and the x side is acyclic exactly when
  f_1(0) ... f_k(0) = det A is 1 or -1.
"""

import random
from math import prod
from pathlib import Path

import pytest

from p1dom.complexes import homology
from p1dom.domination import novikov_check, verify_theorem
from p1dom.polylists import lincomb
from p1dom.scalars import GF, QQ, ZZ

from helpers import linear_map_torus, load_complex

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

NONZERO = (-3, -2, -1, 1, 2, 3)


def _chain(rng, ends, divisible_by=None, degrees=None):
    """Monic f_1 | ... | f_k of total degree n <= 6, maybe led by the
    unit 1: f_i = f_{i-1} g_i for a monic g_i of degree 0, 1 or 2 (the
    first of degree 1 or 2) whose constant term is drawn from ``ends``
    and whose middle coefficient from -3..3.  With ``divisible_by`` one
    g_i of degree 1 or 2 has a constant term divisible by it instead.
    With ``degrees`` the g_i have those degrees, and n is not bounded."""
    if degrees is None:
        degrees = [rng.choice((1, 2))] + [
            rng.choice((0, 1, 2)) for _ in range(rng.randint(0, 2))]
        while sum(sum(degrees[:i + 1]) for i in range(len(degrees))) > 6:
            degrees.pop()
    special = rng.choice([i for i, deg in enumerate(degrees) if deg])
    factors = [(1,)] if rng.random() < 0.3 else []
    f = (1,)
    for i, deg in enumerate(degrees):
        end = rng.choice(ends)
        if i == special and divisible_by:
            end = divisible_by * rng.choice((-2, -1, 1, 2))
        g = ((1,), (end, 1), (end, rng.randint(-3, 3), 1))[deg]
        f = tuple(lincomb((0, f), (0, g), None, None, 0)[1])
        factors.append(f)
    return factors


def _entry(ring, f):
    return 0, tuple(ring.from_int(c) for c in f)


@pytest.mark.parametrize("ring", [QQ, GF(10007)], ids=["Q", "GF(10007)"])
@pytest.mark.parametrize("seed", range(6))
def test_field_answers(ring, seed):
    rng = random.Random(seed)
    factors = _chain(rng, NONZERO)
    n = sum(len(f) - 1 for f in factors)
    c = linear_map_torus(rng, ring, factors)
    verdict = novikov_check(c)
    assert (verdict.x_side.acyclic, verdict.x_inv_side.acyclic) == (
        "yes", "yes")
    h = homology(c)
    assert h.entry(1) == (0, (), 0)
    assert h.entry(0) == (0, tuple(_entry(ring, f) for f in factors
                                   if len(f) > 1), n)
    report = verify_theorem(c)
    assert report.passed
    assert [(row.degree, row.mid_kdim) for row in report.witness.ledger] == [
        (0, n), (1, 0)]


def _long_degrees(rng):
    """Degrees 1 or 2 of three or four g_i whose chain has total degree
    10 to 12."""
    while True:
        degrees = [rng.choice((1, 2)) for _ in range(rng.choice((3, 4)))]
        n = sum(deg * (len(degrees) - i) for i, deg in enumerate(degrees))
        if 10 <= n <= 12:
            return degrees


@pytest.mark.parametrize("ring", [QQ, GF(10007)], ids=["Q", "GF(10007)"])
@pytest.mark.parametrize("seed", range(4))
def test_several_blocks_of_total_degree_10_to_12(ring, seed):
    # the family on which the Smith stage is slowest: the torsion is the
    # prescribed factors however far the elimination's entries swell
    rng = random.Random(seed)
    factors = _chain(rng, NONZERO, degrees=_long_degrees(rng))
    n = sum(len(f) - 1 for f in factors)
    assert 10 <= n <= 12 and len([f for f in factors if len(f) > 1]) >= 3
    c = linear_map_torus(rng, ring, factors)
    h = homology(c)
    assert h.entry(1) == (0, (), 0)
    assert h.entry(0) == (0, tuple(_entry(ring, f) for f in factors
                                   if len(f) > 1), n)


@pytest.mark.parametrize("seed", range(6))
def test_gf7_factors_lose_their_power_of_x(seed):
    rng = random.Random(seed)
    factors = _chain(rng, NONZERO, divisible_by=7)
    n = sum(len(f) - 1 for f in factors)
    reduced = [tuple(c % 7 for c in f) for f in factors]
    lost = [next(v for v, c in enumerate(f) if c) for f in reduced]
    assert any(lost)
    c = linear_map_torus(rng, GF(7), factors)
    report = verify_theorem(c)
    assert report.passed
    assert homology(c).entry(0).torsion == tuple(
        _entry(GF(7), f[v:]) for f, v in zip(reduced, lost)
        if len(f) - v > 1)
    assert report.witness.ledger[0].mid_kdim == n - sum(lost)


@pytest.mark.parametrize("seed", range(8))
def test_integer_sides(seed):
    rng = random.Random(seed)
    # half the draws have every f_i(0) = 1 or -1, so a yes on the x side
    factors = _chain(rng, (1, -1) if seed % 2 else NONZERO)
    c = linear_map_torus(rng, ZZ, factors)
    end = prod(f[0] for f in factors)
    verdict = novikov_check(c)
    assert verdict.x_inv_side.acyclic == "yes"
    assert verdict.x_inv_side.certificate["end_coefficient"] == "1"
    assert verdict.x_side.acyclic == ("yes" if end in (1, -1) else "no")
    assert verdict.x_side.certificate["end_coefficient"] == str(end)


def test_linear_torus_samples():
    # samples/linear-torus.cplx and its Z twin are the seed-4 draws for
    # f_1 = x - 2 | f_2 = (x - 2)(x^2 + x + 3), so det A = 12
    factors = [(-2, 1), (-6, 1, -1, 1)]
    q = load_complex(SAMPLES / "linear-torus.cplx")
    z = load_complex(SAMPLES / "linear-torus-z.cplx")
    assert q == linear_map_torus(random.Random(4), QQ, factors)
    assert z == linear_map_torus(random.Random(4), ZZ, factors)
    report = verify_theorem(q)
    assert report.passed
    assert [(row.degree, row.mid_kdim) for row in report.witness.ledger] == [
        (0, 4), (1, 0)]
    verdict = novikov_check(z)
    assert (verdict.x_side.acyclic, verdict.x_inv_side.acyclic) == (
        "no", "yes")
    assert verdict.x_side.certificate["end_coefficient"] == "12"
