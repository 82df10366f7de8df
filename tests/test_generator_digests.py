"""The seeded generators draw the same instances from the same seed.

The acceptance corpus, the report digests, the goldens and the perfbench
corpora are all drawn from ``p1dom.generators``, and the tests draw
their rings with ``helpers.random_ring`` on the same integer loop.  Each
case below draws from 40 fixed seeds per ring and hashes the canonical
text of what it drew (``dumps_canonical`` of ``complex_to_dict``, or of
``matrix_to_rows`` for bare matrices) together
with the next ``rng.random()``, so that a change which moves one draw, one
coefficient or one bit of the generator's stream fails here.  The
generators' integer draws are checked against ``randrange``,
``randint``, ``choice`` and ``sample`` on cloned generators.  The coefficient types
are checked as well: Fractions over Q, residues in [0, p) over GF(p) and
ints over Z.  ``helpers.basis_change`` is compared with the product
oracle ``helpers.basis_change_reference`` on a cloned generator, and
must leave the complex it conjugates unchanged.  The generators run on
int coefficients: a Q draw makes its Fractions and does no Fraction
arithmetic.
"""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from p1dom import fileformat as ff
from p1dom.complexes import ChainComplex
from p1dom.generators import (_below, _two_rows, random_complex,
                              random_novikov_acyclic)
from p1dom.laurent import BaseRing
from p1dom.scalars import GF, QQ, ZZ

from helpers import (basis_change, basis_change_reference,
                     random_invertible_pair)
from paper_lemmas import random_surjective_diagram

RINGS = {"Q": QQ, "GF(5)": GF(5), "GF(7)": GF(7), "GF(10007)": GF(10007),
         "Z": ZZ}
SEEDS = range(40)


def _given(ring, seed):
    """The complex that the basis-change case conjugates."""
    return random_complex(random.Random(100 + seed), ring, max_length=4,
                          max_rank=4, span=1)


def _diagram(d):
    return [ff.complex_to_dict(c) for c in (d.minus, d.mid, d.plus)] + [
        {str(m): ff.matrix_to_rows(f.component(m))
         for m in sorted(f.components)} for f in (d.from_minus, d.from_plus)]


# kind -> (draw from (rng, ring, seed), the drawn object as JSON data, and
# the LaurentMatrix objects whose coefficients are type-checked)
CASES = {
    "complex-default": (
        lambda rng, ring, seed: random_complex(rng, ring),
        ff.complex_to_dict, lambda c: c.diffs.values()),
    "complex-torus-sections": (
        lambda rng, ring, seed: random_complex(rng, ring, max_length=4,
                                               max_rank=3, span=3),
        ff.complex_to_dict, lambda c: c.diffs.values()),
    "complex-large-rank": (
        lambda rng, ring, seed: random_complex(rng, ring, max_length=3,
                                               max_rank=9, span=2),
        ff.complex_to_dict, lambda c: c.diffs.values()),
    "novikov-default": (
        lambda rng, ring, seed: random_novikov_acyclic(rng, ring),
        ff.complex_to_dict, lambda c: c.diffs.values()),
    "novikov-rank-10": (
        lambda rng, ring, seed: random_novikov_acyclic(rng, ring,
                                                       max_rank=10, span=2),
        ff.complex_to_dict, lambda c: c.diffs.values()),
    "basis-change": (
        lambda rng, ring, seed: basis_change(rng, _given(ring, seed), 2),
        ff.complex_to_dict, lambda c: c.diffs.values()),
    "invertible-pair": (
        lambda rng, ring, seed: random_invertible_pair(rng, ring, 1 + seed,
                                                       span=2),
        lambda pair: [ff.matrix_to_rows(t) for t in pair], lambda pair: pair),
    "surjective-diagram": (
        lambda rng, ring, seed: random_surjective_diagram(rng, ring),
        _diagram, lambda d: [f.component(m) for f in (d.from_minus,
                                                      d.from_plus)
                             for m in f.components]),
}

DIGESTS = {
    ("basis-change", "GF(10007)"):
        "7e6d9536981e557ff96473555334b2192633e96d3c357d793f2985b410b84aca",
    ("basis-change", "GF(5)"):
        "b974adda8d1c4029a2486281516b370d15cd87ab35da3d866bdd1a194d150cf1",
    ("basis-change", "GF(7)"):
        "c6e82d70fb9b6c3c47d7a6b52bd4594b8ce09d9823106ef86115d7adb0aa4948",
    ("basis-change", "Q"):
        "b12ae004abd01b890a8577293e371201927aee8fb1eae283d179762a21014ea6",
    ("basis-change", "Z"):
        "cf77525f6233ef5582b8b3d9f0488c71d252971d9926197755e090bbcbbbc36a",
    ("complex-default", "GF(10007)"):
        "373351a90b2d208f289c701c95c63183d4556380157cf966a28f606907ff1d72",
    ("complex-default", "GF(5)"):
        "720423fe03736b5cd9e7e246c50b6aa1a7463d1250681aaafb25fc0808c710dd",
    ("complex-default", "GF(7)"):
        "564dfdc9c3937bb68f51928d0ee531e849006b3f55aeeb518257b62ac4e3d97b",
    ("complex-default", "Q"):
        "e75d462a1d8419793eb0a660d1774e2f82356f2ded36b9465bd71d4e40d97b43",
    ("complex-default", "Z"):
        "d1a59a46d9ccbc65d5c8ab8b53ce385fe579c4801ca01d9b0591724fb9812282",
    ("complex-large-rank", "GF(10007)"):
        "7e3d907a55cdd3b73c042f2608bd9563f9917c35189a364d13e91bcf51b40e99",
    ("complex-large-rank", "GF(5)"):
        "18c6e073aa090621e7c99a27a551b2a309f80eb88a5f0dd5216ef0ac33791eeb",
    ("complex-large-rank", "GF(7)"):
        "6578965fa9327d3dbab43c27858f84761d5ae6383696f221de2f25500bf96030",
    ("complex-large-rank", "Q"):
        "e0168aea5524c12b72d5f15d782a3d6879c1b4f093da7edb7dad204eadb37fc6",
    ("complex-large-rank", "Z"):
        "df2810b5c4b20b747e991420017babfbdff8c77efff49e1514fa63b7a0463387",
    ("complex-torus-sections", "GF(10007)"):
        "d64c56facbd6f7c5dd6331a808a7e6723d980366e0f99437807975eed8b01ff5",
    ("complex-torus-sections", "GF(5)"):
        "7d43f0c9b6ad7ba33f3636a3b67ccb38963787b01a6b21fac80c64389a672868",
    ("complex-torus-sections", "GF(7)"):
        "d350ab277fd9960a2e8cdce17c1659ea077f851bb9ce53f73f08e1de75b452fb",
    ("complex-torus-sections", "Q"):
        "0911195e12988e8f08a258ab7badff5efb10ca2bf3e6308ac80ca3d70913d07b",
    ("complex-torus-sections", "Z"):
        "31b5a5e512f646c51cc2cd0a01ddd632056863550876fa5d3e4f0aacbcec0bc2",
    ("invertible-pair", "GF(10007)"):
        "6241da52c51be175ec9a49f235516697397a8394349b54dd613f2ee09ef593bc",
    ("invertible-pair", "GF(5)"):
        "2af2bd6885bbebaaea1180c830278a80555fd14b255e00b6ac5eda2d038036d3",
    ("invertible-pair", "GF(7)"):
        "f879edc05a6189beae1e241a7680e6a71b1d1d21a7223d0857b5579c4be6d879",
    ("invertible-pair", "Q"):
        "507f6d44cd3f3574c7f6941a96bedd078249c757b6d38f3522a490b38b167502",
    ("invertible-pair", "Z"):
        "0319083091a96daa8e0cb6fd30ec0f59956c091f2ee0c552001bbce6ad75131d",
    ("novikov-default", "GF(10007)"):
        "4bf9bb2272488affb4fe1aff9bbabeccb858cfdb527f5ca0ab61cdbab2ed8598",
    ("novikov-default", "GF(5)"):
        "0bd1e846333d282bd24ab032a3738ea1be54c2944f9339e8a0a193ad82b12c32",
    ("novikov-default", "GF(7)"):
        "8106748faefe8070b6345f825d00241af5c2ad3ebc8819b7be61bb6bf5a59e52",
    ("novikov-default", "Q"):
        "d2ae5deb2e7eeb48621ac14a4a5555303d33e1cd74d786c8c9a797b21dac7c75",
    ("novikov-default", "Z"):
        "7adc1e4a6661c6c0906816faa5ec75ef0cdf213fa34d87ec4202a225facdcf83",
    ("novikov-rank-10", "GF(10007)"):
        "4756c1ee14a0130a44b651d895ef57d2dac207d0a6d1f86451d3c4fbe3994f7f",
    ("novikov-rank-10", "GF(5)"):
        "b6bf99c1bfbd2a4324ed644a9dd7d04204b10b918661e6bf288af71a7bd61abb",
    ("novikov-rank-10", "GF(7)"):
        "5c452d1fcd1234474451b11998740c354025ea76c364257a6b6c042e4999ae0a",
    ("novikov-rank-10", "Q"):
        "0d3c5ad1c52c58d01ed8785e20c0c7c2e0f27016c7e843aefe4c6c3d8dd5886c",
    ("novikov-rank-10", "Z"):
        "4626f57bb9f1449fd036a3866660d07725bf45a6b30f20f73d16f0625b538e90",
    ("surjective-diagram", "GF(10007)"):
        "89685bff0e1f95aa0bbc5b2a6c8dcf52b8f1c6dd43ce7ac1d0dc1c5a4d675ba1",
    ("surjective-diagram", "GF(5)"):
        "96c75b3244cdb842bc89d9892ece1989b356cce2be166055d42522f1091eec85",
    ("surjective-diagram", "GF(7)"):
        "0ae3f1fc1491fa220a6bb68177573060ae855e5860c88da7d6825a07d736d1f5",
    ("surjective-diagram", "Q"):
        "ef1236554962c875d3050357687a432d09fface964fe96dc0fda40706b12c184",
    ("surjective-diagram", "Z"):
        "2f5b91039a2bb648b0a12df9535a978be5bd66f1e16fd6b02b0221e26324dccf",
}


def _check_coefficients(ring, matrices):
    for a in matrices:
        for row in a.data:
            for _, c in row.values():
                for x in filter(None, c):
                    if ring is QQ:
                        assert type(x) is Fraction
                    else:
                        assert type(x) is int
                        assert not ring.p or 0 < x < ring.p


def draw_digest(kind, tag):
    draw, data, matrices = CASES[kind]
    ring = RINGS[tag]
    h = hashlib.sha256()
    for seed in SEEDS:
        rng = random.Random(seed)
        drawn = draw(rng, ring, seed)
        _check_coefficients(ring, matrices(drawn))
        h.update(ff.dumps_canonical(data(drawn)).encode())
        h.update(repr(rng.random()).encode())
    return h.hexdigest()


@pytest.mark.parametrize("tag", sorted(RINGS))
@pytest.mark.parametrize("kind", sorted(CASES))
def test_the_same_seed_gives_the_same_draws(kind, tag):
    assert draw_digest(kind, tag) == DIGESTS[kind, tag]


# the complexes that the product oracle conjugates: the digest case's,
# and the large-rank case's, whose operations meet fill-in (cancellation
# is met by test_basis_change_of_t_cancels_t)
GIVEN = (
    _given,
    lambda ring, seed: random_complex(
        random.Random(200 + seed), ring, max_length=3, max_rank=9, span=2),
)


@pytest.mark.parametrize("tag", sorted(RINGS))
def test_basis_change_equals_the_product_oracle(tag):
    ring = RINGS[tag]
    for given, seed in itertools.product(GIVEN, range(12)):
        c = given(ring, seed)
        copy = ff.complex_from_dict(ff.complex_to_dict(c))
        span = 1 + seed % 3
        rng = random.Random(seed)
        clone = random.Random()
        clone.setstate(rng.getstate())
        assert basis_change(rng, c, span) == \
            basis_change_reference(clone, c, span)
        assert rng.random() == clone.random()
        assert c == copy  # no row of the input was edited


# the arithmetic of Fraction, reflected forms included
FRACTION_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__",
                       "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                       "__neg__")


def test_q_draws_do_no_fraction_arithmetic(monkeypatch):
    """With Fraction's arithmetic refused, Q draws still succeed and equal
    the draws made without the refusal; making a Fraction stays
    allowed."""
    given = [_given(QQ, seed) for seed in range(8)]

    def draws():
        out = []
        for seed in SEEDS:
            rng = random.Random(seed)
            out.append(random_complex(rng, QQ, max_length=4, max_rank=9,
                                      span=3))
            out.append(random_novikov_acyclic(rng, QQ, max_rank=10, span=2))
            out.append(basis_change(rng, given[seed % 8], 2))
        return out

    want = draws()

    def refused(*args):
        raise AssertionError("Fraction arithmetic while drawing")

    for name in FRACTION_ARITHMETIC:
        monkeypatch.setattr(Fraction, name, refused)
    with pytest.raises(AssertionError, match="Fraction arithmetic"):
        Fraction(1, 2) + 1
    got = draws()
    monkeypatch.undo()
    assert got == want
    # the inputs of basis_change carry denominators that are not 1
    assert any(x.denominator > 1 for c in given for d in c.diffs.values()
               for row in d.data for _, xs in row.values() for x in xs)


@pytest.mark.parametrize("tag", sorted(RINGS))
def test_basis_change_of_t_cancels_t(tag):
    """d_1 = T_0 conjugates to T_0^-1 T_0 T_1 = T_1, for the matrices T_0
    and T_1 that ``basis_change`` draws: the inverse row operations
    cancel every entry of T_0 off the diagonal."""
    ring = RINGS[tag]
    for seed in range(12):
        n, span = 1 + seed % 6, 1 + seed % 3
        rng = random.Random(seed)
        clone = random.Random()
        clone.setstate(rng.getstate())
        t0, t1 = (random_invertible_pair(clone, ring, n, span)[0]
                  for _ in range(2))
        c = ChainComplex(ring, BaseRing.LAURENT, 0, 1, {0: n, 1: n},
                         {1: t0})
        assert basis_change(rng, c, span).diff(1) == t1


def _cloned(seed):
    rng, clone = random.Random(seed), random.Random()
    clone.setstate(rng.getstate())
    return rng, clone


def test_draws_are_the_standard_library_draws():
    """``_below`` and ``_two_rows`` draw what ``randrange``, ``randint``,
    ``choice`` and ``sample(range(n), 2)`` draw, and leave the stream
    where they leave it: the next ``random()`` agrees after each draw.
    n = 2..21 is ``sample``'s pool branch, n > 21 its set branch; 30
    draws per n meet clashes of the two rows in both."""
    for n in range(1, 65):
        rng, clone = _cloned(n)
        seq = [object() for _ in range(n)]
        for _ in range(30):
            pairs = [(_below(rng, n), clone.randrange(n)),
                     (_below(rng, n) - 3, clone.randint(-3, n - 4)),
                     (seq[_below(rng, n)], clone.choice(seq))]
            if n >= 2:
                pairs.append((_two_rows(rng, n),
                              tuple(clone.sample(range(n), 2))))
            for mine, theirs in pairs:
                assert mine == theirs
            assert rng.random() == clone.random()


@pytest.mark.parametrize("n", [0, -1, -64])
def test_a_draw_from_an_empty_range_is_refused(n):
    with pytest.raises(ValueError, match="empty range"):
        _below(random.Random(0), n)


@pytest.mark.parametrize("generate, arg", [
    (random_complex, {"span": -1}), (random_complex, {"max_rank": 0}),
    (random_complex, {"max_length": 0}),
    (random_novikov_acyclic, {"span": -1}),
    (random_novikov_acyclic, {"max_rank": 0})])
@pytest.mark.parametrize("tag", ["Q", "GF(7)"])
def test_an_empty_range_of_draws_is_refused(generate, arg, tag):
    """Every seed refuses it, also one whose draws never reach the span
    (seed 28 of ``random_complex(span=-1)`` draws no exponent)."""
    for seed in SEEDS:
        with pytest.raises(ValueError):
            generate(random.Random(seed), RINGS[tag], **arg)
