"""K-complexes are ScalarComplex end to end.

The global sections W and base-K files are sparse scalar complexes.  The
exact chart homology that ``hyper`` reports is compared here with
``paper_lemmas.hypercohomology`` of the truncated chart-cover diagram written
as Laurent matrices of constants, and ``ScalarComplex.validate`` with a
dense d.d product; both references are kept in this file.  The input
bounds of the file format are checked on tiny files.
"""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p1dom import fileformat as ff
from p1dom.cli import main
from p1dom.complexes import (ChainComplex, ScalarComplex, homology,
                             homology_dims)
from p1dom.domination import _valuations, chart_homology, dominate
from p1dom.errors import FormatError, ShapeError, UnsupportedRingError
from p1dom.extension import extend_complex
from p1dom.generators import random_complex, random_novikov_acyclic
from p1dom.laurent import BaseRing, LaurentPoly
from p1dom.matrices import ScalarMatrix
from p1dom.scalars import GF, QQ, ZZ
from p1dom.sheaves import cech_complex

from helpers import (P, chart as sheaf_chart, constants, direct_sum,
                     grid_matrix, load_complex, matmul, monomial, mul, polyneg,
                     single, two_term, window_complex)
from paper_lemmas import ChainMap, ComplexDiagram, hypercohomology

FIELDS = [QQ, GF(7), GF(10007)]
SAMPLES = Path(__file__).resolve().parent.parent / "samples"


# -- the exact chart homology against the Laurent block formula -------------


def as_laurent(c: ScalarComplex) -> ChainComplex:
    """The same complex as Laurent matrices of constants."""
    diffs = {m: grid_matrix(c.ring, d.rows, d.cols, [
        [LaurentPoly(c.ring, {0: row.get(j, 0)}) for j in range(d.cols)]
        for row in d.data]) for m, d in c.diffs.items()}
    return ChainComplex(c.ring, BaseRing.LAURENT, c.lo, c.hi, c.ranks, diffs)


def reference_total(narrow: ScalarComplex, wide: ScalarComplex):
    """hypercohomology of (narrow -> wide <- wide): slot tau goes to
    slot tau + N, index i to i + rank of the narrow window."""
    ring = narrow.ring
    one, zero = LaurentPoly.one(ring), P(ring)
    n_c, w_c = as_laurent(narrow), as_laurent(wide)
    incl = {m: grid_matrix(ring, wide.rank(m), narrow.rank(m), [
        [one if i == j + narrow.rank(m) else zero
         for j in range(narrow.rank(m))] for i in range(wide.rank(m))])
        for m in narrow.degrees()}
    diagram = ComplexDiagram(n_c, w_c, w_c, ChainMap(n_c, w_c, incl),
                             ChainMap.identity(w_c))
    return hypercohomology(diagram)


def reference_dims(chart: ChainComplex, order: int) -> dict:
    """Homology dimensions of the total of the windows at N and 2N."""
    total = reference_total(window_complex(chart, order),
                            window_complex(chart, 2 * order))
    return homology_dims(ScalarComplex(
        total.ring, total.lo, total.hi, total.ranks,
        {m: constants(total.diff(m))
         for m in range(total.lo + 1, total.hi + 1)}))


def poly_chart_entry(rng):
    """(exponent, int) pairs of a K[x] entry for ``two_term``."""
    return [(rng.randint(0, 3), rng.randint(-3, 3))
            for _ in range(rng.randint(0, 2))]


def random_chart(rng, ring):
    """A K[x]-complex: pieces K[x] --p--> K[x] (p = 0 gives two free
    summands) and free singles, mixed in each degree by an elementary
    basis change 1 + c x^k E_ij, which is invertible over K[x]."""
    lo = rng.randint(-1, 1)
    hi = lo + rng.randint(0, 2)
    c = single(ring, BaseRing.POLY, lo, 0)
    for _ in range(rng.randint(1, 3)):
        if hi > lo and rng.random() < 0.7:
            piece = two_term(ring, poly_chart_entry(rng),
                             rng.randint(lo + 1, hi), BaseRing.POLY)
        else:
            piece = single(ring, BaseRing.POLY, rng.randint(lo, hi), 1)
        c = direct_sum(c, piece)
    change = {}
    for m in range(lo, hi + 1):
        g = [[LaurentPoly.one(ring) if i == j else P(ring)
              for j in range(c.rank(m))] for i in range(c.rank(m))]
        g_inv = [row[:] for row in g]
        if c.rank(m) > 1:
            i, j = rng.sample(range(c.rank(m)), 2)
            e = monomial(ring, rng.randint(0, 2),
                         ring.from_int(rng.randint(1, 3)))
            g[i][j], g_inv[i][j] = e, polyneg(e)
        change[m] = [grid_matrix(ring, c.rank(m), c.rank(m), grid)
                     for grid in (g, g_inv)]
    diffs = {m: matmul(change[m - 1][1], c.diff(m), change[m][0])
             for m in range(lo + 1, hi + 1)}
    return ChainComplex(ring, BaseRing.POLY, lo, hi, c.ranks, diffs)


@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 2 ** 32 - 1),
       ring=st.sampled_from(FIELDS + [ZZ]))
def test_fpqc_total_equals_hypercohomology(seed, ring):
    # the total of the windows at N has dimension N f_q + t_q + t_{q-1}
    # once N exceeds every valuation: f the free ranks and t the torsion
    # dimensions of the exact chart homology
    rng = random.Random(seed)
    if rng.random() < 0.5:
        chart = random_chart(rng, ring)
    else:
        chart = sheaf_chart(extend_complex(
            random_novikov_acyclic(rng, ring, 2)).sheaf, "plus")
    assert chart.validate() == []
    exact = chart_homology(chart)
    assert list(exact) == list(chart.degrees())
    free = {q: f for q, (f, _) in exact.items()}
    torsion = {q: t for q, (_, t) in exact.items()}
    largest = max((v for vs in _valuations(chart, 1).values() for v in vs),
                  default=0)
    # the total starts in degree lo - 1
    degrees = range(chart.lo - 1, chart.hi + 1)
    for n in (1 + largest, 2 * (1 + largest)):
        ref = reference_dims(chart, n)
        assert set(ref) <= set(degrees)
        assert {q: ref.get(q, 0) for q in degrees} == {
            q: n * free.get(q, 0) + torsion.get(q, 0) + torsion.get(q - 1, 0)
            for q in degrees}


def test_fpqc_hyper_dims_of_x2_minus_x3():
    chart = two_term(QQ, [(2, 1), (3, -1)], base=BaseRing.POLY)
    assert chart_homology(chart) == {0: (0, 2), 1: (0, 0)}


# -- validate against a dense d.d product -----------------------------------


def dense_problems(c: ScalarComplex):
    ring = c.ring
    problems = []
    for m in range(c.lo + 2, c.hi + 1):
        a, b = c.diffs.get(m - 1), c.diffs.get(m)
        if a is None or b is None:
            continue
        for i in range(a.rows):
            if any(ring.normalise(sum(
                    mul(ring, a.data[i].get(k, 0), b.data[k].get(j, 0))
                    for k in range(a.cols))) for j in range(b.cols)):
                problems.append(f"degree {m}: d.d != 0")
                break
    return problems


def random_scalar_complex(rng, ring):
    lo = rng.randint(-2, 2)
    hi = lo + rng.randint(0, 3)
    ranks = {m: rng.randint(0, 3) for m in range(lo, hi + 1)}
    diffs = {}
    for m in range(lo + 1, hi + 1):
        if rng.random() < 0.2:
            continue
        rows = [{j: ring.from_int(v) for j in range(ranks[m])
                 if (v := rng.choice([0, 0, 0, 1, -1, 2]))}
                for _ in range(ranks[m - 1])]
        diffs[m] = ScalarMatrix(ring, ranks[m - 1], ranks[m], rows)
    return ScalarComplex(ring, lo, hi, ranks, diffs)


def corrupted(rng, c: ScalarComplex) -> ScalarComplex:
    """c with one entry of one nonempty differential moved by 1."""
    cells = [(m, i, j) for m, d in c.diffs.items()
             for i in range(d.rows) for j in range(d.cols)]
    if not cells:
        return c
    m, i, j = rng.choice(cells)
    data = [dict(row) for row in c.diffs[m].data]
    v = c.ring.normalise(data[i].get(j, 0) + 1)
    if v:
        data[i][j] = v
    else:
        data[i].pop(j, None)
    diffs = dict(c.diffs)
    diffs[m] = ScalarMatrix(c.ring, c.diffs[m].rows, c.diffs[m].cols, data)
    return ScalarComplex(c.ring, c.lo, c.hi, c.ranks, diffs)


@settings(deadline=None, max_examples=150)
@given(seed=st.integers(0, 2 ** 32 - 1),
       ring=st.sampled_from(FIELDS + [ZZ]))
def test_validate_matches_dense_product(seed, ring):
    rng = random.Random(seed)
    c = random_scalar_complex(rng, ring)
    assert c.validate() == dense_problems(c)
    # W of an extension is a complex; a moved entry may break d.d = 0
    w = cech_complex(extend_complex(
        random_complex(rng, ring, 4, 3, span=2)).sheaf)
    assert w.validate() == dense_problems(w) == []
    bad = corrupted(rng, w)
    assert bad.validate() == dense_problems(bad)


def test_validate_reports_each_broken_degree():
    one = QQ.one()
    d = ScalarMatrix(QQ, 1, 1, [{0: one}])
    c = ScalarComplex(QQ, 0, 3, {0: 1, 1: 1, 2: 1, 3: 1},
                      {1: d, 2: d, 3: d})
    assert c.validate() == ["degree 2: d.d != 0", "degree 3: d.d != 0"]
    assert ScalarComplex(GF(7), 0, 2, {0: 1, 1: 1, 2: 1}, {
        1: ScalarMatrix(GF(7), 1, 1, [{0: 3}]),
        2: ScalarMatrix(GF(7), 1, 1, [{0: 0}])}).validate() == []


def test_rank_excess_is_an_invalid_k_complex():
    # rank d_1 + rank d_2 = 2 > rank C_1: no homology has dimension -1
    d = ScalarMatrix(GF(7), 1, 1, [{0: 1}])
    c = ScalarComplex(GF(7), 0, 2, {0: 1, 1: 1, 2: 1}, {1: d, 2: d})
    for run in (homology, homology_dims):
        with pytest.raises(ShapeError,
                           match=r"^invalid complex: degree 2: d\.d != 0$"):
            run(c)


# -- one representation -------------------------------------------------------


def test_chain_complex_over_k_raises():
    with pytest.raises(UnsupportedRingError):
        ChainComplex(QQ, BaseRing.K, 0, 1, {0: 1, 1: 1})
    with pytest.raises(UnsupportedRingError):
        single(GF(7), BaseRing.K, 0, 2)


def test_k_complexes_are_scalar():
    c = two_term(QQ, [(1, 1), (0, -1)])
    assert isinstance(cech_complex(extend_complex(c).sheaf), ScalarComplex)
    assert isinstance(dominate(c).w, ScalarComplex)
    w = load_complex(SAMPLES / "x-minus-1-w.cplx")
    assert isinstance(w, ScalarComplex)
    assert w.base == BaseRing.K and w.validate() == []


# -- base-K files -----------------------------------------------------------------


def test_base_k_sample_bytes_survive_load_and_dump():
    text = (SAMPLES / "x-minus-1-w.cplx").read_text(encoding="utf-8")
    loaded = ff.complex_from_dict(json.loads(text))
    assert ff.dumps_canonical(ff.complex_to_dict(loaded)) == text


@pytest.mark.parametrize("ring", FIELDS + [ZZ], ids=lambda r: r.tag)
def test_base_k_files_survive_load_and_dump(ring):
    rng = random.Random(31)
    for _ in range(8):
        c = random_complex(rng, ring, 4, 3, span=2)
        text = ff.dumps_canonical(ff.complex_to_dict(
            cech_complex(extend_complex(c).sheaf)))
        loaded = ff.complex_from_dict(json.loads(text))
        assert isinstance(loaded, ScalarComplex)
        assert ff.dumps_canonical(ff.complex_to_dict(loaded)) == text


def test_base_k_missing_differential_dumps_as_zero():
    data = {"format": "p1dom-complex", "version": 1, "ring": "Q",
            "variable": "x", "base": "K",
            "degrees": [{"degree": 0, "rank": 2}, {"degree": 1, "rank": 1}],
            "differentials": []}
    c = ff.complex_from_dict(data)
    assert c.validate() == []
    assert ff.complex_to_dict(c)["differentials"] == [
        {"degree": 1, "matrix": [[[]], [[]]]}]


def test_base_k_file_with_nonconstant_entry_is_rejected():
    data = ff.complex_to_dict(two_term(QQ, [(1, 1)]))
    data["base"] = "K"
    with pytest.raises(FormatError, match=r"violates K \(at differentials"):
        ff.complex_from_dict(data)


# -- input bounds ---------------------------------------------------------------


def _tiny():
    return ff.complex_to_dict(two_term(GF(7), [(0, 6), (1, 1)]))


def _exponent_file(e):
    data = _tiny()
    data["differentials"][0]["matrix"][0][0] = [[0, "6"], [e, "1"]]
    return data


def _rank_file(r):
    data = _tiny()
    data["degrees"][1]["rank"] = r
    data["differentials"] = []
    return data


def _span_file(top):
    data = _tiny()
    data["degrees"][1]["degree"] = top
    data["differentials"] = []
    return data


def _twist_file(k):
    data = ff.sheaf_to_dict(extend_complex(two_term(QQ, [(0, 1)])).sheaf)
    data["twist_profile"][0]["k"] = k
    return data


@pytest.mark.parametrize("build,ok,bad,where", [
    (_exponent_file, ff.MAX_EXPONENT, ff.MAX_EXPONENT + 1,
     "differentials[0].matrix[0][0][1][0]"),
    (_exponent_file, -ff.MAX_EXPONENT, -ff.MAX_EXPONENT - 1,
     "differentials[0].matrix[0][0][1][0]"),
    (_rank_file, ff.MAX_RANK, ff.MAX_RANK + 1, "degrees[1].rank"),
    (_span_file, ff.MAX_DEGREE_SPAN, ff.MAX_DEGREE_SPAN + 1, "degrees"),
])
def test_complex_bounds(build, ok, bad, where):
    ff.complex_from_dict(build(ok))
    with pytest.raises(FormatError) as err:
        ff.complex_from_dict(build(bad))
    assert str(err.value).endswith(f"(at {where})")
    assert str(bad) in str(err.value) or "span" in str(err.value)


def test_twist_bound():
    ff.sheaf_from_dict(_twist_file(ff.MAX_TWIST))
    with pytest.raises(FormatError, match=r"at twist_profile\[0\]\.k"):
        ff.sheaf_from_dict(_twist_file(ff.MAX_TWIST + 1))


@pytest.mark.parametrize("data", [
    _exponent_file(10 ** 6), _rank_file(10 ** 8), _span_file(10 ** 9)],
    ids=["exponent", "rank", "span"])
def test_bounds_exit_2(data, tmp_path, capsys):
    path = tmp_path / "big.cplx"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("input error: ")


def _dense_slots(data):
    """Dense coefficient slots of a complex or sheaf dict, and the
    location of its last nonempty cell in loading order."""
    total, last = 0, None
    for key in ("differentials", "minus", "plus"):
        for k, item in enumerate(data.get(key, [])):
            for i, row in enumerate(item["matrix"]):
                for j, cell in enumerate(row):
                    if cell:
                        exps = [e for e, _ in cell]
                        total += max(exps) - min(exps) + 1
                        last = f"{key}[{k}].matrix[{i}][{j}]"
    return total, last


def _wide_file(rank, e):
    """A GF(7) file with a rank x rank differential of x^-e + x^e."""
    d = grid_matrix(GF(7), rank, rank,
                    [[P(GF(7), (-e, 1), (e, 1))] * rank] * rank)
    return ff.complex_to_dict(ChainComplex(
        GF(7), BaseRing.LAURENT, 0, 1, {0: rank, 1: rank}, {1: d}))


@pytest.mark.parametrize("data, load", [
    (_wide_file(2, 3), ff.complex_from_dict),
    (ff.sheaf_to_dict(extend_complex(
        two_term(QQ, [(-1, 1), (2, 3)])).sheaf), ff.sheaf_from_dict)],
    ids=["complex", "sheaf"])
def test_dense_slot_budget_at_and_past_the_bound(data, load, tmp_path,
                                                 capsys, monkeypatch):
    slots, last = _dense_slots(data)
    monkeypatch.setattr(ff, "MAX_DENSE_SLOTS", slots)
    load(data)
    monkeypatch.setattr(ff, "MAX_DENSE_SLOTS", slots - 1)
    with pytest.raises(FormatError) as err:
        load(data)
    assert str(err.value) == (
        "the file's polynomials span more than MAX_DENSE_SLOTS = "
        f"{slots - 1} dense coefficient slots (at {last})")
    path = tmp_path / "wide.json"
    ff.save_path(path, data)
    command = "validate" if load is ff.complex_from_dict else "h0"
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == f"input error: {err.value}\n"


def test_dense_slot_budget_refuses_a_wide_file(tmp_path, capsys):
    # 16 x 16 cells of x^-4096 + x^4096: 256 * 8193 slots from 10 KB
    path = tmp_path / "wide.cplx"
    ff.save_path(path, _wide_file(16, ff.MAX_EXPONENT))
    assert main(["validate", str(path)]) == 2
    assert "MAX_DENSE_SLOTS" in capsys.readouterr().err
