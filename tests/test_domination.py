import json
import random
from pathlib import Path

import pytest

from p1dom import domination
from p1dom import fileformat as ff

from p1dom.cli import main
from p1dom.complexes import ChainComplex, homology, homology_dims
from p1dom.domination import (_determinant, _pivots, _witness,
                              chart_homology, dominate, novikov_check,
                              verify_theorem)
from p1dom.errors import (NonVanishingH1Error, NotNovikovAcyclicError,
                          ShapeError, StabilisationFailureError,
                          UnsupportedRingError)
from p1dom.extension import extend_complex
from p1dom.generators import random_complex, random_novikov_acyclic
from p1dom.laurent import BaseRing, render
from p1dom.scalars import GF, QQ, ZZ
from p1dom.sheaves import cech_complex
from p1dom.smith import invariant_factors

from helpers import (LaurentPoly, M, chart, determinant, direct_sum,
                     grid_matrix, load_complex, load_sheaf, matmul,
                     pivot_valuations, raised_profile, random_matrix,
                     random_poly, random_ring, recorded_renders,
                     sections_complex, single, twist, two_term,
                     window_complex, zero_complex)
from paper_lemmas import ChainMap, cone, extend_cone, null_homotopic_map
from test_fast_paths import extension_inputs

ROOT = Path(__file__).resolve().parents[1]


# -- novikov_check ------------------------------------------------------------


def test_field_mode_torsion_is_acyclic():
    v = novikov_check(two_term(QQ, [(1, 1), (0, -1)]))
    assert v.both_acyclic
    assert v.x_side.method == "snf-torsion"
    assert v.x_side.certificate["torsion"]["0"] == ["-1 + x"]


def test_field_mode_free_rank_blocks():
    v = novikov_check(single(QQ, BaseRing.LAURENT, 0, 1))
    assert v.x_side.acyclic == "no" and v.x_inv_side.acyclic == "no"


def test_integer_mode_asymmetry():
    v = novikov_check(two_term(ZZ, [(0, 2), (1, -1)]))
    assert v.x_side.acyclic == "no"
    assert v.x_inv_side.acyclic == "yes"
    # 2 - x is a unit of Z((x^-1)), whose end coefficient is -1, and not
    # of Z((x)), whose end coefficient is 2; no order enters the proof
    assert v.x_side.certificate == {
        "determinant": "2 + -1*x", "side": "x", "end_coefficient": "2"}
    assert v.x_inv_side.certificate == {
        "determinant": "2 + -1*x", "side": "x^-1", "end_coefficient": "-1"}


def test_certificates_render_on_first_read(monkeypatch):
    # the verdicts need no strings; the first read of a certificate
    # renders the dict the eager code built
    calls = recorded_renders(monkeypatch)
    for name in ("x-minus-1", "two-minus-x"):
        verdict = novikov_check(load_complex(ROOT / f"samples/{name}.cplx"))
        assert calls == []
        golden = json.loads(
            (ROOT / f"tests/golden/{name}.novikov.out").read_text())
        for side in ("x_side", "x_inv_side"):
            assert (getattr(verdict, side).certificate
                    == golden[side]["certificate"])
        assert calls
        calls.clear()
    z = novikov_check(two_term(ZZ, [(0, 2), (1, -1)]))
    assert calls == []
    assert z.x_inv_side.certificate["end_coefficient"] == "-1"
    assert len(calls) == 1
    # equal answers and methods, different certificates
    other = novikov_check(two_term(ZZ, [(0, 3), (1, -1)]))
    assert (other.x_side.acyclic, other.x_side.method) == (
        z.x_side.acyclic, z.x_side.method)
    assert other.x_side != z.x_side and other != z
    assert novikov_check(two_term(ZZ, [(0, 2), (1, -1)])) == z


def test_integer_mode_zero_determinant():
    v = novikov_check(two_term(ZZ, []))
    assert (v.x_side.acyclic, v.x_inv_side.acyclic) == ("no", "no")
    assert v.x_side.certificate == {
        "determinant": "0", "side": "x", "end_coefficient": "0"}


def _determinant_case(rng, ring, n, kind):
    """(an n x n matrix of entries with exponents -2..2, the column of
    the kernel's first pivot or None): random; singular, a product through
    n - 1; with a zero row; or with its one entry of valuation -2 off the
    diagonal, where the kernel pivots first."""
    if kind == "singular":
        return matmul(random_matrix(rng, ring, n, n - 1, 1),
                      random_matrix(rng, ring, n - 1, n, 1)), None
    lo = -1 if kind == "off-diagonal" else -2
    grid = [[LaurentPoly(ring, {rng.randint(lo, 2): ring.from_int(
        rng.randint(-4, 4)) for _ in range(rng.randint(0, 3))})
        for _ in range(n)] for _ in range(n)]
    if kind == "zero-row":
        grid[rng.randrange(n)] = [LaurentPoly(ring)] * n
    if kind != "off-diagonal":
        return grid_matrix(ring, n, n, grid), None
    i, j = rng.sample(range(n), 2)
    grid[i][j] = LaurentPoly(ring, {-2: ring.from_int(rng.choice([1, -1, 3]))})
    return grid_matrix(ring, n, n, grid), j


@pytest.mark.parametrize("ring", [ZZ, GF(2), GF(7)], ids=lambda r: r.tag)
def test_determinant_off_the_chart_kernel_equals_bareiss(ring):
    # _determinant reads det d off the pivots _pivots yields in t = x: the
    # valuations, the last unit and the sign of the pivots' row and
    # column orders; no Z row may be divided by its content.  The ring
    # picks the key, so over Z the entry of valuation -2 pivots first only
    # when its coefficient is 1 or -1; another unit entry may come first
    # when it is 3, and the determinant does not depend on the order
    rng = random.Random(44)
    least_size = {"random": 0, "singular": 1, "zero-row": 1,
                  "off-diagonal": 2}
    seen = set()
    for _ in range(200):
        kind = rng.choice(list(least_size))
        a, first = _determinant_case(
            rng, ring, rng.randint(least_size[kind], 6), kind)
        det = determinant(a)
        assert _determinant(a) == det.entry
        if first is not None and ring.is_unit(next(
                e[1][0] for row in a.data for e in row.values()
                if e[0] == -2)):
            assert next(_pivots(ring, a.data, 1))[2] == first
        seen.add((kind, det.is_zero))
    assert {("random", False), ("singular", True), ("zero-row", True),
            ("off-diagonal", False)} <= seen


def test_integer_mode_both_sides_for_x_minus_one():
    v = novikov_check(two_term(ZZ, [(1, 1), (0, -1)]))
    assert v.x_side.acyclic == "yes" and v.x_inv_side.acyclic == "yes"


def test_integer_mode_euler_obstruction():
    v = novikov_check(single(ZZ, BaseRing.LAURENT, 0, 2))
    assert v.x_side.acyclic == "no"
    assert v.x_side.method == "euler"


def test_integer_mode_longer_complex_contraction():
    # sum of two shifted (x-1) complexes: eliminable with unit pivots
    c = direct_sum(two_term(ZZ, [(1, 1), (0, -1)]),
                   two_term(ZZ, [(1, 1), (0, -1)], top=2))
    v = novikov_check(c)
    assert (v.x_side.acyclic, v.x_inv_side.acyclic) == ("yes", "yes")
    # each x - 1 is a pivot of valuation 0 on the x side
    assert v.x_side.method == "unit-contraction"
    assert v.x_side.certificate == {"side": "x", "eliminations": [
        {"degree": 1, "col": 0, "pivot_valuation": 0},
        {"degree": 2, "col": 0, "pivot_valuation": 0}]}


def test_integer_mode_contracts_constant_units():
    # d_2 = (1, 0)^T, d_1 = (0, 1): the constant 1 of d_1 takes generator
    # 1 of C_1, so the 1 of d_2, in row 0, is the second pivot
    c = ChainComplex(ZZ, BaseRing.LAURENT, 0, 2, {0: 1, 1: 2, 2: 1}, {
        1: M(ZZ, [[0, 1]]), 2: M(ZZ, [[1], [0]])})
    v = novikov_check(c)
    assert (v.x_side.acyclic, v.x_inv_side.acyclic) == ("yes", "yes")
    assert v.x_inv_side.certificate == {"side": "x^-1", "eliminations": [
        {"degree": 1, "col": 1, "pivot_valuation": 0},
        {"degree": 2, "col": 0, "pivot_valuation": 0}]}


def test_integer_mode_unknown_on_hard_instance():
    # 2 - x in both degrees of a longer complex: no unit pivot on the
    # x side, so the search must answer unknown rather than guess, and
    # names the degree and the lowest coefficient that stopped it
    c = direct_sum(two_term(ZZ, [(0, 2), (1, -1)]),
                   two_term(ZZ, [(0, 2), (1, -1)], top=2))
    v = novikov_check(c)
    assert v.x_side.acyclic == "unknown"
    assert v.x_side.certificate == {
        "side": "x", "degree": 1, "lowest_coefficient": "2"}
    assert v.x_inv_side.acyclic == "yes"


def test_integer_mode_counts_the_generators_left():
    # zero differentials in degrees 0..2: no pivot, and the four
    # generators are left
    c = ChainComplex(ZZ, BaseRing.LAURENT, 0, 2, {0: 1, 1: 2, 2: 1})
    for side in novikov_check(c).x_side, novikov_check(c).x_inv_side:
        assert side.acyclic == "unknown"
        assert side.certificate["remaining_generators"] == 4


def test_zero_complex_is_acyclic_over_z():
    v = novikov_check(zero_complex(ZZ))
    assert v.both_acyclic


def test_field_mode_matches_determinant_criterion():
    # on square two-term complexes: acyclic over both series fields iff
    # the determinant is nonzero over K[x,x^-1]
    rng = random.Random(61)
    for _ in range(40):
        ring = random_ring(rng)
        if not ring.is_field:
            continue
        n = rng.randint(1, 3)
        grid = [[random_poly(rng, ring, -2, 2, 2) for _ in range(n)]
                for _ in range(n)]
        d = grid_matrix(ring, n, n, grid)
        c = ChainComplex(ring, BaseRing.LAURENT, 0, 1, {0: n, 1: n}, {1: d})
        v = novikov_check(c)
        assert v.both_acyclic == (not determinant(d).is_zero)


# -- window models ------------------------------------------------------------


def test_window_complex_of_multiplication_by_x():
    c = two_term(QQ, [(1, 1)], base=BaseRing.POLY)
    # quotient window: coker has dim 1, and the window also shows the
    # degree-0 torsion again as a phantom kernel one degree up
    assert homology_dims(window_complex(c, 8)) == {0: 1, 1: 1}
    assert homology_dims(window_complex(c, 16)) == {0: 1, 1: 1}


def test_window_complex_detects_free_part():
    c = single(QQ, BaseRing.POLY, 0, 1)
    # dimension grows with the window
    assert homology_dims(window_complex(c, 8)) == {0: 8}
    assert homology_dims(window_complex(c, 16)) == {0: 16}


# -- dominate -----------------------------------------------------------------


def test_dominate_x_minus_one_full_example():
    w = dominate(two_term(QQ, [(1, 1), (0, -1)]))
    assert w.w_ranks() == {0: 2, 1: 1}
    rows = {r.degree: r for r in w.ledger}
    assert rows[0].w_dim == 1 and rows[0].mid_kdim == 1
    assert rows[0].plus_dim == 0 and rows[0].minus_dim == 0
    assert rows[1].w_dim == 0
    assert w.ledger_holds


def test_dominate_unit_complex_series_contribution():
    w = dominate(two_term(QQ, [(1, 1)]))
    rows = {r.degree: r for r in w.ledger}
    # H0(W) = 1 comes entirely from K[[x]]/x on the plus chart
    assert rows[0].w_dim == 1 and rows[0].mid_kdim == 0
    assert rows[0].plus_dim == 1 and rows[0].minus_dim == 0


def test_dominate_rejects_free_homology():
    with pytest.raises(NotNovikovAcyclicError):
        dominate(single(QQ, BaseRing.LAURENT, 0, 1))


def test_dominate_escalates_truncation_order():
    # x^20 (1 - x): the plus chart carries K[[x]]/x^20, past the default
    # window of 16 terms, and the witness reads the valuation 20 exactly
    c = two_term(QQ, [(20, 1), (21, -1)])
    w = dominate(c)
    assert w.plus_valuations == {1: [20]}
    assert w.largest_valuations() == (20, 0)
    rows = {r.degree: r for r in w.ledger}
    assert rows[0].plus_dim == 20
    assert rows[0].mid_kdim == 1
    assert rows[0].minus_dim == 0
    assert w.ledger_holds


def test_dominate_stabilisation_failure_beyond_max():
    # x^70 (1 - x): the plus chart carries K[[x]]/x^70 with no cap on
    # the valuation, and the ledger holds
    c = two_term(QQ, [(70, 1), (71, -1)])
    w = dominate(c)
    assert (w.plus_valuations, w.minus_valuations) == ({1: [70]}, {1: [0]})
    assert w.report_fields()["chart_valuations"] == [
        {"degree": 1, "plus": [70], "minus": [0]}]
    rows = {r.degree: r for r in w.ledger}
    assert (rows[0].plus_dim, rows[0].mid_kdim, rows[0].minus_dim) == \
        (70, 1, 0)
    assert w.ledger_holds


def test_ledger_additivity():
    a = two_term(QQ, [(1, 1), (0, -1)])
    b = two_term(QQ, [(1, 1)])
    wa = {r.degree: r for r in dominate(a).ledger}
    wb = {r.degree: r for r in dominate(b).ledger}
    ws = {r.degree: r for r in dominate(direct_sum(a, b)).ledger}
    for q, row in ws.items():
        for fieldname in ("w_dim", "mid_kdim", "plus_dim", "minus_dim"):
            va = getattr(wa[q], fieldname) if q in wa else 0
            vb = getattr(wb[q], fieldname) if q in wb else 0
            assert getattr(row, fieldname) == va + vb


def test_ledger_invariant_under_acyclic_padding():
    rng = random.Random(41)
    c = random_novikov_acyclic(rng, GF(7))
    piece = single(GF(7), BaseRing.LAURENT, 1, 1)
    acyclic_factor, _, _ = cone(ChainMap.identity(piece))
    padded = direct_sum(c, acyclic_factor)
    base_rows = {r.degree: r for r in dominate(c).ledger}
    padded_rows = {r.degree: r for r in dominate(padded).ledger}
    for q in set(base_rows) | set(padded_rows):
        a = base_rows.get(q)
        b = padded_rows.get(q)
        assert (a.mid_kdim if a else 0) == (b.mid_kdim if b else 0)
        # homology-level ledger entries agree; W itself may differ by
        # contractible summands, so compare the homology columns only
        assert (a.w_dim - a.plus_dim - a.minus_dim if a else 0) == \
            (b.w_dim - b.plus_dim - b.minus_dim if b else 0)


# -- chart homology over K[[x]] -------------------------------------------------


def test_fpqc_zero_differential_window_growth():
    # K[x] in degree 0 is free over K[[x]]: its windows C/x^N grow with N
    c = single(QQ, BaseRing.POLY, 0, 1)
    assert chart_homology(c) == {0: (1, 0)}
    for n in (8, 16):
        assert homology_dims(window_complex(c, n)) == {0: n}


def test_fpqc_multiplication_by_x():
    c = two_term(QQ, [(1, 1)], base=BaseRing.POLY)
    assert chart_homology(c) == {0: (0, 1), 1: (0, 0)}  # K[[x]]/x


def test_fpqc_zero_complex():
    assert chart_homology(zero_complex(QQ, BaseRing.POLY)) == {0: (0, 0)}


def test_fpqc_stabilised_dimension_survives_doubling():
    # the plus chart of an extension has no free part, so its windows at
    # N beyond the largest valuation and at 2N both have dimension
    # t_q + t_{q-1} in degree q, t the torsion dimensions
    rng = random.Random(19)
    for _ in range(5):
        plus = chart(extend_complex(random_novikov_acyclic(rng, GF(7), 2))
                     .sheaf, "plus")
        exact = chart_homology(plus)
        assert all(free == 0 for free, _ in exact.values())
        torsion = {q: t for q, (_, t) in exact.items()}
        n = 1 + max(torsion.values())
        want = {q: t + torsion.get(q - 1, 0) for q, t in torsion.items()}
        for order in (n, 2 * n):
            assert homology_dims(window_complex(plus, order)) == want


def test_fpqc_requires_poly_base():
    with pytest.raises(UnsupportedRingError):
        chart_homology(two_term(QQ, [(1, 1)]))


# -- verify_theorem -----------------------------------------------------------


def test_verify_theorem_pass_with_ledger():
    report = verify_theorem(two_term(QQ, [(1, 1), (0, -1)]))
    assert report.passed
    data = report.to_dict()
    assert data["verdict"] == "PASS"
    assert data["witness"]["w_ranks"] == {"0": 2, "1": 1}


def test_verify_theorem_negative_control():
    report = verify_theorem(single(QQ, BaseRing.LAURENT, 0, 1))
    assert not report.passed
    assert "degree 0" in report.checks[0].detail
    assert "1" in report.checks[0].detail


def test_verify_theorem_unit_complex():
    report = verify_theorem(two_term(QQ, [(1, 1)]))
    assert report.passed


def test_verify_theorem_randomised():
    rng = random.Random(53)
    for _ in range(25):
        ring = random_ring(rng)
        c = random_novikov_acyclic(rng, ring)
        report = verify_theorem(c)
        assert report.passed
        assert max(report.witness.largest_valuations()) <= 64


@pytest.mark.parametrize("run", [verify_theorem, dominate],
                         ids=["verify_theorem", "dominate"])
def test_integer_complex_is_refused_before_any_novikov_search(monkeypatch,
                                                              run):
    def no_search(*args):
        raise AssertionError("Z Novikov search on a refused complex")

    monkeypatch.setattr(domination, "_novikov_integers", no_search)
    # Novikov acyclic or not, with chi = 0 or not: each is refused alike
    for c in (two_term(ZZ, [(1, 1), (0, -1)]), two_term(ZZ, [(0, 2)]),
              single(ZZ, BaseRing.LAURENT, 0, 1),
              random_novikov_acyclic(random.Random(4), ZZ)):
        with pytest.raises(UnsupportedRingError,
                           match=r"^the domination witness needs field "
                                 r"coefficients"):
            run(c)


@pytest.mark.parametrize("run, message", [
    (homology, "homology is computed over K or K[x,x^-1], not K[x]"),
    (novikov_check, "Novikov acyclicity applies to K[x,x^-1]-complexes"),
    (verify_theorem, "Novikov acyclicity applies to K[x,x^-1]-complexes"),
    (dominate, "Novikov acyclicity applies to K[x,x^-1]-complexes"),
    (extend_complex, "extension starts from a K[x,x^-1]-complex"),
], ids=["homology", "novikov_check", "verify_theorem", "dominate",
        "extend_complex"])
def test_a_k_x_complex_is_refused_by_the_library(run, message):
    # the CLI refuses the base before any of these runs; called directly,
    # each refuses a valid K[x] complex
    c = two_term(QQ, [(1, 1)], base=BaseRing.POLY)
    assert c.validate() == []
    with pytest.raises(UnsupportedRingError) as exc:
        run(c)
    assert str(exc.value) == message


def test_contraction_pivot_is_a_unit_then_least_valuation():
    # d_1 = [2, x], d_2 = [x; -2].  On the x side 2 has the least
    # valuation but no unit lowest coefficient, so the pivot is x, which
    # takes generator 1 of C_1; the row of -2 in d_2 goes with it, and x
    # is the last pivot.  A least-valuation rule would stop at 2.
    c = ChainComplex(ZZ, BaseRing.LAURENT, 0, 2, {0: 1, 1: 2, 2: 1},
                     {1: M(ZZ, [[2, [(1, 1)]]]),
                      2: M(ZZ, [[[(1, 1)]], [-2]])})
    assert c.validate() == []
    v = novikov_check(c)
    assert (v.x_side.acyclic, v.x_inv_side.acyclic) == ("yes", "yes")
    assert v.x_side.certificate["eliminations"] == [
        {"degree": 1, "col": 1, "pivot_valuation": 1},
        {"degree": 2, "col": 0, "pivot_valuation": 1}]
    # the ring picks the kernel's key: over Z a unit first, then least
    # valuation; over a field the least valuation alone
    def pivots(d):
        return [(r, j) for _, r, j, _ in _pivots(d.ring, d.data, 1)]

    assert pivots(c.diff(1)) == [(0, 1)]
    assert pivots(M(QQ, [[2, [(1, 1)]]])) == [(0, 0)]
    assert pivots(M(ZZ, [[[(1, -1)], [(0, 1), (5, 3)], 3]])) == [(0, 1)]


def test_contraction_stops_reading_at_the_stall(monkeypatch):
    # the kernel has no stop of its own: the walk stops reading its pivots
    # at the first one whose unit is no unit of Z((t)).  On the x^-1 side
    # of z-contraction.cplx that is the one pivot of d_0 = [x^-1 - 1 - 3x],
    # whose lowest coefficient in t = x^-1 is -3; the x side reads every
    # pivot of d_0, d_1 and d_2 (3 eliminations)
    drawn = []
    original = domination._pivots

    def recording(*args):
        drawn.append([])
        for pivot in original(*args):
            drawn[-1].append(pivot)
            yield pivot

    monkeypatch.setattr(domination, "_pivots", recording)
    c = load_complex(ROOT / "samples/z-contraction.cplx")
    v = novikov_check(c)
    assert v.x_inv_side.certificate == {
        "side": "x^-1", "degree": 0, "lowest_coefficient": "-3"}
    assert [len(pivots) for pivots in drawn] == [1, 0, 2, 1]
    assert drawn[-1][-1][3][1][0] == -3


@pytest.mark.parametrize("name", ["A", "B"])
def test_contraction_removes_both_generators_of_each_pivot(name):
    # A: d_1 = [1, -1], d_2 = [1; 1] in degrees 0..2; B: d_0 = [x, -x],
    # d_1 = [1; 1] in degrees -1..1.  The first pivot takes generator 0
    # of the middle module, so row 0 of the upper differential goes with
    # it and row 1 is the second pivot.  Each pivot removes two
    # generators, so nothing is left at the end.
    if name == "A":
        c = ChainComplex(ZZ, BaseRing.LAURENT, 0, 2, {0: 1, 1: 2, 2: 1},
                         {1: M(ZZ, [[1, -1]]), 2: M(ZZ, [[1], [1]])})
        first = {"x": 0, "x^-1": 0}
    else:
        c = ChainComplex(ZZ, BaseRing.LAURENT, -1, 1, {-1: 1, 0: 2, 1: 1},
                         {0: M(ZZ, [[[(1, 1)], [(1, -1)]]]),
                          1: M(ZZ, [[1], [1]])})
        first = {"x": 1, "x^-1": -1}
    v = novikov_check(c)
    for side in (v.x_side, v.x_inv_side):
        var = side.certificate["side"]
        assert (side.acyclic, side.method) == ("yes", "unit-contraction")
        assert side.certificate == {"side": var, "eliminations": [
            {"degree": c.lo + 1, "col": 0, "pivot_valuation": first[var]},
            {"degree": c.hi, "col": 0, "pivot_valuation": 0}]}


def not_a_complex():
    # d_1 d_2 = 1, while the ranks of d_1 and d_2 fit in rank C_1
    return ChainComplex(QQ, BaseRing.LAURENT, 0, 2, {0: 1, 1: 3, 2: 1},
                        {1: M(QQ, [[1, 0, 0]]), 2: M(QQ, [[1], [0], [0]])})


@pytest.mark.parametrize("run", [verify_theorem, dominate],
                         ids=["verify_theorem", "dominate"])
def test_a_non_complex_is_refused_not_failed(run):
    with pytest.raises(ShapeError,
                       match=r"^invalid complex: degree 2: d\.d != 0$"):
        run(not_a_complex())


@pytest.mark.parametrize("run", [verify_theorem, dominate],
                         ids=["verify_theorem", "dominate"])
def test_witness_pipeline_validates_once(monkeypatch, run):
    calls = []
    original = ChainComplex.validate

    def counting(c):
        calls.append(c)
        return original(c)

    monkeypatch.setattr(ChainComplex, "validate", counting)
    run(random_novikov_acyclic(random.Random(5), QQ))
    assert len(calls) == 1


def _count_calls(monkeypatch, name):
    """The arguments of every call of ``domination.<name>`` from now on."""
    calls = []
    original = getattr(domination, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(domination, name, counting)
    return calls


def _chart_passes(c):
    # one _pivots pass per differential on each chart
    return 2 * (c.hi - c.lo)


def test_verify_theorem_computes_homology_once(monkeypatch):
    smith = _count_calls(monkeypatch, "homology")
    ranks = _count_calls(monkeypatch, "_pivots")
    c = random_novikov_acyclic(random.Random(5), QQ)
    report = verify_theorem(c)
    assert report.passed
    assert len(smith) == 1
    assert len(ranks) == _chart_passes(c)
    # a FAIL reads its free ranks off the same report and runs no chart
    smith.clear()
    ranks.clear()
    assert not verify_theorem(single(QQ, BaseRing.LAURENT, 0, 1)).passed
    assert (len(smith), len(ranks)) == (1, 0)


def test_the_ledger_holds_on_the_lifted_cone():
    # the paper's own extension of cone(omega) for a null-homotopic omega
    # between Novikov-acyclic complexes: a legal sheaf whose levels may
    # mix twist splits, so the witness is read off the ledger rows and
    # not off report_fields, which needs one split per level
    rng = random.Random(36)
    mixed = 0
    for i in range(200):
        ring = (QQ, GF(7), GF(10007))[i % 3]
        a = random_novikov_acyclic(rng, ring)
        b = random_novikov_acyclic(rng, ring)
        omega = null_homotopic_map(rng, a, b)
        lifted = extend_cone(extend_complex(a).sheaf,
                             extend_complex(b).sheaf, omega)
        witness = _witness(lifted, homology(lifted.mid))
        assert witness.ledger_holds and witness.sheaf is lifted
        mixed += any(len(set(ts)) > 1 for ts in lifted.twists.values())
    assert mixed


def random_legal_profiles():
    """(c, its extension, five legal sheaves over c) for 300 draws (seed
    2279; Q, GF(7), GF(10007) in turn): per-row least twists given the
    level above, unraised and twice raised by 0..3 in k and in l, and the
    extension's profile shifted to n = -1 in either split."""
    rng = random.Random(2279)
    for i in range(300):
        ring = (QQ, GF(7), GF(10007))[i % 3]
        c = random_novikov_acyclic(rng, ring)
        ext = extend_complex(c).sheaf
        yield c, ext, ([raised_profile(rng, c, most) for most in (0, 3, 3)]
                       + [twist(ext, -1, -1), twist(ext, -1, 0)])


def test_the_ledger_holds_on_random_legal_profiles():
    # the equation does not depend on the profile; at n = -1 every level
    # still has H^1 = 0, and one more step down is refused
    for c, ext, sheaves in random_legal_profiles():
        mid = homology(c)
        for sheaf in sheaves:
            assert _witness(sheaf, mid).ledger_holds
        with pytest.raises(NonVanishingH1Error):
            cech_complex(twist(ext, -2, -1))


def test_w_equals_the_sections_built_by_multiplication():
    # the oracle multiplies x^e by each entry and places every product
    # coefficient by its (summand, exponent) in W's basis, with no band
    # offsets: it checks every row of cech_complex, on the sample sheaf,
    # the extensions the CLI and the benchmark build and the random
    # legal profiles
    sheaves = [load_sheaf(ROOT / "samples" / "x-minus-1.sheaf")]
    sheaves += [extend_complex(c).sheaf for c in extension_inputs()]
    sheaves += [s for _, _, profiles in random_legal_profiles()
                for s in profiles]
    for s in sheaves:
        w, oracle = cech_complex(s), sections_complex(s)
        assert w.ranks == oracle.ranks
        assert w.diffs.keys() == oracle.diffs.keys()
        for m, d in oracle.diffs.items():
            assert (w.diffs[m].rows, w.diffs[m].cols) == (d.rows, d.cols)
            assert w.diffs[m].data == d.data, f"degree {m}"


def test_a_ledger_failure_names_its_degree(monkeypatch, tmp_path, capsys):
    original = domination.homology_dims
    monkeypatch.setattr(domination, "homology_dims", lambda w: {
        q: dim + (q == 0) for q, dim in original(w).items()})
    c = two_term(QQ, [(1, 1), (0, -1)])
    message = ("ledger equation failed; chart dimensions disagree with "
               "H(W) in degree 0: w_dim 2 != 1 = mid_kdim 1 + plus_dim 0 "
               "+ minus_dim 0")
    with pytest.raises(StabilisationFailureError) as info:
        dominate(c)
    assert str(info.value) == message
    path = tmp_path / "x-minus-1.cplx"
    ff.save_path(path, ff.complex_to_dict(c))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().err == f"FAIL: {message}\n"


def test_dominate_computes_homology_once(monkeypatch):
    smith = _count_calls(monkeypatch, "homology")
    ranks = _count_calls(monkeypatch, "_pivots")
    c = random_novikov_acyclic(random.Random(6), GF(7))
    witness = dominate(c)
    assert witness.ledger_holds
    assert len(smith) == 1
    assert len(ranks) == _chart_passes(c)


def test_field_verdict_computes_no_smith_form_until_read(monkeypatch):
    smith = _count_calls(monkeypatch, "homology")
    ranks = _count_calls(monkeypatch, "_pivots")
    # chi = 0 (x - 1: yes; zero map: no) and chi = 2 (no differential)
    for c, answer, rank_passes in (
            (two_term(QQ, [(1, 1), (0, -1)]), "yes", 1),
            (two_term(GF(7), [], top=1), "no", 1),
            (single(GF(7), BaseRing.LAURENT, 0, 2), "no", 0)):
        smith.clear()
        ranks.clear()
        verdict = novikov_check(c)
        assert verdict.x_side.acyclic == verdict.x_inv_side.acyclic == answer
        assert smith == [] and len(ranks) == rank_passes
        # both sides' certificates share one Smith form
        certificate = verdict.x_side.certificate
        assert verdict.x_inv_side.certificate is certificate
        assert len(smith) == 1 and len(ranks) == rank_passes


def _snf_certificate(ring, report):
    """The snf-torsion certificate, rendered from ``homology(c)``."""
    return {
        "method": "snf-torsion",
        "free_ranks": {str(q): e.free_rank for q, e in report.entries.items()},
        "torsion": {str(q): [render(ring, f) for f in e.torsion]
                    for q, e in report.entries.items() if e.torsion},
    }


FIELDS = (QQ, GF(2), GF(7), GF(10007))


def _field_corpus():
    """420 fixed-seed field complexes: torus-sections' random_complex
    draws (mostly not Novikov acyclic) and Novikov-acyclic ones."""
    rng = random.Random(2103)
    for i in range(420):
        ring = FIELDS[i % 4]
        if i % 3 == 2:
            yield random_novikov_acyclic(rng, ring, max_rank=3, span=2)
        else:
            yield random_complex(rng, ring, max_length=4, max_rank=3, span=3)


def test_field_verdict_from_ranks_equals_the_smith_form():
    seen = set()
    for c in _field_corpus():
        verdict = novikov_check(c)
        answer = verdict.x_side.acyclic
        report = homology(c)
        assert answer == ("yes" if report.all_torsion else "no")
        assert verdict.x_inv_side.acyclic == answer
        assert verdict.x_side.certificate == _snf_certificate(c.ring, report)
        euler = sum((-1) ** (m % 2) * r for m, r in c.ranks.items())
        seen.add((c.ring, euler == 0, answer))
        for d in c.diffs.values():
            factors = len(invariant_factors(d))
            assert len(pivot_valuations(d, 1)) == factors
            assert len(pivot_valuations(d, -1)) == factors
    for ring in FIELDS:
        # the Euler shortcut and both answers of the rank test, per field
        assert {(ring, False, "no"), (ring, True, "no"),
                (ring, True, "yes")} <= seen


def test_gf2_draws_are_nonzero_and_novikov_acyclic():
    # a nonzero draw whose terms cancel falls back to one monomial, and
    # its coefficient 2, zero over GF(2), becomes 1
    rng = random.Random(0)
    assert all(random_poly(rng, GF(2), nonzero=True) for _ in range(4000))
    rng = random.Random(1)
    for _ in range(500):
        c = random_novikov_acyclic(rng, GF(2))
        assert novikov_check(c).x_side.acyclic == "yes"


def test_rank_overflow_is_an_invalid_complex():
    # chi = 0, so the ranks are read: rank d_1 + rank d_2 = 2 > rank C_1
    one = M(QQ, [[1]])
    c = ChainComplex(QQ, BaseRing.LAURENT, 0, 3, {0: 1, 1: 1, 2: 1, 3: 1},
                     {1: one, 2: one, 3: one})
    for run in (novikov_check, homology):
        with pytest.raises(ShapeError,
                           match=r"^invalid complex: degree 2: d\.d != 0$"):
            run(c)
