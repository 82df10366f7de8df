"""Size bounds on what the CLI computes and writes.

Truncation orders stop at MAX_ORDER (for flags and presets alike),
twist-cohomology refuses a rank, twist or split past the file bounds or a
basis past HYPER_ROW_BUDGET monomials, and extend and h0 write nothing
that the loader would refuse.  Each bound is tested at its value and one
past it.  hyper reports the exact chart homology, with no order and no
row budget.
"""

import os

import pytest

from p1dom import cli
from p1dom import fileformat as ff
from p1dom.cli import HYPER_ROW_BUDGET, MAX_ORDER, main
from p1dom.complexes import ChainComplex
from p1dom.errors import FormatError
from p1dom.extension import extend_complex
from p1dom.laurent import BaseRing
from p1dom.scalars import GF, QQ
from p1dom.sheaves import SheafComplex, twisting_sheaf

from helpers import P, grid_matrix, load_complex, load_sheaf, two_term

SAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "samples")
XM1 = os.path.join(SAMPLES, "x-minus-1.cplx")


def test_max_order_is_the_exponent_bound():
    assert MAX_ORDER == ff.MAX_EXPONENT == 4096


@pytest.mark.parametrize("flag", ["--trunc"])
def test_order_flags_at_and_past_the_bound(flag, capsys):
    args = ["novikov", XM1, flag]
    assert main(args + [str(MAX_ORDER)]) == 0
    capsys.readouterr()
    assert main(args + [str(MAX_ORDER + 1)]) == 2
    err = capsys.readouterr().err
    assert f"must be at most MAX_ORDER = {MAX_ORDER}, got {MAX_ORDER + 1}" \
        in err


@pytest.mark.parametrize("var", ["P1DOM_TRUNC"])
def test_order_presets_at_and_past_the_bound(var, monkeypatch, capsys):
    monkeypatch.setenv(var, str(MAX_ORDER))
    assert main(["novikov", XM1]) == 0
    capsys.readouterr()
    monkeypatch.setenv(var, str(MAX_ORDER + 1))
    assert main(["novikov", XM1]) == 2
    assert capsys.readouterr().err == (
        f"input error: {var}: must be at most MAX_ORDER = {MAX_ORDER}, "
        f"got {MAX_ORDER + 1}\n")


def _chart_file(tmp_path, rank):
    """rank generators in each of degrees 0, 1, joined by x^2 - x^3."""
    p = P(QQ, (2, 1), (3, -1))
    zero = P(QQ)
    d = grid_matrix(QQ, rank, rank,
                    [[p if i == j else zero for j in range(rank)]
                     for i in range(rank)])
    c = ChainComplex(QQ, BaseRing.POLY, 0, 1, {0: rank, 1: rank}, {1: d})
    path = tmp_path / f"chart-{rank}.cplx"
    ff.save_path(path, ff.complex_to_dict(c))
    return str(path)


def test_hyper_is_exact_on_a_rank_8_chart(tmp_path, capsys):
    # eight copies of K[[x]]/x^2, and hyper takes no order
    path = _chart_file(tmp_path, 8)
    assert main(["hyper", path]) == 0
    assert capsys.readouterr().out == ("H_0: free rank 0, torsion dim 16\n"
                                       "H_1: free rank 0, torsion dim 0\n")
    assert main(["hyper", path, "--trunc", str(MAX_ORDER)]) == 2


# -- outputs the loader would refuse ---------------------------------------------


def _extension_file(tmp_path, name, ring, *pairs):
    path = tmp_path / f"{name}.cplx"
    ff.save_path(path, ff.complex_to_dict(two_term(ring, pairs)))
    return str(path)


def test_h0_refuses_a_w_above_the_rank_bound(tmp_path, capsys):
    # W of the extension of GF(7) x^1000 - 1 has rank 1001 > MAX_RANK
    src = _extension_file(tmp_path, "g7", GF(7), (1000, 1), (0, -1))
    sheaf = str(tmp_path / "g7.sheaf")
    assert main(["extend", src, "--out", sheaf]) == 0
    load_sheaf(sheaf)
    out = tmp_path / "w.cplx"
    for extra in (["--out", str(out)], []):
        assert main(["h0", sheaf] + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "input error: output not written, p1dom could not read it back: "
            f"rank 1001 exceeds {ff.MAX_RANK} (at degrees[0].rank)\n")
    assert not out.exists()


def test_h0_checks_w_ranks_before_writing_any_cell(tmp_path, monkeypatch,
                                                   capsys):
    # d_1 = [1] with k = l = 400 in both degrees: W has ranks 801/801, and
    # its dense file would have 801^2 cells
    one = [[[[0, "1"]]]]
    sheaf = tmp_path / "wide-twist.sheaf"
    ff.save_path(sheaf, {
        "format": ff.SHEAF_FORMAT, "version": 2, "ring": "Q",
        "variable": "x", "base": "K[x,x^-1]",
        "degrees": [{"degree": 0, "rank": 1}, {"degree": 1, "rank": 1}],
        "differentials": [{"degree": 1, "matrix": one}],
        "twist_profile": [{"degree": m, "k": 400, "l": 400}
                          for m in (0, 1)]})

    def no_dict(c):
        raise AssertionError("complex_to_dict of a W the loader refuses")

    monkeypatch.setattr(ff, "complex_to_dict", no_dict)
    assert main(["h0", str(sheaf)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "input error: output not written, p1dom could not read it back: "
        f"rank 801 exceeds {ff.MAX_RANK} (at degrees[0].rank)\n")


def test_h0_bounds_w_from_the_twists_before_building_it(tmp_path,
                                                        monkeypatch, capsys):
    # a file of a few hundred bytes: ranks 128/128, the differential
    # omitted and twists (4096, 4096), so W would have rank 128 * 8193
    # in each degree
    sheaf = tmp_path / "wide.sheaf"
    sheaf.write_text(
        '{"format": "p1dom-sheaf-complex", "version": 2, "ring": "GF(7)", '
        '"base": "K[x,x^-1]", "degrees": [{"degree": 0, "rank": 128}, '
        '{"degree": 1, "rank": 128}], "twist_profile": [{"degree": 0, '
        '"k": 4096, "l": 4096}, {"degree": 1, "k": 4096, "l": 4096}]}')

    def no_w(s):
        raise AssertionError("cech_complex of a W the loader refuses")

    monkeypatch.setattr(cli, "cech_complex", no_w)
    assert main(["h0", str(sheaf)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "input error: output not written, p1dom could not read it back: "
        f"rank 1048704 exceeds {ff.MAX_RANK} (at degrees[0].rank)\n")


def _wide_witness_file(tmp_path):
    """Ranks 1/2/1 with d_2 = [x^300 - 1; 0] and d_1 = [0, x^300 - 1]: a
    file in bounds whose W has ranks 601/602/1, above MAX_RANK."""
    f, zero = P(QQ, (300, 1), (0, -1)), P(QQ)
    c = ChainComplex(QQ, BaseRing.LAURENT, 0, 2, {0: 1, 1: 2, 2: 1}, {
        1: grid_matrix(QQ, 1, 2, [[zero, f]]),
        2: grid_matrix(QQ, 2, 1, [[f], [zero]])})
    path = tmp_path / "wide-witness.cplx"
    ff.save_path(path, ff.complex_to_dict(c))
    return str(path)


def _complex_to_dict_calls(monkeypatch):
    calls = []
    real = ff.complex_to_dict
    monkeypatch.setattr(ff, "complex_to_dict",
                        lambda c: calls.append(c) or real(c))
    return calls


def test_human_dominate_builds_no_w_file(tmp_path, monkeypatch, capsys):
    path = _wide_witness_file(tmp_path)
    calls = _complex_to_dict_calls(monkeypatch)
    assert main(["dominate", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "W ranks {0:601, 1:602, 2:1}"
    assert calls == []


def test_dominate_report_checks_w_ranks_before_writing_any_cell(
        tmp_path, monkeypatch, capsys):
    path = _wide_witness_file(tmp_path)
    calls = _complex_to_dict_calls(monkeypatch)
    out = tmp_path / "dominate.json"
    args = ["dominate", path, "--format", "report", "--out", str(out)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "input error: output not written, p1dom could not read it back: "
        f"rank 601 exceeds {ff.MAX_RANK} (at degrees[0].rank)\n")
    assert calls == []
    assert not out.exists()


def test_max_twist_is_the_degree_span_times_the_exponent_bound():
    assert ff.MAX_TWIST == ff.MAX_DEGREE_SPAN * ff.MAX_EXPONENT == 65536


def test_extend_writes_and_reads_back_a_twist_past_the_exponent_bound(
        tmp_path, capsys):
    # ranks 1/2/1 with d_2 = [x^4096; 0] and d_1 = [0, x^4096]: every
    # exponent is in bounds, and the twists add up to k = 8192 in degree 0
    f, zero = P(QQ, (4096, 1)), P(QQ)
    c = ChainComplex(QQ, BaseRing.LAURENT, 0, 2, {0: 1, 1: 2, 2: 1}, {
        1: grid_matrix(QQ, 1, 2, [[zero, f]]),
        2: grid_matrix(QQ, 2, 1, [[f], [zero]])})
    src = tmp_path / "deep-twist.cplx"
    ff.save_path(src, ff.complex_to_dict(c))
    out = tmp_path / "deep-twist.sheaf"
    assert main(["extend", str(src), "--out", str(out)]) == 0
    assert main(["extend", str(src), "--format", "report"]) == 0
    assert capsys.readouterr().out == out.read_text()
    sheaf = load_sheaf(str(out))
    assert sheaf.mid == c
    assert sheaf.twist_profile()[0][0] == 2 * ff.MAX_EXPONENT
    assert sheaf.twist_profile() == extend_complex(c).sheaf.twist_profile()


def test_h0_refuses_a_twist_past_max_twist(tmp_path, capsys):
    # the loader's bound, tested at its value in test_scalar_complex
    data = ff.sheaf_to_dict(extend_complex(two_term(QQ, [(0, 1)])).sheaf)
    data["twist_profile"][0]["k"] = ff.MAX_TWIST + 1
    path = tmp_path / "past-twist.sheaf"
    ff.save_path(path, data)
    assert main(["h0", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"input error: twist {ff.MAX_TWIST + 1} exceeds {ff.MAX_TWIST} in "
        "absolute value (at twist_profile[0].k)\n")


def test_outputs_at_the_bounds_are_written_and_read_back(tmp_path):
    # x^4096 - x^-4096 twists degree 0 by (4096, 4096); x^511 - 1 over
    # GF(7) gives a W of rank 512
    src = _extension_file(tmp_path, "edge", QQ, (4096, 1), (-4096, -1))
    sheaf = tmp_path / "edge.sheaf"
    assert main(["extend", src, "--out", str(sheaf)]) == 0
    data = ff.loads(sheaf.read_text())
    assert data["twist_profile"][0] == {
        "degree": 0, "k": ff.MAX_EXPONENT, "l": ff.MAX_EXPONENT}
    load_sheaf(str(sheaf))
    src = _extension_file(tmp_path, "g7", GF(7), (511, 1), (0, -1))
    sheaf = tmp_path / "g7.sheaf"
    w = tmp_path / "w.cplx"
    assert main(["extend", src, "--out", str(sheaf)]) == 0
    assert main(["h0", str(sheaf), "--out", str(w)]) == 0
    assert max(load_complex(str(w)).ranks.values()) == ff.MAX_RANK


def _wide_entry_file(tmp_path, ring, rows, cols, e):
    """A two-term complex with every entry of its rows x cols
    differential x^-e + x^e."""
    p = P(ring, (-e, 1), (e, 1))
    c = ChainComplex(ring, BaseRing.LAURENT, 0, 1, {0: rows, 1: cols}, {
        1: grid_matrix(ring, rows, cols, [[p] * cols] * rows)})
    path = tmp_path / f"wide-{rows}x{cols}.cplx"
    ff.save_path(path, ff.complex_to_dict(c))
    return path


@pytest.mark.parametrize("ring, rows, cols, e", [
    (GF(7), 1, 1, 3000), (QQ, 10, 9, 2000)], ids=["x3000", "10x9-x2000"])
def test_extend_writes_the_extension_of_a_loadable_complex(
        ring, rows, cols, e, tmp_path, capsys):
    # the charts would shift an exponent past MAX_EXPONENT or, at three
    # times the stored cells, pass MAX_DENSE_SLOTS; a sheaf file stores
    # only the complex and its twists, within the bounds the complex met
    src = _wide_entry_file(tmp_path, ring, rows, cols, e)
    slots = rows * cols * (2 * e + 1)
    assert slots <= ff.MAX_DENSE_SLOTS
    assert 2 * e > ff.MAX_EXPONENT or 3 * slots > ff.MAX_DENSE_SLOTS
    c = load_complex(str(src))
    assert main(["extend", str(src)]) == 0
    human = capsys.readouterr().out
    assert human == f"twist profile: 0:(k={e},l={e}), 1:(k=0,l=0)\n"
    out = tmp_path / "wide.sheaf"
    assert main(["extend", str(src), "--out", str(out)]) == 0
    assert main(["extend", str(src), "--format", "report"]) == 0
    assert capsys.readouterr().out == out.read_text()
    data = ff.loads(out.read_text())
    assert data["version"] == 2 and "minus" not in data and "plus" not in data
    s = ff.sheaf_from_dict(data)
    assert s.mid == c
    profile = ", ".join(f"{m}:(k={k},l={l})"
                        for m, (k, l) in sorted(s.twist_profile().items()))
    assert human == f"twist profile: {profile}\n"


def test_loader_bounds_name_twists_and_spans():
    # the bounds that guard written files are the loader's own
    data = ff.sheaf_to_dict(extend_complex(two_term(QQ, [(0, 1)])).sheaf)
    ff.sheaf_from_dict(data)
    data["twist_profile"][0]["l"] = -ff.MAX_TWIST - 1
    with pytest.raises(FormatError, match=r"at twist_profile\[0\]\.l"):
        ff.sheaf_from_dict(data)
    data = ff.complex_to_dict(two_term(QQ, [(0, 1)]))
    data["degrees"][1]["degree"] = ff.MAX_DEGREE_SPAN + 1
    with pytest.raises(FormatError, match="degree span 17 exceeds 16"):
        ff.complex_from_dict(data)


def non_complex_sheaf():
    """Ranks 1/1/1 over Q with d_1 = d_2 = 1 as a sheaf file with the
    twists (0, 0): the loader takes it, d_1 d_2 = 1 != 0."""
    one = grid_matrix(QQ, 1, 1, [[P(QQ, (0, 1))]])
    mid = ChainComplex(QQ, BaseRing.LAURENT, 0, 2, {0: 1, 1: 1, 2: 1},
                       {1: one, 2: one})
    return ff.sheaf_to_dict(
        SheafComplex(mid, {m: twisting_sheaf(0) for m in range(3)}))


@pytest.mark.parametrize("command", ["homology", "novikov", "h0"])
def test_homology_and_novikov_refuse_a_non_complex(command, tmp_path, capsys):
    # d_1 d_2 = diag(1, 0) != 0, but rank d_1 + rank d_2 = rank C_1: only
    # the validation the command runs first sees it
    one = grid_matrix(QQ, 2, 2, [[P(QQ, (0, 1)), P(QQ)], [P(QQ), P(QQ)]])
    c = ChainComplex(QQ, BaseRing.LAURENT, 0, 2, {0: 2, 1: 2, 2: 2},
                     {1: one, 2: one})
    path = tmp_path / "bad.cplx"
    ff.save_path(path, non_complex_sheaf() if command == "h0"
                 else ff.complex_to_dict(c))
    out = tmp_path / "out.json"
    assert main([command, str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid complex: degree 2: d.d != 0\n"
    assert not out.exists()


# -- twist-cohomology arguments --------------------------------------------------


@pytest.mark.parametrize("n, r, k, where, message", [
    (0, 0, 0, None, None),
    (0, -1, 0, "r", "rank must be at least 0, got -1"),
    (0, ff.MAX_RANK, 0, None, None),
    (0, ff.MAX_RANK + 1, 0, "r", f"rank {ff.MAX_RANK + 1} exceeds "
                                  f"{ff.MAX_RANK}"),
    (-ff.MAX_EXPONENT, 1, 0, None, None),
    (-ff.MAX_EXPONENT - 1, 1, 0, "n", f"exponent {-ff.MAX_EXPONENT - 1} "
                                      "exceeds 4096 in absolute value"),
    (0, 1, ff.MAX_EXPONENT, None, None),
    (0, 1, ff.MAX_EXPONENT + 1, "--k", f"exponent {ff.MAX_EXPONENT + 1} "
                                       "exceeds 4096 in absolute value"),
    (ff.MAX_EXPONENT, 1, 0, None, None),
    (ff.MAX_EXPONENT, 1, -1, "n - k", f"exponent {ff.MAX_EXPONENT + 1} "
                                      "exceeds 4096 in absolute value"),
    (4095, 16, 0, None, None),
    (4096, 16, 0, "r, n", f"r * (|n| + 1) = 65552 basis monomials, above "
                          f"HYPER_ROW_BUDGET = {HYPER_ROW_BUDGET}"),
])
def test_twist_cohomology_arguments_at_and_past_the_bounds(
        n, r, k, where, message, capsys, monkeypatch):
    assert 16 * (4095 + 1) == HYPER_ROW_BUDGET
    built = []
    if where is not None:
        monkeypatch.setattr(cli, "twisting_sheaf",
                            lambda *a: built.append(a))
    code = main(["twist-cohomology", "--k", str(k), "--format", "report",
                 "--", str(n), str(r)])
    captured = capsys.readouterr()
    if where is None:
        assert code == 0
        report = ff.loads(captured.out)
        assert report["h0_dim"] - report["h1_dim"] == r * (n + 1)
        assert len(report["h0_basis"]) == report["h0_dim"]
    else:
        assert code == 2 and built == []
        assert captured.out == ""
        assert captured.err == f"input error: {message} (at {where})\n"
