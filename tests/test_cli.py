import builtins
import hashlib
import json
import os
import shlex
import shutil
import time

import pytest

from p1dom import complexes, domination
from p1dom import fileformat as ff
from p1dom.cli import COMMANDS, PARSER, PARSERS, main
from p1dom.complexes import ChainComplex
from p1dom.errors import BaseRingViolationError, UnsupportedRingError
from p1dom.laurent import BaseRing
from p1dom.scalars import QQ, ZZ, ring_from_tag
from p1dom.sheaves import SheafComplex

from helpers import M, chart, load_complex, single, two_term

SAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "samples")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


@pytest.fixture
def xm1_file(tmp_path):
    path = tmp_path / "x-minus-1.cplx"
    ff.save_path(path, ff.complex_to_dict(two_term(QQ, [(0, -1), (1, 1)])))
    return str(path)


@pytest.fixture
def two_minus_x_file(tmp_path):
    path = tmp_path / "two-minus-x.cplx"
    ff.save_path(path, ff.complex_to_dict(two_term(ZZ, [(0, 2), (1, -1)])))
    return str(path)


@pytest.fixture
def free_rank_file(tmp_path):
    path = tmp_path / "rank1.cplx"
    c = single(QQ, BaseRing.LAURENT, 0, 1)
    ff.save_path(path, ff.complex_to_dict(c))
    return str(path)


def test_validate_ok(xm1_file, capsys):
    assert main(["validate", xm1_file]) == 0
    assert "ok" in capsys.readouterr().out


def test_homology_output(xm1_file, capsys):
    assert main(["homology", xm1_file]) == 0
    out = capsys.readouterr().out
    assert "H_0" in out and "-1 + x" in out


def test_verify_pass_exit_zero(xm1_file, capsys):
    assert main(["verify", xm1_file]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("base", list(BaseRing), ids=lambda b: b.tag)
def test_wrong_base_is_an_input_error(base, tmp_path, capsys):
    # a file of a base ring the command does not take is an input error
    # (exit 2) naming the base it needs, never a mathematical FAIL;
    # validate takes every base
    path = tmp_path / "c.cplx"
    if base == BaseRing.K:
        c = single(QQ, BaseRing.POLY, 0, 1)
        data = ff.complex_to_dict(c)
        data["base"] = "K"
    else:
        data = ff.complex_to_dict(two_term(QQ, [(0, 1)], base=base))
    ff.save_path(path, data)
    takes = {"homology": (BaseRing.K, BaseRing.LAURENT),
             "hyper": (BaseRing.POLY,)}
    for command in ("homology", "novikov", "extend", "hyper", "dominate",
                    "verify", "validate"):
        code = main([command, str(path)])
        err = capsys.readouterr().err
        if command == "validate" or base in takes.get(
                command, (BaseRing.LAURENT,)):
            assert code != 2, (command, err)
        else:
            assert code == 2, (command, err)
            assert err.startswith(f"input error: {command} needs a ")
            assert f"the file has base {base.tag}" in err


@pytest.mark.parametrize("base", [BaseRing.K, BaseRing.POLY,
                                  BaseRing.LAURENT],
                         ids=lambda b: b.tag)
def test_z_coefficients_are_an_input_error(base, tmp_path, capsys):
    # homology, hyper, dominate and verify need field coefficients: a Z
    # file is an input error (exit 2) naming the ring, never a
    # mathematical FAIL or a wrong count; the commands that run over Z
    # still succeed
    path = tmp_path / "z.cplx"
    if base == BaseRing.K:
        data = ff.complex_to_dict(single(ZZ, BaseRing.POLY, 0, 1))
        data["base"] = "K"
        commands = ("homology", "validate")
    elif base == BaseRing.POLY:
        # coker 2 over Z[[x]] is (Z/2)[[x]], not zero
        data = ff.complex_to_dict(two_term(ZZ, [(0, 2)], base=base))
        commands = ("hyper", "validate")
    else:
        data = ff.complex_to_dict(two_term(ZZ, [(1, 1), (0, -1)]))
        commands = ("homology", "novikov", "extend", "dominate", "verify",
                    "validate")
    ff.save_path(path, data)
    for command in commands:
        code = main([command, str(path)])
        captured = capsys.readouterr()
        err = captured.err
        if command in ("homology", "hyper", "dominate", "verify"):
            assert code == 2 and captured.out == "", (command, err)
            assert err == (f"input error: {command} needs field coefficients "
                           "(Q or GF(p)), the file has ring Z (at ring)\n")
        else:
            assert code == 0, (command, err)


def test_verify_fail_exit_one(free_rank_file, capsys):
    assert main(["verify", free_rank_file]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "free rank 1 in degree 0" in out


def test_novikov_integer_asymmetry(two_minus_x_file, capsys):
    # the file header states Z: novikov runs its Z mode with no flag
    assert main(["novikov", two_minus_x_file]) == 0
    out = capsys.readouterr().out
    assert "x-side: no" in out
    assert "x^-1-side: yes" in out


def test_z_determinant_keeps_the_sign_of_its_pivots(tmp_path, capsys):
    # d_1 = [[0, 1], [1, x - 2]] over Z: the chart kernel pivots on row 0,
    # column 1 first, so a lost pivot sign reports det d_1 = 1, not -1
    d = M(ZZ, [[0, 1], [1, [(0, -2), (1, 1)]]])
    path = tmp_path / "z-sign.cplx"
    ff.save_path(path, ff.complex_to_dict(
        ChainComplex(ZZ, BaseRing.LAURENT, 0, 1, {0: 2, 1: 2}, {1: d})))
    assert main(["novikov", str(path), "--format", "report"]) == 0
    report = json.loads(capsys.readouterr().out)
    for key, side in (("x_side", "x"), ("x_inv_side", "x^-1")):
        assert report[key] == {
            "acyclic": "yes", "method": "unit-determinant",
            "certificate": {"determinant": "-1", "side": side,
                            "end_coefficient": "-1"}}


def test_ring_flag_mismatch_is_input_error(two_minus_x_file, capsys):
    # the header states Z, and no flag can restate or contradict it: a
    # --ring is an unknown argument, refused before the file is read
    assert main(["novikov", two_minus_x_file, "--ring", "Q"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --ring Q" in captured.err


def test_missing_file_is_input_error(capsys):
    assert main(["validate", "/nonexistent/file.cplx"]) == 2


def test_malformed_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.cplx"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2
    assert "input error" in capsys.readouterr().err


def test_twist_cohomology_example(capsys):
    assert main(["twist-cohomology", "--", "-3", "1"]) == 0
    out = capsys.readouterr().out
    assert "dim H^0 = 0" in out
    assert "dim H^1 = 2" in out


# sha256 of the report bytes, and the report they decode to; flags go
# before "--", after which argparse reads everything as a positional
TWIST_REPORTS = [
    (["--k", "1", "--format", "report", "--", "-3", "2"],
     "da8444bb356c2560f30296f158b335dc7ac20ace0044dd25de0377512f89ca3a",
     {"command": "twist-cohomology", "n": -3, "r": 2, "k": 1, "h0_dim": 0,
      "h1_dim": 4, "h0_basis": [],
      "h1_basis": [[0, 2], [0, 3], [1, 2], [1, 3]]}),
    (["4", "2", "--k", "1", "--format", "report"],
     "a7a3089ca98da287573673889e56340302f5a9c83f48c8f015f832b7ab353696",
     {"command": "twist-cohomology", "n": 4, "r": 2, "k": 1, "h0_dim": 10,
      "h1_dim": 0, "h0_basis": [[i, e] for i in (0, 1)
                                for e in range(-3, 2)],
      "h1_basis": []}),
]


@pytest.mark.parametrize("argv, digest, report", TWIST_REPORTS,
                         ids=["O(-3)^2", "O(4)^2"])
def test_twist_cohomology_report_bytes_are_pinned(argv, digest, report,
                                                  capsys):
    assert main(["twist-cohomology"] + argv) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == report
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_twist_cohomology_human_bytes_are_pinned(capsys):
    assert main(["twist-cohomology", "--", "-3", "1"]) == 0
    assert capsys.readouterr().out == ("dim H^0 = 0\n"
                                       "dim H^1 = 2\n"
                                       "H^1 basis: x^1, x^2\n")


def test_twist_cohomology_names_the_summand_of_each_monomial(capsys):
    # r copies of O(n) list the same exponents once per summand, as the
    # report's [i, e] pairs do
    assert main(["twist-cohomology", "--k", "5", "--", "-3", "2"]) == 0
    assert capsys.readouterr().out == (
        "dim H^0 = 0\n"
        "dim H^1 = 4\n"
        "H^1 basis: summand 0: x^6, x^7; summand 1: x^6, x^7\n")
    assert main(["twist-cohomology", "1", "3"]) == 0
    assert capsys.readouterr().out == (
        "dim H^0 = 6\n"
        "dim H^1 = 0\n"
        "H^0 basis: summand 0: x^-1, x^0; summand 1: x^-1, x^0; "
        "summand 2: x^-1, x^0\n")


def test_extend_h0_pipeline(xm1_file, tmp_path, capsys):
    sheaf_path = str(tmp_path / "ext.sheaf")
    w_path = str(tmp_path / "w.cplx")
    assert main(["extend", xm1_file, "--out", sheaf_path]) == 0
    assert main(["h0", sheaf_path, "--out", w_path]) == 0
    w = load_complex(w_path)
    assert {m: w.rank(m) for m in w.degrees()} == {0: 2, 1: 1}
    # emitted files re-ingest to equal values
    again = str(tmp_path / "w2.cplx")
    assert main(["h0", sheaf_path, "--out", again]) == 0
    with open(w_path) as first, open(again) as second:
        assert first.read() == second.read()


def readme_command_lines():
    """The argument lists of the README's "Command line" block, one per
    line, with the leading ``p1dom`` and the comments dropped."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert all(words[0] == "p1dom" for words in lines)
    return [words[1:] for words in lines]


def test_readme_command_lines_run_as_written(tmp_path, monkeypatch, capsys):
    # from a directory holding samples/, with somefile.cplx a copy of a
    # sample, every line of the block succeeds, the block shows every
    # command, and extend and h0 write the sample files of x - 1
    shutil.copytree(SAMPLES, tmp_path / "samples")
    shutil.copyfile(tmp_path / "samples" / "x-minus-1.cplx",
                    tmp_path / "somefile.cplx")
    monkeypatch.chdir(tmp_path)
    lines = readme_command_lines()
    assert {argv[0] for argv in lines} == set(COMMANDS)
    for argv in lines:
        assert main(argv) == 0, argv
        captured = capsys.readouterr()
        # the output goes to stdout or, with --out, to the file alone
        assert captured.err == "", argv
        assert bool(captured.out) != ("--out" in argv), argv
    for written, sample in (("ext.sheaf", "x-minus-1.sheaf"),
                            ("w.cplx", "x-minus-1-w.cplx")):
        assert ((tmp_path / written).read_bytes()
                == (tmp_path / "samples" / sample).read_bytes())


def test_novikov_renders_its_certificates_only_for_a_report(monkeypatch,
                                                          capsys):
    calls = []
    factors = complexes.invariant_factors
    monkeypatch.setattr(complexes, "invariant_factors",
                        lambda d: calls.append(d) or factors(d))
    sample = os.path.join(SAMPLES, "q-denominators.cplx")
    assert main(["novikov", sample, "--format", "human"]) == 0
    assert capsys.readouterr().out == "x-side: yes\nx^-1-side: yes\n"
    assert calls == []
    assert main(["novikov", sample, "--format", "report"]) == 0
    assert len(calls) == 2


def test_human_extend_builds_no_sheaf_dict(monkeypatch, capsys):
    calls = []
    real = ff.sheaf_to_dict
    monkeypatch.setattr(ff, "sheaf_to_dict",
                        lambda s: calls.append(s) or real(s))
    sample = os.path.join(SAMPLES, "q-denominators.cplx")
    assert main(["extend", sample]) == 0
    assert capsys.readouterr().out.startswith("twist profile: ")
    assert calls == []
    assert main(["extend", sample, "--format", "report"]) == 0
    assert len(calls) == 1


def test_human_verify_builds_no_report_dict(monkeypatch, capsys):
    calls = []
    real = domination.TheoremReport.to_dict
    monkeypatch.setattr(domination.TheoremReport, "to_dict",
                        lambda r: calls.append(r) or real(r))
    sample = os.path.join(SAMPLES, "q-denominators.cplx")
    assert main(["verify", sample]) == 0
    assert capsys.readouterr().out.startswith("PASS\n")
    assert calls == []
    assert main(["verify", sample, "--format", "report"]) == 0
    assert len(calls) == 1


def test_extend_prints_the_twist_profile_it_writes(tmp_path, capsys):
    # degree 1 has rank 0; its empty level has the split of degree 2, as
    # the twist is carried through the zero differentials
    x3 = M(QQ, [[[(0, -1), (3, 1)]]])
    c = ChainComplex(QQ, BaseRing.LAURENT, 0, 3, {0: 1, 1: 0, 2: 1, 3: 1},
                     {3: x3})
    path = tmp_path / "gap.cplx"
    sheaf = tmp_path / "gap.sheaf"
    ff.save_path(path, ff.complex_to_dict(c))
    assert main(["extend", str(path)]) == 0
    assert capsys.readouterr().out == (
        "twist profile: 0:(k=3,l=0), 1:(k=3,l=0), 2:(k=3,l=0), "
        "3:(k=0,l=0)\n")
    assert main(["extend", str(path), "--out", str(sheaf)]) == 0
    written = json.loads(sheaf.read_text())["twist_profile"]
    assert [(t["degree"], t["k"], t["l"]) for t in written] == [
        (0, 3, 0), (1, 3, 0), (2, 3, 0), (3, 0, 0)]


def _complex_file(tmp_path, base, cell):
    """A file of one differential C_1 -> C_0 over ``base`` whose one
    entry is the raw JSON ``cell``."""
    path = tmp_path / "cell.cplx"
    path.write_text(json.dumps({
        "format": "p1dom-complex", "version": 1, "ring": "Q",
        "variable": "x", "base": base,
        "degrees": [{"degree": 0, "rank": 1}, {"degree": 1, "rank": 1}],
        "differentials": [{"degree": 1, "matrix": [[cell]]}]}))
    return str(path)


@pytest.mark.parametrize("base, cell, shown", [
    ("K[x]", [[-1, "1"], [2, "3"]], "x^-1 + 3*x^2"),
    ("K[x^-1]", [[0, "1"], [1, "1"]], "1 + x"),
    ("K", [[1, "2"]], "2*x"),
])
def test_loader_names_the_entry_outside_the_base(base, cell, shown,
                                                 tmp_path, capsys):
    assert main(["validate", _complex_file(tmp_path, base, cell)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"input error: entry (0,0) = {shown} violates "
                            f"{base} (at differentials[0].matrix)\n")


@pytest.mark.parametrize("tag", ["GF(1_0007)", "GF(+7)", "GF( 7)",
                                 "GF(\uff17)", " Q"])
def test_malformed_ring_tag_in_a_header_is_input_error(tag, tmp_path,
                                                       capsys):
    path = tmp_path / "tag.cplx"
    path.write_text(json.dumps({
        "format": "p1dom-complex", "version": 1, "ring": tag,
        "degrees": [{"degree": 0, "rank": 1}]}))
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"input error: bad ring tag: unknown ring tag "
                            f"{tag!r} (at ring)\n")


@pytest.mark.parametrize("n", [1, 1681, 3215031751])
def test_a_composite_ring_modulus_is_input_error(n, tmp_path, capsys):
    # 1 is below 2; 1681 = 41^2 and 3215031751 = 151 * 751 * 28351, a
    # strong pseudoprime to the bases 2, 3, 5 and 7, have no factor up to
    # 37, and trial division finds 41 and 151
    with pytest.raises(UnsupportedRingError,
                       match=f"^GF modulus {n} is not prime$"):
        ring_from_tag(f"GF({n})")
    path = tmp_path / "composite.cplx"
    path.write_text(json.dumps({
        "format": "p1dom-complex", "version": 1, "ring": f"GF({n})",
        "degrees": [{"degree": 0, "rank": 1}]}))
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"input error: bad ring tag: GF modulus {n} is "
                            "not prime (at ring)\n")


# psi_12 = 399165290221 * 798330580441, the least strong pseudoprime to
# the twelve prime bases 2..37 (Sorenson and Webster 2017)
PSI_12 = 318665857834031151167461


@pytest.mark.parametrize("command", ["validate", "homology", "novikov",
                                     "verify"])
def test_a_modulus_above_the_bound_is_input_error(command, tmp_path, capsys):
    # d_1 = [399165290221] is zero over one factor of psi_12 and a unit
    # over the other: no answer over Z/psi_12 is an answer over a field,
    # so every command refuses the header and names the bound, not the
    # modulus
    path = tmp_path / "psi12.cplx"
    path.write_text(json.dumps({
        "format": "p1dom-complex", "version": 1, "ring": f"GF({PSI_12})",
        "degrees": [{"degree": 0, "rank": 1}, {"degree": 1, "rank": 1}],
        "differentials": [{"degree": 1,
                           "matrix": [[[[0, "399165290221"]]]]}]}))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("input error: bad ring tag: GF modulus exceeds "
                            "MAX_MODULUS = 4294967295 (at ring)\n")


@pytest.mark.parametrize("digits", [
    str(2**32), str(2**11213 - 1), "1" + "0" * 4999 + "1"],
    ids=["2^32", "2^11213-1", "5001-digits"])
def test_a_long_modulus_is_refused_before_primality_work(digits, tmp_path,
                                                         capsys):
    # 2^11213 - 1 is a Mersenne prime of 3376 digits; 5001 digits pass
    # Python's int digit limit
    path = tmp_path / "long.cplx"
    path.write_text(json.dumps({
        "format": "p1dom-complex", "version": 1, "ring": f"GF({digits})",
        "degrees": [{"degree": 0, "rank": 1}]}))
    start = time.process_time()
    assert main(["validate", str(path)]) == 2
    assert time.process_time() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("input error: bad ring tag: GF modulus exceeds "
                            "MAX_MODULUS = 4294967295 (at ring)\n")


def test_sheaf_loader_names_the_chart_entry_outside_its_ring(tmp_path,
                                                             capsys):
    # l = 1 in degree 1 is too small a twist for x - 1: its K[x] chart
    # entry is x^-1 (x - 1), which the constructor's scan refuses
    with open(os.path.join(SAMPLES, "x-minus-1.sheaf")) as f:
        data = json.load(f)
    data["twist_profile"][1]["l"] = 1
    path = tmp_path / "small-twist.sheaf"
    path.write_text(json.dumps(data))
    assert main(["h0", str(path)]) == 2
    captured = capsys.readouterr()
    mid = load_complex(os.path.join(SAMPLES, "x-minus-1.cplx"))
    with pytest.raises(BaseRingViolationError) as exc:
        SheafComplex(mid, {0: ((1, 0),), 1: ((0, 1),)})
    assert str(exc.value).startswith("degree 1: plus chart entry (0,0) = ")
    assert str(exc.value).endswith(" violates K[x]")
    assert captured.out == ""
    assert captured.err == f"input error: {exc.value} (at $)\n"


def test_version_1_sheaf_file_is_refused(tmp_path, capsys):
    # version 1 stored the two chart complexes beside the middle one
    with open(os.path.join(SAMPLES, "x-minus-1.sheaf")) as f:
        data = json.load(f)
    sheaf = ff.sheaf_from_dict(data)
    data["version"] = 1
    for side in ("minus", "plus"):
        data[side] = [{"degree": 1, "matrix": ff.matrix_to_rows(
            chart(sheaf, side).diff(1))}]
    path = tmp_path / "v1.sheaf"
    path.write_text(json.dumps(data))
    assert main(["h0", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: unsupported version 1 (at version)\n"


def test_hyper_command(tmp_path, capsys):
    path = tmp_path / "plus.cplx"
    ff.save_path(path, ff.complex_to_dict(
        two_term(QQ, [(1, 1)], base=BaseRing.POLY)))
    assert main(["hyper", str(path)]) == 0
    assert capsys.readouterr().out == ("H_0: free rank 0, torsion dim 1\n"
                                       "H_1: free rank 0, torsion dim 0\n")


def test_hyper_refuses_an_invalid_complex(tmp_path, capsys):
    # the model is read off the valuations of a complex; with d.d != 0
    # it would be no homology at all
    one = M(QQ, [[1]], base=BaseRing.POLY)
    x = M(QQ, [[[(1, 1)]]], base=BaseRing.POLY)
    c = ChainComplex(QQ, BaseRing.POLY, 0, 2, {0: 1, 1: 1, 2: 1},
                     {1: one, 2: x})
    path = tmp_path / "bad.cplx"
    ff.save_path(path, ff.complex_to_dict(c))
    assert main(["hyper", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid complex: degree 2: d.d != 0\n"


@pytest.mark.parametrize("command", ["verify", "dominate"])
def test_witness_commands_refuse_an_invalid_complex(command, capsys):
    # ranks {0: 1, 1: 3, 2: 1} leave room for d_1 d_2 = 1: without the
    # d.d check first this was a false Novikov FAIL
    path = os.path.join(os.path.dirname(__file__), os.pardir, "samples",
                        "not-a-complex.cplx")
    assert main([command, path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid complex: degree 2: d.d != 0\n"


def test_report_format_deterministic(xm1_file, tmp_path):
    out1 = str(tmp_path / "r1.json")
    out2 = str(tmp_path / "r2.json")
    assert main(["verify", xm1_file, "--format", "report",
                 "--out", out1]) == 0
    assert main(["verify", xm1_file, "--format", "report",
                 "--out", out2]) == 0
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        b1, b2 = f1.read(), f2.read()
    assert b1 == b2
    data = json.loads(b1)
    assert data["verdict"] == "PASS"
    assert data["input_digest"]


def test_dominate_human_output(xm1_file, capsys):
    assert main(["dominate", xm1_file]) == 0
    out = capsys.readouterr().out
    assert "W ranks {0:2, 1:1}" in out
    assert "ledger holds: True" in out


def test_trunc_max_is_an_unknown_flag(capsys):
    # --trunc-max bounded no computation and is gone: the flag is refused
    assert main(["verify", os.path.join(SAMPLES, "x-minus-1.cplx"),
                 "--trunc-max", "64"]) == 2
    assert "unrecognized arguments: --trunc-max" in capsys.readouterr().err


def test_verify_reads_a_chart_valuation_past_any_order(capsys):
    # x^70 (x - 1): the plus chart valuation is 70, and verify reads no
    # order (test_flag_of_another_command_is_unknown refuses its --trunc)
    code = main(["verify", os.path.join(SAMPLES, "deep-x-minus-1.cplx")])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("PASS")
    assert "(largest chart valuation: plus 70, minus 0)" in captured.out


# each command with its arguments, a valid command line
COMMAND_LINES = [
    ["validate", "x-minus-1.cplx"],
    ["homology", "x-minus-1.cplx"],
    ["novikov", "x-minus-1.cplx"],
    ["extend", "x-minus-1.cplx"],
    ["h0", "x-minus-1.sheaf"],
    ["hyper", "chart-x2-x3.cplx"],
    ["dominate", "x-minus-1.cplx"],
    ["verify", "x-minus-1.cplx"],
    ["twist-cohomology", "2"],
]


@pytest.mark.parametrize("argv", [
    ["novikov", "z-contraction.cplx", "--trunc", "1"],
    ["extend", "x-minus-1.cplx", "--trunc", "8"],
    ["hyper", "chart-x2-x3.cplx", "--trunc", "8"],
    ["verify", "deep-x-minus-1.cplx", "--trunc", "1"],
    ["h0", "x-minus-1.sheaf", "--format", "human"],
] + [argv + ["--seed", "3"] for argv in COMMAND_LINES]
  + [argv + ["--ring", "Q"] for argv in COMMAND_LINES]
  + [pytest.param(["novikov", "x-minus-1.cplx", "--ring", tag],
                  id=f"novikov--ring {tag!r}")
     for tag in ("GF:4", "GF:x", "GF:0_7", "GF:+7", " Q")],
    ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_flag_of_another_command_is_unknown(argv, capsys):
    # no command takes --trunc, --seed or --ring: the file header states
    # the ring, so a ring tag, valid or not, is never read; h0 writes its
    # complex file in every format
    argv = [_sample(a) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in captured.err


@pytest.mark.parametrize(
    "argv", COMMAND_LINES + [["twist-cohomology", "2", "--format", "report"]],
    ids=[argv[0] for argv in COMMAND_LINES] + ["twist-cohomology-report"])
def test_p1dom_variables_are_not_read(argv, tmp_path, monkeypatch, capsys):
    # options come from the command line alone: the variables that once
    # preset --format, --out, --ring, --trunc and --seed change no byte
    # and no exit code and write no file, whether their values would
    # change the output or be refused
    argv = [_sample(a) for a in argv]
    assert main(argv) == 0
    expected = capsys.readouterr()
    target = tmp_path / "env-out.json"
    for values in (("report", "Z", "2", "3"), ("xml", "GF:4", "abc", "abc")):
        for var, value in zip(("P1DOM_FORMAT", "P1DOM_RING", "P1DOM_TRUNC",
                               "P1DOM_SEED"), values):
            monkeypatch.setenv(var, value)
        monkeypatch.setenv("P1DOM_OUT", str(target))
        assert main(argv) == 0
        assert capsys.readouterr() == expected
        assert not target.exists()


@pytest.mark.parametrize("var, command", [
    ("P1DOM_TRUNC", ["verify", "x-minus-1.cplx"]),
    ("P1DOM_SEED", ["validate", "x-minus-1.cplx"]),
    ("P1DOM_TRUNC", ["twist-cohomology", "2"]),
    ("P1DOM_RING", ["twist-cohomology", "2", "--format", "report"]),
    ("P1DOM_FORMAT", ["h0", "x-minus-1.sheaf"]),
    ("P1DOM_RING", ["twist-cohomology", "2"]),
    ("P1DOM_TRUNC", ["hyper", "chart-x2-x3.cplx"]),
    # validate's P1DOM_SEED row is the second above
] + [("P1DOM_SEED", argv) for argv in COMMAND_LINES[1:]])
def test_preset_of_another_command_is_not_read(var, command, monkeypatch,
                                                capsys):
    # one variable at a time, alone in the environment: an invalid value
    # changes no byte and no exit code
    argv = [_sample(a) for a in command]
    assert main(argv) == 0
    expected = capsys.readouterr()
    monkeypatch.setenv(var, "abc")
    assert main(argv) == 0
    assert capsys.readouterr() == expected


def _sample(arg):
    """``arg``, or the path of the sample file it names."""
    if arg.endswith((".cplx", ".sheaf")):
        return os.path.join(SAMPLES, arg)
    return arg


def _two_pass(argv, capsys):
    """(exit code, stdout, stderr) of the top-level parser reading argv
    and handing the rest to the command's parser."""
    try:
        PARSER.parse_args(argv)
        code = 0
    except SystemExit as exc:
        code = 0 if exc.code in (0, None) else 2
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# names that are no command of p1dom
UNKNOWN_COMMANDS = ("bogus", "selftest")


@pytest.mark.parametrize("argv", [
    [],
    ["bogus", "x-minus-1.cplx"],
    # selftest is no command: with or without a flag, a usage error
    ["selftest"],
    ["selftest", "--seed", "1"],
    ["selftest", "--help"],
    ["--ring", "Q", "verify", "x-minus-1.cplx"],
    ["verify", "x-minus-1.cplx", "--trunc", "1"],
    ["--help"],
] + [[command, "--help"] for command in COMMANDS],
    ids=lambda argv: " ".join(argv) or "no-arguments")
def test_usage_and_help_match_the_two_pass_parse(argv, capsys):
    argv = [_sample(a) for a in argv]
    expected = _two_pass(argv, capsys)
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == expected
    if argv[-1:] == ["--help"] and argv[0] not in UNKNOWN_COMMANDS:
        parser = PARSERS[argv[0]] if len(argv) == 2 else PARSER
        assert code == 0 and captured.out == parser.format_help()
        return
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(PARSER.format_usage())
    if argv and argv[0] in UNKNOWN_COMMANDS:
        assert f"invalid choice: '{argv[0]}'" in captured.err


# values of the flags that P1DOM_ variables once set; none of it is read
ENV_VALUES = {"format": "report", "out": "out.json"}
DEFAULTS = {"format": "human", "out": None}


VALID_ARGVS = [
    (["validate", "x-minus-1.cplx"], {}),
    (["homology", "x-minus-1.cplx", "--out", "h.txt"], {"out": "h.txt"}),
    (["novikov", "x-minus-1.cplx", "--format", "report"],
     {"format": "report"}),
    (["extend", "x-minus-1.cplx"], {}),
    (["h0", "x-minus-1.sheaf"], {}),
    (["hyper", "chart-x2-x3.cplx", "--format", "human"], {"format": "human"}),
    (["dominate", "x-minus-1.cplx"], {}),
    (["verify", "x-minus-1.cplx", "--out", "v.json"], {"out": "v.json"}),
    (["twist-cohomology", "2", "--k", "1"], {"n": 2, "r": 1, "k": 1}),
]


@pytest.mark.parametrize("argv, given", VALID_ARGVS,
                         ids=[argv[0] for argv, _ in VALID_ARGVS])
def test_command_namespace_carries_command_and_own_flags(argv, given,
                                                         monkeypatch):
    # each command's own flags, given or at their defaults whatever the
    # P1DOM_ variables say, and nothing of another command's
    flags = ("out",) if argv[0] == "h0" else ("format", "out")
    for flag, value in ENV_VALUES.items():
        monkeypatch.setenv(f"P1DOM_{flag.upper()}", str(value))
    seen = []
    monkeypatch.setitem(COMMANDS, argv[0], COMMANDS[argv[0]]._replace(
        handler=lambda args: seen.append(args) or 0))
    argv = [_sample(a) for a in argv]
    assert main(argv) == 0
    expected = {"command": argv[0],
                **{flag: DEFAULTS[flag] for flag in flags}, **given}
    if argv[0] != "twist-cohomology":
        expected["input"] = argv[1]
    assert vars(seen[0]) == expected
    assert vars(PARSER.parse_args(argv)) == expected


@pytest.mark.parametrize("flags", [
    ["--trunc-max", "0"],
    ["--format", "xml"],
])
def test_bad_flag_is_input_error(xm1_file, flags, capsys):
    # a bad value of a flag novikov takes is checked, and --trunc-max is
    # no flag of it (test_flag_of_another_command_is_unknown refuses
    # --trunc and every --ring)
    assert main(["novikov", xm1_file] + flags) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [argv for argv in COMMAND_LINES
                                  if argv[0] != "h0"],
                         ids=lambda argv: argv[0])
def test_bad_format_is_an_invalid_choice(argv, capsys):
    # every command that takes --format reads human or report and no
    # other value
    argv = [_sample(a) for a in argv]
    assert main(argv + ["--format", "xml"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --format: invalid choice: 'xml'" in captured.err


def test_out_shrinks_a_longer_file_to_the_new_bytes(xm1_file, tmp_path,
                                                    capsys):
    target = tmp_path / "report.json"
    target.write_bytes(b"x" * 100000)
    assert main(["verify", xm1_file, "--format", "report",
                 "--out", str(target)]) == 0
    assert main(["verify", xm1_file, "--format", "report"]) == 0
    assert target.read_bytes() == capsys.readouterr().out.encode("utf-8")


@pytest.mark.parametrize("command", ["verify", "extend", "homology"])
def test_out_bytes_match_stdout(xm1_file, tmp_path, command, capsys):
    target = tmp_path / "out"
    for fmt in ("human", "report"):
        assert main([command, xm1_file, "--format", fmt,
                     "--out", str(target)]) == 0
        assert main([command, xm1_file, "--format", fmt]) == 0
        stdout = capsys.readouterr().out
        if command == "extend" and fmt == "human":
            continue    # extend prints a summary, the file gets the sheaf
        assert target.read_bytes() == stdout.encode("utf-8")


def test_h0_out_bytes_match_stdout(xm1_file, tmp_path, capsys):
    sheaf = str(tmp_path / "ext.sheaf")
    target = tmp_path / "w.cplx"
    assert main(["extend", xm1_file, "--out", sheaf]) == 0
    assert main(["h0", sheaf, "--out", str(target)]) == 0
    assert main(["h0", sheaf]) == 0
    assert target.read_bytes() == capsys.readouterr().out.encode("utf-8")


def test_out_dev_null(xm1_file, capsys):
    assert main(["verify", xm1_file, "--format", "report",
                 "--out", os.devnull]) == 0
    assert capsys.readouterr().out == ""


def test_directory_input_is_input_error(tmp_path, capsys):
    assert main(["verify", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and str(tmp_path) in err


def test_directory_out_is_input_error(xm1_file, tmp_path, capsys):
    assert main(["verify", xm1_file, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and str(tmp_path) in err


def test_non_utf8_input_is_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.cplx"
    path.write_bytes(b'{"format": "p1dom-complex", "ring": "\xe9"}')
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and str(path) in err


@pytest.mark.parametrize("command, sample", [
    ("validate", "x-minus-1.cplx"), ("homology", "x-minus-1.cplx"),
    ("novikov", "x-minus-1.cplx"), ("hyper", "chart-x2-x3.cplx"),
    ("dominate", "x-minus-1.cplx"), ("verify", "x-minus-1.cplx")])
def test_input_is_read_once_and_digested(command, sample, monkeypatch,
                                         capsys):
    path = os.path.join(SAMPLES, sample)
    with open(path, "rb") as fh:
        expected = hashlib.sha256(fh.read()).hexdigest()
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    assert main([command, path, "--format", "report"]) == 0
    assert opened == [path]
    assert json.loads(capsys.readouterr().out)["input_digest"] == expected


def test_sheaf_input_is_read_once(xm1_file, tmp_path, monkeypatch):
    sheaf = str(tmp_path / "ext.sheaf")
    assert main(["extend", xm1_file, "--out", sheaf]) == 0
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    assert main(["h0", sheaf, "--out", str(tmp_path / "w.cplx")]) == 0
    assert opened.count(sheaf) == 1
