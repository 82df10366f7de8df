import builtins
import hashlib
import json
import os

import pytest

from p1dom import fileformat as ff
from p1dom.cli import main
from p1dom.complexes import ChainComplex
from p1dom.laurent import BaseRing
from p1dom.scalars import QQ, ZZ

from helpers import two_term


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
    c = ChainComplex.single(QQ, BaseRing.LAURENT, 0, 1)
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
        c = ChainComplex.single(QQ, BaseRing.POLY, 0, 1)
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


@pytest.mark.parametrize("base", [BaseRing.K, BaseRing.LAURENT],
                         ids=lambda b: b.tag)
def test_z_coefficients_are_an_input_error(base, tmp_path, capsys):
    # homology, dominate and verify need field coefficients: a Z file is
    # an input error (exit 2) naming the ring, never a mathematical FAIL;
    # the commands that run over Z still succeed
    path = tmp_path / "z.cplx"
    if base == BaseRing.K:
        data = ff.complex_to_dict(ChainComplex.single(ZZ, BaseRing.POLY, 0, 1))
        data["base"] = "K"
        commands = ("homology", "validate")
    else:
        data = ff.complex_to_dict(two_term(ZZ, [(1, 1), (0, -1)]))
        commands = ("homology", "novikov", "extend", "dominate", "verify",
                    "validate")
    ff.save_path(path, data)
    for command in commands:
        code = main([command, str(path)])
        err = capsys.readouterr().err
        if command in ("homology", "dominate", "verify"):
            assert code == 2, (command, err)
            assert err == (f"input error: {command} needs field coefficients "
                           "(Q or GF:p), the file has ring Z (at ring)\n")
        else:
            assert code == 0, (command, err)


def test_verify_fail_exit_one(free_rank_file, capsys):
    assert main(["verify", free_rank_file]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "free rank 1 in degree 0" in out


def test_novikov_integer_asymmetry(two_minus_x_file, capsys):
    assert main(["novikov", "--ring", "Z", two_minus_x_file]) == 0
    out = capsys.readouterr().out
    assert "x-side: no" in out
    assert "x^-1-side: yes" in out


def test_ring_flag_mismatch_is_input_error(two_minus_x_file):
    assert main(["novikov", "--ring", "Q", two_minus_x_file]) == 2


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


def test_extend_h0_pipeline(xm1_file, tmp_path, capsys):
    sheaf_path = str(tmp_path / "ext.sheaf")
    w_path = str(tmp_path / "w.cplx")
    assert main(["extend", xm1_file, "--out", sheaf_path]) == 0
    assert main(["h0", sheaf_path, "--out", w_path]) == 0
    w = ff.load_complex(w_path)
    assert {m: w.rank(m) for m in w.degrees()} == {0: 2, 1: 1}
    # emitted files re-ingest to equal values
    again = str(tmp_path / "w2.cplx")
    assert main(["h0", sheaf_path, "--out", again]) == 0
    assert open(w_path).read() == open(again).read()


def test_hyper_command(tmp_path, capsys):
    path = tmp_path / "plus.cplx"
    ff.save_path(path, ff.complex_to_dict(
        two_term(QQ, [(1, 1)], base=BaseRing.POLY)))
    assert main(["hyper", str(path), "--trunc", "8"]) == 0
    assert "window-matched True" in capsys.readouterr().out


def test_report_format_deterministic(xm1_file, tmp_path):
    out1 = str(tmp_path / "r1.json")
    out2 = str(tmp_path / "r2.json")
    assert main(["verify", xm1_file, "--format", "report",
                 "--out", out1]) == 0
    assert main(["verify", xm1_file, "--format", "report",
                 "--out", out2]) == 0
    b1, b2 = open(out1, "rb").read(), open(out2, "rb").read()
    assert b1 == b2
    data = json.loads(b1)
    assert data["verdict"] == "PASS"
    assert data["input_digest"]


def test_dominate_human_output(xm1_file, capsys):
    assert main(["dominate", xm1_file]) == 0
    out = capsys.readouterr().out
    assert "W ranks {0:2, 1:1}" in out
    assert "ledger holds: True" in out


def test_env_var_overrides(xm1_file, tmp_path, monkeypatch, capsys):
    target = str(tmp_path / "env-report.json")
    monkeypatch.setenv("P1DOM_FORMAT", "report")
    monkeypatch.setenv("P1DOM_OUT", target)
    assert main(["homology", xm1_file]) == 0
    assert os.path.exists(target)
    data = json.loads(open(target).read())
    assert data["command"] == "homology"


def test_trunc_exceeding_max_is_input_error(xm1_file):
    assert main(["verify", xm1_file, "--trunc", "128",
                 "--trunc-max", "64"]) == 2


@pytest.mark.parametrize("flags, env", [
    ([], {}),
    (["--trunc", "1", "--trunc-max", "1"], {}),
    ([], {"P1DOM_TRUNC": "2", "P1DOM_TRUNC_MAX": "2"}),
])
def test_trunc_max_does_not_bound_the_order(flags, env, monkeypatch,
                                            capsys):
    # x^70 (x - 1): the plus chart needs order 128, past every --trunc-max
    # given here, and verify still passes
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    sample = os.path.join(os.path.dirname(__file__), os.pardir, "samples",
                          "deep-x-minus-1.cplx")
    assert main(["verify", sample] + flags) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS") and "orders (plus 128, minus " in out


def test_selftest_runs(capsys):
    assert main(["selftest", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "twist-cohomology-table" in out
    assert "FAIL" not in out.replace("PASS", "")


@pytest.mark.parametrize("flags", [
    ["--trunc", "0"],
    ["--trunc", "-3"],
    ["--trunc-max", "0"],
    ["--trunc", "abc"],
    ["--format", "xml"],
    ["--ring", "GF:4"],
    ["--ring", "GF:x"],
])
def test_bad_flag_is_input_error(xm1_file, flags, capsys):
    assert main(["verify", xm1_file] + flags) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("var, value", [
    ("P1DOM_TRUNC", "abc"),
    ("P1DOM_TRUNC", "0"),
    ("P1DOM_TRUNC", "-3"),
    ("P1DOM_TRUNC_MAX", "0"),
    ("P1DOM_SEED", "1.5"),
    ("P1DOM_FORMAT", "xml"),
    ("P1DOM_RING", "R"),
])
def test_bad_preset_is_input_error(xm1_file, var, value, monkeypatch,
                                   capsys):
    monkeypatch.setenv(var, value)
    assert main(["verify", xm1_file]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and var in err


def test_flag_overrides_bad_preset(xm1_file, monkeypatch, capsys):
    monkeypatch.setenv("P1DOM_TRUNC", "abc")
    assert main(["verify", xm1_file, "--trunc", "8"]) == 0
    assert "orders (plus 8, minus 8)" in capsys.readouterr().out


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


SAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "samples")


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
