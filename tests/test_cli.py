"""CLI contract: thin wrappers, deterministic bytes, exit codes."""

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from siegellift import (
    AntiCycChar,
    ImagQuadField,
    char_value,
    cli,
    dirichlet_coeffs,
    induced_factor,
    predictor,
    prime_above,
    spin_object,
)
from siegellift.cli import main
from siegellift.errors import InexactDivisionError
from siegellift.localfactor import LocalFactor, tate_twist
from siegellift.modform import CurveData
from siegellift.predictor import Identity

CURVE = "0,-1,1,0,0"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ap_text(capsys):
    code, out, _ = run(capsys, "ap", "--curve", CURVE, "--pmax", "20")
    assert code == 0
    assert "a_2 = -2" in out and "a_11 = 1" in out and "split multiplicative" in out


def test_ap_rejects_nonprime(capsys):
    code, _, err = run(capsys, "ap", "--curve", CURVE, "--p", "9")
    assert code == 2 and "--p must be prime" in err


def test_malformed_curve(capsys):
    code, _, err = run(capsys, "ap", "--curve", "0,-1,1,0", "--pmax", "10")
    assert code == 2 and "--curve" in err


def test_factor_json_mirrors_library(capsys):
    code, out, _ = run(capsys, "factor", "--curve", CURVE, "--p", "7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["7"]["coeffs"] == ["1", "2", "7"]
    assert payload["7"]["weight"] == 1


def test_sym3_at_two(capsys):
    code, out, _ = run(capsys, "sym3", "--curve", CURVE, "--p", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["2"]["coeffs"] == ["1", "0", "0", "0", "64"]


def test_induce_unsupported_discriminant(capsys):
    code, _, err = run(capsys, "induce", "--D", "-5", "--m", "1", "--p", "3")
    assert code == 2 and "class-number-one" in err


def test_induce_values(capsys):
    code, out, _ = run(capsys, "induce", "--D", "-4", "--m", "2", "--p", "5", "--format", "json")
    assert code == 0
    assert json.loads(out)["5"]["coeffs"] == ["1", "14", "625"]


def test_verify_ok_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "sym3-ext2", "--curve", CURVE, "--pmax", "50")
    assert code == 0
    assert "0 FAIL" in out and " OK" in out


def test_verify_deterministic_bytes(capsys):
    args = ("verify", "--identity", "sym2-ind", "--D", "-4", "--m", "2", "--pmax", "80")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    _, threaded, _ = run(capsys, *args, "--jobs", "4")
    assert first == second == threaded


def test_verify_corrupted_eigenfile(capsys, tmp_path):
    # a_2 of 11a3 is -2; write 2 instead (within the Ramanujan bound, so only
    # the cross-check against point counts can notice)
    lines = ["weight 2 level 11 character trivial", "2 2", "3 -1", "5 1", "7 -2", "11 1"]
    path = tmp_path / "corrupt.txt"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(
        capsys, "verify", "--identity", "ap-match", "--curve", CURVE, "--eigenfile", str(path)
    )
    assert code == 1
    assert "FAIL" in out
    assert out.index("FAIL") < out.index("\n", out.index("2 ")) or "table a_2" in out


def _off_by_one_at_5(f, j):
    """tate_twist with 1 added to c_1 at p = 5."""
    g = tate_twist(f, j)
    if g.prime != 5:
        return g
    return LocalFactor(5, g.weight, (1, g.coeffs[1] + 1, *g.coeffs[2:]))


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_tensor_square_builds_no_spin_factor(capsys, monkeypatch, jobs):
    # the identity reads the degree-2 factor alone; the golden fixes its bytes
    from siegellift import lseries

    calls, spin = [], lseries._spin
    monkeypatch.setattr(lseries, "_spin", lambda p, *rest: calls.append(p) or spin(p, *rest))
    golden = (Path(__file__).parent / "data" / "golden" / "verify_11a3_tensor-square.txt").read_text()
    argv = ["verify", "--curve", CURVE, "--jobs", jobs, "--identity"]
    assert run(capsys, *argv, "tensor-square", "--pmax", "50") == (0, golden, "")
    assert calls == []
    assert run(capsys, *argv, "sym3-ext2", "--pmax", "5")[0] == 0
    assert sorted(calls) == [2, 3, 5]  # the rows that read the spin factor are counted


def test_verify_renders_a_failed_identity(capsys, monkeypatch):
    monkeypatch.setattr(predictor, "tate_twist", _off_by_one_at_5)
    argv = ["verify", "--identity", "sym3-ext2", "--curve", CURVE, "--pmax", "7"]
    code, out, err = run(capsys, *argv)
    lhs = "1 - 180*T - 5500*T^2 + 3093750*T^3 - 85937500*T^4 - 43945312500*T^5 + 3814697265625*T^6"
    rhs = "1 - 179*T - 5625*T^2 + 3093750*T^3 - 85937500*T^4 - 43945312500*T^5 + 3814697265625*T^6"
    assert (code, err) == (1, "")
    assert out.splitlines()[3:] == [
        f"sym3-ext2  5  FAIL    lhs = {lhs} ; rhs = {rhs}",
        "sym3-ext2  7  OK",
        "total: 3 OK, 1 FAIL, 0 SKIPPED",
    ]
    assert run(capsys, *argv, "--format", "csv") == (1, (
        "p,identity,status,reason\n2,sym3-ext2,OK,\n3,sym3-ext2,OK,\n"
        "5,sym3-ext2,FAIL,exact mismatch\n7,sym3-ext2,OK,\n"), "")
    code, out, err = run(capsys, *argv, "--format", "json")
    report = json.loads(out)
    assert (code, err, report["ok"], report["counts"]) == (1, "", False, {"OK": 3, "FAIL": 1, "SKIPPED": 0})
    row = report["entries"][2]
    assert (row["p"], row["status"], row["reason"]) == (5, "FAIL", "exact mismatch")
    assert row["lhs"]["coeffs"][:3] == ["1", "-180", "-5500"]
    assert row["rhs"]["coeffs"][:3] == ["1", "-179", "-5625"]


def _raise(exc):
    def raising(*args):
        raise exc

    return raising


@pytest.mark.parametrize(
    "name, exc, message",
    [
        ("exact_divide", InexactDivisionError("nonzero remainder dividing degree-6 factor at p=2"),
         "exterior square at p=2 is not divisible by the polarization factor"),
        ("degree5_factor", InexactDivisionError("nonzero remainder dividing degree-6 factor at p=2"),
         "nonzero remainder dividing degree-6 factor at p=2"),
    ],
    ids=["not-symplectic", "inexact-division"],
)
def test_verification_errors_exit_one(capsys, monkeypatch, name, exc, message):
    # every VerificationError means a failed prediction, not bad input
    monkeypatch.setattr(predictor, name, _raise(exc))
    assert run(capsys, "predict", "--curve", CURVE, "--pmax", "7") == (1, "", f"error: {message}\n")


def test_verify_csv_quotes_a_reason_with_a_comma(capsys, tmp_path):
    path = tmp_path / "corrupt.txt"
    path.write_text("weight 2 level 11 character trivial\n2 2\n3 -1\n")
    code, out, _ = run(
        capsys, "verify", "--identity", "ap-match", "--curve", CURVE, "--eigenfile", str(path),
        "--pmax", "3", "--format", "csv",
    )
    assert code == 1
    assert list(csv.reader(io.StringIO(out))) == [
        ["p", "identity", "status", "reason"],
        ["2", "ap-match", "FAIL", "table a_2 = 2, curve gives -2"],
        ["3", "ap-match", "OK", ""],
    ]


@pytest.mark.parametrize("data, line", [
    (b"weight 2 level 11 character trivial\n2 -2\n3 \xff1\n", 3),
    ("weight 2 level 11 character trivial\n2 -2\n".encode("utf-16"), 1),
], ids=["ff-byte", "utf-16"])
@pytest.mark.parametrize("command", [
    ["factor", "--p", "2"], ["verify", "--identity", "ap-match", "--curve", CURVE],
], ids=["factor", "ap-match"])
def test_undecodable_eigenfile_is_an_input_error(capsys, tmp_path, data, line, command):
    path = tmp_path / "table.txt"
    path.write_bytes(data)
    code, out, err = run(capsys, *command, "--eigenfile", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: line {line}: ") and err.count("\n") == 1


def test_verify_intact_eigenfile(capsys, tmp_path, curve_11a3):
    from siegellift.modform import reduction_at

    lines = ["weight 2 level 11 character trivial"] + [
        f"{p} {reduction_at(curve_11a3, p).ap}" for p in (2, 3, 5, 7, 11, 13)
    ]
    path = tmp_path / "ok.txt"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(
        capsys, "verify", "--identity", "ap-match", "--curve", CURVE, "--eigenfile", str(path)
    )
    assert code == 0 and "0 FAIL" in out


def test_ap_match_refuses_a_conductor_other_than_the_level(capsys, tmp_path):
    # 11a3's a_p agree with this table, but 11a3 is not a form of level 37
    path = tmp_path / "t37.txt"
    path.write_text("weight 2 level 37 character trivial\n2 -2\n3 -1\n5 1\n7 -2\n")
    argv = ["verify", "--identity", "ap-match", "--eigenfile", str(path)]
    code, out, err = run(capsys, *argv, "--curve", CURVE + ",11")
    assert code == 2 and out == ""
    assert err == "error: the curve's conductor 11 differs from the table's level 37\n"
    code, out, _ = run(capsys, *argv, "--curve", CURVE)  # no conductor: nothing to compare
    assert code == 0 and "total: 4 OK" in out


def test_lcoeffs_csv(capsys):
    code, out, _ = run(
        capsys, "lcoeffs", "--curve", CURVE, "--transfer", "sym3", "--X", "100", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,a_n"
    assert len(lines) == 101
    # mirror against the library
    coeffs = dirichlet_coeffs(spin_object(CurveData(0, -1, 1, 0, 0, conductor=11), None, 100), 100)
    for row in lines[1:]:
        n, an = row.split(",")
        assert str(coeffs[int(n)]) == an


def test_eval_zeta_like(capsys):
    code, out, _ = run(
        capsys, "eval", "--curve", CURVE, "--X", "2000", "-s", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == 2000
    assert float(payload["tail_bound"]) > 0


def test_eval_outside_domain(capsys):
    code, _, err = run(capsys, "eval", "--curve", CURVE, "--X", "100", "-s", "1.2")
    assert code == 2 and "convergence" in err


@pytest.mark.parametrize("s", ["nan", "inf"])
def test_eval_non_finite_s(capsys, s):
    code, out, err = run(capsys, "eval", "--curve", CURVE, "--X", "100", "-s", s)
    assert code == 2 and out == "" and "convergence" in err


@pytest.mark.parametrize("s, shown", [("1e100", "1e+100"), ("1e308", "1e+308")])
def test_eval_at_a_huge_s(capsys, s, shown):
    # every term past n = 1 and the tail estimate underflow to 0
    code, out, err = run(capsys, "eval", "--curve", CURVE, "--transfer", "sym3", "--X", "10", "-s", s)
    assert (code, err) == (0, "")
    assert out == f"sum of 10 terms at s={shown}: 1  (tail estimate 0)\n"


@pytest.mark.parametrize(
    "transfer, s, tail",
    # the closed form at X = 1 is (s - w/2 - 1)^-d: 1/2.5^4 for the degree-4
    # products of weight 3 and 5, 1/3.5^2 for the curve's own degree-2 series
    [
        (["sym3"], "5", "0.0256"),
        (["tensor", "--D", "-4", "--m", "2"], "6", "0.0256"),
        (["none"], "5", "0.0816327"),
    ],
)
def test_eval_tail_estimate_at_one_term(capsys, transfer, s, tail):
    code, out, _ = run(capsys, "eval", "--curve", CURVE, "--transfer", *transfer, "--X", "1", "-s", s)
    assert code == 0
    assert out == f"sum of 1 terms at s={s}: 1  (tail estimate {tail})\n"


#: Ind chi_2 of chi(-7, 10000): its c_2 = 2^20000 has more digits than an
#: int converts to str under the interpreter's default limit (4 300)
LONG_FACTOR = ["induce", "--D", "-7", "--m", "10000", "--p", "2"]
#: weight 411: 67 of the a_n to 211 are beyond the float range, a_n n^-300 is not
PAST_FLOAT = ["eval", "--eigenfile", str(Path(__file__).parent / "data" / "delta_weight12.txt"),
              "--D", "-4", "--m", "200", "--transfer", "tensor", "--X", "211", "-s", "300"]


def _digit_limit() -> int:
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()  # no limit before 3.10.7


def _digits(n: int) -> str:
    """str(n), past the interpreter's limit on the digits converted."""
    limit = _digit_limit()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_induce_prints_more_digits_than_str_converts(capsys, fmt):
    limit = _digit_limit()
    code, out, err = run(capsys, *LONG_FACTOR, "--format", fmt)
    assert (code, err) == (0, "")
    assert _digit_limit() == limit  # main restores it
    field = ImagQuadField(-7)
    c1 = -char_value(AntiCycChar(field, 10000), prime_above(field, 2)).trace()
    c2 = _digits(2**20000)
    assert len(c2) > 4300
    if fmt == "json":
        assert json.loads(out)["2"]["coeffs"] == ["1", _digits(c1), c2]
    else:
        sign = "-" if c1 < 0 else "+"
        assert out == f"p=2: 1 {sign} {_digits(abs(c1))}*T + {c2}*T^2  (weight 20000)\n"


JSON_CURVE = '{"a": [0, -1, 1, 0, 0], "conductor": 11}'


@pytest.mark.parametrize(
    "curve, extra, err",
    [
        (CURVE + ",11", ["--conductor", "11"], "unrecognized arguments: --conductor 11"),
        (JSON_CURVE, [], f"--curve has a non-integer entry in {JSON_CURVE!r}"),
    ],
    ids=[CURVE + ",11", JSON_CURVE],
)
def test_conflicting_conductors_rejected(capsys, curve, extra, err):
    # a conductor has one spelling, the N of --curve a1,a2,a3,a4,a6,N:
    # --conductor and a JSON curve, which each gave one too, are refused
    try:
        code = main(["ap", "--curve", curve, *extra, "--p", "11"])
    except SystemExit as exc:  # argparse refuses an unknown option
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and captured.err == f"error: {err}\n"


def test_predict_json_to_file(capsys):
    # stdout is the one output channel; a shell redirection writes the file
    code, out, _ = run(capsys, "predict", "--curve", CURVE + ",11", "--pmax", "20", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["level"] == 11
    assert payload["arch"]["siegel"] == {"scalar": 3}
    assert payload["spin_factors"]["2"]["coeffs"] == ["1", "0", "0", "0", "64"]
    assert payload["flags"] == {"cap": False, "endoscopic": False}
    assert payload["verification"]["ok"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["ap", "--curve", CURVE, "--p", "3"],
        ["factor", "--curve", CURVE, "--p", "3"],
        ["sym3", "--curve", CURVE, "--p", "3"],
        ["induce", "--D", "-4", "--m", "2", "--p", "5"],
        ["verify", "--identity", "sym3-ext2", "--pmax", "5"],
        ["predict", "--curve", CURVE, "--pmax", "5"],
        ["lcoeffs", "--curve", CURVE, "--X", "5"],
        ["eval", "--curve", CURVE, "--X", "5", "-s", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_out_option_is_gone(capsys, tmp_path, argv):
    target = tmp_path / "x.json"
    code, out, err = in_process(capsys, [*argv, "--out", str(target)])
    assert (code, out, err) == (2, "", f"error: unrecognized arguments: --out {target}\n")
    assert not target.exists()


#: a level-11 table whose a_3 is past Deligne's bound |a_3| <= 2 sqrt(3)
PAST_BOUND = "weight 2 level 11 character trivial\n2 -2\n3 100\n5 1\n7 -2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["factor", "--p", "3"],
        ["lcoeffs", "--transfer", "sym3", "--X", "10"],
        ["predict", "--pmax", "10"],
        ["verify", "--identity", "ap-match", "--curve", CURVE + ",11"],
    ],
    ids=["factor", "lcoeffs", "predict", "ap-match"],
)
def test_table_past_the_bound_is_refused(capsys, tmp_path, argv):
    # no newform breaks the bound, so no factor or OK row is printed for such a
    # table; the refusal does not hang on a warnings filter (pytest's raises them)
    path = tmp_path / "past.txt"
    path.write_text(PAST_BOUND)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out, err = run(capsys, *argv, "--eigenfile", str(path))
    assert (code, out) == (2, "")
    assert err == "error: a_3 = 100 violates |a_p| <= 2 p^((k-1)/2) for weight 2\n"


@pytest.mark.parametrize(
    "curve",
    ["0,-1,1,0,1_0", "\u0663,-1,1,0,0", "0,-1,1,0,\uff10", "0,-1,1,0,0,1_1", "0,-1,1,0,+-0"],
    ids=["underscore", "arabic-indic", "fullwidth", "underscored-conductor", "double-sign"],
)
def test_curve_integers_are_ascii_decimals(capsys, curve):
    # int() reads 1_0 as 10 and any Unicode decimal digit as its value
    code, out, err = run(capsys, "ap", "--curve", curve, "--p", "3")
    assert (code, out, err) == (2, "", f"error: --curve has a non-integer entry in {curve!r}\n")


def test_curve_integers_keep_their_signs_and_spaces(capsys):
    assert run(capsys, "ap", "--curve", "+0, -1, +1, 0, 0, +11", "--p", "3") == (
        0, "a_3 = -1  (good)\n", "")


def test_predict_reads_a_table_with_a_byte_order_mark(capsys, tmp_path, delta_path):
    path = tmp_path / "delta_bom.txt"
    path.write_bytes(b"\xef\xbb\xbf" + delta_path.read_bytes())
    argv = ["predict", "--pmax", "50", "--eigenfile"]
    assert run(capsys, *argv, str(path)) == run(capsys, *argv, str(delta_path))


def test_predict_deterministic_bytes(capsys):
    args = ("predict", "--curve", CURVE, "--pmax", "30", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args, "--jobs", "3")
    assert first == second


def test_missing_source(capsys):
    code, _, err = run(capsys, "factor", "--p", "5")
    assert code == 2 and "source" in err


def test_transfer_tensor_needs_character(capsys):
    code, _, err = run(capsys, "lcoeffs", "--curve", CURVE, "--transfer", "tensor", "--X", "10")
    assert code == 2 and "--D and --m" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["lcoeffs", "--X", "10"],
        ["lcoeffs", "--transfer", "sym3", "--X", "10"],
        ["eval", "--transfer", "none", "--X", "10", "-s", "3"],
        ["eval", "--transfer", "sym3", "--X", "10", "-s", "9"],
    ],
)
def test_character_rejected_without_the_tensor_transfer(capsys, argv):
    code, out, err = run(capsys, *argv, "--curve", CURVE, "--D", "-4", "--m", "2")
    assert code == 2 and out == "" and "only to --transfer tensor" in err
    code, out, _ = run(capsys, *argv, "--curve", CURVE, "--m", "2")  # half a character too
    assert code == 2 and out == ""


@pytest.mark.parametrize("command", ["ap", "factor", "sym3"])
def test_p_and_pmax_are_exclusive(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--curve", CURVE, "--p", "5", "--pmax", "10"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not allowed with argument --p" in captured.err


@pytest.mark.parametrize("pmax", ["1", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ["ap", "--curve", CURVE],
        ["factor", "--curve", CURVE],
        ["sym3", "--curve", CURVE],
        ["induce", "--D", "-4", "--m", "2"],
        ["verify", "--identity", "sym3-ext2", "--curve", CURVE],
        ["predict", "--curve", CURVE],
    ],
    ids=lambda argv: argv[0],
)
def test_pmax_below_two_rejected(capsys, argv, pmax):
    # a bound with no prime below it used to print nothing (or an empty
    # report marked ok) and exit 0
    code, out, err = run(capsys, *argv, "--pmax", pmax)
    assert code == 2 and out == ""
    assert err == f"error: --pmax must be at least 2, got {pmax}\n"


@pytest.mark.parametrize("x", ["0", "-5"])
@pytest.mark.parametrize(
    "argv",
    [["lcoeffs", "--curve", CURVE], ["eval", "--curve", CURVE, "-s", "3"]],
    ids=lambda argv: argv[0],
)
def test_x_below_one_rejected(capsys, argv, x):
    # like --pmax, the bound is refused under the name of its flag
    code, out, err = run(capsys, *argv, "--X", x)
    assert code == 2 and out == ""
    assert err == f"error: --X must be at least 1, got {x}\n"


def test_level_contradicting_model_rejected(capsys):
    # 11a3 scaled by u = 2 is not minimal at 2; the conductor 11 says so
    scaled = "0,-4,8,0,0,11"
    code, out, err = run(capsys, "predict", "--curve", scaled, "--pmax", "7")
    assert code == 2 and out == "" and "p=2" in err
    code, out, err = run(capsys, "ap", "--curve", scaled, "--p", "2")
    assert code == 2 and out == "" and "p=2" in err


def test_conductor_checked_beyond_pmax(capsys):
    # 11a3 is good at 13, so N = 143 is wrong there even when --pmax stops at 7
    code, out, err = run(capsys, "predict", "--curve", CURVE + ",143", "--pmax", "7")
    assert code == 2 and out == "" and "p=13" in err


def test_level_checked_beyond_pmax(capsys, tmp_path):
    # a table's a_13 at 13 || 143 must be +-1, even when --pmax stops at 7
    path = tmp_path / "level143.txt"
    path.write_text("weight 2 level 143 character trivial\n2 0\n3 1\n5 -1\n7 2\n13 5\n")
    code, out, err = run(capsys, "predict", "--eigenfile", str(path), "--pmax", "7")
    assert code == 2 and out == ""
    assert err == "error: a_13 = 5 contradicts the level 143: a_p^2 must be 1\n"


@pytest.mark.parametrize(
    "argv",
    [["factor", "--p", "2"], ["lcoeffs", "--X", "7"]],
    ids=["factor", "lcoeffs"],
)
def test_level_is_checked_when_the_table_is_read(capsys, tmp_path, argv):
    # the table of test_level_checked_beyond_pmax, refused by commands that never reach 13
    path = tmp_path / "level143.txt"
    path.write_text("weight 2 level 143 character trivial\n2 0\n3 1\n5 -1\n7 2\n13 5\n")
    assert run(capsys, *argv, "--eigenfile", str(path)) == (
        2, "", "error: a_13 = 5 contradicts the level 143: a_p^2 must be 1\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["ap", "--p", "5"],
        ["factor", "--p", "5"],
        ["sym3", "--pmax", "7"],
        ["verify", "--identity", "sym3-ext2", "--pmax", "7"],
        ["predict", "--pmax", "7"],
        ["predict", "--D", "-4", "--m", "2", "--pmax", "7"],
        ["lcoeffs", "--X", "7"],
        ["eval", "--X", "7", "-s", "3"],
    ],
    ids=["ap", "factor", "sym3", "verify", "predict", "predict-tensor", "lcoeffs", "eval"],
)
def test_conductor_is_checked_when_the_curve_is_read(capsys, argv):
    # N = 1 leaves out 11 | disc; no command reaches 11, and predict printed level 1 (16 with chi)
    assert run(capsys, *argv, "--curve", CURVE + ",1") == (
        2, "", "error: multiplicative reduction at p=11 contradicts the conductor 1\n")


def test_conductor_is_checked_at_a_good_prime_of_the_discriminant(capsys):
    # y^2 = x^3 + x has discriminant -64 and good reduction at 3 | 36
    assert run(capsys, "ap", "--curve", "0,0,0,1,0,36", "--p", "5") == (
        2, "", "error: good reduction at p=3 contradicts the conductor 36\n")


@pytest.mark.parametrize(
    "n, part",
    [
        ("11000000000001408000000000037037", "1000000000000128000000000003367"),
        ("11000000000000000132000000000000000297", "1000000000000000012000000000000000027"),
    ],
    ids=["two-16-digit-primes", "two-19-digit-primes"],
)
def test_wrong_conductor_is_refused_without_factoring_it(capsys, n, part):
    # N = 11 * P * Q for 11a3: P * Q is prime to the discriminant -11, so it offends unfactored
    start = time.perf_counter()
    assert run(capsys, "ap", "--curve", f"{CURVE},{n}", "--p", "5") == (
        2, "", f"error: the conductor {n} and the discriminant -11 differ at the primes of {part}\n")
    assert time.perf_counter() - start < 1


#: A command for each number flag, with {} where the flag's value goes.
NUMBER_FLAGS = {
    "--p": ["ap", "--curve", CURVE, "--p", "{}"],
    "--pmax": ["ap", "--curve", CURVE, "--pmax", "{}"],
    "--D": ["induce", "--D", "{}", "--m", "2", "--p", "5"],
    "--m": ["induce", "--D", "-4", "--m", "{}", "--p", "5"],
    "--X": ["lcoeffs", "--curve", CURVE, "--X", "{}"],
    "--jobs": ["ap", "--curve", CURVE, "--p", "5", "--jobs", "{}"],
    "-s": ["eval", "--curve", CURVE, "--X", "10", "-s", "{}"],
}


@pytest.mark.parametrize("flag", NUMBER_FLAGS)
@pytest.mark.parametrize("value", ["1_1", "\u0663", "\uff13"], ids=["underscore", "arabic-indic", "fullwidth"])
def test_number_flags_are_ascii_decimals(capsys, flag, value):
    # int() and float() read 1_1 as 11 and any Unicode decimal digit as its value
    argv = [value if a == "{}" else a for a in NUMBER_FLAGS[flag]]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    kind = "float" if flag == "-s" else "int"
    assert (exc.value.code, *capsys.readouterr()) == (
        2, "", f"error: argument {flag}: invalid {kind} value: {value!r}\n")


def test_verify_missing_inputs_without_primes(capsys):
    # the check fires before any prime, so also when --pmax leaves none
    code, _, err = run(capsys, "verify", "--identity", "tensor-ext2", "--curve", CURVE, "--pmax", "1")
    assert code == 2 and "character" in err
    code, _, err = run(capsys, "verify", "--identity", "sym3-ext2", "--D", "-4", "--m", "2")
    assert code == 2 and "source" in err


@pytest.mark.parametrize(
    "curve",
    [
        CURVE + ",-11",
        CURVE + ",0",
    ],
)
def test_curve_data_must_be_exact_integers(capsys, curve):
    code, out, err = run(capsys, "ap", "--curve", curve, "--p", "7")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


#: eta(z)^3 eta(7z)^3, the CM newform of weight 3, level 7 and character (-7/.)
ETA7 = "weight 3 level 7 character delta -7\n2 -3\n3 0\n5 0\n7 -7\n11 -6\n13 0\n"


@pytest.fixture
def eta7_path(tmp_path):
    path = tmp_path / "eta7.txt"
    path.write_text(ETA7)
    return path


def test_delta_table_coefficients(capsys, eta7_path):
    # the good factor is 1 - a_p T + (-7/p) p^2 T^2, so a_9 = a_3^2 - (-7/3) 3^2 = 9
    code, out, _ = run(capsys, "lcoeffs", "--eigenfile", str(eta7_path), "--X", "15", "--format", "csv")
    assert code == 0
    coeffs = [int(row.split(",")[1]) for row in out.splitlines()[1:]]
    assert coeffs == [1, -3, 0, 5, 0, 0, -7, -3, 9, 0, -6, 0, 0, 21, 0]


def test_delta_table_factor(capsys, eta7_path):
    code, out, _ = run(capsys, "factor", "--eigenfile", str(eta7_path), "--p", "3")
    assert (code, out) == (0, "p=3: 1 - 9*T^2  (weight 2)\n")


@pytest.mark.parametrize(
    "table, pmax, message",
    [
        # 7 was a good prime where (-7/7) = 0: factor printed p=7: 1 + 7*T and exited 0
        ("weight 3 level 1 character delta -7\n2 1\n3 0\n5 0\n7 -7\n", "7",
         "character delta -7 has conductor 7, which does not divide the level 1"),
        # (-7/.) is odd, so no newform of even weight carries it
        ("weight 2 level 7 character delta -7\n2 1\n", "2",
         "character delta -7 is odd, so the weight must be odd, got 2"),
        # the trivial character is even, so no newform of odd weight carries it
        ("weight 3 level 11 character trivial\n2 1\n3 2\n5 -1\n7 3\n11 1\n", "7",
         "character trivial is even, so the weight must be even, got 3"),
        # (-1/.) agrees with (-4/.) at odd primes; factor printed p=2: 1 - 4*T^2 and exited 0
        ("weight 3 level 1 character delta -1\n2 0\n3 0\n5 2\n", "5",
         "character delta -1: -1 is not the discriminant of an imaginary quadratic field"),
        # Q(sqrt 5) is real
        ("weight 2 level 5 character delta 5\n2 1\n", "2",
         "character delta 5: 5 is not the discriminant of an imaginary quadratic field"),
        # -12 = 4 * -3 is the discriminant of an order, not of Q(sqrt -3)
        ("weight 3 level 12 character delta -12\n5 0\n", "5",
         "character delta -12: -12 is not the discriminant of an imaginary quadratic field"),
        # 2 is ramified for (-4/.), and the level and D have the same 2-part 4
        ("weight 5 level 4 character delta -4\n2 -3\n", "2",
         "a_2 = -3 contradicts the level 4: a_p^2 must be 16"),
        ("weight 5 level 4 character delta -4\n3 0\n", "3", "no eigenvalue a_2 in the table"),
        # the level has the larger 2-part 8
        ("weight 5 level 8 character delta -4\n2 -4\n", "2",
         "a_2 = -4 contradicts the level 8: a_p^2 must be 0"),
    ],
    ids=["level", "weight", "trivial-weight", "discriminant-1", "discriminant5", "discriminant-12",
         "ramified-size", "ramified-missing", "ramified-zero"],
)
def test_delta_table_that_contradicts_itself_is_rejected(capsys, tmp_path, table, pmax, message):
    path = tmp_path / "table.txt"
    path.write_text(table)
    code, out, err = run(capsys, "factor", "--eigenfile", str(path), "--pmax", pmax)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("D, m, level", [(-4, 2, 4), (-8, 1, 8)])
def test_delta_table_keeps_a_p_where_the_character_ramifies(capsys, tmp_path, D, m, level):
    # p = 2 divides the level at least twice, so a_2 was read as 0: factor printed
    # p=2: 1 and lcoeffs a_2 = a_4 = a_8 = 0, where the CM form of chi has a_2^e
    chi = AntiCycChar(ImagQuadField(D), m)
    rows = [f"{p} {-induced_factor(chi, p).coeffs[1]}" for p in (2, 3, 5, 7)]
    path = tmp_path / "table.txt"
    path.write_text(f"weight {2 * m + 1} level {level} character delta {D}\n" + "\n".join(rows) + "\n")
    _, induced, _ = run(capsys, "induce", "--D", str(D), "--m", str(m), "--pmax", "7")
    assert run(capsys, "factor", "--eigenfile", str(path), "--pmax", "7") == (0, induced, "")
    code, out, _ = run(capsys, "lcoeffs", "--eigenfile", str(path), "--transfer", "none", "--X", "8",
                       "--format", "csv")
    a = [0] + [int(row.split(",")[1]) for row in out.splitlines()[1:]]
    assert code == 0 and a[2] != 0 and (a[4], a[8]) == (a[2] ** 2, a[2] ** 3)


@pytest.mark.parametrize(
    "disc, out",
    [
        (-3, "p=11: 1 - 121*T^2  (weight 2)\n"),  # (D/11) 11^2 T^2
        (-4, "p=11: 1 - 121*T^2  (weight 2)\n"),
        (-7, "p=11: 1 + 121*T^2  (weight 2)\n"),
        (-8, "p=11: 1 + 121*T^2  (weight 2)\n"),
    ],
)
def test_delta_table_of_a_field_discriminant_loads(capsys, tmp_path, disc, out):
    path = tmp_path / "table.txt"
    path.write_text(f"weight 3 level {-disc} character delta {disc}\n11 0\n")
    assert run(capsys, "factor", "--eigenfile", str(path), "--p", "11") == (0, out, "")


@pytest.mark.parametrize(
    "argv", [["--identity", "sym3-ext2"], ["--identity", "tensor-ext2", "--D", "-4", "--m", "2"]]
)
def test_verify_refuses_a_delta_table(capsys, eta7_path, argv):
    # both identities are stated for det = p^(k-1); they printed OK on this table
    code, out, err = run(capsys, "verify", *argv, "--eigenfile", str(eta7_path), "--pmax", "5")
    assert code == 2 and out == ""
    assert err == f"error: {argv[1]} needs a trivial character, the table declares delta -7\n"


@pytest.mark.parametrize("argv", [[], ["--D", "-7", "--m", "1"]])
def test_predict_refuses_a_delta_table(capsys, eta7_path, argv):
    # the Sym^3 and tensor lifts read the same rule as verify
    code, out, err = run(capsys, "predict", *argv, "--eigenfile", str(eta7_path), "--pmax", "5")
    assert (code, out) == (2, "")
    assert err == "error: predict needs a trivial character, the table declares delta -7\n"


@pytest.mark.parametrize("pmax, noted", [("7", False), ("11", True)])
def test_predict_sym3_note_once_pmax_reaches_the_level(capsys, pmax, noted):
    # the note on the conductor exponent at multiplicative primes needs one p | N up to pmax
    code, out, _ = run(capsys, "predict", "--curve", CURVE, "--pmax", pmax)
    assert code == 0
    assert ("note: level at multiplicative primes" in out) is noted


@pytest.mark.parametrize(
    "argv",
    [
        ["predict", "--curve", CURVE, "--pmax", "7"],
        ["eval", "--curve", CURVE, "--X", "50", "-s", "3"],
    ],
)
def test_csv_rejected_where_not_rendered(capsys, argv):
    # predict and eval have no csv rendering, so csv must not fall back to text
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "csv" in err and argv[0] in err


def test_predict_large_prime_discriminant(capsys):
    # disc = -1047779 is prime: deriving the level classifies one large bad prime
    code, out, _ = run(capsys, "predict", "--curve", "0,0,1,-1,49", "--pmax", "20")
    assert code == 0 and "level: 1047779\n" in out


def test_predict_factors_a_large_conductor_quickly(capsys):
    # disc = 3 * 124120307 * 169710119; trial division took about 34 s here
    start = time.perf_counter()
    code, out, _ = run(capsys, "predict", "--curve=-21,-10,18,-98486,-47847", "--pmax", "5")
    assert time.perf_counter() - start < 2.0
    assert code == 0 and "level: 63193416213859599\n" in out
    assert "at p = 3, 124120307, 169710119 (exactly dividing the level)" in out


def test_ap_takes_a_curve_only(capsys, delta_path):
    # ap reads no table: --eigenfile is not one of its options
    with pytest.raises(SystemExit) as exc:
        main(["ap", "--curve", CURVE, "--eigenfile", str(delta_path), "--p", "5"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "unrecognized arguments: --eigenfile" in captured.err
    code, out, err = run(capsys, "ap", "--p", "5")  # was an AttributeError traceback
    assert code == 2 and out == "" and err == "error: a curve is required: --curve\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--identity", "sym3-ext2", "--curve", CURVE, "--D", "-4", "--m", "2"], "--D"),
        (["--identity", "tensor-square", "--curve", CURVE, "--D", "-4", "--m", "2"], "--D"),
        (["--identity", "tensor-square", "--eigenfile", "DELTA", "--D", "-4", "--m", "2"], "--D"),
        (["--identity", "ap-match", "--curve", CURVE, "--eigenfile", "DELTA", "--D", "-4",
          "--m", "2"], "--D"),
        (["--identity", "sym2-ind", "--D", "-4", "--m", "2", "--curve", CURVE], "--curve"),
        (["--identity", "sym2-ind", "--D", "-4", "--m", "2", "--eigenfile", "DELTA"], "--eigenfile"),
    ],
)
def test_verify_rejects_inputs_it_never_reads(capsys, delta_path, argv, flag):
    # each input was ignored and the command exited 0
    argv = [str(delta_path) if a == "DELTA" else a for a in argv]
    code, out, err = run(capsys, "verify", *argv, "--pmax", "20")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and flag in err


TABLE = "weight 2 level 11 character trivial\n2 -2\n"


@pytest.mark.parametrize(
    "argv, table",
    [
        (["ap", "--curve", "{bad", "--p", "5"], None),
        (["ap", "--curve", "0,-1,x,0,0", "--p", "5"], None),
        (["ap", "--curve", '{"a": [1, 2]}', "--p", "5"], None),
        (["factor", "--curve", CURVE, "--p", "5"], TABLE),
        (["induce", "--D", "-4", "--p", "5"], None),
        (["factor", "--curve", CURVE], None),
        (["verify", "--identity", "ap-match", "--curve", CURVE], None),
        (["factor", "--p", "5"], TABLE + "3 x\n"),
        (["factor", "--p", "5"], TABLE.replace("weight 2", "weight two")),
        (["factor", "--p", "5"], TABLE.replace("trivial", "delta D")),
        (["factor", "--p", "5"], TABLE.replace("weight 2", "weight 1")),
        # every subcommand with no input at all
        (["ap"], None),
        (["factor"], None),
        (["sym3"], None),
        (["induce"], None),
        (["verify", "--identity", "tensor-ext2"], None),
        (["predict"], None),
        (["lcoeffs", "--X", "10"], None),
        (["eval", "--X", "10", "-s", "3"], None),
    ],
)
def test_input_errors_exit_two_with_one_error_line(capsys, tmp_path, argv, table):
    if table is not None:
        path = tmp_path / "table.txt"
        path.write_text(table)
        argv = [*argv, "--eigenfile", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ap", "--curve", "0,-4,8,0,0,11", "--p", "2"],
         "additive reduction at p=2 contradicts the conductor 11"),
        (["ap", "--curve", CURVE + ",22", "--p", "2"],
         "good reduction at p=2 contradicts the conductor 22"),
        (["ap", "--curve", CURVE + ",121", "--p", "11"],
         "multiplicative reduction at p=11 contradicts the conductor 121"),
        (["predict", "--curve", "0,0,0,0,2", "--pmax", "5"],
         "conductor required: additive reduction at 2 prevents deriving it from the discriminant"),
        (["predict", "--curve", "0,0,0,0,2,36", "--pmax", "5"],
         "no level formula for non-squarefree conductor 36"),
    ],
    ids=["additive", "good", "multiplicative", "underived", "non-squarefree"],
)
def test_conductor_and_level_messages(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--curve", CURVE + ",209", "--X", "100"],
         "good reduction at p=19 contradicts the conductor 209"),
        (["--eigenfile", str(Path(__file__).parent / "data" / "delta_weight12.txt"), "--X", "300"],
         "no eigenvalue a_223 in the table"),
    ],
    ids=["conductor", "missing-eigenvalue"],
)
def test_tensor_expansion_checks_inert_primes_above_the_root(capsys, argv, message):
    # 19 and 223 are inert in Q(i) and their squares exceed X, so the cut
    # factor there needs no a_p; the curve row now fails when the curve is
    # read, and the table row still needs the check at the inert prime
    code, out, err = run(capsys, "lcoeffs", *argv, "--D", "-4", "--m", "2", "--transfer", "tensor")
    assert code == 2 and out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["ap", "--curve", CURVE, "--bogus"],
        ["ap", "--curve", CURVE, "--p", "5", "--pmax", "10"],
        ["verify", "--curve", CURVE],
        ["ap", "--curve", CURVE, "--p", "5", "--jobs", "0"],
    ],
    ids=["unknown-flag", "p-with-pmax", "verify-without-identity", "jobs-zero"],
)
def test_usage_errors_are_one_error_line(capsys, argv):
    # argparse printed a usage block before its own "siegellift ...: error:" line
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def parsed(capsys, parser, argv):
    """Exit code, stdout and stderr of ``parser.parse_args(argv)``, which exits."""
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


COMMANDS = [name for name, *_ in cli._COMMANDS]


def choices(parser):
    """The subcommands ``parser`` holds."""
    return [
        name for action in parser._actions if isinstance(action, argparse._SubParsersAction)
        for name in action.choices
    ]


def test_command_parser_holds_that_command_only():
    assert choices(cli._build_parser()) == COMMANDS
    assert choices(cli._build_parser("bogus")) == COMMANDS
    for command in COMMANDS:
        assert choices(cli._build_parser(command)) == [command]


@pytest.mark.parametrize(
    "tail", [["-h"], ["--bogus"], ["--jobs", "x"], ["--format", "xml"], ["extra"]],
    ids=["help", "unknown-flag", "bad-int", "bad-choice", "extra-argument"],
)
@pytest.mark.parametrize("command", COMMANDS)
def test_command_parser_prints_what_the_full_parser_prints(capsys, command, tail):
    # main() builds the command's own parser; its help and usage errors must not
    # depend on the sibling commands left out
    argv = [command, *tail]
    code, out, err = parsed(capsys, cli._build_parser(), argv)
    assert (code, bool(out), bool(err)) == ((0, True, False) if tail == ["-h"] else (2, False, True))
    assert in_process(capsys, argv) == (code, out, err)


@pytest.mark.parametrize("argv", [["-h"], [], ["bogus"]], ids=["help", "none", "bogus"])
def test_top_level_parser_lists_every_command(capsys, argv):
    code, out, err = in_process(capsys, argv)
    assert (code, out, err) == parsed(capsys, cli._build_parser(), argv)
    if argv == ["-h"]:
        assert code == 0 and err == "" and "{" + ",".join(COMMANDS) + "}" in out
        assert all(f"\n    {name} " in out for name in COMMANDS)
    elif argv == []:
        assert (code, out, err) == (2, "", "error: the following arguments are required: command\n")
    else:
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith("error: argument command: invalid choice: 'bogus' (choose from ")
        assert all(name in err.split("(choose from ")[1] for name in COMMANDS)


def test_identity_choices_are_the_identity_values():
    # written out in cli, so that building the parser loads no predictor
    assert list(cli._IDENTITIES) == sorted(i.value for i in Identity) + ["ap-match"]


# ---------------------------------------------------------------------------
# the exit path: a process ends through os._exit, with the bytes and exit
# code that main() gives in-process

SRC = Path(cli.__file__).parents[1]


def in_process(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # an argparse usage error
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def in_child(*args, stdout=subprocess.PIPE):
    # buffered streams, so that output the exit failed to flush would be lost
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, *args], env=env, stdout=stdout, stderr=subprocess.PIPE,
                          text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize(
    "argv, code",
    [
        # more output than the stdout buffer holds, all of which the flush must deliver
        (["lcoeffs", "--curve", CURVE, "--transfer", "sym3", "--X", "2000", "--format", "csv"], 0),
        (["verify", "--identity", "ap-match", "--curve", CURVE, "--eigenfile", "TABLE",
          "--pmax", "7"], 1),
        (["ap", "--p", "5"], 2),
        (["ap", "--curve", CURVE, "--bogus"], 2),
        (["factor", "--eigenfile", "PAST", "--p", "3"], 2),
        (["predict", "--curve", CURVE, "--pmax", "5", "--out", "OUT"], 2),
        (LONG_FACTOR, 0),
        (PAST_FLOAT, 0),
    ],
    ids=["ok", "fail", "input-error", "usage-error", "refused-table", "out-refused",
         "long-factor", "past-float"],
)
def test_process_matches_main(capsys, tmp_path, argv, code):
    path = tmp_path / "corrupt.txt"
    path.write_text("weight 2 level 11 character trivial\n2 2\n3 -1\n5 1\n7 -2\n")
    past = tmp_path / "past.txt"
    past.write_text(PAST_BOUND)
    places = {"TABLE": str(path), "PAST": str(past), "OUT": str(tmp_path / "x.json")}
    argv = [places.get(a, a) for a in argv]
    expected = in_process(capsys, argv)
    assert expected[0] == code
    assert in_child("-m", "siegellift.cli", *argv) == expected


def test_table_past_the_bound_is_one_error_line_in_a_child(tmp_path):
    # with or without a warnings filter: the bound is a refusal, not a warning
    path = tmp_path / "ram.txt"
    path.write_text("weight 2 level 11 character trivial\n3 100\n")
    argv = ["-m", "siegellift.cli", "factor", "--eigenfile", str(path), "--p", "3"]
    refused = (2, "", "error: a_3 = 100 violates |a_p| <= 2 p^((k-1)/2) for weight 2\n")
    assert in_child(*argv) == refused
    assert in_child("-W", "error", *argv) == refused


def test_profiled_process_still_reports():
    # cProfile prints its stats after the program returns; os._exit would lose them
    argv = ["ap", "--curve", CURVE, "--p", "2"]
    code, out, err = in_child("-m", "cProfile", "-m", "siegellift.cli", *argv)
    assert (code, err) == (0, "")
    assert out.startswith("a_2 = -2  (good)\n") and "function calls" in out


def test_closed_stdout_is_reported_at_teardown():
    # the flush fails, so the process exits through sys.exit, whose teardown
    # flushes again and reports the broken pipe with exit code 120
    read, write = os.pipe()
    os.close(read)
    try:
        code, _, err = in_child("-m", "siegellift.cli", "ap", "--curve", CURVE, "--p", "2", stdout=write)
    finally:
        os.close(write)
    assert code == 120 and "BrokenPipeError" in err


class _Exited(Exception):
    pass


def _raise_exited(code):
    raise _Exited(code)


class _BrokenStream(io.StringIO):
    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("observed", [False, True])
def test_entry_skips_teardown_unless_observed(monkeypatch, observed):
    monkeypatch.setattr(cli, "main", lambda: 1)
    monkeypatch.setattr(cli, "_observed", lambda: observed)
    monkeypatch.setattr(cli.os, "_exit", _raise_exited)
    with pytest.raises(SystemExit if observed else _Exited) as exc:
        cli.entry()
    assert exc.value.args == (1,)


def test_entry_falls_back_to_sys_exit_when_a_flush_fails(monkeypatch):
    monkeypatch.setattr(cli, "main", lambda: 0)
    monkeypatch.setattr(cli, "_observed", lambda: False)
    monkeypatch.setattr(cli.os, "_exit", _raise_exited)
    monkeypatch.setattr(sys, "stdout", _BrokenStream())
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 0


def test_observed_under_a_tracer():
    previous = sys.gettrace()
    sys.settrace(lambda *args: None)
    try:
        assert cli._observed()
    finally:
        sys.settrace(previous)


class _Monitoring:
    """The part of ``sys.monitoring`` (Python 3.12+) that ``_observed`` reads."""

    def __init__(self, tools):
        self.tools = tools

    def get_tool(self, tool_id):
        return self.tools.get(tool_id)


@pytest.mark.parametrize("tools, observed", [({}, False), ({2: "profiler"}, True)])
def test_observed_reads_sys_monitoring(monkeypatch, tools, observed):
    # runs the sys.monitoring branch on every version, whatever tracer pytest has
    monkeypatch.setattr(sys, "gettrace", lambda: None)
    monkeypatch.setattr(sys, "getprofile", lambda: None)
    monkeypatch.setattr(sys, "monitoring", _Monitoring(tools), raising=False)
    assert cli._observed() is observed


@pytest.mark.skipif(sys.version_info < (3, 12), reason="sys.monitoring is new in Python 3.12")
def test_observed_under_a_monitoring_tool(monkeypatch):
    # the real sys.monitoring, with no tracer or profiler in the way
    monkeypatch.setattr(sys, "gettrace", lambda: None)
    monkeypatch.setattr(sys, "getprofile", lambda: None)
    free = [i for i in range(6) if sys.monitoring.get_tool(i) is None]
    if not free:
        pytest.skip("every sys.monitoring tool id is taken")
    sys.monitoring.use_tool_id(free[0], "siegellift test")
    try:
        assert cli._observed()
    finally:
        sys.monitoring.free_tool_id(free[0])
