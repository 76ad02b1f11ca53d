"""CLI contract: thin wrappers, deterministic bytes, exit codes."""

import csv
import io
import json
import time

import pytest

from siegellift import dirichlet_coeffs, sym3_object
from siegellift.cli import main
from siegellift.modform import CurveData

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
    # a_2 of 11a1 is -2; write 2 instead (within the Ramanujan bound, so only
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


def test_verify_intact_eigenfile(capsys, tmp_path, curve_11a1):
    from siegellift.modform import reduction_at

    lines = ["weight 2 level 11 character trivial"] + [
        f"{p} {reduction_at(curve_11a1, p).ap}" for p in (2, 3, 5, 7, 11, 13)
    ]
    path = tmp_path / "ok.txt"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(
        capsys, "verify", "--identity", "ap-match", "--curve", CURVE, "--eigenfile", str(path)
    )
    assert code == 0 and "0 FAIL" in out


def test_lcoeffs_csv(capsys):
    code, out, _ = run(
        capsys, "lcoeffs", "--curve", CURVE, "--transfer", "sym3", "--X", "100", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,a_n"
    assert len(lines) == 101
    # mirror against the library
    coeffs = dirichlet_coeffs(sym3_object(CurveData(0, -1, 1, 0, 0, conductor=11), 100), 100)
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


@pytest.mark.parametrize(
    "curve",
    [CURVE + ",11", '{"a": [0, -1, 1, 0, 0], "conductor": 11}'],
)
def test_conflicting_conductors_rejected(capsys, curve):
    code, out, err = run(capsys, "ap", "--curve", curve, "--conductor", "37", "--p", "11")
    assert code == 2 and out == "" and "11" in err and "37" in err
    # an agreeing --conductor, or one the curve leaves out, is taken
    code, out, _ = run(capsys, "ap", "--curve", curve, "--conductor", "11", "--p", "11")
    assert code == 0 and out == "a_11 = 1  (split multiplicative)\n"
    code, out, _ = run(capsys, "ap", "--curve", CURVE, "--conductor", "11", "--p", "11")
    assert code == 0 and out == "a_11 = 1  (split multiplicative)\n"


def test_predict_json_to_file(capsys, tmp_path):
    out_path = tmp_path / "pred.json"
    code, out, _ = run(
        capsys,
        "predict",
        "--curve",
        CURVE + ",11",
        "--pmax",
        "20",
        "--format",
        "json",
        "--out",
        str(out_path),
    )
    assert code == 0 and out == ""
    payload = json.loads(out_path.read_text())
    assert payload["level"] == 11
    assert payload["arch"]["siegel"] == {"scalar": 3}
    assert payload["spin_factors"]["2"]["coeffs"] == ["1", "0", "0", "0", "64"]
    assert payload["flags"] == {"cap": False, "endoscopic": False}
    assert payload["verification"]["ok"] is True


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


@pytest.mark.parametrize("command", ["predict", "factor"])
def test_eigenfile_conductor_must_match_the_level(capsys, delta_path, command):
    argv = [command, "--eigenfile", str(delta_path), "--pmax", "5"]
    code, out, err = run(capsys, *argv, "--conductor", "37")
    assert code == 2 and out == "" and "level 1" in err and "--conductor gives 37" in err
    code, out, _ = run(capsys, *argv, "--conductor", "1")
    assert code == 0 and out == run(capsys, *argv)[1] != ""


def test_curve_inline_json(capsys):
    code = main(["ap", "--curve", '{"a": [0, -1, 1, 0, 0], "conductor": 11}', "--p", "7"])
    out = capsys.readouterr().out
    assert code == 0 and "a_7 = -2" in out


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


def test_verify_missing_inputs_without_primes(capsys):
    # the check fires before any prime, so also when --pmax leaves none
    code, _, err = run(capsys, "verify", "--identity", "tensor-ext2", "--curve", CURVE, "--pmax", "1")
    assert code == 2 and "character" in err
    code, _, err = run(capsys, "verify", "--identity", "sym3-ext2", "--D", "-4", "--m", "2")
    assert code == 2 and "source" in err


@pytest.mark.parametrize(
    "curve",
    [
        '{"a": [0, -1, 1, 0, 0.7], "conductor": 11}',  # was truncated to a6 = 0
        '{"a": [0, -1, 1, 0, 0], "conductor": "11"}',  # was a TypeError traceback
        '{"a": [0, -1, 1, 0, 0], "conductor": 11.5}',
        '{"a": [0, -1, 1, 0, 0], "conductor": -11}',
        '{"a": [0, -1, 1, 0, "0"], "conductor": 11}',
        '{"a": [0, -1, true, 0, 0], "conductor": 11}',
        CURVE + ",-11",
        CURVE + ",0",
    ],
)
def test_curve_data_must_be_exact_integers(capsys, curve):
    code, out, err = run(capsys, "ap", "--curve", curve, "--p", "7")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


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
