"""Byte-identity fence: CLI stdout against outputs stored in tests/data/golden.

Each file holds the stdout of the command next to its name in GOLDEN; a
change that alters any byte of them changes the output contract.  Every
file is checked at ``--jobs 1`` and ``--jobs 2``.  Regenerate a file only
for an intended output change, with its command, e.g.

    PYTHONPATH=src python -m siegellift.cli lcoeffs --curve 0,-1,1,0,0 \\
        --transfer sym3 --X 500 --format csv > tests/data/golden/lcoeffs_11a3_sym3_X500.csv
"""

import csv
import io
import json
from pathlib import Path

import pytest

from siegellift.cli import main

DATA = Path(__file__).parent / "data"

CURVE = ["--curve", "0,-1,1,0,0"]  # Cremona 11a3
CHI = ["--D", "-4", "--m", "2"]
DELTA = ["--eigenfile", str(DATA / "delta_weight12.txt")]

GOLDEN = {
    "predict_11a3_sym3.json": ["predict", *CURVE, "--pmax", "50", "--format", "json"],
    "predict_11a3_tensor_D-4_m2.json": [
        "predict", *CURVE, *CHI, "--pmax", "50", "--format", "json",
    ],
    "predict_delta.json": ["predict", *DELTA, "--pmax", "50", "--format", "json"],
    "predict_11a3_sym3.txt": ["predict", *CURVE, "--pmax", "50"],
    "predict_11a3_tensor_D-4_m2.txt": ["predict", *CURVE, *CHI, "--pmax", "50"],
    "lcoeffs_11a3_sym3_X500.csv": [
        "lcoeffs", *CURVE, "--transfer", "sym3", "--X", "500", "--format", "csv",
    ],
    "lcoeffs_11a3_tensor_D-4_m2_X500.csv": [
        "lcoeffs", *CURVE, *CHI, "--transfer", "tensor", "--X", "500", "--format", "csv",
    ],
    "lcoeffs_11a3_sym3_X5000.csv": [
        "lcoeffs", *CURVE, "--transfer", "sym3", "--X", "5000", "--format", "csv",
    ],
    "lcoeffs_11a3_none_X500.csv": [
        "lcoeffs", *CURVE, "--transfer", "none", "--X", "500", "--format", "csv",
    ],
    "lcoeffs_11a3_sym3_X50.txt": ["lcoeffs", *CURVE, "--transfer", "sym3", "--X", "50"],
    "lcoeffs_11a3_sym3_X500.json": [
        "lcoeffs", *CURVE, "--transfer", "sym3", "--X", "500", "--format", "json",
    ],
    "lcoeffs_11a3_tensor_D-4_m2_X5000.csv": [
        "lcoeffs", *CURVE, *CHI, "--transfer", "tensor", "--X", "5000", "--format", "csv",
    ],
    # 2 splits in Q(sqrt(-7)); Q(sqrt(-3)) has six units
    "lcoeffs_11a3_tensor_D-7_m2_X500.csv": [
        "lcoeffs", *CURVE, "--D", "-7", "--m", "2", "--transfer", "tensor", "--X", "500",
        "--format", "csv",
    ],
    "lcoeffs_11a3_tensor_D-3_m3_X500.csv": [
        "lcoeffs", *CURVE, "--D", "-3", "--m", "3", "--transfer", "tensor", "--X", "500",
        "--format", "csv",
    ],
    "lcoeffs_delta_sym3_X211.csv": [
        "lcoeffs", *DELTA, "--transfer", "sym3", "--X", "211", "--format", "csv",
    ],
    "eval_11a3_sym3_X5000_s3.json": [
        "eval", *CURVE, "--transfer", "sym3", "--X", "5000", "-s", "3", "--format", "json",
    ],
    "eval_11a3_tensor_D-4_m2_X500_s5.txt": [
        "eval", *CURVE, *CHI, "--transfer", "tensor", "--X", "500", "-s", "5",
    ],
    "eval_11a3_tensor_D-4_m2_X500_s5.json": [
        "eval", *CURVE, *CHI, "--transfer", "tensor", "--X", "500", "-s", "5", "--format", "json",
    ],
    "factor_delta.csv": ["factor", *DELTA, "--pmax", "50", "--format", "csv"],
    "factor_delta.json": ["factor", *DELTA, "--pmax", "50", "--format", "json"],
    "verify_delta_sym3-ext2.json": [
        "verify", "--identity", "sym3-ext2", *DELTA, "--pmax", "50", "--format", "json",
    ],
    "verify_delta_tensor-square.json": [
        "verify", "--identity", "tensor-square", *DELTA, "--pmax", "50", "--format", "json",
    ],
    "sym3_delta.csv": ["sym3", *DELTA, "--pmax", "50", "--format", "csv"],
    "ap_11a3.txt": ["ap", *CURVE, "--pmax", "50"],
    "ap_11a3.json": ["ap", *CURVE, "--pmax", "50", "--format", "json"],
    "ap_11a3.csv": ["ap", *CURVE, "--pmax", "50", "--format", "csv"],
    "ap_11a3_p5000.csv": ["ap", "--curve", "0,-1,1,0,0,11", "--pmax", "5000", "--format", "csv"],
    # 15a1 has torsion Z/4 x Z/2, so many point orders are ambiguous
    "ap_15a1_p5000.csv": [
        "ap", "--curve", "1,1,1,-10,-10,15", "--pmax", "5000", "--format", "csv",
    ],
    # bad primes of every kind: 30a1 nonsplit at 2 and 5, split at 3; 42a1
    # split at 2, nonsplit at 3 and 7; y^2 = x^3 + 2 additive at 2 and 3
    "ap_30a1.csv": ["ap", "--curve", "1,0,1,1,2,30", "--pmax", "50", "--format", "csv"],
    "ap_42a1.csv": ["ap", "--curve", "1,1,1,-4,5,42", "--pmax", "50", "--format", "csv"],
    "ap_0_0_0_0_2.csv": ["ap", "--curve", "0,0,0,0,2", "--pmax", "50", "--format", "csv"],
    # conductor derived from the reduction types
    "predict_30a1_sym3.json": [
        "predict", "--curve", "1,0,1,1,2", "--pmax", "50", "--format", "json",
    ],
    # derived conductor 3 * 124120307 * 169710119: two large primes to factor
    "predict_N63193416213859599.txt": [
        "predict", "--curve=-21,-10,18,-98486,-47847", "--pmax", "5",
    ],
    # Delta at every tabulated prime, and Delta in the tensor transfer
    "verify_delta_sym3-ext2_p211.csv": [
        "verify", "--identity", "sym3-ext2", *DELTA, "--pmax", "211", "--format", "csv",
    ],
    "verify_delta_sym3-ext2_p211.txt": ["verify", "--identity", "sym3-ext2", *DELTA, "--pmax", "211"],
    "eval_delta_sym3_X211_s40.json": [
        "eval", *DELTA, "--transfer", "sym3", "--X", "211", "-s", "40", "--format", "json",
    ],
    "lcoeffs_delta_tensor_D-4_m2_X211.csv": [
        "lcoeffs", *DELTA, *CHI, "--transfer", "tensor", "--X", "211", "--format", "csv",
    ],
    "predict_delta_tensor_D-4_m2.json": [
        "predict", *DELTA, *CHI, "--pmax", "50", "--format", "json",
    ],
    # 2 splits in Q(sqrt(-7)), 7 ramifies
    "verify_11a3_tensor-ext2_D-7_m2_p300.txt": [
        "verify", "--identity", "tensor-ext2", *CURVE, "--D", "-7", "--m", "2", "--pmax", "300",
    ],
    "induce_D-4_m2.csv": ["induce", *CHI, "--pmax", "50", "--format", "csv"],
    "induce_D-4_m2.json": ["induce", *CHI, "--pmax", "50", "--format", "json"],
    "induce_D-7_m2.csv": ["induce", "--D", "-7", "--m", "2", "--pmax", "50", "--format", "csv"],
    "induce_D-7_m2.json": ["induce", "--D", "-7", "--m", "2", "--pmax", "50", "--format", "json"],
}
VERIFY = {
    "verify_11a3_sym3-ext2": ["--identity", "sym3-ext2", *CURVE],
    "verify_11a3_tensor-square": ["--identity", "tensor-square", *CURVE],
    # sym2-ind reads chi alone and rejects a curve; the name predates that
    "verify_11a3_sym2-ind_D-4_m2": ["--identity", "sym2-ind", *CHI],
    "verify_11a3_tensor-ext2_D-4_m2": ["--identity", "tensor-ext2", *CURVE, *CHI],
}
for stem, argv in VERIFY.items():
    GOLDEN[stem + ".txt"] = ["verify", *argv, "--pmax", "50"]
    for fmt in ("json", "csv"):
        GOLDEN[f"{stem}.{fmt}"] = ["verify", *argv, "--pmax", "50", "--format", fmt]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_matches_golden(capsysbinary, name, jobs):
    code = main([*GOLDEN[name], "--jobs", jobs])
    assert code == 0
    assert capsysbinary.readouterr().out == (DATA / "golden" / name).read_bytes()


@pytest.mark.parametrize("stem", sorted(VERIFY))
def test_verify_csv_rows_match_json(stem):
    golden = DATA / "golden"
    rows = list(csv.DictReader(io.StringIO((golden / f"{stem}.csv").read_text())))
    entries = json.loads((golden / f"{stem}.json").read_text())["entries"]
    assert rows == [
        {"p": str(e["p"]), "identity": e["identity"], "status": e["status"], "reason": e["reason"]}
        for e in entries
    ]
