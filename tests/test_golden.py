"""Byte-identity fence: CLI stdout against outputs stored in tests/data/golden.

The files were written by the CLI before the integer-first rewrite of the
exact core; a refactor that changes any byte of them changes the output
contract.  Regenerate a file only for an intended output change, with the
command in GOLDEN, e.g.

    PYTHONPATH=src python -m siegellift.cli lcoeffs --curve 0,-1,1,0,0 \\
        --transfer sym3 --X 500 --format csv > tests/data/golden/lcoeffs_11a3_sym3_X500.csv
"""

from pathlib import Path

import pytest

from siegellift.cli import main

DATA = Path(__file__).parent / "data"

CURVE = ["--curve", "0,-1,1,0,0"]  # Cremona 11a3

GOLDEN = {
    "predict_11a3_sym3.json": ["predict", *CURVE, "--pmax", "50", "--format", "json"],
    "predict_11a3_tensor_D-4_m2.json": [
        "predict", *CURVE, "--D", "-4", "--m", "2", "--pmax", "50", "--format", "json",
    ],
    "predict_delta.json": [
        "predict", "--eigenfile", str(DATA / "delta_weight12.txt"), "--pmax", "50",
        "--format", "json",
    ],
    "lcoeffs_11a3_sym3_X500.csv": [
        "lcoeffs", *CURVE, "--transfer", "sym3", "--X", "500", "--format", "csv",
    ],
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_matches_golden(capsysbinary, name, jobs):
    code = main([*GOLDEN[name], "--jobs", jobs])
    assert code == 0
    assert capsysbinary.readouterr().out == (DATA / "golden" / name).read_bytes()
