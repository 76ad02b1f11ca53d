"""Self-tests of the benchmark harness, at tiny sizes and without timing
assertions.  Run from the root of the checkout:

    python3 -m pytest -q perfbench/test_harness.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    "predict-bundle": {"pmax": 30, "delta_pmax": 30},
    "lseries": {"X": 200},
}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_spec_shape():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.SIZES)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", list(TINY))
def test_end_to_end_metrics(workload):
    metrics, tally, _ = run.measure(workload, seed=3, seconds=0.1, sizes=TINY)
    out = run.result(metrics, tally, "end_to_end")
    assert out["failed"] == 0 and out["correct"] and out["attempted"] > 0
    for m in SPEC["end_to_end"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert out["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", list(TINY))
def test_per_layer_metrics(workload):
    metrics, tally, _ = run.measure_traced(workload, seed=3, seconds=0.1, sizes=TINY)
    out = run.result(metrics, tally, "per_layer")
    assert out["failed"] == 0 and out["correct"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
    assert metrics["localfactor.nonintegral_results"] == 0
    assert metrics["cli.output_bytes"] > 0


def test_checks_reject_wrong_output():
    evaluate = workloads._check_eval(200)
    assert evaluate(b"sum of 200 terms at s=5: 1.0123\n") == []
    assert evaluate(b"sum of 200 terms at s=5: 0.0\n")
    assert evaluate(b"sum of 100 terms at s=5: 1.0123\n")
    lcoeffs = workloads._check_lcoeffs({3: -1}, 3)
    assert lcoeffs(b"n,a_n\n1,1\n2,4\n3,5\n") == []
    assert lcoeffs(b"n,a_n\n1,1\n2,4\n3,4\n")
    tally = run.Tally()
    command = workloads.Command("echo", [], lambda out: [])
    tally.record(command, 0, b"a", expected=b"b")
    tally.record(command, 1, b"a")
    assert tally.failed == 2


def test_trimmed_mean():
    assert run.trimmed_mean([1.0, 2.0, 3.0]) == 2.0
    assert run.trimmed_mean([9.0] + [1.0] * 9) == 1.0  # one stall of ten is dropped


def test_oracle_point_count():
    # 11a3: y^2 + y = x^3 - x^2 has a_2 = -2, a_3 = -1, a_5 = 1, a_7 = -2
    ainvs = (0, -1, 1, 0, 0)
    assert [workloads.ap_by_point_count(ainvs, p) for p in (2, 3, 5, 7)] == [-2, -1, 1, -2]
    workloads.validate_pool()


def test_refuses_without_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "lseries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
