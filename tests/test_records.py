"""The record contract: plain ``__slots__`` classes, equality and hashing
where records are compared or hashed, immutability of hashed records, and
pickling; and the import floor they exist for."""

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import siegellift
from siegellift import (
    AntiCycChar,
    ArchParam,
    Classification,
    CompareResult,
    CurveData,
    EvalResult,
    ImagQuadField,
    LObject,
    LocalData,
    LocalFactor,
    NewformData,
    PowerSums,
    QuadInt,
    ReductionData,
    ReductionKind,
    ReportEntry,
    SiegelKind,
    SiegelPrediction,
    Status,
    VerifyReport,
)
from siegellift.localfactor import PurityReport
from siegellift.modform import CharacterKind


def test_cli_import_leaves_out_dataclasses():
    # -S: no site module, so sys.modules holds what the package imports
    src = Path(siegellift.__file__).parents[1]
    code = "import sys, siegellift.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], cwd=src, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def _factor(p=5):
    return LocalFactor(p, 1, [1, -2, p])


def _report():
    return VerifyReport((
        ReportEntry(7, "tensor-square", Status.OK, "", _factor(7), _factor(7)),
        ReportEntry(2, "r5-extract", Status.SKIPPED, "skipped (additive reduction)"),
    ))


# each builder makes a new record from equal arguments on every call
RECORDS = {
    "ArchParam": lambda: ArchParam((1, 3), 3),
    "Classification": lambda: Classification(True, True, SiegelKind.VECTOR, vector_weight=(5, 3)),
    "ImagQuadField": lambda: ImagQuadField(-7),
    "QuadInt": lambda: QuadInt(ImagQuadField(-4), 3, 1),
    "AntiCycChar": lambda: AntiCycChar(ImagQuadField(-4), 2),
    "LocalFactor": _factor,
    "PowerSums": lambda: PowerSums(5, (2, -6)),
    "PurityReport": lambda: PurityReport(False, 1, 2),
    "CurveData": lambda: CurveData(0, -1, 1, 0, 0, conductor=11),
    "ReductionData": lambda: ReductionData(11, ReductionKind.SPLIT_MULT, 1),
    "NewformData": lambda: NewformData(12, 1, CharacterKind.TRIVIAL, None, {2: -24}),
    "ReportEntry": lambda: ReportEntry(5, "sym3-ext2", Status.FAIL, "exact mismatch", _factor(), None),
    "VerifyReport": _report,
    "LocalData": lambda: LocalData(5, "good", False, _factor(), None, _factor(), ""),
    "SiegelPrediction": lambda: SiegelPrediction(
        "curve 0,-1,1,0,0", "sym3", 11, "note", ArchParam((3, 1), 3),
        Classification(True, True, SiegelKind.SCALAR, scalar_weight=3),
        {5: _factor()}, {}, {"cap": False}, _report(), ("a note",),
    ),
    "LObject": lambda: LObject("gl2", 1, {5: _factor()}, ArchParam((1,), 1), 11),
    "CompareResult": lambda: CompareResult(False, 4),
    "EvalResult": lambda: EvalResult(0.5, 0.01, 5.0, 500),
}
HASHED = ["ArchParam", "ImagQuadField", "QuadInt", "AntiCycChar", "LocalFactor", "CurveData",
          "ReportEntry", "VerifyReport", "LocalData"]


def _state(x):
    """A record's fields, recursively, for records compared by identity."""
    if isinstance(x, (list, tuple)):
        return type(x)(map(_state, x))
    if isinstance(x, dict):
        return {k: _state(v) for k, v in x.items()}
    if type(x).__module__.startswith("siegellift.") and hasattr(type(x), "__slots__"):
        return (type(x).__name__, {n: _state(getattr(x, n)) for n in type(x).__slots__})
    return x


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_a_slots_class(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    assert not hasattr(record, "__dict__")
    assert name in repr(record)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_pickle_round_trip(name):
    record = RECORDS[name]()
    again = pickle.loads(pickle.dumps(record))
    assert type(again) is type(record)
    assert _state(again) == _state(record)
    if name in HASHED:
        assert again == record and hash(again) == hash(record)


@pytest.mark.parametrize("name", HASHED)
def test_equal_values_have_equal_hashes(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_unequal_values():
    assert _factor(5) != _factor(7)
    assert CurveData(0, -1, 1, 0, 0) != CurveData(0, -1, 1, 0, 0, conductor=11)
    assert ImagQuadField(-4) != ImagQuadField(-7)
    assert ArchParam((3, 1), 3) == ArchParam((1, 3), 3)  # exponents stored descending
    assert _factor() != (5, 1, (1, -2, 5))


@pytest.mark.parametrize("name", HASHED)
def test_hashed_records_are_immutable(name):
    record = RECORDS[name]()
    field = type(record).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        delattr(record, field)


def test_curve_and_factor_fields_cannot_be_assigned():
    curve = CurveData(0, -1, 1, 0, 0, conductor=11)
    with pytest.raises(AttributeError):
        curve.conductor = 37
    with pytest.raises(AttributeError):
        curve.invariants = (0,) * 7
    factor = _factor()
    with pytest.raises(AttributeError):
        factor.coeffs = (1,)
    with pytest.raises(AttributeError):
        factor.extra = 1
    assert curve.conductor == 11 and factor.coeffs == (1, -2, 5)


def test_curve_invariants_are_computed_at_construction():
    curve = CurveData(0, -1, 1, 0, 0)
    assert curve.invariants == (-4, 0, 1, -1, 16, -152, -11)
    assert curve.discriminant == -11
    assert pickle.loads(pickle.dumps(curve)).invariants == curve.invariants


def test_factor_coefficients_are_normalised_to_a_tuple():
    assert _factor().coeffs == (1, -2, 5)
    assert pickle.loads(pickle.dumps(_factor())).coeffs == (1, -2, 5)


def test_newform_eigenvalues_default_to_a_fresh_dict():
    a, b = NewformData(2, 11), NewformData(2, 11)
    assert a.eigenvalues == {} and b.eigenvalues == {}
    assert a.eigenvalues is not b.eigenvalues
    a.eigenvalues[2] = -2
    assert b.eigenvalues == {} and NewformData(2, 11).eigenvalues == {}
