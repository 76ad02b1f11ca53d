"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Everything is exact integer arithmetic unless a runtime bound is stated.
"""

import functools
import json
import math
import random
import time

import pytest

from siegellift import (
    AntiCycChar,
    ArchParam,
    CombineMode,
    CurveData,
    Functor,
    Identity,
    ImagQuadField,
    LevelRule,
    LocalFactor,
    SiegelKind,
    Splitting,
    Status,
    char_value,
    classify,
    combine,
    compare_coeffwise,
    degree5_factor,
    from_power_sums,
    from_newform,
    identity_report,
    is_selfdual_pure,
    lambda2_sym3_objects,
    level,
    local_factor_gl2,
    plethysm,
    point_count,
    power_sums,
    prime_above,
    splitting,
    sym3_arch,
    tensor_arch,
    verify_identity,
)
from siegellift.cli import main
from siegellift.errors import NotSymplecticError, UnsupportedLevelError
from siegellift.heckechar import induced_factor
from siegellift.modform import ap_good
from siegellift._primes import primes_upto

CURVE_11A3 = CurveData(0, -1, 1, 0, 0, conductor=11)
CHI = AntiCycChar(ImagQuadField(-4), 2)


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number:2d} ({title}): FAIL")
                raise
            print(f"[acceptance] criterion {number:2d} ({title}): PASS")

        return wrapper

    return deco


@criterion(1, "point-count oracle and Hasse bound")
def test_criterion_1():
    start = time.perf_counter()
    assert 2 + 1 - point_count(CURVE_11A3, 2) == -2
    assert 3 + 1 - point_count(CURVE_11A3, 3) == -1
    assert 5 + 1 - point_count(CURVE_11A3, 5) == 1
    for p in primes_upto(500):
        if p == 11:
            continue
        ap = ap_good(CURVE_11A3, p)
        assert ap * ap <= 4 * p
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def gauss_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


@criterion(2, "symmetric-cube factor shapes")
def test_criterion_2():
    # oracle: multiply out (1 - rT) over Z[i] for r in {2+2i, 2-2i, -2+2i, -2-2i}
    coeffs = [(1, 0)]
    for r in [(2, 2), (2, -2), (-2, 2), (-2, -2)]:
        nxt = [(0, 0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] = (nxt[i][0] + c[0], nxt[i][1] + c[1])
            prod = gauss_mul(c, r)
            nxt[i + 1] = (nxt[i + 1][0] - prod[0], nxt[i + 1][1] - prod[1])
        coeffs = nxt
    assert all(im == 0 for _, im in coeffs)
    expected = tuple(re for re, _ in coeffs)
    assert expected == (1, 0, 0, 0, 64)
    got = plethysm(local_factor_gl2(CURVE_11A3, 2), Functor.SYM3)
    assert got.coeffs == expected

    # supersingular prime of 11a3: a_19 = 0, closed form (1 + p^3 T^2)^2
    assert ap_good(CURVE_11A3, 19) == 0
    q = 19**3
    got = plethysm(local_factor_gl2(CURVE_11A3, 19), Functor.SYM3)
    assert got.coeffs == (1, 0, 2 * q, 0, q * q)


@criterion(3, "ext2(sym3) = twisted sym4 x tate, p <= 200")
def test_criterion_3(delta_form):
    for source, bad in ((CURVE_11A3, {11}), (delta_form, set())):
        report = identity_report(Identity.SYM3_EXT2, 200, source=source)
        assert report.ok
        for entry in report.entries:
            if entry.prime in bad:
                assert entry.status is Status.SKIPPED
            else:
                assert entry.status is Status.OK
                assert entry.lhs.coeffs == entry.rhs.coeffs  # exact, zero tolerance


@criterion(4, "sym2 of induction splits off the restriction, p <= 200")
def test_criterion_4():
    report = identity_report(Identity.SYM2_IND, 200, chi=CHI)
    assert report.ok
    for entry in report.entries:
        expected = Status.SKIPPED if entry.prime == 2 else Status.OK
        assert entry.status is expected
    # the worked p = 5 instance
    entry = verify_identity(Identity.SYM2_IND, 5, chi=CHI)
    product = combine(
        LocalFactor(5, 8, (1, 1054, 390625)), LocalFactor(5, 8, (1, -625)), CombineMode.SUM
    )
    assert entry.lhs == product and entry.rhs == product


@criterion(5, "bilinear ext2 decomposition of the twisted tensor, p <= 200")
def test_criterion_5():
    report = identity_report(Identity.TENSOR_EXT2, 200, source=CURVE_11A3, chi=CHI)
    assert report.ok
    for entry in report.entries:
        if entry.prime in (2, 11):
            assert entry.status is Status.SKIPPED
        else:
            assert entry.status is Status.OK
    # weight ledger k-1+w = 5 throughout
    for p in primes_upto(200):
        if p in (2, 11):
            continue
        spin = combine(
            local_factor_gl2(CURVE_11A3, p), induced_factor(CHI, p), CombineMode.TENSOR
        )
        assert spin.weight == 5


@criterion(6, "degree-5 extraction is exact; non-symplectic control trips")
def test_criterion_6():
    for p in primes_upto(200):
        if p == 11:
            continue
        pi = plethysm(local_factor_gl2(CURVE_11A3, p), Functor.SYM3)
        assert degree5_factor(pi).degree == 5
        if p != 2:
            spin = combine(
                local_factor_gl2(CURVE_11A3, p), induced_factor(CHI, p), CombineMode.TENSOR
            )
            assert degree5_factor(spin).degree == 5
    with pytest.raises(NotSymplecticError):
        degree5_factor(LocalFactor(2, 3, (1, 1, 1, 1, 1)))


@criterion(7, "archimedean classification")
def test_criterion_7():
    c = classify(sym3_arch(from_newform(2)))
    assert c.siegel_kind is SiegelKind.SCALAR and c.scalar_weight == 3
    c = classify(tensor_arch(from_newform(4), ArchParam((2,), 2)))
    assert c.siegel_kind is SiegelKind.SCALAR and c.scalar_weight == 4
    c = classify(sym3_arch(from_newform(12)))
    assert c.siegel_kind is SiegelKind.VECTOR and c.vector_weight == (33, 11)


@criterion(8, "level rules")
def test_criterion_8():
    assert level(LevelRule.SYM3, 11) == 11
    assert level(LevelRule.TWIST, 11, 4) == 1936
    with pytest.raises(UnsupportedLevelError):
        level(LevelRule.SYM3, 12)


@criterion(9, "coefficientwise cross-check to X = 5000")
def test_criterion_9():
    start = time.perf_counter()
    lhs, rhs = lambda2_sym3_objects(CURVE_11A3, 5000)
    result = compare_coeffwise(lhs, rhs, 5000)
    assert result.equal
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


@criterion(10, "exact algebra suite")
def test_criterion_10():
    rng = random.Random(1234321)
    # Newton round trips
    for _ in range(50):
        d = rng.randrange(0, 6)
        f = LocalFactor(
            rng.choice([2, 5, 11]),
            rng.randrange(0, 4),
            (1,) + tuple(rng.randrange(-9, 10) for _ in range(d)),
        )
        assert from_power_sums(f.prime, d, power_sums(f, max(d, 1)), weight=f.weight) == f
    # bilinear exterior-square identity on 100 random integer degree-2 pairs
    for _ in range(100):
        a = LocalFactor(7, 2, (1, rng.randrange(-9, 10), rng.randrange(-9, 10)))
        b = LocalFactor(7, 6, (1, rng.randrange(-9, 10), rng.randrange(-9, 10)))
        lhs = plethysm(combine(a, b, CombineMode.TENSOR), Functor.EXT2)
        rhs = combine(
            combine(plethysm(a, Functor.SYM2), plethysm(b, Functor.EXT2), CombineMode.TENSOR),
            combine(plethysm(a, Functor.EXT2), plethysm(b, Functor.SYM2), CombineMode.TENSOR),
            CombineMode.SUM,
        )
        assert lhs == rhs
    # purity witnesses
    for p in primes_upto(100):
        if p != 11:
            assert is_selfdual_pure(local_factor_gl2(CURVE_11A3, p)).ok
        if p != 2:
            assert is_selfdual_pure(induced_factor(CHI, p)).ok
    # generator independence of character values
    for d, m in [(-4, 2), (-3, 3), (-7, 1), (-11, 2)]:
        field = ImagQuadField(d)
        chi = AntiCycChar(field, m)
        for p in primes_upto(40):
            if splitting(field, p) is Splitting.INERT:
                continue
            pi = prime_above(field, p)
            values = {char_value(chi, u * pi) for u in field.units()}
            assert len(values) == 1


@criterion(11, "CLI determinism and exit codes")
def test_criterion_11(capsys, tmp_path):
    curve = "0,-1,1,0,0"

    def run(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out

    # determinism: identical bytes across runs and across --jobs
    args = ("verify", "--identity", "sym3-ext2", "--curve", curve, "--pmax", "100")
    code1, out1 = run(*args)
    code2, out2 = run(*args)
    code3, out3 = run(*args, "--jobs", "4")
    assert code1 == code2 == code3 == 0
    assert out1 == out2 == out3

    pred_args = ("predict", "--curve", curve, "--pmax", "20", "--format", "json")
    codep, outp = run(*pred_args)
    codeq, outq = run(*pred_args, "--jobs", "3")
    assert codep == codeq == 0 and outp == outq
    assert json.loads(outp)["level"] == 11

    # exit 1 on injected corruption (a_2 flipped to +2, inside all bounds)
    table = ["weight 2 level 11 character trivial", "2 2", "3 -1", "5 1"]
    path = tmp_path / "corrupt.txt"
    path.write_text("\n".join(table) + "\n")
    code, out = run(
        "verify", "--identity", "ap-match", "--curve", curve, "--eigenfile", str(path)
    )
    assert code == 1 and "table a_2 = 2, curve gives -2" in out

    # exit 2 on invalid input
    code, _ = run("induce", "--D", "-5", "--m", "1", "--p", "3")
    assert code == 2


def test_eval_value_oracle():
    # not a numbered criterion: zeta partial sum sanity referenced by the suite
    from siegellift import LObject, eval_partial

    factors = {p: LocalFactor(p, 0, (1, -1)) for p in primes_upto(10**4)}
    res = eval_partial(LObject("zeta", 0, factors), 2.0, 10**4)
    assert abs(res.value - math.pi**2 / 6) < 1e-4
