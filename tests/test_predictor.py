"""Identity verification, degree-5 extraction, levels, predictions,
Dirichlet expansion."""

import math
import pickle

import pytest

from siegellift import (
    AntiCycChar,
    CombineMode,
    CurveData,
    Functor,
    Identity,
    ImagQuadField,
    LevelRule,
    LObject,
    LocalFactor,
    NewformData,
    SiegelKind,
    Status,
    combine,
    compare_coeffwise,
    degree5_factor,
    dirichlet_coeffs,
    eval_partial,
    gl2_object,
    identity_report,
    induced_factor,
    lambda2_sym3_objects,
    local_data,
    level,
    local_factor_gl2,
    plethysm,
    predict_siegel,
    sym3_object,
    tate_factor,
    tensor_object,
    verify_identity,
)
from siegellift.errors import (
    ConvergenceDomainError,
    InputError,
    MissingPrimeError,
    NotSymplecticError,
    ParityError,
    UnitCompatibilityError,
    UnsupportedLevelError,
)
from siegellift import heckechar
from siegellift.localfactor import one
from siegellift.predictor import ap_match_report
from siegellift._primes import primes_upto
from siegellift.modform import parse_eigenfile


# ---------------------------------------------------------------------------
# identities

def test_sym3_ext2_at_two(curve_11a1):
    entry = verify_identity(Identity.SYM3_EXT2, 2, source=curve_11a1)
    assert entry.status is Status.OK
    # (1+8T)^2 (1-8T)^2 (1+64T^2) expanded
    assert entry.lhs.coeffs == (1, 0, -64, 0, -4096, 0, 262144)


def test_sym3_ext2_good_primes(curve_11a1):
    report = identity_report(Identity.SYM3_EXT2, 100, source=curve_11a1)
    assert report.ok
    by_prime = {e.prime: e for e in report.entries}
    assert by_prime[11].status is Status.SKIPPED
    assert all(e.status is Status.OK for p, e in by_prime.items() if p != 11)


def test_sym2_ind_worked_instance(chi_gauss):
    entry = verify_identity(Identity.SYM2_IND, 5, chi=chi_gauss)
    assert entry.status is Status.OK
    rhs = combine(
        LocalFactor(5, 8, (1, 1054, 390625)),
        LocalFactor(5, 8, (1, -625)),
        CombineMode.SUM,
    )
    assert entry.lhs == rhs


def test_sym2_ind_skips_ramified(chi_gauss):
    entry = verify_identity(Identity.SYM2_IND, 2, chi=chi_gauss)
    assert entry.status is Status.SKIPPED and "ramified" in entry.reason


def test_tensor_ext2_weight_ledger(curve_11a1, chi_gauss):
    # spin weight k-1+w = 5 throughout
    for p in primes_upto(60):
        entry = verify_identity(Identity.TENSOR_EXT2, p, source=curve_11a1, chi=chi_gauss)
        if p in (2, 11):
            assert entry.status is Status.SKIPPED
        else:
            assert entry.status is Status.OK
            assert entry.lhs.weight == 10  # Lambda^2 of weight-5 spin


def test_tensor_square_formal(curve_11a1):
    # predict checks tensor-square on the degree-4 spin factor
    f = plethysm(local_factor_gl2(curve_11a1, 3), Functor.SYM3)
    rows = predict_siegel(curve_11a1, pmax=3).verification.entries
    (entry,) = [e for e in rows if e.prime == 3 and e.identity == Identity.TENSOR_SQ.value]
    assert entry.status is Status.OK
    assert entry.lhs == combine(f, f, CombineMode.TENSOR)
    assert entry.lhs.degree == 16


def test_identity_report_jobs_deterministic(curve_11a1):
    serial = identity_report(Identity.SYM3_EXT2, 80, source=curve_11a1)
    again = identity_report(Identity.SYM3_EXT2, 80, source=curve_11a1)
    assert serial == again
    primes = [e.prime for e in serial.entries]
    assert primes == sorted(primes)


def test_verify_identity_needs_inputs(curve_11a1):
    with pytest.raises(InputError):
        verify_identity(Identity.SYM2_IND, 5)
    with pytest.raises(InputError):
        verify_identity(Identity.TENSOR_EXT2, 5, source=curve_11a1)


def test_identity_report_needs_inputs_without_primes(curve_11a1, chi_gauss):
    # checked once, before any prime: pmax = 1 leaves none
    with pytest.raises(InputError):
        identity_report(Identity.SYM3_EXT2, 1, chi=chi_gauss)
    with pytest.raises(InputError):
        identity_report(Identity.TENSOR_EXT2, 1, source=curve_11a1)
    assert identity_report(Identity.SYM2_IND, 1, chi=chi_gauss).entries == ()


# ---------------------------------------------------------------------------
# degree-5 extraction

def test_degree5_sym3_at_two(curve_11a1):
    pi = plethysm(local_factor_gl2(curve_11a1, 2), Functor.SYM3)
    std = degree5_factor(pi)
    assert std.coeffs == (1, 8, 0, 0, -4096, -32768)
    assert std.degree == 5 and std.weight == 6


def test_degree5_supersingular(curve_11a1):
    # a_19 = 0: spin factor (1 + p^3 T^2)^2, quotient (1-p^3T)^3(1+p^3T)^2
    pi = plethysm(local_factor_gl2(curve_11a1, 19), Functor.SYM3)
    q = 19**3
    assert pi.coeffs == (1, 0, 2 * q, 0, q * q)
    std = degree5_factor(pi)
    check = combine(
        combine(tate_factor(19, 3), tate_factor(19, 3), CombineMode.SUM),
        combine(tate_factor(19, 3), LocalFactor(19, 6, (1, q)), CombineMode.SUM),
        CombineMode.SUM,
    )
    check = combine(check, LocalFactor(19, 6, (1, q)), CombineMode.SUM)
    assert std == check


def test_degree5_not_symplectic():
    control = LocalFactor(2, 3, (1, 1, 1, 1, 1))
    with pytest.raises(NotSymplecticError):
        degree5_factor(control)


def test_degree5_tensor_construction(curve_11a1, chi_gauss):
    from siegellift.heckechar import induced_factor

    for p in (3, 5, 7, 13):
        spin = combine(
            local_factor_gl2(curve_11a1, p), induced_factor(chi_gauss, p), CombineMode.TENSOR
        )
        std = degree5_factor(spin)
        assert std.degree == 5 and std.weight == 10


# ---------------------------------------------------------------------------
# levels

def test_level_rules():
    assert level(LevelRule.SYM3, 11) == 11
    assert level(LevelRule.TWIST, 11, 4) == 1936
    with pytest.raises(UnsupportedLevelError):
        level(LevelRule.SYM3, 12)
    with pytest.raises(UnsupportedLevelError):
        level(LevelRule.TWIST, 11, 11)
    with pytest.raises(InputError):
        level(LevelRule.TWIST, 11)


# ---------------------------------------------------------------------------
# predictions

def test_predict_sym3_11a1(curve_11a1):
    pred = predict_siegel(curve_11a1, pmax=20)
    assert pred.level == 11
    assert pred.classification.siegel_kind is SiegelKind.SCALAR
    assert pred.classification.scalar_weight == 3
    assert pred.spin_factors[2].coeffs == (1, 0, 0, 0, 64)
    assert pred.spin_factors[11].coeffs == (1, -1, 0, 0, 0)  # Steinberg line
    assert 11 not in pred.std_factors
    assert pred.flags == {"cap": False, "endoscopic": False}
    assert pred.verification.ok
    assert any("conductor exponent 3" in note for note in pred.notes)
    assert "11" in pred.iwahori_note


def test_predict_rejects_incompatible_character(curve_11a1):
    with pytest.raises(UnitCompatibilityError):
        predict_siegel(curve_11a1, chi=AntiCycChar(ImagQuadField(-4), 1), pmax=10)


def test_predict_delta(delta_form):
    pred = predict_siegel(delta_form, pmax=10)
    assert pred.level == 1
    assert pred.classification.siegel_kind is SiegelKind.VECTOR
    assert pred.classification.vector_weight == (33, 11)
    assert pred.spin_factors[2] == plethysm(LocalFactor(2, 11, (1, 24, 2048)), Functor.SYM3)
    assert pred.verification.ok
    assert "no prime divides the level exactly once" in pred.iwahori_note


def test_predict_tensor(curve_11a1, chi_gauss):
    pred = predict_siegel(curve_11a1, chi=chi_gauss, pmax=30)
    assert pred.level == 1936
    assert pred.transfer == "tensor"
    assert pred.arch.exponents == (5, 3)
    assert pred.classification.siegel_kind is SiegelKind.VECTOR
    for p, f in pred.spin_factors.items():
        assert f.weight == 5 and f.degree == 4
    assert 2 not in pred.spin_factors and 11 not in pred.spin_factors
    assert pred.verification.ok


def test_predict_parity_gate(curve_11a1):
    odd_form = NewformData(3, 49)
    with pytest.raises(InputError):
        predict_siegel(odd_form)  # odd weight, trivial character: no sym3 path
    with pytest.raises(ParityError):
        predict_siegel(
            NewformData(3, 5, eigenvalues={2: 1}),
            chi=AntiCycChar(ImagQuadField(-7), 1),
            pmax=10,
        )


def test_predict_unsupported_level():
    # supplied conductors are trusted; a non-squarefree one has no level rule
    curve = CurveData(0, 0, 0, 0, 2, conductor=36)
    with pytest.raises(UnsupportedLevelError):
        predict_siegel(curve, pmax=10)
    # without a supplied conductor, additive reduction blocks deriving one
    with pytest.raises(InputError):
        predict_siegel(CurveData(0, 0, 0, 0, 2), pmax=10)


# ---------------------------------------------------------------------------
# Dirichlet expansion

def zeta_object(bound, altered_at=None):
    factors = {}
    for p in primes_upto(bound):
        if p == altered_at:
            factors[p] = LocalFactor(p, 0, (1, -2))
        else:
            factors[p] = LocalFactor(p, 0, (1, -1))
    return LObject("zeta", 0, factors)


def test_dirichlet_zeta():
    a = dirichlet_coeffs(zeta_object(10), 10)
    assert a[1:] == [1] * 10


def test_dirichlet_sym3(curve_11a1):
    obj = sym3_object(curve_11a1, 4)
    a = dirichlet_coeffs(obj, 4)
    # 1/(1 + 64 T^4) has no T or T^2 term; a_3 = -(c_1 of the p=3 factor)
    assert a[1] == 1 and a[2] == 0 and a[4] == 0
    assert a[3] == 5


def test_dirichlet_single_prime_recursion():
    obj = LObject("p2", 1, {2: LocalFactor(2, 1, (1, 2, 2))})
    with pytest.raises(MissingPrimeError):
        dirichlet_coeffs(obj, 8)
    a = dirichlet_coeffs(obj, 2)
    assert a[2] == -2
    full = {p: LocalFactor(p, 1, (1, 0)) for p in primes_upto(8)}
    full[2] = LocalFactor(2, 1, (1, 2, 2))
    a = dirichlet_coeffs(LObject("p2-padded", 1, full), 8)
    assert (a[2], a[4], a[8]) == (-2, 2, 0)
    assert a[3] == a[5] == a[6] == a[7] == 0


def test_dirichlet_multiplicativity(curve_11a1):
    obj = gl2_object(curve_11a1, 60)
    a = dirichlet_coeffs(obj, 60)
    for m, n in [(2, 3), (3, 5), (4, 7), (5, 11), (6, 7)]:
        assert a[m * n] == a[m] * a[n]
    # Hecke recursion at p = 2: a_4 = a_2^2 - 2
    assert a[4] == a[2] * a[2] - 2


def test_compare_coeffwise():
    assert compare_coeffwise(zeta_object(12), zeta_object(12), 12).equal
    res = compare_coeffwise(zeta_object(12), zeta_object(12, altered_at=7), 12)
    assert not res.equal and res.first_mismatch == 7


def test_lambda2_sym3_cross_check(curve_11a1):
    lhs, rhs = lambda2_sym3_objects(curve_11a1, 300)
    assert compare_coeffwise(lhs, rhs, 300).equal


def test_lobject_weight_invariant():
    with pytest.raises(InputError):
        LObject("bad", 1, {2: LocalFactor(2, 0, (1, -1))})
    with pytest.raises(InputError):
        LObject("bad", 0, {3: LocalFactor(2, 0, (1, -1))})


# ---------------------------------------------------------------------------
# evaluation

def test_eval_zeta():
    res = eval_partial(zeta_object(10**4), 2.0, 10**4)
    assert abs(res.value - math.pi**2 / 6) < 1e-4
    assert res.tail_bound >= abs(res.value - math.pi**2 / 6)


def test_eval_boundary_rejected():
    with pytest.raises(ConvergenceDomainError):
        eval_partial(zeta_object(100), 1.0, 100)


def test_eval_self_consistency(curve_11a1):
    obj = gl2_object(curve_11a1, 10**4)
    small = eval_partial(obj, 2.0, 10**3)
    big = eval_partial(obj, 2.0, 10**4)
    assert abs(small.value - big.value) <= small.tail_bound
    with pytest.raises(ConvergenceDomainError):
        eval_partial(obj, 1.5, 100)  # boundary s = w/2 + 1 excluded


# ---------------------------------------------------------------------------
# eigenvalue cross-check

def test_ap_match(curve_11a1, delta_path, tmp_path):
    lines = ["weight 2 level 11 character trivial"]
    for p in primes_upto(30):
        from siegellift.modform import reduction_at

        lines.append(f"{p} {reduction_at(curve_11a1, p).ap}")
    good = tmp_path / "good.txt"
    good.write_text("\n".join(lines) + "\n")
    report = ap_match_report(curve_11a1, parse_eigenfile(good))
    assert report.ok

    lines[1] = "2 7"  # corrupt a_2 (also breaks the Hasse bound: warning)
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    from siegellift.modform import RamanujanBoundWarning

    with pytest.warns(RamanujanBoundWarning):
        corrupted = parse_eigenfile(bad)
    report = ap_match_report(curve_11a1, corrupted)
    assert not report.ok
    failing = [e for e in report.entries if e.status is Status.FAIL]
    assert len(failing) == 1 and failing[0].prime == 2

    with pytest.raises(InputError):
        ap_match_report(curve_11a1, parse_eigenfile(delta_path))  # weight 12 table


# ---------------------------------------------------------------------------
# every consumer reads the same local data

def _sources(delta_form):
    curve = CurveData(0, -1, 1, 0, 0, conductor=11)
    return {
        "11a3": (curve, None),
        "delta": (delta_form, None),
        "11a3 x chi(-4, 2)": (curve, AntiCycChar(ImagQuadField(-4), 2)),
        "additive, no conductor": (CurveData(0, 0, 0, 0, 2), None),  # y^2 = x^3 + 2
    }


def _object(source, chi, bound):
    return sym3_object(source, bound) if chi is None else tensor_object(source, chi, bound)


def _assert_cut(obj, whole, bound):
    """obj's factor at p is whole[p] (the spin factor of local_data) cut
    after c_e, p^e <= bound (at most c_4); 1 where whole[p] is None, a bad
    or ramified prime of the tensor product."""
    assert obj.factors.keys() == whole.keys()
    for p, f in whole.items():
        got = obj.factors[p]
        if f is None:
            assert got == one(p, 4, obj.weight)
        else:
            e = max(e for e in range(1, 9) if e == 1 or p**e <= bound)
            assert got.coeffs == f.coeffs[: min(e, 4) + 1] and got.weight == f.weight


@pytest.mark.parametrize("name", ["11a3", "delta", "11a3 x chi(-4, 2)", "additive, no conductor"])
def test_consumers_agree(delta_form, name):
    source, chi = _sources(delta_form)[name]
    record = local_data(source, chi, 5)
    assert pickle.loads(pickle.dumps(record)) == record
    pmax = 100
    primes = primes_upto(pmax)
    etas = {p: local_factor_gl2(source, p) for p in primes}
    assert gl2_object(source, pmax).factors == etas
    whole = {p: local_data(source, chi, p).spin for p in primes}
    if name == "additive, no conductor":
        assert etas[2].coeffs == etas[3].coeffs == (1, 0, 0)
        with pytest.raises(InputError):
            predict_siegel(source, pmax=pmax)
    else:
        spins = predict_siegel(source, chi, pmax=pmax).spin_factors
        assert spins == {p: f for p, f in whole.items() if f is not None}
    _assert_cut(_object(source, chi, pmax), whole, pmax)
    if chi is None:
        assert whole == {p: plethysm(etas[p], Functor.SYM3) for p in primes}
        lhs, rhs = lambda2_sym3_objects(source, pmax)
        assert lhs.factors == rhs.factors
        for p in primes:
            if local_data(source, None, p).regime != "good":
                assert lhs.factors[p] == plethysm(whole[p], Functor.EXT2)
    else:
        bad = [p for p in primes if whole[p] is None]
        assert bad == [2, 11]  # ramified in Q(i), bad for the curve
        for p in primes:
            if p not in bad:
                assert whole[p] == combine(etas[p], induced_factor(chi, p), CombineMode.TENSOR)


@pytest.mark.parametrize("name", ["11a3", "delta", "11a3 x chi(-4, 2)"])
def test_truncated_objects_match_whole_factors(delta_form, name):
    """The builders stop the factor at p after c_e, p^e <= X (at most c_4):
    coefficient by coefficient those of the whole factor, with the same
    Dirichlet coefficients and partial sums, and degree 4 even when X
    leaves no factor."""
    source, chi = _sources(delta_form)[name]
    for bound in (1, 2, 10, 30, 211):
        cut = _object(source, chi, bound)
        spins = {p: local_data(source, chi, p).spin for p in primes_upto(bound)}
        _assert_cut(cut, spins, bound)
        whole = LObject("", cut.weight, {
            p: one(p, 4, cut.weight) if f is None else f for p, f in spins.items()
        }, degree=4)
        assert cut.degree == 4
        assert dirichlet_coeffs(cut, bound) == dirichlet_coeffs(whole, bound)
        s = cut.weight / 2 + 2
        got, want = eval_partial(cut, s, bound), eval_partial(whole, s, bound)
        assert (got.value, got.tail_bound) == (want.value, want.tail_bound)


def test_tensor_object_splits_each_prime_once(monkeypatch):
    # induced_factor passes its splitting on to the prime above p
    calls = []
    split = heckechar.splitting
    monkeypatch.setattr(heckechar, "splitting", lambda field, p: calls.append(p) or split(field, p))
    curve_43a1 = CurveData(0, 1, 1, 0, 0, conductor=43)
    tensor_object(curve_43a1, AntiCycChar(ImagQuadField(-163), 2), 5000)
    assert len(calls) == 669 and calls == primes_upto(5000)
