"""Identity verification, degree-5 extraction, levels, predictions,
Dirichlet expansion."""

import math
import pickle
import random
import sys
from fractions import Fraction

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
    ReportEntry,
    SiegelKind,
    Status,
    classify,
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
    spin_object,
    tate_factor,
    verify_identity,
)
from siegellift.errors import InputError, NotSymplecticError, UnsupportedLevelError
from siegellift import heckechar, modform
from siegellift.predictor import ap_match_report
from siegellift._primes import factorize, primes_upto
from siegellift.lseries import _exponent
from siegellift.modform import parse_eigenfile


# ---------------------------------------------------------------------------
# identities

def test_sym3_ext2_at_two(curve_11a3):
    entry = verify_identity(Identity.SYM3_EXT2, 2, source=curve_11a3)
    assert entry.status is Status.OK
    # (1+8T)^2 (1-8T)^2 (1+64T^2) expanded
    assert entry.lhs.coeffs == (1, 0, -64, 0, -4096, 0, 262144)


def test_sym3_ext2_good_primes(curve_11a3):
    report = identity_report(Identity.SYM3_EXT2, 100, source=curve_11a3)
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


def test_tensor_ext2_weight_ledger(curve_11a3, chi_gauss):
    # spin weight k-1+w = 5 throughout
    for p in primes_upto(60):
        entry = verify_identity(Identity.TENSOR_EXT2, p, source=curve_11a3, chi=chi_gauss)
        if p in (2, 11):
            assert entry.status is Status.SKIPPED
        else:
            assert entry.status is Status.OK
            assert entry.lhs.weight == 10  # Lambda^2 of weight-5 spin


def test_tensor_square_formal(curve_11a3):
    # predict checks tensor-square on the degree-4 spin factor
    f = plethysm(local_factor_gl2(curve_11a3, 3), Functor.SYM3)
    rows = predict_siegel(curve_11a3, pmax=3).verification.entries
    (entry,) = [e for e in rows if e.prime == 3 and e.identity == Identity.TENSOR_SQ.value]
    assert entry.status is Status.OK
    assert entry.lhs == combine(f, f, CombineMode.TENSOR)
    assert entry.lhs.degree == 16


def test_report_entry_json_renders_equal_sides_once(curve_11a3):
    ok = verify_identity(Identity.SYM3_EXT2, 5, source=curve_11a3)
    assert ok.status is Status.OK and ok.lhs.degree == 6
    data = ok.to_json()
    assert data["lhs"] == ok.lhs.to_json() == ok.rhs.to_json()
    assert data["rhs"] is data["lhs"]  # the coefficients went through str() once
    f, g = LocalFactor(5, 1, (1, 2, 5)), LocalFactor(5, 1, (1, -2, 5))
    for lhs, rhs in ((f, g), (f, LocalFactor(5, 1, (1, 2, 5)))):
        data = ReportEntry(5, "x", Status.FAIL, "exact mismatch", lhs, rhs).to_json()
        assert (data["lhs"], data["rhs"]) == (lhs.to_json(), rhs.to_json())
        assert data["rhs"] is not data["lhs"]
    data = ReportEntry(5, "r5-extract", Status.OK, "", f).to_json()
    assert (data["lhs"], data["rhs"]) == (f.to_json(), None)


def test_identity_report_jobs_deterministic(curve_11a3):
    serial = identity_report(Identity.SYM3_EXT2, 80, source=curve_11a3)
    again = identity_report(Identity.SYM3_EXT2, 80, source=curve_11a3)
    assert serial == again
    primes = [e.prime for e in serial.entries]
    assert primes == sorted(primes)


def test_verify_identity_needs_inputs(curve_11a3):
    with pytest.raises(InputError):
        verify_identity(Identity.SYM2_IND, 5)
    with pytest.raises(InputError):
        verify_identity(Identity.TENSOR_EXT2, 5, source=curve_11a3)


def test_verify_identity_rejects_inputs_it_never_reads(curve_11a3, delta_form, chi_gauss):
    for name in (Identity.SYM3_EXT2, Identity.TENSOR_SQ):
        with pytest.raises(InputError, match="reads no character"):
            verify_identity(name, 5, source=curve_11a3, chi=chi_gauss)
    for source, flag in ((curve_11a3, "--curve"), (delta_form, "--eigenfile")):
        with pytest.raises(InputError, match=f"reads no curve or newform: drop {flag}"):
            identity_report(Identity.SYM2_IND, 1, source=source, chi=chi_gauss)


def test_identity_report_needs_inputs_without_primes(curve_11a3, chi_gauss):
    # checked once, before any prime: pmax = 1 leaves none
    with pytest.raises(InputError):
        identity_report(Identity.SYM3_EXT2, 1, chi=chi_gauss)
    with pytest.raises(InputError):
        identity_report(Identity.TENSOR_EXT2, 1, source=curve_11a3)
    assert identity_report(Identity.SYM2_IND, 1, chi=chi_gauss).entries == ()
    # the name first: without a source it raised AttributeError, with one it gave an empty report
    for source in (None, curve_11a3):
        with pytest.raises(InputError, match="^unknown identity 'bogus'$"):
            identity_report("bogus", 1, source=source)


# ---------------------------------------------------------------------------
# degree-5 extraction

def test_degree5_sym3_at_two(curve_11a3):
    pi = plethysm(local_factor_gl2(curve_11a3, 2), Functor.SYM3)
    std = degree5_factor(pi)
    assert std.coeffs == (1, 8, 0, 0, -4096, -32768)
    assert std.degree == 5 and std.weight == 6


def test_degree5_supersingular(curve_11a3):
    # a_19 = 0: spin factor (1 + p^3 T^2)^2, quotient (1-p^3T)^3(1+p^3T)^2
    pi = plethysm(local_factor_gl2(curve_11a3, 19), Functor.SYM3)
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


def test_degree5_tensor_construction(curve_11a3, chi_gauss):
    from siegellift.heckechar import induced_factor

    for p in (3, 5, 7, 13):
        spin = combine(
            local_factor_gl2(curve_11a3, p), induced_factor(chi_gauss, p), CombineMode.TENSOR
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

def test_predict_sym3_11a3(curve_11a3):
    pred = predict_siegel(curve_11a3, pmax=20)
    assert pred.level == 11
    assert classify(pred.arch).siegel_kind is SiegelKind.SCALAR
    assert classify(pred.arch).scalar_weight == 3
    assert pred.spin_factors[2].coeffs == (1, 0, 0, 0, 64)
    assert pred.spin_factors[11].coeffs == (1, -1, 0, 0, 0)  # Steinberg line
    assert 11 not in pred.std_factors
    assert pred.to_json()["flags"] == {"cap": False, "endoscopic": False}
    assert pred.verification.ok
    assert any("conductor exponent 3" in note for note in pred.notes)
    assert "11" in pred.iwahori_note


def test_predict_rejects_incompatible_character(curve_11a3):
    with pytest.raises(InputError, match="^D=-4 has units of order 4: m must be even$"):
        predict_siegel(curve_11a3, chi=AntiCycChar(ImagQuadField(-4), 1), pmax=10)


def test_predict_delta(delta_form):
    pred = predict_siegel(delta_form, pmax=10)
    assert pred.level == 1
    assert classify(pred.arch).siegel_kind is SiegelKind.VECTOR
    assert classify(pred.arch).vector_weight == (33, 11)
    assert pred.spin_factors[2] == plethysm(LocalFactor(2, 11, (1, 24, 2048)), Functor.SYM3)
    assert pred.verification.ok
    assert "no prime divides the level exactly once" in pred.iwahori_note


def test_predict_tensor(curve_11a3, chi_gauss):
    pred = predict_siegel(curve_11a3, chi=chi_gauss, pmax=30)
    assert pred.level == 1936
    assert pred.transfer == "tensor"
    assert pred.arch.exponents == (5, 3)
    assert classify(pred.arch).siegel_kind is SiegelKind.VECTOR
    assert sorted(pred.spin_factors) == primes_upto(30)
    for p, f in pred.spin_factors.items():
        assert f.weight == 5 and f.degree == 4
    # ramified in Q(i), bad for the curve
    assert pred.spin_factors[2].coeffs == (1, -8, 32, 0, 0)
    assert pred.spin_factors[11].coeffs == (1, 0, -14641, 0, 0)
    assert pred.verification.ok


def test_predict_parity_gate():
    # eta(z)^3 eta(7z)^3: a delta table, refused by verify's trivial-character
    # rule for both transfers
    table = NewformData(3, 7, -7, {2: -3, 3: 0, 5: 0, 7: -7})
    message = "^predict needs a trivial character, the table declares delta -7$"
    for chi in (None, AntiCycChar(ImagQuadField(-7), 1)):
        with pytest.raises(InputError, match=message):
            predict_siegel(table, chi=chi, pmax=10)


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


def test_dirichlet_sym3(curve_11a3):
    obj = spin_object(curve_11a3, None, 4)
    a = dirichlet_coeffs(obj, 4)
    # 1/(1 + 64 T^4) has no T or T^2 term; a_3 = -(c_1 of the p=3 factor)
    assert a[1] == 1 and a[2] == 0 and a[4] == 0
    assert a[3] == 5


def test_dirichlet_single_prime_recursion():
    obj = LObject("p2", 1, {2: LocalFactor(2, 1, (1, 2, 2))})
    with pytest.raises(InputError, match=r"^no local factor stored at primes \[3, 5, 7\]$"):
        dirichlet_coeffs(obj, 8)
    a = dirichlet_coeffs(obj, 2)
    assert a[2] == -2
    full = {p: LocalFactor(p, 1, (1, 0)) for p in primes_upto(8)}
    full[2] = LocalFactor(2, 1, (1, 2, 2))
    a = dirichlet_coeffs(LObject("p2-padded", 1, full), 8)
    assert (a[2], a[4], a[8]) == (-2, 2, 0)
    assert a[3] == a[5] == a[6] == a[7] == 0


def test_dirichlet_multiplicativity(curve_11a3):
    obj = gl2_object(curve_11a3, 60)
    a = dirichlet_coeffs(obj, 60)
    for m, n in [(2, 3), (3, 5), (4, 7), (5, 11), (6, 7)]:
        assert a[m * n] == a[m] * a[n]
    # Hecke recursion at p = 2: a_4 = a_2^2 - 2
    assert a[4] == a[2] * a[2] - 2


def _inverse_series(coeffs, n):
    """1/F(T) to O(T^n) as the geometric series sum_k (1 - F(T))^k."""
    g = ([0] + [-c for c in coeffs[1:]] + [0] * n)[:n]
    out, power = [0] * n, [1] + [0] * (n - 1)
    for _ in range(n):
        out = [x + y for x, y in zip(out, power)]
        power = [sum(power[j] * g[i - j] for j in range(i + 1)) for i in range(n)]
    return out


def test_dirichlet_coeffs_match_the_factorization_oracle():
    """Random factors of degree 0-4, with zero and trailing-zero
    coefficients, about half of them cut after c_e (p^e <= X) as the
    builders cut them: a_n is the product, over the p^e exactly dividing n,
    of the T^e coefficient of 1/F_p."""
    rng = random.Random(2206)
    for bound in [1, 2, 3, 8, 30, 64, 97, 210, 300] + [rng.randrange(1, 301) for _ in range(12)]:
        whole, cut = {}, {}
        for p in primes_upto(bound):
            coeffs = (1,) + tuple(rng.choice((0, 0, 1, -1, rng.randrange(-50, 51)))
                                  for _ in range(rng.randrange(5)))
            whole[p] = LocalFactor(p, 3, coeffs)
            cut[p] = LocalFactor(p, 3, coeffs[:_exponent(p, bound) + 1]) if rng.random() < 0.5 else whole[p]
        inverse = {p: _inverse_series(f.coeffs, bound.bit_length()) for p, f in whole.items()}
        a = dirichlet_coeffs(LObject("random", 3, cut, degree=4), bound)
        assert len(a) == bound + 1 and a[0] == 0
        for n in range(1, bound + 1):
            assert a[n] == math.prod(inverse[p][e] for p, e in factorize(n)), (bound, n)


def test_compare_coeffwise():
    assert compare_coeffwise(zeta_object(12), zeta_object(12), 12).equal
    res = compare_coeffwise(zeta_object(12), zeta_object(12, altered_at=7), 12)
    assert not res.equal and res.first_mismatch == 7


def test_lambda2_sym3_cross_check(curve_11a3):
    lhs, rhs = lambda2_sym3_objects(curve_11a3, 300)
    assert compare_coeffwise(lhs, rhs, 300).equal


def test_lambda2_sym3_objects_refuse_a_character():
    # the twisted Sym^4 side is stated for det = p^(k-1)
    table = NewformData(3, 7, -7, {2: -3, 3: 0, 5: 0, 7: -7})
    with pytest.raises(InputError, match="trivial character"):
        lambda2_sym3_objects(table, 5)


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
    with pytest.raises(InputError, match="^s = 1.0 is not a finite point of the convergence region s > 1.0$"):
        eval_partial(zeta_object(100), 1.0, 100)


def test_eval_self_consistency(curve_11a3):
    obj = gl2_object(curve_11a3, 10**4)
    small = eval_partial(obj, 2.0, 10**3)
    big = eval_partial(obj, 2.0, 10**4)
    assert abs(small.value - big.value) <= small.tail_bound
    with pytest.raises(InputError, match="^s = 1.5 is not a finite point of the convergence region s > 1.5$"):
        eval_partial(obj, 1.5, 100)  # boundary s = w/2 + 1 excluded


@pytest.mark.parametrize("s", [300, 210])
def test_eval_past_the_float_range(delta_form, s):
    # weight 411: some a_n of delta x chi(-4, 200) overflow a float, their
    # terms a_n n^(-s) do not
    obj = spin_object(delta_form, AntiCycChar(ImagQuadField(-4), 200), 211)
    coeffs = dirichlet_coeffs(obj, 211)
    assert sum(abs(c) > sys.float_info.max for c in coeffs) == 67
    exact = float(sum(Fraction(c, n**s) for n, c in enumerate(coeffs) if c))
    assert eval_partial(obj, s, 211).value == pytest.approx(exact, rel=1e-12)


# ---------------------------------------------------------------------------
# eigenvalue cross-check

def test_ap_match(curve_11a3, delta_path, tmp_path):
    lines = ["weight 2 level 11 character trivial"]
    for p in primes_upto(30):
        from siegellift.modform import reduction_at

        lines.append(f"{p} {reduction_at(curve_11a3, p).ap}")
    good = tmp_path / "good.txt"
    good.write_text("\n".join(lines) + "\n")
    report = ap_match_report(curve_11a3, parse_eigenfile(good))
    assert report.ok

    lines[1] = "2 2"  # corrupt a_2 = -2, inside Deligne's bound
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    report = ap_match_report(curve_11a3, parse_eigenfile(bad))
    assert not report.ok
    failing = [e for e in report.entries if e.status is Status.FAIL]
    assert len(failing) == 1 and failing[0].prime == 2

    lines[1] = "2 7"  # past the bound: refused when the table is read, before any check
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError, match="^a_2 = 7 violates"):
        parse_eigenfile(bad)

    with pytest.raises(InputError):
        ap_match_report(curve_11a3, parse_eigenfile(delta_path))  # weight 12 table


# ---------------------------------------------------------------------------
# every consumer reads the same local data

def _sources(delta_form):
    curve = CurveData(0, -1, 1, 0, 0, conductor=11)
    additive = CurveData(0, 0, 0, 0, 2)  # y^2 = x^3 + 2, additive at 2 and 3

    def chi(D, m):
        return AntiCycChar(ImagQuadField(D), m)

    return {
        "11a3": (curve, None),
        "delta": (delta_form, None),
        "11a3 x chi(-4, 2)": (curve, chi(-4, 2)),
        "11a3 x chi(-7, 2)": (curve, chi(-7, 2)),
        "11a3 x chi(-3, 3)": (curve, chi(-3, 3)),
        "11a3 x chi(-11, 2)": (curve, chi(-11, 2)),  # 11 is bad for the curve and ramified
        "delta x chi(-4, 2)": (delta_form, chi(-4, 2)),
        "additive, no conductor": (additive, None),
        "additive, no conductor x chi(-4, 2)": (additive, chi(-4, 2)),
    }


#: The primes p <= 100 of each tensor source where the curve or form is bad
#: or p ramifies in the field of chi.
_SKIPPED = {
    "11a3 x chi(-4, 2)": [2, 11],
    "11a3 x chi(-7, 2)": [7, 11],
    "11a3 x chi(-3, 3)": [3, 11],
    "11a3 x chi(-11, 2)": [11],
    "delta x chi(-4, 2)": [2],
    "additive, no conductor x chi(-4, 2)": [2, 3],
}
_NAMES = ["11a3", "delta", "additive, no conductor", *_SKIPPED]


def _assert_cut(obj, whole, bound):
    """obj's factor at p is whole[p] (the spin factor of local_data) cut
    after c_e, p^e <= bound (at most c_4)."""
    assert obj.factors.keys() == whole.keys()
    for p, f in whole.items():
        got = obj.factors[p]
        e = max(e for e in range(1, 9) if e == 1 or p**e <= bound)
        assert got.coeffs == f.coeffs[: min(e, 4) + 1] and got.weight == f.weight


@pytest.mark.parametrize("name", _NAMES)
def test_consumers_agree(delta_form, name):
    source, chi = _sources(delta_form)[name]
    record = local_data(source, chi, 5)
    assert pickle.loads(pickle.dumps(record)) == record
    pmax = 100
    primes = primes_upto(pmax)
    etas = {p: local_factor_gl2(source, p) for p in primes}
    assert gl2_object(source, pmax).factors == etas
    whole = {p: local_data(source, chi, p).spin for p in primes}
    if name.startswith("additive"):
        assert etas[2].coeffs == etas[3].coeffs == (1, 0, 0)
        with pytest.raises(InputError):
            predict_siegel(source, chi, pmax=pmax)
    elif name == "11a3 x chi(-11, 2)":
        with pytest.raises(UnsupportedLevelError):  # no level rule for gcd(N, D) > 1
            predict_siegel(source, chi, pmax=pmax)
    else:
        assert predict_siegel(source, chi, pmax=pmax).spin_factors == whole
    _assert_cut(spin_object(source, chi, pmax), whole, pmax)
    if chi is None:
        assert whole == {p: plethysm(etas[p], Functor.SYM3) for p in primes}
        lhs, rhs = lambda2_sym3_objects(source, pmax)
        assert lhs.factors == rhs.factors
        for p in primes:
            if local_data(source, None, p).skip:
                assert lhs.factors[p] == plethysm(whole[p], Functor.EXT2)
    else:
        skipped = [p for p in primes if local_data(source, chi, p).skip]
        assert skipped == _SKIPPED[name]
        assert whole == {p: combine(etas[p], induced_factor(chi, p), CombineMode.TENSOR) for p in primes}


def _substituted(f, r):
    """f with T -> r T, padded to degree 4: the tensor product of f with
    the line 1 - r T, by substitution rather than power sums."""
    return tuple(c * r**i for i, c in enumerate(f.coeffs)) + (0,) * (4 - f.degree)


@pytest.mark.parametrize(
    "name, D, m, bad",
    [
        ("11a3", -4, 2, [2, 11]),
        ("11a3", -7, 2, [7, 11]),
        ("delta", -4, 2, [2]),
        ("11a3", -11, 2, [11]),  # 11 is bad for the curve and ramified
    ],
    ids=["11a3 x chi(-4, 2)", "11a3 x chi(-7, 2)", "delta x chi(-4, 2)", "11a3 x chi(-11, 2)"],
)
def test_tensor_factor_at_bad_and_ramified_primes(curve_11a3, delta_form, name, D, m, bad):
    """At p | N D the tensor factor is Ind chi_p with T -> a_p T (p | N), or
    eta with T -> chi(pi) T (p | D); its identity rows stay SKIPPED."""
    source, conductor = (curve_11a3, 11) if name == "11a3" else (delta_form, 1)
    chi = AntiCycChar(ImagQuadField(D), m)
    records = {p: local_data(source, chi, p) for p in primes_upto(100)}
    assert [p for p, ld in records.items() if ld.skip] == bad
    for p in bad:
        ld = records[p]
        if conductor % p == 0:
            assert ld.eta.effective_degree <= 1
            want = _substituted(ld.ind, -ld.eta.coeffs[1])  # a_p
        else:
            chi_pi = -ld.ind.coeffs[1]
            assert ld.ind.coeffs == (1, -chi_pi, 0) and chi_pi**2 == p**chi.weight
            want = _substituted(ld.eta, chi_pi)
        assert ld.spin.coeffs == want and ld.spin.weight == source.weight - 1 + chi.weight
    if math.gcd(conductor, D) == 1:  # predict has no level rule otherwise
        rows = predict_siegel(source, chi, pmax=max(bad)).verification.entries
        skipped = {(e.prime, e.identity) for e in rows if e.status is Status.SKIPPED}
        assert {(p, i) for p in bad for i in ("tensor-ext2", "r5-extract")} <= skipped


@pytest.mark.parametrize("name", _NAMES)
def test_truncated_objects_match_whole_factors(delta_form, name):
    """The builders stop the factor at p after c_e, p^e <= X (at most c_4):
    coefficient by coefficient those of the whole factor, with the same
    Dirichlet coefficients and partial sums, and degree 4 even when X
    leaves no factor."""
    source, chi = _sources(delta_form)[name]
    for bound in (1, 2, 10, 30, 211):
        cut = spin_object(source, chi, bound)
        spins = {p: local_data(source, chi, p).spin for p in primes_upto(bound)}
        _assert_cut(cut, spins, bound)
        whole = LObject("", cut.weight, spins, degree=4)
        assert cut.degree == 4
        assert dirichlet_coeffs(cut, bound) == dirichlet_coeffs(whole, bound)
        s = cut.weight / 2 + 2
        got, want = eval_partial(cut, s, bound), eval_partial(whole, s, bound)
        assert (got.value, got.tail_bound) == (want.value, want.tail_bound)


def test_tensor_object_splits_each_prime_once(monkeypatch):
    # induced_factor splits each prime once, and the trace above p needs no second splitting
    calls = []
    split = heckechar.splitting
    monkeypatch.setattr(heckechar, "splitting", lambda field, p: calls.append(p) or split(field, p))
    curve_43a1 = CurveData(0, 1, 1, 0, 0, conductor=43)
    spin_object(curve_43a1, AntiCycChar(ImagQuadField(-163), 2), 5000)
    assert len(calls) == 669 and calls == primes_upto(5000)


def test_tensor_object_counts_points_only_where_the_cut_factor_reads_a_p(monkeypatch):
    # above sqrt(X) the cut factor keeps c_1 = -a_p tr(Ind chi_p), and the
    # trace is 0 at the primes inert in Q(i), p = 3 mod 4
    counted = []
    count = modform._ap_good_cached
    monkeypatch.setattr(modform, "_ap_good_cached", lambda curve, p: counted.append(p) or count(curve, p))
    spin_object(CurveData(0, -1, 1, 0, 0, conductor=11), AntiCycChar(ImagQuadField(-4), 2), 5000)
    assert counted == [p for p in primes_upto(5000) if p != 11 and (p % 4 != 3 or p * p <= 5000)]


@pytest.mark.parametrize("build", [lambda form: spin_object(form, None, 2),
                                   lambda form: spin_object(form, AntiCycChar(ImagQuadField(-4), 2), 2)],
                         ids=["sym3", "tensor"])
def test_builders_refuse_a_float_eigenvalue(build):
    # a table changed after it was built may hold a float a_p; the builders
    # reject it as the coefficient of the form's factor, never as a float
    # spin factor
    form = NewformData(12, 1, eigenvalues={2: -24})
    form.eigenvalues[2] = -24.0
    with pytest.raises(InputError) as raised:
        build(form)
    assert str(raised.value) == "local factor coefficients must be int, got float 24.0"
