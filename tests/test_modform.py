"""Curve reduction, point counting, eigenvalue files."""

import io
import random
import time

import pytest

from siegellift import (
    CurveData,
    ReductionKind,
    ap_good,
    invariants_of,
    is_selfdual_pure,
    local_factor_gl2,
    modform,
    parse_eigenfile,
    point_count,
    reduction_bad,
)
from siegellift.errors import (
    BadPrimeError,
    EigenfileError,
    InputError,
    MissingEigenvalueError,
    NonMinimalModelError,
    SingularModelError,
)
from siegellift.modform import (
    _BSGS_MIN_P,
    CharacterKind,
    NewformData,
    RamanujanBoundWarning,
    _ap_bsgs,
    _ap_charsum,
    invariants_of_raw,
    reduction_at,
)
from siegellift._primes import primes_upto


def translated(curve, r, s, t):
    """Unimodular change of coordinates x -> x + r, y -> y + s x + t (u = 1)."""
    a1, a2, a3, a4, a6 = curve.ainvs
    return CurveData(
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1,
    )


def test_invariants_11a1(curve_11a1):
    b2, b4, b6, b8, disc = invariants_of(curve_11a1)
    assert (b2, b4, b6, b8) == (-4, 0, 1, -1)
    assert disc == -11


def test_invariants_j0_curve():
    assert CurveData(0, 0, 0, 0, 1).discriminant == -432


def test_singular_model_rejected():
    with pytest.raises(SingularModelError):
        CurveData(0, 0, 0, 0, 0)


def test_ap_11a1_small_primes(curve_11a1):
    assert ap_good(curve_11a1, 2) == -2
    assert ap_good(curve_11a1, 3) == -1
    assert ap_good(curve_11a1, 5) == 1
    assert ap_good(curve_11a1, 19) == 0  # supersingular


def test_point_count_matches_definition(curve_11a1):
    # |E(F_2)| = 5: four affine points of y^2 + y = x^3 - x^2 plus infinity
    assert point_count(curve_11a1, 2) == 5
    assert ap_good(curve_11a1, 2) == 2 + 1 - 5


def test_ap_good_rejects_bad_prime(curve_11a1):
    with pytest.raises(BadPrimeError):
        ap_good(curve_11a1, 11)


def test_charsum_agrees_with_enumeration():
    rng = random.Random(314159)
    curves = []
    while len(curves) < 10:
        try:
            curves.append(CurveData(*(rng.randrange(-3, 4) for _ in range(5))))
        except SingularModelError:
            continue
    for curve in curves:
        for p in primes_upto(100):
            if curve.discriminant % p == 0:
                continue
            assert ap_good(curve, p) == p + 1 - point_count(curve, p)


# ---------------------------------------------------------------------------
# Shanks-Mestre baby-step giant-step against the character-sum oracle


def assert_bsgs_matches_charsum(curve, pmax):
    """Above _BSGS_MIN_P the helper must give a_p; at 3 < p <= _BSGS_MIN_P
    it may instead return None, the marker that sends a_p to the fallback."""
    for p in primes_upto(pmax):
        if p <= 3 or curve.discriminant % p == 0:
            continue
        got, want = _ap_bsgs(curve, p), _ap_charsum(curve, p)
        if p > _BSGS_MIN_P:
            assert got == want, (curve.ainvs, p)
        else:
            assert got in (want, None), (curve.ainvs, p)


@pytest.mark.parametrize(
    "ainvs",
    [
        (0, -1, 1, 0, 0),  # 11a3
        (1, 0, 1, 4, -6),  # 14a1
        (1, 1, 1, -10, -10),  # 15a1, torsion Z/4 x Z/2: many orders ambiguous
        (0, 1, 1, -2, 0),  # 389a1
    ],
)
def test_bsgs_agrees_with_charsum(ainvs):
    assert_bsgs_matches_charsum(CurveData(*ainvs), 5000)


def test_bsgs_agrees_with_charsum_on_random_curves():
    rng = random.Random(271828)
    curves = []
    while len(curves) < 10:
        try:
            curves.append(CurveData(*(rng.randrange(-3, 4) for _ in range(5))))
        except SingularModelError:
            continue
    for curve in curves:
        assert_bsgs_matches_charsum(curve, 1500)


def test_bsgs_ambiguity_falls_back_to_charsum(monkeypatch, curve_11a1):
    monkeypatch.setattr(modform, "_ap_bsgs", lambda curve, p: None)
    assert modform._ap_good_cached.__wrapped__(curve_11a1, 1009) == _ap_charsum(curve_11a1, 1009)


def test_charsum_off_the_path_above_the_bound(monkeypatch, curve_11a1):
    def forbidden(curve, p):
        raise AssertionError(f"character sum called at p={p}")

    monkeypatch.setattr(modform, "_ap_charsum", forbidden)
    for p in primes_upto(3000):
        if p > _BSGS_MIN_P:
            modform._ap_good_cached.__wrapped__(curve_11a1, p)


def test_hasse_bound(curve_11a1):
    for p in primes_upto(500):
        if p == 11:
            continue
        ap = ap_good(curve_11a1, p)
        assert ap * ap <= 4 * p


def test_ap_invariant_under_unimodular_change(curve_11a1):
    for (r, s, t) in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -1, 3), (-1, 2, -2)]:
        moved = translated(curve_11a1, r, s, t)
        assert moved.discriminant == curve_11a1.discriminant  # u = 1
        for p in (2, 3, 5, 7, 13):
            assert ap_good(moved, p) == ap_good(curve_11a1, p)


def test_reduction_split_at_11(curve_11a1):
    red = reduction_bad(curve_11a1, 11)
    assert red.kind is ReductionKind.SPLIT_MULT and red.ap == 1


def test_reduction_additive_cusp():
    red = reduction_bad(CurveData(0, 0, 0, 0, 5), 5)  # y^2 = x^3 + 5, cusp mod 5
    assert red.kind is ReductionKind.ADDITIVE and red.ap == 0


def test_reduction_nonsplit():
    # y^2 = x^3 + 2x^2 + 5 reduces mod 5 to a node with slopes in F_25 \ F_5
    red = reduction_bad(CurveData(0, 2, 0, 0, 5), 5)
    assert red.kind is ReductionKind.NONSPLIT_MULT and red.ap == -1
    # same shape with a square tangent-cone coefficient is split
    red = reduction_bad(CurveData(0, 1, 0, 0, 5), 5)
    assert red.kind is ReductionKind.SPLIT_MULT and red.ap == 1


def test_reduction_bad_rejects_good_prime(curve_11a1):
    with pytest.raises(BadPrimeError):
        reduction_bad(curve_11a1, 7)


def test_local_factor_curve(curve_11a1):
    assert local_factor_gl2(curve_11a1, 2).coeffs == (1, 2, 2)
    f11 = local_factor_gl2(curve_11a1, 11)
    assert f11.coeffs == (1, -1, 0) and f11.effective_degree == 1


def test_local_factor_purity(curve_11a1):
    for p in primes_upto(60):
        if p == 11:
            continue
        f = local_factor_gl2(curve_11a1, p)
        assert f.weight == 1 and all(type(c) is int for c in f.coeffs)
        assert is_selfdual_pure(f).ok


def test_local_factor_delta(delta_form):
    f = local_factor_gl2(delta_form, 2)
    assert f.coeffs == (1, 24, 2048)
    assert f.weight == 11


def test_parse_eigenfile_roundtrip(delta_form):
    assert delta_form.weight == 12 and delta_form.level == 1
    assert delta_form.eigenvalues[2] == -24
    assert delta_form.eigenvalues[3] == 252


def test_parse_errors():
    with pytest.raises(EigenfileError):
        parse_eigenfile(io.StringIO("weight 12 level 1 character trivial\n4 5\n"))
    with pytest.raises(EigenfileError):
        parse_eigenfile(io.StringIO("weight 12 level 1 character trivial\n2 -24\n2 0\n"))
    with pytest.raises(EigenfileError):
        parse_eigenfile(io.StringIO("weight 12 level 1 character trivial\n2\n"))
    with pytest.raises(EigenfileError):
        parse_eigenfile(io.StringIO("wheight 12 level 1 character trivial\n"))
    with pytest.raises(EigenfileError):
        parse_eigenfile(io.StringIO("# only a comment\n"))


def test_empty_eigenvalue_section():
    form = parse_eigenfile(io.StringIO("weight 12 level 1 character trivial\n"))
    assert form.eigenvalues == {}
    with pytest.raises(MissingEigenvalueError):
        local_factor_gl2(form, 2)


def test_ramanujan_warning_channel():
    text = "weight 2 level 11 character trivial\n3 100\n"
    with pytest.warns(RamanujanBoundWarning):
        parse_eigenfile(io.StringIO(text))


def test_delta_character_header():
    form = parse_eigenfile(io.StringIO("weight 3 level 49 character delta -7\n2 1\n"))
    assert form.character_disc == -7


def test_bad_reduction_matches_point_count():
    # at p | disc, a_p = p + 1 - #E(F_p) with the singular point counted;
    # u > 1 scales the model so that it is not minimal at the primes of u
    rng = random.Random(2718)
    kind = {1: ReductionKind.SPLIT_MULT, -1: ReductionKind.NONSPLIT_MULT, 0: ReductionKind.ADDITIVE}
    kinds = {2: set(), 3: set()}
    models = 0
    while models < 2000:
        u = rng.choice((1, 1, 2, 3))
        ainvs = (rng.randrange(-6, 7) * u**i for i in (1, 2, 3, 4, 6))
        try:
            curve = CurveData(*ainvs)
        except SingularModelError:
            continue
        models += 1
        for p in primes_upto(60):
            if curve.discriminant % p == 0:
                red, ap = reduction_at(curve, p), p + 1 - point_count(curve, p)
                assert (red.ap, red.kind) == (ap, kind[ap]), (curve.ainvs, p)
                kinds.get(p, set()).add(red.kind)
    assert kinds == {2: set(kind.values()), 3: set(kind.values())}


def test_large_bad_prime_is_not_scanned():
    # disc = -1047779 is prime: the time bound rules out any O(p) work at p
    start = time.perf_counter()
    red = reduction_at(CurveData(0, 0, 1, -1, 49), 1047779)
    assert time.perf_counter() - start < 0.5
    assert red.kind is ReductionKind.NONSPLIT_MULT and red.ap == -1


def test_invariants_raw_consistency():
    # b-invariant syzygy: 4 b8 = b2 b6 - b4^2
    rng = random.Random(161803)
    for _ in range(50):
        a = [rng.randrange(-9, 10) for _ in range(5)]
        b2, b4, b6, b8, _ = invariants_of_raw(*a)
        assert 4 * b8 == b2 * b6 - b4 * b4


def test_curve_json_interface():
    curve = CurveData.from_json({"a": [0, -1, 1, 0, 0], "conductor": 11})
    assert curve.ainvs == (0, -1, 1, 0, 0) and curve.conductor == 11
    assert CurveData.from_json(curve.to_json()) == curve
    with pytest.raises(SingularModelError):
        CurveData.from_json({"a": [0, 0, 0, 0, 0]})


# ---------------------------------------------------------------------------
# a supplied conductor or level must agree with the local data

def test_scaled_model_with_conductor_rejected():
    # 11a3 scaled by u = 2: not minimal at 2, where it reduces to a cusp
    curve = CurveData(0, -4, 8, 0, 0, conductor=11)
    with pytest.raises(NonMinimalModelError, match="p=2"):
        reduction_at(curve, 2)
    with pytest.raises(NonMinimalModelError, match="p=2"):
        local_factor_gl2(curve, 2)
    # without a conductor there is nothing to contradict
    assert reduction_at(CurveData(0, -4, 8, 0, 0), 2).kind is ReductionKind.ADDITIVE


def test_multiplicative_prime_must_divide_conductor_once():
    for n in (1, 121, 11 * 11 * 3):
        with pytest.raises(NonMinimalModelError, match="p=11"):
            reduction_at(CurveData(0, -1, 1, 0, 0, conductor=n), 11)


def test_good_prime_must_not_divide_conductor():
    curve = CurveData(0, -1, 1, 0, 0, conductor=22)
    with pytest.raises(InputError, match="p=2") as info:
        reduction_at(curve, 2)
    assert not isinstance(info.value, NonMinimalModelError)
    assert reduction_at(curve, 11).ap == 1  # the other primes still agree


def test_additive_prime_with_square_in_conductor_accepted():
    curve = CurveData(0, 0, 0, 0, 2, conductor=36)
    assert reduction_at(curve, 2).kind is ReductionKind.ADDITIVE
    assert reduction_at(curve, 3).kind is ReductionKind.ADDITIVE


def test_newform_steinberg_eigenvalue_checked():
    assert reduction_at(NewformData(2, 11, eigenvalues={11: 1}), 11).regime == "multiplicative"
    assert reduction_at(NewformData(4, 5, eigenvalues={5: -5}), 5).ap == -5
    with pytest.raises(EigenfileError, match="a_11"):
        reduction_at(NewformData(2, 11, eigenvalues={11: 2}), 11)
    with pytest.raises(EigenfileError, match="a_5"):
        local_factor_gl2(NewformData(4, 5, eigenvalues={5: 1}), 5)


def test_newform_square_level_needs_zero_eigenvalue():
    assert reduction_at(NewformData(2, 49, eigenvalues={7: 0}), 7).regime == "additive"
    assert local_factor_gl2(NewformData(2, 49), 7).coeffs == (1, 0, 0)
    with pytest.raises(EigenfileError, match="a_7"):
        reduction_at(NewformData(2, 49, eigenvalues={7: 1}), 7)


def test_newform_check_skips_primes_of_the_nebentypus():
    # the delta character of Q(sqrt(-7)) is ramified at 7, where a_7 has
    # absolute value 7^((k-1)/2); only the other primes are checked
    form = NewformData(3, 7, CharacterKind.DELTA, -7, eigenvalues={7: -7, 2: 1})
    assert reduction_at(form, 7).ap == -7
    with pytest.raises(EigenfileError, match="a_3"):
        reduction_at(NewformData(3, 147, CharacterKind.DELTA, -7, eigenvalues={3: 1}), 3)
