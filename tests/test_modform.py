"""Curve reduction, point counting, eigenvalue files."""

import io
import random
import re
import time

import pytest

from siegellift import (
    CurveData,
    ReductionKind,
    ap_good,
    is_selfdual_pure,
    local_factor_gl2,
    modform,
    parse_eigenfile,
    point_count,
    reduction_bad,
)
from siegellift.errors import InputError
from siegellift.modform import (
    _BSGS_MIN_P,
    NewformData,
    _ap_bsgs,
    _ap_charsum,
    _orders_in,
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


def test_invariants_11a3(curve_11a3):
    b2, b4, b6, b8, _, _, disc = curve_11a3.invariants
    assert (b2, b4, b6, b8) == (-4, 0, 1, -1)
    assert disc == -11


def test_invariants_j0_curve():
    assert CurveData(0, 0, 0, 0, 1).discriminant == -432


def test_singular_model_rejected():
    with pytest.raises(InputError, match="singular Weierstrass model"):
        CurveData(0, 0, 0, 0, 0)


def test_ap_11a3_small_primes(curve_11a3):
    assert ap_good(curve_11a3, 2) == -2
    assert ap_good(curve_11a3, 3) == -1
    assert ap_good(curve_11a3, 5) == 1
    assert ap_good(curve_11a3, 19) == 0  # supersingular


def test_point_count_matches_definition(curve_11a3):
    # |E(F_2)| = 5: four affine points of y^2 + y = x^3 - x^2 plus infinity
    assert point_count(curve_11a3, 2) == 5
    assert ap_good(curve_11a3, 2) == 2 + 1 - 5


def test_ap_good_rejects_bad_prime(curve_11a3):
    with pytest.raises(InputError, match="^p=11 divides the discriminant; use reduction_bad$"):
        ap_good(curve_11a3, 11)


def test_charsum_agrees_with_enumeration():
    rng = random.Random(314159)
    curves = []
    while len(curves) < 10:
        ainvs = [rng.randrange(-3, 4) for _ in range(5)]
        if invariants_of_raw(*ainvs)[4] != 0:
            curves.append(CurveData(*ainvs))
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
        ainvs = [rng.randrange(-3, 4) for _ in range(5)]
        if invariants_of_raw(*ainvs)[4] != 0:
            curves.append(CurveData(*ainvs))
    for curve in curves:
        assert_bsgs_matches_charsum(curve, 1500)


def ec_add(p, a, P, Q):
    """Reference affine chord-and-tangent on y^2 = x^3 + a x + b; None is O."""
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        slope = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (slope * slope - x1 - x2) % p
    return x3, (slope * (x1 - x3) - y1) % p


def ec_mul(p, a, n, P):
    R = None
    for bit in bin(n)[2:]:
        R = ec_add(p, a, ec_add(p, a, R, R), P if bit == "1" else None)
    return R


def orders_by_walk(p, a, P, low, high, m):
    """_orders_in's answer by plain repeated addition of P: None when the
    order of P is at most 2m + 1, else every N in [low, high] killing P."""
    Q = None
    for _ in range(2 * m + 1):
        Q = ec_add(p, a, Q, P)
        if Q is None:
            return None
    Q, out = ec_mul(p, a, low, P), []
    for n in range(low, high + 1):
        if Q is None:
            out.append(n)
        Q = ec_add(p, a, Q, P)
    return out


def test_orders_in_against_walk():
    """The inlined group law against the reference one, on the points
    _ap_bsgs tries.  A giant-step centre c with c P = O takes the R = O
    branch, and the step after it doubles (R = step); both must occur."""
    centre_hits = 0
    for ainvs in [(0, -1, 1, 0, 0), (1, 1, 1, -10, -10), (0, 1, 1, -2, 0)]:
        c4, c6 = CurveData(*ainvs).invariants[4:6]
        for p in primes_upto(1500):
            if p <= _BSGS_MIN_P or (c4**3 - c6**2) % p == 0:
                continue
            A, B = -27 * c4 % p, -54 * c6 % p
            w = int((4 * p) ** 0.5)
            low, high, m = p + 1 - w, p + 1 + w, int(w**0.5) + 1
            for x in range(3):
                f = ((x * x + A) * x + B) % p
                if f == 0:
                    continue
                a, P = A * f * f % p, (x * f % p, f * f % p)
                want = orders_by_walk(p, a, P, low, high, m)
                assert _orders_in(p, a, *P, low, high, m) == want, (ainvs, p, x)
                # giant-step centres are the multiples of 2m + 1
                centres = [n for n in want or () if n % (2 * m + 1) == 0]
                centre_hits += any(n <= high - 2 * m - 1 for n in centres)
    assert centre_hits >= 5


def test_orders_in_small_orders():
    """Every point of y^2 = x^3 + x + 3 over F_1009 against short windows:
    orders of at most 2m + 1 give None, and small orders above it put
    O, +-P and 2-torsion in the scalar multiple and the giant steps."""
    p, a = 1009, 1
    points = [(x, y) for x in range(p) for y in range(1, p) if (y * y - x**3 - x - 3) % p == 0]
    outcomes = set()
    for low, high, m in [(900, 1120, 2), (953, 1071, 4), (1001, 1009, 1)]:
        for P in points:
            want = orders_by_walk(p, a, P, low, high, m)
            assert _orders_in(p, a, *P, low, high, m) == want, (P, low, high, m)
            outcomes.add(want is None)
    assert outcomes == {True, False}


def test_bsgs_ambiguity_falls_back_to_charsum(monkeypatch, curve_11a3):
    monkeypatch.setattr(modform, "_ap_bsgs", lambda curve, p: None)
    assert modform._ap_good_cached.__wrapped__(curve_11a3, 1009) == _ap_charsum(curve_11a3, 1009)


def test_charsum_off_the_path_above_the_bound(monkeypatch, curve_11a3):
    def forbidden(curve, p):
        raise AssertionError(f"character sum called at p={p}")

    monkeypatch.setattr(modform, "_ap_charsum", forbidden)
    for p in primes_upto(3000):
        if p > _BSGS_MIN_P:
            modform._ap_good_cached.__wrapped__(curve_11a3, p)


def test_hasse_bound(curve_11a3):
    for p in primes_upto(500):
        if p == 11:
            continue
        ap = ap_good(curve_11a3, p)
        assert ap * ap <= 4 * p


def test_ap_invariant_under_unimodular_change(curve_11a3):
    for (r, s, t) in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -1, 3), (-1, 2, -2)]:
        moved = translated(curve_11a3, r, s, t)
        assert moved.discriminant == curve_11a3.discriminant  # u = 1
        for p in (2, 3, 5, 7, 13):
            assert ap_good(moved, p) == ap_good(curve_11a3, p)


def test_reduction_split_at_11(curve_11a3):
    red = reduction_bad(curve_11a3, 11)
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


def test_reduction_bad_rejects_good_prime(curve_11a3):
    with pytest.raises(InputError, match="^p=7 does not divide the discriminant; reduction is good$"):
        reduction_bad(curve_11a3, 7)


def test_local_factor_curve(curve_11a3):
    assert local_factor_gl2(curve_11a3, 2).coeffs == (1, 2, 2)
    f11 = local_factor_gl2(curve_11a3, 11)
    assert f11.coeffs == (1, -1, 0) and f11.effective_degree == 1


def test_local_factor_purity(curve_11a3):
    for p in primes_upto(60):
        if p == 11:
            continue
        f = local_factor_gl2(curve_11a3, p)
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
    with pytest.raises(InputError, match="^line 2: 4 is not prime$"):
        parse_eigenfile(io.StringIO("weight 12 level 1 character trivial\n4 5\n"))
    with pytest.raises(InputError, match="^line 3: duplicate prime 2$"):
        parse_eigenfile(io.StringIO("weight 12 level 1 character trivial\n2 -24\n2 0\n"))
    with pytest.raises(InputError, match="^line 2: expected '<p> <a_p>', got '2'$"):
        parse_eigenfile(io.StringIO("weight 12 level 1 character trivial\n2\n"))
    with pytest.raises(InputError, match="^line 1: header must be 'weight <k> level <N> character"):
        parse_eigenfile(io.StringIO("wheight 12 level 1 character trivial\n"))
    with pytest.raises(InputError, match="^missing header line 'weight <k> level <N> character"):
        parse_eigenfile(io.StringIO("# only a comment\n"))


def test_empty_eigenvalue_section():
    form = parse_eigenfile(io.StringIO("weight 12 level 1 character trivial\n"))
    assert form.eigenvalues == {}
    with pytest.raises(InputError, match="^no eigenvalue a_2 in the table$"):
        local_factor_gl2(form, 2)


def test_table_past_deligne_bound_is_refused():
    # every newform obeys |a_p| <= 2 p^((k-1)/2) at a good prime
    text = "weight 2 level 11 character trivial\n3 100\n"
    with pytest.raises(InputError, match=re.escape(
            "a_3 = 100 violates |a_p| <= 2 p^((k-1)/2) for weight 2") + "$"):
        parse_eigenfile(io.StringIO(text))
    # an exact integer comparison: at weight 5, a_2 = 8 is on the bound 2 * 2^2
    assert NewformData(5, 7, -7, {2: -8}).eigenvalues == {2: -8}
    with pytest.raises(InputError, match="^a_2 = 9 violates"):
        NewformData(5, 7, -7, {2: 9})


@pytest.mark.parametrize("key", [4, 1, 0, -3])
def test_newform_key_must_be_prime(key):
    # checked before the bound, which would otherwise name a_-3 as past it
    with pytest.raises(InputError, match=f"^newform eigenvalue key {key} is not prime$"):
        NewformData(2, 11, eigenvalues={key: 1})


@pytest.mark.parametrize(
    "text, err",
    [
        ("weight 2 level 11 character trivial\n3 1_0\n", "line 2: non-integer entry in '3 1_0'"),
        ("weight 2 level 11 character trivial\n\u0663 1\n", "line 2: non-integer entry in '\u0663 1'"),
        ("weight 2 level 11 character trivial\n3 \uff11\n", "line 2: non-integer entry in '3 \uff11'"),
        ("weight 2 level 11 character trivial\n3 --1\n", "line 2: non-integer entry in '3 --1'"),
        ("weight 1_2 level 1 character trivial\n", "line 1: non-integer weight/level"),
        ("weight 12 level \u0661 character trivial\n", "line 1: non-integer weight/level"),
        ("weight 3 level 7 character delta -\u0667\n", "line 1: bad delta discriminant"),
        ("weight 3 level 7 character delta -_7\n", "line 1: bad delta discriminant"),
    ],
    ids=["underscore", "arabic-indic", "fullwidth", "double-sign", "header-underscore",
         "header-digit", "delta-digit", "delta-underscore"],
)
def test_eigenfile_integers_are_ascii_decimals(text, err):
    # int() reads 1_0 as 10 and any Unicode decimal digit as its value
    with pytest.raises(InputError, match=f"^{re.escape(err)}$"):
        parse_eigenfile(io.StringIO(text))


def test_eigenfile_signs_are_read():
    form = parse_eigenfile(io.StringIO("weight +3 level +7 character delta -7\n2 +1\n3 0\n"))
    assert (form.weight, form.level, form.character, form.eigenvalues) == (3, 7, -7, {2: 1, 3: 0})


def test_eigenfile_with_byte_order_mark(delta_form, delta_path, tmp_path):
    # an editor may save UTF-8 with a BOM, which a path is read past
    path = tmp_path / "delta_bom.txt"
    path.write_bytes(b"\xef\xbb\xbf" + delta_path.read_bytes())
    assert repr(parse_eigenfile(path)) == repr(delta_form)


def test_eigenfile_stream_with_byte_order_mark(delta_form, delta_path):
    # a stream is read past a BOM as a path is
    text = "\ufeff" + delta_path.read_text(encoding="utf-8")
    assert repr(parse_eigenfile(io.StringIO(text))) == repr(delta_form)


def test_eigenfile_undecodable_byte_names_its_line(tmp_path):
    # a byte that is not UTF-8 is read as U+FFFD, which no integer accepts
    path = tmp_path / "bad_byte.txt"
    path.write_bytes(b"weight 2 level 11 character trivial\n2 -\xff2\n")
    with pytest.raises(InputError, match=r"^line 2: non-integer entry"):
        parse_eigenfile(path)


def test_eigenfile_in_utf16_fails_at_its_header(tmp_path):
    path = tmp_path / "utf16.txt"
    path.write_bytes("weight 2 level 11 character trivial\n2 -2\n".encode("utf-16"))
    with pytest.raises(InputError, match=r"^line 1: "):
        parse_eigenfile(path)


def test_eigenfile_undecodable_byte_in_a_comment_is_ignored(tmp_path):
    path = tmp_path / "latin1_comment.txt"
    path.write_bytes("# table of 11a3, r\u00e9vis\u00e9\nweight 2 level 11 character trivial\n"
                     "2 -2  # \u00e9\n".encode("latin-1"))
    form = parse_eigenfile(path)
    assert (form.weight, form.level, form.eigenvalues) == (2, 11, {2: -2})


def test_delta_character_header():
    form = parse_eigenfile(io.StringIO("weight 3 level 49 character delta -7\n2 1\n"))
    assert form.character == -7


def test_trivial_table_of_odd_weight_is_rejected():
    # -I in Gamma_0(N) gives f = (-1)^k f: a newform of trivial character has even weight
    with pytest.raises(InputError, match="^character trivial is even, so the weight must be even, got 3$"):
        NewformData(3, 11)


def test_bad_reduction_matches_point_count():
    # at p | disc, a_p = p + 1 - #E(F_p) with the singular point counted;
    # u > 1 scales the model so that it is not minimal at the primes of u
    rng = random.Random(2718)
    kind = {1: ReductionKind.SPLIT_MULT, -1: ReductionKind.NONSPLIT_MULT, 0: ReductionKind.ADDITIVE}
    kinds = {2: set(), 3: set()}
    models = 0
    while models < 2000:
        u = rng.choice((1, 1, 2, 3))
        ainvs = [rng.randrange(-6, 7) * u**i for i in (1, 2, 3, 4, 6)]
        if invariants_of_raw(*ainvs)[4] == 0:
            continue
        curve = CurveData(*ainvs)
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


@pytest.mark.parametrize(
    "ainvs, conductor, message",
    [
        ((0, -1, 1, 0, 0.7), 11, "curve data must be integers, got float 0.7"),
        ((0, -1, 1, 0, 0), "11", "curve data must be integers, got str '11'"),
        ((0, -1, 1, 0, 0), 11.5, "curve data must be integers, got float 11.5"),
        ((0, -1, True, 0, 0), 11, "curve data must be integers, got bool True"),
        ((0, -1, 1, 0, "0"), 11, "curve data must be integers, got str '0'"),
        ((0, -1, 1, 0, 0), -11, "conductor must be a positive integer, got -11"),
        ((0, -1, 1, 0, 0), 0, "conductor must be a positive integer, got 0"),
    ],
    ids=["a6-float", "conductor-str", "conductor-float", "a3-bool", "a6-str", "conductor-negative",
         "conductor-zero"],
)
def test_curve_data_must_be_exact_integers(ainvs, conductor, message):
    # a float was truncated, a str raised a TypeError: each is refused, never converted
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        CurveData(*ainvs, conductor=conductor)


@pytest.mark.parametrize(
    "args, bad",
    [
        ((12.0, 1, None, {2: -24}), "float 12.0"),
        ((12, 1.0, None, {2: -24}), "float 1.0"),
        ((3, 7, -7.0, {2: -3}), "float -7.0"),
        ((12, 1, None, {2.0: -24}), "float 2.0"),
        ((12, 1, None, {2: "-24"}), "str '-24'"),
        ((12, 1, None, {2: None}), "NoneType None"),
        ((12, 1, None, {2: True}), "bool True"),
        ((12, 1, None, {2: 24.0}), "float 24.0"),
    ],
    ids=["weight", "level", "character", "prime", "ap-str", "ap-none", "ap-bool", "ap-float"],
)
def test_newform_data_must_be_exact_integers(args, bad):
    # a table built in code was taken as given: level 1.0 reached predict's
    # output, and a_2 = "-24" raised a TypeError in the Ramanujan check
    with pytest.raises(InputError, match=f"^newform data must be integers, got {re.escape(bad)}$"):
        NewformData(*args)


# ---------------------------------------------------------------------------
# a supplied conductor or level must agree with the local data; it is
# checked when the curve or table is built

def test_scaled_model_with_conductor_rejected():
    # 11a3 scaled by u = 2: not minimal at 2, where it reduces to a cusp
    with pytest.raises(InputError, match="^additive reduction at p=2 contradicts the conductor 11$"):
        CurveData(0, -4, 8, 0, 0, conductor=11)
    # without a conductor there is nothing to contradict
    assert reduction_at(CurveData(0, -4, 8, 0, 0), 2).kind is ReductionKind.ADDITIVE


def test_multiplicative_prime_must_divide_conductor_once():
    # the smallest offending prime is named, so the cofactor of 11^2 is 13, not 3
    for n in (1, 121, 11 * 11 * 13):
        with pytest.raises(InputError, match=f"^multiplicative reduction at p=11 contradicts the conductor {n}$"):
            CurveData(0, -1, 1, 0, 0, conductor=n)


def test_good_prime_must_not_divide_conductor():
    with pytest.raises(InputError, match="^good reduction at p=2 contradicts the conductor 22$"):
        CurveData(0, -1, 1, 0, 0, conductor=22)
    assert reduction_at(CurveData(0, -1, 1, 0, 0, conductor=11), 11).ap == 1


def test_conductor_is_checked_at_the_primes_of_the_discriminant():
    # N = 1 leaves out 11 | disc, and N = 36 the prime 3, where y^2 = x^3 + x + 36 is good
    with pytest.raises(InputError, match="^multiplicative reduction at p=11 contradicts the conductor 1$"):
        CurveData(0, -1, 1, 0, 0, conductor=1)
    with pytest.raises(InputError, match="^good reduction at p=3 contradicts the conductor 36$"):
        CurveData(0, 0, 0, 1, 0, conductor=36)


def test_conductor_check_names_the_smallest_offending_prime():
    # 11a3 with N = 5 * 7: good at 5 and 7, multiplicative at 11
    with pytest.raises(InputError, match="^good reduction at p=5 contradicts the conductor 35$"):
        CurveData(0, -1, 1, 0, 0, conductor=35)
    # the part of N prime to the discriminant is not factored: a prime part is named,
    # and so is a prime below 1000 beside two primes past the reach of rho
    p, q = 10**18 + 3, 10**18 + 9
    with pytest.raises(InputError, match=f"^good reduction at p={p} contradicts the conductor {11 * p}$"):
        CurveData(0, -1, 1, 0, 0, conductor=11 * p)
    with pytest.raises(InputError, match=f"^good reduction at p=7 contradicts the conductor {77 * p * q}$"):
        CurveData(0, -1, 1, 0, 0, conductor=77 * p * q)
    # nor is the part of |disc| prime to N: y^2 = x^3 + pq has disc -432 p^2 q^2, additive at 2, 3
    disc, part = -432 * (p * q) ** 2, (p * q) ** 2
    with pytest.raises(InputError, match=f"^the conductor 36 and the discriminant {disc} differ at the primes of {part}$"):
        CurveData(0, 0, 0, 0, p * q, conductor=36)


def test_level_is_checked_when_the_table_is_built():
    # a_13 = 5 at 13 || 143 is refused before any prime is asked for
    with pytest.raises(InputError, match="^a_13 = 5 contradicts the level 143: a_p\\^2 must be 1$"):
        NewformData(2, 143, eigenvalues={2: 0, 3: 1, 5: -1, 7: 2, 13: 5})
    # a missing a_p is reported where a command reaches p, as a table is finite
    form = NewformData(2, 143, eigenvalues={2: 0})
    with pytest.raises(InputError, match="^no eigenvalue a_13 in the table$"):
        reduction_at(form, 13)


def test_additive_prime_with_square_in_conductor_accepted():
    curve = CurveData(0, 0, 0, 0, 2, conductor=36)
    assert reduction_at(curve, 2).kind is ReductionKind.ADDITIVE
    assert reduction_at(curve, 3).kind is ReductionKind.ADDITIVE


def test_newform_steinberg_eigenvalue_checked():
    assert reduction_at(NewformData(2, 11, eigenvalues={11: 1}), 11).regime == "multiplicative"
    assert reduction_at(NewformData(4, 5, eigenvalues={5: -5}), 5).ap == -5
    with pytest.raises(InputError, match="^a_11 = 2 contradicts the level 11: a_p\\^2 must be 1$"):
        reduction_at(NewformData(2, 11, eigenvalues={11: 2}), 11)
    with pytest.raises(InputError, match="^a_5 = 1 contradicts the level 5: a_p\\^2 must be 25$"):
        local_factor_gl2(NewformData(4, 5, eigenvalues={5: 1}), 5)


def test_newform_square_level_needs_zero_eigenvalue():
    assert reduction_at(NewformData(2, 49, eigenvalues={7: 0}), 7).regime == "additive"
    assert local_factor_gl2(NewformData(2, 49), 7).coeffs == (1, 0, 0)
    with pytest.raises(InputError, match="^a_7 = 1 contradicts the level 49: a_p\\^2 must be 0$"):
        reduction_at(NewformData(2, 49, eigenvalues={7: 1}), 7)


def test_delta_character_enters_the_good_factor():
    # eta(z)^3 eta(7z)^3: (-7/2) = 1 and (-7/3) = -1
    form = NewformData(3, 7, -7, eigenvalues={2: -3, 3: 0, 7: -7})
    assert local_factor_gl2(form, 2).coeffs == (1, 3, 4)
    assert local_factor_gl2(form, 3).coeffs == (1, 0, -9)
    assert local_factor_gl2(form, 7).coeffs == (1, 7, 0)


def test_newform_check_skips_primes_of_the_nebentypus():
    # the delta character of Q(sqrt(-7)) is ramified at 7, where a_7 has
    # absolute value 7^((k-1)/2), not the Steinberg 7^((k-2)/2)
    form = NewformData(3, 7, -7, eigenvalues={7: -7, 2: 1})
    assert reduction_at(form, 7).ap == -7
    with pytest.raises(InputError, match="^a_3 = 1 contradicts the level 147: a_p\\^2 must be 3$"):
        reduction_at(NewformData(3, 147, -7, eigenvalues={3: 1}), 3)


def test_newform_at_a_prime_of_the_nebentypus():
    # Miyake, Thm 4.6.17: |a_p|^2 = p^(k-1) where the level and D have the
    # same p-part, else a_p = 0; the factor is 1 - a_p T either way
    form = NewformData(5, 4, -4, eigenvalues={2: -4})
    red = reduction_at(form, 2)
    assert (red.regime, red.ap, local_factor_gl2(form, 2).coeffs) == ("additive", -4, (1, 4, 0))
    assert local_factor_gl2(NewformData(3, 49, -7), 7).coeffs == (1, 0, 0)
    with pytest.raises(InputError, match="a_7 = 7 .* a_p\\^2 must be 0$"):
        reduction_at(NewformData(3, 49, -7, eigenvalues={7: 7}), 7)
