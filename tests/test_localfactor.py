"""Euler-factor algebra against brute-force root-multiset oracles."""

import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from pathlib import Path

import pytest

from siegellift import (
    CombineMode,
    Functor,
    LocalFactor,
    combine,
    exact_divide,
    from_power_sums,
    is_selfdual_pure,
    plethysm,
    power_sums,
    tate_factor,
    tate_twist,
)
from siegellift import localfactor, lseries
from siegellift.errors import InexactDivisionError, InputError


# ---------------------------------------------------------------------------
# oracles

def gauss_mul(a, b):
    """(x1 + y1*i)(x2 + y2*i) on exact integer pairs."""
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gauss_pow(a, n):
    out = (1, 0)
    for _ in range(n):
        out = gauss_mul(out, a)
    return out


def poly_from_roots(roots):
    """Coefficients of prod (1 - r T), exact."""
    coeffs = [1]
    for r in roots:
        coeffs = [coeffs[i] - (r * coeffs[i - 1] if i else 0) for i in range(len(coeffs))] + [
            -r * coeffs[-1]
        ]
    return tuple(coeffs)


def factor_from_roots(p, roots, weight=0):
    return LocalFactor(p, weight, poly_from_roots(roots))


# ---------------------------------------------------------------------------
# Newton conversion

def test_power_sums_degree_two():
    # 1 - aT + pT^2 has s_1 = a, s_2 = a^2 - 2p
    for a, p in [(3, 5), (-2, 7), (0, 11)]:
        f = LocalFactor(p, 1, (1, -a, p))
        assert power_sums(f, 2) == (a, a * a - 2 * p)


def test_power_sums_degree_zero():
    f = LocalFactor(7, 0, (1,))
    assert power_sums(f, 3) == (0, 0, 0)
    # no sums at all is the empty tuple, for any factor; a negative count is an error
    assert power_sums(f, 0) == power_sums(LocalFactor(7, 1, (1, -3, 7)), 0) == ()
    assert from_power_sums(7, 0, ()) == f
    with pytest.raises(InputError):
        power_sums(f, -1)


def test_power_sums_gaussian_oracle():
    # roots of 1 + 2T + 2T^2 at p=2 are -1 +- i
    f = LocalFactor(2, 1, (1, 2, 2))
    expected = []
    for m in (1, 2):
        u = gauss_pow((-1, 1), m)
        v = gauss_pow((-1, -1), m)
        assert u[1] + v[1] == 0
        expected.append(u[0] + v[0])
    assert power_sums(f, 2) == tuple(expected) == (-2, 0)


def test_from_power_sums_examples():
    assert from_power_sums(2, 2, (-2, 0), weight=1).coeffs == (1, 2, 2)
    assert from_power_sums(3, 0, (0, 0, 0)).coeffs == (1,)
    assert from_power_sums(5, 1, (4,)).coeffs == (1, -4)


def test_from_power_sums_too_short():
    with pytest.raises(InputError, match="^need 3 power sums, got 2$"):
        from_power_sums(5, 3, (1, 2))


def test_roundtrip_random_integer_factors():
    rng = random.Random(20240611)
    for _ in range(200):
        d = rng.randrange(0, 6)
        coeffs = (1,) + tuple(rng.randrange(-9, 10) for _ in range(d))
        f = LocalFactor(rng.choice([2, 3, 5, 13]), rng.randrange(-2, 5), coeffs)
        back = from_power_sums(f.prime, d, power_sums(f, max(d, 1)), weight=f.weight)
        assert back == f


def test_power_sums_against_root_multisets():
    rng = random.Random(7)
    for _ in range(50):
        roots = [rng.randrange(-4, 5) for _ in range(rng.randrange(1, 5))]
        f = factor_from_roots(5, roots)
        got = power_sums(f, 6)
        for m in range(1, 7):
            assert got[m - 1] == sum(r**m for r in roots)


# ---------------------------------------------------------------------------
# power sums asked for again

def fresh(f):
    """An equal factor built anew."""
    return LocalFactor(f.prime, f.weight, f.coeffs)


def random_integral_factor(rng, degree):
    coeffs = [1] + [rng.randrange(-40, 41) for _ in range(degree)]
    if degree and rng.random() < 0.3:
        coeffs[-1] = 0  # degenerate: honest degree below nominal
    return LocalFactor(rng.choice([2, 3, 5, 7, 13]), rng.randrange(0, 4), coeffs)


def test_power_sums_asked_in_any_order_match_a_fresh_factor():
    rng = random.Random(271828)
    for _ in range(120):
        f = random_integral_factor(rng, rng.randrange(0, 7))
        counts = [3, 20, 7, 12, 0] + [rng.randrange(0, 25) for _ in range(4)]
        rng.shuffle(counts)
        for count in counts:
            assert power_sums(f, count) == power_sums(fresh(f), count), (f, count)


def test_squares_match_plethysm_and_tensor():
    rng = random.Random(314159)
    for _ in range(60):
        f = random_integral_factor(rng, rng.randrange(0, 6))
        want = (plethysm(f, Functor.EXT2), plethysm(f, Functor.SYM2), combine(f, f, CombineMode.TENSOR))
        assert localfactor._squares(f) == want, f


# ---------------------------------------------------------------------------
# combine

def test_tensor_with_degree_one():
    # scale the roots of 1 - aT + pT^2 by c
    a, p, c = 4, 7, 3
    t = combine(LocalFactor(p, 1, (1, -a, p)), LocalFactor(p, 1, (1, -c)), CombineMode.TENSOR)
    assert t.coeffs == (1, -a * c, p * c * c)
    assert t.weight == 2


def test_tensor_of_nothing_is_the_trivial_factor():
    # a degree-0 operand, or a spin factor cut at depth 0, leaves no
    # coefficient after c_0
    eta = LocalFactor(5, 1, (1, -1, 5))
    for a, b in [(LocalFactor(5, 4, (1,)), eta), (eta, LocalFactor(5, 4, (1,)))]:
        t = combine(a, b, CombineMode.TENSOR)
        assert t == LocalFactor(5, a.weight + b.weight, (1,))
        assert_same(t.coeffs, ref_tensor(a.coeffs, b.coeffs)[:1])
    for ind in (LocalFactor(5, 4, (1, 14, 625)), eta):
        assert lseries._spin(5, eta.coeffs, ind, 0, 5) == LocalFactor(5, 5, (1,))
    assert lseries._spin(5, eta.coeffs, None, 0, 3) == LocalFactor(5, 3, (1,))


def test_sum_is_polynomial_product():
    a = LocalFactor(5, 4, (1, -625))
    b = LocalFactor(5, 4, (1, 1054, 390625))
    s = combine(a, b, CombineMode.SUM)
    assert s.coeffs == (1, 1054 - 625, 390625 - 625 * 1054, -625 * 390625)
    assert s.degree == 3


def test_tensor_curve_with_induced():
    eta = LocalFactor(5, 1, (1, -1, 5))
    ind = LocalFactor(5, 4, (1, 14, 625))
    t = combine(eta, ind, CombineMode.TENSOR)
    assert t.degree == 4 and t.coeffs[1] == 14 and t.weight == 5


def test_combine_error_cases():
    with pytest.raises(InputError, match="^primes differ: 2 vs 3$"):
        combine(LocalFactor(2, 0, (1, 1)), LocalFactor(3, 0, (1, 1)), CombineMode.SUM)
    with pytest.raises(InputError, match="^direct sum needs equal weights, got 0 and 2$"):
        combine(LocalFactor(2, 0, (1, 1)), LocalFactor(2, 2, (1, 1)), CombineMode.SUM)


def test_combine_oracle_homomorphisms():
    rng = random.Random(99)
    for _ in range(40):
        ra = [rng.randrange(-3, 4) for _ in range(rng.randrange(1, 4))]
        rb = [rng.randrange(-3, 4) for _ in range(rng.randrange(1, 4))]
        a, b = factor_from_roots(7, ra, 2), factor_from_roots(7, rb, 2)
        s = combine(a, b, CombineMode.SUM)
        t = combine(a, b, CombineMode.TENSOR)
        sa = power_sums(a, 6)
        sb = power_sums(b, 6)
        ss = power_sums(s, 6)
        st = power_sums(t, 6)
        for m in range(6):
            assert ss[m] == sa[m] + sb[m]
            assert st[m] == sa[m] * sb[m]
        assert t == factor_from_roots(7, [x * y for x in ra for y in rb], 4)


# ---------------------------------------------------------------------------
# plethysm

def test_sym3_gaussian_oracle():
    # inverse roots of sym^3 of 1 + 2T + 2T^2 are the cubes/mixed products of -1 +- i
    f = LocalFactor(2, 1, (1, 2, 2))
    alpha, beta = (-1, 1), (-1, -1)
    roots = [
        gauss_pow(alpha, 3),
        gauss_mul(gauss_pow(alpha, 2), beta),
        gauss_mul(alpha, gauss_pow(beta, 2)),
        gauss_pow(beta, 3),
    ]
    assert sorted(roots) == sorted([(2, 2), (-2, 2), (-2, -2), (2, -2)])
    # multiply out (1 - rT) over Z[i]
    coeffs = [(1, 0)]
    for r in roots:
        nxt = [(0, 0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] = (nxt[i][0] + c[0], nxt[i][1] + c[1])
            prod = gauss_mul(c, r)
            nxt[i + 1] = (nxt[i + 1][0] - prod[0], nxt[i + 1][1] - prod[1])
        coeffs = nxt
    assert all(c[1] == 0 for c in coeffs)
    expected = tuple(c[0] for c in coeffs)
    got = plethysm(f, Functor.SYM3)
    assert got.coeffs == expected == (1, 0, 0, 0, 64)
    assert got.weight == 3


def test_sym3_supersingular_closed_form():
    for p in (3, 7, 19):
        f = LocalFactor(p, 1, (1, 0, p))
        q = p**3
        assert plethysm(f, Functor.SYM3).coeffs == (1, 0, 2 * q, 0, q * q)


def test_ext2_degree_two_is_determinant():
    for a, p, w in [(3, 5, 1), (-14, 5, 4), (0, 2, 1)]:
        f = LocalFactor(p, w, (1, a, p**w))
        e = plethysm(f, Functor.EXT2)
        assert e.coeffs == (1, -(p**w))
        assert e.weight == 2 * w


def test_plethysm_wrong_degree():
    with pytest.raises(InputError, match="^sym3 requires a degree-2 factor, got 3$"):
        plethysm(LocalFactor(2, 0, (1, 1, 1, 1)), Functor.SYM3)
    with pytest.raises(InputError, match="^sym4 requires a degree-2 factor, got 1$"):
        plethysm(LocalFactor(2, 0, (1, 1)), Functor.SYM4)


def test_plethysm_against_root_multisets():
    rng = random.Random(13)
    for _ in range(30):
        roots = [rng.randrange(-4, 5) for r in range(rng.randrange(0, 5))]
        f = factor_from_roots(3, roots, 2)
        ext2 = [x * y for x, y in combinations(roots, 2)]
        sym2 = [x * y for x, y in combinations_with_replacement(roots, 2)]
        assert plethysm(f, Functor.EXT2) == factor_from_roots(3, ext2, 4)
        assert plethysm(f, Functor.SYM2) == factor_from_roots(3, sym2, 4)
    for _ in range(30):
        a, b = rng.randrange(-5, 6), rng.randrange(-5, 6)
        f = factor_from_roots(3, [a, b], 1)
        sym3 = [a**3, a * a * b, a * b * b, b**3]
        sym4 = [a**4, a**3 * b, a * a * b * b, a * b**3, b**4]
        assert plethysm(f, Functor.SYM3) == factor_from_roots(3, sym3, 3)
        assert plethysm(f, Functor.SYM4) == factor_from_roots(3, sym4, 4)


def test_plethysm_of_degenerate_steinberg():
    # nominal degree 2, effective degree 1: sym^3 keeps the single root cubed
    f = LocalFactor(11, 1, (1, -1, 0))
    s = plethysm(f, Functor.SYM3)
    assert s.coeffs == (1, -1, 0, 0, 0)
    assert s.effective_degree == 1 and s.degree == 4


# ---------------------------------------------------------------------------
# twists, division, purity

def test_tate_twist_examples():
    f = LocalFactor(5, 1, (1, -3, 5))
    assert tate_twist(f, 1).coeffs == (1, -15, 125)
    assert tate_twist(f, 1).weight == 3
    assert tate_twist(LocalFactor(2, 0, (1, -1)), 3).coeffs == (1, -8)
    assert tate_twist(tate_twist(f, 4), -4) == f


def test_exact_divide_lambda2_example():
    # (1+8T)^2 (1-8T)^2 (1+64T^2) / (1-8T)
    lhs = LocalFactor(2, 6, (1, 0, -64, 0, -4096, 0, 262144))
    got = exact_divide(lhs, tate_factor(2, 3))
    assert got.coeffs == (1, 8, 0, 0, -4096, -32768)
    assert exact_divide(lhs, lhs).coeffs == (1,)


def test_exact_divide_nonzero_remainder():
    f = LocalFactor(2, 3, (1, 0, 0, 0, 64))
    with pytest.raises(InexactDivisionError):
        exact_divide(f, LocalFactor(2, 3, (1, -3)))


def test_is_selfdual_pure():
    assert is_selfdual_pure(LocalFactor(7, 1, (1, -3, 7))).ok
    rep = is_selfdual_pure(LocalFactor(5, 4, (1, 14, 625)))
    assert rep.ok and rep.sign == 1
    bad = is_selfdual_pure(LocalFactor(2, 1, (1, 2, 3)))
    assert not bad.ok and bad.failing_index == 0
    with pytest.raises(InputError):
        is_selfdual_pure(LocalFactor(2, 1, (1, -1)))  # d*w odd


def test_purity_of_tate_factor():
    rep = is_selfdual_pure(tate_factor(3, 2))
    assert rep.ok and rep.sign == -1


# ---------------------------------------------------------------------------
# structural identities

def test_bilinear_ext2_of_tensor_100_random_pairs():
    rng = random.Random(424242)
    for _ in range(100):
        a = LocalFactor(5, 1, (1, rng.randrange(-9, 10), rng.randrange(-9, 10)))
        b = LocalFactor(5, 3, (1, rng.randrange(-9, 10), rng.randrange(-9, 10)))
        lhs = plethysm(combine(a, b, CombineMode.TENSOR), Functor.EXT2)
        rhs = combine(
            combine(plethysm(a, Functor.SYM2), plethysm(b, Functor.EXT2), CombineMode.TENSOR),
            combine(plethysm(a, Functor.EXT2), plethysm(b, Functor.SYM2), CombineMode.TENSOR),
            CombineMode.SUM,
        )
        assert lhs == rhs


def test_integrality_preserved():
    rng = random.Random(5)
    for _ in range(50):
        f = LocalFactor(3, 2, (1, rng.randrange(-20, 21), rng.randrange(-20, 21)))
        for g in (
            plethysm(f, Functor.SYM3),
            plethysm(f, Functor.SYM4),
            plethysm(f, Functor.EXT2),
            combine(f, f, CombineMode.TENSOR),
        ):
            assert all(type(c) is int for c in g.coeffs)


@pytest.mark.parametrize(
    "value",
    [1.0, 2.7, Fraction(1, 2), Fraction(2, 1), "1", True],
    ids=["float", "float-fractional", "fraction", "fraction-integral", "str", "bool"],
)
def test_non_int_coefficient_rejected(value):
    # neither converted nor truncated: 2.7 used to become 2
    with pytest.raises(InputError, match="must be int"):
        LocalFactor(2, 0, (1, value))


def test_constant_coefficient_enforced():
    with pytest.raises(InputError):
        LocalFactor(2, 0, (2, 1))


def test_from_power_sums_remainder_raises():
    # s = (1, 0): c_1 = -1, c_2 = -(0 - 1)/2 = 1/2, not the sums of an integral factor
    with pytest.raises(InputError, match="division by 2"):
        from_power_sums(3, 2, (1, 0))


def test_tate_twist_negative_divides_exactly():
    f = LocalFactor(5, 1, (1, -3, 5))
    with pytest.raises(InputError, match="division by 5"):
        tate_twist(f, -1)
    assert tate_twist(LocalFactor(5, 3, (1, -15, 125)), -1) == f
    with pytest.raises(InputError):
        tate_factor(3, -1)


def test_integrality_check_is_not_an_assert_statement():
    # must hold under ``python -O`` too, which strips bare asserts
    src = Path(localfactor.__file__).parents[1]
    code = "from siegellift.localfactor import from_power_sums; from_power_sums(3, 2, (1, 0))"
    run = subprocess.run(
        [sys.executable, "-O", "-c", code], cwd=src, capture_output=True, text=True, timeout=60
    )
    assert run.returncode != 0
    assert "InputError: division by 2" in run.stderr


# ---------------------------------------------------------------------------
# differential test: the integer library against a Fraction-only oracle
# (the Newton identities and cycle-index formulas written out in Fraction)

def ref_power_sums(c, count):
    d = len(c) - 1
    s = []
    for k in range(1, count + 1):
        acc = Fraction(-k * c[k]) if k <= d else Fraction(0)
        for i in range(1, min(k, d + 1)):
            acc -= Fraction(c[i]) * s[k - i - 1]
        s.append(acc)
    return s


def ref_from_power_sums(s, degree):
    c = [Fraction(1)]
    for k in range(1, degree + 1):
        acc = Fraction(s[k - 1])
        for i in range(1, k):
            acc += c[i] * s[k - i - 1]
        c.append(-acc / k)
    return c


REF_FUNCTORS = {  # functor: (weight, output degree, cycle-index polynomial)
    Functor.SYM2: (2, lambda d: d * (d + 1) // 2, lambda s, m: (s[m] ** 2 + s[2 * m]) / 2),
    Functor.EXT2: (2, lambda d: d * (d - 1) // 2, lambda s, m: (s[m] ** 2 - s[2 * m]) / 2),
    Functor.SYM3: (
        3, lambda d: 4, lambda s, m: (s[m] ** 3 + 3 * s[m] * s[2 * m] + 2 * s[3 * m]) / 6
    ),
    Functor.SYM4: (
        4,
        lambda d: 5,
        lambda s, m: (
            s[m] ** 4 + 6 * s[m] ** 2 * s[2 * m] + 3 * s[2 * m] ** 2
            + 8 * s[m] * s[3 * m] + 6 * s[4 * m]
        ) / 24,
    ),
}


def ref_plethysm(c, functor):
    w, degree, cycle_index = REF_FUNCTORS[functor]
    d_out = degree(len(c) - 1)
    if d_out == 0:
        return [Fraction(1)]
    s = [Fraction(0)] + ref_power_sums(c, d_out * w)
    return ref_from_power_sums([cycle_index(s, m) for m in range(1, d_out + 1)], d_out)


def ref_tensor(a, b):
    d = (len(a) - 1) * (len(b) - 1)
    if d == 0:
        return [Fraction(1)]
    mixed = [x * y for x, y in zip(ref_power_sums(a, d), ref_power_sums(b, d))]
    return ref_from_power_sums(mixed, d)


def ref_sum(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += Fraction(x) * Fraction(y)
    return out


def ref_divide(a, b):
    q = []
    for k in range(len(a) - len(b) + 1):
        acc = Fraction(a[k])
        for i in range(1, min(k, len(b) - 1) + 1):
            acc -= Fraction(b[i]) * q[k - i]
        q.append(acc)
    return q


def ref_twist(c, p, j):
    return [Fraction(x) * Fraction(p) ** (i * j) for i, x in enumerate(c)]


def ref_inverse_series(c, terms):
    b = [Fraction(1)]
    for j in range(1, terms):
        b.append(-sum(Fraction(c[i]) * b[j - i] for i in range(1, min(j, len(c) - 1) + 1)))
    return b


def ref_purity(c, p, w):
    d = len(c) - 1
    sign = None
    for i in range(d + 1):
        lhs = Fraction(c[i]) * Fraction(p) ** ((d - 2 * i) * w // 2)
        rhs = Fraction(c[d - i])
        if sign is None:
            if lhs == rhs:
                sign = 1
            elif lhs == -rhs:
                sign = -1
            else:
                return (False, None, i)
        elif lhs != sign * rhs:
            return (False, sign, i)
    return (True, sign, None)


def assert_same(got, want):
    """Equal coefficients, every one an int."""
    assert tuple(got) == tuple(want)
    assert all(type(v) is int for v in got)


def assert_same_or_raises(call, want):
    """``call()`` equals the oracle when the oracle is integral, else raises."""
    if all(Fraction(v).denominator == 1 for v in want):
        assert_same(call(), want)
    else:
        with pytest.raises(InputError):
            call()


DIFF_PRIMES = (2, 3, 5, 7, 11, 101)


def random_factor(rng, p, degree, weight, coeff):
    coeffs = [1] + [coeff() for _ in range(degree)]
    shape = rng.random()
    if shape < 0.2 and degree >= 2:
        coeffs[2] = 0  # c_2 = 0, as at supersingular primes
    elif shape < 0.4 and degree >= 1:
        coeffs[-1] = 0  # degenerate: honest degree below nominal
    return LocalFactor(p, weight, tuple(coeffs))


def check_against_oracle(rng, coeff):
    p = rng.choice(DIFF_PRIMES)
    d = rng.randrange(1, 5)
    f = random_factor(rng, p, d, 1, coeff)
    g = random_factor(rng, p, rng.randrange(1, 5), 1, coeff)
    e2 = random_factor(rng, p, 2, 1, coeff)
    c = f.coeffs

    assert_same(power_sums(f, 8), ref_power_sums(c, 8))
    sums = tuple(coeff() for _ in range(d))
    assert_same_or_raises(lambda: from_power_sums(p, d, sums).coeffs, ref_from_power_sums(sums, d))
    for functor in (Functor.SYM2, Functor.EXT2):
        assert_same(plethysm(f, functor).coeffs, ref_plethysm(c, functor))
    for functor in (Functor.SYM3, Functor.SYM4):
        assert_same(plethysm(e2, functor).coeffs, ref_plethysm(e2.coeffs, functor))
    assert_same(combine(f, g, CombineMode.TENSOR).coeffs, ref_tensor(c, g.coeffs))
    assert_same(combine(f, f, CombineMode.TENSOR).coeffs, ref_tensor(c, c))
    # the spin factors cut as the L-series builders cut them: c_1..c_depth
    # of the whole factor, coefficient by coefficient
    depth = rng.randrange(0, 5)
    ind = random_factor(rng, p, 2, 1, coeff)
    want = ref_plethysm(e2.coeffs, Functor.SYM3)[: depth + 1]
    assert_same(lseries._spin(p, e2.coeffs, None, depth, 3).coeffs, want)
    want = ref_tensor(e2.coeffs, ind.coeffs)[: depth + 1]
    assert_same(lseries._spin(p, e2.coeffs, ind, depth, 2).coeffs, want)
    product = combine(f, g, CombineMode.SUM)
    assert_same(product.coeffs, ref_sum(c, g.coeffs))
    assert_same(exact_divide(product, g).coeffs, ref_divide(product.coeffs, g.coeffs))
    j = rng.randrange(1, 4)
    assert_same(tate_twist(f, j).coeffs, ref_twist(c, p, j))
    assert_same_or_raises(lambda: tate_twist(f, -j).coeffs, ref_twist(c, p, -j))
    assert_same(localfactor._series_div((1,), c, 9), ref_inverse_series(c, 9))
    for h in (f, e2, plethysm(e2, Functor.SYM3), tate_twist(f, 1)):
        if h.degree * h.weight % 2:
            continue  # the symmetry is only defined for d * w even
        rep = is_selfdual_pure(h)
        assert (rep.ok, rep.sign, rep.failing_index) == ref_purity(h.coeffs, p, h.weight)


def test_integral_core_matches_fraction_oracle():
    rng = random.Random(31415)
    for _ in range(300):
        check_against_oracle(rng, lambda: rng.randrange(-30, 31))


def test_pure_factors_match_fraction_oracle():
    # pure factors exercise the purity check's success branch with both signs
    rng = random.Random(16180)
    for _ in range(100):
        p = rng.choice(DIFF_PRIMES)
        bound = int(2 * p**0.5)
        e = LocalFactor(p, 1, (1, -rng.randrange(-bound, bound + 1), p))
        factors = [e, plethysm(e, Functor.SYM3), plethysm(e, Functor.SYM4)]
        j = rng.randrange(-2, 3)
        if j >= 0:
            factors.append(tate_factor(p, j))
        else:  # p^j is not an integer
            with pytest.raises(InputError):
                tate_factor(p, j)
        for h in factors:
            rep = is_selfdual_pure(h)
            assert rep.ok
            assert (rep.ok, rep.sign, rep.failing_index) == ref_purity(h.coeffs, p, h.weight)


def test_primality_check_rejects_nonprimes():
    with pytest.raises(InputError):
        LocalFactor(91, 0, (1,))
    assert LocalFactor(89, 0, (1,)).prime == 89
