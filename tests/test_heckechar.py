"""Field arithmetic, character values, induced factors."""

from fractions import Fraction
from math import isqrt

import pytest

from siegellift import (
    AntiCycChar,
    CombineMode,
    Functor,
    ImagQuadField,
    Splitting,
    char_square,
    char_value,
    combine,
    conductor_ind,
    induced_factor,
    is_selfdual_pure,
    plethysm,
    prime_above,
    splitting,
    tate_factor,
)
from siegellift.errors import InputError
from siegellift.heckechar import SUPPORTED_DISCRIMINANTS
from siegellift.modform import NewformData, local_factor_gl2
from siegellift._primes import primes_upto


def test_supported_discriminants_only():
    for d in (-3, -4, -163):
        ImagQuadField(d)
    for d in (-5, -1, 4, -20, -12):
        with pytest.raises(InputError, match=f"^D={d} is not a class-number-one fundamental discriminant "):
            ImagQuadField(d)


def test_unit_group_orders():
    for d, order in ((-3, 6), (-4, 4), (-7, 2), (-11, 2)):
        units = ImagQuadField(d).units()
        assert len(set(units)) == order
        assert all(u.norm() == 1 for u in units)


def test_splitting_gaussian():
    K = ImagQuadField(-4)
    assert splitting(K, 5) is Splitting.SPLIT
    assert splitting(K, 3) is Splitting.INERT
    assert splitting(K, 2) is Splitting.RAMIFIED


def test_splitting_at_two():
    assert splitting(ImagQuadField(-7), 2) is Splitting.SPLIT  # -7 = 1 mod 8
    assert splitting(ImagQuadField(-3), 2) is Splitting.INERT  # -3 = 5 mod 8
    assert splitting(ImagQuadField(-8), 2) is Splitting.RAMIFIED


def test_prime_above_examples():
    K = ImagQuadField(-4)  # w = -2 + i
    pi5 = prime_above(K, 5)
    assert (pi5.x, pi5.y) == (4, 1)  # 4 + w = 2 + i
    assert pi5.norm() == 5
    pi2 = prime_above(K, 2)
    assert (pi2.x, pi2.y) == (3, 1)  # 3 + w = 1 + i
    assert pi2.norm() == 2
    K3 = ImagQuadField(-3)  # w = (-3 + sqrt(-3))/2
    pi7 = prime_above(K3, 7)
    assert (pi7.x, pi7.y) == (4, 1)  # 4 + w = 3 + zeta_3
    assert pi7.norm() == 7


def test_prime_above_inert_marker():
    K = ImagQuadField(-4)
    pi3 = prime_above(K, 3)
    assert (pi3.x, pi3.y) == (3, 0) and pi3.norm() == 9


def test_prime_above_norms_across_fields():
    for d in (-3, -4, -7, -8, -11, -19, -43, -67, -163):
        K = ImagQuadField(d)
        for p in primes_upto(200):
            if splitting(K, p) is Splitting.INERT:
                continue
            assert prime_above(K, p).norm() == p


def prime_above_by_search(K, p):
    """The O(sqrt(p/|D|)) reference for prime_above at split or ramified p:
    every x + y*w of norm p has |y| <= 2 sqrt(p/|D|), and for each y the
    norm equation is a quadratic in x with discriminant D y^2 + 4p; the
    solution with the largest (2x + yD, y) is returned."""
    D, best = K.D, None
    ymax = isqrt(4 * p // -D) + 1
    for y in range(-ymax, ymax + 1):
        disc = D * y * y + 4 * p
        if disc < 0 or isqrt(disc) ** 2 != disc:
            continue
        for t in {isqrt(disc), -isqrt(disc)}:
            if (t - D * y) % 2 == 0 and K.element((t - D * y) // 2, y).norm() == p:
                best = max(best or (t, y), (t, y))
    return K.element((best[0] - D * best[1]) // 2, best[1])


@pytest.mark.parametrize("d", [-3, -4, -7, -8, -11, -19, -43, -67, -163])
def test_prime_above_matches_search(d):
    K = ImagQuadField(d)
    for p in primes_upto(2 * 10**4):
        if splitting(K, p) is not Splitting.INERT:
            assert prime_above(K, p) == prime_above_by_search(K, p), (d, p)


def test_unit_compatibility():
    AntiCycChar(ImagQuadField(-4), 2)
    AntiCycChar(ImagQuadField(-3), 3)
    AntiCycChar(ImagQuadField(-7), 1)
    with pytest.raises(InputError, match="^D=-4 has units of order 4: m must be even$"):
        AntiCycChar(ImagQuadField(-4), 1)
    with pytest.raises(InputError, match="^D=-3 has units of order 6: m must be divisible by 3$"):
        AntiCycChar(ImagQuadField(-3), 2)


def test_char_value_examples(chi_gauss):
    K = chi_gauss.field
    v = char_value(chi_gauss, prime_above(K, 5))
    assert (v.x, v.y) == (41, 24)  # 41 + 24w = -7 + 24i
    assert v.trace() == -14 and v.norm() == 625
    v2 = char_value(chi_gauss, prime_above(K, 2))
    assert (v2.x, v2.y) == (-4, 0)  # (1+i)^4 = -4


def test_char_value_generator_independent(chi_gauss):
    K = chi_gauss.field
    pi = prime_above(K, 13)
    vals = {char_value(chi_gauss, u * pi) for u in K.units()}
    assert len(vals) == 1
    K3 = ImagQuadField(-3)
    chi3 = AntiCycChar(K3, 3)
    pi = prime_above(K3, 7)
    vals = {char_value(chi3, u * pi) for u in K3.units()}
    assert len(vals) == 1


def test_induced_factor_examples(chi_gauss):
    assert induced_factor(chi_gauss, 5).coeffs == (1, 14, 625)
    assert induced_factor(chi_gauss, 3).coeffs == (1, 0, -81)
    ram = induced_factor(chi_gauss, 2)
    assert ram.coeffs == (1, 4, 0) and ram.effective_degree == 1
    assert induced_factor(chi_gauss, 5).weight == 4


@pytest.mark.parametrize("d", SUPPORTED_DISCRIMINANTS)
def test_induced_factor_against_char_value(d):
    # the factor comes from tr(pi) by a Lucas sequence; the oracle forms
    # v = pi^(2m) in the field and reads its trace, rational part and norm
    K = ImagQuadField(d)
    for m in range(1, 7):
        if (d == -4 and m % 2) or (d == -3 and m % 3):
            continue
        chi = AntiCycChar(K, m)
        for p in primes_upto(2000):
            kind = splitting(K, p)
            v = char_value(chi, prime_above(K, p))
            if kind is Splitting.SPLIT:
                want = (1, -v.trace(), v.norm())
            elif kind is Splitting.RAMIFIED:
                want = (1, -v.x, 0)
            else:
                want = (1, 0, -(p ** (2 * m)))
            assert induced_factor(chi, p).coeffs == want, (d, m, p)


@pytest.mark.parametrize("d", SUPPORTED_DISCRIMINANTS)
def test_delta_table_matches_induced_factor(d):
    # the CM form of chi as a `delta D` table (weight 2m+1, level |D|, a_p
    # the trace of Ind chi_p) has Ind chi_p as its factor at every p, the
    # ramified ones included, and NewformData refuses no a_p past Deligne's bound
    K = ImagQuadField(d)
    ms = [m for m in range(1, 7) if not ((d == -4 and m % 2) or (d == -3 and m % 3))][:2]
    for m in ms:
        chi = AntiCycChar(K, m)
        induced = {p: induced_factor(chi, p) for p in primes_upto(500)}
        eigenvalues = {p: -f.coeffs[1] for p, f in induced.items()}
        table = NewformData(2 * m + 1, -d, d, eigenvalues)
        for p, f in induced.items():
            assert local_factor_gl2(table, p) == f, (d, m, p)


def test_char_square_examples(chi_gauss):
    chi2 = char_square(chi_gauss)
    assert chi2.m == 4 and chi2.weight == 8
    assert induced_factor(chi2, 5).coeffs == (1, 1054, 390625)
    assert induced_factor(chi2, 3).coeffs == (1, 0, -6561)


def test_norm_compatibility_and_anticyclotomy(chi_gauss):
    K = chi_gauss.field
    for p in primes_upto(120):
        if splitting(K, p) is not Splitting.SPLIT:
            continue
        v = char_value(chi_gauss, prime_above(K, p))
        vbar = v.conj()
        assert (v * vbar).x == p ** chi_gauss.weight and (v * vbar).y == 0
        # chi * chi^theta = 1 on the unitary values
        unit = Fraction((v * vbar).x, p ** chi_gauss.weight)
        assert unit == 1


def test_induced_purity(chi_gauss):
    for p in primes_upto(60):
        if splitting(chi_gauss.field, p) is Splitting.RAMIFIED:
            continue
        assert is_selfdual_pure(induced_factor(chi_gauss, p)).ok


def test_sym2_ind_identity(chi_gauss):
    # Sym^2(Ind chi) = Ind(chi^2) * (1 - p^(2m) T) at unramified p
    w = chi_gauss.weight
    for p in primes_upto(100):
        if splitting(chi_gauss.field, p) is Splitting.RAMIFIED:
            continue
        lhs = plethysm(induced_factor(chi_gauss, p), Functor.SYM2)
        rhs = combine(
            induced_factor(char_square(chi_gauss), p),
            tate_factor(p, w),
            CombineMode.SUM,
        )
        assert lhs == rhs


@pytest.mark.parametrize(
    "D, m", [(-3, 3), (-4, 2)] + [(d, m) for d in (-7, -8, -11, -19, -43, -67, -163) for m in (1, 2)]
)
def test_cm_table_of_chi_gives_the_induced_factor(D, m):
    """Ind chi is the CM newform of weight 2m + 1, level |D| and character
    (D/.): read as a ``delta D`` table, its GL(2) factor is the induced one
    at every p, the ramified primes (|a_p| = p^m) included."""
    chi = AntiCycChar(ImagQuadField(D), m)
    induced = {p: induced_factor(chi, p) for p in primes_upto(500)}
    table = NewformData(2 * m + 1, -D, D, {p: -f.coeffs[1] for p, f in induced.items()})
    assert {p: local_factor_gl2(table, p) for p in induced} == induced


def test_conductor_ind():
    assert conductor_ind(AntiCycChar(ImagQuadField(-4), 2)) == 4
    assert conductor_ind(AntiCycChar(ImagQuadField(-3), 3)) == 3
    assert conductor_ind(AntiCycChar(ImagQuadField(-163), 1)) == 163


def test_quadint_arithmetic():
    K = ImagQuadField(-7)
    a, b = K.element(2, 3), K.element(-1, 4)
    assert (a * b).conj() == a.conj() * b.conj()
    assert a.trace() == 2 * 2 + (-7) * 3
    assert (a * a.conj()).y == 0 and a.norm() == (a * a.conj()).x


def test_char_json_interface(chi_gauss):
    pi = prime_above(chi_gauss.field, 5)
    value = char_value(chi_gauss, pi)
    assert (value.x, value.y) == (41, 24)
