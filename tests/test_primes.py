"""Factorization: Pollard-Brent rho against trial division."""

import random

import pytest

from siegellift._primes import factorize, is_prime


def trial_division(n):
    out, d = [], 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def test_factorize_matches_trial_division_below_ten_million():
    rng = random.Random(20061)
    samples = [1, 2, 4, 997 * 997, 1009 * 1009, 2**23, 3**14, 9999991, 10**7]
    samples += [rng.randrange(1, 10**7 + 1) for _ in range(2000)]
    for n in samples:
        assert factorize(n) == trial_division(n), n


def _prime_near(rng, x):
    n = rng.randrange(x, 2 * x)
    while not is_prime(n):
        n += 1
    return n


def test_factorize_products_of_two_primes_near_1e8():
    rng = random.Random(7)
    for _ in range(8):
        p, q = sorted((_prime_near(rng, 10**8), _prime_near(rng, 10**8)))
        if p == q:
            continue
        assert factorize(p * q) == [(p, 1), (q, 1)]
        assert factorize(p * p) == [(p, 2)]
        assert factorize(12 * p * q**3) == [(2, 2), (3, 1), (p, 1), (q, 3)]


def test_factorize_a_large_discriminant():
    # |discriminant| of the model [-21, -10, 18, -98486, -47847]
    assert factorize(63193416213859599) == [(3, 1), (124120307, 1), (169710119, 1)]
    assert factorize((2**31 - 1) * (2**61 - 1)) == [(2**31 - 1, 1), (2**61 - 1, 1)]


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
