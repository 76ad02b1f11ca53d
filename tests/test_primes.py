"""Primality, square roots mod p, and factorization (Pollard-Brent rho against
trial division)."""

import random

import pytest

from siegellift import CurveData, sym3_object
from siegellift import _primes
from siegellift._primes import factorize, is_prime, primes_upto, sqrt_mod


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


def test_is_prime_matches_the_sieve():
    below = set(primes_upto(2 * 10**5))
    assert [n for n in range(2 * 10**5 + 1) if is_prime(n)] == sorted(below)


def test_is_prime_before_and_after_a_sieve(monkeypatch):
    monkeypatch.setattr(_primes, "_sieve", bytearray())  # as in a fresh process
    expected = [trial_division(n) == [(n, 1)] for n in range(20000)]
    assert [is_prime(n) for n in range(20000)] == expected
    primes_upto(10007)  # 10007 is prime: the sieve ends on a prime
    assert len(_primes._sieve) == 10008
    assert [is_prime(n) for n in range(20000)] == expected
    assert not is_prime(-7) and not is_prime(-10007)
    primes_upto(5000)  # a smaller bound keeps the larger sieve
    assert len(_primes._sieve) == 10008
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert [is_prime(n) for n in range(20000)] == expected


def test_sieve_answers_the_builders_primes(monkeypatch):
    monkeypatch.setattr(_primes, "_sieve", bytearray())
    runs = []
    miller_rabin = _primes._is_prime.__wrapped__  # past the memo
    monkeypatch.setattr(_primes, "_is_prime", lambda n: runs.append(n) or miller_rabin(n))
    sym3_object(CurveData(0, -1, 1, 0, 0), 5000)  # 11a3, 669 primes
    assert runs == []
    assert is_prime(10007) and runs == [10007]  # past the sieve: Miller-Rabin


@pytest.mark.parametrize(
    "n",
    # the least strong pseudoprimes to the bases 2; 2, 3; 2, 3, 5; 2, 3, 5, 7
    # and 2, ..., 11: each shorter witness list passes them
    [2047, 1373653, 25326001, 3215031751, 2152302898747, 3215031751 * 5, 3825123056546413051],
)
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_sieve_and_miller_rabin_reject_strong_pseudoprimes(monkeypatch):
    monkeypatch.setattr(_primes, "_sieve", bytearray())
    primes_upto(1373653)
    assert not is_prime(2047) and not is_prime(1373653)  # read from the sieve
    assert not is_prime(25326001) and not is_prime(3215031751)  # past it


def test_is_prime_on_both_sides_of_the_short_witness_bound():
    assert is_prime(3215031749) and is_prime(3215031767)
    assert is_prime(2**61 - 1) and not is_prime((2**31 - 1) * (2**61 - 1))


def test_sqrt_mod_every_residue():
    for p in primes_upto(1000)[1:]:
        for a in range(p):
            if pow(a, (p - 1) // 2, p) != p - 1:
                assert sqrt_mod(a, p) ** 2 % p == a, (a, p)
