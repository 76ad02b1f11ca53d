"""Small prime utilities (deterministic, exact) and the grammar of a user's integers."""

from __future__ import annotations

from itertools import compress
from math import gcd

# Deterministic Miller-Rabin witnesses, valid for all n < 3.3 * 10^24; the first
# four alone are valid below 3 215 031 751 (Jaeschke, Math. Comp. 61 (1993)).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


#: The largest sieve :func:`primes_upto` has built: _sieve[n] is 1 exactly
#: when n is prime.  Every LocalFactor checks its prime, and the builders
#: take their primes from a sieve, so those checks are answered from it.
_sieve = bytearray()


def is_prime(n: int) -> bool:
    # A plain function, so that call tracing (perfbench/tracer.py wraps plain
    # functions) sees every check; Miller-Rabin runs only past the sieve.
    if 0 <= n < len(_sieve):
        return _sieve[n] == 1
    return _is_prime(n)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES[:4] if n < 3_215_031_751 else _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_upto(bound: int) -> list[int]:
    """All primes p <= bound, ascending (simple sieve, kept for
    :func:`is_prime` while it is the largest built)."""
    global _sieve
    if bound < 2:
        return []
    if bound >= len(_sieve):
        sieve = bytearray([1]) * (bound + 1)
        sieve[0] = sieve[1] = 0
        for i in range(2, int(bound**0.5) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
        _sieve = sieve
    return list(compress(range(bound + 1), _sieve))


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization [(p, e), ...] with p ascending.

    Trial division strips the primes below 1000; what is left is split by
    Pollard-Brent rho until :func:`is_prime` accepts every part.
    """
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    counts: dict[int, int] = {}
    d = 2
    while d < 1000 and d * d <= n:
        while n % d == 0:
            n //= d
            counts[d] = counts.get(d, 0) + 1
        d += 1 if d == 2 else 2
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
        else:
            d = _rho(m)
            parts += [d, m // d]
    return sorted(counts.items())


def _rho(n: int) -> int:
    """A proper factor of the composite n with no prime factor below 1000:
    Pollard's rho on x -> x^2 + c with Brent's cycle search, gcds taken
    over batches of 128 steps (Brent, BIT 20 (1980) 176-184)."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: retrace it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ValueError(f"no factor of {n} found")  # unreachable for composite n


def kronecker_at_prime(D: int, p: int) -> int:
    """0 when p | D, else 1 when D is a square in Z_p and -1 when it is not.

    For odd p this is the Legendre symbol (D|p); at p = 2 an odd D is a
    square exactly when D = 1 mod 8, which for a discriminant D is the
    Kronecker symbol (D|2).
    """
    if p == 2:
        if D % 2 == 0:
            return 0
        return 1 if D % 8 == 1 else -1
    r = D % p
    if r == 0:
        return 0
    return 1 if pow(r, (p - 1) // 2, p) == 1 else -1


def sqrt_mod(a: int, p: int) -> int:
    """A square root of a modulo the odd prime p, for a a square mod p
    (Tonelli-Shanks; Cohen, GTM 138, Alg. 1.5.1)."""
    if a % p == 0:
        return 0
    q, s = p - 1, 0  # p - 1 = q 2^s with q odd
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i = next(i for i in range(1, s) if pow(t, 1 << i, p) == 1)
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _parse_int(text: str) -> int:
    """The int of an ASCII decimal [+-]?[0-9]+; int() also reads 1_0 and non-ASCII digits."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)
