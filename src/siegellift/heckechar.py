"""Unramified anti-cyclotomic characters of class-number-one imaginary
quadratic fields, and their automorphic induction to degree-2 Euler
factors over Q.

A field is fixed by its (negative, fundamental) discriminant D with class
number one, so D is one of -3, -4, -7, -8, -11, -19, -43, -67, -163.  Its
ring of integers is Z[w] with w = (D + sqrt(D))/2, and every prime ideal
is principal, so character values are honest algebraic integers x + y*w.

The supported characters send a principal ideal (alpha) to alpha^(2m),
m a positive integer (weight 2m, arithmetic normalization).  Values are
generator-independent exactly when every unit u satisfies u^(2m) = 1,
which pins m even for D = -4 and m divisible by 3 for D = -3.  The
unitary value alpha^(2m) / |alpha|^(2m) = (alpha/conj(alpha))^m is
inverted by conjugation, which is the anti-cyclotomic condition.

The induced factor at p needs only tr(pi^(2m)) and the norm p^(2m) of a
generator pi above p, so it is read off the trace t of pi, which
Cornacchia's algorithm gives, through a Lucas sequence in t and p; no
element of the field is formed.  ``prime_above`` and ``char_value``
compute the generator and its character value themselves, and the tests
check the factor against them.
"""

from __future__ import annotations

from enum import Enum
from math import isqrt

from ._primes import is_prime, kronecker_at_prime, sqrt_mod
from ._record import Value
from .errors import InputError
from .localfactor import LocalFactor

SUPPORTED_DISCRIMINANTS = (-3, -4, -7, -8, -11, -19, -43, -67, -163)


class Splitting(Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


class ImagQuadField(Value):
    """Q(sqrt(D)) for a class-number-one fundamental discriminant D < 0."""

    __slots__ = ("D",)

    def __init__(self, D: int):
        if D not in SUPPORTED_DISCRIMINANTS:
            raise InputError(
                f"D={D} is not a class-number-one fundamental discriminant "
                f"(supported: {list(SUPPORTED_DISCRIMINANTS)})"
            )
        self._fill(D)

    def element(self, x: int, y: int) -> "QuadInt":
        return QuadInt(self, x, y)

    def units(self) -> tuple:
        one = self.element(1, 0)
        us = [one, -one]
        if self.D == -4:
            i = self.element(2, 1)  # i = 2 + w for w = -2 + sqrt(-1)
            us += [i, -i]
        elif self.D == -3:
            z = self.element(2, 1)  # zeta_6 = (1 + sqrt(-3))/2 = 2 + w
            us = [z**k for k in range(6)]
        return tuple(us)


class QuadInt(Value):
    """x + y*w in the ring of integers of an ImagQuadField."""

    __slots__ = ("field", "x", "y")

    def __init__(self, field: ImagQuadField, x: int, y: int):
        self._fill(field, x, y)

    def __neg__(self) -> "QuadInt":
        return QuadInt(self.field, -self.x, -self.y)

    def __mul__(self, other: "QuadInt") -> "QuadInt":
        self._check(other)
        D = self.field.D
        n = (D * D - D) // 4  # w = (D + sqrt(D))/2 has trace D and norm n: w^2 = D*w - n
        x1, y1, x2, y2 = self.x, self.y, other.x, other.y
        return QuadInt(self.field, x1 * x2 - n * y1 * y2, x1 * y2 + x2 * y1 + D * y1 * y2)

    def __pow__(self, k: int) -> "QuadInt":
        if k < 0:
            raise InputError("negative powers are not defined in the ring of integers")
        out = QuadInt(self.field, 1, 0)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:  # no squaring past the top bit
                base = base * base
        return out

    def conj(self) -> "QuadInt":
        # w -> D - w
        return QuadInt(self.field, self.x + self.field.D * self.y, -self.y)

    def norm(self) -> int:
        return (self * self.conj()).x

    def trace(self) -> int:
        return 2 * self.x + self.field.D * self.y

    def _check(self, other: "QuadInt") -> None:
        if self.field != other.field:
            raise InputError("mixed-field arithmetic")


class AntiCycChar(Value):
    """chi((alpha)) = alpha^(2m): unramified, anti-cyclotomic, weight 2m."""

    __slots__ = ("field", "m")

    def __init__(self, field: ImagQuadField, m: int):
        if m < 1:
            raise InputError(f"half-weight m must be positive, got {m}")
        if field.D == -4 and m % 2 != 0:
            raise InputError("D=-4 has units of order 4: m must be even")
        if field.D == -3 and m % 3 != 0:
            raise InputError("D=-3 has units of order 6: m must be divisible by 3")
        self._fill(field, m)

    @property
    def weight(self) -> int:
        return 2 * self.m


def splitting(field: ImagQuadField, p: int) -> Splitting:
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    s = kronecker_at_prime(field.D, p)
    if s == 1:
        return Splitting.SPLIT
    if s == -1:
        return Splitting.INERT
    return Splitting.RAMIFIED


def prime_above(field: ImagQuadField, p: int) -> QuadInt:
    """A generator of a prime above p (class number one makes it principal).

    Split/ramified p: an element x + y*w of norm p, from t = 2x + yD (twice
    the real part) of :func:`_trace_above`, y^2 = (4p - t^2)/|D|.  Every
    element of norm p is u*pi or u*conj(pi) for a unit u; the one with the
    largest (t, y) is returned, so the choice is reproducible.  Inert p: the
    rational prime itself (norm p^2).
    """
    kind = splitting(field, p)
    if kind is Splitting.INERT:
        return field.element(p, 0)
    D, t = field.D, _trace_above(field.D, p)
    y = isqrt((4 * p - t * t) // -D)
    # (t', y') of u * (t +- y sqrt(D))/2 for each unit u = (ut + uy sqrt(D))/2
    units = [(u.trace(), u.y) for u in field.units()]
    t, y = max(((ut * t + uy * D * s) // 2, (ut * s + uy * t) // 2) for ut, uy in units for s in (y, -y))
    return field.element((t - D * y) // 2, y)


def _trace_above(D: int, p: int) -> int:
    """The trace t >= 0 of an element of norm p, at p split or ramified in
    Q(sqrt(D)): the norm equation reads t^2 + |D| y^2 = 4p, solved by
    Cornacchia's algorithm (Cohen, GTM 138, Alg. 1.5.3): t^2 = 8 + D at
    p = 2; for odd p, Euclid on (2p, r), r = sqrt(D) mod p congruent to D
    mod 2, down to the first remainder t <= 2 sqrt(p)."""
    if p == 2:
        return isqrt(8 + D)
    a, t, bound = 2 * p, sqrt_mod(D, p), isqrt(4 * p)
    if (t - D) % 2:
        t = p - t
    while t > bound:
        a, t = t, a % t
    return t


def char_value(chi: AntiCycChar, pi: QuadInt) -> QuadInt:
    """chi((pi)) = pi^(2m); independent of the generator since u^(2m) = 1."""
    return pi ** (2 * chi.m)


def induced_factor(chi: AntiCycChar, p: int) -> LocalFactor:
    """Degree-2 Euler factor over Q of the induction of chi, weight 2m.

    Split p: (1 - chi(pi) T)(1 - chi(conj pi) T) = 1 - V T + p^(2m) T^2.
    Inert p: 1 - p^(2m) T^2.  Ramified p: 1 - chi(pi) T at nominal degree
    2, where pi^(2m) = conj(pi)^(2m) is the rational integer V/2.  Here V is
    tr(pi^(2m)), the same for every generator pi since u^(2m) = 1 for every
    unit u and conjugation keeps the trace: the term V_(2m) of the Lucas
    sequence V_0 = 2, V_1 = t, V_(n+1) = t V_n - p V_(n-1) of the trace
    t = tr(pi) (:func:`_trace_above`), as pi^2 = t pi - p.  No character
    value is formed.
    """
    kind = splitting(chi.field, p)
    w = chi.weight
    if kind is Splitting.INERT:
        return LocalFactor(p, w, (1, 0, -(p**w)))
    t = _trace_above(chi.field.D, p)
    v0, v = 2, t
    for _ in range(w - 1):
        v0, v = v, t * v - p * v0
    if kind is Splitting.SPLIT:
        return LocalFactor(p, w, (1, -v, p**w))
    return LocalFactor(p, w, (1, -(v // 2), 0))


def char_square(chi: AntiCycChar) -> AntiCycChar:
    """chi^2, the character of half-weight 2m (unit-compatible automatically)."""
    return AntiCycChar(chi.field, 2 * chi.m)


def conductor_ind(chi: AntiCycChar) -> int:
    """Conductor of the induction: norm of the conductor of chi (here 1)
    times |D|."""
    return abs(chi.field.D)
