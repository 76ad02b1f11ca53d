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
"""

from __future__ import annotations

from enum import Enum
from math import isqrt

from ._primes import is_prime, kronecker_at_prime, sqrt_mod
from ._record import Value, _set
from .errors import InputError, UnitCompatibilityError, UnsupportedFieldError
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
            raise UnsupportedFieldError(
                f"D={D} is not a class-number-one fundamental discriminant "
                f"(supported: {list(SUPPORTED_DISCRIMINANTS)})"
            )
        _set(self, "D", D)

    def _args(self) -> tuple:
        return (self.D,)

    @property
    def unit_order(self) -> int:
        if self.D == -4:
            return 4
        if self.D == -3:
            return 6
        return 2

    # ring generator w = (D + sqrt(D))/2 has trace D and norm (D^2 - D)/4
    @property
    def gen_trace(self) -> int:
        return self.D

    @property
    def gen_norm(self) -> int:
        return (self.D * self.D - self.D) // 4

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
        _set(self, "field", field)
        _set(self, "x", x)
        _set(self, "y", y)

    def _args(self) -> tuple:
        return (self.field, self.x, self.y)

    def __add__(self, other: "QuadInt") -> "QuadInt":
        self._check(other)
        return QuadInt(self.field, self.x + other.x, self.y + other.y)

    def __neg__(self) -> "QuadInt":
        return QuadInt(self.field, -self.x, -self.y)

    def __sub__(self, other: "QuadInt") -> "QuadInt":
        return self + (-other)

    def __mul__(self, other: "QuadInt") -> "QuadInt":
        self._check(other)
        n, t = self.field.gen_norm, self.field.gen_trace
        x1, y1, x2, y2 = self.x, self.y, other.x, other.y
        # w^2 = t*w - n
        return QuadInt(self.field, x1 * x2 - n * y1 * y2, x1 * y2 + x2 * y1 + t * y1 * y2)

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

    def __str__(self):
        return f"{self.x}{self.y:+}*w" if self.y else str(self.x)

    def to_json(self) -> dict:
        return {"x": str(self.x), "y": str(self.y)}


class AntiCycChar(Value):
    """chi((alpha)) = alpha^(2m): unramified, anti-cyclotomic, weight 2m."""

    __slots__ = ("field", "m")

    def __init__(self, field: ImagQuadField, m: int):
        if m < 1:
            raise InputError(f"half-weight m must be positive, got {m}")
        if field.D == -4 and m % 2 != 0:
            raise UnitCompatibilityError("D=-4 has units of order 4: m must be even")
        if field.D == -3 and m % 3 != 0:
            raise UnitCompatibilityError("D=-3 has units of order 6: m must be divisible by 3")
        _set(self, "field", field)
        _set(self, "m", m)

    def _args(self) -> tuple:
        return (self.field, self.m)

    @property
    def weight(self) -> int:
        return 2 * self.m

    def to_json(self) -> dict:
        return {"D": self.field.D, "m": self.m}

    @classmethod
    def from_json(cls, data: dict) -> "AntiCycChar":
        return cls(ImagQuadField(int(data["D"])), int(data["m"]))


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

    Split/ramified p: an element x + y*w of norm p.  With t = 2x + yD (twice
    the real part) the norm equation reads t^2 + |D| y^2 = 4p, solved by
    Cornacchia's algorithm (Cohen, GTM 138, Alg. 1.5.3): t^2 = 8 + D at p = 2;
    for odd p, Euclid on (2p, r), r = sqrt(D) mod p congruent to D mod 2, down
    to the first remainder t <= 2 sqrt(p).  Every element of norm p is u*pi or
    u*conj(pi) for a unit u; the one with the largest (t, y) is returned, so
    the choice is reproducible.  Inert p: the rational prime itself (norm p^2).
    """
    return _prime_above(field, p, splitting(field, p))


def _prime_above(field: ImagQuadField, p: int, kind: Splitting) -> QuadInt:
    """:func:`prime_above` for a caller that has the splitting of p."""
    if kind is Splitting.INERT:
        return field.element(p, 0)
    D = field.D
    if p == 2:
        t = isqrt(8 + D)
    else:
        a, t, bound = 2 * p, sqrt_mod(D, p), isqrt(4 * p)
        if (t - D) % 2:
            t = p - t
        while t > bound:
            a, t = t, a % t
    y = isqrt((4 * p - t * t) // -D)
    # (t', y') of u * (t +- y sqrt(D))/2 for each unit u = (ut + uy sqrt(D))/2
    units = [(u.trace(), u.y) for u in field.units()]
    t, y = max(((ut * t + uy * D * s) // 2, (ut * s + uy * t) // 2) for ut, uy in units for s in (y, -y))
    return field.element((t - D * y) // 2, y)


def char_value(chi: AntiCycChar, pi: QuadInt) -> QuadInt:
    """chi((pi)) = pi^(2m); independent of the generator since u^(2m) = 1."""
    return pi ** (2 * chi.m)


def induced_factor(chi: AntiCycChar, p: int) -> LocalFactor:
    """Degree-2 Euler factor over Q of the induction of chi, weight 2m.

    Split p: (1 - chi(pi) T)(1 - chi(conj pi) T) with integer trace/norm
    coefficients.  Inert p: 1 - p^(2m) T^2.  Ramified p: 1 - chi(pi) T at
    nominal degree 2, with chi(pi) = +-p^m a rational integer.
    """
    kind = splitting(chi.field, p)
    w = chi.weight
    if kind is Splitting.INERT:
        return LocalFactor(p, w, (1, 0, -(p**w)))
    value = char_value(chi, _prime_above(chi.field, p, kind))
    if kind is Splitting.SPLIT:
        return LocalFactor(p, w, (1, -value.trace(), value.norm()))
    assert value.y == 0, "ramified character value must be rational"
    return LocalFactor(p, w, (1, -value.x, 0))


def char_square(chi: AntiCycChar) -> AntiCycChar:
    """chi^2, the character of half-weight 2m (unit-compatible automatically)."""
    return AntiCycChar(chi.field, 2 * chi.m)


def restriction_char(chi: AntiCycChar, p: int) -> int:
    """Arithmetic value at p of the restriction of chi to Q: always p^(2m).

    The unitary restriction is trivial (the w-th power of the quadratic
    character attached to the field, with w = 2m even); its arithmetic
    avatar is the Tate value p^(2m).  The same convention is applied at the
    ramified prime; callers verifying identities skip that prime and flag
    it in their reports.
    """
    return p**chi.weight


def conductor_ind(chi: AntiCycChar) -> int:
    """Conductor of the induction: norm of the conductor of chi (here 1)
    times |D|."""
    return abs(chi.field.D)
