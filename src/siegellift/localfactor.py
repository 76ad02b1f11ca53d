"""Exact algebra of local Euler factors.

A local factor at a prime p is the reciprocal polynomial

    P(T) = c_0 + c_1 T + ... + c_d T^d,   c_0 = 1,  T standing for p^(-s),

whose inverse roots are the Satake/Frobenius eigenvalues of the local
representation: P(T) = prod_j (1 - alpha_j T).  Everything is exact
(arithmetic normalization): a pure factor of motivic weight w has inverse
roots of absolute value p^(w/2), so its coefficients are plain integers and
purity is a checkable coefficient symmetry, never a floating-point
statement.  Coefficients are Python ints and nothing else: a coefficient
of any other type is rejected, and a division that leaves a remainder
raises ``InputError``.  Only values from outside the package can cause
one: power sums that are not those of an integral polynomial, or a
negative Tate twist whose power of p does not divide the coefficients.

The single internal intermediate is the plain tuple of power sums
(s_1, ..., s_n), s_m = sum_j alpha_j^m; with n = 0 it is (), which
converts back to the trivial factor 1.  A factor is a plain value and
keeps no sums: :func:`_squares` gives Lambda^2 f, Sym^2 f and f x f from
one pass of f's sums, where the spin factor is squared all three ways.
Newton's identities convert both ways:

    s_k = -k c_k - sum_{i=1}^{k-1} c_i s_{k-i}
    c_k = -(s_k + sum_{i=1}^{k-1} c_i s_{k-i}) / k

Direct sums multiply polynomials (power sums add), tensor products
multiply power sums, and the plethysm functors are cycle-index
polynomials evaluated at s_{jm}.  The divisions by k below and by 2, 6,
24 are exact, since the inverse roots are algebraic integers (their power
sums are integers; Macdonald, Symmetric Functions, I.2 and I.8):

    Sym^2: (s_m^2 + s_{2m}) / 2          Lambda^2: (s_m^2 - s_{2m}) / 2
    Sym^3: (s_m^3 + 3 s_m s_{2m} + 2 s_{3m}) / 6
    Sym^4: (s_m^4 + 6 s_m^2 s_{2m} + 3 s_{2m}^2 + 8 s_m s_{3m} + 6 s_{4m}) / 24

Exact division and the expansion of 1/P(T) that ``lseries`` reads share
one triangular series division, exact because c_0 = 1.

Degenerate factors (bad reduction, ramification) are stored at full
nominal degree with trailing zero coefficients; ``effective_degree``
reports the honest polynomial degree.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Sequence, Tuple

from ._primes import is_prime
from ._record import Record, Value, _set
from .errors import InexactDivisionError, InputError

def _div(a: int, k: int) -> int:
    """Exact a / k; a remainder means the input was not integral."""
    q, r = divmod(a, k)
    if r:
        raise InputError(f"division by {k} leaves a remainder: the result is not integral")
    return q


def _int_coeffs(coeffs: Sequence[int]) -> tuple:
    """``coeffs`` as a tuple, checked to hold ints only."""
    coeffs = tuple(coeffs)
    bad = [c for c in coeffs if type(c) is not int]
    if bad:
        raise InputError(
            f"local factor coefficients must be int, got {type(bad[0]).__name__} {bad[0]!r}"
        )
    return coeffs


class CombineMode(Enum):
    SUM = "sum"
    TENSOR = "tensor"


class Functor(Enum):
    SYM2 = "sym2"
    SYM3 = "sym3"
    SYM4 = "sym4"
    EXT2 = "ext2"


#: Nominal output degree of each functor on a degree-d input.
_FUNCTOR_DEGREE = {
    Functor.SYM2: lambda d: d * (d + 1) // 2,
    Functor.EXT2: lambda d: d * (d - 1) // 2,
    Functor.SYM3: lambda d: 4,
    Functor.SYM4: lambda d: 5,
}

#: Weight multiplier (= degree of the Schur functor).
_FUNCTOR_WEIGHT = {Functor.SYM2: 2, Functor.EXT2: 2, Functor.SYM3: 3, Functor.SYM4: 4}


class LocalFactor(Value):
    """Reciprocal Euler polynomial at a prime, with a motivic-weight ledger.

    ``coeffs`` has length degree+1, holds ints only and starts with 1;
    trailing zeros mark a degenerate factor whose honest degree is
    ``effective_degree``.  ``str`` and ``to_json`` render each coefficient
    in decimal, so past 4 300 digits the caller lifts
    ``sys.set_int_max_str_digits`` (only ``cli.main`` does).
    """

    __slots__ = ("prime", "weight", "coeffs")

    def __init__(self, prime: int, weight: int, coeffs: Sequence[int]):
        # direct sets, not _fill: a factor is built some 1 300 times per predict
        _set(self, "prime", prime)
        _set(self, "weight", weight)
        _set(self, "coeffs", coeffs)
        self.__post_init__()

    # the checks live in their own method, which perfbench/tracer.py wraps
    # to count and size every factor built
    def __post_init__(self):
        if not is_prime(self.prime):
            raise InputError(f"{self.prime} is not prime")
        coeffs = _int_coeffs(self.coeffs)
        if not coeffs or coeffs[0] != 1:
            raise InputError("constant coefficient of a local factor must be 1")
        _set(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def effective_degree(self) -> int:
        for i in range(self.degree, -1, -1):
            if self.coeffs[i] != 0:
                return i
        return 0

    def __str__(self):
        terms = ["1"]
        for i, c in enumerate(self.coeffs[1:], start=1):
            if c == 0:
                continue
            mag = abs(c)
            body = "T" if i == 1 else f"T^{i}"
            if mag != 1:
                body = f"{mag}*{body}"
            terms.append(("- " if c < 0 else "+ ") + body)
        return " ".join(terms)

    def to_json(self) -> dict:
        """JSON form; coefficients as decimal strings (they exceed 64 bits)."""
        return {
            "p": self.prime,
            "weight": self.weight,
            "coeffs": [str(c) for c in self.coeffs],
        }


class PurityReport(Record):
    """Outcome of the self-duality/purity coefficient symmetry check."""

    __slots__ = ("ok", "sign", "failing_index")

    def __init__(self, ok: bool, sign: Optional[int] = None, failing_index: Optional[int] = None):
        self._fill(ok, sign, failing_index)

    def __bool__(self):
        return self.ok


def tate_factor(p: int, j: int) -> LocalFactor:
    """Degree-1 factor 1 - p^j T, j >= 0, pure of weight 2j."""
    return LocalFactor(p, 2 * j, (1, -(p**j)))


def power_sums(f: LocalFactor, count: int) -> tuple:
    """The power sums s_1..s_count of the inverse roots (Newton identities)."""
    if count < 0:
        raise InputError("power_sums needs count >= 0")
    return _newton(f.coeffs, count)


def _newton(c: Sequence[int], count: int) -> tuple:
    """The power sums s_1..s_count of the polynomial with coefficients ``c``."""
    d = len(c) - 1
    terms = tuple(enumerate(c[1:], start=1))  # (i, c_i), i = 1..d
    s: list[int] = []
    for k in range(1, count + 1):
        acc = 0
        for i, ci in terms[: k - 1]:
            acc -= ci * s[-i]  # s holds s_1..s_(k-1), so s[-i] is s_(k-i)
        s.append(acc - k * c[k] if k <= d else acc)
    return tuple(s)


def from_power_sums(p: int, degree: int, sums: Sequence[int], weight: int = 0) -> LocalFactor:
    """Inverse of :func:`power_sums`; reads the first ``degree`` power sums.

    Raises ``InputError`` when the sums are not those of an integral
    polynomial (a division by k leaves a remainder).
    """
    if len(sums) < degree:
        raise InputError(f"need {degree} power sums, got {len(sums)}")
    c: list[int] = [1]
    for k in range(1, degree + 1):
        acc = sums[k - 1]
        for i in range(1, k):
            acc += c[i] * sums[k - i - 1]
        c.append(_div(-acc, k))
    return LocalFactor(p, weight, tuple(c))


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out: list[int] = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y != 0:
                out[i + j] += x * y
    return out


def _series_div(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """The first n coefficients of a(T) / b(T), where b_0 = 1."""
    q: list[int] = []
    for k in range(n):
        acc = a[k] if k < len(a) else 0
        for i in range(1, min(k, len(b) - 1) + 1):
            acc -= b[i] * q[k - i]
        q.append(acc)
    return q


def combine(a: LocalFactor, b: LocalFactor, mode: CombineMode) -> LocalFactor:
    """Direct sum (polynomial product) or tensor product (power sums multiply)."""
    if a.prime != b.prime:
        raise InputError(f"primes differ: {a.prime} vs {b.prime}")
    if mode is CombineMode.SUM:
        if a.weight != b.weight:
            raise InputError(f"direct sum needs equal weights, got {a.weight} and {b.weight}")
        return LocalFactor(a.prime, a.weight, tuple(_poly_mul(a.coeffs, b.coeffs)))
    if mode is CombineMode.TENSOR:
        d = a.degree * b.degree
        mixed = _tensor(power_sums(a, d), power_sums(b, d))
        return from_power_sums(a.prime, d, mixed, weight=a.weight + b.weight)
    raise InputError(f"unknown combine mode {mode!r}")


def _tensor(sa: Sequence[int], sb: Sequence[int]) -> list[int]:
    """The power sums of a tensor product from those of its factors."""
    return [x * y for x, y in zip(sa, sb)]


def plethysm(f: LocalFactor, functor: Functor) -> LocalFactor:
    """Apply Sym^2, Sym^3, Sym^4 or Lambda^2 to the inverse-root multiset.

    Sym^3 and Sym^4 are restricted to (nominal) degree-2 inputs, the only
    shape needed here; Sym^2 and Lambda^2 work in any degree.  Degenerate
    inputs are handled transparently because the cycle-index formulas see
    only the actual roots: Sym^3 of a Steinberg line 1 - aT is 1 - a^3 T.
    """
    if functor in (Functor.SYM3, Functor.SYM4) and f.degree != 2:
        raise InputError(f"{functor.value} requires a degree-2 factor, got {f.degree}")
    d_out = _FUNCTOR_DEGREE[functor](f.degree)
    weight = f.weight * _FUNCTOR_WEIGHT[functor]
    out = _cycle_index(functor, power_sums(f, d_out * _FUNCTOR_WEIGHT[functor]), d_out)
    return from_power_sums(f.prime, d_out, out, weight=weight)


def _cycle_index(functor: Functor, sums: Sequence[int], d_out: int) -> list[int]:
    """The power sums s_1..s_(d_out) of ``functor`` applied to the roots
    whose power sums ``sums`` runs to s_(k d_out), k = _FUNCTOR_WEIGHT."""
    s = (0, *sums)
    out: list[int] = []
    for m in range(1, d_out + 1):
        if functor is Functor.SYM2:
            val = _div(s[m] ** 2 + s[2 * m], 2)
        elif functor is Functor.EXT2:
            val = _div(s[m] ** 2 - s[2 * m], 2)
        elif functor is Functor.SYM3:
            val = _div(s[m] ** 3 + 3 * s[m] * s[2 * m] + 2 * s[3 * m], 6)
        else:  # SYM4
            val = _div(
                s[m] ** 4
                + 6 * s[m] ** 2 * s[2 * m]
                + 3 * s[2 * m] ** 2
                + 8 * s[m] * s[3 * m]
                + 6 * s[4 * m],
                24,
            )
        out.append(val)
    return out


def _squares(f: LocalFactor) -> Tuple[LocalFactor, LocalFactor, LocalFactor]:
    """Lambda^2 f, Sym^2 f and f x f, from one pass of f's power sums
    (Sym^2 reads the most: s_1..s_(d(d+1)) for f of degree d)."""
    d, p, w = f.degree, f.prime, 2 * f.weight
    s = power_sums(f, d * (d + 1))
    ext2, sym2 = d * (d - 1) // 2, d * (d + 1) // 2
    return (
        from_power_sums(p, ext2, _cycle_index(Functor.EXT2, s, ext2), w),
        from_power_sums(p, sym2, _cycle_index(Functor.SYM2, s, sym2), w),
        from_power_sums(p, d * d, _tensor(s, s), w),
    )


def tate_twist(f: LocalFactor, j: int) -> LocalFactor:
    """Substitute T -> p^j T: c_i -> c_i p^(ij), weight -> weight + 2j.

    A negative j divides c_i by p^(i|j|) and raises ``InputError`` unless
    every division is exact, so ``tate_twist(tate_twist(f, j), -j) == f``.
    """
    q = f.prime ** abs(j)
    coeffs = tuple(c * q**i if j >= 0 else _div(c, q**i) for i, c in enumerate(f.coeffs))
    return LocalFactor(f.prime, f.weight + 2 * j, coeffs)


def exact_divide(a: LocalFactor, b: LocalFactor) -> LocalFactor:
    """Exact quotient q with q * b = a; nonzero remainder is a hard failure."""
    if a.prime != b.prime:
        raise InputError(f"primes differ: {a.prime} vs {b.prime}")
    if b.weight != a.weight:
        raise InputError(f"divisor weight {b.weight} does not match dividend weight {a.weight}")
    if b.degree > a.degree:
        raise InputError("divisor degree exceeds dividend degree")
    q = _series_div(a.coeffs, b.coeffs, a.degree - b.degree + 1)
    if tuple(_poly_mul(q, b.coeffs)) != a.coeffs:
        raise InexactDivisionError(
            f"nonzero remainder dividing degree-{a.degree} factor at p={a.prime}"
        )
    return LocalFactor(a.prime, a.weight, tuple(q))


def is_selfdual_pure(f: LocalFactor) -> PurityReport:
    """Check the purity/self-duality symmetry c_i p^((d-2i)w/2) = sign * c_(d-i).

    Requires d*w even.  Returns the consistent sign on success, or the first
    failing index.
    """
    d, w = f.degree, f.weight
    if (d * w) % 2 != 0:
        raise InputError("purity symmetry needs degree * weight even")
    sign = None
    for i in range(d + 1):
        # move a negative power of p to the other side to stay integral
        e = (d - 2 * i) * w // 2
        lhs, rhs = f.coeffs[i], f.coeffs[d - i]
        if e >= 0:
            lhs *= f.prime**e
        else:
            rhs *= f.prime**-e
        if sign is None:
            if lhs == rhs:
                sign = 1
            elif lhs == -rhs:
                sign = -1
            else:
                return PurityReport(False, None, i)
        elif lhs != sign * rhs:
            return PurityReport(False, sign, i)
    return PurityReport(True, sign, None)
