"""GL(2) input data: elliptic curves over Q and newform eigenvalue tables.

Curves are given by integral Weierstrass coefficients (a1,a2,a3,a4,a6),
assumed minimal at every prime dividing the discriminant (documented input
contract; no minimalization is performed here).  A supplied conductor is
checked against the reduction at each prime; this rejects a model that is
not minimal at a prime of good or multiplicative reduction, where it
reduces to a cusp.  Good-prime Hecke eigenvalues a_p = p + 1 - #E(F_p)
come from point enumeration at p = 2, an O(p) quadratic-character sum up
to p = 229, and Shanks-Mestre baby-step giant-step (about p^(1/4) group
operations) above it, with the character sum as its fallback and test
oracle.  Curve data must be exact integers; a float, string or bool is
rejected, never truncated.  At a prime p | discriminant the reduction is
additive (a_p = 0) when p | c4 and multiplicative otherwise: split
(a_p = 1) when -c6 is a square in Z_p, nonsplit (a_p = -1) when it is not.

Newforms of weight k >= 2 arrive as eigenvalue files:

    # comment lines start with '#'
    weight 12 level 1 character trivial
    2 -24
    3 252

The character line accepts ``trivial`` or ``delta <D>`` for the quadratic
character of an imaginary quadratic field of discriminant D.
"""

from __future__ import annotations

import warnings
from enum import Enum
from functools import lru_cache
from math import isqrt
from pathlib import Path
from typing import Dict, Optional, TextIO, Tuple, Union

from ._primes import is_prime, kronecker_at_prime
from ._record import Record, Value
from .errors import (
    BadPrimeError,
    EigenfileError,
    InputError,
    MissingEigenvalueError,
    NonMinimalModelError,
    SingularModelError,
)
from .localfactor import LocalFactor


class RamanujanBoundWarning(UserWarning):
    """Eigenvalue exceeding the bound |a_p| <= 2 p^((k-1)/2) at a good prime."""


class ReductionKind(Enum):
    GOOD = "good"
    SPLIT_MULT = "split multiplicative"
    NONSPLIT_MULT = "nonsplit multiplicative"
    ADDITIVE = "additive"


class CharacterKind(Enum):
    TRIVIAL = "trivial"
    DELTA = "delta"


class CurveData(Value):
    """An integral Weierstrass model (a1, a2, a3, a4, a6), optionally with
    its conductor.  ``invariants`` holds (b2, b4, b6, b8, c4, c6,
    discriminant), computed once when the curve is built."""

    __slots__ = ("a1", "a2", "a3", "a4", "a6", "conductor", "invariants")

    def __init__(self, a1: int, a2: int, a3: int, a4: int, a6: int, conductor: Optional[int] = None):
        # exactly int: a float, str or bool is rejected, never truncated
        bad = [v for v in (a1, a2, a3, a4, a6, conductor) if v is not None and type(v) is not int]
        if bad:
            raise InputError(f"curve data must be integers, got {type(bad[0]).__name__} {bad[0]!r}")
        if conductor is not None and conductor < 1:
            raise InputError(f"conductor must be a positive integer, got {conductor}")
        b2, b4, b6, b8, disc = invariants_of_raw(a1, a2, a3, a4, a6)
        if disc == 0:
            raise SingularModelError(f"singular Weierstrass model {(a1, a2, a3, a4, a6)}")
        c4, c6 = b2 * b2 - 24 * b4, -(b2**3) + 36 * b2 * b4 - 216 * b6
        self._fill(a1, a2, a3, a4, a6, conductor, (b2, b4, b6, b8, c4, c6, disc))

    def _args(self) -> tuple:
        return (self.a1, self.a2, self.a3, self.a4, self.a6, self.conductor)

    @property
    def weight(self) -> int:
        """Classical weight of the attached newform."""
        return 2

    @property
    def ainvs(self) -> Tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    @property
    def discriminant(self) -> int:
        return self.invariants[6]

    def to_json(self) -> dict:
        data = {"a": list(self.ainvs)}
        if self.conductor is not None:
            data["conductor"] = self.conductor
        return data

    @classmethod
    def from_json(cls, data: dict) -> "CurveData":
        a = data.get("a")
        if not isinstance(a, (list, tuple)) or len(a) != 5:
            raise InputError('curve JSON needs "a": [a1,a2,a3,a4,a6]')
        return cls(*a, conductor=data.get("conductor"))


def invariants_of_raw(a1, a2, a3, a4, a6):
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return b2, b4, b6, b8, disc


def invariants_of(curve: CurveData) -> Tuple[int, int, int, int, int]:
    """(b2, b4, b6, b8, discriminant) of the Weierstrass model."""
    b2, b4, b6, b8, _, _, disc = curve.invariants
    return b2, b4, b6, b8, disc


class ReductionData(Record):
    __slots__ = ("prime", "kind", "ap")

    def __init__(self, prime: int, kind: ReductionKind, ap: int):
        self.prime = prime
        self.kind = kind
        self.ap = ap

    @property
    def regime(self) -> str:
        """"good", "multiplicative" or "additive"."""
        if self.kind in (ReductionKind.SPLIT_MULT, ReductionKind.NONSPLIT_MULT):
            return "multiplicative"
        return self.kind.value

    def factor(self, k: int) -> LocalFactor:
        """Degree-2 local factor of weight k-1: 1 - a_p T + p^(k-1) T^2 when
        good, else 1 - a_p T at nominal degree 2 (a_p = 0 when additive)."""
        p = self.prime
        c2 = p ** (k - 1) if self.kind is ReductionKind.GOOD else 0
        return LocalFactor(p, k - 1, (1, -self.ap, c2))


class NewformData(Record):
    __slots__ = ("weight", "level", "character", "character_disc", "eigenvalues")

    def __init__(
        self,
        weight: int,
        level: int,
        character: CharacterKind = CharacterKind.TRIVIAL,
        character_disc: Optional[int] = None,
        eigenvalues: Optional[Dict[int, int]] = None,
    ):
        if weight < 2:
            raise InputError(f"newform weight must be >= 2, got {weight}")
        if level < 1:
            raise InputError(f"newform level must be positive, got {level}")
        if character is CharacterKind.DELTA and character_disc is None:
            raise InputError("delta character needs a declared discriminant")
        self.weight = weight
        self.level = level
        self.character = character
        self.character_disc = character_disc
        self.eigenvalues = {} if eigenvalues is None else eigenvalues
        for p, ap in self.eigenvalues.items():
            _warn_ramanujan(p, ap, weight, level)


def _warn_ramanujan(p: int, ap: int, k: int, level: int) -> None:
    # exact integer comparison of a_p^2 against 4 p^(k-1), good primes only
    if level % p != 0 and ap * ap > 4 * p ** (k - 1):
        warnings.warn(
            f"a_{p} = {ap} violates |a_p| <= 2 p^((k-1)/2) for weight {k}",
            RamanujanBoundWarning,
            stacklevel=3,
        )


def point_count(curve: CurveData, p: int) -> int:
    """#E(F_p) by exhaustive enumeration of the affine plane, plus infinity.

    O(p^2) reference oracle for :func:`ap_good`.
    """
    a1, a2, a3, a4, a6 = (a % p for a in curve.ainvs)
    count = 1
    for x in range(p):
        rhs = (x * x * x + a2 * x * x + a4 * x + a6) % p
        lin = (a1 * x + a3) % p
        for y in range(p):
            if (y * y + lin * y) % p == rhs:
                count += 1
    return count


def _ap_charsum(curve: CurveData, p: int) -> int:
    # complete the square in y (p odd): the y-count over x is 1 + chi(g(x))
    # with g = 4x^3 + b2 x^2 + 2 b4 x + b6, so a_p = -sum_x chi(g(x)).
    b2, b4, b6 = curve.invariants[:3]
    b2, b4x2, b6 = b2 % p, (2 * b4) % p, b6 % p
    square = bytearray(p)
    for t in range((p // 2) + 1):
        square[t * t % p] = 1
    affine = 0
    for x in range(p):
        g = (((4 * x + b2) * x + b4x2) * x + b6) % p
        if g == 0:
            affine += 1
        elif square[g]:
            affine += 2
    return p + 1 - (affine + 1)


#: Up to this prime a_p comes from the character sum, which costs at most
#: about 0.1 ms there.  It is Mestre's bound: for p > 229, E or its quadratic
#: twist has a point whose order has a single multiple in the Hasse interval.
_BSGS_MIN_P = 229
#: Points tried before BSGS gives up and the character sum counts instead.
_BSGS_POINTS = 20


def _ec_add(p: int, a: int, P, Q):
    # affine chord-and-tangent on y^2 = x^3 + a x + b over F_p; None is O
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        slope = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (slope * slope - x1 - x2) % p
    return x3, (slope * (x1 - x3) - y1) % p


def _ec_mul(p: int, a: int, n: int, P):
    R = None
    while n:
        if n & 1:
            R = _ec_add(p, a, R, P)
        n >>= 1
        if n:
            P = _ec_add(p, a, P, P)
    return R


def _orders_in(p: int, a: int, P, low: int, high: int, m: int):
    """Every N in [low, high] with N P = O, or None when the order of P is
    at most 2m.  Baby steps jP (1 <= j <= m) are keyed by x, so one lookup
    covers +-j; giant steps visit c P at the centres c of windows of width
    2m + 1 that tile the interval.  An order above 2m puts at most one
    solution in a window and keeps the baby x-coordinates distinct."""
    baby = {}
    Q = None
    for j in range(1, m + 1):
        Q = _ec_add(p, a, Q, P)
        if Q is None or Q[1] == 0 or Q[0] in baby:
            return None
        baby[Q[0]] = (j, Q[1])
    step = _ec_add(p, a, Q, _ec_add(p, a, Q, P))  # (2m + 1) P
    orders = []
    c = low + m
    R = _ec_mul(p, a, c, P)
    while c - m <= high:
        if R is None:
            orders.append(c)
        elif R[0] in baby:
            j, y = baby[R[0]]
            orders.append(c - j if R[1] == y else c + j)
        R = _ec_add(p, a, R, step)
        c += 2 * m + 1
    return [n for n in orders if n <= high]


def _ap_bsgs(curve: CurveData, p: int) -> Optional[int]:
    """a_p at a good prime p > 3 by Shanks-Mestre baby-step giant-step, or
    None when the points tried leave it ambiguous.

    On the model y^2 = x^3 + A x + B (A = -27 c4, B = -54 c6), take
    x = 0, 1, 2, ... with f = x^3 + A x + B != 0.  The point (x f, f^2)
    lies on y^2 = X^3 + A f^2 X + B f^3, which is E when f is a square
    mod p and its quadratic twist, of order p + 1 + a_p, when it is not;
    no square root is needed.  Each order N of the Hasse interval that
    kills the point gives a candidate chi(f) (p + 1 - N).  The true a_p is
    always a candidate, so the one left after intersecting is exact.
    """
    c4, c6 = curve.invariants[4:6]
    A, B = -27 * c4 % p, -54 * c6 % p
    w = isqrt(4 * p)
    low, high = p + 1 - w, p + 1 + w
    m = isqrt(w) + 1
    candidates = None
    tried = 0
    for x in range(p):
        f = ((x * x + A) * x + B) % p
        if f == 0:
            continue
        orders = _orders_in(p, A * f * f % p, (x * f % p, f * f % p), low, high, m)
        if orders is not None:
            sign = kronecker_at_prime(f, p)
            found = {sign * (p + 1 - n) for n in orders}
            candidates = found if candidates is None else candidates & found
            if len(candidates) == 1:
                return candidates.pop()
        tried += 1
        if tried == _BSGS_POINTS:
            break
    return None


@lru_cache(maxsize=None)
def _ap_good_cached(curve: CurveData, p: int) -> int:
    if p == 2:
        return p + 1 - point_count(curve, p)
    if p > _BSGS_MIN_P:
        ap = _ap_bsgs(curve, p)
        if ap is not None:
            return ap
    return _ap_charsum(curve, p)


def ap_good(curve: CurveData, p: int) -> int:
    """a_p = p + 1 - #E(F_p) at a prime of good reduction."""
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if curve.discriminant % p == 0:
        raise BadPrimeError(f"p={p} divides the discriminant; use reduction_bad")
    return _ap_good_cached(curve, p)


def reduction_bad(curve: CurveData, p: int) -> ReductionData:
    """Classify the reduction at p | discriminant.

    The reduction is a cusp when p | c4 and a node otherwise (Silverman,
    AEC, Prop. III.1.4).  Cusp => additive (a_p = 0); node =>
    multiplicative, split (a_p = 1) when -c6 is a square in Z_p and
    nonsplit (a_p = -1) when it is not.  A model that is not minimal at p
    has p | c4, so it shows as additive.
    """
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    _, _, _, _, c4, c6, disc = curve.invariants
    if disc % p != 0:
        raise BadPrimeError(f"p={p} does not divide the discriminant; reduction is good")
    if c4 % p == 0:
        return ReductionData(p, ReductionKind.ADDITIVE, 0)
    # p | disc and p does not divide c4, so p does not divide c6 (c4^3 - c6^2 = 1728 disc)
    ap = kronecker_at_prime(-c6, p)
    kind = ReductionKind.SPLIT_MULT if ap == 1 else ReductionKind.NONSPLIT_MULT
    return ReductionData(p, kind, ap)


def reduction_at(source: Union[CurveData, NewformData], p: int) -> ReductionData:
    """Reduction data of a curve or newform at any prime: the one place where
    good, multiplicative and additive reduction are told apart.

    A curve is good at p not dividing its discriminant; otherwise c4 and
    c6 decide (:func:`reduction_bad`).  A newform is good at
    p not dividing its level N, multiplicative (split when a_p > 0) at
    p || N and additive (a_p = 0) at p^2 | N.  A supplied conductor or
    level must agree with the local data at p.
    """
    if isinstance(source, CurveData):
        if source.discriminant % p != 0:
            red = ReductionData(p, ReductionKind.GOOD, ap_good(source, p))
        else:
            red = reduction_bad(source, p)
        if source.conductor is not None:
            _check_conductor(source.conductor, red)
        return red
    if not isinstance(source, NewformData):
        raise InputError(f"unsupported source {type(source).__name__}")
    n, table = source.level, source.eigenvalues
    if n % (p * p) != 0 and p not in table:
        raise MissingEigenvalueError(f"no eigenvalue a_{p} in the table")
    if n % p != 0:
        return ReductionData(p, ReductionKind.GOOD, table[p])
    if n % (p * p) == 0:
        red, want = ReductionData(p, ReductionKind.ADDITIVE, 0), 0
    else:
        kind = ReductionKind.SPLIT_MULT if table[p] > 0 else ReductionKind.NONSPLIT_MULT
        red, want = ReductionData(p, kind, table[p]), p ** (source.weight - 2)
    # Steinberg twisted by an unramified character at p || N, a_p = 0 at
    # p^2 | N; a nebentypus ramified at p changes a_p, so it is not checked
    ap = table.get(p, 0)
    if ap * ap != want and (source.character is CharacterKind.TRIVIAL or source.character_disc % p):
        raise EigenfileError(f"a_{p} = {ap} contradicts the level {n}: a_p^2 must be {want}")
    return red


def _check_conductor(n: int, red: ReductionData) -> None:
    # the conductor exponent of a minimal model is 0, 1 or >= 2 as the
    # reduction is good, multiplicative or additive; a non-minimal model
    # reduces to a cusp, so it shows as additive
    p = red.prime
    exponent = 0 if n % p else 1 if n % (p * p) else 2
    if exponent != {"good": 0, "multiplicative": 1, "additive": 2}[red.regime]:
        error = InputError if red.regime == "good" else NonMinimalModelError
        raise error(f"{red.regime} reduction at p={p} contradicts the conductor {n}")


def local_factor_gl2(source: Union[CurveData, NewformData], p: int) -> LocalFactor:
    """Degree-2 local factor of the curve/newform at p, weight k-1.

    Good p: 1 - a_p T + p^(k-1) T^2.  Multiplicative p: 1 - a_p T at nominal
    degree 2.  Additive p: the trivial factor.
    """
    return reduction_at(source, p).factor(source.weight)


def parse_eigenfile(source: Union[str, Path, TextIO]) -> NewformData:
    """Parse an eigenvalue file (format in the module docstring)."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    else:
        lines = source.readlines()
    header = None
    eigenvalues: Dict[int, int] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            header = _parse_header(line, lineno)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EigenfileError(f"line {lineno}: expected '<p> <a_p>', got {line!r}")
        try:
            p, ap = int(parts[0]), int(parts[1])
        except ValueError:
            raise EigenfileError(f"line {lineno}: non-integer entry in {line!r}") from None
        if not is_prime(p):
            raise EigenfileError(f"line {lineno}: {p} is not prime")
        if p in eigenvalues:
            raise EigenfileError(f"line {lineno}: duplicate prime {p}")
        eigenvalues[p] = ap
    if header is None:
        raise EigenfileError("missing header line 'weight <k> level <N> character <...>'")
    k, level, character, disc = header
    return NewformData(k, level, character, disc, eigenvalues)


def _parse_header(line: str, lineno: int):
    parts = line.split()
    if len(parts) < 6 or parts[0] != "weight" or parts[2] != "level" or parts[4] != "character":
        raise EigenfileError(
            f"line {lineno}: header must be 'weight <k> level <N> character <trivial|delta D>'"
        )
    try:
        k, level = int(parts[1]), int(parts[3])
    except ValueError:
        raise EigenfileError(f"line {lineno}: non-integer weight/level") from None
    if parts[5] == "trivial" and len(parts) == 6:
        return k, level, CharacterKind.TRIVIAL, None
    if parts[5] == "delta" and len(parts) == 7:
        try:
            return k, level, CharacterKind.DELTA, int(parts[6])
        except ValueError:
            raise EigenfileError(f"line {lineno}: bad delta discriminant") from None
    raise EigenfileError(f"line {lineno}: bad character clause {' '.join(parts[4:])!r}")
