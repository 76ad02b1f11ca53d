"""GL(2) input data: elliptic curves over Q and newform eigenvalue tables.

Curves are given by integral Weierstrass coefficients (a1,a2,a3,a4,a6),
assumed minimal at every prime dividing the discriminant (documented input
contract; no minimalization is performed here).  A supplied conductor N is
checked when the curve is built, at every prime of N and of the
discriminant; this rejects a model that is not minimal at a prime of good
or multiplicative reduction, where it reduces to a cusp.  Good-prime Hecke
eigenvalues a_p = p + 1 - #E(F_p) come from point enumeration at p = 2, an
O(p) quadratic-character sum up to p = 229, and Shanks-Mestre baby-step
giant-step (about p^(1/4) group operations, each one affine addition
written out inline: one modular inversion, no call) above it, with the
character sum as its fallback and test oracle.  Curve and newform data
must be exact ints: a float, str, bool or None is rejected, never
truncated.  At a prime p | discriminant the reduction is additive (a_p = 0)
when p | c4, else multiplicative: split (a_p = 1) when -c6 is a square in
Z_p, nonsplit (a_p = -1) when it is not.

Newforms of weight k >= 2 arrive as eigenvalue files:

    # comment lines start with '#'
    weight 12 level 1 character trivial
    2 -24
    3 252

A row is a prime and its a_p in ASCII decimals.  A table is refused when it
is built if a good a_p passes Deligne's bound |a_p| <= 2 p^((k-1)/2), which
every newform obeys, or an a_p at p | level breaks the level rule.

The character line accepts ``trivial`` or ``delta <D>`` for the quadratic
character of an imaginary quadratic field of discriminant D (a negative
fundamental discriminant; any other D is refused); it is the (D/p) in the
T^2 coefficient of a good prime's factor.  Its conductor |D| must divide
the level.  As -I in Gamma_0(N) gives f = chi(-1) (-1)^k f, the weight must
be even for ``trivial`` and odd for ``delta D``, as (D/-1) = -1.  At p | D
the factor is 1 - a_p T whatever the exponent of p in the level, with
|a_p|^2 = p^(k-1) when the level and D have the same p-part, else a_p = 0.

This is the one module that knows a GL(2) source (``Source``, a curve or a
table): its label, its conductor N with its factorization, and the
conductor-exponent rule (p not dividing N, p || N, p^2 | N for good,
multiplicative, additive reduction) that the conductor check, the level
check and the derivation of N all read.
"""

from __future__ import annotations

import os
from enum import Enum
from functools import lru_cache
from math import gcd, isqrt, prod
from typing import TYPE_CHECKING, Dict, List, Optional, TextIO, Tuple, Union

from ._primes import _parse_int, factorize, is_prime, kronecker_at_prime
from ._record import Record, Value
from .errors import InputError

if TYPE_CHECKING:  # localfactor is imported only where a factor is built, so ap does not load it
    from .localfactor import LocalFactor


class ReductionKind(Enum):
    GOOD = "good"
    SPLIT_MULT = "split multiplicative"
    NONSPLIT_MULT = "nonsplit multiplicative"
    ADDITIVE = "additive"


class CurveData(Value):
    """An integral Weierstrass model (a1, a2, a3, a4, a6), optionally with
    its conductor.  ``invariants`` holds (b2, b4, b6, b8, c4, c6,
    discriminant), computed once when the curve is built.  A conductor N
    must give the reduction at every prime of N and of the discriminant."""

    __slots__ = ("a1", "a2", "a3", "a4", "a6", "conductor", "invariants")

    def __init__(self, a1: int, a2: int, a3: int, a4: int, a6: int, conductor: Optional[int] = None):
        _require_ints("curve", (a1, a2, a3, a4, a6), conductor)
        if conductor is not None and conductor < 1:
            raise InputError(f"conductor must be a positive integer, got {conductor}")
        b2, b4, b6, b8, disc = invariants_of_raw(a1, a2, a3, a4, a6)
        if disc == 0:
            raise InputError(f"singular Weierstrass model {(a1, a2, a3, a4, a6)}")
        c4, c6 = b2 * b2 - 24 * b4, -(b2**3) + 36 * b2 * b4 - 216 * b6
        self._fill(a1, a2, a3, a4, a6, conductor, (b2, b4, b6, b8, c4, c6, disc))
        if conductor is None:
            return
        rest = abs(disc)  # its part prime to N: 1 for a minimal model that agrees with N
        while (g := gcd(rest, conductor)) > 1:
            rest //= g
        for p in sorted(p for p, _ in factorize(conductor) + factorize(rest)):
            if (regime := checked_regime(self, p)) != _regime_at(conductor, p):
                raise InputError(f"{regime} reduction at p={p} contradicts the conductor {conductor}")

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


def _require_ints(what: str, values: tuple, optional: Optional[int]) -> None:
    for v in values if optional is None else (*values, optional):
        if type(v) is not int:
            raise InputError(f"{what} data must be integers, got {type(v).__name__} {v!r}")


def invariants_of_raw(a1, a2, a3, a4, a6):
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return b2, b4, b6, b8, disc


class ReductionData(Record):
    __slots__ = ("prime", "kind", "ap")

    def __init__(self, prime: int, kind: ReductionKind, ap: int):
        self._fill(prime, kind, ap)

    @property
    def regime(self) -> str:
        """"good", "multiplicative" or "additive"."""
        if self.kind in (ReductionKind.SPLIT_MULT, ReductionKind.NONSPLIT_MULT):
            return "multiplicative"
        return self.kind.value

    def coeffs(self, source: Source) -> Tuple[int, int, int]:
        """Coefficients (1, -a_p, c_2) of the degree-2 local factor at this
        prime of ``source``, of weight k-1: c_2 = eps(p) p^(k-1) when good,
        eps the character of the source (trivial for a curve, (D/p) for a
        table's ``delta D``), else c_2 = 0 (a_p = 0 when additive, unless p
        divides the D of a ``delta D`` table whose level has the p-part of D)."""
        p, k = self.prime, source.weight
        c2 = 0
        if self.kind is ReductionKind.GOOD:
            c2 = p ** (k - 1)
            if isinstance(source, NewformData) and source.character is not None:
                c2 *= kronecker_at_prime(source.character, p)
        return (1, -self.ap, c2)


class NewformData(Record):
    """A newform's eigenvalue table; ``character`` is the D of ``delta D``,
    or None for ``trivial``, and fixes the parity of the weight."""

    __slots__ = ("weight", "level", "character", "eigenvalues")

    def __init__(
        self,
        weight: int,
        level: int,
        character: Optional[int] = None,
        eigenvalues: Optional[Dict[int, int]] = None,
    ):
        eigenvalues = {} if eigenvalues is None else eigenvalues
        _require_ints("newform", (weight, level, *eigenvalues, *eigenvalues.values()), character)
        for p in eigenvalues:
            if not is_prime(p):
                raise InputError(f"newform eigenvalue key {p} is not prime")
        if weight < 2:
            raise InputError(f"newform weight must be >= 2, got {weight}")
        if level < 1:
            raise InputError(f"newform level must be positive, got {level}")
        if character is not None:
            _check_delta(weight, level, character)
        elif weight % 2:
            raise InputError(f"character trivial is even, so the weight must be even, got {weight}")
        self._fill(weight, level, character, eigenvalues)
        for p, ap in eigenvalues.items():
            if level % p == 0:
                checked_regime(self, p)  # the level rule
            elif ap * ap > 4 * p ** (weight - 1):  # Deligne's bound, which every newform obeys
                raise InputError(f"a_{p} = {ap} violates |a_p| <= 2 p^((k-1)/2) for weight {weight}")


def _check_delta(weight: int, level: int, disc: int) -> None:
    """D is the discriminant of an imaginary quadratic field, and a newform
    with the character (D/.) has a level that its conductor |D| divides,
    and (-1)^k = (D/-1) = -1: odd weight."""
    if not _is_imaginary_discriminant(disc):
        raise InputError(
            f"character delta {disc}: {disc} is not the discriminant of an "
            "imaginary quadratic field"
        )
    if level % disc != 0:
        raise InputError(
            f"character delta {disc} has conductor {abs(disc)}, "
            f"which does not divide the level {level}"
        )
    if weight % 2 == 0:
        raise InputError(f"character delta {disc} is odd, so the weight must be odd, got {weight}")


def _is_imaginary_discriminant(d: int) -> bool:
    """Whether d < 0 is a fundamental discriminant: d = 1 mod 4 squarefree,
    or d = 4m with m = 2 or 3 mod 4 squarefree."""
    if d >= 0:
        return False
    if d % 4 == 1:
        m = d
    elif d % 16 in (8, 12):
        m = d // 4
    else:
        return False
    return all(e == 1 for _, e in factorize(-m))


Source = Union[CurveData, NewformData]
Factors = List[Tuple[int, int]]  # [(p, e), ...] as from factorize


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


def _orders_in(p: int, a: int, x1: int, y1: int, low: int, high: int, m: int):
    """Every N in [low, high] with N P = O for P = (x1, y1), y1 != 0, on
    y^2 = x^3 + a x + b over F_p, or None when the order of P is at most
    2m + 1.  Baby steps jP (1 <= j <= m) are keyed by x, so one lookup
    covers +-j; giant steps visit c P at the centres c, the multiples of
    2m + 1, of windows of width 2m + 1 that cover the interval.  An order
    above 2m + 1 puts at most one solution in a window and keeps the baby
    x-coordinates distinct.  The affine group law is written out in each
    loop: one inversion and no call per addition.  x = None stands for O."""
    baby = {}
    x, y = x1, y1
    for j in range(1, m + 2):  # j P
        if x in baby:  # j P = +-i P with i < j
            return None
        if j > m:
            break
        baby[x] = (j, y)
        t = ((y - y1) * pow(x - x1, -1, p) if j > 1 else (3 * x * x + a) * pow(2 * y, -1, p)) % p
        xm, ym, x = x, y, (t * t - x - x1) % p
        y = (t * (xm - x) - ym) % p
    # the giant step (2m + 1) P = m P + (m + 1) P
    t = (y - ym) * pow(x - xm, -1, p) % p
    sx = (t * t - x - xm) % p
    sy = (t * (xm - sx) - ym) % p
    # the first window, centred at c = q (2m + 1), reaches low (q >= 1: no
    # N <= 2m + 1 kills P); c P = q S takes fewer doublings than a c P near low
    q = max(1, (low + m) // (2 * m + 1))
    c = q * (2 * m + 1)
    x, y = sx, sy  # double-and-add from the top bit of q
    for bit in bin(q)[3:]:
        if y == 0:  # 2-torsion doubles to O (O itself keeps x = None)
            x = None
        elif x is not None:
            t = (3 * x * x + a) * pow(2 * y, -1, p) % p
            xm, x = x, (t * t - 2 * x) % p
            y = (t * (xm - x) - y) % p
        if bit == "0":
            continue
        if x is None:
            x, y = sx, sy
        elif x == sx and (y != sy or y == 0):
            x = None
        else:
            t = ((y - sy) * pow(x - sx, -1, p) if x != sx else (3 * x * x + a) * pow(2 * y, -1, p)) % p
            xm, x = x, (t * t - x - sx) % p
            y = (t * (xm - x) - y) % p
    orders = []
    while c - m <= high:
        if x is None:
            orders.append(c)
            x, y = sx, sy
        else:
            if x in baby:
                j, yj = baby[x]
                orders.append(c - j if y == yj else c + j)
            if x == sx and (y != sy or y == 0):
                x = None
            else:
                t = ((y - sy) * pow(x - sx, -1, p) if x != sx
                     else (3 * x * x + a) * pow(2 * y, -1, p)) % p
                xm, x = x, (t * t - x - sx) % p
                y = (t * (xm - x) - y) % p
        c += 2 * m + 1
    return [n for n in orders if low <= n <= high]


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
        orders = _orders_in(p, A * f * f % p, x * f % p, f * f % p, low, high, m)
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
        raise InputError(f"p={p} divides the discriminant; use reduction_bad")
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
        raise InputError(f"p={p} does not divide the discriminant; reduction is good")
    if c4 % p == 0:
        return ReductionData(p, ReductionKind.ADDITIVE, 0)
    # p | disc and p does not divide c4, so p does not divide c6 (c4^3 - c6^2 = 1728 disc)
    ap = kronecker_at_prime(-c6, p)
    kind = ReductionKind.SPLIT_MULT if ap == 1 else ReductionKind.NONSPLIT_MULT
    return ReductionData(p, kind, ap)


def reduction_at(source: Source, p: int) -> ReductionData:
    """Reduction data of a curve or newform at any prime: the one place where
    good, multiplicative and additive reduction are told apart.

    A curve is good at p not dividing its discriminant; otherwise c4 and
    c6 decide (:func:`reduction_bad`).  A newform's level decides by the
    rule in :data:`_REGIMES`, split multiplicative when a_p > 0; at a prime
    of its ``delta D`` character it keeps the table's a_p (0 if absent), so
    its factor is 1 - a_p T at any exponent of p in the level, after the
    checks of :func:`checked_regime` (a curve's ran when it was built).
    """
    if isinstance(source, CurveData):
        if source.discriminant % p:
            return ReductionData(p, ReductionKind.GOOD, ap_good(source, p))
        return reduction_bad(source, p)
    regime = checked_regime(source, p)
    ap = source.eigenvalues.get(p, 0)
    if regime == "multiplicative":
        return ReductionData(p, ReductionKind.SPLIT_MULT if ap > 0 else ReductionKind.NONSPLIT_MULT, ap)
    return ReductionData(p, ReductionKind(regime), ap)  # GOOD or ADDITIVE


def checked_regime(source: Source, p: int) -> str:
    """The reduction at p ("good", "multiplicative" or "additive") with no
    point count.  A table must give a_p wherever the level asks for a
    nonzero one (checked where a command reaches p), of the size the level
    rule asks (checked at every p | N in the table when it is built):

    - at p || N, a_p^2 = p^(k-2) (Steinberg twisted by an unramified
      character); at p^2 | N, a_p = 0;
    - at p | D for the character ``delta D``, which is ramified there
      (Miyake, Modular Forms, Thm 4.6.17): a_p^2 = p^(k-1) when N and D
      have the same p-part, else a_p = 0.
    """
    if isinstance(source, CurveData):
        return reduction_bad(source, p).regime if source.discriminant % p == 0 else "good"
    n, table, k = source.level, source.eigenvalues, source.weight
    regime = _regime_at(n, p)
    if source.character is not None and source.character % p == 0:
        # |D| divides N, so the two have the same p-part when p does not divide N/|D|
        want = p ** (k - 1) if n // -source.character % p else 0
    elif regime == "good":
        want = None
    else:
        want = p ** (k - 2) if regime == "multiplicative" else 0
    if want != 0 and p not in table:
        raise InputError(f"no eigenvalue a_{p} in the table")
    ap = table.get(p, 0)
    if want is not None and ap * ap != want:
        raise InputError(f"a_{p} = {ap} contradicts the level {n}: a_p^2 must be {want}")
    return regime


#: The conductor-exponent rule, written once: the reduction at p is _REGIMES[e]
#: for e = 0 at p not dividing N, 1 at p || N and 2 at p^2 | N (any exponent
#: of 2 or more).
_REGIMES = ("good", "multiplicative", "additive")


def _regime_at(n: int, p: int) -> str:
    """The reduction at p that the conductor or level n allows.  A model not
    minimal at p reduces to a cusp there, so it shows as additive."""
    return _REGIMES[0 if n % p else 1 if n % (p * p) else 2]


def _conductor(source: Source) -> Tuple[int, Factors]:
    """Conductor N of the source and its factorization: a table's level, a
    curve's supplied N (both checked when the source was built), or, without
    one, N read off the reduction at each p | discriminant by :data:`_REGIMES`."""
    n = source.level if isinstance(source, NewformData) else source.conductor
    if n is not None:
        return n, factorize(n)
    derived = [(p, _REGIMES.index(checked_regime(source, p)))
               for p, _ in factorize(abs(source.discriminant))]
    for p, e in derived:
        if e > 1:  # additive: the exponent is at least 2, and the model does not say which
            raise InputError(f"conductor required: additive reduction at {p} prevents deriving it "
                             "from the discriminant")
    return prod(p**e for p, e in derived), derived


def _source_label(source: Source) -> str:
    if isinstance(source, CurveData):
        return "curve " + ",".join(str(a) for a in source.ainvs)
    return f"newform k={source.weight} N={source.level}"


def local_factor_gl2(source: Source, p: int) -> LocalFactor:
    """Degree-2 local factor of the curve/newform at p, weight k-1.

    Good p: 1 - a_p T + eps(p) p^(k-1) T^2, eps the source's character.
    Bad p: 1 - a_p T at nominal degree 2, a_p = 0 when additive but at a
    prime of a ``delta D`` character (:meth:`ReductionData.coeffs`).
    """
    from .localfactor import LocalFactor

    return LocalFactor(p, source.weight - 1, reduction_at(source, p).coeffs(source))


def parse_eigenfile(source: Union[str, "os.PathLike[str]", TextIO]) -> NewformData:
    """Parse an eigenvalue file (format in the module docstring), given by
    its path or as an open text stream."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    else:
        lines = source.readlines()
    if lines:  # an editor may save UTF-8 with a byte-order mark
        lines[0] = lines[0].removeprefix("\ufeff")
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
            raise InputError(f"line {lineno}: expected '<p> <a_p>', got {line!r}")
        try:
            p, ap = _parse_int(parts[0]), _parse_int(parts[1])
        except ValueError:
            raise InputError(f"line {lineno}: non-integer entry in {line!r}") from None
        if not is_prime(p):
            raise InputError(f"line {lineno}: {p} is not prime")
        if p in eigenvalues:
            raise InputError(f"line {lineno}: duplicate prime {p}")
        eigenvalues[p] = ap
    if header is None:
        raise InputError("missing header line 'weight <k> level <N> character <...>'")
    k, level, character = header
    return NewformData(k, level, character, eigenvalues)


def _parse_header(line: str, lineno: int):
    parts = line.split()
    if len(parts) < 6 or parts[0] != "weight" or parts[2] != "level" or parts[4] != "character":
        raise InputError(
            f"line {lineno}: header must be 'weight <k> level <N> character <trivial|delta D>'"
        )
    try:
        k, level = _parse_int(parts[1]), _parse_int(parts[3])
    except ValueError:
        raise InputError(f"line {lineno}: non-integer weight/level") from None
    if parts[5] == "trivial" and len(parts) == 6:
        return k, level, None
    if parts[5] == "delta" and len(parts) == 7:
        try:
            return k, level, _parse_int(parts[6])
        except ValueError:
            raise InputError(f"line {lineno}: bad delta discriminant") from None
    raise InputError(f"line {lineno}: bad character clause {' '.join(parts[4:])!r}")
