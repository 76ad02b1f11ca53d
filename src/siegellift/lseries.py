"""The L-series half: per-prime local data and the finite Euler products
built from it, with their exact Dirichlet expansion, coefficientwise
comparison and partial evaluation.

The identity checks, degree-5 factors, level rules and prediction bundles
that read the same local data live in :mod:`siegellift.predictor`.  This
module loads ``heckechar`` only when it builds a factor with a character.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple

from ._primes import primes_upto
from ._record import Record, Value
from .errors import InputError
from .localfactor import (
    Functor,
    LocalFactor,
    _cycle_index,
    _int_coeffs,
    _newton,
    _series_div,
    _tensor,
    from_power_sums,
    power_sums,
)
from .modform import Source, _source_label, checked_regime, local_factor_gl2, reduction_at

if TYPE_CHECKING:
    from .heckechar import AntiCycChar


# ---------------------------------------------------------------------------
# per-prime local data

_RAMIFIED = "skipped (ramified in K)"


class LocalData(Value):
    """Everything the per-prime outputs are read from, built once per prime
    by :func:`local_data`."""

    __slots__ = ("prime", "ramified", "eta", "ind", "spin", "skip")

    def __init__(
        self,
        prime: int,
        ramified: bool,  # p ramifies in the field of chi; False without chi
        eta: LocalFactor,  # degree-2 factor of the curve or newform
        ind: Optional[LocalFactor],  # Ind chi_p; None without chi
        spin: LocalFactor,  # Sym^3 eta, or eta x Ind chi_p, at every p
        skip: str,  # reason on skipped rows; "" at good unramified p
    ):
        self._fill(prime, ramified, eta, ind, spin, skip)


def local_data(source: Source, chi: Optional[AntiCycChar], p: int) -> LocalData:
    """Local data at p of the symmetric cube of ``source`` (no character)
    or of its tensor product with the induction of ``chi``, whole factors
    for ``predict`` and ``verify``.  The spin factor is Sym^3 eta or
    eta x Ind chi_p at every p, bad and ramified ones included."""
    eta, skip = _eta(source, p)
    ramified = chi is not None and chi.field.D % p == 0  # D is a fundamental discriminant
    skip = skip or (_RAMIFIED if ramified else "")
    ind = _induced(chi)(p)
    return LocalData(p, ramified, eta, ind, _spin(p, eta.coeffs, ind, 4, _spin_weight(source, chi)), skip)


def _eta(source: Source, p: int) -> Tuple[LocalFactor, str]:
    """The degree-2 factor of ``source`` at p, and the reason a row at p is
    skipped for its reduction: "" when good."""
    red = reduction_at(source, p)
    skip = "" if red.regime == "good" else f"skipped ({red.regime} reduction)"
    return LocalFactor(p, source.weight - 1, red.coeffs(source)), skip


def _induced(chi: Optional[AntiCycChar]) -> Callable[[int], Optional[LocalFactor]]:
    """p -> Ind chi_p, or p -> None without chi."""
    if chi is None:
        return lambda p: None
    from .heckechar import induced_factor

    return lambda p: induced_factor(chi, p)


def _spin_weight(source: Source, chi: Optional[AntiCycChar]) -> int:
    """The weight of the spin factor: 3(k-1), or k-1+2m with chi."""
    return 3 * (source.weight - 1) if chi is None else source.weight - 1 + chi.weight


def _spin(
    p: int, eta: Sequence[int], ind: Optional[LocalFactor], depth: int, weight: int
) -> LocalFactor:
    """Sym^3 eta (``ind`` None) or eta x ind at p, of ``weight``, from the
    coefficients of eta (degree 2; ``ind`` has degree 2 too), stopped after
    c_depth: the whole factor at depth 4.  The one factor built is the
    spin factor."""
    eta = _int_coeffs(eta)
    if ind is None:
        sums = _cycle_index(Functor.SYM3, _newton(eta, 3 * depth), depth)
    else:
        sums = _tensor(_newton(eta, depth), power_sums(ind, depth))
    return from_power_sums(p, depth, sums, weight)


# ---------------------------------------------------------------------------
# finite-support Euler products

class LObject(Record):
    """Finite-support model of an Euler product: factors at finitely many
    primes, all of the object's weight, and its ``degree``, which a factor
    cut short (:func:`spin_object`) or missing does not change; without one
    given, the largest factor's (1 if none)."""

    __slots__ = ("label", "weight", "factors", "degree")

    def __init__(
        self, label: str, weight: int, factors: Dict[int, LocalFactor], degree: Optional[int] = None
    ):
        for p, f in factors.items():
            if f.prime != p:
                raise InputError(f"factor stored at {p} has prime {f.prime}")
            if f.weight != weight:
                raise InputError(f"factor at p={p} has weight {f.weight}, object has {weight}")
        if degree is None:
            degree = max((f.degree for f in factors.values()), default=1)
        self._fill(label, weight, factors, degree)


def _exponent(p: int, bound: int) -> int:
    """The largest e >= 1 with p^e <= bound (1 when p > bound)."""
    e = 1
    while p ** (e + 1) <= bound:
        e += 1
    return e


def dirichlet_coeffs(obj: LObject, bound: int):
    """Exact Dirichlet coefficients a_1..a_bound (returned 1-indexed in a
    list of length bound+1 with a[0] = 0).  The primes enter in ascending
    order, each setting a[m p^e] = a[m] s_e, where 1/F_p(T) = sum s_e T^e,
    for m taken downwards: no a[m] read is one that p has already set."""
    if bound < 1:
        raise InputError("bound must be >= 1")
    needed = primes_upto(bound)
    missing = [p for p in needed if p not in obj.factors]
    if missing:
        raise InputError(f"no local factor stored at primes {missing}")
    a = [0] * (bound + 1)
    a[1] = 1
    for p in needed:
        s = _series_div((1,), obj.factors[p].coeffs, _exponent(p, bound) + 1)
        for m in range(bound // p, 0, -1):
            am = a[m]
            if am:
                n, e = m * p, 1
                while n <= bound:
                    a[n] = am * s[e]
                    n, e = n * p, e + 1
    return a


class CompareResult(Record):
    __slots__ = ("equal", "first_mismatch")

    def __init__(self, equal: bool, first_mismatch: Optional[int] = None):
        self._fill(equal, first_mismatch)


def compare_coeffwise(a: LObject, b: LObject, bound: int) -> CompareResult:
    """Coefficientwise equality of two finite-support Euler products."""
    ca = dirichlet_coeffs(a, bound)
    cb = dirichlet_coeffs(b, bound)
    for n in range(1, bound + 1):
        if ca[n] != cb[n]:
            return CompareResult(False, n)
    return CompareResult(True, None)


class EvalResult(Record):
    __slots__ = ("value", "tail_bound", "s", "terms")

    def __init__(self, value: float, tail_bound: float, s: float, terms: int):
        self._fill(value, tail_bound, s, terms)


def eval_partial(obj: LObject, s: float, bound: int) -> EvalResult:
    """Partial Dirichlet sum at s with an average-order tail estimate.

    Convergence needs s > w/2 + 1 (purity bound |a_p| <= d p^(w/2)).  The
    tail estimate integrates the average order of the d-dimensional divisor
    function against t^(w/2 - s):

        integral_X^inf (log t)^(d-1)/(d-1)! * t^(w/2-s) dt,

    evaluated in closed form.
    """
    sigma = float(s) - obj.weight / 2.0
    if not (math.isfinite(sigma) and sigma > 1.0):  # NaN compares false
        raise InputError(
            f"s = {s} is not a finite point of the convergence region s > {obj.weight / 2.0 + 1}"
        )
    coeffs = dirichlet_coeffs(obj, bound)
    value = 0.0
    for n in range(1, bound + 1):
        c = coeffs[n]
        if c != 0:
            try:
                value += float(c) * float(n) ** (-float(s))
            except OverflowError:  # a_n beyond the float range, a_n n^(-s) need not be
                term = math.exp(math.log(abs(c)) - float(s) * math.log(n))
                value += term if c > 0 else -term
    d = obj.degree
    log_x = math.log(bound)
    tail = 0.0
    for j in range(d):
        # a power of 1/(sigma - 1) underflows to 0 at a huge s, where its inverse overflows
        tail += log_x ** (d - 1 - j) / math.factorial(d - 1 - j) * (sigma - 1.0) ** -(j + 1)
    tail *= float(bound) ** (1.0 - sigma)
    return EvalResult(value, tail, float(s), bound)


# ---------------------------------------------------------------------------
# object builders

def gl2_object(source: Source, pmax: int) -> LObject:
    """Degree-2 Euler product of the curve/newform, all p <= pmax."""
    factors = {p: local_factor_gl2(source, p) for p in primes_upto(pmax)}
    return LObject(_source_label(source), source.weight - 1, factors, degree=2)


def spin_object(source: Source, chi: Optional[AntiCycChar], pmax: int) -> LObject:
    """Spin Euler product (degree 4) for the Dirichlet series to ``pmax``:
    Sym^3 eta without ``chi``, eta x Ind chi_p with it, the factor of
    :func:`local_data` at every p, bad and ramified ones included.  The
    factor at p stops after c_e, p^e <= pmax: all that
    ``dirichlet_coeffs(obj, pmax)`` reads, and only c_1 above sqrt(pmax).

    With ``chi`` the power sums are s_k(eta) s_k(Ind chi_p), so where those
    of Ind chi_p that the cut factor reads are all zero, it is built from
    zeros and eta is never formed: at every inert p above sqrt(pmax), where
    c_1 = -a_p tr(Ind chi_p) and the trace is 0, no points are counted.
    A table's check at p (:func:`checked_regime`: a missing a_p) still runs
    there, in the same order of primes; a curve's ran when it was built."""
    weight, induced = _spin_weight(source, chi), _induced(chi)
    factors = {}
    for p in primes_upto(pmax):
        depth, ind = min(_exponent(p, pmax), 4), induced(p)  # the spin has degree 4
        if ind is None or any(power_sums(ind, depth)):
            factors[p] = _spin(p, reduction_at(source, p).coeffs(source), ind, depth, weight)
        else:
            checked_regime(source, p)
            factors[p] = from_power_sums(p, depth, (0,) * depth, weight)
    label = f"sym3({_source_label(source)})" if chi is None else f"{_source_label(source)} x chi"
    return LObject(label, weight, factors, degree=4)
