"""Executable predictions: per-prime identity verification, degree-5
standard factors, levels, Siegel-form prediction bundles, and Dirichlet
series expansion of finite-support Euler products.

All identity checks are exact polynomial equalities in arithmetic
normalization; unitary twists appear as explicit Tate twists with integer
exponents.  The four identities:

  tensor-square   P(f x f)            = P(Lambda^2 f) * P(Sym^2 f)
  sym3-ext2       Lambda^2(Sym^3 e)   = [Sym^4 e](p^(k-1) T) * (1 - p^(3(k-1)) T)
  sym2-ind        Sym^2(Ind chi)      = Ind(chi^2) * (1 - p^(2m) T)
  tensor-ext2     Lambda^2(e x Ind chi)
                     = [Sym^2 e x Lambda^2 Ind chi] * [Lambda^2 e x Sym^2 Ind chi],
                    with Sym^2 Ind chi expanded through sym2-ind

where e is a degree-2 newform/curve factor of weight k-1 and chi has
weight 2m.  Failures are report rows, never exceptions; bad, additive and
ramified primes yield SKIPPED rows with a reason.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from ._primes import factorize, primes_upto, smallest_prime_factors
from ._record import Record, Value, _set
from .errors import (
    ConvergenceDomainError,
    InexactDivisionError,
    InputError,
    MissingPrimeError,
    NotSymplecticError,
    ParityError,
    UnsupportedLevelError,
)
from .heckechar import AntiCycChar, char_square, conductor_ind, induced_factor, restriction_char
from .localfactor import (
    CombineMode,
    Functor,
    Identity,
    LocalFactor,
    combine,
    exact_divide,
    one,
    plethysm,
    tate_factor,
    tate_twist,
)
from .modform import CharacterKind, CurveData, NewformData, reduction_at

if TYPE_CHECKING:  # archimedean is imported only where a prediction bundle uses it
    from .archimedean import ArchParam, Classification

Source = Union[CurveData, NewformData]


class Status(Enum):
    OK = "OK"
    FAIL = "FAIL"
    SKIPPED = "SKIPPED"


class ReportEntry(Value):
    __slots__ = ("prime", "identity", "status", "reason", "lhs", "rhs")

    def __init__(
        self,
        prime: int,
        identity: str,
        status: Status,
        reason: str = "",
        lhs: Optional[LocalFactor] = None,
        rhs: Optional[LocalFactor] = None,
    ):
        self._fill(prime, identity, status, reason, lhs, rhs)

    def _args(self) -> tuple:
        return (self.prime, self.identity, self.status, self.reason, self.lhs, self.rhs)

    def to_json(self) -> dict:
        return {
            "p": self.prime,
            "identity": self.identity,
            "status": self.status.value,
            "reason": self.reason,
            "lhs": self.lhs.to_json() if self.lhs is not None else None,
            "rhs": self.rhs.to_json() if self.rhs is not None else None,
        }


class VerifyReport(Value):
    __slots__ = ("entries",)

    def __init__(self, entries: Tuple[ReportEntry, ...]):
        _set(self, "entries", tuple(sorted(entries, key=lambda e: e.prime)))

    def _args(self) -> tuple:
        return (self.entries,)

    @property
    def ok(self) -> bool:
        return all(e.status is not Status.FAIL for e in self.entries)

    def counts(self) -> Dict[str, int]:
        out = {"OK": 0, "FAIL": 0, "SKIPPED": 0}
        for e in self.entries:
            out[e.status.value] += 1
        return out

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "counts": self.counts(),
            "entries": [e.to_json() for e in self.entries],
        }

    def to_text(self) -> str:
        rows = [("identity", "p", "status", "detail")]
        for e in self.entries:
            detail = e.reason
            if e.status is Status.FAIL and e.lhs is not None:
                detail = f"lhs = {e.lhs} ; rhs = {e.rhs}"
            rows.append((e.identity, str(e.prime), e.status.value, detail))
        widths = [max(len(r[i]) for r in rows) for i in range(3)]
        lines = [
            "  ".join([r[0].ljust(widths[0]), r[1].rjust(widths[1]), r[2].ljust(widths[2]), r[3]]).rstrip()
            for r in rows
        ]
        c = self.counts()
        lines.append(f"total: {c['OK']} OK, {c['FAIL']} FAIL, {c['SKIPPED']} SKIPPED")
        return "\n".join(lines)

    def to_csv(self) -> str:
        """One ``p,identity,status,reason`` row per entry; a reason holding a
        comma or a quote is quoted as in RFC 4180."""
        lines = ["p,identity,status,reason"]
        for e in self.entries:
            reason = e.reason
            if "," in reason or '"' in reason:
                reason = '"' + reason.replace('"', '""') + '"'
            lines.append(f"{e.prime},{e.identity},{e.status.value},{reason}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# per-prime local data

_RAMIFIED = "skipped (ramified in K)"


class LocalData(Value):
    """Everything the per-prime outputs are read from, built once per prime
    by :func:`local_data`."""

    __slots__ = ("prime", "regime", "ramified", "eta", "ind", "spin", "skip")

    def __init__(
        self,
        prime: int,
        regime: str,  # "good", "multiplicative" or "additive"
        ramified: bool,  # p ramifies in the field of chi; False without chi
        eta: LocalFactor,  # degree-2 factor of the curve or newform
        ind: Optional[LocalFactor],  # Ind chi_p; None without chi
        spin: Optional[LocalFactor],  # Sym^3 eta, or eta x Ind chi at good unramified p
        skip: str,  # reason on skipped rows; "" at good unramified p
    ):
        self._fill(prime, regime, ramified, eta, ind, spin, skip)

    def _args(self) -> tuple:
        return (self.prime, self.regime, self.ramified, self.eta, self.ind, self.spin, self.skip)


def local_data(source: Source, chi: Optional[AntiCycChar], p: int,
               depth: Optional[int] = None) -> LocalData:
    """Local data at p of the symmetric cube of ``source`` (no character)
    or of its tensor product with the induction of ``chi``; with ``depth``
    the spin factor stops after c_depth (see :func:`plethysm`)."""
    red = reduction_at(source, p)
    eta = red.factor(source.weight)
    ramified = chi is not None and chi.field.D % p == 0  # D is a fundamental discriminant
    if red.regime != "good":
        skip = f"skipped ({red.regime} reduction)"
    else:
        skip = _RAMIFIED if ramified else ""
    if chi is None:
        return LocalData(p, red.regime, False, eta, None, plethysm(eta, Functor.SYM3, depth), skip)
    ind = induced_factor(chi, p)
    spin = None if skip else combine(eta, ind, CombineMode.TENSOR, depth)
    return LocalData(p, red.regime, ramified, eta, ind, spin, skip)


# ---------------------------------------------------------------------------
# the identities

def _check_tensor_square(f: LocalFactor, ext2: LocalFactor) -> Tuple[LocalFactor, LocalFactor]:
    """The two sides of tensor-square on f, given ext2 = Lambda^2 f."""
    return combine(f, f, CombineMode.TENSOR), combine(ext2, plethysm(f, Functor.SYM2), CombineMode.SUM)


def _sym2_ind_rhs(chi: AntiCycChar, p: int) -> LocalFactor:
    # Sym^2(Ind chi) = Ind(chi^2) + restriction of chi, the latter being the
    # Tate line of arithmetic value p^(2m)
    chi0 = restriction_char(chi, p)
    return combine(
        induced_factor(char_square(chi), p),
        LocalFactor(p, 2 * chi.weight, (1, -chi0)),
        CombineMode.SUM,
    )


def _ext2_sides(
    ld: LocalData, chi: Optional[AntiCycChar], sym2_ind: Optional[LocalFactor] = None
) -> Tuple[LocalFactor, LocalFactor]:
    """Lambda^2 of the spin factor and what sym3-ext2 (no chi) or
    tensor-ext2 predicts for it; ``sym2_ind`` is the sym2-ind side at
    ld.prime, if built already."""
    lhs = plethysm(ld.spin, Functor.EXT2)
    if chi is None:
        j = ld.eta.weight  # = k - 1
        twisted_sym4 = tate_twist(plethysm(ld.eta, Functor.SYM4), j)
        return lhs, combine(twisted_sym4, tate_factor(ld.prime, 3 * j, weight=6 * j), CombineMode.SUM)
    if sym2_ind is None:
        sym2_ind = _sym2_ind_rhs(chi, ld.prime)
    piece1 = combine(plethysm(ld.eta, Functor.SYM2), plethysm(ld.ind, Functor.EXT2), CombineMode.TENSOR)
    piece2 = combine(plethysm(ld.eta, Functor.EXT2), sym2_ind, CombineMode.TENSOR)
    return lhs, combine(piece1, piece2, CombineMode.SUM)


def _compared(name: Identity, p: int, lhs: LocalFactor, rhs: LocalFactor) -> ReportEntry:
    if lhs == rhs:
        return ReportEntry(p, name.value, Status.OK, "", lhs, rhs)
    return ReportEntry(p, name.value, Status.FAIL, "exact mismatch", lhs, rhs)


def _sym2_ind_entry(p: int, ramified: bool, ind: LocalFactor, sym2_ind: LocalFactor) -> ReportEntry:
    if ramified:
        return ReportEntry(p, Identity.SYM2_IND.value, Status.SKIPPED, _RAMIFIED)
    return _compared(Identity.SYM2_IND, p, plethysm(ind, Functor.SYM2), sym2_ind)


def _identity_entry(name: Identity, ld: LocalData, chi: Optional[AntiCycChar]) -> ReportEntry:
    """The row of a source identity at ld.prime, read off the shared record."""
    if ld.skip:
        return ReportEntry(ld.prime, name.value, Status.SKIPPED, ld.skip)
    if name is Identity.TENSOR_SQ:
        return _compared(name, ld.prime, *_check_tensor_square(ld.eta, plethysm(ld.eta, Functor.EXT2)))
    return _compared(name, ld.prime, *_ext2_sides(ld, chi))


def _require_inputs(name: Identity, source: Optional[Source], chi: Optional[AntiCycChar]) -> None:
    missing = []
    if source is None and name is not Identity.SYM2_IND:
        missing.append("a curve or newform source")
    if chi is None and name in (Identity.SYM2_IND, Identity.TENSOR_EXT2):
        missing.append("a character")
    if missing:
        raise InputError(f"{name.value} needs " + " and ".join(missing))


def verify_identity(
    name: Identity,
    p: int,
    *,
    source: Optional[Source] = None,
    chi: Optional[AntiCycChar] = None,
) -> ReportEntry:
    """Check one identity at one prime of the source (of chi alone for
    sym2-ind); tensor-square is checked on the degree-2 factor of the
    source.  Failures and skips are report rows."""
    if not isinstance(name, Identity):
        raise InputError(f"unknown identity {name!r}")
    _require_inputs(name, source, chi)
    if name is Identity.SYM2_IND:
        return _sym2_ind_entry(p, chi.field.D % p == 0, induced_factor(chi, p), _sym2_ind_rhs(chi, p))
    twist = chi if name is Identity.TENSOR_EXT2 else None
    return _identity_entry(name, local_data(source, twist, p), twist)


def identity_report(
    name: Identity,
    pmax: int,
    *,
    source: Optional[Source] = None,
    chi: Optional[AntiCycChar] = None,
) -> VerifyReport:
    """Run one identity at every prime p <= pmax."""
    _require_inputs(name, source, chi)
    return VerifyReport(
        tuple(verify_identity(name, p, source=source, chi=chi) for p in primes_upto(pmax))
    )


def ap_match_report(curve: CurveData, newform: NewformData, pmax: Optional[int] = None) -> VerifyReport:
    """Cross-check a claimed eigenvalue table against curve point counts.

    One row per tabulated prime (<= pmax if given): OK when the stored a_p
    equals the recomputed one, FAIL otherwise.  This is the only
    non-formal check in the suite, so it is the one an edited table trips.
    """
    if newform.weight != 2:
        raise InputError("eigenvalue/curve comparison needs a weight-2 table")
    entries = []
    for p in sorted(newform.eigenvalues):
        if pmax is not None and p > pmax:
            continue
        expected = reduction_at(curve, p).ap
        got = newform.eigenvalues[p]
        if got == expected:
            entries.append(ReportEntry(p, "ap-match", Status.OK))
        else:
            entries.append(
                ReportEntry(p, "ap-match", Status.FAIL, f"table a_{p} = {got}, curve gives {expected}")
            )
    return VerifyReport(tuple(entries))


# ---------------------------------------------------------------------------
# degree-5 extraction and level rules

def degree5_factor(pi_p: LocalFactor, ext2: Optional[LocalFactor] = None) -> LocalFactor:
    """Standard (degree-5) factor: Lambda^2(pi_p) / (1 - p^w T), w = weight.

    The divisibility is the exactness form of the exterior-square pole; a
    factor that is not of symplectic type leaves a remainder.  ``ext2`` is
    Lambda^2(pi_p) when the caller has built it already.
    """
    pol = tate_factor(pi_p.prime, pi_p.weight, weight=2 * pi_p.weight)
    try:
        return exact_divide(plethysm(pi_p, Functor.EXT2) if ext2 is None else ext2, pol)
    except InexactDivisionError:
        raise NotSymplecticError(
            f"exterior square at p={pi_p.prime} is not divisible by the polarization factor"
        ) from None


class LevelRule(Enum):
    SYM3 = "sym3"  # squarefree conductor N: level M = N
    TWIST = "twist"  # conductor N coprime to induced conductor N': M = N^2 N'^2


Factors = List[Tuple[int, int]]  # [(p, e), ...] as from factorize


def _sym3_level(conductor: int, factors: Factors) -> int:
    """The SYM3 rule on N = conductor, given its factorization."""
    if any(e > 1 for _, e in factors):
        raise UnsupportedLevelError(f"no level formula for non-squarefree conductor {conductor}")
    return conductor


def level(rule: LevelRule, conductor: int, induced_conductor: Optional[int] = None) -> int:
    if conductor < 1:
        raise InputError(f"conductor must be positive, got {conductor}")
    if rule is LevelRule.SYM3:
        return _sym3_level(conductor, factorize(conductor))
    if rule is LevelRule.TWIST:
        if induced_conductor is None:
            raise InputError("twist level rule needs the induced conductor")
        if math.gcd(conductor, induced_conductor) != 1:
            raise UnsupportedLevelError(
                f"no level formula when conductor {conductor} shares a factor "
                f"with the induced conductor {induced_conductor}"
            )
        return conductor * conductor * induced_conductor * induced_conductor
    raise InputError(f"unknown level rule {rule!r}")


# ---------------------------------------------------------------------------
# prediction bundles

class SiegelPrediction(Record):
    __slots__ = (
        "label", "transfer", "level", "iwahori_note", "arch", "classification",
        "spin_factors", "std_factors", "flags", "verification", "notes",
    )

    def __init__(
        self,
        label: str,
        transfer: str,  # "sym3" or "tensor"
        level: int,
        iwahori_note: str,
        arch: ArchParam,
        classification: Classification,
        spin_factors: Dict[int, LocalFactor],
        std_factors: Dict[int, LocalFactor],
        flags: Dict[str, bool],
        verification: VerifyReport,
        notes: Tuple[str, ...] = (),
    ):
        self._fill(
            label, transfer, level, iwahori_note, arch, classification,
            spin_factors, std_factors, flags, verification, notes,
        )

    def to_json(self) -> dict:
        from .archimedean import to_json as arch_to_json

        return {
            "label": self.label,
            "transfer": self.transfer,
            "level": self.level,
            "iwahori_note": self.iwahori_note,
            "arch": arch_to_json(self.arch, self.classification),
            "spin_factors": {str(p): f.to_json() for p, f in sorted(self.spin_factors.items())},
            "std_factors": {str(p): f.to_json() for p, f in sorted(self.std_factors.items())},
            "flags": dict(self.flags),
            "verification": self.verification.to_json(),
            "notes": list(self.notes),
        }

    def to_text(self) -> str:
        cls = self.classification
        lines = [
            f"prediction for {self.label} ({self.transfer} transfer)",
            f"level: {self.level}",
            f"archimedean: exponents {list(self.arch.exponents)}, weight {self.arch.weight}",
        ]
        if cls.siegel_kind.value == "scalar":
            lines.append(f"siegel type: scalar weight {cls.scalar_weight}")
        elif cls.siegel_kind.value == "vector":
            lines.append(f"siegel type: vector {cls.vector_weight}")
        else:
            lines.append("siegel type: none (non-regular or non-algebraic)")
        lines.append("flags: CAP=no, endoscopic=no")
        lines.append(self.iwahori_note)
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append("")
        lines.append("spin factors (degree 4):")
        for p in sorted(self.spin_factors):
            lines.append(f"  p={p}: {self.spin_factors[p]}")
        lines.append("standard factors (degree 5):")
        for p in sorted(self.std_factors):
            lines.append(f"  p={p}: {self.std_factors[p]}")
        lines.append("")
        lines.append(self.verification.to_text())
        return "\n".join(lines)


def _source_label(source: Source) -> str:
    if isinstance(source, CurveData):
        return "curve " + ",".join(str(a) for a in source.ainvs)
    return f"newform k={source.weight} N={source.level}"


def _conductor(source: Source) -> Tuple[int, Factors]:
    """Conductor N of the source and its factorization, the one
    factorization a prediction makes.  A curve's supplied N is checked at
    each p | N (the level uses every prime of N, not only those up to
    pmax); without one, N is derived from the reduction at each
    p | discriminant."""
    if isinstance(source, NewformData):
        return source.level, factorize(source.level)
    n = source.conductor
    factors = factorize(abs(source.discriminant) if n is None else n)
    for p, _ in factors:
        # minimal model contract: conductor exponent is 1 at multiplicative
        # primes; anything additive needs the caller to supply N
        if reduction_at(source, p).regime == "additive" and n is None:
            raise InputError(
                "conductor required: additive reduction at "
                f"{p} prevents deriving it from the discriminant"
            )
    if n is None:
        return math.prod(p for p, _ in factors), [(p, 1) for p, _ in factors]
    return n, factors


def _iwahori_note(once: List[int]) -> str:
    """The note on the primes ``once`` that divide the level exactly once."""
    if once:
        plist = ", ".join(str(p) for p in once)
        return (
            f"at p = {plist} (exactly dividing the level) the form has a nonzero vector "
            "invariant under the Iwahori congruence subgroup of GSp(4, Z_p) at that level"
        )
    return "no prime divides the level exactly once; no Iwahori refinement applies"


def predict_siegel(
    source: Source,
    chi: Optional[AntiCycChar] = None,
    pmax: int = 50,
) -> SiegelPrediction:
    """Bundle the predicted genus-2 Siegel form data for a symmetric-cube
    transfer (no character) or a twisted-tensor transfer (with character)."""
    from .archimedean import classify, from_newform, sym3_arch, tensor_arch

    k = source.weight
    conductor, factors = _conductor(source)
    character = source.character if isinstance(source, NewformData) else CharacterKind.TRIVIAL
    notes: List[str] = []
    if chi is None:
        if k % 2 != 0 or character is not CharacterKind.TRIVIAL:
            raise InputError("symmetric-cube transfer needs even weight and trivial character")
        transfer, identity = "sym3", Identity.SYM3_EXT2
        m_level = _sym3_level(conductor, factors)
        once = [p for p, _ in factors]  # M = N is squarefree
        arch = sym3_arch(from_newform(k))
    else:
        if (k - chi.weight) % 2 != 0:
            raise ParityError(
                f"newform weight {k} and character weight {chi.weight} have opposite parity"
            )
        if character is not CharacterKind.TRIVIAL:
            raise InputError("even-weight tensor transfer needs a trivial character")
        transfer, identity = "tensor", Identity.TENSOR_EXT2
        m_level = level(LevelRule.TWIST, conductor, conductor_ind(chi))
        once = []  # every prime of M = N^2 N'^2 divides it at least twice
        # the induction of chi is the parameter of a weight (2m+1) newform
        arch = tensor_arch(from_newform(k), from_newform(chi.weight + 1))

    spin: Dict[int, LocalFactor] = {}
    std: Dict[int, LocalFactor] = {}
    entries: List[ReportEntry] = []
    regimes = set()
    for p in primes_upto(pmax):
        ld = local_data(source, chi, p)
        regimes.add(ld.regime)
        sym2_ind = None
        if chi is not None:
            sym2_ind = _sym2_ind_rhs(chi, p)  # feeds the sym2-ind and tensor-ext2 rows
            entries.append(_sym2_ind_entry(p, ld.ramified, ld.ind, sym2_ind))
        if ld.spin is not None:
            spin[p] = ld.spin
        if ld.skip:
            entries.append(ReportEntry(p, identity.value, Status.SKIPPED, ld.skip))
            entries.append(ReportEntry(p, "r5-extract", Status.SKIPPED, ld.skip))
            continue
        ext2, rhs = _ext2_sides(ld, chi, sym2_ind)  # ext2 feeds three rows
        std[p] = degree5_factor(ld.spin, ext2)
        entries.append(_compared(identity, p, ext2, rhs))
        entries.append(_compared(Identity.TENSOR_SQ, p, *_check_tensor_square(ld.spin, ext2)))
        entries.append(ReportEntry(p, "r5-extract", Status.OK, "", std[p]))

    if transfer == "sym3" and "multiplicative" in regimes:
        notes.append(
            "level at multiplicative primes follows the squarefree rule (exponent 1); the "
            "symmetric-cube Weil-Deligne parameter classically has conductor exponent 3 "
            "there -- the discrepancy is recorded, not reconciled"
        )

    return SiegelPrediction(
        label=_source_label(source) + ("" if chi is None else f" x chi(D={chi.field.D}, m={chi.m})"),
        transfer=transfer,
        level=m_level,
        iwahori_note=_iwahori_note(once),
        arch=arch,
        classification=classify(arch),
        spin_factors=spin,
        std_factors=std,
        flags={"cap": False, "endoscopic": False},
        verification=VerifyReport(tuple(entries)),
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# finite-support Euler products

class LObject(Record):
    """Finite-support model of an Euler product: factors at finitely many
    primes, all of the object's weight, and its ``degree``, which a factor
    cut short (:func:`sym3_object`) or missing does not change; without one
    given, the largest factor's (1 if none)."""

    __slots__ = ("label", "weight", "factors", "arch", "level", "degree")

    def __init__(
        self,
        label: str,
        weight: int,
        factors: Dict[int, LocalFactor],
        arch: Optional[ArchParam] = None,
        level: Optional[int] = None,
        degree: Optional[int] = None,
    ):
        for p, f in factors.items():
            if f.prime != p:
                raise InputError(f"factor stored at {p} has prime {f.prime}")
            if f.weight != weight:
                raise InputError(f"factor at p={p} has weight {f.weight}, object has {weight}")
        self.label = label
        self.weight = weight
        self.factors = factors
        self.arch = arch
        self.level = level
        self.degree = max((f.degree for f in factors.values()), default=1) if degree is None else degree


def _exponent(p: int, bound: int) -> int:
    """The largest e >= 1 with p^e <= bound (1 when p > bound)."""
    e = 1
    while p ** (e + 1) <= bound:
        e += 1
    return e


def _inverse_series(f: LocalFactor, terms: int) -> List[int]:
    """Coefficients of 1/P(T) up to T^(terms-1) (geometric recursion)."""
    c = f.coeffs
    b: List[int] = [1]
    for j in range(1, terms):
        acc = 0
        for i in range(1, min(j, f.degree) + 1):
            acc -= c[i] * b[j - i]
        b.append(acc)
    return b


def dirichlet_coeffs(obj: LObject, bound: int):
    """Exact Dirichlet coefficients a_1..a_bound (returned 1-indexed in a
    list of length bound+1 with a[0] = 0)."""
    if bound < 1:
        raise InputError("bound must be >= 1")
    needed = primes_upto(bound)
    missing = [p for p in needed if p not in obj.factors]
    if missing:
        raise MissingPrimeError(missing)
    expansions = {}
    for p in needed:
        expansions[p] = _inverse_series(obj.factors[p], _exponent(p, bound) + 1)
    spf = smallest_prime_factors(bound)
    a = [0] * (bound + 1)
    a[1] = 1
    for n in range(2, bound + 1):
        p = spf[n]
        m, e = n, 0
        while m % p == 0:
            m //= p
            e += 1
        a[n] = a[m] * expansions[p][e]
    return a


class CompareResult(Record):
    __slots__ = ("equal", "first_mismatch")

    def __init__(self, equal: bool, first_mismatch: Optional[int] = None):
        self.equal = equal
        self.first_mismatch = first_mismatch


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
        self.value = value
        self.tail_bound = tail_bound
        self.s = s
        self.terms = terms


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
        raise ConvergenceDomainError(
            f"s = {s} is not a finite point of the convergence region s > {obj.weight / 2.0 + 1}"
        )
    coeffs = dirichlet_coeffs(obj, bound)
    value = 0.0
    for n in range(1, bound + 1):
        if coeffs[n] != 0:
            value += float(coeffs[n]) * float(n) ** (-float(s))
    d = obj.degree
    log_x = math.log(bound)
    tail = 0.0
    for j in range(d):
        tail += log_x ** (d - 1 - j) / (math.factorial(d - 1 - j) * (sigma - 1.0) ** (j + 1))
    tail *= float(bound) ** (1.0 - sigma)
    return EvalResult(value, tail, float(s), bound)


# ---------------------------------------------------------------------------
# object builders

def gl2_object(source: Source, pmax: int, label: Optional[str] = None) -> LObject:
    """Degree-2 Euler product of the curve/newform, all p <= pmax."""
    factors = {p: reduction_at(source, p).factor(source.weight) for p in primes_upto(pmax)}
    return LObject(label or _source_label(source), source.weight - 1, factors, degree=2)


def sym3_object(source: Source, pmax: int, label: Optional[str] = None) -> LObject:
    """Symmetric-cube Euler product (degree 4) for the Dirichlet series to
    ``pmax``; multiplicative primes carry the Steinberg line 1 - a_p T,
    additive primes the trivial factor.  The factor at p stops after c_e,
    p^e <= pmax: all that ``dirichlet_coeffs(obj, pmax)`` reads, and only
    c_1 above sqrt(pmax)."""
    factors = {p: local_data(source, None, p, _exponent(p, pmax)).spin for p in primes_upto(pmax)}
    return LObject(label or f"sym3({_source_label(source)})", 3 * (source.weight - 1), factors, degree=4)


def tensor_object(source: Source, chi: AntiCycChar, pmax: int, label: Optional[str] = None) -> LObject:
    """Tensor Euler product (degree 4) for the Dirichlet series to ``pmax``,
    its factors cut as in :func:`sym3_object`.  Local data is unspecified at
    bad or ramified primes; those factors are set to 1, i.e. dropped from
    the product."""
    weight = (source.weight - 1) + chi.weight
    factors = {}
    for p in primes_upto(pmax):
        ld = local_data(source, chi, p, _exponent(p, pmax))
        factors[p] = ld.spin if ld.spin is not None else one(p, 4, weight)
    return LObject(label or f"{_source_label(source)} x chi", weight, factors, degree=4)


def lambda2_sym3_objects(source: Source, bound: int) -> Tuple[LObject, LObject]:
    """The two sides of the sym3-ext2 identity as global objects up to
    ``bound``: exterior square of the symmetric cube vs. the twisted fourth
    symmetric power times the matching Tate line.

    At good primes the sides are built through their own independent
    operation chains; at bad primes both sides carry the same factor by
    construction (the identity is an unramified statement).
    """
    lhs_factors = {}
    rhs_factors = {}
    for p in primes_upto(bound):
        ld = local_data(source, None, p)
        lhs, rhs = _ext2_sides(ld, None)
        lhs_factors[p], rhs_factors[p] = lhs, (rhs if ld.regime == "good" else lhs)
    label = _source_label(source)
    weight = 6 * (source.weight - 1)
    return (
        LObject(f"ext2(sym3({label}))", weight, lhs_factors),
        LObject(f"sym4({label}) twisted * tate", weight, rhs_factors),
    )
