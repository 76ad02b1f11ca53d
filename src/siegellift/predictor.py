"""The prediction half: per-prime identity verification, degree-5
standard factors, the Siegel form's level formulas and prediction bundles.
The per-prime local data they read, and the finite Euler products with their
Dirichlet expansion, are the L-series half in :mod:`siegellift.lseries`.
The conductor N that the levels start from, and the source's label, come
from :mod:`siegellift.modform`.

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
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ._primes import factorize, primes_upto
from ._record import Record, Value
from .errors import (
    InexactDivisionError,
    InputError,
    NotSymplecticError,
    UnsupportedLevelError,
)
from .localfactor import (
    CombineMode,
    Functor,
    LocalFactor,
    _squares,
    combine,
    exact_divide,
    plethysm,
    tate_factor,
    tate_twist,
)
from .lseries import _RAMIFIED, LObject, LocalData, _eta, local_data
from .modform import CurveData, Factors, NewformData, Source, reduction_at
from .modform import _conductor, _source_label

if TYPE_CHECKING:  # archimedean and heckechar load only where a bundle or a character needs them
    from .archimedean import ArchParam
    from .heckechar import AntiCycChar


class Identity(Enum):
    """The exact identities between local factors checked prime by prime
    (the module docstring gives them); the values are the names
    ``verify --identity`` takes."""

    TENSOR_SQ = "tensor-square"
    SYM3_EXT2 = "sym3-ext2"
    SYM2_IND = "sym2-ind"
    TENSOR_EXT2 = "tensor-ext2"


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

    def to_json(self) -> dict:
        """The row as JSON.  Sides that are one object (``_compared`` gives
        an OK row its lhs twice) share one dict, so each coefficient is
        converted to decimal once."""
        lhs = self.lhs.to_json() if self.lhs is not None else None
        if self.rhs is self.lhs:
            rhs = lhs
        else:
            rhs = self.rhs.to_json() if self.rhs is not None else None
        return {
            "p": self.prime,
            "identity": self.identity,
            "status": self.status.value,
            "reason": self.reason,
            "lhs": lhs,
            "rhs": rhs,
        }


class VerifyReport(Value):
    __slots__ = ("entries",)

    def __init__(self, entries: Tuple[ReportEntry, ...]):
        self._fill(tuple(sorted(entries, key=lambda e: e.prime)))

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
# the identities

def _tensor_square_entry(p: int, ext2: LocalFactor, sym2: LocalFactor, square: LocalFactor) -> ReportEntry:
    """The tensor-square row of f at p from Lambda^2 f, Sym^2 f and f x f
    (:func:`~siegellift.localfactor._squares`)."""
    return _compared(Identity.TENSOR_SQ, p, square, combine(ext2, sym2, CombineMode.SUM))


def _sym2_ind_rhs(chi: AntiCycChar, p: int) -> LocalFactor:
    # Sym^2(Ind chi) = Ind(chi^2) + the restriction of chi to Q, whose unitary
    # part is trivial (2m is even): the Tate line 1 - p^(2m) T
    from .heckechar import char_square, induced_factor

    return combine(induced_factor(char_square(chi), p), tate_factor(p, chi.weight), CombineMode.SUM)


def _ext2_rhs(ld: LocalData, sym2_ind: Optional[LocalFactor]) -> LocalFactor:
    """What sym3-ext2 (no chi) or tensor-ext2 predicts for Lambda^2 of the
    spin factor, which the caller builds; ``sym2_ind`` is the sym2-ind side
    at ld.prime with chi, None without."""
    if ld.ind is None:
        j = ld.eta.weight  # = k - 1
        twisted_sym4 = tate_twist(plethysm(ld.eta, Functor.SYM4), j)
        return combine(twisted_sym4, tate_factor(ld.prime, 3 * j), CombineMode.SUM)
    piece1 = combine(plethysm(ld.eta, Functor.SYM2), plethysm(ld.ind, Functor.EXT2), CombineMode.TENSOR)
    piece2 = combine(plethysm(ld.eta, Functor.EXT2), sym2_ind, CombineMode.TENSOR)
    return combine(piece1, piece2, CombineMode.SUM)


def _compared(name: Identity, p: int, lhs: LocalFactor, rhs: LocalFactor) -> ReportEntry:
    if lhs == rhs:  # one object for both sides: ReportEntry.to_json renders it once
        return ReportEntry(p, name.value, Status.OK, "", lhs, lhs)
    return ReportEntry(p, name.value, Status.FAIL, "exact mismatch", lhs, rhs)


def _sym2_ind_entry(p: int, ramified: bool, ind: LocalFactor, sym2_ind: LocalFactor) -> ReportEntry:
    if ramified:
        return ReportEntry(p, Identity.SYM2_IND.value, Status.SKIPPED, _RAMIFIED)
    return _compared(Identity.SYM2_IND, p, plethysm(ind, Functor.SYM2), sym2_ind)


def _identity_row(
    name: Identity, p: int, source: Optional[Source], chi: Optional[AntiCycChar]
) -> ReportEntry:
    """The row of an identity at p, for inputs already checked; a source
    identity reads it off the shared record, tensor-square off eta alone."""
    if name is Identity.SYM2_IND:
        from .heckechar import induced_factor

        return _sym2_ind_entry(p, chi.field.D % p == 0, induced_factor(chi, p), _sym2_ind_rhs(chi, p))
    if name is Identity.TENSOR_SQ:  # reads eta only: no spin factor is built
        eta, skip = _eta(source, p)
        if skip:
            return ReportEntry(p, name.value, Status.SKIPPED, skip)
        return _tensor_square_entry(p, *_squares(eta))
    twist = chi if name is Identity.TENSOR_EXT2 else None
    ld = local_data(source, twist, p)
    if ld.skip:
        return ReportEntry(p, name.value, Status.SKIPPED, ld.skip)
    sym2_ind = None if twist is None else _sym2_ind_rhs(chi, p)
    return _compared(name, p, plethysm(ld.spin, Functor.EXT2), _ext2_rhs(ld, sym2_ind))


def _require_trivial_character(source: Optional[Source], what: str) -> None:
    """The lifts and sym3-ext2, tensor-ext2 are stated for det = p^(k-1) at good p."""
    if isinstance(source, NewformData) and source.character is not None:
        raise InputError(
            f"{what} needs a trivial character, the table declares delta {source.character}"
        )


def _require_inputs(name: Identity, source: Optional[Source], chi: Optional[AntiCycChar]) -> None:
    if not isinstance(name, Identity):
        raise InputError(f"unknown identity {name!r}")
    missing = []
    if source is None and name is not Identity.SYM2_IND:
        missing.append("a curve or newform source")
    if chi is None and name in (Identity.SYM2_IND, Identity.TENSOR_EXT2):
        missing.append("a character")
    if missing:
        raise InputError(f"{name.value} needs " + " and ".join(missing))
    if chi is not None and name in (Identity.SYM3_EXT2, Identity.TENSOR_SQ):
        raise InputError(f"{name.value} reads no character: drop --D and --m")
    if source is not None and name is Identity.SYM2_IND:
        flag = "--curve" if isinstance(source, CurveData) else "--eigenfile"
        raise InputError(f"{name.value} reads no curve or newform: drop {flag}")
    if name in (Identity.SYM3_EXT2, Identity.TENSOR_EXT2):
        _require_trivial_character(source, name.value)


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
    _require_inputs(name, source, chi)
    return _identity_row(name, p, source, chi)


def identity_report(
    name: Identity,
    pmax: int,
    *,
    source: Optional[Source] = None,
    chi: Optional[AntiCycChar] = None,
) -> VerifyReport:
    """Run one identity at every prime p <= pmax; the inputs are checked once."""
    _require_inputs(name, source, chi)
    return VerifyReport(tuple(_identity_row(name, p, source, chi) for p in primes_upto(pmax)))


def ap_match_report(curve: CurveData, newform: NewformData, pmax: Optional[int] = None) -> VerifyReport:
    """Cross-check a claimed eigenvalue table against curve point counts.

    One row per tabulated prime (<= pmax if given): OK when the stored a_p
    equals the recomputed one, FAIL otherwise.  This is the only
    non-formal check in the suite, so it is the one an edited table trips
    while the edit stays inside Deligne's bound; an edit past the bound is
    refused when the table is read.  A curve that gives its conductor must
    give the table's level.
    """
    if newform.weight != 2:
        raise InputError("eigenvalue/curve comparison needs a weight-2 table")
    if curve.conductor is not None and curve.conductor != newform.level:
        raise InputError(
            f"the curve's conductor {curve.conductor} differs from the table's level {newform.level}"
        )
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
    pol = tate_factor(pi_p.prime, pi_p.weight)
    try:
        return exact_divide(plethysm(pi_p, Functor.EXT2) if ext2 is None else ext2, pol)
    except InexactDivisionError:
        raise NotSymplecticError(
            f"exterior square at p={pi_p.prime} is not divisible by the polarization factor"
        ) from None


class LevelRule(Enum):
    SYM3 = "sym3"  # squarefree conductor N: level M = N
    TWIST = "twist"  # conductor N coprime to induced conductor N': M = N^2 N'^2


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

#: The flags of every bundle, as (JSON key, text label, value): the lifted
#: form is neither CAP nor endoscopic.
_FLAGS = (("cap", "CAP", False), ("endoscopic", "endoscopic", False))


class SiegelPrediction(Record):
    __slots__ = (
        "label", "transfer", "level", "iwahori_note", "arch", "spin_factors", "std_factors",
        "verification", "notes",
    )

    def __init__(
        self,
        label: str,
        transfer: str,  # "sym3" or "tensor"
        level: int,
        iwahori_note: str,
        arch: ArchParam,
        spin_factors: Dict[int, LocalFactor],
        std_factors: Dict[int, LocalFactor],
        verification: VerifyReport,
        notes: Tuple[str, ...] = (),
    ):
        self._fill(
            label, transfer, level, iwahori_note, arch, spin_factors, std_factors, verification,
            notes,
        )

    def to_json(self) -> dict:
        from .archimedean import to_json as arch_to_json

        return {
            "label": self.label,
            "transfer": self.transfer,
            "level": self.level,
            "iwahori_note": self.iwahori_note,
            "arch": arch_to_json(self.arch),
            "spin_factors": {str(p): f.to_json() for p, f in sorted(self.spin_factors.items())},
            "std_factors": {str(p): f.to_json() for p, f in sorted(self.std_factors.items())},
            "flags": {key: value for key, _, value in _FLAGS},
            "verification": self.verification.to_json(),
            "notes": list(self.notes),
        }

    def to_text(self) -> str:
        from .archimedean import classify

        cls = classify(self.arch)
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
        flags = ", ".join(f"{label}={'yes' if value else 'no'}" for _, label, value in _FLAGS)
        lines.append(f"flags: {flags}")
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
    from .archimedean import from_newform, sym3_arch, tensor_arch

    k = source.weight
    conductor, factors = _conductor(source)
    _require_trivial_character(source, "predict")
    notes: List[str] = []
    if chi is None:
        transfer, identity = "sym3", Identity.SYM3_EXT2
        m_level = _sym3_level(conductor, factors)
        once = [p for p, _ in factors]  # M = N is squarefree
        arch = sym3_arch(from_newform(k))
    else:
        from .heckechar import conductor_ind

        transfer, identity = "tensor", Identity.TENSOR_EXT2
        m_level = level(LevelRule.TWIST, conductor, conductor_ind(chi))
        once = []  # every prime of M = N^2 N'^2 divides it at least twice
        # the induction of chi is the parameter of a weight (2m+1) newform
        arch = tensor_arch(from_newform(k), from_newform(chi.weight + 1))

    spin: Dict[int, LocalFactor] = {}
    std: Dict[int, LocalFactor] = {}
    entries: List[ReportEntry] = []
    for p in primes_upto(pmax):
        ld = local_data(source, chi, p)
        sym2_ind = None
        if chi is not None:
            sym2_ind = _sym2_ind_rhs(chi, p)  # feeds the sym2-ind and tensor-ext2 rows
            entries.append(_sym2_ind_entry(p, ld.ramified, ld.ind, sym2_ind))
        spin[p] = ld.spin
        if ld.skip:
            entries.append(ReportEntry(p, identity.value, Status.SKIPPED, ld.skip))
            entries.append(ReportEntry(p, "r5-extract", Status.SKIPPED, ld.skip))
            continue
        ext2, sym2, square = _squares(ld.spin)  # ext2 feeds three rows
        std[p] = degree5_factor(ld.spin, ext2)
        entries.append(_compared(identity, p, ext2, _ext2_rhs(ld, sym2_ind)))
        entries.append(_tensor_square_entry(p, ext2, sym2, square))
        entries.append(ReportEntry(p, "r5-extract", Status.OK, "", std[p]))

    # once is empty for the tensor; for Sym^3 it holds the primes of the squarefree N,
    # each multiplicative (a source is checked against N when it is built)
    if any(p <= pmax for p in once):
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
        spin_factors=spin,
        std_factors=std,
        verification=VerifyReport(tuple(entries)),
        notes=tuple(notes),
    )


def lambda2_sym3_objects(source: Source, bound: int) -> Tuple[LObject, LObject]:
    """The two sides of the sym3-ext2 identity as global objects up to
    ``bound``: exterior square of the symmetric cube vs. the twisted fourth
    symmetric power times the matching Tate line.

    At good primes the sides are built through their own independent
    operation chains; at bad primes both sides carry the same factor by
    construction (the identity is an unramified statement).
    """
    _require_trivial_character(source, "the sym3-ext2 objects")
    lhs_factors = {}
    rhs_factors = {}
    for p in primes_upto(bound):
        ld = local_data(source, None, p)
        lhs = plethysm(ld.spin, Functor.EXT2)
        lhs_factors[p], rhs_factors[p] = lhs, (lhs if ld.skip else _ext2_rhs(ld, None))
    label = _source_label(source)
    weight = 6 * (source.weight - 1)
    return (
        LObject(f"ext2(sym3({label}))", weight, lhs_factors),
        LObject(f"sym4({label}) twisted * tate", weight, rhs_factors),
    )
