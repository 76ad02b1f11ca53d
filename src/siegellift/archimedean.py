"""Self-dual real Weil-group parameters as multisets of positive exponents.

Every parameter handled here is a direct sum of two-dimensional induced
characters: the exponent j stands for the pair (z/|z|)^(+-j) on C*, so a
multiset of size n encodes a 2n-dimensional self-dual parameter.  The
``weight`` field is the motivic weight of the arithmetic object the
parameter accompanies; the parameter is *algebraic* when every exponent
has the parity of the weight and *regular* when the exponents are
distinct.

A holomorphic newform of weight k contributes the exponent k-1; its
symmetric cube contributes {3(k-1), k-1}; the tensor product with an
induced character of weight w contributes {(k-1)+w, |(k-1)-w|}.  A size-2
regular algebraic parameter with exponents (a, b) is the archimedean type
of a holomorphic genus-2 Siegel cusp form: scalar weight (a+3)/2 when
b = 1 (and a odd), vector-valued with raw exponent pair (a, b) otherwise.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Tuple

from ._record import Record, Value
from .errors import InputError


class ArchParam(Value):
    __slots__ = ("exponents", "weight")

    def __init__(self, exponents: Tuple[int, ...], weight: int):
        exps = tuple(sorted(exponents, reverse=True))  # stored descending
        if any(e <= 0 for e in exps):
            raise InputError(f"exponents must be positive, got {exps}")
        self._fill(exps, weight)

    @property
    def size(self) -> int:
        return len(self.exponents)


class SiegelKind(Enum):
    SCALAR = "scalar"
    VECTOR = "vector"
    NONE = "none"


class Classification(Record):
    __slots__ = ("regular", "algebraic", "siegel_kind", "scalar_weight", "vector_weight")

    def __init__(
        self,
        regular: bool,
        algebraic: bool,
        siegel_kind: SiegelKind,
        scalar_weight: Optional[int] = None,
        vector_weight: Optional[Tuple[int, int]] = None,
    ):
        self._fill(regular, algebraic, siegel_kind, scalar_weight, vector_weight)

    def siegel_json(self):
        if self.siegel_kind is SiegelKind.SCALAR:
            return {"scalar": self.scalar_weight}
        if self.siegel_kind is SiegelKind.VECTOR:
            return {"vector": list(self.vector_weight)}
        return None


def from_newform(k: int) -> ArchParam:
    """Parameter {k-1} of a holomorphic newform of weight k >= 2."""
    if k < 2:
        raise InputError(f"newform weight must be >= 2, got {k}")
    return ArchParam((k - 1,), k - 1)


def sym3_arch(param: ArchParam) -> ArchParam:
    """Symmetric cube of a size-1 parameter {j}: {3j, j}, weight 3j."""
    if param.size != 1:
        raise InputError(f"symmetric cube needs a size-1 parameter, got size {param.size}")
    j = param.exponents[0]
    return ArchParam((3 * j, j), 3 * j)


def tensor_arch(a: ArchParam, b: ArchParam) -> ArchParam:
    """Tensor of two size-1 parameters {j}, {w}: {j+w, |j-w|}, weight j+w.

    j = w would put a zero exponent in the tensor, a non-regular parameter
    outside the supported family: rejected.
    """
    if a.size != 1 or b.size != 1:
        raise InputError("tensor needs two size-1 parameters")
    j, w = a.exponents[0], b.exponents[0]
    if j == w:
        raise InputError(f"tensor of equal exponents {j} degenerates (zero exponent)")
    return ArchParam((j + w, abs(j - w)), j + w)


def classify(param: ArchParam) -> Classification:
    regular = len(set(param.exponents)) == param.size
    algebraic = all((e - param.weight) % 2 == 0 for e in param.exponents)
    if param.size == 2 and regular and algebraic:
        a, b = param.exponents
        if b == 1 and a % 2 == 1:
            return Classification(True, True, SiegelKind.SCALAR, scalar_weight=(a + 3) // 2)
        return Classification(True, True, SiegelKind.VECTOR, vector_weight=(a, b))
    return Classification(regular, algebraic, SiegelKind.NONE)


def to_json(param: ArchParam) -> dict:
    return {
        "exponents": list(param.exponents),
        "weight": param.weight,
        "siegel": classify(param).siegel_json(),
    }
