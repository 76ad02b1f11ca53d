"""Seeded inputs, command sequences and output checks of the benchmark.

Only the argv built here reaches the program.  The checks use arithmetic
of their own (a naive point count, Newton-free closed forms), never the
package, so a wrong answer from the program cannot also be the expected
one.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable, List

# Minimal models (Cremona's tables) of semistable curves: label, a-invariants,
# conductor.  Every bad prime is multiplicative, so the program derives the
# same local data from the discriminant as from the conductor.
POOL = (
    ("11a1", (0, -1, 1, -10, -20), 11),
    ("11a3", (0, -1, 1, 0, 0), 11),
    ("14a1", (1, 0, 1, 4, -6), 14),
    ("15a1", (1, 1, 1, -10, -10), 15),
    ("17a1", (1, -1, 1, -1, -14), 17),
    ("19a1", (0, 1, 1, -9, -15), 19),
    ("37a1", (0, 0, 1, -1, 0), 37),
    ("43a1", (0, 1, 1, 0, 0), 43),
    ("53a1", (1, -1, 1, 0, 0), 53),
    ("389a1", (0, 1, 1, -2, 0), 389),
)

# Class-number-one discriminants.  D = -3 is left out: its units need 3 | m.
DISCRIMINANTS = (-4, -7, -8, -11, -19, -43, -67, -163)
M = 2

DELTA_FILE = "tests/data/delta_weight12.txt"

#: Sizes of each workload.  predict-bundle bounds the primes (--pmax),
#: lseries the expansion (--X).
SIZES = {
    "predict-bundle": {"pmax": 600, "delta_pmax": 211},
    "lseries": {"X": 5000},
}

#: Oracle primes are drawn below this bound, so the smallest sizes check them too.
ORACLE_BOUND = 30


# ---------------------------------------------------------------------------
# arithmetic of the checks

def primes_upto(n: int) -> List[int]:
    return [p for p in range(2, n + 1) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def prime_support(n: int) -> set:
    n, out, d = abs(n), set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def discriminant(a1, a2, a3, a4, a6) -> int:
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def ap_by_point_count(ainvs, p: int) -> int:
    """a_p = p + 1 - #E(F_p), counting every affine point (O(p^2))."""
    a1, a2, a3, a4, a6 = ainvs
    affine = sum(
        1
        for x in range(p)
        for y in range(p)
        if (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % p == 0
    )
    return p + 1 - (affine + 1)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def sym3_spin(a: int, q: int) -> List[int]:
    """Sym^3 of 1 - aT + qT^2: (1 - (a^3-3qa)T + q^3T^2)(1 - qaT + q^3T^2)."""
    return poly_mul([1, -(a**3 - 3 * q * a), q**3], [1, -q * a, q**3])


def tensor_inert_spin(a: int, p: int, m: int) -> List[int]:
    """(1 - aT + pT^2) tensor (1 - p^(2m) T^2), the induced factor at a prime
    inert in K: roots +-p^m alpha, +-p^m beta."""
    return [1, 0, -(p ** (2 * m)) * (a * a - 2 * p), 0, p ** (4 * m + 2)]


def is_inert(d: int, p: int) -> bool:
    """p inert in Q(sqrt(d)): the Kronecker symbol (d|p) is -1."""
    if p == 2:
        return d % 8 == 5
    return pow(d % p, (p - 1) // 2, p) == p - 1


def validate_pool() -> None:
    """Each pool curve: squarefree conductor with the prime support of the
    discriminant.  A pool entry that fails is a bug in this file."""
    for label, ainvs, n in POOL:
        support = prime_support(n)
        if math.prod(support) != n or support != prime_support(discriminant(*ainvs)):
            raise ValueError(f"pool curve {label} is not semistable with conductor {n}")


def read_delta(root) -> dict:
    table = {}
    with open(root / DELTA_FILE, encoding="utf-8") as handle:
        for line in handle:
            parts = line.split("#", 1)[0].split()
            if len(parts) == 2:
                table[int(parts[0])] = int(parts[1])
    return table


# ---------------------------------------------------------------------------
# inputs and commands

@dataclass(frozen=True)
class Inputs:
    label: str
    ainvs: tuple
    conductor: int
    D: int
    oracle_primes: tuple
    ap: dict  # oracle a_p by point count, at oracle_primes

    @property
    def curve_arg(self) -> str:
        return ",".join(str(a) for a in self.ainvs + (self.conductor,))

    def describe(self) -> dict:
        return {
            "curve": self.label,
            "ainvs": list(self.ainvs),
            "conductor": self.conductor,
            "D": self.D,
            "m": M,
            "oracle_primes": list(self.oracle_primes),
        }


def make_inputs(seed: int) -> Inputs:
    rng = random.Random(seed)
    label, ainvs, n = rng.choice(POOL)
    d = rng.choice([d for d in DISCRIMINANTS if math.gcd(n, -d) == 1])
    good = [p for p in primes_upto(ORACLE_BOUND) if n % p]
    oracle = tuple(sorted(rng.sample(good, 3)))
    return Inputs(label, ainvs, n, d, oracle, {p: ap_by_point_count(ainvs, p) for p in oracle})


@dataclass(frozen=True)
class Command:
    name: str
    argv: List[str]
    check: Callable[[bytes], List[str]]


def setup_command(inp: Inputs) -> Command:
    def check(out: bytes) -> List[str]:
        line = out.decode().strip()
        if 2 in inp.ap:
            want = f"a_2 = {inp.ap[2]}  (good)"
            return [] if line == want else [f"ap: got {line!r}, want {want!r}"]
        return [] if line.startswith("a_2 = ") else [f"ap: unexpected output {line!r}"]

    return Command("ap --p 2", ["ap", "--curve", inp.curve_arg, "--p", "2"], check)


def commands(workload: str, inp: Inputs, root, sizes=None) -> List[Command]:
    size = (sizes or SIZES)[workload]
    curve = ["--curve", inp.curve_arg]
    char = ["--D", str(inp.D), "--m", str(M)]
    if workload == "predict-bundle":
        pmax, dmax = size["pmax"], size["delta_pmax"]
        delta = read_delta(root)
        sym3 = {p: sym3_spin(a, p) for p, a in inp.ap.items()}
        tensor = {p: tensor_inert_spin(a, p, M) for p, a in inp.ap.items() if is_inert(inp.D, p)}
        delta_sym3 = {p: sym3_spin(delta[p], p**11) for p in inp.oracle_primes}
        return [
            Command("predict sym3",
                    ["predict", *curve, "--pmax", str(pmax), "--format", "json"],
                    _check_predict(sym3, pmax)),
            Command("predict tensor",
                    ["predict", *curve, *char, "--pmax", str(pmax), "--format", "json"],
                    _check_predict(tensor, pmax)),
            Command("predict delta",
                    ["predict", "--eigenfile", str(root / DELTA_FILE), "--pmax", str(dmax),
                     "--format", "json"],
                    _check_predict(delta_sym3, dmax)),
        ]
    if workload == "lseries":
        x = size["X"]
        return [
            Command("lcoeffs sym3",
                    ["lcoeffs", *curve, "--transfer", "sym3", "--X", str(x), "--format", "csv"],
                    _check_lcoeffs(inp.ap, x)),
            Command("eval tensor",
                    ["eval", *curve, *char, "--transfer", "tensor", "--X", str(x), "-s", "5"],
                    _check_eval(x)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output is right

def _check_predict(spin: dict, pmax: int):
    """FAIL count 0, a spin factor at every prime for the symmetric cube, and
    the closed-form spin factor at the oracle primes in ``spin``."""

    def check(out: bytes) -> List[str]:
        data = json.loads(out)
        errors = []
        counts = data["verification"]["counts"]
        if counts["FAIL"] or not data["verification"]["ok"] or not counts["OK"]:
            errors.append(f"predict: verification counts {counts}")
        if data["transfer"] == "sym3" and len(data["spin_factors"]) != len(primes_upto(pmax)):
            errors.append(f"predict: {len(data['spin_factors'])} spin factors for pmax {pmax}")
        for p, want in spin.items():
            got = [int(c) for c in data["spin_factors"][str(p)]["coeffs"]]
            if got != want:
                errors.append(f"predict: spin factor at p={p} is {got}, want {want}")
        return errors

    return check


def _check_lcoeffs(ap: dict, x: int):
    """a_1 = 1, a_p = a^3 - 2pa at the oracle primes, a_pq = a_p a_q."""

    def check(out: bytes) -> List[str]:
        lines = out.decode().splitlines()
        if lines[0] != "n,a_n" or len(lines) != x + 1:
            return [f"lcoeffs: header {lines[0]!r} and {len(lines)} lines for X={x}"]
        coeff = {}
        for n, line in enumerate(lines[1:], start=1):
            index, value = line.split(",")
            if int(index) != n:
                return [f"lcoeffs: line {n} holds n={index}"]
            coeff[n] = int(value)
        errors = [] if coeff[1] == 1 else [f"lcoeffs: a_1 = {coeff[1]}"]
        for p, a in ap.items():
            if p <= x and coeff[p] != a**3 - 2 * p * a:
                errors.append(f"lcoeffs: a_{p} = {coeff[p]}, want {a**3 - 2 * p * a}")
        ps = sorted(ap)
        for p, q in zip(ps, ps[1:]):
            if p * q <= x and coeff[p * q] != coeff[p] * coeff[q]:
                errors.append(f"lcoeffs: a_{p * q} is not a_{p} a_{q}")
        return errors

    return check


def _check_eval(x: int):
    def check(out: bytes) -> List[str]:
        text = out.decode()
        head = f"sum of {x} terms at s=5: "
        if not text.startswith(head):
            return [f"eval: unexpected output {text!r}"]
        value = float(text[len(head):].split()[0])
        return [] if math.isfinite(value) and value != 0 else [f"eval: value {value}"]

    return check
