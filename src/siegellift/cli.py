"""Command-line front end.

Thin wrappers over the library: every command parses its inputs, calls one
library routine, and renders the result.  Output is byte-deterministic for
fixed inputs (prime-ascending ordering everywhere, sorted JSON keys).
``--jobs N`` (N >= 1) is accepted and checked for compatibility; every run
is serial.

Exit codes: 0 success / all checks OK; 1 any verification FAIL or a
non-symplectic factor; 2 invalid input or I/O failure.

Each command imports the library modules it calls, and ``json`` only to
read or write JSON, so a short command does not load (or, without a
bytecode cache, compile) the modules it never runs.
"""

from __future__ import annotations

import argparse
import sys

from ._primes import is_prime, primes_upto
from .errors import InputError, NotSymplecticError, SiegelLiftError


def _parse_curve(text: str, conductor: int | None):
    """The curve of ``--curve``; ``conductor`` (``--conductor``) fills in a
    conductor it leaves out and must equal one it gives."""
    from .modform import CurveData

    if text.lstrip().startswith("{"):
        import json

        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"--curve is not valid JSON: {exc}") from None
        curve = CurveData.from_json(data)
    else:
        parts = [t.strip() for t in text.split(",")]
        if len(parts) not in (5, 6):
            raise InputError(f"--curve expects 'a1,a2,a3,a4,a6[,N]', got {text!r}")
        try:
            values = [int(t) for t in parts]
        except ValueError:
            raise InputError(f"--curve has a non-integer entry in {text!r}") from None
        curve = CurveData(*values[:5], conductor=values[5] if len(values) == 6 else None)
    if conductor is None or curve.conductor == conductor:
        return curve
    if curve.conductor is not None:
        raise InputError(f"--curve gives the conductor {curve.conductor}, --conductor gives {conductor}")
    return CurveData(*curve.ainvs, conductor=conductor)


def _parse_table(path: str, conductor: int | None):
    """The newform table of ``--eigenfile``; ``conductor`` must equal its level."""
    from .modform import parse_eigenfile

    table = parse_eigenfile(path)
    if conductor is not None and conductor != table.level:
        raise InputError(f"--eigenfile gives the level {table.level}, --conductor gives {conductor}")
    return table


def _load_source(args):
    if getattr(args, "curve", None) and getattr(args, "eigenfile", None):
        raise InputError("give either --curve or --eigenfile, not both")
    if getattr(args, "curve", None):
        return _parse_curve(args.curve, getattr(args, "conductor", None))
    if getattr(args, "eigenfile", None):
        return _parse_table(args.eigenfile, getattr(args, "conductor", None))
    raise InputError("a source is required: --curve or --eigenfile")


def _load_char(args, required: bool = True):
    """The character of ``--D`` and ``--m``, or None when neither is given
    and it is not ``required``."""
    d, m = getattr(args, "D", None), getattr(args, "m", None)
    if d is None and m is None:
        if required:
            raise InputError("a character is required: give --D and --m")
        return None
    if d is None or m is None:
        raise InputError("--D and --m must be given together")
    from .heckechar import AntiCycChar, ImagQuadField

    return AntiCycChar(ImagQuadField(d), m)


def _require_prime(value: int, flag: str) -> int:
    if not is_prime(value):
        raise InputError(f"{flag} must be prime, got {value}")
    return value


def _primes_from(args) -> list[int]:
    if getattr(args, "p", None) is not None:
        return [_require_prime(args.p, "--p")]
    if getattr(args, "pmax", None) is not None:
        return primes_upto(args.pmax)
    raise InputError("give --p or --pmax")


def _emit(args, text: str) -> None:
    data = text if text.endswith("\n") else text + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(data)
    else:
        sys.stdout.write(data)


def _to_json(payload) -> str:
    import json

    return json.dumps(payload, indent=2, sort_keys=True)


def _factor_rows(args, factors):
    """Render a prime -> LocalFactor table in the requested format."""
    if args.format == "json":
        return _to_json({str(p): f.to_json() for p, f in factors})
    if args.format == "csv":
        lines = ["p,weight,coeffs"]
        for p, f in factors:
            lines.append(f"{p},{f.weight},\"{';'.join(str(c) for c in f.coeffs)}\"")
        return "\n".join(lines)
    return "\n".join(f"p={p}: {f}  (weight {f.weight})" for p, f in factors)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_ap(args) -> int:
    from .modform import reduction_at

    curve = _parse_curve(args.curve, args.conductor)
    rows = [(p, reduction_at(curve, p)) for p in _primes_from(args)]
    if args.format == "json":
        payload = {str(p): {"ap": r.ap, "kind": r.kind.value} for p, r in rows}
        _emit(args, _to_json(payload))
    elif args.format == "csv":
        lines = ["p,ap,kind"] + [f"{p},{r.ap},{r.kind.value}" for p, r in rows]
        _emit(args, "\n".join(lines))
    else:
        _emit(args, "\n".join(f"a_{p} = {r.ap}  ({r.kind.value})" for p, r in rows))
    return 0


def _cmd_factor(args) -> int:
    from .modform import local_factor_gl2

    source = _load_source(args)
    factors = [(p, local_factor_gl2(source, p)) for p in _primes_from(args)]
    _emit(args, _factor_rows(args, factors))
    return 0


def _cmd_sym3(args) -> int:
    from .predictor import local_data

    source = _load_source(args)
    factors = [(p, local_data(source, None, p).spin) for p in _primes_from(args)]
    _emit(args, _factor_rows(args, factors))
    return 0


def _cmd_induce(args) -> int:
    from .heckechar import induced_factor

    chi = _load_char(args)
    factors = [(p, induced_factor(chi, p)) for p in _primes_from(args)]
    _emit(args, _factor_rows(args, factors))
    return 0


def _cmd_verify(args) -> int:
    from .predictor import Identity, ap_match_report, identity_report

    name = args.identity
    if name == "ap-match":
        curve = _parse_curve(args.curve, args.conductor) if args.curve else None
        if curve is None or not args.eigenfile:
            raise InputError("ap-match needs both --curve and --eigenfile")
        report = ap_match_report(curve, _parse_table(args.eigenfile, None), args.pmax)
    else:
        source = None
        if args.curve or args.eigenfile:
            source = _load_source(args)
        chi = _load_char(args, required=False)
        report = identity_report(Identity(name), args.pmax, source=source, chi=chi)
    if args.format == "json":
        _emit(args, _to_json(report.to_json()))
    elif args.format == "csv":
        _emit(args, report.to_csv())
    else:
        _emit(args, report.to_text())
    return 0 if report.ok else 1


def _cmd_predict(args) -> int:
    from .predictor import predict_siegel

    source = _load_source(args)
    chi = _load_char(args, required=False)
    prediction = predict_siegel(source, chi=chi, pmax=args.pmax)
    _emit(args, _to_json(prediction.to_json()) if args.format == "json" else prediction.to_text())
    return 0 if prediction.verification.ok else 1


def _build_object(args):
    from .predictor import gl2_object, sym3_object, tensor_object

    source = _load_source(args)
    chi = _load_char(args, required=False)
    transfer = args.transfer
    if transfer == "tensor":
        if chi is None:
            raise InputError("--transfer tensor needs --D and --m")
        return tensor_object(source, chi, args.X)
    if transfer == "sym3":
        return sym3_object(source, args.X)
    return gl2_object(source, args.X)


def _cmd_lcoeffs(args) -> int:
    from .predictor import dirichlet_coeffs

    obj = _build_object(args)
    coeffs = dirichlet_coeffs(obj, args.X)
    if args.format == "json":
        _emit(args, _to_json({"label": obj.label, "coeffs": [str(c) for c in coeffs[1:]]}))
    elif args.format == "csv":
        lines = ["n,a_n"] + [f"{n},{coeffs[n]}" for n in range(1, args.X + 1)]
        _emit(args, "\n".join(lines))
    else:
        _emit(args, "\n".join(f"a_{n} = {coeffs[n]}" for n in range(1, args.X + 1)))
    return 0


def _cmd_eval(args) -> int:
    from .predictor import eval_partial

    obj = _build_object(args)
    result = eval_partial(obj, args.s, args.X)
    payload = {
        "label": obj.label,
        "s": result.s,
        "terms": result.terms,
        "value": f"{result.value:.12g}",
        "tail_bound": f"{result.tail_bound:.6g}",
    }
    if args.format == "json":
        _emit(args, _to_json(payload))
    else:
        _emit(
            args,
            f"sum of {result.terms} terms at s={result.s:g}: {result.value:.12g}"
            f"  (tail estimate {result.tail_bound:.6g})",
        )
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    from .localfactor import Identity

    parser = argparse.ArgumentParser(
        prog="siegellift",
        description=(
            "exact local data (Euler factors, levels, archimedean types) of the "
            "genus-2 Siegel modular forms attached to elliptic curves and newforms "
            "by symmetric-cube and twisted-tensor transfers"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument("--out", help="write output to this path instead of stdout")
    common.add_argument(
        "--jobs", type=int, default=1, help="accepted for compatibility (N >= 1); runs are serial"
    )

    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--curve", help="Weierstrass coefficients a1,a2,a3,a4,a6[,N]")
    source.add_argument("--conductor", type=int, help="conductor of the curve")
    source.add_argument("--eigenfile", help="path to a Hecke-eigenvalue file")

    character = argparse.ArgumentParser(add_help=False)
    character.add_argument("--D", type=int, help="imaginary quadratic discriminant")
    character.add_argument("--m", type=int, help="character half-weight (weight is 2m)")

    prange = argparse.ArgumentParser(add_help=False)
    prange.add_argument("--p", type=int, help="a single prime")
    prange.add_argument("--pmax", type=int, help="all primes up to this bound")

    p_ap = sub.add_parser("ap", parents=[common, source, prange], help="Hecke eigenvalues of a curve")
    p_ap.set_defaults(func=_cmd_ap)

    p_factor = sub.add_parser("factor", parents=[common, source, prange], help="degree-2 local factors")
    p_factor.set_defaults(func=_cmd_factor)

    p_sym3 = sub.add_parser("sym3", parents=[common, source, prange], help="symmetric-cube local factors")
    p_sym3.set_defaults(func=_cmd_sym3)

    p_induce = sub.add_parser(
        "induce", parents=[common, character, prange], help="induced character local factors"
    )
    p_induce.set_defaults(func=_cmd_induce)

    p_verify = sub.add_parser(
        "verify", parents=[common, source, character], help="verify exact local identities"
    )
    p_verify.add_argument(
        "--identity",
        required=True,
        choices=sorted(i.value for i in Identity) + ["ap-match"],
    )
    p_verify.add_argument("--pmax", type=int, default=100)
    p_verify.set_defaults(func=_cmd_verify)

    p_predict = sub.add_parser(
        "predict", parents=[common, source, character], help="full Siegel-form prediction bundle"
    )
    p_predict.add_argument("--pmax", type=int, default=50)
    p_predict.set_defaults(func=_cmd_predict)

    transfer = argparse.ArgumentParser(add_help=False)
    transfer.add_argument("--transfer", choices=("none", "sym3", "tensor"), default="none")
    transfer.add_argument("--X", type=int, required=True, help="expansion bound")

    p_lcoeffs = sub.add_parser(
        "lcoeffs", parents=[common, source, character, transfer], help="Dirichlet coefficients"
    )
    p_lcoeffs.set_defaults(func=_cmd_lcoeffs)

    p_eval = sub.add_parser(
        "eval", parents=[common, source, character, transfer], help="partial Dirichlet value"
    )
    p_eval.add_argument("-s", type=float, required=True, help="evaluation point")
    p_eval.set_defaults(func=_cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    try:
        if args.format == "csv" and args.command in ("predict", "eval"):
            raise InputError(f"--format csv is not supported by {args.command}; use text or json")
        return args.func(args)
    except NotSymplecticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SiegelLiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
