"""Command-line front end.

Thin wrappers over the library: every command parses its inputs, calls one
library routine, and renders the result.  Output is byte-deterministic for
fixed inputs (prime-ascending ordering everywhere, sorted JSON keys).
``--jobs N`` (N >= 1) is accepted and checked for compatibility; every run
is serial.

Exit codes: 0 success / all checks OK; 1 any verification FAIL or a
``VerificationError``; 2 invalid input or I/O failure.

Each command imports the library modules it calls, so a short command does
not load (or, without a bytecode cache, compile) the modules it never runs.
``--format json`` is written by :mod:`siegellift._jsonwrite`, byte-identical
to ``json.dumps(indent=2, sort_keys=True)``, so no command imports ``json``.
The parser holds only the subcommand that is run, unless help or an unknown
command needs them all.

A process ends as cheaply as it starts (:func:`entry`); :func:`main` never
exits the process, so it can be called in-process.  Every number on the
command line is an ASCII decimal, as a ``--curve`` entry is.
"""

from __future__ import annotations

import argparse
import os
import sys

from ._primes import _parse_int, is_prime, primes_upto
from .errors import InputError, SiegelLiftError, VerificationError


def _parse_curve(text: str):
    """The curve of ``--curve a1,a2,a3,a4,a6[,N]``."""
    from .modform import CurveData

    parts = [t.strip() for t in text.split(",")]
    if len(parts) not in (5, 6):
        raise InputError(f"--curve expects 'a1,a2,a3,a4,a6[,N]', got {text!r}")
    try:
        values = [_parse_int(t) for t in parts]
    except ValueError:
        raise InputError(f"--curve has a non-integer entry in {text!r}") from None
    return CurveData(*values[:5], conductor=values[5] if len(values) == 6 else None)


def _load_source(args):
    if args.curve and args.eigenfile:
        raise InputError("give either --curve or --eigenfile, not both")
    if args.curve:
        return _parse_curve(args.curve)
    if args.eigenfile:
        from .modform import parse_eigenfile

        return parse_eigenfile(args.eigenfile)
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


def _require_pmax(pmax: int) -> int:
    if pmax < 2:
        raise InputError(f"--pmax must be at least 2, got {pmax}")
    return pmax


def _primes_from(args) -> list[int]:
    if getattr(args, "p", None) is not None:
        if not is_prime(args.p):
            raise InputError(f"--p must be prime, got {args.p}")
        return [args.p]
    if getattr(args, "pmax", None) is not None:
        return primes_upto(_require_pmax(args.pmax))
    raise InputError("give --p or --pmax")


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _to_json(payload) -> str:
    from ._jsonwrite import dumps

    return dumps(payload)


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

    if args.curve is None:
        raise InputError("a curve is required: --curve")
    curve = _parse_curve(args.curve)
    rows = [(p, reduction_at(curve, p)) for p in _primes_from(args)]
    if args.format == "json":
        payload = {str(p): {"ap": r.ap, "kind": r.kind.value} for p, r in rows}
        _emit(_to_json(payload))
    elif args.format == "csv":
        lines = ["p,ap,kind"] + [f"{p},{r.ap},{r.kind.value}" for p, r in rows]
        _emit("\n".join(lines))
    else:
        _emit("\n".join(f"a_{p} = {r.ap}  ({r.kind.value})" for p, r in rows))
    return 0


def _cmd_factor(args) -> int:
    from .modform import local_factor_gl2

    source = _load_source(args)
    factors = [(p, local_factor_gl2(source, p)) for p in _primes_from(args)]
    _emit(_factor_rows(args, factors))
    return 0


def _cmd_sym3(args) -> int:
    from .lseries import local_data

    source = _load_source(args)
    factors = [(p, local_data(source, None, p).spin) for p in _primes_from(args)]
    _emit(_factor_rows(args, factors))
    return 0


def _cmd_induce(args) -> int:
    from .heckechar import induced_factor

    chi = _load_char(args)
    factors = [(p, induced_factor(chi, p)) for p in _primes_from(args)]
    _emit(_factor_rows(args, factors))
    return 0


def _cmd_verify(args) -> int:
    from .modform import parse_eigenfile
    from .predictor import Identity, ap_match_report, identity_report

    name = args.identity
    if name == "ap-match":
        curve = _parse_curve(args.curve) if args.curve else None
        if curve is None or not args.eigenfile:
            raise InputError("ap-match needs both --curve and --eigenfile")
        if args.D is not None or args.m is not None:
            raise InputError("ap-match reads no character: drop --D and --m")
        report = ap_match_report(curve, parse_eigenfile(args.eigenfile), args.pmax)
    else:
        source = None
        if args.curve or args.eigenfile:
            source = _load_source(args)
        chi = _load_char(args, required=False)
        report = identity_report(Identity(name), args.pmax, source=source, chi=chi)
    # after the report, which names a missing input first and has no row below 2
    _require_pmax(args.pmax)
    if args.format == "json":
        _emit(_to_json(report.to_json()))
    elif args.format == "csv":
        _emit(report.to_csv())
    else:
        _emit(report.to_text())
    return 0 if report.ok else 1


def _cmd_predict(args) -> int:
    from .predictor import predict_siegel

    source = _load_source(args)
    chi = _load_char(args, required=False)
    prediction = predict_siegel(source, chi=chi, pmax=_require_pmax(args.pmax))
    _emit(_to_json(prediction.to_json()) if args.format == "json" else prediction.to_text())
    return 0 if prediction.verification.ok else 1


def _build_object(args):
    from .lseries import gl2_object, spin_object

    source = _load_source(args)
    if args.transfer != "tensor" and (args.D is not None or args.m is not None):
        raise InputError(f"--D and --m apply only to --transfer tensor, not {args.transfer}")
    chi = _load_char(args) if args.transfer == "tensor" else None
    if args.X < 1:
        raise InputError(f"--X must be at least 1, got {args.X}")
    if args.transfer == "none":
        return gl2_object(source, args.X)
    return spin_object(source, chi, args.X)


def _cmd_lcoeffs(args) -> int:
    from .lseries import dirichlet_coeffs

    obj = _build_object(args)
    coeffs = dirichlet_coeffs(obj, args.X)
    if args.format == "json":
        _emit(_to_json({"label": obj.label, "coeffs": [str(c) for c in coeffs[1:]]}))
    elif args.format == "csv":
        lines = ["n,a_n"] + [f"{n},{coeffs[n]}" for n in range(1, args.X + 1)]
        _emit("\n".join(lines))
    else:
        _emit("\n".join(f"a_{n} = {coeffs[n]}" for n in range(1, args.X + 1)))
    return 0


def _cmd_eval(args) -> int:
    from .lseries import eval_partial

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
        _emit(_to_json(payload))
    else:
        _emit(f"sum of {result.terms} terms at s={result.s:g}: {result.value:.12g}"
              f"  (tail estimate {result.tail_bound:.6g})")
    return 0


# ---------------------------------------------------------------------------

def _int_flag(text: str) -> int:
    """An int flag's value: an ASCII decimal, as a ``--curve`` entry is."""
    try:
        return _parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _float_flag(text: str) -> float:
    """``-s``: what float() reads ('1.5', '1e5', 'nan') from ASCII without '_'."""
    try:
        if text.isascii() and "_" not in text:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line and exit code 2, as the
    checked input errors are; the subcommand parsers inherit the class."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


#: The names ``verify --identity`` takes: the values of ``predictor.Identity``
#: (a test pins them to it), then ap-match; written out so that building the
#: parser loads no library module.
_IDENTITIES = ("sym2-ind", "sym3-ext2", "tensor-ext2", "tensor-square", "ap-match")


def _add_output(parser) -> None:
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument(
        "--jobs", type=_int_flag, default=1, help="accepted for compatibility (N >= 1); runs are serial"
    )


def _add_curve(parser) -> None:
    parser.add_argument("--curve", help="Weierstrass coefficients a1,a2,a3,a4,a6[,N]")


def _add_source(parser) -> None:
    _add_curve(parser)
    parser.add_argument("--eigenfile", help="path to a Hecke-eigenvalue file")


def _add_character(parser) -> None:
    parser.add_argument("--D", type=_int_flag, help="imaginary quadratic discriminant")
    parser.add_argument("--m", type=_int_flag, help="character half-weight (weight is 2m)")


def _add_primes(parser) -> None:
    one_or_all = parser.add_mutually_exclusive_group()
    one_or_all.add_argument("--p", type=_int_flag, help="a single prime")
    one_or_all.add_argument("--pmax", type=_int_flag, help="all primes up to this bound")


def _add_verify(parser) -> None:
    parser.add_argument("--identity", required=True, choices=_IDENTITIES)
    parser.add_argument("--pmax", type=_int_flag, default=100)


def _add_predict(parser) -> None:
    parser.add_argument("--pmax", type=_int_flag, default=50)


def _add_transfer(parser) -> None:
    parser.add_argument("--transfer", choices=("none", "sym3", "tensor"), default="none")
    parser.add_argument("--X", type=_int_flag, required=True, help="expansion bound")


def _add_point(parser) -> None:
    parser.add_argument("-s", type=_float_flag, required=True, help="evaluation point")


#: Each subcommand: its name, help line, handler and argument groups, in order.
_COMMANDS = (
    ("ap", "Hecke eigenvalues of a curve", _cmd_ap, (_add_output, _add_curve, _add_primes)),
    ("factor", "degree-2 local factors", _cmd_factor, (_add_output, _add_source, _add_primes)),
    ("sym3", "symmetric-cube local factors", _cmd_sym3, (_add_output, _add_source, _add_primes)),
    ("induce", "induced character local factors", _cmd_induce,
     (_add_output, _add_character, _add_primes)),
    ("verify", "verify exact local identities", _cmd_verify,
     (_add_output, _add_source, _add_character, _add_verify)),
    ("predict", "full Siegel-form prediction bundle", _cmd_predict,
     (_add_output, _add_source, _add_character, _add_predict)),
    ("lcoeffs", "Dirichlet coefficients", _cmd_lcoeffs,
     (_add_output, _add_source, _add_character, _add_transfer)),
    ("eval", "partial Dirichlet value", _cmd_eval,
     (_add_output, _add_source, _add_character, _add_transfer, _add_point)),
)


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with the subcommand ``command`` only, or with all of them
    when ``command`` names none (``-h``, no command, an unknown word).  A
    subcommand's help and usage errors do not depend on its siblings, so a
    run builds only its own, which saves about 2 ms of start-up."""
    parser = _Parser(
        prog="siegellift",
        description=(
            "exact local data (Euler factors, levels, archimedean types) of the "
            "genus-2 Siegel modular forms attached to elliptic curves and newforms "
            "by symmetric-cube and twisted-tensor transfers"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    chosen = [row for row in _COMMANDS if row[0] == command] or _COMMANDS
    for name, help_line, func, groups in chosen:
        subparser = sub.add_parser(name, help=help_line)
        for add in groups:
            add(subparser)
        subparser.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    # a factor may have more than 4300 digits; before Python 3.10.7 int and str have no limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if args.format == "csv" and args.command in ("predict", "eval"):
            raise InputError(f"--format csv is not supported by {args.command}; use text or json")
        return args.func(args)
    except (SiegelLiftError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, VerificationError) else 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _observed() -> bool:
    """Whether a tracer, profiler or monitoring tool (coverage, cProfile, a
    debugger) is attached: each reports only after the program unwinds."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    # from Python 3.12 cProfile and coverage may use sys.monitoring (tool ids 0-5) instead
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(monitoring.get_tool(i) is not None for i in range(6))


def entry() -> None:
    """The console script and ``python -m siegellift.cli``.  After :func:`main`
    nothing is left for the interpreter's teardown to do (no file is open,
    no thread runs); skipping it saves about 15 ms of CPU on a 2-core host.
    A failed flush still goes through ``sys.exit``, which reports it as
    before."""
    code = main()
    if not _observed():
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except (OSError, ValueError):  # a broken or closed stream: the teardown reports it
            pass
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    entry()
