"""Command-line interface.

Exit codes: 0 success, 1 negative verdict (non-member, bound violated,
nothing found), 2 usage error, 3 internal invariant breach, 141 stdout
closed by its reader (128 + SIGPIPE, what a shell reports for a writer
killed by SIGPIPE).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from fractions import Fraction

from . import bounds as _bounds
from . import generators as _gen
from . import patterns as _patterns
from . import psi as _psi
from . import reduction as _reduction
from .diagram import render_diagram
from .errors import (
    BudgetExhausted,
    CertificateFailure,
    NotInPsiD,
    ParamsInfeasible,
    PsicertError,
)
from .polycore import (
    _json_int,
    _rational_str,
    hermitian_from_json,
    multiplier_exponents,
    poly_from_json,
    poly_to_json,
)

OK, NEGATIVE, USAGE, INTERNAL, BROKEN_PIPE = 0, 1, 2, 3, 141


def _load(path: str, parse):
    """Read a JSON input file and convert it with `parse`.

    Failures here are usage errors; the same exception types raised later,
    inside the exact core, are internal errors.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(json.load(fh))
    except (OSError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise SystemExit2(f"{path}: {exc!r}") from exc


def _int_at_least(low: int):
    """argparse type: an integer no smaller than `low`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}: {text}")
        return value

    return parse


def _emit(doc: dict, args) -> None:
    # like every document the CLI writes, doc is a fresh tree: json's cycle check could never fire
    if args.format == "json":
        print(json.dumps(doc, sort_keys=True, check_circular=False))
    else:
        for key in sorted(doc):
            print(f"{key}: {doc[key]}")


def _load_input(args):
    """The --poly or the --herm input, whichever was given, parsed."""
    if args.poly is not None:
        return _load(args.poly, poly_from_json)
    return _load(args.herm, hermitian_from_json)


class SystemExit2(Exception):
    """Usage error raised from command bodies."""


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text}") from exc


def _auto_or_frac(text: str):
    """argparse type: the word `auto`, or a rational."""
    return text if text == "auto" else _frac(text)


def _input_flags(parser, *flags) -> None:
    """Input file flags of which exactly one must be given."""
    group = parser.add_mutually_exclusive_group(required=True)
    for flag in flags:
        group.add_argument(flag)


def build_parsers() -> tuple:
    """The top-level parser, and the map from command name to that command's parser."""
    top = argparse.ArgumentParser(prog="psicert")
    top.add_argument("--format", choices=("json", "text"), default="json")
    # accepted after the subcommand name too, where it overrides one given before it:
    # a subcommand leaves out of the namespace a flag it was not given
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default=argparse.SUPPRESS)
    sub = top.add_subparsers(dest="command", required=True)
    sub_kwargs = {"parents": [common]}
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")
    out_kwargs = {"parents": [common, out]}

    gen = sub.add_parser("generate", **sub_kwargs, help="emit one of the polynomial families")
    # each family's parser declares the flags its constructor reads, and no other
    families = gen.add_subparsers(dest="family", required=True)
    pd = families.add_parser("pd", **out_kwargs, help="the dense family pD(n, D)")
    pd.add_argument("--n", type=int, required=True)
    pd.add_argument("--D", type=int, required=True)
    two = families.add_parser("two-var", **out_kwargs, help="the two-variable family")
    two.add_argument("--d", type=int, required=True)
    two.add_argument("--m", type=int, required=True)
    two.add_argument("--D", type=int, help="the degree, checked against (d+1)m")
    ind = families.add_parser("inductive", **out_kwargs, help="the layered family")
    ind.add_argument("--n", type=int, required=True)
    ind.add_argument("--d", type=int, required=True)
    ind.add_argument("--k", type=int, required=True)
    ind.add_argument("--nu", type=int)
    ind.add_argument("--homogenize", action="store_true")
    qk = families.add_parser("qk", **out_kwargs, help="the separating family q_k")
    qk.add_argument("--n", type=int, required=True)
    qk.add_argument("--k", type=int, required=True)
    qk.add_argument("--epsilon", type=_auto_or_frac, default="auto")
    lam = families.add_parser("lambda", **out_kwargs, help="the lambda-quartic example")
    lam.add_argument("--lam", "--lambda", dest="lam", type=_frac, required=True)
    fig2 = families.add_parser("fig2", **out_kwargs, help="Figure 2's family")
    fig2.add_argument("--n", type=int, default=3)
    fig2.add_argument("--D", type=int, default=6)

    chk = sub.add_parser("check-psi", **sub_kwargs, help="membership at a fixed power")
    _input_flags(chk, "--poly", "--herm")
    chk.add_argument("--d", type=_int_at_least(0), help="the power; a multiplier file takes its own")
    chk.add_argument("--multiplier", help="JSON file {n, exps: [[...]]}")

    mind = sub.add_parser("min-d", **sub_kwargs, help="smallest power admitting membership")
    _input_flags(mind, "--poly", "--herm")
    mind.add_argument("--max-d", type=_int_at_least(0), default=_psi.DEFAULT_POWER_CAP)

    sig = sub.add_parser("signature", **sub_kwargs, help="signature pair of the input")
    _input_flags(sig, "--poly", "--herm")

    srch = sub.add_parser("search", **sub_kwargs, help="hunt for extreme sign-ratio patterns")
    srch.add_argument("--n", type=_int_at_least(1), required=True)
    srch.add_argument("--D", type=_int_at_least(0), required=True)
    srch.add_argument("--d", type=_int_at_least(1), required=True)
    srch.add_argument(
        "--strategy", choices=("exhaustive", "greedy", "local"), default="exhaustive"
    )
    srch.add_argument(
        "--budget",
        type=_int_at_least(0),
        default=200_000,
        help="evaluations allowed to greedy and local search; exhaustive search ignores it",
    )
    srch.add_argument("--seed", type=int, default=0)
    srch.add_argument(
        "--support",
        help="pattern JSON whose support restricts the search "
        "(local search: its start patterns only; its moves may leave the support)",
    )

    red = sub.add_parser("reduce", **out_kwargs, help="partial row-echelon reduction")
    red.add_argument("--herm", required=True)

    vb = sub.add_parser("verify-bounds", **sub_kwargs, help="check the signature-ratio ceiling")
    _input_flags(vb, "--poly", "--herm")
    vb.add_argument("--n", type=_int_at_least(2))
    vb.add_argument("--d", type=_int_at_least(1), required=True)

    cert = sub.add_parser("certificate", **sub_kwargs, help="pigeonhole certificate at power 1")
    cert.add_argument("--poly", required=True)

    dia = sub.add_parser("diagram", **out_kwargs, help="render a lattice diagram")
    _input_flags(dia, "--poly", "--pattern")
    dia.add_argument("--style", choices=("svg", "ascii"), default="svg")
    dia.add_argument("--show-simplices", action="store_true")
    return top, sub.choices


def _cmd_generate(args) -> int:
    fam = args.family
    meta: dict = {}
    try:
        if fam == "pd":
            poly = _gen.generate_pD(args.n, args.D)
        elif fam == "two-var":
            if args.D is not None and args.D != (args.d + 1) * args.m:
                raise ParamsInfeasible(f"two-variable family requires D = (d+1)m, got D={args.D}")
            poly = _gen.generate_two_var(args.d, args.m)
        elif fam == "inductive":
            poly = _gen.generate_inductive(args.n, args.d, args.k, args.nu, homogenize=args.homogenize)
        elif fam == "qk":
            if args.epsilon == "auto":
                report = _gen.find_qk_epsilon(args.n, args.k)
                poly = report.poly
                meta = {"epsilon": str(report.epsilon), "power": report.power}
                print(f"epsilon={report.epsilon} power={report.power}", file=sys.stderr)
            else:
                poly = _gen.generate_qk(args.n, args.k, args.epsilon)
        elif fam == "lambda":
            poly = _gen.generate_lambda_example(args.lam)
            if not _gen.lambda_in_positive_regime(args.lam):
                print("warning: lambda >= 16 leaves the positive regime", file=sys.stderr)
        else:  # fig2, Figure 2's (3, 6) member unless told otherwise
            poly = _gen.generate_fig2_family(args.n, args.D)
    except ParamsInfeasible as exc:
        raise SystemExit2(str(exc))
    doc = poly_to_json(poly)
    if meta and args.format == "text":
        doc = dict(doc, **meta)
    text = json.dumps(doc, sort_keys=True, check_circular=False)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return OK


def _witness_doc(report) -> dict | None:
    cert = report.certificate
    if isinstance(cert, _psi.NegativeCoefficientWitness):
        return {"kind": "negative-coefficient", "monomial": list(cert.monomial),
                "value": str(cert.value)}
    if isinstance(cert, _psi.NegativeDirectionWitness):
        return {
            "kind": "negative-direction",
            "value": str(cert.value),
            "vector": [[str(x), str(y)] for x, y in cert.vector],
            "basis": [list(b) for b in cert.basis],
        }
    return None


def _cmd_check_psi(args) -> int:
    if args.multiplier is None and args.d is None:
        raise SystemExit2("check-psi needs --d, or a --multiplier file that gives the powers")
    if args.multiplier is not None and args.d:  # --d 0 stays, as older command lines pass it
        raise SystemExit2(f"--d {args.d} with --multiplier: the multiplier file gives the powers")
    obj = _load_input(args)
    if args.multiplier is not None:

        def parse(doc):
            if _json_int(doc["n"]) != obj.n:
                raise ValueError(f"multiplier is for n = {doc['n']}, the input has n = {obj.n}")
            return multiplier_exponents(doc["exps"], obj.n)

        exps = _load(args.multiplier, parse)
        report = _psi.in_psi_general_multiplier(obj, exps)
    else:
        report = _psi.in_psi(obj, args.d)
    doc = {"member": report.member, "d": report.d}
    if not report.member:
        doc["witness"] = _witness_doc(report)
    _emit(doc, args)
    return OK if report.member else NEGATIVE


def _cmd_min_d(args) -> int:
    obj = _load_input(args)
    found = _psi.min_psi_index(obj, args.max_d)
    _emit({"min_d": found, "max_d": args.max_d}, args)
    return OK if found is not None else NEGATIVE


def _cmd_signature(args) -> int:
    sig = _psi.signature(_load_input(args))
    _emit({"n_plus": sig.n_plus, "n_minus": sig.n_minus, "rank": sig.rank}, args)
    return OK


def _cmd_search(args) -> int:
    support = None
    if args.support is not None:

        def parse(doc):
            points = sorted(_patterns.pattern_from_json(doc).support)
            for a in points:
                if len(a) != args.n or sum(a) != args.D:
                    raise ValueError(
                        f"support point {a} is not on the degree-{args.D} "
                        f"lattice in {args.n} variables"
                    )
            return points

        support = _load(args.support, parse)
    try:
        result = _patterns.search_max_ratio(
            args.n,
            args.D,
            args.d,
            strategy=args.strategy,
            budget=args.budget,
            seed=args.seed,
            support=support,
        )
    except BudgetExhausted as exc:
        print(f"nothing found: {exc}", file=sys.stderr)
        return NEGATIVE
    doc = {
        "pattern": _patterns.pattern_to_json(result.best),
        "ratio": str(result.ratio),
        "evaluations": result.evaluations,
        "strategy": result.strategy.value,
        "seed": args.seed,
        "budget_exhausted": result.budget_exhausted,
        "realized": poly_to_json(result.realized),
    }
    if args.n == 3:
        # a comparison figure with no recorded source
        doc["knight_move_reference"] = (args.d + 2) ** 2 // 3 - 1
    _emit(doc, args)
    return OK


def _cmd_reduce(args) -> int:
    herm = _load(args.herm, hermitian_from_json)
    reduced, steps = _reduction.partial_row_echelon(_reduction.decompose(herm))
    steps_doc = [
        {
            "pivot_col": s.pivot_col,
            "rows": list(s.rows),
            "lambda": str(s.lambda_used) if s.lambda_used is not None else None,
            "t": [[[_rational_str(re, d), _rational_str(im, d)] for re, im in (x, y)] for x, y, d in s.t],
            "weights": {"before": list(map(str, s.weights[0])), "after": list(map(str, s.weights[1]))},
        }
        for s in steps
    ]
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"steps": steps_doc}, fh, sort_keys=True, check_circular=False)
            fh.write("\n")
    # partial_row_echelon has proven the reconstruction error 0, or raised
    _emit(
        {
            "n_plus": reduced.n_plus,
            "n_minus": reduced.n_minus,
            "steps": len(steps),
            "echelon": True,
            "reconstruction_error": 0,
            "out": args.out,
        },
        args,
    )
    return OK


def _cmd_verify_bounds(args) -> int:
    obj = _load_input(args)
    n = obj.n if args.n is None else args.n
    if n < 2:
        raise SystemExit2(f"the ratio ceiling needs n >= 2; the input has n = {n}")
    sig = _psi.signature(obj)
    report = _bounds.verify_ratio_bound(sig, n, args.d)
    _emit(
        {
            "n": report.n,
            "d": report.d,
            "n_plus": sig.n_plus,
            "n_minus": sig.n_minus,
            "bound": str(report.bound),
            "satisfied": report.satisfied,
            "strict": report.strict,
        },
        args,
    )
    return OK if report.satisfied else NEGATIVE


def _cmd_certificate(args) -> int:
    poly = _load(args.poly, poly_from_json)
    try:
        cert = _bounds.pigeonhole_certificate(poly)
    except NotInPsiD as exc:
        _emit({"error": str(exc)}, args)
        return NEGATIVE
    doc = {"max_fiber": cert.max_fiber, "least_monomial": list(cert.least_monomial)}
    if args.format != "json":
        doc["assignment"] = [{"from": list(a), "to": list(b)} for a, b in cert.assignment]
        _emit(doc, args)
        return OK
    # The bytes json.dumps(sort_keys=True) writes for the whole document, with the assignment
    # (the one large part) written pair by pair through one template: its exponents are ints
    # that the reader checked (type(x) is int), which %d writes as json does.
    coords = ", ".join(["%d"] * poly.n)
    pair = '{"from": [%s], "to": [%s]}' % (coords, coords)
    pairs = ", ".join([pair % (a + b) for a, b in cert.assignment])
    print('{"assignment": [' + pairs + "], " + json.dumps(doc, sort_keys=True, check_circular=False)[1:])
    return OK


def _cmd_diagram(args) -> int:
    if args.pattern is not None:
        pat = _load(args.pattern, _patterns.pattern_from_json)
    else:
        pat = _load(args.poly, lambda doc: _patterns.pattern_from_poly(poly_from_json(doc)))
    doc = render_diagram(pat, args.style, args.show_simplices)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(doc)
        _emit({"out": args.out, "style": args.style}, args)
    elif args.format == "json":
        _emit({"style": args.style, "document": doc}, args)
    else:
        sys.stdout.write(doc)
    return OK


_COMMANDS = {
    "generate": _cmd_generate,
    "check-psi": _cmd_check_psi,
    "min-d": _cmd_min_d,
    "signature": _cmd_signature,
    "search": _cmd_search,
    "reduce": _cmd_reduce,
    "verify-bounds": _cmd_verify_bounds,
    "certificate": _cmd_certificate,
    "diagram": _cmd_diagram,
}


# built once: parse_args keeps no state between calls
_PARSER, _SUBPARSERS = build_parsers()


def _parse(argv) -> argparse.Namespace:
    """The namespace `_PARSER.parse_args(argv)` gives, with one parser level when it can.

    An argv that starts with a command name goes to that command's parser
    alone.  Anything else, and a command argv with words its parser leaves
    over, goes through the top-level parser, which reports the top-level
    options, unknown commands and unrecognized arguments in its own words.
    """
    sub = _SUBPARSERS.get(argv[0]) if argv else None
    if sub is not None:
        args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0], format="json"))
        if not extra:
            return args
    return _PARSER.parse_args(argv)


def run(argv) -> int:
    """Run one command; returns its exit code.

    The cyclic collector is paused for the command and restored as it was:
    no command leaves a reference cycle (tests/test_cli.py checks each),
    so refcounting frees everything, and the full collections that large
    live tables would trigger are pure cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _parse(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # from argparse, which has printed its message
        return USAGE if exc.code not in (0, None) else OK
    except BrokenPipeError:  # the reader of stdout stopped early: not a fault
        return BROKEN_PIPE
    except SystemExit2 as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE
    except OSError as exc:  # an --out file that cannot be opened
        print(f"usage error: {exc!r}", file=sys.stderr)
        return USAGE
    except (CertificateFailure, AssertionError) as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return INTERNAL
    except NotInPsiD as exc:
        print(f"negative verdict: {exc}", file=sys.stderr)
        return NEGATIVE
    except PsicertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except Exception as exc:  # anything unexpected is an invariant breach
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL
    finally:
        if enabled:
            gc.enable()


def main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = BROKEN_PIPE
    if code == BROKEN_PIPE:
        # the interpreter flushes stdout once more at exit: let that go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
