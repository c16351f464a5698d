"""Command-line front end.

Subcommands: ``field``, ``check-pp``, ``invert``, ``involution``,
``agw-verify``, ``interpolate``, ``search``.  Reports go to stdout as JSON
(or ``--format text``); diagnostics go to stderr.  Exit codes: 0 success,
1 mathematical rejection (the report embeds the error name and witness),
2 usage or parse error, 3 internal failure: a computed answer that failed
its self-certification (reported like a rejection, as
``CertificationFailed``) or a crash (traceback on stderr).
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from .errors import (CertificationFailed, NotBijective, PPInvError,
                     PolySyntaxError)
from .agw_inverse import family_from_descriptor, invert, mul_family
from .gf_core import (build_field, check_object, field_from_json,
                      field_to_json)
from .involution_lab import (check_add_involution, check_hybrid_involution,
                             check_mul_involution,
                             check_translator_involution)
from .perm_core import agw_diagram, agw_verify, as_permutation
from .poly_expr import interpolate, make_poly, parse_poly_expr, print_poly


class _UsageError(Exception):
    pass


def _add_field_args(sub):
    sub.add_argument("--p", type=int)
    sub.add_argument("--n", type=int, default=1)
    sub.add_argument("--modulus",
                     help="comma-separated coefficients, low-to-high")
    sub.add_argument("--field-file", help="field spec JSON file")


def _field_from_args(args):
    inline = args.p is not None
    from_file = getattr(args, "field_file", None) is not None
    if inline == from_file:
        raise _UsageError("exactly one field source is required: "
                          "--p/--n[/--modulus] or --field-file")
    if from_file:
        with open(args.field_file, encoding="utf-8") as fh:
            return field_from_json(json.load(fh))
    modulus = None
    if args.modulus:
        modulus = [int(c) for c in args.modulus.split(",")]
    return build_field(args.p, args.n, modulus)


def _emit(payload: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(payload))
    else:
        for key, value in payload.items():
            if isinstance(value, (dict, list)):
                value = json.dumps(value)
            print(f"{key}: {value}")


def _load_family(args):
    """Resolve a family from --file, or from inline mul flags."""
    if args.file:
        with open(args.file, encoding="utf-8") as fh:
            doc = check_object(json.load(fh), "descriptor")
        if args.family and doc.get("family") != args.family:
            raise _UsageError(
                f"--family {args.family} does not match the descriptor "
                f"family {doc.get('family')!r}")
        return family_from_descriptor(doc)
    if args.family != "mul":
        raise _UsageError(
            "inline flags support only --family mul; use --file for add, "
            "hybrid, translator and niu descriptors")
    if args.r is None or args.s is None or args.h is None:
        raise _UsageError("--family mul needs --r, --s and --h")
    ctx = _field_from_args(args)
    return "mul", mul_family(ctx, args.r, args.s,
                             parse_poly_expr(args.h, ctx))


def _cmd_field(args) -> tuple:
    ctx = _field_from_args(args)
    doc = field_to_json(ctx)
    return 0, {"p": doc["p"], "n": doc["n"], "q": ctx.q,
               "modulus": doc["modulus"]}


def _cmd_check_pp(args) -> tuple:
    ctx = _field_from_args(args)
    poly = parse_poly_expr(args.expr, ctx)
    try:
        as_permutation(ctx, poly)
    except NotBijective as exc:
        return 1, {"is_permutation": False, "collision": list(exc.witness)}
    return 0, {"is_permutation": True}


def _cmd_invert(args) -> tuple:
    _, fam = _load_family(args)
    inv = invert(fam)  # raises CertificationFailed unless inv o f = id
    poly = print_poly(interpolate(fam.ctx, list(inv.images)))
    return 0, {"table": list(inv.images), "poly": poly, "certified": True}


def _cmd_involution(args) -> tuple:
    kind, fam = _load_family(args)
    # built at call time, so it picks up the module's current bindings
    # (which tracing tools may have replaced)
    checks = {"mul": check_mul_involution, "add": check_add_involution,
              "hybrid": check_hybrid_involution,
              "translator": check_translator_involution}
    if kind not in checks:
        raise _UsageError(f"no involution criterion for family {kind!r}")
    return 0, checks[kind](fam).to_json()


def _cmd_agw_verify(args) -> tuple:
    with open(args.file, encoding="utf-8") as fh:
        doc = check_object(json.load(fh), "diagram")
    ctx = field_from_json(doc["field"])
    pairs = doc["g"]
    if not (isinstance(pairs, list)
            and all(isinstance(pair, list) and len(pair) == 2
                    for pair in pairs)):
        raise ValueError("g must be a list of [s, g(s)] pairs")
    diagram = agw_diagram(ctx, doc["f"], doc["lambda"], doc["lambda_bar"],
                          pairs, doc["S"], doc["S_bar"])
    return 0, agw_verify(diagram).to_json()


def _cmd_interpolate(args) -> tuple:
    ctx = _field_from_args(args)
    if (args.table is None) == (args.file is None):
        raise _UsageError("exactly one of --table or --file is required")
    if args.file:
        with open(args.file, encoding="utf-8") as fh:
            table = json.load(fh)
    else:
        table = [int(v) for v in args.table.split(",")]
    poly = interpolate(ctx, table)
    return 0, {"poly": print_poly(poly)}


def _cmd_search(args) -> tuple:
    if args.family != "mul":
        raise _UsageError("search supports only --family mul")
    if args.limit < 1:
        raise _UsageError("--limit must be positive")
    ctx = _field_from_args(args)
    q = ctx.q
    # deterministic lexicographic scan over (s, r, h) with deg h <= 2
    candidates = ((s, r, coeffs)
                  for s in range(1, q) if (q - 1) % s == 0
                  for r in range(1, q)
                  for coeffs in itertools.product(range(q), repeat=3)
                  if any(coeffs))
    examined, found = 0, []
    for s, r, coeffs in itertools.islice(candidates, args.limit):
        examined += 1
        try:
            fam = mul_family(ctx, r, s, make_poly(ctx, coeffs))
        except PPInvError:
            continue
        found.append({"r": r, "s": s, "h": print_poly(fam.h)})
    exhausted = next(candidates, None) is None
    return 0, {"family": "mul", "seed": args.seed, "limit": args.limit,
               "examined": examined, "exhausted": exhausted, "found": found}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppinv",
        description="Permutation-polynomial inverses and involutions over "
                    "finite fields")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("field", help="print a field summary")
    _add_field_args(sub)
    sub.set_defaults(handler=_cmd_field)

    sub = subs.add_parser("check-pp",
                          help="test whether an expression permutes F_q")
    _add_field_args(sub)
    sub.add_argument("--expr", required=True)
    sub.set_defaults(handler=_cmd_check_pp)

    for name, handler in (("invert", _cmd_invert),
                          ("involution", _cmd_involution)):
        sub = subs.add_parser(
            name, help=f"family {name} analysis (inline mul flags or a "
                       "descriptor file)")
        _add_field_args(sub)
        sub.add_argument("--family",
                         choices=("mul", "add", "hybrid", "translator",
                                  "niu"))
        sub.add_argument("--file", help="family descriptor JSON file")
        sub.add_argument("--r", type=int)
        sub.add_argument("--s", type=int)
        sub.add_argument("--h", help="h(x) in the expression grammar")
        sub.set_defaults(handler=handler)

    sub = subs.add_parser("agw-verify",
                          help="verify a commutative diagram file")
    sub.add_argument("--file", required=True, help="diagram JSON file")
    sub.set_defaults(handler=_cmd_agw_verify)

    sub = subs.add_parser("interpolate",
                          help="value table to polynomial")
    _add_field_args(sub)
    sub.add_argument("--table", help="comma-separated images by index")
    sub.add_argument("--file", help="JSON array of images")
    sub.set_defaults(handler=_cmd_interpolate)

    sub = subs.add_parser("search",
                          help="bounded exhaustive search for valid family "
                               "instances")
    _add_field_args(sub)
    sub.add_argument("--seed", type=int, default=0, help="echoed back")
    sub.add_argument("--family", default="mul")
    sub.add_argument("--limit", type=int, required=True,
                     help="maximum number of candidates examined")
    sub.set_defaults(handler=_cmd_search)

    for sub in subs.choices.values():  # every subcommand prints a report
        sub.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def run(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload = args.handler(args)
    except (_UsageError, PolySyntaxError, OSError) as exc:
        print(f"ppinv: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"ppinv: bad input: {exc}", file=sys.stderr)
        return 2
    except PPInvError as exc:
        witness = exc.witness
        if isinstance(witness, tuple):
            witness = list(witness)
        _emit({"error": exc.name, "message": str(exc), "witness": witness},
              args.format)
        return 3 if isinstance(exc, CertificationFailed) else 1
    except Exception:  # a crash must not read as a rejection (exit 1)
        import traceback  # deferred: start-up does not load it otherwise
        traceback.print_exc()
        return 3
    _emit(payload, args.format)
    return code


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
