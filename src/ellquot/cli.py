"""Command line front end; every payload is exact-rational JSON.

Exit codes: 0 for ok or degenerate results (degenerate parameters are data,
not failures), 1 for usage errors, 2 for domain errors.  `--seed` makes every
sampled computation reproducible; the ELLQUOT_SEED environment variable sets
the default.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from .constructions import ConstructionInput, certify
from .curves import kubert_curve
from .errors import EllquotError
from .families import (
    brumer,
    darmon,
    gras_quartic,
    p_ncl5,
    ptilde_cubic,
    ptilde_quartic,
    shanks_cubic,
)
from .funcfield import FunctionField
from .galois import DEFAULT_PRIME_BUDGET, check_prime_budget, galois_group
from .isogeny import velu_quotient
from .jsonio import (
    certificate_to_json,
    curve_to_json,
    family_to_json,
    galois_report_to_json,
    isogeny_to_json,
    point_to_json,
    poly_from_ascii,
)
from .verify import draw_input, run_battery

FAMILIES = {
    "pncl5": (p_ncl5, ("n", "c")),
    "brumer": (brumer, ("s", "u")),
    "darmon": (darmon, ("S", "T")),
    "shanks": (shanks_cubic, ("t",)),
    "ptilde3": (ptilde_cubic, ("u", "v", "n")),
    "ptilde4": (ptilde_quartic, ("n", "c")),
    "gras": (gras_quartic, ("t",)),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from exc


def _emit(payload, status="ok", diagnostics=()):
    print(
        json.dumps(
            {"status": status, "payload": payload, "diagnostics": list(diagnostics)},
            indent=2,
        )
    )


def _emit_error(exc) -> int:
    code = getattr(exc, "code", "error")
    print(json.dumps({"status": "error", "payload": {"code": code, "message": str(exc)}}))
    return 2


def build_parser() -> _Parser:
    parser = _Parser(prog="ellquot", description=__doc__)
    default_seed = int(os.environ.get("ELLQUOT_SEED", "0"))
    sub = parser.add_subparsers(dest="command", required=True)

    fam = sub.add_parser("family", help="Kubert curve with its order-l point")
    fam.add_argument("--l", type=int, required=True)
    fam.add_argument("--c", type=_fraction)
    fam.add_argument("--a1", type=_fraction)
    fam.add_argument("--a3", type=_fraction)

    quo = sub.add_parser("quotient", help="degree-l quotient isogeny data")
    quo.add_argument("--l", type=int, required=True)
    quo.add_argument("--c", type=_fraction)
    quo.add_argument("--a1", type=_fraction)
    quo.add_argument("--a3", type=_fraction)
    quo.add_argument("--symbolic", action="store_true", help="run over Q(c)")

    con = sub.add_parser("construct", help="certificate for one constructed point")
    con.add_argument("--l", type=int, required=True, choices=(3, 4, 5, 6))
    con.add_argument("--row", type=int, choices=(1, 2, 3))
    for flag in ("z", "t", "m", "u", "v", "v0", "a1", "u1"):
        con.add_argument(f"--{flag}", type=_fraction)
    con.add_argument("--as-printed", action="store_true")

    gal = sub.add_parser("galois", help="Galois group report for degree 3..6")
    gal.add_argument("--poly", help="polynomial in canonical ASCII form")
    gal.add_argument("--family", choices=sorted(FAMILIES))
    for flag in ("n", "c", "s", "u", "S", "T", "t", "v"):
        gal.add_argument(f"--{flag}", type=_fraction)
    gal.add_argument("--primes", type=int, default=DEFAULT_PRIME_BUDGET)

    pf = sub.add_parser("polyfam", help="closed-form family polynomial")
    pf.add_argument("--family", required=True, choices=sorted(FAMILIES))
    for flag in ("n", "c", "s", "u", "S", "T", "t", "v"):
        pf.add_argument(f"--{flag}", type=_fraction)

    sw = sub.add_parser("sweep", help="JSON-lines certificates over random draws")
    sw.add_argument("--l", type=int, required=True, choices=(3, 4, 5, 6))
    sw.add_argument("--count", type=int, default=50)
    sw.add_argument("--seed", type=int, default=default_seed)
    sw.add_argument("--jobs", type=int, default=1)
    sw.add_argument("--as-printed", action="store_true")

    vp = sub.add_parser("verify-paper", help="run the acceptance battery")
    vp.add_argument("--seed", type=int, default=default_seed)
    vp.add_argument("--primes", type=int, default=DEFAULT_PRIME_BUDGET)
    vp.add_argument("--as-printed", action="store_true")
    return parser


def _params_for(l, row, args):
    if l == 3:
        keys = ("a1", "u1", "z")
    elif l == 4:
        keys = ("u", "v")
    elif l == 6:
        keys = ("v0", "z")
    elif row == 3:
        keys = ("t", "m")
    else:
        keys = ("z",)
    missing = [k for k in keys if getattr(args, k, None) is None]
    if missing:
        raise EllquotError(f"l={l} construction needs --{', --'.join(missing)}")
    return {k: getattr(args, k) for k in keys}


def cmd_family(args) -> int:
    if args.l == 3:
        if args.a1 is None or args.a3 is None:
            raise EllquotError("l=3 needs --a1 and --a3")
        curve, A = kubert_curve(3, args.a1, args.a3)
    else:
        if args.c is None:
            raise EllquotError("l != 3 needs --c")
        curve, A = kubert_curve(args.l, args.c)
    _emit({"l": args.l, "curve": curve_to_json(curve), "torsion_point": point_to_json(A)})
    return 0


def cmd_quotient(args) -> int:
    if args.symbolic:
        c = FunctionField("c").gen
        if args.l == 3:
            raise EllquotError("symbolic mode covers the one-parameter families")
        curve, A = kubert_curve(args.l, c)
    elif args.l == 3:
        if args.a1 is None or args.a3 is None:
            raise EllquotError("l=3 needs --a1 and --a3")
        curve, A = kubert_curve(3, args.a1, args.a3)
    else:
        if args.c is None:
            raise EllquotError("l != 3 needs --c (or --symbolic)")
        curve, A = kubert_curve(args.l, args.c)
    isog = velu_quotient(curve, A, args.l)
    _emit(isogeny_to_json(isog))
    return 0


def cmd_construct(args) -> int:
    if args.l == 5 and args.row is None:
        raise EllquotError("l=5 needs --row 1|2|3")
    params = _params_for(args.l, args.row, args)
    inp = ConstructionInput(args.l, row=args.row, params=params, as_printed=args.as_printed)
    cert = certify(inp)
    status = "ok" if cert.valid else "degenerate"
    diags = [cert.excluded_reason] if cert.excluded_reason else []
    _emit(certificate_to_json(cert), status=status, diagnostics=diags)
    return 0


def _family_from_args(args):
    fn, keys = FAMILIES[args.family]
    missing = [k for k in keys if getattr(args, k, None) is None]
    if missing:
        raise EllquotError(f"family {args.family} needs --{', --'.join(missing)}")
    return fn(*[getattr(args, k) for k in keys])


def cmd_galois(args) -> int:
    if (args.poly is None) == (args.family is None):
        raise EllquotError("give exactly one of --poly or --family")
    if args.poly is not None:
        poly = poly_from_ascii(args.poly)
    else:
        poly = _family_from_args(args).poly
    report = galois_group(poly, args.primes)
    _emit(galois_report_to_json(report))
    return 0


def cmd_polyfam(args) -> int:
    fam = _family_from_args(args)
    _emit(family_to_json(fam))
    return 0


def _sweep_one(task):
    l, seed, index, as_printed = task
    rng = random.Random(f"{seed}-sweep-{l}-{index}")
    cert = certify(draw_input(l, rng, as_printed=as_printed))
    return index, certificate_to_json(cert)


def cmd_sweep(args) -> int:
    if args.count < 0:
        raise EllquotError(f"--count must be >= 0, got {args.count}")
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        raise EllquotError(f"--jobs must be between 1 and {cpus}, got {args.jobs}")
    tasks = [(args.l, args.seed, i, args.as_printed) for i in range(args.count)]
    if args.jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(args.jobs) as pool:
            results = pool.map(_sweep_one, tasks)
    else:
        results = [_sweep_one(t) for t in tasks]
    for _, payload in sorted(results, key=lambda r: r[0]):
        print(json.dumps(payload))
    return 0


def cmd_verify_paper(args) -> int:
    check_prime_budget(args.primes)
    summary = run_battery(seed=args.seed, prime_budget=args.primes, as_printed=args.as_printed)
    print(json.dumps(summary, indent=2))
    for crit in summary["criteria"]:
        line = "PASS" if crit["passed"] else "FAIL"
        print(f"{crit['name']}: {line}", file=sys.stderr)
    return 0 if summary["failed"] == 0 else 3


COMMANDS = {
    "family": cmd_family,
    "quotient": cmd_quotient,
    "construct": cmd_construct,
    "galois": cmd_galois,
    "polyfam": cmd_polyfam,
    "sweep": cmd_sweep,
    "verify-paper": cmd_verify_paper,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except EllquotError as exc:
        return _emit_error(exc)
    except (ZeroDivisionError, ValueError) as exc:
        return _emit_error(exc)


if __name__ == "__main__":
    sys.exit(main())
