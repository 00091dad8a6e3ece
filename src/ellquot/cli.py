"""Command line front end; every payload is exact-rational JSON.

Exit codes: 0 for ok or degenerate results (degenerate parameters are data,
not failures), 1 for usage errors, 2 for domain errors, 3 when verify-paper
finds a criterion red.  `--seed` makes every sampled computation
reproducible; the ELLQUOT_SEED environment variable sets the default.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import sys

from .constructions import CONSTRUCTION_PARAMETERS, ConstructionInput, certify
from .curves import KUBERT_PARAMETERS, kubert_curve
from .errors import EllquotError, check_parameters
from .families import FAMILIES, family_polynomial
from .funcfield import FunctionField
from .galois import DEFAULT_PRIME_BUDGET, MAX_PRIME_BUDGET, MIN_PRIME_BUDGET, galois_group
from .isogeny import velu_quotient
from .jsonio import (
    MAX_POLY_TEXT,
    MAX_RATIONAL_DIGITS,
    certificate_to_json,
    curve_to_json,
    family_to_json,
    galois_report_to_json,
    isogeny_to_json,
    point_to_json,
    poly_from_ascii,
    rational_from_ascii,
)
from .verify import draw_input, run_battery

# sweep builds its whole task list before the first certificate, so --count
# is capped; this many (l, seed, index) tasks hold about 10.4 MB (tracemalloc,
# Python 3.11)
MAX_SWEEP_COUNT = 100_000


def _flags(name_tuples):
    """Every parameter name of a library table's name tuples, once, in table order."""
    return tuple(dict.fromkeys(k for names in name_tuples for k in names))


KUBERT_FLAGS = _flags(KUBERT_PARAMETERS.values())
CONSTRUCTION_FLAGS = _flags(CONSTRUCTION_PARAMETERS.values())
FAMILY_FLAGS = _flags(names for _, names, _ in FAMILIES.values())
CONSTRUCTION_LEVELS = sorted({l for l, _ in CONSTRUCTION_PARAMETERS})


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error; a flag's value may start with '-', as in `--c -3/2`."""

    def __init__(self, *args, **kwargs):
        self.takes_value = {}  # option string -> whether it takes a value
        # no prefixes of flags, in subcommands too, so the join below sees every flag
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.takes_value.update(dict.fromkeys(action.option_strings, action.nargs is None))
        return action

    def parse_known_args(self, args=None, namespace=None):
        tokens = []
        for token in sys.argv[1:] if args is None else args:
            after_flag = tokens and self.takes_value.get(tokens[-1])
            if after_flag and token.startswith("-") and token not in self.takes_value:
                tokens[-1] += "=" + token  # argparse reads the = form as a value
            else:
                tokens.append(token)
        return super().parse_known_args(tokens, namespace)

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


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


def _add_rational_flags(cmd, flags):
    text = f"rational N or N/D, signed or not, N and D at most {MAX_RATIONAL_DIGITS} ASCII digits"
    for flag in flags:
        cmd.add_argument(f"--{flag}", help=text)


def build_parser() -> _Parser:
    parser = _Parser(prog="ellquot", description=__doc__)
    # argparse converts a string default only when --seed is absent, so a
    # malformed ELLQUOT_SEED fails only the commands that take a seed
    default_seed = os.environ.get("ELLQUOT_SEED", "0")
    sub = parser.add_subparsers(dest="command", required=True)

    fam = sub.add_parser("family", help="Kubert curve with its order-l point")
    quo = sub.add_parser("quotient", help="degree-l quotient isogeny data")
    for cmd in (fam, quo):
        cmd.add_argument("--l", type=int, required=True)
        _add_rational_flags(cmd, KUBERT_FLAGS)
    quo.add_argument("--symbolic", action="store_true", help="run over Q(c)")

    con = sub.add_parser("construct", help="certificate for one constructed point")
    con.add_argument("--l", type=int, required=True, choices=CONSTRUCTION_LEVELS)
    rows = sorted({row for _, row in CONSTRUCTION_PARAMETERS if row})
    con.add_argument("--row", type=int, choices=rows)
    _add_rational_flags(con, CONSTRUCTION_FLAGS)
    con.add_argument("--as-printed", action="store_true")

    gal = sub.add_parser("galois", help="Galois group report for degree 3..6")
    gal.add_argument("--poly", help=f"polynomial in ASCII form, at most {MAX_POLY_TEXT} characters;"
                     " each coefficient as a rational flag, in parentheses when signed")
    gal.add_argument("--family", choices=sorted(FAMILIES))
    _add_rational_flags(gal, FAMILY_FLAGS)
    gal.add_argument("--primes", type=int, default=DEFAULT_PRIME_BUDGET,
                     help=f"primes sampled for an irreducible quintic or sextic, {MIN_PRIME_BUDGET}"
                     f" to {MAX_PRIME_BUDGET} (default %(default)s); exact verdicts sample none")

    pf = sub.add_parser("polyfam", help="closed-form family polynomial")
    pf.add_argument("--family", required=True, choices=sorted(FAMILIES))
    _add_rational_flags(pf, FAMILY_FLAGS)

    sw = sub.add_parser("sweep", help="JSON-lines certificates over random draws")
    sw.add_argument("--l", type=int, required=True, choices=CONSTRUCTION_LEVELS)
    sw.add_argument("--count", type=int, default=50)
    sw.add_argument("--seed", type=int, default=default_seed)
    sw.add_argument("--jobs", type=int, default=1)

    vp = sub.add_parser("verify-paper", help="run the acceptance battery")
    vp.add_argument("--seed", type=int, default=default_seed)
    vp.add_argument("--primes", type=int, default=DEFAULT_PRIME_BUDGET)
    return parser


def _set_flags(args, flags):
    """The given flags that are set, by name, each read by rational_from_ascii."""
    texts = {k: getattr(args, k) for k in flags}
    return {k: rational_from_ascii(text, f"--{k}") for k, text in texts.items() if text is not None}


def _kubert_args(args, symbolic=False):
    """kubert_curve's parameters for args.l from its flags; over Q(c), the generator c."""
    names = KUBERT_PARAMETERS.get(args.l)
    if names is None:
        raise EllquotError(f"l must be one of {sorted(KUBERT_PARAMETERS)}, got {args.l}")
    if symbolic and len(names) != 1:
        raise EllquotError("symbolic mode covers the one-parameter families")
    given = _set_flags(args, KUBERT_FLAGS)
    wanted = () if symbolic else names
    check_parameters(f"l={args.l}{' --symbolic' if symbolic else ''}", wanted, given)
    return (FunctionField("c").gen,) if symbolic else tuple(given[k] for k in names)


def cmd_family(args) -> int:
    curve, A = kubert_curve(args.l, *_kubert_args(args))
    _emit({"l": args.l, "curve": curve_to_json(curve), "torsion_point": point_to_json(A)})
    return 0


def cmd_quotient(args) -> int:
    curve, A = kubert_curve(args.l, *_kubert_args(args, args.symbolic))
    isog = velu_quotient(curve, A, args.l)
    _emit(isogeny_to_json(isog))
    return 0


def cmd_construct(args) -> int:
    params = _set_flags(args, CONSTRUCTION_FLAGS)
    inp = ConstructionInput(args.l, row=args.row, params=params, as_printed=args.as_printed)
    cert = certify(inp)
    status = "ok" if cert.valid else "degenerate"
    diags = [cert.excluded_reason] if cert.excluded_reason else []
    _emit(certificate_to_json(cert), status=status, diagnostics=diags)
    return 0


def cmd_galois(args) -> int:
    if (args.poly is None) == (args.family is None):
        raise EllquotError("give exactly one of --poly or --family")
    given = _set_flags(args, FAMILY_FLAGS)
    if args.poly is not None:
        check_parameters("--poly", (), given)
        poly = poly_from_ascii(args.poly)
    else:
        poly = family_polynomial(args.family, given).poly
    report = galois_group(poly, args.primes)
    _emit(galois_report_to_json(report))
    return 0


def cmd_polyfam(args) -> int:
    fam = family_polynomial(args.family, _set_flags(args, FAMILY_FLAGS))
    _emit(family_to_json(fam))
    return 0


def _sweep_one(task):
    l, seed, index = task
    rng = random.Random(f"{seed}-sweep-{l}-{index}")
    return certificate_to_json(certify(draw_input(l, rng)))


def cmd_sweep(args) -> int:
    if not 0 <= args.count <= MAX_SWEEP_COUNT:
        raise EllquotError(f"--count must be between 0 and {MAX_SWEEP_COUNT}, got {args.count}")
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        raise EllquotError(f"--jobs must be between 1 and {cpus}, got {args.jobs}")
    tasks = [(args.l, args.seed, i) for i in range(args.count)]
    with contextlib.ExitStack() as stack:
        apply = map
        if args.jobs > 1:
            import multiprocessing

            apply = stack.enter_context(multiprocessing.Pool(args.jobs)).imap
        for payload in apply(_sweep_one, tasks):
            print(json.dumps(payload))
    return 0


def cmd_verify_paper(args) -> int:
    summary = run_battery(seed=args.seed, prime_budget=args.primes)
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
    except (EllquotError, ZeroDivisionError, ValueError) as exc:
        return _emit_error(exc)


if __name__ == "__main__":
    sys.exit(main())
