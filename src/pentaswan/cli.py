"""Command-line front end.

Thin adapters only: every subcommand parses flags, calls the library, and
formats the result.  Exit codes: 0 success, 1 usage error, 2 internal
invariant violation (two routes that must agree did not -- that would be a
finding, not a usage problem).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext

from . import __version__, gf2poly, search, swan, verify, zpoly
from .gf2poly import BitPoly, PentShape
from .swan import OutOfTheoryError
from .zpoly import ConsistencyError

USAGE_ERROR = 1
INVARIANT_VIOLATION = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on bad usage, not argparse's 2
        raise _UsageError(message)


def _one_polynomial(args) -> None:
    # --poly, --s and --k each pick the polynomial; two of them would leave
    # one silently ignored
    shape = [f"--{name}" for name in ("n", "s", "k") if getattr(args, name, None) is not None]
    if getattr(args, "poly", None) is not None and shape:
        raise _UsageError(f"--poly names the polynomial alone, without {' or '.join(shape)}")
    if args.s is not None and getattr(args, "k", None) is not None:
        raise _UsageError("--s (pentanomial) and --k (trinomial) name different polynomials")


def _poly_from_args(args) -> BitPoly:
    _one_polynomial(args)
    if args.poly is not None:
        return BitPoly.from_hex(args.poly)
    if args.n is None:
        raise _UsageError("need --poly or --n")
    if args.k is not None:
        if not args.n > args.k > 0:
            raise _UsageError("trinomial needs n > k > 0")
        return BitPoly.from_exponents([args.n, args.k, 0])
    if args.s is None:
        raise _UsageError("need --s (pentanomial), --k (trinomial) or --poly")
    return gf2poly.pent_poly(PentShape(args.n, args.s))


def _parse_mod(text: str) -> int | None:
    if text == "exact":
        return None
    # every value printed is below 2^k, so 2^k must fit Python's int-to-str
    # limit (taken at its default where the interpreter sets none)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    k_max = (10 ** limit).bit_length() - 1
    k = text[2:]
    if (text.startswith("2^") and k.isascii() and k.isdigit()
            and len(k) <= len(str(k_max)) and 1 <= int(k) <= k_max):
        return 1 << int(k)
    raise _UsageError(f"--mod must be 'exact' or '2^k' with 1 <= k <= {k_max}, got {text!r}")


def _jobs(text: str) -> int:
    if not (text.isascii() and text.isdigit() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"must be a whole number >= 1, got {text!r}")
    return int(text)


def _emit(args, human: str, machine: dict) -> None:
    if getattr(args, "format", None) == "json":
        print(json.dumps(machine, sort_keys=True))
    else:
        print(human)


def _cmd_predict(args) -> int:
    _one_polynomial(args)
    if args.k is not None:
        verdict = swan.trinomial_parity(args.n, args.k)
        name = f"X^{args.n}+X^{args.k}+1"
        human = (
            f"{name}: even factor count, reducible (Swan case for n={args.n}, k={args.k})"
            if verdict.implies_reducible
            else f"{name}: odd factor count, inconclusive for irreducibility"
        )
        _emit(args, human, {"n": args.n, "k": args.k, "parity": verdict.parity,
                            "implies_reducible": verdict.implies_reducible})
        return 0
    if args.s is None:
        raise _UsageError("predict needs --n with --s (pentanomial) or --k (trinomial)")
    shape = PentShape(args.n, args.s)
    if args.s % 2:
        raise OutOfTheoryError("no closed form for odd s; use the brute-force 'test'")
    certified = swan.thm1_reducible(shape)
    machine: dict = {"n": args.n, "s": args.s, "certified_reducible": certified}
    if args.n % 2 == 0:
        human = f"reducible (perfect square: n = {args.n} and s = {args.s} both even)"
    else:
        verdict = swan.pent_parity(shape)
        machine["parity"] = verdict.parity
        machine["discriminant_mod8"] = swan.pent_discriminant_closed_form(shape)
        if certified:
            human = (
                f"reducible (even factor count: n = {args.n} with n mod 8 = {args.n % 8}, s even)"
            )
        else:
            human = (
                f"no certificate (odd factor count: n = {args.n} with n mod 8 = {args.n % 8}; "
                "odd parity is inconclusive for irreducibility)"
            )
    _emit(args, human, machine)
    return 0


def _cmd_test(args) -> int:
    p = _poly_from_args(args)
    if p.degree < 1:
        raise _UsageError("polynomial must have degree at least 1")
    total, parity = gf2poly.factor_count(p)
    irreducible = gf2poly.is_irreducible(p)
    if irreducible != (total == 1):
        raise ConsistencyError(
            f"irreducibility test and factor count disagree on {p!r}"
        )
    human = (
        "irreducible, 1 factor"
        if irreducible
        else f"reducible, {total} factors (parity {parity})"
    )
    _emit(args, human, {"poly": p.to_hex(), "degree": p.degree, "irreducible": irreducible,
                        "factors": total, "parity": parity})
    return 0


def _cmd_disc(args) -> int:
    _one_polynomial(args)
    routes: dict[str, int] = {}
    if args.poly is None:
        if args.n is None or args.s is None:
            raise _UsageError("disc needs --n and --s, or --poly")
        shape = PentShape(args.n, args.s)
        if args.n % 2 and args.s % 2 == 0:
            routes["closed_form"] = swan.pent_discriminant_closed_form(shape)
        F = zpoly.lift(gf2poly.pent_poly(shape))
    else:
        F = zpoly.lift(BitPoly.from_hex(args.poly))
    routes["discriminant_mod8"] = zpoly.discriminant_mod8(F)
    lines = [f"{name}: {value}" for name, value in routes.items()]
    agree = len(set(routes.values())) == 1
    if len(routes) > 1:
        lines.append("agree" if agree else "DISAGREE")
    _emit(args, "\n".join(lines), {**routes, "agree": agree})
    if not agree:
        raise ConsistencyError("discriminant routes disagree")
    return 0


def _cmd_powersums(args) -> int:
    p = _poly_from_args(args)
    modulus = _parse_mod(args.mod)
    values = zpoly.power_sums(zpoly.lift(p), args.upto)
    if modulus is not None:
        values = [v % modulus for v in values]
    try:  # format everything first: a value past the limit prints nothing
        if args.format == "json":
            text = json.dumps({"poly": p.to_hex(), "modulus": modulus,
                               "values": {str(m): v for m, v in enumerate(values)}})
        else:
            text = "\n".join(f"S_{m} = {v}" for m, v in enumerate(values))
    except ValueError:  # Python's int-to-str digit limit
        raise _UsageError(f"an exact S_m up to --upto {args.upto} has too many digits "
                          "to print; lower --upto or reduce with --mod 2^k") from None
    print(text)
    return 0


def _cmd_search(args) -> int:
    shapes = search.enumerate_shapes(args.n_min, args.n_max, args.s_parity, args.n_parity)
    restart, offset, kept = None, 0, []
    if args.resume:
        if not args.out:
            raise _UsageError("--resume needs --out")
        try:
            with open(args.out, "rb") as f:
                restart, offset, kept = search.resume_point(f)
        except FileNotFoundError:
            pass
    if restart is not None:
        # the last n-column may be partial: redo it, and append after the
        # rows below it, which stay on disk untouched; a range that would
        # not redo it is refused before the file is cut
        if not (args.n_min <= restart < args.n_max and any(search.enumerate_shapes(
                restart, restart + 1, args.s_parity, args.n_parity))):
            raise _UsageError(f"--resume would drop the column n={restart} of {args.out}, "
                              "which this run's range does not redo")
        # the kept rows must be the shapes this run would write, red_thm1 exactly
        # where its prune setting puts it (no shape there can become an error row)
        expected = search.enumerate_shapes(args.n_min, restart, args.s_parity, args.n_parity)
        if [(rec.n, rec.s, rec.outcome == search.REDUCIBLE_THM1) for rec in kept] != [
                (sh.n, sh.s, search._pruned(sh, not args.no_prune)) for sh in expected]:
            raise _UsageError(f"--resume: the rows of {args.out} below n={restart} differ "
                              "from what this run's flags would write")
        shapes = search.enumerate_shapes(restart, args.n_max, args.s_parity, args.n_parity)
        os.truncate(args.out, offset)
    records = search.survey(shapes, prune=not args.no_prune, jobs=args.jobs)
    errors = [rec for rec in kept if rec.outcome == search.ERROR]

    def stream():
        for rec in records:
            if rec.outcome == search.ERROR:
                errors.append(rec)
            yield rec

    mode = "w" if restart is None else "a"
    with open(args.out, mode, newline="") if args.out else nullcontext(sys.stdout) as out:
        count = search.write_csv(stream(), out, header=restart is None) + len(kept)
    print(f"classified {count} shapes", file=sys.stderr)
    if errors:
        # the rows stay in the output; the exit status must still report them
        first = errors[0]
        raise ConsistencyError(f"{len(errors)} error rows, first at n={first.n}, "
                               f"s={first.s}: {first.message or 'no message recorded'}")
    return 0


def _cmd_stats(args) -> int:
    with open(args.input) if args.input != "-" else nullcontext(sys.stdin) as f:
        records = search.read_csv(f)
    print(json.dumps(search.stats(records), indent=2, sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    results = verify.run_all(
        parity_max=args.parity_max, thm1_max=args.thm1_max, disc_max=args.disc_max,
        trinomial_max=args.trinomial_max, powersum_max=args.powersum_max,
        pair_max=args.pair_max, jobs=args.jobs,
    )
    if not sum(r.checked for r in results):
        raise _UsageError("these bounds leave every suite with 0 cases; raise --parity-max, "
                          "--thm1-max, --disc-max, --trinomial-max or --powersum-max")
    _emit(args, "\n".join(r.summary() for r in results),
          {"suites": [{"name": r.name, "checked": r.checked, "ok": r.ok,
                       "failures": r.failures} for r in results]})
    return 0 if all(r.ok for r in results) else INVARIANT_VIOLATION


def build_parser() -> _Parser:
    parser = _Parser(prog="pentaswan", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, helptext):
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(fn=fn)
        return p

    p = add("predict", _cmd_predict, "closed-form parity / reducibility verdicts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int)
    p.add_argument("--k", type=int, help="trinomial exponent (predict for X^n+X^k+1)")
    p.add_argument("--format", choices=("human", "json"), default="human")

    p = add("test", _cmd_test, "brute-force irreducibility and factor count")
    p.add_argument("--poly", help="hex coefficient string, X^0 coefficient first")
    p.add_argument("--n", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--format", choices=("human", "json"), default="human")

    p = add("disc", _cmd_disc, "discriminant of the lift mod 8; odd n, even s also by closed form")
    p.add_argument("--n", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--poly")
    p.add_argument("--format", choices=("human", "json"), default="human")

    p = add("powersums", _cmd_powersums, "power sums of the roots of the integer lift")
    p.add_argument("--n", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--poly")
    p.add_argument("--upto", type=int, required=True)
    p.add_argument("--mod", default="exact", help="'exact' or '2^k'")
    p.add_argument("--format", choices=("human", "json"), default="human")

    p = add("search", _cmd_search, "survey a range of shapes, emitting CSV")
    p.add_argument("--n-min", type=int, default=7)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--s-parity", choices=("even", "odd"), default="even")
    p.add_argument("--n-parity", choices=("odd", "all"), default="odd")
    p.add_argument("--no-prune", action="store_true",
                   help="skip the closed-form certificate, test every shape")
    p.add_argument("--jobs", type=_jobs, default=None, help="worker processes (default: all cores)")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--resume", action="store_true",
                   help="continue an interrupted run from the last complete n in --out")

    p = add("stats", _cmd_stats, "aggregate a survey CSV into a JSON report")
    p.add_argument("input", help="path to a survey file, or - for stdin")

    p = add("verify", _cmd_verify, "run the closed-form vs oracle agreement suites")
    p.add_argument("--parity-max", type=int, default=500)
    p.add_argument("--thm1-max", type=int, default=500)
    p.add_argument("--disc-max", type=int, default=60)
    p.add_argument("--trinomial-max", type=int, default=300)
    p.add_argument("--powersum-max", type=int, default=200)
    p.add_argument("--pair-max", type=int, default=120)
    p.add_argument("--jobs", type=_jobs, default=None,
                   help="worker processes for the suites (default: all cores)")
    p.add_argument("--format", choices=("human", "json"), default="human")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (_UsageError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except ConsistencyError as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return INVARIANT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
