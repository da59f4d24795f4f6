"""Command-line surface: sequence generation, identity sweeps, convolution
comparison, generating-function expansion, tail-floor certification, and an
umbrella verify-all.

Exit codes: 0 all checks pass, 1 mathematical mismatch, undecided interval or
other arithmetic failure, 2 usage error.  Reports print as text by default or
as canonical JSON (--format json); --output writes the JSON report to a file
either way.  Big integers are serialized as decimal strings, and an identity
report lists only its failing cases.

Each command is a fresh process, so each imports only the layers it runs:
at import this module loads `sequences` alone, and a command imports the
rest.  `seq` writes its terms from an exact decimal recurrence, since
CPython writes an int in decimal in quadratic time.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial

from . import sequences as seqs

SCHEMA_VERSION = 1


def __getattr__(name: str):
    # Each costs more to import than most commands run, so it loads on first use,
    # and a command reads it through the module, so one bound here after import is used.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor as value
    elif name == "_TAIL_NAMES":
        from . import tailfloors as tails
        value = {f"{shape.replace('_', '-')}-{fam}": (fam, shape)
                 for shape, row in tails.SHAPES.items() for fam in row.families}
    elif name == "_EXACT":
        # Integer arithmetic in decimal: every result fits the precision, and a
        # rounding would raise, so `seq` never writes a wrong digit.
        import decimal
        value = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                                traps=[decimal.Inexact, decimal.Rounded])
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _emit(report: dict, args, text_lines: list[str]) -> None:
    rendered = render_json(report) if args.format == "json" or args.output else None
    if args.format == "json":
        sys.stdout.write(rendered)
    else:
        for line in text_lines:
            print(line)
        s = report["summary"]
        print(f"checked {s['checked']}  passed {s['passed']}  failed {s['failed']}"
              f"  ({report['wall_time_s']:.3f}s)")
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            raise ValueError(f"cannot write report to {args.output}: {exc.strerror}") from None


# -- seq -----------------------------------------------------------------------

def cmd_seq(args) -> tuple:
    # The linear pass of `sequences.values`, run in exact decimal: CPython writes
    # an int in decimal in quadratic time, and a Decimal in linear time.
    from decimal import Decimal, localcontext

    def exact(v: int) -> Decimal:
        # Decimal(int) is quadratic too, so a seed past 2^15 bits, where halving
        # starts to pay (Python 3.11), is built from its halves.
        if v.bit_length() <= 1 << 15:
            return Decimal(v)
        w = v.bit_length() // 2
        return exact(v >> w) * Decimal(2) ** w + exact(v & ((1 << w) - 1))

    family = seqs.family(args.family, args.a)
    if args.start > args.stop:
        raise ValueError(f"empty range: start {args.start} > stop {args.stop}")
    p, q = family.p, family.q
    items = []
    with localcontext(sys.modules[__name__]._EXACT):
        prev = exact(seqs.term(family, args.start))
        cur = exact(seqs.term(family, args.start + 1))
        for n in range(args.start, args.stop + 1):
            items.append({"n": n, "value": str(prev)})
            prev, cur = cur, p * cur - q * prev
    params = {"family": args.family, "from": args.start, "to": args.stop}
    if args.family == "G":
        params["a"] = args.a
    # The text line is as large as the JSON report, so only text mode builds it.
    lines = [" ".join(i["value"] for i in items)] if args.format == "text" else []
    return params, items, len(items), 0, lines


# -- gf ------------------------------------------------------------------------

def cmd_gf(args) -> tuple:
    from . import genfunc

    family = seqs.family(args.family)
    g = genfunc.gf(family, args.k, args.r)
    lines = [str(g)]
    try:
        coeffs = genfunc.expand(g, args.terms)
    except ArithmeticError as exc:
        items = [{"error": str(exc)}]
        lines.append(f"error: {exc}")
    else:
        direct = [seqs.term(family, args.k * i + args.r) for i in range(args.terms)]
        items = [
            {"n": i, "coefficient": str(c), "direct": str(d), "ok": c == d}
            for i, (c, d) in enumerate(zip(coeffs, direct))
        ]
        lines += [" ".join(map(str, coeffs)), "match" if coeffs == direct else "MISMATCH"]
    failed = sum(1 for it in items if not it.get("ok"))
    return ({"family": args.family, "k": args.k, "r": args.r, "terms": args.terms,
             "numer": [str(c) for c in g.numer], "denom": [str(c) for c in g.denom]},
            items, len(items), failed, lines)


# -- conv ----------------------------------------------------------------------

def _run_routes(item: dict, mode: str, routes: dict,
                undecided: tuple = ()) -> tuple[int, list[str]]:
    """conv and tailfloor: run the route `mode` names, or both, each returning
    (value, text note).  The first ArithmeticError ends the item, as
    "undecided" if it is one of the `undecided` classes and "error" otherwise;
    item["ok"] is set when both routes ran.  Returns (failed, text lines)."""
    width = max(map(len, routes)) + 1
    lines = []
    for name in [mode] if mode in routes else routes:
        try:
            value, note = routes[name]()
        except ArithmeticError as exc:
            key = "undecided" if isinstance(exc, undecided) else "error"
            item[key] = str(exc)
            return 1, lines + [f"{key}: {exc}"]
        item[name] = str(value)
        lines.append(f"{name:<{width}}{value}{note}")
    if mode in routes:
        return 0, lines
    first, second = routes
    item["ok"] = item[first] == item[second]
    return 0 if item["ok"] else 1, lines + ["match" if item["ok"] else "MISMATCH"]


def cmd_conv(args) -> tuple:
    from . import convolutions as conv

    family = seqs.family(args.family)
    item: dict = {"k": args.k, "r": args.r, "n": args.n}
    failed, lines = _run_routes(item, args.method, {
        "brute": lambda: (conv.brute_conv(family, args.k, args.r, args.n), ""),
        "closed": lambda: (conv.conv_closed(family, args.k, args.r, args.n), "")})
    return {"family": args.family, "method": args.method}, [item], 1, failed, lines


# -- identity ------------------------------------------------------------------

_BOUNDS = {"max": 40, "max_prime": 1000}  # the defaults of --max and --max-prime


def cmd_identity(args) -> tuple:
    from . import verify

    check, grid = verify.identity_sweep(args.name, args.max, args.max_prime)
    # A sweep reads one bound; the other is a usage error unless it keeps its default.
    for bound, default in _BOUNDS.items():
        if bound != verify.IDENTITY_GRIDS[args.name][1] and getattr(args, bound) != default:
            raise ValueError(f"{args.name} does not read --{bound.replace('_', '-')}")
    evaluate = partial(verify.failure, check)
    if args.jobs > 1 and len(grid) >= 256:
        chunk = max(16, len(grid) // (args.jobs * 8))
        with sys.modules[__name__].ProcessPoolExecutor(max_workers=args.jobs) as pool:
            found = list(pool.map(evaluate, *zip(*grid), chunksize=chunk))
    else:
        found = [evaluate(*p) for p in grid]
    # Only failures are listed: a passing case is {"params", "ok": true}, and the
    # params follow from the grid.
    failures = [{"params": list(p), "ok": False, **f}
                for p, f in zip(grid, found) if f is not None]
    return ({"name": args.name, "max": args.max, "max_prime": args.max_prime}, failures,
            len(grid), len(failures),
            [f"{args.name}: passed {len(grid) - len(failures)}/{len(grid)}"]
            + [f"  FAIL {f}" for f in failures[:10]])


# -- tailfloor -------------------------------------------------------------------

def cmd_tailfloor(args) -> tuple:
    from . import tailfloors as tails

    names = sys.modules[__name__]._TAIL_NAMES
    if args.spec not in names:
        raise ValueError(f"unknown tail spec {args.spec!r}; known: " + ", ".join(sorted(names)))
    fam, shape = names[args.spec]
    spec = tails.TailSpec(fam, shape, l=args.l, a=args.a)
    item: dict = {"spec": args.spec, "n": args.n, "l": spec.l, "a": spec.a}

    def verified():
        cert = tails.certify_floor(spec, args.n)
        item["terms"] = cert.terms
        return cert.value, f"  ({cert.terms} terms)"

    failed, lines = _run_routes(item, args.mode,
                                {"closed": lambda: (tails.closed_floor(spec, args.n), ""),
                                 "verified": verified}, tails.UndecidedIntervalError)
    return {"spec": args.spec, "mode": args.mode}, [item], 1, failed, lines


# -- verify-all ------------------------------------------------------------------

def cmd_verify_all(args) -> tuple:
    from . import verify

    if args.budget is not None and not 0 <= args.budget < float("inf"):  # NaN compares false
        raise ValueError(f"--budget must be finite and at least 0, got {args.budget}")
    deadline = float("inf") if args.budget is None else time.perf_counter() + args.budget
    items = []
    lines = []
    for name, cases in verify.plan():
        u0 = time.perf_counter()
        checked, failed, witness, skipped = verify.run(cases, deadline)
        seconds = time.perf_counter() - u0
        items.append({"unit": name, "checked": checked, "failed": failed,
                      "seconds": round(seconds, 3)})
        lines.append(f"{name}: {checked - failed}/{checked} ok ({seconds:.2f}s)"
                     + (", skipped (budget)" if skipped else ""))
        if skipped:
            items[-1]["skipped"] = True
        if witness:
            items[-1]["witness"] = witness
            lines.append(f"  FAIL {witness}")
    return ({"budget": args.budget}, items, sum(it["checked"] for it in items),
            sum(it["failed"] for it in items), lines)


# -- parser ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="balkit",
        description="Exact balancing-number toolkit: sequences, identity sweeps, "
                    "convolution closed forms, and certified reciprocal-tail floors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def commons(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", metavar="PATH", default=None,
                       help="also write the JSON report to PATH")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for identity sweeps (default: 1, serial)")

    p = sub.add_parser("seq", help="emit sequence terms")
    p.add_argument("family", choices=("B", "C", "F", "L", "G"))
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="stop", type=int, required=True)
    p.add_argument("--a", type=int, default=1, help="parameter for family G")
    commons(p)
    p.set_defaults(fn=cmd_seq)

    p = sub.add_parser("gf", help="generating function and expansion check")
    p.add_argument("family", choices=("B", "C", "F", "L"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--terms", type=int, default=10)
    commons(p)
    p.set_defaults(fn=cmd_gf)

    p = sub.add_parser("conv", help="convolution sum, brute and/or closed form")
    p.add_argument("family", choices=("B", "C", "F", "L"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("brute", "closed", "both"), default="both")
    commons(p)
    p.set_defaults(fn=cmd_conv)

    p = sub.add_parser("identity", help="sweep one identity over a parameter grid")
    p.add_argument("name")
    p.add_argument("--max", type=int, default=_BOUNDS["max"])
    p.add_argument("--max-prime", dest="max_prime", type=int, default=_BOUNDS["max_prime"])
    commons(p)
    p.set_defaults(fn=cmd_identity)

    p = sub.add_parser("tailfloor", help="closed and/or certified reciprocal-tail floor")
    p.add_argument("spec")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, default=1, help="stride for plain shapes")
    p.add_argument("--a", type=int, default=1, help="parameter for G shapes")
    p.add_argument("--mode", choices=("closed", "verified", "certify"), default="certify")
    commons(p)
    p.set_defaults(fn=cmd_tailfloor)

    p = sub.add_parser("verify-all", help="run the bundled verification sweep")
    p.add_argument("--budget", type=float, default=None,
                   help="soft time cap in seconds; the sweep stops at the first case past it")
    commons(p)
    p.set_defaults(fn=cmd_verify_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Reports write exact integers in decimal, past the 4300 digits Python 3.11+
    # converts by default: the cap is lifted while main runs, and restored.
    if not hasattr(sys, "get_int_max_str_digits"):
        return _main(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv: list[str] | None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        if args.command != "identity" and args.jobs != 1:
            raise ValueError(f"{args.command} does not read --jobs")
        if args.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
        params, items, checked, failed, lines = args.fn(args)
        report = {"schema": SCHEMA_VERSION, "command": args.command, "params": params,
                  "items": items,
                  "summary": {"checked": checked, "passed": checked - failed, "failed": failed},
                  "wall_time_s": round(time.perf_counter() - t0, 6)}
        _emit(report, args, lines)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
