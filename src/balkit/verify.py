"""The verification plan behind `balkit verify-all` and the acceptance suite.

Each unit yields cases (label, check, args); check(*args) is a Verdict on two
independent routes.  Library functions are looked up on their modules as a
case runs, so one wrapped or replaced there after import is the one checked.
"""

from __future__ import annotations

import time

from . import convolutions as conv
from . import genfunc as gen
from . import identities as ident
from . import quadfield
from . import sequences as seqs
from . import tailfloors as tails

# name -> (identities check, the bound its grid reads, grid of parameter tuples up to that bound)
IDENTITY_GRIDS = {
    "catalan": ("check_catalan", "max",
                lambda N: [(n, r) for n in range(N + 1) for r in range(n + 1)]),
    "odd-sum": ("check_odd_index_sum", "max", lambda N: [(n,) for n in range(1, N + 1)]),
    "shifted-product": ("check_shifted_product", "max",
                        lambda N: [(x, y) for x in range(N + 1) for y in range(N + 1)]),
    "addition": ("check_addition", "max",
                 lambda N: [(m, n) for n in range(N + 1) for m in range(n + 1)]),
    "combination": ("check_combination", "max",
                    lambda N: [(m, n) for m in range(1, N + 1) for n in range(1, N + 1)]),
    "gcd": ("check_gcd", "max",
            lambda N: [(m, n) for m in range(1, N + 1) for n in range(1, N + 1)]),
    "prime-congruence": ("check_prime_congruences", "max_prime",
                         lambda P: [(p,) for p in ident.primes_up_to(P - 1) if p > 2]),
    "mod-companion": ("check_mod_companion", "max", lambda N: [(m,) for m in range(1, N + 1)]),
    "binomial-3pow": ("check_binomial_3pow", "max", lambda N: [(n,) for n in range(N + 1)]),
    "binomial-plain": ("check_binomial_plain", "max", lambda N: [(n,) for n in range(N + 1)]),
    "second-order-product": ("check_second_order_product", "max",
                             lambda N: [(n,) for n in range(4, N + 1)]),
}


def identity_sweep(name: str, max: int, max_prime: int) -> tuple:
    """The named identity's check and its grid up to the bound it reads; an empty grid is an error."""
    if name not in IDENTITY_GRIDS:
        raise ValueError(f"unknown identity {name!r}; known: " + ", ".join(sorted(IDENTITY_GRIDS)))
    check, bound, grid = IDENTITY_GRIDS[name]
    limit = max_prime if bound == "max_prime" else max
    if not (cases := grid(limit)):
        raise ValueError(f"{name} has no case up to {bound}={limit}")
    return getattr(ident, check), cases


def _agree(lhs, rhs) -> ident.Verdict:
    return ident._verdict([("", lhs, rhs)])


def kernel():
    """Fast doubling and Binet against the linear pass of `values`; C(n)^2 - 8B(n)^2 = 1."""
    bs = seqs.values(seqs.BALANCING, 0, 5001)
    cs = seqs.values(seqs.LUCAS_BALANCING, 0, 5001)

    def fast(n):
        return _agree(seqs.pair_fast(n), (bs[n], cs[n]))

    def binet(n):
        return _agree(quadfield.binet_pair(n), (bs[n], cs[n]) if n >= 0 else (-bs[-n], cs[-n]))

    def pell(n):
        return _agree(cs[n] ** 2 - 8 * bs[n] ** 2, 1)

    for label, check, indices in (("pair_fast", fast, range(5001)),
                                  ("binet", binet, range(-50, 201)), ("pell", pell, range(2001))):
        for n in indices:
            yield label, check, (n,)


def identities():
    for name, bound in (("gcd", 150), ("catalan", 100), ("prime-congruence", 10000),
                        ("mod-companion", 60), ("binomial-3pow", 60), ("binomial-plain", 60),
                        ("second-order-product", 200)):
        check, grid = identity_sweep(name, bound, bound)
        for params in grid:
            yield name, check, params


def genfunc():
    """Expansions against terms (k <= 6) and squares against brute convolutions."""
    def expansion(family, k, r):
        return _agree(gen.expand(gen.gf(family, k, r), 50),
                      [seqs.term(family, k * i + r) for i in range(50)])

    def square(family, k, r):
        prefix = gen.expand(gen.gf(family, k, r), 31)
        return _agree(gen.series_mul(prefix, prefix, 31),
                      [conv.brute_conv(family, k, r, n) for n in range(31)])

    for family in map(seqs.family, "BCFL"):
        for k in range(1, 7):
            for r in range(k):
                yield "expand", expansion, (family, k, r)
        for k in range(1, 6):
            for r in range(k):
                yield "square", square, (family, k, r)


def convolutions():
    """Closed forms, which raise CancellationError on any residue, against brute force."""
    def check(family, k, r, n):
        return _agree(conv.conv_closed(family, k, r, n), conv.brute_conv(family, k, r, n))

    for family in map(seqs.family, "BCFL"):
        for k in range(1, 6):
            for r in range(k):
                for n in range(41):
                    yield "conv", check, (family, k, r, n)


def tailfloors():
    """Closed floors against interval certificates of at most 16 terms."""
    def check(spec, n):
        return _agree(tails.closed_floor(spec, n), tails.verified_floor(spec, n, max_terms=16))

    specs = [tails.TailSpec(fam, shape, l=l)
             for fam in ("B", "C") for shape, row in tails.SHAPES.items() if fam in row.families
             for l in ((1, 2, 3) if shape == "plain" else (1,))]
    specs += [tails.TailSpec("G", shape, a=a)
              for a in (1, 2, 3) for shape, row in tails.SHAPES.items() if "G" in row.families]
    for spec in specs:
        for n in range(tails.threshold(spec), 26):
            yield "tailfloor", check, (spec, n)


def plan() -> list[tuple]:
    """The verify-all units in report order, each a fresh generator of cases."""
    return [("kernel", kernel()), ("identities", identities()), ("genfunc", genfunc()),
            ("convolutions", convolutions()), ("tailfloors", tailfloors())]


def _outcome(check, args):
    """None if check(*args) holds; else the failed Verdict, or the ArithmeticError it raised."""
    try:
        verdict = check(*args)
    except ArithmeticError as exc:
        return exc
    return None if verdict.holds else verdict


def _render(outcome) -> dict:
    """The failed equality's label with both sides as decimal strings, or the error's message."""
    if isinstance(outcome, ArithmeticError):
        return {"error": str(outcome)}
    equality, lhs, rhs = outcome.witness
    return {"equality": equality, "lhs": str(lhs), "rhs": str(rhs)}


def failure(check, *args) -> dict | None:
    """None if check(*args) holds; else its failure, rendered."""
    outcome = _outcome(check, args)
    return None if outcome is None else _render(outcome)


def run(cases, deadline: float = float("inf"), clock=time.perf_counter) -> tuple:
    """Run cases until they run out or clock() passes the deadline, which is
    read before each case is pulled, so a unit past it never starts.  Returns
    (checked, failed, witness, skipped): witness is the first failure's label,
    params and lhs/rhs, or the message of the ArithmeticError it raised.  Only
    that failure is rendered; the others are counted."""
    checked = failed = 0
    witness = None
    cases = iter(cases)
    while clock() <= deadline:
        case = next(cases, None)
        if case is None:
            return checked, failed, witness, False
        label, check, args = case
        checked += 1
        outcome = _outcome(check, args)
        if outcome is None:
            continue
        failed += 1
        if witness is None:
            found = _render(outcome)
            equality = found.pop("equality", "")
            witness = {"label": f"{label} {equality}".rstrip(), **found,
                       "params": [a if isinstance(a, int) else str(a) for a in args]}
    return checked, failed, witness, True
