"""One benchmark process: a balkit command, the deep-index plan, or the
field-tower micro-timings.

    python3 perfbench/child.py cli   [options] -- ARGV...   # like `balkit ARGV...`
    python3 perfbench/child.py deep  [options] --plan PLAN.json --out RESULTS.pkl
    python3 perfbench/child.py micro --out RESULTS.json

Options:
    --trace SUMMARY.json --t0 T   record spans from T (the parent's clock at
                                  spawn) and write the layer summary at exit
    --fault-index N               a deliberately wrong `term`: one more than the
                                  true value at index N (for the self-test)

run.py starts untraced, fault-free commands as `python3 -m balkit.cli`; this
file is used when a run needs the tracer, a fault or the deep-index plan.
"""

import time

T_ENTRY = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


def install_fault(index: int) -> None:
    from balkit import sequences
    from tracer import replace_function

    true_term = sequences.term

    @functools.wraps(true_term)
    def term(seq, n):
        value = true_term(seq, n)
        return value + 1 if n == index else value

    replace_function(true_term, term)


def run_cli(argv: list[str]) -> int:
    from balkit import cli

    return cli.main(argv)


def run_deep(plan_path: str, out_path: str) -> int:
    """Make the plan's library calls; run.py checks the results."""
    from balkit import identities, quadfield, sequences, tailfloors

    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    families = {"B": sequences.BALANCING, "C": sequences.LUCAS_BALANCING,
                "F": sequences.FIBONACCI, "L": sequences.LUCAS}

    def family(letter, a):
        return families[letter] if letter != "G" else sequences.gen_fibonacci(a)

    res = {
        "term": [sequences.term(family(f, a), n) for f, a, n in plan["term"]],
        "pair_fast": [sequences.pair_fast(n) for n in plan["pair_fast"]],
        "pair_mod": [sequences.pair_mod(n, m) for n, m in plan["pair_mod"]],
        "binet": [quadfield.binet_pair(n) for n in plan["binet"]],
        "floors": [],
        "identities": [getattr(identities, "check_" + name)(*params).holds
                       for name, params in plan["identities"]],
    }
    for fam, shape, l, a, n in plan["floors"]:
        spec = tailfloors.TailSpec(fam, shape, l=l, a=a)
        res["floors"].append((tailfloors.closed_floor(spec, n), tailfloors.verified_floor(spec, n)))
    with open(out_path, "wb") as fh:
        pickle.dump(res, fh)
    return 0


def per_call(fn, min_time: float = 0.05, repeats: int = 5) -> float:
    """Median seconds per call over `repeats` timed loops of at least `min_time`."""
    count = 1
    while True:
        t = time.perf_counter()
        for _ in range(count):
            fn()
        elapsed = time.perf_counter() - t
        if elapsed >= min_time:
            break
        count *= 4
    times = [elapsed / count]
    for _ in range(repeats - 1):
        t = time.perf_counter()
        for _ in range(count):
            fn()
        times.append((time.perf_counter() - t) / count)
    return statistics.median(times)


def run_micro(out_path: str) -> int:
    """Field-tower micro-timings on fixed operands: the inverted conjugate base
    of the k = 5, r = 2 Lucas-balancing convolution weight and its 20th power,
    and the unit power that binet_pair(10**5) takes."""
    from balkit.quadfield import GaussQuad, QuadRat
    from balkit.sequences import BALANCING, LUCAS_BALANCING, term

    x = QuadRat.of(0, 2 * term(BALANCING, 5), 2)
    base = GaussQuad.of(x, QuadRat.of(term(LUCAS_BALANCING, 2), 0, 2)).inverse()
    big = base ** 20
    unit = QuadRat.of(3, 2, 2)
    metrics = {
        "quadfield.quadrat_mul_us": per_call(lambda: big.re * base.re) * 1e6,
        "quadfield.gaussquad_mul_us": per_call(lambda: big * base) * 1e6,
        "quadfield.gaussquad_pow_us": per_call(lambda: base ** 40) * 1e6,
        "quadfield.quadrat_pow_1e5_ms": per_call(lambda: unit ** 100000, min_time=0.0) * 1e3,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(metrics, fh)
    return 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("cli", "deep", "micro"))
    p.add_argument("--trace", metavar="SUMMARY")
    p.add_argument("--t0", type=float, default=T_ENTRY)
    p.add_argument("--fault-index", type=int)
    p.add_argument("--plan")
    p.add_argument("--out")
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args = p.parse_args(argv[:split])
    cli_argv = argv[split + 1:]

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(args.t0)
        import_span = tracer.open("bench.import", "bench")
    import balkit.cli  # noqa: F401  (every layer, as `balkit ...` loads them)

    if tracer is not None:
        tracer.close(import_span)
    if args.fault_index is not None:
        install_fault(args.fault_index)
    if tracer is not None:
        tracer.install()
    try:
        if args.mode == "cli":
            return run_cli(cli_argv)
        if args.mode == "deep":
            return run_deep(args.plan, args.out)
        return run_micro(args.out)
    finally:
        if tracer is not None:
            tracer.write(args.trace)


if __name__ == "__main__":
    sys.exit(main())
