"""The three benchmark workloads, their seeded inputs and their correctness gates.

Each workload is a closed loop with one client: `iterate` starts the next
balkit process only after the previous one has exited, and every process is
a fresh interpreter, so the module memo tables start cold as they do for a
user.  `iterate` returns one `Iteration`: the time of one workload run, its
request latencies (both host-speed normalised, see run.py), its peak RSS, its
checks and its misses.

The reference values that the gates compare against come from the plain
integer recurrences and the 2x2 matrix powers below, not from balkit.
"""

from __future__ import annotations

import json
import math
import os
import pickle
from dataclasses import dataclass, field

# (mult, add, seed0, seed1) of S(n) = mult*S(n-1) + add*S(n-2).
RECURRENCES = {"B": (6, -1, 0, 1), "C": (6, -1, 1, 3), "F": (1, 1, 0, 1), "L": (1, 1, 2, 1)}

TAIL_SHAPES = ("plain", "alt", "alt_sq", "alt_even_idx", "alt_odd_idx", "alt_consec_prod",
               "alt_even_sq", "alt_odd_sq", "alt_oddprod", "alt_evenprod")
GF_SHAPES = ("gf_plain", "gf_sq", "gf_even_idx", "gf_odd_idx")
THRESHOLD = {"alt_odd_sq": 2, "gf_odd_idx": 2}  # smallest valid n; 1 otherwise
TAIL_SPECS = [(f, s) for s in TAIL_SHAPES for f in "BC"] + [("G", s) for s in GF_SHAPES]

SWEEP_CHECKS = 40010


def recurrence(fam: str, a: int) -> tuple[int, int, int, int]:
    return RECURRENCES[fam] if fam != "G" else (a, 1, 0, 1)


def reference(fam: str, a: int, lo: int, hi: int, keep=None) -> dict[int, int]:
    """S(n) for lo <= n <= hi by the plain recurrence, run backwards for n < 0
    (add is +-1, so S(n-2) = add * (S(n) - mult*S(n-1))).  With `keep`, only
    those indices are stored, so a long run holds two terms at a time."""
    mult, add, s0, s1 = recurrence(fam, a)
    out = {}
    prev, cur = s0, s1
    for n in range(0, hi + 1):
        if lo <= n and (keep is None or n in keep):
            out[n] = prev
        prev, cur = cur, mult * cur + add * prev
    nxt, cur = s1, s0  # S(1), S(0)
    for n in range(-1, lo - 1, -1):
        nxt, cur = cur, add * (nxt - mult * cur)
        if n <= hi and (keep is None or n in keep):
            out[n] = cur
    return out


def _matmul(x, y, m):
    return [[(x[0][0] * y[0][0] + x[0][1] * y[1][0]) % m, (x[0][0] * y[0][1] + x[0][1] * y[1][1]) % m],
            [(x[1][0] * y[0][0] + x[1][1] * y[1][0]) % m, (x[1][0] * y[0][1] + x[1][1] * y[1][1]) % m]]


def balancing_pair_mod(n: int, m: int) -> tuple[int, int]:
    """(B(n) mod m, C(n) mod m) from [[6, -1], [1, 0]]^n = [[B(n+1), -B(n)], [B(n), -B(n-1)]]
    and C(n) = 3 B(n) - B(n-1)."""
    result, base = [[1 % m, 0], [0, 1 % m]], [[6 % m, (-1) % m], [1 % m, 0]]
    while n:
        if n & 1:
            result = _matmul(result, base, m)
        base = _matmul(base, base, m)
        n >>= 1
    b, b_prev = result[1][0], -result[1][1]
    return b % m, (3 * b - b_prev) % m


def balanced_pair(rng, lo: int, hi: int, w1: float, w2: float, power: float) -> tuple[int, int]:
    """Two indices in [lo, hi] whose costs w*n**power add up to the same total
    on every draw: the total the two would cost on average if drawn
    independently and uniformly.  Seeds then vary the indices, not the work."""
    mean = (hi ** (power + 1) - lo ** (power + 1)) / ((power + 1) * (hi - lo))
    total = (w1 + w2) * mean
    n1_lo = max(lo, ((total - w2 * hi ** power) / w1) ** (1 / power)) if total > w2 * hi ** power else lo
    n1_hi = min(hi, ((total - w2 * lo ** power) / w1) ** (1 / power))
    n1 = rng.uniform(n1_lo, n1_hi)
    n2 = ((total - w1 * n1 ** power) / w2) ** (1 / power)
    return round(n1), min(hi, max(lo, round(n2)))


def bits_per_index(fam: str, a: int) -> float:
    mult = recurrence(fam, a)[0]
    if fam in "BC":
        return math.log2(3 + 2 * math.sqrt(2))
    return math.log2((mult + math.sqrt(mult * mult + 4)) / 2)


@dataclass
class Iteration:
    wall_s: float = 0.0  # normalised, as the latencies
    raw_wall_s: float = 0.0
    latencies_s: list = field(default_factory=list)
    rss_mb: float = 0.0
    checks: int = 0
    attempted: int = 0
    failed: int = 0
    traces: list = field(default_factory=list)  # (summary path, wall_s) per traced process

    def add_process(self, proc, trace_path):
        self.wall_s += proc.time_s
        self.raw_wall_s += proc.wall_s
        self.latencies_s.append(proc.time_s)
        self.rss_mb = max(self.rss_mb, proc.rss_mb)
        if trace_path is not None:
            self.traces.append((trace_path, proc.wall_s))


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Sweep:
    """`balkit verify-all`: the fixed acceptance grid of 40,010 checks."""

    name = "sweep"
    ARGV = ["verify-all", "--jobs", "1", "--format", "json"]
    FAULT_INDEX = 7  # a wrong B(7) breaks the generating-function unit

    def __init__(self, rng, size: str):
        pass

    def iterate(self, runner, traced: bool) -> Iteration:
        it = Iteration(attempted=1)
        out = runner.path(".json")
        proc, trace = runner.balkit(self.ARGV, stdout=out, traced=traced, timeout=150,
                                    fault_index=self.FAULT_INDEX)
        it.add_process(proc, trace)
        try:
            summary = _load_json(out)["summary"] if proc.rc == 0 else None
        except (OSError, ValueError, KeyError) as exc:
            summary = None
            runner.miss(self.name, f"unreadable report: {exc!r}", proc)
        if summary is not None:
            it.checks = summary["checked"]
        if summary != {"checked": SWEEP_CHECKS, "passed": SWEEP_CHECKS, "failed": 0}:
            it.failed = 1
            runner.miss(self.name, f"exit {proc.rc}, summary {summary}", proc)
        os.remove(out)
        return it


class DeepIndex:
    """Library calls at large indices, cross-checked against independent routes."""

    name = "deep-index"
    SIZES = {  # term range, pair_fast range, binet range, floor n range, identity index max
        "full": ((50_000, 100_000), (500_000, 1_000_000), (99_000, 100_000), (800, 1200), 3000),
        "tiny": ((500, 1000), (5_000, 10_000), (900, 1000), (20, 40), 60),
    }
    TERM_PAIRS = (("B", 1, "C", 1), ("F", 1, "L", 1), ("G", 2, "G", 3))
    MOD_CHECK = 2 ** 61 - 1

    def __init__(self, rng, size: str):
        term_r, pair_r, binet_r, floor_r, id_max = self.SIZES[size]
        terms = []
        for f1, a1, f2, a2 in self.TERM_PAIRS:
            n1, n2 = balanced_pair(rng, *term_r, bits_per_index(f1, a1), bits_per_index(f2, a2), 2)
            terms += [(f1, a1, n1), (f2, a2, n2)]
        bc = [n for f, _, n in terms if f in "BC"]
        big = list(balanced_pair(rng, *pair_r, 1.0, 1.0, 1.6))
        # Floors in balanced pairs of specs, with stride l = 2 and parameter
        # a = 2 fixed: the sequence prefixes they memoise set deep-index's peak
        # RSS, which should not move with the seed.  cli-reports varies l and a.
        floors = []
        for (f1, s1), (f2, s2) in zip(TAIL_SPECS[::2], TAIL_SPECS[1::2]):
            for (fam, shape), n in zip(((f1, s1), (f2, s2)), balanced_pair(rng, *floor_r, 1, 1, 2)):
                floors.append((fam, shape, 2 if shape == "plain" else 1, 2 if fam == "G" else 1, n))
        identities = []
        for _ in range(8):
            m, n = sorted(rng.randint(1, id_max) for _ in range(2))
            identities.append(("addition", [m, n]))
            identities.append(("gcd", [rng.randint(1, id_max), rng.randint(1, id_max)]))
            n, r = sorted((rng.randint(0, id_max) for _ in range(2)), reverse=True)
            identities.append(("catalan", [n, r]))
        self.plan = {
            "term": terms,
            "pair_fast": bc + big,
            "pair_mod": [(rng.randint(0, pair_r[1]), rng.randint(2, 10 ** 18)) for _ in range(16)],
            "binet": [rng.randint(*binet_r)],
            "floors": floors,
            "identities": identities,
        }
        self.checks = sum(len(v) for v in self.plan.values())
        self.plan_path = None
        # Independent values: the plain recurrences at the wanted indices.
        want_bc = set(bc) | set(self.plan["binet"])
        self.ref_bc = {f: reference(f, 1, 0, max(want_bc), keep=want_bc) for f in "BC"}
        self.ref_term = [reference(f, a, n, n)[n] if f not in "BC" else self.ref_bc[f][n]
                         for f, a, n in terms]
        self.fault_index = terms[0][2]

    def _expected_pair(self, n):
        if n in self.ref_bc["B"]:
            return self.ref_bc["B"][n], self.ref_bc["C"][n]
        return None

    def _check(self, res) -> list[str]:
        """Descriptions of every failed check; each plan entry is one check."""
        bad = []
        for (f, a, n), got, want in zip(self.plan["term"], res["term"], self.ref_term):
            if got != want:
                bad.append(f"term {f}{a} n={n} differs from the recurrence")
        for n, (b, c) in zip(self.plan["pair_fast"], res["pair_fast"]):
            want = self._expected_pair(n)
            ok = (b, c) == want if want is not None else (
                c * c - 8 * b * b == 1
                and (b % self.MOD_CHECK, c % self.MOD_CHECK) == balancing_pair_mod(n, self.MOD_CHECK))
            if not ok:
                bad.append(f"pair_fast n={n} differs from the recurrence / matrix power")
        for (n, m), got in zip(self.plan["pair_mod"], res["pair_mod"]):
            if tuple(got) != balancing_pair_mod(n, m):
                bad.append(f"pair_mod n={n} m={m} differs from the matrix power")
        for n, got in zip(self.plan["binet"], res["binet"]):
            if tuple(got) != self._expected_pair(n):
                bad.append(f"binet_pair n={n} differs from the recurrence")
        for spec, (closed, verified) in zip(self.plan["floors"], res["floors"]):
            if closed != verified:
                bad.append(f"floor {spec}: closed {closed} != verified {verified}")
        for (name, params), holds in zip(self.plan["identities"], res["identities"]):
            if not holds:
                bad.append(f"check_{name}{tuple(params)} fails")
        return bad

    def iterate(self, runner, traced: bool) -> Iteration:
        if self.plan_path is None:
            self.plan_path = runner.path(".plan.json")
            with open(self.plan_path, "w", encoding="utf-8") as fh:
                json.dump(self.plan, fh)
        it = Iteration(attempted=self.checks)
        out = runner.path(".pkl")
        proc, trace = runner.child(["deep", "--plan", self.plan_path, "--out", out],
                                   traced=traced, timeout=150, fault_index=self.fault_index)
        it.add_process(proc, trace)
        try:
            with open(out, "rb") as fh:
                res = pickle.load(fh)  # written by perfbench/child.py
        except (OSError, EOFError, pickle.UnpicklingError) as exc:
            it.failed = self.checks
            runner.miss(self.name, f"exit {proc.rc}, no results: {exc!r}", proc)
            return it
        os.remove(out)
        bad = self._check(res)
        if proc.rc != 0:
            bad.append(f"exit {proc.rc}")
        it.checks = self.checks
        it.failed = min(len(bad), self.checks)
        for b in bad:
            runner.miss(self.name, b, proc)
        return it


class CliReports:
    """About 100 one-shot `balkit ... --format json --output FILE` commands."""

    name = "cli-reports"
    SIZES = {  # tail n, conv n, gf terms, seq length, seq start, heavy commands
        "full": ((50, 250), (10, 40), 40, 60, (-100, 400), (300, 5000, 10000)),
        "tiny": ((2, 20), (2, 8), 8, 10, (-10, 40), (20, 200, 200)),
    }
    COUNTS = {"full": (24, 16, 32), "tiny": (4, 4, 5)}  # conv, gf, seq requests

    def __init__(self, rng, size: str):
        tail_r, conv_r, gf_terms, seq_len, seq_r, (gcd_max, seq_to, max_prime) = self.SIZES[size]
        n_conv, n_gf, n_seq = self.COUNTS[size]
        reqs = []  # (argv, expected summary.checked)
        for fam, shape in TAIL_SPECS:
            name = shape.replace("_", "-") + f"-{fam}"
            n = rng.randint(max(THRESHOLD.get(shape, 1), tail_r[0]), tail_r[1])
            l = rng.randint(1, 3) if shape == "plain" else 1
            a = rng.randint(1, 3) if fam == "G" else 1
            reqs.append((["tailfloor", name, "--n", n, "--l", l, "--a", a, "--mode", "certify"], 1))
        for i in range(n_conv):
            k = rng.randint(1, 5)
            reqs.append((["conv", "BCFL"[i % 4], "--k", k, "--r", rng.randrange(k),
                          "--n", rng.randint(*conv_r), "--method", "both"], 1))
        for i in range(n_gf):
            k = rng.randint(1, 6)
            reqs.append((["gf", "BCFL"[i % 4], "--k", k, "--r", rng.randrange(k),
                          "--terms", gf_terms], gf_terms))
        for i in range(n_seq):
            fam = "BCFLG"[i % 5]
            start = rng.randint(max(0, seq_r[0]) if fam == "G" else seq_r[0], seq_r[1])
            argv = ["seq", fam, "--from", start, "--to", start + seq_len - 1]
            reqs.append((argv + (["--a", rng.randint(1, 3)] if fam == "G" else []), seq_len))
        reqs.append((["identity", "gcd", "--max", gcd_max, "--jobs", 2], gcd_max * gcd_max))
        reqs.append((["seq", "B", "--from", 0, "--to", seq_to], seq_to + 1))
        odd_primes = sum(1 for p in range(3, max_prime) if all(p % d for d in range(2, math.isqrt(p) + 1)))
        reqs.append((["identity", "prime-congruence", "--max-prime", max_prime, "--jobs", 2], odd_primes))
        rng.shuffle(reqs)
        self.requests = []
        for argv, checked in reqs:
            argv = [str(x) for x in argv]
            if "--jobs" not in argv:
                argv += ["--jobs", "1"]
            self.requests.append((argv + ["--format", "json"], checked))
        self._tables: dict = {}
        first_seq = next(argv for argv, _ in self.requests if argv[0] == "seq")
        self.fault_index = int(first_seq[first_seq.index("--from") + 1])

    def _value(self, fam: str, a: int, n: int) -> int:
        key = (fam, a)
        table = self._tables.get(key)
        if table is None or n not in table:
            lo = min(n, min(table) if table else 0, -100)
            hi = max(n, 2 * max(table) if table else 0, 500)
            table = self._tables[key] = reference(fam, a, lo, hi)
        return table[n]

    def _spot_check(self, argv, report) -> str | None:
        """A reason the report is wrong, or None."""
        cmd, fam = argv[0], argv[1]
        opt = {argv[i]: argv[i + 1] for i in range(2, len(argv) - 1) if argv[i].startswith("--")}
        items = report["items"]
        if cmd == "seq":
            a = int(opt["--a"]) if fam == "G" else 1
            for it in items:
                if int(it["value"]) != self._value(fam, a, it["n"]):
                    return f"seq {fam} n={it['n']} differs from the recurrence"
        elif cmd in ("conv", "gf"):
            k, r = int(opt["--k"]), int(opt["--r"])
            if cmd == "gf":
                for it in items:
                    if int(it["coefficient"]) != self._value(fam, 1, k * it["n"] + r):
                        return f"gf coefficient {it['n']} differs from the recurrence"
            else:
                n = int(opt["--n"])
                want = sum(self._value(fam, 1, k * m + r) * self._value(fam, 1, k * (n - m) + r)
                           for m in range(n + 1))
                if int(items[0]["brute"]) != want or int(items[0]["closed"]) != want:
                    return "conv differs from the recurrence"
        return None

    def iterate(self, runner, traced: bool) -> Iteration:
        it = Iteration(attempted=len(self.requests))
        for i, (argv, checked) in enumerate(self.requests):
            if i % 10 == 9:
                runner.probe_setup()
            out = runner.path(".json")
            proc, trace = runner.balkit(argv + ["--output", out], stdout=None, traced=traced,
                                        timeout=60, fault_index=self.fault_index)
            it.add_process(proc, trace)
            reason = None
            try:
                report = _load_json(out) if proc.rc == 0 else None
                if report is None:
                    reason = f"exit {proc.rc}"
                elif report["summary"]["failed"] != 0 or report["summary"]["checked"] != checked:
                    reason = f"summary {report['summary']}, expected {checked} checked"
                else:
                    reason = self._spot_check(argv, report)
            except (OSError, ValueError, KeyError) as exc:
                reason = f"unreadable report: {exc!r}"
            if reason is None:
                it.checks += checked
            else:
                it.failed += 1
                runner.miss(f"{self.name}: balkit {' '.join(argv)}", reason, proc)
            if os.path.exists(out):
                os.remove(out)
        return it


WORKLOADS = {w.name: w for w in (Sweep, DeepIndex, CliReports)}
