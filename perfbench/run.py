"""Benchmark for balkit.

    python3 perfbench/run.py --workload {sweep,deep-index,cli-reports}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports balkit from ./src.  Every
workload is a closed loop of fresh interpreters (see workloads.py).  The run
repeats the workload while the next repetition fits in S seconds, and at
least once, with set-up samples between repetitions.  Child processes get
PYTHONPATH=src and PYTHONHASHSEED=0, without BALKIT_JOBS or any other PYTHON*
variable, and write their files to a temporary directory under
.perfbench_tmp/ that the run removes.

Every time reported is host-speed normalised.  On a shared 2-vCPU host
(Intel Xeon, Python 3.11) one CPU's speed was seen to change by up to 2x, in
phases of seconds to minutes, which moved 40-second run medians of raw wall
time by 20-30%.  So the run and its processes are pinned to one CPU (a
command given --jobs N > 1 gets every CPU, for its process pool), and a
process's time is its wall time times REF_NOMINAL_S over the mean time of
the reference loop below, sampled on that CPU just before and just after the
process.  No balkit code runs in the reference loop, so a change to balkit
moves the normalised times as it moves the wall times, while the host's
phases largely cancel.  The info line keeps the raw wall times too.

--trace 0 reports the end-to-end metrics, medians over the repetitions:
    wall_s          one workload run, interpreter starts included
    setup_s         a fresh interpreter importing balkit and building the CLI
                    parser, in its own process; samples are spread over the run
    peak_rss_mb     largest peak resident set of any process of a run
    checks          exact checks completed in one run
    request_p50_ms, request_p90_ms
                    latency of one request: a `verify-all` process (sweep), a
                    plan process (deep-index) or one command (cli-reports).
                    p90 is the highest quantile up to 0.9 that has 10
                    requests beyond it: about 0.9 for cli-reports; sweep and
                    deep-index have under 20 requests a run, so there it is
                    the median
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (see tracer.py), the field-tower
micro-timings, and trace_overhead_frac = traced / untraced wall time - 1.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it records the machine,
the sample counts, failed_frac and each miss; misses also go to stderr with
the tail of the failing process's stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

PY = sys.executable
CHILD = str(HERE / "child.py")
SETUP_PER_GAP = 3  # set-up samples before the first repetition and after each
SETUP_CODE = "import balkit.cli; balkit.cli.build_parser()"
IDENTITY_CHECKS = ("catalan", "odd_index_sum", "shifted_product", "addition", "combination", "gcd",
                   "prime_congruences", "mod_companion", "binomial_3pow", "binomial_plain",
                   "second_order_product")
LIBRARY_LAYERS = ("quadfield", "convolutions", "sequences", "tailfloors", "identities", "genfunc")
REF_UNITS = 20         # reference_unit calls in one speed sample
REF_NOMINAL_S = 0.032  # one speed sample on an unshared CPU (Intel Xeon, Python 3.11)
REF_REUSE_S = 0.5      # a speed sample is retaken only when older than this


def reference_unit() -> None:
    """Fixed exact arithmetic of the kind balkit does: Fraction products and
    sums and a big-integer recurrence."""
    a, b = Fraction(3, 7), Fraction(5, 11)
    x, y = 1, 0
    for i in range(400):
        x, y = 3 * x + 8 * y, x + 3 * y
        a = a * b + Fraction(i, 13)
        if a.denominator > 10 ** 60:
            a = Fraction(a.numerator % 1000, 7)


def speed_sample() -> tuple[float, float]:
    """(when, seconds) of REF_UNITS reference units on this CPU."""
    t = time.perf_counter()
    for _ in range(REF_UNITS):
        reference_unit()
    return t, time.perf_counter() - t


class Proc(NamedTuple):
    wall_s: float  # raw
    time_s: float  # host-speed normalised
    rss_mb: float
    rc: int
    err_path: str


class Runner:
    """Starts benchmark processes with a pinned environment and records misses."""

    def __init__(self, tmp: str, fault: bool):
        self.tmp = tmp
        self.fault = fault
        self.count = 0
        self.misses: list[dict] = []
        self.setup_times: list[float] = []  # normalised
        self.setup_walls: list[float] = []  # raw
        self.last_speed: tuple[float, float] | None = None
        self.all_cpus = os.sched_getaffinity(0)
        self.side_attempted = 0  # set-up samples and micro-timings
        self.side_failed = 0
        self.env = {k: v for k, v in os.environ.items()
                    if k != "BALKIT_JOBS" and not k.startswith("PYTHON")}
        self.env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")

    def path(self, suffix: str) -> str:
        self.count += 1
        return os.path.join(self.tmp, f"{self.count}{suffix}")

    def speed(self) -> tuple[float, float]:
        """The last speed sample, or a new one if that is older than
        REF_REUSE_S: short commands share samples, long ones get their own
        before and after."""
        if self.last_speed is None or time.perf_counter() - self.last_speed[0] > REF_REUSE_S:
            self.last_speed = speed_sample()
        return self.last_speed

    def spawn(self, argv: list[str], timeout: float, stdout: str | None = None,
              trace: str | None = None) -> Proc:
        """Run argv to completion; wall time from just before the fork to the
        reap, peak RSS from wait4 (the largest of the process and its reaped
        children), speed samples just before and after.  A command with
        --jobs N > 1 runs on every CPU.  On timeout the whole process group is
        killed."""
        err_path = self.path(".err")
        before = self.speed()
        pool = "--jobs" in argv and int(argv[argv.index("--jobs") + 1]) > 1
        widen = (lambda: os.sched_setaffinity(0, self.all_cpus)) if pool else None
        with open(err_path, "wb") as err, open(stdout or os.devnull, "wb") as out:
            t0 = time.perf_counter()
            if trace is not None:  # options of child.py, after its mode
                argv = argv[:3] + ["--trace", trace, "--t0", repr(t0)] + argv[3:]
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT,
                                    start_new_session=True, preexec_fn=widen)
            timer = threading.Timer(timeout, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        after = self.speed()
        proc.returncode = os.waitstatus_to_exitcode(status)
        normalised = wall * REF_NOMINAL_S / ((before[1] + after[1]) / 2)
        return Proc(wall, normalised, usage.ru_maxrss / 1024, proc.returncode, err_path)

    def child(self, args: list[str], traced: bool, timeout: float,
              fault_index: int | None = None, stdout: str | None = None):
        """perfbench/child.py with `args`, the first being the mode; returns
        (Proc, the trace summary path or None)."""
        opts = ["--fault-index", str(fault_index)] if self.fault and fault_index is not None else []
        trace = self.path(".trace.json") if traced else None
        argv = [PY, CHILD, args[0]] + opts + args[1:]
        return self.spawn(argv, timeout, stdout=stdout, trace=trace), trace

    def balkit(self, args: list[str], stdout: str | None, traced: bool, timeout: float,
               fault_index: int | None = None):
        """`balkit ARGS` as `python3 -m balkit.cli`, or through child.py when
        traced or when the run injects a fault."""
        if traced or self.fault:
            return self.child(["cli", "--"] + args, traced, timeout, fault_index, stdout)
        return self.spawn([PY, "-m", "balkit.cli"] + args, timeout, stdout=stdout), None

    def probe_setup(self) -> None:
        """One set-up sample: a fresh interpreter importing balkit and building
        the CLI parser.  Samples are spread over the run, between requests,
        so that their median sees the same machine as the workload."""
        proc = self.spawn([PY, "-c", SETUP_CODE], timeout=60)
        self.setup_times.append(proc.time_s)
        self.setup_walls.append(proc.wall_s)
        self.side_attempted += 1
        if proc.rc != 0:
            self.side_failed += 1
            self.miss("setup", f"exit {proc.rc}", proc)

    def miss(self, label: str, reason: str, proc: Proc) -> None:
        try:
            with open(proc.err_path, "rb") as fh:
                tail = fh.read()[-800:].decode("utf-8", "replace")
        except OSError:
            tail = ""
        self.misses.append({"what": label, "reason": reason, "rc": proc.rc, "stderr_tail": tail})


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def quantile(samples: list[float], q: float) -> float:
    """The q-quantile, interpolating between order statistics."""
    xs = sorted(samples)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    return xs[lo] + (xs[min(lo + 1, len(xs) - 1)] - xs[lo]) * (pos - lo)


def tail_quantile(samples: list[float]) -> float:
    """The 0.9-quantile, or the highest quantile that still has 10 samples
    beyond it when there are fewer than 100; never below the median."""
    return quantile(samples, max(0.5, min(0.9, 1 - 10 / len(samples))))


def machine(nproc: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu": cpu,
        "mem_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2 ** 30, 2),
    }


def layer_metrics(summaries: list[tuple[dict, float]]) -> dict[str, float]:
    """Per-layer metrics of one traced workload run, summed over its processes,
    from (trace summary, process wall time) pairs.  The root span runs from the
    spawn to the end of the traced work; the rest of the process's wall time,
    interpreter exit, is added to the bench layer."""
    inc, calls, self_s = defaultdict(float), defaultdict(int), defaultdict(float)
    values_terms = report_bytes = max_terms = 0
    for s, wall in summaries:
        self_s["bench"] += s["start"] + wall - s["end"]
        for k, v in s["inclusive"].items():
            inc[k] += v
        for k, v in s["calls"].items():
            calls[k] += v
        for k, v in s["layer_self"].items():
            self_s[k] += v
        values_terms += s["values_terms"]
        report_bytes += s["report_bytes"]
        max_terms = max(max_terms, s["max_terms"])
    field_ops = sum(n for k, n in calls.items() if k.startswith(("quadfield.QuadRat.", "quadfield.GaussQuad.")))
    certificates = calls["tailfloors.certify_floor"]
    m = {
        "quadfield.field_ops": field_ops,
        "quadfield.binet_pair_s": inc["quadfield.binet_pair"],
        "quadfield.certified_int_calls": calls["quadfield.certified_int"],
        **{f"convolutions.closed_form_s.{f}": inc[f"convolutions.closed_form_raw.{f}"] for f in "BCFL"},
        "convolutions.brute_conv_s": inc["convolutions.brute_conv"],
        "convolutions.closed_form_calls": calls["convolutions.closed_form_raw"],
        "sequences.term_s": inc["sequences.term"],
        "sequences.term_calls": calls["sequences.term"],
        "sequences.values_s": inc["sequences.values"],
        "sequences.values_terms": values_terms,
        "sequences.stream_s": inc["sequences.stream"],
        "sequences.pair_fast_s": inc["sequences.pair_fast"],
        "sequences.pair_mod_s": inc["sequences.pair_mod"],
        "tailfloors.closed_floor_s": inc["tailfloors.closed_floor"],
        "tailfloors.certify_floor_s": inc["tailfloors.certify_floor"],
        "tailfloors.certificates": certificates,
        "tailfloors.brackets_per_certificate":
            calls["tailfloors.refined_bracket"] / certificates if certificates else 0.0,
        "tailfloors.max_terms_used": max_terms,
        **{f"identities.check_s.{c}": inc[f"identities.check_{c}"] for c in IDENTITY_CHECKS},
        "identities.cases": sum(calls[f"identities.check_{c}"] for c in IDENTITY_CHECKS),
        "genfunc.gf_s": inc["genfunc.gf"],
        "genfunc.expand_s": inc["genfunc.expand"],
        "genfunc.series_mul_s": inc["genfunc.series_mul"],
        "cli.main_self_s": self_s["cli"],
        "cli.render_json_s": inc["cli.render_json"],
        "cli.report_mb": report_bytes / 1e6,
        "cli.pool_wait_s": self_s["pool"],
        "bench.self_s": self_s["bench"],
        **{f"{layer}.self_s": self_s[layer] for layer in LIBRARY_LAYERS},
    }
    return m


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
        fault: bool = False) -> tuple[dict, dict]:
    """One benchmark run; returns (result, info)."""
    base = ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=base)
    runner = Runner(tmp, fault)
    os.sched_setaffinity(0, {min(runner.all_cpus)})
    try:
        wl = WORKLOADS[workload](random.Random(seed), size)
        plain, traced = [], []
        durations = []
        deadline = time.perf_counter() + seconds
        for _ in range(SETUP_PER_GAP):
            runner.probe_setup()
        while True:
            t = time.perf_counter()
            plain.append(wl.iterate(runner, traced=False))
            if trace:
                traced.append(wl.iterate(runner, traced=True))
            for _ in range(SETUP_PER_GAP):
                runner.probe_setup()
            durations.append(time.perf_counter() - t)
            if time.perf_counter() + statistics.median(durations) > deadline:
                break
        latencies = [x for it in plain for x in it.latencies_s]
        if not trace:
            metrics = {
                "wall_s": (statistics.median(it.wall_s for it in plain), "s"),
                "setup_s": (statistics.median(runner.setup_times), "s"),
                "peak_rss_mb": (statistics.median(it.rss_mb for it in plain), "MB"),
                "checks": (statistics.median_low(it.checks for it in plain), "count"),
                "request_p50_ms": (quantile(latencies, 0.5) * 1e3, "ms"),
                "request_p90_ms": (tail_quantile(latencies) * 1e3, "ms"),
            }
        else:
            metrics = traced_metrics(runner, plain, traced)
        attempted = runner.side_attempted + sum(it.attempted for it in plain + traced)
        failed = runner.side_failed + sum(it.failed for it in plain + traced)
        info = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "size": size, "machine": machine(len(runner.all_cpus)),
            "samples": {"setup": len(runner.setup_walls), "runs": len(plain), "requests": len(latencies),
                        "traced_runs": len(traced)},
            "run_times_s": [it.wall_s for it in plain],
            "run_walls_s": [it.raw_wall_s for it in plain],
            "setup_times_s": runner.setup_times,
            "setup_walls_s": runner.setup_walls,
            "failed_frac": failed / attempted,
            "misses": runner.misses,
        }
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
        return result, info
    finally:
        os.sched_setaffinity(0, runner.all_cpus)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass


UNITS = {"_s": "s", "_ms": "ms", "_us": "us", "_mb": "MB", "_frac": "ratio"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix) or f"{suffix}." in name:
            return unit
    return "ratio" if name.endswith("per_certificate") else "count"


def traced_metrics(runner: Runner, plain: list, traced: list) -> dict:
    per_run = []
    for it in traced:
        summaries = []
        for path, wall in it.traces:
            try:
                with open(path, encoding="utf-8") as fh:
                    summaries.append((json.load(fh), wall))
            except (OSError, ValueError):
                pass  # the process died before writing; its miss is already counted
        per_run.append(layer_metrics(summaries))
    names = per_run[0].keys()
    metrics = {k: (statistics.median(m[k] for m in per_run), unit_of(k)) for k in names}
    # Raw, like the span times it is compared with; the overhead from the
    # normalised times, which cancel the host's phases.
    metrics["bench.traced_wall_s"] = (statistics.median(it.raw_wall_s for it in traced), "s")
    overhead = (statistics.median(it.wall_s for it in traced)
                / statistics.median(it.wall_s for it in plain) - 1)
    metrics["trace_overhead_frac"] = (overhead, "ratio")
    out = runner.path(".micro.json")
    proc, _ = runner.child(["micro", "--out", out], traced=False, timeout=120)
    runner.side_attempted += 1
    try:
        with open(out, encoding="utf-8") as fh:
            micro = json.load(fh)
    except (OSError, ValueError):
        runner.side_failed += 1
        runner.miss("micro", f"exit {proc.rc}", proc)
        micro = {}
    for k in ("quadfield.quadrat_mul_us", "quadfield.gaussquad_mul_us",
              "quadfield.gaussquad_pow_us", "quadfield.quadrat_pow_1e5_ms"):
        metrics[k] = (micro.get(k, 0.0), unit_of(k))
    return metrics


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="balkit benchmark (see the module docstring)")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small inputs, for perfbench/selftest.py")
    p.add_argument("--fault", action="store_true",
                   help="inject a deliberately wrong term, for perfbench/selftest.py")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "balkit" / "cli.py").is_file():
        print(f"perfbench: no balkit source at {ROOT / 'src' / 'balkit'}", file=sys.stderr)
        return 2
    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size, args.fault)
    for m in info["misses"]:
        print(f"perfbench miss: {m['what']}: {m['reason']} (exit {m['rc']})\n{m['stderr_tail']}",
              file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
