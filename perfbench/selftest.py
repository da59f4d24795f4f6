"""Self-test of the benchmark: one tiny-size run of each workload.

    python3 perfbench/selftest.py

For every workload it checks that
1. the untraced run prints exactly the end_to_end metrics of BENCHMARK.json,
   and the traced run exactly the per_layer ones, each with its unit;
2. in the traced run, the per-layer self times add up to the traced wall
   time, within the reported tracing overhead (or 2%, the timing noise of a
   single tiny run, if that is larger).  Interpreter start and exit are
   in bench.self_s, so a gap means a lost trace or a span left open;
3. a deliberately wrong term (run.py --fault, through the fake in child.py)
   shows up in `failed`, and makes the run incorrect.
It prints one line per check and exits 1 if any fails.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SELF_TIMES = ("bench.self_s", "cli.main_self_s", "cli.pool_wait_s", "quadfield.self_s",
              "convolutions.self_s", "sequences.self_s", "tailfloors.self_s",
              "identities.self_s", "genfunc.self_s")
NOISE_FLOOR = 0.02


def bench(workload: str, trace: int, *extra: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0

    def report(ok: bool, what: str) -> None:
        nonlocal failures
        failures += not ok
        print(("ok   " if ok else "FAIL ") + what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            res = bench(workload, trace)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            report(got == expected[trace] and res["correct"],
                   f"{workload} trace={trace}: metrics and units match BENCHMARK.json, run correct")
            if trace:
                m = {k: v["value"] for k, v in res["metrics"].items()}
                total, wall = sum(m[k] for k in SELF_TIMES), m["bench.traced_wall_s"]
                tolerance = max(m["trace_overhead_frac"], NOISE_FLOOR)
                report(abs(total - wall) <= tolerance * wall,
                       f"{workload}: self times sum to {total:.4f}s, traced wall {wall:.4f}s,"
                       f" tolerance {tolerance:.3f}")
        res = bench(workload, 0, "--fault")
        report(res["failed"] >= 1 and not res["correct"],
               f"{workload}: injected wrong term counted, failed={res['failed']}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
