"""End-to-end CLI tests: exit codes, text output, canonical JSON reports."""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from balkit.cli import main, render_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_seq_text(capsys):
    code, out, _ = run(capsys, "seq", "B", "--from", "0", "--to", "5")
    assert code == 0
    assert out.splitlines()[0] == "0 1 6 35 204 1189"


def test_seq_json_values_are_strings(capsys):
    code, out, _ = run(capsys, "seq", "C", "--from", "0", "--to", "2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert [it["value"] for it in report["items"]] == ["1", "3", "17"]
    assert [it["n"] for it in report["items"]] == [0, 1, 2]


def test_seq_invalid_range_exit_2(capsys):
    code, _, err = run(capsys, "seq", "B", "--from", "3", "--to", "1")
    assert code == 2
    assert "error" in err


def test_seq_gen_fibonacci(capsys):
    code, out, _ = run(capsys, "seq", "G", "--a", "2", "--from", "0", "--to", "5")
    assert code == 0
    assert out.splitlines()[0] == "0 1 2 5 12 29"


def test_seq_gen_fibonacci_records_a(capsys):
    code, out, _ = run(capsys, "seq", "G", "--a", "2", "--from", "-3", "--to", "3",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["params"] == {"family": "G", "a": 2, "from": -3, "to": 3}
    assert [it["value"] for it in report["items"]] == ["5", "-2", "1", "0", "1", "2", "5"]
    code, out, _ = run(capsys, "seq", "B", "--from", "0", "--to", "3", "--format", "json")
    assert "a" not in json.loads(out)["params"]


def unlimited_str(values) -> list[str]:
    # str of each int, past the 4300 digits that Python 3.11+ converts by default.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return [str(v) for v in values]
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def main_output(*argv) -> tuple[int, str, str]:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(["B", "C", "F", "L", "G1", "G2", "G3", "G4"]),
       st.integers(min_value=-22_000, max_value=22_000), st.integers(min_value=0, max_value=12))
@example("B", 5_650, 3)  # B(5650) has 4,308 digits
@example("F", -20_600, 0)  # one term, F(-20600) has 4,305 digits
@example("G4", -7_000, 2)
@example("B", -14_000, 1)  # seeds past 2^15 bits, built from their halves
@example("C", 20_000, 0)
def test_seq_report_values_are_the_linear_pass(name, start, span):
    # The report renders the terms in decimal, not via str(int): each value, in
    # JSON and in text, must be the string of the integer pass `values` makes.
    from balkit.sequences import family, values

    letter, a = name[0], int(name[1:] or 1)
    argv = ["seq", letter, "--from", str(start), "--to", str(start + span)]
    argv += ["--a", str(a)] if letter == "G" else []
    want = unlimited_str(values(family(letter, a), start, start + span))
    code, out, err = main_output(*argv, "--format", "json")
    assert (code, err) == (0, "")
    items = json.loads(out)["items"]
    assert [it["n"] for it in items] == list(range(start, start + span + 1))
    assert [it["value"] for it in items] == want
    code, out, err = main_output(*argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == " ".join(want)


def test_seq_empty_range_exit_2(capsys):
    code, out, err = run(capsys, "seq", "F", "--from", "3", "--to", "2")
    assert (code, out, err) == (2, "", "error: empty range: start 3 > stop 2\n")


def test_seq_rounding_is_an_error_not_a_wrong_digit(capsys, monkeypatch):
    # seq's decimal arithmetic is exact because its precision holds every term;
    # with 28 digits, B(38) and past would round, and the traps must end the run.
    from balkit import cli

    context = cli._EXACT.copy()
    context.prec = 28
    monkeypatch.setattr(cli, "_EXACT", context)
    code, out, err = run(capsys, "seq", "B", "--from", "0", "--to", "100")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [("seq", "B", "--a", "3", "--from", "0", "--to", "3"),
                                  ("tailfloor", "alt-B", "--n", "2", "--l", "3"),
                                  ("tailfloor", "plain-C", "--n", "2", "--a", "2"),
                                  ("identity", "gcd", "--max-prime", "7"),
                                  ("identity", "prime-congruence", "--max", "41")],
                         ids=" ".join)
def test_unused_parameter_exit_2(capsys, argv):
    # A parameter the command does not read is rejected, never silently recorded.
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_json_roundtrip_byte_identical(capsys):
    code, out, _ = run(capsys, "identity", "gcd", "--max", "12", "--format", "json")
    assert code == 0
    assert render_json(json.loads(out)) == out
    # An identity report lists only failing cases; the summary counts the whole grid.
    report = json.loads(out)
    assert report["items"] == []
    assert report["summary"] == {"checked": 144, "passed": 144, "failed": 0}


def test_output_file_matches_stdout_json(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "conv", "B", "--k", "2", "--r", "1", "--n", "1",
                       "--format", "json", "--output", str(path))
    assert code == 0
    assert path.read_text(encoding="utf-8") == out
    report = json.loads(out)
    assert report["items"][0]["brute"] == "70"
    assert report["items"][0]["closed"] == "70"
    assert report["items"][0]["ok"] is True


def test_gf_text(capsys):
    code, out, _ = run(capsys, "gf", "B", "--k", "1", "--r", "0", "--terms", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "(t) / (1 - 6*t + t^2)"
    assert lines[1] == "0 1 6 35 204"
    assert lines[2] == "match"


def test_gf_lucas_balancing(capsys):
    code, out, _ = run(capsys, "gf", "C", "--k", "1", "--r", "0", "--terms", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "(1 - 3*t) / (1 - 6*t + t^2)"
    assert lines[1] == "1 3 17"
    assert lines[2] == "match"


def test_gf_fibonacci_stride(capsys):
    code, out, _ = run(capsys, "gf", "F", "--k", "2", "--r", "1", "--terms", "4")
    assert code == 0
    assert out.splitlines()[1] == "1 2 5 13"


def test_conv_closed_only(capsys):
    code, out, _ = run(capsys, "conv", "F", "--k", "2", "--r", "0", "--n", "1",
                       "--method", "closed")
    assert code == 0
    assert out.splitlines()[0] == "closed 0"


def test_conv_usage_error(capsys):
    code, _, err = run(capsys, "conv", "B", "--k", "1", "--r", "1", "--n", "0")
    assert code == 2
    assert "k > r" in err


def test_identity_sweep_pass(capsys):
    code, out, _ = run(capsys, "identity", "gcd", "--max", "25")
    assert code == 0
    assert "passed 625/625" in out


def test_identity_prime_congruence(capsys):
    code, out, _ = run(capsys, "identity", "prime-congruence", "--max-prime", "100")
    assert code == 0
    assert "passed 24/24" in out  # odd primes below 100


def test_identity_unknown_exit_2(capsys):
    code, _, err = run(capsys, "identity", "bogus")
    assert code == 2
    assert "unknown identity" in err


def test_identity_registry_rejects_an_unknown_name():
    from balkit.verify import identity_sweep

    with pytest.raises(ValueError, match=r"unknown identity 'bogus'; known: addition, .*gcd"):
        identity_sweep("bogus", 40, 1000)


def test_identity_registry_rejects_an_empty_grid():
    from balkit.verify import identity_sweep

    with pytest.raises(ValueError, match="catalan has no case up to max=-1"):
        identity_sweep("catalan", -1, 1000)
    with pytest.raises(ValueError, match="prime-congruence has no case up to max_prime=3"):
        identity_sweep("prime-congruence", 40, 3)
    assert len(identity_sweep("prime-congruence", 0, 4)[1]) == 1  # the grid reads max_prime only


EMPTY_SWEEPS = [(("gcd", "--max", "0"), "gcd has no case up to max=0"),
                (("second-order-product", "--max", "3"),
                 "second-order-product has no case up to max=3"),
                (("prime-congruence", "--max-prime", "3"),
                 "prime-congruence has no case up to max_prime=3")]


@pytest.mark.parametrize("argv, message", EMPTY_SWEEPS,
                         ids=[" ".join(argv) for argv, _ in EMPTY_SWEEPS])
def test_identity_empty_sweep_exit_2(capsys, argv, message):
    # A sweep that checks nothing is a usage error, not "passed 0/0".
    code, out, err = run(capsys, "identity", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("bound", ["100000000000000000000", "9223372036854775807"])
def test_identity_sieve_too_large_exit_2(capsys, bound):
    # Past an index-sized integer (OverflowError, an ArithmeticError) and at
    # its top (MemoryError), the sieve fails before any memory is touched: a
    # usage error, never a failed check or a traceback.
    code, out, err = run(capsys, "identity", "prime-congruence", "--max-prime", bound)
    assert (code, out, err) == (2, "", f"error: cannot allocate a sieve up to {int(bound) - 1}\n")


def test_tailfloor_certify(capsys):
    code, out, _ = run(capsys, "tailfloor", "alt-B", "--n", "2", "--mode", "certify")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "closed   7"
    assert lines[1].startswith("verified 7")
    assert lines[2] == "match"


def test_tailfloor_reports_floors_past_4300_digits(capsys):
    # Python 3.11+ converts at most 4300 digits by default; main lifts that cap
    # for its own run only.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, "tailfloor", "plain-B", "--l", "3", "--n", "2000",
                             "--format", "json")
        if limit is not None:
            assert sys.get_int_max_str_digits() == 4300
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert (code, err) == (0, "")
    [item] = json.loads(out)["items"]
    assert item["verified"] == item["closed"] and len(item["closed"]) > 4300


def test_tailfloor_verified_mode(capsys):
    code, out, _ = run(capsys, "tailfloor", "plain-B", "--l", "1", "--n", "2",
                       "--mode", "verified")
    assert code == 0
    assert out.splitlines()[0].startswith("verified 4")


def test_tailfloor_gen_fibonacci(capsys):
    code, out, _ = run(capsys, "tailfloor", "gf-plain-G", "--a", "1", "--n", "4")
    assert code == 0
    assert "closed   1" in out


def test_tailfloor_below_threshold_exit_2(capsys):
    code, _, err = run(capsys, "tailfloor", "alt-B", "--n", "0")
    assert code == 2
    assert "n >= 1" in err


def test_tailfloor_unknown_spec_exit_2(capsys):
    code, _, err = run(capsys, "tailfloor", "alt-Q", "--n", "2")
    assert code == 2
    assert "unknown tail spec" in err


def test_verify_all_small_budget_skips(capsys):
    code, out, _ = run(capsys, "verify-all", "--budget", "0", "--format", "json")
    report = json.loads(out)
    assert code == 0
    assert any(it.get("skipped") for it in report["items"])


@pytest.mark.parametrize("budget", ["-0.5", "nan", "-inf", "inf", "1e400"])
def test_verify_all_budget_below_zero_exit_2(tmp_path, capsys, budget):
    path = tmp_path / "report.json"
    code, out, err = run(capsys, "verify-all", f"--budget={budget}", "--format", "json",
                         "--output", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not path.exists()


def test_verify_all_budget_stops_inside_a_unit(capsys, monkeypatch):
    from balkit import verify

    ticks = iter(range(10**6))
    real_run = verify.run
    # The clock reads 0 for the first 100 cases and then jumps past any deadline.
    monkeypatch.setattr(verify, "run", lambda cases, deadline: real_run(
        cases, deadline, clock=lambda: 0.0 if next(ticks) < 100 else float("inf")))
    code, out, _ = run(capsys, "verify-all", "--budget", "1000", "--format", "json")
    assert code == 0
    items = json.loads(out)["items"]
    assert items[0] == {**items[0], "unit": "kernel", "checked": 100, "failed": 0,
                        "skipped": True}
    assert [(it["checked"], it.get("skipped")) for it in items[1:]] == [(0, True)] * 4
    assert json.loads(out)["summary"] == {"checked": 100, "passed": 100, "failed": 0}


def test_verify_run_starts_no_case_past_the_deadline():
    # A unit's setup runs when its first case is pulled, so a spent budget must not pull one.
    from balkit import verify

    def unit():
        raise AssertionError("unit started past the deadline")
        yield

    assert verify.run(unit(), 0.0, clock=lambda: 1.0) == (0, 0, None, True)


def test_verify_run_renders_only_the_first_failure():
    # Every failure is counted, but only the witness is turned into decimal strings.
    from balkit import verify
    from balkit.identities import Verdict

    rendered = []

    class Side(int):
        def __str__(self):
            rendered.append(int(self))
            return super().__str__()

    cases = [("x", lambda i: Verdict(("eq", Side(i), 0)), (i,)) for i in range(1, 4)]
    assert verify.run(cases) == (3, 3, {"label": "x eq", "lhs": "1", "rhs": "0", "params": [1]}, False)
    assert rendered == [1]


@pytest.mark.parametrize("fault", ["cancellation", "wrong value"])
def test_verify_all_failure_reports_witness(tmp_path, capsys, monkeypatch, fault):
    from balkit import convolutions
    from balkit.quadfield import CancellationError

    real = convolutions.conv_closed

    def closed(seq, k, r, n):
        if (seq.key, k, r, n) != ("balancing", 3, 1, 7):
            return real(seq, k, r, n)
        if fault == "cancellation":
            raise CancellationError("irrational residue survived")
        return real(seq, k, r, n) + 1

    monkeypatch.setattr(convolutions, "conv_closed", closed)
    path = tmp_path / "report.json"
    code, out, err = run(capsys, "verify-all", "--format", "json", "--output", str(path))
    assert code == 1 and err == ""
    report = json.loads(out)
    assert path.read_text(encoding="utf-8") == out
    assert report["summary"] == {"checked": 40010, "passed": 40009, "failed": 1}
    unit = {it["unit"]: it for it in report["items"]}["convolutions"]
    witness = {"label": "conv", "params": ["balancing", 3, 1, 7]}
    if fault == "cancellation":
        witness["error"] = "irrational residue survived"
    else:
        value = real(convolutions.BALANCING, 3, 1, 7)
        witness.update(lhs=str(value + 1), rhs=str(value))
    assert unit == {**unit, "checked": 2460, "failed": 1, "witness": witness}
    assert all(sorted(it) == ["checked", "failed", "seconds", "unit"]
               for it in report["items"] if it is not unit)


def test_argparse_usage_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["seq", "Q", "--from", "0", "--to", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nope"])
    assert exc.value.code == 2


def test_identity_sweep_with_worker_pool(capsys, monkeypatch):
    # Grid of 900 cases crosses the pool threshold, so this drives the
    # multiprocess path end to end.  The pool class is read through the module,
    # so a replacement bound to balkit.cli.ProcessPoolExecutor is the one used.
    from balkit import cli

    entered = []

    class RecordingPool(cli.ProcessPoolExecutor):
        def __enter__(self):
            entered.append(self)
            return super().__enter__()

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    code, out, _ = run(capsys, "identity", "gcd", "--max", "30", "--jobs", "2")
    assert code == 0
    assert "passed 900/900" in out
    assert len(entered) == 1
    reports = []
    for jobs in ("2", "1"):
        code, out, _ = run(capsys, "identity", "gcd", "--max", "30", "--jobs", jobs,
                           "--format", "json")
        assert code == 0
        report = json.loads(out)
        del report["wall_time_s"]
        reports.append(report)
    assert len(entered) == 2
    assert reports[0] == reports[1]


def test_identity_arithmetic_failure_exit_1(tmp_path, capsys, monkeypatch):
    # 256 cases reach the pool threshold, so --jobs 2 runs the checks in workers.
    import math
    import multiprocessing

    from balkit import identities

    real = identities.B

    def B(n):
        if n == 7:
            raise ArithmeticError("injected at B(7)")
        return real(n)

    monkeypatch.setattr(identities, "B", B)
    reports = []
    for jobs in ("1", "2"):
        if jobs == "2" and multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched B reaches pool workers only through fork")
        path = tmp_path / f"report-{jobs}.json"
        code, out, err = run(capsys, "identity", "gcd", "--max", "16", "--jobs", jobs,
                             "--format", "json", "--output", str(path))
        assert code == 1 and err == ""
        assert path.read_text(encoding="utf-8") == out
        report = json.loads(out)
        assert report["summary"] == {"checked": 256, "passed": 225, "failed": 31}
        failing = [it for it in report["items"] if not it["ok"]]
        assert [it["params"] for it in failing] == [
            [m, n] for m in range(1, 17) for n in range(1, 17) if 7 in (m, n, math.gcd(m, n))]
        assert all(it == {"params": it["params"], "ok": False, "error": "injected at B(7)"}
                   for it in failing)
        assert report["items"] == failing
        del report["wall_time_s"]
        reports.append(report)
    assert reports[0] == reports[1]


def test_identity_is_serial_unless_jobs_asks(capsys, monkeypatch):
    # Neither the CPU count nor BALKIT_JOBS starts the pool; only --jobs N > 1 does.
    from balkit import cli

    entered = []

    class RecordingPool(cli.ProcessPoolExecutor):
        def __enter__(self):
            entered.append(self)
            return super().__enter__()

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.delenv("BALKIT_JOBS", raising=False)
    code, out, _ = run(capsys, "identity", "gcd", "--max", "30")
    assert code == 0 and "passed 900/900" in out
    monkeypatch.setenv("BALKIT_JOBS", "2")
    code, out, _ = run(capsys, "identity", "gcd", "--max", "30")
    assert code == 0 and "passed 900/900" in out
    assert entered == []


@pytest.mark.parametrize("argv", [("seq", "B", "--from", "0", "--to", "3"),
                                  ("gf", "B", "--k", "1", "--r", "0", "--terms", "3"),
                                  ("conv", "B", "--k", "2", "--r", "1", "--n", "3"),
                                  ("tailfloor", "alt-B", "--n", "2"),
                                  ("verify-all", "--budget", "0"),
                                  ("identity", "gcd", "--max", "3")],
                         ids=" ".join)
def test_jobs_only_where_read(tmp_path, capsys, argv):
    # Only identity reads --jobs, and only N >= 1; --jobs 1 is valid everywhere.
    path = tmp_path / "report.json"
    for jobs in ("0", "-1") if argv[0] == "identity" else ("2",):
        code, out, err = run(capsys, *argv, "--jobs", jobs, "--output", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not path.exists()
    code, _, err = run(capsys, *argv, "--jobs", "1", "--output", str(path))
    assert (code, err) == (0, "") and path.exists()


def test_unwritable_output_exit_2(tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "seq", "B", "--from", "0", "--to", "3", "--output", str(path))
    assert code == 2
    assert out.splitlines()[0] == "0 1 6 35"
    assert err.startswith(f"error: cannot write report to {path}: ")
    assert "Traceback" not in err


# The balkit modules each command loads, and whether it loads fractions and decimal.
COMMAND_IMPORTS = [
    ((), {"sequences"}, False, False),
    (("seq", "B", "--from", "0", "--to", "30"), {"sequences"}, False, True),
    (("gf", "B", "--k", "3", "--r", "1"), {"sequences", "genfunc"}, False, False),
    (("tailfloor", "alt-even-sq-C", "--n", "20"), {"sequences", "tailfloors"}, False, False),
    (("conv", "B", "--k", "3", "--r", "1", "--n", "10"),
     {"sequences", "quadfield", "convolutions"}, True, True),
    (("identity", "gcd", "--max", "5"), {"sequences", "identities", "verify"}, False, False),
    (("identity", "prime-congruence", "--max-prime", "50"),
     {"sequences", "identities", "verify"}, False, False),
]


def test_cli_import_skips_pool_and_dataclasses():
    # Each balkit command is a fresh process, so a module loaded at start-up costs
    # every command, and each command loads only the layers it runs.
    import balkit

    src = os.path.dirname(os.path.dirname(balkit.__file__))
    for argv, layers, fractions, decimal in COMMAND_IMPORTS:
        probe = ("import io, sys, balkit.cli\n"
                 "balkit.cli.build_parser()\n"
                 f"argv = {list(argv)!r}\n"
                 "sys.stdout = io.StringIO()\n"
                 "code = balkit.cli.main(argv) if argv else 0\n"
                 "sys.stdout = sys.__stdout__\n"
                 "print(code, *sorted(sys.modules))\n")
        code, *out = subprocess.run([sys.executable, "-c", probe],
                                    env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                                    text=True, check=True).stdout.split()
        assert code == "0", argv
        assert {m for m in out if m.split(".")[0] == "balkit"} == \
            {"balkit", "balkit.cli"} | {f"balkit.{layer}" for layer in layers}, argv
        assert ("fractions" in out, "decimal" in out) == (fractions, decimal), argv
        heavy = {"concurrent.futures.process", "multiprocessing", "dataclasses", "inspect"}
        assert heavy.isdisjoint(out), argv


def test_seq_json_memory_stays_near_the_report(tmp_path):
    # The text line is as large as the JSON report, so JSON mode must not build
    # it: the traced peak was 4.3x the report with it and is 3.35x without.
    import balkit

    src = os.path.dirname(os.path.dirname(balkit.__file__))
    report = tmp_path / "report.json"
    probe = (
        "import sys, tracemalloc\n"
        "from balkit.cli import main\n"
        f"sys.stdout = open({str(report)!r}, 'w')\n"
        "tracemalloc.start()\n"
        "code = main(['seq', 'B', '--from', '0', '--to', '5000', '--format', 'json'])\n"
        "print(code, tracemalloc.get_traced_memory()[1], file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    code, peak = map(int, proc.stderr.split())
    assert code == 0 and report.stat().st_size > 9e6
    assert peak < 3.8 * report.stat().st_size, (peak, report.stat().st_size)


def test_verify_all_needs_no_test_dependencies():
    # The test extra (sympy, hypothesis, pytest) is never a runtime import: the
    # plan must pass where importing any of them fails, as in a bare install.
    import balkit

    src = os.path.dirname(os.path.dirname(balkit.__file__))
    probe = ("import sys\n"
             "sys.modules.update(sympy=None, hypothesis=None, pytest=None)\n"
             "from balkit.cli import main\n"
             "sys.exit(main(['verify-all', '--format', 'json']))\n")
    proc = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["summary"] == {"checked": 40010, "passed": 40010, "failed": 0}


def test_cancellation_failure_exit_1(tmp_path, capsys, monkeypatch):
    from balkit import convolutions
    from balkit.quadfield import QuadRat

    monkeypatch.setattr(convolutions, "closed_form_raw", lambda *a: QuadRat.of(1, 1, 2))
    path = tmp_path / "report.json"
    code, out, err = run(capsys, "conv", "B", "--k", "2", "--r", "1", "--n", "3",
                         "--format", "json", "--output", str(path))
    assert code == 1 and err == ""
    report = json.loads(out)
    assert path.read_text(encoding="utf-8") == out
    assert report["summary"] == {"checked": 1, "passed": 0, "failed": 1}
    [item] = report["items"]
    assert item["brute"] == str(convolutions.brute_conv(convolutions.BALANCING, 2, 1, 3))
    assert "closed" not in item and "ok" not in item
    assert "residue" in item["error"]


def test_expand_arithmetic_failure_exit_1(tmp_path, capsys, monkeypatch):
    from balkit import genfunc

    def broken(g, count):
        raise ArithmeticError("non-integer series coefficient at t^0: 1/2")

    monkeypatch.setattr(genfunc, "expand", broken)
    path = tmp_path / "report.json"
    code, out, err = run(capsys, "gf", "B", "--k", "1", "--r", "0", "--terms", "5",
                         "--format", "json", "--output", str(path))
    assert code == 1 and err == ""
    report = json.loads(out)
    assert path.read_text(encoding="utf-8") == out
    assert report["summary"] == {"checked": 1, "passed": 0, "failed": 1}
    assert report["items"] == [{"error": "non-integer series coefficient at t^0: 1/2"}]
    code, out, err = run(capsys, "gf", "B", "--k", "1", "--r", "0", "--terms", "5")
    assert code == 1 and err == ""
    assert "error: non-integer series coefficient at t^0: 1/2" in out.splitlines()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_arithmetic_failure_outside_an_item_exit_1(fmt, tmp_path, capsys, monkeypatch):
    # An ArithmeticError that no command turns into a report item reaches main:
    # exit 1 with one error line and no report at all.
    from balkit import genfunc

    def broken(family, k, r):
        raise ArithmeticError("injected in gf")

    monkeypatch.setattr(genfunc, "gf", broken)
    path = tmp_path / "report.json"
    code, out, err = run(capsys, "gf", "B", "--k", "1", "--r", "0", "--format", fmt,
                         "--output", str(path))
    assert (code, out, err) == (1, "", "error: injected in gf\n")
    assert not path.exists()


@pytest.mark.parametrize("key", ["error", "undecided"])
def test_tailfloor_arithmetic_failure_exit_1(key, tmp_path, capsys, monkeypatch):
    from balkit import tailfloors

    def broken(spec, n, **kwargs):
        if key == "undecided":
            raise tailfloors.UndecidedIntervalError("budget of 64 terms exhausted")
        raise ArithmeticError("inconsistent enclosures")

    monkeypatch.setattr(tailfloors, "certify_floor", broken)
    path = tmp_path / "report.json"
    code, out, err = run(capsys, "tailfloor", "alt-B", "--n", "3",
                         "--format", "json", "--output", str(path))
    assert code == 1 and err == ""
    report = json.loads(out)
    assert path.read_text(encoding="utf-8") == out
    assert report["summary"] == {"checked": 1, "passed": 0, "failed": 1}
    [item] = report["items"]
    message = item.pop(key)
    assert item["closed"] == str(tailfloors.closed_floor(tailfloors.TailSpec("B", "alt"), 3))
    assert not {"verified", "ok", "error", "undecided"} & set(item)
    code, out, err = run(capsys, "tailfloor", "alt-B", "--n", "3")
    assert code == 1 and err == ""
    assert f"{key}: {message}" in out.splitlines()


def test_tailfloor_ratio_interval_reaching_1_exit_1(capsys, monkeypatch):
    # A growth bound of 1 leaves no ratio interval below 1: the certificate's
    # guard is a reported error item, with the closed floor, and no traceback.
    from balkit import tailfloors

    monkeypatch.setattr(tailfloors, "_growth", lambda seq: (1, 1))
    code, out, err = run(capsys, "tailfloor", "plain-B", "--n", "5", "--format", "json")
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["summary"] == {"checked": 1, "passed": 0, "failed": 1}
    [item] = report["items"]
    assert item["error"].startswith("ratio interval reaches 1") and "verified" not in item
    assert item["closed"] == str(tailfloors.closed_floor(tailfloors.TailSpec("B", "plain"), 5))


# The text of every conv and tailfloor mode, up to the wall time, with each
# route's value padded to the longer of the two route names.
ROUTE_TEXT = [
    (("conv", "B", "--k", "2", "--r", "1", "--n", "3", "--method", "brute"), None,
     "brute  164012\nchecked 1  passed 1  failed 0"),
    (("conv", "B", "--k", "2", "--r", "1", "--n", "3", "--method", "closed"), None,
     "closed 164012\nchecked 1  passed 1  failed 0"),
    (("conv", "B", "--k", "2", "--r", "1", "--n", "3", "--method", "both"), None,
     "brute  164012\nclosed 164012\nmatch\nchecked 1  passed 1  failed 0"),
    (("conv", "B", "--k", "2", "--r", "1", "--n", "3"), "brute off by one",
     "brute  164013\nclosed 164012\nMISMATCH\nchecked 1  passed 0  failed 1"),
    (("conv", "B", "--k", "2", "--r", "1", "--n", "3"), "residue",
     "brute  164012\nerror: sqrt(2) residue: 1 + 1*sqrt(2)\nchecked 1  passed 0  failed 1"),
    (("tailfloor", "alt-B", "--n", "3", "--mode", "closed"), None,
     "closed   -42\nchecked 1  passed 1  failed 0"),
    (("tailfloor", "alt-B", "--n", "3", "--mode", "verified"), None,
     "verified -42  (2 terms)\nchecked 1  passed 1  failed 0"),
    (("tailfloor", "alt-B", "--n", "3", "--mode", "certify"), None,
     "closed   -42\nverified -42  (2 terms)\nmatch\nchecked 1  passed 1  failed 0"),
    (("tailfloor", "alt-B", "--n", "3"), "undecided",
     "closed   -42\nundecided: B/alt n=3: floor undecided within 64 terms\n"
     "checked 1  passed 0  failed 1"),
]


@pytest.mark.parametrize("argv, fault, text", ROUTE_TEXT,
                         ids=[" ".join(argv) + (f" ({fault})" if fault else "")
                              for argv, fault, _ in ROUTE_TEXT])
def test_route_text(capsys, monkeypatch, argv, fault, text):
    from balkit import convolutions, tailfloors
    from balkit.quadfield import QuadRat

    if fault == "brute off by one":
        brute = convolutions.brute_conv
        monkeypatch.setattr(convolutions, "brute_conv", lambda *a: brute(*a) + 1)
    elif fault == "residue":
        monkeypatch.setattr(convolutions, "closed_form_raw", lambda *a: QuadRat.of(1, 1, 2))
    elif fault == "undecided":  # 1/S stays within [4.1, 6] however many terms are summed
        monkeypatch.setattr(tailfloors, "_enclose", lambda spec, n, terms, scale=None: (1, 6, 10, 41))
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0 if fault is None else 1, "")
    assert re.fullmatch(re.escape(text) + r"  \(\d+\.\d{3}s\)\n", out), out


def test_json_report_rendered_once(tmp_path, capsys, monkeypatch):
    from balkit import cli

    calls = []
    real = cli.render_json
    monkeypatch.setattr(cli, "render_json", lambda report: calls.append(1) or real(report))
    code, out, _ = run(capsys, "seq", "B", "--from", "0", "--to", "3", "--format", "json",
                       "--output", str(tmp_path / "report.json"))
    assert code == 0
    assert len(calls) == 1
    assert (tmp_path / "report.json").read_text(encoding="utf-8") == out


GOLDEN_REPORTS = [
    (("conv", "B", "--k", "5", "--r", "2", "--n", "40"),
     "b580b6382c63bfbaa448b389d081cc2fae069ddfd4bb2fa0b30bd4140f372cc2"),
    (("conv", "C", "--k", "4", "--r", "1", "--n", "40"),
     "b3b709be879b5f2a589ec2151ace10e5ea8a795aa8e350dd8073ff229a229b07"),
    (("conv", "F", "--k", "3", "--r", "0", "--n", "40"),
     "5839605e2eb537939db607ba11db6b0f13c5461f39386ae5d0876b68d95e64b4"),
    (("conv", "L", "--k", "2", "--r", "0", "--n", "40"),
     "7b9820d890f51bcdcf3b8c0a7551a7e92657e78eaa34aa027d8214b29202072a"),
    (("seq", "B", "--from", "-20", "--to", "300"),
     "0ff4034ebd1bb3d531315facf9eef04def1ab9e350a0bf5eb66fba8dee127616"),
    (("tailfloor", "alt-even-sq-C", "--n", "200"),
     "e0b6e985fdba0caf4db8c5662c14ab829a7c82b089041db77ca4fc93ef487ebb"),
    (("gf", "B", "--k", "3", "--r", "1", "--terms", "30"),
     "ae0682b1d730e67acf13da3d968b7a60c8b4c3a96373d3f4ef27aa4901e79f9f"),
    (("gf", "C", "--k", "4", "--r", "1", "--terms", "30"),
     "3e13557dbf5315aa5982f96c8c2fceec8da98f5a222ac9663f755fd61353dc78"),
    (("gf", "F", "--k", "5", "--r", "2", "--terms", "30"),
     "51ba7eba6b395596e3387bb96a1615d86ffc5c78bb2ee1fd69f1b8b1a711a7bb"),
    (("gf", "L", "--k", "3", "--r", "2", "--terms", "30"),
     "f5a0d2bc89e56960a376289a1e3f7ee6f8548b91c7f453786a6ededfd695b23f"),
    (("tailfloor", "alt-evenprod-C", "--n", "60"),
     "720a89369c1d8e1443da60da3d321e8db478ed32b2cdbc4ef52d770390fcdedb"),
    (("tailfloor", "alt-consec-prod-C", "--n", "61"),
     "b29e345272b586f9d17638610cff4592bd3a8d624e3fbcc757d9d3ca6036270e"),
    (("tailfloor", "plain-B", "--n", "40", "--l", "3"),
     "316fdb16413e82b6bff4975725087831bed3b2588098bf3792c11ba15febc782"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_REPORTS,
                         ids=[" ".join(argv) for argv, _ in GOLDEN_REPORTS])
def test_report_matches_golden_digest(capsys, argv, digest):
    # Reports must stay byte-identical apart from wall times, so a speed-up cannot change a result.
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    report = json.loads(out)
    del report["wall_time_s"]
    assert hashlib.sha256(render_json(report).encode("utf-8")).hexdigest() == digest
