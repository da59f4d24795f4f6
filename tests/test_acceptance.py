"""Acceptance sweep: the seven exit criteria, each printed as one PASS/FAIL line.

Every comparison is exact (tolerance zero): equality of arbitrary-precision
integers or exact rationals.  The grids are the units of `balkit.verify`, the
same plan `balkit verify-all` runs.  Run with `pytest tests/test_acceptance.py
-v -s` to see the per-criterion lines and timings.
"""

from __future__ import annotations

import time

from balkit import (CancellationError, TailSpec, certified_int, certify_floor, closed_form_raw,
                    verify)

# The benchmark's `sweep` workload requires exactly these counts.
PLAN_COUNTS = [("kernel", 7253), ("identities", 29258), ("genfunc", 144),
               ("convolutions", 2460), ("tailfloors", 895)]


def _report(num: int, name: str, ok: bool, t0: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" {detail}" if detail else ""
    print(f"ACCEPTANCE {num} ({name}): {status}{extra} [{time.perf_counter() - t0:.1f}s]")


def _criterion(num: int, name: str, unit) -> None:
    t0 = time.perf_counter()
    checked, failed, witness, skipped = verify.run(unit())
    _report(num, name, not failed, t0, f"witness={witness}" if witness else f"{checked} checks")
    assert (checked, failed, witness, skipped) == (dict(PLAN_COUNTS)[unit.__name__], 0, None, False)


def test_plan_case_counts():
    counts = [(name, sum(1 for _ in cases)) for name, cases in verify.plan()]
    assert counts == PLAN_COUNTS
    assert sum(n for _, n in counts) == 40010


def test_criterion_1_convolution_certification():
    _criterion(1, "convolution closed = brute, k<=5, n<=40", verify.convolutions)


def test_criterion_2_rationality_certificates():
    # Every raw closed form on the plan's convolution grid must collapse to a
    # rational integer: certified_int raises on any sqrt(d), imaginary or
    # fractional residue.
    t0 = time.perf_counter()
    bad = []
    count = 0
    for _, _, (family, k, r, n) in verify.convolutions():
        count += 1
        try:
            certified_int(closed_form_raw(family, k, r, n))
        except CancellationError as exc:
            bad.append((family.key, k, r, n, str(exc)))
    _report(2, "sqrt(d)/imaginary/fractional residues all exactly zero", not bad, t0,
            f"bad={bad[:5]}" if bad else f"{count} closed forms")
    assert (count, bad) == (dict(PLAN_COUNTS)["convolutions"], [])


def test_criterion_3_tail_floor_certification():
    _criterion(3, "closed_floor = verified_floor within 16 terms, n<=25, l,a<=3",
               verify.tailfloors)


def test_criterion_4_spot_floor_values():
    t0 = time.perf_counter()
    spots = [
        (TailSpec("B", "plain", l=1), 2, 4),
        (TailSpec("B", "alt"), 2, 7),
        (TailSpec("B", "alt_sq"), 2, 37),
        (TailSpec("B", "alt_consec_prod"), 2, 216),
        (TailSpec("C", "plain", l=1), 1, 2),
        (TailSpec("G", "gf_plain", a=1), 4, 1),
    ]
    bad = [(spec, n, want) for spec, n, want in spots
           if certify_floor(spec, n).value != want]
    _report(4, "spot floors 4/7/37/216/2/1 from the bracketer", not bad, t0,
            str(bad) if bad else "")
    assert not bad


def test_criterion_5_identity_sweeps():
    _criterion(5, "identity sweeps green (gcd, primes<1e4, mod-C, binomials, "
                  "catalan, second-order)", verify.identities)


def test_criterion_6_generating_functions():
    _criterion(6, "gf expansions match terms (k<=6) and squared-gf matches "
                  "brute convolutions (n<=30)", verify.genfunc)


def test_criterion_7_kernel_self_consistency():
    _criterion(7, "fast doubling / closed form / Pell invariant agree", verify.kernel)
