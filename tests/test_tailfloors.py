"""Reciprocal-tail floor tests: closed forms, rigorous brackets, certification."""

from __future__ import annotations

import hashlib
import math
import pickle
from fractions import Fraction

import pytest

from balkit import (
    SHAPES,
    TailSpec,
    UndecidedIntervalError,
    bracket_tail,
    certify_floor,
    closed_floor,
    gen_fibonacci,
    refined_bracket,
    term,
    threshold,
    values,
    verified_floor,
)
from balkit import BALANCING, LUCAS_BALANCING
from balkit import tailfloors, verify

B_SHAPE_KEYS = [s for s in SHAPES if not s.startswith("gf_")]
G_SHAPE_KEYS = [s for s in SHAPES if s.startswith("gf_")]


def all_specs(lmax=1, amax=1):
    for fam in ("B", "C"):
        for shape in B_SHAPE_KEYS:
            for l in range(1, (lmax if shape == "plain" else 1) + 1):
                yield TailSpec(fam, shape, l=l)
    for a in range(1, amax + 1):
        for shape in G_SHAPE_KEYS:
            yield TailSpec("G", shape, a=a)


SPOT_CASES = [
    (TailSpec("B", "plain", l=1), 2, 4),
    (TailSpec("B", "alt"), 2, 7),
    (TailSpec("B", "alt"), 3, -42),
    (TailSpec("C", "plain", l=1), 1, 2),
    (TailSpec("B", "alt_sq"), 2, 37),
    (TailSpec("G", "gf_plain", a=1), 4, 1),
    (TailSpec("B", "plain", l=1), 1, 0),
    (TailSpec("B", "alt_consec_prod"), 2, 216),
    (TailSpec("C", "alt"), 3, -116),
    (TailSpec("G", "gf_sq", a=1), 3, 2),
]


@pytest.mark.parametrize("spec, n, expected", SPOT_CASES)
def test_spot_floors_closed_and_verified(spec, n, expected):
    assert closed_floor(spec, n) == expected
    assert verified_floor(spec, n) == expected


def local_alternating_floor(terms):
    """Independent oracle for alternating tails: consecutive exact partial
    sums bracket the limit; take enough terms that both reciprocal floors agree."""
    import math

    p = Fraction(0)
    partials = []
    for t in terms:
        p += t
        partials.append(p)
    lo, hi = min(partials[-2:]), max(partials[-2:])
    flo, fhi = math.floor(1 / hi), math.floor(1 / lo)
    assert flo == fhi, "oracle needs more terms"
    return flo


def test_corrected_companion_floors_against_local_oracle():
    # The three C shapes whose floors differ from the naive B analogy.
    cs = values(LUCAS_BALANCING, 0, 140)

    terms = [Fraction((-1) ** k, cs[k] * cs[k + 1]) for k in range(1, 30)]
    assert local_alternating_floor(terms) == -53
    assert closed_floor(TailSpec("C", "alt_consec_prod"), 1) == -53
    assert verified_floor(TailSpec("C", "alt_consec_prod"), 1) == -53

    terms = [Fraction((-1) ** k, cs[2 * k - 1] * cs[2 * k + 1]) for k in range(1, 25)]
    assert local_alternating_floor(terms) == -298
    assert closed_floor(TailSpec("C", "alt_oddprod"), 1) == -298
    assert verified_floor(TailSpec("C", "alt_oddprod"), 1) == -298

    terms = [Fraction((-1) ** k, cs[2 * k] * cs[2 * k + 2]) for k in range(1, 25)]
    assert local_alternating_floor(terms) == -9818
    assert closed_floor(TailSpec("C", "alt_evenprod"), 1) == -9818
    assert verified_floor(TailSpec("C", "alt_evenprod"), 1) == -9818

    terms = [Fraction((-1) ** k, cs[k] * cs[k + 1]) for k in range(2, 30)]
    assert local_alternating_floor(terms) == 1732
    assert closed_floor(TailSpec("C", "alt_consec_prod"), 2) == 1732


def test_spot_floors_against_local_oracle():
    bs = values(BALANCING, 0, 80)
    terms = [Fraction((-1) ** k, bs[k]) for k in range(2, 25)]
    assert local_alternating_floor(terms) == 7
    terms = [Fraction((-1) ** k, bs[k] ** 2) for k in range(2, 25)]
    assert local_alternating_floor(terms) == 37


def test_bracket_alternating_is_consecutive_partials():
    spec = TailSpec("B", "alt")
    bs = values(BALANCING, 0, 10)
    p3 = Fraction(1, bs[2]) - Fraction(1, bs[3]) + Fraction(1, bs[4])
    p4 = p3 - Fraction(1, bs[5])
    got = bracket_tail(spec, 2, 4)
    assert (got.lo, got.hi) == (min(p3, p4), max(p3, p4))


def test_bracket_plain_width_example():
    got = bracket_tail(TailSpec("B", "plain", l=1), 2, 6)
    assert got.width < Fraction(1, 10 ** 4)
    assert got.lo > 0


def test_bracket_contains_deep_refined_midpoint():
    # Soundness probe: a much deeper certified enclosure sits inside.
    for spec in all_specs():
        n = threshold(spec) + 1
        deep = refined_bracket(spec, n, 24)
        mid = (deep.lo + deep.hi) / 2
        for terms in (2, 4, 8):
            b = bracket_tail(spec, n, terms)
            assert b.lo <= mid <= b.hi, (spec, terms)
            r = refined_bracket(spec, n, terms)
            assert r.lo <= mid <= r.hi, (spec, terms)
            assert b.lo <= r.lo <= r.hi <= b.hi, (spec, terms)


def test_monotone_refinement():
    for spec in all_specs():
        n = threshold(spec)
        prev = bracket_tail(spec, n, 2)
        prev_r = refined_bracket(spec, n, 2)
        for terms in (4, 8, 16):
            cur = bracket_tail(spec, n, terms)
            assert prev.lo <= cur.lo and cur.hi <= prev.hi, (spec, terms)
            cur_r = refined_bracket(spec, n, terms)
            assert prev_r.lo <= cur_r.lo and cur_r.hi <= prev_r.hi, (spec, terms)
            prev, prev_r = cur, cur_r


def test_alternating_tail_sign():
    for spec in all_specs():
        if not SHAPES[spec.shape].alternating:
            continue
        base = threshold(spec)
        for n in (base, base + 1):
            b = bracket_tail(spec, n, 4)
            if n % 2 == 0:
                assert b.lo > 0, (spec, n)
            else:
                assert b.hi < 0, (spec, n)


def test_growth_lemmas():
    bs = values(BALANCING, 0, 502)
    cs = values(LUCAS_BALANCING, 0, 502)
    for m in range(1, 501):
        assert bs[m + 1] >= 5 * bs[m]
        assert cs[m + 1] >= 5 * cs[m]
    for a in (1, 2, 3):
        gs = values(gen_fibonacci(a), 0, 502)
        for m in range(1, 501):
            assert gs[m + 1] >= a * gs[m]
        # sharper per-step bound used by the brackets, valid from index 2
        for m in range(2, 501):
            assert (a + 1) * gs[m + 1] >= (a * a + a + 1) * gs[m]


def test_cross_identity_constants():
    # S(m-1)S(m+1) - S(m)^2: the drift terms behind the ratio intervals.
    bs = values(BALANCING, 0, 202)
    cs = values(LUCAS_BALANCING, 0, 202)
    for m in range(1, 200):
        assert bs[m - 1] * bs[m + 1] - bs[m] ** 2 == -1
        assert cs[m - 1] * cs[m + 1] - cs[m] ** 2 == 8
    for a in (1, 2, 3):
        gs = values(gen_fibonacci(a), 0, 202)
        for m in range(1, 200):
            assert gs[m - 1] * gs[m + 1] - gs[m] ** 2 == (-1) ** m


def test_certification_smoke_sweep():
    for spec in all_specs(lmax=2, amax=2):
        for n in range(threshold(spec), 13):
            cert = certify_floor(spec, n)
            assert cert.value == closed_floor(spec, n), (spec, n)
            assert cert.terms <= 16
            assert cert.interval.lo <= cert.interval.hi


def test_certified_floor_negative_tails():
    assert verified_floor(TailSpec("C", "alt"), 3) == -(term(LUCAS_BALANCING, 3)
                                                       + term(LUCAS_BALANCING, 2))
    assert verified_floor(TailSpec("B", "alt_consec_prod"), 2) == 216


def test_threshold_errors():
    cases = [
        (TailSpec("B", "alt"), 0),
        (TailSpec("B", "alt_odd_sq"), 1),
        (TailSpec("G", "gf_odd_idx", a=2), 1),
        (TailSpec("B", "plain", l=2), 0),
    ]
    for spec, n in cases:
        with pytest.raises(ValueError):
            closed_floor(spec, n)
        with pytest.raises(ValueError):
            verified_floor(spec, n)
        with pytest.raises(ValueError):
            bracket_tail(spec, n, 4)


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        TailSpec("X", "alt")
    with pytest.raises(ValueError):
        TailSpec("B", "nope")
    with pytest.raises(ValueError):
        TailSpec("B", "gf_plain")
    with pytest.raises(ValueError):
        TailSpec("G", "alt")
    with pytest.raises(ValueError):
        TailSpec("B", "plain", l=0)
    with pytest.raises(ValueError):
        TailSpec("G", "gf_sq", a=0)
    # l is read only by the plain shape and a only by the G family.
    with pytest.raises(ValueError, match="only the plain shape"):
        TailSpec("B", "alt", l=3)
    with pytest.raises(ValueError, match="only the plain shape"):
        TailSpec("G", "gf_sq", l=2, a=2)
    with pytest.raises(ValueError, match="takes no parameter a"):
        TailSpec("C", "plain", l=2, a=2)
    with pytest.raises(ValueError, match="takes no parameter a"):
        TailSpec("B", "alt", a=3)
    with pytest.raises(ValueError):
        bracket_tail(TailSpec("B", "alt"), 2, 0)


def test_spec_and_certificate_are_immutable_values():
    spec = TailSpec("B", "plain")
    assert (spec.l, spec.a) == (1, 1)
    assert spec == TailSpec("B", "plain", l=1, a=1)
    assert hash(spec) == hash(TailSpec("B", "plain", 1, 1))
    cert = certify_floor(spec, 3)
    for value in (spec, cert):
        assert pickle.loads(pickle.dumps(value)) == value
    with pytest.raises(AttributeError):
        spec.l = 2
    with pytest.raises(AttributeError):
        cert.value = 0
    again = certify_floor(TailSpec("B", "plain"), 3)
    assert cert == again and hash(cert) == hash(again)


def test_undecided_budget():
    with pytest.raises(UndecidedIntervalError):
        verified_floor(TailSpec("B", "alt"), 2, max_terms=1)


def stub_rounds(monkeypatch, rounds):
    """Make _enclose return rounds[terms], (lo_num, lo_den, hi_num, hi_den); record its calls."""
    calls = []
    monkeypatch.setattr(tailfloors, "_enclose",
                        lambda spec, n, terms: calls.append(terms) or rounds[terms])
    return calls


def test_certificate_intersects_rounds_until_decided(monkeypatch):
    # Every real certificate decides at 2 terms, so stubbed enclosures drive the later rounds.
    # 1/S spans [4.1, 6] after round one and [3, 4.9] after round two: only their
    # intersection [4.1, 4.9] pins the floor at 4.
    calls = stub_rounds(monkeypatch, {2: (1, 6, 10, 41), 4: (10, 49, 1, 3)})
    cert = certify_floor(TailSpec("B", "alt"), 3)
    assert calls == [2, 4]
    assert (cert.value, cert.terms, cert.ends) == (4, 4, (10, 49, 10, 41))
    with pytest.raises(UndecidedIntervalError):
        certify_floor(TailSpec("B", "alt"), 3, max_terms=2)


def test_disjoint_rounds_raise(monkeypatch):
    stub_rounds(monkeypatch, {2: (1, 6, 10, 41), 4: (1, 2, 1, 1)})
    with pytest.raises(ArithmeticError, match="inconsistent enclosures") as info:
        certify_floor(TailSpec("B", "alt"), 3)
    assert not isinstance(info.value, UndecidedIntervalError)


# -- golden certificates ---------------------------------------------------------
#
# SHA-256 of the newline-joined lines "family shape l a n ...", integers in hex.
# The digests pin every certified value, term count and exact endpoint.

PLAN_CASES = [case for _, _, case in verify.tailfloors()]
PLAN_SPECS = list(dict.fromkeys(spec for spec, _ in PLAN_CASES))


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def endpoint_fields(interval):
    return [hex(x) for end in interval for x in (end.numerator, end.denominator)]


def certificate_line(spec, n, cert):
    fields = [spec.family, spec.shape, spec.l, spec.a, n, hex(cert.value), cert.terms]
    return " ".join(map(str, fields + endpoint_fields(cert.interval)))


def test_golden_plan_certificates():
    lines = [certificate_line(spec, n, certify_floor(spec, n, max_terms=16)) for spec, n in PLAN_CASES]
    assert len(PLAN_CASES) == 895 and len(PLAN_SPECS) == 36
    assert digest(lines) == "0f26e5b9ea6754893e486abf8d30866c77ce029f3cbe179882c604774a218762"


def test_golden_certificates_at_n_1000():
    specs = [TailSpec("B", "alt_even_sq"), TailSpec("C", "alt_evenprod"),
             TailSpec("B", "plain", l=2), TailSpec("G", "gf_sq", a=2)]
    lines = [certificate_line(spec, 1000, certify_floor(spec, 1000)) for spec in specs]
    assert digest(lines) == "17653f9a2f97b9bccc238215ce79a0dd13207176c54c9d9f9a20c5baf9fda2df"


def test_golden_closed_floors():
    # Every shape with each family TailSpec accepts for it, so the pin does not
    # read the shape table it guards.
    specs = []
    for shape in SHAPES:
        for fam in ("B", "C", "G"):
            try:
                TailSpec(fam, shape)
            except ValueError:
                continue
            if fam == "G":
                specs += [TailSpec(fam, shape, a=a) for a in range(1, 6)]
            else:
                specs += [TailSpec(fam, shape, l=l) for l in range(1, 5 if shape == "plain" else 2)]
    lines = [f"{spec.family} {spec.shape} {spec.l} {spec.a} {n} {hex(closed_floor(spec, n))}"
             for spec in specs for n in range(threshold(spec), 80)]
    assert len(lines) == 3627
    assert digest(lines) == "55eebd565aff4fbd4556c72df8f8661a577c33a1e8aadac7079cef95c335db11"


def test_golden_refined_brackets():
    lines = []
    for spec in PLAN_SPECS:
        for n in range(threshold(spec), threshold(spec) + 4):
            for terms in (2, 4, 8, 16):
                fields = [spec.family, spec.shape, spec.l, spec.a, n, terms]
                lines.append(" ".join(map(str, fields + endpoint_fields(refined_bracket(spec, n, terms)))))
    assert digest(lines) == "680ec66b60739c47800e34147873129211e6881d08674db6bad8d75f5a2d18b6"


def test_certificate_takes_no_gcd_and_builds_no_fraction(monkeypatch):
    def forbidden(*args):
        raise AssertionError("certify_floor reduced a fraction")

    certs = []
    with monkeypatch.context() as m:
        m.setattr(tailfloors, "Fraction", forbidden)
        m.setattr(math, "gcd", forbidden)
        for spec in PLAN_SPECS:
            certs.append(certify_floor(spec, threshold(spec) + 5))
    for spec, cert in zip(PLAN_SPECS, certs):
        assert cert.value == closed_floor(spec, threshold(spec) + 5), spec
        assert cert.interval == refined_bracket(spec, threshold(spec) + 5, cert.terms), spec


def test_certificate_interval_is_a_value():
    spec, n = TailSpec("C", "alt_oddprod"), 4
    cert = certify_floor(spec, n)
    assert isinstance(cert.interval.lo, Fraction)
    assert cert.interval == refined_bracket(spec, n, cert.terms)
    assert pickle.loads(pickle.dumps(cert)).interval == cert.interval
