"""Reciprocal-tail floor tests: closed forms, rigorous brackets, certification."""

from __future__ import annotations

import fractions
import hashlib
import math
import pickle
import random
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from balkit import (
    SHAPES,
    Sequence,
    TailSpec,
    UndecidedIntervalError,
    certify_floor,
    closed_floor,
    gen_fibonacci,
    term,
    threshold,
    values,
    verified_floor,
)
from balkit import BALANCING, LUCAS_BALANCING
from balkit import tailfloors, verify
from balkit.cli import _TAIL_NAMES

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


def test_two_factor_offset_past_b_and_c():
    # The six two-factor rows take one Binet limit, read from the record's P
    # and kappa alone, so every Q = 1 record takes it.  The plan reaches B and
    # C alone, where V(2L) + 2 in place of V(2L), or the squares sent back to
    # the single-index rule, keep every floor: these records pin both.
    records = [Sequence("u", p, 1, "U", 1) for p in range(3, 13)]
    records += [Sequence("v", p, 1, "V", s) for p in range(3, 13) for s in (1, 2) if p % s == 0]
    assert len(records) == 25
    shapes = [s for s in SHAPES if len(SHAPES[s].factors) == 2 and "B" in SHAPES[s].families]
    assert len(shapes) == 6
    misses, cases = set(), 0
    for seq in records:
        S = dict(zip(range(-1, 141), values(seq, -1, 140)))
        for shape in shapes:
            spec, row = TailSpec("B", shape), SHAPES[shape]
            L = row.l
            for n in range(threshold(spec), 31):
                i = L * (n - 1) + row.j
                x = math.prod(S[i + L + f] for f in row.factors) + math.prod(S[i + f] for f in row.factors)
                x += tailfloors._offset(spec, seq, n)
                terms = [Fraction((-1) ** k, math.prod(S[L * k + row.j + f] for f in row.factors))
                         for k in range(n, 2 * n + 8)]
                cases += 1
                if (-x if n % 2 else x) != local_alternating_floor(terms):
                    misses.add((seq, shape, n))
    assert cases == 4475
    # Only first-n cases miss: V(P, 1) with s = 1 at the threshold of four
    # shapes, where the limit's O(alpha^(-2Ln)) error term still shows.
    first = {"alt_sq": 1, "alt_even_sq": 1, "alt_oddprod": 1, "alt_odd_sq": 2}
    assert misses == {(seq, shape, n) for seq in records if seq.kind == "V" and seq.s == 1
                      for shape, n in first.items()}
    assert len(misses) == 40


def test_spot_floors_against_local_oracle():
    bs = values(BALANCING, 0, 80)
    terms = [Fraction((-1) ** k, bs[k]) for k in range(2, 25)]
    assert local_alternating_floor(terms) == 7
    terms = [Fraction((-1) ** k, bs[k] ** 2) for k in range(2, 25)]
    assert local_alternating_floor(terms) == 37


class Interval(NamedTuple):
    lo: Fraction
    hi: Fraction


def as_interval(ends):
    """(lo_num, lo_den, hi_num, hi_den) read as reduced Fractions."""
    return Interval(Fraction(ends[0], ends[1]), Fraction(ends[2], ends[3]))


def refined_bracket(spec, n, terms):
    """The exact enclosure from `terms` summands, _enclose unrounded, as Fractions."""
    return as_interval(tailfloors._enclose(spec, n, terms))


def bracket_tail(spec, n, terms):
    """The textbook enclosure of the infinite tail from `terms` summands, in
    Fractions: the reference that the integer enclosure is tested against.
    Alternating shapes: the limit lies between consecutive partial sums
    (strict magnitude decrease is asserted).  Positive shapes: the partial sum
    bounds below, and the first omitted term times rho/(rho-1) majorizes the
    remainder for the proven growth bound rho."""
    tailfloors._require_valid_n(spec, n)
    if terms < 1:
        raise ValueError(f"need terms >= 1, got {terms}")
    seq, row = spec.sequence(), SHAPES[spec.shape]
    L = row.l * spec.l
    dens = [math.prod(term(seq, L * k + row.j + f) for f in row.factors) for k in range(n, n + terms + 1)]
    ts = [Fraction(-1 if row.alternating and k % 2 else 1, d) for k, d in enumerate(dens, n)]
    if row.alternating:
        for prev, cur in zip(ts, ts[1:]):
            if abs(cur) >= abs(prev):
                raise ArithmeticError(f"summands not strictly decreasing at {spec}, n={n}")
        p_prev = sum(ts[: terms - 1], Fraction(0))
        p_last = p_prev + ts[terms - 1]
        return Interval(min(p_prev, p_last), max(p_prev, p_last))
    (num, den), steps = tailfloors._growth(seq), L * len(row.factors)
    total = sum(ts[:terms], Fraction(0))
    return Interval(total, total + ts[terms] * num ** steps / (num ** steps - den ** steps))


def test_bracket_alternating_is_consecutive_partials():
    spec = TailSpec("B", "alt")
    bs = values(BALANCING, 0, 10)
    p3 = Fraction(1, bs[2]) - Fraction(1, bs[3]) + Fraction(1, bs[4])
    p4 = p3 - Fraction(1, bs[5])
    got = bracket_tail(spec, 2, 4)
    assert (got.lo, got.hi) == (min(p3, p4), max(p3, p4))


def test_bracket_plain_width_example():
    got = bracket_tail(TailSpec("B", "plain", l=1), 2, 6)
    assert got.hi - got.lo < Fraction(1, 10 ** 4)
    assert got.lo > 0


def test_bracket_contains_deep_refined_midpoint():
    # Soundness probe: a much deeper certified enclosure sits inside, and the
    # exact enclosure contains a much deeper textbook bracket.
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
    assert deep_bracket_misses() == []


def deep_bracket_misses():
    """The cases (spec, n, terms), over every plan spec at its threshold and the
    next n with 2 and 4 terms, whose exact enclosure does not contain the
    40-term textbook bracket: the enclosure's soundness, read from no digest."""
    cases = [(spec, n) for spec in PLAN_SPECS for n in (threshold(spec), threshold(spec) + 1)]
    assert len(cases) == 72
    deep = {case: bracket_tail(*case, 40) for case in cases}
    return [(spec, n, terms) for spec, n in cases for terms in (2, 4)
            if not contains(refined_bracket(spec, n, terms), deep[spec, n])]


def test_enclosure_outside_the_textbook_bracket_only_at_g1_n1():
    # The stride ratio bound reads _growth's 3/2 for G(1), weak next to the golden
    # ratio at the smallest index: with 2 terms at n = 1 the exact enclosure of
    # gf_plain is 1.25x as wide as the textbook bracket and of gf_sq 1.015x.  No
    # other plan case at n = t, t + 1, t + 2 pokes out, and both still decide at 2.
    loose = {(spec, n, terms) for spec in PLAN_SPECS for n in range(threshold(spec), threshold(spec) + 3)
             for terms in (2, 4, 8)
             if not contains(bracket_tail(spec, n, terms), refined_bracket(spec, n, terms))}
    known = {(TailSpec("G", shape, a=1), 1, 2) for shape in ("gf_plain", "gf_sq")}
    assert loose <= known, loose - known
    for spec, n, terms in known:
        cert = certify_floor(spec, n, max_terms=terms)
        assert (cert.value, cert.terms) == (closed_floor(spec, n), terms), spec


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
    # _growth's num/den bounds S(m+1)/S(m) below from m = 2 on, for every plan
    # spec and for G(a), a <= 5: 5/1 for B and C, (a^2 + a + 1)/(a + 1) for G(a).
    specs = {case[2][0] for case in verify.tailfloors()}
    specs |= {TailSpec("G", shape, a=a) for shape in G_SHAPE_KEYS for a in range(1, 6)}
    terms = {seq: values(seq, 0, 501) for seq in {spec.sequence() for spec in specs}}
    for spec in specs:
        num, den = tailfloors._growth(spec.sequence())
        if spec.family == "G":
            assert (num, den) == (spec.a ** 2 + spec.a + 1, spec.a + 1), spec
        else:
            assert (num, den) == (5, 1), spec
        s = terms[spec.sequence()]
        for m in range(2, 501):
            assert num * s[m] <= den * s[m + 1], (spec, m)


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
    # At stride L the drift's magnitude kappa_L = |S(0)S(2L) - S(L)^2| is the
    # same for every m, which the stride ratio intervals of _enclose rely on.
    for seq in [BALANCING, LUCAS_BALANCING] + [gen_fibonacci(a) for a in range(1, 6)]:
        s = values(seq, 0, 206)
        for L in range(1, 7):
            kappa = abs(s[0] * s[2 * L] - s[L] ** 2)
            assert kappa > 0, (seq, L)
            for m in range(L, 201):
                assert abs(s[m - L] * s[m + L] - s[m] ** 2) == kappa, (seq, L, m)


def test_certification_smoke_sweep():
    for spec in all_specs(lmax=2, amax=2):
        for n in range(threshold(spec), 13):
            cert = certify_floor(spec, n)
            assert cert.value == closed_floor(spec, n), (spec, n)
            assert cert.terms <= 16
            lo, hi = as_interval(cert.ends)
            assert lo <= hi


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


def test_replaced_spec_is_checked_as_built():
    with pytest.raises(ValueError, match="plain shape needs l >= 1, got 0"):
        TailSpec("B", "plain")._replace(l=0)
    with pytest.raises(ValueError, match="does not belong to family B"):
        TailSpec("B", "alt")._replace(shape="gf_sq")
    with pytest.raises(ValueError, match="takes no parameter a"):
        TailSpec("C", "alt")._replace(a=2)
    spec = TailSpec("B", "plain")._replace(l=3)
    assert type(spec) is TailSpec and spec == TailSpec("B", "plain", l=3)


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


@pytest.mark.parametrize("spec", [TailSpec("B", "plain"), TailSpec("C", "alt_consec_prod")],
                         ids=["plain-B", "alt-consec-prod-C"])
def test_ratio_interval_reaching_1_raises(monkeypatch, spec):
    # A growth bound of 1 gives g = 1, so the ratio interval reaches 1 and bounds
    # no remainder: the certificate raises, with no looser bracket to fall back on.
    monkeypatch.setattr(tailfloors, "_growth", lambda seq: (1, 1))
    with pytest.raises(ArithmeticError, match="ratio interval reaches 1") as info:
        certify_floor(spec, 5)
    assert not isinstance(info.value, UndecidedIntervalError)


def stub_rounds(monkeypatch, rounds):
    """Make _enclose return rounds[terms], (lo_num, lo_den, hi_num, hi_den), at
    every scale; record its calls."""
    calls = []

    def enclose(spec, n, terms, scale=None):
        calls.append((terms, scale))
        return rounds[terms]

    monkeypatch.setattr(tailfloors, "_enclose", enclose)
    return calls


def test_certificate_intersects_rounds_until_decided(monkeypatch):
    # Every real certificate decides at 2 terms, so stubbed enclosures drive the later rounds.
    # 1/S spans [4.1, 6] after round one and [3, 4.9] after round two: only their
    # intersection [4.1, 4.9] pins the floor at 4.
    calls = stub_rounds(monkeypatch, {2: (1, 6, 10, 41), 4: (10, 49, 1, 3)})
    cert = certify_floor(TailSpec("B", "alt"), 3)
    assert calls == [(2, None), (4, None)]
    assert (cert.value, cert.terms, cert.ends) == (4, 4, (10, 49, 10, 41))
    with pytest.raises(UndecidedIntervalError):
        certify_floor(TailSpec("B", "alt"), 3, max_terms=2)


@pytest.mark.parametrize("shape, n, scale", [("alt_sq", 200, 1), ("alt", 200, 2), ("alt_sq", 3, None)])
def test_an_undecided_round_doubles_the_terms_at_its_scale(monkeypatch, shape, n, scale):
    # 1/S spans [4.1, 6] at 2 terms and [4.1, 4.9] at 4: the floor is 4 at 4 terms,
    # from one enclosure per round at the certificate's one scale.  A tail of one
    # factor per summand rounds to 2F + 64 bits, since F + 64 never decide it, a
    # product to F + 64, and a floor of under 256 bits takes the exact enclosure.
    calls = stub_rounds(monkeypatch, {2: (1, 6, 10, 41), 4: (10, 49, 10, 41)})
    cert = certify_floor(TailSpec("B", shape), n)
    assert calls == [(2, scale), (4, scale)]
    assert (cert.value, cert.terms, cert.ends) == (4, 4, (10, 49, 10, 41))


def test_a_round_straddling_zero_doubles_the_terms(monkeypatch):
    # [-1/6, 10/41] holds 0, so the first round pins no floor and the second decides.
    calls = stub_rounds(monkeypatch, {2: (-1, 6, 10, 41), 4: (10, 49, 10, 41)})
    cert = certify_floor(TailSpec("B", "alt"), 3)
    assert calls == [(2, None), (4, None)]
    assert (cert.value, cert.terms, cert.ends) == (4, 4, (10, 49, 10, 41))
    with pytest.raises(UndecidedIntervalError):
        certify_floor(TailSpec("B", "alt"), 3, max_terms=2)


@pytest.mark.parametrize("ends", [(10, 41, 10, 49), (-10, 49, -10, 41), (1, 6, -1, 6)],
                         ids=["positive", "negative", "signs"])
def test_inverted_first_round_raises(monkeypatch, ends):
    # lo > hi in the first round, fresh and not intersected.  In the first two
    # cases both ends reciprocate to one floor (4, then -5); nothing is certified.
    stub_rounds(monkeypatch, {2: ends})
    with pytest.raises(ArithmeticError, match="inconsistent enclosures") as info:
        certify_floor(TailSpec("B", "alt"), 3)
    assert not isinstance(info.value, UndecidedIntervalError)


def test_disjoint_rounds_raise(monkeypatch):
    stub_rounds(monkeypatch, {2: (1, 6, 10, 41), 4: (1, 2, 1, 1)})
    with pytest.raises(ArithmeticError, match="inconsistent enclosures") as info:
        certify_floor(TailSpec("B", "alt"), 3)
    assert not isinstance(info.value, UndecidedIntervalError)


# -- golden certificates ---------------------------------------------------------
#
# SHA-256 of the newline-joined lines "family shape l a n ...", integers in hex.
# The digests pin every certified value and term count, with or without the
# endpoints of the rounded enclosure that decided it, and every exact endpoint
# of the unrounded enclosure.

PLAN_CASES = [case for _, _, case in verify.tailfloors()]
PLAN_SPECS = list(dict.fromkeys(spec for spec, _ in PLAN_CASES))


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def endpoint_fields(interval):
    return [hex(x) for end in interval for x in (end.numerator, end.denominator)]


def certificate_line(spec, n, cert):
    fields = [spec.family, spec.shape, spec.l, spec.a, n, hex(cert.value), cert.terms]
    return " ".join(map(str, fields + endpoint_fields(as_interval(cert.ends))))


N1000_SPECS = [TailSpec("B", "alt_even_sq"), TailSpec("C", "alt_evenprod"),
               TailSpec("B", "plain", l=2), TailSpec("G", "gf_sq", a=2)]


def test_golden_certified_values_and_terms():
    # Only what the certificate decides: the floor and the summand count that pinned it.
    certs = [(spec, n, certify_floor(spec, n, max_terms=16)) for spec, n in PLAN_CASES]
    certs += [(spec, 1000, certify_floor(spec, 1000)) for spec in N1000_SPECS]
    lines = [f"{spec.family} {spec.shape} {spec.l} {spec.a} {n} {hex(cert.value)} {cert.terms}"
             for spec, n, cert in certs]
    assert digest(lines) == "af73c2de824dedce199160b9d2640c207bac9054c5b5faa0bd85d89e9ee531b8"


def test_golden_plan_certificates():
    lines = [certificate_line(spec, n, certify_floor(spec, n, max_terms=16)) for spec, n in PLAN_CASES]
    assert len(PLAN_CASES) == 895 and len(PLAN_SPECS) == 36
    assert digest(lines) == "183f033e80d2ae3eaa5dbc0ee785811153c7a3b27d69afcf95fb6ba4fa4952cd"


def test_golden_certificates_at_n_1000():
    lines = [certificate_line(spec, 1000, certify_floor(spec, 1000)) for spec in N1000_SPECS]
    assert digest(lines) == "9804ba9b3325443e709ece8d7fb96c32adcaecf76e6cf1af816505c687ae5745"


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
    assert digest(lines) == "1646d5f477ba85c08f526572c59fbd36c9d33e4a09a26c5c699f56102f8d0d25"


def contains(outer, inner):
    return outer.lo <= inner.lo <= inner.hi <= outer.hi


def test_certificate_takes_no_gcd_and_builds_no_fraction(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("certify_floor reduced a fraction")

    certs = []
    with monkeypatch.context() as m:
        m.setattr(fractions.Fraction, "__new__", forbidden)  # any Fraction, built anywhere
        m.setattr(math, "gcd", forbidden)
        for spec in PLAN_SPECS:
            certs.append(certify_floor(spec, threshold(spec) + 5))
    for spec, cert in zip(PLAN_SPECS, certs):
        assert cert.value == closed_floor(spec, threshold(spec) + 5), spec
        assert contains(as_interval(cert.ends), refined_bracket(spec, threshold(spec) + 5, cert.terms)), spec


def test_certificate_interval_is_a_value():
    # The enclosure is the certificate's integer ends, which survive a round trip.
    spec, n = TailSpec("C", "alt_oddprod"), 4
    cert = certify_floor(spec, n)
    assert all(type(x) is int for x in cert.ends)
    assert contains(as_interval(cert.ends), refined_bracket(spec, n, cert.terms))
    assert pickle.loads(pickle.dumps(cert)) == cert


def test_certificates_contain_the_exact_enclosure():
    cases = [(spec, n, 16) for spec, n in PLAN_CASES] + [(spec, 1000, 64) for spec in N1000_SPECS]
    for spec, n, max_terms in cases:
        cert = certify_floor(spec, n, max_terms)
        exact = refined_bracket(spec, n, cert.terms)
        assert contains(as_interval(cert.ends), exact), (spec, n)
        # Small floors are certified exactly, so their rounded enclosures are checked here.
        for scale in (1, 2):
            assert contains(as_interval(tailfloors._enclose(spec, n, cert.terms, scale)),
                            exact), (spec, n, scale)


@pytest.mark.parametrize("spec", [TailSpec("B", "alt_even_sq"), TailSpec("C", "plain", l=2)],
                         ids=["alt-even-sq-B", "plain-C-l2"])
@pytest.mark.parametrize("n", [1000, 10_000])
def test_certificate_ends_are_sized_to_the_floor(spec, n):
    # Unrounded, the ends carry 5 to 11 times the floor's bits.
    cert = certify_floor(spec, n)
    floor_bits = abs(cert.value).bit_length()
    assert max(abs(x).bit_length() for x in cert.ends) <= 4 * floor_bits + 256


def exact_certificate(spec, n, max_terms=64):
    """(value, terms) of certify_floor's loop run on the exact enclosure's Fractions."""
    lo = hi = None
    terms = 2
    while terms <= max_terms:
        fresh = refined_bracket(spec, n, terms)
        lo, hi = (fresh.lo, fresh.hi) if lo is None else (max(lo, fresh.lo), min(hi, fresh.hi))
        if (lo > 0 or hi < 0) and math.floor(1 / hi) == math.floor(1 / lo):
            return math.floor(1 / hi), terms
        terms *= 2
    return None


@settings(deadline=None, max_examples=200)
@given(st.integers(min_value=1, max_value=3000), st.integers(min_value=1, max_value=3000),
       st.integers(min_value=0, max_value=2 ** 32), st.integers(min_value=-3, max_value=3), st.booleans())
@example(1, 1, 0, 0, False).via("equal ends, 0/1 = 0/1")
@example(2, 2, 0, 0, True).via("equal ends, 1/3 = 1/3")
def test_order_check_compares_fractions(b_bits, d_bits, seed, nudge, negative):
    # 1/lo = v + a/b and 1/hi = v + c/d: the ends are ordered iff a/b >= c/d, which
    # certify_floor decides on its first round.  c/d lies within a few units of a/b
    # at d's precision, so near ties and ties reach the comparison.
    rnd = random.Random(seed)
    b = rnd.getrandbits(b_bits) | 1 << (b_bits - 1)
    d = rnd.getrandbits(d_bits) | 1 << (d_bits - 1)
    a = rnd.randrange(b)
    c = min(d - 1, max(0, a * d // b + nudge))
    v, sign = (-5, -1) if negative else (4, 1)
    ends = (sign * b, sign * (v * b + a), sign * d, sign * (v * d + c))
    with pytest.MonkeyPatch.context() as m:
        stub_rounds(m, {2: ends})
        if Fraction(a, b) < Fraction(c, d):
            with pytest.raises(ArithmeticError, match="inconsistent enclosures"):
                certify_floor(TailSpec("B", "alt"), 3)
        else:
            assert certify_floor(TailSpec("B", "alt"), 3) == (v, 2, ends)


def test_every_certificate_takes_one_enclosure(monkeypatch):
    # Each certificate of the plan, and of every console-script tail spec (plain
    # l <= 6, G a <= 10) at its threshold and at n = 30, 400 and 1000, decides
    # with one enclosure at 2 terms, rounded or exact as its floor's size chooses.
    calls, enclose = [], tailfloors._enclose

    def counted(spec, n, terms, scale=None):
        calls.append((terms, scale))
        return enclose(spec, n, terms, scale)

    monkeypatch.setattr(tailfloors, "_enclose", counted)
    cases = list(PLAN_CASES)
    for fam, shape in _TAIL_NAMES.values():
        for l in range(1, 7 if shape == "plain" else 2):
            for a in range(1, 11 if fam == "G" else 2):
                spec = TailSpec(fam, shape, l=l, a=a)
                cases += [(spec, n) for n in (threshold(spec), 30, 400, 1000)]
    scales = set()
    for spec, n in cases:
        calls.clear()
        certify_floor(spec, n)
        assert len(calls) == 1 and calls[0][0] == 2, (spec, n, calls)
        scales.add(calls[0][1])
    assert scales == {None, 1, 2}


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(PLAN_SPECS), st.integers(min_value=0, max_value=400))
def test_rounded_certificate_decides_as_the_exact_loop(spec, n):
    n = max(n, threshold(spec))
    cert = certify_floor(spec, n)
    assert (cert.value, cert.terms) == exact_certificate(spec, n)


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(list(all_specs(lmax=4, amax=7))), st.integers(min_value=1, max_value=400))
def test_closed_floor_is_the_certified_floor_on_every_row(spec, n):
    # Past the golden closed floors, which stop at n < 80 and a <= 5.
    n = max(n, threshold(spec))
    assert closed_floor(spec, n) == certify_floor(spec, n).value
