"""Convolution tests: in-test brute oracle, closed-form equivalence, and
rationality certificates of the field-valued evaluations."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import balkit
from balkit import (
    BALANCING,
    FIBONACCI,
    LUCAS,
    LUCAS_BALANCING,
    GaussQuad,
    QuadRat,
    Sequence,
    brute_conv,
    closed_form_raw,
    conv_balancing_r0,
    conv_closed,
    gen_fibonacci,
)
from balkit.convolutions import _row

FAMILIES = (BALANCING, LUCAS_BALANCING, FIBONACCI, LUCAS)


def oracle_conv(seq, k, r, n):
    """Independent oracle: iterate the recurrence, then the literal double sum."""
    upto = k * n + r
    vals = [seq.seed0, seq.seed1]
    while len(vals) <= upto + 1:
        vals.append(seq.mult * vals[-1] + seq.add * vals[-2])
    return sum(vals[k * m + r] * vals[k * (n - m) + r] for m in range(n + 1))


def test_brute_examples():
    assert brute_conv(BALANCING, 1, 0, 3) == 12
    assert brute_conv(BALANCING, 2, 1, 1) == 70
    assert brute_conv(LUCAS_BALANCING, 1, 0, 0) == 1
    assert brute_conv(LUCAS, 3, 1, 2) == 107


def test_brute_matches_oracle():
    for seq in FAMILIES:
        for k in range(1, 5):
            for r in range(k):
                for n in range(0, 9):
                    assert brute_conv(seq, k, r, n) == oracle_conv(seq, k, r, n)


def test_closed_balancing_examples():
    assert conv_closed(BALANCING, 2, 1, 1) == 70
    assert conv_closed(BALANCING, 1, 0, 3) == 12
    assert conv_closed(BALANCING, 3, 0, 0) == 0


def test_closed_lucas_balancing_examples():
    assert conv_closed(LUCAS_BALANCING, 1, 0, 0) == 1
    assert conv_closed(LUCAS_BALANCING, 1, 0, 1) == 6


def test_closed_fibonacci_examples():
    assert conv_closed(FIBONACCI, 2, 0, 1) == 0
    assert conv_closed(FIBONACCI, 2, 1, 1) == 4
    assert conv_closed(FIBONACCI, 1, 0, 0) == 0


def test_closed_lucas_examples():
    assert conv_closed(LUCAS, 1, 0, 1) == 4
    assert conv_closed(LUCAS, 2, 0, 0) == 4
    assert conv_closed(LUCAS, 3, 1, 2) == 107


def test_closed_matches_brute_smoke_grid():
    for seq in FAMILIES:
        for k in range(1, 4):
            for r in range(k):
                for n in range(0, 11):
                    assert conv_closed(seq, k, r, n) == brute_conv(seq, k, r, n), \
                        (seq.key, k, r, n)


def test_balancing_r0_examples():
    assert conv_balancing_r0(1, 3) == 12
    assert conv_balancing_r0(1, 2) == 1
    assert conv_balancing_r0(4, 0) == 0


def test_balancing_r0_matches_closed_form():
    for k in range(1, 6):
        for n in range(0, 41):
            assert conv_balancing_r0(k, n) == conv_closed(BALANCING, k, 0, n)


def test_raw_totals_have_zero_residue():
    # The Gaussian/quadratic evaluations must cancel exactly, not approximately.
    for k, r, n in ((1, 0, 4), (2, 1, 6), (3, 2, 5), (4, 1, 7)):
        raw_c = closed_form_raw(LUCAS_BALANCING, k, r, n)
        assert isinstance(raw_c, GaussQuad) and raw_c.d == 2
        assert raw_c.im == QuadRat.of(0, 0, 2)
        assert raw_c.re.b == 0
        assert raw_c.re.a.denominator == 1

        raw_l = closed_form_raw(LUCAS, k, r, n)
        if isinstance(raw_l, GaussQuad):
            assert raw_l.im == QuadRat.of(0, 0, 5)
            assert raw_l.re.b == 0
        else:
            assert isinstance(raw_l, QuadRat) and raw_l.b == 0

        raw_f = closed_form_raw(FIBONACCI, k, r, n)
        if isinstance(raw_f, GaussQuad):
            assert raw_f.im == QuadRat.of(0, 0, 5)
        else:
            assert isinstance(raw_f, Fraction) and raw_f.denominator == 1


def test_parity_dispatch():
    # Fibonacci: rational when k - r is even, Gaussian when odd.
    assert isinstance(closed_form_raw(FIBONACCI, 3, 1, 2), Fraction)
    assert isinstance(closed_form_raw(FIBONACCI, 2, 1, 2), GaussQuad)
    # Lucas: the parity roles swap fields, not rationality: even k - r is the
    # Gaussian case, odd stays inside Q(sqrt 5).
    assert isinstance(closed_form_raw(LUCAS, 3, 2, 2), QuadRat)
    assert isinstance(closed_form_raw(LUCAS, 2, 0, 2), GaussQuad)


def test_raw_type_independent_of_call_order():
    # The field of a raw closed form depends on its family, k and r alone, never
    # on which rows were evaluated before.  Fraction(1) == GaussQuad.of(1, 0, 5)
    # and both hash alike, so any state shared across rows and keyed by value
    # would let a Fibonacci row change a balancing one.  A fresh interpreter
    # makes the order below the first one.
    code = (
        "from fractions import Fraction\n"
        "from balkit import BALANCING, FIBONACCI, closed_form_raw\n"
        "closed_form_raw(FIBONACCI, 1, 0, 3)\n"
        "raw = closed_form_raw(BALANCING, 1, 0, 3)\n"
        "assert type(raw) is Fraction and raw == 12, repr(raw)\n"
    )
    src = str(Path(balkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_parameter_errors():
    with pytest.raises(ValueError):
        brute_conv(BALANCING, 1, 1, 0)
    with pytest.raises(ValueError):
        conv_closed(BALANCING, 2, 2, 1)
    with pytest.raises(ValueError):
        conv_closed(BALANCING, 1, 0, -1)
    with pytest.raises(ValueError):
        conv_balancing_r0(0, 3)
    with pytest.raises(ValueError):
        conv_balancing_r0(2, -1)
    # Neither U(P, Q) nor V(P, Q)/s, and Q = 2: no closed form.
    for seq in (Sequence("x", 3, 1, 5, 7), Sequence("q2", 3, -2, 0, 1)):
        with pytest.raises(ValueError):
            conv_closed(seq, 2, 1, 3)


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 8), st.integers(1, 5).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(0, k - 1))), st.integers(0, 30))
def test_gen_fibonacci_closed_form_matches_oracle(a, kr, n):
    # G = U(a, -1) takes the Fibonacci weight over the squarefree part of a^2 + 4.
    k, r = kr
    seq = gen_fibonacci(a)
    assert conv_closed(seq, k, r, n) == oracle_conv(seq, k, r, n)


@pytest.mark.parametrize("seq", FAMILIES + (gen_fibonacci(2),), ids=lambda s: s.key)
def test_closed_matches_oracle_at_large_n(seq):
    # Both parities of k - r: the Fibonacci-like rows change field between them.
    for k, r in ((3, 1), (4, 1)):
        assert conv_closed(seq, k, r, 400) == oracle_conv(seq, k, r, 400), (k, r)


@settings(deadline=None, max_examples=25)
@given(st.sampled_from(FAMILIES + (gen_fibonacci(2),)), st.integers(1, 5).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(0, k - 1))),
    st.lists(st.integers(0, 40), min_size=1, max_size=60))
def test_row_queried_in_any_order(seq, kr, ns):
    # A row's running sums are extended on demand: any query order, repeats
    # included, gives the value and the field of a fresh ascending pass.
    k, r = kr
    _row.cache_clear()
    raws = [(n, closed_form_raw(seq, k, r, n)) for n in ns]
    _row.cache_clear()
    ascending = [closed_form_raw(seq, k, r, n) for n in range(max(ns) + 1)]
    for n, raw in raws:
        assert raw == oracle_conv(seq, k, r, n), n
        assert type(raw) is type(ascending[n]), n


def test_row_memory_stays_linear():
    # A row keeps its latest running sums only, not one pair per n: the
    # traced peak of a fresh n = 1000 row stays near the size of its terms.
    code = (
        "import tracemalloc\n"
        "from balkit import LUCAS_BALANCING, conv_closed\n"
        "tracemalloc.start()\n"
        "conv_closed(LUCAS_BALANCING, 5, 2, 1000)\n"
        "peak = tracemalloc.get_traced_memory()[1]\n"
        "assert peak < 2.5e6, peak\n"
    )
    src = str(Path(balkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
