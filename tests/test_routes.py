"""Route audit: the two sides of each check share only the term kernel and
argument checks, so a closed form is never evaluated through the route it is
checked against."""

from __future__ import annotations

import ast
import os
import sys

import pytest

import balkit
from balkit import convolutions, genfunc, quadfield, sequences, tailfloors
from balkit.sequences import BALANCING, FIBONACCI, LUCAS, LUCAS_BALANCING, gen_fibonacci
from balkit.tailfloors import TailSpec
from test_sequences import cold_kernel

PACKAGE = os.path.dirname(balkit.__file__)

# Keyed on code objects, not names: one SHAPES row can hold two lambdas on one
# line, and every <genexpr> shares a name.
SHARED = {
    # the term kernel, which the kernel unit checks against the linear pass of `values`
    sequences.term.__code__,
    sequences._memo.__wrapped__.__code__,
    sequences._lucas_u.__code__,
    sequences.gen_fibonacci.__code__,
    # argument checks, the family record's among them, and the family a tail spec names
    sequences.Sequence.__new__.__code__,
    convolutions._validate.__code__,
    tailfloors._require_valid_n.__code__,
    tailfloors.threshold.__code__,
    tailfloors.TailSpec.sequence.__code__,
    sequences.family.__code__,
}


def reach(route, *args):
    """(value, code objects of balkit that route(*args) calls), from cold kernel state."""
    seen = set()

    def record(frame, event, arg):
        if event == "call" and os.path.dirname(frame.f_code.co_filename) == PACKAGE:
            seen.add(frame.f_code)

    with cold_kernel():
        sys.setprofile(record)
        try:
            value = route(*args)
        finally:
            sys.setprofile(None)
    return value, seen


def _audit(closed, other, args, *, other_is_kernel=False):
    value, closed_side = reach(closed, *args)
    expected, other_side = reach(other, *args)
    assert value == expected
    assert closed_side and other_side
    assert closed_side & other_side <= SHARED, sorted(
        c.co_name for c in closed_side & other_side - SHARED)
    assert closed_side - SHARED
    if not other_is_kernel:
        assert other_side - SHARED


# The rows' weights live in plain rationals (B, G2), Q(sqrt 2)(i) (C),
# Q(sqrt 5)(i) (F, L) and Q(sqrt 5) (L21, V-type with tau = +1).
@pytest.mark.parametrize("seq, k, r", [
    (BALANCING, 5, 2), (LUCAS_BALANCING, 4, 1), (FIBONACCI, 3, 0), (LUCAS, 2, 0),
    (gen_fibonacci(2), 3, 1), (LUCAS, 2, 1),
], ids=["B", "C", "F", "L", "G2", "L21"])
def test_convolution_routes_share_only_the_kernel(seq, k, r):
    _audit(convolutions.conv_closed, convolutions.brute_conv, (seq, k, r, 12))


@pytest.mark.parametrize("spec", [
    TailSpec("B", "plain", l=2), TailSpec("C", "alt_oddprod"), TailSpec("G", "gf_sq", a=2),
], ids=["plain-B-l2", "alt-oddprod-C", "gf-sq-G-a2"])
def test_tail_floor_routes_share_only_the_kernel(spec):
    _audit(tailfloors.closed_floor, tailfloors.verified_floor, (spec, 6))


@pytest.mark.parametrize("seq", [BALANCING, FIBONACCI, gen_fibonacci(2)], ids=["B", "F", "G2"])
def test_binet_and_linear_routes_share_only_the_kernel(seq):
    # The linear side reads two seeds from the kernel; Binet never reaches it.
    _audit(lambda seq: [quadfield.binet(seq, n)[0] for n in range(-20, 41)],
           lambda seq: sequences.values(seq, -20, 40), (seq,))


def test_no_float_literal_in_the_exact_core():
    # float("inf") in a deadline is a call on a string, not a literal.
    floats = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            floats += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                       if isinstance(node, ast.Constant) and isinstance(node.value, float)]
    assert floats == []


def test_generating_function_routes_share_only_the_kernel():
    # The direct side is term() alone, so only the overlap is constrained.
    _audit(lambda seq, k, r: genfunc.expand(genfunc.gf(seq, k, r), 20),
           lambda seq, k, r: [sequences.term(seq, k * i + r) for i in range(20)],
           (LUCAS_BALANCING, 4, 1), other_is_kernel=True)


def test_binet_and_pair_mod_never_reach_the_fft_square():
    # At n = 160,600 the term kernel squares U(80,300), of 204,000 bits, by the
    # FFT; the Binet route keeps the builtin product and pair_mod works on
    # residues, so both stay independent of that arithmetic.
    n = 160_600
    (u, _), binet_side = reach(quadfield.binet, BALANCING, n)
    (bm, _), mod_side = reach(sequences.pair_mod, n, 2 ** 61 - 1)
    expected, kernel_side = reach(sequences.term, BALANCING, n)
    assert u == expected and bm == expected % (2 ** 61 - 1)
    square = sequences._square.__code__
    assert square in kernel_side and square not in binet_side and square not in mod_side


def test_pair_mod_and_pair_fast_share_no_code():
    # pair_mod runs a ladder of its own, so checking it against pair_fast checks
    # one route against another, not the kernel against itself.
    n, m = 1000, 2 ** 61 - 1
    (bm, cm), mod_side = reach(sequences.pair_mod, n, m)
    (b, c), fast_side = reach(sequences.pair_fast, n)
    assert (bm, cm) == (b % m, c % m)
    assert mod_side and fast_side and mod_side.isdisjoint(fast_side), sorted(
        code.co_name for code in mod_side & fast_side)
