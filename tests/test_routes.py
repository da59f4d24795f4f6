"""Route audit: the two sides of each check share only the term kernel and
argument checks, so a closed form is never evaluated through the route it is
checked against."""

from __future__ import annotations

import ast
import os
import sys

import pytest

import balkit
from balkit import convolutions, genfunc, sequences, tailfloors
from balkit.sequences import BALANCING, FIBONACCI, LUCAS, LUCAS_BALANCING, gen_fibonacci
from balkit.tailfloors import TailSpec

PACKAGE = os.path.dirname(balkit.__file__)

# Keyed on code objects, not names: one SHAPES row can hold two lambdas on one
# line, and every <genexpr> shares a name.
SHARED = {
    # the term kernel, which the kernel unit checks against the linear pass of `values`
    sequences.term.__code__,
    sequences._memo.__wrapped__.__code__,
    sequences._lucas_u.__code__,
    sequences.gen_fibonacci.__code__,
    # argument checks and the family a tail spec names
    convolutions._validate.__code__,
    tailfloors._require_valid_n.__code__,
    tailfloors.threshold.__code__,
    tailfloors.TailSpec.sequence.__code__,
    sequences.family.__code__,
}


def reach(route, *args):
    """(value, code objects of balkit that route(*args) calls), from cold memos."""
    sequences._memo.cache_clear()
    convolutions._row.cache_clear()
    seen = set()

    def record(frame, event, arg):
        if event == "call" and os.path.dirname(frame.f_code.co_filename) == PACKAGE:
            seen.add(frame.f_code)

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


# C with k = 4, r = 1 and F with k = 3, r = 0 evaluate over Q(sqrt d)(i).
@pytest.mark.parametrize("seq, k, r", [
    (BALANCING, 5, 2), (LUCAS_BALANCING, 4, 1), (FIBONACCI, 3, 0), (LUCAS, 2, 0),
    (gen_fibonacci(2), 3, 1),
], ids=["B", "C", "F", "L", "G2"])
def test_convolution_routes_share_only_the_kernel(seq, k, r):
    _audit(convolutions.conv_closed, convolutions.brute_conv, (seq, k, r, 12))


@pytest.mark.parametrize("spec", [
    TailSpec("B", "plain", l=2), TailSpec("C", "alt_oddprod"), TailSpec("G", "gf_sq", a=2),
], ids=["plain-B-l2", "alt-oddprod-C", "gf-sq-G-a2"])
def test_tail_floor_routes_share_only_the_kernel(spec):
    _audit(tailfloors.closed_floor, tailfloors.verified_floor, (spec, 6))


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
