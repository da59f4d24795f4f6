"""Mutant tests: a wrong closed-form constant must fail the verification plan.

Each mutant shifts one tail-floor offset by one and runs the tailfloors unit of
`balkit verify-all`.  A mutant that passed would mean the plan's grid never
reaches the closed form that the constant belongs to.
"""

from __future__ import annotations

import pytest

from balkit import tailfloors, verify

MUTANTS = [(key, parity, delta) for key in tailfloors._OFFSETS
           for parity in (0, 1) for delta in (-1, 1)]


def mutant_id(key, parity, delta):
    name = key if isinstance(key, str) else "-".join(key)
    return f"{name} {'eo'[parity]}{delta:+d}"


def test_every_offset_has_its_mutants():
    assert len(tailfloors._OFFSETS) == 13 and len(MUTANTS) == 52


@pytest.mark.parametrize("key, parity, delta", MUTANTS, ids=[mutant_id(*m) for m in MUTANTS])
def test_shifted_tail_offset_fails_the_plan(monkeypatch, key, parity, delta):
    # The offset pair is (e, o): e applies at even n and o at odd n.
    offsets = list(tailfloors._OFFSETS[key])
    offsets[parity] += delta
    monkeypatch.setitem(tailfloors._OFFSETS, key, tuple(offsets))
    checked, failed, witness, skipped = verify.run(verify.tailfloors())
    assert (checked, skipped) == (895, False)
    assert failed > 0 and witness is not None
    spec, n = witness["params"]
    family = key if isinstance(key, str) else key[0]
    assert f"family='{family}'" in spec
    if not isinstance(key, str):
        assert f"shape='{key[1]}'" in spec
    assert n % 2 == parity
