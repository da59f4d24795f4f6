"""The package namespace: every public name resolves to its submodule's
object, and a bare `import balkit` loads no submodule."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys

import pytest

import balkit

# The names `balkit` exports, by the module that defines each.
EXPORTS = {
    "convolutions": ["brute_conv", "closed_form_raw", "conv_balancing_r0", "conv_closed"],
    "genfunc": ["RationalGF", "expand", "gf", "series_mul"],
    "identities": ["Verdict", "check_addition", "check_binomial_3pow", "check_binomial_plain",
                   "check_catalan", "check_combination", "check_gcd", "check_mod_companion",
                   "check_odd_index_sum", "check_prime_congruences",
                   "check_second_order_product", "check_shifted_product", "is_prime",
                   "kronecker_p8", "primes_up_to"],
    "quadfield": ["CancellationError", "GaussQuad", "QuadRat", "binet", "binet_pair",
                  "certified_int"],
    "sequences": ["BALANCING", "FIBONACCI", "LUCAS", "LUCAS_BALANCING", "Sequence", "family",
                  "gen_fibonacci", "is_balancing", "pair_fast", "pair_mod", "term", "values"],
    "tailfloors": ["SHAPES", "CertifiedFloor", "TailSpec", "UndecidedIntervalError",
                   "certify_floor", "closed_floor", "threshold", "verified_floor"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_public_name_is_the_submodule_object(module, name):
    own = getattr(importlib.import_module(f"balkit.{module}"), name)
    scope: dict = {}
    exec(f"from balkit import {name}", scope)
    assert getattr(balkit, name) is own
    assert scope[name] is own
    assert name in dir(balkit)


def test_submodules_and_unknown_names():
    from balkit import sequences

    assert sequences is sys.modules["balkit.sequences"]
    with pytest.raises(AttributeError, match="no_such_name"):
        balkit.no_such_name
    with pytest.raises(ImportError):
        exec("from balkit import no_such_name", {})
    assert not hasattr(balkit, "no_such_name")


def test_bare_import_loads_no_submodule():
    src = os.path.dirname(os.path.dirname(balkit.__file__))
    probe = ("import sys, balkit\n"
             "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'balkit'))\n"
             "from balkit import tailfloors\n"
             "print(tailfloors is sys.modules['balkit.tailfloors'], balkit.TailSpec is tailfloors.TailSpec)\n")
    out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out == ["balkit", "True True"]
