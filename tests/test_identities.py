"""Identity catalog tests: spec'd instance values plus moderate sweeps.

The acceptance module re-runs the full-size sweeps; here each check gets its
documented examples and a smaller grid.
"""

from __future__ import annotations

import pickle

import pytest
import sympy  # an independent oracle, used by the tests only

from balkit import (
    Verdict,
    check_addition,
    check_binomial_3pow,
    check_binomial_plain,
    check_catalan,
    check_combination,
    check_gcd,
    check_mod_companion,
    check_odd_index_sum,
    check_prime_congruences,
    check_second_order_product,
    check_shifted_product,
    is_prime,
    kronecker_p8,
    pair_mod,
    primes_up_to,
)


def test_catalan_examples():
    assert check_catalan(5, 2).holds
    assert check_catalan(3, 1).holds
    assert check_catalan(7, 0).holds


def test_catalan_sweep():
    for n in range(41):
        for r in range(n + 1):
            assert check_catalan(n, r).holds


def test_odd_index_sum():
    for n in (1, 3, 5):
        assert check_odd_index_sum(n).holds
    assert all(check_odd_index_sum(n).holds for n in range(1, 61))


def test_shifted_product():
    assert check_shifted_product(2, 2).holds
    assert check_shifted_product(0, 7).holds
    assert check_shifted_product(3, 1).holds
    assert all(check_shifted_product(a, b).holds for a in range(41) for b in range(41))


def test_addition():
    assert check_addition(2, 3).holds
    assert check_addition(0, 9).holds
    assert check_addition(1, 1).holds
    assert all(check_addition(m, n).holds for n in range(61) for m in range(n + 1))


def test_combination():
    assert check_combination(1, 2).holds
    assert check_combination(2, 1).holds
    assert check_combination(1, 1).holds
    assert all(check_combination(m, n).holds
               for m in range(1, 41) for n in range(1, 41))


def test_gcd():
    assert check_gcd(4, 6).holds
    assert check_gcd(9, 9).holds
    assert check_gcd(3, 5).holds
    assert all(check_gcd(m, n).holds for m in range(1, 41) for n in range(1, 41))


def test_kronecker_examples():
    assert kronecker_p8(7) == 1
    assert kronecker_p8(5) == -1
    assert kronecker_p8(3) == -1
    assert kronecker_p8(17) == 1


def test_kronecker_refuses_psi_13():
    # The least strong pseudoprime to is_prime's 13 bases: composite, yet it passes them all,
    # so a C congruence for it would be reported as failed.
    psi_13 = 3317044064679887385961981
    assert not sympy.isprime(psi_13) and is_prime(psi_13)
    for p in (psi_13, psi_13 + 2):
        with pytest.raises(ValueError, match="decided only below"):
            kronecker_p8(p)
        with pytest.raises(ValueError, match="decided only below"):
            check_prime_congruences(p)


def test_kronecker_matches_balancing_residue():
    for p in primes_up_to(1000):
        if p == 2:
            continue
        b_mod, _ = pair_mod(p, p)
        assert b_mod == kronecker_p8(p) % p, p


def test_prime_congruences():
    for p in (3, 5, 7, 101, 9973):
        assert check_prime_congruences(p).holds
    for p in primes_up_to(500):
        if p > 2:
            assert check_prime_congruences(p).holds


def test_mod_companion():
    for m in (1, 2, 3):
        assert check_mod_companion(m).holds
    assert all(check_mod_companion(m).holds for m in range(1, 41))


def test_binomial_3pow():
    for n in (0, 1, 2):
        assert check_binomial_3pow(n).holds
    assert all(check_binomial_3pow(n).holds for n in range(31))


def test_binomial_plain():
    for n in (0, 1, 2):
        assert check_binomial_plain(n).holds
    assert all(check_binomial_plain(n).holds for n in range(31))


def test_second_order_product():
    for n in (4, 5, 8):
        assert check_second_order_product(n).holds
    assert all(check_second_order_product(n).holds for n in range(4, 101))


def test_failing_verdict_carries_witness():
    # A deliberately wrong instance through the same fold the checks use.
    from balkit.identities import _verdict

    v = _verdict([("ok", 2, 2), ("demo", 3, 4), ("later", 5, 6)])
    assert v.holds is False and bool(v) is False
    assert v.witness == ("demo", 3, 4)
    assert Verdict().holds is True and bool(Verdict()) is True and Verdict().witness is None
    assert _verdict([("ok", 2, 2)]) == Verdict()
    same = Verdict(("demo", 3, 4))
    assert v == same and hash(v) == hash(same) and v != Verdict()
    assert pickle.loads(pickle.dumps(v)) == v
    for field in ("holds", "witness"):
        with pytest.raises(AttributeError):
            setattr(v, field, None)


def test_is_prime():
    assert [p for p in range(60) if is_prime(p)] == primes_up_to(59)
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 61 + 1)
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)


# psi_k, the least strong pseudoprime to each of the first k prime bases (psi_8 = psi_9).
PSI = {4: 3215031751, 5: 2152302898747, 6: 3474749660383, 7: 341550071728321,
       9: 3825123056546413051, 12: 399165290221 * 798330580441}


@pytest.mark.parametrize("k", sorted(PSI))
def test_is_prime_rejects_strong_pseudoprimes(k):
    # Miller-Rabin with the bases 2..37 passes psi_12; the base 41 exposes it.
    assert not is_prime(PSI[k])
    with pytest.raises(ValueError):
        check_prime_congruences(PSI[k])


def test_is_prime_matches_the_sieve():
    primes = set(primes_up_to(20000))
    assert [n for n in range(20000) if is_prime(n) != (n in primes)] == []


def test_parameter_errors():
    with pytest.raises(ValueError):
        check_catalan(2, 3)
    with pytest.raises(ValueError):
        check_odd_index_sum(0)
    with pytest.raises(ValueError):
        check_shifted_product(-1, 0)
    with pytest.raises(ValueError):
        check_addition(3, 2)
    with pytest.raises(ValueError):
        check_combination(0, 1)
    with pytest.raises(ValueError):
        check_gcd(0, 3)
    with pytest.raises(ValueError):
        kronecker_p8(9)
    with pytest.raises(ValueError):
        kronecker_p8(2)
    with pytest.raises(ValueError):
        check_prime_congruences(15)
    with pytest.raises(ValueError):
        check_mod_companion(0)
    with pytest.raises(ValueError):
        check_binomial_3pow(-1)
    with pytest.raises(ValueError):
        check_binomial_plain(-2)
    with pytest.raises(ValueError):
        check_second_order_product(3)
