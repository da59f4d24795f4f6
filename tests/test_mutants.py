"""Mutant tests: a wrong closed-form constant must fail the verification plan.

Each mutant changes one constant of a closed form (a tail-floor offset, a
term of the tail offset rule, the tail backbone's sign or index, a convolution
row's sign or factor i, a generating-function coefficient, a constant on the
right of an identity, a coefficient of the term kernel's doubling step or of
`pair_mod`'s modular ladder, or a constant of the Binet route) and runs the
unit of `balkit verify-all` that checks it.  A mutant that passed would mean the plan's grid never reaches the
closed form that the constant belongs to: the grid is then fixed, never the
mutant.  There are two exceptions.  The kernel's FFT square serves only
operands larger than any the plan squares; its mutants must fail the FFT
tests of test_sequences instead.  The tail certificate's enclosure can be
unsound and still decide every floor; its mutants must miss the deep
textbook bracket of test_tailfloors instead.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import sys
from functools import lru_cache

import pytest

import balkit
from balkit import convolutions, genfunc, identities, quadfield, sequences, tailfloors, verify
from test_acceptance import PLAN_COUNTS
from test_sequences import FFT_INDICES, FFT_PAIRS, SQUARE_CASES, cold_kernel
from test_tailfloors import deep_bracket_misses

UNIT_SIZES = dict(PLAN_COUNTS)


def caught(cases, count=None):
    """verify.run over a unit's cases; asserts that it ran whole and failed."""
    checked, failed, witness, skipped = verify.run(cases)
    assert not skipped and (count is None or checked == count)
    assert failed > 0 and witness is not None, f"mutant survived {checked} checks"
    return witness


def recompiled(func, old: str, new: str):
    """`func` with its one expression that reads `old` replaced by `new`,
    compiled against a copy of its module's namespace, so the module keeps
    its own function."""
    module = sys.modules[func.__module__]
    tree = ast.parse(inspect.getsource(func))
    hits = []

    class Swap(ast.NodeTransformer):
        def visit(self, node):
            if isinstance(node, ast.expr) and ast.unparse(node) == old:
                hits.append(node)
                return ast.parse(new, mode="eval").body
            return self.generic_visit(node)

    tree = ast.fix_missing_locations(Swap().visit(tree))
    assert len(hits) == 1, f"{old!r} occurs {len(hits)} times in {func.__name__}"
    scope = dict(vars(module))
    exec(compile(tree, module.__file__, "exec"), scope)
    return scope[func.__name__]


# -- the term kernel ----------------------------------------------------------------

# (expression in sequences._lucas_u, its mutant, the units that must catch it)
KERNEL_MUTANTS = [
    ("p * p - 3 * q", "p * p - 2 * q", ("kernel",)),
    ("a - q * b", "a + q * b", ("kernel",)),
    # 2 Q^k is 2 whenever Q = 1, so the kernel unit (B and C only) cannot see
    # this one; the units over F, L and G can.
    ("c * a - b + two_qk", "c * a - b + 2", ("genfunc", "convolutions", "tailfloors")),
]


@pytest.fixture
def cold_memos():
    """Cold kernel state before and after the test: `recompiled` copies the
    module's namespace shallowly, so a mutant kernel writes the real kernel's
    ladder record, and without the reset its expansions would outlive the test."""
    with cold_kernel():
        yield


@pytest.mark.parametrize("old, new, units", KERNEL_MUTANTS,
                         ids=[f"{old} -> {new}" for old, new, _ in KERNEL_MUTANTS])
def test_kernel_coefficient_fails_the_plan(monkeypatch, cold_memos, old, new, units):
    # sequences is the one module that binds the kernel (test_only_sequences_binds_the_kernel)
    monkeypatch.setattr(sequences, "_lucas_u", recompiled(sequences._lucas_u, old, new))
    for unit in units:
        caught(getattr(verify, unit)(), UNIT_SIZES[unit])


def test_only_sequences_binds_the_kernel():
    # Other modules read U(k) and V(k) through `term` or `_memo`, so patching
    # sequences._lucas_u reaches every caller.
    modules = [balkit] + [importlib.import_module(f"balkit.{info.name}")
                          for info in pkgutil.iter_modules(balkit.__path__)]
    assert [module.__name__ for module in modules if hasattr(module, "_lucas_u")] == ["balkit.sequences"]


def test_a_mutant_kernel_leaves_no_ladder_behind(cold_memos):
    bs, cs = (sequences.values(seq, 0, 1001) for seq in (sequences.BALANCING, sequences.LUCAS_BALANCING))
    want = [(bs[n], cs[n]) for n in (1000, 1001)]
    assert [sequences.pair_fast(n) for n in (1000, 1001)] == want
    old, new, _ = KERNEL_MUTANTS[1]
    mutant = recompiled(sequences._lucas_u, old, new)
    with cold_kernel():  # as around each mutant test
        assert mutant(6, 1, 1001)[0] != bs[1001]
        # the mutant's expansions sit in the real kernel's record, for the same (P, Q) and bit length
        assert [(key, last) for key, last, _ in sequences._ladder] == [((6, 1), 1001)]
    assert [sequences.pair_fast(n) for n in (1000, 1001)] == want


# (expression in sequences.pair_mod, its mutant): the coefficient P = 6 in
# U(2k) = U(k) (2 U(k+1) - 6 U(k)), U(k+1) + U(k) in U(2k+1), the sign in the
# odd step's U(2k+2) = 6 U(2k+1) - U(2k), the 2 of 2 U(k+1), the 3 of
# C = U(n+1) - 3 U(n), and the seed U(1).  The identities unit reads pair_mod
# through check_prime_congruences.
MOD_MUTANTS = [
    ("6 * u", "5 * u"),
    ("(u1 - u) * (u1 + u)", "(u1 - u) * (u1 - u)"),
    ("6 * u1 - u", "6 * u1 + u"),
    ("2 * u1", "u1"),
    ("u1 - 3 * u", "u1 - 2 * u"),
    ("1 % modulus", "0"),
]


@pytest.mark.parametrize("old, new", MOD_MUTANTS, ids=[f"{old} -> {new}" for old, new in MOD_MUTANTS])
def test_modular_ladder_mutant_fails_the_identities_unit(monkeypatch, old, new):
    monkeypatch.setattr(identities, "pair_mod", recompiled(sequences.pair_mod, old, new))
    assert caught(verify.identities(), UNIT_SIZES["identities"])["label"].startswith("prime-congruence")


# (expression in sequences._square, its mutant): the ring bound 2b + k + 2
# cut to 2b, the root 2^(2N/M) made 2^(N/M), the scaling by 2^(-k) dropped,
# the inverse twiddles' sign flipped, and the negation of 2^e for e >= N
# dropped.  The plan cannot catch these: its largest square, U(2500) in the
# kernel unit, has about 6.4 * 10^3 bits, under `_FFT`, so the FFT tests of
# test_sequences must.
FFT_MUTANTS = [
    ("2 * b + k + 2", "2 * b"),
    ("2 * n // m", "n // m"),
    ("2 * n - k", "0"),
    ("2 * n - (j - i) * step", "(j - i) * step"),
    ("-r", "r"),
]


@pytest.mark.parametrize("old, new", FFT_MUTANTS, ids=[f"{old} -> {new}" for old, new in FFT_MUTANTS])
def test_fft_mutant_fails_the_square_tests(monkeypatch, cold_memos, old, new):
    monkeypatch.setattr(sequences, "_square", recompiled(sequences._square, old, new))
    assert any(sequences._square(x) != x * x for x in SQUARE_CASES.values())
    # and the kernel, which reads `_square` from its module
    assert all(sequences.pair_fast(n) != FFT_PAIRS[n] for n in FFT_INDICES)


# (expression in quadfield.binet, its mutant): U over sqrt d instead of f sqrt d,
# V not divided by s, and beta = alpha.  The kernel unit reads binet through binet_pair.
BINET_MUTANTS = [
    ("QuadRat.of(0, f, d)", "QuadRat.of(0, 1, d)"),
    ("(an + bn) / seq.s", "an + bn"),
    ("QuadRat.of(seq.p, -f, d)", "QuadRat.of(seq.p, f, d)"),
]


@pytest.mark.parametrize("old, new", BINET_MUTANTS, ids=[f"{old} -> {new}" for old, new in BINET_MUTANTS])
def test_binet_constant_fails_the_kernel_unit(monkeypatch, old, new):
    monkeypatch.setattr(quadfield, "binet", recompiled(quadfield.binet, old, new))
    assert caught(verify.kernel(), UNIT_SIZES["kernel"])["label"].startswith("binet")


# -- tail floors ----------------------------------------------------------------

# Each offset shifted by one at one parity, for one family on one shape: e at
# even n, o at odd n, every one derived from the family's Lucas record.
MUTANTS = [(shape, family, parity, delta) for shape, row in tailfloors.SHAPES.items()
           for family in row.families for parity in (0, 1) for delta in (-1, 1)]


def mutant_id(shape, family, parity, delta):
    return f"{family}-{shape} {'eo'[parity]}{delta:+d}"


def test_every_offset_has_its_mutants():
    # 10 shapes of B and C and 4 of G, each offset shifted both ways at both
    # parities, and no row holds a table of them.
    assert len(MUTANTS) == (10 * 2 + 4) * 4 == 96
    assert tailfloors._Shape._fields == ("families", "l", "j", "factors", "alternating")


@pytest.mark.parametrize("shape, family, parity, delta", MUTANTS,
                         ids=[mutant_id(*m) for m in MUTANTS])
def test_shifted_tail_offset_fails_the_plan(monkeypatch, shape, family, parity, delta):
    offset = tailfloors._offset

    def mutant(spec, S, n):
        return offset(spec, S, n) + delta * ((spec.shape, spec.family, n % 2) == (shape, family, parity))

    monkeypatch.setattr(tailfloors, "_offset", mutant)
    spec, n = caught(verify.tailfloors(), UNIT_SIZES["tailfloors"])["params"]
    assert f"family='{family}'" in spec and f"shape='{shape}'" in spec
    assert n % 2 == parity


# The two-factor rows' limit -kappa V(t) U(L)^2 / V(2L), with U(m) and V(m)
# read from the records U(P, 1) and V(P, 1): kappa's sign flipped and kappa
# dropped, V(t) read at t + 1, U(L) not squared, and V(2L) read at L.  Each
# fails 100 to 300 of the plan's 895 tail cases, all on two-factor rows of B
# and C.
LIMIT_MUTANTS = [
    ("_offset", "-kappa", "kappa"),
    ("_offset", "_memo(S, 0) * _memo(S, 2) - _memo(S, 1) ** 2", "0"),
    ("_offset", "_memo(V, t)", "_memo(V, t + 1)"),
    ("_offset", "_memo(U, L) ** 2", "_memo(U, L)"),
    ("_offset", "_memo(V, 2 * L)", "_memo(V, L)"),
]

# (function in tailfloors, expression in it, its mutant): the offset rule, its
# limit and the one backbone, on every row at once.  The closed side's index
# moves alone.
RULE_MUTANTS = [
    ("_offset", "delta if kind == 'U' else 1 - delta", "1 - delta if kind == 'U' else delta"),  # eta
    ("_offset", "(row.l * spec.l * (n - 1) + row.j) % 2 if q == -1 else 0", "0"),  # delta ignored
    ("_offset", "kind == 'U'", "True"),  # kind ignored
    *LIMIT_MUTANTS,
    ("closed_floor", "row.j", "row.j + 1"),
    ("closed_floor", "row.j", "row.j - 1"),
    ("closed_floor", "d0 if row.alternating else -d0", "-d0 if row.alternating else d0"),
]


@pytest.mark.parametrize("name, old, new", RULE_MUTANTS,
                         ids=[f"{name}: {old} -> {new}" for name, old, new in RULE_MUTANTS])
def test_mutated_tail_rule_fails_the_plan(monkeypatch, name, old, new):
    monkeypatch.setattr(tailfloors, name, recompiled(getattr(tailfloors, name), old, new))
    spec, _ = caught(verify.tailfloors(), UNIT_SIZES["tailfloors"])["params"]
    if (name, old, new) in LIMIT_MUTANTS:  # the limit serves the two-factor rows with Q = 1
        assert len(tailfloors.SHAPES[spec.split("shape='")[1].split("'")[0]].factors) == 2, spec
        assert "family='G'" not in spec, spec


# Each shape's backbone sign flipped on that shape alone.
BACKBONE = "d0 if row.alternating else -d0"
BACKBONES = {shape: recompiled(tailfloors.closed_floor, BACKBONE,
                               f"({BACKBONE}) * (-1 if spec.shape == {shape!r} else 1)")
             for shape in tailfloors.SHAPES}


def test_every_shape_has_a_backbone_mutant():
    assert BACKBONES.keys() == tailfloors.SHAPES.keys() and len(BACKBONES) == 14
    # and eleven that break the rule, its limit or the backbone on every shape at once
    assert len(RULE_MUTANTS) == 11


@pytest.mark.parametrize("shape", BACKBONES)
def test_flipped_backbone_fails_the_plan(monkeypatch, shape):
    monkeypatch.setattr(tailfloors, "closed_floor", BACKBONES[shape])
    spec, _ = caught(verify.tailfloors(), UNIT_SIZES["tailfloors"])["params"]
    assert f"shape='{shape}'" in spec


# (expression in tailfloors._enclose, its mutant): the stride-L drift kappa_L
# dropped or read at stride 1, each factor's ratio read at S(m + 1) in place of
# S(m + L), and the second factor's interval dropped on the product rows.  The
# plan's certificates catch only the third and the fourth, since a floor can
# still decide from an unsound enclosure, so each mutant must let the exact
# enclosure miss the 40-term textbook bracket of test_tailfloors.  Dropping
# the 1/(1 - g) factor is left out: the enclosure still contains every deep
# bracket without it.
ENCLOSE_MUTANTS = [
    ("abs(S(0) * S(2 * L) - S(L) ** 2)", "0"),
    ("S(L) ** 2", "S(1) ** 2"),
    ("S(m + L)", "S(m + 1)"),
    ("set(idxs[terms])", "set(idxs[terms][:1])"),
]


@pytest.mark.parametrize("old, new", ENCLOSE_MUTANTS, ids=[f"{old} -> {new}" for old, new in ENCLOSE_MUTANTS])
def test_enclosure_mutant_misses_the_deep_bracket(monkeypatch, old, new):
    monkeypatch.setattr(tailfloors, "_enclose", recompiled(tailfloors._enclose, old, new))
    assert deep_bracket_misses()


# -- convolutions ---------------------------------------------------------------

def reweighted(change):
    """A fresh cache over the uncached row with `change` applied to its
    (tau, A, l1, B, l2): the mutant keeps its own running sums."""
    row = convolutions._row.__wrapped__

    @lru_cache(maxsize=None)
    def mutant(seq, k, r):
        *weights, last = row(seq, k, r)
        return (*change(*weights), last)

    return mutant


ROW_MUTANTS = {
    "tau sign": lambda: reweighted(lambda tau, a1, l1, a2, l2: (-tau, a1, l1, a2, l2)),
    "rot sign": lambda: reweighted(lambda tau, a1, l1, a2, l2: (tau, a1, -l1, a2, -l2)),
    # S(r) and rot without their factor i where tau = -1; recompiled, it is cached afresh
    "twist dropped": lambda: recompiled(convolutions._row.__wrapped__,
                                        "(GaussQuad.of(0, sr, d), GaussQuad.of(0, rot, d))",
                                        "(sr, rot)"),
}


@pytest.mark.parametrize("name", ROW_MUTANTS)
def test_mutated_convolution_row_fails_the_plan(monkeypatch, name):
    monkeypatch.setattr(convolutions, "_row", ROW_MUTANTS[name]())
    caught(verify.convolutions(), UNIT_SIZES["convolutions"])


# -- generating functions ----------------------------------------------------------

@pytest.mark.parametrize("part, index", [("numer", 1), ("denom", 1), ("denom", 2)])
def test_negated_gf_coefficient_fails_the_plan(monkeypatch, part, index):
    gf = genfunc.gf

    def mutant(seq, k, r):
        g = gf(seq, k, r)
        coeffs = list(getattr(g, part))
        coeffs[index] = -coeffs[index]
        return g._replace(**{part: tuple(coeffs)})

    monkeypatch.setattr(genfunc, "gf", mutant)
    caught(verify.genfunc(), UNIT_SIZES["genfunc"])


# -- identities -------------------------------------------------------------------

# (identity name in verify.IDENTITY_GRIDS, expression, its mutant)
IDENTITY_MUTANTS = [
    ("second-order-product", "-35", "-36"),
    ("binomial-plain", "8 ** n", "9 ** n"),
    ("binomial-plain", "4 ** n", "5 ** n"),
    ("binomial-3pow", "2 ** (3 * n // 2) * B(n)", "2 ** (4 * n // 2) * B(n)"),
    ("binomial-3pow", "2 ** (3 * n // 2) * C(n)", "2 ** (4 * n // 2) * C(n)"),
    ("binomial-3pow", "2 ** (3 * (n - 1) // 2) * C(n)", "2 ** (4 * (n - 1) // 2) * C(n)"),
    ("binomial-3pow", "2 ** (3 * (n + 1) // 2) * B(n)", "2 ** (4 * (n + 1) // 2) * B(n)"),
    ("prime-congruence", "3 % p", "4 % p"),
    ("mod-companion", "1 % cm", "2 % cm"),
    ("catalan", "C(n) ** 2 + C(r) ** 2 - 1", "C(n) ** 2 + C(r) ** 2 - 2"),
]

# Identities that verify-all does not run; their mutants are checked on the
# CLI's default grid (--max 40 --max-prime 1000) instead.
PLAN_GAP_MUTANTS = [
    ("odd-sum", "B(2 * i - 1)", "B(2 * i + 1)"),
    ("shifted-product", "B(a + b + 1)", "B(a + b + 2)"),
    ("addition", "cn * cm + 8 * bm * bn", "cn * cm + 7 * bm * bn"),
    ("addition", "cn * cm - 8 * bm * bn", "cn * cm - 7 * bm * bn"),
    ("combination", "2 * B(n) * C(m)", "3 * B(n) * C(m)"),
    ("combination", "2 * C(n) * C(m)", "3 * C(n) * C(m)"),
]


def bind_mutant(monkeypatch, name, old, new):
    attr = verify.IDENTITY_GRIDS[name][0]
    monkeypatch.setattr(identities, attr, recompiled(getattr(identities, attr), old, new))


@pytest.mark.parametrize("name, old, new", IDENTITY_MUTANTS, ids=lambda v: v)
def test_identity_constant_fails_the_plan(monkeypatch, name, old, new):
    bind_mutant(monkeypatch, name, old, new)
    witness = caught(case for case in verify.identities() if case[0] == name)
    assert witness["label"].startswith(name)


def test_plan_gap_is_what_the_cli_grid_covers():
    planned = {case[0] for case in verify.identities()}
    gap = {name for name, _, _ in PLAN_GAP_MUTANTS}
    assert planned.isdisjoint(gap) and planned | gap == verify.IDENTITY_GRIDS.keys()


@pytest.mark.parametrize("name, old, new", PLAN_GAP_MUTANTS, ids=lambda v: v)
def test_identity_constant_outside_the_plan_fails_the_cli_grid(monkeypatch, name, old, new):
    bind_mutant(monkeypatch, name, old, new)
    check, grid = verify.identity_sweep(name, 40, 1000)
    caught(((name, check, params) for params in grid), len(grid))
