"""balkit: exact-arithmetic toolkit for balancing-number sequences.

Sequence kernels, exact Q(sqrt d) / Q(sqrt d)(i) arithmetic, generating
functions, executable identity checks, convolution closed forms, and
certified reciprocal-tail floors, all over arbitrary-precision integers and
rationals with no floating point anywhere.

Each public name below loads its module on first use, so a command imports
only the layers it runs.
"""

from importlib import import_module

_EXPORTS = {
    "convolutions": ("brute_conv", "closed_form_raw", "conv_balancing_r0", "conv_closed"),
    "genfunc": ("RationalGF", "expand", "gf", "series_mul"),
    "identities": ("Verdict", "check_addition", "check_binomial_3pow", "check_binomial_plain",
                   "check_catalan", "check_combination", "check_gcd", "check_mod_companion",
                   "check_odd_index_sum", "check_prime_congruences",
                   "check_second_order_product", "check_shifted_product", "is_prime",
                   "kronecker_p8", "primes_up_to"),
    "quadfield": ("CancellationError", "GaussQuad", "QuadRat", "binet", "binet_pair",
                  "certified_int"),
    "sequences": ("BALANCING", "FIBONACCI", "LUCAS", "LUCAS_BALANCING", "Sequence", "family",
                  "gen_fibonacci", "is_balancing", "pair_fast", "pair_mod", "term", "values"),
    "tailfloors": ("SHAPES", "CertifiedFloor", "TailSpec", "UndecidedIntervalError",
                   "certify_floor", "closed_floor", "threshold", "verified_floor"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    # The submodule's current binding, so a name replaced there is replaced here too.
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
