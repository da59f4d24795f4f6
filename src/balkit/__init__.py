"""balkit: exact-arithmetic toolkit for balancing-number sequences.

Sequence kernels, exact Q(sqrt d) / Q(sqrt d)(i) arithmetic, generating
functions, executable identity checks, convolution closed forms, and
certified reciprocal-tail floors, all over arbitrary-precision integers and
rationals with no floating point anywhere.
"""

from .convolutions import (
    brute_conv,
    closed_form_raw,
    conv_balancing_r0,
    conv_closed,
)
from .genfunc import RationalGF, expand, gf, series_mul
from .identities import (
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
    primes_up_to,
)
from .quadfield import (
    CancellationError,
    GaussQuad,
    QuadRat,
    binet,
    binet_pair,
    certified_int,
)
from .sequences import (
    BALANCING,
    FIBONACCI,
    LUCAS,
    LUCAS_BALANCING,
    Sequence,
    family,
    gen_fibonacci,
    is_balancing,
    pair_fast,
    pair_mod,
    term,
    values,
)
from .tailfloors import (
    SHAPES,
    CertifiedFloor,
    TailSpec,
    UndecidedIntervalError,
    certify_floor,
    closed_floor,
    threshold,
    verified_floor,
)

__version__ = "0.1.0"
