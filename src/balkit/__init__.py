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
    binet_pair,
    certified_fraction,
    certified_int,
    sqrt_of,
)
from .sequences import (
    BALANCING,
    FIBONACCI,
    LUCAS,
    LUCAS_BALANCING,
    IndexedTerm,
    Sequence,
    family,
    gen_fibonacci,
    is_balancing,
    pair_fast,
    pair_mod,
    stream,
    term,
    values,
)
from .tailfloors import (
    SHAPES,
    CertifiedFloor,
    Interval,
    TailSpec,
    UndecidedIntervalError,
    bracket_tail,
    certify_floor,
    closed_floor,
    refined_bracket,
    threshold,
    verified_floor,
)

__version__ = "0.1.0"
