"""Exact arithmetic for partial sums of the largest-odd-divisor function.

Evaluators for V, U, G and their deviations v, u, g.  Each deviation's
closed form lives once, in deviations, built from two digit kernels (the
digit reversal of n and the zero-digit functional h, from one product
n * reverse(n)), and u and g have an independent recurrence as their
second evaluator.  Each sum is its envelope off by a deviation, with an
O(n) oracle.  Also block extrema of g, the solved equality-set
enumerations, and a checker harness that verifies every sharp bound and
identity mechanically.
"""

from .bitcore import (
    DomainError,
    ResourceLimitError,
    floor_lg,
    format_rational,
    hat,
    parse_rational,
    reverse_digits,
    round_pow2_over_3,
    tilde,
)
from .deviations import (
    dev_g,
    dev_g_closed,
    dev_u,
    dev_u_closed,
    dev_v,
    h_eval,
)
from .extremal import (
    EQUALITY_KINDS,
    LAMBDA_M_CAP,
    ExtremalReport,
    SkeletonPair,
    argmax_g,
    block_g_values,
    equality_set,
    lambda_block,
    lambda_block_brute,
    lambda_m,
    perfect_mean_solutions,
    scan_g_below,
    skeleton,
    theta,
)
from .sums import (
    CESARO_FUNCTIONS,
    DEFAULT_BRUTE_CAP,
    alpha,
    cesaro_limit,
    cesaro_mean,
    g_brute,
    g_fast,
    scan_sums,
    u_brute,
    u_fast,
    v_brute,
    v_fast,
)
from .verify import (
    CLAIMS,
    Counterexample,
    Evaluators,
    RangeConfig,
    THEOREM_IDS,
    VerifyReport,
    check,
    run_all,
)

__version__ = "1.0.0"
