"""The largest-odd-divisor function and its three partial sums.

alpha(k) is the largest odd divisor of k, so alpha(k)/k = 2**-t with t
the 2-adic valuation of k.  The package studies

    V(n) = sum_{k<=n} alpha(k)/k
    U(n) = sum_{k<=n} alpha(k)
    G(n) = sum_{k<=n} (n+1-k)/k * alpha(k) = (n+1)*V(n) - U(n)

Each sum has two evaluators: a brute one running the defining sum term
by term (the oracle, O(n), guarded by DEFAULT_BRUTE_CAP) and a fast one
in closed form.  The doubling rules

    V(2n) = n + V(n)/2        V(2n+1) = n + 1 + V(n)/2
    U(2n) = n**2 + U(n)       U(2n+1) = (n+1)**2 + U(n)
    G(2n) = n(n+1) + G(n) - V(n)/2
    G(2n+1) = (n+1)**2 + G(n)

are affine, so each sum is its envelope off by a deviation of the
deviations module:

    V(n) = 2n/3 + v(n)      U(n) = (n**2 + n)/3 - u(n)
    G(n) = n(n+2)/3 - g(n)

The fast evaluators are these identities on the deviations' records, where
each digit formula lives once: v_fast reads dev_v, u_fast dev_u_closed and
g_fast dev_g_closed, the (num, den) that eval and table print for v, u and
g, den included.  Each is a deviations.Kernel record: called, V and G
reduce their (num, 3 * 2**m), m = floor_lg(n), by bitcore.dyadic_third, in
linear time and with no math.gcd.  U and G read h at n itself, as
3u(n) = 2h(n) - n, and cost what h does, one product: O(M(m)), M(m) the
cost of an m-bit product.  KERNELS lists the nine shipped records by name;
verify, table and scan g-below read a record by its type, through its core
at one n and its column over a window.

Also here: the Cesaro means (1/n) sum f(k/n) alpha(k)/k for a few fixed
profiles f, which tend to (2/3) * integral of f over [0, 1].
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator

from .bitcore import DomainError, check_cap
from .deviations import Kernel, dev_g, dev_g_closed, dev_u, dev_u_closed, dev_v, h_eval

__all__ = [
    "CESARO_FUNCTIONS",
    "CESARO_INV1PX_CAP",
    "CESARO_X2_WIDTH_CAP",
    "DEFAULT_BRUTE_CAP",
    "KERNELS",
    "alpha",
    "cesaro_limit",
    "cesaro_mean",
    "g_brute",
    "g_fast",
    "scan_sums",
    "u_brute",
    "u_fast",
    "v_brute",
    "v_fast",
]

# The one bound on every brute-force oracle and scan, read at each call
DEFAULT_BRUTE_CAP = 1 << 22


def alpha(k: int) -> int:
    """Largest odd divisor of k >= 1: k with its trailing zero digits dropped."""
    if k <= 0:
        raise DomainError("alpha requires k >= 1")
    return k >> ((k & -k).bit_length() - 1)


def _check_brute_cap(what: str, count: int) -> None:
    check_cap(what, count, __name__, "DEFAULT_BRUTE_CAP")


def v_brute(n: int) -> Fraction:
    """V(n) straight from the definition, one exact term per k."""
    if n <= 0:
        raise DomainError("v_brute requires n >= 1")
    _check_brute_cap("the number of terms n", n)
    total = Fraction(0)
    for k in range(1, n + 1):
        total += Fraction(alpha(k), k)
    return total


def u_brute(n: int) -> int:
    """U(n) straight from the definition.  U(0) = 0 (empty sum)."""
    if n < 0:
        raise DomainError("u_brute requires n >= 0")
    _check_brute_cap("the number of terms n", n)
    return sum(alpha(k) for k in range(1, n + 1))


def g_brute(n: int) -> Fraction:
    """G(n) straight from the definition, triangular weights included."""
    if n <= 0:
        raise DomainError("g_brute requires n >= 1")
    _check_brute_cap("the number of terms n", n)
    total = Fraction(0)
    for k in range(1, n + 1):
        total += Fraction((n + 1 - k) * alpha(k), k)
    return total


def scan_sums(limit: int) -> Iterator[tuple[int, Fraction, int, Fraction]]:
    """Yield (n, V(n), U(n), G(n)) for n = 1..limit by running the sums.

    The running V is held over one power-of-two denominator covering the
    whole range, so each step is pure integer work; G comes from the
    defining identity G = (n+1)V - U.
    """
    if limit <= 0:
        raise DomainError("scan_sums requires limit >= 1")
    _check_brute_cap("the scan limit", limit)
    scale_bits = limit.bit_length()
    v_num = 0
    u = 0
    for n in range(1, limit + 1):
        # alpha(n)/n == 2**-t, t the number of trailing zero digits of n
        t = (n & -n).bit_length() - 1
        v_num += 1 << (scale_bits - t)
        u += n >> t
        yield (
            n,
            Fraction(v_num, 1 << scale_bits),
            u,
            Fraction((n + 1) * v_num - (u << scale_bits), 1 << scale_bits),
        )


def _envelope(name: str, low: int, deviation: Kernel, rule: Callable) -> Kernel:
    """The sum's Kernel, named name for n >= low, off its deviation's record:
    rule(n, (num, den)) takes the deviation's pair at n to the sum's, read at
    one n from deviation.core and over a window from deviation.column."""

    def core(n: int) -> tuple[int, int]:
        if n < low:
            raise DomainError(f"{name} requires n >= {low}")
        return rule(n, deviation.core(n))

    return Kernel(name, core, lambda w: map(rule, w.ns, deviation.column(w)))


# V(n) = 2n/3 + v(n), U(n) = (n**2 + n)/3 - u(n) and G(n) = n(n+2)/3 - g(n),
# over the deviation's den p[1]: 3 * 2**m for v and g, 3 for u (U's is 1)
v_fast = _envelope("v_fast", 1, dev_v, lambda n, p: (
    (n << p[1].bit_length() - 1) + p[0], p[1]))  # fmt: skip
u_fast = _envelope("u_fast", 0, dev_u_closed, lambda n, p: (
    ((n * n + n) * p[1] // 3 - p[0]) // p[1], 1))  # fmt: skip
g_fast = _envelope("g_fast", 1, dev_g_closed, lambda n, p: (
    (n * (n + 2) << p[1].bit_length() - 2) - p[0], p[1]))  # fmt: skip

# The nine shipped kernels, by name
KERNELS = {kernel.name: kernel for kernel in (
    v_fast, u_fast, g_fast, dev_v, dev_u, dev_g, dev_u_closed, dev_g_closed, h_eval
)}  # fmt: skip


CESARO_FUNCTIONS = ("const1", "x", "x2", "inv1px")

# cesaro_mean("x2", n) refuses a wider n: _sum_k_alpha takes one step of
# shifts and sums on numbers 3 times as wide as n per digit, so its cost
# grows about 3.5x per doubling of the width (0.2-0.4 s at 2**14 bits on 2
# cores, Python 3.11).
CESARO_X2_WIDTH_CAP = 1 << 14

# cesaro_mean("inv1px", n) refuses a larger n: _tree_sum reduces the product
# of all n denominators (2.2 s at 2**16, 31 s at 2**18 on 2 cores, Python 3.11).
CESARO_INV1PX_CAP = 1 << 16

_CESARO_LIMITS = {
    "const1": Fraction(2, 3),
    "x": Fraction(1, 3),
    "x2": Fraction(2, 9),
    "inv1px": None,  # (2/3) ln 2, irrational
}


def cesaro_limit(function_id: str) -> Fraction | None:
    """Exact limit (2/3) * integral of f over [0,1]; None when irrational."""
    if function_id not in _CESARO_LIMITS:
        raise ValueError(f"unknown cesaro function {function_id!r}")
    return _CESARO_LIMITS[function_id]


def _sum_k_alpha(n: int) -> int:
    """sum_{k<=n} k * alpha(k), one digit pass.

    Doubling adds the odd squares below 2p: W(2p) = p(4p^2-1)/3 + 2W(p),
    W(2p+1) = W(2p) + (2p+1)^2.  The pass carries 3W and the first three
    powers of the prefix p, so a digit costs shifts and sums, no product.
    """
    triple = p = p2 = p3 = 0  # 3W(p), p, p**2 and p**3 of the prefix p
    for digit in map(int, bin(n)[2:]):
        triple = 4 * p3 - p + 2 * triple + 3 * digit * (4 * p2 + 4 * p + 1)
        p3 = 8 * p3 + digit * (12 * p2 + 6 * p + 1)
        p2 = 4 * p2 + digit * (4 * p + 1)
        p = 2 * p + digit
    return triple // 3


def _tree_sum(pairs: list[tuple[int, int]]) -> Fraction:
    """Sum num/den pairs by pairwise merging, reducing only at the end."""
    while len(pairs) > 1:
        merged = []
        for i in range(0, len(pairs) - 1, 2):
            a, b = pairs[i]
            c, d = pairs[i + 1]
            merged.append((a * d + c * b, b * d))
        if len(pairs) % 2:
            merged.append(pairs[-1])
        pairs = merged
    return Fraction(*pairs[0])


def cesaro_mean(function_id: str, n: int) -> Fraction:
    """Exact mean (1/n) sum_{k<=n} f(k/n) alpha(k)/k for a built-in f.

    const1, x and x2 reduce to V(n)/n, U(n)/n**2 and W(n)/n**3.  const1
    and x run the fast kernels; x2 walks the digits of n, carrying the
    powers of the prefix, so its cost grows about 3.5x per doubling of the
    width, and it raises ResourceLimitError, before any work, for n wider than
    CESARO_X2_WIDTH_CAP bits.  inv1px, meaning f(x) = 1/(1+x), sums n
    terms 1/(2**t (n+k)) exactly and refuses n past CESARO_INV1PX_CAP.
    """
    if n <= 0:
        raise DomainError("cesaro_mean requires n >= 1")
    if function_id == "const1":
        return v_fast(n) / n
    if function_id == "x":
        return Fraction(u_fast(n), n * n)
    if function_id == "x2":
        width = n.bit_length()
        check_cap("the width of n in bits", width, __name__, "CESARO_X2_WIDTH_CAP")
        return Fraction(_sum_k_alpha(n), n**3)
    if function_id == "inv1px":
        check_cap("n", n, __name__, "CESARO_INV1PX_CAP")
        # the 1/n prefactor cancels: (1/n) f(k/n) alpha(k)/k = 1/(2**t (n+k))
        terms = [(1, (n + k) << ((k & -k).bit_length() - 1)) for k in range(1, n + 1)]
        return _tree_sum(terms)
    raise ValueError(f"unknown cesaro function {function_id!r}")
