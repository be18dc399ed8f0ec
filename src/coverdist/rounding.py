"""Directed rational rounding, a lower bound for sqrt, two-sided bounds
for log, and classical prime-counting constants.

Everything returns Fraction values that bound the target real from the
requested side, so downstream inequality checks stay exact. Interval
literals below are pinned by tests against independent high-precision
evaluation (mpmath).
"""

from fractions import Fraction
from math import isqrt

DEFAULT_BITS = 96

# ln 2
LN2_LO = Fraction(6931471805599453094, 10**19)
LN2_HI = Fraction(6931471805599453095, 10**19)

# exp(Euler gamma)
EGAMMA_EXP_LO = Fraction(17810724179901979852, 10**19)
EGAMMA_EXP_HI = Fraction(17810724179901979853, 10**19)

# Mertens constant B from sum_{p <= x} 1/p = loglog x + B + O(1/log^2 x)
MERTENS_B_LO = Fraction(2614972128, 10**10)
MERTENS_B_HI = Fraction(2614972129, 10**10)

# sum over all rational primes of 1/p^2 = 0.4522474200... (upper bound)
PRIME_RECIP_SQ_HI = Fraction(45225, 10**5)

# pi(x) < PI_UPPER_C * x / log x for x > 1 (Rosser-Schoenfeld)
PI_UPPER_C = Fraction(125506, 10**5)


def round_up(x, bits=DEFAULT_BITS):
    """Rational >= x whose numerator and denominator fit in about `bits` bits."""
    num, den = x.numerator, x.denominator
    if num.bit_length() <= bits and den.bit_length() <= bits:
        return x
    e = bits - (num.bit_length() - den.bit_length())
    if e >= 0:
        q, r = divmod(num << e, den)
        return Fraction(q + (1 if r else 0), 1 << e)
    q, r = divmod(num, den << -e)
    return Fraction((q + (1 if r else 0)) << -e, 1)


def round_down(x, bits=DEFAULT_BITS):
    """Rational <= x whose numerator and denominator fit in about `bits` bits."""
    num, den = x.numerator, x.denominator
    if num.bit_length() <= bits and den.bit_length() <= bits:
        return x
    e = bits - (num.bit_length() - den.bit_length())
    if e >= 0:
        return Fraction((num << e) // den, 1 << e)
    return Fraction((num // (den << -e)) << -e, 1)


def sqrt_lo(x, bits=DEFAULT_BITS):
    """Rational lower bound on sqrt(x), x >= 0."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("sqrt of negative")
    s = isqrt((x.numerator << (2 * bits)) // x.denominator)
    return Fraction(s, 1 << bits)


def _atanh_sum(u, terms):
    # 2 * sum_{i < terms} u^(2i+1)/(2i+1), plus an upper bound on the tail
    s = Fraction(0)
    p = u
    u2 = u * u
    for i in range(terms):
        s += p / (2 * i + 1)
        p *= u2
    tail = 2 * p / ((2 * terms + 1) * (1 - u2))
    return 2 * s, tail


def ln_bounds(x, terms=24, bits=DEFAULT_BITS):
    """(lo, hi) rational bounds on ln(x) for rational x > 0.

    Writes x = 2^k * m with m in [1, 2), then ln m = 2 atanh((m-1)/(m+1))
    with an explicit tail bound; larger `terms` tightens the interval.
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError("log of non-positive")
    num, den = x.numerator, x.denominator
    k = num.bit_length() - den.bit_length()
    # ensure 2^k <= x < 2^(k+1)
    if (num < den << k) if k >= 0 else (num << -k) < den:
        k -= 1
    m = x / Fraction(2) ** k
    u = (m - 1) / (m + 1)
    s, tail = _atanh_sum(u, terms)
    lo = k * (LN2_LO if k >= 0 else LN2_HI) + s
    hi = k * (LN2_HI if k >= 0 else LN2_LO) + s + tail
    return round_down(lo, bits), round_up(hi, bits)


def ln_hi(x, terms=24, bits=DEFAULT_BITS):
    return ln_bounds(x, terms, bits)[1]


def ceil_to_grid(x, grid):
    """Smallest multiple of `grid` that is >= x."""
    grid = Fraction(grid)
    q = x / grid
    n = -((-q.numerator) // q.denominator)  # ceil
    return n * grid
