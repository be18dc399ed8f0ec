"""Directed rational rounding, a lower bound for sqrt, two-sided bounds
for log, and classical prime-counting constants.

Everything returns Fraction values that bound the target real from the
requested side, so downstream inequality checks stay exact. The one
exception is round_up_pair, the same upward rounding on a reduced
(numerator, denominator) pair of ints, for loops that would otherwise pay
for a Fraction per step. It is the one directed rounding: round_up is a
thin wrapper over it, and round_down(x) is -round_up(-x). Interval
literals below are pinned by tests against independent high-precision
evaluation (mpmath).
"""

from fractions import Fraction
from math import gcd, isqrt, lcm

DEFAULT_BITS = 96

# ln 2
LN2_LO = Fraction(6931471805599453094, 10**19)
LN2_HI = Fraction(6931471805599453095, 10**19)

# exp(Euler gamma)
EGAMMA_EXP_LO = Fraction(17810724179901979852, 10**19)
EGAMMA_EXP_HI = Fraction(17810724179901979853, 10**19)

# pi(x) < PI_UPPER_C * x / log x for x > 1 (Rosser-Schoenfeld)
PI_UPPER_C = Fraction(125506, 10**5)


def round_up_pair(num, den, bits=DEFAULT_BITS):
    """round_up on a reduced pair of ints: the reduced (num, den) of a
    rational >= num/den whose parts fit in about `bits` bits."""
    if num.bit_length() <= bits and den.bit_length() <= bits:
        return num, den
    e = bits - (num.bit_length() - den.bit_length())
    if e >= 0:
        q, r = divmod(num << e, den)
        q += 1 if r else 0
        # strip the powers of two that q shares with 2^e
        k = min((q & -q).bit_length() - 1, e)
        return q >> k, 1 << (e - k)
    q, r = divmod(num, den << -e)
    return (q + (1 if r else 0)) << -e, 1


def round_up(x, bits=DEFAULT_BITS):
    """Rational >= x whose numerator and denominator fit in about `bits` bits."""
    return Fraction(*round_up_pair(x.numerator, x.denominator, bits))


def round_down(x, bits=DEFAULT_BITS):
    """Rational <= x whose numerator and denominator fit in about `bits` bits."""
    return -round_up(-x, bits)


def sqrt_lo(x, bits=DEFAULT_BITS):
    """Rational lower bound on sqrt(x), x >= 0."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("sqrt of negative")
    s = isqrt((x.numerator << (2 * bits)) // x.denominator)
    return Fraction(s, 1 << bits)


def _atanh_sum(a, b, terms):
    # 2 * sum_{i < terms} u^(2i+1)/(2i+1) at u = a/b in [0, 1), plus an upper
    # bound on the tail, summed on ints over the one common denominator
    # b^(2 terms - 1) * lcm(1, 3, ..., 2 terms - 1)
    lc = lcm(*range(1, 2 * terms, 2))
    a2, b2 = a * a, b * b
    acc = 0
    pb = 1  # b^(2 (terms - 1 - i)) at step i
    for i in reversed(range(terms)):
        acc = acc * a2 + lc // (2 * i + 1) * pb
        pb *= b2
    den = pb // b  # b^(2 terms - 1)
    s = Fraction(2 * a * acc, den * lc)
    tail = Fraction(2 * a * a2**terms, den * (2 * terms + 1) * (b2 - a2))
    return s, tail


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
    if k >= 0:
        den <<= k
    else:
        num <<= -k
    g = gcd(num - den, num + den)  # u = (m-1)/(m+1) with m = num/den
    s, tail = _atanh_sum((num - den) // g, (num + den) // g, terms)
    lo = k * (LN2_LO if k >= 0 else LN2_HI) + s
    hi = k * (LN2_HI if k >= 0 else LN2_LO) + s + tail
    return round_down(lo, bits), round_up(hi, bits)


def ceil_to_grid(x, grid):
    """Smallest multiple of `grid` that is >= x."""
    grid = Fraction(grid)
    q = x / grid
    n = -((-q.numerator) // q.denominator)  # ceil
    return n * grid
