import random
from fractions import Fraction
from math import isqrt

import mpmath
import pytest

from oracles import sqrt_hi
from coverdist.rounding import (
    EGAMMA_EXP_HI,
    EGAMMA_EXP_LO,
    LN2_HI,
    LN2_LO,
    MERTENS_B_HI,
    MERTENS_B_LO,
    PI_UPPER_C,
    PRIME_RECIP_SQ_HI,
    ceil_to_grid,
    ln_bounds,
    ln_hi,
    round_down,
    round_up,
    sqrt_lo,
)

mpmath.mp.dps = 60


def mpf_frac(x, prec=60):
    return Fraction(mpmath.nstr(x, prec, strip_zeros=False).rstrip("."))


def test_literal_ln2():
    true = mpf_frac(mpmath.ln(2))
    assert LN2_LO <= true <= LN2_HI
    assert LN2_HI - LN2_LO == Fraction(1, 10**19)


def test_literal_exp_gamma():
    true = mpf_frac(mpmath.exp(mpmath.euler))
    assert EGAMMA_EXP_LO <= true <= EGAMMA_EXP_HI


def test_literal_mertens_b():
    # B = gamma + sum over p of (ln(1 - 1/p) + 1/p) = 0.26149721...
    true = mpf_frac(mpmath.mertens)
    assert MERTENS_B_LO <= true <= MERTENS_B_HI


def test_literal_prime_recip_sq():
    # sum of 1/p^2 = P(2) = 0.45224742...; the stored literal is an upper bound
    true = mpf_frac(mpmath.primezeta(2))
    assert true <= PRIME_RECIP_SQ_HI
    assert PRIME_RECIP_SQ_HI - true < Fraction(1, 10**4)


def test_pi_upper_constant():
    assert PI_UPPER_C == Fraction(125506, 100000)


def test_round_directions():
    rng = random.Random(7)
    for _ in range(500):
        num = rng.randrange(-(10**30), 10**30)
        den = rng.randrange(1, 10**25)
        x = Fraction(num, den)
        up = round_up(x)
        dn = round_down(x)
        assert dn <= x <= up
        assert up - dn <= abs(x) * Fraction(1, 2**94) + Fraction(1, 2**94)


def test_round_small_passthrough():
    x = Fraction(3, 7)
    assert round_up(x) >= x and round_down(x) <= x
    assert round_up(Fraction(5)) == 5
    assert round_down(Fraction(-5)) == -5
    assert round_up(Fraction(0)) == 0 and round_down(Fraction(0)) == 0


def test_sqrt_bounds():
    rng = random.Random(11)
    for _ in range(300):
        x = Fraction(rng.randrange(1, 10**18), rng.randrange(1, 10**9))
        lo = sqrt_lo(x)
        hi = sqrt_hi(x)
        assert lo * lo <= x <= hi * hi
        assert lo <= hi
        # relative gap around 2^-48 or better for these sizes
        assert hi - lo <= lo / 2**40 + Fraction(1, 2**40)


def test_sqrt_exact_squares():
    for n in [1, 4, 9, 10**12, 17**2]:
        assert sqrt_lo(Fraction(n)) ** 2 <= n <= sqrt_hi(Fraction(n)) ** 2


def test_ln_bounds_against_mpmath():
    rng = random.Random(13)
    cases = [Fraction(2), Fraction(3), Fraction(10), Fraction(1, 2), Fraction(285)]
    for _ in range(120):
        cases.append(Fraction(rng.randrange(1, 10**12), rng.randrange(1, 10**6)))
    for x in cases:
        lo, hi = ln_bounds(x)
        true = mpf_frac(mpmath.ln(mpmath.mpf(x.numerator) / x.denominator))
        assert lo <= true <= hi, x
        # the interval width is dominated by k * (LN2 literal gap of 1e-19)
        assert hi - lo < Fraction(1, 10**16), x


def test_ln_monotone_helpers():
    assert ln_bounds(Fraction(10))[0] <= ln_hi(Fraction(10))
    assert ln_bounds(Fraction(1))[0] <= 0 <= ln_hi(Fraction(1))
    with pytest.raises(ValueError):
        ln_bounds(Fraction(0))


def test_ceil_to_grid():
    assert ceil_to_grid(Fraction(8078121, 1000000), Fraction(1, 1000)) == Fraction(8079, 1000)
    assert ceil_to_grid(Fraction(3), Fraction(1, 1000)) == 3
    assert ceil_to_grid(Fraction(-1, 3), Fraction(1, 4)) == Fraction(-1, 4)


def test_pi_upper_bound_literal_sharp():
    # pi(x) < 1.25506 x / ln x for x > 1; equality is closest at x = 113
    # (pi = 30). Verify the certified form at every prime below 10**6.
    from sympy import primerange

    limit = 10**6
    primes = list(primerange(2, limit))
    k = 0
    worst = None
    for p in primes:
        k += 1
        if p < 17:
            continue
        # RHS lower bound via ln upper bound
        rhs_lo = PI_UPPER_C * p / ln_hi(Fraction(p), terms=8, bits=64)
        assert k < rhs_lo, f"pi bound fails at {p}"
        margin = rhs_lo / k
        if worst is None or margin < worst[0]:
            worst = (margin, p)
    # the global minimum of the ratio really is at 113
    assert worst[1] == 113
    # small x by hand: pi(2)=1, pi(3)=2, ..., RHS > 1.25506*e > 3.41 for x <= 16
    for x, pi_x in [(2, 1), (3, 2), (5, 3), (7, 4), (11, 5), (13, 6), (16, 6)]:
        rhs_lo = PI_UPPER_C * x / ln_hi(Fraction(x), terms=8, bits=64)
        assert pi_x < rhs_lo or x < 3  # x = 2: 1 < 1.25506*2/0.694 = 3.61
        if x == 2:
            assert Fraction(1) < rhs_lo


def test_sqrt_is_monotone_interface():
    xs = sorted(Fraction(n, 7) for n in range(1, 50))
    los = [sqrt_lo(x) for x in xs]
    his = [sqrt_hi(x) for x in xs]
    assert los == sorted(los)
    assert his == sorted(his)


def test_isqrt_agreement():
    for n in range(1, 2000):
        x = Fraction(n)
        assert sqrt_lo(x) >= isqrt(n) - 1
        assert sqrt_hi(x) <= isqrt(n) + 2
