import random
from fractions import Fraction
from math import isqrt

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import ln_bounds_fraction, round_down_fraction, round_up_fraction, sqrt_hi
from coverdist.rounding import (
    EGAMMA_EXP_HI,
    EGAMMA_EXP_LO,
    LN2_HI,
    LN2_LO,
    PI_UPPER_C,
    ceil_to_grid,
    ln_bounds,
    round_down,
    round_up,
    round_up_pair,
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


_LN_ARGS = st.one_of(
    st.integers(0, 80).map(lambda k: Fraction(2**k)),
    st.integers(0, 40).map(lambda k: Fraction(729 << k)),
    st.fractions(min_value=1, max_value=10**12, max_denominator=10**9),
    st.fractions(min_value=Fraction(1, 10**9), max_value=1, max_denominator=10**12),
).filter(lambda x: x > 0)


@settings(max_examples=400, deadline=None)
@given(_LN_ARGS, st.sampled_from([(24, 96), (24, 96), (8, 64), (1, 96)]))
@example(Fraction(1), (24, 96))
@example(Fraction(2**19), (24, 96))
@example(Fraction(729 * 2**20), (24, 96))
@example(Fraction(1, 3), (8, 64))
def test_ln_bounds_matches_fraction_oracle(x, opts):
    # the atanh sum on ints gives the same rational as the Fraction loop,
    # so every rounded bound is the same
    assert ln_bounds(x, *opts) == ln_bounds_fraction(x, *opts)


def test_ln_monotone_helpers():
    lo, hi = ln_bounds(Fraction(10))
    assert lo <= hi
    lo, hi = ln_bounds(Fraction(1))
    assert lo <= 0 <= hi
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
        rhs_lo = PI_UPPER_C * p / ln_bounds(Fraction(p), terms=8, bits=64)[1]
        assert k < rhs_lo, f"pi bound fails at {p}"
        margin = rhs_lo / k
        if worst is None or margin < worst[0]:
            worst = (margin, p)
    # the global minimum of the ratio really is at 113
    assert worst[1] == 113
    # small x by hand: pi(2)=1, pi(3)=2, ..., RHS > 1.25506*e > 3.41 for x <= 16
    for x, pi_x in [(2, 1), (3, 2), (5, 3), (7, 4), (11, 5), (13, 6), (16, 6)]:
        rhs_lo = PI_UPPER_C * x / ln_bounds(Fraction(x), terms=8, bits=64)[1]
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


@st.composite
def _sized(draw):
    # a positive int of 95-98 bits, around the 96-bit threshold, or of 1-260 bits
    k = draw(st.one_of(st.integers(95, 98), st.integers(1, 260)))
    return draw(st.integers(1 << (k - 1), (1 << k) - 1))


@st.composite
def _pair(draw):
    num = draw(_sized()) * draw(st.sampled_from([1, -1]))
    if draw(st.booleans()):
        return num, 1 << draw(st.integers(0, 260))  # dyadic
    return num, draw(_sized())


def _branch(num, den, bits):
    e = bits - (num.bit_length() - den.bit_length())
    if num.bit_length() <= bits and den.bit_length() <= bits:
        return "small"
    return "e >= 0" if e >= 0 else "e < 0"


@settings(max_examples=1000, deadline=None)
@given(_pair(), st.sampled_from([96, 96, 64, 8]))
@example(((1 << 97) - 1, 3), 96)  # e >= 0, 97-bit numerator
@example((7, (1 << 98) + 1), 96)  # e >= 0, 99-bit denominator
@example(((1 << 300) + 1, (1 << 97) - 1), 96)  # e < 0
@example((-((1 << 300) + 1), 7), 96)  # e < 0, negative
@example(((1 << 96) + 1, 1 << 97), 96)  # dyadic, rounds to a power-of-two denominator
@example(((1 << 97) - 1, 1 << 100), 96)  # dyadic, strips common powers of two
def test_round_up_pair_matches_fraction_oracle(pair, bits):
    x = Fraction(*pair)
    num, den = x.numerator, x.denominator
    want = round_up_fraction(x, bits)
    assert round_up_pair(num, den, bits) == (want.numerator, want.denominator)
    assert round_up(Fraction(num, den), bits) == want
    assert round_down(x, bits) == round_down_fraction(x, bits)
    # rounding is idempotent, so a block product of 1 changes nothing
    assert round_up_pair(*round_up_pair(num, den, bits), bits) == round_up_pair(num, den, bits)


def test_round_up_pair_reaches_both_branches():
    cases = [Fraction((1 << 97) - 1, 3), Fraction(7, (1 << 98) + 1), Fraction((1 << 300) + 1, 7)]
    got = [_branch(x.numerator, x.denominator, 96) for x in cases]
    assert got == ["e >= 0", "e >= 0", "e < 0"]
    for x in cases:
        want = round_up_fraction(x)
        assert round_up_pair(x.numerator, x.denominator) == (want.numerator, want.denominator)
    # a dyadic input whose rounded numerator is even: Fraction(q, 2^e) strips
    # the shared two, so the result keeps a 97-bit denominator
    assert round_up_pair((1 << 95) + 1, 1 << 96) == ((1 << 95) + 1, 1 << 96)
