"""coverdist.ntheory and ring._factor_int_budget against sympy as the oracle."""

import random
from math import isqrt, prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.ntheory.primetest import is_strong_lucas_prp

import oracles
from coverdist import NormTooLargeToFactor, ntheory
from coverdist.ring import TRIAL_LIMIT, _factor_int_budget

PSI12 = 318665857834031151167461
PSI13 = 3317044064679887385961981
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 62745, 825265, 321197185]
# strong pseudoprimes: to base 2; to bases 2..7 (psi_4); to bases 2..37 (psi_9)
STRONG_PSP = [2047, 3277, 4033, 4681, 8321, 3215031751, 3825123056546413051]
MERSENNE = [2**61 - 1, 2**89 - 1, 2**127 - 1]  # 2^61 - 1 is inert in Z[i]


def verdict(factor, n):
    try:
        return factor(n)
    except NormTooLargeToFactor:
        return "refused"


def check_against_oracle(n):
    got = verdict(_factor_int_budget, n)
    if got != "refused":
        assert prod(p**e for p, e in got.items()) == n
        assert all(sympy.isprime(p) for p in got)
    try:
        want = verdict(oracles.factor_int_budget_sympy, n)
    except ValueError:
        return  # sympy's Fermat path cached a composite factor; see below
    assert got == want, n


# ---------------------------------------------------------------- primality


@pytest.mark.parametrize(
    "n",
    [PSI12, PSI13, PSI12 - 2, PSI13 + 2, *CARMICHAEL, *STRONG_PSP, *MERSENNE]
    + [2**521 - 1, 2**607 - 1, (2**61 - 1) * (2**62 - 1 + 2**61), 1000003**2],
)
def test_isprime_adversarial(n):
    assert ntheory.isprime(n) == sympy.isprime(n)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.integers(-5, 10**6),
        st.integers(0, 2**64),
        st.integers(2**64, PSI13 + 10**9),
        st.integers(PSI13, 10**60),
    )
)
def test_isprime_matches_sympy(n):
    assert ntheory.isprime(n) == sympy.isprime(n)


def test_strong_lucas_matches_sympy():
    # includes the strong Lucas pseudoprimes 5459, 5777, 10877, 16109, 18971
    for n in range(53, 20000, 2):
        if all(n % p for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)):
            assert ntheory._strong_lucas_prp(n) == is_strong_lucas_prp(n), n
    for n in MERSENNE + [PSI13, (2**61 - 1) * (2**89 - 1)]:
        assert ntheory._strong_lucas_prp(n) == is_strong_lucas_prp(n), n


# ------------------------------------------------------------- square roots


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([3221225473, 17, 41, 73, 97, 113, 1000033, 2**61 - 1, 10007]),
    st.integers(0, 2**64),
)
def test_sqrt_mod(p, a):
    # 3221225473 = 3*2^30 + 1 takes the longest Tonelli-Shanks loop;
    # 17 ... 113 and 1000033 are 1 mod 8
    if a % p and pow(a, (p - 1) // 2, p) == p - 1:  # a is not a square
        with pytest.raises(ValueError):
            ntheory.sqrt_mod(a, p)
    else:
        r = ntheory.sqrt_mod(a, p)
        assert 0 <= r < p and r * r % p == a % p


# ------------------------------------------------------------ integer roots


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**3000), st.integers(1, 200))
def test_iroot_matches_sympy(n, k):
    assert ntheory.iroot(n, k) == sympy.integer_nthroot(n, k)[0]


@pytest.mark.parametrize(
    "m,k", [(1000003, 17), (1000003, 15), (1000003, 2), (2**89 - 1, 6), (10**12 + 39, 5)]
)
def test_perfect_power_largest_exponent(m, k):
    # 1000003^17 has 339 bits, fewer than 20*17: the exponent bound is bits/19
    assert ntheory.perfect_power(m**k) == (m, k)
    assert ntheory.perfect_power(m**k * 1000033) == (m**k * 1000033, 1)


def test_pollard_brent_splits():
    for p, q in [(1000003, 1000033), (1000000007, 1000000000039), (999999000001, 1000003)]:
        for n in (p * q, p * p * q):
            d = ntheory.pollard_brent(n)
            assert 1 < d < n and n % d == 0


# ---------------------------------------------------- factoring vs the oracle


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(1, 10**9), st.integers(1, 10**30)))
def test_factor_matches_oracle(n):
    check_against_oracle(n)


def test_factor_random_matches_oracle():
    rng = random.Random(11)
    for n in [rng.randrange(1, 10**9) for _ in range(300)]:
        check_against_oracle(n)
    for n in [rng.randrange(1, 10**30) for _ in range(120)]:
        check_against_oracle(n)


def _primes_above(x, count):
    out = [sympy.nextprime(x)]
    while len(out) < count:
        out.append(sympy.nextprime(out[-1]))
    return [int(p) for p in out]


@pytest.mark.parametrize("base", [10**6, 10**12, 10**13])
def test_factor_structured_matches_oracle(base):
    p, q, r = _primes_above(base, 3)
    # (p*q)^2: sympy's trial stage returns {p*q: 2}
    for n in (p * q, (p * q) ** 2, p**2, p**3, p**2 * q, p * q * r, 6 * p**3 * q):
        check_against_oracle(n)


@pytest.mark.parametrize(
    "n",
    [PSI12, PSI13, *CARMICHAEL, *STRONG_PSP, *MERSENNE, 1000003**2 * 1000000000039]
    + [3 * (2**61 - 1) ** 2, 100000000003 * 1000000000000037]
    + [pytest.param(2**4423 - 1, id="2^4423-1")],
)
def test_factor_adversarial_matches_oracle(n):
    check_against_oracle(n)


# ------------------------------------------- where the refusal sets differ
#
# sympy ran its three Fermat steps on n before its trial division had passed
# about 2^15, so whether it split a cofactor depended on which primes in
# (2^15, 10^6] were still inside. The rule here runs Fermat only on what trial
# division to 10^6 leaves, so n is refused exactly when n with its primes up
# to 10^6 removed is refused.

P = 100003  # a prime in (2^15, 10^6]


def test_refuses_where_sympy_split_before_trial_division():
    a = int(sympy.nextprime(10**30))
    b = int(sympy.nextprime(a // P))  # a is close to P*b, but far from b
    n = a * P * b
    assert oracles.factor_int_budget_sympy(n) == {a: 1, P: 1, b: 1}
    assert verdict(_factor_int_budget, n) == "refused"
    assert verdict(_factor_int_budget, a * b) == "refused"


def test_accepts_where_sympy_ran_fermat_too_early():
    a, b = _primes_above(10**15, 2)
    n = P * a * b
    assert verdict(oracles.factor_int_budget_sympy, n) == "refused"
    assert _factor_int_budget(n) == {P: 1, a: 1, b: 1}
    assert _factor_int_budget(a * b) == {a: 1, b: 1}


def test_refuses_where_sympy_cached_a_composite():
    # the Fermat half 2^89 + 155 = 7703 * 124133 * 1706489 * 379331555297
    n = (2**89 - 1) * (2**89 + 155)
    with pytest.raises(ValueError, match="not a prime factor"):
        oracles.factor_int_budget_sympy(n)
    assert verdict(_factor_int_budget, n) == "refused"


# ------------------------------------------------- blocked trial division

NEAR_TRIAL_LIMIT = [int(p) for p in sympy.primerange(TRIAL_LIMIT - 3000, TRIAL_LIMIT)]
SMALL = [2, 3, 5, 7, 307, 311, 313]  # 311 ends the first 64-prime block, 313 starts the next
COFACTORS = [1, 2**127 - 1, (2**521 - 1) ** 2, (2**607 - 1) ** 23]  # the last: 4,203 digits


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from(NEAR_TRIAL_LIMIT + SMALL), st.integers(1, 3), min_size=1, max_size=6
    ),
    st.sampled_from(COFACTORS),
)
def test_blocked_trial_division_matches_oracle(planted, cofactor):
    # gcds over 64-prime blocks find the same primes up to TRIAL_LIMIT, with
    # the same exponents, as the numpy residues of n modulo every prime did
    n = prod(p**e for p, e in planted.items()) * cofactor
    got = _factor_int_budget(n)
    limit = min(TRIAL_LIMIT, isqrt(n))
    assert {p: e for p, e in got.items() if p <= limit} == oracles.trial_division(n, limit)
    assert prod(p**e for p, e in got.items()) == n
    assert {p: e for p, e in got.items() if p <= TRIAL_LIMIT} == planted
