"""Certified majorants for the distortion construction.

Analytic bounds (directed rounding, always from above):
  - rankin_W: the Rankin trick on moduli of norm > x,
  - eta2_major: tail contribution of levels above the threshold y, summed
    over dyadic blocks whose y-free values are computed once per block end,
  - effective_bound: one exact search picks y and its eta2, then w and x
    with eta1 + eta2 < 1 follow once, over the prime norms the search
    already produced, and are checked as verify_certificate does.

Moduli certificates (exact Fractions, no rounding): certify_moduli sums
per level the moment majorant m1 (valid while every earlier delta is 0)
or m2 (valid for any deltas in [0, 1/2]) from the multiplicity s and the
prime norms alone.

Everything is exact integer and rational arithmetic over prime norms
(array('q') from ring), all on the standard library, so no function here
loads numpy. certify_moduli factors its moduli through system without it.

The explicit inequalities used are classical (Rosser and Schoenfeld,
"Approximate formulas for some functions of prime numbers", 1962):
  pi(z) < 1.25506 z / log z                       (z > 1)
  prod_{p <= z} (1-1/p)^-1 < e^g log z (1 + 1/(2 log^2 z))   (z > 1)
  prod_{p <= y} (1-1/p)^-1 > e^g log y (1 - 1/(2 log^2 y))   (y >= 285)
with e^g = exp(Euler gamma). The y >= 285 requirement is absorbed by the
floor Y_MIN = 512.
"""

import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from heapq import merge
from itertools import repeat
from math import gcd, isqrt, prod
from operator import add, sub
from typing import NamedTuple

from . import kernels, ring
from .errors import InputError, ResourceError, SieveTooLarge, SoundnessError, YTooSmall
from .rounding import (
    EGAMMA_EXP_HI,
    EGAMMA_EXP_LO,
    PI_UPPER_C,
    ceil_to_grid,
    ln_bounds,
    round_down,
    round_up,
    round_up_pair,
    sqrt_lo,
)

HALF = Fraction(1, 2)
Y_MIN = 512
LOG_CLOSE = 24  # close the tail once log A >= 24, where (log q)^12/sqrt(q) decays
SQRT_BITS = 48


# ------------------------------------------------------------- moment majorants


def _m1_euler(field, s, q):
    # s/(q-1) * prod over prime norms n < q of (1 - 1/n)^-1
    norms = ring.prime_norms_up_to(field, q - 1).tolist()
    return Fraction(s * prod(norms), (q - 1) * prod(n - 1 for n in norms))


def _check_m1_printable(field, q):
    # Refuse an m1 row whose decimal form would pass the int-to-str digit
    # limit, before the product that builds it. Every rational prime p >= 5
    # in (q/2, q) that is a prime norm divides the reduced numerator of
    # _m1_euler(field, s, q): q - 1 and each n - 1 lie below 2p, so p could
    # divide one only as p + 1 = n or q, an even prime norm and so 2 or 4.
    # Their product divides it too, so once that reaches 10^limit the row
    # has more than limit digits.
    # Windows of (q/2, q) that double from 2^12 stop at the first product
    # past the limit, so the refusal sieves a few thousand numbers, not q/2.
    limit = sys.get_int_max_str_digits()
    if not limit:
        return
    if q - 1 > kernels.SIEVE_MAX:  # as _m1_euler's sieve would refuse
        raise SieveTooLarge(f"sieve limit {q - 1} exceeds {kernels.SIEVE_MAX}")
    top, num = 10**limit, 1
    lo, width = max(q // 2, 4), 2**12
    while lo < q - 1:
        hi = min(lo + width, q - 1)
        # a rational prime is a prime norm unless it is inert
        unram, ram, _ = ring._split_primes(field, hi, lo)
        for p in merge(unram, ram):
            num *= p
            if num >= top:
                raise ResourceError(
                    f"the m1 row at norm {q} has over {limit} digits, too large to print"
                )
        lo, width = hi, 2 * width


def _m2_history(s, q, history):
    # s^2/(q-1)^2 * prod over (n, delta) in history of 1 + (3n-1)/((1-delta)(n-1)^2)
    out = Fraction(s * s, (q - 1) ** 2)
    for n, delta in history:
        out *= 1 + Fraction(3 * n - 1, (n - 1) ** 2) / (1 - delta)
    return out


# ------------------------------------------------------------ analytic layer


def rankin_W(field, y):
    """Certified upper bound on prod over prime norms q <= y of (1-q^-1/2)^-1,
    quantized up to the next multiple of 1/1000."""
    return _rankin_fold(ring.prime_norms_up_to(field, y))


def _rankin_fold(norms):
    # rankin_W over an ascending norms array; the accumulator is a reduced
    # (num, den) pair, rounded up once per prime. Equal norms (the two
    # primes above a split p) are adjacent and share one square root.
    num = den = 1
    shift = 1 << SQRT_BITS
    last = n = 0
    for q in norms:
        if q != last:  # n/2^k <= sqrt(q), so n/(n-2^k) >= ...
            last, n = q, isqrt(q << (2 * SQRT_BITS))
        a, b = n * num, (n - shift) * den
        g = gcd(a, b)
        num, den = round_up_pair(a // g, b // g)
    return ceil_to_grid(Fraction(num, den), Fraction(1, 1000))


def _p_small_fold(norms, start=Fraction(1)):
    # certified-up product of q(q+1)/(q-1)^2 (delta = 0) over ascending prime
    # norms q onto start, rounded up once per 64 norms
    num, den = start.numerator, start.denominator
    for i in range(0, len(norms), 64):
        block = norms[i : i + 64]
        a = num * prod(block) * prod(map(add, block, repeat(1)))
        b = den * prod(map(sub, block, repeat(1))) ** 2
        g = gcd(a, b)
        num, den = round_up_pair(a // g, b // g)
    return Fraction(num, den)


def _mertens_prod_hi(lz_lo, lz_hi):
    # upper bound on prod_{p <= z} (1-1/p)^-1 given bounds on log z
    return EGAMMA_EXP_HI * lz_hi * (1 + 1 / (2 * lz_lo * lz_lo))


def _mertens_prod_lo(ly_lo):
    # lower bound on the same at y (valid for y >= 285); t - 1/(2t) increases
    return EGAMMA_EXP_LO * ly_lo * (1 - 1 / (2 * ly_lo * ly_lo))


def eta2_major(field, s, y):
    """Certified upper bound on the total contribution of levels with prime
    norm above y, under the threshold policy (delta = 0 up to y, 1/2 beyond),
    for any system of multiplicity <= s. Scales as s^2 times an s-free base.
    """
    if s < 1:
        raise InputError("s must be >= 1")
    y = int(y)
    if y < Y_MIN:
        raise YTooSmall(f"y = {y} is below the supported floor {Y_MIN}")
    return _eta2(s, _p_small_fold(ring.prime_norms_up_to(field, y)), y)


def _eta2(s, p_small, y):
    # eta2_major given P_small, the _p_small_fold of the prime norms <= y
    return round_up(s * s * round_up(p_small * _eta2_tail(y)))


def _eta2_tail(y):
    # The y-only factor of the s-free base of eta2_major, unrounded.
    # Each level at prime norm q > y contributes at most
    #   s^2/(q-1)^2 * P_small * prod over norms q' in (y, q) of g1(q')
    # with P_small = prod_{q' <= y} q'(q'+1)/(q'-1)^2 (delta = 0 factors) and
    # g1(t) = (1+4t-t^2)/(1-t)^2 <= (1-t)^-6 (delta = 1/2 factors, doubled).
    # Sum over q in dyadic blocks (a, 2a], then close the tail at A with
    # (log q)^12 <= (log A)^12 sqrt(q)/sqrt(A) once log A >= LOG_CLOSE.
    # The values of a block that do not involve y come from _dyadic_block,
    # once per block end b: on the doubling schedule, y and the block ends
    # 2y, 4y, ... of y are block ends of y/2 too.
    ly_lo, ly_hi = _dyadic_block(y)[:2]
    lbmy = round_down(_mertens_prod_lo(ly_lo))
    m0 = isqrt(y) + 1
    # telescoping prod_{n >= m0} (1-1/n^2)^-1 = m0/(m0-1) covers every inert
    # norm p^2 > y, squared split factors are covered by the Mertens ratio
    cin6 = round_up(Fraction(m0, m0 - 1) ** 6)
    total = Fraction(0)
    a = y
    la_lo, la_hi = ly_lo, ly_hi
    while la_lo < LOG_CLOSE:
        b = 2 * a
        lb_lo, lb_hi, sm, prod_hi = _dyadic_block(b)
        ratio = round_up(prod_hi / lbmy)
        rfac = round_up(ratio**12 * cin6)
        total = round_up(total + sm * rfac)
        a = b
        la_lo, la_hi = lb_lo, lb_hi
    sq_a = sqrt_lo(a)
    ka = round_up(la_hi**12 / sq_a)
    coef = round_up(
        cin6 * (EGAMMA_EXP_HI * (1 + 1 / (2 * la_lo * la_lo)) / lbmy) ** 12
    )
    adj = Fraction(a, a - 1) ** 2  # (1 - 1/q)^-2 for every q > a
    tails = 4 / sq_a + Fraction(1, 2 * isqrt(a) ** 2)
    closure = round_up(coef * ka * adj * tails)
    return total + closure


@lru_cache(maxsize=256)
def _dyadic_block(b):
    # (lb_lo, lb_hi, sm, prod_hi) for the block (a, b], a = b/2 (b is even
    # wherever sm is read): bounds on log b, sm >= (count of prime norms in
    # (a, b]) / a^2, and the upper Mertens product at b. Immutable Fractions;
    # a schedule has a few dozen b.
    a = b // 2
    lb_lo, lb_hi = ln_bounds(b)
    # count of prime norms in (a, b]: <= 2 pi(b) rational-prime norms
    # plus inert squares with p in (isqrt(a), isqrt(b)]
    count = 2 * PI_UPPER_C * b / lb_lo + (isqrt(b) - isqrt(a))
    sm = round_up(count / (a * a))
    return lb_lo, lb_hi, sm, _mertens_prod_hi(lb_lo, lb_hi)


class BoundCertificate(NamedTuple):
    field: object
    s: int
    y: int
    x: int
    w: Fraction  # rankin_W(field, y)
    eta1: Fraction
    eta2: Fraction


def _search_y(field, s):
    # (y, the prime norms <= y, eta2_major there) for the first y from
    # max(Y_MIN, s^3) on with eta2_major < 1/2. The norms <= y are a prefix
    # of those <= 2y, so the P_small fold over their full 64-norm blocks is
    # carried from one y to the next; only the trailing < 64 norms are
    # folded per y, onto the carry, which gives _p_small_fold(norms). The
    # loop needs no budget of its own: the sieve refuses y > SIEVE_MAX.
    y, above, full, carry = max(Y_MIN, s**3), 0, 0, Fraction(1)
    norms = array("q")
    while True:
        norms += ring.prime_norms_up_to(field, y, above)
        end = len(norms) - len(norms) % 64
        carry, full = _p_small_fold(norms[full:end], carry), end
        eta2 = _eta2(s, _p_small_fold(norms[end:], carry), y)
        if eta2 < HALF:
            return y, norms, eta2
        above, y = y, 2 * y


def _w_and_eta2(field, s, y):
    # (rankin_W(field, y), eta2_major(field, s, y)) from one sieve
    norms = ring.prime_norms_up_to(field, y)
    return _rankin_fold(norms), _eta2(s, _p_small_fold(norms), y)


def _failed_check(cert, exact=None):
    # the first check cert fails, or ""; exact = (w, eta2) at y, or from scratch
    if not all(type(v) is int for v in (cert.s, cert.y, cert.x)):
        return "s, y and x must be ints"
    if cert.s < 1:
        return "s < 1"
    if cert.y < Y_MIN:
        return "y below floor"
    r = isqrt(cert.x)
    if cert.x < 4 or r * r != cert.x:
        return "x is not a perfect square >= 4"
    w, eta2 = exact or _w_and_eta2(cert.field, cert.s, cert.y)
    if w != cert.w:
        return "rankin_W mismatch"
    if eta2 != cert.eta2:
        return "eta2 mismatch"
    eta1 = w * cert.s / r
    if eta1 != cert.eta1:
        return "eta1 mismatch"
    return "" if eta1 + eta2 < 1 else "eta1 + eta2 not below 1"


def effective_bound(field, s):
    """Smallest (y, x) on the doubling schedule with eta2 < 1/2 and
    eta1 + eta2 < 1; any covering system over the field with multiplicity
    <= s and distinguishable moduli must then use a modulus of norm <= x.

    One exact search picks y and computes eta2 there; w is then folded
    once over the prime norms <= y that the search produced. A failed
    verify_certificate check or eta2 >= 1/2 raises SoundnessError."""
    if s < 1:
        raise InputError("s must be >= 1")
    y, norms, eta2 = _search_y(field, s)
    if not eta2 < HALF:
        raise SoundnessError(f"exact eta2 is not below 1/2 at y = {y}")
    w = _rankin_fold(norms)
    r = 2
    while w * s >= (1 - eta2) * r:  # ends: eta2 < 1/2, so r <= 4ws
        r *= 2
    cert = BoundCertificate(field, s, y, r * r, w, w * s / r, eta2)
    reason = _failed_check(cert, (w, eta2))
    if reason:
        raise SoundnessError(f"fresh certificate failed verification: {reason}")
    return cert


def verify_certificate(cert):
    """(ok, reason): every check, on w and eta2 recomputed from scratch."""
    try:
        reason = _failed_check(cert)
    except Exception as e:  # malformed certificate contents
        return False, f"verification error: {e}"
    return not reason, reason


# -------------------------------------------------------- moduli certificates


class ModuliRow(NamedTuple):
    j: int
    prime: ring.PrimeIdeal
    nu: int
    delta: Fraction
    mechanism: str  # "m1" or "m2"
    contribution: Fraction


class ModuliCertificate(NamedTuple):
    verdict: str  # "certified-noncover" or "inconclusive"
    eta: Fraction
    s: int
    q: ring.Ideal
    rows: list
    deltas: list


def certify_moduli(field, moduli, s=None, policy=None):
    """Residue-free certificate: if the majorant eta stays below 1, no choice
    of residues on these moduli (each used at most s times) covers the ring."""
    from . import system

    _, q, primes = system.factor_moduli(field, moduli)
    s_auto = system.multiplicity(moduli)
    if s is None:
        s = s_auto
    elif s < s_auto:
        raise InputError(f"s = {s} is below the multiplicity {s_auto} of the list")
    deltas = system.resolve_policy_for_primes(primes, s, policy)
    seen_nonzero = False
    for d in deltas:
        if d:
            seen_nonzero = True
        elif seen_nonzero:
            raise InputError(
                "a zero delta after a nonzero one invalidates the first-moment majorant"
            )
    rows = []
    eta = Fraction(0)
    for j, ((prime, nu), delta) in enumerate(zip(primes, deltas), start=1):
        if delta == 0:
            _check_m1_printable(field, prime.norm)
            contribution = _m1_euler(field, s, prime.norm)
            mech = "m1"
        else:
            history = [(pi.norm, di) for (pi, _), di in zip(primes[: j - 1], deltas)]
            m2 = _m2_history(s, prime.norm, history)
            contribution = m2 / (4 * delta * (1 - delta))
            mech = "m2"
        rows.append(ModuliRow(j, prime, nu, delta, mech, contribution))
        eta += contribution
    verdict = "certified-noncover" if eta < 1 else "inconclusive"
    return ModuliCertificate(verdict, eta, s, q, rows, deltas)
