"""Certified majorants for the distortion construction.

Per-level bounds (exact Fractions, no rounding):
  - alpha_upper_bound: pointwise domination of the conditional density,
  - class_measure_bound: measure of any congruence class vs its inflation bound,
  - m1_bound / m2_bound: moment majorants from the multiplicity s and the
    prime norms alone.

Analytic bounds (directed rounding, always from above):
  - rankin_W, eta1_major: the Rankin trick on moduli of norm > x,
  - mertens_sum_bound: Mertens sum majorant over prime norms,
  - eta2_major: tail contribution of levels above the threshold y,
  - effective_bound: searches (y, x) so eta1 + eta2 < 1 and emits a
    certificate that verify_certificate has checked once, from scratch.

The explicit inequalities used are classical (Rosser and Schoenfeld,
"Approximate formulas for some functions of prime numbers", 1962):
  pi(z) < 1.25506 z / log z                       (z > 1)
  prod_{p <= z} (1-1/p)^-1 < e^g log z (1 + 1/(2 log^2 z))   (z > 1)
  prod_{p <= y} (1-1/p)^-1 > e^g log y (1 - 1/(2 log^2 y))   (y >= 285)
  sum_{p <= z} 1/p < loglog z + B + 1/log^2 z     (z > 1)
with e^g = exp(Euler gamma) and B the Mertens constant. The y >= 285
requirement is absorbed by the floor Y_MIN = 512.
"""

from fractions import Fraction
from math import isqrt
from typing import NamedTuple

import numpy as np

from . import distortion, kernels, ring, system
from .errors import (
    IdealNotDividingQ,
    InputError,
    MixedFields,
    SearchBudgetExceeded,
    SoundnessError,
    XNotPerfectSquare,
    YTooSmall,
)
from .rounding import (
    EGAMMA_EXP_HI,
    EGAMMA_EXP_LO,
    MERTENS_B_HI,
    PI_UPPER_C,
    PRIME_RECIP_SQ_HI,
    ceil_to_grid,
    ln_bounds,
    ln_hi,
    round_down,
    round_up,
    sqrt_lo,
)

HALF = Fraction(1, 2)
Y_MIN = 512
LOG_CLOSE = 24  # close the tail once log A >= 24, where (log q)^12/sqrt(q) decays
SQRT_BITS = 48
MAX_Y_DOUBLINGS = 40
MAX_R_DOUBLINGS = 20000


# ---------------------------------------------------------- per-level bounds


def alpha_upper_bound(instance, x, j):
    """Pointwise majorant of alpha_j at element x: sum over level-j classes
    of 1/q_j^r_i over those whose prime-free part contains x - a_i."""
    if not 1 <= j <= instance.depth:
        raise InputError(f"level {j} out of range")
    q = instance.primes[j - 1][0].norm
    total = Fraction(0)
    for cls, data in zip(instance.classes, instance.class_data):
        if data.level == j and ring.in_class(x, cls.residue, data.cofactor):
            total += Fraction(1, q**data.exponent)
    return total


def class_measure_bound(instance, result, a, ideal, j):
    """(exact, bound): P_j(a + ideal) and its inflation majorant
    (1/norm) * prod over primes p_i | ideal, i <= j, of (1 - delta_i)^-1."""
    if ideal.field != instance.field:
        raise MixedFields("ideal field differs from instance field")
    if not ring.ideal_divides(ideal, instance.q):
        raise IdealNotDividingQ(f"{tuple(ideal[1:])} does not divide Q")
    if not 0 <= j <= instance.depth:
        raise InputError(f"level {j} out of range")
    state = result.states[j]
    q = instance.q
    mask = np.zeros(ring.ideal_norm(q), dtype=np.bool_)
    ar = ring.reduce(a, ideal)
    kernels.mark_class(mask, ar[0], ar[1], ideal.u, ideal.v, ideal.w, q.u, q.v, q.w)
    exact = distortion.mask_mass(state, mask)
    bound = Fraction(1, ring.ideal_norm(ideal))
    for (prime, _), delta in zip(instance.primes[:j], state.deltas):
        if ring.ideal_divides(prime.ideal, ideal):
            bound /= 1 - delta
    return exact, bound


def _m1_euler(field, s, q):
    # s/(q-1) * prod over prime norms n < q of (1 - 1/n)^-1
    out = Fraction(s, q - 1)
    for n in ring.prime_norms_up_to(field, q - 1).tolist():
        out *= Fraction(n, n - 1)
    return out


def m1_bound(instance, j):
    """First-moment majorant for level j, valid when deltas 1..j-1 are all 0."""
    if not 1 <= j <= instance.depth:
        raise InputError(f"level {j} out of range")
    return _m1_euler(instance.field, instance.s, instance.primes[j - 1][0].norm)


def m2_bound(instance, j):
    """Second-moment majorant for level j, valid for any deltas in [0, 1/2]:
    s^2/(q_j-1)^2 * prod_{i<j} (1 + (6 q_i - 2)/(q_i - 1)^2)."""
    if not 1 <= j <= instance.depth:
        raise InputError(f"level {j} out of range")
    norms = [p.norm for p, _ in instance.primes]
    q = norms[j - 1]
    out = Fraction(instance.s**2, (q - 1) ** 2)
    for n in norms[: j - 1]:
        out *= 1 + Fraction(6 * n - 2, (n - 1) ** 2)
    return out


# ------------------------------------------------------------ analytic layer


def rankin_W(field, y):
    """Certified upper bound on prod over prime norms q <= y of (1-q^-1/2)^-1,
    quantized up to the next multiple of 1/1000."""
    acc = Fraction(1)
    shift = 1 << SQRT_BITS
    for q in ring.prime_norms_up_to(field, y).tolist():
        n = isqrt(q << (2 * SQRT_BITS))  # n/2^k <= sqrt(q), so n/(n-2^k) >= ...
        acc = round_up(acc * Fraction(n, n - shift))
    return ceil_to_grid(acc, Fraction(1, 1000))


def eta1_major(field, s, y, x):
    """Upper bound on the total contribution of levels with norm <= y when
    every modulus has norm > x: rankin_W(field, y) * s / sqrt(x)."""
    if s < 1:
        raise InputError("s must be >= 1")
    x = int(x)
    if x < 4:
        raise InputError("x must be >= 4")
    r = isqrt(x)
    if r * r != x:
        raise XNotPerfectSquare(f"x = {x} is not a perfect square")
    return rankin_W(field, y) * s / r


def mertens_sum_bound(field, z):
    """Certified upper bound on sum over prime norms q <= z of 1/q."""
    z = Fraction(z)
    if z < 2:
        return Fraction(0)
    lz_lo, lz_hi = ln_bounds(z)
    r = ln_hi(lz_hi) + MERTENS_B_HI + 1 / (lz_lo * lz_lo)
    if field.kind == "rational":
        return round_up(r)
    # norm-p primes appear at most twice per p; inert norms sum below sum 1/p^2
    return round_up(2 * r + PRIME_RECIP_SQ_HI)


def _p_small(field, y):
    # certified-up product over prime norms q <= y of q(q+1)/(q-1)^2,
    # the per-prime second-moment factor at delta = 0
    acc = Fraction(1)
    num = den = 1
    count = 0
    for q in ring.prime_norms_up_to(field, y).tolist():
        num *= q * (q + 1)
        den *= (q - 1) * (q - 1)
        count += 1
        if count == 64:
            acc = round_up(acc * Fraction(num, den))
            num = den = 1
            count = 0
    return round_up(acc * Fraction(num, den))


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
    return round_up(s * s * _eta2_base(field, y))


def _eta2_base(field, y):
    # Each level at prime norm q > y contributes at most
    #   s^2/(q-1)^2 * P_small * prod over norms q' in (y, q) of g1(q')
    # with P_small = prod_{q' <= y} q'(q'+1)/(q'-1)^2 (delta = 0 factors) and
    # g1(t) = (1+4t-t^2)/(1-t)^2 <= (1-t)^-6 (delta = 1/2 factors, doubled).
    # Sum over q in dyadic blocks (a, 2a], then close the tail at A with
    # (log q)^12 <= (log A)^12 sqrt(q)/sqrt(A) once log A >= LOG_CLOSE.
    psmall = _p_small(field, y)
    ly_lo, _ = ln_bounds(y)
    lbmy = round_down(_mertens_prod_lo(ly_lo))
    m0 = isqrt(y) + 1
    # telescoping prod_{n >= m0} (1-1/n^2)^-1 = m0/(m0-1) covers every inert
    # norm p^2 > y, squared split factors are covered by the Mertens ratio
    cin6 = round_up(Fraction(m0, m0 - 1) ** 6)
    total = Fraction(0)
    a = y
    while True:
        la_lo, la_hi = ln_bounds(a)
        if la_lo >= LOG_CLOSE:
            break
        b = 2 * a
        lb_lo, lb_hi = ln_bounds(b)
        # count of prime norms in (a, b]: <= 2 pi(b) rational-prime norms
        # plus inert squares with p in (isqrt(a), isqrt(b)]
        count = 2 * PI_UPPER_C * b / lb_lo + (isqrt(b) - isqrt(a))
        sm = round_up(count / (a * a))
        ratio = round_up(_mertens_prod_hi(lb_lo, lb_hi) / lbmy)
        rfac = round_up(ratio**12 * cin6)
        total = round_up(total + sm * rfac)
        a = b
    la_lo, la_hi = ln_bounds(a)
    sq_a = sqrt_lo(a)
    ka = round_up(la_hi**12 / sq_a)
    coef = round_up(
        cin6 * (EGAMMA_EXP_HI * (1 + 1 / (2 * la_lo * la_lo)) / lbmy) ** 12
    )
    adj = Fraction(a, a - 1) ** 2  # (1 - 1/q)^-2 for every q > a
    tails = 4 / sq_a + Fraction(1, 2 * isqrt(a) ** 2)
    closure = round_up(coef * ka * adj * tails)
    return round_up(psmall * (total + closure))


class BoundCertificate(NamedTuple):
    field: object
    s: int
    y: int
    x: int
    w: Fraction  # rankin_W(field, y)
    eta1: Fraction
    eta2: Fraction


def effective_bound(field, s):
    """Smallest (y, x) on the doubling schedule with eta2 < 1/2 and
    eta1 + eta2 < 1; any covering system over the field with multiplicity
    <= s and distinguishable moduli must then use a modulus of norm <= x.
    The certificate is verified once by verify_certificate before it is
    returned; a failure raises SoundnessError."""
    if s < 1:
        raise InputError("s must be >= 1")
    y = max(Y_MIN, s**3)
    eta2 = None
    for _ in range(MAX_Y_DOUBLINGS):
        eta2 = eta2_major(field, s, y)
        if eta2 < HALF:
            break
        y *= 2
    else:
        raise SearchBudgetExceeded(f"eta2 stayed >= 1/2 up to y = {y}")
    w = rankin_W(field, y)
    target = 1 - eta2
    r = 2
    for _ in range(MAX_R_DOUBLINGS):
        if w * s < target * r:
            break
        r *= 2
    else:
        raise SearchBudgetExceeded("eta1 target not reached")
    cert = BoundCertificate(field, s, y, r * r, w, w * s / r, eta2)
    ok, reason = verify_certificate(cert)
    if not ok:
        raise SoundnessError(f"fresh certificate failed verification: {reason}")
    return cert


def verify_certificate(cert):
    """(ok, reason): recompute every quantity in a certificate from scratch,
    with no cache, and check every inequality."""
    try:
        if not all(type(v) is int for v in (cert.s, cert.y, cert.x)):
            return False, "s, y and x must be ints"
        if cert.s < 1:
            return False, "s < 1"
        if cert.y < Y_MIN:
            return False, "y below floor"
        r = isqrt(cert.x)
        if cert.x < 4 or r * r != cert.x:
            return False, "x is not a perfect square >= 4"
        w = rankin_W(cert.field, cert.y)
        if w != cert.w:
            return False, "rankin_W mismatch"
        eta2 = eta2_major(cert.field, cert.s, cert.y)
        if eta2 != cert.eta2:
            return False, "eta2 mismatch"
        eta1 = w * cert.s / r
        if eta1 != cert.eta1:
            return False, "eta1 mismatch"
        if not eta1 + eta2 < 1:
            return False, "eta1 + eta2 not below 1"
    except Exception as e:  # malformed certificate contents
        return False, f"verification error: {e}"
    return True, ""


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
            contribution = _m1_euler(field, s, prime.norm)
            mech = "m1"
        else:
            # second moment with per-prime history factors
            # 1 + (3q-1)/((1-delta_i)(q-1)^2), divided by 4 delta (1-delta)
            m2 = Fraction(s * s, (prime.norm - 1) ** 2)
            for (pi, _), di in zip(primes[: j - 1], deltas[: j - 1]):
                n = pi.norm
                m2 *= 1 + Fraction(3 * n - 1, (n - 1) ** 2) / (1 - di)
            contribution = m2 / (4 * delta * (1 - delta))
            mech = "m2"
        rows.append(ModuliRow(j, prime, nu, delta, mech, contribution))
        eta += contribution
    verdict = "certified-noncover" if eta < 1 else "inconclusive"
    return ModuliCertificate(verdict, eta, s, q, rows, deltas)
