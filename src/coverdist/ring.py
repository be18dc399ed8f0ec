"""Exact arithmetic for Z and for rings of integers O of quadratic fields
Q(sqrt(d)), d squarefree.

Elements are integer pairs (a, b) meaning a + b*omega where
omega = (1 + sqrt(d))/2 for d = 1 mod 4 and omega = sqrt(d) otherwise,
so omega^2 = trace*omega - nm with trace, nm as in FieldSpec. The rational
field is the degenerate case b = 0 throughout.

Nonzero ideals are kept in Hermite normal form Ideal(field, u, v, w),
the lattice u*Z + (v + w*omega)*Z, normalized so that u > 0, w > 0,
0 <= v < u, w | u, w | v, and u*w divides the element norm of v + w*omega.
Rational ideals are (m, 0, 1).

How a rational prime p splits is read off (disc/p) in two places only:
_ideals_above builds the primes above one p, and _split_primes sorts every
p of a window (above, y] with one sieve of the window and one Kronecker
pass.

Factoring a norm into rational primes, the one step that needs number
theory beyond gcds, runs the routines of ntheory (primality, square roots
mod p, integer roots, Pollard-Brent rho) under the budget rule of
_factor_int_budget.

Everything here is exact arithmetic on Python ints; prime lists are
array('q'), from the stdlib kernels, and nothing imports numpy.
"""

from array import array
from bisect import bisect_right
from itertools import chain, compress
from math import gcd, isqrt, prod
from typing import NamedTuple

from . import kernels
from .errors import (
    DisallowedD,
    InputError,
    MixedFields,
    NonSquarefree,
    NormTooLargeToFactor,
    PMinOnIndistinguishable,
    SoundnessError,
    UnitIdeal,
    ZeroIdeal,
)
from .ntheory import isprime, perfect_power, pollard_brent, sqrt_mod

TRIAL_LIMIT = 10**6
COMPOSITE_CUTOFF = 10**24


class FieldSpec(NamedTuple):
    kind: str  # "rational" or "quadratic"
    d: int | None
    discriminant: int
    trace: int  # omega^2 = trace*omega - nm
    nm: int

    def label(self):
        return "rational" if self.kind == "rational" else f"quadratic:{self.d}"


RATIONAL = FieldSpec("rational", None, 1, 0, 0)


def make_field(kind, d=None):
    """Field constructor; kind is "rational" or "quadratic" (with d)."""
    if kind == "rational":
        if d is not None:
            raise InputError("rational field takes no d")
        return RATIONAL
    if kind != "quadratic":
        raise InputError(f"unknown field kind {kind!r}")
    if d is None:
        raise InputError("quadratic field needs d")
    d = int(d)
    if d in (0, 1):
        raise DisallowedD(f"d = {d} does not give a quadratic field")
    if any(e > 1 for e in _factor_int_budget(abs(d)).values()):
        raise NonSquarefree(f"d = {d} is not squarefree")
    if d % 4 == 1:
        return FieldSpec("quadratic", d, d, 1, (1 - d) // 4)
    return FieldSpec("quadratic", d, 4 * d, 0, -d)


# ------------------------------------------------------------------ elements


def elem_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def elem_mul(field, x, y):
    a, b = x
    c, e = y
    # (a + b*om)(c + e*om) with om^2 = T*om - N
    return (a * c - b * e * field.nm, a * e + b * c + b * e * field.trace)


def elem_conj(field, x):
    a, b = x
    return (a + b * field.trace, -b)


def elem_norm(field, x):
    """Signed norm; for the rational field this is just the element."""
    a, b = x
    if field.kind == "rational":
        return a
    return a * a + a * b * field.trace + b * b * field.nm


# -------------------------------------------------------------------- ideals


class Ideal(NamedTuple):
    field: FieldSpec
    u: int
    v: int
    w: int


def unit_ideal(field):
    return Ideal(field, 1, 0, 1)


def ideal_norm(ideal):
    return ideal.u * ideal.w


def _hnf_fault(field, u, v, w):
    """None for the HNF (u, v, w) of an ideal; "triple" unless u, w > 0 and
    0 <= v < u, else "ideal" unless w | u, w | v and u*w | N(v + w*omega)."""
    if u <= 0 or w <= 0 or not 0 <= v < u:
        return "triple"
    if u % w or v % w or abs(elem_norm(field, (v, w))) % (u * w):
        return "ideal"


def check_hnf(field, u, v, w):
    """Validate HNF invariants; raises InputError if (u, v, w) is not an ideal."""
    fault = _hnf_fault(field, u, v, w)
    if fault == "triple":
        raise InputError(f"invalid HNF triple ({u}, {v}, {w})")
    if field.kind == "rational" and (v != 0 or w != 1):
        raise InputError("rational ideals are (m, 0, 1)")
    if fault:
        raise InputError(f"({u}, {v}, {w}) is not an ideal of {field.label()}")
    return Ideal(field, u, v, w)


def _xgcd(a, b):
    # (g, s, t) with s*a + t*b == g == gcd(a, b) >= 0
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _hnf_quadratic(field, vecs):
    # HNF of the Z-span of integer pairs; must have full rank (ideal lattices do)
    a0, b0 = 0, 0
    ints = []
    for a, b in vecs:
        if b == 0:
            if a:
                ints.append(a)
            continue
        if b0 == 0:
            a0, b0 = a, b
            continue
        g, s, t = _xgcd(b0, b)
        ints.append(a0 * (b // g) - a * (b0 // g))
        a0, b0 = s * a0 + t * a, g
    if b0 < 0:
        a0, b0 = -a0, -b0
    u = 0
    for a in ints:
        u = gcd(u, a)
    if b0 == 0 or u == 0:
        raise ZeroIdeal("the zero lattice is not a nonzero ideal")
    ideal = Ideal(field, u, a0 % u, b0)
    if _hnf_fault(*ideal):
        raise SoundnessError(f"internal HNF violation: {ideal}")
    return ideal


def ideal_from_gens(field, gens):
    """Ideal generated by a list of ring elements."""
    if field.kind == "rational":
        g = 0
        for a, b in gens:
            if b:
                raise InputError("rational elements have no omega part")
            g = gcd(g, a)
        if g == 0:
            raise ZeroIdeal("all generators are zero")
        return Ideal(field, g, 0, 1)
    vecs = []
    for x in gens:
        vecs.append(tuple(x))
        vecs.append(elem_mul(field, x, (0, 1)))
    return _hnf_quadratic(field, vecs)


def ideal_principal(field, x):
    return ideal_from_gens(field, [x])


def _same_field(i, j):
    if i.field != j.field:
        raise MixedFields(f"{i.field.label()} vs {j.field.label()}")


def ideal_mul(i, j):
    _same_field(i, j)
    f = i.field
    if f.kind == "rational":
        return Ideal(f, i.u * j.u, 0, 1)
    vecs = [
        (i.u * j.u, 0),
        (i.u * j.v, i.u * j.w),
        (j.u * i.v, j.u * i.w),
        elem_mul(f, (i.v, i.w), (j.v, j.w)),
    ]
    return _hnf_quadratic(f, vecs)


def ideal_intersect(i, j):
    _same_field(i, j)
    f = i.field
    if f.kind == "rational":
        return Ideal(f, i.u * j.u // gcd(i.u, j.u), 0, 1)
    # integer row echelon on [[A | A], [B | 0]]: rows with zero left block
    # have right blocks spanning A meet B
    rows = [
        [i.u, 0, i.u, 0],
        [i.v, i.w, i.v, i.w],
        [j.u, 0, 0, 0],
        [j.v, j.w, 0, 0],
    ]
    r = 0
    for c in range(2):
        for k in range(r + 1, 4):
            while rows[k][c]:
                if rows[r][c] == 0 or abs(rows[k][c]) < abs(rows[r][c]):
                    rows[r], rows[k] = rows[k], rows[r]
                q = rows[k][c] // rows[r][c]
                rows[k] = [x - q * y for x, y in zip(rows[k], rows[r])]
        if rows[r][c]:
            r += 1
    vecs = [(row[2], row[3]) for row in rows[r:]]
    return _hnf_quadratic(f, vecs)


def in_ideal(x, ideal):
    """Membership of element x in the ideal."""
    a, b = x
    if b % ideal.w:
        return False
    return (a - (b // ideal.w) * ideal.v) % ideal.u == 0


def ideal_divides(i, j):
    """True iff i divides j, i.e. j is contained in i."""
    _same_field(i, j)
    return in_ideal((j.u, 0), i) and in_ideal((j.v, j.w), i)


def in_class(x, a, ideal):
    """True iff x = a mod ideal."""
    return in_ideal(elem_sub(x, a), ideal)


def reduce(x, ideal):
    """Canonical representative of x mod ideal: (r0, r1), 0 <= r0 < u, 0 <= r1 < w."""
    a, b = x
    y = b % ideal.w
    t = (b - y) // ideal.w
    return ((a - t * ideal.v) % ideal.u, y)


def residue_at(index, ideal):
    """The reduced residue (x, y) with canonical index y*u + x."""
    return (index % ideal.u, index // ideal.u)


# ------------------------------------------------------------------ splitting


class PrimeIdeal(NamedTuple):
    ideal: Ideal
    under: int  # rational prime below
    norm: int
    splitting: str  # "rational", "split", "ramified", "inert"


def prime_sort_key(prime):
    return (prime.norm, prime.ideal.u, prime.ideal.v, prime.ideal.w)


def primes_above(field, p):
    """Prime ideals above the rational prime p, in canonical order."""
    p = int(p)
    if not isprime(p):
        raise InputError(f"{p} is not prime")
    return _ideals_above(field, p, kernels.kronecker_disc(field.discriminant, p))


def _ideals_above(field, p, sym):
    # the PrimeIdeals above the rational prime p, given sym = (disc/p), in
    # canonical order: one (p, -r, 1) per root r of x^2 - T x + N mod p
    if field.kind == "rational":
        return [PrimeIdeal(Ideal(field, p, 0, 1), p, p, "rational")]
    if sym == -1:
        return [PrimeIdeal(Ideal(field, p, 0, p), p, p * p, "inert")]
    if p == 2:
        roots = {field.d % 2} if sym == 0 else {0, 1}  # N is even when 2 splits
    else:
        sq = sqrt_mod(field.discriminant % p, p)  # 0 when ramified: a double root
        inv2 = pow(2, p - 2, p)
        roots = {(field.trace + sq) * inv2 % p, (field.trace - sq) * inv2 % p}
    kind = "ramified" if sym == 0 else "split"
    out = [PrimeIdeal(Ideal(field, p, (-r) % p, 1), p, p, kind) for r in roots]
    out.sort(key=prime_sort_key)
    return out


def _divide_by_prime(ideal, prime):
    """Exact quotient ideal / prime (prime must divide ideal)."""
    field = ideal.field
    p = prime.under
    if field.kind == "rational":
        if ideal.u % p:
            raise SoundnessError("inexact rational division")
        return Ideal(field, ideal.u // p, 0, 1)
    j = ideal
    if prime.splitting != "inert":  # times the conjugate, as prime * conjugate = (p)
        j = ideal_mul(ideal, Ideal(field, p, (-prime.ideal.v - field.trace) % p, 1))
    if j.u % p or j.v % p or j.w % p:
        raise SoundnessError("inexact division by prime")
    return Ideal(field, j.u // p, j.v // p, j.w // p)


def _factor_int_budget(n):
    """Prime factorization {p: e} of the integer n >= 1, within a budget.

    1. Trial-divide by the primes up to TRIAL_LIMIT, stopping at sqrt(n).
    2. Replace each leftover cofactor c by its root m when c = m**k, taking
       the largest such k.
    3. If m is prime, accept it.
    4. Otherwise, if m <= COMPOSITE_CUTOFF, factor it with Pollard-Brent rho.
    5. Otherwise take three Fermat steps: a = isqrt(m) + 1, moved up by 1 if
       its parity is wrong for m mod 4, then a + 2 and a + 4. If a*a - m is a
       square b*b, send both halves a - b and a + b through steps 2-6.
    6. If nothing splits m, raise NormTooLargeToFactor.

    Each cofactor gets one primality test.
    """
    out = {}
    limit = min(TRIAL_LIMIT, isqrt(n))
    ps = kernels.primes(2, limit)
    for i in range(0, len(ps), 64):  # one gcd per block finds the blocks to divide by
        block = ps[i : i + 64]
        if gcd(n, prod(block)) == 1:
            continue
        for p in block:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                out[p] = e
    if n < (limit + 1) ** 2:  # no prime factor up to limit, so n is 1 or prime
        if n > 1:
            out[n] = 1
        return out
    stack = [(n, 1)]
    while stack:
        m, e = stack.pop()
        m, k = perfect_power(m)
        e *= k
        if isprime(m):
            out[m] = out.get(m, 0) + e
        elif m <= COMPOSITE_CUTOFF:
            d = pollard_brent(m)
            stack += [(d, e), (m // d, e)]
        else:
            stack += [(half, e) for half in _fermat_split(m)]
    return out


def _fermat_split(m):
    """(a - b, a + b) with m = a*a - b*b, from three Fermat steps, or refuse."""
    a = isqrt(m) + 1
    if (m % 4 == 1) != (a % 2 == 1):
        a += 1
    for a in (a, a + 2, a + 4):
        b = isqrt(a * a - m)
        if b * b == a * a - m and a - b > 1:
            return a - b, a + b
    raise NormTooLargeToFactor(
        f"composite cofactor with {m.bit_length()} bits exceeds the factoring budget"
    )


def factor_ideal(ideal):
    """[(PrimeIdeal, exponent), ...] sorted by (norm, u, v, w); verified exactly."""
    n = ideal_norm(ideal)
    if n == 1:
        return []
    field = ideal.field
    out = []
    rem = ideal
    for p in sorted(_factor_int_budget(n)):  # each p already proved prime
        for prime in _ideals_above(field, p, kernels.kronecker_disc(field.discriminant, p)):
            e = 0
            while ideal_divides(prime.ideal, rem):
                rem = _divide_by_prime(rem, prime)
                e += 1
            if e:
                out.append((prime, e))
    if ideal_norm(rem) != 1:
        raise SoundnessError("factorization did not exhaust the ideal")
    acc = unit_ideal(field)
    for prime, e in out:
        for _ in range(e):
            acc = ideal_mul(acc, prime.ideal)
    if acc != ideal:
        raise SoundnessError("factor product does not reconstruct the ideal")
    out.sort(key=lambda t: prime_sort_key(t[0]))
    return out


def pmin_with_exponent(factors):
    """The unique largest-norm prime of a factor_ideal list and its exponent, or None."""
    if not factors:
        raise UnitIdeal("the unit ideal has no prime factors")
    top = max(p.norm for p, _ in factors)
    hits = [(p, e) for p, e in factors if p.norm == top]
    if len(hits) != 1:
        return None
    return hits[0]


def is_distinguishable(ideal):
    """True iff exactly one prime of maximal norm divides the ideal."""
    return pmin_with_exponent(factor_ideal(ideal)) is not None


def p_min(ideal):
    hit = pmin_with_exponent(factor_ideal(ideal))
    if hit is None:
        raise PMinOnIndistinguishable(f"no unique maximal-norm prime in {ideal}")
    return hit[0]


def _split_primes(field, y, above=0):
    """(unram, ram, inert): ascending array('q') of the rational primes p
    with a prime above them of norm in (above, y]: unram the p in (above, y]
    with (disc/p) = 1, or all of them over Q; ram those with (disc/p) = 0;
    inert the p with (disc/p) = -1 and p^2 in (above, y]."""
    y, above = max(int(y), 1), max(int(above), 0)
    ps = kernels.primes(above + 1, y)
    if field.kind == "rational":
        return ps, array("q"), array("q")
    # an inert p has norm p^2, in (above, y] for p in (isqrt(above), isqrt(y)]
    small = kernels.primes(isqrt(above) + 1, isqrt(y))
    disc = field.discriminant
    syms = kernels.kron_values(disc, ps)
    unram, ram = compress(ps, _where(syms, 1)), compress(ps, _where(syms, 0))
    inert = compress(small, _where(kernels.kron_values(disc, small), -1))
    return array("q", unram), array("q", ram), array("q", inert)


def _where(syms, k):
    # compress selectors of the entries of the array('b') syms equal to k
    return syms.tobytes().translate(bytes(i == k % 256 for i in range(256)))


def primes_up_to_norm(field, y):
    """Prime ideals of norm <= y in canonical order; empty when y < 2."""
    out = []
    for sym, ps in zip((1, 0, -1), _split_primes(field, y)):
        for p in ps.tolist():
            out.extend(_ideals_above(field, p, sym))
    out.sort(key=prime_sort_key)
    return out


def prime_norms_up_to(field, y, above=0):
    """Ascending array('q') of prime norms in (above, y], with multiplicity.

    A split rational prime contributes its norm twice (two primes above);
    used by the bound machinery, which needs norms only. A search over
    growing y appends the norms in (y_old, y] to those it has, and so
    sieves and runs the Kronecker step once per prime.
    """
    unram, ram, inert = _split_primes(field, y, above)
    if field.kind == "rational":
        return unram
    twice = array("q", bytes(16 * len(unram)))
    twice[::2] = unram
    twice[1::2] = unram
    # the few ramified and inert norms go in by bisection
    out, i = array("q"), 0
    for n in sorted(chain(ram, (p * p for p in inert))):
        j = bisect_right(twice, n)
        out += twice[i:j]
        out.append(n)
        i = j
    out += twice[i:]
    return out
