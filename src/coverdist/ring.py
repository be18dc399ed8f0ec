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
"""

from dataclasses import dataclass
from math import gcd, isqrt
from typing import NamedTuple

import numpy as np
from sympy import factorint, isprime, perfect_power
from sympy.ntheory.residue_ntheory import sqrt_mod

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

TRIAL_LIMIT = 10**6
COMPOSITE_CUTOFF = 10**24


@dataclass(frozen=True)
class FieldSpec:
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


def check_hnf(field, u, v, w):
    """Validate HNF invariants; raises InputError if (u, v, w) is not an ideal."""
    if u <= 0 or w <= 0 or not 0 <= v < u:
        raise InputError(f"invalid HNF triple ({u}, {v}, {w})")
    if field.kind == "rational":
        if v != 0 or w != 1:
            raise InputError("rational ideals are (m, 0, 1)")
        return Ideal(field, u, v, w)
    if u % w or v % w or abs(elem_norm(field, (v, w))) % (u * w):
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
    _assert_hnf(ideal)
    return ideal


def _assert_hnf(ideal):
    f, u, v, w = ideal
    ok = u > 0 and w > 0 and 0 <= v < u and u % w == 0 and v % w == 0
    if ok and abs(elem_norm(f, (v, w))) % (u * w):
        ok = False
    if not ok:
        raise SoundnessError(f"internal HNF violation: {ideal}")


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
    if field.kind == "rational":
        return [PrimeIdeal(Ideal(field, p, 0, 1), p, p, "rational")]
    sym = kernels.kronecker_disc(field.discriminant, p)
    if sym == -1:
        return [PrimeIdeal(Ideal(field, p, 0, p), p, p * p, "inert")]
    if sym == 0:
        # double root of x^2 - T x + N mod p
        if p == 2:
            r = field.d % 2
        else:
            r = (field.trace * pow(2, p - 2, p)) % p
        return [PrimeIdeal(Ideal(field, p, (-r) % p, 1), p, p, "ramified")]
    if p == 2:
        r1, r2 = 0, 1  # x^2 + x + N with N even
    else:
        sq = sqrt_mod(field.discriminant % p, p)
        inv2 = pow(2, p - 2, p)
        r1 = ((field.trace + sq) * inv2) % p
        r2 = ((field.trace - sq) * inv2) % p
    out = [
        PrimeIdeal(Ideal(field, p, (-r) % p, 1), p, p, "split") for r in (r1, r2)
    ]
    out.sort(key=prime_sort_key)
    return out


def _conjugate_prime(field, prime):
    if prime.splitting in ("rational", "inert"):
        return prime.ideal
    p = prime.under
    return Ideal(field, p, (-prime.ideal.v - field.trace) % p, 1)


def _divide_by_prime(ideal, prime):
    """Exact quotient ideal / prime (prime must divide ideal)."""
    field = ideal.field
    p = prime.under
    if field.kind == "rational":
        if ideal.u % p:
            raise SoundnessError("inexact rational division")
        return Ideal(field, ideal.u // p, 0, 1)
    if prime.splitting == "inert":
        j = ideal
    else:
        j = ideal_mul(ideal, _conjugate_prime(field, prime))
    if j.u % p or j.v % p or j.w % p:
        raise SoundnessError("inexact division by prime")
    return Ideal(field, j.u // p, j.v // p, j.w // p)


def _factor_int_budget(n):
    """Prime factorization of n with an effort budget.

    Trial division up to TRIAL_LIMIT always runs; a leftover cofactor is
    accepted if it is a prime or a prime power (cheap to certify), otherwise
    it must be below COMPOSITE_CUTOFF to be sent to the general factorizer.
    """
    out = {}
    trial = factorint(n, limit=TRIAL_LIMIT, use_rho=False, use_pm1=False)
    for p, e in trial.items():
        p = int(p)
        if p <= TRIAL_LIMIT or isprime(p):
            out[p] = out.get(p, 0) + e
            continue
        pp = perfect_power(p)
        if pp and isprime(pp[0]):
            b, k = int(pp[0]), int(pp[1])
            out[b] = out.get(b, 0) + k * e
            continue
        if p > COMPOSITE_CUTOFF:
            raise NormTooLargeToFactor(
                f"composite cofactor with {len(str(p))} digits exceeds the factoring budget"
            )
        for q, f in factorint(p).items():
            out[int(q)] = out.get(int(q), 0) + f * e
    return out


def factor_ideal(ideal):
    """[(PrimeIdeal, exponent), ...] sorted by (norm, u, v, w); verified exactly."""
    n = ideal_norm(ideal)
    if n == 1:
        return []
    field = ideal.field
    out = []
    rem = ideal
    for p in sorted(_factor_int_budget(n)):
        for prime in primes_above(field, p):
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


def primes_up_to_norm(field, y):
    """Prime ideals of norm <= y in canonical order; empty when y < 2."""
    y = int(y)
    if y < 2:
        return []
    flags = kernels.sieve(y)
    ps = np.flatnonzero(flags)
    out = []
    if field.kind == "rational":
        for p in ps.tolist():
            p = int(p)
            out.append(PrimeIdeal(Ideal(field, p, 0, 1), p, p, "rational"))
        return out
    syms = kernels.kron_values(field.discriminant, ps.astype(np.int64))
    for p, s in zip(ps.tolist(), syms.tolist()):
        p = int(p)
        if s == -1:
            if p * p <= y:
                out.append(PrimeIdeal(Ideal(field, p, 0, p), p, p * p, "inert"))
        else:
            out.extend(primes_above(field, p))
    out.sort(key=prime_sort_key)
    return out


def prime_norms_up_to(field, y):
    """Ascending int64 array of prime norms <= y, with multiplicity.

    A split rational prime contributes its norm twice (two primes above);
    used by the bound machinery, which needs norms only.
    """
    y = int(y)
    if y < 2:
        return np.empty(0, dtype=np.int64)
    flags = kernels.sieve(y)
    ps = np.flatnonzero(flags).astype(np.int64)
    if field.kind == "rational":
        return ps
    syms = kernels.kron_values(field.discriminant, ps)
    split = ps[syms == 1]
    ram = ps[syms == 0]
    inert = ps[syms == -1]
    inert = inert[inert <= isqrt(y)]
    norms = np.concatenate([split, split, ram, inert * inert])
    norms.sort(kind="stable")
    return norms
