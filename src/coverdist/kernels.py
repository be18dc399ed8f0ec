"""Integer kernels: prime sieve, residues and Kronecker symbols modulo many
primes, coset marking, and level-label computation, all in numpy.

Each kernel is sequential and deterministic, so repeated runs give
bit-identical output.
"""

from math import isqrt

import numpy as np

from .errors import PrimeTooLarge, SieveTooLarge

# Largest sieve limit accepted: its flags take 128 MB. It is checked before
# any allocation, and it keeps every sieved prime below the 2^31 that
# kron_values requires.
SIEVE_MAX = 2**27


def backend_name():
    """Name of the kernel implementation (numpy is the only one)."""
    return "numpy"


def sieve(limit):
    """Boolean prime flags for 0..limit; refuses limits above SIEVE_MAX."""
    if limit < 0:
        raise ValueError("negative sieve limit")
    if limit > SIEVE_MAX:
        raise SieveTooLarge(f"sieve limit {limit} exceeds {SIEVE_MAX}")
    flags = np.ones(limit + 1, dtype=np.bool_)
    flags[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def kronecker_disc(disc, p):
    """Kronecker symbol (disc/p) at a prime p, on Python ints of any size."""
    if p == 2:
        if disc % 2 == 0:
            return 0
        return 1 if disc % 8 in (1, 7) else -1
    a = disc % p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def mod_values(m, ps):
    """m mod p for a Python int m >= 0 and each p of an int64 array of ps below 2^31."""
    ps = np.ascontiguousarray(ps, dtype=np.int64)
    if len(ps) and int(ps.max()) >= 2**31:
        raise PrimeTooLarge(f"prime {int(ps.max())} is not below the kernel limit 2^31")
    # Every residue is below p < 2^31, so every product here fits in int64.
    # m may not, so m mod p is built from the base-2^31 digits of m.
    a = np.zeros_like(ps)
    for shift in range(31 * (m.bit_length() // 31), -1, -31):
        a <<= 31
        a += (m >> shift) & (2**31 - 1)
        a %= ps
    return a


def kron_values(disc, ps):
    """Kronecker symbols (disc/p) for an int64 array of primes ps (int8: -1, 0, 1)."""
    ps = np.ascontiguousarray(ps, dtype=np.int64)
    a = mod_values(abs(int(disc)), ps)
    if disc < 0:
        np.negative(a, out=a)
        a %= ps
    # Euler's criterion a^((p-1)/2) mod p by square-and-multiply; squaring
    # keeps a == 0 exactly where p divides disc
    r = np.ones_like(ps)
    e = (ps - 1) >> 1
    while e.any():
        odd = (e & 1).astype(np.bool_)
        r[odd] = r[odd] * a[odd] % ps[odd]
        a *= a
        a %= ps
        e >>= 1
    out = np.where(r == 1, 1, -1).astype(np.int8)
    out[a == 0] = 0
    out[ps == 2] = kronecker_disc(disc, 2)
    return out


def mark_class(mask, aa, ab, ui, vi, wi, uq, vq, wq):
    """Set mask[y*uq + x] for every residue x + y*w of (aa, ab) + I in O/Q.

    The class rep (aa, ab) is reduced mod I = (ui, vi, wi) and Q = (uq, vq, wq);
    the points are a + k*(vi + wi*w) + m*ui.
    """
    nk = wq // wi
    nm = uq // ui
    ms = np.arange(nm, dtype=np.int64) * ui
    chunk = max(1, 10**7 // nm)
    for k0 in range(0, nk, chunk):
        k = np.arange(k0, min(k0 + chunk, nk), dtype=np.int64)
        eb = ab + k * wi
        yy = eb % wq
        t = (eb - yy) // wq
        base = aa + k * vi - t * vq
        xx = (base[:, None] + ms[None, :]) % uq
        idx = yy[:, None] * uq + xx
        mask.flat[idx.ravel()] = True


def level_labels(uq, wq, uj, vj, wj):
    """int64 array: index of (residue mod Q_j) for each residue x + y*w of O/Q."""
    y = np.arange(wq, dtype=np.int64)
    yy = y % wj
    t = (y - yy) // wj
    x = np.arange(uq, dtype=np.int64)
    xx = (x[None, :] - (t * vj)[:, None]) % uj
    return (yy[:, None] * uj + xx).ravel()
