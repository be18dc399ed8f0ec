"""Integer kernels: prime sieve, Kronecker symbols modulo many primes, coset
marking, level-label computation, and the dtype of label arrays.

The sieve and the Kronecker kernel run on the standard library (bytearray
flags of the odd numbers in a window, array('q') primes), so the commands
that need only prime norms never import numpy. The two kernels that
enumerate O/Q, mark_class and level_labels, fill numpy arrays and import
numpy when called. Label arrays over O/Q are int32 when |O/Q| <= 2^31
(index_dtype), which DEFAULT_MAX_ENUM guarantees, and int64 above.

Each kernel is sequential and deterministic, so repeated runs give
bit-identical output.
"""

from array import array
from itertools import compress
from math import isqrt

from .errors import SieveTooLarge

# Largest sieve limit accepted: the flags of every odd number up to it take
# 64 MB. It is checked before any allocation.
SIEVE_MAX = 2**27
# Default cap on |O/Q| for the commands that enumerate O/Q.
DEFAULT_MAX_ENUM = 10**8
# Most entries in one block of the index arrays that mark_class builds.
MARK_BLOCK = 2**20


def index_dtype(n):
    """numpy dtype of an array of indices below n: int32 when they all fit
    it (n <= 2^31), else int64."""
    import numpy as np

    return np.int32 if n <= 2**31 else np.int64


def backend_name():
    """Name of the implementation of the O/Q kernels (numpy is the only one)."""
    return "numpy"


def sieve(limit, above=0):
    """Prime flags of the odd numbers in (above, limit]: a bytearray whose
    entry i is 1 when o + 2i is prime, o the least odd number above
    `above`. Refuses limits above SIEVE_MAX before it allocates.

    The window is marked with the odd primes up to isqrt(limit), so a
    window above the root costs its own length only.
    """
    if limit < 0:
        raise ValueError("negative sieve limit")
    if limit > SIEVE_MAX:
        raise SieveTooLarge(f"sieve limit {limit} exceeds {SIEVE_MAX}")
    odd = (max(above, 0) + 1) | 1
    flags = bytearray([1]) * max(0, (limit - odd) // 2 + 1)
    if odd == 1 and flags:
        flags[0] = 0  # 1 is not prime
    for p in primes(3, isqrt(limit)):
        start = max(p * p, -(-odd // p) * p)  # p's first multiple in the window
        if start % 2 == 0:
            start += p  # the first odd one
        i = (start - odd) // 2
        flags[i::p] = bytes(len(range(i, len(flags), p)))
    return flags


def primes(lo, hi):
    """Ascending array('q') of the primes p with lo <= p <= hi, from one
    sieve of the window; refuses hi above SIEVE_MAX before it allocates."""
    out = array("q", [2] if lo <= 2 <= hi else [])
    if hi >= max(lo, 3):
        out.extend(compress(range(max(lo, 0) | 1, hi + 1, 2), sieve(hi, lo - 1)))
    return out


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


def kron_values(disc, ps):
    """Kronecker symbols (disc/p) in an array('b') of -1, 0, 1, for a
    discriminant disc (a nonzero int = 0 or 1 mod 4) and a sequence of
    primes ps, of any size: the arithmetic runs on Python ints.

    For such a disc, p -> (disc/p) is a character modulo |disc|, so the
    symbol is computed once per residue class of p mod |disc| and looked up
    for every other p in that class.
    """
    m = abs(disc)
    memo = {}  # residue class mod m -> symbol
    symbols = [
        memo[r] if (r := p % m) in memo else memo.setdefault(r, kronecker_disc(disc, p))
        for p in ps
    ]
    return array("b", symbols)


def mark_class(mask, residue, modulus, q):
    """Set mask[y*uq + x] for every residue x + y*w of residue + I in O/Q,
    for the HNF ideals I = modulus = (ui, vi, wi) and Q = q = (uq, vq, wq).

    The class rep (aa, ab) = residue is reduced mod I; the points are
    a + k*(vi + wi*w) + m*ui, marked in blocks of rows of k by columns of
    m with at most MARK_BLOCK entries each.
    """
    import numpy as np

    (aa, ab), ui, vi, wi = residue, modulus.u, modulus.v, modulus.w
    uq, vq, wq = q.u, q.v, q.w
    nk = wq // wi
    nm = uq // ui
    width = min(nm, MARK_BLOCK)
    chunk = MARK_BLOCK // width
    for k0 in range(0, nk, chunk):
        k = np.arange(k0, min(k0 + chunk, nk), dtype=np.int64)
        eb = ab + k * wi
        yy = eb % wq
        t = (eb - yy) // wq
        base = (aa + k * vi - t * vq)[:, None]
        row = (yy * uq)[:, None]
        for m0 in range(0, nm, width):
            xx = np.arange(m0, min(m0 + width, nm), dtype=np.int64)
            xx *= ui
            xx = base + xx
            xx %= uq
            xx += row
            mask.flat[xx.ravel()] = True
            del xx  # freed before the next arange: at most two blocks live at once


def level_labels(uq, wq, uj, vj, wj):
    """Index of (residue mod Q_j) for each residue x + y*w of O/Q, in one
    array of the index_dtype of |O/Q| = uq*wq. Q_j divides Q, so uj divides
    uq and every intermediate lies in (-uj, uq*wq)."""
    import numpy as np

    dtype = index_dtype(uq * wq)
    y = np.arange(wq, dtype=np.int64)
    yy = y % wj
    shift = (y - yy) // wj * vj % uj  # t*vj mod uj, t = y // wj
    xx = np.arange(uq * wq, dtype=dtype).reshape(wq, uq)  # y*uq + x
    xx -= (y * uq + shift).astype(dtype)[:, None]
    xx %= uj
    xx += (yy * uj).astype(dtype)[:, None]
    return xx.ravel()
