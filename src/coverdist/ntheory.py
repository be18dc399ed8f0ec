"""Exact elementary number theory on Python ints: primality, square roots
modulo a prime, integer roots and Pollard-Brent rho.

isprime is exact below psi_13 = 3317044064679887385961981: Miller-Rabin on
the first k prime bases is exact below psi_k (Sorenson and Webster, 2015).
From psi_13 up it is the strong Baillie-PSW test, Miller-Rabin to base 2 and
a strong Lucas test with Selfridge's parameters, which has no known
counterexample.
"""

from math import gcd, isqrt, log2

from . import kernels

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
# (psi_k, k): Miller-Rabin on the first k prime bases is exact below psi_k
_PSI = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
    (3317044064679887385961981, 13),
)


def _strong_prp(n, a):
    """Miller-Rabin: is the odd n > a a strong probable prime to base a?"""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a, n):
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    j = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                j = -j
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            j = -j
        a %= n
    return j if n == 1 else 0


def _strong_lucas_prp(n):
    """Strong Lucas test with Selfridge's parameters, for odd n > 47."""
    if isqrt(n) ** 2 == n:
        return False
    # D = 5, -7, 9, -11, ... until (D/n) = -1; then P = 1, Q = (1 - D)/4
    d = 5
    while (j := _jacobi(d, n)) != -1:
        if j == 0:
            return False
        d = -d - 2 if d > 0 else -d + 2
    q = (1 - d) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    u, v, qk = 1, 1, q % n  # U_1, V_1, Q^1
    for bit in bin((n + 1) >> s)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = u + v, d * u + v  # twice U_{k+1} and V_{k+1}, halved mod n
            u = ((u + n if u & 1 else u) >> 1) % n
            v = ((v + n if v & 1 else v) >> 1) % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def isprime(n):
    """Primality: exact below psi_13, Baillie-PSW from there up."""
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    if n < 53 * 53:
        return True
    for psi, k in _PSI:
        if n < psi:
            return all(_strong_prp(n, a) for a in _BASES[:k])
    return _strong_prp(n, 2) and _strong_lucas_prp(n)


def sqrt_mod(a, p):
    """A square root of a modulo the odd prime p (Tonelli-Shanks); ValueError
    if a is not a square mod p."""
    a %= p
    if a == 0:
        return 0
    if p & 3 == 3:
        r = pow(a, (p + 1) >> 2, p)
        if r * r % p != a:
            raise ValueError(f"{a} is not a square mod {p}")
        return r
    s = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> s
    z = 2
    while pow(z, (p - 1) >> 1, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) >> 1, p)
    while t != 1:
        # least i with t^(2^i) = 1; t has order 2^i < 2^m when a is a square
        i, t2 = 1, t * t % p
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        if i == m:
            raise ValueError(f"{a} is not a square mod {p}")
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def iroot(n, k):
    """floor(n ** (1/k)) for n >= 0 and k >= 1, by Newton's method."""
    if k == 1:
        return n
    if k == 2:
        return isqrt(n)
    if n.bit_length() <= k:
        return min(n, 1)
    # 2**e estimates the root from the top 64 bits of n. One Newton step from
    # any positive x lands at or above the root; the steps then decrease to it.
    shift = max(n.bit_length() - 64, 0)
    e = (log2(n >> shift) + shift) / k
    x = int(2.0 ** (e % 1 + 52)) << int(e) >> 52

    def newton(x):
        return ((k - 1) * x + n // x ** (k - 1)) // k

    x = newton(x)
    while (y := newton(x)) < x:
        x = y
    return x


def perfect_power(n):
    """(m, k) with n = m**k and k as large as possible, for an n > 1 whose
    prime factors all exceed 2**19 (as after trial division to 10**6).

    Such an m exceeds 2**19, so only prime k <= bit_length(n)/19 can occur;
    a composite k is found as a chain of prime roots.
    """
    m, k = n, 1
    found = True
    while found:
        found = False
        for p in kernels.primes(2, m.bit_length() // 19):
            r = iroot(m, p)
            if r**p == m:
                m, k, found = r, k * p, True
                break
    return m, k


def pollard_brent(n):
    """A nontrivial factor of the odd composite n: Pollard's rho on
    x -> x*x + c for c = 1, 2, ..., with Brent's cycle search and gcds
    batched over 128 steps."""
    for c in range(1, n):
        y, r, g, prod = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    prod = prod * (x - y) % n
                g = gcd(prod, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step through it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g
    raise ValueError(f"no factor of {n} found")
