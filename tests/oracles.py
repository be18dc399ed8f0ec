"""Independent reference implementations used to pin expected values.

Everything here deliberately avoids the package's own code paths:
membership via Cramer solves, lattice normal forms via sympy, splitting by
brute-force root counting, measures via a per-point dict walk or a
per-label list walk, and analytic sums/products via scaled-integer directed
arithmetic.
"""

from fractions import Fraction
from math import isqrt

from sympy import Matrix
from sympy.matrices.normalforms import hermite_normal_form

SCALE_BITS = 96
SCALE = 1 << SCALE_BITS


# ----------------------------------------------------------------- lattices


def cramer_member(x, u, v, w):
    """Is x in the lattice spanned by (u, 0) and (v, w)? Cramer over Z."""
    det = u * w
    t1 = x[0] * w - x[1] * v
    t2 = u * x[1]
    return t1 % det == 0 and t2 % det == 0


def sympy_hnf(vectors):
    """Column-style HNF triple (u, v, w) of the Z-span of (a, b) pairs."""
    m = Matrix([[a for a, b in vectors], [b for a, b in vectors]])
    h = hermite_normal_form(m)
    # h is 2x2 with h[1,0] == 0 in sympy's convention (lower-left zero),
    # columns (h00, h10), (h01, h11); normalize to u > 0, w > 0, 0 <= v < u
    cols = [(int(h[0, j]), int(h[1, j])) for j in range(h.cols)]
    pure = [c for c in cols if c[1] == 0]
    mixed = [c for c in cols if c[1] != 0]
    assert len(pure) == 1 and len(mixed) == 1, cols
    u = abs(pure[0][0])
    v, w = mixed[0]
    if w < 0:
        v, w = -v, -w
    return u, v % u, w


def lattice_index(u, v, w, m):
    """Index of the (u,0),(v,w) lattice in Z^2 by counting points in a box.

    m must satisfy m*Z^2 inside the lattice; then index = m^2 / count.
    """
    assert cramer_member((m, 0), u, v, w) and cramer_member((0, m), u, v, w)
    count = 0
    for x in range(m):
        for y in range(m):
            if cramer_member((x, y), u, v, w):
                count += 1
    assert (m * m) % count == 0
    return (m * m) // count


def elem_mul_oracle(trace, nm, x, y):
    a, b = x
    c, e = y
    return (a * c - b * e * nm, a * e + b * c + b * e * trace)


def root_count(trace, nm, p):
    """Number of roots of t^2 - trace*t + nm mod p, by exhaustion."""
    return sum(1 for t in range(p) if (t * t - trace * t + nm) % p == 0)


def roots_mod(trace, nm, p):
    return [t for t in range(p) if (t * t - trace * t + nm) % p == 0]


# ------------------------------------------------------------------ residues


def residue_index(xr, ideal):
    """Index y*u + x of a reduced residue (x, y) in the canonical enumeration."""
    return xr[1] * ideal.u + xr[0]


def residues(ideal):
    """All residues mod the ideal in canonical order (index y*u + x)."""
    return [(x, y) for y in range(ideal.w) for x in range(ideal.u)]


# ---------------------------------------------------------------- distortion


def point_masses(state):
    """Per-point masses of a codebook state: table[codes[label of the point]]."""
    labels = state.norm.levels[state.level]
    return [state.table[c] for c in state.codes[labels].tolist()]


def run_oracle(n, levels, targets, deltas, initial=None):
    """Per-point dict reference of the distortion run.

    Returns (masses_per_step, reports) where masses_per_step[j] is the list
    of point masses after j steps and reports[j-1] = (m1, m2, contribution).
    """
    mass = list(initial) if initial is not None else [Fraction(1, n)] * n
    out = [list(mass)]
    reports = []
    for j, delta in enumerate(deltas, start=1):
        delta = Fraction(delta)
        fibers = {}
        for i in range(n):
            fibers.setdefault(levels[j - 1][i], []).append(i)
        alpha = {}
        for lab, idxs in fibers.items():
            inter = sum(1 for i in idxs if targets[j - 1][i])
            alpha[lab] = Fraction(inter, len(idxs))
        m1 = sum((mass[i] for i in range(n) if targets[j - 1][i]), Fraction(0))
        m2 = sum(
            (mass[i] * alpha[levels[j - 1][i]] ** 2 for i in range(n)), Fraction(0)
        )
        if delta:
            contribution = min(m1, m2 / (4 * delta * (1 - delta)))
        else:
            contribution = m1
        new = []
        for i in range(n):
            a = alpha[levels[j - 1][i]]
            if targets[j - 1][i]:
                f = Fraction(0) if a < delta else (a - delta) / (a * (1 - delta))
            else:
                f = 1 / (1 - a) if a < delta else 1 / (1 - delta)
            new.append(mass[i] * f)
        mass = new
        out.append(list(mass))
        reports.append((m1, m2, contribution))
    return out, reports


def run_per_label(problem, deltas):
    """Per-label reference of distortion.run: one Fraction per fiber label.

    Labels of each level are numbered densely by ascending original label.
    Returns (values, reports, eta, final_masses): values[j][l] is the mass
    of each point of level-j label l after j steps, reports[j-1] is
    (m1, m2, contribution, target_mass) of step j, and final_masses[j-1]
    is the mass of B_j after the last step. Mass conservation of every
    fiber is asserted after each step.
    """
    import numpy as np

    labs = [
        np.unique(np.asarray(lv, dtype=np.int64), return_inverse=True)[1].tolist()
        for lv in problem.levels
    ]
    tgts = [np.asarray(t, dtype=bool).tolist() for t in problem.targets]
    n = len(labs[0])
    sizes = []
    for lab in labs:
        sz = [0] * (max(lab) + 1)
        for l in lab:
            sz[l] += 1
        sizes.append(sz)
    if problem.initial_mass is None:
        values = [Fraction(1, n)] * len(sizes[0])
    else:
        values = [None] * len(sizes[0])
        for l, m in zip(labs[0], problem.initial_mass):
            values[l] = Fraction(m)
    out = [values]
    reports = []
    for j, delta in enumerate(deltas, start=1):
        delta = Fraction(delta)
        lab_p, lab = labs[j - 1], labs[j]
        parent = [0] * len(sizes[j])
        bit = [False] * len(sizes[j])
        inter = [0] * len(sizes[j - 1])
        for i, l in enumerate(lab):
            parent[l] = lab_p[i]
            bit[l] = tgts[j - 1][i]
            inter[lab_p[i]] += tgts[j - 1][i]
        alphas = [Fraction(c, s) for c, s in zip(inter, sizes[j - 1])]
        m1 = sum((v * c for v, c in zip(values, inter)), Fraction(0))
        m2 = sum((v * a * c for v, a, c in zip(values, alphas, inter)), Fraction(0))
        if delta:
            contribution = min(m1, m2 / (4 * delta * (1 - delta)))
        else:
            contribution = m1
        new = []
        for l in range(len(sizes[j])):
            a, v = alphas[parent[l]], values[parent[l]]
            if bit[l]:
                f = Fraction(0) if a < delta else (a - delta) / (a * (1 - delta))
            else:
                f = 1 / (1 - a) if a < delta else 1 / (1 - delta)
            new.append(v * f)
        agg = [Fraction(0)] * len(sizes[j - 1])
        for l, v in enumerate(new):
            agg[parent[l]] += v * sizes[j][l]
        assert agg == [v * s for v, s in zip(values, sizes[j - 1])]
        values = new
        out.append(values)
        pjbj = sum((values[l] for l, t in zip(lab, tgts[j - 1]) if t), Fraction(0))
        reports.append((m1, m2, contribution, pjbj))
    final = [
        sum((values[l] for l, t in zip(labs[-1], tgt) if t), Fraction(0))
        for tgt in tgts
    ]
    eta = sum((r[2] for r in reports), Fraction(0))
    return out, reports, eta, final


# ------------------------------------------------------- scaled-int analysis


def sqrt_hi(x, bits=96):
    """Rational upper bound on sqrt(x), x >= 0."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("sqrt of negative")
    t = -((-(x.numerator << (2 * bits))) // x.denominator)  # ceil
    s = isqrt(t)
    if s * s < t:
        s += 1
    return Fraction(s, 1 << bits)


def inv_sum_up(values):
    """Scaled-integer upper bound on sum of 1/v."""
    total = 0
    for v in values:
        total += -((-SCALE) // v)  # ceil(SCALE/v)
    return Fraction(total, SCALE)


def inv_sum_down(values):
    total = 0
    for v in values:
        total += SCALE // v
    return Fraction(total, SCALE)


def euler_product_up(values):
    """Scaled-int upper bound on prod of (1 - 1/v)^-1 = prod v/(v-1)."""
    acc = SCALE
    for v in values:
        acc = -((-acc * v) // (v - 1))
    return Fraction(acc, SCALE)


def euler_product_down(values):
    acc = SCALE
    for v in values:
        acc = (acc * v) // (v - 1)
    return Fraction(acc, SCALE)


def rankin_product_up(values):
    """Scaled-int upper bound on prod of (1 - v^-1/2)^-1."""
    acc = SCALE
    for v in values:
        # (1 - 1/sqrt(v))^-1 = sqrt(v)/(sqrt(v)-1); use r <= sqrt(v)*2^48 < r+1
        r = isqrt(v << 96)
        # sqrt(v)/(sqrt(v)-1) is decreasing in sqrt(v), so the lower root bound
        # r/2^48 gives an upper bound r/(r - 2^48)
        acc = -((-acc * r) // (r - (1 << 48)))
    return Fraction(acc, SCALE)


# ------------------------------------------------------- ideal counting

def kronecker(disc, m):
    """Kronecker symbol (disc/m) for m >= 1, via Euler's criterion."""
    from sympy import factorint

    out = 1
    for p, e in factorint(m).items():
        if p == 2:
            if disc % 2 == 0:
                return 0
            chi = 1 if disc % 8 in (1, 7) else -1
        elif disc % p == 0:
            return 0
        else:
            chi = 1 if pow(disc % p, (p - 1) // 2, p) == 1 else -1
        out *= chi**e
    return out


def ideal_counts(disc, limit):
    """counts[n] = number of ideals of norm n, via sum of (disc/m) over m | n."""
    import numpy as np

    counts = np.zeros(limit + 1, dtype=np.int64)
    for m in range(1, limit + 1):
        chi = kronecker(disc, m)
        if chi:
            counts[m::m] += chi
    return counts


def hnf_ideals_direct(trace, nm, max_norm):
    """All HNF ideal triples (u, v, w) of norm <= max_norm, by raw divisibility:
    w | u, w | v, 0 <= v < u, and u*w | norm(v + w*omega) = v^2 + T*v*w + N*w^2.
    """
    out = set()
    for n in range(1, max_norm + 1):
        w = 1
        while w * w <= n:
            if n % (w * w) == 0:
                u = n // w
                for v in range(0, u, w):
                    if (v * v + trace * v * w + nm * w * w) % (u * w) == 0:
                        out.add((u, v, w))
            w += 1
    return out


def lattice_index_rows(u, v, w, m):
    """Lattice index by counting points of (u,0),(v,w) in [0,m)^2 row by row."""
    count = 0
    for b in range((m + w - 1) // w):
        hits = (m - b * v - 1) // u + (b * v) // u + 1
        count += max(0, hits)
    assert count and (m * m) % count == 0
    return (m * m) // count


def hnf_labels(pts, u, v, w):
    """Class label in [0, u*w) for each point (n, 2 array) modulo the ideal
    (u, v, w): canonical representative via HNF reduction."""
    x0, x1 = pts[:, 0], pts[:, 1]
    k = x1 // w
    r1 = x1 - k * w
    r0 = (x0 - k * v) % u
    return r1 * u + r0
