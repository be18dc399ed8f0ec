"""Independent reference implementations used to pin expected values.

Everything here deliberately avoids the package's own code paths:
membership via Cramer solves, lattice normal forms via sympy, splitting by
brute-force root counting, measures via a per-point dict walk or a
per-label list walk, and analytic sums/products via scaled-integer directed
arithmetic. The exceptions are code the package replaced, kept as it was
to check its replacement: primes_up_to_norm_loop classifies each sieved
prime again through ring.primes_above, effective_bound_exact runs the
y search on exact numbers through eta2_tail below,
build_problem_points builds the n-point label arrays and target masks of
a covering system through the package's kernels, to_labels is the
package's former converter of such a PointProblem to a label-space
DistortionProblem, with its checks, numbering labels by first point,
verify_step_signatures is distortion's former step check, which grouped
each fiber's labels by code rather than by target bit, step_label_keys
is distortion's former step, which sorted one (code, alpha, target bit)
key per level-j label, fibers_alpha_ids, moments_alpha_ids and
step_alpha_ids are distortion's former grouping, moments and step, which
ranked the fibers' distinct alphas and summed over level-(j-1) labels,
fibers_unique and verify_step_lexsort are distortion's former grouping
and step check, which found the (code, t) groups with np.unique and the
distinct (code, cell codes, cell counts) rows with np.lexsort,
alpha and alpha_upper_bound are distortion's and
bounds' former per-point alpha_j and its majorant, class_measure sums
point_masses over a class marked by the package's kernel, sieve,
mod_values, kron_values, trial_division and prime_norms_up_to are the
numpy kernels (and the trial division on them) that the
standard-library ones replaced, rankin_fold, p_small_fold and
eta2_tail are bounds' exact folds and tail as they were before each
computed its norm-only or block-only values once, and m1_euler_loop is
bounds' m1 row as it was before it took one product of the norms.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, isqrt, prod

import numpy as np
from sympy import Matrix
from sympy.matrices.normalforms import hermite_normal_form

from coverdist import DistortionProblem, InputError, SoundnessError, bounds, kernels, ring
from coverdist import distortion
from coverdist.rounding import (
    EGAMMA_EXP_HI,
    PI_UPPER_C,
    ceil_to_grid,
    ln_bounds,
    round_down,
    round_up,
    round_up_pair,
    sqrt_lo,
)

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


# ------------------------------------------------------------------ residues


def residue_index(xr, ideal):
    """Index y*u + x of a reduced residue (x, y) in the canonical enumeration."""
    return xr[1] * ideal.u + xr[0]


def residues(ideal):
    """All residues mod the ideal in canonical order (index y*u + x)."""
    return [(x, y) for y in range(ideal.w) for x in range(ideal.u)]


# ---------------------------------------------------------------- distortion


@dataclass
class PointProblem:
    """A distortion problem over n points: J+1 label arrays and J target
    masks, each with one entry per point."""

    levels: list = None  # J+1 integer label arrays over the points
    targets: list = None  # J boolean arrays over the points
    initial_mass: list | None = None  # per-point Fractions; uniform if None


def _dense(labels):
    """The labels numbered 0, 1, ... in order of their first point."""
    ids = {}
    return [ids.setdefault(l, len(ids)) for l in np.asarray(labels).tolist()]


def to_labels(problem):
    """Check a PointProblem and convert it to label space.

    Returns (DistortionProblem, points), points[i] the level-J label that
    holds point i. Each level's labels are numbered densely by their first
    point, so the first uncovered level-J label holds the first uncovered
    point. The labels of one level must hold equal point counts.
    """
    if not problem.levels:
        raise InputError("need at least the level-0 labels")
    levels, reps = [], []
    n = None
    for j, raw in enumerate(problem.levels):
        arr = np.asarray(raw, dtype=np.int64)
        if arr.ndim != 1 or (n is not None and len(arr) != n):
            raise InputError(f"level {j} labels malformed")
        n = len(arr)
        if n == 0:
            raise InputError("empty point set")
        if arr.min() < 0:
            raise InputError(f"level {j} labels must be nonnegative")
        # relabel densely by first point, with the first point of each label
        _, first, inverse = np.unique(arr, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        levels.append(rank[inverse].astype(np.int64))
        reps.append(first[order])
    parents = []
    for j in range(1, len(levels)):
        parent = levels[j - 1][reps[j]]
        if not np.array_equal(parent[levels[j]], levels[j - 1]):
            bad = int(np.flatnonzero(parent[levels[j]] != levels[j - 1])[0])
            rep = int(reps[j][levels[j][bad]])
            raise InputError(
                f"level {j} does not refine level {j - 1}: points {rep} and {bad} "
                f"share a level-{j} fiber but not a level-{j - 1} fiber"
            )
        parents.append(parent)
    sizes = []
    for j, arr in enumerate(levels):
        counts = np.bincount(arr)
        if (counts != counts[0]).any():
            raise InputError(f"level {j} labels hold unequal point counts")
        sizes.append(int(counts[0]))

    targets = [np.asarray(t, dtype=np.bool_) for t in problem.targets or []]
    if len(targets) != len(levels) - 1:
        raise InputError(
            f"{len(targets)} targets for {len(levels) - 1} distortion levels"
        )
    cells = []
    for j, t in enumerate(targets, start=1):
        if t.shape != (n,):
            raise InputError(f"target {j} malformed")
        bits = t[reps[j]]
        if not np.array_equal(bits[levels[j]], t):
            raise InputError(f"target {j} is not a union of level-{j} fibers")
        cells.append(2 * parents[j - 1] + bits)

    if problem.initial_mass is None:
        initial_codes = np.zeros(len(reps[0]), dtype=np.int64)
        initial_table = (Fraction(1, n),)
    else:
        if len(problem.initial_mass) != n:
            raise InputError("initial mass list has wrong length")
        to_fraction = np.frompyfunc(Fraction, 1, 1)
        masses = to_fraction(np.array(problem.initial_mass, dtype=object))
        table, point_codes = np.unique(masses, return_inverse=True)  # ascending
        if table[0] < 0:
            raise InputError("negative initial mass")
        initial_codes = point_codes[reps[0]].astype(np.int64)
        if not np.array_equal(initial_codes[levels[0]], point_codes):
            raise InputError("initial mass not constant on level-0 fibers")
        initial_table = tuple(table.tolist())
        if sum(initial_table[c] for c in initial_codes.tolist()) * sizes[0] != 1:
            raise InputError("initial mass does not sum to 1")

    problem = DistortionProblem(sizes, cells, initial_codes, initial_table)
    return problem, levels[-1]


def build_problem_points(instance):
    """system.build_problem as it was: J+1 int64 label arrays and J target
    masks, each over the n points of O/Q (point i is residue_at(i, q))."""
    q = instance.q
    levels = [
        kernels.level_labels(q.u, q.w, lv.u, lv.v, lv.w).astype(np.int64)
        for lv in instance.levels
    ]
    targets = []
    for j in range(1, instance.depth + 1):
        mask = np.zeros(ring.ideal_norm(q), dtype=np.bool_)
        for cls, data in zip(instance.classes, instance.class_data):
            if data.level == j:
                kernels.mark_class(mask, cls.residue, cls.modulus, q)
        targets.append(mask)
    return PointProblem(levels=levels, targets=targets)


def label_codes(state):
    """One code per label of a state's level: a level-j state, j >= 1,
    codes the cells of cells[j-1], and label l takes the code of its cell."""
    if state.level == 0:
        return state.codes
    return state.codes[state.problem.cells[state.level - 1]]


def total_mass(state):
    """Mass of a state, summed label by label."""
    table, sizes = state.table, state.problem.sizes
    return sum((table[c] for c in label_codes(state).tolist()), Fraction(0)) * sizes[state.level]


def verify_step_signatures(old, new, j):
    """distortion._verify_step as it was: fiber mass checked on (parent
    fiber, child code) cells, one Fraction sum per distinct parent
    signature, each signature refined by one sort per cell rank, from the
    codes of the labels."""
    problem = old.problem
    nc = len(new.table)
    if new.codes.min() < 0 or new.codes.max() >= nc:
        raise SoundnessError(f"step {j}: code outside the value table")
    if total_mass(new) != 1:
        raise SoundnessError(f"step {j}: total mass drifted")
    old_codes, new_codes = label_codes(old), label_codes(new)
    # every level-(j-1) fiber keeps its mass, recomputed from the new codes:
    # a cell is (parent fiber, child code) with its point count
    cells, inv = np.unique((problem.cells[j - 1] >> 1) * nc + new_codes, return_inverse=True)
    cell_size = np.zeros(len(cells), dtype=np.int64)
    np.add.at(cell_size, inv, problem.sizes[j])
    cell_parent, cell_code = np.divmod(cells, nc)
    # cells are sorted by parent and every parent has at least one
    bounds = np.searchsorted(cell_parent, np.arange(len(old_codes) + 1))
    rank = np.arange(len(cells)) - bounds[cell_parent]
    # signature of a parent: its own code, then its cells' (code, count)
    # pairs in code order, refined one rank at a time
    _, sig = np.unique(old_codes, return_inverse=True)
    _, pair = np.unique(
        cell_code * (int(cell_size.max()) + 1) + cell_size, return_inverse=True
    )
    for r in range(int(rank.max()) + 1):
        at = rank == r
        ext = np.zeros(len(old_codes), dtype=np.int64)  # 0: no cell of this rank
        ext[cell_parent[at]] = pair[at] + 1
        _, sig = np.unique(sig * (len(cells) + 1) + ext, return_inverse=True)
    _, firsts = np.unique(sig, return_index=True)
    for p in firsts.tolist():
        lo, hi = int(bounds[p]), int(bounds[p + 1])
        got = Fraction(0)
        for c, s in zip(cell_code[lo:hi].tolist(), cell_size[lo:hi].tolist()):
            got += new.table[c] * s
        if got != old.table[old_codes[p]] * problem.sizes[j - 1]:
            raise SoundnessError(f"step {j}: fiber mass not conserved")


def _alpha_ids(state, j):
    """distortion's alpha codebook: (alphas, ids, inter), level-(j-1) label
    l having alpha alphas[ids[l]] = inter[l] / sizes[j-1], one id per
    distinct inter."""
    problem = state.problem
    if j != state.level + 1 or j > len(problem.cells):
        raise InputError(f"cannot take step {j} from level {state.level}")
    cell = problem.cells[j - 1]
    inter = np.zeros(len(label_codes(state)), dtype=np.int64)  # target points per parent
    np.add.at(inter, cell[(cell & 1) == 1] >> 1, problem.sizes[j])
    counts, ids = np.unique(inter, return_inverse=True)
    alphas = tuple(Fraction(c, problem.sizes[j - 1]) for c in counts.tolist())
    return alphas, ids, inter


def step_label_keys(state, j, delta, checks=True):
    """distortion.step as it was: one mixed-radix (parent code, parent alpha
    id, target bit) key per level-j label, sorted with np.unique, and one
    value interned per distinct key in ascending key order. The new state
    codes each (parent, target bit) cell by the code of its labels; an
    empty cell gets code 0."""
    delta = distortion._check_delta(delta)
    problem = state.problem
    alphas, ids, _ = _alpha_ids(state, j)
    parent, bit = problem.cells[j - 1] >> 1, problem.cells[j - 1] & 1
    na = len(alphas)
    assert len(state.table) * na * 2 <= np.iinfo(np.int64).max, "keys overflow int64"
    keys = (label_codes(state)[parent] * na + ids[parent]) * 2 + bit
    uniq, inv = np.unique(keys, return_inverse=True)
    interned = {}
    remap = []
    for key in uniq.tolist():
        rest, bit = divmod(key, 2)
        code, a = divmod(rest, na)
        v = state.table[code]
        if v:
            v = v * distortion._factor(alphas[a], bit, delta)
        remap.append(interned.setdefault(v, len(interned)))
    codes = np.zeros(2 * len(ids), dtype=np.int64)
    codes[problem.cells[j - 1]] = np.asarray(remap, dtype=np.int64)[inv]
    deltas = state.deltas + (delta,)
    new_state = distortion.DistortionState(problem, j, codes, tuple(interned), deltas)
    if checks:
        distortion._verify_step(state, new_state, j)
    return new_state


def fibers_alpha_ids(state, j):
    """distortion._fibers as it was: level-(j-1) fibers grouped by (code,
    alpha id), (alphas, split, inter, keys, group), with one np.unique over
    the distinct inter = split[1::2] * sizes[j] for the alpha ids and
    another over the keys code * len(alphas) + alpha id."""
    problem, codes = state.problem, label_codes(state)
    split = np.zeros(2 * len(codes), dtype=np.int64)
    np.add.at(split, problem.cells[j - 1], 1)
    inter = split[1::2] * problem.sizes[j]  # target points per parent
    counts, ids = np.unique(inter, return_inverse=True)
    alphas = tuple(Fraction(c, problem.sizes[j - 1]) for c in counts.tolist())
    keys = codes.astype(np.int64) * len(alphas) + ids
    keys, group = np.unique(keys, return_inverse=True)
    return alphas, split, inter, keys, group.astype(kernels.index_dtype(2 * len(keys)))


def moments_alpha_ids(state, fibers):
    """distortion._moments as it was, on fibers_alpha_ids: M1 and M2 as
    grouped sums over the level-(j-1) labels."""
    alphas, _, inter, keys, group = fibers
    table, na = state.table, len(alphas)
    m1 = distortion._grouped_sum(label_codes(state), inter, table)
    m2 = [table[k // na] * alphas[k % na] for k in keys.tolist()]
    m2 = distortion._grouped_sum(group, inter, m2)
    return m1, m2


def step_alpha_ids(state, j, delta, fibers, checks):
    """distortion._step as it was, on fibers_alpha_ids: the level-j labels
    tallied per (group, bit) cell with one np.add.at over 2 * |L_{j-1}|
    cells, one value interned per nonzero tally in ascending order, and
    P_j(B_j) summed from the tally."""
    delta = distortion._check_delta(delta)
    problem = state.problem
    alphas, split, _, keys, group = fibers
    na, keys = len(alphas), keys.tolist()
    gcell = np.repeat(group * 2, 2)
    gcell[1::2] += 1
    tally = np.zeros(2 * len(keys), dtype=np.int64)
    np.add.at(tally, gcell, split)
    remap = np.zeros(2 * len(keys), dtype=group.dtype)
    interned, target = {}, Fraction(0)
    for c in np.flatnonzero(tally).tolist():
        code, a = divmod(keys[c // 2], na)
        v = state.table[code]
        if v:
            v = v * distortion._factor(alphas[a], c % 2, delta)
            if c % 2:
                target += v * int(tally[c])
        remap[c] = interned.setdefault(v, len(interned))
    deltas = state.deltas + (delta,)
    new_state = distortion.DistortionState(problem, j, remap[gcell], tuple(interned), deltas)
    if checks:
        distortion._verify_step(state, new_state, j)
    return new_state, target * problem.sizes[j]


def fibers_unique(state, j):
    """distortion._fibers as it was: the (code, t) keys of the level-(j-1)
    fibers grouped by one np.unique, (r, split, keys, counts, group)."""
    problem, codes = state.problem, label_codes(state)
    split = np.zeros(2 * len(codes), dtype=np.int64)
    np.add.at(split, problem.cells[j - 1], 1)
    r = problem.sizes[j - 1] // problem.sizes[j]
    keys = codes.astype(np.int64) * (r + 1) + split[1::2]
    keys, group, counts = np.unique(keys, return_inverse=True, return_counts=True)
    return r, split, keys, counts, group.astype(kernels.index_dtype(2 * len(keys)))


def verify_step_lexsort(old, new, j):
    """distortion._verify_step as it was: one row (old code, c0, c1, n0,
    n1) per level-(j-1) fiber, the distinct rows found by np.lexsort, and
    the fiber size and mass checked once per distinct row."""
    problem, cells = old.problem, old.problem.cells[j - 1]
    nc = len(new.table)
    code = new.codes
    if code.min() < 0 or code.max() >= nc:
        raise SoundnessError(f"step {j}: code outside the value table")
    count = np.zeros(len(code), dtype=np.int64)
    np.add.at(count, cells, 1)
    if distortion._grouped_sum(code, count, new.table) * problem.sizes[j] != 1:
        raise SoundnessError(f"step {j}: total mass drifted")
    count = count.astype(cells.dtype)
    rows = np.stack([label_codes(old), code[0::2], code[1::2], count[0::2], count[1::2]])
    rows = rows[:, np.lexsort(rows)]
    firsts = np.flatnonzero(np.r_[True, (np.diff(rows) != 0).any(axis=0)])
    r = problem.sizes[j - 1] // problem.sizes[j]
    for oc, c0, c1, n0, n1 in rows[:, firsts].T.tolist():
        if n0 + n1 != r:
            raise SoundnessError(f"step {j}: a fiber holds {n0 + n1} labels, not {r}")
        if new.table[c0] * n0 + new.table[c1] * n1 != old.table[oc] * r:
            raise SoundnessError(f"step {j}: fiber mass not conserved")


def target_mass(state):
    """P_j(B_j) of a level-j state, j >= 1, summed label by label."""
    j, problem = state.level, state.problem
    in_target = (problem.cells[j - 1] & 1) == 1
    total = sum((state.table[c] for c in label_codes(state)[in_target].tolist()), Fraction(0))
    return total * problem.sizes[j]


def point_masses(state, problem):
    """Per-point masses of a codebook state: table[codes[label of the point]],
    with the points and labels of the PointProblem, numbered by first point."""
    codes = label_codes(state).tolist()
    return [state.table[codes[l]] for l in _dense(problem.levels[state.level])]


def alpha(state, j):
    """Per-point alpha_j, point i being level-J label i: the alpha of the
    level-(j-1) label that holds it (constant on level-(j-1) fibers)."""
    alphas, ids, _ = _alpha_ids(state, j)
    cells = state.problem.cells
    lab = np.arange(len(cells[-1]))
    for cell in reversed(cells[j - 1 :]):  # levels J, ..., j
        lab = cell[lab] >> 1
    return [alphas[i] for i in ids[lab].tolist()]


def alpha_upper_bound(instance, x, j):
    """Pointwise majorant of alpha_j at element x: sum over level-j classes
    of 1/q_j^r_i over those whose prime-free part contains x - a_i."""
    q = instance.primes[j - 1][0].norm
    total = Fraction(0)
    for cls, data in zip(instance.classes, instance.class_data):
        if data.level == j and ring.in_class(x, cls.residue, data.cofactor):
            total += Fraction(1, q**data.exponent)
    return total


def class_measure(instance, state, a, ideal):
    """P(a + ideal), for an ideal dividing Q, under a state of
    system.build_problem(instance): point_masses summed over the class."""
    q = instance.q
    mask = np.zeros(ring.ideal_norm(q), dtype=np.bool_)
    kernels.mark_class(mask, ring.reduce(a, ideal), ideal, q)
    masses = point_masses(state, build_problem_points(instance))
    return sum(compress(masses, mask.tolist()), Fraction(0))


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

    Labels of each level are numbered densely by their first point.
    Returns (values, reports, eta, final_masses): values[j][l] is the mass
    of each point of level-j label l after j steps, reports[j-1] is
    (m1, m2, contribution, target_mass) of step j, and final_masses[j-1]
    is the mass of B_j after the last step. Mass conservation of every
    fiber is asserted after each step.
    """
    labs = [_dense(lv) for lv in problem.levels]
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


def round_up_fraction(x, bits=96):
    """rounding.round_up as it was on Fractions, before the pair form: the
    oracle for round_up_pair."""
    num, den = x.numerator, x.denominator
    if num.bit_length() <= bits and den.bit_length() <= bits:
        return x
    e = bits - (num.bit_length() - den.bit_length())
    if e >= 0:
        q, r = divmod(num << e, den)
        return Fraction(q + (1 if r else 0), 1 << e)
    q, r = divmod(num, den << -e)
    return Fraction((q + (1 if r else 0)) << -e, 1)


def round_down_fraction(x, bits=96):
    """rounding.round_down as it was, with its own copy of the shift logic:
    the oracle for -round_up(-x)."""
    num, den = x.numerator, x.denominator
    if num.bit_length() <= bits and den.bit_length() <= bits:
        return x
    e = bits - (num.bit_length() - den.bit_length())
    if e >= 0:
        return Fraction((num << e) // den, 1 << e)
    return Fraction((num // (den << -e)) << -e, 1)


def rankin_W_fraction(norms):
    """bounds.rankin_W as it was on a Fraction accumulator, given the prime
    norms <= y: the oracle for the (num, den) pair loop."""
    acc = Fraction(1)
    shift = 1 << 48
    for q in norms:
        n = isqrt(q << 96)
        acc = round_up_fraction(acc * Fraction(n, n - shift))
    k = -((-acc.numerator * 1000) // acc.denominator)  # ceil to the 1/1000 grid
    return Fraction(k, 1000)


def p_small_fraction(norms):
    """bounds._p_small as it was on a Fraction accumulator: products of 64
    primes at a time, rounded up after each block and once at the end."""
    acc = Fraction(1)
    num = den = 1
    count = 0
    for q in norms:
        num *= q * (q + 1)
        den *= (q - 1) * (q - 1)
        count += 1
        if count == 64:
            acc = round_up_fraction(acc * Fraction(num, den))
            num = den = 1
            count = 0
    return round_up_fraction(acc * Fraction(num, den))


def rankin_fold(norms):
    """bounds._rankin_fold with one square root per norm, split norms
    included: the oracle for the fold that shares it within a run."""
    num = den = 1
    shift = 1 << bounds.SQRT_BITS
    for q in norms:
        n = isqrt(q << (2 * bounds.SQRT_BITS))
        a, b = n * num, (n - shift) * den
        g = gcd(a, b)
        num, den = round_up_pair(a // g, b // g)
    return ceil_to_grid(Fraction(num, den), Fraction(1, 1000))


def p_small_fold(norms):
    """bounds._p_small_fold with per-norm products q(q+1) and (q-1)^2."""
    num = den = 1
    for i in range(0, len(norms), 64):
        block = norms[i : i + 64]
        a = num * prod(q * (q + 1) for q in block)
        b = den * prod((q - 1) ** 2 for q in block)
        g = gcd(a, b)
        num, den = round_up_pair(a // g, b // g)
    return Fraction(num, den)


def m1_euler_loop(field, s, q):
    """bounds._m1_euler multiplying in one factor n / (n - 1) per prime norm."""
    out = Fraction(s, q - 1)
    for n in ring.prime_norms_up_to(field, q - 1).tolist():
        out *= Fraction(n, n - 1)
    return out


def eta2_tail(y):
    """bounds._eta2_tail computing every dyadic block's values at each y:
    the oracle for the tail that computes them once per block end."""
    ly_lo, ly_hi = ln_bounds(y)
    lbmy = round_down(bounds._mertens_prod_lo(ly_lo))
    m0 = isqrt(y) + 1
    cin6 = round_up(Fraction(m0, m0 - 1) ** 6)
    total = Fraction(0)
    a = y
    la_lo, la_hi = ly_lo, ly_hi
    while la_lo < bounds.LOG_CLOSE:
        b = 2 * a
        lb_lo, lb_hi = ln_bounds(b)
        count = 2 * PI_UPPER_C * b / lb_lo + (isqrt(b) - isqrt(a))
        sm = round_up(count / (a * a))
        ratio = round_up(bounds._mertens_prod_hi(lb_lo, lb_hi) / lbmy)
        rfac = round_up(ratio**12 * cin6)
        total = round_up(total + sm * rfac)
        a = b
        la_lo, la_hi = lb_lo, lb_hi
    sq_a = sqrt_lo(a)
    ka = round_up(la_hi**12 / sq_a)
    coef = round_up(
        cin6 * (EGAMMA_EXP_HI * (1 + 1 / (2 * la_lo * la_lo)) / lbmy) ** 12
    )
    adj = Fraction(a, a - 1) ** 2
    tails = 4 / sq_a + Fraction(1, 2 * isqrt(a) ** 2)
    closure = round_up(coef * ka * adj * tails)
    return total + closure


def effective_bound_exact(field, s):
    """The y that bounds.effective_bound chooses, on numpy arrays: at each
    y it folds the eta2 product over the norms <= y, carrying the full
    64-norm blocks from one y to the next, and tests the exact
    eta2 < 1/2. The oracle for the search."""
    y = max(bounds.Y_MIN, s**3)
    norms = prime_norms_up_to(field, y)
    carry = (1, 1, 0)
    while True:  # as in bounds._search_y, with no budget of its own
        psmall, carry = _p_small_carry(norms, carry)
        eta2 = round_up(s * s * round_up(Fraction(*psmall) * eta2_tail(y)))
        if eta2 < Fraction(1, 2):
            return y
        norms = np.concatenate([norms, prime_norms_up_to(field, 2 * y, y)])
        y *= 2


def _p_small_carry(norms, carry):
    # ((num, den), carry): the carry (num, den, k) is the rounded product
    # over norms[:k], k a multiple of 64; the norms <= y are a prefix of the
    # norms <= 2y, so each full block is folded once, in order
    num, den, k = carry
    rest = norms[k:]
    nums = rest * (rest + 1)
    dens = (rest - 1) ** 2
    full = len(rest) - len(rest) % 64
    num, den = _fold_blocks(num, den, nums[:full], dens[:full])
    return _fold_blocks(num, den, nums[full:], dens[full:]), (num, den, k + full)


def _fold_blocks(num, den, nums, dens):
    for i in range(0, len(nums), 64):
        a = num * prod(nums[i : i + 64].tolist())
        b = den * prod(dens[i : i + 64].tolist())
        g = gcd(a, b)
        num, den = round_up_pair(a // g, b // g)
    return num, den


def ln_bounds_fraction(x, terms=24, bits=96):
    """rounding.ln_bounds as it was with a Fraction per atanh term: the
    oracle for the sum on ints over one common denominator."""
    from coverdist.rounding import LN2_HI, LN2_LO, round_down

    x = Fraction(x)
    num, den = x.numerator, x.denominator
    k = num.bit_length() - den.bit_length()
    if (num < den << k) if k >= 0 else (num << -k) < den:
        k -= 1
    m = x / Fraction(2) ** k
    u = (m - 1) / (m + 1)
    s = Fraction(0)
    p = u
    u2 = u * u
    for i in range(terms):
        s += p / (2 * i + 1)
        p *= u2
    tail = 2 * p / ((2 * terms + 1) * (1 - u2))
    lo = k * (LN2_LO if k >= 0 else LN2_HI) + 2 * s
    hi = k * (LN2_HI if k >= 0 else LN2_LO) + 2 * s + tail
    return round_down(lo, bits), round_up_fraction(hi, bits)


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


# ------------------------------------------------------------- factoring


def factor_int_budget_sympy(n):
    """ring._factor_int_budget as it was on sympy: trial division to
    TRIAL_LIMIT, then sympy's own Fermat steps and perfect-power checks; a
    composite cofactor above COMPOSITE_CUTOFF raises NormTooLargeToFactor.

    sympy's factor cache is global to the process, so it is cleared first;
    its Fermat path can still raise ValueError by caching a composite factor.
    """
    from sympy import factor_cache, factorint, isprime, perfect_power

    from coverdist.errors import NormTooLargeToFactor
    from coverdist.ring import COMPOSITE_CUTOFF, TRIAL_LIMIT

    factor_cache.cache_clear()
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


# ---------------------------------------------------------------- splitting


def primes_up_to_norm_loop(field, y):
    """ring.primes_up_to_norm as it was: sieve, Kronecker symbols, then
    ring.primes_above (primality test and symbol again) per split or
    ramified prime."""
    y = int(y)
    if y < 2:
        return []
    ps = np.flatnonzero(sieve(y))
    out = []
    if field.kind == "rational":
        for p in ps.tolist():
            out.append(ring.PrimeIdeal(ring.Ideal(field, p, 0, 1), p, p, "rational"))
        return out
    syms = kron_values(field.discriminant, ps.astype(np.int64))
    for p, s in zip(ps.tolist(), syms.tolist()):
        if s == -1:
            if p * p <= y:
                out.append(ring.PrimeIdeal(ring.Ideal(field, p, 0, p), p, p * p, "inert"))
        else:
            out.extend(ring.primes_above(field, p))
    out.sort(key=ring.prime_sort_key)
    return out


# ------------------------------------------------------------ numpy kernels


def sieve(limit):
    """Boolean numpy prime flags for 0..limit."""
    flags = np.ones(limit + 1, dtype=np.bool_)
    flags[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def mod_values(m, ps):
    """m mod p for a Python int m >= 0 and each p of an int64 array of ps below 2^31."""
    ps = np.ascontiguousarray(ps, dtype=np.int64)
    if len(ps) and int(ps.max()) >= 2**31:
        raise ValueError(f"prime {int(ps.max())} is not below the kernel limit 2^31")
    # Every residue is below p < 2^31, so every product here fits in int64.
    # m may not, so m mod p is built from the base-2^31 digits of m.
    a = np.zeros_like(ps)
    for shift in range(31 * (m.bit_length() // 31), -1, -31):
        a <<= 31
        a += (m >> shift) & (2**31 - 1)
        a %= ps
    return a


def kron_values(disc, ps):
    """Kronecker symbols (disc/p) for an int64 array of primes ps (int8: -1, 0, 1),
    by Euler's criterion, vectorized over ps."""
    ps = np.ascontiguousarray(ps, dtype=np.int64)
    a = mod_values(abs(int(disc)), ps)
    if disc < 0:
        np.negative(a, out=a)
        a %= ps
    # a^((p-1)/2) mod p by square-and-multiply; squaring keeps a == 0
    # exactly where p divides disc
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
    out[ps == 2] = kernels.kronecker_disc(disc, 2)
    return out


def trial_division(n, limit):
    """{p: e} over the primes p <= limit dividing n, found as the zeros of
    the numpy mod_values of n, as ring._factor_int_budget found them."""
    ps = np.flatnonzero(sieve(limit))
    out = {}
    for p in ps[mod_values(n, ps) == 0].tolist():
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out[p] = e
    return out


def prime_norms_up_to(field, y, above=0):
    """Ascending int64 numpy array of the prime norms in (above, y], with
    multiplicity, from one numpy sieve and one Kronecker pass."""
    y, above = max(int(y), 1), max(int(above), 0)
    flags = sieve(y)
    ps = np.flatnonzero(flags[above + 1 :]).astype(np.int64) + above + 1
    if field.kind == "rational":
        return ps
    lo = isqrt(above) + 1
    small = np.flatnonzero(flags[lo : isqrt(y) + 1]).astype(np.int64) + lo
    syms = kron_values(field.discriminant, ps)
    inert = small[kron_values(field.discriminant, small) == -1]
    norms = np.concatenate([ps[syms == 1], ps[syms == 1], ps[syms == 0], inert * inert])
    norms.sort(kind="stable")
    return norms
