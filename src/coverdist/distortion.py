"""The distortion construction: a sequence of exact rational measures on a
finite set S that drains mass away from prescribed target sets.

A DistortionProblem is an inverse system of label spaces L_0 <- ... <- L_J
with targets B_1..B_J, B_j a set of level-j labels. Level-j label l holds
sizes[j] points of S, one count per level, and its cell cells[j-1][l] =
2 * parent(l) + [l in B_j] names its level-(j-1) parent and target bit.
Point index i means level-J label i; build_problem gives L_j = O/Q_j with
n/|O/Q_j| points per label, so point i is residue_at(i, Q).

Step j distorts the current measure using the conditional density of B_j
on each level-(j-1) fiber: with alpha that density and delta = delta_j,

    x in B_j:     0                               if alpha < delta
                  (alpha - delta)/(alpha(1-delta)) otherwise
    x not in B_j: 1/(1 - alpha)                    if alpha < delta
                  1/(1 - delta)                    otherwise

This multiplies pointwise, preserves the mass of every level-(j-1) fiber
(hence of every earlier target), and forces

    P_j(B_j) <= min(M1, M2/(4 delta (1-delta)))    (second term if delta > 0)

where M1, M2 are the first and second moments of alpha under P_{j-1}.
All masses are Fractions; nothing is approximated.

The measure is a codebook. A level-0 state holds `codes`, one integer per
level-0 label, and `table`, a tuple of the distinct Fraction values. A
level-(j-1) fiber has r = sizes[j-1] / sizes[j] labels, t of them in B_j,
so alpha = t / r, and step j's factor depends only on t, the target bit
and delta: P_j is constant on each (parent, target-bit) cell. A level-j
state, j >= 1, holds one code per cell of cells[j-1]; every point of
level-j label l has mass table[codes[cells[j-1][l]]]. Per-label work is
integer numpy (one np.add.at count of the labels per cell, and a gather
of the level-(j-1) label codes). The (code, t) keys code * (r + 1) + t
lie in a dense range of at most |L_j| + |L_{j-1}| keys (see _fibers), so
one np.bincount and the ranks of its occupied keys group the fibers, with
no sort; the moments, the step's values and P_j(B_j) take Fraction work
once per (code, t) key, weighted by the fibers sharing it. Label arrays
(cells, codes) take kernels.index_dtype, int32 below 2^31 entries; label
counts and (code, t) keys stay int64.

run is the one stepping path, and its RunResult is the certificate. Every
level-J target fact (the final target masses, the uncovered mass and the
witness) comes from one lift: B_1..B_J packed into one unsigned integer
per level-J cell, bit j-1 for B_j, with one gather per level below J.
The masses are sums over the level-J cells, each weighted by its points.

Whatever the checks, run refuses fibers of r < 1 labels, a code outside
the value table and a cell outside [0, 2 |L_{j-1}|) before it counts a
level's labels, and a fiber with t > r before it groups them.

Checks, on by default, each paying Fraction work once per distinct key:
  - after every step the total mass is exactly 1;
  - after every step each level-(j-1) fiber holds r labels and keeps its
    mass. Its labels fall into its two cells, whose label counts are
    summed and compared with r in one vector compare. Fibers of one (code,
    t) key share their counts, so the mass identity, each cell's
    table[code] * count summed and compared with the parent's
    table[code] * r, runs once for a representative of each key and once
    for each fiber whose cell codes differ from its representative's;
  - after every step P_j(B_j) <= min(M1, M2/(4 delta (1-delta)));
  - after the run every P_J(B_j) from the level-J codes equals step j's;
  - when eta < 1 the uncovered mass is at least 1 - eta.
"""

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import InputError, SoundnessError
from .system import _check_delta


class DistortionProblem(NamedTuple):
    sizes: list  # sizes[j] = points in each level-j label, an int
    cells: list  # cells[j-1][l] = 2 * (level-(j-1) parent of l) + [l in B_j]
    initial_codes: np.ndarray  # code of each level-0 label
    initial_table: tuple  # distinct initial point masses


class DistortionState(NamedTuple):
    problem: DistortionProblem
    level: int
    codes: np.ndarray  # index into table per level-0 label, or per cell of cells[level-1]
    table: tuple  # distinct Fractions: mass of EACH point in a fiber
    deltas: tuple

    @property
    def values(self):
        """Read-only per-label masses: the mass of each point of label l."""
        out = np.array(self.table, dtype=object)[_label_codes(self)]
        out.flags.writeable = False
        return out


class MomentReport(NamedTuple):
    j: int
    delta: Fraction
    m1: Fraction
    m2: Fraction
    contribution: Fraction
    target_mass: Fraction  # P_j(B_j), after the step


class RunResult(NamedTuple):
    states: list
    reports: list
    eta: Fraction
    final_target_masses: list  # P_J(B_j) for each j
    verdict: str  # "certified-noncover" or "inconclusive"
    uncovered_mass: Fraction | None
    witness_index: int | None  # first uncovered point (level-J label); residue_at(index, q)


def _grouped_sum(ids, counts, values):
    """Sum over l of values[ids[l]] * counts[l], for integer ids and int64
    counts.

    The counts are summed per id in int64; the Fraction product runs once
    per id with a nonzero sum.
    """
    sums = np.zeros(len(values), dtype=np.int64)
    np.add.at(sums, ids, counts)
    total = Fraction(0)
    for i in np.flatnonzero(sums).tolist():
        total += values[i] * int(sums[i])
    return total


def _label_codes(state):
    """One code per label of the state's level: a label takes its cell's code."""
    if state.level == 0:
        return state.codes
    return state.codes[state.problem.cells[state.level - 1]]


def _fiber_keys(codes, r, t):
    """int64 keys code * (r + 1) + t: an int32 code times a Python int stays
    int32 and would wrap."""
    keys = codes.astype(np.int64)
    keys *= r + 1
    keys += t
    return keys


def _fibers(state, j):
    """Level-(j-1) fibers grouped by (code, t): (r, split, keys, counts,
    group). Fiber l has r labels, split[2 * l + bit] in cell 2 * l + bit, so
    t = split[2 * l + 1] in B_j. keys[group[l]] = code * (r + 1) + t, keys
    ascending int64 with counts[g] fibers in group g; group has the
    index_dtype of the 2 * len(keys) step cells.

    The groups are ranks in a presence table over the dense key range
    len(table) * (r + 1), with no sort. Each table value of a state that
    run made is interned from a nonempty cell, so len(table) <= |L_{j-1}|
    and the range holds at most |L_j| + |L_{j-1}| keys, the order of the
    |L_j| entries of cells[j-1]; a hand-built initial_table sizes step 1's
    range. The refusals of the module docstring run before the range is
    allocated, and all but t > r before the labels are counted."""
    problem, table = state.problem, state.table
    cells, size = problem.cells[j - 1], problem.sizes[j]
    if not 1 <= size <= problem.sizes[j - 1]:
        raise SoundnessError(
            f"step {j}: level-{j} labels of {size} points do not fit in "
            f"level-{j - 1} labels of {problem.sizes[j - 1]}"
        )
    if state.codes.min() < 0 or state.codes.max() >= len(table):
        raise SoundnessError(f"step {j}: a fiber's code lies outside the value table")
    codes = _label_codes(state)
    if cells.min() < 0 or cells.max() >= 2 * len(codes):
        raise SoundnessError(f"step {j}: a cell lies outside [0, {2 * len(codes)})")
    r = problem.sizes[j - 1] // size
    split = np.zeros(2 * len(codes), dtype=np.int64)
    np.add.at(split, cells, 1)
    if split[1::2].max() > r:
        raise SoundnessError(f"step {j}: a fiber holds more than {r} labels")
    keys = _fiber_keys(codes, r, split[1::2])
    counts = np.bincount(keys, minlength=len(table) * (r + 1))
    occupied = np.flatnonzero(counts)
    rank = np.zeros(len(counts), dtype=kernels.index_dtype(2 * len(occupied)))
    rank[occupied] = np.arange(len(occupied))
    return r, split, occupied, counts[occupied], rank[keys]


def _moments(state, fibers):
    """(M1, M2): first and second moments of alpha_j, one term per (code, t) key."""
    r, _, keys, counts, _ = fibers
    size = state.problem.sizes[state.level + 1]
    m1 = m2 = Fraction(0)
    for key, count in zip(keys.tolist(), counts.tolist()):
        code, t = divmod(key, r + 1)
        mass = state.table[code] * (t * size * count)  # count fibers of v * sizes[j-1] * t / r
        m1 += mass
        m2 += mass * Fraction(t, r)
    return m1, m2


def _factor(a, b, delta):
    if b:
        if a < delta:
            return Fraction(0)
        return (a - delta) / (a * (1 - delta))
    if a < delta:
        return 1 / (1 - a)
    return 1 / (1 - delta)


def _step(state, j, delta, fibers, checks):
    """Distortion step j with the given delta, on the grouping _fibers(state, j):
    (the level-j state, P_j(B_j))."""
    delta = _check_delta(delta)
    problem = state.problem
    r, _, keys, counts, group = fibers
    # a (parent, bit) cell's new mass depends only on its (group, bit) cell,
    # of count * (r - t) labels for bit 0 and count * t for bit 1; one value
    # per occupied group cell, interned in ascending order
    remap = np.zeros(2 * len(keys), dtype=group.dtype)
    interned, target = {}, Fraction(0)
    for g, (key, count) in enumerate(zip(keys.tolist(), counts.tolist())):
        code, t = divmod(key, r + 1)
        v = state.table[code]
        for bit, labels in enumerate((r - t, t)):
            if labels:
                w = v * _factor(Fraction(t, r), bit, delta) if v else v
                target += w * (count * labels) if bit else 0
                remap[2 * g + bit] = interned.setdefault(w, len(interned))
    codes = remap.reshape(-1, 2)[group].ravel()  # cell 2 * l + bit: group cell 2 * g + bit
    new_state = DistortionState(problem, j, codes, tuple(interned), state.deltas + (delta,))
    if checks:
        _verify_step(state, new_state, j)
    return new_state, target * problem.sizes[j]


def _verify_step(old, new, j):
    """Step j's checks of the module docstring on the new state: its codes,
    total mass, fiber sizes and fiber masses. Its presence table spans the
    same dense (code, t) range as _fibers'."""
    problem, cells = old.problem, old.problem.cells[j - 1]
    nc = len(new.table)
    code = new.codes  # one per (parent fiber, target bit) cell
    if code.min() < 0 or code.max() >= nc:
        raise SoundnessError(f"step {j}: code outside the value table")
    count = np.zeros(len(code), dtype=np.int64)  # labels per cell; an empty cell has 0
    np.add.at(count, cells, 1)
    if _grouped_sum(code, count, new.table) * problem.sizes[j] != 1:
        raise SoundnessError(f"step {j}: total mass drifted")
    r = problem.sizes[j - 1] // problem.sizes[j]
    n0, n1 = count[0::2], count[1::2]
    wrong = np.flatnonzero(n0 + n1 != r)
    if len(wrong):
        held = n0[wrong[0]] + n1[wrong[0]]
        raise SoundnessError(f"step {j}: a fiber holds {held} labels, not {r}")
    # every level-(j-1) fiber's mass is the sum over its two cells. Fibers of
    # one (old code, n1) key, in _fibers' dense range, share their counts:
    # the mass identity runs on one representative per key and on every
    # fiber whose cell codes differ from its representative's, so whichever
    # fiber represents a key, every distinct row is checked
    keys = _fiber_keys(_label_codes(old), r, n1)
    rep = np.zeros(len(old.table) * (r + 1), dtype=kernels.index_dtype(len(keys)))
    rep[keys] = np.arange(len(keys), dtype=rep.dtype)
    rep = rep[keys]
    c0, c1 = code[0::2], code[1::2]
    check = (c0 != c0[rep]) | (c1 != c1[rep])
    check[rep] = True
    check = np.flatnonzero(check)  # ascending, each fiber once
    for key, a, b in zip(keys[check].tolist(), c0[check].tolist(), c1[check].tolist()):
        oc, t = divmod(key, r + 1)
        if new.table[a] * (r - t) + new.table[b] * t != old.table[oc] * r:
            raise SoundnessError(f"step {j}: fiber mass not conserved")


def _target_hits(problem):
    """B_1..B_J over the cells of cells[J-1], J >= 1, packed: bit j-1 of
    hits[c] is set when cell c's labels lie in B_j. One gather per level
    below J, in the smallest unsigned dtype that holds J bits."""
    levels = len(problem.cells)
    hits = np.zeros(len(problem.initial_codes), dtype=np.min_scalar_type(2**levels - 1))
    for bit, cell in enumerate(problem.cells):
        pair = np.repeat(hits, 2)  # pair[c] for cell c = 2 * parent + target bit
        pair[1::2] |= 1 << bit
        hits = pair[cell] if bit < levels - 1 else pair
    return hits


def run(problem, deltas, checks=True):
    """Run every step: states, moment reports, eta, final target masses, and
    when eta < 1 the "certified-noncover" verdict with the uncovered mass and
    the first level-J label in no target, else "inconclusive", None, None."""
    levels = len(problem.cells)
    deltas = [_check_delta(x) for x in deltas]
    if len(deltas) != levels:
        raise InputError(f"expected {levels} deltas, got {len(deltas)}")
    states = [DistortionState(problem, 0, problem.initial_codes, problem.initial_table, ())]
    reports = []
    eta = Fraction(0)
    for j in range(1, levels + 1):
        st = states[-1]
        fibers = _fibers(st, j)  # one grouping of the level-(j-1) fibers per level
        m1, m2 = _moments(st, fibers)
        delta = deltas[j - 1]
        if delta:
            contribution = min(m1, m2 / (4 * delta * (1 - delta)))
        else:
            contribution = m1
        new, pjbj = _step(st, j, delta, fibers, checks)
        if checks and pjbj > contribution:
            raise SoundnessError(f"step {j}: target mass exceeds its moment bound")
        reports.append(MomentReport(j, delta, m1, m2, contribution, pjbj))
        states.append(new)
        eta += contribution
    if not levels:  # no target: every point is uncovered, the first one too
        return RunResult(states, reports, eta, [], "certified-noncover", Fraction(1), 0)
    hits, final = _target_hits(problem), states[-1]
    points = fibers[1] * problem.sizes[levels]  # per level-J cell, from step J's split
    final_masses = [
        _grouped_sum(final.codes, points * (hits >> j & 1), final.table) for j in range(levels)
    ]
    if checks:
        for rep, fm in zip(reports, final_masses):
            if fm != rep.target_mass:
                raise SoundnessError(f"target {rep.j} mass not stable after its step")
    if eta >= 1:
        return RunResult(states, reports, eta, final_masses, "inconclusive", None, None)
    uncovered = 1 - _grouped_sum(final.codes, points * (hits != 0), final.table)
    if checks and uncovered < 1 - eta:
        raise SoundnessError("uncovered mass below its certified floor")
    witness = int(hits[problem.cells[-1]].argmin())  # the first level-J label in no target
    return RunResult(states, reports, eta, final_masses, "certified-noncover", uncovered, witness)


def certify(problem, deltas):
    """run with its checks on: the non-coverage certificate when eta < 1."""
    return run(problem, deltas)
