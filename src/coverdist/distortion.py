"""The distortion construction: a sequence of exact rational measures on a
finite set S that drains mass away from prescribed target sets.

A problem is S (indexed 0..n-1), a chain of label arrays levels[0..J]
(levels[j][i] = the level-j fiber of point i, each level refining the one
before), and targets B_1..B_J with B_j constant on level-j fibers.

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

The measure is a codebook. A level-j state holds `codes`, an int64 array
with one entry per level-j label, and `table`, a tuple of the distinct
Fraction values: every point of label l has mass table[codes[l]]. A
step's factor depends only on the parent fiber's alpha, the target bit
and delta, so the table stays small while the labels grow to |S|.
Per-label work is integer numpy (np.unique on int64 keys, np.add.at on
int64 counts); Fraction arithmetic runs once per distinct key.

Checks, on by default, each paying Fraction work once per distinct key:
  - after every step the total mass is exactly 1;
  - after every step each level-(j-1) fiber keeps its mass. The new
    codes are grouped into (parent fiber, child code) cells with their
    point counts; parents with the same own (code, size) and the same
    cells share a signature, and the sum of table[code] * count over the
    cells is compared with the parent's mass once per distinct signature;
  - after every step P_j(B_j) <= min(M1, M2/(4 delta (1-delta)));
  - after the run every P_J(B_j) equals P_j(B_j) right after step j;
  - in certify the uncovered mass is at least 1 - eta.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import DeltaOutOfRange, InputError, SoundnessError

HALF = Fraction(1, 2)


@dataclass
class DistortionProblem:
    levels: list = None  # J+1 integer label arrays over S
    targets: list = None  # J boolean arrays over S
    initial_mass: list | None = None  # per-point Fractions; uniform if None


class _Norm(NamedTuple):
    n: int
    levels: list
    sizes: list  # int64 bincounts per level
    reps: list  # first point index of each label, per level
    parents: list  # parents[j][l] = level-(j-1) label of level-j label l (j >= 1)
    targets: list
    target_bits: list  # target_bits[j-1][l] for level-j label l
    initial_codes: np.ndarray  # code of each level-0 label
    initial_table: tuple  # distinct initial point masses


class DistortionState(NamedTuple):
    norm: _Norm
    level: int
    codes: np.ndarray  # int64 per level-`level` label, an index into table
    table: tuple  # distinct Fractions: mass of EACH point in a fiber
    deltas: tuple

    @property
    def values(self):
        """Read-only per-label masses: table[codes[l]] for each label l."""
        out = _lookup(self.table, self.codes)
        out.flags.writeable = False
        return out

    def total_mass(self):
        return _grouped_sum(self.codes, self.norm.sizes[self.level], self.table)


class MomentReport(NamedTuple):
    j: int
    delta: Fraction
    m1: Fraction
    m2: Fraction
    contribution: Fraction
    target_mass: Fraction  # P_j(B_j), after the step


class RunResult(NamedTuple):
    norm: _Norm
    states: list
    reports: list
    eta: Fraction
    final_target_masses: list  # P_J(B_j) for each j


class CertifyResult(NamedTuple):
    verdict: str  # "certified-noncover" or "inconclusive"
    eta: Fraction
    reports: list
    uncovered_mass: Fraction | None
    witness_index: int | None  # uncovered point: residue_at(index, q) for build_problem
    result: RunResult


def _first_occurrence(labels, count):
    reps = np.full(count, -1, dtype=np.int64)
    reps[labels[::-1]] = np.arange(len(labels) - 1, -1, -1, dtype=np.int64)
    return reps


def _lookup(table, idx):
    """Object array of table[i] for each i in idx: shared objects, no arithmetic."""
    return np.array(table, dtype=object)[idx]


def _grouped_sum(ids, counts, values):
    """Sum over l of values[ids[l]] * counts[l], for int64 ids and counts.

    The counts are summed per id in int64; the Fraction product runs once
    per id with a nonzero sum.
    """
    sums = np.zeros(len(values), dtype=np.int64)
    np.add.at(sums, ids, counts)
    total = Fraction(0)
    for i in np.flatnonzero(sums).tolist():
        total += values[i] * int(sums[i])
    return total


def _normalize(problem):
    if not problem.levels:
        raise InputError("need at least the level-0 labels")
    levels = []
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
        # relabel densely (stable: by ascending original label)
        _, arr = np.unique(arr, return_inverse=True)
        levels.append(arr.astype(np.int64))

    sizes, reps = [], []
    for arr in levels:
        k = int(arr.max()) + 1
        sizes.append(np.bincount(arr, minlength=k))
        reps.append(_first_occurrence(arr, k))

    parents = [None]
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

    targets = [np.asarray(t, dtype=np.bool_) for t in problem.targets or []]
    if len(targets) != len(levels) - 1:
        raise InputError(
            f"{len(targets)} targets for {len(levels) - 1} distortion levels"
        )
    target_bits = []
    for j, t in enumerate(targets, start=1):
        if t.shape != (n,):
            raise InputError(f"target {j} malformed")
        bits = t[reps[j]]
        if not np.array_equal(bits[levels[j]], t):
            raise InputError(f"target {j} is not a union of level-{j} fibers")
        target_bits.append(bits)

    if problem.initial_mass is None:
        initial_codes = np.zeros(len(sizes[0]), dtype=np.int64)
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
        if _grouped_sum(initial_codes, sizes[0], initial_table) != 1:
            raise InputError("initial mass does not sum to 1")

    return _Norm(
        n=n,
        levels=levels,
        sizes=sizes,
        reps=reps,
        parents=parents,
        targets=targets,
        target_bits=target_bits,
        initial_codes=initial_codes,
        initial_table=initial_table,
    )


def initial_state(problem):
    norm = problem if isinstance(problem, _Norm) else _normalize(problem)
    return DistortionState(norm, 0, norm.initial_codes, norm.initial_table, ())


def _check_delta(delta):
    delta = Fraction(delta)
    if not 0 <= delta <= HALF:
        raise DeltaOutOfRange(f"delta {delta} outside [0, 1/2]")
    return delta


def _alpha_ids(state, j):
    """Conditional density of B_j on the level-(j-1) fibers, as a codebook.

    Returns (alphas, ids, inter): level-(j-1) label l has alpha
    alphas[ids[l]] = inter[l] / size[l], with one id per distinct
    (inter, size) pair.
    """
    norm = state.norm
    if j != state.level + 1 or j > len(norm.targets):
        raise InputError(f"cannot take step {j} from level {state.level}")
    sz = norm.sizes[j - 1]
    inter = np.bincount(norm.levels[j - 1][norm.targets[j - 1]], minlength=len(sz))
    radix = int(sz.max()) + 1
    pairs, ids = np.unique(inter * radix + sz, return_inverse=True)
    alphas = tuple(Fraction(*divmod(p, radix)) for p in pairs.tolist())
    return alphas, ids, inter


def alpha(state, j):
    """Per-point alpha_j values (constant on level-(j-1) fibers)."""
    alphas, ids, _ = _alpha_ids(state, j)
    return _lookup(alphas, ids[state.norm.levels[j - 1]]).tolist()


def moments(state, j):
    """(M1, M2): first and second moments of alpha_j under the current measure."""
    alphas, ids, inter = _alpha_ids(state, j)
    table, na = state.table, len(alphas)
    m1 = _grouped_sum(state.codes, inter, table)
    # v*sz*alpha^2 = v*inter*alpha, grouped by distinct (code, alpha id)
    pairs, pair_ids = np.unique(state.codes * na + ids, return_inverse=True)
    m2 = _grouped_sum(
        pair_ids, inter, [table[k // na] * alphas[k % na] for k in pairs.tolist()]
    )
    return m1, m2


def _factor(a, b, delta):
    if b:
        if a < delta:
            return Fraction(0)
        return (a - delta) / (a * (1 - delta))
    if a < delta:
        return 1 / (1 - a)
    return 1 / (1 - delta)


def step(state, j, delta, checks=True):
    """Apply distortion step j with the given delta; returns the new state."""
    delta = _check_delta(delta)
    norm = state.norm
    alphas, ids, _ = _alpha_ids(state, j)
    parent = norm.parents[j]
    na = len(alphas)
    assert len(state.table) * na * 2 <= np.iinfo(np.int64).max, "keys overflow int64"
    # the new mass of a level-j label depends only on (parent code, parent
    # alpha id, target bit): one mixed-radix key each
    keys = (state.codes[parent] * na + ids[parent]) * 2 + norm.target_bits[j - 1]
    uniq, inv = np.unique(keys, return_inverse=True)
    interned = {}
    remap = []
    for key in uniq.tolist():
        rest, bit = divmod(key, 2)
        code, a = divmod(rest, na)
        v = state.table[code]
        if v:
            v = v * _factor(alphas[a], bit, delta)
        remap.append(interned.setdefault(v, len(interned)))
    codes = np.asarray(remap, dtype=np.int64)[inv]
    deltas = state.deltas + (delta,)
    new_state = DistortionState(norm, j, codes, tuple(interned), deltas)
    if checks:
        _verify_step(state, new_state, j)
    return new_state


def _verify_step(old, new, j):
    norm = old.norm
    nc = len(new.table)
    if new.codes.min() < 0 or new.codes.max() >= nc:
        raise SoundnessError(f"step {j}: code outside the value table")
    if new.total_mass() != 1:
        raise SoundnessError(f"step {j}: total mass drifted")
    # every level-(j-1) fiber keeps its mass, recomputed from the new codes:
    # a cell is (parent fiber, child code) with its point count
    szp = norm.sizes[j - 1]
    cells, inv = np.unique(norm.parents[j] * nc + new.codes, return_inverse=True)
    cell_size = np.zeros(len(cells), dtype=np.int64)
    np.add.at(cell_size, inv, norm.sizes[j])
    cell_parent, cell_code = np.divmod(cells, nc)
    # cells are sorted by parent and every parent has at least one
    bounds = np.searchsorted(cell_parent, np.arange(len(szp) + 1))
    rank = np.arange(len(cells)) - bounds[cell_parent]
    # signature of a parent: its own (code, size), then its cells' (code,
    # count) pairs in code order, refined one rank at a time
    _, sig = np.unique(old.codes * (int(szp.max()) + 1) + szp, return_inverse=True)
    _, pair = np.unique(
        cell_code * (int(cell_size.max()) + 1) + cell_size, return_inverse=True
    )
    for r in range(int(rank.max()) + 1):
        at = rank == r
        ext = np.zeros(len(szp), dtype=np.int64)  # 0: no cell of this rank
        ext[cell_parent[at]] = pair[at] + 1
        _, sig = np.unique(sig * (len(cells) + 1) + ext, return_inverse=True)
    _, firsts = np.unique(sig, return_index=True)
    for p in firsts.tolist():
        lo, hi = int(bounds[p]), int(bounds[p + 1])
        got = Fraction(0)
        for c, s in zip(cell_code[lo:hi].tolist(), cell_size[lo:hi].tolist()):
            got += new.table[c] * s
        if got != old.table[old.codes[p]] * int(szp[p]):
            raise SoundnessError(f"step {j}: fiber mass not conserved")


def target_mass(state, j):
    """Mass of B_j under the state's measure (any level >= j)."""
    return mask_mass(state, state.norm.targets[j - 1])


def mask_mass(state, mask):
    """Mass of the points where mask is set."""
    lab = state.norm.levels[state.level]
    return _grouped_sum(state.codes[lab[mask]], 1, state.table)


def run(problem, deltas, checks=True):
    """Run every step; returns states, per-step moment reports, and eta."""
    norm = problem if isinstance(problem, _Norm) else _normalize(problem)
    levels = len(norm.targets)
    deltas = [_check_delta(x) for x in deltas]
    if len(deltas) != levels:
        raise InputError(f"expected {levels} deltas, got {len(deltas)}")
    states = [initial_state(norm)]
    reports = []
    eta = Fraction(0)
    for j in range(1, levels + 1):
        st = states[-1]
        m1, m2 = moments(st, j)
        delta = deltas[j - 1]
        if delta:
            contribution = min(m1, m2 / (4 * delta * (1 - delta)))
        else:
            contribution = m1
        new = step(st, j, delta, checks=checks)
        pjbj = target_mass(new, j)
        if checks and pjbj > contribution:
            raise SoundnessError(f"step {j}: target mass exceeds its moment bound")
        reports.append(MomentReport(j, delta, m1, m2, contribution, pjbj))
        states.append(new)
        eta += contribution
    final = states[-1]
    final_masses = [target_mass(final, j) for j in range(1, levels + 1)]
    if checks:
        for rep, fm in zip(reports, final_masses):
            if fm != rep.target_mass:
                raise SoundnessError(f"target {rep.j} mass not stable after its step")
    return RunResult(norm, states, reports, eta, final_masses)


def certify(problem, deltas):
    """Non-coverage certificate when eta < 1, else inconclusive; checks always on."""
    result = run(problem, deltas)
    norm = result.norm
    eta = result.eta
    if eta >= 1:
        return CertifyResult("inconclusive", eta, result.reports, None, None, result)
    union = np.zeros(norm.n, dtype=np.bool_)
    for t in norm.targets:
        union |= t
    uncovered = 1 - mask_mass(result.states[-1], union)
    if uncovered < 1 - eta:
        raise SoundnessError("uncovered mass below its certified floor")
    if uncovered <= 0:
        raise SoundnessError("eta < 1 but no uncovered mass")
    idx = int(np.flatnonzero(~union)[0])
    return CertifyResult(
        "certified-noncover", eta, result.reports, uncovered, idx, result
    )
