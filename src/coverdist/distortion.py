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
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import DeltaOutOfRange, InputError, SoundnessError

HALF = Fraction(1, 2)


@dataclass
class DistortionProblem:
    points: list | None = None  # optional payloads, index-aligned
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
    points: list | None
    initial_values: list  # Fractions per level-0 label


class DistortionState(NamedTuple):
    norm: _Norm
    level: int
    values: list  # Fraction per level-`level` label: mass of EACH point in the fiber
    deltas: tuple

    def point_masses(self):
        lab = self.norm.levels[self.level]
        return [self.values[l] for l in lab.tolist()]

    def total_mass(self):
        return _dot(self.values, self.norm.sizes[self.level])


class MomentReport(NamedTuple):
    j: int
    delta: Fraction
    m1: Fraction
    m2: Fraction
    contribution: Fraction
    target_mass: Fraction  # P_j(B_j), after the step


class RunResult(NamedTuple):
    problem: DistortionProblem
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
    witness_index: int | None
    witness: object | None
    result: RunResult


def _first_occurrence(labels, count):
    reps = np.full(count, -1, dtype=np.int64)
    reps[labels[::-1]] = np.arange(len(labels) - 1, -1, -1, dtype=np.int64)
    return reps


def _dot(values, counts):
    total = Fraction(0)
    for l in np.flatnonzero(counts).tolist():
        total += values[l] * int(counts[l])
    return total


def check_problem(problem, explain=False):
    """Validate a problem; returns ok or (ok, message) with explain=True."""
    try:
        _normalize(problem)
    except InputError as e:
        return (False, str(e)) if explain else False
    return (True, "") if explain else True


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

    k0 = len(sizes[0])
    if problem.initial_mass is None:
        initial_values = [Fraction(1, n)] * k0
    else:
        if len(problem.initial_mass) != n:
            raise InputError("initial mass list has wrong length")
        masses = [Fraction(x) for x in problem.initial_mass]
        lab0 = levels[0]
        initial_values = [masses[int(reps[0][l])] for l in range(k0)]
        for i, m in enumerate(masses):
            if m < 0:
                raise InputError("negative initial mass")
            if m != initial_values[lab0[i]]:
                raise InputError("initial mass not constant on level-0 fibers")
        if _dot(initial_values, sizes[0]) != 1:
            raise InputError("initial mass does not sum to 1")

    return _Norm(
        n=n,
        levels=levels,
        sizes=sizes,
        reps=reps,
        parents=parents,
        targets=targets,
        target_bits=target_bits,
        points=problem.points,
        initial_values=initial_values,
    )


def initial_state(problem):
    norm = problem if isinstance(problem, _Norm) else _normalize(problem)
    return DistortionState(norm, 0, list(norm.initial_values), ())


def _check_delta(delta):
    delta = Fraction(delta)
    if not 0 <= delta <= HALF:
        raise DeltaOutOfRange(f"delta {delta} outside [0, 1/2]")
    return delta


def _alpha_labels(state, j):
    """Conditional density of B_j on each level-(j-1) fiber (count ratio)."""
    norm = state.norm
    if j != state.level + 1 or j > len(norm.targets):
        raise InputError(f"cannot take step {j} from level {state.level}")
    lab = norm.levels[j - 1]
    inter = np.bincount(lab[norm.targets[j - 1]], minlength=len(norm.sizes[j - 1]))
    sz = norm.sizes[j - 1]
    return [
        Fraction(int(inter[l]), int(sz[l])) if sz[l] else Fraction(0)
        for l in range(len(sz))
    ], inter


def alpha(state, j):
    """Per-point alpha_j values (constant on level-(j-1) fibers)."""
    alphas, _ = _alpha_labels(state, j)
    lab = state.norm.levels[j - 1]
    return [alphas[l] for l in lab.tolist()]


def moments(state, j):
    """(M1, M2): first and second moments of alpha_j under the current measure."""
    alphas, inter = _alpha_labels(state, j)
    m1 = Fraction(0)
    m2 = Fraction(0)
    sz = state.norm.sizes[j - 1]
    for l in np.flatnonzero(inter).tolist():
        v = state.values[l]
        if v:
            m1 += v * int(inter[l])
            m2 += v * alphas[l] * int(inter[l])  # v*sz*alpha^2 = v*inter*alpha
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
    alphas, _ = _alpha_labels(state, j)
    parent = norm.parents[j]
    bits = norm.target_bits[j - 1]
    new_values = []
    for l in range(len(norm.sizes[j])):
        pl = int(parent[l])
        v = state.values[pl]
        new_values.append(v * _factor(alphas[pl], bool(bits[l]), delta) if v else v)
    new_state = DistortionState(norm, j, new_values, state.deltas + (delta,))
    if checks:
        _verify_step(state, new_state, j)
    return new_state


def _verify_step(old, new, j):
    norm = old.norm
    if new.total_mass() != 1:
        raise SoundnessError(f"step {j}: total mass drifted")
    # every level-(j-1) fiber keeps its mass
    parent = norm.parents[j]
    agg = [Fraction(0)] * len(norm.sizes[j - 1])
    sz = norm.sizes[j]
    for l in range(len(sz)):
        agg[int(parent[l])] += new.values[l] * int(sz[l])
    szp = norm.sizes[j - 1]
    for l in range(len(szp)):
        if agg[l] != old.values[l] * int(szp[l]):
            raise SoundnessError(f"step {j}: fiber mass not conserved")


def target_mass(state, j):
    """Mass of B_j under the state's measure (any level >= j)."""
    norm = state.norm
    lab = norm.levels[state.level]
    counts = np.bincount(lab[norm.targets[j - 1]], minlength=len(norm.sizes[state.level]))
    return _dot(state.values, counts)


def mask_mass(state, mask):
    norm = state.norm
    lab = norm.levels[state.level]
    counts = np.bincount(lab[mask], minlength=len(norm.sizes[state.level]))
    return _dot(state.values, counts)


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
    return RunResult(problem, norm, states, reports, eta, final_masses)


def certify(problem, deltas, checks=True):
    """Non-coverage certificate when eta < 1, else inconclusive."""
    result = run(problem, deltas, checks=checks)
    norm = result.norm
    eta = result.eta
    if eta >= 1:
        return CertifyResult("inconclusive", eta, result.reports, None, None, None, result)
    union = np.zeros(norm.n, dtype=np.bool_)
    for t in norm.targets:
        union |= t
    uncovered = 1 - mask_mass(result.states[-1], union)
    if uncovered < 1 - eta:
        raise SoundnessError("uncovered mass below its certified floor")
    if uncovered <= 0:
        raise SoundnessError("eta < 1 but no uncovered mass")
    missing = np.flatnonzero(~union)
    idx = int(missing[0])
    witness = norm.points[idx] if norm.points is not None else idx
    return CertifyResult(
        "certified-noncover", eta, result.reports, uncovered, idx, witness, result
    )
