import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import half_policy, zero_policy
from coverdist import (
    DeltaOutOfRange,
    DistortionProblem,
    InputError,
    SoundnessError,
    build_problem,
    certify,
    ideal_from_gens,
    ideal_norm,
    make_field,
    residue_at,
    resolve_delta_policy,
    run,
    validate,
)

from coverdist import distortion, kernels
from coverdist.cli import main

F = Fraction
HALF = F(1, 2)
DATA = Path(__file__).parent / "data"


def masses(state, instance):
    """Per-point masses, with the points of the n-point oracle builder."""
    return oracles.point_masses(state, oracles.build_problem_points(instance))


@pytest.fixture(scope="module")
def six_system():
    """0 mod 2, 1 mod 3: Q = (6), two levels, misses 3 and 5 mod 6."""
    field = make_field("rational")
    raw = [
        ((0, 0), ideal_from_gens(field, [(2, 0)])),
        ((1, 0), ideal_from_gens(field, [(3, 0)])),
    ]
    return validate(field, raw)


# ------------------------------------------------- frozen small systems


def test_near_cover_zero_policy(near_cover):
    """0 mod 2, 1 mod 4: Q = (4) is one prime power, so a single step."""
    prob = build_problem(near_cover)
    assert near_cover.depth == 1
    res = run(prob, [F(0)])
    assert res.eta == F(3, 4)
    (r1,) = res.reports
    assert (r1.m1, r1.m2, r1.contribution) == (F(3, 4), F(9, 16), F(3, 4))
    assert r1.target_mass == F(3, 4)
    # delta 0 never moves the measure
    assert masses(res.states[-1], near_cover) == [F(1, 4)] * 4
    assert res.final_target_masses == [F(3, 4)]


def test_near_cover_zero_certify(near_cover):
    prob = build_problem(near_cover)
    cert = certify(prob, [F(0)])
    assert cert.verdict == "certified-noncover"
    assert cert.eta == F(3, 4)
    assert cert.uncovered_mass == F(1, 4)
    assert cert.witness_index == 3
    assert residue_at(cert.witness_index, near_cover.q) == (3, 0)


def test_near_cover_half_policy(near_cover):
    """Delta 1/2: alpha = 3/4, targets shrink by 1/3, the rest doubles."""
    prob = build_problem(near_cover)
    res = run(prob, [HALF])
    (r1,) = res.reports
    assert (r1.m1, r1.m2) == (F(3, 4), F(9, 16))
    assert r1.contribution == F(9, 16)  # min(3/4, (9/16)/(4*(1/2)(1/2)))
    assert masses(res.states[-1], near_cover) == [F(1, 6), F(1, 6), F(1, 6), F(1, 2)]
    assert r1.target_mass == HALF
    cert = certify(prob, [HALF])
    assert cert.verdict == "certified-noncover"
    assert cert.eta == F(9, 16)
    assert cert.uncovered_mass == HALF
    assert residue_at(cert.witness_index, near_cover.q) == (3, 0)


def test_near_cover_quarter_delta(near_cover):
    prob = build_problem(near_cover)
    res = run(prob, [F(1, 4)])
    # alpha = 3/4 >= 1/4: target factor (3/4-1/4)/(3/4*3/4) = 8/9
    assert masses(res.states[-1], near_cover) == [F(2, 9), F(2, 9), F(2, 9), F(1, 3)]
    (r1,) = res.reports
    assert r1.contribution == F(3, 4)  # m2 branch ties m1 here
    assert r1.target_mass == F(2, 3)
    assert res.eta == F(3, 4)


def test_six_system_zero_policy(six_system):
    prob = build_problem(six_system)
    assert six_system.depth == 2
    res = run(prob, [F(0), F(0)])
    r1, r2 = res.reports
    assert (r1.m1, r1.m2, r1.contribution) == (HALF, F(1, 4), HALF)
    assert (r2.m1, r2.m2, r2.contribution) == (F(1, 3), F(1, 9), F(1, 3))
    assert res.eta == F(5, 6)
    cert = certify(prob, [F(0), F(0)])
    assert cert.verdict == "certified-noncover"
    assert cert.uncovered_mass == F(1, 3)
    assert residue_at(cert.witness_index, six_system.q) == (3, 0)


def test_six_system_half_half(six_system):
    prob = build_problem(six_system)
    res = run(prob, [HALF, HALF])
    assert masses(res.states[1], six_system) == [F(0), F(1, 3), F(0), F(1, 3), F(0), F(1, 3)]
    r1, r2 = res.reports
    assert (r1.m1, r1.m2, r1.contribution) == (HALF, F(1, 4), F(1, 4))
    assert (r2.m1, r2.m2, r2.contribution) == (F(1, 3), F(1, 9), F(1, 9))
    # step 2: alpha = 1/3 < delta: targets vanish, others scale by 3/2
    assert masses(res.states[2], six_system) == [F(0), F(0), F(0), HALF, F(0), HALF]
    assert res.final_target_masses == [F(0), F(0)]
    assert res.eta == F(13, 36)
    cert = certify(prob, [HALF, HALF])
    assert cert.verdict == "certified-noncover"
    assert cert.uncovered_mass == F(1)
    assert residue_at(cert.witness_index, six_system.q) == (3, 0)


def test_six_system_mixed_policy(six_system):
    prob = build_problem(six_system)
    res = run(prob, [F(0), HALF])
    r1, r2 = res.reports
    assert r1.contribution == HALF
    assert (r2.m1, r2.m2, r2.contribution) == (F(1, 3), F(1, 9), F(1, 9))
    assert masses(res.states[2], six_system) == [F(1, 4), F(0), F(1, 4), F(1, 4), F(0), F(1, 4)]
    assert res.eta == F(11, 18)
    # B_1 mass is stable: still 1/2 after step 2
    assert res.final_target_masses == [HALF, F(0)]
    cert = certify(prob, [F(0), HALF])
    assert cert.uncovered_mass == HALF


def test_classic_zero_policy(classic_cover):
    prob = build_problem(classic_cover)
    res = run(prob, [F(0), F(0)])
    r1, r2 = res.reports
    assert (r1.m1, r1.contribution) == (F(3, 4), F(3, 4))
    assert (r2.m1, r2.contribution) == (F(7, 12), F(7, 12))
    assert r2.m2 == F(5, 12)
    assert res.eta == F(4, 3)
    cert = certify(prob, [F(0), F(0)])
    assert cert.verdict == "inconclusive"
    assert cert.uncovered_mass is None and cert.witness_index is None


def test_classic_half_policy(classic_cover):
    prob = build_problem(classic_cover)
    res = run(prob, [HALF, HALF])
    r1, r2 = res.reports
    assert r1.contribution == F(9, 16)
    assert r2.contribution == F(11, 18)
    assert res.eta == F(169, 144)
    assert certify(prob, [HALF, HALF]).verdict == "inconclusive"


def test_classic_covers_no_uncovered_mass(classic_cover):
    # a genuine cover can never be certified: eta >= 1 for every policy here
    prob = build_problem(classic_cover)
    for deltas in [[F(0), F(0)], [HALF, HALF], [F(1, 3), F(1, 5)], [F(0), HALF]]:
        assert certify(prob, deltas).verdict == "inconclusive"


def test_gauss_zero_policy(gauss_cover):
    prob = build_problem(gauss_cover)
    assert gauss_cover.depth == 1
    res = run(prob, [F(0)])
    assert res.eta == F(3, 4)
    cert = certify(prob, [F(0)])
    assert cert.verdict == "certified-noncover"
    assert cert.uncovered_mass == F(1, 4)
    assert residue_at(cert.witness_index, gauss_cover.q) == (0, 1)


# ------------------------------------------------------ oracle agreement


def _oracle_inputs(inst):
    # step j of the oracle conditions on level j-1, so pass levels 0..J-1
    prob = oracles.build_problem_points(inst)
    n = len(prob.levels[0])
    levels = [lv.tolist() for lv in prob.levels[:-1]]
    targets = [t.tolist() for t in prob.targets]
    return n, levels, targets


def test_corpus_matches_oracle(corpus):
    rng = random.Random(23)
    small = [i for i in corpus if ideal_norm(i.q) <= 200]
    for inst in rng.sample(small, min(40, len(small))):
        prob = build_problem(inst)
        for policy in [zero_policy(inst), half_policy(inst), None]:
            deltas = (
                resolve_delta_policy(inst, None) if policy is None else policy
            )
            res = run(prob, deltas)
            n, levels, targets = _oracle_inputs(inst)
            om, oreps = oracles.run_oracle(n, levels, targets, deltas)
            for st, want in zip(res.states, om):
                assert masses(st, inst) == want
            for rep, (m1, m2, contribution) in zip(res.reports, oreps):
                assert (rep.m1, rep.m2, rep.contribution) == (m1, m2, contribution)


def test_corpus_random_deltas(corpus):
    rng = random.Random(24)
    small = [i for i in corpus if ideal_norm(i.q) <= 200 and i.depth >= 2]
    for inst in rng.sample(small, min(20, len(small))):
        prob = build_problem(inst)
        deltas = [F(rng.randrange(0, 3), 6) for _ in range(inst.depth)]
        res = run(prob, deltas)
        n, levels, targets = _oracle_inputs(inst)
        om, _ = oracles.run_oracle(n, levels, targets, deltas)
        assert masses(res.states[-1], inst) == om[-1]
        assert oracles.total_mass(res.states[-1]) == 1


@st.composite
def label_chains(draw):
    """A random refining label chain with uniform fibers: 1 to 4 level-0
    labels, a branching factor of 1 to 6 per level (at most 64 labels per
    level) and 1 to 3 points per level-J label, the labels of each level
    and the points numbered at random. With targets, a non-uniform initial
    mass constant on level-0 fibers, and deltas in [0, 1/2]."""
    depth = draw(st.integers(1, 3))
    counts = [draw(st.integers(1, 4))]  # labels per level
    for _ in range(depth):
        counts.append(counts[-1] * draw(st.integers(1, min(6, 64 // counts[-1]))))
    per = draw(st.integers(1, 3))
    # point p lies in level-J label p // per, and level-j label l has the
    # children l * b, ..., l * b + b - 1 for its branching factor b
    order = draw(st.permutations(range(counts[-1] * per)))
    levels = []
    for count in counts:
        name = draw(st.permutations(range(count)))
        levels.append([name[p // per // (counts[-1] // count)] for p in order])
    n = len(order)
    targets = []
    for lv in levels[1:]:
        hit = draw(st.sets(st.sampled_from(sorted(set(lv)))))
        targets.append([l in hit for l in lv])
    weight = {l: draw(st.integers(0, 5)) for l in sorted(set(levels[0]))}
    total = sum(weight[l] for l in levels[0])
    if total == 0:
        weight = dict.fromkeys(weight, 1)
        total = n
    prob = oracles.PointProblem(
        levels=[np.array(lv) for lv in levels],
        targets=[np.array(t) for t in targets],
        initial_mass=[F(weight[l], total) for l in levels[0]],
    )
    deltas = draw(
        st.lists(
            st.fractions(0, HALF, max_denominator=12), min_size=depth, max_size=depth
        )
    )
    return prob, deltas


@settings(max_examples=300, deadline=None)
@given(label_chains())
def test_random_chains_match_per_label_oracle(case):
    prob, deltas = case
    res = run(oracles.to_labels(prob)[0], deltas)
    values, reports, eta, final = oracles.run_per_label(prob, deltas)
    assert [list(s.values) for s in res.states] == values
    assert [(r.m1, r.m2, r.contribution, r.target_mass) for r in res.reports] == reports
    assert res.eta == eta
    assert res.final_target_masses == final


def _binary_chain(depth, rng):
    """2^depth points, point i in level-j label i mod 2^j; each level-j
    label lies in B_j with probability 1/depth. Delta is 1/3 at the last
    level and every second level below it, 1/2 at the others."""
    n = 1 << depth
    levels = [np.arange(n) & ((1 << j) - 1) for j in range(depth + 1)]
    targets = [
        np.array([rng.random() < 1 / depth for _ in range(1 << j)])[levels[j]]
        for j in range(1, depth + 1)
    ]
    deltas = [F(1, 3) if (depth - j) % 2 == 0 else HALF for j in range(1, depth + 1)]
    return oracles.PointProblem(levels=levels, targets=targets), deltas


@pytest.mark.parametrize("depth, dtype", [(8, np.uint8), (9, np.uint16), (17, np.uint32)])
def test_target_pack_dtype_edges(depth, dtype):
    """B_1..B_J are packed into one uint8, uint16 or uint32 per level-J
    cell at J = 8, 9 and 17. On binary chains the final target masses,
    reports, verdict, uncovered mass and witness equal those of the
    per-label oracle and of a brute-force union. The top target keeps
    some mass, so a pack too narrow for its bit shows."""
    points_problem, deltas = _binary_chain(depth, random.Random(depth))
    prob, points = oracles.to_labels(points_problem)
    assert distortion._target_hits(prob).dtype == dtype
    cert = certify(prob, deltas)
    values, reports, eta, final = oracles.run_per_label(points_problem, deltas)
    assert [(r.m1, r.m2, r.contribution, r.target_mass) for r in cert.reports] == reports
    assert cert.final_target_masses == final and final[-1] > 0
    assert cert.verdict == "certified-noncover" and cert.eta == eta < 1
    union = np.logical_or.reduce(points_problem.targets)
    outside = [values[-1][l] for l in points[~union].tolist()]
    assert cert.uncovered_mass == sum(outside, F(0))
    assert cert.witness_index == points[np.flatnonzero(~union)[0]]


def _label_key_step(state, j, delta, fibers, checks):
    new = oracles.step_label_keys(state, j, delta, checks)
    return new, oracles.target_mass(new)


def _assert_matches_label_keys(prob, deltas):
    # run with step and with the label-key step it replaced: the same cell
    # codes and table at every level, so the same reports; the oracle codes
    # are int64, step's are int32 after level 0
    res = run(prob, deltas)
    with mock.patch.object(distortion, "_step", _label_key_step):
        want = run(prob, deltas)
    for got, ref in zip(res.states, want.states, strict=True):
        assert ref.level == 0 or ref.codes.dtype == np.int64
        assert got.level == 0 or got.codes.dtype == np.int32
        assert np.array_equal(got.codes, ref.codes)
        assert got.table == ref.table
    assert res.reports == want.reports
    assert res.final_target_masses == want.final_target_masses


def _policies(inst):
    """The default policy, threshold 1 and explicit 1/2 and 1/3."""
    return [
        None,
        ("threshold", 1),
        ("explicit", [HALF] * inst.depth),
        ("explicit", [F(1, 3)] * inst.depth),
    ]


def test_step_matches_label_keys_on_corpus(corpus):
    """Every step of the whole corpus under the four _policies equals
    oracles.step_label_keys."""
    for inst in corpus:
        prob = build_problem(inst)
        for policy in _policies(inst):
            _assert_matches_label_keys(prob, resolve_delta_policy(inst, policy))


@settings(max_examples=200, deadline=None)
@given(label_chains())
def test_random_chains_match_label_keys(case):
    prob, deltas = case
    _assert_matches_label_keys(oracles.to_labels(prob)[0], deltas)


def _assert_matches_alpha_ids(prob, deltas):
    # run, and run on the grouping, moments and step they replaced: the same
    # codes (and dtypes) and table at every level, so the same M1, M2 and
    # P_j(B_j) in every report, and the same certificate
    res = run(prob, deltas)
    with mock.patch.multiple(
        distortion,
        _fibers=oracles.fibers_alpha_ids,
        _moments=oracles.moments_alpha_ids,
        _step=oracles.step_alpha_ids,
    ):
        want = run(prob, deltas)
    for got, ref in zip(res.states, want.states, strict=True):
        assert got.codes.dtype == ref.codes.dtype and np.array_equal(got.codes, ref.codes)
        assert got.table == ref.table
    assert res[1:] == want[1:]


def test_fibers_match_alpha_ids_on_corpus(corpus):
    """Every level of the whole corpus under the four _policies: the (code,
    t) grouping, moments and step equal oracles.fibers_alpha_ids,
    moments_alpha_ids and step_alpha_ids."""
    for inst in corpus:
        prob = build_problem(inst)
        for policy in _policies(inst):
            _assert_matches_alpha_ids(prob, resolve_delta_policy(inst, policy))


@settings(max_examples=200, deadline=None)
@given(label_chains())
def test_random_chains_match_alpha_ids(case):
    prob, deltas = case
    _assert_matches_alpha_ids(oracles.to_labels(prob)[0], deltas)


def _deepest_levels(corpus):
    """The states of the deepest corpus instance under threshold 1, with
    its deltas."""
    inst = max(corpus, key=lambda i: (i.depth, ideal_norm(i.q)))
    deltas = resolve_delta_policy(inst, ("threshold", 1))
    return run(build_problem(inst), deltas).states, deltas


_SORTS = ("unique", "lexsort", "sort", "argsort")


def _record_sorts(monkeypatch, calls):
    """Wrap numpy's sorting functions to append their names to calls."""
    for name in _SORTS:

        def recording(*args, _name=name, _sort=getattr(np, name), **kwargs):
            calls.append(_name)
            return _sort(*args, **kwargs)

        monkeypatch.setattr(np, name, recording)


def test_fibers_sort_once_per_level(corpus, monkeypatch):
    """The engine sorts nothing (the name is kept from when _fibers sorted
    once per level): the fibers' (code, t) groups and the step check's
    representatives are presence tables over dense key ranges. certify on
    the whole corpus under the four _policies calls none of np.unique,
    np.lexsort, np.sort and np.argsort."""
    cases = [
        (build_problem(inst), resolve_delta_policy(inst, policy))
        for inst in corpus
        for policy in _policies(inst)
    ]
    calls = []
    _record_sorts(monkeypatch, calls)
    for prob, deltas in cases:
        certify(prob, deltas)
    assert calls == []


class _RecordingAdd:
    """np.add with its .at method recording (target, index, values)."""

    def __init__(self, add, calls):
        self.add, self.calls = add, calls

    def __getattr__(self, name):
        return getattr(self.add, name)

    def __call__(self, *args, **kwargs):
        return self.add(*args, **kwargs)

    def at(self, target, index, values):
        self.calls.append((target, index, values))
        return self.add.at(target, index, values)


def test_moments_and_step_scatter_below_parent_labels(corpus, monkeypatch):
    """_moments and _step (checks off) sum once per (code, t) key: no
    np.add.at they make gets an index of |L_{j-1}| or more entries."""
    states, deltas = _deepest_levels(corpus)
    for st, delta in zip(states, deltas):
        j, labels, calls = st.level + 1, len(oracles.label_codes(st)), []
        fibers = distortion._fibers(st, j)
        monkeypatch.setattr(np, "add", _RecordingAdd(np.add, calls))
        distortion._moments(st, fibers)
        distortion._step(st, j, delta, fibers, False)
        monkeypatch.undo()
        assert all(np.size(index) < labels for _, index, _ in calls), j


def test_add_at_keeps_its_fast_path(corpus, monkeypatch):
    """np.add.at is fast only when its values match the target's dtype:
    into int32 with a Python int, or into int64 with int32 values, it takes
    a slow path some ten times longer. Every np.add.at of certify on the
    corpus under the four _policies adds an array of the target's dtype, or
    a Python int into int64."""
    calls = []
    monkeypatch.setattr(np, "add", _RecordingAdd(np.add, calls))
    for inst in corpus:
        prob = build_problem(inst)
        for policy in _policies(inst):
            certify(prob, resolve_delta_policy(inst, policy))
    for target, _, values in calls:
        if isinstance(values, np.ndarray):
            assert values.dtype == target.dtype, (target.dtype, values.dtype)
        else:
            assert type(values) is int and target.dtype == np.int64, (target.dtype, values)
    assert len(calls) > 10000


def test_build_problem_scatters_nothing(corpus, monkeypatch):
    """build_problem counts no children per parent: run checks each
    fiber's size on the labels per cell its step check counts anyway. So
    building the corpus's problems makes no np.add.at call."""
    calls = []
    monkeypatch.setattr(np, "add", _RecordingAdd(np.add, calls))
    for inst in corpus:
        build_problem(inst)
    assert calls == []


def test_step_sorts_only_parent_fibers(corpus, monkeypatch):
    """The last step of the deepest corpus instance, checks on, groups the
    parent fibers and codes their cells with no sort at all, and its codes
    and table equal oracles.step_label_keys'."""
    inst = max(corpus, key=lambda i: (i.depth, ideal_norm(i.q)))
    prob = build_problem(inst)
    depth = len(prob.cells)
    deltas = resolve_delta_policy(inst, ("threshold", 1))
    old = run(prob, deltas).states[depth - 1]
    calls = []
    _record_sorts(monkeypatch, calls)
    new, _ = distortion._step(old, depth, deltas[-1], distortion._fibers(old, depth), True)
    monkeypatch.undo()
    assert calls == []
    want = oracles.step_label_keys(old, depth, deltas[-1])
    assert np.array_equal(new.codes, want.codes) and new.table == want.table


def test_run_groups_each_level_once(corpus, monkeypatch):
    """run groups the level-(j-1) fibers once per level and hands the one
    grouping to both the moments and the step, and the step hands the same
    group array to its check."""
    inst = max(corpus, key=lambda i: (i.depth, ideal_norm(i.q)))
    prob = build_problem(inst)
    deltas = resolve_delta_policy(inst, ("threshold", 1))
    want = run(prob, deltas)
    calls, checked = [], []
    fibers, verify_step = distortion._fibers, distortion._verify_step

    def counting(state, j):
        calls.append((j, fibers(state, j)))
        return calls[-1][1]

    def recording(old, new, j, group):
        checked.append((j, group))
        return verify_step(old, new, j, group)

    monkeypatch.setattr(distortion, "_fibers", counting)
    monkeypatch.setattr(distortion, "_verify_step", recording)
    got = run(prob, deltas)
    assert [j for j, _ in calls] == list(range(1, inst.depth + 1))
    assert [j for j, _ in checked] == [j for j, _ in calls]
    assert all(g is f[-1] for (_, g), (_, f) in zip(checked, calls))
    assert got.reports == want.reports


def test_certify_is_run(corpus):
    """certify(p, d) equals run(p, d) field by field on every corpus
    instance under the four _policies, certified or not."""
    verdicts = Counter()
    for inst in corpus:
        prob = build_problem(inst)
        for policy in _policies(inst):
            deltas = resolve_delta_policy(inst, policy)
            got, want = certify(prob, deltas), run(prob, deltas)
            for x, y in zip(got.states, want.states, strict=True):
                assert x.level == y.level and x.table == y.table and x.deltas == y.deltas
                assert np.array_equal(x.codes, y.codes)
            assert got[1:] == want[1:]
            verdicts[got.verdict] += 1
    assert verdicts["certified-noncover"] > 2000 and verdicts["inconclusive"] > 20, verdicts


def test_run_lifts_the_targets_once(monkeypatch, six_system, classic_cover):
    """One certify, certified or inconclusive, lifts B_1..B_J to level J once."""
    calls, lift = [], distortion._target_hits

    def counting(problem):
        calls.append(problem)
        return lift(problem)

    monkeypatch.setattr(distortion, "_target_hits", counting)
    for inst, verdict in ((six_system, "certified-noncover"), (classic_cover, "inconclusive")):
        calls.clear()
        assert certify(build_problem(inst), [HALF, HALF]).verdict == verdict
        assert len(calls) == 1


def test_stability_check_reads_the_step_tally(monkeypatch, six_system):
    """P_J(B_J) in the report comes from step J's tally, and the level-J
    codes must give it back: a step whose tally is off by one point of
    mass 1/n fails the stability check."""
    prob = build_problem(six_system)
    orig, depth, n = distortion._step, len(prob.cells), prob.sizes[0]

    def off_by_one_point(state, j, delta, fibers, checks):
        new, target = orig(state, j, delta, fibers, checks)
        return new, target - F(1, n) if j == depth else target

    res = run(prob, [HALF, F(0)])
    assert res.reports[-1].target_mass == res.final_target_masses[-1] == F(1, 3)
    monkeypatch.setattr(distortion, "_step", off_by_one_point)
    with pytest.raises(SoundnessError, match=f"target {depth} mass not stable"):
        run(prob, [HALF, F(0)])


def test_states_code_each_cell(corpus):
    """A level-j state, j >= 1, holds one code per cell of cells[j-1]:
    2 * |L_{j-1}| of them. Its per-label values equal the per-label
    oracle's on every corpus instance under the four _policies."""
    for inst in corpus:
        prob, points = build_problem(inst), oracles.build_problem_points(inst)
        labels = [len(prob.initial_codes)] + [len(cell) for cell in prob.cells]
        for policy in _policies(inst):
            deltas = resolve_delta_policy(inst, policy)
            res = run(prob, deltas)
            assert [len(st.codes) for st in res.states[1:]] == [2 * m for m in labels[:-1]]
            values, *_ = oracles.run_per_label(points, deltas)
            assert [list(st.values) for st in res.states] == values


def test_certify_sums_below_level_j_labels(monkeypatch):
    """certify on 0 mod p for p <= 17 (n = 510,510, depth 7) sums masses
    over level-6 labels or level-7 cells, never over the n level-7 labels:
    no _grouped_sum call gets more than 2 * |O/Q_6| ids."""
    field = make_field("rational")
    primes = (2, 3, 5, 7, 11, 13, 17)
    inst = validate(field, [((0, 0), ideal_from_gens(field, [(p, 0)])) for p in primes])
    prob, lengths, orig = build_problem(inst), [], distortion._grouped_sum

    def recording(ids, counts, values):
        lengths.append(len(ids))
        return orig(ids, counts, values)

    monkeypatch.setattr(distortion, "_grouped_sum", recording)
    cert = certify(prob, resolve_delta_policy(inst, ("threshold", 2)))
    assert cert.verdict == "certified-noncover"
    assert max(lengths) <= 2 * ideal_norm(inst.levels[-2]) == 2 * 30030 < ideal_norm(inst.q)


def test_no_levels_leave_every_point_uncovered():
    """A problem with no levels has no target: run returns eta 0, the
    certified-noncover verdict, uncovered mass 1 and witness 0."""
    prob = DistortionProblem([2], [], np.zeros(3, dtype=np.int32), (F(1, 6),))
    for checks in (True, False):
        res = run(prob, [], checks=checks)
        assert res[1:] == ([], F(0), [], "certified-noncover", F(1), 0)
        assert [st.level for st in res.states] == [0]


def _corpus_runs(corpus, dtype):
    """Codes, tables, reports, final target masses and certificate of every
    corpus instance under the four _policies; every cell and code array
    must have the given dtype."""
    out = []
    for inst in corpus:
        prob = build_problem(inst)
        assert all(c.dtype == dtype for c in prob.cells)
        for policy in _policies(inst):
            deltas = resolve_delta_policy(inst, policy)
            res = run(prob, deltas)
            assert all(st.codes.dtype == dtype for st in res.states)
            codes = [st.codes.tolist() for st in res.states]
            tables = [st.table for st in res.states]
            cert = certify(prob, deltas)[1:]
            out.append((codes, tables, res.reports, res.final_target_masses, cert))
    return out


def test_int64_labels_match_int32(corpus, monkeypatch):
    """Every corpus instance gets int32 labels; with the index dtype forced
    to int64, as above 2^31 labels, every value is the same."""
    narrow = _corpus_runs(corpus, np.int32)
    monkeypatch.setattr(kernels, "index_dtype", lambda n: np.int64)
    assert _corpus_runs(corpus, np.int64) == narrow


def test_fibers_keys_pass_2_31(corpus, monkeypatch):
    """A code past the value table is refused before any table is made: 8
    parents of r = 6 one-point children under int32 codes near 2^31 - 1
    would need a presence table of some 1.5 * 10^10 keys, and with a
    one-entry table _fibers refuses them with under 1 MB traced. On every level of
    the deepest corpus instance the keys _fibers counts are int64 and key
    each fiber by code * len(ts) + rank(t), ts the distinct t ascending,
    the values of Python-int arithmetic; each group's code and t are the
    code and t of its fibers."""
    m, b = 8, 6
    parent = np.repeat(np.arange(m, dtype=np.int32), b)
    bits = np.arange(m * b) % b < np.repeat(np.arange(m) % 7, b)
    prob = DistortionProblem(
        [2 * b, b, 1],
        [np.arange(m, dtype=np.int32), 2 * parent + bits],
        np.zeros(m // 2, dtype=np.int32),
        (F(1, m * b),),
    )
    codes = np.arange(2**31 - 1, 2**31 - 1 - m, -1, dtype=np.int32)
    state = distortion.DistortionState(prob, 1, codes, (F(0),), (F(0),))
    tracemalloc.start()
    try:
        with pytest.raises(SoundnessError, match="step 2: a fiber's code lies outside"):
            distortion._fibers(state, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    states, _ = _deepest_levels(corpus)
    counted, bincount = [], np.bincount

    def recording(keys, minlength):
        counted.append(keys)
        return bincount(keys, minlength=minlength)

    monkeypatch.setattr(np, "bincount", recording)
    for st in states[:-1]:
        counted.clear()
        _, split, code, t, counts, group = distortion._fibers(st, st.level + 1)
        assert code.dtype == t.dtype == counts.dtype == np.int64 and group.dtype == np.int32
        codes, tl = oracles.label_codes(st).tolist(), split[1::2].tolist()
        ts = sorted(set(tl))
        assert len(counted) == 1 and counted[0].dtype == np.int64
        assert counted[0].tolist() == [c * len(ts) + ts.index(x) for c, x in zip(codes, tl)]
        assert code[group].tolist() == codes and t[group].tolist() == tl


def _assert_matches_grouping(prob, deltas, fibers, verify_step):
    # every level's (r, split, code, t, counts, group) equals the given
    # former grouping's, dtypes too, and run with it and the given former
    # step check gives the same states and certificate. The key range of
    # step j spans len(table) * len(ts) keys, at most len(table) * (r_j + 1),
    # the range it replaced, and at most |L_j| + |L_{j-1}|
    labels = [len(prob.initial_codes)] + [len(cell) for cell in prob.cells]
    res = run(prob, deltas)
    for st in res.states[:-1]:
        j = st.level + 1
        got = distortion._fibers(st, j)
        want = fibers(st, j)
        assert got[0] == want[0]
        span = len(st.table) * len(set(got[3].tolist()))
        assert span <= len(st.table) * (got[0] + 1) and span <= labels[j] + labels[j - 1], j
        for x, y in zip(got[1:], want[1:], strict=True):
            assert x.dtype == y.dtype and np.array_equal(x, y)
    with mock.patch.multiple(distortion, _fibers=fibers, _verify_step=verify_step):
        want = run(prob, deltas)
    for got, ref in zip(res.states, want.states, strict=True):
        assert got.codes.dtype == ref.codes.dtype and np.array_equal(got.codes, ref.codes)
        assert got.table == ref.table
    assert res[1:] == want[1:]


def _assert_matches_unique(prob, deltas):
    _assert_matches_grouping(prob, deltas, oracles.fibers_unique, oracles.verify_step_lexsort)


def _assert_matches_dense(prob, deltas):
    _assert_matches_grouping(prob, deltas, oracles.fibers_dense, oracles.verify_step_dense)


def test_fibers_match_unique_on_corpus(corpus):
    """Every level of the whole corpus under the four _policies: (r, split,
    code, t, counts, group) and the certificate equal those of
    oracles.fibers_unique and verify_step_lexsort, and the key ranges hold
    at most |L_j| + |L_{j-1}| keys."""
    for inst in corpus:
        prob = build_problem(inst)
        for policy in _policies(inst):
            _assert_matches_unique(prob, resolve_delta_policy(inst, policy))


@settings(max_examples=200, deadline=None)
@given(label_chains())
def test_random_chains_match_unique(case):
    prob, deltas = case
    _assert_matches_unique(oracles.to_labels(prob)[0], deltas)


def test_fibers_match_dense_on_corpus(corpus):
    """Every level of the whole corpus under the four _policies: (r, split,
    code, t, counts, group) and the certificate equal those of
    oracles.fibers_dense and verify_step_dense, whose key ranges spanned
    len(table) * (r_j + 1) keys."""
    for inst in corpus:
        prob = build_problem(inst)
        for policy in _policies(inst):
            _assert_matches_dense(prob, resolve_delta_policy(inst, policy))


@settings(max_examples=200, deadline=None)
@given(label_chains())
def test_random_chains_match_dense(case):
    prob, deltas = case
    _assert_matches_dense(oracles.to_labels(prob)[0], deltas)


def _assert_certify_peak(moduli):
    """certify on the classes 0 mod m for m in moduli at threshold 1, the
    problem built outside the trace, peaks under tracemalloc at no more
    than 1.1 times the bytes of the problem's cells. Returns the problem."""
    field = make_field("rational")
    inst = validate(field, [((0, 0), ideal_from_gens(field, [(m, 0)])) for m in moduli])
    prob = build_problem(inst)
    deltas = resolve_delta_policy(inst, ("threshold", 1))
    tracemalloc.start()
    try:
        cert = certify(prob, deltas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.verdict == "certified-noncover"
    assert peak <= 1.1 * sum(cell.nbytes for cell in prob.cells), peak
    return prob


def test_certify_depth_7_memory():
    """certify on 0 mod p for p <= 17 (depth 7, n = 510,510) stays within
    _assert_certify_peak: no step makes a temporary larger than a level's
    labels."""
    _assert_certify_peak((2, 3, 5, 7, 11, 13, 17))


def test_certify_one_fiber_memory():
    """certify on 0 mod 2^20, one level-0 fiber of 2^20 labels, stays
    within _assert_certify_peak: the fibers' key range is sized by the
    fibers, not by r = 2^20."""
    prob = _assert_certify_peak((2**20,))
    assert len(prob.initial_codes) == 1 and len(prob.cells[-1]) == 2**20


# ------------------------------------------------------------ tampering


def _group(old, j):
    """The grouping _fibers gives the level-(j-1) fibers of old."""
    return distortion._fibers(old, j)[-1]


def _groupings(old, j, rng):
    """Five groupings of old's level-(j-1) fibers, each in [0, |L_{j-1}|):
    _fibers' own, all zeros, arange, _fibers' own reversed and random."""
    own = _group(old, j)
    m = len(own)
    return [own, np.zeros(m, dtype=own.dtype), np.arange(m), own[::-1].copy(),
            np.array([rng.randrange(m) for _ in range(m)])]


def _last_step(prob, deltas):
    states = run(prob, deltas).states
    old, new = states[-2], states[-1]
    distortion._verify_step(old, new, new.level, _group(old, new.level))
    return old, new


def test_verify_step_catches_tampered_codes(six_system):
    # level 2 codes the cells (even, out of B_2) = {0, 2}, (even, in B_2) =
    # {4}, (odd, out of B_2) = {3, 5} and (odd, in B_2) = {1}
    old, new = _last_step(build_problem(six_system), [HALF, HALF])
    group = _group(old, 2)
    assert list(new.values) == [F(0), F(0), F(0), HALF, F(0), HALF]
    codes = new.codes.copy()
    codes[0] = codes[2]  # one cell takes another cell's code
    with pytest.raises(SoundnessError, match="total mass"):
        distortion._verify_step(old, new._replace(codes=codes), 2, group)
    codes = new.codes.copy()
    codes[[0, 2]] = codes[[2, 0]]  # total mass kept, fibers 0 mod 2 and 1 mod 2 not
    with pytest.raises(SoundnessError, match="fiber mass"):
        distortion._verify_step(old, new._replace(codes=codes), 2, group)
    codes = new.codes.copy()
    codes[0] = len(new.table)
    with pytest.raises(SoundnessError, match="outside the value table"):
        distortion._verify_step(old, new._replace(codes=codes), 2, group)


def _cell_counts(new):
    """The labels of each cell that new codes."""
    return np.bincount(new.problem.cells[new.level - 1], minlength=len(new.codes))


def _swap_cells(rng, new, count):
    """Codes of new with two nonempty cells of different parents, different
    codes and equal label counts swapped, or None if there are none."""
    codes = new.codes
    c1 = rng.choice(np.flatnonzero(count).tolist())
    parent = np.arange(len(codes)) >> 1
    other = (parent != parent[c1]) & (codes != codes[c1]) & (count == count[c1])
    if not other.any():
        return None
    c2 = rng.choice(np.flatnonzero(other).tolist())
    out = codes.copy()
    out[[c1, c2]] = codes[[c2, c1]]
    return out


def _swap_fibers(rng, old, new, count):
    """Codes of new with the two cells of two parents of different mass and
    equal cell label counts swapped, or None if there are none."""
    pairs, old_codes = count.reshape(-1, 2), oracles.label_codes(old)
    p1 = rng.randrange(len(pairs))
    other = (pairs == pairs[p1]).all(axis=1) & (old_codes != old_codes[p1])
    if not other.any():
        return None
    p2 = rng.choice(np.flatnonzero(other).tolist())
    out = new.codes.copy()
    cells = [2 * p1, 2 * p1 + 1, 2 * p2, 2 * p2 + 1]
    out[cells] = new.codes[cells[2:] + cells[:2]]
    return out


def _recode(rng, new, count):
    """Codes of new with one nonempty cell given another code of the table,
    or None if the table has one value."""
    if len(new.table) < 2:
        return None
    out = new.codes.copy()
    c = rng.choice(np.flatnonzero(count).tolist())
    out[c] = rng.choice([k for k in range(len(new.table)) if k != out[c]])
    return out


def _double_entry(rng, new, count):
    """The table of new with the nonzero value of a random nonempty cell
    doubled, or None if that value is 0."""
    c = int(new.codes[rng.choice(np.flatnonzero(count).tolist())])
    if not new.table[c]:
        return None
    table = list(new.table)
    table[c] *= 2
    return tuple(table)


def _raised(check, old, new, group):
    """The message of the SoundnessError check raises on the step under the
    given grouping, or None."""
    try:
        check(old, new, new.level, group)
    except SoundnessError as e:
        return str(e)
    return None


def test_verify_step_catches_swaps_on_corpus(corpus):
    """Every step of 40 deep instances, under threshold 1 and the default
    policy. The check under each of the five _groupings, and the dense,
    lexsort and signature oracles it replaced, each accept every step as run
    and raise on every tampering: swaps of cells, or of the two cells of two
    parents, with equal label counts, which keep the total mass but move
    mass between fibers (each caught as fiber mass), one re-coded cell and
    one doubled table entry."""
    rng = random.Random(26)
    oracle_checks = (oracles.verify_step_dense, oracles.verify_step_lexsort,
                     oracles.verify_step_signatures)
    caught = dict.fromkeys(["cell", "fiber", "recode", "table"], 0)
    deep = [i for i in corpus if i.depth >= 2 and ideal_norm(i.q) >= 100]
    for inst in deep[:40]:
        prob = build_problem(inst)
        for policy in (("threshold", 1), None):
            states = run(prob, resolve_delta_policy(inst, policy)).states
            for old, new in zip(states, states[1:]):
                checks = [(distortion._verify_step, g) for g in _groupings(old, new.level, rng)]
                checks += [(check, None) for check in oracle_checks]
                for check, group in checks:
                    assert _raised(check, old, new, group) is None
                count = _cell_counts(new)
                for _ in range(4):
                    table = _double_entry(rng, new, count)
                    for kind, bad in (
                        ("cell", _swap_cells(rng, new, count)),
                        ("fiber", _swap_fibers(rng, old, new, count)),
                        ("recode", _recode(rng, new, count)),
                        ("table", table),
                    ):
                        if bad is None:
                            continue
                        field = "table" if kind == "table" else "codes"
                        bad = new._replace(**{field: bad})
                        for check, group in checks:
                            got = _raised(check, old, bad, group)
                            assert got is not None, (check, kind)
                            if kind in ("cell", "fiber"):
                                assert "fiber mass" in got
                        caught[kind] += 1
    assert caught["cell"] + caught["fiber"] > 400 and min(caught.values()) > 100, caught


def test_verify_step_catches_tampered_table(six_system):
    old, new = _last_step(build_problem(six_system), [HALF, HALF])
    table = list(new.table)
    c = int(new.codes[2])  # the cell {3, 5}, of mass 1/2 each
    table[c] = table[c] * 2
    with pytest.raises(SoundnessError):
        distortion._verify_step(old, new._replace(table=tuple(table)), 2, _group(old, 2))


def _hand_built_step(codes0, table0, parents1, bits1, codes1, table1):
    """(old, new) level-0 and level-1 states of a hand-built problem whose
    level-1 labels each hold one point, len(parents1) / len(codes0) to a
    level-0 label. codes1 gives each level-1 label a code, one per cell."""
    n, m = len(parents1), len(codes0)
    cell = 2 * np.array(parents1) + np.array(bits1)
    prob = DistortionProblem([n // m, 1], [cell], np.array(codes0), tuple(table0))
    codes = np.zeros(2 * m, dtype=np.int64)
    codes[cell] = codes1
    old = distortion.DistortionState(prob, 0, prob.initial_codes, prob.initial_table, ())
    new = distortion.DistortionState(prob, 1, codes, tuple(table1), (F(0),))
    assert np.array_equal(oracles.label_codes(new), codes1)
    return old, new


def test_verify_step_checks_every_distinct_row():
    # each case keeps the total mass, but moves mass between fibers. The
    # wrong fibers' rows (old code, n1, c0, c1) match a right fiber's row in
    # all but one entry, so each must be checked on its own, under each of
    # the five _groupings. Under one group for all, the fiber that
    # represents it is first or last, so each case where a right fiber can
    # represent the wrong ones comes with the right fiber first and last.
    own_code = [
        _hand_built_step(codes0, [F(1, 3), F(1, 6), F(1, 2)],
                         [0, 1, 2], [False] * 3, [0, 0, 0], [F(1, 3)])
        for codes0 in ([0, 1, 2], [1, 2, 0])
    ]
    # three fibers of r = 4 with cell codes (0, 1): 2 labels in B_1 keep the
    # mass 1/3, 3 gain 1/6 and 1 loses it
    own_n1 = [
        _hand_built_step([0] * 3, [F(1, 12)], [0] * 4 + [1] * 4 + [2] * 4,
                         [b for n1 in order for b in [False] * (4 - n1) + [True] * n1],
                         [b for n1 in order for b in [0] * (4 - n1) + [1] * n1],
                         [F(0), F(1, 6)])
        for order in ([2, 3, 1], [3, 1, 2])
    ]
    # fibers 1 and 3 take the cell codes of fibers 0 and 2, with the
    # (non-target, target) counts (1, 2) turned to (2, 1)
    counts = _hand_built_step([0, 0, 1, 1], [F(1, 9), F(1, 18)],
                              [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3],
                              [False, True, True, False, False, True] * 2,
                              [0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0], [F(0), F(1, 6)])
    # four fibers of one (old code, n1) key: two keep their mass 1/4 with
    # cell codes (1, 1), one gains 1/8 with (2, 1) and one loses it with
    # (0, 1), first or last, so whichever fiber represents the key, the two
    # that differ from a right one are checked too
    same_key = [
        _hand_built_step([0] * 4, [F(1, 8)], [0, 0, 1, 1, 2, 2, 3, 3], [False, True] * 4,
                         codes, [F(0), F(1, 8), F(1, 4)])
        for codes in ([2, 1, 0, 1, 1, 1, 1, 1], [1, 1, 1, 1, 2, 1, 0, 1],
                      [1, 2, 1, 0, 1, 1, 1, 1], [1, 1, 1, 1, 1, 2, 1, 0])
    ]
    rng = random.Random(31)
    for old, new in (*own_code, *own_n1, counts, *same_key):
        assert oracles.total_mass(new) == 1
        checks = [(distortion._verify_step, g) for g in _groupings(old, 1, rng)]
        checks += [(check, None) for check in (oracles.verify_step_dense,
                   oracles.verify_step_lexsort, oracles.verify_step_signatures)]
        for check, group in checks:
            with pytest.raises(SoundnessError, match="fiber mass"):
                check(old, new, 1, group)


def test_run_refuses_a_fiber_of_the_wrong_size():
    """Level-0 label 1 carries no mass, so its fiber keeps its mass and the
    total stays 1 whatever the fiber holds: only the size check sees that
    it holds 3 labels where r = 2. Without checks the run certifies. With
    its 3 labels in B_1 it has t = 3 > r, and _fibers refuses it, checks
    or none."""
    prob = DistortionProblem(
        [2, 1], [np.array([0, 0, 2, 2, 2], dtype=np.int32)],
        np.array([0, 1], dtype=np.int32), (F(1, 2), F(0)),
    )
    with pytest.raises(SoundnessError, match="step 1: a fiber holds 3 labels, not 2"):
        run(prob, [F(0)])
    assert run(prob, [F(0)], checks=False).verdict == "certified-noncover"
    prob = prob._replace(cells=[np.array([0, 0, 3, 3, 3], dtype=np.int32)])
    for checks in (True, False):
        with pytest.raises(SoundnessError, match="step 1: a fiber holds more than 2 labels"):
            run(prob, [F(0)], checks=checks)


def test_run_refuses_cells_outside_their_range():
    """Before a level's labels are counted, run refuses a cell outside
    [0, 2 |L_{j-1}|), fibers of r_j < 1, a code outside the value table and
    a level with no labels, checks on or off. Unrefused, cell -4 wrapped to
    cell 0 and the run certified with eta 0, cell 4 raised an IndexError,
    sizes [1, 2] a ZeroDivisionError, code -1 read the table's last value,
    so that without checks the run certified, and an empty level raised
    the ValueError of a min over no codes or cells."""
    empty = np.array([], dtype=np.int32)
    prob = DistortionProblem(
        [2, 1], [np.array([0, 0, 2, 2], dtype=np.int32)],
        np.array([0, 1], dtype=np.int32), (F(1, 2), F(0)),
    )
    assert run(prob, [F(0)]).verdict == "certified-noncover"
    bad = [
        (prob._replace(cells=[np.array([0, -4, 2, 2], dtype=np.int32)]),
         r"step 1: a cell lies outside \[0, 4\)"),
        (prob._replace(cells=[np.array([0, 4, 2, 2], dtype=np.int32)]),
         r"step 1: a cell lies outside \[0, 4\)"),
        (prob._replace(sizes=[1, 2]),
         "step 1: level-1 labels of 2 points do not fit in level-0 labels of 1"),
        (prob._replace(initial_codes=np.array([-1, 1], dtype=np.int32)),
         "step 1: a fiber's code lies outside the value table"),
        (DistortionProblem([2, 1], [empty], empty, (F(1, 2),)),
         "step 1: level 0 or 1 has no labels"),
        (prob._replace(cells=[empty]), "step 1: level 0 or 1 has no labels"),
    ]
    for tampered, message in bad:
        for checks in (True, False):
            with pytest.raises(SoundnessError, match=message):
                run(tampered, [F(0)], checks=checks)


def test_verify_step_counts_its_own_cells(monkeypatch, near_cover):
    """The step reads t from the groups of _fibers; the check counts the
    cells again. A grouping that moves one label of near_cover's one fiber
    out of B_1, in its t and its split, gives the step alpha 1/2 in place
    of 3/4, and the check must refuse the step."""
    orig = distortion._fibers

    def one_label_out(state, j):
        r, split, code, t, counts, group = orig(state, j)
        return r, split + [1, -1], code, t - 1, counts, group

    prob = build_problem(near_cover)
    run(prob, [HALF])
    monkeypatch.setattr(distortion, "_fibers", one_label_out)
    run(prob, [HALF], checks=False)
    with pytest.raises(SoundnessError, match="mass drifted|fiber mass"):
        run(prob, [HALF])


def test_broken_factor_fails_run_and_cli(monkeypatch, capsys, near_cover):
    orig = distortion._factor
    monkeypatch.setattr(
        distortion, "_factor", lambda a, b, delta: orig(a, b, delta) * (2 if b else 1)
    )
    prob = build_problem(near_cover)
    run(prob, [HALF], checks=False)
    with pytest.raises(SoundnessError, match="total mass"):
        run(prob, [HALF])
    rc = main(["certify", "--input", str(DATA / "near.json"), "--delta", "threshold:1"])
    out, err = capsys.readouterr()
    assert rc == 4 and out == ""
    assert json.loads(err)["error"] == "SoundnessError"


def test_moment_bound_check(monkeypatch, near_cover):
    monkeypatch.setattr(distortion, "_moments", lambda state, fibers: (F(0), F(0)))
    with pytest.raises(SoundnessError, match="moment bound"):
        run(build_problem(near_cover), [F(0)])


def test_stability_check(monkeypatch, six_system):
    # step 2 moves mass from the cell {3, 5} (outside B_1) to the cell
    # {0, 2} (in B_1); none is in B_2 = {1, 4}, so only the stability of
    # P(B_1) shows it
    orig = distortion._step

    def bad_step(state, j, delta, fibers, checks):
        new, _ = orig(state, j, delta, fibers, checks=False)
        if j == 2:
            assert list(new.values) == [F(0), F(1, 3)] * 3
            codes = new.codes.copy()
            codes[[0, 2]] = codes[[2, 0]]
            new = new._replace(codes=codes)
        return new, oracles.target_mass(new)

    monkeypatch.setattr(distortion, "_step", bad_step)
    with pytest.raises(SoundnessError, match="not stable"):
        run(build_problem(six_system), [HALF, F(0)])


def test_uncovered_floor_check(monkeypatch, six_system):
    # run sums the union's mass over the level-J cells, each counted with
    # its points in some target; that sum alone gets all the mass, so every
    # target keeps its own and only the floor can fail
    prob, orig, calls = build_problem(six_system), distortion._grouped_sum, []
    union = np.logical_or.reduce(oracles.build_problem_points(six_system).targets)
    in_union = np.bincount(prob.cells[-1][union], minlength=2 * len(prob.cells[-2]))

    def union_takes_all(ids, counts, values):
        calls.append(np.array_equal(counts, in_union))
        return F(1) if calls[-1] else orig(ids, counts, values)

    res = run(prob, [F(0), F(0)])
    assert res.verdict == "certified-noncover" and res.uncovered_mass == F(1, 3)
    monkeypatch.setattr(distortion, "_grouped_sum", union_takes_all)
    with pytest.raises(SoundnessError, match="floor"):
        run(prob, [F(0), F(0)])
    assert calls.count(True) == 1 and calls[-1]
    assert run(prob, [F(0), F(0)], checks=False).uncovered_mass == 0


# ------------------------------------------------------------ invariants


def test_step_conserves_parent_fibers(six_system):
    states = run(build_problem(six_system), [F(1, 3), F(1, 5)]).states
    lab1 = oracles.build_problem_points(six_system).levels[1]
    before, after = masses(states[1], six_system), masses(states[2], six_system)
    for lab in set(lab1.tolist()):
        idx = [i for i in range(6) if lab1[i] == lab]
        assert sum(before[i] for i in idx) == sum(after[i] for i in idx)


def test_eta_zero_policy_equals_density_sum(corpus):
    # with all deltas 0 the measure stays uniform, so eta = sum of |B_j|/|Q|
    rng = random.Random(25)
    small = [i for i in corpus if ideal_norm(i.q) <= 300]
    for inst in rng.sample(small, min(30, len(small))):
        prob = build_problem(inst)
        res = run(prob, zero_policy(inst))
        n = ideal_norm(inst.q)
        targets = oracles.build_problem_points(inst).targets
        want = sum(F(int(t.sum()), n) for t in targets)
        assert res.eta == want


def test_moments_and_alpha_api(near_cover):
    res = run(build_problem(near_cover), [HALF])
    rep = res.reports[0]
    assert (rep.m1, rep.m2) == (F(3, 4), F(9, 16))
    a = oracles.alpha(res.states[0], 1)
    assert a == [F(3, 4)] * 4  # per point, constant on the one fiber
    assert rep.target_mass == res.final_target_masses[0] == HALF


def test_mask_mass(near_cover):
    # the mass of the points a class mask marks, from oracles.class_measure:
    # 0 + (2) is {0, 2} of the 4 points, and after the step at delta 1/2
    # the one point 3 + (4) outside B_1 doubles its mass 1/4
    field = near_cover.field
    two, four = (ideal_from_gens(field, [(n, 0)]) for n in (2, 4))
    states = run(build_problem(near_cover), [HALF]).states
    assert oracles.class_measure(near_cover, states[0], (0, 0), two) == HALF
    assert oracles.class_measure(near_cover, states[-1], (3, 0), four) == HALF


def test_custom_problem_nonuniform_initial():
    levels = [
        np.array([0, 0, 1, 1]),
        np.array([0, 1, 2, 3]),
    ]
    targets = [np.array([True, False, False, False])]
    prob = oracles.PointProblem(
        levels=levels,
        targets=targets,
        initial_mass=[F(1, 8), F(1, 8), F(3, 8), F(3, 8)],
    )
    res = run(oracles.to_labels(prob)[0], [HALF])
    # fiber {0,1} has alpha 1/2: point 0 -> 0, point 1 -> doubled
    assert oracles.point_masses(res.states[-1], prob) == [F(0), F(1, 4), F(3, 8), F(3, 8)]
    assert res.reports[0].m1 == F(1, 8)
    # m2 = sum of mass * alpha^2 = (1/8+1/8)*(1/4)
    assert res.reports[0].m2 == F(1, 16)


def test_custom_problem_initial_must_respect_fibers():
    levels = [np.array([0, 0, 0, 0]), np.array([0, 1, 0, 1])]
    targets = [np.array([True, False, True, False])]
    prob = oracles.PointProblem(
        levels=levels,
        targets=targets,
        initial_mass=[F(1, 2), F(1, 6), F(1, 6), F(1, 6)],
    )
    with pytest.raises(InputError, match="not constant"):
        oracles.to_labels(prob)


def test_custom_problem_initial_must_sum_to_one():
    levels = [np.array([0, 0]), np.array([0, 1])]
    targets = [np.array([True, False])]
    prob = oracles.PointProblem(
        levels=levels, targets=targets, initial_mass=[F(1, 3), F(1, 3)]
    )
    with pytest.raises(InputError, match="sum to 1"):
        oracles.to_labels(prob)


def test_levels_must_refine():
    levels = [np.array([0, 0, 1, 1]), np.array([0, 1, 1, 2])]
    targets = [np.array([True, False, False, False])]
    prob = oracles.PointProblem(levels=levels, targets=targets)
    with pytest.raises(InputError, match="refine"):
        oracles.to_labels(prob)


def test_levels_must_have_uniform_fibers():
    # the engine takes one point count per level: labels of 1 and 3 points
    # at level 1, or at level 0, are refused
    targets = [np.array([True, False, False, False])]
    for levels, j in (
        ([np.array([0, 0, 0, 0]), np.array([0, 1, 1, 1])], 1),
        ([np.array([0, 1, 1, 1]), np.array([0, 1, 2, 3])], 0),
    ):
        prob = oracles.PointProblem(levels=levels, targets=targets)
        with pytest.raises(InputError, match=f"level {j} labels hold unequal point counts"):
            oracles.to_labels(prob)


def test_targets_must_be_measurable():
    levels = [np.array([0, 0, 0, 0]), np.array([0, 0, 1, 1])]
    targets = [np.array([True, False, False, False])]
    prob = oracles.PointProblem(levels=levels, targets=targets)
    with pytest.raises(InputError, match="fiber"):
        oracles.to_labels(prob)


def test_delta_validation(near_cover):
    prob = build_problem(near_cover)
    with pytest.raises(InputError):
        run(prob, [F(0), F(0)])
    with pytest.raises(DeltaOutOfRange):
        run(prob, [F(2, 3)])
    with pytest.raises(DeltaOutOfRange):
        run(prob, [F(-1, 2)])


def test_sparse_labels_certify_as_dense(six_system, near_cover, gauss_cover):
    # the n-point chain, as is or with sparse labels (all labels x2, or one
    # huge label), converts to the problem build_problem builds directly
    for inst in (six_system, near_cover, gauss_cover):
        deltas = [HALF] * inst.depth
        want = certify(build_problem(inst), deltas)
        prob = oracles.build_problem_points(inst)
        top = [np.where(lv == lv.max(), 2**40, lv) for lv in prob.levels]
        for levels in (prob.levels, [2 * lv for lv in prob.levels], top):
            problem, _ = oracles.to_labels(oracles.PointProblem(levels, prob.targets))
            got = certify(problem, deltas)
            assert got[1:] == want[1:]
        # points in reverse order: the witness is still the first uncovered
        # point, the first point of the witness label
        targets = [t[::-1] for t in prob.targets]
        reverse = oracles.PointProblem([lv[::-1] for lv in prob.levels], targets)
        problem, points = oracles.to_labels(reverse)
        got = certify(problem, deltas)
        assert got[1:6] == want[1:6]  # all but the states and the witness
        first = np.flatnonzero(~np.logical_or.reduce(targets))[0]
        assert np.flatnonzero(points == got.witness_index)[0] == first


def test_malformed_labels_rejected():
    targets = [np.array([True, False])]
    cases = [
        ([np.array([0, 0]), np.array([0, -1])], "level 1 labels must be nonnegative"),
        ([np.array([0, 0]), np.array([[0, 1]])], "level 1 labels malformed"),
        ([np.array([0, 0]), np.array([0, 1, 2])], "level 1 labels malformed"),
        ([np.array([], dtype=np.int64)], "empty point set"),
        ([], "need at least the level-0 labels"),
    ]
    for levels, message in cases:
        with pytest.raises(InputError, match=message):
            oracles.to_labels(oracles.PointProblem(levels=levels, targets=targets))
