import random
from fractions import Fraction

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
    alpha,
    build_problem,
    certify,
    ideal_from_gens,
    ideal_norm,
    initial_state,
    make_field,
    mask_mass,
    moments,
    residue_at,
    resolve_delta_policy,
    run,
    step,
    target_mass,
    validate,
)

from coverdist import distortion
from coverdist.cli import main

F = Fraction
HALF = F(1, 2)
DATA = Path(__file__).parent / "data"


def masses(state):
    return oracles.point_masses(state)


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
    assert masses(res.states[-1]) == [F(1, 4)] * 4
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
    assert masses(res.states[-1]) == [F(1, 6), F(1, 6), F(1, 6), F(1, 2)]
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
    assert masses(res.states[-1]) == [F(2, 9), F(2, 9), F(2, 9), F(1, 3)]
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
    assert masses(res.states[1]) == [F(0), F(1, 3), F(0), F(1, 3), F(0), F(1, 3)]
    r1, r2 = res.reports
    assert (r1.m1, r1.m2, r1.contribution) == (HALF, F(1, 4), F(1, 4))
    assert (r2.m1, r2.m2, r2.contribution) == (F(1, 3), F(1, 9), F(1, 9))
    # step 2: alpha = 1/3 < delta: targets vanish, others scale by 3/2
    assert masses(res.states[2]) == [F(0), F(0), F(0), HALF, F(0), HALF]
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
    assert masses(res.states[2]) == [F(1, 4), F(0), F(1, 4), F(1, 4), F(0), F(1, 4)]
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


def _oracle_inputs(prob):
    # step j of the oracle conditions on level j-1, so pass levels 0..J-1
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
            n, levels, targets = _oracle_inputs(prob)
            om, oreps = oracles.run_oracle(n, levels, targets, deltas)
            for st, want in zip(res.states, om):
                assert masses(st) == want
            for rep, (m1, m2, contribution) in zip(res.reports, oreps):
                assert (rep.m1, rep.m2, rep.contribution) == (m1, m2, contribution)


def test_corpus_random_deltas(corpus):
    rng = random.Random(24)
    small = [i for i in corpus if ideal_norm(i.q) <= 200 and i.depth >= 2]
    for inst in rng.sample(small, min(20, len(small))):
        prob = build_problem(inst)
        deltas = [F(rng.randrange(0, 3), 6) for _ in range(inst.depth)]
        res = run(prob, deltas)
        n, levels, targets = _oracle_inputs(prob)
        om, _ = oracles.run_oracle(n, levels, targets, deltas)
        assert masses(res.states[-1]) == om[-1]
        assert res.states[-1].total_mass() == 1


@st.composite
def label_chains(draw):
    """A random refining label chain with targets, a non-uniform initial
    mass constant on level-0 fibers, and deltas in [0, 1/2]."""
    n = draw(st.integers(1, 24))
    depth = draw(st.integers(1, 3))
    levels = [draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))]
    for _ in range(depth):
        split = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        levels.append([3 * l + e for l, e in zip(levels[-1], split)])
    targets = []
    for lv in levels[1:]:
        hit = draw(st.sets(st.sampled_from(sorted(set(lv)))))
        targets.append([l in hit for l in lv])
    weight = {l: draw(st.integers(0, 5)) for l in sorted(set(levels[0]))}
    total = sum(weight[l] for l in levels[0])
    if total == 0:
        weight = dict.fromkeys(weight, 1)
        total = n
    prob = DistortionProblem(
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
    res = run(prob, deltas)
    values, reports, eta, final = oracles.run_per_label(prob, deltas)
    assert [list(s.values) for s in res.states] == values
    assert [(r.m1, r.m2, r.contribution, r.target_mass) for r in res.reports] == reports
    assert res.eta == eta
    assert res.final_target_masses == final


# ------------------------------------------------------------ tampering


def _last_step(prob, deltas):
    states = run(prob, deltas).states
    distortion._verify_step(states[-2], states[-1], len(states) - 1)
    return states[-2], states[-1]


def test_verify_step_catches_tampered_codes(six_system):
    old, new = _last_step(build_problem(six_system), [HALF, HALF])
    assert list(new.values) == [F(0), F(0), F(0), HALF, F(0), HALF]
    codes = new.codes.copy()
    codes[0] = codes[3]  # one label takes another label's code
    with pytest.raises(SoundnessError, match="total mass"):
        distortion._verify_step(old, new._replace(codes=codes), 2)
    codes = new.codes.copy()
    codes[[0, 3]] = codes[[3, 0]]  # total mass kept, fibers 0 mod 2 and 1 mod 2 not
    with pytest.raises(SoundnessError, match="fiber mass"):
        distortion._verify_step(old, new._replace(codes=codes), 2)
    codes = new.codes.copy()
    codes[0] = len(new.table)
    with pytest.raises(SoundnessError, match="outside the value table"):
        distortion._verify_step(old, new._replace(codes=codes), 2)


def _swap_labels(rng, new):
    """Codes of new with two labels of equal size, different parents and
    different values swapped, or None if there are none."""
    norm, j = new.norm, new.level
    parent, sizes, codes = norm.parents[j], norm.sizes[j], new.codes
    l1 = rng.randrange(len(codes))
    other = (parent != parent[l1]) & (sizes == sizes[l1]) & (codes != codes[l1])
    if not other.any():
        return None
    l2 = rng.choice(np.flatnonzero(other).tolist())
    out = codes.copy()
    out[[l1, l2]] = codes[[l2, l1]]
    return out


def _fibers_by_shape(new):
    """Children of each parent, sorted by size, and the parents grouped by
    the sizes of their children."""
    norm, j = new.norm, new.level
    sizes = norm.sizes[j].tolist()
    children = {}
    for l, p in enumerate(norm.parents[j].tolist()):
        children.setdefault(p, []).append(l)
    shapes = {}
    for p, labs in children.items():
        labs.sort(key=sizes.__getitem__)
        shapes.setdefault(tuple(sizes[l] for l in labs), []).append(p)
    return children, [g for g in shapes.values() if len(g) > 1]


def _swap_fibers(rng, old, new, children, groups):
    """Codes of new with the children of two parents of equal child sizes
    and different mass swapped, or None if the draw finds none."""
    if not groups:
        return None
    p1, p2 = rng.sample(rng.choice(groups), 2)
    if old.codes[p1] == old.codes[p2]:
        return None
    out = new.codes.copy()
    out[children[p1]] = new.codes[children[p2]]
    out[children[p2]] = new.codes[children[p1]]
    return out


def test_verify_step_catches_swaps_on_corpus(corpus):
    """Random swaps that keep the total mass but move mass between fibers.
    Parents that share a signature are checked once, so a swap into a
    parent that is not the first of its signature must still be caught."""
    rng = random.Random(26)
    caught = 0
    deep = [i for i in corpus if i.depth >= 2 and ideal_norm(i.q) >= 100]
    for inst in deep[:40]:
        prob = build_problem(inst)
        old, new = _last_step(prob, resolve_delta_policy(inst, ("threshold", 1)))
        children, groups = _fibers_by_shape(new)
        for _ in range(10):
            for codes in (
                _swap_labels(rng, new),
                _swap_fibers(rng, old, new, children, groups),
            ):
                if codes is None:
                    continue
                with pytest.raises(SoundnessError, match="fiber mass"):
                    distortion._verify_step(old, new._replace(codes=codes), new.level)
                caught += 1
    assert caught > 400


def test_verify_step_catches_tampered_table(six_system):
    old, new = _last_step(build_problem(six_system), [HALF, HALF])
    table = list(new.table)
    c = int(new.codes[3])
    table[c] = table[c] * 2
    with pytest.raises(SoundnessError):
        distortion._verify_step(old, new._replace(table=tuple(table)), 2)


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
    monkeypatch.setattr(distortion, "moments", lambda state, j: (F(0), F(0)))
    with pytest.raises(SoundnessError, match="moment bound"):
        run(build_problem(near_cover), [F(0)])


def test_stability_check(monkeypatch, six_system):
    # step 2 moves mass from 3 (outside B_1) to 0 (in B_1); neither is in
    # B_2 = {1, 4}, so only the stability of P(B_1) shows it
    orig = distortion.step

    def bad_step(state, j, delta, checks=True):
        new = orig(state, j, delta, checks=False)
        if j == 2:
            assert list(new.values) == [F(0), F(1, 3)] * 3
            codes = new.codes.copy()
            codes[[0, 3]] = codes[[3, 0]]
            new = new._replace(codes=codes)
        return new

    monkeypatch.setattr(distortion, "step", bad_step)
    with pytest.raises(SoundnessError, match="not stable"):
        run(build_problem(six_system), [HALF, F(0)])


def test_uncovered_floor_check(monkeypatch, near_cover):
    # the union of the targets gets all the mass; each target keeps its own
    orig = distortion.mask_mass

    def bad_mask_mass(state, mask):
        if any(mask is t for t in state.norm.targets):
            return orig(state, mask)
        return F(1)

    monkeypatch.setattr(distortion, "mask_mass", bad_mask_mass)
    with pytest.raises(SoundnessError, match="floor"):
        certify(build_problem(near_cover), [F(0)])


# ------------------------------------------------------------ invariants


def test_step_conserves_parent_fibers(six_system):
    prob = build_problem(six_system)
    states = run(prob, [F(1, 3), F(1, 5)]).states
    lab1 = prob.levels[1]
    before, after = states[1], states[2]
    for lab in set(lab1.tolist()):
        idx = [i for i in range(6) if lab1[i] == lab]
        assert sum(masses(before)[i] for i in idx) == sum(
            masses(after)[i] for i in idx
        )


def test_eta_zero_policy_equals_density_sum(corpus):
    # with all deltas 0 the measure stays uniform, so eta = sum of |B_j|/|Q|
    rng = random.Random(25)
    small = [i for i in corpus if ideal_norm(i.q) <= 300]
    for inst in rng.sample(small, min(30, len(small))):
        prob = build_problem(inst)
        res = run(prob, zero_policy(inst))
        n = ideal_norm(inst.q)
        want = sum(F(int(t.sum()), n) for t in prob.targets)
        assert res.eta == want


def test_moments_and_alpha_api(near_cover):
    prob = build_problem(near_cover)
    st = initial_state(prob)
    assert moments(st, 1) == (F(3, 4), F(9, 16))
    a = alpha(st, 1)
    assert list(a) == [F(3, 4)] * 4  # per point, constant on the one fiber
    st1 = step(st, 1, HALF)
    assert target_mass(st1, 1) == HALF


def test_mask_mass(near_cover):
    prob = build_problem(near_cover)
    st = initial_state(prob)
    assert mask_mass(st, np.array([True, False, False, True])) == HALF
    res = run(prob, [HALF])
    assert mask_mass(res.states[-1], np.array([False, False, False, True])) == HALF


# --------------------------------------------------------- custom problems


def test_custom_problem_nonuniform_initial():
    levels = [
        np.array([0, 0, 1, 1]),
        np.array([0, 1, 2, 3]),
    ]
    targets = [np.array([True, False, False, False])]
    prob = DistortionProblem(
        levels=levels,
        targets=targets,
        initial_mass=[F(1, 8), F(1, 8), F(3, 8), F(3, 8)],
    )
    res = run(prob, [HALF])
    # fiber {0,1} has alpha 1/2: point 0 -> 0, point 1 -> doubled
    assert masses(res.states[-1]) == [F(0), F(1, 4), F(3, 8), F(3, 8)]
    assert res.reports[0].m1 == F(1, 8)
    # m2 = sum of mass * alpha^2 = (1/8+1/8)*(1/4)
    assert res.reports[0].m2 == F(1, 16)


def test_custom_problem_initial_must_respect_fibers():
    levels = [np.array([0, 0, 0, 0]), np.array([0, 1, 0, 1])]
    targets = [np.array([True, False, True, False])]
    prob = DistortionProblem(
        levels=levels,
        targets=targets,
        initial_mass=[F(1, 2), F(1, 6), F(1, 6), F(1, 6)],
    )
    with pytest.raises(InputError):
        run(prob, [F(0)])


def test_custom_problem_initial_must_sum_to_one():
    levels = [np.array([0, 0]), np.array([0, 1])]
    targets = [np.array([True, False])]
    prob = DistortionProblem(
        levels=levels, targets=targets, initial_mass=[F(1, 3), F(1, 3)]
    )
    with pytest.raises(InputError):
        run(prob, [F(0)])


def test_levels_must_refine():
    levels = [np.array([0, 0, 1, 1]), np.array([0, 1, 1, 2])]
    targets = [np.array([True, False, False, False])]
    prob = DistortionProblem(levels=levels, targets=targets)
    with pytest.raises(InputError, match="refine"):
        run(prob, [F(0)])


def test_targets_must_be_measurable():
    levels = [np.array([0, 0, 0, 0]), np.array([0, 0, 1, 1])]
    targets = [np.array([True, False, False, False])]
    prob = DistortionProblem(levels=levels, targets=targets)
    with pytest.raises(InputError, match="fiber"):
        run(prob, [F(0)])


def test_delta_validation(near_cover):
    prob = build_problem(near_cover)
    with pytest.raises(InputError):
        run(prob, [F(0), F(0)])
    with pytest.raises(DeltaOutOfRange):
        run(prob, [F(2, 3)])
    with pytest.raises(DeltaOutOfRange):
        run(prob, [F(-1, 2)])
