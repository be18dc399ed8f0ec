import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
from conftest import half_policy, zero_policy
from coverdist import (
    DeltaOutOfRange,
    DistortionProblem,
    InputError,
    alpha,
    build_problem,
    certify,
    check_problem,
    ideal_from_gens,
    ideal_norm,
    initial_state,
    make_field,
    mask_mass,
    moments,
    resolve_delta_policy,
    run,
    step,
    target_mass,
    validate,
)

F = Fraction
HALF = F(1, 2)


def masses(state):
    return state.point_masses()


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
    assert cert.witness == (3, 0)


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
    assert cert.witness == (3, 0)


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
    assert cert.witness == (3, 0)


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
    assert cert.witness == (3, 0)


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
    assert cert.uncovered_mass is None and cert.witness is None


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
    assert cert.witness == (0, 1)


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
        points=None,
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


def test_check_problem(near_cover):
    prob = build_problem(near_cover)
    assert check_problem(prob) is True
