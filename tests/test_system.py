import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
from conftest import get_field
from coverdist import (
    CongruenceClass,
    DeltaOutOfRange,
    EnumerationTooLarge,
    IndistinguishableModulus,
    InputError,
    MixedFields,
    UnitModulus,
    build_problem,
    covers,
    ideal_from_gens,
    ideal_mul,
    ideal_norm,
    ideal_principal,
    make_field,
    multiplicity,
    reduce,
    residue_at,
    resolve_delta_policy,
    resolve_policy_for_primes,
    target_mask,
    unit_ideal,
    validate,
)

HALF = Fraction(1, 2)


def brute_cover_oracle(instance):
    """Coverage by per-point Cramer membership, no package machinery."""
    q = instance.q
    n = ideal_norm(q)
    missing = []
    for i in range(n):
        pt = residue_at(i, q)
        hit = False
        for cls in instance.classes:
            m = cls.modulus
            diff = (pt[0] - cls.residue[0], pt[1] - cls.residue[1])
            if oracles.cramer_member(diff, m.u, m.v, m.w):
                hit = True
                break
        if not hit:
            missing.append(pt)
    return missing


# ----------------------------------------------------------------- validate


def test_classic_shape(classic_cover):
    inst = classic_cover
    assert len(inst.classes) == 5
    assert inst.s == 1
    assert ideal_norm(inst.q) == 12
    assert inst.depth == 2
    assert [p.norm for p, _ in inst.primes] == [2, 3]
    assert [e for _, e in inst.primes] == [2, 1]
    assert [ideal_norm(lv) for lv in inst.levels] == [1, 4, 12]


def test_classic_class_data(classic_cover):
    inst = classic_cover
    # moduli 2, 3, 4, 6, 12 -> pmin levels 1, 2, 1, 2, 2
    assert [d.level for d in inst.class_data] == [1, 2, 1, 2, 2]
    assert [d.exponent for d in inst.class_data] == [1, 1, 2, 1, 1]
    for cls, data in zip(inst.classes, inst.class_data):
        back = data.cofactor
        pmin = inst.primes[data.level - 1][0]
        for _ in range(data.exponent):
            back = ideal_mul(back, pmin.ideal)
        assert back == cls.modulus


def test_multiplicity():
    field = make_field("rational")
    two = ideal_from_gens(field, [(2, 0)])
    four = ideal_from_gens(field, [(4, 0)])
    assert multiplicity([two, four]) == 1
    assert multiplicity([two, two, four]) == 2
    raw = [((0, 0), two), ((1, 0), two), ((1, 0), four)]
    assert validate(field, raw).s == 2


def test_validate_reduces_residues():
    field = make_field("rational")
    two = ideal_from_gens(field, [(2, 0)])
    inst = validate(field, [((7, 0), two)])
    assert inst.classes[0].residue == (1, 0)


def test_validate_rejects_empty():
    with pytest.raises(InputError):
        validate(make_field("rational"), [])


def test_validate_rejects_unit_modulus():
    field = make_field("rational")
    two = ideal_from_gens(field, [(2, 0)])
    one = unit_ideal(field)
    with pytest.raises(UnitModulus) as info:
        validate(field, [((0, 0), two), ((0, 0), one)])
    assert info.value.index == 1


def test_validate_rejects_indistinguishable():
    field = get_field(-1)
    five = ideal_principal(field, (5, 0))
    ok = ideal_principal(field, (2, 0))
    with pytest.raises(IndistinguishableModulus) as info:
        validate(field, [((0, 0), ok), ((1, 0), five)])
    assert info.value.index == 1


def test_validate_rejects_mixed_fields():
    f1 = get_field(-1)
    f2 = get_field(-5)
    with pytest.raises(MixedFields):
        validate(f1, [((0, 0), ideal_principal(f2, (2, 0)))])


def test_corpus_structure(corpus):
    for inst in corpus:
        assert inst.depth == len(inst.primes) == len(inst.levels) - 1
        assert ideal_norm(inst.levels[-1]) == ideal_norm(inst.q)
        norms = [p.norm for p, _ in inst.primes]
        assert norms == sorted(norms)
        # levels are nested: each divides the next
        from coverdist import ideal_divides

        for a, b in zip(inst.levels, inst.levels[1:]):
            assert ideal_divides(a, b)
        for cls, data in zip(inst.classes, inst.class_data):
            assert 1 <= data.level <= inst.depth
            assert data.exponent >= 1


# ------------------------------------------------------------------- covers


def test_classic_covers(classic_cover):
    assert covers(classic_cover) == ("covers", None)


def test_near_cover_witness(near_cover):
    verdict, witness = covers(near_cover)
    assert verdict == "uncovered"
    assert witness == (3, 0)


def test_gauss_witness(gauss_cover):
    verdict, witness = covers(gauss_cover)
    assert verdict == "uncovered"
    assert witness == (0, 1)


def test_covers_against_oracle(corpus):
    rng = random.Random(21)
    small = [i for i in corpus if ideal_norm(i.q) <= 150]
    sample = rng.sample(small, min(60, len(small)))
    for inst in sample:
        missing = brute_cover_oracle(inst)
        verdict, witness = covers(inst)
        if missing:
            assert verdict == "uncovered"
            assert witness == missing[0]
        else:
            assert verdict == "covers"


def test_covers_enumeration_cutoff(near_cover):
    with pytest.raises(EnumerationTooLarge):
        covers(near_cover, max_enum=3)


# ------------------------------------------------------------------ targets


def test_classic_targets(classic_cover):
    inst = classic_cover
    b1 = np.flatnonzero(target_mask(inst, 1)).tolist()
    b2 = np.flatnonzero(target_mask(inst, 2)).tolist()
    # Q = (12), point i is i mod 12
    # level 1: 0 mod 2 and 1 mod 4; level 2: 0 mod 3, 5 mod 6, 7 mod 12
    assert b1 == sorted([0, 2, 4, 6, 8, 10, 1, 5, 9])
    assert b2 == sorted([0, 3, 6, 9, 5, 11, 7])
    with pytest.raises(InputError):
        target_mask(inst, 0)
    with pytest.raises(InputError):
        target_mask(inst, 3)


def test_target_mask_oracle(corpus):
    rng = random.Random(22)
    small = [i for i in corpus if ideal_norm(i.q) <= 120]
    for inst in rng.sample(small, min(40, len(small))):
        q = inst.q
        n = ideal_norm(q)
        for j in range(1, inst.depth + 1):
            mask = target_mask(inst, j)
            for i in range(n):
                pt = residue_at(i, q)
                want = False
                for cls, data in zip(inst.classes, inst.class_data):
                    if data.level != j:
                        continue
                    m = cls.modulus
                    diff = (pt[0] - cls.residue[0], pt[1] - cls.residue[1])
                    if oracles.cramer_member(diff, m.u, m.v, m.w):
                        want = True
                        break
                assert bool(mask[i]) == want


# ------------------------------------------------------------------ problem


def test_build_problem_labels(classic_cover):
    inst = classic_cover
    prob = build_problem(inst)
    n = ideal_norm(inst.q)
    assert len(prob.levels) == inst.depth + 1
    assert len(prob.targets) == inst.depth
    # level 0 is the trivial partition; last level separates all points
    assert set(prob.levels[0].tolist()) == {0}
    assert sorted(prob.levels[-1].tolist()) == list(range(n))
    # labels agree with reduce + residue_index
    for j, lv in enumerate(inst.levels):
        for i in range(n):
            pt = residue_at(i, inst.q)
            assert prob.levels[j][i] == oracles.residue_index(reduce(pt, lv), lv)


def test_build_problem_points(gauss_cover):
    # point i of the problem is residue_at(i, q), the i-th of residues(q)
    prob = build_problem(gauss_cover)
    q = gauss_cover.q
    pts = oracles.residues(q)
    assert len(prob.levels[0]) == len(pts)
    assert [residue_at(i, q) for i in range(len(pts))] == pts
    assert [t.sum() for t in prob.targets] == [3]


# ------------------------------------------------------------------- policy


def test_policy_threshold(classic_cover):
    inst = classic_cover
    assert resolve_delta_policy(inst, ("threshold", 2)) == [0, HALF]
    assert resolve_delta_policy(inst, ("threshold", 3)) == [0, 0]
    assert resolve_delta_policy(inst, ("threshold", 1)) == [HALF, HALF]
    # default: threshold s^3 with s = 1
    assert resolve_delta_policy(inst, None) == [HALF, HALF]


def test_policy_explicit(classic_cover):
    inst = classic_cover
    got = resolve_delta_policy(inst, ("explicit", [Fraction(1, 3), 0]))
    assert got == [Fraction(1, 3), 0]
    with pytest.raises(InputError):
        resolve_delta_policy(inst, ("explicit", [0]))
    with pytest.raises(DeltaOutOfRange):
        resolve_delta_policy(inst, ("explicit", [Fraction(2, 3), 0]))
    with pytest.raises(DeltaOutOfRange):
        resolve_delta_policy(inst, ("explicit", [Fraction(-1, 3), 0]))
    with pytest.raises(DeltaOutOfRange):
        resolve_delta_policy(inst, ("threshold", 0))
    with pytest.raises(InputError):
        resolve_delta_policy(inst, ("banana", 1))


def test_policy_for_primes_direct(classic_cover):
    primes = classic_cover.primes
    assert resolve_policy_for_primes(primes, 2, None) == [0, 0]
    assert resolve_policy_for_primes(primes, 1, None) == [HALF, HALF]


# --------------------------------------------------------------- enum guard


def test_build_problem_cutoff(classic_cover):
    with pytest.raises(EnumerationTooLarge):
        build_problem(classic_cover, max_enum=5)
    with pytest.raises(EnumerationTooLarge):
        target_mask(classic_cover, 1, max_enum=5)
