import json
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import FIELD_KEYS, get_field
from coverdist import (
    CongruenceClass,
    DeltaOutOfRange,
    EnumerationTooLarge,
    IndistinguishableModulus,
    InputError,
    MixedFields,
    SoundnessError,
    UnitModulus,
    build_problem,
    certify,
    covers,
    factor_ideal,
    ideal_from_gens,
    ideal_mul,
    ideal_norm,
    ideal_principal,
    in_class,
    make_field,
    multiplicity,
    primes_up_to_norm,
    reduce,
    residue_at,
    resolve_delta_policy,
    resolve_policy_for_primes,
    unit_ideal,
    validate,
)
from coverdist import kernels
from coverdist.cli import main

HALF = Fraction(1, 2)
DATA = Path(__file__).parent / "data"


def _point_mask(inst, j):
    """B_j over O/Q, read from the target bits of build_problem's level-j
    cells: each residue takes the bit of its residue mod Q_j."""
    q, qj = inst.q, inst.levels[j]
    bits = build_problem(inst).cells[j - 1] & 1
    return bits[kernels.level_labels(q.u, q.w, qj.u, qj.v, qj.w)]


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
    assert [len(c) for c in build_problem(inst).cells] == [4, 12]  # |O/Q_j|
    b1 = np.flatnonzero(_point_mask(inst, 1)).tolist()
    b2 = np.flatnonzero(_point_mask(inst, 2)).tolist()
    # Q = (12), point i is i mod 12
    # level 1: 0 mod 2 and 1 mod 4; level 2: 0 mod 3, 5 mod 6, 7 mod 12
    assert b1 == sorted([0, 2, 4, 6, 8, 10, 1, 5, 9])
    assert b2 == sorted([0, 3, 6, 9, 5, 11, 7])


def test_target_mask_oracle(corpus):
    rng = random.Random(22)
    small = [i for i in corpus if ideal_norm(i.q) <= 120]
    for inst in rng.sample(small, min(40, len(small))):
        q = inst.q
        n = ideal_norm(q)
        for j in range(1, inst.depth + 1):
            mask = _point_mask(inst, j)
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
    # level-j label l is the residue residue_at(l, Q_j): its parent, half
    # its cell, is that residue reduced mod Q_{j-1}, and it holds n/|O/Q_j|
    # points
    inst = classic_cover
    prob = build_problem(inst)
    n = ideal_norm(inst.q)
    assert len(prob.sizes) == len(prob.cells) + 1 == inst.depth + 1
    assert prob.sizes[0] == n and type(prob.sizes[0]) is int
    for j in range(1, inst.depth + 1):
        lo, hi = inst.levels[j - 1], inst.levels[j]
        count = ideal_norm(hi)
        assert prob.sizes[j] == n // count and type(prob.sizes[j]) is int
        assert len(prob.cells[j - 1]) == count
        for l in range(count):
            want = oracles.residue_index(reduce(residue_at(l, hi), lo), lo)
            assert prob.cells[j - 1][l] >> 1 == want


def test_build_problem_points(gauss_cover):
    # point i of the problem is residue_at(i, q), the i-th of residues(q),
    # and the level-J label of point i
    prob = build_problem(gauss_cover)
    q = gauss_cover.q
    pts = oracles.residues(q)
    assert prob.sizes[-1] == 1 and len(prob.cells[-1]) == len(pts)
    assert [residue_at(i, q) for i in range(len(pts))] == pts
    assert [np.count_nonzero(c & 1) for c in prob.cells] == [3]


def _split_pair_instance(key):
    """Classes whose moduli hold a smallest prime, and two distinct primes
    of one norm, one of them squared."""
    field = get_field(key)
    pool = primes_up_to_norm(field, 60)
    p1, p2 = next((a, b) for a, b in zip(pool, pool[1:]) if a.norm == b.norm)
    small = pool[0].ideal
    raw = [
        ((0, 0), small),
        ((1, 0), ideal_mul(p1.ideal, small)),
        ((0, 1), ideal_mul(p2.ideal, p2.ideal)),
    ]
    return validate(field, raw)


def test_build_problem_matches_point_oracle(corpus):
    """The label-space problem equals what oracles.to_labels derives from
    the n-point label arrays and target masks of the oracle builder, on
    every field, with prime powers and split primes of equal norm among
    them. Point i's level-j cell is 2 * (its level-(j-1) label) + [i in B_j]."""
    extra = [_split_pair_instance(k) for k in FIELD_KEYS if k != "rational"]
    seen = set()
    for inst in corpus + extra:
        got = build_problem(inst)
        pts = oracles.build_problem_points(inst)
        want, points = oracles.to_labels(pts)
        for j, (a, b) in enumerate(zip(got.cells, want.cells, strict=True), start=1):
            assert a.dtype == kernels.index_dtype(ideal_norm(inst.q)) and np.array_equal(a, b)
            assert np.array_equal(a[pts.levels[j]], 2 * pts.levels[j - 1] + pts.targets[j - 1])
        assert got.sizes == want.sizes and {type(s) for s in got.sizes} == {int}
        assert np.array_equal(points, np.arange(ideal_norm(inst.q)))
        assert np.array_equal(got.initial_codes, want.initial_codes)
        assert got.initial_table == want.initial_table
        norms = [p.norm for p, _ in inst.primes]
        if max(e for _, e in inst.primes) > 1:
            seen.add((inst.field.label(), "power"))
        if len(set(norms)) < len(norms):
            seen.add((inst.field.label(), "split"))
    labels = [get_field(k).label() for k in FIELD_KEYS]
    assert {(f, "power") for f in labels} <= seen
    assert {(f, "split") for f in labels if f != "rational"} <= seen


def test_build_problem_refuses_a_wrong_level_map(monkeypatch, capsys, classic_cover):
    """build_problem refuses a level map with a label out of range or
    without a parent; run's fiber-size check refuses one that gives a
    parent every child. The CLI exits 4 on each."""
    orig = kernels.level_labels
    deltas = resolve_delta_policy(classic_cover, None)
    tampered = [
        (lambda labels: labels + 1, "do not map O/Q_"),  # a label out of range
        (lambda labels: np.zeros_like(labels), "a fiber holds"),  # one parent takes every child
        (lambda labels: labels[:-1], "do not map O/Q_"),  # a level-j label without a parent
    ]
    for tamper, message in tampered:
        monkeypatch.setattr(kernels, "level_labels", lambda *a: tamper(orig(*a)))
        with pytest.raises(SoundnessError, match=message):
            certify(build_problem(classic_cover), deltas)
        rc = main(["certify", "--input", str(DATA / "classic.json")])
        out, err = capsys.readouterr()
        assert rc == 4 and out == ""
        assert json.loads(err)["error"] == "SoundnessError", err


def test_build_problem_memory():
    """0 mod p for p = 2..17: n = 510510 points at depth 7. Only level J
    has n labels, held as int32 and built without int64 temporaries, so
    the build peaks below 8 MB (4.2 MB measured; 12.5 MB with int64
    labels), far below the J+1 int64 label arrays of n entries each that
    the n-point form needs."""
    field = make_field("rational")
    primes = (2, 3, 5, 7, 11, 13, 17)
    inst = validate(field, [((0, 0), ideal_from_gens(field, [(p, 0)])) for p in primes])
    n = ideal_norm(inst.q)
    assert n == 510510 and inst.depth == 7
    tracemalloc.start()
    try:
        prob = build_problem(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 10**6, peak
    for j in range(1, inst.depth):
        assert len(prob.cells[j - 1]) < n, j
    assert len(prob.cells[-1]) == n
    # every level's point count is one int, equal to the oracle's
    want, _ = oracles.to_labels(oracles.build_problem_points(inst))
    assert prob.sizes == want.sizes == [n // ideal_norm(lv) for lv in inst.levels]


def test_level_labels_match_hnf_reduction(corpus):
    """level_labels gives each residue of O/Q its index mod Q_j, as the
    oracle's HNF reduction does: on every level of the corpus, and on
    Q = (3)(2+i)(1+i)^2 over Z[i] with the level (3)(1+i), both with w > 1."""
    field = make_field("quadratic", -1)
    three, two_i, one_i = (ideal_from_gens(field, [g]) for g in ((3, 0), (2, 1), (1, 1)))
    gauss_q = ideal_mul(ideal_mul(three, two_i), ideal_mul(one_i, one_i))
    cases = [(inst.q, lv) for inst in corpus for lv in inst.levels]
    cases.append((gauss_q, ideal_mul(three, one_i)))
    assert (gauss_q.w, cases[-1][1].w) == (6, 3)
    for q, lv in cases:
        pts = np.array(oracles.residues(q), dtype=np.int64)
        got = kernels.level_labels(q.u, q.w, lv.u, lv.v, lv.w)
        assert got.dtype == np.int32
        assert np.array_equal(got, oracles.hnf_labels(pts, lv.u, lv.v, lv.w))


def test_level_labels_memory():
    """Over Q (w = 1) at n = 2^22, level_labels builds its labels in place
    in one int32 array of n entries, so it peaks below 1.25 * 4n bytes. An
    arange row minus a shift column would hold two such arrays at once."""
    n = 2**22
    tracemalloc.start()
    try:
        labels = kernels.level_labels(n, 1, 2**11, 0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 4 * n, peak
    assert np.array_equal(labels, np.arange(n) % 2**11)


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


@pytest.mark.parametrize("key", FIELD_KEYS)
def test_mark_class_in_blocks_matches_brute_force(monkeypatch, key):
    # with blocks of 8 entries, a class whose nm = uq/ui passes the block is
    # marked one block of m at a time, and over a quadratic field (Q = (30),
    # with nk = wq/wi rows) one row of k at a time: for every divisor I of
    # Q the mask holds exactly the residues of O/Q in the class
    field = get_field(key)
    q = ideal_principal(field, (30, 0))
    divisors = [unit_ideal(field)]
    for prime, e in factor_ideal(q):
        power = divisors
        for _ in range(e):
            power = [ideal_mul(d, prime.ideal) for d in power]
            divisors = divisors + power
    monkeypatch.setattr(kernels, "MARK_BLOCK", 8)
    points = oracles.residues(q)
    rng = random.Random(41)
    blocks = rows = 0  # classes whose m loop, and also k loop, runs more than once
    for ideal in divisors:
        nk, nm = q.w // ideal.w, q.u // ideal.u
        blocks += nm > 8
        rows += nm > 8 and nk > 1
        for r in rng.sample(range(ideal_norm(ideal)), min(3, ideal_norm(ideal))):
            a = residue_at(r, ideal)
            mask = np.zeros(len(points), dtype=np.bool_)
            kernels.mark_class(mask, a, ideal, q)
            assert mask.tolist() == [in_class(x, a, ideal) for x in points], (ideal, a)
    assert blocks > 0 and (rows == 0 if key == "rational" else rows > 0)


def test_mark_class_past_one_block():
    # nm = MARK_BLOCK + 1 columns: a full block, then one of width 1
    field = make_field("rational")
    n = 2 * (kernels.MARK_BLOCK + 1)
    q, two = ideal_principal(field, (n, 0)), ideal_principal(field, (2, 0))
    for a in (0, 1):
        mask = np.zeros(n, dtype=np.bool_)
        kernels.mark_class(mask, (a, 0), two, q)
        assert mask[a::2].all() and int(mask.sum()) == n // 2


def test_covers_memory_is_the_mask_and_a_few_blocks():
    # 2^23 residues, uncovered only at the last: 0 mod 2, 1 mod 4, 3 mod 8,
    # ..., 2^22 - 1 mod 2^23. The class mod 2 alone has 2^22 points, four
    # blocks; beyond its n-byte mask, covers holds two int64 blocks at once
    # (the scaled arange and its sum with the row base), plus 1 MB of slack
    field = make_field("rational")
    n = 2**23
    inst = validate(
        field, [((2**k - 1, 0), ideal_principal(field, (2 ** (k + 1), 0))) for k in range(23)]
    )
    tracemalloc.start()
    try:
        assert covers(inst) == ("uncovered", (n - 1, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n + 2 * 8 * kernels.MARK_BLOCK + 2**20, peak
