import random
from math import gcd

import numpy as np
import pytest

import oracles
from conftest import FIELD_KEYS, get_field
from coverdist import (
    InputError,
    NonSquarefree,
    NormTooLargeToFactor,
    PMinOnIndistinguishable,
    SoundnessError,
    UnitIdeal,
    ZeroIdeal,
    check_hnf,
    elem_conj,
    elem_mul,
    elem_norm,
    factor_ideal,
    ideal_divides,
    ideal_from_gens,
    ideal_intersect,
    ideal_mul,
    ideal_norm,
    ideal_principal,
    in_class,
    in_ideal,
    is_distinguishable,
    make_field,
    p_min,
    prime_norms_up_to,
    primes_above,
    primes_up_to_norm,
    reduce,
    residue_at,
    unit_ideal,
)
from coverdist.kernels import kron_values, sieve

QF = [k for k in FIELD_KEYS if k != "rational"]


def random_element(rng, bound=40):
    return (rng.randrange(-bound, bound + 1), rng.randrange(-bound, bound + 1))


def random_ideal(rng, field, tries=20):
    for _ in range(tries):
        gens = [random_element(rng) for _ in range(rng.randrange(1, 4))]
        if any(g != (0, 0) for g in gens):
            return ideal_from_gens(field, gens), gens
    raise AssertionError("no nonzero generators drawn")


# ------------------------------------------------------------------- fields


def test_field_data():
    gauss = make_field("quadratic", -1)
    assert (gauss.discriminant, gauss.trace, gauss.nm) == (-4, 0, 1)
    eis = make_field("quadratic", -3)
    assert (eis.discriminant, eis.trace, eis.nm) == (-3, 1, 1)
    real = make_field("quadratic", 5)
    assert (real.discriminant, real.trace, real.nm) == (5, 1, -1)
    f2 = make_field("quadratic", 2)
    assert (f2.discriminant, f2.trace, f2.nm) == (8, 0, -2)


def test_field_rejects():
    with pytest.raises(InputError):
        make_field("quadratic", 12)  # not squarefree
    with pytest.raises(InputError):
        make_field("quadratic", 1)
    with pytest.raises(InputError):
        make_field("quadratic", 0)
    with pytest.raises(InputError):
        make_field("cubic")
    with pytest.raises(NonSquarefree):
        make_field("quadratic", 3 * (2**61 - 1) ** 2)
    # d = p*q with two 25-digit primes: refused instead of factored at length
    with pytest.raises(NormTooLargeToFactor):
        make_field("quadratic", 3000000000000000000000028000000000000000000000049)


def test_elem_mul_against_oracle():
    rng = random.Random(3)
    for key in QF:
        field = get_field(key)
        for _ in range(200):
            x, y = random_element(rng), random_element(rng)
            assert elem_mul(field, x, y) == oracles.elem_mul_oracle(
                field.trace, field.nm, x, y
            )


def test_norm_is_conj_product():
    rng = random.Random(4)
    for key in QF:
        field = get_field(key)
        for _ in range(100):
            x = random_element(rng)
            prod = elem_mul(field, x, elem_conj(field, x))
            assert prod == (elem_norm(field, x), 0)


def test_norm_multiplicative():
    rng = random.Random(5)
    for key in QF:
        field = get_field(key)
        for _ in range(100):
            x, y = random_element(rng), random_element(rng)
            assert elem_norm(field, elem_mul(field, x, y)) == elem_norm(
                field, x
            ) * elem_norm(field, y)


# ---------------------------------------------------------------------- HNF


def test_hnf_matches_sympy():
    rng = random.Random(6)
    for key in QF:
        field = get_field(key)
        for _ in range(60):
            ideal, gens = random_ideal(rng, field)
            vecs = []
            for g in gens:
                vecs.append(g)
                vecs.append(oracles.elem_mul_oracle(field.trace, field.nm, g, (0, 1)))
            vecs = [v for v in vecs if v != (0, 0)]
            u, v, w = oracles.sympy_hnf(vecs)
            assert (ideal.u, ideal.v, ideal.w) == (u, v, w)


def test_hnf_invariants():
    rng = random.Random(7)
    for key in QF:
        field = get_field(key)
        for _ in range(80):
            ideal, _ = random_ideal(rng, field)
            assert ideal.u > 0 and ideal.w > 0
            assert 0 <= ideal.v < ideal.u
            assert ideal.u % ideal.w == 0 and ideal.v % ideal.w == 0
            nm = elem_norm(field, (ideal.v, ideal.w))
            assert abs(nm) % (ideal.u * ideal.w) == 0


def test_check_hnf():
    field = get_field(-1)
    assert check_hnf(field, 2, 1, 1) == ideal_from_gens(field, [(1, 1)])
    for bad in [(0, 0, 1), (2, 2, 1), (2, 1, 2), (4, 1, 2), (2, -1, 1)]:
        with pytest.raises(InputError):
            check_hnf(field, *bad)
    # (2,0,1) fails the norm divisibility over Z[i]: norm(0 + i) = 1
    with pytest.raises(InputError):
        check_hnf(field, 2, 0, 1)


def test_zero_ideal():
    field = get_field(-1)
    with pytest.raises(ZeroIdeal):
        ideal_from_gens(field, [(0, 0)])
    rat = make_field("rational")
    with pytest.raises(ZeroIdeal):
        ideal_from_gens(rat, [(0, 0)])


def test_norm_against_lattice_oracle():
    rng = random.Random(8)
    for key in QF:
        field = get_field(key)
        checked = 0
        while checked < 12:
            ideal, _ = random_ideal(rng, field)
            n = ideal_norm(ideal)
            if n > 400:
                continue
            assert n == oracles.lattice_index(ideal.u, ideal.v, ideal.w, n)
            checked += 1


def test_principal_norm():
    rng = random.Random(9)
    for key in QF:
        field = get_field(key)
        for _ in range(60):
            x = random_element(rng, 20)
            if x == (0, 0):
                continue
            assert ideal_norm(ideal_principal(field, x)) == abs(elem_norm(field, x))


# --------------------------------------------------------------- membership


def test_membership_against_cramer():
    rng = random.Random(10)
    for key in QF:
        field = get_field(key)
        for _ in range(40):
            ideal, _ = random_ideal(rng, field)
            for _ in range(25):
                x = random_element(rng, 60)
                assert in_ideal(x, ideal) == oracles.cramer_member(
                    x, ideal.u, ideal.v, ideal.w
                )


def test_reduce_properties():
    rng = random.Random(11)
    for key in QF:
        field = get_field(key)
        for _ in range(40):
            ideal, _ = random_ideal(rng, field)
            for _ in range(10):
                x = random_element(rng, 80)
                r = reduce(x, ideal)
                assert 0 <= r[0] < ideal.u and 0 <= r[1] < ideal.w
                assert in_class(x, r, ideal)
                assert reduce(r, ideal) == r
                idx = oracles.residue_index(r, ideal)
                assert 0 <= idx < ideal_norm(ideal)
                assert residue_at(idx, ideal) == r


def test_residues_enumeration():
    field = get_field(-5)
    ideal = ideal_principal(field, (3, 0))
    rs = oracles.residues(ideal)
    assert len(rs) == ideal_norm(ideal) == 9
    assert len(set(rs)) == 9
    for i, r in enumerate(rs):
        assert oracles.residue_index(r, ideal) == i
    # no two distinct representatives are congruent
    for a in rs:
        for b in rs:
            if a != b:
                assert not in_class(a, b, ideal)


# --------------------------------------------------------- mul / intersect


def test_mul_norm_multiplicative():
    rng = random.Random(12)
    for key in QF:
        field = get_field(key)
        for _ in range(50):
            a, _ = random_ideal(rng, field)
            b, _ = random_ideal(rng, field)
            p = ideal_mul(a, b)
            assert ideal_norm(p) == ideal_norm(a) * ideal_norm(b)
            assert ideal_divides(a, p) and ideal_divides(b, p)


def test_mul_unit_identity():
    rng = random.Random(13)
    for key in QF:
        field = get_field(key)
        one = unit_ideal(field)
        for _ in range(20):
            a, _ = random_ideal(rng, field)
            assert ideal_mul(a, one) == a
            assert ideal_mul(one, a) == a


def test_intersect_is_exact_meet():
    rng = random.Random(14)
    for key in QF:
        field = get_field(key)
        done = 0
        while done < 8:
            a, _ = random_ideal(rng, field)
            b, _ = random_ideal(rng, field)
            k = ideal_intersect(a, b)
            n = ideal_norm(k)
            if n > 120:
                continue
            # n*Z^2 lies inside all three lattices, so the box [0,n)^2 is
            # exhaustive for membership
            for x in range(n):
                for y in range(n):
                    both = oracles.cramer_member((x, y), a.u, a.v, a.w) and (
                        oracles.cramer_member((x, y), b.u, b.v, b.w)
                    )
                    assert in_ideal((x, y), k) == both
            assert ideal_divides(k, ideal_mul(a, b))
            done += 1


def test_intersect_random_points():
    rng = random.Random(15)
    for key in QF:
        field = get_field(key)
        for _ in range(30):
            a, _ = random_ideal(rng, field)
            b, _ = random_ideal(rng, field)
            k = ideal_intersect(a, b)
            for _ in range(40):
                x = random_element(rng, 200)
                assert in_ideal(x, k) == (in_ideal(x, a) and in_ideal(x, b))


def test_intersect_rational():
    field = make_field("rational")
    a = ideal_from_gens(field, [(6, 0)])
    b = ideal_from_gens(field, [(10, 0)])
    assert ideal_intersect(a, b).u == 30
    assert ideal_mul(a, b).u == 60


# ----------------------------------------------------------------- splitting


def test_splitting_against_root_counts():
    from sympy import primerange

    for key in QF:
        field = get_field(key)
        for p in primerange(2, 200):
            ps = primes_above(field, p)
            n_roots = oracles.root_count(field.trace, field.nm, p)
            kinds = sorted(q.splitting for q in ps)
            if field.discriminant % p == 0:
                assert kinds == ["ramified"]
                assert len(ps) == 1 and ps[0].norm == p
            elif n_roots == 2:
                assert kinds == ["split", "split"]
                assert all(q.norm == p for q in ps)
                assert ps[0].ideal != ps[1].ideal
            else:
                assert n_roots == 0
                assert kinds == ["inert"]
                assert ps[0].norm == p * p
            # every prime above p contains p
            for q in ps:
                assert in_ideal((p, 0), q.ideal)
                assert ideal_norm(q.ideal) == q.norm
            # product over primes above p (with ramification) is (p)
            prod = unit_ideal(field)
            for q in ps:
                e = 2 if q.splitting == "ramified" else 1
                for _ in range(e):
                    prod = ideal_mul(prod, q.ideal)
            assert prod == ideal_principal(field, (p, 0))


def test_split_primes_are_conjugate():
    field = get_field(-1)
    ps = primes_above(field, 5)
    assert len(ps) == 2
    # conjugation swaps them: conj of (v + w*om) lies in the other
    x = (ps[0].ideal.v, ps[0].ideal.w)
    assert in_ideal(elem_conj(field, x), ps[1].ideal)


def test_gauss_pinned_primes():
    field = get_field(-1)
    two = primes_above(field, 2)
    assert [(q.ideal.u, q.ideal.v, q.ideal.w, q.splitting) for q in two] == [
        (2, 1, 1, "ramified")
    ]
    three = primes_above(field, 3)
    assert [(q.ideal.u, q.ideal.v, q.ideal.w, q.splitting) for q in three] == [
        (3, 0, 3, "inert")
    ]
    five = primes_above(field, 5)
    assert sorted((q.ideal.u, q.ideal.v, q.ideal.w) for q in five) == [
        (5, 2, 1),
        (5, 3, 1),
    ]


def test_rational_primes():
    field = make_field("rational")
    ps = primes_above(field, 7)
    assert len(ps) == 1 and ps[0].norm == 7 and ps[0].splitting == "rational"
    assert ps[0].ideal == ideal_from_gens(field, [(7, 0)])


def test_primes_above_rejects_composite():
    field = get_field(-1)
    with pytest.raises(InputError):
        primes_above(field, 6)
    with pytest.raises(InputError):
        primes_above(field, 1)


# ----------------------------------------------------------------- factoring


def test_factor_round_trip_random():
    rng = random.Random(16)
    for key in QF:
        field = get_field(key)
        for _ in range(40):
            ideal, _ = random_ideal(rng, field)
            if ideal_norm(ideal) == 1:
                continue
            factors = factor_ideal(ideal)
            back = unit_ideal(field)
            norm = 1
            for prime, e in factors:
                for _ in range(e):
                    back = ideal_mul(back, prime.ideal)
                norm *= prime.norm**e
            assert back == ideal
            assert norm == ideal_norm(ideal)


def test_factor_gauss_twelve():
    field = get_field(-1)
    twelve = ideal_principal(field, (12, 0))
    factors = factor_ideal(twelve)
    flat = [(q.ideal.u, q.ideal.v, q.ideal.w, e) for q, e in factors]
    assert flat == [(2, 1, 1, 4), (3, 0, 3, 1)]


def test_factor_unit():
    field = get_field(-1)
    assert factor_ideal(unit_ideal(field)) == []


def test_eisenstein_unit_omega():
    field = get_field(-3)
    assert ideal_principal(field, (0, 1)) == unit_ideal(field)


# --------------------------------------------------------------------- pmin


def test_pmin_rational():
    field = make_field("rational")
    twelve = ideal_from_gens(field, [(12, 0)])
    assert is_distinguishable(twelve)
    assert p_min(twelve).norm == 3
    six = ideal_from_gens(field, [(6, 0)])
    assert p_min(six).norm == 3
    eight = ideal_from_gens(field, [(8, 0)])
    assert p_min(eight).norm == 2


def test_pmin_indistinguishable():
    field = get_field(-1)
    five = ideal_principal(field, (5, 0))  # two split primes of norm 5
    assert not is_distinguishable(five)
    with pytest.raises(PMinOnIndistinguishable):
        p_min(five)
    # multiplying in a smaller prime does not help
    ten = ideal_principal(field, (10, 0))
    assert not is_distinguishable(ten)
    # (5)*p = p^2 * conj(p): still two distinct primes of equal norm 5
    p = primes_above(field, 5)[0]
    fifty = ideal_mul(five, p.ideal)
    assert not is_distinguishable(fifty)
    # a single split prime alone is distinguishable
    assert is_distinguishable(p.ideal)
    assert p_min(p.ideal).ideal == p.ideal


def test_pmin_unit():
    field = get_field(-1)
    with pytest.raises(UnitIdeal):
        p_min(unit_ideal(field))


def test_pmin_quadratic():
    field = get_field(-1)
    # (2)^2 * (3): primes norm 2 (ram) and 9 (inert) -> pmin is (3)
    ideal = ideal_principal(field, (12, 0))
    assert p_min(ideal).norm == 9
    assert is_distinguishable(ideal)


# ------------------------------------------------------------- enumerations


def test_primes_up_to_norm():
    for key in FIELD_KEYS:
        field = get_field(key)
        ps = primes_up_to_norm(field, 200)
        norms = [q.norm for q in ps]
        assert norms == sorted(norms)
        assert all(n <= 200 for n in norms)
        assert len(set((q.ideal, q.norm) for q in ps)) == len(ps)
        # spot containment: every prime under 200 contributes
        from sympy import primerange

        for p in primerange(2, 15):
            above = [q for q in ps if q.under == p and q.norm <= 200]
            assert len(above) == len(
                [q for q in primes_above(field, p) if q.norm <= 200]
            )


def test_prime_norms_multiset():
    for key in FIELD_KEYS:
        field = get_field(key)
        ps = primes_up_to_norm(field, 500)
        norms_list = sorted(q.norm for q in ps)
        assert norms_list == sorted(prime_norms_up_to(field, 500).tolist())


def test_primes_up_to_norm_small():
    field = get_field(-1)
    assert primes_up_to_norm(field, 1) == []
    norms = [q.norm for q in primes_up_to_norm(field, 2)]
    assert norms == [2]


def test_factor_rejects_huge_composite_norm():
    from coverdist import NormTooLargeToFactor

    field = make_field("rational")
    # 27-digit semiprime with factors far apart (immune to the Fermat probe)
    n = 100000000003 * 1000000000000037
    ideal = ideal_from_gens(field, [(n, 0)])
    with pytest.raises(NormTooLargeToFactor):
        factor_ideal(ideal)


def test_kron_values_against_oracle():
    ps = np.flatnonzero(sieve(2 * 10**5)).astype(np.int64)
    fields = [get_field(key) for key in QF]
    # discriminants wider than int64 go through the digit-wise reduction
    fields += [make_field("quadratic", -(2**61 - 1)), make_field("quadratic", 2**89 - 1)]
    for field in fields:
        disc = field.discriminant
        want = [oracles.kronecker(disc, p) for p in ps.tolist()]
        assert kron_values(disc, ps).tolist() == want


def test_factor_inert_prime_beyond_kernel():
    # 2^61 - 1 = 3 mod 4 is inert in Z[i] and too large for kron_values
    field = get_field(-1)
    p = 2**61 - 1
    factors = factor_ideal(ideal_from_gens(field, [(p, 0)]))
    assert len(factors) == 1 and factors[0][1] == 1
    prime = factors[0][0]
    assert prime.splitting == "inert" and prime.norm == p * p


def test_factor_large_prime_ok():
    field = make_field("rational")
    p = 2**89 - 1  # Mersenne prime
    ideal = ideal_from_gens(field, [(p, 0)])
    factors = factor_ideal(ideal)
    assert len(factors) == 1 and factors[0][1] == 1
    assert factors[0][0].norm == p
