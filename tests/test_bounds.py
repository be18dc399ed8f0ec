import random
from fractions import Fraction
from math import isqrt

import mpmath
import pytest

import oracles
from conftest import get_field, half_policy, zero_policy
from coverdist import (
    IdealNotDividingQ,
    UnitModulus,
    IndistinguishableModulus,
    InputError,
    MixedFields,
    XNotPerfectSquare,
    YTooSmall,
    alpha,
    alpha_upper_bound,
    build_problem,
    certify_moduli,
    class_measure_bound,
    effective_bound,
    eta1_major,
    eta2_major,
    factor_ideal,
    ideal_from_gens,
    ideal_mul,
    ideal_norm,
    ideal_principal,
    initial_state,
    m1_bound,
    m2_bound,
    make_field,
    mertens_sum_bound,
    prime_norms_up_to,
    rankin_W,
    resolve_delta_policy,
    run,
    step,
    unit_ideal,
    validate,
    verify_certificate,
)
from coverdist.rounding import ln_bounds, ln_hi

F = Fraction
HALF = F(1, 2)

mpmath.mp.dps = 40


# -------------------------------------------------------- per-level bounds


def _run_states(instance, deltas):
    prob = build_problem(instance)
    res = run(prob, deltas)
    return prob, res


def test_alpha_bound_dominates(corpus):
    rng = random.Random(31)
    small = [i for i in corpus if ideal_norm(i.q) <= 150]
    for inst in rng.sample(small, min(30, len(small))):
        prob = build_problem(inst)
        st = initial_state(prob)
        points = oracles.residues(inst.q)
        for j in range(1, inst.depth + 1):
            true = alpha(st, j)
            for x, a in zip(points, true):
                assert a <= alpha_upper_bound(inst, x, j)
            st = step(st, j, F(0))


def test_alpha_bound_level_range(near_cover):
    with pytest.raises(InputError):
        alpha_upper_bound(near_cover, (0, 0), 0)
    with pytest.raises(InputError):
        alpha_upper_bound(near_cover, (0, 0), 2)


def test_alpha_bound_near_cover(near_cover):
    # classes 0 mod (2) [exp 1, cofactor (1)] and 1 mod (4) [exp 2, cofactor (1)]
    assert alpha_upper_bound(near_cover, (0, 0), 1) == HALF + F(1, 4)
    assert alpha_upper_bound(near_cover, (1, 0), 1) == HALF + F(1, 4)


def test_class_measure_bound_dominates(corpus):
    rng = random.Random(32)
    small = [i for i in corpus if ideal_norm(i.q) <= 100]
    for inst in rng.sample(small, min(12, len(small))):
        for policy in [zero_policy(inst), half_policy(inst)]:
            prob, res = _run_states(inst, policy)
            # every divisor of Q built from its prime factorization
            divisors = [unit_ideal(inst.field)]
            for prime, e in inst.primes:
                divisors = [
                    _pow_mul(d, prime.ideal, k)
                    for d in divisors
                    for k in range(e + 1)
                ]
            for ideal in divisors:
                if ideal_norm(ideal) > 40:
                    continue
                for a in oracles.residues(ideal):
                    for j in range(inst.depth + 1):
                        exact, bound = class_measure_bound(inst, res, a, ideal, j)
                        assert exact <= bound


def _pow_mul(base, prime_ideal, k):
    out = base
    for _ in range(k):
        out = ideal_mul(out, prime_ideal)
    return out


def test_class_measure_bound_values():
    field = make_field("rational")
    inst = validate(
        field,
        [
            ((0, 0), ideal_from_gens(field, [(2, 0)])),
            ((1, 0), ideal_from_gens(field, [(3, 0)])),
        ],
    )
    prob, res = _run_states(inst, [HALF, HALF])
    two = ideal_from_gens(field, [(2, 0)])
    # P_1(0 + (2)) = 0 after the first step; bound = (1/2)/(1-1/2) = 1
    exact, bound = class_measure_bound(inst, res, (0, 0), two, 1)
    assert exact == 0 and bound == 1
    # an ideal coprime to the first prime gets no inflation factor
    three = ideal_from_gens(field, [(3, 0)])
    exact, bound = class_measure_bound(inst, res, (0, 0), three, 1)
    assert bound == F(1, 3)
    assert exact == F(1, 3)  # distortion mod 2 is uniform on 0 mod 3


def test_class_measure_bound_errors(near_cover):
    prob, res = _run_states(near_cover, [F(0)])
    field = near_cover.field
    seven = ideal_from_gens(field, [(7, 0)])
    with pytest.raises(IdealNotDividingQ):
        class_measure_bound(near_cover, res, (0, 0), seven, 1)
    other = ideal_principal(get_field(-1), (2, 0))
    with pytest.raises(MixedFields):
        class_measure_bound(near_cover, res, (0, 0), other, 1)
    with pytest.raises(InputError):
        class_measure_bound(
            near_cover, res, (0, 0), ideal_from_gens(field, [(2, 0)]), 5
        )


def test_m1_bound_dominates_uniform(corpus):
    rng = random.Random(33)
    small = [i for i in corpus if ideal_norm(i.q) <= 400]
    for inst in rng.sample(small, min(40, len(small))):
        prob, res = _run_states(inst, zero_policy(inst))
        for rep in res.reports:
            assert rep.m1 <= m1_bound(inst, rep.j)


def test_m2_bound_dominates_any_policy(corpus):
    rng = random.Random(34)
    small = [i for i in corpus if ideal_norm(i.q) <= 400]
    for inst in rng.sample(small, min(25, len(small))):
        for policy in [zero_policy(inst), half_policy(inst), None]:
            deltas = (
                resolve_delta_policy(inst, None) if policy is None else policy
            )
            prob, res = _run_states(inst, deltas)
            for rep in res.reports:
                assert rep.m2 <= m2_bound(inst, rep.j)


def test_m1_m2_values():
    field = make_field("rational")
    inst_eleven = validate(
        field,
        [
            ((0, 0), ideal_from_gens(field, [(11, 0)])),
            ((1, 0), ideal_from_gens(field, [(13, 0)])),
        ],
    )
    assert m1_bound(inst_eleven, 1) == F(7, 16)
    assert m1_bound(inst_eleven, 2) == F(77, 192)
    assert m2_bound(inst_eleven, 1) == F(1, 100)
    # worst-case history factor for q=11: 1 + 64/100
    assert m2_bound(inst_eleven, 2) == F(1, 144) * (1 + F(64, 100))
    # the same norms with (11) used twice: s = 2 scales the bound by s^2
    inst_twice = validate(
        field,
        [
            ((0, 0), ideal_from_gens(field, [(11, 0)])),
            ((1, 0), ideal_from_gens(field, [(11, 0)])),
            ((1, 0), ideal_from_gens(field, [(13, 0)])),
        ],
    )
    assert inst_twice.s == 2
    assert m2_bound(inst_twice, 2) == 4 * m2_bound(inst_eleven, 2)
    with pytest.raises(InputError):
        m2_bound(inst_eleven, 3)


# ------------------------------------------------------------- rankin / eta1


def test_rankin_w_rational_three():
    w = rankin_W(make_field("rational"), 3)
    assert w == F(8079, 1000)
    # true value: (1-2^-1/2)^-1 (1-3^-1/2)^-1 = 8.078121...
    true = (1 - mpmath.mpf(2) ** -0.5) ** -1 * (1 - mpmath.mpf(3) ** -0.5) ** -1
    approx = F(str(round(float(true), 6)))
    assert F(8078, 1000) < approx <= w


def test_rankin_w_upper_bounds_truth():
    for key in ["rational", -1, 5]:
        field = get_field(key)
        for y in [3, 10, 100, 1000]:
            w = rankin_W(field, y)
            true = mpmath.mpf(1)
            for q in prime_norms_up_to(field, y).tolist():
                true /= 1 - mpmath.mpf(q) ** mpmath.mpf(-0.5)
            assert w >= F(str(round(float(true), 9)))
            assert float(w) < float(true) * 1.002 + 0.0011


def test_rankin_w_grid():
    w = rankin_W(get_field(-1), 1000)
    assert w.denominator <= 1000  # quantized to the 1/1000 grid


def test_eta1_major():
    field = make_field("rational")
    assert eta1_major(field, 1, 3, 16) == F(8079, 4000)
    assert eta1_major(field, 2, 3, 16) == F(8079, 2000)
    assert eta1_major(field, 1, 3, 400) == F(8079, 20000)
    with pytest.raises(XNotPerfectSquare):
        eta1_major(field, 1, 3, 17)
    with pytest.raises(InputError):
        eta1_major(field, 1, 3, 1)
    with pytest.raises(InputError):
        eta1_major(field, 0, 3, 16)


# ----------------------------------------------------------------- mertens


def sum_recip_up(field, z):
    return oracles.inv_sum_up(prime_norms_up_to(field, z).tolist())


def test_mertens_sum_dominates_sampled():
    for key in ["rational", -1, -5, 5]:
        field = get_field(key)
        for z in [2, 3, 5, 10, 47, 100, 1000, 12345, 10**5]:
            assert mertens_sum_bound(field, z) > sum_recip_up(field, z)


def test_mertens_sum_small():
    field = make_field("rational")
    assert mertens_sum_bound(field, 1) == 0
    assert mertens_sum_bound(field, F(3, 2)) == 0


def test_mertens_product_literals_stress():
    # certified running Euler product against the Rosser-Schoenfeld window
    from sympy import primerange

    from coverdist.rounding import EGAMMA_EXP_HI, EGAMMA_EXP_LO

    primes = list(primerange(2, 10**6))
    acc_lo, acc_hi = oracles.SCALE, oracles.SCALE
    checks = 0
    for i, p in enumerate(primes):
        acc_lo = (acc_lo * p) // (p - 1)
        acc_hi = -((-acc_hi * p) // (p - 1))
        if p < 285 or (i % 97 and p > 2000):
            continue
        lz_lo, lz_hi = ln_bounds(F(p), terms=8, bits=64)
        upper = EGAMMA_EXP_HI * lz_hi * (1 + 1 / (2 * lz_lo * lz_lo))
        lower = EGAMMA_EXP_LO * lz_lo * (1 - 1 / (2 * lz_lo * lz_lo))
        assert F(acc_hi, oracles.SCALE) < upper, p
        assert F(acc_lo, oracles.SCALE) > lower, p
        checks += 1
    assert checks > 700


# -------------------------------------------------------------------- eta2


def test_eta2_floor():
    field = make_field("rational")
    with pytest.raises(YTooSmall):
        eta2_major(field, 1, 511)
    with pytest.raises(InputError):
        eta2_major(field, 0, 512)


def test_eta2_decreases_on_doublings():
    field = make_field("rational")
    vals = [eta2_major(field, 1, 512 << k) for k in range(8)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[0] > 1  # far from useful at the floor
    # frozen decade: the base at y = 512 for the rational field
    assert 180 < vals[0] < 260


def test_eta2_scales_as_s_squared():
    field = make_field("rational")
    one = eta2_major(field, 1, 4096)
    for s in [2, 3, 5]:
        ratio = eta2_major(field, s, 4096) / one
        assert abs(ratio - s * s) < F(1, 10**10)


def test_eta2_quadratic_fields():
    for key in [-1, 5]:
        field = get_field(key)
        v = eta2_major(field, 1, 1 << 21)
        assert 0 < v < 1


# -------------------------------------------------------- effective bounds


def test_effective_bound_rational_s1():
    cert = effective_bound(make_field("rational"), 1)
    assert cert.y == 65536
    assert cert.eta1 + cert.eta2 < 1
    assert cert.eta2 < HALF
    assert isqrt(cert.x) ** 2 == cert.x
    assert verify_certificate(cert) == (True, "")


def test_effective_bound_monotone_small():
    field = make_field("rational")
    xs = [effective_bound(field, s).x for s in [1, 2, 3]]
    assert xs[0] <= xs[1] <= xs[2]


def test_effective_bound_gauss():
    cert = effective_bound(get_field(-1), 1)
    ok, reason = verify_certificate(cert)
    assert ok, reason
    assert cert.eta1 + cert.eta2 < 1


def test_verify_rejects_tampering():
    cert = effective_bound(make_field("rational"), 1)
    bad = cert._replace(x=cert.x * 4)
    ok, reason = verify_certificate(bad)
    assert not ok and "eta1" in reason
    bad = cert._replace(eta2=cert.eta2 / 2)
    ok, reason = verify_certificate(bad)
    assert not ok and "eta2" in reason
    bad = cert._replace(w=cert.w + 1, eta1=cert.eta1)
    ok, reason = verify_certificate(bad)
    assert not ok and "rankin" in reason
    bad = cert._replace(x=cert.x + 1)
    ok, reason = verify_certificate(bad)
    assert not ok and "square" in reason
    bad = cert._replace(y=256)
    ok, reason = verify_certificate(bad)
    assert not ok and "floor" in reason
    for bad in (
        cert._replace(x=cert.x + F(1, 2)),
        cert._replace(y=cert.y + F(1, 2)),
        cert._replace(s=F(cert.s)),
    ):
        ok, reason = verify_certificate(bad)
        assert not ok and "ints" in reason
    # an inequality failure, not just a recomputation mismatch
    bad = cert._replace(x=16, eta1=rankin_W(cert.field, cert.y) * cert.s / 4)
    ok, reason = verify_certificate(bad)
    assert not ok and "below 1" in reason


# ------------------------------------------------------ moduli certificates


def _rat_ideals(ns):
    field = make_field("rational")
    return field, [ideal_from_gens(field, [(n, 0)]) for n in ns]


def test_moduli_two_four_exactly_one():
    field, moduli = _rat_ideals([2, 4])
    cert = certify_moduli(field, moduli)
    assert cert.verdict == "inconclusive"
    assert cert.eta == 1
    assert cert.s == 1
    assert len(cert.rows) == 1
    assert cert.rows[0].mechanism == "m2"
    assert cert.rows[0].nu == 2


def test_moduli_eleven_thirteen_zero_policy():
    field, moduli = _rat_ideals([11, 13])
    cert = certify_moduli(field, moduli, policy=("explicit", [0, 0]))
    assert cert.verdict == "certified-noncover"
    assert [r.mechanism for r in cert.rows] == ["m1", "m1"]
    assert [r.contribution for r in cert.rows] == [F(7, 16), F(77, 192)]
    assert cert.eta == F(161, 192)


def test_moduli_eleven_thirteen_default_policy():
    field, moduli = _rat_ideals([11, 13])
    cert = certify_moduli(field, moduli)  # threshold s^3 = 1: both get 1/2
    assert cert.deltas == [HALF, HALF]
    assert [r.contribution for r in cert.rows] == [F(1, 100), F(41, 3600)]
    assert cert.eta == F(77, 3600)
    assert cert.verdict == "certified-noncover"


def test_moduli_mixed_policy():
    field, moduli = _rat_ideals([11, 13])
    cert = certify_moduli(field, moduli, policy=("explicit", [0, HALF]))
    assert [r.mechanism for r in cert.rows] == ["m1", "m2"]
    assert cert.rows[1].contribution == F(11, 1200)
    assert cert.eta == F(7, 16) + F(11, 1200) == F(67, 150)


def test_moduli_rejects_zero_after_nonzero():
    field, moduli = _rat_ideals([11, 13])
    with pytest.raises(InputError):
        certify_moduli(field, moduli, policy=("explicit", [HALF, 0]))


def test_moduli_s_override():
    field, moduli = _rat_ideals([11, 13])
    cert = certify_moduli(field, moduli, s=3, policy=("explicit", [0, 0]))
    assert cert.eta == 3 * F(161, 192)
    assert cert.verdict == "inconclusive"
    with pytest.raises(InputError):
        certify_moduli(field, moduli + moduli, s=1)


def test_moduli_rejects_bad_input():
    field, moduli = _rat_ideals([2, 4])
    with pytest.raises(InputError):
        certify_moduli(field, [])
    with pytest.raises(UnitModulus):
        certify_moduli(field, [unit_ideal(field)])
    gauss = get_field(-1)
    with pytest.raises(IndistinguishableModulus) as info:
        certify_moduli(
            gauss,
            [ideal_principal(gauss, (2, 0)), ideal_principal(gauss, (5, 0))],
        )
    assert info.value.index == 1
    with pytest.raises(MixedFields):
        certify_moduli(field, [ideal_principal(gauss, (2, 0))])


def test_moduli_checks_match_validate():
    # validate and certify_moduli share one check of the moduli: the first
    # bad modulus gives the same error, at the same index, in both
    gauss = get_field(-1)
    two = ideal_principal(gauss, (2, 0))
    five = ideal_principal(gauss, (5, 0))  # two primes of norm 5
    for bad, error in [
        (ideal_principal(make_field("rational"), (2, 0)), MixedFields),
        (unit_ideal(gauss), UnitModulus),
        (five, IndistinguishableModulus),
    ]:
        moduli = [two, two, bad, five]
        with pytest.raises(error) as by_moduli:
            certify_moduli(gauss, moduli)
        with pytest.raises(error) as by_classes:
            validate(gauss, [((0, 0), m) for m in moduli])
        assert str(by_moduli.value) == str(by_classes.value)
        if error is not MixedFields:  # the one without an index attribute
            assert by_moduli.value.index == by_classes.value.index == 2


def test_moduli_eta_dominates_measure_eta(corpus):
    # the residue-free majorant dominates the exact engine eta for the
    # matching policy whenever the policy is mechanically valid
    rng = random.Random(35)
    small = [i for i in corpus if ideal_norm(i.q) <= 400]
    for inst in rng.sample(small, min(25, len(small))):
        moduli = [c.modulus for c in inst.classes]
        cert = certify_moduli(inst.field, moduli, policy=("explicit", [0] * inst.depth))
        prob, res = _run_states(inst, zero_policy(inst))
        assert res.eta <= cert.eta
