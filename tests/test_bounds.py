import json
import random
import sys
from array import array
from fractions import Fraction
from math import isqrt
from pathlib import Path

import mpmath
import numpy as np
import pytest

import oracles
from conftest import FIELD_KEYS, get_field, half_policy, majorant_rows, zero_policy
from coverdist import (
    UnitModulus,
    IndistinguishableModulus,
    InputError,
    MixedFields,
    ResourceError,
    YTooSmall,
    build_problem,
    certify_moduli,
    effective_bound,
    eta2_major,
    factor_ideal,
    ideal_divides,
    ideal_from_gens,
    ideal_mul,
    ideal_norm,
    ideal_principal,
    make_field,
    prime_norms_up_to,
    rankin_W,
    resolve_delta_policy,
    run,
    unit_ideal,
    validate,
    verify_certificate,
)
from coverdist import bounds, kernels, ring
from coverdist.bounds import _check_m1_printable, _m1_euler, _p_small_fold
from coverdist.rounding import ln_bounds
from coverdist.serialize import frac_str

F = Fraction
HALF = F(1, 2)

mpmath.mp.dps = 40

PINS = json.loads((Path(__file__).parent / "data" / "bound_pins.json").read_text())


def _p_small(field, y):
    # the exact P_small that eta2_major folds, from scratch
    return _p_small_fold(prime_norms_up_to(field, y))


# -------------------------------------------------------- per-level bounds


def _run_states(instance, deltas):
    prob = build_problem(instance)
    res = run(prob, deltas)
    return prob, res


def test_alpha_bound_dominates(corpus):
    rng = random.Random(31)
    small = [i for i in corpus if ideal_norm(i.q) <= 150]
    for inst in rng.sample(small, min(30, len(small))):
        states = run(build_problem(inst), zero_policy(inst)).states
        points = oracles.residues(inst.q)
        for j in range(1, inst.depth + 1):
            true = oracles.alpha(states[j - 1], j)
            for x, a in zip(points, true):
                assert a <= oracles.alpha_upper_bound(inst, x, j)


def test_alpha_bound_near_cover(near_cover):
    # classes 0 mod (2) [exp 1, cofactor (1)] and 1 mod (4) [exp 2, cofactor (1)]
    assert oracles.alpha_upper_bound(near_cover, (0, 0), 1) == HALF + F(1, 4)
    assert oracles.alpha_upper_bound(near_cover, (1, 0), 1) == HALF + F(1, 4)


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
                    for state in res.states:
                        exact = oracles.class_measure(inst, state, a, ideal)
                        assert exact <= _inflation_bound(inst, state, ideal)


def _inflation_bound(inst, state, ideal):
    # (1/norm) * prod over the primes p_i | ideal of levels i <= the
    # state's of (1 - delta_i)^-1
    bound = F(1, ideal_norm(ideal))
    for (prime, _), delta in zip(inst.primes, state.deltas):
        if ideal_divides(prime.ideal, ideal):
            bound /= 1 - delta
    return bound


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
    st = res.states[1]
    assert oracles.class_measure(inst, st, (0, 0), two) == 0
    assert _inflation_bound(inst, st, two) == 1
    # an ideal coprime to the first prime gets no inflation factor
    three = ideal_from_gens(field, [(3, 0)])
    assert _inflation_bound(inst, st, three) == F(1, 3)
    # distortion mod 2 is uniform on 0 mod 3
    assert oracles.class_measure(inst, st, (0, 0), three) == F(1, 3)


def test_m1_bound_dominates_uniform(corpus):
    rng = random.Random(33)
    small = [i for i in corpus if ideal_norm(i.q) <= 400]
    for inst in rng.sample(small, min(40, len(small))):
        prob, res = _run_states(inst, zero_policy(inst))
        m1 = majorant_rows(inst, 0)
        for rep in res.reports:
            assert rep.m1 <= m1[rep.j - 1]


def test_m2_bound_dominates_any_policy(corpus):
    rng = random.Random(34)
    small = [i for i in corpus if ideal_norm(i.q) <= 400]
    for inst in rng.sample(small, min(25, len(small))):
        m2 = majorant_rows(inst, HALF)
        for policy in [zero_policy(inst), half_policy(inst), None]:
            deltas = (
                resolve_delta_policy(inst, None) if policy is None else policy
            )
            prob, res = _run_states(inst, deltas)
            for rep in res.reports:
                assert rep.m2 <= m2[rep.j - 1]


def test_m1_m2_values():
    field = make_field("rational")
    inst_eleven = validate(
        field,
        [
            ((0, 0), ideal_from_gens(field, [(11, 0)])),
            ((1, 0), ideal_from_gens(field, [(13, 0)])),
        ],
    )
    assert majorant_rows(inst_eleven, 0) == [F(7, 16), F(77, 192)]
    # worst-case history factor for q=11: 1 + 64/100
    assert majorant_rows(inst_eleven, HALF) == [F(1, 100), F(1, 144) * (1 + F(64, 100))]
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
    assert majorant_rows(inst_twice, HALF)[1] == 4 * majorant_rows(inst_eleven, HALF)[1]


# ------------------------------------------------------------------ rankin


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


# ----------------------------------------------------------------- mertens


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


def test_eta2_tail_matches_oracle_cold_and_warm():
    # the tail takes each dyadic block's y-free values from a cache keyed by
    # the block end; on doubling schedules from 512 and from s^3 (odd or not
    # a power of two), run ascending and descending from an empty cache, it
    # equals the tail that computes every block at each y
    schedules = [[512 << k for k in range(15)]]
    schedules += [[s**3 << k for k in range(8)] for s in range(9, 21)]
    for ys in schedules:
        for order in (ys, ys[::-1]):
            bounds._dyadic_block.cache_clear()
            for y in order:
                assert bounds._eta2_tail(y) == oracles.eta2_tail(y), y
            assert bounds._dyadic_block.cache_info().hits > 0


@pytest.mark.parametrize("key", FIELD_KEYS)
def test_folds_match_oracles(key):
    # one square root per run of equal norms and the P_small block products
    # built from whole-block products, against the per-norm folds
    field = get_field(key)
    for k in range(12, 20):
        norms = prime_norms_up_to(field, 1 << k)
        assert bounds._rankin_fold(norms) == oracles.rankin_fold(norms), k
        assert _p_small_fold(norms) == oracles.p_small_fold(norms), k


def test_folds_on_runs_of_equal_norms():
    # runs of 1 to 5 equal norms, inert squares among them, and one run of
    # 100 that spans a 64-norm block edge
    rng = random.Random(14)
    runs = [(p, rng.choice((1, 1, 2, 3, 5))) for p in kernels.primes(2, 3000)]
    runs += [(p * p, 2) for p in (59, 61)] + [(3001, 100), (3011, 3)]
    norms = array("q", [n for n, k in sorted(runs) for _ in range(k)])
    assert len(norms) > 640
    for part in (norms, norms[:64], norms[5:300], norms[-130:]):
        assert bounds._rankin_fold(part) == oracles.rankin_fold(part)
        assert _p_small_fold(part) == oracles.p_small_fold(part)


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


# ------------------------------------------------- pinned analytic numbers


@pytest.mark.parametrize(
    "pin", PINS["effective_bound"], ids=lambda p: f"{p['field']}-s{p['s']}"
)
def test_effective_bound_pinned(pin):
    cert = effective_bound(get_field(pin["field"]), pin["s"])
    got = (cert.y, cert.w, cert.eta2, cert.x)
    assert got == (pin["y"], F(pin["w"]), F(pin["eta2"]), pin["x"])


@pytest.mark.parametrize(
    "pin", PINS["analytic"], ids=lambda p: f"{p['field']}-y{p['y']}"
)
def test_analytic_layer_pinned(pin):
    field = get_field(pin["field"])
    assert _p_small(field, pin["y"]) == F(pin["p_small"])
    assert rankin_W(field, pin["y"]) == F(pin["rankin_W"])


def test_analytic_pins_reach_a_full_last_block():
    # the Fraction code rounded once more when the norm count is a multiple
    # of 64; the pins and the oracle show that skipping it changes nothing
    assert len(prime_norms_up_to(get_field("rational"), 719)) % 64 == 0
    assert len(prime_norms_up_to(get_field(-1), 709)) % 64 == 0


@pytest.mark.parametrize("key", FIELD_KEYS)
def test_analytic_layer_matches_fraction_oracle(key):
    field = get_field(key)
    rng = random.Random(str(key))
    ys = [512, 700, 709, 719, 729, 4096] + [rng.randrange(512, 20000) for _ in range(6)]
    for y in ys:
        norms = prime_norms_up_to(field, y).tolist()
        assert _p_small(field, y) == oracles.p_small_fraction(norms), y
        assert rankin_W(field, y) == oracles.rankin_W_fraction(norms), y


@pytest.mark.parametrize("key", FIELD_KEYS)
def test_carried_p_small_matches_from_scratch(key):
    # the search carries the P_small fold over full 64-norm blocks from one
    # y to the next, appending the norms in (previous y, y], and folds the
    # trailing norms onto the carry at each y; on the doubling schedules
    # from 512 and 729 and across full-block edges, with a repeated y, that
    # equals the fold from scratch and the Fraction oracle
    field = get_field(key)
    schedules = [
        [512 << k for k in range(7)],
        [729 << k for k in range(6)],
        [512, 709, 709, 719, 1000, 1418, 1438, 4096],
    ]
    for ys in schedules:
        norms, above, full, carry = array("q"), 0, 0, F(1)
        for y in ys:
            norms += prime_norms_up_to(field, y, above)
            above = y
            end = len(norms) - len(norms) % 64
            carry, full = _p_small_fold(norms[full:end], carry), end
            got = _p_small_fold(norms[end:], carry)
            assert got == _p_small(field, y), y
            assert got == oracles.p_small_fraction(prime_norms_up_to(field, y).tolist()), y


@pytest.mark.parametrize("key", FIELD_KEYS)
def test_float_search_picks_the_exact_y(key):
    # the y search against the exact search of the oracle; the norms it
    # hands on are every prime norm <= y, and the eta2 it decided on is
    # eta2_major there. (The name is from the float search this search
    # replaced; it is kept so the six parametrized ids stay stable.)
    field = get_field(key)
    for s in range(1, 10):
        y, norms, eta2 = bounds._search_y(field, s)
        assert y == oracles.effective_bound_exact(field, s), s
        assert norms.tolist() == oracles.prime_norms_up_to(field, y).tolist(), s
        assert eta2 == eta2_major(field, s, y), s


def test_search_eta2_calls_match_pins(monkeypatch):
    # the search decides each y on the exact eta2; it must try the doubling
    # schedule, stop at each pinned y with the pinned eta2 there, and decide
    # each y on P_small over every prime norm up to it
    calls = []
    exact = bounds._eta2
    top = max(pin["y"] for pin in PINS["effective_bound"])
    by_field = {}  # the numpy kernels' norms <= top, per field

    def logged(s, p_small, y):
        assert y <= top
        k = int(np.searchsorted(full, y, side="right"))
        assert p_small == _p_small_fold(full[:k].tolist()), y
        calls.append((y, exact(s, p_small, y)))
        return calls[-1][1]

    monkeypatch.setattr(bounds, "_eta2", logged)
    for pin in PINS["effective_bound"]:
        calls.clear()
        field = get_field(pin["field"])
        if pin["field"] not in by_field:
            by_field[pin["field"]] = oracles.prime_norms_up_to(field, top)
        full = by_field[pin["field"]]  # read by logged
        y, _, eta2 = bounds._search_y(field, pin["s"])
        assert calls[-1] == (pin["y"], F(pin["eta2"])) and (y, eta2) == calls[-1]
        assert [c[0] for c in calls] == [max(512, pin["s"] ** 3) << k for k in range(len(calls))]


# ------------------------------------------------------ moduli certificates


@pytest.mark.parametrize("key", FIELD_KEYS)
def test_m1_numerator_has_every_prime_norm_above_half(key):
    # the size bound behind _check_m1_printable: each rational prime p >= 5
    # in (q/2, q) that is a prime norm divides the reduced m1 numerator
    field = get_field(key)
    norms = sorted(set(prime_norms_up_to(field, 1500).tolist()))
    for q in norms:
        num = _m1_euler(field, 1, q).numerator
        for p in norms:
            if max(q // 2, 4) < p < q and isqrt(p) ** 2 != p:
                assert num % p == 0, (q, p)


@pytest.mark.parametrize("key", FIELD_KEYS)
def test_m1_product_matches_the_loop(key):
    # one exact product of the norms over one of the norms minus 1 gives
    # the row the per-norm loop gives, for every prime norm q up to 4000
    field = get_field(key)
    for i, q in enumerate(sorted(set(prime_norms_up_to(field, 4000).tolist()))):
        s = (1, 3, 7)[i % 3]
        assert _m1_euler(field, s, q) == oracles.m1_euler_loop(field, s, q), (q, s)


def test_m1_size_check_refuses_only_unprintable_rows():
    # at the smallest digit limit the check fires from some q on; every row
    # it refuses up to 8000 is one that frac_str refuses too. It refuses
    # every row that the bound it replaced refused (the count of those
    # primes times their least bit length), and some that it did not.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for key in ("rational", -1, 5):
            field = get_field(key)
            refused, gained = 0, 0
            for q in sorted(set(prime_norms_up_to(field, 8000).tolist())):
                above = set(prime_norms_up_to(field, q - 1, max(q // 2, 4)).tolist())
                count = sum(1 for p in above if isqrt(p) ** 2 != p)
                old = 1000 * count * (q.bit_length() - 2) >= 3322 * 640
                try:
                    _check_m1_printable(field, q)
                except ResourceError:
                    refused += 1
                    gained += not old
                    with pytest.raises(ResourceError):
                        frac_str(_m1_euler(field, 1, q))
                    continue
                assert not old, (key, q)
            assert refused >= 100 and gained > 0, key
    finally:
        sys.set_int_max_str_digits(limit)


def test_m1_refusal_sieves_a_bounded_window(monkeypatch):
    # the first prime above 2^25 is refused at the default digit limit after
    # fewer than 2^16 numbers of (q/2, q), not the 2^24 of the whole window,
    # in windows that follow each other from q/2 on
    q = 33554467
    windows = []
    split = ring._split_primes

    def counted(field, y, above=0):
        windows.append((above, y))
        return split(field, y, above)

    monkeypatch.setattr(ring, "_split_primes", counted)
    for key in ("rational", -1, -3):
        windows.clear()
        with pytest.raises(ResourceError, match="too large to print"):
            _check_m1_printable(get_field(key), q)
        ends = [q // 2] + [y for _, y in windows]
        assert windows == list(zip(ends, ends[1:])), key
        assert [y - a for a, y in windows] == [2**12 << k for k in range(len(windows))]
        assert ends[-1] - ends[0] < 2**16, key


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
