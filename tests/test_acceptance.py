"""End-to-end acceptance suite.

Exact measure invariants on a randomized corpus, per-step moment bounds,
certificate soundness against brute force, majorant domination, ideal
arithmetic round-trips at scale, certified analytic bounds, and CLI
determinism. Everything rational is compared exactly; float appears only
inside certified screens whose error margins are argued in comments.
"""

import json
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

import numpy as np
import pytest
import sympy

import oracles
from conftest import FIELD_KEYS, get_field, majorant_rows
from coverdist import (
    build_problem,
    certify,
    certify_moduli,
    covers,
    effective_bound,
    elem_conj,
    elem_norm,
    eta2_major,
    factor_ideal,
    ideal_divides,
    ideal_from_gens,
    ideal_mul,
    ideal_norm,
    in_class,
    make_field,
    primes_above,
    primes_up_to_norm,
    rankin_W,
    reduce,
    residue_at,
    resolve_delta_policy,
    run,
    validate,
    verify_certificate,
)
from coverdist.ring import unit_ideal

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

ZERO = Fraction(0)
ONE = Fraction(1)

QUADRATIC_KEYS = [k for k in FIELD_KEYS if k != "rational"]


@pytest.fixture(scope="module")
def problems(corpus):
    return [build_problem(inst) for inst in corpus]


@pytest.fixture(scope="module")
def point_problems(corpus):
    """The same problems over the n points of O/Q, from the oracle builder."""
    return [oracles.build_problem_points(inst) for inst in corpus]


def _policies(inst, idx):
    """Three delta assignments per instance: trivial, default, and a seeded
    random mix of {0, 1/6, 1/3, 1/2}."""
    zero = (ZERO,) * inst.depth
    default = resolve_delta_policy(inst, None)
    rng = random.Random(5000 + idx)
    mixed = tuple(Fraction(rng.choice((0, 1, 2, 3)), 6) for _ in range(inst.depth))
    return (zero, default, mixed)


# ------------------------------------------------------------------ measures


def test_measure_suite_exact_invariants(corpus, problems, point_problems):
    """Total mass, fiber conservation, and target measurability are exact
    after every step, over the whole randomized corpus."""
    t0 = time.monotonic()
    assert len(corpus) >= 500
    assert {inst.field.label() for inst in corpus} == {
        get_field(k).label() for k in FIELD_KEYS
    }
    for inst in corpus:
        assert ideal_norm(inst.q) <= 10**4
        assert 1 <= len(inst.classes) <= 12
        assert 1 <= inst.s <= 4
    for idx, (inst, prob, pts) in enumerate(zip(corpus, problems, point_problems)):
        for deltas in _policies(inst, idx):
            res = run(prob, deltas)
            assert sum(oracles.point_masses(res.states[0], pts)) == ONE
            for j in range(1, inst.depth + 1):
                pm_prev = oracles.point_masses(res.states[j - 1], pts)
                pm_cur = oracles.point_masses(res.states[j], pts)
                assert sum(pm_cur) == ONE
                lab_prev = pts.levels[j - 1]
                width = int(lab_prev.max()) + 1
                acc_prev = [ZERO] * width
                acc_cur = [ZERO] * width
                for l, a, b in zip(lab_prev.tolist(), pm_prev, pm_cur):
                    acc_prev[l] += a
                    acc_cur[l] += b
                assert acc_prev == acc_cur
                # B_j must be a union of level-j residue classes
                lab = pts.levels[j]
                sizes = np.bincount(lab)
                hits = np.bincount(lab[pts.targets[j - 1]], minlength=len(sizes))
                assert np.all((hits == 0) | (hits == sizes))
    assert time.monotonic() - t0 < 60


def test_per_step_bound_and_stability(corpus, problems, point_problems):
    """P_j(B_j) <= min(M1, M2/(4 delta (1-delta))) exactly, and later steps
    never change the mass of an already-processed target."""
    for idx, (inst, prob, pts) in enumerate(zip(corpus, problems, point_problems)):
        for deltas in _policies(inst, idx):
            res = run(prob, deltas)
            final_pm = oracles.point_masses(res.states[-1], pts)
            for rep in res.reports:
                cap = rep.m1
                if rep.delta:
                    cap = min(cap, rep.m2 / (4 * rep.delta * (1 - rep.delta)))
                assert rep.contribution == cap
                assert rep.target_mass <= cap
                tgt = pts.targets[rep.j - 1].tolist()
                final = sum(m for m, t in zip(final_pm, tgt) if t)
                assert final == rep.target_mass
            assert res.final_target_masses == [r.target_mass for r in res.reports]
            assert res.eta == sum(r.contribution for r in res.reports)


def test_codebook_matches_per_label_oracle(corpus, problems, point_problems):
    """The codebook engine equals the per-label reference on every corpus
    instance under the zero, half, default and seeded random policies: eta,
    every report, the final target masses and the values at every level."""
    half = Fraction(1, 2)
    for idx, (inst, prob, pts) in enumerate(zip(corpus, problems, point_problems)):
        zero, default, mixed = _policies(inst, idx)
        for deltas in (zero, (half,) * inst.depth, default, mixed):
            res = run(prob, deltas)
            values, reports, eta, final = oracles.run_per_label(pts, deltas)
            assert res.eta == eta
            assert [
                (r.m1, r.m2, r.contribution, r.target_mass) for r in res.reports
            ] == reports
            assert res.final_target_masses == final
            assert [list(st.values) for st in res.states] == values


# ---------------------------------------------------------------- soundness


def test_certificates_sound_against_brute_force(corpus, problems, point_problems):
    certified = 0
    for idx, (inst, prob, pts) in enumerate(zip(corpus, problems, point_problems)):
        verdict, _ = covers(inst)
        union = np.zeros(len(pts.levels[0]), dtype=bool)
        for tgt in pts.targets:
            union |= tgt
        for deltas in _policies(inst, idx):
            cres = certify(prob, deltas)
            if verdict == "covers":
                assert cres.verdict == "inconclusive"
                assert cres.eta >= 1
                assert bool(union.all())
            elif cres.verdict == "certified-noncover":
                certified += 1
                assert cres.eta < 1
                final_pm = oracles.point_masses(cres.states[-1], pts)
                outside = sum(
                    m for m, t in zip(final_pm, union.tolist()) if not t
                )
                assert cres.uncovered_mass == outside
                assert outside >= 1 - cres.eta
                witness = residue_at(cres.witness_index, inst.q)
                for residue, ideal in inst.classes:
                    assert not in_class(witness, residue, ideal)
    assert certified > 100  # the corpus genuinely exercises the certificate path


def _affine_image(inst, rng):
    # (move, image): move is x -> c x + t, with c a unit mod Q and t a
    # residue drawn from rng, and image is the system of the moved classes
    field, q, n = inst.field, inst.q, ideal_norm(inst.q)
    c = residue_at(rng.randrange(n), q)
    while gcd(elem_norm(field, c), n) != 1:
        c = residue_at(rng.randrange(n), q)
    t = residue_at(rng.randrange(n), q)

    def move(x):
        cx = oracles.elem_mul_oracle(field.trace, field.nm, c, x)
        return (cx[0] + t[0], cx[1] + t[1])

    image = validate(field, [(move(a), ideal) for a, ideal in inst.classes])
    assert image.q == q and image.s == inst.s
    return move, image


def _affine_images(corpus):
    # per instance (inst, move, image), the maps drawn from one seeded stream
    rng = random.Random(188412)
    for inst in corpus:
        yield inst, *_affine_image(inst, rng)


def test_certificates_invariant_under_affine_maps(corpus):
    """x -> c x + t, with c a unit mod Q, permutes O/Q and every O/Q_j and
    maps each class a + I onto c a + t + I. So the transformed system has
    the same measures: under the default policy its verdict, eta, every
    moment report and its uncovered mass equal the original's, and its
    witness lies in no transformed class."""
    certified = 0
    for inst, _, image in _affine_images(corpus):
        q = inst.q
        want = certify(build_problem(inst), resolve_delta_policy(inst, None))
        got = certify(build_problem(image), resolve_delta_policy(image, None))
        assert got[1:6] == want[1:6]  # reports, eta, final masses, verdict, uncovered mass
        if got.verdict == "certified-noncover":
            certified += 1
            witness = residue_at(got.witness_index, q)
            for residue, ideal in image.classes:
                assert not in_class(witness, residue, ideal)
    assert certified > 100


@pytest.mark.parametrize(
    "primes, thresholds",
    [((2, 3, 5, 7, 11, 13, 17), (2, 3)), ((2, 3, 5, 7, 11, 13, 17, 19), (3,))],
    ids=["depth7", "depth8"],
)
def test_certificates_invariant_under_affine_maps_at_depth(primes, thresholds):
    """The affine invariance above on one class a_p mod p for each prime
    p <= 17 (n = 510,510) and p <= 19 (n = 9,699,690), with random a_p.
    Delta 0 at the primes up to the threshold keeps their targets' mass,
    1/2 and 1/3, to the end, and the verdict, eta, reports, uncovered mass
    and final target masses of the moved system equal the original's. The
    witness of each lies in none of its classes."""
    field = make_field("rational")
    rng = random.Random(188414)
    inst = validate(
        field, [((rng.randrange(p), 0), ideal_from_gens(field, [(p, 0)])) for p in primes]
    )
    _, image = _affine_image(inst, rng)
    for y in thresholds:
        want = certify(build_problem(inst), resolve_delta_policy(inst, ("threshold", y)))
        got = certify(build_problem(image), resolve_delta_policy(image, ("threshold", y)))
        assert got[1:6] == want[1:6]  # reports, eta, final masses, verdict, uncovered mass
        kept = [Fraction(1, p) for p in primes if p <= y]
        assert got.final_target_masses[: len(kept)] == kept
        assert got.verdict == "certified-noncover"
        for system, res in ((inst, want), (image, got)):
            assert res.witness_index != 0
            witness = residue_at(res.witness_index, system.q)
            for residue, ideal in system.classes:
                assert not in_class(witness, residue, ideal)


def test_certificates_invariant_under_galois_conjugation(corpus):
    """The automorphism sigma of a quadratic field maps each class a + I
    onto sigma(a) + sigma(I), O/Q onto O/sigma(Q) and each prime onto one
    of the same norm. So under the default policy the conjugated system of
    every quadratic corpus instance has the same verdict, eta and uncovered
    mass, and the same moment reports up to their level index. The reports
    are equal in order where sigma keeps the level order; it may swap two
    primes of equal norm, which are ordered by HNF. The new witness lies in
    no conjugated class."""

    def conj(ideal):
        field = ideal.field
        return ideal_from_gens(field, [(ideal.u, 0), elem_conj(field, (ideal.v, ideal.w))])

    instances = kept = certified = 0
    for inst in corpus:
        field = inst.field
        if field.kind == "rational":
            continue
        image = validate(field, [(elem_conj(field, a), conj(ideal)) for a, ideal in inst.classes])
        want = certify(build_problem(inst), resolve_delta_policy(inst, None))
        got = certify(build_problem(image), resolve_delta_policy(image, None))
        assert (got.verdict, got.eta, got.uncovered_mass) == (
            want.verdict, want.eta, want.uncovered_mass
        )
        assert Counter(r[1:] for r in got.reports) == Counter(r[1:] for r in want.reports)
        if [conj(p.ideal) for p, _ in inst.primes] == [p.ideal for p, _ in image.primes]:
            kept += 1
            assert got.reports == want.reports
        if got.verdict == "certified-noncover":
            certified += 1
            witness = residue_at(got.witness_index, image.q)
            for residue, ideal in image.classes:
                assert not in_class(witness, residue, ideal)
        instances += 1
    assert instances == 433 and kept > 400 and certified > 400, (instances, kept, certified)


def test_majorants_invariant_under_affine_maps(corpus):
    """Under the same maps x -> c x + t: the alpha majorant of the moved
    system at c x + t equals the original's at x (three x per level), and
    the measure of c a + t + I under the moved system's own run equals the
    original's of a + I, for I dividing Q (each Q_j and each modulus) and
    every level 0 <= j <= J. The inflation bound on that measure depends
    only on I, the primes of Q and the deltas, which the map keeps."""
    rng = random.Random(188413)
    alphas = measures = 0
    for inst, move, image in _affine_images(corpus):
        q, n = inst.q, ideal_norm(inst.q)
        for j in range(1, inst.depth + 1):
            for x in (residue_at(rng.randrange(n), q) for _ in range(3)):
                got = oracles.alpha_upper_bound(image, reduce(move(x), q), j)
                assert got == oracles.alpha_upper_bound(inst, x, j)
                alphas += 1
        want_run = run(build_problem(inst), resolve_delta_policy(inst, None))
        got_run = run(build_problem(image), resolve_delta_policy(image, None))
        ideals = set(inst.levels) | {ideal for _, ideal in inst.classes}
        for ideal in sorted(ideals):
            a = residue_at(rng.randrange(n), q)
            for got_state, want_state in zip(got_run.states, want_run.states):
                got = oracles.class_measure(image, got_state, move(a), ideal)
                assert got == oracles.class_measure(inst, want_state, a, ideal)
                measures += 1
    assert alphas > 2000 and measures > 4000


def test_pinned_certificates(near_cover, classic_cover):
    cres = certify(build_problem(near_cover), (ZERO,))
    assert cres.verdict == "certified-noncover"
    assert cres.eta == Fraction(3, 4)
    assert residue_at(cres.witness_index, near_cover.q) == (3, 0)
    assert cres.uncovered_mass == Fraction(1, 4)

    verdict, witness = covers(classic_cover)
    assert verdict == "covers" and witness is None
    prob = build_problem(classic_cover)
    pts = oracles.build_problem_points(classic_cover)
    half = Fraction(1, 2)
    for deltas in [
        (ZERO, ZERO),
        (half, half),
        (ZERO, half),
        (half, ZERO),
        (Fraction(1, 4), Fraction(1, 3)),
        (Fraction(1, 6), Fraction(1, 6)),
    ]:
        cres = certify(prob, deltas)
        assert cres.verdict == "inconclusive"
        assert cres.eta >= 1
        union = np.zeros(12, dtype=bool)
        for tgt in pts.targets:
            union |= tgt
        final_pm = oracles.point_masses(cres.states[-1], pts)
        assert sum(m for m, t in zip(final_pm, union.tolist()) if not t) == 0


# --------------------------------------------------------------- dominations


def test_alpha_pointwise_domination(corpus, problems):
    for inst, prob in zip(corpus, problems):
        res = run(prob, (ZERO,) * inst.depth)  # alpha is measure-independent
        points = oracles.residues(inst.q)
        for j in range(1, inst.depth + 1):
            vals = oracles.alpha(res.states[j - 1], j)
            for x, a in zip(points, vals):
                assert a <= oracles.alpha_upper_bound(inst, x, j)


def _divisor_ideals(inst):
    out = [unit_ideal(inst.field)]
    for prime, e in inst.primes:
        grown = []
        for d in out:
            acc = d
            grown.append(acc)
            for _ in range(e):
                acc = ideal_mul(acc, prime.ideal)
                grown.append(acc)
        out = grown
    return out


def test_class_measure_domination(corpus, problems, point_problems):
    """P_j(a + I) <= inflation bound for every divisor I of Q and every class,
    in exact arithmetic. A class's mass is the sum over codes k of table[k]
    times its number of points of code k; classes with equal count rows have
    equal mass, so each distinct row is summed once."""
    for inst, prob, point_prob in zip(corpus, problems, point_problems):
        pts = np.asarray(oracles.residues(inst.q), dtype=np.int64)
        divisors = [
            (I, ideal_norm(I), oracles.hnf_labels(pts, I.u, I.v, I.w))
            for I in _divisor_ideals(inst)
        ]
        for deltas in (resolve_delta_policy(inst, None), (ZERO,) * inst.depth):
            res = run(prob, deltas)
            for j in range(inst.depth + 1):
                state = res.states[j]
                table, t = state.table, len(state.table)
                point_codes = oracles.label_codes(state)[point_prob.levels[j]].astype(np.int64)
                for I, n_i, labs in divisors:
                    bound = Fraction(1, n_i)
                    for (prime, _), d in zip(inst.primes[:j], state.deltas):
                        if d and ideal_divides(prime.ideal, I):
                            bound /= 1 - d
                    counts = np.bincount(labs * t + point_codes, minlength=n_i * t)
                    for row in np.unique(counts.reshape(n_i, t), axis=0).tolist():
                        assert sum((table[k] * c for k, c in enumerate(row) if c), ZERO) <= bound


def test_moment_majorant_domination(corpus, problems):
    for idx, (inst, prob) in enumerate(zip(corpus, problems)):
        m1, m2 = majorant_rows(inst, ZERO), majorant_rows(inst, Fraction(1, 2))
        zero_res = run(prob, (ZERO,) * inst.depth)
        for rep in zero_res.reports:
            assert rep.m1 <= m1[rep.j - 1]
            assert rep.m2 <= m2[rep.j - 1]
        for deltas in _policies(inst, idx)[1:]:
            res = run(prob, deltas)
            for rep in res.reports:
                assert rep.m2 <= m2[rep.j - 1]


# ------------------------------------------------------------------- ideals


def test_ideal_arithmetic_at_scale(fields):
    """Factorization round-trips for every ideal of norm <= 1e4, with the
    enumeration certified complete by the splitting character's divisor sum
    and, at small norms, by raw HNF divisibility enumeration."""
    t0 = time.monotonic()
    rng = random.Random(424242)
    for key in QUADRATIC_KEYS:
        field = fields[key]
        disc = field.discriminant

        # splitting of every rational prime <= 1e3 matches the character and
        # multiplies back to (p)
        for p in sympy.primerange(2, 1001):
            ups = primes_above(field, p)
            chi = oracles.kronecker(disc, p)
            kinds = sorted(q.splitting for q in ups)
            if chi == 1:
                assert kinds == ["split", "split"]
                assert [q.norm for q in ups] == [p, p]
                assert ups[0].ideal != ups[1].ideal
            elif chi == -1:
                assert kinds == ["inert"] and ups[0].norm == p * p
            else:
                assert kinds == ["ramified"] and ups[0].norm == p
            prod = unit_ideal(field)
            for q in ups:
                for _ in range(2 if q.splitting == "ramified" else 1):
                    prod = ideal_mul(prod, q.ideal)
            assert prod == ideal_from_gens(field, [(p, 0)])

        # every ideal of norm <= 1e4, enumerated as prime-power products
        items = [(unit_ideal(field), 1)]
        for q in primes_up_to_norm(field, 10**4):
            grown = []
            for ideal, n in items:
                acc, na = ideal, n
                while na * q.norm <= 10**4:
                    acc = ideal_mul(acc, q.ideal)
                    na *= q.norm
                    grown.append((acc, na))
            items.extend(grown)
        triples = {(i.u, i.v, i.w) for i, _ in items}
        assert len(triples) == len(items)
        per_norm = np.zeros(10**4 + 1, dtype=np.int64)
        for ideal, n in items:
            assert ideal_norm(ideal) == n
            per_norm[n] += 1
        assert np.array_equal(
            per_norm[1:], oracles.ideal_counts(disc, 10**4)[1:]
        )
        small = {(i.u, i.v, i.w) for i, n in items if n <= 300}
        assert small == oracles.hnf_ideals_direct(field.trace, field.nm, 300)

        for ideal, n in items:
            prod = unit_ideal(field)
            back = 1
            for q, e in factor_ideal(ideal):
                back *= q.norm**e
                for _ in range(e):
                    prod = ideal_mul(prod, q.ideal)
            assert prod == ideal and back == n

        # brute-force lattice index equals the reported norm
        pool = [(i, n) for i, n in items if 2 <= n <= 500]
        for ideal, n in rng.sample(pool, 40):
            assert oracles.lattice_index_rows(ideal.u, ideal.v, ideal.w, n) == n

    rat = fields["rational"]
    for m in range(2, 10**4 + 1):
        back = 1
        for q, e in factor_ideal(ideal_from_gens(rat, [(m, 0)])):
            assert q.norm == q.under
            back *= q.under**e
        assert back == m
    assert time.monotonic() - t0 < 120


# ----------------------------------------------------------------- analytic


def test_rankin_window_and_reference():
    import mpmath as mp

    w = rankin_W(make_field("rational"), 3)
    assert w == Fraction(8079, 1000)
    assert Fraction("8.079") <= w <= Fraction("8.080") * Fraction(1001, 1000)
    mp.mp.dps = 50
    ref = (2 + mp.sqrt(2)) * (3 + mp.sqrt(3)) / 2  # prod sqrt(q)/(sqrt(q)-1)
    assert mp.mpf(w.numerator) / w.denominator >= ref


# ----------------------------------------------------------- effective bound


def test_effective_bound_family():
    t0 = time.monotonic()
    for field in (make_field("rational"), make_field("quadratic", -1)):
        last_x = 0
        for s in range(1, 9):
            cert = effective_bound(field, s)
            assert verify_certificate(cert) == (True, "")
            assert cert.field == field and cert.s == s
            assert cert.eta1 + cert.eta2 < 1
            r = isqrt(cert.x)
            assert r * r == cert.x and cert.x >= 4
            assert cert.x >= last_x
            last_x = cert.x
            # the certificate's numbers recompute from scratch
            assert cert.w == rankin_W(field, cert.y)
            assert cert.eta2 == eta2_major(field, s, cert.y)
            assert cert.eta1 == cert.w * s / r
    assert time.monotonic() - t0 < 600


def test_min_norm_above_bound_blocks_covering():
    field = make_field("rational")
    cert = effective_bound(field, 1)
    p1 = int(sympy.nextprime(cert.x))
    p2 = int(sympy.nextprime(p1))
    moduli = [ideal_from_gens(field, [(p, 0)]) for p in (p1, p2)]
    mc = certify_moduli(field, moduli)
    assert mc.verdict == "certified-noncover"
    assert mc.s == 1 and mc.eta < 1


# ---------------------------------------------------------------------- CLI


CLI_CASES = [
    ("check_classic.json", ["check", "--input", str(DATA / "classic.json")]),
    ("check_near.json", ["check", "--input", str(DATA / "near.json")]),
    (
        "certify_near_threshold10.json",
        ["certify", "--input", str(DATA / "near.json"), "--delta", "threshold:10"],
    ),
    (
        "certify_classic_default.json",
        ["certify", "--input", str(DATA / "classic.json")],
    ),
    (
        "certify_single2_explicit0.json",
        ["certify", "--input", str(DATA / "single2.json"), "--delta", "explicit:0"],
    ),
]


def test_cli_golden_byte_identity():
    for name, args in CLI_CASES:
        want = (GOLDEN / name).read_bytes()
        proc = subprocess.run(
            [sys.executable, "-m", "coverdist.cli", *args], capture_output=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == want
    # repeated runs in one configuration agree byte for byte
    name, args = CLI_CASES[3]
    cmd = [sys.executable, "-m", "coverdist.cli", *args]
    first = subprocess.run(cmd, capture_output=True).stdout
    second = subprocess.run(cmd, capture_output=True).stdout
    assert first == second == (GOLDEN / name).read_bytes()
