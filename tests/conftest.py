import random
from fractions import Fraction

import pytest

from coverdist import (
    certify_moduli,
    ideal_from_gens,
    ideal_mul,
    ideal_norm,
    make_field,
    primes_up_to_norm,
    residue_at,
    unit_ideal,
    validate,
)

FIELD_KEYS = ["rational", -1, -5, 5, 2, -3]


def get_field(key):
    if key == "rational":
        return make_field("rational")
    return make_field("quadratic", key)


def majorant_rows(inst, delta):
    """certify_moduli's contribution per level for the moduli of inst, with
    every delta equal: the m1 majorants at delta 0, and at delta 1/2, where
    m2/(4 delta (1 - delta)) = m2, the m2 majorants. Row j is at the
    prime of level j."""
    moduli = [c.modulus for c in inst.classes]
    cert = certify_moduli(inst.field, moduli, inst.s, ("explicit", [delta] * inst.depth))
    assert [r.prime for r in cert.rows] == [p for p, _ in inst.primes]
    return [r.contribution for r in cert.rows]


@pytest.fixture(scope="session")
def fields():
    return {k: get_field(k) for k in FIELD_KEYS}


def _random_modulus(rng, field, pool, budget):
    """A distinguishable modulus: one top prime, optional smaller cofactors.

    Returns (ideal, exps) where exps maps pool index -> exponent, or None
    if nothing fits in the norm budget.
    """
    fits = [i for i, p in enumerate(pool) if p.norm <= budget]
    if not fits:
        return None
    top = rng.choice(fits)
    exps = {top: 1}
    norm = pool[top].norm
    if rng.random() < 0.35 and norm * pool[top].norm <= budget:
        exps[top] = 2
        norm *= pool[top].norm
    smaller = [i for i, p in enumerate(pool) if p.norm < pool[top].norm]
    rng.shuffle(smaller)
    for i in smaller[: rng.randrange(3)]:
        if norm * pool[i].norm > budget:
            break
        exps[i] = 1
        norm *= pool[i].norm
    ideal = unit_ideal(field)
    for i, e in exps.items():
        for _ in range(e):
            ideal = ideal_mul(ideal, pool[i].ideal)
    return ideal, exps


def make_instance(rng, key, max_q_norm, max_classes):
    field = get_field(key)
    pool = primes_up_to_norm(field, 60)
    q_exps = {}
    raw = []
    want = rng.randrange(1, max_classes + 1)
    for _ in range(want):
        got = _random_modulus(rng, field, pool, max_q_norm)
        if got is None:
            break
        ideal, exps = got
        merged = dict(q_exps)
        for i, e in exps.items():
            merged[i] = max(merged.get(i, 0), e)
        q_norm = 1
        for i, e in merged.items():
            q_norm *= pool[i].norm ** e
        if q_norm > max_q_norm:
            if raw:
                continue
            break
        q_exps = merged
        res = residue_at(rng.randrange(ideal_norm(ideal)), ideal)
        raw.append((res, ideal))
    if not raw:
        p = pool[0]
        raw.append(((0, 0), p.ideal))
    return validate(field, raw)


@pytest.fixture(scope="session")
def corpus():
    rng = random.Random(188411)
    caps = [30] * 4 + [120] * 3 + [900] * 2 + [10000]
    out = []
    while len(out) < 520:
        key = FIELD_KEYS[len(out) % len(FIELD_KEYS)]
        cap = rng.choice(caps)
        out.append(make_instance(rng, key, cap, 12))
    return out


@pytest.fixture(scope="session")
def classic_cover():
    """0 mod 2, 0 mod 3, 1 mod 4, 5 mod 6, 7 mod 12 covers Z."""
    field = make_field("rational")
    data = [(0, 2), (0, 3), (1, 4), (5, 6), (7, 12)]
    raw = [((r, 0), ideal_from_gens(field, [(m, 0)])) for r, m in data]
    return validate(field, raw)


@pytest.fixture(scope="session")
def near_cover():
    """0 mod 2, 1 mod 4: misses 3 mod 4."""
    field = make_field("rational")
    raw = [
        ((0, 0), ideal_from_gens(field, [(2, 0)])),
        ((1, 0), ideal_from_gens(field, [(4, 0)])),
    ]
    return validate(field, raw)


@pytest.fixture(scope="session")
def gauss_cover():
    """0 mod (1+i), 1 mod (2) over Z[i]: misses i mod (2)."""
    field = get_field(-1)
    raw = [
        ((0, 0), ideal_from_gens(field, [(1, 1)])),
        ((1, 0), ideal_from_gens(field, [(2, 0)])),
    ]
    return validate(field, raw)


ZERO = Fraction(0)
HALF = Fraction(1, 2)


def zero_policy(instance):
    return [ZERO] * instance.depth


def half_policy(instance):
    return [HALF] * instance.depth
