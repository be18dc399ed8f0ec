"""Seeded inputs for the benchmark workloads, in plain Python.

The generator does not import coverdist: it builds problem documents in the
CLI's JSON input format from its own small model of the rings, so the
program under test only ever sees finished documents.

Every input a run can use comes from a fixed pool built from MASTER_SEED,
and every pool entry has its expected output pinned in pins.json. The run
seed chooses which pool entries a run uses and in which order; the same
seed always gives the same inputs.
"""

import hashlib
import json
import random
from math import gcd
from typing import NamedTuple

MASTER_SEED = 20230213
WORKLOADS = ["certify-deep", "bound-sweep"]


class Field(NamedTuple):
    label: str
    trace: int  # omega^2 = trace*omega - nm
    nm: int


def make_field(label):
    if label == "rational":
        return Field(label, 0, 0)
    d = int(label.split(":", 1)[1])
    if d % 4 == 1:
        return Field(label, 1, (1 - d) // 4)
    return Field(label, 0, -d)


def _mul(f, x, y):
    a, b = x
    c, d = y
    return (a * c - b * d * f.nm, a * d + b * c + b * d * f.trace)


def _hnf(f, gens):
    """(u, v, w): the ideal generated by gens, as the lattice u*Z + (v + w*omega)*Z."""
    if f.label == "rational":
        u = 0
        for a, _ in gens:
            u = gcd(u, a)
        return (abs(u), 0, 1)
    rows = []
    for g in gens:
        rows.append(list(g))
        rows.append(list(_mul(f, g, (0, 1))))
    top = None
    u = 0
    for r in rows:
        if r[1] and top is None:
            top = r
            continue
        while r[1]:  # Euclid on the omega column keeps the lattice unchanged
            q = top[1] // r[1]
            top, r = r, [top[0] - q * r[0], top[1] - q * r[1]]
        u = gcd(u, r[0])
    if top[1] < 0:
        top = [-top[0], -top[1]]
    return (u, top[0] % u, top[1])


def _ideal_mul(f, i, j):
    if f.label == "rational":
        return (i[0] * j[0], 0, 1)
    gi = [(i[0], 0), (i[1], i[2])]
    gj = [(j[0], 0), (j[1], j[2])]
    return _hnf(f, [_mul(f, x, y) for x in gi for y in gj])


def _is_prime(n):
    return n > 1 and all(n % p for p in range(2, int(n**0.5) + 1))


def prime_ideals(f, max_norm):
    """[(norm, hnf)] for the prime ideals of norm <= max_norm of a quadratic field."""
    out = []
    for p in range(2, max_norm + 1):
        if not _is_prime(p):
            continue
        roots = [r for r in range(p) if (r * r - f.trace * r + f.nm) % p == 0]
        if not roots:
            if p * p <= max_norm:
                out.append((p * p, (p, 0, p)))  # inert
        else:
            out.extend((p, (p, (-r) % p, 1)) for r in roots)  # split or ramified
    out.sort()
    return out


def _product(f, factors):
    """Ideal product of [(hnf, exponent)]."""
    acc = (1, 0, 1)
    for hnf, e in factors:
        for _ in range(e):
            acc = _ideal_mul(f, acc, hnf)
    return acc


def _class(f, rng, ideal):
    u, _, w = ideal
    if f.label == "rational":
        return {"residue": rng.randrange(u), "modulus": u}
    return {
        "residue": [rng.randrange(u), rng.randrange(w)],
        "modulus": {"hnf": list(ideal)},
    }


# ------------------------------------------------------------ certify-deep


class DeepShape(NamedTuple):
    name: str
    field: str
    q: list  # [(prime norm, hnf, exponent)]: Q is their product
    classes: int


def _rational_q(powers):
    return [(p, (p, 0, 1), e) for p, e in powers]


def _gauss_q(norms_exps):
    f = make_field("quadratic:-1")
    first = {}
    for norm, hnf in prime_ideals(f, max(n for n, _ in norms_exps)):
        first.setdefault(norm, hnf)  # one prime per norm: distinct norms
    return [(n, first[n], e) for n, e in norms_exps]


# Shapes of similar size (|O/Q| 27720 to 39780, depth 5 and 6), so that the
# median operation is a typical one rather than the boundary between a cheap
# and a dear shape.
DEEP_SHAPES = [
    DeepShape("q27720", "rational", _rational_q([(2, 3), (3, 2), (5, 1), (7, 1), (11, 1)]), 48),
    DeepShape("q30030", "rational", _rational_q([(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1)]), 48),
    DeepShape("q36036", "rational", _rational_q([(2, 2), (3, 2), (7, 1), (11, 1), (13, 1)]), 48),
    DeepShape("zi39780", "quadratic:-1", _gauss_q([(2, 2), (5, 1), (9, 1), (13, 1), (17, 1)]), 48),
]
DEEP_POOL = 6  # instances per shape


def deep_instance(shape, rng):
    """Classes with distinct moduli dividing Q, then one repeated: s = 2.

    The full prime powers come first so that the moduli intersect to Q.
    """
    f = make_field(shape.field)
    exps = [e for _, _, e in shape.q]
    chosen = []
    for i in range(len(exps)):
        chosen.append(tuple(e if k == i else 0 for k, e in enumerate(exps)))
    seen = set(chosen)
    while len(chosen) < shape.classes - 1:
        vec = tuple(rng.randint(0, e) for e in exps)
        if any(vec) and vec not in seen:
            seen.add(vec)
            chosen.append(vec)
    chosen.append(rng.choice(chosen))
    classes = []
    for vec in chosen:
        ideal = _product(f, [(hnf, k) for (_, hnf, _), k in zip(shape.q, vec)])
        classes.append(_class(f, rng, ideal))
    return {"field": shape.field, "classes": classes}


def deep_pool():
    rng = random.Random(MASTER_SEED)
    out = {}
    for shape in DEEP_SHAPES:
        for k in range(DEEP_POOL):
            out[f"certify-deep/{shape.name}/{k}"] = deep_instance(shape, rng)
    return out


# ------------------------------------------------------------- bound-sweep

# Each of these stops its y search at y = 2^19 and takes 3 to 4 s through
# the CLI, so the median and p90 are those of one kind of operation.
# bound --s 8 (y = 2^21 or 2^22) takes 10 to 15 s: too few per run.
BOUND_OPS = [("rational", 3), ("quadratic:-1", 3), ("quadratic:-1", 4), ("quadratic:-3", 4)]


def bound_ops():
    return {
        f"bound-sweep/{field}/s{s}": ["bound", "--field", field, "--s", str(s)]
        for field, s in BOUND_OPS
    }


# -------------------------------------------------------------- operations


def cli_op(op_id, argv, doc=None):
    op = {"id": op_id, "argv": argv}
    if doc is not None:
        op["argv"] = argv + ["--input", "-"]
        op["stdin"] = json.dumps(doc)
    return op


def all_ops(workload):
    """Every operation a workload can run, keyed by id (the pinned set)."""
    if workload == "certify-deep":
        return {k: cli_op(k, ["certify"], doc) for k, doc in deep_pool().items()}
    if workload == "bound-sweep":
        return {k: cli_op(k, argv) for k, argv in bound_ops().items()}
    raise ValueError(f"unknown workload {workload!r}")


def rounds(workload, seed):
    """Endless sequence of rounds (lists of op ids) drawn by the run seed.

    Every round has the same make-up, so whole rounds keep the medians of
    different seeds comparable: certify-deep takes one pool instance of each
    shape, bound-sweep runs every (field, s) pair.
    """
    rng = random.Random(f"{workload}:{seed}")
    while True:
        if workload == "certify-deep":
            r = [f"certify-deep/{s.name}/{rng.randrange(DEEP_POOL)}" for s in DEEP_SHAPES]
        else:
            r = list(bound_ops())
        rng.shuffle(r)
        yield r


def input_sha256(op):
    key = {k: op[k] for k in ("argv", "stdin") if k in op}
    return hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()
