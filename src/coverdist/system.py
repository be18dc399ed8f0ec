"""Covering systems of congruence classes a_i + I_i and their level data.

factor_moduli, shared by validate and bounds.certify_moduli, factors every
modulus, requires each to be distinguishable (unique prime of maximal
norm), computes Q = intersection of the moduli and orders the primes of Q
by ascending norm (ties by HNF) to fix the levels of the distortion run.

numpy and the distortion engine load only inside covers and build_problem,
the functions that build arrays over O/Q, so that certify-moduli factors
and resolves its deltas without them.
"""

from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from . import kernels, ring
from .errors import (
    DeltaOutOfRange,
    EnumerationTooLarge,
    IndistinguishableModulus,
    InputError,
    MixedFields,
    SoundnessError,
    UnitModulus,
)
from .kernels import DEFAULT_MAX_ENUM


class CongruenceClass(NamedTuple):
    residue: tuple  # reduced mod modulus
    modulus: ring.Ideal


class ClassData(NamedTuple):
    level: int  # j with P_min(I_i) = p_j (1-based)
    exponent: int  # exponent of p_j in I_i
    cofactor: ring.Ideal  # I_i with the p_j part removed


class CoveringInstance(NamedTuple):
    field: ring.FieldSpec
    classes: list
    s: int
    q: ring.Ideal
    primes: list  # [(PrimeIdeal, exponent)] ascending by canonical key
    levels: list  # levels[j] = Q_j = product of p_1^e1 .. p_j^ej, levels[0] = (1)
    class_data: list  # per class

    @property
    def depth(self):
        return len(self.primes)


def multiplicity(moduli):
    """Largest number of times any single modulus occurs."""
    return max(Counter(moduli).values())


def factor_moduli(field, moduli):
    """(tops, q, q_factors) for moduli over `field`, none the unit ideal and
    each distinguishable: tops[i] = (P_min, exponent) of moduli[i], q their
    intersection and q_factors = factor_ideal(q). The first bad modulus raises."""
    if not moduli:
        raise InputError("empty moduli list")
    tops = []
    for i, modulus in enumerate(moduli):
        if modulus.field != field:
            raise MixedFields(f"modulus {i} is over {modulus.field.label()}")
        if ring.ideal_norm(modulus) == 1:
            raise UnitModulus(i)
        top = ring.pmin_with_exponent(ring.factor_ideal(modulus))
        if top is None:
            raise IndistinguishableModulus(i)
        tops.append(top)
    q = moduli[0]
    for modulus in moduli[1:]:
        q = ring.ideal_intersect(q, modulus)
    return tops, q, ring.factor_ideal(q)  # sorted by canonical key


def validate(field, raw_classes):
    """Check and normalize (residue, modulus) pairs into a CoveringInstance."""
    tops, q, q_factors = factor_moduli(field, [m for _, m in raw_classes])
    classes = [CongruenceClass(ring.reduce(r, m), m) for r, m in raw_classes]

    levels = [ring.unit_ideal(field)]
    for prime, e in q_factors:
        lv = levels[-1]
        for _ in range(e):
            lv = ring.ideal_mul(lv, prime.ideal)
        levels.append(lv)
    if levels[-1] != q:
        raise SoundnessError("level product does not reconstruct Q")

    by_ideal = {prime.ideal: j for j, (prime, _) in enumerate(q_factors, start=1)}
    class_data = []
    for (pmin, exponent), cls in zip(tops, classes):
        j = by_ideal.get(pmin.ideal)
        if j is None:
            raise SoundnessError("class P_min does not divide Q")
        cofactor = cls.modulus
        for _ in range(exponent):
            cofactor = ring._divide_by_prime(cofactor, pmin)
        class_data.append(ClassData(j, exponent, cofactor))

    return CoveringInstance(
        field=field,
        classes=classes,
        s=multiplicity([c.modulus for c in classes]),
        q=q,
        primes=q_factors,
        levels=levels,
        class_data=class_data,
    )


def _enum_size(q, max_enum):
    """|O/Q|, the residue count; EnumerationTooLarge if it exceeds max_enum."""
    n = ring.ideal_norm(q)
    if n > max_enum:
        raise EnumerationTooLarge(
            f"norm of Q has {n.bit_length()} bits, above the enumeration cutoff {max_enum}"
        )
    return n


def covers(instance, max_enum=DEFAULT_MAX_ENUM):
    """("covers", None) or ("uncovered", witness element), by enumeration."""
    import numpy as np

    q = instance.q
    mask = np.zeros(_enum_size(q, max_enum), dtype=np.bool_)
    for cls in instance.classes:
        kernels.mark_class(mask, cls.residue, cls.modulus, q)
    first = int(mask.argmin())  # the first unmarked residue, if any
    if mask[first]:
        return ("covers", None)
    witness = ring.residue_at(first, q)
    check_witness(instance, witness)
    return ("uncovered", witness)


def check_witness(instance, witness):
    """SoundnessError if the element witness lies in a class of the instance."""
    for cls in instance.classes:
        if ring.in_class(witness, cls.residue, cls.modulus):
            raise SoundnessError("uncovered witness lies in a class")


def _target_mask(instance, j):
    """B_j over O/Q_j, 1 <= j <= depth: the residues mod Q_j covered by the
    classes whose P_min is the j-th prime. Their moduli divide Q_j."""
    import numpy as np

    qj = instance.levels[j]
    mask = np.zeros(ring.ideal_norm(qj), dtype=np.bool_)
    for cls, data in zip(instance.classes, instance.class_data):
        if data.level == j:
            kernels.mark_class(mask, cls.residue, cls.modulus, qj)
    return mask


def build_problem(instance, max_enum=DEFAULT_MAX_ENUM):
    """The inverse system O/Q_0 <- O/Q_1 <- ... <- O/Q_J = O/Q in label
    space: label l of level j is the HNF index of a residue mod Q_j, with
    n/|O/Q_j| points, in cell 2 * (its residue mod Q_{j-1}) + [l in B_j].

    It checks that each level map gives every label one parent, in range.
    run checks that each fiber holds |O/Q_j|/|O/Q_{j-1}| labels, and
    run(checks=False), which skips every check, does not."""
    import numpy as np

    from .distortion import DistortionProblem

    n = _enum_size(instance.q, max_enum)  # refuse before any label array
    sizes, cells = [n], []
    for j in range(1, instance.depth + 1):
        lo, hi = instance.levels[j - 1], instance.levels[j]
        parent = kernels.level_labels(hi.u, hi.w, lo.u, lo.v, lo.w)
        count, above = ring.ideal_norm(hi), ring.ideal_norm(lo)
        if len(parent) != count or parent.min() < 0 or parent.max() >= above:
            raise SoundnessError(f"level {j} labels do not map O/Q_{j} onto O/Q_{j - 1}")
        parent *= 2  # in the label dtype: a prime norm is >= 2, so 2 * above <= count
        parent += _target_mask(instance, j)
        cells.append(parent)
        sizes.append(n // count)
    initial_codes = np.zeros(1, dtype=kernels.index_dtype(n))
    return DistortionProblem(sizes, cells, initial_codes, (Fraction(1, n),))


def _check_delta(delta):
    """delta as a Fraction; DeltaOutOfRange unless 0 <= delta <= 1/2."""
    delta = Fraction(delta)
    if not 0 <= delta <= Fraction(1, 2):
        raise DeltaOutOfRange(f"delta {delta} outside [0, 1/2]")
    return delta


def resolve_policy_for_primes(primes, s, policy):
    """Normalize a delta policy against a sorted [(PrimeIdeal, exponent)] list.

    policy: ("threshold", y) assigns 0 to primes of norm <= y and 1/2 above;
            ("explicit", [q0, q1, ...]) uses the given rationals;
            None means ("threshold", s^3).
    Returns a list of Fractions, one per level, each in [0, 1/2].
    """
    if policy is None:
        policy = ("threshold", s**3)
    kind = policy[0]
    if kind == "threshold":
        y = policy[1]
        if y < 1:
            raise DeltaOutOfRange(f"threshold {y} must be >= 1")
        return [
            Fraction(0) if prime.norm <= y else Fraction(1, 2)
            for prime, _ in primes
        ]
    if kind == "explicit":
        deltas = policy[1]
        if len(deltas) != len(primes):
            raise InputError(
                f"expected {len(primes)} deltas (one per prime of Q), got {len(deltas)}"
            )
        return [_check_delta(x) for x in deltas]
    raise InputError(f"unknown delta policy {kind!r}")


def resolve_delta_policy(instance, policy):
    return resolve_policy_for_primes(instance.primes, instance.s, policy)
