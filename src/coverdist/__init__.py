"""Covering systems over Z and quadratic integer rings: exact coverage
checks, distortion measures with rational moment certificates, and
effective minimum-norm bounds."""

from .bounds import (
    alpha_upper_bound,
    certify_moduli,
    class_measure_bound,
    effective_bound,
    eta1_major,
    eta2_major,
    m1_bound,
    m2_bound,
    mertens_sum_bound,
    rankin_W,
    verify_certificate,
)
from .distortion import (
    DistortionProblem,
    alpha,
    certify,
    initial_state,
    mask_mass,
    moments,
    run,
    step,
    target_mass,
)
from .errors import (
    CoverdistError,
    DeltaOutOfRange,
    EnumerationTooLarge,
    IdealNotDividingQ,
    IndistinguishableModulus,
    InputError,
    MixedFields,
    NonSquarefree,
    NormTooLargeToFactor,
    PMinOnIndistinguishable,
    ResourceError,
    SoundnessError,
    UnitIdeal,
    UnitModulus,
    XNotPerfectSquare,
    YTooSmall,
    ZeroIdeal,
)
from .ring import (
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
from .system import (
    CongruenceClass,
    build_problem,
    covers,
    multiplicity,
    resolve_delta_policy,
    resolve_policy_for_primes,
    target_mask,
    validate,
)

__version__ = "0.1.0"
