"""Covering systems over Z and quadratic integer rings: exact coverage
checks, distortion measures with rational moment certificates, and
effective minimum-norm bounds.

The names below are imported from their modules on first use (PEP 562),
so that a command that needs only prime norms never loads numpy, which
distortion imports.
"""

from importlib import import_module

_EXPORTS = {
    "bounds": (
        "certify_moduli", "effective_bound", "eta2_major", "rankin_W",
        "verify_certificate",
    ),
    "distortion": (
        "DistortionProblem", "certify", "run",
    ),
    "errors": (
        "CoverdistError", "DeltaOutOfRange", "EnumerationTooLarge",
        "IndistinguishableModulus", "InputError", "MixedFields", "NonSquarefree",
        "NormTooLargeToFactor", "PMinOnIndistinguishable", "ResourceError",
        "SoundnessError", "UnitIdeal", "UnitModulus", "YTooSmall", "ZeroIdeal",
    ),
    "ring": (
        "check_hnf", "elem_conj", "elem_mul", "elem_norm", "factor_ideal",
        "ideal_divides", "ideal_from_gens", "ideal_intersect", "ideal_mul",
        "ideal_norm", "ideal_principal", "in_class", "in_ideal", "is_distinguishable",
        "make_field", "p_min", "prime_norms_up_to", "primes_above", "primes_up_to_norm",
        "reduce", "residue_at", "unit_ideal",
    ),
    "system": (
        "CongruenceClass", "build_problem", "covers", "multiplicity",
        "resolve_delta_policy", "resolve_policy_for_primes", "validate",
    ),
}
_MODULE = {name: mod for mod, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE)

__version__ = "0.1.0"


def __getattr__(name):
    mod = _MODULE.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{mod}", __name__), name)
    globals()[name] = value
    return value
