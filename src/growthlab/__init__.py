"""Exact maximal subgroup/submodule growth for metabelian groups."""

from .arith import (
    PrimePowerIndex,
    is_prime,
    prime_power_decompose,
    primes_up_to,
)
from .groups import (
    GrowthReport,
    GrowthRow,
    MdegValue,
    NilpotentGf,
    SemidirectFgAbelian,
    WreathCyclic,
    ZkByZ,
    asymptotic_leading,
    growth_table,
    max_subgroups,
    mdeg,
)
from .modules import (
    GrowthType,
    MatrixAction,
    ModuleInvariants,
    Presented,
    PresentedFiber,
    SpectrumEntry,
    chain_count,
    count_max_submodules,
    fiber_mod_p,
    growth_type_classify,
    joint_spectrum,
    module_invariants,
    split_triv_nontriv,
)
from .poly import FactorizationModP, count_irreducibles, factor_mod_p

__all__ = [
    "FactorizationModP",
    "GrowthReport",
    "GrowthRow",
    "GrowthType",
    "MatrixAction",
    "MdegValue",
    "ModuleInvariants",
    "NilpotentGf",
    "Presented",
    "PresentedFiber",
    "PrimePowerIndex",
    "SemidirectFgAbelian",
    "SpectrumEntry",
    "WreathCyclic",
    "ZkByZ",
    "asymptotic_leading",
    "chain_count",
    "count_irreducibles",
    "count_max_submodules",
    "factor_mod_p",
    "fiber_mod_p",
    "growth_table",
    "growth_type_classify",
    "is_prime",
    "joint_spectrum",
    "max_subgroups",
    "mdeg",
    "module_invariants",
    "prime_power_decompose",
    "primes_up_to",
    "split_triv_nontriv",
]

__version__ = "0.1.0"
