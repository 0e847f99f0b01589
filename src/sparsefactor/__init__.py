"""sparsefactor: factoring toolkit for integers with sparse additive structure.

Engines: classic and extended Fermat scans, a BSGS sum search, the sparse
difference and sparse exponent methods, plus trial-division and p-1
baselines.  Around them: a weak-instance generator/auditor and exact
density counters for desk-scale experiments.
"""

from .arith import pollard_pm1, trial_division, z_count
from .expansions import naf, naf_weight_stats, weight
from .fermat import (
    bsgs_fermat,
    classic_fermat,
    extended_fermat_offset,
    extended_fermat_sparse,
    step_count_bound,
)
from .model import (
    Certificate,
    FactorResult,
    GenerationError,
    LowOrderBaseError,
    SearchBudget,
    WeakClassReport,
    result_from_json,
    result_to_json,
    verify_certificate,
)
from .sparse_diff import sparse_difference_factor
from .sparse_exp import cyclotomic_form_factor, germain_factor, sparse_exponent_factor
from .weakset import (
    WeakClassSpec,
    audit,
    balanced_bounds_check,
    fermat_count,
    generate_weak,
    romanoff_count,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "FactorResult",
    "GenerationError",
    "LowOrderBaseError",
    "SearchBudget",
    "WeakClassReport",
    "WeakClassSpec",
    "audit",
    "balanced_bounds_check",
    "bsgs_fermat",
    "classic_fermat",
    "cyclotomic_form_factor",
    "extended_fermat_offset",
    "extended_fermat_sparse",
    "fermat_count",
    "generate_weak",
    "germain_factor",
    "naf",
    "naf_weight_stats",
    "pollard_pm1",
    "result_from_json",
    "result_to_json",
    "romanoff_count",
    "sparse_difference_factor",
    "sparse_exponent_factor",
    "step_count_bound",
    "trial_division",
    "verify_certificate",
    "weight",
    "z_count",
]
