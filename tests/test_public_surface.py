import argparse
import dataclasses

import pytest

import sparsefactor
from sparsefactor import arith, cli, weakset

_SEARCH_FLAGS = ["--k", "--vmax", "--tmax", "--budget", "--multipliers",
                 "--seed"]

# Each subcommand takes only the flags it reads, each --method names the
# optional factor flags it reads, a weak class is set by its weight and
# exponent caps alone, the weak-class catalogue holds the six classes
# (every generate --class choice), the square scans query their sieve
# through four methods, and the package exports the engines, the result and budget
# types, the weak-class tools and the helpers the acceptance criteria use.
_SURFACE = {
    "commands": ["factor", "generate", "audit", "density"],
    "ENGINES": ["auto", "fermat", "xfermat", "bsgs", "sparsediff", "sparseexp",
                "trial", "pm1"],
    "ENGINES.auto": ["k", "vmax", "tmax", "multipliers", "trials"],
    "ENGINES.fermat": ["tmax"],
    "ENGINES.xfermat": ["k", "vmax", "tmax"],
    "ENGINES.bsgs": [],
    "ENGINES.sparsediff": ["k", "vmax", "multipliers"],
    "ENGINES.sparseexp": ["k", "vmax", "form", "trials"],
    "ENGINES.trial": [],
    "ENGINES.pm1": [],
    "SquareSieve": ["ascending", "values", "zigzag", "root"],
    "WeakClassSpec": ["class_id", "k", "v_max"],
    "CLASSES": ["a", "b", "c", "d", "f", "g"],
    "factor": ["-h", "--help", "--method", "--form", "--trials", "--json",
               "--workers", *_SEARCH_FLAGS],
    "generate": ["-h", "--help", "--class", "--bits", "--count", "--out",
                 "--format", "--k", "--vmax", "--seed"],
    "audit": ["-h", "--help", "--in", "--json", "--k", "--seed"],
    "sparsefactor": [
        "bsgs_fermat", "classic_fermat", "extended_fermat_offset",
        "extended_fermat_sparse", "sparse_difference_factor",
        "sparse_exponent_factor", "germain_factor", "cyclotomic_form_factor",
        "trial_division", "pollard_pm1",
        "Certificate", "FactorResult", "GenerationError", "LowOrderBaseError",
        "SearchBudget", "WeakClassReport", "result_to_json",
        "result_from_json", "verify_certificate",
        "WeakClassSpec", "audit", "generate_weak", "fermat_count",
        "romanoff_count", "balanced_bounds_check",
        "z_count", "naf_weight_stats", "step_count_bound", "naf", "weight",
    ],
}


def _commands():
    return next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("surface", sorted(_SURFACE))
def test_public_surface_is_pinned(surface):
    if surface == "sparsefactor":
        names = sparsefactor.__all__
        assert all(hasattr(sparsefactor, name) for name in names)
    elif surface == "commands":
        names = list(_commands())
    elif surface == "ENGINES":
        names = list(cli.ENGINES)
    elif surface.startswith("ENGINES."):
        names = list(cli.ENGINES[surface.partition(".")[2]][1])
    elif surface == "SquareSieve":
        names = [name for name in vars(arith.SquareSieve)
                 if not name.startswith("_")]
    elif surface == "CLASSES":
        names = list(weakset.CLASSES)
        assert _commands()["generate"]._option_string_actions[
            "--class"].choices == sorted(names)
    elif surface == "WeakClassSpec":
        names = [f.name for f in dataclasses.fields(sparsefactor.WeakClassSpec)]
    else:
        names = [opt for action in _commands()[surface]._actions
                 for opt in action.option_strings]
    assert sorted(names) == sorted(_SURFACE[surface])
