"""Two-level nested logit demand toolkit.

Shares, Berry inversion, analytic Jacobians, sequential-choice Monte
Carlo, and synthetic-market estimation for a market -> group -> subgroup
-> product choice tree with an outside option.

``import hierlogit`` loads only the exception types; every other public
name loads its module on first access (PEP 562) and is kept here after.
"""

import importlib

from .errors import *  # noqa: F403  (every exception type)

__version__ = "0.1.0"

# the home module of every other public name
_LAZY = {name: module for module, names in {
    "hierarchy": ("OUTSIDE_ID", "ChoiceHierarchy", "NestingParams", "UtilityVector", "build_hierarchy"),
    "inversion": ("berry_invert", "numeric_invert", "regression_rows"),
    "jacobian": ("ShareJacobian", "fd_jacobian", "full_jacobian", "log_share_jacobian", "max_relative_error"),
    "montecarlo": ("ChoiceCounts", "SimConfig", "empirical_shares", "simulate_choices"),
    "shares": ("InclusiveValues", "ShareTable", "compute_shares"),
    "synth": ("EstimationResult", "SynthConfig", "estimate_linear", "generate_market"),
}.items() for name in names}
# former names, not in __all__
_RENAMED = {"validate_params": "NestingParams"}

__all__ = ["__version__", *(name for name in globals() if name.endswith("Error")), *_LAZY]


def __getattr__(name):
    target = _RENAMED.get(name, name)
    if target not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_LAZY[target]}"), target)
    return value


def __dir__():
    return sorted({*globals(), *_LAZY, *_RENAMED})
