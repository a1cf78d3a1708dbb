"""semiflow: symbolic-numeric toolkit for one-parameter semigroup actions,
singular evolution operators, and semi-symmetries of PDEs.

`import semiflow` loads only the expression engine, `semiflow.expr` and
`semiflow.maps`. Every other layer (grids, report, rootfind, actions,
enforcing, reduction, semisym, evolution_pde) loads on first use: the first
read of one of its exports from the package, or of the layer itself
(`semiflow.reduction`), imports the layer and binds the name here, so later
reads are plain attribute lookups. `from semiflow import X` and
`from semiflow import *` work as for eager imports.
"""

from .expr import (
    Binary,
    Const,
    EvalDomainError,
    Expr,
    ExprError,
    ParseError,
    UnboundVariableError,
    Unary,
    Var,
    diff,
    evaluate,
    free_vars,
    parse_expr,
    substitute_many,
    to_text,
)
from .maps import SmoothMap, compose, finite_diff, identity_map, map_from_exprs, scalar_map

# the exports of every other layer, by home module; each layer loads on first use
_LAZY_EXPORTS = {
    "grids": ("Axis", "SamplingGrid", "grid1d", "grid2d"),
    "report": ("VerificationReport", "Witness", "deviation"),
    "actions": (
        "DichotomyResult", "PreconditionError", "TimeAction", "classify_samples",
        "composition_check", "dichotomy_classify", "identity_check", "injectivity_probe",
        "noninvertibility_witness_sqrt",
    ),
    "enforcing": (
        "MediatorFunction", "bump_map", "cuberoot_group_action", "diffeo_classifier",
        "diffeo_time_set", "homotopy_action", "k_action_relation_check", "limit_ic_check",
        "mediator", "milder_action", "milder_ode_system", "not_c1_check", "ode_residual_explicit",
        "ode_residual_homotopy", "ode_residual_milder", "sqrt_action", "sqrt_mediator",
        "square_map",
    ),
    "reduction": (
        "EvolutionOp", "IntegrationError", "OdeSystem", "Trajectory", "augment_system",
        "first_component_check", "flow_vs_closed_form", "gls_one_time_op", "gls_two_time_op",
        "integrate_flow", "one_time_law_check", "quadratic_one_time_op", "quadratic_system",
        "quadratic_two_time_op", "recover_evolution", "recover_evolution_detailed",
        "two_time_law_check",
    ),
    "semisym": (
        "ParametricFunction", "act", "canonical_parametric", "is_graph", "regraph",
        "residual_max", "rotation_map", "semi_symmetry_check", "translation_wave",
        "vertical_map",
    ),
    "evolution_pde": (
        "burgers_pde", "burgers_residual", "burgers_soliton", "heat_flow_demo", "heat_kernel",
        "param_flow_check", "soliton_param_flow", "soliton_translation_check",
    ),
}
_HOME = {name: module for module, names in _LAZY_EXPORTS.items() for name in names}
# the layers themselves are package attributes too (`semiflow.reduction`); rootfind
# exports nothing here but is read as one
_LAZY_MODULES = {*_LAZY_EXPORTS, "rootfind"}

# every public name: the eager exports with their modules expr and maps, then the lazy ones
__all__ = sorted(
    {*(name for name in globals() if not name.startswith("_")), *_HOME, *_LAZY_MODULES}
)


def __getattr__(name: str):
    from importlib import import_module

    if name in _LAZY_MODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
