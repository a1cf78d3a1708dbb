"""The public surface of the package root, which loads its layers lazily.

`import semiflow` imports only `semiflow.expr` and `semiflow.maps`; every
other export is imported from its home module on first use. These tests pin
the names the root offers, check that each one is the object its home
module holds, and check in a fresh interpreter what the bare import loads.
"""

from __future__ import annotations

import importlib
import os
import pathlib
import subprocess
import sys
import types

import pytest

import semiflow

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# every export of the root, by the module that defines it
HOMES = {
    "expr": (
        "Binary", "Const", "EvalDomainError", "Expr", "ExprError", "ParseError",
        "UnboundVariableError", "Unary", "Var", "diff", "evaluate", "free_vars", "parse_expr",
        "substitute_many", "to_text",
    ),
    "maps": ("SmoothMap", "compose", "finite_diff", "identity_map", "map_from_exprs", "scalar_map"),
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
# the layers readable as root attributes; rootfind exports nothing to the root
SUBMODULES = (*HOMES, "rootfind")
EXPORTS = {name: module for module, names in HOMES.items() for name in names}
PUBLIC = sorted({*EXPORTS, *SUBMODULES})


def _fresh(code: str) -> str:
    """Standard output of `code` run in a new interpreter that imports from src/."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    return done.stdout


def test_all_lists_every_public_name():
    assert len(EXPORTS) == 90 and len(SUBMODULES) == 10 and len(PUBLIC) == 100
    assert semiflow.__all__ == PUBLIC


def test_dir_and_star_import_see_the_pinned_public_names():
    # in a new interpreter, so that no layer another test imported adds to the names
    out = _fresh(
        "import semiflow\n"
        "print(*(name for name in dir(semiflow) if not name.startswith('_')))\n"
        "namespace = {}\n"
        "exec('from semiflow import *', namespace)\n"
        "print(*sorted(name for name in namespace if not name.startswith('_')))"
    )
    seen_by_dir, seen_by_star = out.splitlines()
    assert seen_by_dir.split() == PUBLIC
    assert seen_by_star.split() == PUBLIC


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_an_export_is_the_object_its_home_module_holds(name):
    home = importlib.import_module(f"semiflow.{EXPORTS[name]}")
    assert getattr(semiflow, name) is getattr(home, name)


@pytest.mark.parametrize("name", SUBMODULES)
def test_a_layer_is_a_root_attribute(name):
    module = getattr(semiflow, name)
    assert isinstance(module, types.ModuleType)
    assert module is sys.modules[f"semiflow.{name}"]


def test_a_star_import_binds_the_objects_the_root_holds():
    namespace: dict = {}
    exec("from semiflow import *", namespace)
    assert all(namespace[name] is getattr(semiflow, name) for name in PUBLIC)


@pytest.mark.parametrize("name", ["no_such_name", "tanh"])
def test_an_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"module 'semiflow' has no attribute '{name}'"):
        getattr(semiflow, name)


def test_a_bare_import_loads_only_the_expression_engine():
    loaded = _fresh(
        "import sys, semiflow; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'semiflow'))"
    )
    assert loaded.split() == ["semiflow", "semiflow.expr", "semiflow.maps"]


def test_a_lazy_export_is_bound_in_the_root_on_first_use():
    out = _fresh(
        "import sys, semiflow\n"
        "before = 'TimeAction' in vars(semiflow)\n"
        "from semiflow import TimeAction\n"
        "print(before, vars(semiflow)['TimeAction'] is sys.modules['semiflow.actions'].TimeAction)"
    )
    assert out.split() == ["False", "True"]
