"""Every public name of the package has a caller in the package's entry points.

The entry points are the suites registered in `semiflow.suites.SUITES`,
the command line (`semiflow.cli.main` and its Python twin `run_suite`)
and every experiment script under `scripts/`. The walk is static: it
parses the sources with `ast`, starts at those entry points, and follows
every name a reached definition loads (through `from ... import`) to the
definition it names. Type annotations are not followed: they run no code.

A method is reached when its class is reached and some reached code reads
an attribute of the method's name, so a method that shares its name with
a reached one counts as reached too; dunder methods are reached with
their class. A field (an annotated name in a class body, as a dataclass
declares one) is reached by the same rule. The public surface checked is
every name `semiflow/__init__.py` exports, every public module-level name
of a `semiflow` module, and every public method and field of a reached
class. The root exports some names through
`from .x import` and the rest through its table of lazy exports,
`_LAZY_EXPORTS` ({module: (name, ...)}), which the walk reads with
`ast.literal_eval` and follows like an import.
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

# public names no entry point reaches, each with the reason it stays
ALLOWED_UNREACHED = {
    # perfbench/tracer.py patches this name to time the probe layer
    ("semiflow.actions", "injectivity_probe"),
    # perfbench/tracer.py patches this name to time the Burgers residual;
    # the burgers suite reads the residual of the whole kink family instead
    ("semiflow.evolution_pde", "burgers_residual"),
    # perfbench/tracer.py patches these names to count and time the ODE residual
    # layer, and they stay until the tracer stops patching from outside (ROADMAP
    # item 10); the ode-residuals suite reads each residual map on its region instead
    ("semiflow.enforcing", "ode_residual_explicit"),
    ("semiflow.enforcing", "ode_residual_homotopy"),
    ("semiflow.enforcing", "ode_residual_milder"),
    # the kink at one parameter tuple, the map of (t, x) the family is
    # pinned against; the burgers suite evaluates the family itself
    ("semiflow.evolution_pde", "burgers_soliton"),
    # a chart's parameter names, its inputs, for library callers; the suites
    # sample a chart on a grid and need no names
    ("semiflow.semisym", "ParametricFunction", "params"),
    # the time a dichotomy sample was probed at, for library callers; the
    # suites read only the classification the samples give
    ("semiflow.actions", "InvertibilitySample", "t"),
    # the slice's root y* and its condition number, which explain one
    # recovery to a library caller; the suites compare only the value
    ("semiflow.reduction", "RecoveryResult", "ystar"),
    ("semiflow.reduction", "RecoveryResult", "condition"),
}

# the package root's table of the names it imports on first use
LAZY_TABLE = "_LAZY_EXPORTS"

ENTRY_POINTS = [
    ("semiflow.suites", "SUITES"),
    ("semiflow.cli", "main"),
    ("semiflow.cli", "run_suite"),
]


def _children(node: ast.AST):
    """Every node below `node`, annotations left out."""
    for name, value in ast.iter_fields(node):
        if name in ("annotation", "returns"):
            continue
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, ast.AST):
                yield item
                yield from _children(item)


class _Module:
    """The top-level definitions, imports and bare statements of one file."""

    def __init__(self, path: pathlib.Path):
        self.defs: dict[str, ast.AST] = {}
        self.methods: dict[tuple[str, str], ast.AST] = {}
        self.fields: set[tuple[str, str]] = set()
        self.imports: dict[str, tuple[str, str]] = {}
        self.statements: list[ast.AST] = []  # run on import, defining nothing
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.ImportFrom):
                source = stmt.module or ""
                if stmt.level == 1:
                    source = f"semiflow.{source}".rstrip(".")
                if source.split(".")[0] == "semiflow":
                    for alias in stmt.names:
                        self.imports[alias.asname or alias.name] = (source, alias.name)
            elif isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                self.defs[stmt.name] = stmt
                if isinstance(stmt, ast.ClassDef):
                    for item in stmt.body:
                        if isinstance(item, ast.FunctionDef):
                            self.methods[stmt.name, item.name] = item
                        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                            self.fields.add((stmt.name, item.target.id))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.defs[target.id] = stmt
            elif isinstance(stmt, ast.Import) or (
                isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            ):
                continue  # a module import or a docstring
            else:
                self.statements.append(stmt)

    def body(self, key: tuple[str, ...]) -> list[ast.AST]:
        """The code of a definition: a class without its methods, which are
        definitions of their own."""
        if len(key) == 2:
            return [self.methods[key]]
        node = self.defs[key[0]]
        if not isinstance(node, ast.ClassDef):
            return [node]
        return [
            *node.decorator_list,
            *node.bases,
            *(kw.value for kw in node.keywords),
            *(item for item in node.body if not isinstance(item, ast.FunctionDef)),
        ]


def _modules() -> dict[str, _Module]:
    mods = {}
    for path in sorted((ROOT / "src" / "semiflow").glob("*.py")):
        name = "semiflow" if path.stem == "__init__" else f"semiflow.{path.stem}"
        mods[name] = _Module(path)
    for path in sorted((ROOT / "scripts").glob("*.py")):
        mods[f"scripts.{path.stem}"] = _Module(path)
    _read_lazy_table(mods["semiflow"])
    return mods


def _read_lazy_table(root: _Module) -> None:
    """Record each entry of the root's lazy table as the import it stands for."""
    for module, names in ast.literal_eval(root.defs[LAZY_TABLE].value).items():
        root.imports.update((name, (f"semiflow.{module}", name)) for name in names)


def _resolve(mods: dict[str, _Module], module: str, name: str) -> tuple[str, str] | None:
    """The (module, name) that defines `name` as seen from `module`."""
    mod = mods[module]
    if name in mod.defs:
        return module, name
    if name in mod.imports:
        return _resolve(mods, *mod.imports[name])
    return None


def reached_definitions(mods: dict[str, _Module]) -> set[tuple[str, ...]]:
    """Keys (module, name) and (module, class, method or field) reached
    from the entry points."""
    reached: set[tuple[str, ...]] = set()
    attributes: set[str] = set()
    todo: list[tuple[str, ...]] = []

    def load(module: str, nodes: list[ast.AST]) -> None:
        for node in nodes:
            for sub in (node, *_children(node)):
                if isinstance(sub, ast.Name):
                    key = _resolve(mods, module, sub.id)
                    if key is not None and key not in reached:
                        reached.add(key)
                        todo.append(key)
                elif isinstance(sub, ast.Attribute):
                    attributes.add(sub.attr)

    reached.update(ENTRY_POINTS)
    todo.extend(ENTRY_POINTS)
    for name, mod in mods.items():
        if name.startswith("scripts.") or name == "semiflow.cli":
            load(name, mod.statements)
    while todo:
        while todo:
            key = todo.pop()
            load(key[0], mods[key[0]].body(key[1:]))
        for name, mod in mods.items():
            for cls, meth in mod.methods:
                key = (name, cls, meth)
                dunder = meth.startswith("__") and meth.endswith("__")
                if key not in reached and (name, cls) in reached and (dunder or meth in attributes):
                    reached.add(key)
                    todo.append(key)
    # a field has no code of its own, so reading it reaches nothing further
    for name, mod in mods.items():
        reached |= {(name, cls, f) for cls, f in mod.fields if (name, cls) in reached and f in attributes}
    return reached


def root_exports(mods: dict[str, _Module]) -> dict[str, tuple[str, str] | None]:
    """Each name the package root exports, with the definition it names."""
    return {name: _resolve(mods, *source) for name, source in mods["semiflow"].imports.items()}


def unreached_public_names() -> list[tuple[str, ...]]:
    mods = _modules()
    reached = reached_definitions(mods)
    surface = set(root_exports(mods).values())
    for name, mod in mods.items():
        if name.startswith("semiflow."):
            surface |= {(name, d) for d in mod.defs if not d.startswith("_")}
            surface |= {
                (name, cls, member)
                for cls, member in (*mod.methods, *mod.fields)
                if not member.startswith("_") and (name, cls) in reached
            }
    return sorted(key for key in surface if key not in reached)


def test_every_public_name_is_reached_from_an_entry_point():
    unreached = [key for key in unreached_public_names() if key not in ALLOWED_UNREACHED]
    assert unreached == [], "public names no suite, cli path or script reaches: " + ", ".join(
        ".".join(key) for key in unreached
    )


def test_every_root_export_names_a_public_definition():
    exports = root_exports(_modules())
    assert len(exports) == 90
    wrong = sorted(name for name, key in exports.items() if key is None or key[-1].startswith("_"))
    assert wrong == [], "root exports naming no public definition: " + ", ".join(wrong)


def test_every_allowed_exception_is_still_public_and_unreached():
    assert set(unreached_public_names()) >= ALLOWED_UNREACHED


def test_the_walk_follows_imports_and_methods():
    reached = reached_definitions(_modules())
    # a suite reaches the checks it runs, through `from .x import y`
    assert ("semiflow.reduction", "one_time_law_check") in reached
    # the cli reaches the flow export, a method read as an attribute
    assert ("semiflow.reduction", "Trajectory", "write_csv") in reached
    # a script reaches what it imports
    assert ("semiflow.enforcing", "diffeo_time_set") in reached
    # a dataclass field is reached when reached code reads it
    assert ("semiflow.report", "VerificationReport", "max_deviation") in reached
    assert ("semiflow.reduction", "RecoveryResult", "value") in reached


def test_the_walk_reads_the_lazy_table_of_the_root():
    mods = _modules()
    exports = root_exports(mods)
    # an eager export and a lazy one both resolve to their home definitions
    assert exports["parse_expr"] == ("semiflow.expr", "parse_expr")
    assert exports["integrate_flow"] == ("semiflow.reduction", "integrate_flow")
    # a table entry naming a missing or a private definition resolves to none or a private one
    root = mods["semiflow"]
    root.defs[LAZY_TABLE] = ast.parse('T = {"grids": ("no_such_name", "_near_pairs")}').body[0]
    _read_lazy_table(root)
    exports = root_exports(mods)
    assert exports["no_such_name"] is None
    assert exports["_near_pairs"] == ("semiflow.grids", "_near_pairs")


# where each name of the compiled-code boundary may be read: a whole module,
# or one top-level definition of it. `raise_from_tree_walk` turns an error
# of compiled code into the tree walk's; the functions `compile_expr` makes,
# a map's call and the RK4 kernel's failed stage call it. A map's raw lambda
# (`SmoothMap.compiled`) raises the compiled code's error, so only the map
# reads it; every check calls a map or a `compile_expr` function instead.
BOUNDARY_READERS = {
    "raise_from_tree_walk": {
        ("semiflow.expr",),
        ("semiflow.maps",),
        ("semiflow.reduction", "_stage_failed"),
    },
    "compiled": {("semiflow.maps",)},
}


def boundary_reads() -> list[tuple[str, str, str]]:
    """(name, module, top-level definition) of every read of a name in
    BOUNDARY_READERS, as a variable or an attribute, in the package and
    the scripts."""
    paths = {f"semiflow.{p.stem}": p for p in (ROOT / "src" / "semiflow").glob("*.py")}
    paths.update((f"scripts.{p.stem}", p) for p in (ROOT / "scripts").glob("*.py"))
    reads = []
    for module, path in sorted(paths.items()):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            where = getattr(stmt, "name", "<module>")
            for node in ast.walk(stmt):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name in BOUNDARY_READERS:
                    reads.append((name, module, where))
    return reads


def test_compiled_code_is_read_only_through_its_boundaries():
    reads = boundary_reads()
    assert {name for name, _, _ in reads} == set(BOUNDARY_READERS)
    stray = sorted({
        f"{module}.{where} reads {name}"
        for name, module, where in reads
        if (module,) not in BOUNDARY_READERS[name]
        and (module, where) not in BOUNDARY_READERS[name]
    })
    assert stray == [], "compiled code read past its boundary: " + ", ".join(stray)
