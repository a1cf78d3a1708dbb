"""Outside-in tracer for the semiflow package.

The tracer never edits a file of the package. It wraps selected public
functions and methods and rebinds each name in the namespace of every
``semiflow`` module that holds it, so that a call from one module into
another passes through the wrapper. A span is one such call: it records a
name, a start, an end, its parent span and the pass id.

Rules that follow from patching names rather than code:

* Recursive functions (``evaluate``, ``diff``) keep their binding in the
  module that defines them, so recursion creates no spans. Every other
  target is rebound in its own module too: ``semi_symmetry_check`` calls
  ``is_graph``, ``dichotomy_classify`` calls ``identity_check`` and
  ``flow_vs_closed_form`` calls ``integrate_flow`` inside their own
  modules, and those calls are what the per-layer metrics are about.
* Methods (``SmoothMap.__call__``, ``Trajectory.write_csv``, ...) are
  patched on their class, so every call of them is seen.
* A span nested directly inside a span of the same name (a composed map
  calling its parts, ``hybrid_root`` calling ``bisect``) adds its self
  time but is not counted as a further call.
* Per-point hot calls are aggregated into counters instead of being kept
  as span records, so memory stays bounded.

Self time is a span's duration minus the duration of its child spans.
``uninstall`` restores every name, class attribute and registry entry
that ``install`` replaced.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable

MODULES = (
    "semiflow",
    "semiflow.expr",
    "semiflow.maps",
    "semiflow.grids",
    "semiflow.report",
    "semiflow.rootfind",
    "semiflow.actions",
    "semiflow.enforcing",
    "semiflow.reduction",
    "semiflow.semisym",
    "semiflow.evolution_pde",
    "semiflow.suites",
    "semiflow.cli",
)


@dataclass
class SpanStats:
    """Aggregate of every span of one name."""

    calls: int = 0       # spans not nested directly in a span of the same name
    total_s: float = 0.0  # inclusive time of the counted calls
    self_s: float = 0.0   # self time of every span
    errors: int = 0       # counted calls that raised the name's error type
    extra: dict = field(default_factory=dict)

    def add(self, key: str, amount: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount


@dataclass(frozen=True)
class Target:
    """One function or method to wrap and the span name it reports under."""

    module: str
    attr: str            # "name" for a function, "Class.method" for a method
    span: str
    hot: bool = False    # aggregate only, keep no span records
    recursive: bool = False
    error: str = ""      # exception class name counted as an error
    hook: str = ""       # name of a Tracer method that adds extra counters


TARGETS = (
    Target("semiflow.expr", "parse_expr", "expr.parse"),
    Target("semiflow.expr", "diff", "expr.diff", recursive=True),
    Target("semiflow.expr", "compile_expr", "expr.compile", hot=True),
    Target("semiflow.expr", "evaluate", "expr.evaluate", hot=True, recursive=True),
    Target("semiflow.maps", "SmoothMap.__call__", "maps.call", hot=True, error="EvalDomainError"),
    Target("semiflow.maps", "finite_diff", "maps.finite_diff", hot=True),
    Target("semiflow.reduction", "integrate_flow", "reduction.integrate_flow", hook="_on_flow"),
    Target("semiflow.reduction", "Trajectory.write_csv", "reduction.csv", hook="_on_csv"),
    Target("semiflow.reduction", "first_component_check", "reduction.law_checks"),
    Target("semiflow.reduction", "one_time_law_check", "reduction.law_checks"),
    Target("semiflow.reduction", "two_time_law_check", "reduction.law_checks"),
    Target("semiflow.reduction", "flow_vs_closed_form", "reduction.law_checks"),
    Target("semiflow.reduction", "recover_evolution", "reduction.recover"),
    Target("semiflow.reduction", "recover_evolution_detailed", "reduction.recover"),
    Target("semiflow.rootfind", "scan_brackets", "rootfind", error="RootSearchError"),
    Target("semiflow.rootfind", "bisect", "rootfind", error="RootSearchError"),
    Target("semiflow.rootfind", "hybrid_root", "rootfind", error="RootSearchError"),
    Target("semiflow.rootfind", "newton", "rootfind", error="RootSearchError", hook="_on_newton"),
    Target("semiflow.semisym", "is_graph", "semisym.is_graph", hook="_on_is_graph"),
    Target("semiflow.semisym", "residual_max", "semisym.residual_max"),
    Target("semiflow.actions", "identity_check", "actions.checks"),
    Target("semiflow.actions", "composition_check", "actions.checks"),
    Target("semiflow.actions", "dichotomy_classify", "actions.dichotomy"),
    Target("semiflow.actions", "probe_evidence", "actions.probe", hook="_on_probe"),
    Target("semiflow.actions", "injectivity_probe", "actions.probe", hook="_on_probe"),
    Target("semiflow.enforcing", "diffeo_time_set", "enforcing.diffeo"),
    Target("semiflow.enforcing", "DiffeoClassifier.is_diffeo", "enforcing.diffeo"),
    Target("semiflow.enforcing", "ode_residual_explicit", "enforcing.ode_residual"),
    Target("semiflow.enforcing", "ode_residual_homotopy", "enforcing.ode_residual"),
    Target("semiflow.enforcing", "ode_residual_milder", "enforcing.ode_residual"),
    Target("semiflow.evolution_pde", "burgers_residual", "evolution_pde"),
    Target("semiflow.evolution_pde", "param_flow_check", "evolution_pde"),
    Target("semiflow.evolution_pde", "soliton_translation_check", "evolution_pde"),
    Target("semiflow.evolution_pde", "heat_flow_demo", "evolution_pde"),
    Target("semiflow.report", "VerificationReport.from_deviations", "report.from_deviations"),
    Target("semiflow.report", "VerificationReport.to_dict", "report.format"),
    Target("semiflow.report", "VerificationReport.one_line", "report.format"),
    Target("semiflow.report", "deviation", "report.deviation", hot=True),
    Target("semiflow.cli", "main", "cli"),
)


class Tracer:
    """Install with ``install()``, run the pass, then ``uninstall()``."""

    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self.stats: dict[str, SpanStats] = {}
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # frames: [name, child_s, span_id]
        self._next_id = 0
        self._undo: list[tuple] = []
        self.modules = [importlib.import_module(m) for m in MODULES]

    # -- installing and restoring ------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for target in TARGETS:
            self._install_target(target)
        self._install_suites()

    def uninstall(self) -> None:
        while self._undo:
            kind, owner, key, original = self._undo.pop()
            if kind == "item":
                owner[key] = original
            else:
                setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _install_target(self, target: Target) -> None:
        home = importlib.import_module(target.module)
        if "." in target.attr:
            cls_name, meth = target.attr.split(".")
            cls = getattr(home, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, target))
            else:
                wrapped = self._wrap(raw, target)
            self._undo.append(("attr", cls, meth, raw))
            setattr(cls, meth, wrapped)
            return
        original = getattr(home, target.attr)
        wrapper = self._wrap(original, target)
        for mod in self.modules:
            if target.recursive and mod is home:
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append(("attr", mod, name, original))
                    setattr(mod, name, wrapper)

    def _install_suites(self) -> None:
        suites = importlib.import_module("semiflow.suites")
        for name, fn in list(suites.SUITES.items()):
            target = Target("semiflow.suites", name, f"suites.{name}", hook="_on_suite")
            self._undo.append(("item", suites.SUITES, name, fn))
            suites.SUITES[name] = self._wrap(fn, target)

    # -- the wrapper -------------------------------------------------------

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        home = importlib.import_module(target.module)
        error = getattr(home, target.error) if target.error else None
        hook = getattr(self, target.hook) if target.hook else None
        name = target.span
        stat = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        hot = target.hot
        pass_id = self.pass_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            counted = parent is None or parent[0] != name
            if hot:
                span_id = -1
            else:
                span_id = self._next_id
                self._next_id += 1
            frame = [name, 0.0, span_id]
            stack.append(frame)
            raised = None
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                raised = err
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat.self_s += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if counted:
                    stat.calls += 1
                    stat.total_s += duration
                    if raised is not None and error is not None and isinstance(raised, error):
                        stat.errors += 1
                if hook is not None and raised is None:
                    hook(stat, args, kwargs, result, duration, counted)
                if not hot:
                    spans.append((span_id, name, self._recorded_parent(), start, end, pass_id))

        return wrapper

    def _recorded_parent(self) -> int | None:
        for frame in reversed(self._stack):
            if frame[2] >= 0:
                return frame[2]
        return None

    # -- extra counters ----------------------------------------------------

    def _on_flow(self, stat, args, kwargs, traj, duration, counted):
        kind = "scalar" if traj.dim == 1 else "vector"
        stat.add("steps", traj.steps)
        stat.add(f"{kind}_steps", traj.steps)
        stat.add(f"{kind}_s", duration)

    def _on_csv(self, stat, args, kwargs, result, duration, counted):
        path = args[1] if len(args) > 1 else kwargs["path"]
        stat.add("bytes", os.path.getsize(path))

    def _on_newton(self, stat, args, kwargs, root, duration, counted):
        if root is None:
            stat.add("none", 1)

    def _on_is_graph(self, stat, args, kwargs, result, duration, counted):
        chart = args[0]
        grid = args[1] if len(args) > 1 else kwargs["grid"]
        n = grid.size
        stat.add("samples", n)
        if chart.base_dim >= 2:
            stat.add("pairs_computed", n * (n - 1) // 2)

    def _on_probe(self, stat, args, kwargs, result, duration, counted):
        if counted:
            grid = args[1] if len(args) > 1 else kwargs["grid"]
            stat.add("points", grid.size)

    def _on_suite(self, stat, args, kwargs, reports, duration, counted):
        stat.add("reports", len(reports))

    # -- output ------------------------------------------------------------

    def stat(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def self_s(self, prefix: str) -> float:
        """Self time summed over every span name in a layer."""
        return sum(
            s.self_s
            for n, s in self.stats.items()
            if n == prefix or n.startswith(prefix + ".")
        )

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, parent, start, end, pass_id in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "parent": parent,
                    "start": start, "end": end, "pass": pass_id,
                }) + "\n")
