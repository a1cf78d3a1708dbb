"""Inputs, passes and output checks of the three benchmark workloads.

A pass is the unit of work. Each pass runs in a fresh interpreter (see
``child.py``), so it pays what a user's invocation pays: the import and a
cold ``compile_expr`` cache. Inputs come from the seed only.

* ``verify-all``: one ``semiflow verify --suite all`` through
  ``semiflow.cli.main``; an operation is one report.
* ``singular-flow``: two ``semiflow flow`` calls, the scalar RK4 path on the
  singular square-root ODE and the vector RK4 path on the augmented
  quadratic system, each writing its CSV; an operation is one integration.
* ``symbolic-churn``: library use of ``semiflow.expr`` and ``semiflow.maps``
  on ~2500 seeded random expressions; an operation is one expression.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random

WORKLOADS = ("verify-all", "singular-flow", "symbolic-churn")

# "smoke" shrinks every workload for the benchmark's own tests.
SIZES = {
    "full": {"suite": "all", "flow_steps": 100_000, "expressions": 2500, "points": 6},
    "smoke": {"suite": "gls-semigroup", "flow_steps": 1000, "expressions": 60, "points": 2},
}

SQRT_EPS = 1e-8          # start of the singular run, as in the flow-oracle suite
SQRT_REL_TOL = 1e-5      # the flow-oracle suite's tolerance for the singular run
QUADRATIC_REL_TOL = 1e-12

VARIABLES = ("t", "x", "y")
FUNCTIONS = ("sqrt", "cbrt", "tanh", "sin", "cos", "exp", "log")
BINARY = ("+", "-", "*", "/")
POWERS = ("2", "3", "-1")
CONSTANTS = ("2", "3", "0.5", "1.25", "0.75", "4")
OPERATORS_PER_EXPRESSION = 6


def _rel_dev(got: float, want: float) -> float:
    # the normalization of semiflow.report.deviation
    return abs(got - want) / (1.0 + abs(want))


def _quiet(fn, *args):
    """Call fn with its standard output captured, as a user piping it away."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


# ---------------------------------------------------------------------------
# verify-all


# The suites run with the CLI's default seed, as the headline command
# `semiflow verify --suite all` does, whatever the benchmark's --seed: for
# about one seed in six (496 of 0..2999, e.g. 11 and 110) the command aborts
# with an uncaught RootSearchError in recovery-cross-check. The benchmark's
# tests keep that defect visible (test_verify_all_survives_every_seed).
VERIFY_SEED = 42


def verify_inputs(seed: int, size: str, work: str) -> dict:
    out = os.path.join(work, "report.json")
    argv = ["verify", "--suite", SIZES[size]["suite"], "--seed", str(VERIFY_SEED), "--out", out]
    return {"argv": argv, "out": out}


def verify_pass(sf, inputs: dict) -> dict:
    return {"code": _quiet(sf.cli.main, inputs["argv"])}


def verify_check(inputs: dict, outcome: dict) -> dict:
    """One operation per report; a report that did not pass is a failure."""
    if not os.path.exists(inputs["out"]):
        return {"attempted": 1, "failed": 1, "report_sha256": None, "report_bytes": 0,
                "problems": [f"exit code {outcome['code']} and no report written"]}
    with open(inputs["out"], "rb") as fh:
        raw = fh.read()
    os.remove(inputs["out"])
    doc = json.loads(raw)
    reports = [r for reps in doc["suites"].values() for r in reps]
    failed = sum(1 for r in reports if not r["passed"])
    if outcome["code"] != 0 and failed == 0:
        failed = 1
    return {
        "attempted": max(len(reports), 1),
        "failed": failed,
        "report_sha256": hashlib.sha256(raw).hexdigest(),
        "report_bytes": len(raw),
        "problems": [] if failed == 0 else [f"exit code {outcome['code']}, {failed} reports failed"],
    }


# ---------------------------------------------------------------------------
# singular-flow


def flow_base_state(seed: int) -> float:
    """The seeded base state y of the singular run, in [0.5, 2]."""
    return random.Random(f"singular-flow:{seed}").uniform(0.5, 2.0)


def flow_inputs(seed: int, size: str, work: str) -> dict:
    steps = SIZES[size]["flow_steps"]
    y = flow_base_state(seed)
    y0 = y + math.sqrt(SQRT_EPS) * y * y  # the closed form H(eps, y)
    sqrt_csv = os.path.join(work, "sqrt-ode-minus.csv")
    quad_csv = os.path.join(work, "quadratic-augmented.csv")
    return {
        "steps": steps,
        "y": y,
        "runs": [
            {
                "argv": ["flow", "--system", "sqrt-ode-minus", "--t0", "0", "--t1", "1",
                         "--steps", str(steps), "--eps-start", repr(SQRT_EPS),
                         "--y0", repr(y0), "--out", sqrt_csv],
                "out": sqrt_csv,
                "want": (1.0, y + y * y),  # H(1, y)
                "tol": SQRT_REL_TOL,
            },
            {
                "argv": ["flow", "--system", "quadratic-augmented", "--t0", "0", "--t1", "2",
                         "--steps", str(steps), "--y0", f"0,{y!r}", "--out", quad_csv],
                "out": quad_csv,
                "want": (2.0, 2.0, y + 4.0),  # (t, tau, y) with tau = t and y(2) = y + 2^2
                "tol": QUADRATIC_REL_TOL,
            },
        ],
    }


def flow_pass(sf, inputs: dict) -> dict:
    return {"codes": [_quiet(sf.cli.main, run["argv"]) for run in inputs["runs"]]}


def _last_row(path: str) -> tuple[int, list[float]]:
    """Data rows of a trajectory CSV (header excluded) and its last row."""
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = raw.rstrip(b"\n").rsplit(b"\n", 1)
    return raw.count(b"\n") - 1, [float(v) for v in lines[-1].split(b",")]


def flow_check(inputs: dict, outcome: dict) -> dict:
    """One operation per integration: exit code, row count, closed form."""
    problems = []
    for run, code in zip(inputs["runs"], outcome["codes"]):
        name = run["argv"][2]
        if code != 0:
            problems.append(f"{name}: exit code {code}")
            continue
        rows, final = _last_row(run["out"])
        os.remove(run["out"])
        if rows != inputs["steps"] + 1:
            problems.append(f"{name}: {rows} rows, want {inputs['steps'] + 1}")
            continue
        dev = max(_rel_dev(g, w) for g, w in zip(final, run["want"]))
        if len(final) != len(run["want"]) or dev > run["tol"]:
            problems.append(f"{name}: final {final} vs closed form {run['want']} (dev {dev:.3e})")
    return {"attempted": len(inputs["runs"]), "failed": len(problems), "problems": problems}


# ---------------------------------------------------------------------------
# symbolic-churn


def random_expression(rng: random.Random, ops: int) -> str:
    """Text of a random expression over t, x, y with exactly `ops` operators.

    Operators are the grammar's unary functions, negation, the four
    arithmetic operators and integer powers. Arguments stay small, so an
    intermediate value that overflows to infinity is rare at the
    benchmark's points; none did on the seeds sampled. One that does can
    make `sin` or `cos` raise ValueError instead of EvalDomainError (a
    known defect of the program); `churn_check` counts that expression as
    a failed operation.
    """
    if ops == 0:
        if rng.random() < 0.75:
            return rng.choice(VARIABLES)
        return rng.choice(CONSTANTS)
    roll = rng.random()
    if roll < 0.45:
        fn = rng.choice(FUNCTIONS + ("-",))
        inner = random_expression(rng, ops - 1)
        return f"-({inner})" if fn == "-" else f"{fn}({inner})"
    if roll < 0.55:
        return f"({random_expression(rng, ops - 1)})^{rng.choice(POWERS)}"
    left = rng.randint(0, ops - 1)
    lhs = random_expression(rng, left)
    rhs = random_expression(rng, ops - 1 - left)
    return f"({lhs} {rng.choice(BINARY)} {rhs})"


def churn_texts(seed: int, count: int) -> list[str]:
    rng = random.Random(f"symbolic-churn:{seed}")
    return [random_expression(rng, OPERATORS_PER_EXPRESSION) for _ in range(count)]


# The signs of x and y at each point are fixed, only their sizes depend on
# the seed: how many evaluations end in a domain error (sqrt or log of a
# negative value, an exception in the pass) depends mostly on those signs,
# and free signs made a pass's cost vary by seed as much as the host does.
POINT_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def churn_points(seed: int, count: int) -> list[tuple[float, float, float]]:
    rng = random.Random(f"symbolic-churn-points:{seed}")
    return [
        (rng.uniform(0.1, 1.5), sx * rng.uniform(0.05, 1.5), sy * rng.uniform(0.05, 1.5))
        for sx, sy in (POINT_SIGNS[i % len(POINT_SIGNS)] for i in range(count))
    ]


def churn_inputs(seed: int, size: str, work: str) -> dict:
    return {
        "texts": churn_texts(seed, SIZES[size]["expressions"]),
        "points": churn_points(seed, SIZES[size]["points"]),
    }


def churn_pass(sf, inputs: dict) -> dict:
    """Parse, print and re-parse, differentiate, then evaluate point-major."""
    parse, to_text, diff = sf.parse_expr, sf.to_text, sf.diff
    SmoothMap, EvalDomainError = sf.SmoothMap, sf.EvalDomainError
    exprs = [parse(text) for text in inputs["texts"]]
    reparsed = [parse(to_text(e)) for e in exprs]
    maps = [
        SmoothMap(VARIABLES, (e, diff(e, "t"), diff(e, "x"), diff(e, "y")))
        for e in exprs
    ]
    values: list[list] = [[] for _ in maps]
    for point in inputs["points"]:
        for m, row in zip(maps, values):
            try:
                row.append(m(*point))
            except EvalDomainError:
                row.append(None)
            except (ArithmeticError, ValueError) as exc:
                row.append(f"raised {type(exc).__name__}: {exc}")
    return {"exprs": exprs, "reparsed": reparsed, "maps": maps, "values": values}


def _same(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return False  # an error other than EvalDomainError
    if a is None or b is None:
        return a is b
    return len(a) == len(b) and all(
        x == y or (math.isnan(x) and math.isnan(y)) for x, y in zip(a, b)
    )


def churn_reference(sf, m, point) -> tuple | None:
    """Tree-walk value of a map at a point; None for a domain error."""
    bindings = dict(zip(VARIABLES, point))
    try:
        return tuple(sf.evaluate(c, bindings) for c in m.outputs)
    except sf.EvalDomainError:
        return None
    except (ArithmeticError, ValueError) as exc:
        return f"raised {type(exc).__name__}: {exc}"


def churn_check(sf, inputs: dict, outcome: dict, reference: bool) -> dict:
    """One operation per expression.

    The round trip is checked on every pass. Against the tree-walk
    reference only when `reference` is set; other passes are compared
    with the reference pass through the per-expression fingerprints.
    """
    fingerprints = []
    problems = []
    for i, (e, e2, m, row) in enumerate(
        zip(outcome["exprs"], outcome["reparsed"], outcome["maps"], outcome["values"])
    ):
        ok = e2 == e and not any(isinstance(v, str) for v in row)
        if ok and reference:
            ok = all(
                _same(got, churn_reference(sf, m, p)) for got, p in zip(row, inputs["points"])
            )
        if not ok and len(problems) < 5:
            errors = sorted({v for v in row if isinstance(v, str)})
            problems.append(f"expression {i}: {inputs['texts'][i]} {'; '.join(errors)}".rstrip())
        fingerprints.append(
            hashlib.blake2b(repr(row).encode(), digest_size=8).hexdigest() if ok else "failed"
        )
    return {
        "attempted": len(fingerprints),
        "failed": fingerprints.count("failed"),
        "fingerprints": fingerprints,
        "problems": problems,
    }


INPUTS = {"verify-all": verify_inputs, "singular-flow": flow_inputs, "symbolic-churn": churn_inputs}
PASSES = {"verify-all": verify_pass, "singular-flow": flow_pass, "symbolic-churn": churn_pass}
