"""Pinned outputs of the command line and the scripts: one table, one row per pin.

Each row is an argv, the exit code it must return, the sha256 of the file
it writes to ``--out`` or, where the argv names no ``--out``, of its
standard output (None: it writes no file), and its exact standard error.
An argv runs through `semiflow.cli.main`, or, where its first string names
a ``.py`` file, runs that script (a path from the repository's root) as
``python`` would. The string OUT in an argv stands for the path of the
``--out`` file, and a dict for the path of a JSON file holding it, such as
a scenario document. A deliberate change of an output is one edit to its
row here, and a failing run names the row that changed.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import runpy
import sys

import pytest

from semiflow.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]

OUT = "{out}"

PINNED = {
    # the two flows the benchmark times, at its scale of 1e5 steps
    "flow-sqrt-ode-minus-1e5": (
        ["flow", "--system", "sqrt-ode-minus", "--t0", "0", "--t1", "1", "--steps", "100000",
         "--eps-start", "1e-8", "--y0", "1.0001", "--out", OUT],
        0, "dd2fe13c637601d2831b9e5d30d99cc63db5dc01f5b25a38601d8f0272804267", "",
    ),
    "flow-quadratic-augmented-1e5": (
        ["flow", "--system", "quadratic-augmented", "--t0", "0", "--t1", "2", "--steps", "100000",
         "--y0", "0,1.25", "--out", OUT],
        0, "30796cfe2f66aa18a4ecefc8da7bd54028c232923d0a15cf7cb03f8437a0c4a2", "",
    ),
    # a domain error in an RK4 stage names the tree walk's message and the step's start
    "flow-rhs-domain-error": (
        ["flow", "--system", "sqrt-ode-minus", "--t0", "0", "--t1", "1", "--steps", "2",
         "--eps-start", "0.25", "--y0", "-0.49", "--out", OUT],
        2, None,
        "error: integration failed: RHS domain error: sqrt of negative argument "
        "-0.08252501599073092 (at t=0.25)\n",
    ),
    # a state off the system's region stops the flow: at the start, named with the start time,
    "flow-region-at-start": (
        ["flow", "--system", "sqrt-ode-minus", "--t0", "0", "--t1", "1", "--steps", "4",
         "--eps-start", "0.25", "--y0", "-0.6", "--out", OUT],
        2, None, "error: integration failed: RHS invalid at the starting point (at t=0.25)\n",
    ),
    # and at the end of the step that leaves it, named with that step's end
    "flow-region-exit": (
        ["flow", "--system", "sqrt-ode-minus", "--t0", "0", "--t1", "1", "--steps", "4",
         "--eps-start", "0.25", "--y0", "-0.486", "--out", OUT],
        2, None,
        "error: integration failed: state left the validity region (at t=0.3535533905932738)\n",
    ),
    # residual tolerances below rounding fail every ode-residuals residual report
    "verify-ode-residuals-fails": (
        ["verify", "--scenario",
         {"suite": "ode-residuals",
          "tolerances": {"homotopy": 1e-300, "explicit": 1e-300, "milder": 1e-300}},
         "--out", OUT],
        1, "39d210e060663f4d1d92d0f617f9b0b7a8085164788522d07ecfaaab51270b6c", "",
    ),
    # the scripts' tables
    "script-diffeo-threshold-study": (
        ["scripts/diffeo_threshold_study.py"],
        0, "9f83983a2d02907a192c157e6feb9983cff12cc2d7fdfaad3256e79d6980e7e7", "",
    ),
    "script-singular-flow-convergence": (
        ["scripts/singular_flow_convergence.py"],
        0, "7b575f8158ed6e8b0670600aa3099f70bc574bc738cedb799094b566589e7554", "",
    ),
}


def _run(argv: list[str], monkeypatch) -> int:
    if not argv[0].endswith(".py"):
        return main(argv)
    script = str(ROOT / argv[0])
    monkeypatch.setattr(sys, "argv", [script, *argv[1:]])
    monkeypatch.setattr(sys, "path", list(sys.path))  # a script puts src/ in front
    with pytest.raises(SystemExit) as done:
        runpy.run_path(script, run_name="__main__")
    return done.value.code


@pytest.mark.parametrize("row", PINNED)
def test_pinned_output(row, tmp_path, capsys, monkeypatch):
    argv, code, sha256, stderr = PINNED[row]
    out = tmp_path / "out"
    args = []
    for k, a in enumerate(argv):
        if isinstance(a, dict):
            path = tmp_path / f"arg{k}.json"
            path.write_text(json.dumps(a))
            a = str(path)
        args.append(str(out) if a == OUT else a)
    assert _run(args, monkeypatch) == code
    captured = capsys.readouterr()
    assert captured.err == stderr
    if OUT not in argv:
        assert hashlib.sha256(captured.out.encode()).hexdigest() == sha256
    elif sha256 is None:
        assert not out.exists()
    else:
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
