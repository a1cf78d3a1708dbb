"""Pinned outputs of the command line: one table, one row per pin.

Each row is an argv for `semiflow.cli.main`, the exit code it must return,
the sha256 of the file it writes to ``--out`` (None: it writes none) and
its exact standard error. The string OUT in an argv stands for the path of
the ``--out`` file. A deliberate change of an output is one edit to its row
here, and a failing run names the row that changed.
"""

from __future__ import annotations

import hashlib

import pytest

from semiflow.cli import main

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
}


@pytest.mark.parametrize("row", PINNED)
def test_pinned_output(row, tmp_path, capsys):
    argv, code, out_sha256, stderr = PINNED[row]
    out = tmp_path / "out"
    assert main([str(out) if a == OUT else a for a in argv]) == code
    assert capsys.readouterr().err == stderr
    if out_sha256 is None:
        assert not out.exists()
    else:
        assert hashlib.sha256(out.read_bytes()).hexdigest() == out_sha256
