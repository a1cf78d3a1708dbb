"""Fixed reference work that gauges how fast the host runs Python right now.

The benchmark was written on a shared virtual machine whose cores run at
two speeds 1.5x to 1.7x apart, switching within seconds and staying in one
mode for minutes at a time, with no steal time reported. CPU time slows
with wall time, so the program is not waiting but running slower. A run
that falls in a slow period then reads up to that much slower than one in
a fast period, whatever statistic of its passes it reports.

Each pass therefore times this work in its own interpreter just before
and just after the program's pass, and ``run.py`` scales the pass's times
by ``NOMINAL_S`` over the mean of the two. A scaled time reads as seconds
on a core that runs this work in ``NOMINAL_S`` seconds; the raw times are
recorded beside it.

The work stands for what semiflow does: a recursive walk over a tuple
expression tree, an RK4 loop through a closure, float-to-text formatting
and building and sorting a dict. It must never change: a change to it
changes every time metric of every commit.
"""

from __future__ import annotations

import gc
import math
import time

REPEAT = 4
# About the time of REPEAT runs of the work in the slow mode of the machine
# the benchmark was written on (CPython 3.11); the fast mode reads ~0.14 s.
NOMINAL_S = 0.2


def _tree(depth: int, i: int) -> tuple:
    if depth == 0:
        return ("x", i % 3) if i % 2 else ("c", 0.5 + i % 5)
    op = ("add", "mul", "sub", "div")[i % 4]
    return (op, _tree(depth - 1, 2 * i), _tree(depth - 1, 2 * i + 1))


def _walk(node: tuple, env: dict) -> float:
    op = node[0]
    if op == "c":
        return node[1]
    if op == "x":
        return env[node[1]]
    a = _walk(node[1], env)
    b = _walk(node[2], env)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    return a / b if b else 0.0


def _rk4(f, y: float, h: float, n: int) -> list[tuple[float, float]]:
    out = []
    t = 0.0
    for _ in range(n):
        k1 = f(t, y)
        k2 = f(t + h / 2, y + h / 2 * k1)
        k3 = f(t + h / 2, y + h / 2 * k2)
        k4 = f(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        out.append((t, y))
    return out


def work() -> tuple:
    tree = _tree(9, 1)
    acc = 0.0
    for r in range(20):
        acc += _walk(tree, {0: 1.0 + r * 1e-3, 1: 0.5, 2: math.sin(r)})
    chars = total = 0
    for k in range(6):
        traj = _rk4(lambda t, y: -math.sqrt(abs(y) + t), 2.0 + k, 1e-4, 1000)
        chars += len("".join(f"{t!r},{y!r}\n" for t, y in traj))
        table = {(i + k) * 7919 % 100003: [float(i)] * 3 for i in range(5000)}
        total += sum(v[1] for _, v in sorted(table.items())[::7])
    return acc, chars, total


def timed() -> float:
    """Wall time of REPEAT runs of the reference work.

    The cyclic garbage collector is off meanwhile: its passes would take
    longer the more objects the program holds, and the gauge would read
    the program's state instead of the host's speed.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(REPEAT):
            work()
        return time.perf_counter() - t0
    finally:
        gc.enable()
