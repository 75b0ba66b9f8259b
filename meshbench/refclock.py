"""Reference seconds: wall time rescaled by a fixed reference loop.

On a small shared host the speed of the interpreter drifts by tens of percent
over minutes, and CPU time drifts with it. The loop below does the three kinds
of work the program does, in fixed amounts: interpreter work on tuple-keyed
dicts, stacks, float formatting and parsing and struct packing (the codec and
OBJ I/O); many small numpy calls (the per-triangle rasteriser); and a few
larger numpy reductions (the nearest-face search). Its duration moves in step
with the program. Every timed interval is bracketed by one loop run before
and one after, and its wall time is scaled by NOMINAL_S over their mean:

    reference seconds = wall seconds * NOMINAL_S / mean(loop before, loop after)

The loop is never changed by a change to the program, so a faster program
reads as fewer reference seconds and a slower machine does not.
"""

from __future__ import annotations

import gc
import struct
import time
from dataclasses import dataclass

import numpy as np

NOMINAL_S = 0.02

_TRIANGLE = np.array([[0.7, 1.2], [6.9, 2.3], [3.1, 7.4]])
_POINTS = np.linspace(0.0, 1.0, 180).reshape(60, 3)
_CORNERS = np.linspace(1.0, -1.0, 1800).reshape(600, 3)


def reference_loop() -> float:
    acc = 0.0
    edges: dict[tuple[int, int], int] = {}
    stack: list[tuple[int, int]] = []
    packed: list[bytes] = []
    n = 2400
    for i in range(n):
        a, b, c = i, (i * 7 + 1) % n, (i * 13 + 2) % n
        for o, d in ((a, b), (b, c), (c, a)):
            edges[(o, d)] = i
        stack.append((a, b))
        if i % 3 == 0:
            x, y = stack.pop()
            acc += edges.get((y, x), 0)
        line = f"v {i * 0.001 - 0.5:.9g} {a * 1e-4:.9g} {c * 1e-4:.9g}"
        acc += float(line.split()[1])
        packed.append(struct.pack("<BHHH", 0, a, b, c))
    t = _TRIANGLE
    for i in range(200):
        xs = np.arange(i % 5, i % 5 + 8) + 0.5
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        w = (t[1, 0] - t[0, 0]) * (gy - t[0, 1]) - (t[1, 1] - t[0, 1]) * (gx - t[0, 0])
        acc += int((w >= 0).sum())
    for _ in range(12):
        d = _POINTS[:, None, :] - _CORNERS[None, :, :]
        acc += float(np.einsum("nmk,nmk->nm", d, d).min())
    return acc + len(packed)


def time_loop() -> float:
    """One loop's wall time, with the collector off: a collection would cost
    in proportion to whatever the program left on the heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        reference_loop()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


@dataclass(frozen=True)
class Interval:
    """One timed interval: its wall time and the two bracketing loop runs."""

    wall_s: float
    loop_before_s: float
    loop_after_s: float

    @property
    def scale(self) -> float:
        return NOMINAL_S / (0.5 * (self.loop_before_s + self.loop_after_s))

    @property
    def ref_s(self) -> float:
        return self.wall_s * self.scale


def timed(fn) -> tuple[Interval, object]:
    """Run ``fn`` between two loop timings; (interval, fn's result)."""
    before = time_loop()
    started = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - started
    return Interval(wall, before, time_loop()), result
