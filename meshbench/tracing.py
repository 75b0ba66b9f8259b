"""Per-layer spans, recorded from outside the program.

`Tracer.install` replaces each layer function named in LAYERS with a
recording wrapper, in every loaded meshtok module that holds a reference to
it (``from .core import validate_manifold`` copies the reference into the
importing module, so patching the defining module alone would miss those
callers). Spans (name, start, end, parent, job) stay in memory; counts are
taken from the same calls' arguments and results after the job's timed
interval has closed. A function a later version of the program no longer has
is skipped, and its layer reads zero.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

LAYERS = (
    "streamio.read_obj",
    "preprocess.normalize",
    "preprocess.quantize",
    "preprocess.filter_mesh",
    "core.validate_manifold",
    "halfedge.build",
    "sequencer.encode",
    "streamio.write_stream",
    "streamio.write_text_stream",
    "streamio.read_stream_answers",
    "generator.replay_outputs",
    "streamio.write_obj",
    "metrics.sample_surface",
    "metrics.chamfer",
    "metrics.closest_faces",
)

COUNTS = (
    "preprocess.merged_vertices",
    "preprocess.dropped_faces",
    "sequencer.records",
    "sequencer.components",
    "generator.steps",
    "generator.coerced_stops",
    "streamio.stream_bytes",
    "metrics.query_points",
)

PER_LAYER = tuple(f"{name}_ms" for name in LAYERS) + COUNTS + ("cli.self_ms", "trace.overhead")


def _stats(seq):
    return sys.modules["meshtok.sequencer"].sequence_stats(seq)


def _counts(name: str, args: tuple, result) -> dict[str, float]:
    """Counts read at one layer boundary; empty if the call's shapes are not
    the ones this version of the program returns."""
    try:
        if name == "preprocess.quantize":
            return {"preprocess.merged_vertices": len(args[0].vertices) - len(result.vertices),
                    "preprocess.dropped_faces": len(args[0].faces) - len(result.faces)}
        if name == "sequencer.encode":
            st = _stats(result)
            return {"sequencer.records": st.length, "sequencer.components": st.n_components}
        if name == "generator.replay_outputs":
            st = _stats(result.transcript)
            given = sum(1 for a in args[0] if a.kind == "stop")
            return {"generator.steps": st.length, "generator.coerced_stops": st.n_stops - given}
        if name in ("streamio.write_stream", "streamio.write_text_stream"):
            return {"streamio.stream_bytes": os.path.getsize(args[1])}
        if name == "metrics.closest_faces":
            return {"metrics.query_points": len(args[0])}
    except (AttributeError, IndexError, TypeError, OSError):
        pass
    return {}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, job]
        self.job: int | None = None
        self._stack: list[int] = []
        self._calls: list[tuple[str, tuple, object]] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "meshtok" or n.startswith("meshtok."))]
        for name in LAYERS:
            module, attr = name.split(".")
            original = getattr(sys.modules.get(f"meshtok.{module}"), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patches.append((m, key, original))

    def uninstall(self) -> None:
        for m, key, original in reversed(self._patches):
            setattr(m, key, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        spans, stack, calls = self.spans, self._stack, self._calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.job]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            calls.append((name, args, result))
            return result

        return wrapper

    def close_job(self, job: int, wall_s: float, scale: float) -> dict[str, float]:
        """Self time per layer in reference ms, counts, and the job time no
        layer span covers; clears the held call arguments."""
        out: dict[str, float] = defaultdict(float)
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == job]
        child_time: dict[int, float] = defaultdict(float)
        top = 0.0
        for _, (name, start, end, parent, _) in spans:
            if parent is None:
                top += end - start
            else:
                child_time[parent] += end - start
        for i, (name, start, end, _, _) in spans:
            out[f"{name}_ms"] += (end - start - child_time[i]) * scale * 1e3
        out["cli.self_ms"] = (wall_s - top) * scale * 1e3
        for name, args, result in self._calls:
            for key, value in _counts(name, args, result).items():
                out[key] += value
        self._calls.clear()
        return dict(out)
