"""Serialize a mesh into a token sequence by half-edge traversal.

Each component contributes two auxiliary steps (its first two vertices),
then one step per pending-edge pop: VERTEX when the popped edge discovers
a new face, STOP when it hits a boundary (-1) or an already-visited face.
Pending edges are half-edge handles, each naming the face on its far side. A
face a->b->c entered through a->b pushes the twins of c->a, then of b->c, so
the face beyond b->c is processed next in depth-first order. The pending
container is a stack for DFS and a FIFO queue for BFS; nothing else differs
between the two orders. One final step answers EOS when no faces remain.

Only outputs carry information: inputs are reproducible by replaying the
same pending-edge discipline, which is what lets a face cost two tokens. A
``TokenSequence`` therefore holds the outputs alone, exactly what the stream
formats store; its ``records``, each step's input paired with its output, are
derived on first access by a strict replay through the decoder's machine.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import NamedTuple, Optional

import numpy as np

from .core import InvalidMeshError, QuantizedMesh, QuantizedVertex, valid_bits, vertex_array
from . import halfedge

# Step input kinds.
SOS = "sos"
SOS2 = "sos2"
EDGE = "edge"

# Step output kinds.
VERTEX = "vertex"
STOP = "stop"
EOS = "eos"

DFS = "dfs"
BFS = "bfs"

EdgePositions = tuple[QuantizedVertex, QuantizedVertex]


class MalformedSequenceError(ValueError):
    """A token sequence violates its structural invariants."""


class PredictorAnswer(NamedTuple):
    """One step output, as a predictor answers it and a stream stores it."""

    kind: str  # vertex | stop | eos
    vertex: Optional[QuantizedVertex] = None


ANSWER_STOP = PredictorAnswer(STOP)
ANSWER_EOS = PredictorAnswer(EOS)


def answer_vertex(v: QuantizedVertex) -> PredictorAnswer:
    return PredictorAnswer(VERTEX, v)


class StepRecord(NamedTuple):
    """One machine step: the input the machine posed and the output given."""

    input_kind: str
    input_edge: Optional[EdgePositions]
    output_kind: str
    output_vertex: Optional[QuantizedVertex]


@dataclass
class TokenSequence:
    bits: int
    order: str
    outputs: list[PredictorAnswer]
    truncated: bool = False

    @cached_property
    def records(self) -> list[StepRecord]:
        """Each output paired with the input a strict replay derives for it.

        Computed once, on first access. A truncated sequence yields the
        records of its steps; an output the machine cannot take raises the
        machine's DesyncError or IllegalAnswerError.
        """
        from .generator import _Machine  # generator imports this module

        machine = _Machine(self.bits, self.order)
        records = []
        for answer in self.outputs:
            records.append(StepRecord(machine.mode, machine.input_edge(), *answer))
            machine.answer(answer)
        return records


@dataclass(frozen=True)
class SequenceStats:
    length: int
    n_faces: int
    n_components: int
    n_stops: int
    n_traversal_records: int
    ratio: Optional[float]

    @classmethod
    def from_counts(cls, length: int, n_faces: int, n_components: int, n_stops: int) -> SequenceStats:
        """Length accounting, including the token-per-face ratio against the
        naive nine-tokens-per-face baseline."""
        ratio = length / (9 * n_faces) if n_faces else None
        return cls(length, n_faces, n_components, n_stops, n_faces + n_stops, ratio)


def _walk(seq: TokenSequence) -> tuple[int, int, int]:
    """Check ``seq`` and count its (faces, components, stops).

    The outputs must follow the component grammar: per component a VERTEX,
    a VERTEX, then one output per pending edge, where VERTEX adds one pending
    edge (pop one, push two) and STOP removes one; the component ends when no
    edge is pending. The sequence ends in exactly one EOS, answering the
    start of a component. Every vertex record must be three ints on the
    grid; a bool or a float is no coordinate. Errors name the first bad
    record. The counter does no geometry: a vertex repeating an edge
    endpoint is left for replay to reject.
    """
    if not valid_bits(seq.bits):
        raise MalformedSequenceError(f"bits {seq.bits} outside [1, 16]")
    if seq.order not in (DFS, BFS):
        raise MalformedSequenceError(f"unknown traversal order {seq.order!r}")
    if seq.truncated:
        raise MalformedSequenceError("sequence is truncated (budget halt)")
    if not seq.outputs:
        raise MalformedSequenceError("empty sequence")
    cells = 1 << seq.bits
    mode = SOS
    pending = faces = components = stops = 0
    outputs = seq.outputs
    for i, (kind, v) in enumerate(outputs):
        if kind == VERTEX:
            try:
                x, y, z = v
            except (TypeError, ValueError):
                x = y = z = None
            if v is not None and not (type(x) is int and type(y) is int and type(z) is int):
                raise MalformedSequenceError(f"record {i}: vertex {v!r} is not three integers")
            if v is None or not (0 <= x < cells and 0 <= y < cells and 0 <= z < cells):
                raise MalformedSequenceError(
                    f"record {i}: vertex {v} is not on the {seq.bits}-bit grid"
                )
            if mode == EDGE:
                faces += 1
                pending += 1
            elif mode == SOS:
                components += 1
                mode = SOS2
            else:
                mode = EDGE
                pending = 2
        elif v is not None:
            raise MalformedSequenceError(f"record {i}: a {kind} output carries a vertex")
        elif kind == STOP and mode == EDGE:
            stops += 1
            pending -= 1
            if not pending:
                mode = SOS
        elif kind == EOS and mode == SOS:
            if i + 1 < len(outputs):
                raise MalformedSequenceError(f"record {i + 1} after terminal EOS")
            mode = EOS
        else:
            raise MalformedSequenceError(f"record {i}: illegal output {kind} answering {mode}")
    if mode != EOS:
        raise MalformedSequenceError("missing terminal EOS")
    return faces, components, stops


def check_well_formed(seq: TokenSequence) -> None:
    """Raise MalformedSequenceError unless ``seq`` has a bit count in [1, 16],
    a known order, every vertex three ints on its grid, and outputs that
    follow the component grammar up to exactly one terminal EOS."""
    _walk(seq)


def encode(mesh: QuantizedMesh, order: str = DFS) -> TokenSequence:
    """Tokenize a mesh. Deterministic: identical input, identical output.

    Raises InvalidMeshError, carrying the validation report, when the mesh
    fails the half-edge traversal requirement.
    """
    if order not in (DFS, BFS):
        raise ValueError(f"unknown traversal order: {order!r}")
    conn = halfedge.build(mesh)
    if not conn.report.ok:
        raise InvalidMeshError(conn.report)
    # answer_vertex of each vertex, through the constructor it calls
    emit = list(map(tuple.__new__, repeat(PredictorAnswer), zip(repeat(VERTEX), mesh.vertices)))
    # A component starts at the first half-edge, in (rank(origin),
    # rank(dest)) order, of a face not yet visited; rank is a vertex's place
    # in (z, y, x, index) order. The key rank(origin)·n + rank(dest) names a
    # directed edge, so it is unique on a valid mesh, and the first such
    # half-edge is the smallest of the unvisited face whose smallest key is
    # smallest. So the faces are sorted by their smallest key, each with
    # that half-edge; faces stay visited, so the cursor only moves forward.
    n = len(mesh.vertices)
    pos = vertex_array(mesh)
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((pos[:, 0], pos[:, 1], pos[:, 2]))] = np.arange(n)
    origin, twin = conn.origin, conn.twin
    ends = rank[np.array(origin, dtype=np.int64).reshape(-1, 3)]
    keys = ends * n + ends[:, [1, 2, 0]]
    first = keys.argmin(axis=1)
    by_key = np.argsort(keys[np.arange(len(keys)), first])
    starts = (3 * by_key + first[by_key]).tolist()
    cursor = 0
    visited = [False] * len(mesh.faces)
    remaining = len(mesh.faces)
    outputs: list[PredictorAnswer] = []
    pending: deque[int] = deque()
    take = pending.pop if order == DFS else pending.popleft

    while remaining:
        while visited[starts[cursor] // 3]:
            cursor += 1
        h = starts[cursor]
        outputs.append(emit[origin[h]])
        outputs.append(emit[origin[h - h % 3 + (h + 1) % 3]])
        pending.append(twin[h])  # twin first, so h is processed first
        pending.append(h)
        while pending:
            h = take()
            if h < 0 or visited[h // 3]:
                outputs.append(ANSWER_STOP)
                continue
            f = h // 3
            visited[f] = True
            remaining -= 1
            ca = 3 * f + (h + 2) % 3  # h is a->b in face a->b->c
            outputs.append(emit[origin[ca]])
            pending.append(twin[ca])
            pending.append(twin[3 * f + (h + 1) % 3])
    outputs.append(ANSWER_EOS)
    return TokenSequence(bits=mesh.bits, order=order, outputs=outputs)


def sequence_stats(seq: TokenSequence) -> SequenceStats:
    """Check ``seq`` (``check_well_formed``) and return its counts."""
    return SequenceStats.from_counts(len(seq.outputs), *_walk(seq))
