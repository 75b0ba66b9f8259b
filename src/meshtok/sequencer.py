"""Serialize a mesh into a token sequence by half-edge traversal.

Each component contributes two auxiliary steps (its first two vertices),
then one step per pending-edge pop: VERTEX when the popped edge discovers
a new face, STOP when it hits a boundary or an already-visited face. A face
discovered from edge (a, b) with opposite vertex c pushes (a, c) then (c, b),
so (c, b) is processed next in depth-first order. The pending container is a
stack for DFS and a FIFO queue for BFS; nothing else differs between the two
orders. One final step answers EOS when no faces remain.

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
from typing import NamedTuple, Optional

from .core import QuantizedMesh, QuantizedVertex, ValidationReport, height_sort_key
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


class InvalidMeshError(ValueError):
    """Encoding was asked for a mesh that fails validation; ``report`` holds
    every violation."""

    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__("; ".join(v.message for v in report.violations[:5]))


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

        machine = _Machine(self.bits, self.order, duplicate_check=False, coerce_degenerate=False)
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


def _walk(seq: TokenSequence) -> tuple[int, int, int]:
    """Check ``seq`` and count its (faces, components, stops).

    The outputs must follow the component grammar: per component a VERTEX,
    a VERTEX, then one output per pending edge, where VERTEX adds one pending
    edge (pop one, push two) and STOP removes one; the component ends when no
    edge is pending. The sequence ends in exactly one EOS, answering the
    start of a component. The counter does no geometry: a vertex repeating an
    edge endpoint is left for replay to reject.
    """
    if not 1 <= seq.bits <= 16:
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
    for i, (kind, v) in enumerate(seq.outputs):
        if mode == EOS:
            raise MalformedSequenceError(f"record {i} after terminal EOS")
        if kind == VERTEX:
            if v is None or not all(0 <= q < cells for q in v):
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
            mode = EOS
        else:
            raise MalformedSequenceError(f"record {i}: illegal output {kind} answering {mode}")
    if mode != EOS:
        raise MalformedSequenceError("missing terminal EOS")
    return faces, components, stops


def check_well_formed(seq: TokenSequence) -> None:
    """Raise MalformedSequenceError unless ``seq`` has a bit count in [1, 16],
    a known order, every vertex on its grid, and outputs that follow the
    component grammar up to exactly one terminal EOS."""
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
    emit = [answer_vertex(p) for p in mesh.vertices]
    # Every half-edge in (key(origin), origin, key(dest), dest) order, rank
    # being a vertex's place in (height_sort_key, index) order. A component
    # starts at the first half-edge of a face not yet visited; faces stay
    # visited, so the cursor only moves forward.
    n = len(mesh.vertices)
    rank = [0] * n
    for r, v in enumerate(sorted(range(n), key=lambda v: (height_sort_key(mesh.vertices[v]), v))):
        rank[v] = r
    origin, dest = conn.origin, conn.dest
    starts = sorted(range(3 * conn.n_faces), key=lambda h: rank[origin[h]] * n + rank[dest[h]])
    cursor = 0
    visited = [False] * conn.n_faces
    remaining = conn.n_faces
    outputs: list[PredictorAnswer] = []
    pending: deque[tuple[int, int]] = deque()
    take = pending.pop if order == DFS else pending.popleft

    while remaining:
        while visited[conn.face_of(starts[cursor])]:
            cursor += 1
        v1, v2 = origin[starts[cursor]], dest[starts[cursor]]
        outputs.append(emit[v1])
        outputs.append(emit[v2])
        pending.append((v2, v1))  # twin first, so (v1, v2) is processed first
        pending.append((v1, v2))
        while pending:
            a, b = take()
            h = conn.lookup(a, b)
            if h is None or visited[conn.face_of(h)]:
                outputs.append(ANSWER_STOP)
                continue
            visited[conn.face_of(h)] = True
            remaining -= 1
            c = conn.opposite_vertex(h)
            outputs.append(emit[c])
            pending.append((a, c))
            pending.append((c, b))
    outputs.append(ANSWER_EOS)
    return TokenSequence(bits=mesh.bits, order=order, outputs=outputs)


def sequence_stats(seq: TokenSequence) -> SequenceStats:
    """Length accounting, including the token-per-face ratio against the naive
    nine-tokens-per-face baseline."""
    n_faces, n_components, n_stops = _walk(seq)
    length = len(seq.outputs)
    return SequenceStats(
        length=length,
        n_faces=n_faces,
        n_components=n_components,
        n_stops=n_stops,
        n_traversal_records=n_faces + n_stops,
        ratio=length / (9 * n_faces) if n_faces else None,
    )
