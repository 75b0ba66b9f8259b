"""Serialize a mesh into a token sequence by half-edge traversal.

Each component contributes two auxiliary steps (its first two vertices),
then one record per pending-edge pop: VERTEX when the popped edge discovers
a new face, STOP when it hits a boundary or an already-visited face. A face
discovered from edge (a, b) with opposite vertex c pushes (a, c) then (c, b),
so (c, b) is processed next in depth-first order. The pending container is a
stack for DFS and a FIFO queue for BFS; nothing else differs between the two
orders. One final step answers EOS when no faces remain.

Only outputs carry information: inputs are reproducible by replaying the
same pending-edge discipline, which is what lets a face cost two tokens.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

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

_LEGAL_PAIRS = {
    SOS: (VERTEX, EOS),
    SOS2: (VERTEX,),
    EDGE: (VERTEX, STOP),
}

EdgePositions = tuple[QuantizedVertex, QuantizedVertex]


class InvalidMeshError(ValueError):
    """Encoding was asked for a mesh that fails validation; ``report`` holds
    every violation."""

    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__("; ".join(v.message for v in report.violations[:5]))


class MalformedSequenceError(ValueError):
    """A token sequence violates its structural invariants."""


class StepRecord(NamedTuple):
    """One machine step; ``check_well_formed`` checks the field pairings."""

    input_kind: str
    input_edge: Optional[EdgePositions]
    output_kind: str
    output_vertex: Optional[QuantizedVertex]


@dataclass
class TokenSequence:
    bits: int
    order: str
    records: list[StepRecord]
    truncated: bool = False


@dataclass(frozen=True)
class SequenceStats:
    length: int
    n_faces: int
    n_components: int
    n_stops: int
    n_traversal_records: int
    ratio: Optional[float]


def check_well_formed(seq: TokenSequence) -> None:
    """Raise MalformedSequenceError unless every record pairs a legal input
    with a legal output, carries an edge exactly when its input is EDGE and a
    vertex exactly when its output is VERTEX, and the sequence obeys the
    component grammar and ends with exactly one EOS."""
    if seq.truncated:
        raise MalformedSequenceError("sequence is truncated (budget halt)")
    if not seq.records:
        raise MalformedSequenceError("empty sequence")
    expect = "sos"
    for i, rec in enumerate(seq.records):
        if rec.output_kind not in _LEGAL_PAIRS.get(rec.input_kind, ()):
            raise MalformedSequenceError(
                f"record {i}: illegal record {rec.input_kind} -> {rec.output_kind}"
            )
        if (rec.input_edge is not None) != (rec.input_kind == EDGE):
            raise MalformedSequenceError(f"record {i}: input_edge is for EDGE records only")
        if (rec.output_vertex is not None) != (rec.output_kind == VERTEX):
            raise MalformedSequenceError(
                f"record {i}: output_vertex is for VERTEX records only"
            )
        if expect == "end":
            raise MalformedSequenceError(f"record {i} after terminal EOS")
        if expect == "sos":
            if rec.input_kind != SOS:
                raise MalformedSequenceError(f"record {i}: expected SOS input")
            expect = "end" if rec.output_kind == EOS else "sos2"
        elif expect == "sos2":
            if rec.input_kind != SOS2:
                raise MalformedSequenceError(f"record {i}: expected SOS2 input")
            expect = "body"
        else:
            if rec.input_kind == EDGE:
                continue
            if rec.input_kind == SOS2:
                raise MalformedSequenceError(f"record {i}: SOS2 outside component start")
            expect = "end" if rec.output_kind == EOS else "sos2"
    if expect != "end":
        raise MalformedSequenceError("missing terminal EOS")


def _start_edge(
    mesh: QuantizedMesh,
    conn: halfedge.HalfEdgeConnectivity,
    visited: list[bool],
    key: Callable[[QuantizedVertex], tuple],
) -> tuple[int, int]:
    """Deterministic component start: the half-edge of an unvisited face whose
    origin is the lowest incident vertex, then the lowest destination; ties on
    equal positions break by vertex index."""
    best_origin: Optional[int] = None
    for fi in range(conn.n_faces):
        if visited[fi]:
            continue
        for h in conn.half_edges_of_face(fi):
            o = conn.origin[h]
            if best_origin is None or (key(mesh.vertices[o]), o) < (
                key(mesh.vertices[best_origin]),
                best_origin,
            ):
                best_origin = o
    assert best_origin is not None
    best_dest: Optional[int] = None
    for fi in range(conn.n_faces):
        if visited[fi]:
            continue
        for h in conn.half_edges_of_face(fi):
            if conn.origin[h] != best_origin:
                continue
            d = conn.dest[h]
            if best_dest is None or (key(mesh.vertices[d]), d) < (
                key(mesh.vertices[best_dest]),
                best_dest,
            ):
                best_dest = d
    assert best_dest is not None
    return best_origin, best_dest


def encode(
    mesh: QuantizedMesh,
    order: str = DFS,
    start_key: Callable[[QuantizedVertex], tuple] = height_sort_key,
) -> TokenSequence:
    """Tokenize a mesh. Deterministic: identical input, identical output.

    Raises InvalidMeshError, carrying the validation report, when the mesh
    fails the half-edge traversal requirement.
    """
    if order not in (DFS, BFS):
        raise ValueError(f"unknown traversal order: {order!r}")
    conn = halfedge.build(mesh)
    if not conn.report.ok:
        raise InvalidMeshError(conn.report)
    pos = mesh.vertices
    visited = [False] * conn.n_faces
    remaining = conn.n_faces
    records: list[StepRecord] = []
    pending: deque[tuple[int, int]] = deque()
    take = pending.pop if order == DFS else pending.popleft

    while remaining:
        v1, v2 = _start_edge(mesh, conn, visited, start_key)
        records.append(StepRecord(SOS, None, VERTEX, pos[v1]))
        records.append(StepRecord(SOS2, None, VERTEX, pos[v2]))
        pending.append((v2, v1))  # twin first, so (v1, v2) is processed first
        pending.append((v1, v2))
        while pending:
            a, b = take()
            edge = (pos[a], pos[b])
            h = conn.lookup(a, b)
            if h is None or visited[conn.face_of(h)]:
                records.append(StepRecord(EDGE, edge, STOP, None))
                continue
            visited[conn.face_of(h)] = True
            remaining -= 1
            c = conn.opposite_vertex(h)
            records.append(StepRecord(EDGE, edge, VERTEX, pos[c]))
            pending.append((a, c))
            pending.append((c, b))
    records.append(StepRecord(SOS, None, EOS, None))
    return TokenSequence(bits=mesh.bits, order=order, records=records)


def sequence_stats(seq: TokenSequence) -> SequenceStats:
    """Length accounting, including the token-per-face ratio against the naive
    nine-tokens-per-face baseline."""
    check_well_formed(seq)
    n_faces = sum(
        1 for r in seq.records if r.input_kind == EDGE and r.output_kind == VERTEX
    )
    n_components = sum(
        1 for r in seq.records if r.input_kind == SOS and r.output_kind == VERTEX
    )
    n_stops = sum(1 for r in seq.records if r.output_kind == STOP)
    n_traversal = sum(1 for r in seq.records if r.input_kind == EDGE)
    ratio = len(seq.records) / (9 * n_faces) if n_faces else None
    return SequenceStats(
        length=len(seq.records),
        n_faces=n_faces,
        n_components=n_components,
        n_stops=n_stops,
        n_traversal_records=n_traversal,
        ratio=ratio,
    )
