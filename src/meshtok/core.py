"""Mesh data model: quantized and real triangle meshes, validation, components.

Coordinates live on an integer grid of ``2**bits`` cells per axis spanning the
cube ``[-0.5, 0.5]``. The z axis is treated as the height axis throughout; all
"lowest vertex" comparisons order by ``(z, y, x)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import countOf
from typing import NamedTuple

import numpy as np


class QuantizedVertex(NamedTuple):
    """Grid vertex; each coordinate is an integer in ``[0, 2**bits)``."""

    x: int
    y: int
    z: int


class Face(NamedTuple):
    """Vertex indices, counter-clockwise when seen from the outward-normal side."""

    a: int
    b: int
    c: int


MAX_BITS = 16


def valid_bits(bits: int) -> bool:
    """Whether ``bits`` is a supported grid depth: an int from 1 to
    ``MAX_BITS``. A bool is not a bit count."""
    return type(bits) is int and 1 <= bits <= MAX_BITS


def require_valid_bits(bits: int) -> None:
    """Raise ValueError unless ``valid_bits(bits)``."""
    if not valid_bits(bits):
        raise ValueError(f"bits must be in [1, {MAX_BITS}]")


@dataclass
class QuantizedMesh:
    vertices: list[QuantizedVertex]
    faces: list[Face]
    bits: int = 7


@dataclass(eq=False)
class MeshReal:
    """Triangle mesh with real coordinates in model units."""

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self) -> None:
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.faces = np.asarray(self.faces, dtype=np.int64).reshape(-1, 3)


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


@dataclass
class ValidationReport:
    ok: bool
    violations: list[Violation]


class InvalidMeshError(ValueError):
    """A mesh that fails validation was given where a valid one is required;
    ``report`` holds every violation."""

    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__("; ".join(v.message for v in report.violations[:5]))


def quantize_coord(x: float, bits: int) -> int:
    """Map a real coordinate in [-0.5, 0.5] to its grid cell (clamped)."""
    cells = 1 << bits
    # floor((x + 0.5) * cells), exactly: the sum x + 0.5 can round up onto a
    # cell boundary, while scaling by a power of two and adding an int cannot.
    q = int(np.floor(x * cells)) + cells // 2
    return min(max(q, 0), cells - 1)


def dequantize_coord(q: int, bits: int) -> float:
    """Cell-center reconstruction: symmetric, zero-mean rounding error."""
    return (q + 0.5) / (1 << bits) - 0.5


def require_triples(records: list, kind: str) -> None:
    """Raise ValueError, naming the first of ``records`` (each a ``kind``)
    that does not hold three entries. Flattened, a record of four and one of
    two would read as two records of three."""
    if countOf(map(len, records), 3) != len(records):
        i = next(i for i, r in enumerate(records) if len(r) != 3)
        raise ValueError(f"{kind} {i} holds {len(records[i])} entries, not three")


def face_array(mesh: QuantizedMesh) -> np.ndarray:
    """The face vertex indices as an (m, 3) int64 array. Raises ValueError
    for a face that is not three indices, OverflowError for an index beyond
    int64."""
    require_triples(mesh.faces, "face")
    flat = np.fromiter(chain.from_iterable(mesh.faces), np.int64, 3 * len(mesh.faces))
    return flat.reshape(-1, 3)


def vertex_array(mesh: QuantizedMesh) -> np.ndarray:
    """The grid coordinates as an (n, 3) int64 array. Raises ValueError for
    a vertex that is not three coordinates."""
    require_triples(mesh.vertices, "vertex")
    flat = np.fromiter(chain.from_iterable(mesh.vertices), np.int64, 3 * len(mesh.vertices))
    return flat.reshape(-1, 3)


def dequantized_vertex_array(mesh: QuantizedMesh) -> np.ndarray:
    """All mesh vertices dequantized to an (n, 3) float64 array."""
    return (vertex_array(mesh) + 0.5) / (1 << mesh.bits) - 0.5


def dequantize_mesh(mesh: QuantizedMesh) -> MeshReal:
    return MeshReal(dequantized_vertex_array(mesh), face_array(mesh))


def validate_manifold(mesh: QuantizedMesh) -> ValidationReport:
    """Check the half-edge traversal requirement.

    A mesh passes iff every directed edge (ordered vertex pair) appears in at
    most one face and no face repeats a vertex index. Directed-edge uniqueness
    simultaneously rules out edges shared by more than two faces and
    inconsistent winding between neighbors. Bowtie (vertex-nonmanifold)
    configurations are allowed; edge-based traversal does not need vertex
    manifoldness. The report is the one ``halfedge.build`` makes.
    """
    from .halfedge import build  # halfedge imports this module

    return build(mesh).report


def connected_components(mesh: QuantizedMesh) -> list[set[int]]:
    """Partition face indices by edge-connectivity.

    Faces are adjacent iff they share an edge, which on a valid mesh is a
    pair of twin half-edges; sharing only a vertex does not connect them.
    Components are ordered by smallest face index. The mesh must pass
    ``validate_manifold``; otherwise InvalidMeshError carries its report.
    """
    from .halfedge import build  # halfedge imports this module

    conn = build(mesh)
    if not conn.report.ok:
        raise InvalidMeshError(conn.report)
    twin = conn.twin
    seen = [False] * len(mesh.faces)
    components: list[set[int]] = []
    for start in range(len(mesh.faces)):
        if seen[start]:
            continue
        comp = {start}
        seen[start] = True
        stack = [start]
        while stack:
            f = stack.pop()
            for t in twin[3 * f : 3 * f + 3]:
                if t >= 0 and not seen[t // 3]:
                    seen[t // 3] = True
                    comp.add(t // 3)
                    stack.append(t // 3)
        components.append(comp)
    return components
