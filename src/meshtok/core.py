"""Mesh data model: quantized and real triangle meshes, validation, components.

Coordinates live on an integer grid of ``2**bits`` cells per axis spanning the
cube ``[-0.5, 0.5]``. The z axis is treated as the height axis throughout; all
"lowest vertex" comparisons order by ``(z, y, x)``.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def height_sort_key(v: QuantizedVertex) -> tuple[int, int, int]:
    """Bottom-up vertex order: lexicographic on (z, y, x), z being height."""
    return (v.z, v.y, v.x)


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


def dequantized_vertex_array(mesh: QuantizedMesh) -> np.ndarray:
    """All mesh vertices dequantized to an (n, 3) float64 array."""
    if not mesh.vertices:
        return np.zeros((0, 3), dtype=np.float64)
    q = np.asarray(mesh.vertices, dtype=np.float64)
    return (q + 0.5) / (1 << mesh.bits) - 0.5


def dequantize_mesh(mesh: QuantizedMesh) -> MeshReal:
    return MeshReal(
        dequantized_vertex_array(mesh),
        np.asarray([tuple(f) for f in mesh.faces], dtype=np.int64).reshape(-1, 3),
    )


def validate_manifold(mesh: QuantizedMesh) -> ValidationReport:
    """Check the half-edge traversal requirement.

    A mesh passes iff every directed edge (ordered vertex pair) appears in at
    most one face and no face repeats a vertex index. Directed-edge uniqueness
    simultaneously rules out edges shared by more than two faces and
    inconsistent winding between neighbors. Bowtie (vertex-nonmanifold)
    configurations are allowed; edge-based traversal does not need vertex
    manifoldness. The report is the one ``halfedge.build`` makes in its walk.
    """
    from .halfedge import build  # halfedge imports this module

    return build(mesh).report


def connected_components(mesh: QuantizedMesh) -> list[set[int]]:
    """Partition face indices by edge-connectivity.

    Faces are adjacent iff they share an undirected edge; sharing only a
    vertex does not connect them. Components are ordered by smallest face
    index.
    """
    by_edge: dict[tuple[int, int], list[int]] = {}
    for fi, f in enumerate(mesh.faces):
        for o, d in ((f.a, f.b), (f.b, f.c), (f.c, f.a)):
            key = (o, d) if o < d else (d, o)
            by_edge.setdefault(key, []).append(fi)
    seen = [False] * len(mesh.faces)
    components: list[set[int]] = []
    for start in range(len(mesh.faces)):
        if seen[start]:
            continue
        comp = {start}
        seen[start] = True
        stack = [start]
        while stack:
            fi = stack.pop()
            f = mesh.faces[fi]
            for o, d in ((f.a, f.b), (f.b, f.c), (f.c, f.a)):
                key = (o, d) if o < d else (d, o)
                for nb in by_edge[key]:
                    if not seen[nb]:
                        seen[nb] = True
                        comp.add(nb)
                        stack.append(nb)
        components.append(comp)
    return components
