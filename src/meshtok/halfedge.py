"""Half-edge connectivity over a triangle mesh, validated as it is built.

Handles are plain ints: face ``f`` owns half-edges ``3f``, ``3f+1``, ``3f+2``
for its directed edges ``a->b``, ``b->c``, ``c->a``. Building walks the faces'
directed edges once and checks the half-edge traversal requirement on the way
(see ``core.validate_manifold``); the result carries the report. The structure
is immutable after build; traversals keep their own visited flags so one
connectivity can serve many walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import QuantizedMesh, ValidationReport, Violation


@dataclass
class HalfEdgeConnectivity:
    n_faces: int
    origin: list[int]
    dest: list[int]
    _by_edge: dict[tuple[int, int], int]
    report: ValidationReport

    def face_of(self, h: int) -> int:
        return h // 3

    def next_of(self, h: int) -> int:
        return h - h % 3 + (h + 1) % 3

    def lookup(self, origin: int, dest: int) -> Optional[int]:
        """Handle of the half-edge origin->dest, or None if no face contains it."""
        return self._by_edge.get((origin, dest))

    def opposite_vertex(self, h: int) -> int:
        """Third vertex of the face containing h: origin of next(next(h))."""
        return self.origin[self.next_of(self.next_of(h))]


def build(mesh: QuantizedMesh) -> HalfEdgeConnectivity:
    """Construct connectivity and validate the mesh in the same walk.

    Violations are reported in face order: a face with a missing or repeated
    vertex index is reported once and contributes no half-edges to lookups;
    every repeat of a directed edge names the first face that claimed it.
    When ``report.ok`` is false the connectivity must not be traversed.
    """
    n_verts = len(mesh.vertices)
    violations: list[Violation] = []
    if not mesh.faces:
        violations.append(Violation("no_faces", "mesh has no faces"))
    origin: list[int] = []
    dest: list[int] = []
    by_edge: dict[tuple[int, int], int] = {}
    for fi, (a, b, c) in enumerate(mesh.faces):
        origin += (a, b, c)
        dest += (b, c, a)
        if not (0 <= a < n_verts and 0 <= b < n_verts and 0 <= c < n_verts):
            violations.append(
                Violation("index_out_of_range", f"face {fi} references a missing vertex")
            )
            continue
        if a == b or b == c or a == c:
            violations.append(
                Violation("degenerate_face", f"face {fi} repeats a vertex index")
            )
            continue
        for h, e in enumerate(((a, b), (b, c), (c, a)), 3 * fi):
            first = by_edge.setdefault(e, h)
            if first != h:
                violations.append(
                    Violation(
                        "duplicate_directed_edge",
                        f"directed edge ({e[0]},{e[1]}) appears in faces {first // 3} and {fi}",
                    )
                )
    return HalfEdgeConnectivity(
        len(mesh.faces), origin, dest, by_edge, ValidationReport(not violations, violations)
    )
