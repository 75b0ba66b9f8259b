"""Half-edge connectivity over a triangle mesh, validated as it is built.

Handles are plain ints: face ``f`` owns half-edges ``3f``, ``3f+1``, ``3f+2``
for its directed edges ``a->b``, ``b->c``, ``c->a``. So ``h`` lies in face
``h // 3``, and its destination is the origin of the next half-edge,
``h - h % 3 + (h + 1) % 3``. ``twin[h]`` is the half-edge running the other
way in the neighbouring face, or -1 on a boundary: the only adjacency the
codec needs. Building walks the faces' directed edges once and checks the
half-edge traversal requirement on the way (see ``core.validate_manifold``);
the result carries the report.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import QuantizedMesh, ValidationReport, Violation


@dataclass
class HalfEdgeConnectivity:
    origin: list[int]
    twin: list[int]
    report: ValidationReport


def build(mesh: QuantizedMesh) -> HalfEdgeConnectivity:
    """Construct connectivity and validate the mesh in the same walk.

    Violations are reported in face order: a face with a missing or repeated
    vertex index is reported once and contributes no half-edges to ``twin``;
    every repeat of a directed edge names the first face that claimed it.
    When ``report.ok`` is false the connectivity must not be traversed.
    """
    n_verts = len(mesh.vertices)
    violations: list[Violation] = []
    if not mesh.faces:
        violations.append(Violation("no_faces", "mesh has no faces"))
    origin: list[int] = []
    twin = [-1] * (3 * len(mesh.faces))
    by_edge: dict[int, int] = {}  # directed edge o->d, keyed o * n_verts + d
    for fi, (a, b, c) in enumerate(mesh.faces):
        origin += (a, b, c)
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
        h = 3 * fi
        for o, d in ((a, b), (b, c), (c, a)):
            first = by_edge.setdefault(o * n_verts + d, h)
            if first != h:
                violations.append(
                    Violation(
                        "duplicate_directed_edge",
                        f"directed edge ({o},{d}) appears in faces {first // 3} and {fi}",
                    )
                )
            else:
                t = by_edge.get(d * n_verts + o)
                if t is not None:
                    twin[h] = t
                    twin[t] = h
            h += 1
    return HalfEdgeConnectivity(origin, twin, ValidationReport(not violations, violations))
