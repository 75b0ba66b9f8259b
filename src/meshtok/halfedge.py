"""Half-edge connectivity over a triangle mesh, validated as it is built.

Handles are plain ints: face ``f`` owns half-edges ``3f``, ``3f+1``, ``3f+2``
for its directed edges ``a->b``, ``b->c``, ``c->a``. So ``h`` lies in face
``h // 3``, and its destination is the origin of the next half-edge,
``h - h % 3 + (h + 1) % 3``. ``twin[h]`` is the half-edge running the other
way in the neighbouring face, or -1 on a boundary: the only adjacency the
codec needs. Building sorts the directed edges by the key ``o·n + d`` once:
equal keys are repeated directed edges, and the reversed key's place among
the sorted keys gives each twin. It checks the half-edge traversal
requirement on the way (see ``core.validate_manifold``); the result carries
the report, whose violations stay in face order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .core import QuantizedMesh, ValidationReport, Violation, face_array


@dataclass
class HalfEdgeConnectivity:
    origin: list[int]
    twin: list[int]
    report: ValidationReport


def build(mesh: QuantizedMesh) -> HalfEdgeConnectivity:
    """Construct connectivity and validate the mesh from one sort of its
    directed-edge keys.

    Violations are reported in face order: a face with a missing or repeated
    vertex index is reported once and contributes no half-edges to ``twin``;
    every repeat of a directed edge names the first face that claimed it, and
    only that first half-edge gets a twin. When ``report.ok`` is false the
    connectivity must not be traversed.
    """
    n = len(mesh.vertices)
    try:
        faces = face_array(mesh)
        origin = faces.ravel().tolist()
    except OverflowError:
        # An index beyond int64, which only a library caller can pass, is out
        # of range like n itself: the checks see it clamped to n.
        origin = list(chain.from_iterable(mesh.faces))
        faces = np.array([min(max(i, -1), n) for i in origin], np.int64).reshape(-1, 3)
    a, b, c = faces.T
    out_of_range = ((faces < 0) | (faces >= n)).any(axis=1)
    degenerate = ~out_of_range & ((a == b) | (b == c) | (a == c))
    # Half-edges of the faces that pass both checks, in handle order, and
    # their directed-edge keys; a stable sort keeps equal keys in that order.
    h = np.flatnonzero(np.repeat(~(out_of_range | degenerate), 3))
    dest = faces[:, [1, 2, 0]].ravel()[h]
    org = faces.ravel()[h]
    key = org * n + dest
    order = np.argsort(key, kind="stable")
    h, org, dest, key = h[order], org[order], dest[order], key[order]
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    # The first half-edge of each key group claims the edge; each claimer's
    # twin is the claimer of the reversed key, if there is one.
    claimer, claimed = h[first], key[first]
    reverse = dest[first] * n + org[first]
    at = np.minimum(np.searchsorted(claimed, reverse), len(claimed) - 1)
    found = claimed[at] == reverse
    twin = np.full(len(origin), -1, dtype=np.int64)
    twin[claimer[found]] = claimer[at[found]]

    # Violations keyed by the first handle a face-by-face walk meets them at.
    events = [
        (3 * f, Violation("index_out_of_range", f"face {f} references a missing vertex"))
        for f in np.flatnonzero(out_of_range).tolist()
    ]
    events += [
        (3 * f, Violation("degenerate_face", f"face {f} repeats a vertex index"))
        for f in np.flatnonzero(degenerate).tolist()
    ]
    repeat = ~first
    claimed_by = claimer[np.cumsum(first)[repeat] - 1]
    repeats = (x.tolist() for x in (h[repeat], org[repeat], dest[repeat], claimed_by))
    for r, o, d, claim in zip(*repeats):
        message = f"directed edge ({o},{d}) appears in faces {claim // 3} and {r // 3}"
        events.append((r, Violation("duplicate_directed_edge", message)))
    events.sort(key=lambda e: e[0])
    violations = [v for _, v in events]
    if not origin:
        violations.insert(0, Violation("no_faces", "mesh has no faces"))
    return HalfEdgeConnectivity(origin, twin.tolist(), ValidationReport(not violations, violations))
