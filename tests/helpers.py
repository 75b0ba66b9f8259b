"""Shared test utilities: canonical face comparison and independent oracles.

The oracles here deliberately avoid the library's fast paths: components via
union-find over shared edges, validation via a standalone directed-edge scan,
step records via the index-based traversal that ``encode`` runs, without the
decoder's position-keyed machine,
normal consistency via scalar all-pairs loops, and point-to-triangle distance
via dense sampling on a barycentric lattice.
"""

from __future__ import annotations

from collections import Counter, deque

import numpy as np

from meshtok.core import Face, MeshReal, QuantizedMesh, Violation
from meshtok.sequencer import EDGE, EOS, SOS, SOS2, STOP, VERTEX, StepRecord
from meshtok.metrics import point_to_triangle_distance


def canonical_faces(mesh: QuantizedMesh) -> Counter:
    """Multiset of faces as position triples, rotated so the smallest
    position leads; winding survives, vertex indexing does not."""
    out: Counter = Counter()
    for f in mesh.faces:
        tri = [mesh.vertices[f.a], mesh.vertices[f.b], mesh.vertices[f.c]]
        k = min(range(3), key=lambda i: tri[i:] + tri[:i])
        out[tuple(tri[k:] + tri[:k])] += 1
    return out


def winding_flipped(mesh: QuantizedMesh) -> QuantizedMesh:
    return QuantizedMesh(
        list(mesh.vertices), [Face(f.a, f.c, f.b) for f in mesh.faces], mesh.bits
    )


def reference_records(mesh: QuantizedMesh, order: str) -> list[StepRecord]:
    """Records of ``encode(mesh, order)`` built during the traversal itself:
    each popped edge is looked up among the faces' directed edges by vertex
    index, and the component start is the (z, y, x)-lowest origin, then
    destination, among unvisited faces, ties broken by vertex index."""
    pos = mesh.vertices
    opposite = {}  # directed edge -> (face, opposite vertex)
    for fi, (a, b, c) in enumerate(mesh.faces):
        opposite[a, b], opposite[b, c], opposite[c, a] = (fi, c), (fi, a), (fi, b)
    visited = [False] * len(mesh.faces)
    pending: deque = deque()
    take = pending.pop if order == "dfs" else pending.popleft
    records = []

    def key(i):
        return (pos[i].z, pos[i].y, pos[i].x, i)

    while not all(visited):
        open_edges = [e for e, (fi, _) in opposite.items() if not visited[fi]]
        v1 = min((o for o, _ in open_edges), key=key)
        v2 = min((d for o, d in open_edges if o == v1), key=key)
        records.append(StepRecord(SOS, None, VERTEX, pos[v1]))
        records.append(StepRecord(SOS2, None, VERTEX, pos[v2]))
        pending += [(v2, v1), (v1, v2)]
        while pending:
            a, b = take()
            fi, c = opposite.get((a, b), (None, None))
            if fi is None or visited[fi]:
                records.append(StepRecord(EDGE, (pos[a], pos[b]), STOP, None))
                continue
            visited[fi] = True
            records.append(StepRecord(EDGE, (pos[a], pos[b]), VERTEX, pos[c]))
            pending += [(a, c), (c, b)]
    records.append(StepRecord(SOS, None, EOS, None))
    return records


def reference_violations(mesh: QuantizedMesh) -> list[Violation]:
    """Validation oracle: the traversal requirement checked by a standalone
    scan, face by face, without building any connectivity."""
    violations = []
    if not mesh.faces:
        violations.append(Violation("no_faces", "mesh has no faces"))
    first_face: dict[tuple[int, int], int] = {}
    for fi, f in enumerate(mesh.faces):
        if not all(0 <= v < len(mesh.vertices) for v in f):
            violations.append(
                Violation("index_out_of_range", f"face {fi} references a missing vertex")
            )
        elif len(set(f)) < 3:
            violations.append(Violation("degenerate_face", f"face {fi} repeats a vertex index"))
        else:
            for o, d in ((f.a, f.b), (f.b, f.c), (f.c, f.a)):
                if (o, d) in first_face:
                    violations.append(
                        Violation(
                            "duplicate_directed_edge",
                            f"directed edge ({o},{d}) appears in faces "
                            f"{first_face[(o, d)]} and {fi}",
                        )
                    )
                else:
                    first_face[(o, d)] = fi
    return violations


def union_find_components(mesh: QuantizedMesh) -> list[frozenset[int]]:
    """Independent component oracle: union-find keyed on shared undirected edges."""
    parent = list(range(len(mesh.faces)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    owners: dict[tuple[int, int], int] = {}
    for fi, f in enumerate(mesh.faces):
        for o, d in ((f.a, f.b), (f.b, f.c), (f.c, f.a)):
            key = (min(o, d), max(o, d))
            if key in owners:
                union(owners[key], fi)
            else:
                owners[key] = fi
    groups: dict[int, set[int]] = {}
    for fi in range(len(mesh.faces)):
        groups.setdefault(find(fi), set()).add(fi)
    return [frozenset(g) for g in groups.values()]


def brute_force_normal_consistency(src: MeshReal, ref: MeshReal) -> tuple[float, float]:
    """All-pairs scalar oracle for normal consistency, built before (and kept
    independent of) the vectorized closest-face path."""

    def face_geometry(mesh: MeshReal):
        triangles, normals, centroids = [], [], []
        for fa, fb, fc in mesh.faces:
            a, b, c = mesh.vertices[fa], mesh.vertices[fb], mesh.vertices[fc]
            n = np.cross(b - a, c - a)
            length = np.linalg.norm(n)
            if length <= 1e-12:
                continue
            triangles.append((a, b, c))
            normals.append(n / length)
            centroids.append((a + b + c) / 3.0)
        return triangles, normals, centroids

    def direction(src_geo, ref_geo):
        _, src_n, src_c = src_geo
        ref_t, ref_n, _ = ref_geo
        sims = []
        for n, c in zip(src_n, src_c):
            ds = [point_to_triangle_distance(c, np.vstack(tri)) for tri in ref_t]
            dmin = min(ds)
            best_j = next(j for j, d in enumerate(ds) if d <= dmin + 1e-12)
            sims.append(float(np.dot(n, ref_n[best_j])))
        return sims

    src_geo = face_geometry(src)
    ref_geo = face_geometry(ref)
    sims_sr = direction(src_geo, ref_geo)
    sims_rs = direction(ref_geo, src_geo)
    nc = 0.5 * float(np.mean(sims_sr)) + 0.5 * float(np.mean(sims_rs))
    abs_nc = 0.5 * float(np.mean(np.abs(sims_sr))) + 0.5 * float(np.mean(np.abs(sims_rs)))
    return nc, abs_nc


def barycentric_lattice(n_side: int) -> np.ndarray:
    """All (i, j, k)/n weight triples with i+j+k = n, as an (m, 3) array."""
    rows = []
    for i in range(n_side + 1):
        j = np.arange(n_side + 1 - i)
        k = n_side - i - j
        rows.append(np.column_stack([np.full_like(j, i), j, k]))
    return np.vstack(rows) / float(n_side)


def dense_sample_distance(p: np.ndarray, tri: np.ndarray, weights: np.ndarray) -> float:
    """Distance oracle: min distance from p to a dense point lattice on tri."""
    pts = weights @ np.asarray(tri, dtype=np.float64)
    return float(np.min(np.linalg.norm(pts - np.asarray(p, dtype=np.float64), axis=1)))


def random_triangle_soup(rng: np.random.Generator, n_verts: int, n_faces: int) -> MeshReal:
    """Arbitrary (generally non-manifold) triangle soup for metric tests."""
    verts = rng.uniform(-0.5, 0.5, size=(n_verts, 3))
    faces = []
    while len(faces) < n_faces:
        a, b, c = rng.integers(0, n_verts, size=3)
        if a == b or b == c or a == c:
            continue
        area = 0.5 * np.linalg.norm(np.cross(verts[b] - verts[a], verts[c] - verts[a]))
        if area < 1e-6:
            continue
        faces.append((a, b, c))
    return MeshReal(verts, np.asarray(faces))
