"""Shared test utilities: canonical face comparison and independent oracles.

The oracles here deliberately avoid the library's fast paths: components via
union-find over shared edges, validation via a standalone directed-edge scan,
half-edge connectivity via the face-order dict loop that preceded the sort,
step records via the index-based traversal that ``encode`` runs, without the
decoder's position-keyed machine,
normal consistency via scalar all-pairs loops, point-to-triangle distance
via dense sampling on a barycentric lattice, Chamfer distance via queries
in input order, nearest faces via a search over every (point, face) pair,
quantization and silhouette masks via the per-vertex and per-triangle
loops that the vectorized versions replaced,
silhouette cluster counts via ``scipy.ndimage.label``, file reading
and writing via the per-record code that preceded the current, text
records via the JSON decoder alone, machine steps via the face helper that
preceded the inline face step, and generation via the vertex-set duplicate
rule that preceded the directed-edge one and via the pass that adjusted
each answer before the machine applied the face rules itself.
"""

from __future__ import annotations

import json
import math
import random
import struct
from collections import Counter, deque
from pathlib import Path
from typing import Optional, Union

import numpy as np
from scipy import ndimage

from meshtok.core import (
    Face,
    MeshReal,
    QuantizedMesh,
    QuantizedVertex,
    ValidationReport,
    Violation,
    dequantize_coord,
    valid_bits,
)
from meshtok.sequencer import (
    ANSWER_EOS,
    ANSWER_STOP,
    BFS,
    DFS,
    EDGE,
    EOS,
    SOS,
    SOS2,
    STOP,
    VERTEX,
    MalformedSequenceError,
    PredictorAnswer,
    StepRecord,
    TokenSequence,
    answer_vertex,
)
from meshtok.generator import (
    HALT_BUDGET,
    HALT_EOS,
    DesyncError,
    GeneratorConfig,
    IllegalAnswerError,
    Predictor,
    PredictorQuery,
    RunResult,
    _Machine,
    fuzz_predictor,
)
from meshtok.halfedge import HalfEdgeConnectivity
from meshtok.metrics import point_to_triangle_distance
from meshtok.preprocess import OutOfRangeError
from meshtok.streamio import (
    MAGIC,
    VERSION,
    EmptyMeshError,
    FormatError,
    ObjParseError,
    _OP_EOS,
    _OP_STOP,
    _OP_VERTEX,
    _answer_line,
    _text_object,
)


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


# The face-order loop that ``halfedge.build`` replaced with one sort of the
# directed-edge keys, kept verbatim as its reference.
def reference_build(mesh: QuantizedMesh) -> HalfEdgeConnectivity:
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


def brute_force_similarities(src: MeshReal, ref: MeshReal) -> tuple[list[float], list[float]]:
    """All-pairs scalar oracle for the normal cosines of both directions
    (src faces against their nearest ref face, then the reverse), built
    before (and kept independent of) the vectorized closest-face path."""

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
    return direction(src_geo, ref_geo), direction(ref_geo, src_geo)


def brute_force_normal_consistency(src: MeshReal, ref: MeshReal) -> tuple[float, float]:
    """(nc, abs_nc) from the scalar all-pairs cosines."""
    sims_sr, sims_rs = brute_force_similarities(src, ref)
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


# The Chamfer distance that ``metrics.chamfer`` replaced: default trees,
# points queried in input order. The tree-order queries must give the same
# value, bit for bit.

def reference_chamfer(pts_a: np.ndarray, pts_b: np.ndarray) -> float:
    from scipy.spatial import cKDTree

    pts_a = np.asarray(pts_a, dtype=np.float64).reshape(-1, 3)
    pts_b = np.asarray(pts_b, dtype=np.float64).reshape(-1, 3)
    d_ab = cKDTree(pts_b).query(pts_a, workers=1)[0]
    d_ba = cKDTree(pts_a).query(pts_b, workers=1)[0]
    return 0.5 * (float(d_ab.mean()) + float(d_ba.mean()))


# The dense nearest-face search that ``metrics.closest_faces`` replaced: every
# (point, face) pair, chunked. The pruned search must return the same faces
# and the same distances.

TIE_EPS = 1e-12


def dense_closest_triangles_chunk(
    p: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized closest-point distances from points (n,3) to triangles
    (m,3); returns per-point (min distance, argmin index). A zero-area
    triangle is measured by its edges, as ``point_to_triangle_distance``
    does."""
    ab = b - a
    ac = c - a
    ap = p[:, None, :] - a[None, :, :]
    bp = p[:, None, :] - b[None, :, :]
    cp = p[:, None, :] - c[None, :, :]
    d1 = np.einsum("mk,nmk->nm", ab, ap)
    d2 = np.einsum("mk,nmk->nm", ac, ap)
    d3 = np.einsum("mk,nmk->nm", ab, bp)
    d4 = np.einsum("mk,nmk->nm", ac, bp)
    d5 = np.einsum("mk,nmk->nm", ab, cp)
    d6 = np.einsum("mk,nmk->nm", ac, cp)
    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    r1 = (d1 <= 0.0) & (d2 <= 0.0)
    taken = r1.copy()
    r2 = ~taken & (d3 >= 0.0) & (d4 <= d3)
    taken |= r2
    r3 = ~taken & (vc <= 0.0) & (d1 >= 0.0) & (d3 <= 0.0)
    taken |= r3
    r4 = ~taken & (d6 >= 0.0) & (d5 <= d6)
    taken |= r4
    r5 = ~taken & (vb <= 0.0) & (d2 >= 0.0) & (d6 <= 0.0)
    taken |= r5
    r6 = ~taken & (va <= 0.0) & (d4 - d3 >= 0.0) & (d5 - d6 >= 0.0)
    taken |= r6
    r0 = ~taken

    with np.errstate(divide="ignore", invalid="ignore"):
        t3 = np.where(r3, d1 / np.where(d1 - d3 != 0.0, d1 - d3, 1.0), 0.0)
        t5 = np.where(r5, d2 / np.where(d2 - d6 != 0.0, d2 - d6, 1.0), 0.0)
        den6 = (d4 - d3) + (d5 - d6)
        t6 = np.where(r6, (d4 - d3) / np.where(den6 != 0.0, den6, 1.0), 0.0)
        den0 = va + vb + vc
        safe0 = np.where(den0 != 0.0, den0, 1.0)
        v0 = np.where(r0, vb / safe0, 0.0)
        w0 = np.where(r0, vc / safe0, 0.0)

    closest = a[None, :, :] + v0[..., None] * ab[None, :, :] + w0[..., None] * ac[None, :, :]
    closest = np.where(r6[..., None], b[None, :, :] + t6[..., None] * (c - b)[None, :, :], closest)
    closest = np.where(r5[..., None], a[None, :, :] + t5[..., None] * ac[None, :, :], closest)
    closest = np.where(r4[..., None], np.broadcast_to(c[None, :, :], closest.shape), closest)
    closest = np.where(r3[..., None], a[None, :, :] + t3[..., None] * ab[None, :, :], closest)
    closest = np.where(r2[..., None], np.broadcast_to(b[None, :, :], closest.shape), closest)
    closest = np.where(r1[..., None], np.broadcast_to(a[None, :, :], closest.shape), closest)

    dist = np.linalg.norm(p[:, None, :] - closest, axis=2)
    # A zero-area triangle (cross product exactly zero) is its three edges.
    flat = ~np.cross(ab, ac).any(axis=1)
    if flat.any():
        q = p[:, None, :]
        a, b, c = a[flat], b[flat], c[flat]
        edges = ((a, b), (b, c), (c, a))
        dist[:, flat] = np.minimum.reduce([_dense_segment_distances(q, s0, s1) for s0, s1 in edges])
    # Ties (coincident faces, shared closest edges) go to the lowest face
    # index; the window absorbs accumulation-order noise between equally
    # distant faces.
    dmin = dist.min(axis=1)
    idx = np.argmax(dist <= (dmin + TIE_EPS)[:, None], axis=1)
    return dist[np.arange(len(p)), idx], idx


def _dense_segment_distances(q: np.ndarray, s0: np.ndarray, s1: np.ndarray) -> np.ndarray:
    """Distances from points (n, 1, 3) to segments (k, 3), as (n, k); a
    zero-length segment is its point."""
    d = s1 - s0
    denom = np.einsum("kj,kj->k", d, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(np.einsum("nkj,kj->nk", q - s0, d) / denom, 0.0, 1.0)
    t = np.where(denom == 0.0, 0.0, t)
    return np.linalg.norm(q - (s0 + t[..., None] * d), axis=2)


def dense_closest_faces(points: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closest triangle per query point; chunked to bound memory, argmin ties
    resolve to the lowest face index."""
    n, m = len(points), len(a)
    dists = np.empty(n, dtype=np.float64)
    idxs = np.empty(n, dtype=np.int64)
    chunk = max(1, int(1_000_000 // max(m, 1)))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        d, i = dense_closest_triangles_chunk(points[lo:hi], a, b, c)
        dists[lo:hi] = d
        idxs[lo:hi] = i
    return dists, idxs


# The per-vertex and per-face loops that ``preprocess.quantize`` replaced:
# the vectorized version must return an equal ``QuantizedMesh``, the same
# vertices and faces in the same order.

def reference_quantize(mesh: MeshReal, bits: int = 7) -> QuantizedMesh:
    """Snap coordinates to the grid, merge coincident vertices, drop faces
    that become degenerate, and drop repeats of the same unordered vertex set
    (opposite-winding copies count as repeats: keeping both would break the
    half-edge condition either way)."""
    if not 1 <= bits <= 16:
        raise ValueError("bits must be in [1, 16]")
    v = mesh.vertices
    if v.size and not (v.min() >= -0.5 - 1e-9 and v.max() <= 0.5 + 1e-9):  # NaN fails too
        raise OutOfRangeError(
            f"coordinates span [{v.min():.6g}, {v.max():.6g}], expected [-0.5, 0.5]"
        )
    cells = 1 << bits
    q = np.floor(v * cells).astype(np.int64) + cells // 2  # exact, as in quantize_coord
    np.clip(q, 0, cells - 1, out=q)

    remap: list[int] = []
    vert_index: dict[QuantizedVertex, int] = {}
    verts: list[QuantizedVertex] = []
    for row in q:
        qv = QuantizedVertex(int(row[0]), int(row[1]), int(row[2]))
        idx = vert_index.get(qv)
        if idx is None:
            idx = len(verts)
            vert_index[qv] = idx
            verts.append(qv)
        remap.append(idx)

    faces: list[Face] = []
    seen_sets: set[frozenset[int]] = set()
    for fa, fb, fc in mesh.faces:
        a, b, c = remap[fa], remap[fb], remap[fc]
        if a == b or b == c or a == c:
            continue
        key = frozenset((a, b, c))
        if key in seen_sets:
            continue
        seen_sets.add(key)
        faces.append(Face(a, b, c))
    return QuantizedMesh(verts, faces, bits)


# The per-triangle rasterizer that ``preprocess._fill_triangles_2d`` replaced:
# the batched version must return the same mask.

def reference_fill_triangles_2d(tri2d: np.ndarray, grid: int) -> np.ndarray:
    """Rasterize filled triangles with coordinates in [-0.5, 0.5] onto a
    boolean grid; pixel centers on an edge count as inside."""
    mask = np.zeros((grid, grid), dtype=bool)
    px = (tri2d + 0.5) * grid  # (m, 3, 2) in pixel units
    eps = 1e-6
    for a, b, c in px:
        area = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if abs(area) < 1e-12:
            continue
        lo = np.clip(np.floor(np.minimum(np.minimum(a, b), c) - 0.5).astype(int), 0, grid - 1)
        hi = np.clip(np.ceil(np.maximum(np.maximum(a, b), c) + 0.5).astype(int), 0, grid)
        xs = np.arange(lo[0], hi[0]) + 0.5
        ys = np.arange(lo[1], hi[1]) + 0.5
        if xs.size == 0 or ys.size == 0:
            continue
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        w0 = (b[0] - a[0]) * (gy - a[1]) - (b[1] - a[1]) * (gx - a[0])
        w1 = (c[0] - b[0]) * (gy - b[1]) - (c[1] - b[1]) * (gx - b[0])
        w2 = (a[0] - c[0]) * (gy - c[1]) - (a[1] - c[1]) * (gx - c[0])
        if area < 0:
            w0, w1, w2 = -w0, -w1, -w2
        inside = (w0 >= -eps) & (w1 >= -eps) & (w2 >= -eps)
        mask[lo[0] : hi[0], lo[1] : hi[1]] |= inside
    return mask


# The labelling that ``preprocess._cluster_count`` replaced: the run-based
# union-find must count the same 8-connected clusters.

def reference_cluster_count(mask: np.ndarray) -> int:
    """Connected clusters of filled pixels under 8-connectivity."""
    _, count = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
    return int(count)


# The file readers and writers and the grammar walk before each distinct
# record was handled once: the current versions must return the same
# results, write the same bytes and raise the same errors. Only the names
# differ, and the writers check the sequence with ``reference_walk``.

def reference_read_obj(path: Union[str, Path]) -> MeshReal:
    """Parse `v` and `f` lines (1-based indices, `a/b/c` references allowed);
    everything else is ignored. Polygons are fan-triangulated."""
    verts: list[tuple[float, float, float]] = []
    faces: list[tuple[int, int, int]] = []
    face_lines: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            kw = parts[0]
            if kw == "v":
                if len(parts) < 4:
                    raise ObjParseError("vertex needs three coordinates", lineno)
                try:
                    xyz = (float(parts[1]), float(parts[2]), float(parts[3]))
                except ValueError:
                    raise ObjParseError("bad vertex coordinate", lineno) from None
                if not all(map(math.isfinite, xyz)):
                    raise ObjParseError("non-finite vertex coordinate", lineno)
                verts.append(xyz)
            elif kw == "f":
                idx: list[int] = []
                for token in parts[1:]:
                    head = token.split("/")[0]
                    try:
                        value = int(head)
                    except ValueError:
                        raise ObjParseError(f"bad face index {head!r}", lineno) from None
                    if value < 0:
                        raise ObjParseError("negative indices are not supported", lineno)
                    if value == 0:
                        raise ObjParseError("face indices are 1-based", lineno)
                    idx.append(value - 1)
                if len(idx) < 3:
                    raise ObjParseError("face needs at least three vertices", lineno)
                for k in range(1, len(idx) - 1):
                    faces.append((idx[0], idx[k], idx[k + 1]))
                    face_lines.append(lineno)
    for (fa, fb, fc), lineno in zip(faces, face_lines):
        if max(fa, fb, fc) >= len(verts):
            raise ObjParseError("face references a missing vertex", lineno)
    return MeshReal(
        np.asarray(verts, dtype=np.float64).reshape(-1, 3),
        np.asarray(faces, dtype=np.int64).reshape(-1, 3),
    )


def reference_write_obj(mesh: Union[QuantizedMesh, MeshReal], path: Union[str, Path]) -> None:
    """Write vertices and faces; quantized meshes are written at their grid
    cell centers, so reading back and re-quantizing reproduces them exactly."""
    if isinstance(mesh, QuantizedMesh):
        if not mesh.vertices or not mesh.faces:
            raise EmptyMeshError("refusing to write a mesh without vertices or faces")
        rows = (
            (
                dequantize_coord(v.x, mesh.bits),
                dequantize_coord(v.y, mesh.bits),
                dequantize_coord(v.z, mesh.bits),
            )
            for v in mesh.vertices
        )
        faces = mesh.faces
    else:
        if len(mesh.vertices) == 0 or len(mesh.faces) == 0:
            raise EmptyMeshError("refusing to write a mesh without vertices or faces")
        rows = ((float(x), float(y), float(z)) for x, y, z in mesh.vertices)
        faces = [Face(int(a), int(b), int(c)) for a, b, c in mesh.faces]
    lines = [f"v {x:.9g} {y:.9g} {z:.9g}" for x, y, z in rows]
    lines.extend(f"f {f.a + 1} {f.b + 1} {f.c + 1}" for f in faces)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def reference_write_xyz(points: np.ndarray, path: Union[str, Path]) -> None:
    """``write_pointcloud``'s xyz form, one f-string per point."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if len(points) == 0:
        raise ValueError("refusing to write an empty point set")
    lines = [f"{x:.9g} {y:.9g} {z:.9g}" for x, y, z in points]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def reference_write_stream(seq: TokenSequence, path: Union[str, Path]) -> None:
    reference_walk(seq)
    flags = 0 if seq.order == DFS else 1
    out = bytearray()
    out += MAGIC
    out += struct.pack("<BBBI", VERSION, seq.bits, flags, len(seq.outputs))
    for kind, v in seq.outputs:
        if kind == VERTEX:
            out += struct.pack("<BHHH", _OP_VERTEX, v.z, v.y, v.x)
        elif kind == STOP:
            out.append(_OP_STOP)
        else:
            out.append(_OP_EOS)
    Path(path).write_bytes(bytes(out))


def reference_parse_stream_bytes(data: bytes) -> tuple[int, str, list[PredictorAnswer]]:
    if len(data) < 11:
        raise FormatError("file shorter than the 11-byte header", len(data))
    if data[:4] != MAGIC:
        raise FormatError(f"bad magic {data[:4]!r}", 0)
    version, bits, flags = data[4], data[5], data[6]
    if version != VERSION:
        raise FormatError(f"unsupported version {version}", 4)
    if not valid_bits(bits):
        raise FormatError(f"bits {bits} outside [1, 16]", 5)
    if flags & ~1:
        raise FormatError(f"reserved flag bits set: {flags:#04x}", 6)
    order = BFS if flags & 1 else DFS
    (count,) = struct.unpack_from("<I", data, 7)
    cells = 1 << bits
    answers: list[PredictorAnswer] = []
    pos = 11
    for _ in range(count):
        if pos >= len(data):
            raise FormatError("truncated record", pos)
        op = data[pos]
        if op == _OP_VERTEX:
            if pos + 7 > len(data):
                raise FormatError("truncated vertex record", pos)
            z, y, x = struct.unpack_from("<HHH", data, pos + 1)
            if max(x, y, z) >= cells:
                raise FormatError(
                    f"coordinate out of range for {bits}-bit grid", pos + 1
                )
            answers.append(answer_vertex(QuantizedVertex(x, y, z)))
            pos += 7
        elif op == _OP_STOP:
            answers.append(ANSWER_STOP)
            pos += 1
        elif op == _OP_EOS:
            answers.append(ANSWER_EOS)
            pos += 1
        else:
            raise FormatError(f"unknown opcode {op}", pos)
    if pos != len(data):
        raise FormatError(f"{len(data) - pos} trailing bytes", pos)
    _reference_require_single_terminal_eos(answers)
    return bits, order, answers


def _reference_require_single_terminal_eos(answers: list[PredictorAnswer]) -> None:
    eos_positions = [i for i, a in enumerate(answers) if a.kind == EOS]
    if not answers or eos_positions != [len(answers) - 1]:
        raise FormatError("stream must contain exactly one EOS, as its last record")


def reference_dumps_text_stream(seq: TokenSequence) -> str:
    reference_walk(seq)
    header = json.dumps(
        {"magic": "TMTS", "bits": seq.bits, "order": seq.order}, separators=(",", ":")
    )
    return "\n".join([header, *map(_answer_line, seq.outputs)]) + "\n"


def reference_parse_text_stream(text: str) -> tuple[int, str, list[PredictorAnswer]]:
    """Header fields plus outputs; every malformed line is a FormatError
    naming its line number (counting blank lines)."""
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise FormatError("empty text stream")
    header_line, header_text = lines[0]
    header = _text_object(header_text, f"line {header_line}")
    if header.get("magic") != "TMTS":
        raise FormatError(f"bad magic in text header on line {header_line}")
    bits = header.get("bits")
    if type(bits) is not int or not valid_bits(bits):  # bool is not a bit count
        raise FormatError(f"bits {bits!r} on line {header_line} is not an integer in [1, 16]")
    order = header.get("order")
    if order not in (DFS, BFS):
        raise FormatError(f"unknown order {order!r} on line {header_line}")
    cells = 1 << bits
    answers = [reference_parse_answer(line, f"line {i}", cells) for i, line in lines[1:]]
    _reference_require_single_terminal_eos(answers)
    return bits, order, answers


def reference_parse_answer(line: str, where: str, cells: int = 1 << 16) -> PredictorAnswer:
    """One text-stream record, every line through the JSON decoder;
    FormatError, naming ``where``, unless it is a STOP, an EOS or a vertex
    with integer coordinates in [0, cells)."""
    obj = _text_object(line, where)
    op = obj.get("op")
    if op == "v":
        x, y, z = xyz = obj.get("x"), obj.get("y"), obj.get("z")
        if not (
            type(x) is int and type(y) is int and type(z) is int  # bool is no coordinate
            and 0 <= x < cells and 0 <= y < cells and 0 <= z < cells
        ):
            raise FormatError(f"vertex on {where} needs integer x, y, z in [0, {cells}), got {xyz}")
        return answer_vertex(QuantizedVertex(x, y, z))
    if op == "stop":
        return ANSWER_STOP
    if op == "eos":
        return ANSWER_EOS
    raise FormatError(f"unknown op {op!r} on {where}")


def reference_walk(seq: TokenSequence) -> tuple[int, int, int]:
    """Check ``seq`` and count its (faces, components, stops).

    The outputs must follow the component grammar: per component a VERTEX,
    a VERTEX, then one output per pending edge, where VERTEX adds one pending
    edge (pop one, push two) and STOP removes one; the component ends when no
    edge is pending. The sequence ends in exactly one EOS, answering the
    start of a component. The counter does no geometry: a vertex repeating an
    edge endpoint is left for replay to reject.
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


def reference_run(predictor: Predictor, cfg: Optional[GeneratorConfig] = None) -> RunResult:
    """``generator.run`` as it was when its duplicate check kept the vertex
    set of every emitted face: it stops a face over an emitted vertex set but
    not one that reuses a directed edge over a new vertex set."""
    cfg = cfg or GeneratorConfig()
    if cfg.max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    m = _Machine(cfg.bits, cfg.order)
    emitted: Optional[set[frozenset[int]]] = set() if cfg.duplicate_check else None
    for _ in range(cfg.max_steps):
        v1 = m.verts[m.v1] if m.mode == SOS2 else None
        query = PredictorQuery(m.step, m.mode, m.component, len(m.pending), v1, m.input_edge())
        ans = predictor(query)
        if m.mode == EDGE and ans.kind == VERTEX and _reference_on_grid(ans.vertex, m.cells):
            ans = _reference_adjust(m, ans, emitted)
        m.answer(ans)
        if m.done:
            return m.result(HALT_EOS)
    return m.result(HALT_BUDGET)


def _reference_on_grid(v: QuantizedVertex, cells: int) -> bool:
    x, y, z = v
    return 0 <= x < cells and 0 <= y < cells and 0 <= z < cells


def _reference_adjust(
    m: _Machine, ans: PredictorAnswer, emitted: Optional[set[frozenset[int]]]
) -> PredictorAnswer:
    """The answer ``run`` gives the machine for an on-grid VERTEX answering
    EDGE: STOP in place of a face that repeats a vertex, or of a face already
    in ``emitted`` (the vertex-index sets of the faces emitted so far, kept
    only when the duplicate check is on); else ``ans`` itself."""
    ia, ib = m.edge
    ic = m.vert_index.get(ans.vertex)
    if ia == ib or ic == ia or ic == ib:
        return ANSWER_STOP
    if emitted is not None:
        # A new vertex gets the next index, so its face is new.
        key = frozenset((ia, ib, len(m.verts) if ic is None else ic))
        if key in emitted:
            return ANSWER_STOP
        emitted.add(key)
    return ans


def reference_edge_run(predictor: Predictor, cfg: Optional[GeneratorConfig] = None) -> RunResult:
    """``generator.run`` as it was before its machine applied the face rules:
    ``_reference_adjust_edge`` turns a proposal into STOP after the
    predictor answers and before the strict machine takes it."""
    cfg = cfg or GeneratorConfig()
    if cfg.max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    m = _Machine(cfg.bits, cfg.order)
    edges: Optional[dict[int, int]] = {} if cfg.duplicate_check else None
    for _ in range(cfg.max_steps):
        v1 = m.verts[m.v1] if m.mode == SOS2 else None
        query = PredictorQuery(m.step, m.mode, m.component, len(m.pending), v1, m.input_edge())
        ans = predictor(query)
        if m.mode == EDGE and ans.kind == VERTEX:
            ans = _reference_adjust_edge(m, ans, edges)
        m.answer(ans)
        if m.done:
            return m.result(HALT_EOS)
    return m.result(HALT_BUDGET)


def _reference_adjust_edge(m: _Machine, ans: PredictorAnswer, edges: Optional[dict]) -> PredictorAnswer:
    """``ans``, a VERTEX answering EDGE, or STOP if its face (a, b, c) repeats a vertex
    or, with ``edges`` (emitted directed edge -> third vertex), reuses one or flips a face."""
    if not _reference_legal_vertex(ans.vertex, m.cells):
        return ans  # the machine refuses it
    a, b = m.edge
    n = len(m.verts)  # a new vertex gets index n and has no edges yet
    c = m.vert_index.get(ans.vertex, n)
    if a == b or c == a or c == b:
        return ANSWER_STOP
    if edges is not None:
        s = 3 * m.bits  # an index is below 2**s, the number of grid positions
        ab, bc, ca = a << s | b, b << s | c, c << s | a
        if ab in edges or c < n and (bc in edges or ca in edges or edges.get(b << s | a) == c):
            return ANSWER_STOP
        edges[ab], edges[bc], edges[ca] = c, a, b
    return ans


def _reference_legal_vertex(v, cells: int) -> bool:
    """Whether ``v`` is three ints in ``[0, cells)``, the only vertex that
    ``_Machine.answer`` takes; a bool or a float is no coordinate."""
    try:
        x, y, z = v
    except (TypeError, ValueError):
        return False
    return (
        type(x) is int and type(y) is int and type(z) is int
        and 0 <= x < cells and 0 <= y < cells and 0 <= z < cells
    )


class ReferenceMachine(_Machine):
    """``generator._Machine`` with the step it had before a face was emitted
    inline: ``answer`` calls ``_face``, which appends a ``Face`` record."""

    def answer(self, ans: PredictorAnswer) -> None:
        """Take one answer: record it and advance."""
        kind, v = ans
        if kind == VERTEX:
            if v is None:
                raise IllegalAnswerError(f"step {self.step}: a vertex answer carries no vertex")
            # _legal_vertex, inlined on the replay path
            try:
                x, y, z = v
            except (TypeError, ValueError):
                raise IllegalAnswerError(
                    f"step {self.step}: vertex {v!r} is not three integers"
                ) from None
            if not (type(x) is int and type(y) is int and type(z) is int):  # bool is no coordinate
                raise IllegalAnswerError(f"step {self.step}: vertex {tuple(v)} is not three integers")
            cells = self.cells
            if not (0 <= x < cells and 0 <= y < cells and 0 <= z < cells):
                raise IllegalAnswerError(
                    f"step {self.step}: vertex {tuple(v)} outside the {self.bits}-bit grid"
                )
        elif v is not None:
            raise IllegalAnswerError(f"step {self.step}: a {kind} answer carries a vertex")
        mode = self.mode
        if mode == EDGE:
            if kind == VERTEX:
                self._face(v)
            elif kind != STOP:
                raise IllegalAnswerError(f"step {self.step}: {kind} answers EDGE")
            if self.pending:
                self.edge = self.take()
            else:
                self.mode = SOS
                self.component += 1
        elif mode == SOS:
            if kind == VERTEX:
                self.v1 = self.intern(v)
                self.mode = SOS2
            elif kind == EOS:
                self.mode = EOS
            else:
                raise IllegalAnswerError(f"step {self.step}: {kind} answers SOS")
        elif mode == SOS2:
            if kind != VERTEX:
                raise IllegalAnswerError(f"step {self.step}: {kind} answers SOS2")
            v1, v2 = self.v1, self.intern(v)
            self.pending.append((v2, v1))  # twin below the start edge
            self.pending.append((v1, v2))
            self.edge = self.take()
            self.mode = EDGE
        else:
            raise DesyncError(f"step {self.step}: answer after the terminal EOS")
        self.outputs.append(ans)
        self.step += 1

    def _face(self, c: QuantizedVertex) -> None:
        """Emit the face of the current edge and the vertex ``c``."""
        ia, ib = self.edge
        ic = self.vert_index.get(c)
        if ia == ib or ic == ia or ic == ib:
            raise DesyncError(f"step {self.step}: recorded vertex repeats an edge endpoint")
        if ic is None:
            ic = self.intern(c)
        self.faces.append(Face(ia, ib, ic))
        self.pending.append((ia, ic))
        self.pending.append((ic, ib))


def reusing_predictor(seed: int, bits: int = 7) -> Predictor:
    """``fuzz_predictor``'s answers, except that half of its vertex answers
    name a vertex the queries have shown, as a sampler closing a surface
    must. Deterministic per seed and per the queries it is asked."""
    fuzz = fuzz_predictor(seed, bits)
    rng = random.Random(~seed)
    seen: list[QuantizedVertex] = []
    known: set[QuantizedVertex] = set()

    def predict(query: PredictorQuery) -> PredictorAnswer:
        for v in (query.v1, *(query.edge or ())):
            if v is not None and v not in known:
                known.add(v)
                seen.append(v)
        ans = fuzz(query)
        if ans.kind == VERTEX and seen and rng.random() < 0.5:
            return answer_vertex(rng.choice(seen))
        return ans

    return predict
