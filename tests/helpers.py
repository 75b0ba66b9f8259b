"""Shared test utilities: canonical face comparison and independent oracles.

The oracles here deliberately avoid the library's fast paths: components via
union-find over shared edges, validation via a standalone directed-edge scan,
step records via the index-based traversal that ``encode`` runs, without the
decoder's position-keyed machine,
normal consistency via scalar all-pairs loops, point-to-triangle distance
via dense sampling on a barycentric lattice, nearest faces via a search
over every (point, face) pair, and quantization and silhouette masks via the
per-vertex and per-triangle loops that the vectorized versions replaced.
"""

from __future__ import annotations

from collections import Counter, deque

import numpy as np

from meshtok.core import Face, MeshReal, QuantizedMesh, QuantizedVertex, Violation
from meshtok.sequencer import EDGE, EOS, SOS, SOS2, STOP, VERTEX, StepRecord
from meshtok.metrics import point_to_triangle_distance
from meshtok.preprocess import OutOfRangeError


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


# The dense nearest-face search that ``metrics.closest_faces`` replaced: every
# (point, face) pair, chunked. The pruned search must return the same faces
# and the same distances.

TIE_EPS = 1e-12


def dense_closest_triangles_chunk(
    p: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized closest-point distances from points (n,3) to triangles
    (m,3); returns per-point (min distance, argmin index)."""
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
    # Ties (coincident faces, shared closest edges) go to the lowest face
    # index; the window absorbs accumulation-order noise between equally
    # distant faces.
    dmin = dist.min(axis=1)
    idx = np.argmax(dist <= (dmin + TIE_EPS)[:, None], axis=1)
    return dist[np.arange(len(p)), idx], idx


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
