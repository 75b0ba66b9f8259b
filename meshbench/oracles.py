"""Independent reference computations the benchmark checks the program against.

Nothing here imports meshtok: grid snapping, welding, component counting, the
token-stream decoder, normalize-and-snap, surface deviation bounds and the
scalar nearest-face oracle are all written from the format and metric
definitions in the meshtok README, so a fault in the program cannot hide in
its own reference.
"""

from __future__ import annotations

import json
import math
import struct
from collections import Counter, deque

import numpy as np

Pos = tuple[int, int, int]  # grid cell (x, y, z)
FacePos = tuple[Pos, Pos, Pos]

STOP = "stop"
EOS = "eos"


class OracleError(ValueError):
    """An output could not even be read as the format it claims to be."""


# --- grid snapping and welding ----------------------------------------------


def snap(coords: np.ndarray, bits: int) -> np.ndarray:
    """Cell index of each coordinate in [-0.5, 0.5] on a 2**bits grid."""
    cells = 1 << bits
    q = np.floor((np.asarray(coords, dtype=np.float64) + 0.5) * cells).astype(np.int64)
    return np.clip(q, 0, cells - 1)


def snap_margin(coords: np.ndarray, bits: int) -> float:
    """Smallest distance, in cells, from a coordinate to an interior cell
    boundary. Boundaries 0 and 2**bits are excluded: clipping makes the
    cell index there the same on either side."""
    cells = 1 << bits
    f = (np.asarray(coords, dtype=np.float64) + 0.5) * cells
    nearest = np.rint(f)
    interior = (nearest >= 1) & (nearest <= cells - 1)
    if not interior.any():
        return math.inf
    return float(np.abs(f - nearest)[interior].min())


def weld(cells_xyz: np.ndarray, faces: np.ndarray) -> list[FacePos]:
    """Faces as position triples after merging coincident cells, dropping
    faces that repeat a cell and repeats of one unordered cell set."""
    pos = [tuple(int(c) for c in row) for row in cells_xyz]
    out: list[FacePos] = []
    seen: set[frozenset] = set()
    for a, b, c in faces:
        tri = (pos[a], pos[b], pos[c])
        key = frozenset(tri)
        if len(key) < 3 or key in seen:
            continue
        seen.add(key)
        out.append(tri)
    return out


def normalize(raw: np.ndarray) -> np.ndarray:
    """Bounding-box centre to the origin, longest side to length 1."""
    lo, hi = raw.min(axis=0), raw.max(axis=0)
    return (raw - (lo + hi) / 2.0) / float((hi - lo).max())


def canonical(face: FacePos) -> FacePos:
    """Cyclic rotation that puts the smallest position first; winding kept."""
    k = min(range(3), key=face.__getitem__)
    return face[k:] + face[:k]  # type: ignore[return-value]


def face_multiset(faces) -> Counter:
    return Counter(canonical(tuple(f)) for f in faces)


def component_count(faces: list[FacePos]) -> int:
    """Edge-connected components by union-find over undirected edges."""
    parent = list(range(len(faces)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict[frozenset, int] = {}
    for fi, (a, b, c) in enumerate(faces):
        for e in (frozenset((a, b)), frozenset((b, c)), frozenset((c, a))):
            other = owner.setdefault(e, fi)
            ra, rb = find(fi), find(other)
            if ra != rb:
                parent[ra] = rb
    return sum(1 for i in range(len(faces)) if find(i) == i)


def expected_records(n_faces: int, n_components: int) -> int:
    """Two records per face, four per component, one EOS."""
    return 2 * n_faces + 4 * n_components + 1


def expected_binary_size(n_faces: int, n_components: int) -> int:
    """11-byte header + EOS, then 7-byte VERTEX and 1-byte STOP records:
    F + 2C of each."""
    return 12 + 8 * (n_faces + 2 * n_components)


# --- OBJ output --------------------------------------------------------------


def read_obj_faces(text: str, bits: int) -> tuple[set[Pos], list[FacePos]]:
    """Vertex cells and faces of a triangle OBJ written at cell centres."""
    coords: list[list[float]] = []
    index: list[list[int]] = []
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "v":
            coords.append([float(p) for p in parts[1:4]])
        elif parts and parts[0] == "f":
            index.append([int(p.split("/")[0]) - 1 for p in parts[1:]])
    verts = [tuple(c) for c in snap(np.array(coords).reshape(-1, 3), bits).tolist()]
    for idx in index:
        if len(idx) != 3 or min(idx) < 0 or max(idx) >= len(verts):
            raise OracleError(f"bad face {[i + 1 for i in idx]}")
    faces = [(verts[a], verts[b], verts[c]) for a, b, c in index]
    return set(verts), faces  # type: ignore[return-value]


# --- token streams -----------------------------------------------------------


def parse_binary_stream(data: bytes) -> tuple[int, str, list]:
    """(bits, order, records); a record is STOP, EOS or an (x, y, z) cell."""
    if len(data) < 11 or data[:4] != b"TMTS" or data[4] != 1:
        raise OracleError("bad binary stream header")
    bits, flags = data[5], data[6]
    (count,) = struct.unpack_from("<I", data, 7)
    records: list = []
    pos = 11
    for _ in range(count):
        if pos >= len(data):
            raise OracleError("truncated binary stream")
        op = data[pos]
        if op == 0:
            if pos + 7 > len(data):
                raise OracleError("truncated vertex record")
            z, y, x = struct.unpack_from("<HHH", data, pos + 1)
            records.append((x, y, z))
            pos += 7
        elif op in (1, 2):
            records.append(STOP if op == 1 else EOS)
            pos += 1
        else:
            raise OracleError(f"unknown opcode {op}")
    if pos != len(data):
        raise OracleError("trailing bytes after the last record")
    return bits, ("bfs" if flags & 1 else "dfs"), records


def parse_text_stream(text: str) -> tuple[int, str, list]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    try:
        header = json.loads(lines[0])
        records: list = []
        for ln in lines[1:]:
            obj = json.loads(ln)
            op = obj["op"]
            if op == "v":
                records.append((int(obj["x"]), int(obj["y"]), int(obj["z"])))
            elif op in (STOP, EOS):
                records.append(op)
            else:
                raise OracleError(f"unknown op {op!r}")
        return int(header["bits"]), header["order"], records
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise OracleError(f"unreadable text stream: {exc}") from exc


def replay(records: list, order: str) -> list[FacePos]:
    """Faces of an output-only record list, by the pending-edge discipline:
    each component opens with two vertices and the pending pair
    (v2, v1), (v1, v2); a popped edge (a, b) answered by vertex c emits face
    (a, b, c) and pushes (a, c) then (c, b)."""
    faces: list[FacePos] = []
    pending: deque = deque()
    take = pending.pop if order == "dfs" else pending.popleft
    it = iter(records)
    try:
        while True:
            v1 = next(it)
            if v1 == EOS:
                break
            v2 = next(it)
            if not isinstance(v1, tuple) or not isinstance(v2, tuple):
                raise OracleError("component does not open with two vertices")
            pending.extend(((v2, v1), (v1, v2)))
            while pending:
                a, b = take()
                c = next(it)
                if c == STOP:
                    continue
                if not isinstance(c, tuple):
                    raise OracleError("EOS inside a component")
                faces.append((a, b, c))
                pending.extend(((a, c), (c, b)))
    except StopIteration:
        raise OracleError("stream ends before EOS") from None
    if next(it, None) is not None:
        raise OracleError("records after EOS")
    return faces


# --- torus surfaces for the metric bounds -------------------------------------


def torus_mesh(major: float, minor: float, n_major: int, n_minor: int,
               phase_major: float = 0.0, phase_minor: float = 0.0):
    """Vertices on the torus surface, two outward-wound triangles per quad."""
    i, j = np.meshgrid(np.arange(n_major), np.arange(n_minor), indexing="ij")
    theta = 2 * np.pi * (i + phase_major) / n_major
    phi = 2 * np.pi * (j + phase_minor) / n_minor
    rad = major + minor * np.cos(phi)
    verts = np.stack(
        [rad * np.cos(theta), rad * np.sin(theta), minor * np.sin(phi)], axis=-1
    ).reshape(-1, 3)
    a = i * n_minor + j
    b = ((i + 1) % n_major) * n_minor + j
    c = ((i + 1) % n_major) * n_minor + (j + 1) % n_minor
    d = i * n_minor + (j + 1) % n_minor
    faces = np.concatenate(
        [np.stack([a, b, c], -1).reshape(-1, 3), np.stack([a, c, d], -1).reshape(-1, 3)]
    )
    return verts, faces


_BARY = np.array(
    [(u, v, 1 - u - v) for u in np.linspace(0, 1, 7) for v in np.linspace(0, 1, 7)
     if u + v <= 1 + 1e-12]
)


def torus_deviation(verts: np.ndarray, faces: np.ndarray, major: float,
                    minor: float) -> tuple[float, float]:
    """(sagitta, normal angle) of a torus tessellation: the largest distance
    from a lattice of points on each face to the true surface, and the
    largest angle between a face normal and the surface normals under it."""
    tri = verts[faces]  # (m, 3, 3)
    pts = np.einsum("kj,mjd->mkd", _BARY, tri)  # (m, k, 3)
    rho = np.hypot(pts[..., 0], pts[..., 1])
    dr, dz = rho - major, pts[..., 2]
    dist = np.hypot(dr, dz)
    sag = float(np.abs(dist - minor).max())
    surf = np.stack(
        [dr / dist * pts[..., 0] / rho, dr / dist * pts[..., 1] / rho, dz / dist], -1
    )
    n = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    cos = np.clip(np.einsum("md,mkd->mk", n, surf), -1.0, 1.0)
    return sag, float(np.arccos(cos).max())


def surface_area(verts: np.ndarray, faces: np.ndarray) -> float:
    tri = verts[faces]
    return 0.5 * float(
        np.linalg.norm(np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1).sum()
    )


# --- scalar nearest-face oracle ----------------------------------------------


def _sub(p, q):
    return (p[0] - q[0], p[1] - q[1], p[2] - q[2])


def _dot(p, q):
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def _dist(p, q):
    return math.sqrt(_dot(_sub(p, q), _sub(p, q)))


def point_triangle_distance(p, a, b, c) -> float:
    """Exact point-to-triangle distance by the closest-point region walk
    (Ericson, Real-Time Collision Detection, 5.1.5), one point at a time."""
    ab, ac, ap = _sub(b, a), _sub(c, a), _sub(p, a)
    d1, d2 = _dot(ab, ap), _dot(ac, ap)
    if d1 <= 0 and d2 <= 0:
        return _dist(p, a)
    bp = _sub(p, b)
    d3, d4 = _dot(ab, bp), _dot(ac, bp)
    if d3 >= 0 and d4 <= d3:
        return _dist(p, b)
    vc = d1 * d4 - d3 * d2
    if vc <= 0 and d1 >= 0 and d3 <= 0:
        t = d1 / (d1 - d3)
        return _dist(p, tuple(a[k] + t * ab[k] for k in range(3)))
    cp = _sub(p, c)
    d5, d6 = _dot(ab, cp), _dot(ac, cp)
    if d6 >= 0 and d5 <= d6:
        return _dist(p, c)
    vb = d5 * d2 - d1 * d6
    if vb <= 0 and d2 >= 0 and d6 <= 0:
        t = d2 / (d2 - d6)
        return _dist(p, tuple(a[k] + t * ac[k] for k in range(3)))
    va = d3 * d6 - d5 * d4
    if va <= 0 and d4 - d3 >= 0 and d5 - d6 >= 0:
        t = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        return _dist(p, tuple(b[k] + t * (c[k] - b[k]) for k in range(3)))
    denom = va + vb + vc
    v, w = vb / denom, vc / denom
    return _dist(p, tuple(a[k] + v * ab[k] + w * ac[k] for k in range(3)))


def _unit_normal(a, b, c):
    u, v = _sub(b, a), _sub(c, a)
    n = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
    length = math.sqrt(_dot(n, n))
    return tuple(x / length for x in n)


def _similarities(src: list, ref: list) -> list[float]:
    ref_normals = [_unit_normal(*t) for t in ref]
    sims = []
    for t in src:
        centroid = tuple(sum(p[k] for p in t) / 3.0 for k in range(3))
        best = min(range(len(ref)), key=lambda j: point_triangle_distance(centroid, *ref[j]))
        sims.append(_dot(_unit_normal(*t), ref_normals[best]))
    return sims


def normal_consistency(src: list, ref: list) -> tuple[float, float]:
    """(nc, abs_nc) by all-pairs search; meshes are lists of three (x, y, z)
    corner tuples per face, none of zero area."""
    s1, s2 = _similarities(src, ref), _similarities(ref, src)
    nc = 0.5 * sum(s1) / len(s1) + 0.5 * sum(s2) / len(s2)
    abs_nc = 0.5 * sum(map(abs, s1)) / len(s1) + 0.5 * sum(map(abs, s2)) / len(s2)
    return nc, abs_nc
