"""Geometric evaluation: surface sampling, Chamfer distance, and normal
consistency between a source and a reference mesh.

Normal consistency pairs each face centroid with the closest face of the
other mesh (exact point-to-triangle distance, ties by lower face index) and
averages unit-normal cosine similarity over both directions:

    nc  = mean_src(sim) / 2 + mean_ref(sim) / 2
    |nc| takes the absolute value of each similarity inside both means.
    flipped is the share of similarities, over both directions, below zero.

Faces with zero area carry no normal; they are skipped and excluded from the
averages on both sides.

The nearest-face search is exact but pruned: a KD-tree over the reference
centroids bounds which faces can be closest, and only those are measured
(``closest_faces``). It returns the same faces and distances as measuring
every (point, face) pair, with the same tie rule, in memory bounded by a
fixed number of pairs per block. The region walk that measures one pair is
Ericson, *Real-Time Collision Detection* (2004), section 5.1.5.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .core import MeshReal

_DEGENERATE_AREA = 1e-12
_TIE_EPS = 1e-12
_PAIR_BUDGET = 1 << 15  # (point, face) pairs measured at once


class EmptySurfaceError(ValueError):
    """Mesh has no face with usable area."""


@dataclass(frozen=True)
class MetricsReport:
    cd: float
    nc: float
    abs_nc: float
    flipped: float  # share of valid faces, both directions, facing against their nearest face
    samples: int
    seed: int


def _triangle_corners(mesh: MeshReal) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    v, f = mesh.vertices, mesh.faces
    return v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]


def _face_geometry(mesh: MeshReal) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(unit normals, centroids, validity mask); invalid rows are zero-area faces."""
    a, b, c = _triangle_corners(mesh)
    cross = np.cross(b - a, c - a)
    length = np.linalg.norm(cross, axis=1)
    valid = length > _DEGENERATE_AREA
    normals = np.zeros_like(cross)
    normals[valid] = cross[valid] / length[valid, None]
    centroids = (a + b + c) / 3.0
    return normals, centroids, valid


def sample_surface(mesh: MeshReal, n: int, seed: int = 0) -> np.ndarray:
    """Area-weighted uniform surface samples, deterministic per seed."""
    a, b, c = _triangle_corners(mesh)
    areas = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    total = float(areas.sum())
    if total <= 0.0:
        raise EmptySurfaceError("every face has zero area")
    rng = np.random.default_rng(seed)
    cum = np.cumsum(areas)
    picks = np.searchsorted(cum, rng.random(n) * total, side="right")
    picks = np.clip(picks, 0, len(areas) - 1)
    u = rng.random(n)
    v = rng.random(n)
    su = np.sqrt(u)
    w0 = 1.0 - su
    w1 = su * (1.0 - v)
    w2 = su * v
    return (
        a[picks] * w0[:, None] + b[picks] * w1[:, None] + c[picks] * w2[:, None]
    )


def chamfer(pts_a: np.ndarray, pts_b: np.ndarray) -> float:
    """Bidirectional mean closest-point (Euclidean, non-squared) distance."""
    from scipy.spatial import cKDTree  # scipy loads only where metrics run

    pts_a = np.asarray(pts_a, dtype=np.float64).reshape(-1, 3)
    pts_b = np.asarray(pts_b, dtype=np.float64).reshape(-1, 3)
    if len(pts_a) == 0 or len(pts_b) == 0:
        raise ValueError("chamfer needs two non-empty point sets")
    d_ab = cKDTree(pts_b).query(pts_a, workers=1)[0]
    d_ba = cKDTree(pts_a).query(pts_b, workers=1)[0]
    return 0.5 * (float(d_ab.mean()) + float(d_ba.mean()))


def _point_segment_distance(p: np.ndarray, s0: np.ndarray, s1: np.ndarray) -> float:
    d = s1 - s0
    denom = float(np.dot(d, d))
    t = 0.0 if denom == 0.0 else float(np.clip(np.dot(p - s0, d) / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (s0 + t * d)))


def _edge_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    return min(
        _point_segment_distance(p, a, b),
        _point_segment_distance(p, b, c),
        _point_segment_distance(p, c, a),
    )


def point_to_triangle_distance(p, tri) -> float:
    """Exact distance from a point to a closed triangle (face, edge, or
    vertex region, following the standard closest-point region walk); a
    zero-area triangle is measured by its edges."""
    p = np.asarray(p, dtype=np.float64)
    tri = np.asarray(tri, dtype=np.float64).reshape(3, 3)
    a, b, c = tri
    ab = b - a
    ac = c - a
    if not np.cross(ab, ac).any():  # zero area: the triangle is its edges
        return _edge_distance(p, a, b, c)
    ap = p - a
    d1 = float(np.dot(ab, ap))
    d2 = float(np.dot(ac, ap))
    if d1 <= 0.0 and d2 <= 0.0:
        return float(np.linalg.norm(p - a))
    bp = p - b
    d3 = float(np.dot(ab, bp))
    d4 = float(np.dot(ac, bp))
    if d3 >= 0.0 and d4 <= d3:
        return float(np.linalg.norm(p - b))
    vc = d1 * d4 - d3 * d2
    if vc <= 0.0 and d1 >= 0.0 and d3 <= 0.0:
        t = d1 / (d1 - d3)
        return float(np.linalg.norm(p - (a + t * ab)))
    cp = p - c
    d5 = float(np.dot(ab, cp))
    d6 = float(np.dot(ac, cp))
    if d6 >= 0.0 and d5 <= d6:
        return float(np.linalg.norm(p - c))
    vb = d5 * d2 - d1 * d6
    if vb <= 0.0 and d2 >= 0.0 and d6 <= 0.0:
        t = d2 / (d2 - d6)
        return float(np.linalg.norm(p - (a + t * ac)))
    va = d3 * d6 - d5 * d4
    if va <= 0.0 and (d4 - d3) >= 0.0 and (d5 - d6) >= 0.0:
        t = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        return float(np.linalg.norm(p - (b + t * (c - b))))
    denom = va + vb + vc
    if denom <= 0.0:  # rounding left no area: fall back to the edges
        return _edge_distance(p, a, b, c)
    v = vb / denom
    w = vc / denom
    return float(np.linalg.norm(p - (a + v * ab + w * ac)))


def _triangle_distances(
    p: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> np.ndarray:
    """Exact distance from each point ``p[i]`` to the closed triangle
    ``(a[i], b[i], c[i])``; the row-wise form of ``point_to_triangle_distance``.
    Rows are the leading axes of (..., 3) arrays and broadcast, so points
    (n, 1, 3) against triangles (m, 3) give the (n, m) grid. A zero-area
    triangle (cross product exactly zero) is measured by its edges."""
    ab = b - a
    ac = c - a
    (x0, x1, x2), (y0, y1, y2) = np.moveaxis(ab, -1, 0), np.moveaxis(ac, -1, 0)
    flat = (x1 * y2 - x2 * y1 == 0.0) & (x2 * y0 - x0 * y2 == 0.0) & (x0 * y1 - x1 * y0 == 0.0)
    ap = p - a
    bp = p - b
    cp = p - c
    d1 = np.einsum("...k,...k->...", ab, ap)
    d2 = np.einsum("...k,...k->...", ac, ap)
    d3 = np.einsum("...k,...k->...", ab, bp)
    d4 = np.einsum("...k,...k->...", ac, bp)
    d5 = np.einsum("...k,...k->...", ab, cp)
    d6 = np.einsum("...k,...k->...", ac, cp)
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

    closest = a + v0[..., None] * ab + w0[..., None] * ac
    closest = np.where(r6[..., None], b + t6[..., None] * (c - b), closest)
    closest = np.where(r5[..., None], a + t5[..., None] * ac, closest)
    closest = np.where(r4[..., None], c, closest)
    closest = np.where(r3[..., None], a + t3[..., None] * ab, closest)
    closest = np.where(r2[..., None], b, closest)
    closest = np.where(r1[..., None], a, closest)
    dist = np.linalg.norm(p - closest, axis=-1)
    if flat.any():
        rows = np.broadcast_to(flat, dist.shape)
        p, a, b, c = (np.broadcast_to(x, dist.shape + (3,))[rows] for x in (p, a, b, c))
        edges = ((a, b), (b, c), (c, a))
        dist[rows] = np.minimum.reduce([_segment_distances(p, s0, s1) for s0, s1 in edges])
    return dist


def _segment_distances(p: np.ndarray, s0: np.ndarray, s1: np.ndarray) -> np.ndarray:
    """Row-wise ``_point_segment_distance`` over (k, 3) arrays."""
    d = s1 - s0
    denom = np.einsum("ij,ij->i", d, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(denom == 0.0, 0.0, np.clip(np.einsum("ij,ij->i", p - s0, d) / denom, 0.0, 1.0))
    return np.linalg.norm(p - (s0 + t[:, None] * d), axis=1)


def _blocks(sizes: np.ndarray):
    """(lo, hi) runs of consecutive items whose sizes sum to at most
    _PAIR_BUDGET; an item larger than the budget gets a run of its own."""
    ends = np.cumsum(sizes)
    lo = 0
    while lo < len(sizes):
        base = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + _PAIR_BUDGET, side="right")))
        yield lo, hi
        lo = hi


def _nearest_of(
    dist: np.ndarray, sizes: np.ndarray, cols: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """(distance, face index) of the closest face per point, where point i
    owns the next ``sizes[i]`` entries of ``dist`` and of ``cols``, the
    distances to its candidate faces and their indices, without repeats."""
    starts = np.cumsum(sizes) - sizes
    dmin = np.minimum.reduceat(dist, starts)
    # Ties (coincident faces, shared closest edges) go to the lowest face
    # index; the window absorbs accumulation-order noise between equally
    # distant faces.
    tied = dist <= np.repeat(dmin + _TIE_EPS, sizes)
    best = np.minimum.reduceat(np.where(tied, cols, m), starts)
    return dist[cols == np.repeat(best, sizes)], best


def closest_faces(points: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closest triangle per query point: (exact distance, face index), ties
    within _TIE_EPS of the minimum resolved to the lowest face index.

    The result equals a search over every (point, face) pair, but only faces
    that can be closest are measured. The distance ``ub`` to the face whose
    centroid is nearest bounds the answer, and every point of a face lies
    within ``R``, the largest centroid-to-vertex distance, of its centroid;
    so a ball of radius ``ub + R`` (plus a rounding margin) around the point
    holds the centroid of every face the full search could pick. Points are
    measured in blocks of at most _PAIR_BUDGET pairs, which bounds memory; a
    point whose ball holds more than half of the faces takes them all
    without listing them.
    """
    n, m = len(points), len(a)
    dists = np.empty(n, dtype=np.float64)
    idxs = np.empty(n, dtype=np.int64)
    if n == 0:
        return dists, idxs
    from scipy.spatial import cKDTree

    centroids = (a + b + c) / 3.0
    reach = max(float(np.linalg.norm(v - centroids, axis=1).max()) for v in (a, b, c))
    # Distances carry rounding errors relative to the size of the coordinates.
    slack = _TIE_EPS + 1e-9 * (float(np.abs(points).max()) + float(np.abs(centroids).max()) + reach)
    tree = cKDTree(centroids)
    near = tree.query(points, workers=1)[1]
    radii = _triangle_distances(points, a[near], b[near], c[near]) + reach + slack
    counts = tree.query_ball_point(points, radii, workers=1, return_length=True)
    listed = np.flatnonzero(2 * counts <= m)
    for lo, hi in _blocks(counts[listed]):
        rows = listed[lo:hi]
        balls = tree.query_ball_point(points[rows], radii[rows], workers=1)
        sizes = np.fromiter(map(len, balls), dtype=np.int64, count=len(rows))
        cols = np.fromiter(chain.from_iterable(balls), dtype=np.int64, count=int(sizes.sum()))
        dist = _triangle_distances(np.repeat(points[rows], sizes, axis=0), a[cols], b[cols], c[cols])
        dists[rows], idxs[rows] = _nearest_of(dist, sizes, cols, m)
    every = np.flatnonzero(2 * counts > m)
    for lo, hi in _blocks(np.full(len(every), m)):
        rows = every[lo:hi]
        dist = _triangle_distances(points[rows, None], a, b, c).ravel()
        sizes = np.full(len(rows), m)
        dists[rows], idxs[rows] = _nearest_of(dist, sizes, np.tile(np.arange(m), len(rows)), m)
    return dists, idxs


def _directional_similarities(src: MeshReal, ref: MeshReal) -> np.ndarray:
    n_src, c_src, valid_src = _face_geometry(src)
    n_ref, _, valid_ref = _face_geometry(ref)
    if not valid_src.any() or not valid_ref.any():
        raise EmptySurfaceError("mesh has no face with usable area")
    ra, rb, rc = _triangle_corners(ref)
    ra, rb, rc = ra[valid_ref], rb[valid_ref], rc[valid_ref]
    _, nearest = closest_faces(c_src[valid_src], ra, rb, rc)
    return np.einsum("ij,ij->i", n_src[valid_src], n_ref[valid_ref][nearest])


def _normal_scores(src: MeshReal, ref: MeshReal) -> tuple[float, float, float]:
    """(nc, abs_nc, flipped) from one nearest-face search per direction."""
    sims_sr = _directional_similarities(src, ref)
    sims_rs = _directional_similarities(ref, src)
    nc = 0.5 * float(sims_sr.mean()) + 0.5 * float(sims_rs.mean())
    abs_nc = 0.5 * float(np.abs(sims_sr).mean()) + 0.5 * float(np.abs(sims_rs).mean())
    flipped = (np.count_nonzero(sims_sr < 0.0) + np.count_nonzero(sims_rs < 0.0)) / (
        len(sims_sr) + len(sims_rs)
    )
    return nc, abs_nc, flipped


def normal_consistency(src: MeshReal, ref: MeshReal) -> tuple[float, float]:
    """(nc, abs_nc) between two meshes; symmetric by construction."""
    return _normal_scores(src, ref)[:2]


def evaluate(
    src: MeshReal, ref: MeshReal, samples: int = 10000, seed: int = 42
) -> MetricsReport:
    """Full report. Both meshes are sampled with the same seed, so a mesh
    evaluated against itself scores cd = 0 exactly."""
    cd = chamfer(
        sample_surface(src, samples, seed), sample_surface(ref, samples, seed)
    )
    nc, abs_nc, flipped = _normal_scores(src, ref)
    return MetricsReport(
        cd=cd, nc=nc, abs_nc=abs_nc, flipped=flipped, samples=samples, seed=seed
    )
