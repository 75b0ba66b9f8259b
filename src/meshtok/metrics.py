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

The nearest-face search is exact but pruned (``closest_faces``). Every point
of a face lies within its reach, the largest centroid-to-corner distance, of
its centroid. The reference faces are grouped into classes of reach, by
halvings from the largest, each with a KD-tree over its centroids. One
k-nearest query per class bounds the answer by the distance ``ub`` to a
nearest-centroid face, and for nearly every point it already holds every
centroid within ``ub`` plus the class's reach; only those faces are
measured. The search returns the same faces and distances as measuring
every (point, face) pair, with the same tie rule, in memory bounded by a
fixed number of pairs per block. It stays n log n when face sizes are mixed,
but not when the two meshes lie far apart: then ``ub`` is large, every ball
holds most faces, and each point measures them all.

One (point, face) pair is measured with no branch on the face's shape:
the distance to its plane where the point projects inside the face, else
to its nearest edge. Near-flat faces are measured as exactly as others.

``chamfer`` queries each sample set against the other's KD-tree in the
order of its own tree, so that points near each other are queried one
after another; the mean is taken in input order, so the value does not
depend on the query order.

Coordinates so large (beyond about 3e76) that a face area, a normal or a
distance overflows raise ``EmptySurfaceError`` instead of giving an answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .core import MeshReal

_DEGENERATE_AREA = 1e-12
_TIE_EPS = 1e-12
_PAIR_BUDGET = 1 << 15  # (point, face) pairs measured at once
_NEAREST_K = 16  # centroids each point asks every class tree for at once
_REACH_CLASSES = 16  # classes of face reach; the last takes every smaller reach


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


def _face_geometry(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, ...]:
    """(unit normals, centroids, validity mask) of the triangles with corners
    ``a``, ``b``, ``c``; invalid rows are zero-area faces."""
    with np.errstate(over="ignore", invalid="ignore"):  # only a zero-area face's centroid can overflow
        cross = np.cross(b - a, c - a)
        length = np.linalg.norm(cross, axis=1)
        centroids = (a + b + c) / 3.0
    if not np.isfinite(length).all():
        raise EmptySurfaceError("coordinates too large: a face normal overflows")
    valid = length > _DEGENERATE_AREA
    normals = np.zeros_like(cross)
    normals[valid] = cross[valid] / length[valid, None]
    return normals, centroids, valid


def sample_surface(mesh: MeshReal, n: int, seed: int = 0) -> np.ndarray:
    """Area-weighted uniform surface samples, deterministic per seed."""
    a, b, c = _triangle_corners(mesh)
    with np.errstate(over="ignore", invalid="ignore"):
        areas = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
        total = float(areas.sum())
    if not np.isfinite(total):
        raise EmptySurfaceError("coordinates too large: the surface area overflows")
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
    tree_a = cKDTree(pts_a, balanced_tree=False)
    tree_b = cKDTree(pts_b, balanced_tree=False)
    return 0.5 * (_mean_nearest(pts_a, tree_a, tree_b) + _mean_nearest(pts_b, tree_b, tree_a))


def _mean_nearest(pts: np.ndarray, own, other) -> float:
    """Mean distance from each of ``pts`` to the nearest point of ``other``.
    The points are queried in the order of their own tree ``own``, so
    neighbours in space are queried one after another, and each query is
    independent; the mean is taken in input order."""
    order = own.indices
    dist = np.empty(len(pts))
    dist[order] = other.query(pts[order], workers=1)[0]
    return float(dist.mean())


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("...k,...k->...", x, y)


def _check_coordinates(*coords: np.ndarray) -> None:
    """EmptySurfaceError unless every product that ``_triangle_distances``
    forms from these coordinates, all within (4 * largest) ** 4, is finite."""
    with np.errstate(over="ignore"):
        if not np.isfinite((4.0 * np.max([np.abs(x).max() for x in coords])) ** 4):
            raise EmptySurfaceError("coordinates too large: a distance overflows")


def point_to_triangle_distance(p, tri) -> float:
    """Exact distance from a point to a closed triangle: to its plane where
    the point projects inside it, else to its nearest edge (one row of
    ``_triangle_distances``); EmptySurfaceError beyond about 3e76."""
    p, tri = np.asarray(p, dtype=np.float64), np.asarray(tri, dtype=np.float64).reshape(3, 3)
    _check_coordinates(p, tri)
    return float(_triangle_distances(p, *tri))


def _triangle_distances(
    p: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> np.ndarray:
    """Exact distance from each point ``p[i]`` to the closed triangle
    ``(a[i], b[i], c[i])``; rows broadcast over the leading axes of (..., 3)
    arrays, so points (n, 1, 3) against triangles (m, 3) give an (n, m) grid.

    It is the distance to the nearest edge (the point's projection on each
    segment, clamped to its ends), or, where ``n = (b - a) x (c - a)`` is not
    zero and ``((s1 - s0) x (p - s0)) . n >= 0`` on every edge ``s0 -> s1``,
    the distance ``|(p - s) . n| / |n|`` to the plane. The rounded normal of
    a near-flat triangle can turn far, so ``s`` is the nearest edge point,
    which keeps ``p - s`` short, and the plane distance is clipped to within
    the inradius ``|n| / perimeter`` of the edge distance: every point of a
    triangle lies that close to an edge."""
    n = np.cross(b - a, c - a)
    nn = _dot(n, n)
    inside = nn > 0.0
    d2 = np.inf
    h = perimeter = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for s0, s1 in ((a, b), (b, c), (c, a)):
            e = s1 - s0
            q = p - s0
            ee = _dot(e, e)
            perimeter = perimeter + np.sqrt(ee)
            t = np.where(ee > 0.0, np.clip(_dot(q, e) / ee, 0.0, 1.0), 0.0)
            r = q - t[..., None] * e
            rr = _dot(r, r)
            h = np.where(rr < d2, _dot(r, n), h)
            d2 = np.minimum(d2, rr)
            inside = inside & (_dot(q, np.cross(n, e)) >= 0.0)
        plane = np.clip(h * (h / nn), d2 - nn / (perimeter * perimeter), d2)
        d2 = np.where(inside, plane, d2)
    return np.sqrt(d2)


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


def _reach_classes(reach: np.ndarray) -> list[np.ndarray]:
    """Face indices grouped by reach: class c holds the faces whose reach lies
    in (R / 2^(c+1), R / 2^c], R the largest reach, and the last class also
    every smaller reach, zero included. Empty classes are left out; the
    indices of a class ascend."""
    last = _REACH_CLASSES - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        halvings = np.log2(reach.max() / reach)
    labels = np.where(reach > 0.0, np.minimum(np.floor(halvings), last), last).astype(np.intp)
    return [np.flatnonzero(labels == label) for label in np.unique(labels)]


def closest_faces(points: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closest triangle per query point: (exact distance, face index), ties
    within _TIE_EPS of the minimum resolved to the lowest face index.

    The result equals a search over every (point, face) pair, but only faces
    that can be closest are measured. Every point of a face lies within its
    reach, the largest centroid-to-corner distance, of its centroid. The
    faces are grouped into classes of reach by halvings from the largest
    (``_reach_classes``), each with a KD-tree over its centroids and its own
    largest reach ``R``; faces of similar size, a reach ratio below 2, make
    one class. The distance ``ub`` to each class's nearest-centroid face, at
    its smallest over the classes, bounds the answer. So a ball of radius
    ``ub + R`` plus a rounding margin holds the centroid of every face of
    its class that the full search could pick; the margin exceeds the
    rounding of any distance, so a centroid at the edge of a ball is neither
    the answer nor within the tie window of it.

    One k-nearest query per class (``_NEAREST_K`` centroids) gives ``ub``
    and, for a point whose k-th centroid lies beyond its radius, the whole
    ball; of those centroids, a face is measured only if its own reach can
    bring it within ``ub``. Only the other points ask the tree to list
    their ball. One tie rule picks among the candidates of all classes.
    Points are searched in runs whose k-nearest arrays hold about
    _PAIR_BUDGET entries, and measured in blocks of at most _PAIR_BUDGET
    pairs, which bounds memory.

    A pair is measured by ``_triangle_distances``: the plane distance where
    the point projects inside the face, else the nearest edge's.
    """
    n = len(points)
    dists = np.empty(n, dtype=np.float64)
    idxs = np.empty(n, dtype=np.int64)
    if n == 0:
        return dists, idxs
    from scipy.spatial import cKDTree

    _check_coordinates(points, a, b, c)  # so no distance or search radius below overflows
    centroids = (a + b + c) / 3.0
    reach = np.maximum.reduce([np.linalg.norm(v - centroids, axis=1) for v in (a, b, c)])
    # Distances carry rounding errors relative to the size of the coordinates.
    slack = _TIE_EPS + 1e-9 * (float(np.abs(points).max()) + float(np.abs(centroids).max()) + float(reach.max()))
    classes = [
        (members, cKDTree(centroids[members]), float(reach[members].max()))
        for members in _reach_classes(reach)
    ]
    # Runs of points whose k-nearest arrays hold about _PAIR_BUDGET entries.
    step = max(1, _PAIR_BUDGET // sum(min(_NEAREST_K, len(members)) for members, _, _ in classes))
    for lo in range(0, n, step):
        run = slice(lo, lo + step)
        dists[run], idxs[run] = _search(points[run], a, b, c, reach, slack, classes)
    return dists, idxs


def _search(
    points: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    reach: np.ndarray,
    slack: float,
    classes: list,
) -> tuple[np.ndarray, np.ndarray]:
    """``closest_faces`` for a run of points, given the reach classes as
    (face indices, KD-tree over their centroids, largest reach)."""
    n, m = len(points), len(a)
    ub = np.full(n, np.inf)
    queried = []
    for members, tree, _ in classes:
        k = min(_NEAREST_K, len(members))
        near_dist, near = (x.reshape(n, k) for x in tree.query(points, k=k, workers=1))
        nearest = members[near[:, 0]]
        ub = np.minimum(ub, _triangle_distances(points, a[nearest], b[nearest], c[nearest]))
        queried.append((near_dist, members[near]))

    sizes = np.zeros(n, dtype=np.int64)
    parts = []
    for (members, tree, top), (near_dist, near) in zip(classes, queried):
        radii = ub + top + slack
        # A found face is measured only if its own reach can bring it to ub.
        found = near_dist <= (ub + slack)[:, None] + reach[near]
        ball = np.zeros(n, dtype=np.int64)
        if near.shape[1] < len(members):
            # A point whose k-th centroid lies within its radius may have more.
            unsure = np.flatnonzero(near_dist[:, -1] <= radii)
            found[unsure] = False
            ball[unsure] = tree.query_ball_point(points[unsure], radii[unsure], workers=1, return_length=True)
        sizes += found.sum(axis=1) + ball
        parts.append((members, tree, radii, found, near, ball > 0))

    dists = np.empty(n, dtype=np.float64)
    idxs = np.empty(n, dtype=np.int64)
    for lo, hi in _blocks(sizes):
        rows, cols = [], []
        for members, tree, radii, found, near, listed in parts:
            hit = found[lo:hi]
            rows.append(np.nonzero(hit)[0])
            cols.append(near[lo:hi][hit])
            ask = lo + np.flatnonzero(listed[lo:hi])
            if len(ask):
                balls = tree.query_ball_point(points[ask], radii[ask], workers=1)
                counts = np.fromiter(map(len, balls), dtype=np.int64, count=len(ask))
                rows.append(np.repeat(ask - lo, counts))
                cols.append(members[np.fromiter(chain.from_iterable(balls), dtype=np.int64, count=int(counts.sum()))])
        pieces = sum(len(r) > 0 for r in rows)
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        if pieces > 1:  # each piece ascends by point; group the pairs by point
            order = np.argsort(rows, kind="stable")
            rows, cols = rows[order], cols[order]
        dist = _triangle_distances(points[lo + rows], a[cols], b[cols], c[cols])
        dists[lo:hi], idxs[lo:hi] = _nearest_of(dist, sizes[lo:hi], cols, m)
    return dists, idxs


def _usable_faces(mesh: MeshReal) -> tuple[np.ndarray, ...]:
    """(unit normals, centroids, a, b, c) of the faces with usable area."""
    a, b, c = _triangle_corners(mesh)
    normals, centroids, valid = _face_geometry(a, b, c)
    return normals[valid], centroids[valid], a[valid], b[valid], c[valid]


def _similarities(src: tuple[np.ndarray, ...], ref: tuple[np.ndarray, ...]) -> np.ndarray:
    """Cosine of each ``src`` face's normal with its nearest ``ref`` face's (``_usable_faces``)."""
    _, nearest = closest_faces(src[1], *ref[2:])
    return np.einsum("ij,ij->i", src[0], ref[0][nearest])


def _normal_scores(src: MeshReal, ref: MeshReal) -> tuple[float, float, float]:
    """(nc, abs_nc, flipped) from one nearest-face search per direction."""
    src_faces, ref_faces = _usable_faces(src), _usable_faces(ref)
    if not len(src_faces[0]) or not len(ref_faces[0]):
        raise EmptySurfaceError("mesh has no face with usable area")
    sims_sr, sims_rs = _similarities(src_faces, ref_faces), _similarities(ref_faces, src_faces)
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
