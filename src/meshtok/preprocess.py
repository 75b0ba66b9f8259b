"""Dataset preparation: normalization, quantization, filtering, augmentation.

The pipeline order for raw inputs is normalize -> quantize -> filter. Rotation
augmentation can collapse grid cells, so augmented meshes must be re-quantized
and re-validated before use; meshes failing that are rejected like any other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Optional

import numpy as np

from .core import (
    MAX_BITS,
    Face,
    MeshReal,
    QuantizedMesh,
    QuantizedVertex,
    dequantized_vertex_array,
    face_array,
    require_valid_bits,
    validate_manifold,
)


class DegenerateExtentError(ValueError):
    """All vertices coincide; there is nothing to normalize."""


class OutOfRangeError(ValueError):
    """Coordinates fall outside [-0.5, 0.5] (normalize first), or are so
    large that an augmentation overflows or a float32 cannot hold them."""


# The largest silhouette grid: its masks and summed-area table add about
# 120 MB to peak memory at this size, and every count fits an int32.
_MAX_PROJ_GRID = 4096


@dataclass
class PreprocessConfig:
    bits: int = 7
    max_faces: int = 5500
    proj_grid: int = 256
    proj_min_area: float = 0.005
    scale_low: float = 0.75
    scale_high: float = 0.95
    flip_prob: float = 0.3
    z_rot_max_degrees: float = 180.0

    def __post_init__(self) -> None:
        require_valid_bits(self.bits)
        if not 0.0 < self.scale_low <= self.scale_high <= 1.0:
            raise ValueError("scale range must satisfy 0 < low <= high <= 1")
        # Each test is written so that NaN fails it; bool is not a count.
        for name in ("max_faces", "proj_grid"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if self.proj_grid > _MAX_PROJ_GRID:
            raise ValueError(f"proj_grid must be at most {_MAX_PROJ_GRID}, got {self.proj_grid!r}")
        if not 0.0 <= self.proj_min_area <= 1.0:
            raise ValueError(f"proj_min_area must be in [0, 1], got {self.proj_min_area!r}")
        if not 0.0 <= self.flip_prob <= 1.0:
            raise ValueError(f"flip_prob must be in [0, 1], got {self.flip_prob!r}")
        if not math.isfinite(self.z_rot_max_degrees):
            raise ValueError(f"z_rot_max_degrees must be finite, got {self.z_rot_max_degrees!r}")


@dataclass
class AcceptDecision:
    accept: bool
    reasons: list[str]


def normalize(mesh: MeshReal) -> MeshReal:
    """Center the bounding box at the origin and scale its longest axis to
    span exactly [-0.5, 0.5], preserving aspect ratio. Idempotent. Works at
    half scale, exact above about 4e-308, so that ``hi - lo`` cannot overflow."""
    if len(mesh.vertices) == 0:
        raise DegenerateExtentError("mesh has no vertices")
    v = mesh.vertices * 0.5
    lo = v.min(axis=0)
    hi = v.max(axis=0)
    extent = float((hi - lo).max())
    if extent <= 0.0:
        raise DegenerateExtentError("all vertices coincide")
    center = (lo + hi) / 2.0
    return MeshReal((v - center) / extent, mesh.faces.copy())


def quantize(mesh: MeshReal, bits: int = 7) -> QuantizedMesh:
    """Snap coordinates to the grid, merge coincident vertices, drop faces
    that become degenerate, and drop repeats of the same unordered vertex set
    (opposite-winding copies count as repeats: keeping both would break the
    half-edge condition either way). Merged vertices keep the order in which
    they are first seen; kept faces keep their input order.

    The work is array passes: one sort of an int64 key per vertex merges
    vertices, one stable ``np.lexsort`` over each face's sorted indices finds
    repeated faces, and each ``QuantizedVertex`` and ``Face`` record is built
    by one ``tuple.__new__`` call over a row of Python ints."""
    require_valid_bits(bits)
    v = mesh.vertices
    if v.size and not (v.min() >= -0.5 - 1e-9 and v.max() <= 0.5 + 1e-9):  # NaN fails too
        raise OutOfRangeError(
            f"coordinates span [{v.min():.6g}, {v.max():.6g}], expected [-0.5, 0.5]"
        )
    cells = 1 << bits
    q = np.floor(v * cells).astype(np.int64) + cells // 2  # exact, as in quantize_coord
    np.clip(q, 0, cells - 1, out=q)

    # Merge vertices in first-seen order: np.unique over one int64 key per
    # vertex (each cell index fits in MAX_BITS bits), its groups ranked by
    # first occurrence.
    key = (q[:, 0] << 2 * MAX_BITS) | (q[:, 1] << MAX_BITS) | q[:, 2]
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(by_first))
    verts = _records(QuantizedVertex, q[first[by_first]])

    tri = rank[inverse][mesh.faces]  # (m, 3) merged vertex indices
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    tri = tri[(a != b) & (b != c) & (a != c)]
    # Keep the first face of each unordered vertex set, in input order: the
    # stable sort puts it first among the equal rows of its set.
    s = np.sort(tri, axis=1)
    order = np.lexsort((s[:, 2], s[:, 1], s[:, 0]))
    s = s[order]
    first_face = np.ones(len(s), dtype=bool)
    first_face[1:] = (s[1:, 0] != s[:-1, 0]) | (s[1:, 1] != s[:-1, 1]) | (s[1:, 2] != s[:-1, 2])
    faces = _records(Face, tri[np.sort(order[first_face])])
    return QuantizedMesh(verts, faces, bits)


def _records(kind: type, rows: np.ndarray) -> list:
    """The rows of an (n, 3) int array as ``kind`` NamedTuples of Python
    ints. ``tuple.__new__`` is the constructor that ``kind(x, y, z)`` calls
    through a Python-level ``__new__``."""
    return list(map(tuple.__new__, repeat(kind), zip(*rows.T.tolist())))


# Padded pixels (triangles x bbox width x bbox height) rasterized per numpy
# pass; a triangle whose own bbox is larger gets a pass to itself. Budgets of
# 2^14 to 2^16 rasterized 5.4k- and 44k-face tori equally fast; 2^14 keeps
# the least memory live.
_PIXEL_BUDGET = 1 << 14


def _fill_triangles_2d(tri2d: np.ndarray, grid: int) -> np.ndarray:
    """Rasterize filled triangles with coordinates in [-0.5, 0.5] onto a
    boolean grid; pixel centers on an edge count as inside.

    A pixel center is inside when all three edge functions, signed so the
    triangle's area is positive, are >= -1e-6. Only centers within the
    triangle's bbox widened by half a pixel are tested: the tolerance scales
    with edge length, so a sliver would otherwise claim centers beyond its
    bbox. Triangles with |area| < 1e-12 (pixel units) draw nothing.

    The counter-clockwise triangles are drawn first. On a closed surface they
    already cover almost every pixel that the clockwise ones would set, so a
    clockwise triangle is drawn only when its bbox still holds an unset pixel,
    which a summed-area table of the first round's mask tells; a triangle sets
    no pixel outside its bbox, so the mask is the same. With only one winding
    present, every triangle is drawn. Both rounds go through
    ``_draw_triangles``, which tests a batch of padded bboxes in reused
    buffers and sets the centers inside with one scatter into the flat mask.
    """
    mask = np.zeros((grid, grid), dtype=bool)
    px = (tri2d + 0.5) * grid  # (m, 3, 2) in pixel units
    a, b, c = px[:, 0], px[:, 1], px[:, 2]
    area = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    lo = np.clip(np.floor(np.minimum(np.minimum(a, b), c) - 0.5).astype(int), 0, grid - 1)
    hi = np.clip(np.ceil(np.maximum(np.maximum(a, b), c) + 0.5).astype(int), 0, grid)
    size = hi - lo  # (m, 2) bbox width and height in pixels
    keep = (np.abs(area) >= 1e-12) & (size[:, 0] > 0) & (size[:, 1] > 0)
    ccw = np.flatnonzero(keep & (area > 0))
    cw = np.flatnonzero(keep & (area < 0))
    _draw_triangles(mask, ccw, px, area, lo, size)
    if len(ccw) and len(cw):
        cw = cw[_unset_in_box(mask, lo[cw], hi[cw])]
    _draw_triangles(mask, cw, px, area, lo, size)
    return mask


def _unset_in_box(mask: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per box ``[lo, hi)`` of ``mask`` (both (k, 2), non-empty): does it
    hold an unset pixel? Read off an int32 summed-area table with a zero
    first row and column; a grid of at most _MAX_PROJ_GRID pixels a side
    counts well below 2^31."""
    grid = mask.shape[0]
    sat = np.zeros((grid + 1, grid + 1), dtype=np.int32)
    sat[1:, 1:] = mask
    np.cumsum(sat, axis=0, out=sat)
    np.cumsum(sat, axis=1, out=sat)
    (x0, y0), (x1, y1) = lo.T, hi.T
    filled = sat[x1, y1] - sat[x0, y1] - sat[x1, y0] + sat[x0, y0]
    return filled < (x1 - x0) * (y1 - y0)


def _draw_triangles(
    mask: np.ndarray, idx: np.ndarray, px: np.ndarray, area: np.ndarray, lo: np.ndarray, size: np.ndarray
) -> None:
    """OR the triangles ``px[idx]`` (pixel units, of signed ``area``, bbox
    ``lo`` + ``size``) into ``mask``. Triangles of similar bbox size are
    rasterized together, padded to the batch's largest bbox; padded centers
    are NaN, which fails every test. Each batch evaluates its three edge
    functions in turn into one float buffer and their tests into two boolean
    ones, all allocated once per batch, and sets its pixels with one scatter
    into the flattened mask."""
    eps = 1e-6
    grid = mask.shape[1]
    flat = mask.reshape(-1)  # a view: mask is a fresh C-ordered array
    idx = idx[np.lexsort((size[idx, 1], size[idx, 0]))]
    a, b, c = px[idx, 0], px[idx, 1], px[idx, 2]
    lo, size = lo[idx], size[idx]
    # Negating both products of an edge function negates their difference
    # exactly, so the sign flip for clockwise triangles costs no pixel work.
    sign = np.where(area[idx] < 0, -1.0, 1.0)
    # Edge i runs from vertex p to q: w_i = (q.x - p.x)(y - p.y) - (q.y - p.y)(x - p.x).
    edges = ((a, b), (b, c), (c, a))
    dx = [sign * (q[:, 0] - p[:, 0]) for p, q in edges]
    dy = [sign * (q[:, 1] - p[:, 1]) for p, q in edges]
    # Sorted by width, then height, a batch's padded size (count x last width
    # x running max height) grows with its count, so one searchsorted finds
    # the longest batch within budget.
    start = 0
    while start < len(idx):
        width = size[start : start + _PIXEL_BUDGET, 0]  # at most one triangle per pixel
        height = np.maximum.accumulate(size[start : start + _PIXEL_BUDGET, 1])
        padded = np.arange(1, len(width) + 1) * width * height
        n = max(1, int(np.searchsorted(padded, _PIXEL_BUDGET, side="right")))
        rows = slice(start, start + n)
        start += n
        offs_x, offs_y = np.arange(width[n - 1]), np.arange(height[n - 1])
        gx = np.where(offs_x < size[rows, 0:1], lo[rows, 0:1] + offs_x + 0.5, np.nan)[:, :, None]
        gy = np.where(offs_y < size[rows, 1:2], lo[rows, 1:2] + offs_y + 0.5, np.nan)[:, None, :]
        shape = (n, len(offs_x), len(offs_y))
        w = np.empty(shape)
        inside, test = np.empty(shape, dtype=bool), np.empty(shape, dtype=bool)
        for k, ((p, _), ex, ey) in enumerate(zip(edges, dx, dy)):
            ox, oy = p[rows, 0][:, None, None], p[rows, 1][:, None, None]
            # The two products are (n, 1, h) and (n, w, 1); only their
            # difference spans the batch.
            np.subtract(ex[rows][:, None, None] * (gy - oy), ey[rows][:, None, None] * (gx - ox), out=w)
            if k == 0:
                np.greater_equal(w, -eps, out=inside)
            else:
                np.greater_equal(w, -eps, out=test)
                inside &= test
        if n == 1:  # unpadded: OR the block in place, no index lists
            (x0, y0), (sx, sy) = lo[rows][0], size[rows][0]
            mask[x0 : x0 + sx, y0 : y0 + sy] |= inside[0]
            continue
        # A set center's flat position in the batch gives its triangle t and
        # its offset r in the padded bbox; its mask cell is t's bbox corner
        # plus that offset, both as flat mask indices.
        t, r = np.divmod(np.flatnonzero(inside), shape[1] * shape[2])
        corner = lo[rows, 0] * grid + lo[rows, 1]
        offset = (offs_x[:, None] * grid + offs_y).ravel()
        flat[corner[t] + offset[r]] = True


def _cluster_count(mask: np.ndarray) -> int:
    """Connected clusters of filled pixels of a boolean mask under
    8-connectivity.

    The filled pixels of each row form runs ``[start, end)``. Runs in
    adjacent rows touch when each starts no later than the other ends; the
    exclusive end admits the diagonal neighbours. A union-find over the runs,
    with path halving, joins every touching pair."""
    h, w = mask.shape
    padded = np.zeros((h, w + 2), dtype=np.int8)
    padded[:, 1:-1] = mask
    step = np.diff(padded, axis=1)
    rows, starts = np.nonzero(step == 1)
    ends = np.nonzero(step == -1)[1]
    # Keys row * stride + column sort the runs row by row. The runs of row
    # r + 1 that touch a run of row r, those ending at or after its start
    # and starting at or before its end, form one index range [lo, hi).
    stride = w + 2
    below = (rows + 1) * stride
    lo = np.searchsorted(rows * stride + ends, below + starts, side="left")
    hi = np.searchsorted(rows * stride + starts, below + ends, side="right")
    touching = np.maximum(hi - lo, 0)
    upper = np.repeat(np.arange(len(starts)), touching)
    lower = np.repeat(lo - np.cumsum(touching) + touching, touching) + np.arange(len(upper))
    parent = list(range(len(starts)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    clusters = len(parent)
    for i, j in zip(upper.tolist(), lower.tolist()):
        i, j = root(i), root(j)
        if i != j:
            parent[i] = j
            clusters -= 1
    return clusters


def filter_mesh(mesh: QuantizedMesh, cfg: Optional[PreprocessConfig] = None) -> AcceptDecision:
    """Screen a quantized mesh: face budget, half-edge validity, and the three
    orthographic silhouettes (reject a vanishing silhouette or one that falls
    apart into several clusters).

    Each silhouette is the union of the faces rasterized on a
    ``proj_grid`` x ``proj_grid`` mask by ``_fill_triangles_2d``; it must
    cover at least ``proj_min_area`` of the mask and form one 8-connected
    cluster."""
    cfg = cfg or PreprocessConfig()
    reasons: list[str] = []
    if len(mesh.faces) > cfg.max_faces:
        reasons.append(f"face_count:{len(mesh.faces)}>{cfg.max_faces}")
    if not validate_manifold(mesh).ok:
        reasons.append("manifold")
    tri3d = dequantized_vertex_array(mesh)[face_array(mesh)]  # (m, 3, 3)
    for axis, name in ((0, "x"), (1, "y"), (2, "z")):
        keep = [i for i in range(3) if i != axis]
        mask = _fill_triangles_2d(tri3d[:, :, keep], cfg.proj_grid)
        frac = float(mask.mean()) if mask.size else 0.0
        if frac < cfg.proj_min_area:
            reasons.append(f"projection_area:{name}")
        elif _cluster_count(mask) > 1:
            reasons.append(f"projection_clusters:{name}")
    return AcceptDecision(not reasons, reasons)


_ROT_X_POS = np.array([[1, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=np.float64)
_ROT_X_NEG = _ROT_X_POS.T
_ROT_Y_POS = np.array([[0, 0, 1], [0, 1, 0], [-1, 0, 0]], dtype=np.float64)
_ROT_Y_NEG = _ROT_Y_POS.T


def augment(mesh: MeshReal, cfg: Optional[PreprocessConfig] = None, seed: int = 0) -> MeshReal:
    """Seeded geometric augmentation, a pure function of (mesh, cfg, seed).

    In order: independent per-axis scaling drawn from [scale_low, scale_high];
    with probability flip_prob an exact +/-90 degree rotation about the x or
    y axis (axis and sign uniform); then a rotation about z with angle uniform
    in +/- z_rot_max_degrees.
    """
    cfg = cfg or PreprocessConfig()
    rng = np.random.default_rng(seed)
    scales = rng.uniform(cfg.scale_low, cfg.scale_high, size=3)
    v = mesh.vertices * scales
    if rng.random() < cfg.flip_prob:
        about_x = rng.random() < 0.5
        positive = rng.random() < 0.5
        rot = (_ROT_X_POS if positive else _ROT_X_NEG) if about_x else (
            _ROT_Y_POS if positive else _ROT_Y_NEG
        )
        v = v @ rot.T
    angle = rng.uniform(-math.radians(cfg.z_rot_max_degrees), math.radians(cfg.z_rot_max_degrees))
    ca, sa = math.cos(angle), math.sin(angle)
    rz = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        v = v @ rz.T
    if not np.isfinite(v).all():
        raise OutOfRangeError("coordinates too large: the rotation about z overflows")
    return MeshReal(v, mesh.faces.copy())


def run_preprocess(
    mesh: MeshReal, cfg: Optional[PreprocessConfig] = None
) -> tuple[QuantizedMesh, AcceptDecision]:
    """normalize -> quantize -> filter, the standard intake path."""
    cfg = cfg or PreprocessConfig()
    # Rebinding ``mesh`` lets an input the caller does not keep be freed
    # before filter_mesh.
    mesh = quantize(normalize(mesh), cfg.bits)
    return mesh, filter_mesh(mesh, cfg)
