"""Dataset preparation: normalization, quantization, filtering, augmentation.

The pipeline order for raw inputs is normalize -> quantize -> filter. Rotation
augmentation can collapse grid cells, so augmented meshes must be re-quantized
and re-validated before use; meshes failing that are rejected like any other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import ndimage

from .core import (
    Face,
    MeshReal,
    QuantizedMesh,
    QuantizedVertex,
    dequantized_vertex_array,
    validate_manifold,
)


class DegenerateExtentError(ValueError):
    """All vertices coincide; there is nothing to normalize."""


class OutOfRangeError(ValueError):
    """Coordinates fall outside [-0.5, 0.5]; normalize first."""


@dataclass
class PreprocessConfig:
    bits: int = 7
    max_faces: int = 5500
    proj_grid: int = 256
    proj_min_area: float = 0.005
    seed: int = 0
    scale_low: float = 0.75
    scale_high: float = 0.95
    flip_prob: float = 0.3
    z_rot_max_degrees: float = 180.0

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 16:
            raise ValueError("bits must be in [1, 16]")
        if not 0.0 < self.scale_low <= self.scale_high <= 1.0:
            raise ValueError("scale range must satisfy 0 < low <= high <= 1")


@dataclass
class AcceptDecision:
    accept: bool
    reasons: list[str]


def normalize(mesh: MeshReal) -> MeshReal:
    """Center the bounding box at the origin and scale its longest axis to
    span exactly [-0.5, 0.5], preserving aspect ratio. Idempotent."""
    if len(mesh.vertices) == 0:
        raise DegenerateExtentError("mesh has no vertices")
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    extent = float((hi - lo).max())
    if extent <= 0.0:
        raise DegenerateExtentError("all vertices coincide")
    center = (lo + hi) / 2.0
    return MeshReal((mesh.vertices - center) / extent, mesh.faces.copy())


def quantize(mesh: MeshReal, bits: int = 7) -> QuantizedMesh:
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
    q = np.floor((v + 0.5) * cells).astype(np.int64)
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


def _fill_triangles_2d(tri2d: np.ndarray, grid: int) -> np.ndarray:
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


def _cluster_count(mask: np.ndarray) -> int:
    """Connected clusters of filled pixels under 8-connectivity."""
    _, count = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
    return int(count)


def filter_mesh(mesh: QuantizedMesh, cfg: Optional[PreprocessConfig] = None) -> AcceptDecision:
    """Screen a quantized mesh: face budget, half-edge validity, and the three
    orthographic silhouettes (reject a vanishing silhouette or one that falls
    apart into several clusters)."""
    cfg = cfg or PreprocessConfig()
    reasons: list[str] = []
    if len(mesh.faces) > cfg.max_faces:
        reasons.append(f"face_count:{len(mesh.faces)}>{cfg.max_faces}")
    if not validate_manifold(mesh).ok:
        reasons.append("manifold")
    verts = dequantized_vertex_array(mesh)
    faces = np.asarray([tuple(f) for f in mesh.faces], dtype=np.int64).reshape(-1, 3)
    for axis, name in ((0, "x"), (1, "y"), (2, "z")):
        keep = [i for i in range(3) if i != axis]
        tri2d = verts[faces][:, :, keep] if len(faces) else np.zeros((0, 3, 2))
        mask = _fill_triangles_2d(tri2d, cfg.proj_grid)
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


def augment(mesh: MeshReal, cfg: Optional[PreprocessConfig] = None, seed: Optional[int] = None) -> MeshReal:
    """Seeded geometric augmentation, a pure function of (mesh, cfg, seed).

    In order: independent per-axis scaling drawn from [scale_low, scale_high];
    with probability flip_prob an exact +/-90 degree rotation about the x or
    y axis (axis and sign uniform); then a rotation about z with angle uniform
    in +/- z_rot_max_degrees.
    """
    cfg = cfg or PreprocessConfig()
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
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
    return MeshReal(v @ rz.T, mesh.faces.copy())


def run_preprocess(
    mesh: MeshReal, cfg: Optional[PreprocessConfig] = None
) -> tuple[QuantizedMesh, AcceptDecision]:
    """normalize -> quantize -> filter, the standard intake path."""
    cfg = cfg or PreprocessConfig()
    quantized = quantize(normalize(mesh), cfg.bits)
    return quantized, filter_mesh(quantized, cfg)
