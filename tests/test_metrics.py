from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshtok import metrics
from meshtok.core import MeshReal, dequantize_mesh
from meshtok.metrics import (
    EmptySurfaceError,
    _face_geometry,
    _triangle_corners,
    _triangle_distances,
    chamfer,
    closest_faces,
    evaluate,
    normal_consistency,
    point_to_triangle_distance,
    sample_surface,
)
from meshtok.preprocess import augment, normalize, quantize
from meshtok.procgen import icosphere, tetrahedron, torus
from helpers import (
    barycentric_lattice,
    brute_force_normal_consistency,
    brute_force_similarities,
    dense_closest_faces,
    dense_sample_distance,
    exact_point_to_triangle_distance,
    random_triangle_soup,
    reference_chamfer,
    reference_point_to_triangle_distance,
)

UNIT_RIGHT = MeshReal(
    np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], float), np.array([[0, 1, 2]])
)


class TestSampleSurface:
    def test_samples_stay_on_the_triangle(self):
        pts = sample_surface(UNIT_RIGHT, 1000, seed=1)
        assert np.allclose(pts[:, 2], 0.0)
        assert (pts[:, 0] >= -1e-12).all() and (pts[:, 1] >= -1e-12).all()
        assert (pts[:, 0] + pts[:, 1] <= 1 + 1e-12).all()

    def test_area_weighting_within_4_sigma(self):
        # Face areas 1 and 3; expect ~250 of 1000 points on the small face.
        verts = np.array(
            [[0, 0, 0], [2, 0, 0], [0, 1, 0], [10, 0, 0], [13, 0, 0], [10, 2, 0]],
            dtype=float,
        )
        mesh = MeshReal(verts, np.array([[0, 1, 2], [3, 4, 5]]))
        pts = sample_surface(mesh, 1000, seed=3)
        on_small = int((pts[:, 0] < 5.0).sum())
        sigma = np.sqrt(1000 * 0.25 * 0.75)
        assert abs(on_small - 250) <= 4 * sigma

    def test_deterministic_per_seed(self):
        a = sample_surface(UNIT_RIGHT, 256, seed=9)
        b = sample_surface(UNIT_RIGHT, 256, seed=9)
        assert np.array_equal(a, b)

    def test_zero_area_faces_are_never_picked(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0]], float)
        mesh = MeshReal(verts, np.array([[0, 1, 2], [0, 1, 3]]))
        pts = sample_surface(mesh, 500, seed=0)
        assert (np.abs(pts[:, 2]) < 1e-12).all()
        assert (pts[:, 1] >= -1e-12).all()

    def test_all_degenerate_raises(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], float)
        with pytest.raises(EmptySurfaceError):
            sample_surface(MeshReal(verts, np.array([[0, 1, 2]])), 10)

    @pytest.mark.parametrize("scale", [1e78, 1e100, 1e200])
    def test_overflowing_area_raises(self, scale):
        # Every area would overflow to inf and every draw land on the last face.
        tetra = tetrahedron()
        with pytest.raises(EmptySurfaceError, match="overflows"):
            sample_surface(MeshReal(tetra.vertices * scale, tetra.faces), 10)


class TestChamfer:
    def test_identical_sets_zero(self):
        pts = np.random.default_rng(0).uniform(size=(200, 3))
        assert chamfer(pts, pts.copy()) == 0.0

    def test_single_pair(self):
        assert chamfer([[0, 0, 0]], [[0, 0, 1]]) == pytest.approx(1.0)

    def test_parallel_unit_squares_offset(self):
        square = MeshReal(
            np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], float),
            np.array([[0, 1, 2], [0, 2, 3]]),
        )
        for d in (0.1, 0.25):
            lifted = MeshReal(square.vertices + [0, 0, d], square.faces.copy())
            for seed in (0, 7, 42):
                a = sample_surface(square, 3000, seed=seed)
                b = sample_surface(lifted, 3000, seed=seed)
                assert chamfer(a, b) == pytest.approx(d, abs=1e-9)

    @given(seed=st.integers(0, 1000), n=st.integers(1, 64), m=st.integers(1, 64))
    @settings(max_examples=30, deadline=None)
    def test_symmetry_and_nonnegativity(self, seed, n, m):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, 3))
        b = rng.normal(size=(m, 3))
        assert chamfer(a, b) == chamfer(b, a) >= 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            chamfer(np.zeros((0, 3)), np.ones((4, 3)))

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
        m=st.integers(1, 300),
        repeats=st.integers(0, 40),
        grid=st.sampled_from([None, 2, 8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_as_input_order_queries(self, seed, n, m, repeats, grid):
        # Tree-order queries give the mean of input-order queries bit for bit,
        # with repeated points and, on a coarse grid, many equidistant ones.
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, 3))
        b = rng.normal(size=(m, 3))
        a = np.concatenate([a, a[rng.integers(0, n, size=repeats)]])
        b = np.concatenate([b, a[rng.integers(0, len(a), size=repeats)]])
        if grid is not None:
            a, b = np.round(a * grid) / grid, np.round(b * grid) / grid
        a, b = rng.permutation(a), rng.permutation(b)
        assert chamfer(a, b) == reference_chamfer(a, b)
        assert chamfer(a[:1], b) == reference_chamfer(a[:1], b)


TRI = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


class TestPointToTriangle:
    def test_above_interior(self):
        assert point_to_triangle_distance([0.2, 0.2, 0.7], TRI) == pytest.approx(0.7)

    def test_at_vertex(self):
        assert point_to_triangle_distance([0.0, 1.0, 0.0], TRI) == 0.0

    def test_beyond_edge_matches_segment_distance(self):
        p = np.array([0.5, -0.4, 0.3])
        # Closest feature is the segment (0,0,0)-(1,0,0); its distance is known.
        expected = float(np.hypot(0.4, 0.3))
        assert point_to_triangle_distance(p, TRI) == pytest.approx(expected, abs=1e-12)

    def test_degenerate_triangle_falls_back_to_edges(self):
        collinear = [[0, 0, 0], [1, 0, 0], [2, 0, 0]]
        # Two coincident corners, in each of the three places (a == b, b == c, a == c).
        coincident = [
            [[0, 0, 0], [0, 0, 0], [2, 0, 0]],
            [[2, 0, 0], [0, 0, 0], [0, 0, 0]],
            [[0, 0, 0], [2, 0, 0], [0, 0, 0]],
        ]
        for tri in [collinear, *coincident]:
            tri = np.array(tri, float)
            assert point_to_triangle_distance([1.0, 1.0, 0.0], tri) == pytest.approx(1.0)
            assert point_to_triangle_distance([3.0, 0.0, 0.0], tri) == pytest.approx(1.0)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_scalar_and_batch_agree(self, seed):
        # On well-shaped triangles the region walk that the kernel replaced
        # is exact, so both forms of the kernel must agree with it.
        rng = np.random.default_rng(seed)
        tri = rng.uniform(-1, 1, size=(3, 3))
        if 0.5 * np.linalg.norm(np.cross(tri[1] - tri[0], tri[2] - tri[0])) < 1e-6:
            return
        pts = rng.uniform(-2, 2, size=(8, 3))
        d_batch, _ = closest_faces(pts, tri[None, 0], tri[None, 1], tri[None, 2])
        for p, d in zip(pts, d_batch):
            want = reference_point_to_triangle_distance(p, tri)
            assert d == pytest.approx(want, abs=1e-12)
            assert point_to_triangle_distance(p, tri) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("scale", [2.0**-30, 1.0, 2.0**30])
    def test_matches_the_exact_oracle(self, scale):
        # Within 1e-14 of the coordinates' size of the exact rational
        # distance, on every family, near-flat triangles included.
        rng = np.random.default_rng(2027)
        cases = [_oracle_case(rng, family) for family in _ORACLE_FAMILIES for _ in range(60)]
        pts = scale * np.array([p for p, _ in cases])
        tris = scale * np.array([tri for _, tri in cases])
        batch = _triangle_distances(pts, tris[:, 0], tris[:, 1], tris[:, 2])
        for p, tri, d in zip(pts, tris, batch):
            bound = 1e-14 * max(np.abs(p).max(), np.abs(tri).max())
            exact = exact_point_to_triangle_distance(p, tri)
            assert abs(d - exact) <= bound
            assert point_to_triangle_distance(p, tri) == d

    @pytest.mark.parametrize("scale", [1e77, 1e160])
    def test_overflowing_coordinates_raise(self, scale):
        # Products of four coordinate differences would overflow; no answer,
        # not even nan, comes back.
        with pytest.raises(EmptySurfaceError, match="a distance overflows"):
            point_to_triangle_distance(np.array([0.2, 0.2, 0.7]) * scale, TRI * scale)

    def test_against_dense_sampling_oracle(self):
        rng = np.random.default_rng(2024)
        weights = barycentric_lattice(445)
        checked = 0
        while checked < 50:
            tri = rng.uniform(0, 1, size=(3, 3))
            if 0.5 * np.linalg.norm(np.cross(tri[1] - tri[0], tri[2] - tri[0])) < 1e-4:
                continue
            p = rng.uniform(-0.5, 1.5, size=3)
            oracle = dense_sample_distance(p, tri, weights)
            if oracle < 0.05:
                continue
            assert point_to_triangle_distance(p, tri) == pytest.approx(oracle, abs=1e-4)
            checked += 1


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _sliver(rng) -> tuple[np.ndarray, np.ndarray]:
    """A triangle whose apex lies 1e-16 to 1e-4 off the line through its
    other two corners, within or beyond their span, corners shuffled; and
    the unit direction of that offset."""
    a, b = rng.uniform(-1, 1, size=(2, 3))
    off = np.cross(b - a, rng.normal(size=3))
    off *= 10.0 ** rng.uniform(-16, -4) / np.linalg.norm(off)
    apex = a + rng.uniform(-0.5, 1.5) * (b - a) + off
    return np.array([a, b, apex])[rng.permutation(3)], _unit(off)


def _oracle_case(rng, family: str) -> tuple[np.ndarray, np.ndarray]:
    """One (point, triangle) pair of ``family``."""
    tri = rng.uniform(-1, 1, size=(3, 3))
    near = rng.normal(size=3) * 10.0 ** rng.uniform(-16, -6)  # within 1e-6
    if family == "random":
        return rng.uniform(-1.5, 1.5, size=3), tri
    if family == "near-vertex":
        return tri[rng.integers(3)] + near, tri
    if family == "near-edge":
        i = rng.integers(3)
        return tri[i] + rng.uniform() * (tri[(i + 1) % 3] - tri[i]) + near, tri
    if family == "float-collinear":  # the apex on the line up to rounding
        tri[2] = tri[0] + rng.uniform(-0.5, 1.5) * (tri[1] - tri[0])
        return tri[0] + rng.uniform(-0.2, 1.2) * (tri[1] - tri[0]) + near, tri[rng.permutation(3)]
    if family == "coincident":
        tri[rng.integers(3)] = tri[rng.integers(3)]
        return rng.uniform(-1.5, 1.5, size=3), tri
    tri, off = _sliver(rng)
    if family == "sliver-near":
        i = rng.integers(3)
        return tri[i] + rng.uniform(-0.1, 1.1) * (tri[(i + 1) % 3] - tri[i]) + near, tri
    # Above a point of the sliver, along its exact normal or along the normal
    # that rounding gives, which may point anywhere.
    normal = np.cross(tri[1] - tri[0], off) if family == "sliver-above" else np.cross(tri[1] - tri[0], tri[2] - tri[0])
    if not normal.any():
        normal = rng.normal(size=3)
    return rng.dirichlet([1, 1, 1]) @ tri + _unit(normal) * 10.0 ** rng.uniform(-12, 0), tri


_ORACLE_FAMILIES = [
    "random", "near-vertex", "near-edge", "float-collinear", "coincident",
    "sliver-near", "sliver-above", "sliver-rounded-normal",
]


def _search_inputs(src: MeshReal, ref: MeshReal):
    """Query points and triangles as normal consistency builds them: the
    centroids of src's valid faces, and ref's valid faces."""
    _, centroids, valid = _face_geometry(*_triangle_corners(src))
    corners = _triangle_corners(ref)
    _, _, valid_ref = _face_geometry(*corners)
    a, b, c = (corner[valid_ref] for corner in corners)
    return centroids[valid], a, b, c


def _assert_same_as_dense(points, a, b, c):
    dists, idxs = closest_faces(points, a, b, c)
    want_dists, want_idxs = dense_closest_faces(points, a, b, c)
    assert np.array_equal(idxs, want_idxs)
    assert np.array_equal(dists, want_dists)


def _assert_pairs_same_as_dense(src: MeshReal, ref: MeshReal):
    for x, y in ((src, ref), (ref, src), (src, src)):
        _assert_same_as_dense(*_search_inputs(x, y))


def _sliver_scene(rng, n_small: int) -> MeshReal:
    """Small random triangles plus one thin triangle across the whole box,
    whose centroid-to-vertex reach covers every centroid."""
    tris = rng.uniform(-0.5, 0.5, size=(n_small, 1, 3)) + rng.normal(scale=0.01, size=(n_small, 3, 3))
    sliver = np.array([[[-0.5, -0.5, -0.5], [0.5, 0.5, 0.5], [0.5, 0.5, 0.501]]])
    verts = np.concatenate([tris, sliver]).reshape(-1, 3)
    return MeshReal(verts, np.arange(len(verts)).reshape(-1, 3))


def _mixed_reach_triangles(rng, span: int, m: int, n_flat: int) -> np.ndarray:
    """(m + n_flat, 3, 3) triangles in shuffled order: one face at size 1
    and one at 2^-span, so the reach spans about 2^span, the rest at random
    sizes in between, and ``n_flat`` zero-area faces at random sizes (two
    corners coincident, all three, or collinear)."""
    sizes = 2.0 ** np.concatenate([[0, -span], rng.uniform(-span, 0, size=m - 2)])
    tris = rng.uniform(-0.5, 0.5, size=(m, 1, 3)) + sizes[:, None, None] * TRI
    centres = rng.uniform(-0.5, 0.5, size=(n_flat, 1, 3))
    ends = centres + 2.0 ** rng.uniform(-span, 0, size=(n_flat, 1, 1)) * rng.normal(size=(n_flat, 1, 3))
    mid = centres + rng.uniform(0, 1, size=(n_flat, 1, 1)) * (ends - centres)
    flat = np.stack([
        np.concatenate([centres, centres, ends], axis=1),
        np.concatenate([centres, ends, centres], axis=1),
        np.concatenate([ends, centres, centres], axis=1),
        np.repeat(centres, 3, axis=1),
        np.concatenate([centres, mid, ends], axis=1),
    ])[rng.integers(0, 5, size=n_flat), np.arange(n_flat)]
    return rng.permutation(np.concatenate([tris, flat]))


def _reach_span(tris: np.ndarray) -> float:
    reach = np.linalg.norm(tris - tris.mean(axis=1, keepdims=True), axis=2).max(axis=1)
    return reach.max() / reach[reach > 0].min()


class TestClosestFaces:
    """The pruned search returns exactly what the dense search over every
    (point, face) pair returns: the same face indices, ties to the lowest,
    and bit-identical distances."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 200), m=st.integers(1, 200))
    @settings(max_examples=40, deadline=None)
    def test_random_soups(self, seed, n, m):
        rng = np.random.default_rng(seed)
        src = random_triangle_soup(rng, max(8, n // 3), n)
        ref = random_triangle_soup(rng, max(8, m // 3), m)
        _assert_pairs_same_as_dense(src, ref)

    def test_fixture_corpora(self, corpus7, corpus9):
        for corpus in (corpus7, corpus9):
            meshes = [dequantize_mesh(mesh) for _, mesh in corpus]
            for src, ref in zip(meshes, meshes[1:] + meshes[:1]):
                _assert_pairs_same_as_dense(src, ref)

    def test_augmented_fixtures(self, corpus7):
        for seed, (_, mesh) in enumerate(corpus7):
            real = dequantize_mesh(mesh)
            moved = dequantize_mesh(quantize(normalize(augment(real, seed=seed)), 7))
            _assert_pairs_same_as_dense(real, moved)

    def test_coincident_faces_tie_to_the_lowest_index(self):
        mesh = dequantize_mesh(quantize(torus(8, 6), 7))
        order = np.random.default_rng(3).permutation(len(mesh.faces))
        doubled = MeshReal(mesh.vertices, np.concatenate([mesh.faces, mesh.faces[order]]))
        points, a, b, c = _search_inputs(mesh, doubled)
        _assert_same_as_dense(points, a, b, c)
        dists, idxs = closest_faces(points, a, b, c)
        assert np.array_equal(idxs, np.arange(len(mesh.faces)))
        assert dists.max() < 1e-12

    def test_small_blocks(self, corpus7, monkeypatch):
        # A budget below the face count puts every point taking all faces in
        # a block of its own, and splits the listed points into many blocks.
        monkeypatch.setattr(metrics, "_PAIR_BUDGET", 40)
        rng = np.random.default_rng(11)
        _assert_pairs_same_as_dense(_sliver_scene(rng, 60), random_triangle_soup(rng, 20, 50))
        meshes = [dequantize_mesh(mesh) for _, mesh in corpus7[4:9]]
        for src, ref in zip(meshes, meshes[1:]):
            _assert_pairs_same_as_dense(src, ref)

    @given(
        seed=st.integers(0, 2**32 - 1),
        span=st.integers(11, 40),
        m=st.integers(2, 120),
        n_flat=st.integers(1, 20),
        n=st.integers(1, 150),
    )
    @settings(max_examples=40, deadline=None)
    def test_mixed_reach(self, seed, span, m, n_flat, n):
        # Face reach spans at least 2^10, so the faces fall in several reach
        # classes; queries at the centroids, near the smallest faces and
        # anywhere in the box.
        rng = np.random.default_rng(seed)
        tris = _mixed_reach_triangles(rng, span, m, n_flat)
        assert _reach_span(tris) >= 2.0**10
        a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
        centroids = (a + b + c) / 3.0
        near_small = centroids[rng.integers(0, len(tris), size=n)]
        near_small += 2.0**-span * rng.normal(size=near_small.shape)
        pts = np.concatenate([centroids, near_small, rng.uniform(-0.7, 0.7, size=(n, 3))])
        _assert_same_as_dense(pts, a, b, c)

    @pytest.mark.parametrize("budget", [40, None])
    @pytest.mark.parametrize("k", [1, 2])
    def test_few_nearest(self, corpus7, monkeypatch, k, budget):
        # With one or two nearest centroids per class, most points ask the
        # tree for their ball, and on the small solids a ball holds over half
        # of a class, which is taken whole.
        monkeypatch.setattr(metrics, "_NEAREST_K", k)
        if budget is not None:
            monkeypatch.setattr(metrics, "_PAIR_BUDGET", budget)
        rng = np.random.default_rng(13)
        _assert_pairs_same_as_dense(_sliver_scene(rng, 60), random_triangle_soup(rng, 20, 50))
        meshes = [dequantize_mesh(mesh) for _, mesh in corpus7[:9]]
        for src, ref in zip(meshes, meshes[1:]):
            _assert_pairs_same_as_dense(src, ref)
        tris = _mixed_reach_triangles(rng, 12, 80, 10)
        pts = np.concatenate([tris.mean(axis=1), rng.uniform(-0.7, 0.7, size=(100, 3))])
        _assert_same_as_dense(pts, tris[:, 0], tris[:, 1], tris[:, 2])

    @pytest.mark.parametrize("scale", [1e78, 1e100, 1e200])
    def test_overflowing_radius_raises(self, scale):
        tetra = tetrahedron()
        a, b, c = (tetra.vertices[tetra.faces[:, i]] * scale for i in range(3))
        with pytest.raises(EmptySurfaceError, match="overflows"):
            closest_faces((a + b + c) / 3.0, a, b, c)

    def test_overflowing_centroid_distance_raises(self):
        # A small face far from the points: its reach and the rounding margin
        # are finite, but no centroid distance is.
        a, b, c = TRI[None, 0] - 1e160, TRI[None, 1] - 1e160, TRI[None, 2] - 1e160
        with pytest.raises(EmptySurfaceError, match="overflows"):
            closest_faces(np.full((3, 3), 1e160), a, b, c)

    def test_box_spanning_sliver(self):
        rng = np.random.default_rng(5)
        _assert_pairs_same_as_dense(_sliver_scene(rng, 400), _sliver_scene(rng, 300))

    def test_no_query_points(self):
        a, b, c = TRI[None, 0], TRI[None, 1], TRI[None, 2]
        dists, idxs = closest_faces(np.zeros((0, 3)), a, b, c)
        assert dists.shape == idxs.shape == (0,)
        assert dists.dtype == np.float64 and idxs.dtype == np.int64

    def test_single_reference_face(self):
        pts = np.random.default_rng(8).uniform(-2, 2, size=(50, 3))
        a, b, c = TRI[None, 0], TRI[None, 1], TRI[None, 2]
        _assert_same_as_dense(pts, a, b, c)
        dists, idxs = closest_faces(pts, a, b, c)
        assert (idxs == 0).all()
        for p, d in zip(pts, dists):
            assert reference_point_to_triangle_distance(p, TRI) == pytest.approx(d, abs=1e-12)

    def test_point_over_a_sliver(self):
        # The point lies 1.2e-9 from a sliver whose normal is 2.3e-9 long;
        # the row-wise region walk measured it 0.027 away, beyond the face
        # 0.01 above the point.
        point = np.array([[-0.49173966853738243, 0.04543183679011754, 0.2512874005463036]])
        sliver = np.array([
            [-0.31758854052390006, 0.03137345865824748, 0.2620341568536586],
            [-1.2878275589256516, 0.1096961605760185, 0.20216131184673736],
            [-0.37330474771972644, 0.03587116073472887, 0.2585959434996835],
        ])
        above = point[0] + [0.0, 0.0, 0.01] + 1e-3 * np.array([[-1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 1.0, 0.0]])
        tris = np.array([sliver, above])
        dists, idxs = closest_faces(point, tris[:, 0], tris[:, 1], tris[:, 2])
        assert idxs[0] == 0
        assert dists[0] == pytest.approx(exact_point_to_triangle_distance(point[0], sliver), abs=1e-15)
        assert dists[0] < 2e-9

    def test_zero_area_faces_match_the_scalar(self):
        # Two coincident corners in each of the three places, then collinear
        # corners: every row is measured by its edges, as the exact oracle
        # measures them.
        flat = [
            [[0, 0, 0], [0, 0, 0], [2, 0, 0]],
            [[2, 0, 0], [0, 0, 0], [0, 0, 0]],
            [[0, 0, 0], [2, 0, 0], [0, 0, 0]],
            [[0, 0, 0], [1, 0, 0], [2, 0, 0]],
        ]
        rng = np.random.default_rng(28)
        pts = np.concatenate([[[1.0, 1.0, 0.0], [3.0, 0.0, 0.0]], rng.uniform(-2, 3, size=(40, 3))])
        for tri in np.array(flat, float):
            dists, idxs = closest_faces(pts, *tri[:, None])
            assert dists[:2] == pytest.approx([1.0, 1.0], abs=1e-12)
            assert (idxs == 0).all()
            for p, d in zip(pts, dists):
                assert d == pytest.approx(exact_point_to_triangle_distance(p, tri), abs=1e-12)
        # A mixed batch: the flat rows among proper triangles, each distance
        # the exact minimum and each pick a face at that distance.
        tris = np.concatenate([flat, [TRI], rng.uniform(-2, 3, size=(6, 3, 3))])
        tris = tris[rng.permutation(len(tris))]
        dists, idxs = closest_faces(pts, tris[:, 0], tris[:, 1], tris[:, 2])
        for p, d, i in zip(pts, dists, idxs):
            exact = [exact_point_to_triangle_distance(p, tri) for tri in tris]
            assert d == pytest.approx(min(exact), abs=1e-12)
            assert exact[i] == pytest.approx(min(exact), abs=1e-9)

    @pytest.mark.parametrize("budget", [40, None])
    def test_zero_area_faces_match_dense(self, monkeypatch, budget):
        # Coincident corners in each place, all three coincident, exactly
        # collinear corners and near-collinear ones, among proper triangles.
        if budget is not None:
            monkeypatch.setattr(metrics, "_PAIR_BUDGET", budget)
        rng = np.random.default_rng(31)
        corner = rng.uniform(-1, 1, size=(12, 1, 3))
        far = rng.uniform(-1, 1, size=(12, 1, 3))
        flat = np.concatenate([
            np.concatenate([corner, corner, far], axis=1),
            np.concatenate([far, corner, corner], axis=1),
            np.concatenate([corner, far, corner], axis=1),
            np.repeat(corner, 3, axis=1),
            [[[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 0, 0], [0, 0, 0], [2, 0, 0]]],
            corner + np.array([0.0, 0.25, 1.0])[:, None] * (far - corner),
        ])
        tris = np.concatenate([flat, rng.uniform(-1, 1, size=(40, 3, 3))])
        tris = tris[rng.permutation(len(tris))]
        pts = rng.uniform(-1.5, 1.5, size=(300, 3))
        pts = np.concatenate([[[1.0, 1.0, 0.0], [3.0, 0.0, 0.0]], pts])
        _assert_same_as_dense(pts, tris[:, 0], tris[:, 1], tris[:, 2])
        _assert_same_as_dense(pts, flat[:, 0], flat[:, 1], flat[:, 2])


class TestNormalConsistency:
    def test_self_is_exactly_one(self):
        for mesh in (dequantize_mesh(quantize(icosphere(1), 7)),
                     dequantize_mesh(quantize(torus(8, 6), 7))):
            nc, abs_nc = normal_consistency(mesh, mesh)
            assert nc == pytest.approx(1.0, abs=1e-12)
            assert abs_nc == pytest.approx(1.0, abs=1e-12)

    def test_winding_flip_negates_nc_only(self):
        mesh = dequantize_mesh(quantize(icosphere(1), 7))
        flipped = MeshReal(mesh.vertices.copy(), mesh.faces[:, [0, 2, 1]].copy())
        nc, abs_nc = normal_consistency(mesh, flipped)
        assert nc == pytest.approx(-1.0, abs=1e-12)
        assert abs_nc == pytest.approx(1.0, abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(5)
        a = random_triangle_soup(rng, 20, 30)
        b = random_triangle_soup(rng, 20, 30)
        assert normal_consistency(a, b) == normal_consistency(b, a)

    def test_abs_nc_dominates_nc(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            a = random_triangle_soup(rng, 15, 25)
            b = random_triangle_soup(rng, 15, 25)
            nc, abs_nc = normal_consistency(a, b)
            assert abs_nc >= nc

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            a = random_triangle_soup(rng, 18, 40)
            b = random_triangle_soup(rng, 18, 40)
            got = normal_consistency(a, b)
            want = brute_force_normal_consistency(a, b)
            assert got[0] == pytest.approx(want[0], abs=1e-9)
            assert got[1] == pytest.approx(want[1], abs=1e-9)

    def test_degenerate_faces_are_excluded(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 0, 0]], float)
        with_junk = MeshReal(verts, np.array([[0, 1, 2], [0, 1, 3]]))
        clean = MeshReal(verts, np.array([[0, 1, 2]]))
        assert normal_consistency(with_junk, clean) == pytest.approx((1.0, 1.0))

    def test_empty_surface_raises(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], float)
        degenerate = MeshReal(verts, np.array([[0, 1, 2]]))
        with pytest.raises(EmptySurfaceError):
            normal_consistency(degenerate, degenerate)

    @pytest.mark.parametrize("scale", [1e78, 1e155, 1e200])
    def test_overflowing_normal_raises(self, scale):
        # The normals' lengths overflow, in the norm at 1e78 and in the cross
        # product above; no RuntimeWarning escapes.
        tetra = tetrahedron()
        huge = MeshReal(tetra.vertices * scale, tetra.faces)
        with pytest.raises(EmptySurfaceError, match="a face normal overflows"):
            normal_consistency(huge, huge)

    def test_zero_area_face_at_the_largest_floats_is_skipped(self):
        # Its centroid overflows, but a zero-area face is excluded anyway.
        verts = np.concatenate([[[1e308, 1e308, 1e308]], UNIT_RIGHT.vertices])
        mesh = MeshReal(verts, np.array([[0, 0, 0], [1, 2, 3]]))
        assert normal_consistency(mesh, mesh) == (1.0, 1.0)


class TestEvaluate:
    def test_self_report_fixed_point(self):
        mesh = dequantize_mesh(quantize(torus(8, 6), 7))
        report = evaluate(mesh, mesh, samples=2000, seed=11)
        assert report.cd == 0.0
        assert report.nc == pytest.approx(1.0, abs=1e-12)
        assert report.abs_nc == pytest.approx(1.0, abs=1e-12)
        assert report.flipped == 0.0
        assert report.samples == 2000 and report.seed == 11

    def test_flipped_winding_flips_every_face(self):
        mesh = dequantize_mesh(quantize(icosphere(1), 7))
        flipped = MeshReal(mesh.vertices.copy(), mesh.faces[:, [0, 2, 1]].copy())
        assert evaluate(mesh, flipped, samples=100).flipped == 1.0

    def test_flipped_matches_brute_force_count(self):
        src = dequantize_mesh(quantize(torus(8, 6), 7))
        ref = dequantize_mesh(quantize(torus(10, 5), 7))
        ref.faces[::3] = ref.faces[::3, [0, 2, 1]]
        sims_sr, sims_rs = brute_force_similarities(src, ref)
        negative = sum(s < 0.0 for s in sims_sr + sims_rs)
        assert 0 < negative < len(sims_sr) + len(sims_rs)
        report = evaluate(src, ref, samples=100)
        assert report.flipped == negative / (len(sims_sr) + len(sims_rs))
