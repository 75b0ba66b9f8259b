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
    chamfer,
    closest_faces,
    evaluate,
    normal_consistency,
    point_to_triangle_distance,
    sample_surface,
)
from meshtok.preprocess import augment, normalize, quantize
from meshtok.procgen import icosphere, torus
from helpers import (
    barycentric_lattice,
    brute_force_normal_consistency,
    brute_force_similarities,
    dense_closest_faces,
    dense_sample_distance,
    random_triangle_soup,
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
        collinear = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], float)
        assert point_to_triangle_distance([1.0, 1.0, 0.0], collinear) == pytest.approx(1.0)
        assert point_to_triangle_distance([3.0, 0.0, 0.0], collinear) == pytest.approx(1.0)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_scalar_and_batch_agree(self, seed):
        rng = np.random.default_rng(seed)
        tri = rng.uniform(-1, 1, size=(3, 3))
        if 0.5 * np.linalg.norm(np.cross(tri[1] - tri[0], tri[2] - tri[0])) < 1e-6:
            return
        pts = rng.uniform(-2, 2, size=(8, 3))
        d_batch, _ = closest_faces(pts, tri[None, 0], tri[None, 1], tri[None, 2])
        for p, d in zip(pts, d_batch):
            assert point_to_triangle_distance(p, tri) == pytest.approx(d, abs=1e-12)

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


def _search_inputs(src: MeshReal, ref: MeshReal):
    """Query points and triangles as normal consistency builds them: the
    centroids of src's valid faces, and ref's valid faces."""
    _, centroids, valid = _face_geometry(src)
    _, _, valid_ref = _face_geometry(ref)
    a, b, c = (corner[valid_ref] for corner in _triangle_corners(ref))
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
            assert point_to_triangle_distance(p, TRI) == pytest.approx(d, abs=1e-12)


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
