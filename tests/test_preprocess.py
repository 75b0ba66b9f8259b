from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from meshtok import preprocess
from meshtok.core import MeshReal, QuantizedMesh, dequantize_mesh, dequantized_vertex_array, face_array
from meshtok.preprocess import (
    DegenerateExtentError,
    OutOfRangeError,
    PreprocessConfig,
    augment,
    filter_mesh,
    normalize,
    quantize,
    run_preprocess,
)
from meshtok.procgen import (
    big_torus,
    cube,
    disk_fan,
    grid_patch,
    open_cylinder,
    tetrahedron,
    torus,
    two_component_scene,
)
from helpers import (
    reference_cluster_count,
    reference_fill_triangles_2d,
    reference_quantize,
    winding_flipped,
)

TRI = np.array([[0, 1, 2]])


class TestNormalize:
    def test_unit_cube_centers_exactly(self):
        mesh = MeshReal(np.array([[0, 0, 0], [1, 1, 1], [1, 0, 0], [0, 1, 1]], float), TRI)
        out = normalize(mesh)
        assert np.allclose(out.vertices.min(axis=0), -0.5)
        assert np.allclose(out.vertices.max(axis=0), 0.5)

    def test_aspect_ratio_preserved(self):
        mesh = MeshReal(np.array([[0, 0, 0], [2, 1, 1], [2, 0, 1]], float), TRI)
        out = normalize(mesh)
        lo, hi = out.vertices.min(axis=0), out.vertices.max(axis=0)
        assert np.allclose(lo, [-0.5, -0.25, -0.25])
        assert np.allclose(hi, [0.5, 0.25, 0.25])

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        mesh = MeshReal(rng.uniform(-3, 9, size=(40, 3)), TRI)
        once = normalize(mesh)
        twice = normalize(once)
        assert np.abs(twice.vertices - once.vertices).max() <= 1e-12

    def test_largest_floats_normalize_like_unit_ones(self):
        # hi - lo and lo + hi would overflow at full scale; pytest turns the
        # overflow warning into an error.
        unit = MeshReal(np.array([[-1, -1, -1], [1, -1, 1], [-1, 1, 0.5]], float), TRI)
        huge = MeshReal(unit.vertices * 2.0**1023, TRI)
        assert normalize(huge).vertices.tobytes() == normalize(unit).vertices.tobytes()

    def test_degenerate_extent_raises(self):
        mesh = MeshReal(np.ones((5, 3)), TRI)
        with pytest.raises(DegenerateExtentError):
            normalize(mesh)
        with pytest.raises(DegenerateExtentError):
            normalize(MeshReal(np.zeros((0, 3)), np.zeros((0, 3), int)))


class TestQuantize:
    def test_boundary_cells(self):
        mesh = MeshReal(
            np.array([[-0.5, 0.0, 0.5], [0.0, -0.5, 0.0], [0.25, 0.25, -0.25]]), TRI
        )
        out = quantize(mesh, 7)
        assert tuple(out.vertices[0]) == (0, 64, 127)

    def test_close_vertices_merge(self):
        mesh = MeshReal(
            np.array([[0.1, 0.1, 0.1], [0.1 + 1e-6, 0.1, 0.1], [0.3, 0.3, 0.3], [0.1, 0.4, 0.1]]),
            np.array([[0, 2, 3], [1, 3, 2]]),
        )
        out = quantize(mesh, 7)
        assert len(out.vertices) == 3

    def test_sliver_face_dropped(self):
        mesh = MeshReal(
            np.array([[0.0, 0.0, 0.0], [1e-5, 1e-5, 0.0], [0.3, 0.3, 0.3]]), TRI
        )
        out = quantize(mesh, 7)
        assert out.faces == []

    def test_duplicate_faces_dropped_either_winding(self):
        verts = np.array([[0.0, 0.0, 0.0], [0.3, 0.0, 0.0], [0.0, 0.3, 0.0]])
        mesh = MeshReal(verts, np.array([[0, 1, 2], [0, 1, 2], [0, 2, 1]]))
        out = quantize(mesh, 7)
        assert len(out.faces) == 1

    def test_out_of_range_raises(self):
        for bad in (0.7, np.nan, np.inf, -np.inf):
            mesh = MeshReal(np.array([[0.0, 0.0, bad], [0, 0, 0], [0.1, 0, 0]]), TRI)
            with pytest.raises(OutOfRangeError):
                quantize(mesh, 7)

    def test_quantize_is_idempotent_through_dequantize(self, corpus7):
        for name, mesh in corpus7:
            again = quantize(dequantize_mesh(mesh), mesh.bits)
            assert again == mesh, name

    @given(
        verts=st.lists(
            st.tuples(
                st.floats(-0.5, 0.5, exclude_max=True),
                st.floats(-0.5, 0.5, exclude_max=True),
                st.floats(-0.5, 0.5, exclude_max=True),
            ),
            min_size=3,
            max_size=24,
        ),
        seed=st.integers(0, 2**16),
        bits=st.sampled_from([4, 7, 9]),
    )
    @settings(max_examples=60, deadline=None)
    def test_output_invariants(self, verts, seed, bits):
        rng = np.random.default_rng(seed)
        faces = rng.integers(0, len(verts), size=(16, 3))
        out = quantize(MeshReal(np.array(verts), faces), bits)
        assert len(set(out.vertices)) == len(out.vertices)
        keys = [frozenset(f) for f in out.faces]
        assert len(set(keys)) == len(keys)
        for f in out.faces:
            assert len({f.a, f.b, f.c}) == 3
            assert max(f) < len(out.vertices)
        for v in out.vertices:
            assert all(0 <= q < (1 << bits) for q in v)

    @given(
        n_points=st.integers(1, 30),
        n_faces=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
        bits=st.sampled_from([1, 3, 7, 9, 16]),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_reference_loop(self, n_points, n_faces, seed, bits):
        """Unwelded meshes (every face lists its own corners) with repeated
        and opposite-winding faces and corners that share grid cells."""
        rng = np.random.default_rng(seed)
        points = rng.uniform(-0.5, 0.5, size=(n_points, 3))
        points[rng.random(n_points) < 0.3] = points[0]  # coincident corners
        faces = rng.integers(0, n_points, size=(n_faces, 3))
        repeats = faces[rng.random(n_faces) < 0.3]
        flipped = faces[rng.random(n_faces) < 0.3][:, ::-1]
        faces = np.concatenate([faces, repeats, flipped])
        faces = faces[rng.permutation(len(faces))]
        mesh = MeshReal(points[faces.reshape(-1)], np.arange(faces.size).reshape(-1, 3))
        out = quantize(mesh, bits)
        assert out == reference_quantize(mesh, bits)
        assert all(type(i) is int for f in out.faces for i in f)
        assert all(type(q) is int for v in out.vertices for q in v)


def _soup(rng: np.random.Generator, kind: int, m: int) -> np.ndarray:
    """(m, 3, 2) triangles: partly off the grid, 1e-3-scale, 1e-7 slivers,
    or with vertices on the half-pixel lattice of some grid."""
    if kind == 0:
        return rng.uniform(-0.7, 0.7, size=(m, 3, 2))
    if kind == 1:
        return rng.uniform(-0.5, 0.5, size=(m, 1, 2)) + rng.normal(scale=1e-3, size=(m, 3, 2))
    if kind == 2:
        start = rng.uniform(-0.5, 0.5, size=(m, 1, 2))
        along = rng.uniform(-0.5, 0.5, size=(m, 1, 2)) * rng.uniform(0, 1, size=(m, 3, 1))
        return start + along + rng.normal(scale=1e-7, size=(m, 3, 2))
    grid = int(rng.choice([7, 64, 256]))
    return rng.integers(0, 2 * grid + 1, size=(m, 3, 2)) / (2 * grid) - 0.5


def _projections(mesh: QuantizedMesh) -> list[np.ndarray]:
    """The (m, 3, 2) triangles that ``filter_mesh`` rasterizes per axis."""
    tri3d = dequantized_vertex_array(mesh)[face_array(mesh)]
    return [tri3d[:, :, [i for i in range(3) if i != axis]] for axis in range(3)]


def _signed_areas(tri: np.ndarray) -> np.ndarray:
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    return (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])


class TestFillTriangles:
    """The batched rasterizer against the per-triangle loop it replaced."""

    @pytest.mark.parametrize("seed", range(48))
    def test_masks_equal_reference(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        tri = _soup(rng, seed % 4, int(rng.integers(1, 48)))
        for grid in (1, 7, 64, 256):
            budget = int(rng.choice([1, rng.integers(1, 5001), 1 << 16]))
            monkeypatch.setattr(preprocess, "_PIXEL_BUDGET", budget)
            got = preprocess._fill_triangles_2d(tri, grid)
            assert np.array_equal(got, reference_fill_triangles_2d(tri, grid)), (grid, budget)

    @pytest.mark.parametrize(
        "tri",
        [
            np.zeros((0, 3, 2)),
            np.zeros((5, 3, 2)),  # every triangle a point
            np.array([[[-0.4, -0.4], [0.0, 0.0], [0.4, 0.4]]] * 3),  # collinear
            np.full((2, 3, 2), -0.9) + [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]],  # off the grid
        ],
        ids=["none", "points", "collinear", "off_grid"],
    )
    def test_nothing_to_draw(self, tri):
        for grid in (1, 64):
            got = preprocess._fill_triangles_2d(tri, grid)
            assert got.shape == (grid, grid) and not got.any()
            assert np.array_equal(got, reference_fill_triangles_2d(tri, grid))

    def test_mesh_projections_equal_reference(self, corpus7):
        # Closed and open corpus meshes in both windings, and open meshes
        # off the corpus, on every axis: clockwise triangles drawn only where
        # the counter-clockwise ones left a pixel unset give the same mask.
        meshes = [mesh for _, mesh in corpus7] + [
            quantize(normalize(mesh), 7) for mesh in (grid_patch(9, 7), disk_fan(20), open_cylinder(24, 6))
        ]
        for mesh in meshes:
            for winding in (mesh, winding_flipped(mesh)):
                for tri in _projections(winding):
                    for grid in (7, 256):
                        got = preprocess._fill_triangles_2d(tri, grid)
                        assert np.array_equal(got, reference_fill_triangles_2d(tri, grid))

    @pytest.mark.parametrize("winding", [1.0, -1.0], ids=["ccw", "cw"])
    @pytest.mark.parametrize("seed", range(8))
    def test_one_winding_soups_equal_reference(self, seed, winding):
        rng = np.random.default_rng(seed)
        tri = _soup(rng, seed % 4, int(rng.integers(0, 48)))
        wrong = winding * _signed_areas(tri) < 0
        tri[wrong] = tri[wrong][:, ::-1]
        for grid in (1, 7, 64, 256):
            got = preprocess._fill_triangles_2d(tri, grid)
            assert np.array_equal(got, reference_fill_triangles_2d(tri, grid))

    def test_clockwise_round_skips_covered_triangles(self, monkeypatch):
        # On a closed torus the counter-clockwise triangles leave few bboxes
        # with an unset pixel: the second round draws under half of the
        # clockwise triangles, and the mask is the reference's.
        drawn = []
        draw = preprocess._draw_triangles

        def counting(mask, idx, *args):
            drawn.append(len(idx))
            draw(mask, idx, *args)

        monkeypatch.setattr(preprocess, "_draw_triangles", counting)
        for tri in _projections(quantize(normalize(big_torus()), 7)):
            drawn.clear()
            got = preprocess._fill_triangles_2d(tri, 256)
            assert np.array_equal(got, reference_fill_triangles_2d(tri, 256))
            area = _signed_areas(tri)
            assert drawn[0] == np.count_nonzero(area > 0)
            assert drawn[1] < np.count_nonzero(area < 0) / 2

    def test_filter_decisions_and_masks_equal_reference(self, corpus7, corpus9, monkeypatch):
        cases = [("cube", quantize(normalize(cube()), 7))]
        for corpus in (corpus7, corpus9):
            for k, (name, mesh) in enumerate(corpus):
                moved = augment(dequantize_mesh(mesh), seed=k)
                cases += [
                    (name, mesh),
                    (name + "/flipped", winding_flipped(mesh)),
                    (name + "/augmented", quantize(normalize(moved), mesh.bits)),
                ]
        got = [filter_mesh(mesh) for _, mesh in cases]
        batched, counted = preprocess._fill_triangles_2d, preprocess._cluster_count

        def reference_checking_batched(tri2d, grid):
            mask = reference_fill_triangles_2d(tri2d, grid)
            assert np.array_equal(batched(tri2d, grid), mask)
            assert counted(mask) == reference_cluster_count(mask)  # every axis, every mask
            return mask

        monkeypatch.setattr(preprocess, "_fill_triangles_2d", reference_checking_batched)
        monkeypatch.setattr(preprocess, "_cluster_count", reference_cluster_count)
        for (name, mesh), decision in zip(cases, got):
            assert decision == filter_mesh(mesh), name


class TestClusterCount:
    """The run-based union-find against ``scipy.ndimage.label``."""

    @settings(max_examples=300, deadline=None)
    @given(
        h=st.integers(1, 40),
        w=st.integers(1, 40),
        kind=st.sampled_from(["random", "empty", "full", "diagonal"]),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(h=1, w=40, kind="random", density=0.5, seed=1)
    @example(h=40, w=1, kind="random", density=0.5, seed=1)
    def test_counts_equal_reference(self, h, w, kind, density, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((h, w)) < density
        if kind == "empty":
            mask[:] = False
        elif kind == "full":
            mask[:] = True
        elif kind == "diagonal":  # one checkerboard colour: pixels touch only at corners
            mask &= np.add.outer(np.arange(h), np.arange(w)) % 2 == 0
        assert preprocess._cluster_count(mask) == reference_cluster_count(mask)

    @pytest.mark.parametrize(
        "rows, clusters",
        [
            (["#"], 1),
            (["."], 0),
            (["#.#.##"], 3),
            (["#", ".", "#", "#"], 2),
            (["#.", ".#"], 1),  # diagonal neighbours join
            ([".#", "#."], 1),
            (["#..", "..#"], 2),  # a one-pixel gap does not
            (["#.#", ".#.", "#.#"], 1),
            (["###", "..#", "###", "#..", "###"], 1),  # serpentine
            (["#.#.#", ".....", "#.#.#"], 6),
        ],
        ids=["pixel", "blank", "row", "column", "diagonal", "antidiagonal", "gap", "cross",
             "serpentine", "spaced"],
    )
    def test_small_masks(self, rows, clusters):
        mask = np.array([[c == "#" for c in row] for row in rows])
        assert preprocess._cluster_count(mask) == clusters == reference_cluster_count(mask)

    def test_noise_and_comb_at_full_grid(self):
        noise = np.random.default_rng(5).random((256, 256)) < 0.5
        comb = np.zeros((256, 256), dtype=bool)
        comb[::2] = True
        comb[:, 0] = True  # one spine joins 128 rows
        for mask in (noise, comb, comb.T, ~comb):
            assert preprocess._cluster_count(mask) == reference_cluster_count(mask)


class TestFilter:
    def test_tetrahedron_accepted(self):
        decision = filter_mesh(quantize(tetrahedron(), 7))
        assert decision.accept and decision.reasons == []

    def test_face_budget(self):
        mesh = quantize(torus(60, 50), 7)
        assert len(mesh.faces) == 6000
        decision = filter_mesh(mesh, PreprocessConfig(max_faces=5500))
        assert not decision.accept
        assert any(r.startswith("face_count") for r in decision.reasons)

    def test_nonmanifold_rejected(self):
        from meshtok.core import Face, QuantizedVertex

        mesh = QuantizedMesh(
            [QuantizedVertex(i * 10, i * 7 % 30, i * 3 % 30) for i in range(4)],
            [Face(0, 1, 2), Face(0, 1, 3)],
            7,
        )
        decision = filter_mesh(mesh)
        assert not decision.accept and "manifold" in decision.reasons

    def test_two_far_bodies_reject_on_clusters(self):
        decision = filter_mesh(quantize(two_component_scene(), 7))
        assert not decision.accept
        assert any(r.startswith("projection_clusters") for r in decision.reasons)

    def test_flat_plate_rejects_on_projection_area(self):
        decision = filter_mesh(quantize(grid_patch(4, 4), 7))
        assert not decision.accept
        assert any(r.startswith("projection_area") for r in decision.reasons)

    def test_run_preprocess_pipeline(self):
        mesh = MeshReal(tetrahedron().vertices * 40.0 + 3.0, tetrahedron().faces)
        quantized, decision = run_preprocess(mesh)
        assert decision.accept
        assert len(quantized.faces) == 4


class TestAugment:
    def test_deterministic(self):
        mesh = torus(8, 6)
        a = augment(mesh, PreprocessConfig(), seed=123)
        b = augment(mesh, PreprocessConfig(), seed=123)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.faces, b.faces)

    def test_identity_config_is_identity(self):
        cfg = PreprocessConfig(
            scale_low=1.0, scale_high=1.0, flip_prob=0.0, z_rot_max_degrees=0.0
        )
        mesh = tetrahedron()
        out = augment(mesh, cfg, seed=5)
        assert np.array_equal(out.vertices, mesh.vertices)

    def test_scale_matches_replayed_draw(self):
        cfg = PreprocessConfig(flip_prob=0.0, z_rot_max_degrees=0.0)
        cube = MeshReal(
            np.array(
                [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float
            ),
            TRI,
        )
        seed = 99
        expected = np.random.default_rng(seed).uniform(0.75, 0.95, size=3)
        out = augment(cube, cfg, seed=seed)
        extent = out.vertices.max(axis=0) - out.vertices.min(axis=0)
        assert np.allclose(extent, expected, atol=1e-12)

    def test_fixed_scale_extents(self):
        cfg = PreprocessConfig(
            scale_low=0.8, scale_high=0.8, flip_prob=0.0, z_rot_max_degrees=0.0
        )
        cube = MeshReal(np.array([[0, 0, 0], [1, 1, 1], [1, 0, 1]], float), TRI)
        out = augment(cube, cfg, seed=0)
        extent = out.vertices.max(axis=0) - out.vertices.min(axis=0)
        assert np.allclose(extent, [0.8, 0.8, 0.8])

    def test_flip_is_an_exact_signed_permutation(self):
        cfg = PreprocessConfig(
            scale_low=1.0, scale_high=1.0, flip_prob=1.0, z_rot_max_degrees=0.0
        )
        mesh = torus(8, 6)
        out = augment(mesh, cfg, seed=21)
        assert np.allclose(
            np.sort(np.abs(out.vertices), axis=1),
            np.sort(np.abs(mesh.vertices), axis=1),
            atol=1e-15,
        )
        assert not np.array_equal(out.vertices, mesh.vertices)

    def test_z_rotation_preserves_height(self):
        cfg = PreprocessConfig(scale_low=1.0, scale_high=1.0, flip_prob=0.0)
        mesh = torus(8, 6)
        out = augment(mesh, cfg, seed=4)
        assert np.allclose(out.vertices[:, 2], mesh.vertices[:, 2])
        assert not np.allclose(out.vertices[:, 0], mesh.vertices[:, 0])


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"bits": 0},
            {"bits": 17},
            {"bits": True},
            {"bits": False},
            {"scale_low": 0.0},
            {"scale_low": 0.9, "scale_high": 0.8},
            {"scale_high": 1.2},
            {"proj_grid": 0},
            {"proj_grid": -3},
            {"proj_grid": 2.5},
            {"proj_grid": True},
            {"max_faces": 0},
            {"max_faces": -1},
            {"max_faces": 2.5},
            {"max_faces": True},
            {"proj_min_area": float("nan")},
            {"proj_min_area": float("inf")},
            {"proj_min_area": -0.1},
            {"proj_min_area": 1.5},
            {"flip_prob": float("nan")},
            {"flip_prob": -0.1},
            {"flip_prob": 1.5},
            {"z_rot_max_degrees": float("inf")},
            {"z_rot_max_degrees": float("-inf")},
            {"z_rot_max_degrees": float("nan")},
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PreprocessConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"proj_grid": 1, "proj_min_area": 0.0, "flip_prob": 0.0, "max_faces": 1},
            {"proj_min_area": 1.0, "flip_prob": 1.0, "z_rot_max_degrees": -720.0},
        ],
    )
    def test_boundary_configs_accepted(self, kwargs):
        PreprocessConfig(**kwargs)
