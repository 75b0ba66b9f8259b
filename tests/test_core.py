from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from meshtok.core import (
    Face,
    InvalidMeshError,
    QuantizedMesh,
    QuantizedVertex,
    connected_components,
    dequantize_coord,
    dequantize_mesh,
    face_array,
    quantize_coord,
    validate_manifold,
    vertex_array,
)
from meshtok.metrics import _face_geometry, _triangle_corners
from meshtok.sequencer import encode
from helpers import union_find_components, winding_flipped


def _codes(report):
    return Counter(v.code for v in report.violations)


class TestValidateManifold:
    def test_tetrahedron_ok(self, tetra):
        report = validate_manifold(tetra)
        assert report.ok and not report.violations

    def test_flipped_face_duplicates_directed_edges(self, tetra):
        flipped = QuantizedMesh(
            list(tetra.vertices),
            tetra.faces[:-1] + [Face(tetra.faces[-1].a, tetra.faces[-1].c, tetra.faces[-1].b)],
            tetra.bits,
        )
        report = validate_manifold(flipped)
        assert not report.ok
        # Oracle: count directed edges appearing more than once by enumeration.
        counts = Counter()
        for f in flipped.faces:
            for e in ((f.a, f.b), (f.b, f.c), (f.c, f.a)):
                counts[e] += 1
        expected = sum(n - 1 for n in counts.values() if n > 1)
        assert _codes(report)["duplicate_directed_edge"] == expected
        assert expected == 3  # a tetrahedron face borders all three others

    def test_same_winding_shared_edge_rejected(self):
        # Two faces both traverse the directed edge 0->1.
        verts = [QuantizedVertex(i, i, i) for i in range(4)]
        mesh = QuantizedMesh(verts, [Face(0, 1, 2), Face(0, 1, 3)], 7)
        report = validate_manifold(mesh)
        assert not report.ok
        assert _codes(report)["duplicate_directed_edge"] == 1

    def test_degenerate_face_rejected(self):
        verts = [QuantizedVertex(i, 0, 0) for i in range(3)]
        mesh = QuantizedMesh(verts, [Face(0, 1, 1)], 7)
        report = validate_manifold(mesh)
        assert not report.ok
        assert _codes(report)["degenerate_face"] == 1

    def test_out_of_range_index_rejected(self):
        mesh = QuantizedMesh([QuantizedVertex(0, 0, 0)], [Face(0, 1, 2)], 7)
        assert not validate_manifold(mesh).ok

    def test_empty_mesh_rejected(self):
        assert not validate_manifold(QuantizedMesh([], [], 7)).ok

    def test_bowtie_vertex_is_allowed(self):
        verts = [QuantizedVertex(i, 2 * i % 7, 3 * i % 11) for i in range(5)]
        mesh = QuantizedMesh(verts, [Face(0, 1, 2), Face(0, 3, 4)], 7)
        assert validate_manifold(mesh).ok

    def test_global_winding_flip_preserves_validity(self, corpus7):
        for name, mesh in corpus7:
            assert validate_manifold(winding_flipped(mesh)).ok, name


class TestRecordArrays:
    # Flattened, a record of four entries and one of two read as two triples.
    def test_vertex_of_four_and_one_of_two_rejected(self):
        mesh = QuantizedMesh([(1, 2, 3, 4), (5, 6), (7, 8, 9)], [Face(0, 1, 2)], 7)
        with pytest.raises(ValueError, match="vertex 0 holds 4 entries, not three"):
            vertex_array(mesh)

    def test_face_of_four_and_one_of_two_rejected(self):
        mesh = QuantizedMesh([QuantizedVertex(i, 0, 0) for i in range(6)], [(0, 1, 2, 3), (4, 5)], 7)
        for check in (face_array, validate_manifold, encode):
            with pytest.raises(ValueError, match="face 0 holds 4 entries, not three"):
                check(mesh)


class TestConnectedComponents:
    def test_single_tetrahedron(self, tetra):
        comps = connected_components(tetra)
        assert len(comps) == 1 and comps[0] == {0, 1, 2, 3}

    def test_two_disjoint_tetrahedra(self, tetra):
        shift = len(tetra.vertices)
        verts = list(tetra.vertices) + [
            QuantizedVertex(v.x + 5, v.y + 5, v.z + 5) for v in tetra.vertices
        ]
        faces = list(tetra.faces) + [
            Face(f.a + shift, f.b + shift, f.c + shift) for f in tetra.faces
        ]
        comps = connected_components(QuantizedMesh(verts, faces, 7))
        assert [len(c) for c in comps] == [4, 4]

    def test_vertex_touching_triangles_are_two_components(self):
        verts = [QuantizedVertex(i, i, i) for i in range(5)]
        mesh = QuantizedMesh(verts, [Face(0, 1, 2), Face(0, 3, 4)], 7)
        assert len(connected_components(mesh)) == 2

    def test_matches_union_find_oracle(self, corpus7):
        for name, mesh in corpus7:
            got = {frozenset(c) for c in connected_components(mesh)}
            assert got == set(union_find_components(mesh)), name

    def test_invalid_mesh_raises(self):
        verts = [QuantizedVertex(i, i, i) for i in range(4)]
        mesh = QuantizedMesh(verts, [Face(0, 1, 2), Face(0, 1, 3)], 7)
        with pytest.raises(InvalidMeshError) as err:
            connected_components(mesh)
        assert err.value.report == validate_manifold(mesh)
        assert [v.code for v in err.value.report.violations] == ["duplicate_directed_edge"]

    def test_partition_covers_all_faces(self, corpus7):
        for name, mesh in corpus7:
            comps = connected_components(mesh)
            union = set().union(*comps)
            assert union == set(range(len(mesh.faces))), name
            assert sum(len(c) for c in comps) == len(mesh.faces), name


class TestFaceNormal:
    """Unit normal of (b - a) x (c - a) in dequantized coordinates, as the
    metrics compute it; None for a zero-area face."""

    def _normal(self, coords, face=(0, 1, 2)):
        mesh = QuantizedMesh([QuantizedVertex(*c) for c in coords], [Face(*face)], 7)
        normals, _, valid = _face_geometry(*_triangle_corners(dequantize_mesh(mesh)))
        return normals[0] if valid[0] else None

    def test_xy_triangle_points_up(self):
        assert np.allclose(self._normal([(0, 0, 0), (1, 0, 0), (0, 1, 0)]), [0, 0, 1])

    def test_swapped_vertices_point_down(self):
        assert np.allclose(self._normal([(0, 0, 0), (0, 1, 0), (1, 0, 0)]), [0, 0, -1])

    def test_collinear_is_none(self):
        assert self._normal([(0, 0, 0), (1, 0, 0), (2, 0, 0)]) is None

    @given(
        coords=st.lists(
            st.tuples(
                st.integers(0, 127), st.integers(0, 127), st.integers(0, 127)
            ),
            min_size=3,
            max_size=3,
            unique=True,
        )
    )
    def test_orientation_antisymmetry(self, coords):
        n = self._normal(coords)
        flipped = self._normal(coords, (0, 2, 1))
        if n is None:
            assert flipped is None
        else:
            assert np.allclose(n, -flipped, atol=1e-12)


class TestQuantizationScalars:
    @pytest.mark.parametrize(
        "x,cell", [(-0.5, 0), (0.0, 64), (0.5, 127), (-0.25, 32), (0.499999, 127)]
    )
    def test_known_cells_at_7_bits(self, x, cell):
        assert quantize_coord(x, 7) == cell

    @given(st.floats(-0.5, 0.5, exclude_max=True), st.sampled_from([7, 9]))
    def test_roundtrip_error_bound(self, x, bits):
        err = abs(dequantize_coord(quantize_coord(x, bits), bits) - x)
        assert err <= 2.0 ** -(bits + 1)

    @given(st.integers(0, 511), st.sampled_from([7, 9]))
    def test_quantize_is_projection(self, q, bits):
        q = q % (1 << bits)
        assert quantize_coord(dequantize_coord(q, bits), bits) == q
