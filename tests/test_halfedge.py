from __future__ import annotations

from hypothesis import given, settings, strategies as st

from helpers import reference_build
from meshtok.core import Face, QuantizedMesh, QuantizedVertex
from meshtok import halfedge


def _mesh(faces, n_verts):
    verts = [QuantizedVertex(i, (i * 3) % 16, (i * 5) % 16) for i in range(n_verts)]
    return QuantizedMesh(verts, [Face(*f) for f in faces], 7)


def _dest(conn, h):
    return conn.origin[h - h % 3 + (h + 1) % 3]


def _opposite(conn, h):
    return conn.origin[h - h % 3 + (h + 2) % 3]


def _edges(conn):
    """Directed edge (origin, dest) -> handle."""
    return {(conn.origin[h], _dest(conn, h)): h for h in range(len(conn.origin))}


def test_single_triangle_half_edges_and_boundaries():
    conn = halfedge.build(_mesh([(0, 1, 2)], 3))
    assert len(conn.origin) == 3
    assert [(conn.origin[h], _dest(conn, h)) for h in range(3)] == [(0, 1), (1, 2), (2, 0)]
    assert conn.twin == [-1, -1, -1]


def test_twin_present_and_absent():
    # Faces (a,b,c) and (b,a,d) share the edge a-b and nothing else.
    conn = halfedge.build(_mesh([(0, 1, 2), (1, 0, 3)], 4))
    assert conn.twin == [3, -1, -1, 0, -1, -1]


def test_strip_twins_are_mutual():
    # Faces (a,b,c) and (b,a,d): a->b and b->a both exist and twin each other.
    conn = halfedge.build(_mesh([(0, 1, 2), (1, 0, 3)], 4))
    edges = _edges(conn)
    h_ab, h_ba = edges[0, 1], edges[1, 0]
    assert conn.twin[h_ab] == h_ba and conn.twin[h_ba] == h_ab
    assert (conn.origin[h_ba], _dest(conn, h_ba)) == (_dest(conn, h_ab), conn.origin[h_ab])


def test_opposite_vertex_examples():
    conn = halfedge.build(_mesh([(0, 1, 2), (1, 0, 3)], 4))
    edges = _edges(conn)
    assert _opposite(conn, edges[0, 1]) == 2
    assert _opposite(conn, edges[1, 2]) == 0
    assert _opposite(conn, edges[1, 0]) == 3
    # The face beyond a->b, reached by its twin, lies opposite d.
    assert _opposite(conn, conn.twin[edges[0, 1]]) == 3


def test_tetrahedron_is_closed(tetra):
    conn = halfedge.build(tetra)
    assert len(conn.origin) == len(conn.twin) == 12
    for h in range(12):
        t = conn.twin[h]
        assert t >= 0 and t // 3 != h // 3 and conn.twin[t] == h
        assert (conn.origin[t], _dest(conn, t)) == (_dest(conn, h), conn.origin[h])


def test_duplicate_directed_edge_reported():
    report = halfedge.build(_mesh([(0, 1, 2), (0, 1, 3)], 4)).report
    assert not report.ok
    assert [(v.code, v.message) for v in report.violations] == [
        ("duplicate_directed_edge", "directed edge (0,1) appears in faces 0 and 1")
    ]


def test_opposite_vertex_is_a_face_bijection(corpus7):
    for name, mesh in corpus7:
        conn = halfedge.build(mesh)
        for fi, f in enumerate(mesh.faces):
            opposites = {_opposite(conn, h) for h in range(3 * fi, 3 * fi + 3)}
            assert opposites == {f.a, f.b, f.c}, name


def test_twin_agrees_with_face_list(corpus7):
    for name, mesh in corpus7:
        conn = halfedge.build(mesh)
        assert conn.report.ok, name
        expected = set()
        for f in mesh.faces:
            expected.update(((f.a, f.b), (f.b, f.c), (f.c, f.a)))
        assert set(_edges(conn)) == expected, name
        for h, t in enumerate(conn.twin):
            o, d = conn.origin[h], _dest(conn, h)
            if (d, o) in expected:
                assert (conn.origin[t], _dest(conn, t)) == (d, o) and conn.twin[t] == h, name
            else:
                assert t == -1, name


def _same_as_reference(mesh):
    conn, ref = halfedge.build(mesh), reference_build(mesh)
    assert (conn.origin, conn.twin, conn.report) == (ref.origin, ref.twin, ref.report)


@st.composite
def _index_soups(draw):
    """Up to 7 vertices and 12 faces with indices in [-1, n]: empty meshes,
    degenerate faces, repeated directed edges and missing vertices."""
    n = draw(st.integers(0, 7))
    index = st.integers(-1, n)
    faces = draw(st.lists(st.builds(Face, index, index, index), max_size=12))
    return _mesh(faces, n)


@settings(max_examples=200, deadline=None)
@given(_index_soups())
def test_build_matches_reference_loop(mesh):
    _same_as_reference(mesh)


def test_build_matches_reference_loop_on_fixtures(corpus7, corpus9):
    for _, mesh in corpus7 + corpus9:
        _same_as_reference(mesh)


def test_index_beyond_int64_is_out_of_range():
    mesh = _mesh([(0, 1, 2**70), (0, 1, 2), (-(2**70), 2, 1), (1, 0, 2)], 3)
    conn = halfedge.build(mesh)
    assert [(v.code, v.message) for v in conn.report.violations] == [
        ("index_out_of_range", "face 0 references a missing vertex"),
        ("index_out_of_range", "face 2 references a missing vertex"),
    ]
    assert conn.twin == [-1] * 3 + [9, 11, 10] + [-1] * 3 + [3, 5, 4]
    _same_as_reference(mesh)
