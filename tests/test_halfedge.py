from __future__ import annotations

from meshtok.core import Face, QuantizedMesh, QuantizedVertex
from meshtok import halfedge


def _mesh(faces, n_verts):
    verts = [QuantizedVertex(i, (i * 3) % 16, (i * 5) % 16) for i in range(n_verts)]
    return QuantizedMesh(verts, [Face(*f) for f in faces], 7)


def test_single_triangle_half_edges_and_boundaries():
    conn = halfedge.build(_mesh([(0, 1, 2)], 3))
    assert conn.n_faces == 1
    assert list(zip(conn.origin, conn.dest)) == [(0, 1), (1, 2), (2, 0)]
    for h in range(3):
        assert conn.twin_of(h) is None


def test_lookup_present_and_absent():
    conn = halfedge.build(_mesh([(0, 1, 2)], 3))
    assert conn.lookup(0, 1) == 0
    assert conn.lookup(1, 2) == 1
    assert conn.lookup(1, 0) is None  # boundary from the far side
    assert conn.lookup(2, 0) == 2


def test_strip_twins_are_mutual():
    # Faces (a,b,c) and (b,a,d): a->b and b->a both exist and twin each other.
    conn = halfedge.build(_mesh([(0, 1, 2), (1, 0, 3)], 4))
    h_ab = conn.lookup(0, 1)
    h_ba = conn.lookup(1, 0)
    assert h_ab is not None and h_ba is not None
    assert conn.twin_of(h_ab) == h_ba
    assert conn.twin_of(h_ba) == h_ab


def test_opposite_vertex_examples():
    conn = halfedge.build(_mesh([(0, 1, 2), (1, 0, 3)], 4))
    assert conn.opposite_vertex(conn.lookup(0, 1)) == 2
    assert conn.opposite_vertex(conn.lookup(1, 2)) == 0
    assert conn.opposite_vertex(conn.lookup(1, 0)) == 3


def test_tetrahedron_is_closed(tetra):
    conn = halfedge.build(tetra)
    assert len(conn.origin) == 12
    for h in range(12):
        twin = conn.twin_of(h)
        assert twin is not None and conn.twin_of(twin) == h


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
            opposites = {conn.opposite_vertex(h) for h in range(3 * fi, 3 * fi + 3)}
            assert opposites == {f.a, f.b, f.c}, name


def test_lookup_agrees_with_face_list(corpus7):
    for name, mesh in corpus7:
        conn = halfedge.build(mesh)
        expected = set()
        for f in mesh.faces:
            expected.update(((f.a, f.b), (f.b, f.c), (f.c, f.a)))
        for o, d in expected:
            assert conn.lookup(o, d) is not None, name
        missing = [(d, o) for o, d in expected if (d, o) not in expected]
        for o, d in missing:
            assert conn.lookup(o, d) is None, name
