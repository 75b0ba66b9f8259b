from __future__ import annotations

import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from meshtok.core import (
    Face,
    QuantizedMesh,
    QuantizedVertex,
    connected_components,
    validate_manifold,
)
from meshtok.preprocess import quantize
from meshtok.procgen import torus
from meshtok.sequencer import (
    ANSWER_EOS,
    ANSWER_STOP,
    EDGE,
    EOS,
    SOS,
    SOS2,
    STOP,
    VERTEX,
    InvalidMeshError,
    MalformedSequenceError,
    PredictorAnswer,
    StepRecord,
    TokenSequence,
    answer_vertex,
    check_well_formed,
    encode,
    sequence_stats,
)
from helpers import reference_records, reference_violations


def _component_spans(seq):
    """Split traversal records per component: list of (n_faces, n_stops, n_edge)."""
    spans = []
    faces = stops = edges = 0
    started = False
    for rec in seq.records:
        if rec.input_kind == SOS:
            if started:
                spans.append((faces, stops, edges))
            faces = stops = edges = 0
            started = rec.output_kind == VERTEX
        elif rec.input_kind == EDGE:
            edges += 1
            if rec.output_kind == VERTEX:
                faces += 1
            else:
                stops += 1
    return spans


class TestSingleTriangleTrace:
    """Frozen hand trace: start edge (v0, v1), then pops (v2,v1), (v0,v2), (v1,v0)."""

    def test_exact_records(self, triangle):
        v0, v1, v2 = triangle.vertices
        seq = encode(triangle)
        assert seq.records == [
            StepRecord(SOS, None, VERTEX, v0),
            StepRecord(SOS2, None, VERTEX, v1),
            StepRecord(EDGE, (v0, v1), VERTEX, v2),
            StepRecord(EDGE, (v2, v1), STOP, None),
            StepRecord(EDGE, (v0, v2), STOP, None),
            StepRecord(EDGE, (v1, v0), STOP, None),
            StepRecord(SOS, None, EOS, None),
        ]

    def test_sequence_holds_the_outputs(self, triangle):
        v0, v1, v2 = triangle.vertices
        seq = encode(triangle)
        assert seq.outputs == [
            answer_vertex(v0),
            answer_vertex(v1),
            answer_vertex(v2),
            ANSWER_STOP,
            ANSWER_STOP,
            ANSWER_STOP,
            ANSWER_EOS,
        ]
        assert "records" not in vars(seq)  # derived on first access only

    def test_first_expansion_then_boundary_stop(self, triangle):
        # The first popped edge yields the opposite vertex; the next pop is the
        # newly pushed (v2, v1), a boundary, answered STOP.
        v0, v1, v2 = triangle.vertices
        seq = encode(triangle)
        assert seq.records[2] == StepRecord(EDGE, (v0, v1), VERTEX, v2)
        assert seq.records[3] == StepRecord(EDGE, (v2, v1), STOP, None)

    def test_stats(self, triangle):
        st = sequence_stats(encode(triangle))
        assert (st.length, st.n_faces, st.n_components, st.n_stops) == (7, 1, 1, 3)
        assert st.ratio == pytest.approx(7 / 9)


def test_derived_records_match_the_traversal(corpus7, corpus9):
    for name, mesh in corpus7 + corpus9:
        for order in ("dfs", "bfs"):
            assert encode(mesh, order).records == reference_records(mesh, order), (
                name,
                mesh.bits,
                order,
            )


class TestTetrahedronTrace:
    def test_counts(self, tetra):
        st = sequence_stats(encode(tetra))
        assert st.length == 13  # 2 aux + 10 traversal + 1 EOS
        assert st.n_stops == 6  # faces + 2
        assert st.n_faces == 4
        assert st.n_traversal_records == 10


def _tetrahedra(count: int, seed: int) -> QuantizedMesh:
    """``count`` disjoint tetrahedra at random 9-bit positions, faces shuffled;
    every third one repeats the positions of the one before it under new
    vertex indices, so start-vertex ties fall to the index."""
    rng = random.Random(seed)
    verts: list[QuantizedVertex] = []
    faces: list[Face] = []
    for i in range(count):
        if i % 3 != 2:
            x, y, z = (rng.randrange(0, 500) for _ in range(3))
        n = len(verts)
        verts += [QuantizedVertex(x, y, z), QuantizedVertex(x + 9, y, z),
                  QuantizedVertex(x, y + 9, z), QuantizedVertex(x, y, z + 9)]
        faces += [Face(n, n + 2, n + 1), Face(n, n + 1, n + 3),
                  Face(n, n + 3, n + 2), Face(n + 1, n + 2, n + 3)]
    rng.shuffle(faces)
    return QuantizedMesh(verts, faces, 9)


class TestStartRule:
    def test_lowest_destination_breaks_origin_tie(self):
        verts = [
            QuantizedVertex(0, 0, 0),
            QuantizedVertex(50, 50, 50),
            QuantizedVertex(10, 10, 10),
            QuantizedVertex(80, 80, 80),
        ]
        mesh = QuantizedMesh(verts, [Face(0, 1, 2), Face(0, 2, 3)], 7)
        seq = encode(mesh)
        assert seq.records[0].output_vertex == verts[0]
        assert seq.records[1].output_vertex == verts[2]  # (z,y,x)-lowest destination

    def test_height_axis_orders_by_z_first(self):
        verts = [
            QuantizedVertex(0, 0, 90),  # large x/y tie-breakers never reached
            QuantizedVertex(90, 90, 5),
            QuantizedVertex(5, 90, 90),
        ]
        mesh = QuantizedMesh(verts, [Face(1, 0, 2)], 7)
        seq = encode(mesh)
        assert seq.records[0].output_vertex == verts[1]

    def test_many_components_match_the_traversal(self):
        for seed in range(3):
            mesh = _tetrahedra(40, seed)
            assert validate_manifold(mesh).ok
            for order in ("dfs", "bfs"):
                assert encode(mesh, order).records == reference_records(mesh, order), (seed, order)

    def test_encode_time_is_linear_in_components(self):
        # Linear start-edge search gives a ratio near 4, a rescan of every
        # face per component near 16.
        def best_time(mesh):
            times = []
            for _ in range(5):
                start = time.perf_counter()
                encode(mesh)
                times.append(time.perf_counter() - start)
            return min(times)

        small, large = _tetrahedra(100, 0), _tetrahedra(400, 0)
        assert best_time(large) / best_time(small) <= 8.0


class TestCountingIdentities:
    def test_per_component_identities(self, corpus7):
        for name, mesh in corpus7:
            seq = encode(mesh)
            spans = _component_spans(seq)
            sizes = sorted(len(c) for c in connected_components(mesh))
            assert sorted(f for f, _, _ in spans) == sizes, name
            for faces, stops, edges in spans:
                assert stops == faces + 2, name
                assert edges == 2 * faces + 2, name

    def test_traversal_record_total(self, corpus7):
        for name, mesh in corpus7:
            st = sequence_stats(encode(mesh))
            n_f = len(mesh.faces)
            n_c = len(connected_components(mesh))
            assert st.n_traversal_records == 2 * n_f + 2 * n_c, name
            assert st.length == 2 * n_f + 4 * n_c + 1, name

    def test_compression_ratio_closed_2000_face_mesh(self):
        mesh = quantize(torus(50, 20), 7)
        assert len(mesh.faces) == 2000
        st = sequence_stats(encode(mesh))
        assert st.length == 4005
        assert st.ratio == pytest.approx(4005 / 18000)


class TestOrders:
    def test_determinism(self, corpus7):
        for name, mesh in corpus7:
            for order in ("dfs", "bfs"):
                assert encode(mesh, order) == encode(mesh, order), name

    def test_dfs_and_bfs_emit_the_same_faces(self, corpus7):
        for name, mesh in corpus7:
            def face_multiset(seq):
                return Counter(
                    (r.input_edge[0], r.input_edge[1], r.output_vertex)
                    for r in seq.records
                    if r.input_kind == EDGE and r.output_kind == VERTEX
                )
            dfs_faces = face_multiset(encode(mesh, "dfs"))
            bfs_faces = face_multiset(encode(mesh, "bfs"))
            assert Counter(
                frozenset(k) for k in dfs_faces
            ) == Counter(frozenset(k) for k in bfs_faces), name

    def test_unknown_order_rejected(self, tetra):
        with pytest.raises(ValueError):
            encode(tetra, "best-first")


class TestErrors:
    def test_invalid_mesh_raises(self):
        mesh = QuantizedMesh(
            [QuantizedVertex(i, i, i) for i in range(4)],
            [Face(0, 1, 2), Face(0, 1, 3)],
            7,
        )
        with pytest.raises(InvalidMeshError) as err:
            encode(mesh)
        assert [v.code for v in err.value.report.violations] == ["duplicate_directed_edge"]

    def test_empty_mesh_raises(self):
        with pytest.raises(InvalidMeshError):
            encode(QuantizedMesh([], [], 7))

    def test_missing_eos_is_malformed(self, triangle):
        seq = encode(triangle)
        broken = TokenSequence(seq.bits, seq.order, seq.outputs[:-1])
        with pytest.raises(MalformedSequenceError):
            sequence_stats(broken)

    def test_record_after_eos_is_malformed(self, triangle):
        seq = encode(triangle)
        broken = TokenSequence(seq.bits, seq.order, seq.outputs + [ANSWER_EOS])
        with pytest.raises(MalformedSequenceError):
            check_well_formed(broken)

    def test_truncated_flag_is_malformed(self, triangle):
        seq = encode(triangle)
        with pytest.raises(MalformedSequenceError):
            check_well_formed(TokenSequence(seq.bits, seq.order, seq.outputs, truncated=True))

    def test_dropped_stop_is_malformed(self, triangle):
        # One STOP short, the last edge of the component is still pending
        # where the outputs give EOS.
        seq = encode(triangle)
        assert seq.outputs[5] == ANSWER_STOP
        bad = TokenSequence(seq.bits, seq.order, seq.outputs[:5] + seq.outputs[6:])
        with pytest.raises(MalformedSequenceError, match="record 5: illegal output eos"):
            check_well_formed(bad)

    def test_illegal_record_pairing_rejected(self, triangle):
        # Each output is replaced by one its derived input does not admit.
        seq = encode(triangle)
        v = QuantizedVertex(0, 0, 0)
        for index, output in [
            (0, ANSWER_STOP),  # answers SOS
            (1, ANSWER_EOS),  # answers SOS2
            (2, ANSWER_EOS),  # answers EDGE
            (3, PredictorAnswer(VERTEX)),  # no vertex
            (1, answer_vertex(QuantizedVertex(0, 128, 0))),  # off the 7-bit grid
            (4, PredictorAnswer("face")),  # unknown kind
            (6, PredictorAnswer(EOS, v)),  # EOS with a vertex
        ]:
            bad = TokenSequence(seq.bits, seq.order, list(seq.outputs))
            bad.outputs[index] = output
            with pytest.raises(MalformedSequenceError, match=f"record {index}: "):
                check_well_formed(bad)

    @settings(max_examples=200, deadline=None)
    @given(
        n_verts=st.integers(0, 6),
        faces=st.lists(st.tuples(*[st.integers(-1, 6)] * 3), max_size=8),
    )
    def test_encode_accepts_exactly_the_valid_meshes(self, n_verts, faces):
        verts = [QuantizedVertex(i, (3 * i) % 7, (5 * i) % 11) for i in range(n_verts)]
        mesh = QuantizedMesh(verts, [Face(*f) for f in faces], 7)
        report = validate_manifold(mesh)
        assert report.violations == reference_violations(mesh)
        assert report.ok == (not report.violations)
        try:
            encode(mesh)
        except InvalidMeshError as exc:
            assert not report.ok
            assert exc.report.violations == report.violations
        else:
            assert report.ok


def test_every_face_appears_once_with_original_winding(corpus7):
    for name, mesh in corpus7:
        seq = encode(mesh)
        emitted = []
        for r in seq.records:
            if r.input_kind == EDGE and r.output_kind == VERTEX:
                emitted.append((r.input_edge[0], r.input_edge[1], r.output_vertex))
        assert len(emitted) == len(mesh.faces), name

        def canonical(tri):
            k = min(range(3), key=lambda i: tuple(tri[i:] + tri[:i]))
            return tuple(tri[k:] + tri[:k])

        expected = Counter(
            canonical([mesh.vertices[f.a], mesh.vertices[f.b], mesh.vertices[f.c]])
            for f in mesh.faces
        )
        assert Counter(canonical(list(t)) for t in emitted) == expected, name
