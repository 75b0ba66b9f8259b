"""Doubling tests: a layer's time at 4n against its time at n, best of k.
A linear layer gives a ratio near 4 and a quadratic one near 16; the bound
of 8 lies between them, as in ``test_encode_time_is_linear_in_components``.
Sizes keep each call under half a second."""

from __future__ import annotations

import time

import numpy as np
import pytest

from meshtok.core import Face, MeshReal, QuantizedMesh, QuantizedVertex, validate_manifold
from meshtok.generator import GeneratorConfig, replay_outputs, run
from meshtok.halfedge import build
from meshtok.metrics import chamfer, normal_consistency, sample_surface
from meshtok.preprocess import PreprocessConfig, filter_mesh, normalize, quantize
from meshtok.procgen import torus
from meshtok.sequencer import PredictorAnswer, encode
from meshtok.streamio import FormatError, read_obj, read_stream_answers, write_obj, write_stream, write_text_stream


def _best_times(*fns, repeats: int = 5) -> list[float]:
    """The best time of each function over ``repeats`` rounds that call them
    in turn, so that a slow spell of the host falls on all of them."""
    times: list[list[float]] = [[] for _ in fns]
    for _ in range(repeats):
        for fn, fn_times in zip(fns, times):
            start = time.perf_counter()
            fn()
            fn_times.append(time.perf_counter() - start)
    return [min(fn_times) for fn_times in times]


def _with_big_triangle(mesh: MeshReal) -> MeshReal:
    """The mesh plus one 1 x 1 right triangle below it, off its surface."""
    n = len(mesh.vertices)
    corners = np.array([[0.0, 0.0, -0.6], [1.0, 0.0, -0.6], [0.0, 1.0, -0.6]])
    return MeshReal(np.concatenate([mesh.vertices, corners]), np.concatenate([mesh.faces, [[n, n + 1, n + 2]]]))


def test_normal_consistency_is_n_log_n_on_mixed_face_sizes():
    # One large face among small ones: a search ball sized by the largest
    # face would hold every face, and each query would measure them all.
    def pair(major: int, minor: int) -> tuple[MeshReal, MeshReal]:
        mesh = torus(major, minor)
        return _with_big_triangle(mesh), _with_big_triangle(MeshReal(mesh.vertices * 1.001, mesh.faces))

    small, large = pair(14, 25), pair(28, 50)  # 700 and 2,800 faces, plus one
    t_small, t_large = _best_times(lambda: normal_consistency(*small), lambda: normal_consistency(*large))
    assert t_large / t_small <= 8.0


def test_filter_mesh_is_linear_on_mixed_face_sizes():
    # One triangle whose bounding box spans most of the grid, among small
    # ones: a batch padded to the largest box would make every face pay for
    # the grid.
    def mesh(major: int, minor: int) -> QuantizedMesh:
        ring = torus(major, minor)
        n = len(ring.vertices)
        corners = np.array([[-0.45, -0.45, -0.2], [0.45, -0.45, -0.25], [-0.45, 0.45, -0.3]])
        return quantize(
            MeshReal(np.concatenate([ring.vertices, corners]), np.concatenate([ring.faces, [[n, n + 1, n + 2]]])), 10
        )

    cfg = PreprocessConfig(bits=10, max_faces=10**6)
    small, large = mesh(20, 35), mesh(40, 70)  # 1,400 and 5,600 faces, plus one
    t_small, t_large = _best_times(lambda: filter_mesh(small, cfg), lambda: filter_mesh(large, cfg))
    assert t_large < 0.5
    assert t_large / t_small <= 8.0


def _unwelded_quads(major: int, minor: int) -> str:
    """OBJ text of a torus's quads, every corner on its own ``v`` line, so
    that each vertex line repeats four times."""
    ring = torus(major, minor)
    lines = []
    for i in range(major):
        for j in range(minor):
            corners = [((i + di) % major) * minor + (j + dj) % minor for di, dj in ((0, 0), (1, 0), (1, 1), (0, 1))]
            lines += ["v {:.9g} {:.9g} {:.9g}".format(*ring.vertices[k]) for k in corners]
            k = 4 * (i * minor + j)
            lines.append(f"f {k + 1} {k + 2} {k + 3} {k + 4}")
    return "\n".join(lines) + "\n"


def test_read_obj_is_linear_on_welded_and_unwelded_files(tmp_path):
    # An unwelded file keeps the vertex-line memo and looks every line up; a
    # welded one gives the memo up after its first batch.
    welded = [tmp_path / "w1.obj", tmp_path / "w4.obj"]
    write_obj(torus(25, 40), welded[0])  # 2,000 and 8,000 faces
    write_obj(torus(50, 80), welded[1])
    unwelded = [tmp_path / "u1.obj", tmp_path / "u4.obj"]
    unwelded[0].write_text(_unwelded_quads(20, 50))  # 1,000 and 4,000 quads
    unwelded[1].write_text(_unwelded_quads(40, 100))
    for small, large in (welded, unwelded):
        t_small, t_large = _best_times(lambda: read_obj(small), lambda: read_obj(large), repeats=9)
        assert t_large < 0.5
        assert t_large / t_small <= 8.0


def _tetrahedra(count: int) -> QuantizedMesh:
    """``count`` disjoint tetrahedra on a 9-bit lattice, no vertex shared."""
    verts: list[QuantizedVertex] = []
    faces: list[Face] = []
    for i in range(count):
        x, y, z = 10 * (i % 40), 10 * (i // 40 % 40), 10 * (i // 1600)
        n = len(verts)
        verts += [QuantizedVertex(x, y, z), QuantizedVertex(x + 9, y, z),
                  QuantizedVertex(x, y + 9, z), QuantizedVertex(x, y, z + 9)]
        faces += [Face(n, n + 2, n + 1), Face(n, n + 1, n + 3),
                  Face(n, n + 3, n + 2), Face(n + 1, n + 2, n + 3)]
    return QuantizedMesh(verts, faces, 9)


def test_text_stream_reader_is_linear_in_distinct_vertices(tmp_path):
    # Each distinct record line is parsed once and looked up after; here
    # nearly every vertex line is distinct.
    paths = [tmp_path / "s1.jsonl", tmp_path / "s4.jsonl"]
    for path, count in zip(paths, (500, 2000)):  # 2,000 and 8,000 vertices
        write_text_stream(encode(_tetrahedra(count)), path)
    t_small, t_large = _best_times(*(lambda p=p: read_stream_answers(p) for p in paths), repeats=9)
    assert t_large < 0.5
    assert t_large / t_small <= 8.0


def test_text_stream_reader_error_path_is_linear(tmp_path):
    # The same streams with a malformed last line, and with a stray form feed
    # in it: the reader looks up where the bad line first occurs only once
    # it fails, and the line rule runs on that per-line path.
    paths = [tmp_path / "s1.jsonl", tmp_path / "s4.jsonl"]
    streams = []
    for path, count in zip(paths, (500, 2000)):  # 2,000 and 8,000 distinct vertex lines
        write_text_stream(encode(_tetrahedra(count)), path)
        streams.append(path.read_text().splitlines())

    def fails(path, match: str) -> None:
        with pytest.raises(FormatError, match=match):
            read_stream_answers(path)

    for last, match in [
        ('{"op":"v","z":1,"y":2}', "vertex on line {} needs"),
        ('{"op":\x0c"eos"}', r"line break '\\x0c' inside line {}"),
    ]:
        for path, lines in zip(paths, streams):
            path.write_text("\n".join([*lines[:-1], last]) + "\n")
        calls = [lambda p=p, n=len(lines): fails(p, match.format(n)) for p, lines in zip(paths, streams)]
        t_small, t_large = _best_times(*calls, repeats=9)
        assert t_large < 0.5
        assert t_large / t_small <= 8.0


def _tetrahedra_outputs(count: int) -> list[PredictorAnswer]:
    """The outputs of ``count`` disjoint tetrahedra on a 9-bit lattice."""
    return encode(_tetrahedra(count)).outputs


def test_machine_is_linear_in_components():
    # Replay, and run with its directed-edge map, answering the same outputs.
    def calls(outputs: list[PredictorAnswer]):
        cfg = GeneratorConfig(bits=9, duplicate_check=True, max_steps=len(outputs))
        assert run(lambda q: outputs[q.step], cfg).transcript.outputs == outputs  # nothing coerced
        return lambda: replay_outputs(outputs, 9), lambda: run(lambda q: outputs[q.step], cfg)

    small, large = calls(_tetrahedra_outputs(150)), calls(_tetrahedra_outputs(600))
    for fn_small, fn_large in zip(small, large):
        t_small, t_large = _best_times(fn_small, fn_large)
        assert t_large < 0.5
        assert t_large / t_small <= 8.0


def test_normalize_and_quantize_are_linear_on_unwelded_quads(tmp_path):
    # Every corner of every quad on its own ``v`` line, so that quantize
    # merges four copies of each vertex.
    meshes = []
    for name, major, minor in (("u1.obj", 20, 50), ("u4.obj", 40, 100)):  # 1,000 and 4,000 quads
        path = tmp_path / name
        path.write_text(_unwelded_quads(major, minor))
        meshes.append(read_obj(path))
    small, large = meshes
    for fn, args in ((normalize, (small, large)), (quantize, (normalize(small), normalize(large)))):
        t_small, t_large = _best_times(lambda: fn(args[0]), lambda: fn(args[1]), repeats=9)
        assert t_large < 0.5
        assert t_large / t_small <= 8.0, fn.__name__


def test_halfedge_build_and_validation_are_linear_in_components():
    small, large = _tetrahedra(150), _tetrahedra(600)
    for fn in (build, validate_manifold):
        t_small, t_large = _best_times(lambda: fn(small), lambda: fn(large), repeats=9)
        assert t_large < 0.5
        assert t_large / t_small <= 8.0, fn.__name__


def test_stream_writers_are_linear_in_components(tmp_path):
    # Each writer walks the grammar of the whole sequence before it writes.
    small, large = encode(_tetrahedra(150)), encode(_tetrahedra(600))
    for fn in (write_stream, write_text_stream):
        path = tmp_path / fn.__name__
        t_small, t_large = _best_times(lambda: fn(small, path), lambda: fn(large, path), repeats=9)
        assert t_large < 0.5
        assert t_large / t_small <= 8.0, fn.__name__


def test_write_obj_is_linear_on_quantized_meshes(tmp_path):
    small, large = _tetrahedra(150), _tetrahedra(600)
    path = tmp_path / "out.obj"
    t_small, t_large = _best_times(lambda: write_obj(small, path), lambda: write_obj(large, path), repeats=9)
    assert t_large < 0.5
    assert t_large / t_small <= 8.0


def test_sampling_and_chamfer_are_n_log_n_in_samples():
    mesh = torus(20, 35)
    scaled = MeshReal(mesh.vertices * 1.001, mesh.faces)
    counts = (1 << 13, 1 << 15)
    t_small, t_large = _best_times(*(lambda n=n: sample_surface(mesh, n, 1) for n in counts))
    assert t_large < 0.5
    assert t_large / t_small <= 8.0
    pairs = [(sample_surface(mesh, n, 1), sample_surface(scaled, n, 2)) for n in counts]
    t_small, t_large = _best_times(*(lambda p=p: chamfer(*p) for p in pairs))
    assert t_large < 0.5
    assert t_large / t_small <= 8.0
