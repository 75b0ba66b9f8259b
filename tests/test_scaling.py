"""Doubling tests: a layer's time at 4n against its time at n, best of k.
A linear layer gives a ratio near 4 and a quadratic one near 16; the bound
of 8 lies between them, as in ``test_encode_time_is_linear_in_components``.
Sizes keep each call under half a second."""

from __future__ import annotations

import time

import numpy as np

from meshtok.core import Face, MeshReal, QuantizedMesh, QuantizedVertex
from meshtok.generator import GeneratorConfig, replay_outputs, run
from meshtok.metrics import normal_consistency
from meshtok.procgen import torus
from meshtok.sequencer import PredictorAnswer, encode


def _best_time(fn, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


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
    assert _best_time(lambda: normal_consistency(*large)) / _best_time(lambda: normal_consistency(*small)) <= 8.0


def _tetrahedra_outputs(count: int) -> list[PredictorAnswer]:
    """The outputs of ``count`` disjoint tetrahedra on a 9-bit lattice."""
    verts: list[QuantizedVertex] = []
    faces: list[Face] = []
    for i in range(count):
        x, y, z = 10 * (i % 40), 10 * (i // 40 % 40), 10 * (i // 1600)
        n = len(verts)
        verts += [QuantizedVertex(x, y, z), QuantizedVertex(x + 9, y, z),
                  QuantizedVertex(x, y + 9, z), QuantizedVertex(x, y, z + 9)]
        faces += [Face(n, n + 2, n + 1), Face(n, n + 1, n + 3),
                  Face(n, n + 3, n + 2), Face(n + 1, n + 2, n + 3)]
    return encode(QuantizedMesh(verts, faces, 9)).outputs


def test_machine_is_linear_in_components():
    # Replay, and run with its directed-edge map, answering the same outputs.
    def times(outputs: list[PredictorAnswer]) -> tuple[float, float]:
        cfg = GeneratorConfig(bits=9, duplicate_check=True, max_steps=len(outputs))
        assert run(lambda q: outputs[q.step], cfg).transcript.outputs == outputs  # nothing coerced
        return (
            _best_time(lambda: replay_outputs(outputs, 9)),
            _best_time(lambda: run(lambda q: outputs[q.step], cfg)),
        )

    small, large = times(_tetrahedra_outputs(150)), times(_tetrahedra_outputs(600))
    for t_small, t_large in zip(small, large):
        assert t_large < 0.5
        assert t_large / t_small <= 8.0
