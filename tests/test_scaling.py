"""Doubling tests: a layer's time at 4n against its time at n, best of k.
A linear layer gives a ratio near 4 and a quadratic one near 16; the bound
of 8 lies between them, as in ``test_encode_time_is_linear_in_components``.
Sizes keep each call under half a second."""

from __future__ import annotations

import time

import numpy as np

from meshtok.core import MeshReal
from meshtok.metrics import normal_consistency
from meshtok.procgen import torus


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
