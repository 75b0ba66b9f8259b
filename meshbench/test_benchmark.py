"""Tests of the benchmark's own oracles and checks.

    python3 -m pytest meshbench/test_benchmark.py -q

The oracles are tested on hand-made cases and against the program on small
inputs; the checks must pass on every workload's clean output and fail on
each kind of damaged output.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

CLI = run.import_program()

TETRA = [(0, 0, 0), (9, 0, 0), (0, 9, 0), (0, 0, 9)]
TETRA_FACES = [(0, 2, 1), (0, 1, 3), (1, 2, 3), (2, 0, 3)]


def _faces(verts, faces):
    return [tuple(verts[i] for i in f) for f in faces]


def test_canonical_keeps_winding_and_ignores_rotation():
    a, b, c = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert oracles.canonical((a, b, c)) == oracles.canonical((b, c, a))
    assert oracles.canonical((a, b, c)) != oracles.canonical((a, c, b))


def test_component_count_joins_by_edges_only():
    tet = _faces(TETRA, TETRA_FACES)
    shifted = [tuple((x + 20, y, z) for x, y, z in f) for f in tet]
    assert oracles.component_count(tet) == 1
    assert oracles.component_count(tet + shifted) == 2
    # Two triangles sharing one vertex (a bowtie) are two components.
    bowtie = [((0, 0, 0), (1, 0, 0), (1, 1, 0)), ((0, 0, 0), (-1, 0, 0), (-1, -1, 0))]
    assert oracles.component_count(bowtie) == 2


def test_weld_merges_cells_and_drops_degenerate_and_repeated_faces():
    cells = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 0, 0]])
    faces = np.array([[0, 1, 2], [3, 2, 0], [0, 1, 4], [2, 1, 0]])
    assert oracles.weld(cells, faces) == [((0, 0, 0), (1, 0, 0), (0, 1, 0))]


def test_snap_margin_ignores_the_clipped_outer_boundaries():
    assert oracles.snap_margin(np.array([-0.5, 0.5]), 7) == math.inf
    assert oracles.snap_margin(np.array([0.0]), 7) == 0.0
    assert oracles.snap_margin(np.array([0.25 / 128]), 7) == pytest.approx(0.25)


def test_stream_decoder_and_size_identities_match_the_program(tmp_path):
    for order, text in (("dfs", False), ("bfs", True)):
        coords = (np.array(TETRA) + 0.5) / 128 - 0.5
        src, stream = tmp_path / "t.obj", tmp_path / f"t-{order}.tok"
        workloads._write_obj(src, coords, TETRA_FACES)
        argv = ["tokenize", str(src), "-o", str(stream), "--order", order]
        assert CLI.main(argv + (["--text"] if text else [])) == 0
        data = stream.read_bytes()
        parse = oracles.parse_text_stream if text else oracles.parse_binary_stream
        bits, got_order, records = parse(data.decode() if text else data)
        assert (bits, got_order) == (7, order)
        faces = oracles.replay(records, order)
        assert oracles.face_multiset(faces) == oracles.face_multiset(_faces(TETRA, TETRA_FACES))
        assert len(records) == oracles.expected_records(4, 1)
        if not text:
            assert len(data) == oracles.expected_binary_size(4, 1)


def test_stream_decoder_rejects_broken_streams():
    with pytest.raises(oracles.OracleError):
        oracles.replay([(0, 0, 0), (1, 0, 0), oracles.STOP], "dfs")  # no EOS
    with pytest.raises(oracles.OracleError):
        oracles.replay([oracles.EOS, oracles.EOS], "dfs")
    with pytest.raises(oracles.OracleError):
        oracles.parse_binary_stream(b"TMTS\x01\x07\x00\x01\x00\x00\x00\x09")


def test_point_triangle_distance_regions():
    a, b, c = (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
    assert oracles.point_triangle_distance((0.2, 0.2, 0.5), a, b, c) == pytest.approx(0.5)
    assert oracles.point_triangle_distance((-1.0, -1.0, 0.0), a, b, c) == pytest.approx(math.sqrt(2))
    assert oracles.point_triangle_distance((0.5, -2.0, 0.0), a, b, c) == pytest.approx(2.0)
    assert oracles.point_triangle_distance((1.0, 1.0, 0.0), a, b, c) == pytest.approx(math.sqrt(0.5))


def test_scalar_normal_consistency_fixed_points():
    v, f = oracles.torus_mesh(0.3, 0.12, 6, 5)
    tris = v[f].tolist()
    assert oracles.normal_consistency(tris, tris) == pytest.approx((1.0, 1.0))
    flipped = v[f[:, ::-1]].tolist()
    assert oracles.normal_consistency(tris, flipped) == pytest.approx((-1.0, 1.0))


def test_torus_deviation_shrinks_with_finer_tessellation():
    coarse = oracles.torus_deviation(*oracles.torus_mesh(0.3, 0.12, 12, 6), 0.3, 0.12)
    fine = oracles.torus_deviation(*oracles.torus_mesh(0.3, 0.12, 48, 24), 0.3, 0.12)
    assert 0 < fine[0] < coarse[0] / 3 and 0 < fine[1] < coarse[1] / 2
    # The vertices lie on the surface and faces face outward.
    assert coarse[1] < math.pi / 2


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checks_pass_on_clean_output_and_fail_on_damage(name, tmp_path):
    plan = workloads.WORKLOADS[name](tmp_path, workloads.seeded(0))
    for job in plan.jobs[:1] + plan.extra:
        _, code, fails = run.run_job(CLI, job)
        assert code == 0 and fails == []
        damaged = 0
        for kind in workloads.DAMAGE_KINDS:
            _, code, stdouts = run.run_commands(CLI, job)
            assert code == 0
            if workloads.damage(job, kind, stdouts):
                damaged += 1
                assert job.check(stdouts), f"{name}/{job.label}: {kind} not caught"
        assert damaged >= 1


def test_same_seed_same_inputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    workloads.intake(a, workloads.seeded(3))
    workloads.intake(b, workloads.seeded(3))
    assert (a / "raw0.obj").read_bytes() == (b / "raw0.obj").read_bytes()
