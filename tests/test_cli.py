from __future__ import annotations

import numpy as np
import pytest

from meshtok import cli, generator, halfedge, sequencer
from meshtok.cli import main
from meshtok.preprocess import quantize
from meshtok.procgen import tetrahedron, torus, two_component_scene
from meshtok.streamio import read_obj, write_obj
from helpers import canonical_faces


@pytest.fixture
def tetra_obj(tmp_path, tetra):
    path = tmp_path / "tetra.obj"
    write_obj(tetra, path)
    return path


@pytest.fixture
def triangle_obj(tmp_path, triangle):
    path = tmp_path / "tri.obj"
    write_obj(triangle, path)
    return path


def test_tokenize_detokenize_roundtrip(tmp_path, tetra_obj):
    stream = tmp_path / "t.tmts"
    out = tmp_path / "out.obj"
    assert main(["tokenize", str(tetra_obj), "-o", str(stream)]) == 0
    assert main(["detokenize", str(stream), "-o", str(out)]) == 0
    original = quantize(read_obj(tetra_obj), 7)
    restored = quantize(read_obj(out), 7)
    assert canonical_faces(restored) == canonical_faces(original)
    # Composition through files equals the library-level decode(encode(.)).
    from meshtok.generator import decode
    from meshtok.sequencer import encode

    assert restored == decode(encode(original))


def test_tokenize_text_form_roundtrip(tmp_path, tetra_obj):
    stream = tmp_path / "t.jsonl"
    out = tmp_path / "out.obj"
    assert main(["tokenize", str(tetra_obj), "-o", str(stream), "--text"]) == 0
    assert stream.read_text().startswith('{"magic":"TMTS"')
    assert main(["detokenize", str(stream), "-o", str(out)]) == 0
    assert canonical_faces(quantize(read_obj(out), 7)) == canonical_faces(
        quantize(read_obj(tetra_obj), 7)
    )


def test_detokenize_no_dup_check_matches_on_encoder_streams(tmp_path, tetra_obj):
    stream = tmp_path / "t.tmts"
    main(["tokenize", str(tetra_obj), "-o", str(stream)])
    a, b = tmp_path / "a.obj", tmp_path / "b.obj"
    assert main(["detokenize", str(stream), "-o", str(a)]) == 0
    assert main(["detokenize", str(stream), "-o", str(b), "--no-dup-check"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_stats_line_for_single_triangle(tmp_path, triangle_obj, capsys):
    stream = tmp_path / "t.tmts"
    main(["tokenize", str(triangle_obj), "-o", str(stream)])
    capsys.readouterr()
    assert main(["stats", str(stream)]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "length=7 faces=1 components=1 stops=3 ratio=0.7778"


def test_validate_accepts_and_rejects(tmp_path, tetra_obj, capsys):
    assert main(["validate", str(tetra_obj)]) == 0
    assert "ok:" in capsys.readouterr().out
    bad = tmp_path / "bad.obj"
    bad.write_text(
        "v 0 0 0\nv 0.1 0 0\nv 0 0.1 0\nv 0 0 0.1\nf 1 2 3\nf 1 2 4\n"
    )
    assert main(["validate", str(bad)]) == 1
    assert "duplicate_directed_edge" in capsys.readouterr().out


def test_tokenize_rejects_invalid_mesh(tmp_path, capsys):
    bad = tmp_path / "bad.obj"
    bad.write_text("v 0 0 0\nv 0.1 0 0\nv 0 0.1 0\nv 0 0 0.1\nf 1 2 3\nf 1 2 4\n")
    assert main(["tokenize", str(bad), "-o", str(tmp_path / "x.tmts")]) == 1


def test_tokenize_rejects_out_of_range_coordinates(tmp_path):
    big = tmp_path / "big.obj"
    big.write_text("v 0 0 0\nv 3 0 0\nv 0 3 0\nf 1 2 3\n")
    assert main(["tokenize", str(big), "-o", str(tmp_path / "x.tmts")]) == 1


def test_tokenize_walks_the_directed_edges_once(tmp_path, tetra_obj, monkeypatch):
    class CountingList(list):
        walks = 0

        def __iter__(self):
            CountingList.walks += 1
            return super().__iter__()

    def quantize_counting(mesh, bits):
        out = quantize(mesh, bits)
        out.faces = CountingList(out.faces)
        return out

    builds = []
    build = halfedge.build
    monkeypatch.setattr(cli, "quantize", quantize_counting)
    monkeypatch.setattr(halfedge, "build", lambda mesh: builds.append(1) or build(mesh))
    assert main(["tokenize", str(tetra_obj), "-o", str(tmp_path / "t.tmts")]) == 0
    assert (CountingList.walks, len(builds)) == (1, 1)


def test_codec_commands_build_no_records_or_queries(tmp_path, tetra_obj, monkeypatch):
    built = []

    def counting(cls):
        def make(*args, **kwargs):
            built.append(cls.__name__)
            return cls(*args, **kwargs)

        return make

    monkeypatch.setattr(sequencer, "StepRecord", counting(sequencer.StepRecord))
    monkeypatch.setattr(generator, "PredictorQuery", counting(generator.PredictorQuery))
    for text in ([], ["--text"]):
        stream, out = str(tmp_path / "t"), str(tmp_path / "t.obj")
        assert main(["tokenize", str(tetra_obj), "-o", stream, *text]) == 0
        assert main(["detokenize", stream, "-o", out]) == 0
    assert built == []
    # The probes do see construction: derived records and a fuzz run.
    assert main(["fuzz", "--seed", "1", "--max-steps", "5"]) == 0
    assert set(built) == {"StepRecord", "PredictorQuery"}


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_coordinates_are_a_format_error(tmp_path, capsys, bad):
    obj = tmp_path / "bad.obj"
    obj.write_text(f"v 0 0 0\nv 0.1 0 0\nv 0 {bad} 0\nf 1 2 3\n")
    out = str(tmp_path / "out")
    for argv in (
        ["tokenize", str(obj), "-o", out],
        ["preprocess", str(obj), "-o", out],
        ["metrics", str(obj), str(obj)],
    ):
        assert main(argv) == 2, argv[0]
        assert "line 3: non-finite vertex coordinate" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_malformed_text_stream_is_a_format_error(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"magic":"TMTS","bits":7,"order":"dfs"}\n{"op":"v","z":1,"y":2}\n')
    assert main(["detokenize", str(bad), "-o", str(tmp_path / "x.obj")]) == 2
    assert main(["stats", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_preprocess_accepts_raw_mesh(tmp_path, capsys):
    raw = tmp_path / "raw.obj"
    mesh = tetrahedron()
    write_obj(
        type(mesh)(mesh.vertices * 12.0 + 4.0, mesh.faces), raw
    )
    out = tmp_path / "clean.obj"
    assert main(["preprocess", str(raw), "-o", str(out)]) == 0
    cleaned = read_obj(out)
    assert cleaned.vertices.min() >= -0.5 - 1e-9
    assert cleaned.vertices.max() <= 0.5 + 1e-9
    assert main(["tokenize", str(out), "-o", str(tmp_path / "c.tmts")]) == 0


def test_preprocess_rejects_multi_cluster_scene(tmp_path, capsys):
    raw = tmp_path / "scene.obj"
    write_obj(two_component_scene(), raw)
    out = tmp_path / "clean.obj"
    assert main(["preprocess", str(raw), "-o", str(out)]) == 1
    assert "projection_clusters" in capsys.readouterr().out
    assert not out.exists()


def test_preprocess_rejects_face_budget(tmp_path, capsys):
    raw = tmp_path / "raw.obj"
    write_obj(quantize(torus(12, 8), 7), raw)
    assert (
        main(["preprocess", str(raw), "-o", str(tmp_path / "x.obj"), "--max-faces", "100"])
        == 1
    )
    assert "face_count" in capsys.readouterr().out


def test_metrics_self_line(tmp_path, tetra_obj, capsys):
    assert main(
        ["metrics", str(tetra_obj), str(tetra_obj), "--samples", "500", "--seed", "3"]
    ) == 0
    assert capsys.readouterr().out.strip() == "cd=0 nc=1 abs_nc=1"


def test_metrics_json(tmp_path, tetra_obj, capsys):
    assert main(
        ["metrics", str(tetra_obj), str(tetra_obj), "--samples", "200", "--json"]
    ) == 0
    import json

    report = json.loads(capsys.readouterr().out)
    assert report["cd"] == 0.0 and report["nc"] == 1.0 and report["samples"] == 200
    assert report["flipped"] == 0.0


def test_sample_pc_formats(tmp_path, tetra_obj):
    xyz = tmp_path / "pc.xyz"
    ply = tmp_path / "pc.ply"
    assert main(["sample-pc", str(tetra_obj), "-n", "1024", "-o", str(xyz)]) == 0
    assert len(xyz.read_text().splitlines()) == 1024
    assert main(
        ["sample-pc", str(tetra_obj), "-n", "64", "-o", str(ply), "--format", "ply"]
    ) == 0
    assert b"element vertex 64" in ply.read_bytes()


def test_augment_is_deterministic(tmp_path, tetra_obj):
    a, b = tmp_path / "a.obj", tmp_path / "b.obj"
    args = ["augment", str(tetra_obj), "--seed", "11"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    augmented = read_obj(a)
    assert not np.allclose(augmented.vertices, read_obj(tetra_obj).vertices)


def test_fuzz_deterministic_output(capsys):
    assert main(["fuzz", "--seed", "12", "--max-steps", "4000"]) == 0
    first = capsys.readouterr().out
    assert main(["fuzz", "--seed", "12", "--max-steps", "4000"]) == 0
    assert capsys.readouterr().out == first
    assert first.startswith("halt=")


def test_corrupt_stream_is_a_format_error(tmp_path):
    bad = tmp_path / "bad.tmts"
    bad.write_bytes(b"TMTSgarbage")
    assert main(["stats", str(bad)]) == 2
    assert main(["detokenize", str(bad), "-o", str(tmp_path / "x.obj")]) == 2


def test_missing_input_file(tmp_path):
    assert main(["validate", str(tmp_path / "absent.obj")]) == 2


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["tokenize"])  # missing required -o and input
    assert err.value.code == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])
