from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from meshtok import cli, generator, halfedge, sequencer
from meshtok.cli import main
from meshtok.core import Face, MeshReal, QuantizedMesh, QuantizedVertex
from meshtok.generator import DesyncError, decode
from meshtok.preprocess import quantize
from meshtok.procgen import tetrahedron, torus, two_component_scene
from meshtok.sequencer import TokenSequence, answer_vertex, encode
from meshtok.streamio import read_obj, write_obj, write_stream, write_text_stream
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


@pytest.mark.parametrize("order", ["dfs", "bfs"])
def test_detokenize_and_stats_replay_like_decode(tmp_path, capsys, order):
    # detokenize and stats replay a stream as decode does: a face answer
    # that repeats an endpoint of its edge fails at its own step, and a
    # repeated face is kept as recorded.
    mesh = quantize(torus(10, 8), 7)
    seq = encode(mesh, order)
    stream, out, expected_obj = tmp_path / "s.tmts", tmp_path / "out.obj", tmp_path / "expected.obj"
    write_stream(seq, stream)
    assert main(["detokenize", str(stream), "-o", str(out)]) == 0
    write_obj(decode(seq), expected_obj)
    assert out.read_bytes() == expected_obj.read_bytes()
    out.unlink()
    steps = [i for i, r in enumerate(seq.records) if r.input_kind == "edge" and r.output_kind == "vertex"]
    assert 14 in steps
    for i in (steps[0], 14, steps[-1]):
        for endpoint in seq.records[i].input_edge:
            bad = TokenSequence(seq.bits, order, list(seq.outputs))
            bad.outputs[i] = answer_vertex(endpoint)
            with pytest.raises(DesyncError) as exc:
                decode(bad)
            assert str(exc.value) == f"step {i}: recorded vertex repeats an edge endpoint"
            write_stream(bad, stream)
            capsys.readouterr()
            for argv in (["detokenize", str(stream), "-o", str(out)], ["stats", str(stream)]):
                assert main(argv) == 2, argv[0]
                assert capsys.readouterr() == ("", f"error: {exc.value}\n")
            assert not out.exists()
    # The last face step's edge has an emitted face on its far side; answer
    # that face's third vertex to emit it again, with the other winding.
    i = steps[-1]
    edge = set(seq.records[i].input_edge)
    corners = [{mesh.vertices[j] for j in f} for f in mesh.faces]
    (far,) = [c for c in corners if edge < c and seq.outputs[i].vertex not in c]
    again = TokenSequence(seq.bits, order, list(seq.outputs))
    again.outputs[i] = answer_vertex((far - edge).pop())
    expected = decode(again)
    assert len(expected.faces) == 160
    assert len(set(map(frozenset, expected.faces))) == 159
    write_stream(again, stream)
    assert main(["detokenize", str(stream), "-o", str(out)]) == 0
    write_obj(expected, expected_obj)
    assert out.read_bytes() == expected_obj.read_bytes()


def test_detokenize_keeps_opposite_winding_double_faces(tmp_path):
    # Two faces over one vertex set are a valid mesh; its encoder stream
    # detokenizes to both faces.
    verts = [QuantizedVertex(0, 0, 0), QuantizedVertex(10, 0, 0), QuantizedVertex(0, 10, 0)]
    pillow = QuantizedMesh(verts, [Face(0, 1, 2), Face(0, 2, 1)], 7)
    stream, out, expected_obj = tmp_path / "p.tmts", tmp_path / "p.obj", tmp_path / "expected.obj"
    write_stream(encode(pillow), stream)
    assert main(["detokenize", str(stream), "-o", str(out)]) == 0
    restored = decode(encode(pillow))
    assert canonical_faces(restored) == canonical_faces(pillow)
    write_obj(restored, expected_obj)
    assert out.read_bytes() == expected_obj.read_bytes()


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


@pytest.mark.parametrize("unused", [True, False], ids=["unused_vertex", "all_used"])
def test_validate_reads_past_a_byte_order_mark(tmp_path, tetra_obj, capsys, unused):
    # Were the mark read as part of the first keyword, the first vertex line
    # would be lost: with a fifth, unused vertex every face would silently
    # move by one vertex, without one a face would reference a missing one.
    lines = tetra_obj.read_text().splitlines(keepends=True)
    if unused:
        lines.insert(4, "v 0.4 0.4 0.4\n")
    plain, marked = tmp_path / "plain.obj", tmp_path / "marked.obj"
    plain.write_text("".join(lines), encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert main(["validate", str(plain)]) == 0
    want = capsys.readouterr().out
    assert main(["validate", str(marked)]) == 0
    assert capsys.readouterr().out == want


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

    builds, grammar_walks = [], []
    build, walk = halfedge.build, sequencer._walk
    monkeypatch.setattr(cli, "quantize", quantize_counting)
    monkeypatch.setattr(halfedge, "build", lambda mesh: builds.append(1) or build(mesh))
    monkeypatch.setattr(sequencer, "_walk", lambda seq: grammar_walks.append(1) or walk(seq))
    for text in ([], ["--text"]):
        CountingList.walks = 0
        builds.clear()
        grammar_walks.clear()
        assert main(["tokenize", str(tetra_obj), "-o", str(tmp_path / "t"), *text]) == 0
        # The faces are read twice, both in core.face_array: once for their
        # lengths, once for their indices; the edges are built once.
        assert (CountingList.walks, len(builds), len(grammar_walks)) == (2, 1, 1), text


@pytest.mark.parametrize("bits", [1, 7, 9, 16])
def test_text_records_skip_the_json_decoder(tmp_path, monkeypatch, bits):
    # Every record line that write_text_stream writes takes the canonical
    # fast path of the text parser; only the header goes through json.loads.
    top = (1 << bits) - 1
    lo = top // 3
    verts = [QuantizedVertex(lo, lo, lo), QuantizedVertex(top, lo, lo),
             QuantizedVertex(lo, top, lo), QuantizedVertex(lo, lo, top)]
    faces = [Face(0, 2, 1), Face(0, 1, 3), Face(1, 2, 3), Face(2, 0, 3)]
    mesh = QuantizedMesh(verts, faces, bits)
    stream, out = tmp_path / "t.jsonl", tmp_path / "t.obj"
    write_text_stream(encode(mesh), stream)
    decoded = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda *a, **k: decoded.append(a[0]) or loads(*a, **k))
    assert main(["detokenize", str(stream), "-o", str(out)]) == 0
    assert main(["stats", str(stream)]) == 0
    header = stream.read_text().splitlines()[0]
    assert decoded == [header, header]
    assert quantize(read_obj(out), bits) == decode(encode(mesh))


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
    # The probes do see construction: a fuzz run's queries and derived
    # records (fuzz counts from its run and derives none).
    assert main(["fuzz", "--seed", "1", "--max-steps", "5"]) == 0
    assert set(built) == {"PredictorQuery"}
    encode(quantize(read_obj(tetra_obj), 7)).records
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


@pytest.mark.parametrize("scale", [1e78, 1e100, 1e200])
def test_overflowing_coordinates_are_a_rejection(tmp_path, capsys, scale):
    # Face areas overflow: no traceback, no wrong-category exit and no
    # sample set piled on the last face.
    obj = tmp_path / "huge.obj"
    tetra = tetrahedron()
    write_obj(MeshReal(tetra.vertices * scale, tetra.faces), obj)
    out = tmp_path / "points.xyz"
    for argv in (["metrics", str(obj), str(obj)], ["sample-pc", str(obj), "-o", str(out)]):
        assert main(argv) == 1, argv[0]
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines and all(line.startswith("error: ") for line in lines), captured.err
        assert "overflows" in captured.err
    assert not out.exists()


def test_augment_overflow_is_a_rejection(tmp_path, capsys):
    # Rotating a triangle at +/-1.7e308 about z overflows: no warning, no
    # file of infinite coordinates that a reader would refuse.
    obj = tmp_path / "big.obj"
    obj.write_text("v 1.7e308 -1.7e308 0\nv -1.7e308 1.7e308 0\nv 1.7e308 1.7e308 1\nf 1 2 3\n")
    out = tmp_path / "a.obj"
    assert main(["augment", str(obj), "-o", str(out), "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: coordinates too large: the rotation about z overflows\n"
    assert not out.exists()


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


@pytest.mark.parametrize(
    "command, option, value, field",
    [
        ("augment", "--z-rot-max", "inf", "z_rot_max_degrees"),
        ("augment", "--flip-prob", "nan", "flip_prob"),
        ("augment", "--flip-prob", "1.5", "flip_prob"),
        ("preprocess", "--proj-min-area", "nan", "proj_min_area"),
        ("preprocess", "--proj-grid", "0", "proj_grid"),
        ("preprocess", "--proj-grid", "-3", "proj_grid"),
        ("preprocess", "--proj-grid", "4097", "proj_grid"),  # past the ceiling
        ("preprocess", "--max-faces", "0", "max_faces"),
        ("preprocess", "--max-faces", "-1", "max_faces"),
    ],
)
def test_bad_preprocess_config_is_a_usage_error(tmp_path, tetra_obj, capsys, command, option, value, field):
    out = tmp_path / "out.obj"
    argv = [command, str(tetra_obj), "-o", str(out), option, value]
    assert main(argv + (["--seed", "1"] if command == "augment" else [])) == 2
    assert field in capsys.readouterr().err
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
    assert list(report) == ["cd", "nc", "abs_nc", "flipped", "samples", "seed"]
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


@pytest.mark.parametrize("bits", ["0", "17", "-1"])
def test_fuzz_rejects_unsupported_bits(capsys, bits):
    with pytest.raises(SystemExit) as err:
        main(["fuzz", "--seed", "1", "--bits", bits])
    assert err.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"argument --bits: must be an integer in [1, 16], got '{bits}'" in out.err


def test_corrupt_stream_is_a_format_error(tmp_path):
    bad = tmp_path / "bad.tmts"
    bad.write_bytes(b"TMTSgarbage")
    assert main(["stats", str(bad)]) == 2
    assert main(["detokenize", str(bad), "-o", str(tmp_path / "x.obj")]) == 2


def test_missing_input_file(tmp_path):
    assert main(["validate", str(tmp_path / "absent.obj")]) == 2


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["tokenize"])  # missing required -o and input
    assert err.value.code == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])
    # Sample counts below 1 fail at parsing, naming the flag.
    for argv, flag in [
        (["metrics", "a.obj", "b.obj", "--samples", "-1"], "--samples"),
        (["metrics", "a.obj", "b.obj", "--samples", "0"], "--samples"),
        (["sample-pc", "a.obj", "-o", "pc.xyz", "-n", "-1"], "-n/--count"),
        (["sample-pc", "a.obj", "-o", "pc.xyz", "--count", "0"], "-n/--count"),
        (["fuzz", "--seed", "1", "--max-steps", "0"], "--max-steps"),
        (["fuzz", "--seed", "1", "--max-steps", "x"], "--max-steps"),
    ]:
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert f"argument {flag}: must be an integer >= 1" in capsys.readouterr().err
    # A bit count outside [1, 16] fails at parsing, before any file is read
    # (the inputs named here do not exist).
    for argv in [
        ["tokenize", "absent.obj", "-o", "t.tmts", "--bits", "17"],
        ["validate", "absent.obj", "--bits", "0"],
        ["preprocess", "absent.obj", "-o", "c.obj", "--bits", "7.5"],
        ["fuzz", "--seed", "1", "--bits", "-1"],
    ]:
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        message = f"argument --bits: must be an integer in [1, 16], got '{argv[-1]}'"
        assert message in capsys.readouterr().err
    # detokenize replays verbatim and has no duplicate-check switch.
    with pytest.raises(SystemExit) as err:
        main(["detokenize", "s.tmts", "-o", "out.obj", "--no-dup-check"])
    assert err.value.code == 2
    assert "unrecognized arguments: --no-dup-check" in capsys.readouterr().err
    # So do negative seeds for the commands that seed numpy.
    for argv in [
        ["sample-pc", "a.obj", "-o", "pc.xyz", "--seed", "-1"],
        ["augment", "a.obj", "-o", "a2.obj", "--seed", "-1"],
        ["metrics", "a.obj", "b.obj", "--seed", "-1"],
    ]:
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "argument --seed: must be an integer >= 0, got '-1'" in capsys.readouterr().err
    assert main(["fuzz", "--seed", "-1", "--max-steps", "5"]) == 0  # random.Random takes any int


@pytest.mark.parametrize(
    "argv, flag, ceiling",
    [
        (["metrics", "a.obj", "b.obj", "--samples"], "--samples", 1 << 20),
        (["sample-pc", "a.obj", "-o", "pc.xyz", "-n"], "-n/--count", 1 << 20),
        (["sample-pc", "a.obj", "-o", "pc.xyz", "--count"], "-n/--count", 1 << 20),
        (["fuzz", "--seed", "1", "--max-steps"], "--max-steps", 10**6),
    ],
)
def test_size_flags_have_ceilings(capsys, argv, flag, ceiling):
    # One past the ceiling fails at parsing, before any file is read or
    # array allocated (the inputs named here do not exist).
    with pytest.raises(SystemExit) as err:
        main(argv + [str(ceiling + 1)])
    assert err.value.code == 2
    assert f"argument {flag}: must be an integer <= {ceiling}, got '{ceiling + 1}'" in capsys.readouterr().err


def test_parser_is_built_once_and_reused(capsys):
    assert cli._parser() is cli._parser()
    for _ in range(2):  # the same usage error, help and exit code every time
        with pytest.raises(SystemExit) as err:
            main(["stats"])
        assert err.value.code == 2
        assert "the following arguments are required: input" in capsys.readouterr().err
        with pytest.raises(SystemExit) as err:
            main(["fuzz", "--help"])
        assert err.value.code == 0
        assert "--max-steps" in capsys.readouterr().out


def _readme_cli_block() -> dict[str, str]:
    """README's CLI block as {command: its text, continuation lines included}."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands: dict[str, str] = {}
    name = None
    for line in block.splitlines():
        if line.startswith("meshtok "):
            name = line.split()[1]
        commands[name] = commands.get(name, "") + line + "\n"
    return commands


def test_readme_cli_block_matches_the_parser():
    documented = _readme_cli_block()
    (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(documented) == set(subparsers.choices)
    for name, parser in subparsers.choices.items():
        text = documented[name]
        shown = set(re.findall(r"(?<![\w-])(--?[a-z][\w-]*)", text))
        options = {s for a in parser._actions if a.option_strings for s in a.option_strings}
        assert shown <= options, (name, shown - options)
        for action in parser._actions:
            if action.option_strings and action.dest != "help":
                assert shown & set(action.option_strings), (name, action.option_strings)


# Runs CLI commands in a fresh interpreter and prints, as its last line, the
# exit codes and every scipy module that the commands loaded.
_IMPORT_PROBE = """
import json, sys
from meshtok.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def _probe_imports(commands: list[list[str]]) -> dict:
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(commands)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_codec_and_intake_commands_load_no_scipy(tmp_path):
    raw, clean = tmp_path / "raw.obj", tmp_path / "clean.obj"
    mesh = tetrahedron()
    write_obj(type(mesh)(mesh.vertices * 12.0 + 4.0, mesh.faces), raw)
    stream, text, back = tmp_path / "t.tmts", tmp_path / "t.jsonl", tmp_path / "back.obj"
    commands = [
        ["preprocess", str(raw), "-o", str(clean)],
        ["tokenize", str(clean), "-o", str(stream)],
        ["tokenize", str(clean), "-o", str(text), "--text"],
        ["detokenize", str(stream), "-o", str(back)],
        ["stats", str(text)],
        ["validate", str(back)],
        ["fuzz", "--seed", "3", "--max-steps", "500"],
    ]
    report = _probe_imports(commands)
    assert report == {"codes": [0] * len(commands), "scipy": []}


def test_metrics_loads_scipy_spatial_only(tetra_obj):
    report = _probe_imports([["metrics", str(tetra_obj), str(tetra_obj), "--samples", "200"]])
    assert report["codes"] == [0]
    assert "scipy.spatial" in report["scipy"]
    assert "scipy.ndimage" not in report["scipy"]
