from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from meshtok.core import MeshReal, QuantizedMesh, QuantizedVertex
from meshtok.preprocess import quantize
from meshtok.procgen import big_torus, torus
from meshtok.sequencer import (
    ANSWER_EOS,
    ANSWER_STOP,
    VERTEX,
    MalformedSequenceError,
    PredictorAnswer,
    TokenSequence,
    answer_vertex,
    encode,
)
from meshtok.generator import DesyncError, IllegalAnswerError, decode, replay_outputs
from meshtok import streamio
from meshtok.streamio import (
    EmptyMeshError,
    FormatError,
    ObjParseError,
    read_obj,
    read_stream_answers,
    write_obj,
    write_pointcloud,
    write_stream,
    write_text_stream,
)


def _read_sequence(path) -> TokenSequence:
    return TokenSequence(*read_stream_answers(path))


def _write(tmp_path, text, name="mesh.obj"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestReadObj:
    def test_minimal_triangle(self, tmp_path):
        path = _write(tmp_path, "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        mesh = read_obj(path)
        assert mesh.vertices.shape == (3, 3)
        assert mesh.faces.tolist() == [[0, 1, 2]]

    def test_quad_fan_triangulation(self, tmp_path):
        path = _write(tmp_path, "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
        mesh = read_obj(path)
        assert mesh.faces.tolist() == [[0, 1, 2], [0, 2, 3]]

    def test_negative_index_rejected(self, tmp_path):
        path = _write(tmp_path, "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 -1\n")
        with pytest.raises(ObjParseError) as err:
            read_obj(path)
        assert err.value.line == 4

    def test_zero_index_rejected(self, tmp_path):
        path = _write(tmp_path, "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n")
        with pytest.raises(ObjParseError):
            read_obj(path)

    def test_missing_vertex_rejected(self, tmp_path):
        path = _write(tmp_path, "v 0 0 0\nv 1 0 0\nf 1 2 3\n")
        with pytest.raises(ObjParseError):
            read_obj(path)

    def test_bad_float_reports_line(self, tmp_path):
        for bad in ("oops", "nan", "inf", "-Infinity"):
            path = _write(tmp_path, f"v 0 0 0\nv {bad} 0 0\n")
            with pytest.raises(ObjParseError) as err:
                read_obj(path)
            assert err.value.line == 2

    def test_irrelevant_lines_ignored(self, tmp_path):
        text = (
            "# comment\nmtllib scene.mtl\no thing\ng part\ns off\nusemtl mat\n"
            "v 0 0 0\nvt 0 0\nvn 0 0 1\nv 1 0 0\nv 0 1 0\nf 1/1/1 2/1/1 3/1/1\n"
        )
        mesh = read_obj(_write(tmp_path, text))
        assert mesh.faces.tolist() == [[0, 1, 2]]

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_obj(tmp_path / "absent.obj")


class TestWriteObj:
    def test_quantized_roundtrip_is_exact(self, tetra, tmp_path):
        path = tmp_path / "tetra.obj"
        write_obj(tetra, path)
        assert quantize(read_obj(path), tetra.bits) == tetra

    def test_large_mesh_roundtrip_and_determinism(self, tmp_path):
        mesh = quantize(big_torus(), 7)
        assert len(mesh.faces) == 5500
        p1, p2 = tmp_path / "a.obj", tmp_path / "b.obj"
        write_obj(mesh, p1)
        write_obj(mesh, p2)
        assert hashlib.sha256(p1.read_bytes()).digest() == hashlib.sha256(
            p2.read_bytes()
        ).digest()
        assert quantize(read_obj(p1), 7) == mesh

    def test_real_mesh_write(self, tmp_path):
        mesh = MeshReal(
            np.array([[0.125, -0.25, 3.0], [1, 0, 0], [0, 1, 0]]), np.array([[0, 1, 2]])
        )
        path = tmp_path / "real.obj"
        write_obj(mesh, path)
        back = read_obj(path)
        assert np.allclose(back.vertices, mesh.vertices)

    def test_empty_mesh_rejected(self, tmp_path):
        with pytest.raises(EmptyMeshError):
            write_obj(QuantizedMesh([], [], 7), tmp_path / "empty.obj")

    @pytest.mark.parametrize(
        "vertices, faces, message",
        [
            ([(1, 2, 3, 4), (5, 6), (7, 8, 9)], [(0, 1, 2)], "vertex 0 holds 4 entries"),
            ([(0, 0, 0)] * 6, [(0, 1, 2, 3), (4, 5)], "face 0 holds 4 entries"),
            ([(0, 0, 0)] * 6, [(0, 1, 2), (3, 4, 5), (4, 5)], "face 2 holds 2 entries"),
        ],
        ids=["vertices", "faces", "short_face"],
    )
    def test_records_that_are_not_three_entries_rejected(self, tmp_path, vertices, faces, message):
        # Flattened, the first two meshes' records would read as well-formed triples.
        path = tmp_path / "shifted.obj"
        with pytest.raises(ValueError, match=message):
            write_obj(QuantizedMesh(vertices, faces, 7), path)
        assert not path.exists()


class TestBinaryStream:
    def test_single_triangle_file_is_36_bytes(self, triangle, tmp_path):
        path = tmp_path / "tri.tmts"
        write_stream(encode(triangle), path)
        data = path.read_bytes()
        assert len(data) == 11 + 3 * 7 + 3 * 1 + 1 == 36
        assert data[:4] == b"TMTS"
        assert data[4] == 1 and data[5] == 7 and data[6] == 0
        assert struct.unpack_from("<I", data, 7)[0] == 7

    def test_write_read_write_is_byte_identical(self, tetra, tmp_path):
        seq = encode(tetra)
        p1, p2 = tmp_path / "a.tmts", tmp_path / "b.tmts"
        write_stream(seq, p1)
        write_stream(_read_sequence(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_read_reconstructs_the_recorded_inputs(self, tetra, tmp_path):
        seq = encode(tetra)
        path = tmp_path / "t.tmts"
        write_stream(seq, path)
        back = _read_sequence(path)
        assert back == seq
        assert back.records == seq.records

    def test_bfs_flag_roundtrips(self, tetra, tmp_path):
        path = tmp_path / "t.tmts"
        write_stream(encode(tetra, "bfs"), path)
        assert path.read_bytes()[6] == 1
        assert _read_sequence(path).order == "bfs"

    def test_decode_through_files_matches_direct_decode(self, corpus7, tmp_path):
        for name, mesh in corpus7[:6]:
            seq = encode(mesh)
            path = tmp_path / f"{name}.tmts"
            write_stream(seq, path)
            assert decode(_read_sequence(path)) == decode(seq), name

    def _valid_bytes(self, triangle, tmp_path) -> bytes:
        path = tmp_path / "v.tmts"
        write_stream(encode(triangle), path)
        return path.read_bytes()

    def _expect_error(self, tmp_path, data: bytes):
        path = tmp_path / "bad.tmts"
        path.write_bytes(data)
        with pytest.raises(FormatError):
            read_stream_answers(path)

    def test_truncated_rejected(self, triangle, tmp_path):
        data = self._valid_bytes(triangle, tmp_path)
        self._expect_error(tmp_path, data[:-1])
        self._expect_error(tmp_path, data[:5])

    def test_trailing_bytes_rejected(self, triangle, tmp_path):
        self._expect_error(tmp_path, self._valid_bytes(triangle, tmp_path) + b"\x00")

    def test_bad_magic_rejected(self, triangle, tmp_path):
        data = bytearray(self._valid_bytes(triangle, tmp_path))
        data[:4] = b"XXXX"
        self._expect_error(tmp_path, bytes(data))

    def test_bad_version_rejected(self, triangle, tmp_path):
        data = bytearray(self._valid_bytes(triangle, tmp_path))
        data[4] = 9
        self._expect_error(tmp_path, bytes(data))

    def test_reserved_flags_rejected(self, triangle, tmp_path):
        data = bytearray(self._valid_bytes(triangle, tmp_path))
        data[6] = 0x02
        self._expect_error(tmp_path, bytes(data))

    def test_out_of_range_coordinate_rejected(self, triangle, tmp_path):
        data = bytearray(self._valid_bytes(triangle, tmp_path))
        struct.pack_into("<H", data, 12, 1 << 7)  # first vertex z >= 2**bits
        self._expect_error(tmp_path, bytes(data))

    def test_unknown_opcode_rejected(self, triangle, tmp_path):
        data = bytearray(self._valid_bytes(triangle, tmp_path))
        data[11] = 7
        self._expect_error(tmp_path, bytes(data))

    def test_missing_eos_rejected(self, triangle, tmp_path):
        # The file parses; replay, which judges where EOS falls, refuses it.
        data = bytearray(self._valid_bytes(triangle, tmp_path))
        path = tmp_path / "bad.tmts"
        data[-1] = 1  # EOS opcode overwritten with STOP
        path.write_bytes(bytes(data))
        bits, order, answers = read_stream_answers(path)
        with pytest.raises(IllegalAnswerError, match="stop answers SOS"):
            replay_outputs(answers, bits, order)
        struct.pack_into("<I", data, 7, len(answers) - 1)
        path.write_bytes(bytes(data[:-1]))  # the EOS cut, and counted out
        bits, order, answers = read_stream_answers(path)
        with pytest.raises(DesyncError, match="output stream has no terminal EOS"):
            replay_outputs(answers, bits, order)

    def test_structurally_impossible_stream_rejected(self, tmp_path):
        # STOP cannot answer the opening query: the file parses, replay refuses.
        path = tmp_path / "bad.tmts"
        path.write_bytes(b"TMTS" + struct.pack("<BBBI", 1, 7, 0, 2) + bytes([1, 2]))
        bits, order, answers = read_stream_answers(path)
        with pytest.raises(IllegalAnswerError, match="step 0: stop answers SOS"):
            replay_outputs(answers, bits, order)

    def test_truncated_sequence_cannot_be_written(self, triangle, tmp_path):
        seq = encode(triangle)
        broken = TokenSequence(seq.bits, seq.order, seq.outputs[:-1])
        with pytest.raises(MalformedSequenceError):
            write_stream(broken, tmp_path / "x.tmts")


class TestTextStream:
    def test_header_and_record_shapes(self, triangle, tmp_path):
        path = tmp_path / "t.jsonl"
        write_text_stream(encode(triangle), path)
        lines = path.read_text().splitlines()
        assert lines[0] == '{"magic":"TMTS","bits":7,"order":"dfs"}'
        assert lines[1].startswith('{"op":"v","z":')
        assert lines[4] == '{"op":"stop"}'
        assert lines[-1] == '{"op":"eos"}'

    def test_text_binary_interconvertible(self, tetra, tmp_path):
        seq = encode(tetra)
        tp, bp = tmp_path / "t.jsonl", tmp_path / "t.tmts"
        write_text_stream(seq, tp)
        via_text = _read_sequence(tp)
        write_stream(via_text, bp)
        assert _read_sequence(bp) == seq

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"magic":"NOPE","bits":7,"order":"dfs"}\n{"op":"eos"}\n')
        with pytest.raises(FormatError):
            read_stream_answers(path)

    def test_out_of_range_coordinate_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"magic":"TMTS","bits":7,"order":"dfs"}\n'
            '{"op":"v","z":200,"y":0,"x":0}\n{"op":"eos"}\n'
        )
        with pytest.raises(FormatError):
            read_stream_answers(path)

    def test_non_utf8_text_rejected_at_its_byte(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"magic":"TMTS","bits":7,"order":"dfs"}\n{"op":"e\xffos"}\n')
        with pytest.raises(FormatError, match="not UTF-8.*at byte 48") as err:
            read_stream_answers(path)
        assert err.value.offset == 48

    @pytest.mark.parametrize(
        "record",
        [
            "[1,2]",
            '{"op":"v","z":1,"y":2}',
            '{"op":"v","z":1,"y":2,"x":null}',
            '{"op":"v","z":1.9,"y":2.7,"x":3.99}',
            '{"op":"v","z":1,"y":2,"x":true}',
            '{"op":"v","z":1,"y":2,"x":' + "1" * 5000 + "}",
            '{"op":' + "[" * 100000 + "]" * 100000 + "}",
        ],
        ids=[
            "not_an_object",
            "missing_coordinate",
            "null",
            "fractional",
            "bool",
            "overlong_integer",
            "deeply_nested",
        ],
    )
    def test_malformed_record_names_its_line(self, tmp_path, record):
        path = tmp_path / "bad.jsonl"
        header = '{"magic":"TMTS","bits":7,"order":"dfs"}'
        path.write_text(f'{header}\n\n{record}\n{{"op":"eos"}}\n')  # record on line 3
        with pytest.raises(FormatError, match="line 3"):
            read_stream_answers(path)

    @pytest.mark.parametrize(
        "header, message",
        [
            ("[1,2]", "neither a binary nor a text token stream"),  # no text stream starts so
            ('{"magic":"TMTS","bits":true,"order":"dfs"}', "line 1"),
            ('{"magic":"TMTS","bits":7.5,"order":"dfs"}', "line 1"),
        ],
        ids=["not_an_object", "bool_bits", "fractional_bits"],
    )
    def test_malformed_header_names_its_line(self, tmp_path, header, message):
        path = tmp_path / "bad.jsonl"
        path.write_text(f'{header}\n{{"op":"eos"}}\n')
        with pytest.raises(FormatError, match=message):
            read_stream_answers(path)

    @pytest.mark.parametrize("write", [write_stream, write_text_stream])
    def test_plain_tuple_vertices_write_like_named_ones(self, tetra, tmp_path, write):
        seq = encode(tetra)
        plain = [PredictorAnswer(kind, v and tuple(v)) for kind, v in seq.outputs]
        write(seq, tmp_path / "named")
        write(TokenSequence(seq.bits, seq.order, plain), tmp_path / "plain")
        assert (tmp_path / "plain").read_bytes() == (tmp_path / "named").read_bytes()

    def test_answers_autodetect(self, triangle, tmp_path):
        seq = encode(triangle)
        tp, bp = tmp_path / "t.jsonl", tmp_path / "t.tmts"
        write_text_stream(seq, tp)
        write_stream(seq, bp)
        assert streamio.read_stream_answers(tp) == streamio.read_stream_answers(bp)


class TestWritersCheckTheSequence:
    """Both writers refuse, through ``check_well_formed``, what no reader
    would accept. The check does no geometry: a face that replay refuses is
    written."""

    @pytest.mark.parametrize("write", [write_stream, write_text_stream])
    def test_vertex_repeating_an_edge_endpoint_is_written(self, tmp_path, write):
        a, b = answer_vertex(QuantizedVertex(1, 2, 3)), answer_vertex(QuantizedVertex(4, 5, 6))
        outputs = [a, b, a, ANSWER_STOP, ANSWER_STOP, ANSWER_STOP, ANSWER_EOS]
        write(TokenSequence(7, "dfs", outputs), tmp_path / "x")
        bits, order, answers = read_stream_answers(tmp_path / "x")
        assert answers == outputs
        with pytest.raises(DesyncError, match="step 2: recorded vertex repeats an edge endpoint"):
            replay_outputs(answers, bits, order)

    @pytest.mark.parametrize("write", [write_stream, write_text_stream])
    def test_out_of_grid_vertex(self, triangle, tmp_path, write):
        seq = encode(triangle)
        seq.outputs[2] = answer_vertex(QuantizedVertex(0, 0, 200))
        with pytest.raises(MalformedSequenceError, match="record 2: .*7-bit grid"):
            write(seq, tmp_path / "x")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("write", [write_stream, write_text_stream])
    @pytest.mark.parametrize(
        "vertex",
        [QuantizedVertex(1.5, 0, 0), QuantizedVertex(0, True, 0), (0, 0, None), (0, 0), "abc"],
        ids=["float", "bool", "none", "two", "string"],
    )
    def test_vertex_that_is_not_three_ints(self, triangle, tmp_path, write, vertex):
        seq = encode(triangle)
        seq.outputs[2] = PredictorAnswer(VERTEX, vertex)
        with pytest.raises(MalformedSequenceError, match="record 2: .*not three integers"):
            write(seq, tmp_path / "x")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("write", [write_stream, write_text_stream])
    @pytest.mark.parametrize(
        "vertex", [QuantizedVertex(True, 0, 0), QuantizedVertex(1.0, 0, 0)], ids=["bool", "float"]
    )
    def test_vertex_equal_to_an_int_vertex_before_it(self, tmp_path, write, vertex):
        # ``vertex == (1, 0, 0)``, which record 0 holds; each is checked.
        a, b, c = (answer_vertex(QuantizedVertex(*p)) for p in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        triangle = [b, c, ANSWER_STOP, ANSWER_STOP, ANSWER_STOP]
        outputs = [a, *triangle, answer_vertex(vertex), *triangle, ANSWER_EOS]
        with pytest.raises(MalformedSequenceError, match="record 6: .*not three integers"):
            write(TokenSequence(7, "dfs", outputs), tmp_path / "x")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("write", [write_stream, write_text_stream])
    @pytest.mark.parametrize("bits, order", [(7, "xyz"), (17, "dfs"), (0, "dfs")])
    def test_bad_header_fields(self, triangle, tmp_path, write, bits, order):
        seq = encode(triangle)
        with pytest.raises(MalformedSequenceError):
            write(TokenSequence(bits, order, seq.outputs), tmp_path / "x")
        assert not (tmp_path / "x").exists()


def _mutations(n_bytes: int):
    """Up to three (position, byte) replacements of an ``n_bytes``-long file."""
    return st.lists(
        st.tuples(st.integers(0, n_bytes - 1), st.integers(0, 255)), min_size=1, max_size=3
    )


@pytest.mark.parametrize("order", ["dfs", "bfs"])
@pytest.mark.parametrize("write", [write_stream, write_text_stream], ids=["binary", "text"])
def test_byte_mutations_read_cleanly_or_raise_format_error(tmp_path, tetra, order, write):
    valid = tmp_path / "valid"
    write(encode(tetra, order), valid)
    data = valid.read_bytes()
    path = tmp_path / "mutant"

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_mutations(len(data)))
    def check(edits):
        mutant = bytearray(data)
        for i, byte in edits:
            mutant[i] = byte
        path.write_bytes(bytes(mutant))
        try:
            bits, got_order, answers = read_stream_answers(path)
        except FormatError:
            return
        try:
            replay_outputs(answers, bits, got_order)
        except (DesyncError, IllegalAnswerError):
            pass

    check()


class TestPointCloud:
    def test_xyz_line_count_and_precision(self, tmp_path):
        pts = np.random.default_rng(0).uniform(-0.5, 0.5, size=(8192, 3))
        path = tmp_path / "pc.xyz"
        write_pointcloud(pts, path, "xyz")
        lines = path.read_text().splitlines()
        assert len(lines) == 8192
        back = np.array([[float(t) for t in ln.split()] for ln in lines[:100]])
        assert np.allclose(back, pts[:100], atol=1e-8)

    def test_ply_header_and_body(self, tmp_path):
        pts = np.random.default_rng(1).uniform(size=(100, 3))
        path = tmp_path / "pc.ply"
        write_pointcloud(pts, path, "ply")
        data = path.read_bytes()
        header, _, body = data.partition(b"end_header\n")
        assert b"element vertex 100" in header
        assert b"format binary_little_endian 1.0" in header
        assert len(body) == 100 * 3 * 4
        assert np.allclose(
            np.frombuffer(body, dtype="<f4").reshape(-1, 3), pts, atol=1e-6
        )

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_pointcloud(np.zeros((0, 3)), tmp_path / "pc.xyz")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_pointcloud(np.ones((3, 3)), tmp_path / "pc.bin", "vox")
