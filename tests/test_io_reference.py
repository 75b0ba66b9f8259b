"""The file readers and writers, the grammar walk and the machine's step
against the versions they replaced (kept in ``helpers`` as ``reference_*``
and ``ReferenceMachine``): the same results, the same bytes, and the same
exception type, message, ``.line`` and ``.offset`` on every input."""

from __future__ import annotations

import struct
import tempfile
from pathlib import Path
from typing import Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from meshtok.core import Face, MeshReal, QuantizedMesh, QuantizedVertex, dequantize_mesh
from meshtok import generator
from meshtok.generator import GeneratorConfig, answer_from_json, fuzz_predictor, replay_outputs, run
from meshtok.preprocess import augment
from meshtok.sequencer import (
    ANSWER_EOS,
    ANSWER_STOP,
    STOP,
    VERTEX,
    PredictorAnswer,
    TokenSequence,
    _walk,
    answer_vertex,
    sequence_stats,
)
from meshtok import streamio
from meshtok.streamio import (
    _parse_stream_bytes,
    _parse_text_stream,
    read_obj,
    write_obj,
    write_pointcloud,
    write_stream,
    write_text_stream,
)
from helpers import (
    ReferenceMachine,
    reference_edge_run,
    reference_dumps_text_stream,
    reference_parse_answer,
    reference_parse_stream_bytes,
    reference_parse_text_stream,
    reference_read_obj,
    reference_walk,
    reference_write_obj,
    reference_write_stream,
    reference_write_xyz,
)

SETTINGS = settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


def _outcome(fn, *args):
    """What a call did: ("ok", normalised result) or ("error", type, message,
    .line, .offset)."""
    try:
        result = fn(*args)
    except Exception as exc:  # the comparison is the point
        where = getattr(exc, "line", None), getattr(exc, "offset", None)
        return ("error", type(exc), str(exc), *where)
    if isinstance(result, MeshReal):
        result = tuple(
            (a.dtype.str, a.shape, a.tobytes()) for a in (result.vertices, result.faces)
        )
    return ("ok", result)


# --- Wavefront OBJ -----------------------------------------------------------

_GOOD_COORDS = st.one_of(
    st.floats(-2, 2, allow_nan=False, width=64).map(repr),
    st.sampled_from(["0", "-0", ".5", "1e-3", "+2.5", "1_0", "1E2"]),
)
_BAD_COORDS = st.sampled_from(["nan", "-nan", "inf", "-Infinity", "1e999", "oops", "1,5", "0x1"])
_BAD_HEADS = st.sampled_from(["0", "-1", "x", "1.5", "", "9" * 25, "-" + "9" * 25])
_SEPARATORS = st.sampled_from([" ", " ", " ", "\t", "  ", " \t"])
_ENDS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])


def _rare(strategy, common):
    """``strategy`` one draw in eight, else ``common``."""
    return st.sampled_from([False] * 7 + [True]).flatmap(lambda rare: strategy if rare else common)


@st.composite
def _obj_line(draw, n_verts: int, well_formed: bool = False, kind: Optional[str] = None) -> str:
    """A vertex line, a face line over ``n_verts`` vertices (a few indices
    past them), or a line the reader ignores; one in eight tokens is bad.
    A well-formed line has no bad token, a vertex line three coordinates
    and a face line three or more indices, none past ``n_verts``."""
    if kind is None:
        kind = draw(st.sampled_from(["v"] * 4 + ["f"] * 5 + ["#", "", "vt", "vn", "o", "fx", "#v"]))
    if kind == "v":
        n = 3 if well_formed else draw(st.sampled_from([3] * 6 + [2, 4]))
        coord = _GOOD_COORDS if well_formed else _rare(_BAD_COORDS, _GOOD_COORDS)
        tokens = draw(st.lists(coord, min_size=n, max_size=n))
    elif kind == "f":
        n = draw(st.sampled_from([3] * 5 + [4] * 3 + ([5, 6] if well_formed else [1, 2, 5, 6])))
        heads = st.integers(1, n_verts if well_formed else n_verts + 1).map(str)
        suffix = _rare(st.sampled_from(["/1", "/1/2", "//3", "/"]), st.just(""))
        token = st.tuples(heads if well_formed else _rare(_BAD_HEADS, heads), suffix).map("".join)
        tokens = draw(st.lists(token, min_size=n, max_size=n))
    else:
        tokens = draw(st.lists(st.sampled_from(["1", "0.5", "name", "off"]), max_size=3))
    lead, trail = draw(st.sampled_from(["", "", " ", "\t"])), draw(st.sampled_from(["", " ", "\t"]))
    return lead + draw(_SEPARATORS).join([kind, *tokens]) + trail


@st.composite
def _obj_files(draw, repeats: bool = False, well_formed: bool = False) -> bytes:
    """OBJ text of ``_obj_line`` lines; a well-formed file draws well-formed
    lines, holds ``n_verts`` more vertex lines among them, so that no face
    index is missing, and is UTF-8."""
    n_verts = draw(st.integers(3, 9))
    line = _obj_line(n_verts, well_formed)
    if repeats:  # lines drawn from a small pool, as an unwelded file repeats its vertices
        pool = draw(st.lists(line, min_size=1, max_size=8))
        lines = draw(st.lists(st.sampled_from(pool), max_size=24))
    else:
        lines = draw(st.lists(line, max_size=24))
    if well_formed:
        vertex = _obj_line(n_verts, well_formed, kind="v")
        lines = draw(st.permutations(lines + draw(st.lists(vertex, min_size=n_verts, max_size=n_verts))))
    body = "".join(line + draw(_ENDS) for line in lines)
    if draw(st.booleans()):
        body = body.rstrip("\r\n")  # no end on the last line
    data = body.encode("utf-8")
    if not well_formed and draw(st.sampled_from([False] * 15 + [True])):  # text that is not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff\xfe" + data[at:]
    return data


def _compare_read_obj(path: Path, data: bytes) -> None:
    path.write_bytes(data)
    want = _outcome(reference_read_obj, path)
    assert _outcome(read_obj, path) == want
    assert _outcome(streamio._read_obj_lines, path) == want


# Each named case runs with the vertex-line memo as it ships (True) and with
# batches of one line, so that the memo is given up after the first vertex
# line and every line is parsed (False).
_MEMO = pytest.mark.parametrize("memo", [True, False])


def _set_memo(monkeypatch, memo: bool) -> None:
    if not memo:
        monkeypatch.setattr(streamio, "_BATCH_CHARS", 1)


@SETTINGS
@given(data=_obj_files())
def test_read_obj_matches_reference(tmp_path, data):
    _compare_read_obj(tmp_path / "m.obj", data)


@SETTINGS
@given(data=_obj_files(repeats=True), batch=st.sampled_from([1, 8, 20, 40, 1 << 14]))
def test_read_obj_with_repeated_lines_matches_reference(tmp_path, monkeypatch, data, batch):
    # Small batches exercise both a memo that is kept and one that is
    # dropped after the first batch's vertex lines turn out distinct.
    monkeypatch.setattr(streamio, "_BATCH_CHARS", batch)
    _compare_read_obj(tmp_path / "m.obj", data)


_QUAD_CORNERS = ["v 0 0 0\n", "v 1 0 0\n", "v 1 1 0\n", "v 0 1 0\n", "v 0 0 1\n", "v 1 0 1\n"]
_UNWELDED = "".join(_QUAD_CORNERS[i] for i in (0, 1, 2, 3, 1, 5, 2, 4)) + "f 1 2 3 4\nf 5 6 7 8\n"
# 1,100 distinct vertex lines run past the first batch, so the memo is given
# up; then repeats of the first ones, parsed again, and a face over both.
_WELDED = "".join(f"v {i} {i / 8} {-i}\n" for i in range(1100))


@pytest.mark.parametrize(
    "text",
    [
        _UNWELDED,
        _UNWELDED.replace("\n", "\r\n"),  # CRLF line ends
        _UNWELDED + "v 0 1 0",  # the last line repeats a vertex but has no end
        "v 0 0 0\nv 1 0 0\nv 1 0 0\nv 0 0 x\nv 1 0 0\nv 0 0 x\n",  # a repeated bad coordinate
        "v 0 0 0\nv 0 0 nan\nv 1 0 0\nv 0 0 nan\nf 1 3 4\nf 1 2 3\n",  # nan at its first line
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 2 -4\nv 0 0 inf\nv 0 0 inf\n",
        "v 0 0 0 1\nv 1 0 0 1\nv 0 0 0 1\nv 0 1 0 1 x\nv 0 1 0 1 x\nf 1 2 4\nf 3 5 2\n",  # extra tokens
        "v 0 0 0\n v 0 0 0\nv 0 0 0 \nv  0 0 0\n\tv 0 0 0\nf 1 2 3\nf 3 4 5\n",  # same vertex, other text
        "v 1 2\nv 1 2\n",  # too few coordinates, twice
        _UNWELDED + "f 1 2 9\n",  # a missing vertex after repeats
        _WELDED + "v 0 0 0\nv 1 0.125 -1\nf 1 1101 1102\nf 2 1102 1101\n",
        _WELDED + "v 3 0.375 -3\nv nan 0 0\nv nan 0 0\nf 1 2 1104\n",
        "v 0 0 0\n" * 2000 + _WELDED + "f 1 2 3000\n",  # repeats from the start: the memo stays
    ],
    ids=[
        "unwelded", "crlf", "no_final_end", "bad_coord", "nan", "inf_after_faces", "extra_tokens",
        "other_text", "too_few", "missing_vertex", "welded", "welded_nan", "repeats_then_welded",
    ],
)
@_MEMO
def test_read_obj_repeated_vertex_lines_match_reference(tmp_path, monkeypatch, text, memo):
    _set_memo(monkeypatch, memo)
    _compare_read_obj(tmp_path / "m.obj", text.encode("utf-8"))


@_MEMO
def test_read_obj_skips_a_byte_order_mark(tmp_path, monkeypatch, memo):
    _set_memo(monkeypatch, memo)
    # A leading byte-order mark is no part of the first line's keyword.
    path = tmp_path / "m.obj"
    for text in ("v 0 0 0\n", _UNWELDED, "v 0 0 x\nf 1 2 3\n", "f 1 2 3\n", ""):
        path.write_bytes(text.encode("utf-8"))
        want = _outcome(reference_read_obj, path)
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert _outcome(read_obj, path) == want
    for data in (b"\xef", b"\xef\xbb", b"\xef\xbbv 0 0 0\n"):  # a cut mark is not UTF-8
        _compare_read_obj(path, data)


@pytest.mark.parametrize(
    "text",
    [
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 3 4\nf 2/1/1 3/1/1 4/1/1\nf 1 3 4\n",
        "f 1 2 3\nf 3 2 4\nv 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\n",  # vertices after faces
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 5\nv 0 0 nan\n",  # non-finite beats a missing index
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3 0\nf 1 2 -1\nv 0 0 x\n",  # zero, in a quad, first
        "v 0 0 0\nv inf 1 0\nf 1 2 -3\n",
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 7\nf 1 2 3 4 9\nf 3 2 1\n",
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 2 3 0\nf 1/1 2 -1\n",
        "",
    ],
)
@_MEMO
def test_read_obj_examples_match_reference(tmp_path, monkeypatch, text, memo):
    _set_memo(monkeypatch, memo)
    _compare_read_obj(tmp_path / "m.obj", text.encode("utf-8"))


# --- the batch path for well-formed files ------------------------------------
#
# A file whose `v` lines have three coordinates and whose `f` lines have three
# or more positive indices (`a/b/c` references allowed) is read in batches by
# ``_read_plain_obj``, which ignores every other line; the rest, and every
# error, goes to the line reader ``_read_obj_lines``. Each case below checks
# both paths against the reference, with batches cut down so that they split
# the file at every line.

_PLAIN_COORDS = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False, width=64).map(repr),
    st.floats(-2, 2, allow_nan=False, width=32).map("{:.9g}".format),
    st.sampled_from(["0", "-0", ".5", "1e-3", "+2.5", "1_0", "1E2", "-0.0"]),
)


@st.composite
def _plain_obj_files(draw) -> tuple[bytes, bytes]:
    """A plain file, and the same text without a byte-order mark for the
    reference, which does not skip one."""
    n_verts = draw(st.integers(1, 9))
    vertex = st.lists(_PLAIN_COORDS, min_size=3, max_size=3).map(lambda c: "v " + " ".join(c))
    if draw(st.booleans()):  # repeated vertex lines, as in an unwelded file
        pool = draw(st.lists(vertex, min_size=1, max_size=4))
        verts = draw(st.lists(st.sampled_from(pool), min_size=n_verts, max_size=n_verts))
    else:
        verts = draw(st.lists(vertex, min_size=n_verts, max_size=n_verts))
    sizes = draw(st.sampled_from([[3], [4], [3, 4]]))  # triangles, quads or both
    index = st.integers(1, n_verts).map(str)
    face = st.sampled_from(sizes).flatmap(lambda k: st.lists(index, min_size=k, max_size=k))
    faces = ["f " + " ".join(f) for f in draw(st.lists(face, max_size=12))]
    if draw(st.booleans()):  # vertices first, as write_obj writes them
        lines = verts + faces
    else:
        lines = draw(st.permutations(verts + faces))
    end = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    text = "".join(line + end for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no end on the last line
    data = text.encode("utf-8")
    bom = b"\xef\xbb\xbf" if draw(st.sampled_from([False] * 3 + [True])) else b""
    return bom + data, data


def _compare_both_paths(path: Path, data: bytes, reference_data: bytes | None = None) -> bool:
    """``read_obj`` and the line reader against the reference on ``data``;
    whether the batch path took the file."""
    path.write_bytes(data if reference_data is None else reference_data)
    want = _outcome(reference_read_obj, path)
    path.write_bytes(data)
    assert _outcome(read_obj, path) == want
    assert _outcome(streamio._read_obj_lines, path) == want
    return streamio._read_plain_obj(path) is not None


@SETTINGS
@given(
    files=_plain_obj_files(),
    batch=st.sampled_from([1, 2, 30, 1 << 16]),
)
def test_plain_files_take_the_batch_path(tmp_path, monkeypatch, files, batch):
    # The batch size moves the point where the memo is kept or given up.
    data, reference_data = files
    monkeypatch.setattr(streamio, "_BATCH_CHARS", batch)
    assert _compare_both_paths(tmp_path / "m.obj", data, reference_data)


_PLAIN_HEAD = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nv 0.5 0.5 1\n"


@pytest.mark.parametrize(
    "text",
    [
        _PLAIN_HEAD + "f 1 2 3 4\nv 1e999 0 0\nf 1 2 5\n",  # a coordinate that overflows
        _PLAIN_HEAD + "f 1 2 3\nf 0 1 2\n",  # a zero index
        _PLAIN_HEAD + "f 1 2 3\nf -1 2 3\n",  # a negative index
        _PLAIN_HEAD + "f 1 2 3 4\nf 1 2 6\nf 2 3 5\n",  # a missing vertex
        _PLAIN_HEAD + "f 1 2 3 4\nf 1 2 3 9\n",  # a missing vertex in a quad
        _PLAIN_HEAD + "f 1 2 3 4\nf 2 3 5\nf 1 f 2 5 3\n",  # a 3-index line among 4-index lines
        _PLAIN_HEAD + "f 1 2 3 4\nf 2 3\n",  # too few indices
        _PLAIN_HEAD + "f 1 2 3 4\nf 2 3 x 5\n",
        _PLAIN_HEAD + "f 1 2 3 4\nf 2 3 4 99999999999999999999999\n",  # beyond int64
        _PLAIN_HEAD + "v 1 2\nf 1 2 3\n",  # too few coordinates
        _PLAIN_HEAD + "v 1 2 v\nv 3 4 5\nf 1 2 3\n",  # "v" where a coordinate belongs
        _PLAIN_HEAD + "v 1 2\nv 3 4 5 6\nf 1 2 3\n",  # eight tokens on two vertex lines
        _PLAIN_HEAD + "v 0 nan 0\n",
        _PLAIN_HEAD + "v 0 0 0x1\n",
    ],
    ids=[
        "overflow", "zero_index", "negative_index", "missing_vertex", "missing_in_quad",
        "three_among_four", "too_few_indices", "bad_index", "index_beyond_int64",
        "too_few_coords", "v_as_coord", "short_then_long", "nan", "hex_coord",
    ],
)
@pytest.mark.parametrize("batch", [1, 1 << 16])
def test_plain_looking_errors_go_to_the_line_reader(tmp_path, monkeypatch, text, batch):
    monkeypatch.setattr(streamio, "_BATCH_CHARS", batch)
    path = tmp_path / "m.obj"
    assert not _compare_both_paths(path, text.encode("utf-8"))
    assert _outcome(read_obj, path)[0] == "error"


@pytest.mark.parametrize(
    "text",
    [
        _PLAIN_HEAD + "f 1 2 3 4\nf 2 3 5\nf 1 2 5\nf 3 4 5 1\n",  # triangles among quads
        _PLAIN_HEAD + "f 1 2 3 4 5\nf 1 2 3\n",  # a pentagon
        "f 1 2 3\nf 1 3 4\n" + _PLAIN_HEAD,  # faces before their vertices
        _PLAIN_HEAD + "f 1  2\t3\n",  # other whitespace between tokens
        _PLAIN_HEAD + "f +1 2 3\nv 1_0 +2.5 -0\n",  # signs and underscores, as int and float read them
        _PLAIN_HEAD * 3 + "f 1 7 13\n",
    ],
    ids=["mixed", "pentagon", "faces_first", "whitespace", "signs", "repeats"],
)
@pytest.mark.parametrize("batch", [1, 1 << 16])
def test_plain_files_with_mixed_lines(tmp_path, monkeypatch, text, batch):
    monkeypatch.setattr(streamio, "_BATCH_CHARS", batch)
    assert _compare_both_paths(tmp_path / "m.obj", text.encode("utf-8"))


_BLENDER = (
    "# Blender 4.1\nmtllib m.mtl\no Cube\n"
    + _PLAIN_HEAD
    + "vn 0 0 -1\nvn 0 0 1\nvt 0 0\nvt 1 0\ns 0\nusemtl Material\n"
    + "f 1//1 4//1 3//1 2//1\nf 1/1/2 2/2/2 5/1/2\nf 2/2 3/1 5/2\n"
)


@pytest.mark.parametrize(
    "text",
    [
        "# a comment\n" + _PLAIN_HEAD + "f 1 2 3\n",
        _PLAIN_HEAD + "f 1/1 2/2 3/3\n",
        _PLAIN_HEAD + "vn 0 0 1\nf 1 2 3\n",
        _PLAIN_HEAD + "\nf 1 2 3\n",  # a blank line
        _PLAIN_HEAD + " f 1 2 3\n",  # a leading space
        _PLAIN_HEAD + "v\t1 2 3\nf 1 2 6\n",
        _BLENDER,
        _PLAIN_HEAD + "f 1//1 2//1 3//1 4//1\nf 1//2 2//2 5//2\n",  # slashes, mixed sizes
        "#v 1 2\n\n" + _PLAIN_HEAD + "g a\nf 1 2 3 4 5\nvt 1\nf 1/ 2/ 3/\n",
    ],
    ids=[
        "comment", "slashes", "normal", "blank", "leading_space", "tab", "blender",
        "slashes_mixed", "other_keywords",
    ],
)
@pytest.mark.parametrize("batch", [1, 1 << 16])
def test_exported_files_take_the_batch_path(tmp_path, monkeypatch, text, batch):
    monkeypatch.setattr(streamio, "_BATCH_CHARS", batch)
    assert _compare_both_paths(tmp_path / "m.obj", text.encode("utf-8"))


@pytest.mark.parametrize(
    "text",
    [
        _PLAIN_HEAD + "v 1 2 3 1\nf 1 2 6\n",  # a vertex weight
        _PLAIN_HEAD + "v 1 2 3 # a comment\nf 1 2 6\n",
    ],
    ids=["weight", "trailing_comment"],
)
def test_other_valid_files_take_the_line_reader(tmp_path, text):
    assert not _compare_both_paths(tmp_path / "m.obj", text.encode("utf-8"))


def _reads_three_coordinates(path: Path) -> bool:
    """Whether the reference reads the file and each of its `v` lines has
    exactly three coordinates."""
    try:
        reference_read_obj(path)
    except (ValueError, UnicodeDecodeError):
        return False
    with open(path, encoding="utf-8") as fh:
        return all(len(parts) == 4 for parts in map(str.split, fh) if parts[:1] == ["v"])


@SETTINGS
@given(data=_obj_files(well_formed=True), batch=st.sampled_from([1, 30, 1 << 16]))
def test_well_formed_files_take_the_batch_path(tmp_path, monkeypatch, data, batch):
    # _obj_files draws no byte-order mark, which the reference does not skip.
    path = tmp_path / "m.obj"
    path.write_bytes(data)
    assume(_reads_three_coordinates(path))
    monkeypatch.setattr(streamio, "_BATCH_CHARS", batch)
    assert streamio._read_plain_obj(path) is not None


def test_written_files_take_the_batch_path(tmp_path, corpus7):
    # Every OBJ that meshtok writes: quantized meshes, as preprocess and
    # detokenize write them, and real ones, as augment writes them.
    path = tmp_path / "m.obj"
    for name, mesh in corpus7:
        for written in (mesh, augment(dequantize_mesh(mesh), seed=3)):
            write_obj(written, path)
            assert streamio._read_plain_obj(path) is not None, name


@pytest.mark.parametrize("bad", ["v 0 0 nan\n", "f 1 0 2\n", ""])
def test_read_obj_error_before_undecodable_text_in_a_later_block(tmp_path, bad):
    # The file is decoded block by block: an error on an early line comes
    # before a decoding error in a block that the line does not share.
    good = "v 0.125 0.25 0.5\n" * 2000
    data = ("v 0 0 0\n" + bad + good + "f 1 2 3\n").encode() + b"v \xff 0 0\n"
    _compare_read_obj(tmp_path / "m.obj", data)


# --- token-stream readers ----------------------------------------------------

_TEXT_RECORDS = _rare(
    st.sampled_from(
        [
            '{"op":"v","z":1,"y":2,"x":true}',
            '{"op":"v","z":1.5,"y":2,"x":3}',
            '{"op":"v","z":1,"y":2}',
            '{"op":"halt"}',
            "[1]",
            "{oops",
            ' {"op": "stop"} ',
            '{"x":1,"op":"v","y":1,"z":1}',
            '{"op":"v","z":1,"y":2,"x":65536}',
            '{"op":"v","z":-1,"y":2,"x":3}',
            '{"op":"eos"}',
            # Near the canonical form that ``_parse_answer`` converts directly:
            '{"op":"v","z":01,"y":2,"x":3}',
            '{"op":"v","z":-0,"y":2,"x":3}',
            '{"op":"v","z":\u0661,"y":2,"x":3}',  # ARABIC-INDIC DIGIT ONE, which int reads
            '{"op":"v","z":1.0,"y":2,"x":3}',
            '{"op":"v","z":1e2,"y":2,"x":3}',
            '{"op":"v","z":true,"y":2,"x":3}',
            '{"op":"v","z":100000,"y":2,"x":3}',
            '{"op":"v","z":0,"y":0,"x":065535}',
            '{"op":"v","x":3,"y":2,"z":1}',
            '{"op":"v","z":1,"y":2,"x":3,"w":0}',
            '{"op":"v","z":1,"y":2,"x":3,"x":4}',
            '{"op": "v", "z": 1, "y": 2, "x": 3}',
            '{"op":"v","z":1,"y":2,"x":3}}',
            '{"op":"stop","x":1}',
            '{"op":"eos" }',
        ]
    ),
    st.builds(
        '{{"op":"v","z":{},"y":{},"x":{}}}'.format,
        st.integers(0, 3),
        st.integers(0, 3),
        st.sampled_from([0, 1, 2, 127, 128, 511, 512, 65535]),
    )
    | st.sampled_from(['{"op":"stop"}', "", "  "]),
)
_TEXT_HEADERS = st.sampled_from(
    [f'{{"magic":"TMTS","bits":{b},"order":"{o}"}}' for b in (1, 7, 9, 16) for o in ("dfs", "bfs")]
    + ['{"magic":"TMTS","bits":7,"order":"dfs"}'] * 12
    + [
        '{"magic":"TMTS","bits":0,"order":"dfs"}',
        '{"magic":"TMTS","bits":true,"order":"dfs"}',
        '{"magic":"TMTS","bits":7,"order":"xyz"}',
        '{"magic":"NOPE","bits":7,"order":"dfs"}',
        "[1,2]",
        "",
    ]
)
_TEXT_ENDS = st.sampled_from(["\n"] * 6 + ["\r\n", "\r", "\x0b", "\u2028", " "])


@st.composite
def _text_streams(draw) -> str:
    pool = draw(st.lists(_TEXT_RECORDS, min_size=1, max_size=6))
    body = draw(st.lists(st.sampled_from(pool), max_size=30))  # many repeats
    if draw(st.sampled_from([True] * 3 + [False])):
        body.append('{"op":"eos"}')
    lines = [draw(_TEXT_HEADERS), *body]
    return "".join(line + draw(_TEXT_ENDS) for line in lines)


@SETTINGS
@given(_text_streams())
def test_text_stream_parser_matches_reference(text):
    assert _outcome(_parse_text_stream, text) == _outcome(reference_parse_text_stream, text)


@SETTINGS
@given(_TEXT_RECORDS, st.sampled_from(["", "", "\n", "\r\n", " "]))
def test_answer_from_json_matches_reference(record, end):
    line = record + end  # a pipe's line keeps its newline
    assert _outcome(answer_from_json, line) == _outcome(reference_parse_answer, line, "answer line")


_OPS = _rare(
    st.sampled_from([b"\x02", b"\x03", b"\xff"]),
    st.tuples(
        st.just(0),
        st.sampled_from([0, 1, 5, 127, 128, 511, 512, 65535]),
        st.sampled_from([0, 1, 5, 127]),
        st.sampled_from([0, 3]),
    ).map(lambda r: struct.pack("<BHHH", *r))
    | st.just(b"\x01"),
)


@st.composite
def _binary_streams(draw) -> bytes:
    pool = draw(st.lists(_OPS, min_size=1, max_size=6))
    records = draw(st.lists(st.sampled_from(pool), max_size=30))  # many repeats
    if draw(st.sampled_from([True] * 3 + [False])):
        records.append(b"\x02")
    count = len(records) + draw(st.sampled_from([0] * 12 + [-1, 1, 1000]))
    header = (
        draw(st.sampled_from([b"TMTS"] * 8 + [b"TMTX"]))
        + bytes([draw(st.sampled_from([1] * 8 + [2]))])
        + bytes([draw(st.sampled_from([1, 2, 7, 9, 16] * 4 + [0, 17]))])
        + bytes([draw(st.sampled_from([0, 1] * 6 + [2]))])
        + struct.pack("<I", max(count, 0))
    )
    data = header + b"".join(records)
    cut = draw(st.sampled_from([0] * 12 + [1, 3, 6, 20]))  # truncates a repeated record too
    tail = draw(st.sampled_from([b""] * 12 + [b"\x00", b"\x01\x02"]))
    return data[: len(data) - cut] + tail


@SETTINGS
@given(_binary_streams())
def test_binary_stream_parser_matches_reference(data):
    assert _outcome(_parse_stream_bytes, data) == _outcome(reference_parse_stream_bytes, data)


def test_bad_record_after_a_good_copy_of_itself():
    # A repeat is bad where its first copy was good: cut short, or a second EOS.
    good = struct.pack("<BHHH", 0, 1, 2, 3)
    for n in range(1, 7):
        data = b"TMTS" + struct.pack("<BBBI", 1, 7, 0, 3) + good + b"\x01" + good[:n]
        new, ref = _outcome(_parse_stream_bytes, data), _outcome(reference_parse_stream_bytes, data)
        assert new == ref and new[0] == "error"
    text = '{"magic":"TMTS","bits":7,"order":"dfs"}\n{"op":"eos"}\n{"op":"eos"}\n'
    new, ref = _outcome(_parse_text_stream, text), _outcome(reference_parse_text_stream, text)
    assert new == ref and new[0] == "error"


# --- writers and the grammar walk --------------------------------------------

_ANSWERS = [
    ANSWER_STOP,
    ANSWER_EOS,
    answer_vertex(QuantizedVertex(0, 0, 0)),
    answer_vertex(QuantizedVertex(1, 1, 1)),
    answer_vertex(QuantizedVertex(2, 0, 1)),
    answer_vertex(QuantizedVertex(128, 0, 1)),
    answer_vertex(QuantizedVertex(0, -1, 1)),
    answer_vertex(QuantizedVertex(0, 1, 65536)),
    PredictorAnswer(STOP, QuantizedVertex(0, 0, 0)),
    PredictorAnswer("eos", QuantizedVertex(0, 0, 0)),
    PredictorAnswer(VERTEX, None),
    PredictorAnswer("halt"),
]


@st.composite
def _sequences(draw, answers=tuple(_ANSWERS)) -> TokenSequence:
    bits = draw(st.sampled_from([1, 2, 3, 7, 9, 16]))
    order = draw(st.sampled_from(["dfs", "bfs"]))
    result = run(
        fuzz_predictor(draw(st.integers(0, 10**6)), bits),
        GeneratorConfig(bits=bits, order=order, max_steps=200),
    )
    outputs = list(result.transcript.outputs)
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 1, 2, 3]))):
        at = draw(st.integers(0, len(outputs)))
        edit = draw(st.sampled_from(["replace", "insert", "delete", "repeat"]))
        answer = draw(st.sampled_from(answers))
        if edit == "replace" and at < len(outputs):
            outputs[at] = answer
        elif edit == "insert":
            outputs.insert(at, answer)
        elif edit == "delete" and at < len(outputs):
            del outputs[at]
        elif edit == "repeat" and outputs:
            outputs.insert(at, outputs[draw(st.integers(0, len(outputs) - 1))])
    bits = draw(st.sampled_from([bits] * 12 + [0, 17]))
    order = draw(st.sampled_from([order] * 12 + ["xyz"]))
    truncated = draw(st.sampled_from([False] * 12 + [True]))
    return TokenSequence(bits, order, outputs, truncated)


@SETTINGS
@given(_sequences())
def test_walk_matches_reference(seq):
    assert _outcome(_walk, seq) == _outcome(reference_walk, seq)


# Vertices the machine refuses as not three ints, a bool or a float equal to
# an int vertex among them.
_NON_INT_ANSWERS = [
    answer_vertex((1.5, 0, 0)),
    answer_vertex((1.0, 1, 1)),
    answer_vertex(QuantizedVertex(True, 0, 0)),
    PredictorAnswer(VERTEX, (1, 2)),
    PredictorAnswer(VERTEX, "abc"),
]


def _run_result(result):
    """A RunResult with each face's type, so a plain tuple shows."""
    mesh = result.mesh
    faces = [(type(f), f) for f in mesh.faces]
    return mesh.vertices, faces, mesh.bits, result.transcript, result.halt, result.components


def _machine_outcomes(seq: TokenSequence, duplicate_check: bool, run) -> list:
    """What strict replay, derived records and ``run`` answering with the
    outputs of ``seq`` do."""
    outputs = seq.outputs

    def predict(query):
        return outputs[query.step] if query.step < len(outputs) else ANSWER_EOS

    cfg = GeneratorConfig(seq.bits, seq.order, duplicate_check, max_steps=len(outputs) + 1)
    return [
        _outcome(lambda: _run_result(replay_outputs(outputs, seq.bits, seq.order))),
        _outcome(lambda: TokenSequence(seq.bits, seq.order, list(outputs)).records),
        _outcome(lambda: _run_result(run(predict, cfg))),
    ]


@SETTINGS
@given(_sequences(tuple(_ANSWERS + _NON_INT_ANSWERS)), st.booleans())
def test_machine_matches_reference(seq, duplicate_check):
    # Replay and records against ReferenceMachine; ``run``, whose machine
    # applies the face rules, against the adjusting run it replaced.
    new = _machine_outcomes(seq, duplicate_check, run)
    with mock.patch.object(generator, "_Machine", ReferenceMachine):
        ref = _machine_outcomes(seq, duplicate_check, reference_edge_run)
    assert new == ref


def _written(write, obj, path: Path):
    """The outcome of writing ``obj`` to ``path`` and the bytes left there."""
    path.unlink(missing_ok=True)
    outcome = _outcome(write, obj, path)
    return outcome, path.read_bytes() if path.exists() else None


def _reference_write_stream(seq: TokenSequence, path: Path):
    """The old binary writer, returning what the new one returns: the stats
    of the walk that checked ``seq``."""
    reference_write_stream(seq, path)
    return sequence_stats(seq)


def _reference_write_text_stream(seq: TokenSequence, path: Path):
    path.write_text(reference_dumps_text_stream(seq), encoding="utf-8")
    return sequence_stats(seq)


@SETTINGS
@given(_sequences())
def test_stream_writers_match_reference(seq):
    with tempfile.TemporaryDirectory() as tmp:
        new, ref = Path(tmp) / "new", Path(tmp) / "ref"
        assert _written(write_stream, seq, new) == _written(_reference_write_stream, seq, ref)
        assert _written(write_text_stream, seq, new) == _written(
            _reference_write_text_stream, seq, ref
        )


@st.composite
def _quantized_meshes(draw) -> QuantizedMesh:
    bits = draw(st.integers(1, 16))
    coord = st.integers(0, (1 << bits) - 1) | st.sampled_from([0, (1 << bits) - 1])
    vertices = draw(st.lists(st.builds(QuantizedVertex, coord, coord, coord), max_size=12))
    index = st.integers(0, max(len(vertices) - 1, 0)) | st.integers(-2, len(vertices) + 2)
    faces = draw(st.lists(st.builds(Face, index, index, index), max_size=12))
    return QuantizedMesh(vertices, faces, bits)


@st.composite
def _real_meshes(draw) -> MeshReal:
    n = draw(st.integers(0, 8))
    coord = st.floats(allow_infinity=True, allow_nan=True, width=64)
    vertices = draw(st.lists(st.tuples(coord, coord, coord), min_size=n, max_size=n))
    index = st.integers(-1, n + 1)
    faces = draw(st.lists(st.tuples(index, index, index), max_size=8))
    return MeshReal(np.asarray(vertices, dtype=np.float64), np.asarray(faces, dtype=np.int64))


@SETTINGS
@given(st.one_of(_quantized_meshes(), _real_meshes()))
def test_write_obj_matches_reference(mesh):
    with tempfile.TemporaryDirectory() as tmp:
        new, ref = Path(tmp) / "new.obj", Path(tmp) / "ref.obj"
        assert _written(write_obj, mesh, new) == _written(reference_write_obj, mesh, ref)


@SETTINGS
@given(st.lists(st.floats(allow_infinity=True, allow_nan=True, width=64), max_size=24))
def test_write_xyz_matches_reference(coords):
    points = np.asarray(coords[: len(coords) // 3 * 3], dtype=np.float64)
    with tempfile.TemporaryDirectory() as tmp:
        new, ref = Path(tmp) / "new.xyz", Path(tmp) / "ref.xyz"
        assert _written(write_pointcloud, points, new) == _written(reference_write_xyz, points, ref)
