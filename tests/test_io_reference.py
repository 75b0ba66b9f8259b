"""The file readers and writers and the grammar walk against the per-record
versions they replaced (kept in ``helpers`` as ``reference_*``): the same
results, the same bytes, and the same exception type, message, ``.line`` and
``.offset`` on every input."""

from __future__ import annotations

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from meshtok.core import Face, MeshReal, QuantizedMesh, QuantizedVertex
from meshtok.generator import GeneratorConfig, fuzz_predictor, run
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
    write_stream,
    write_text_stream,
)
from helpers import (
    reference_dumps_text_stream,
    reference_parse_stream_bytes,
    reference_parse_text_stream,
    reference_read_obj,
    reference_walk,
    reference_write_obj,
    reference_write_stream,
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
def _obj_line(draw, n_verts: int) -> str:
    """A vertex line, a face line over ``n_verts`` vertices (a few indices
    past them), or a line the reader ignores; one in eight tokens is bad."""
    kind = draw(st.sampled_from(["v"] * 4 + ["f"] * 5 + ["#", "", "vt", "vn", "o", "fx", "#v"]))
    if kind == "v":
        n = draw(st.sampled_from([3] * 6 + [2, 4]))
        tokens = draw(st.lists(_rare(_BAD_COORDS, _GOOD_COORDS), min_size=n, max_size=n))
    elif kind == "f":
        n = draw(st.sampled_from([3] * 5 + [4] * 3 + [1, 2, 5, 6]))
        heads = st.integers(1, n_verts + 1).map(str)
        suffix = _rare(st.sampled_from(["/1", "/1/2", "//3", "/"]), st.just(""))
        token = st.tuples(_rare(_BAD_HEADS, heads), suffix).map("".join)
        tokens = draw(st.lists(token, min_size=n, max_size=n))
    else:
        tokens = draw(st.lists(st.sampled_from(["1", "0.5", "name", "off"]), max_size=3))
    lead, trail = draw(st.sampled_from(["", "", " ", "\t"])), draw(st.sampled_from(["", " ", "\t"]))
    return lead + draw(_SEPARATORS).join([kind, *tokens]) + trail


@st.composite
def _obj_files(draw, repeats: bool = False) -> bytes:
    n_verts = draw(st.integers(3, 9))
    if repeats:  # lines drawn from a small pool, as an unwelded file repeats its vertices
        pool = draw(st.lists(_obj_line(n_verts), min_size=1, max_size=8))
        lines = draw(st.lists(st.sampled_from(pool), max_size=24))
    else:
        lines = draw(st.lists(_obj_line(n_verts), max_size=24))
    body = "".join(line + draw(_ENDS) for line in lines)
    if draw(st.booleans()):
        body = body.rstrip("\r\n")  # no end on the last line
    data = body.encode("utf-8")
    if draw(st.sampled_from([False] * 15 + [True])):  # text that is not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff\xfe" + data[at:]
    return data


def _compare_read_obj(path: Path, data: bytes) -> None:
    path.write_bytes(data)
    assert _outcome(read_obj, path) == _outcome(reference_read_obj, path)


# Each named case runs with the vertex-line memo as it ships (True) and with
# the memo given up after the first vertex line, so that every line is parsed
# (False).
_MEMO = pytest.mark.parametrize("memo", [True, False])


def _set_memo(monkeypatch, memo: bool) -> None:
    if not memo:
        monkeypatch.setattr(streamio, "_MEMO_TRIAL", 1)


@SETTINGS
@given(data=_obj_files())
def test_read_obj_matches_reference(tmp_path, data):
    _compare_read_obj(tmp_path / "m.obj", data)


@SETTINGS
@given(data=_obj_files(repeats=True), trial=st.sampled_from([1, 2, 3, 5, 1024]))
def test_read_obj_with_repeated_lines_matches_reference(tmp_path, monkeypatch, data, trial):
    # A small give-up point exercises both a memo that is kept and one that
    # is dropped after the first vertex lines turn out distinct.
    monkeypatch.setattr(streamio, "_MEMO_TRIAL", trial)
    _compare_read_obj(tmp_path / "m.obj", data)


_QUAD_CORNERS = ["v 0 0 0\n", "v 1 0 0\n", "v 1 1 0\n", "v 0 1 0\n", "v 0 0 1\n", "v 1 0 1\n"]
_UNWELDED = "".join(_QUAD_CORNERS[i] for i in (0, 1, 2, 3, 1, 5, 2, 4)) + "f 1 2 3 4\nf 5 6 7 8\n"
# 1,100 distinct vertex lines run past the give-up point; then repeats of the
# first ones, parsed again, and a face over both.
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
def _sequences(draw) -> TokenSequence:
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
        answer = draw(st.sampled_from(_ANSWERS))
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
