"""Bit-exact file formats.

Token stream (binary, extension .tmts):
    header (11 bytes): magic b"TMTS" | version u8 = 1 | bits u8 | flags u8
                       (bit0: 0 = DFS, 1 = BFS, rest zero) | record count u32 LE
    records: opcode u8 (0 = VERTEX, 1 = STOP, 2 = EOS); VERTEX is followed by
             z, y, x as three u16 LE grid coordinates.

Only step outputs are stored, exactly what a ``TokenSequence`` holds; the
decoder's stack machine re-derives every input on replay, which is what
makes two tokens per face real at the file level. The writers check the
sequence first, with the one grammar walk that ``sequence_stats`` makes, and
return its ``SequenceStats``. Each rule of a stream is checked in one place.
``read_stream_answers`` checks the header and the bytes: bad magic, trailing
bytes and text that is not UTF-8 are a FormatError. The record decoder
checks each record: a text line that holds a line break, a malformed
record and an out-of-range coordinate are a FormatError. Whether the
outputs form a transcript the machine can replay, with one EOS as its last
output, is for ``generator.replay_outputs`` to decide; that replay is
strict, keeps every recorded face and adjusts no answer.

Token stream (text): one JSON object per line, same information as binary.
    {"magic":"TMTS","bits":7,"order":"dfs"}
    {"op":"v","z":Z,"y":Y,"x":X} | {"op":"stop"} | {"op":"eos"}
The header is the first line: no byte-order mark or blank line comes before
it. Lines end at "\\n" or "\\r\\n" only, and later blank lines are skipped;
any other character at which ``str.splitlines`` would break a line is an
error in the line that holds it.

Both forms convert losslessly into each other. The pipe protocol for
external predictors (``generator.PipePredictor``) answers with the same
records.

A mesh repeats few distinct records: each vertex appears once as a VERTEX
output, and a grid has few distinct coordinates. So the binary reader
converts each distinct 6 coordinate bytes once and looks their repeats up.
The text reader converts the whole body in a few calls: it matches the
distinct vertex lines with one ``findall`` of the form the writer gives
them, converts each distinct coordinate string once, checks every
coordinate against the grid with one ``max`` and maps every line through
that table in one call. A text stream that fails a check on that path, as
every bad one does, is read again line by line, which names the first bad
line; a line in another JSON form, spaces or another key order, goes
through the JSON decoder, which gives the same answer or the same error.
Both readers build vertex answers with ``tuple.__new__``.
``write_text_stream`` formats each distinct answer once, and
``write_obj`` each distinct grid coordinate and face index, then builds each
section with one ``str.format`` call. ``read_obj`` reads
a well-formed OBJ file in batches of about 2^14 characters: its ``v`` lines
of three coordinates and its ``f`` lines of three or more indices (``a/b/c``
references allowed) are joined, split into tokens and converted in a few
whole-batch calls, each distinct vertex line of the file once, and every
other line is ignored. Any other file, and any file with an error, goes to
the line reader, which checks each line as it reads it. Every error still
names the first bad line or record, exactly as a record-by-record reader
would.
"""

from __future__ import annotations

import json
import math
import re
import struct
from itertools import chain, compress, filterfalse, repeat
from operator import not_
from pathlib import Path
from typing import Collection, Union

import numpy as np

from .core import (
    MeshReal,
    QuantizedMesh,
    QuantizedVertex,
    dequantize_coord,
    require_triples,
    valid_bits,
)
from .preprocess import OutOfRangeError
from .sequencer import (
    ANSWER_EOS,
    ANSWER_STOP,
    BFS,
    DFS,
    STOP,
    VERTEX,
    PredictorAnswer,
    SequenceStats,
    TokenSequence,
    answer_vertex,
    sequence_stats,
)

MAGIC = b"TMTS"
VERSION = 1

_OP_VERTEX = 0
_OP_STOP = 1
_OP_EOS = 2


class FormatError(ValueError):
    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)


class ObjParseError(ValueError):
    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


class EmptyMeshError(ValueError):
    pass


class _Once(dict):
    """``table[key]`` is ``make(key)``, computed on the first lookup of each
    distinct key only."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _fill(template: str, rows: int, values) -> str:
    """Text of ``rows`` lines, ``template`` filled in turn from ``values``,
    in one format call over the template repeated once per line."""
    return (template * rows).format(*values)


# --- Wavefront OBJ -----------------------------------------------------------


# Characters of text the batch reader asks ``readlines`` for at a time, a few
# hundred lines. A batch's lines and tokens are the reader's largest
# temporaries. Batches of 2^13 to 2^16 characters read the benchmark's files
# equally fast; at this size the reader's tracemalloc peak on its codec and
# intake files stayed below the line reader's, and 2^16 did not.
_BATCH_CHARS = 1 << 14


def read_obj(path: Union[str, Path]) -> MeshReal:
    """Parse `v` and `f` lines (1-based indices, `a/b/c` references allowed);
    everything else is ignored. Polygons are fan-triangulated.

    The file is read as UTF-8 and a leading byte-order mark is skipped. A
    file whose `v` lines have three coordinates and whose `f` lines have
    three or more indices is parsed in batches of lines by
    ``_read_plain_obj``; comments, blank lines and other keywords are
    ignored. Any other file, such as one with a fourth vertex coordinate, and
    every file with an error in it, is read again from its start by the line
    reader, ``_read_obj_lines``, which names the first bad line. Both give
    the same mesh.
    """
    mesh = _read_plain_obj(path)
    return mesh if mesh is not None else _read_obj_lines(path)


def _read_plain_obj(path: Union[str, Path]) -> MeshReal | None:
    """The mesh of a file of `v` and `f` lines and lines it ignores, or None
    once a `v` line has other than three coordinates, a token does not parse,
    a coordinate is not finite, an index is below 1 or past the last vertex,
    or the text is not UTF-8.

    Each ``readlines`` batch is counted into vertex and face lines by
    searching its joined text for line starts "v " and "f "; a batch that
    holds both kinds is split line by line, and one that holds other lines
    too is sorted by each line's first token. Each kind is joined and split
    into tokens once and converted by ``float`` or ``int`` mapped over the
    tokens. A vertex line that repeats an earlier one, as every shared
    corner of an unwelded file does, is converted once and looked up after;
    when the vertex lines of the first batch that holds any are all
    distinct, the file is taken as welded and repeats are no longer looked
    for.
    """
    row_parts: list[np.ndarray] = []  # coordinates of the vertex lines parsed
    index_parts: list[np.ndarray] = []  # each vertex line's row, while the memo is kept
    tri_parts: list[np.ndarray] = []
    n_rows = n_verts = 0
    # Vertex line -> its row; None once the first batch of vertex lines
    # turned out all distinct.
    memo: dict[str, int] | None = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            batch = fh.readlines(_BATCH_CHARS)
            if batch:
                batch[0] = batch[0].removeprefix("\ufeff")  # skip a byte-order mark
            while batch:
                # Every line but a file's last ends in a newline, so each
                # "\n" of the text is followed by the start of a line.
                text = "".join(batch)
                n_v = text.startswith("v ") + text.count("\nv ")
                n_f = text.startswith("f ") + text.count("\nf ")
                if n_v + n_f != len(batch):
                    # Other lines too: sort the lines by their first token,
                    # and ignore all but "v" and "f" ones.
                    first = [(line.split(None, 1) or [""])[0] for line in batch]
                    vert_lines = list(compress(batch, map("v".__eq__, first)))
                    face_lines = list(compress(batch, map("f".__eq__, first)))
                    n_v = len(vert_lines)
                elif n_v and n_f:
                    is_v = list(map(str.startswith, batch, repeat("v ")))
                    vert_lines = list(compress(batch, is_v))
                    face_lines = list(compress(batch, map(not_, is_v)))
                else:
                    vert_lines, face_lines = (batch, []) if n_v else ([], batch)
                if vert_lines:
                    new = vert_lines
                    if memo is not None:  # the lines not seen before, once each
                        new = dict.fromkeys(filterfalse(memo.__contains__, vert_lines))
                    if new:
                        xyz = _plain_vertices(new)
                        if xyz is None:
                            return None
                        row_parts.append(xyz)
                    if memo is not None:
                        memo.update(zip(new, range(n_rows, n_rows + len(new))))
                        index_parts.append(np.fromiter(map(memo.__getitem__, vert_lines), np.intp, n_v))
                    n_rows += len(new)
                    n_verts += n_v
                    if memo is not None and n_rows == n_verts:
                        memo = None  # a welded file: its first lines do not repeat
                if face_lines:
                    tri = _plain_triangles(face_lines)
                    if tri is None:
                        return None
                    tri_parts.append(tri)
                batch = fh.readlines(_BATCH_CHARS)
    except UnicodeDecodeError:
        return None
    xyz = np.concatenate(row_parts) if row_parts else np.empty((0, 3))
    if n_rows < n_verts:  # the memo was kept, so every batch has its rows
        xyz = xyz[np.concatenate(index_parts)]
    tri = np.concatenate(tri_parts) if tri_parts else np.empty((0, 3), dtype=np.int64)
    if len(tri) and tri.max() > n_verts:
        return None  # a missing vertex: the line reader names its line
    tri -= 1
    return MeshReal(xyz, tri)


def _plain_vertices(lines: Collection[str]) -> np.ndarray | None:
    """The (n, 3) coordinates of ``n`` lines whose first token is "v", or None
    unless each has exactly three finite coordinates.

    The joined lines split into 4n tokens. Unless each line has four, some
    line's "v" falls between every fourth token, and ``float`` rejects it."""
    n = len(lines)
    tokens = " ".join(lines).split()
    if len(tokens) != 4 * n:
        return None
    del tokens[::4]
    try:
        xyz = np.fromiter(map(float, tokens), np.float64, 3 * n)
    except ValueError:
        return None
    if not np.isfinite(xyz).all():
        return None
    return xyz.reshape(n, 3)


def _plain_triangles(lines: list[str]) -> np.ndarray | None:
    """The (t, 3) 1-based corners of ``n`` lines whose first token is "f",
    each fan-triangulated, or None unless every token after the "f", up to
    its first "/", is an integer of at least 1 and each line has three or
    more of them.

    When the joined lines split into 4n or 5n tokens with an "f" at every
    fourth or fifth one, every line has that many tokens, since no index
    that ``int`` accepts is "f"; otherwise each line is split on its own."""
    n = len(lines)
    text = " ".join(lines)
    tokens = text.split()
    if "/" in text:  # a/b/c references: the index is the part before the "/"
        tokens = [token.partition("/")[0] for token in tokens]
    width = len(tokens) // n
    if len(tokens) == width * n and width in (4, 5) and tokens[::width].count("f") == n:
        sizes = None  # all triangles, or all quads
        del tokens[::width]
    else:
        sizes = np.fromiter(map(len, map(str.split, lines)), np.intp, n) - 1
        if sizes.min() < 3:
            return None
        index = np.ones(len(tokens), dtype=bool)
        index[np.cumsum(sizes + 1) - sizes - 1] = False  # each line's "f"
        tokens = list(compress(tokens, index.tolist()))
    try:
        corners = np.fromiter(map(int, tokens), np.int64, len(tokens))
    except (ValueError, OverflowError):
        return None
    if corners.min() < 1:
        return None
    if sizes is None:
        corners = corners.reshape(n, width - 1)
        return corners if width == 4 else corners[:, (0, 1, 2, 0, 2, 3)].reshape(-1, 3)
    # Triangle k of a line takes the line's corners 0, k + 1 and k + 2.
    fans = sizes - 2
    line = np.repeat(np.arange(n), fans)
    k = np.arange(len(line)) - np.repeat(np.cumsum(fans) - fans, fans)
    first = (np.cumsum(sizes) - sizes)[line]
    return corners[first[:, None] + np.stack([np.zeros_like(k), k + 1, k + 2], axis=1)]


def _read_obj_lines(path: Union[str, Path]) -> MeshReal:
    """``read_obj`` line by line, for any file: each line is checked as it is
    read, and the first bad one is named. A face that references a missing
    vertex is reported once the whole file is read."""
    coords: list[float] = []
    corners: list[int] = []  # 1-based indices, three per triangle
    face_lines: list[int] = []  # line of each triangle
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().removeprefix("\ufeff")  # skip a byte-order mark
        for lineno, raw in enumerate(chain((first,), fh), 1):
            parts = raw.split()
            if not parts:
                continue
            kw = parts[0]
            if kw == "v":
                if len(parts) < 4:
                    raise ObjParseError("vertex needs three coordinates", lineno)
                try:
                    xyz = float(parts[1]), float(parts[2]), float(parts[3])
                except ValueError:
                    raise ObjParseError("bad vertex coordinate", lineno) from None
                if not all(map(math.isfinite, xyz)):
                    raise ObjParseError("non-finite vertex coordinate", lineno)
                coords += xyz
            elif kw == "f":
                idx: list[int] = []
                for token in parts[1:]:
                    head = token.split("/")[0]
                    try:
                        value = int(head)
                    except ValueError:
                        raise ObjParseError(f"bad face index {head!r}", lineno) from None
                    if value < 0:
                        raise ObjParseError("negative indices are not supported", lineno)
                    if value == 0:
                        raise ObjParseError("face indices are 1-based", lineno)
                    idx.append(value)
                if len(idx) < 3:
                    raise ObjParseError("face needs at least three vertices", lineno)
                for k in range(1, len(idx) - 1):
                    corners += (idx[0], idx[k], idx[k + 1])
                    face_lines.append(lineno)
    n_verts = len(coords) // 3
    if corners and max(corners) > n_verts:
        first = next(i for i, q in enumerate(corners) if q > n_verts)
        raise ObjParseError("face references a missing vertex", face_lines[first // 3])
    xyz = np.array(coords, dtype=np.float64).reshape(-1, 3)
    return MeshReal(xyz, (np.array(corners, dtype=np.int64) - 1).reshape(-1, 3))


def write_obj(mesh: Union[QuantizedMesh, MeshReal], path: Union[str, Path]) -> None:
    """Write vertices and faces; quantized meshes are written at their grid
    cell centers, so reading back and re-quantizing reproduces them exactly."""
    if len(mesh.vertices) == 0 or len(mesh.faces) == 0:
        raise EmptyMeshError("refusing to write a mesh without vertices or faces")
    if isinstance(mesh, QuantizedMesh):
        require_triples(mesh.vertices, "vertex")
        require_triples(mesh.faces, "face")
        bits = mesh.bits
        coord = _Once(lambda q: f"{dequantize_coord(q, bits):.9g}")
        index = _Once(lambda i: str(i + 1))
        coords = map(coord.__getitem__, chain.from_iterable(mesh.vertices))
        corners = map(index.__getitem__, chain.from_iterable(mesh.faces))
        vertex = "v {} {} {}\n"
    else:
        coords = mesh.vertices.ravel().tolist()
        corners = map((1).__add__, mesh.faces.ravel().tolist())  # Python ints: no int64 wrap
        vertex = "v {:.9g} {:.9g} {:.9g}\n"
    text = _fill(vertex, len(mesh.vertices), coords) + _fill("f {} {} {}\n", len(mesh.faces), corners)
    Path(path).write_text(text, encoding="utf-8")


# --- token streams -----------------------------------------------------------


_VERTEX_RECORD = struct.Struct("<BHHH")


def write_stream(seq: TokenSequence, path: Union[str, Path]) -> SequenceStats:
    """Write the binary stream; return the stats of the walk that checked it."""
    stats = sequence_stats(seq)
    flags = 0 if seq.order == DFS else 1
    out = bytearray(MAGIC)
    out += struct.pack("<BBBI", VERSION, seq.bits, flags, len(seq.outputs))
    pack = _VERTEX_RECORD.pack
    for kind, v in seq.outputs:
        if kind == VERTEX:
            x, y, z = v
            out += pack(_OP_VERTEX, z, y, x)
        elif kind == STOP:
            out.append(_OP_STOP)
        else:
            out.append(_OP_EOS)
    Path(path).write_bytes(bytes(out))
    return stats


def _parse_stream_bytes(data: bytes) -> tuple[int, str, list[PredictorAnswer]]:
    if len(data) < 11:
        raise FormatError("file shorter than the 11-byte header", len(data))
    if data[:4] != MAGIC:
        raise FormatError(f"bad magic {data[:4]!r}", 0)
    version, bits, flags = data[4], data[5], data[6]
    if version != VERSION:
        raise FormatError(f"unsupported version {version}", 4)
    if not valid_bits(bits):
        raise FormatError(f"bits {bits} outside [1, 16]", 5)
    if flags & ~1:
        raise FormatError(f"reserved flag bits set: {flags:#04x}", 6)
    order = BFS if flags & 1 else DFS
    (count,) = struct.unpack_from("<I", data, 7)
    cells = 1 << bits
    answers: list[PredictorAnswer] = []
    append = answers.append
    vertices: dict[bytes, PredictorAnswer] = {}  # by their 6 coordinate bytes
    pos, end = 11, len(data)
    for _ in range(count):
        if pos >= end:
            raise FormatError("truncated record", pos)
        op = data[pos]
        if op == _OP_VERTEX:
            key = data[pos + 1 : pos + 7]
            answer = vertices.get(key)
            if answer is None:
                if pos + 7 > end:
                    raise FormatError("truncated vertex record", pos)
                z, y, x = struct.unpack("<HHH", key)
                if max(x, y, z) >= cells:
                    raise FormatError(
                        f"coordinate out of range for {bits}-bit grid", pos + 1
                    )
                # answer_vertex(QuantizedVertex(x, y, z)), through the
                # constructor both NamedTuples call
                vertex = tuple.__new__(QuantizedVertex, (x, y, z))
                answer = vertices[key] = tuple.__new__(PredictorAnswer, (VERTEX, vertex))
            append(answer)
            pos += 7
        elif op == _OP_STOP:
            append(ANSWER_STOP)
            pos += 1
        elif op == _OP_EOS:
            append(ANSWER_EOS)
            pos += 1
        else:
            raise FormatError(f"unknown opcode {op}", pos)
    if pos != end:
        raise FormatError(f"{end - pos} trailing bytes", pos)
    return bits, order, answers


def read_stream_answers(path: Union[str, Path]) -> tuple[int, str, list[PredictorAnswer]]:
    """Header fields plus raw outputs, auto-detecting binary vs text form: a
    file that starts with the magic is binary, one that starts with "{" is
    text. The outputs are those the records hold; where EOS falls is left
    to ``generator.replay_outputs``."""
    data = Path(path).read_bytes()
    if data[:4] == MAGIC:
        return _parse_stream_bytes(data)
    if data[:1] == b"{":
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"text stream is not UTF-8: {exc.reason}", exc.start) from None
        return _parse_text_stream(text)
    raise FormatError("neither a binary nor a text token stream", 0)


def _answer_line(a: PredictorAnswer) -> str:
    """One output as a text-stream record."""
    if a.kind == VERTEX:
        x, y, z = a.vertex
        return f'{{"op":"v","z":{z},"y":{y},"x":{x}}}'
    return '{"op":"stop"}' if a.kind == STOP else '{"op":"eos"}'


# A character other than "\n" at which ``str.splitlines`` breaks a line.
# Text-stream lines end at "\n" or "\r\n" only, as do the pipe protocol's
# lines; one of these inside a line is an error there.
_LINE_BREAK = re.compile("[\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")


def _text_object(line: str, where: str) -> dict:
    """The JSON object that ``line`` holds; FormatError, naming ``where``, if
    the line holds a character of ``_LINE_BREAK`` or is not a JSON object."""
    brk = _LINE_BREAK.search(line)
    if brk:
        raise FormatError(f"line break {brk.group()!r} inside {where}")
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
        raise FormatError(f"bad JSON on {where}: {exc}") from exc
    if not isinstance(obj, dict):
        raise FormatError(f"{where} is not a JSON object")
    return obj


def _parse_vertex(obj, where: str, cells: int = 1 << 16) -> QuantizedVertex:
    """A vertex from a JSON object's x, y and z; FormatError, naming
    ``where``, unless all three are integers in [0, cells)."""
    if not isinstance(obj, dict):
        raise FormatError(f"vertex on {where} is not a JSON object: {obj!r}")
    x, y, z = xyz = obj.get("x"), obj.get("y"), obj.get("z")
    if not (
        type(x) is int and type(y) is int and type(z) is int  # bool is no coordinate
        and 0 <= x < cells and 0 <= y < cells and 0 <= z < cells
    ):
        raise FormatError(f"vertex on {where} needs integer x, y, z in [0, {cells}), got {xyz}")
    return QuantizedVertex(x, y, z)


# A vertex record exactly as ``_answer_line`` writes it: each coordinate in
# ASCII digits, unsigned, without a leading zero and at most five digits
# long, as 2**16 - 1 is. ``[0-9]``, not ``\d``: ``int`` reads other Unicode
# digits, JSON does not.
_CANONICAL_VERTEX = re.compile(
    r'\{"op":"v","z":(0|[1-9][0-9]{0,4}),"y":(0|[1-9][0-9]{0,4}),"x":(0|[1-9][0-9]{0,4})\}'
)
# Lines of that form, one match per line of a text joined by "\n".
_CANONICAL_VERTEX_LINES = re.compile(f"^{_CANONICAL_VERTEX.pattern}$", re.M)
_STOP_LINE = _answer_line(ANSWER_STOP)
_EOS_LINE = _answer_line(ANSWER_EOS)
_TEXT_CONTROLS = {_STOP_LINE: ANSWER_STOP, _EOS_LINE: ANSWER_EOS}


def _parse_answer(line: str, where: str, cells: int = 1 << 16) -> PredictorAnswer:
    """One text-stream record; FormatError, naming ``where``, unless it is a
    STOP, an EOS or a vertex with integer coordinates in [0, cells).

    A line exactly as ``_answer_line`` writes it, with every coordinate
    below ``cells``, is converted directly. Any other line, spaces, other
    key orders, extra keys and other number forms included, is decoded as
    JSON, which gives the same answer or the error."""
    match = _CANONICAL_VERTEX.fullmatch(line)
    if match is not None:
        z, y, x = match.groups()
        x, y, z = int(x), int(y), int(z)
        if x < cells and y < cells and z < cells:
            return tuple.__new__(PredictorAnswer, (VERTEX, tuple.__new__(QuantizedVertex, (x, y, z))))
    elif line == _STOP_LINE:
        return ANSWER_STOP
    elif line == _EOS_LINE:
        return ANSWER_EOS
    obj = _text_object(line, where)
    op = obj.get("op")
    if op == "v":
        return answer_vertex(_parse_vertex(obj, where, cells))
    if op == "stop":
        return ANSWER_STOP
    if op == "eos":
        return ANSWER_EOS
    raise FormatError(f"unknown op {op!r} on {where}")


def _parse_text_stream(text: str) -> tuple[int, str, list[PredictorAnswer]]:
    """Header fields plus outputs. The header is line 1; a blank body line
    is skipped, and any other line that is malformed, or holds a line break
    (see ``_text_object``), is a FormatError naming its line number; the
    first such line of the text is named.

    A body that ``_canonical_answers`` refuses is read by ``_parse_lines``."""
    if "\r" in text:  # a scan for "\r" takes a fraction of one for "\r\n"
        text = text.replace("\r\n", "\n")
    lines = text.removesuffix("\n").split("\n")
    header = _text_object(lines[0], "line 1")
    if header.get("magic") != "TMTS":
        raise FormatError("bad magic in text header on line 1")
    bits = header.get("bits")
    if not valid_bits(bits):
        raise FormatError(f"bits {bits!r} on line 1 is not an integer in [1, 16]")
    order = header.get("order")
    if order not in (DFS, BFS):
        raise FormatError(f"unknown order {order!r} on line 1")
    cells = 1 << bits
    body = lines[1:]
    answers = _canonical_answers(body, cells)
    if answers is None:
        answers = _parse_lines(body, cells)
    return bits, order, answers


def _canonical_answers(body: list[str], cells: int) -> list[PredictorAnswer] | None:
    """The answers of ``body``, or None unless each line is exactly as
    ``_answer_line`` writes it, with every coordinate below ``cells``.

    The distinct vertex lines are joined and matched in one ``findall``;
    anchored to line starts and ends, each match is one whole line, so
    every line matched when there are as many matches as lines. Each
    distinct coordinate string, of a few hundred on a 9-bit grid, goes
    through ``int`` once. Answers are built with ``tuple.__new__``, the
    constructor that both NamedTuples call:
    ``answer_vertex(QuantizedVertex(x, y, z))``."""
    keys = set(body).difference(_TEXT_CONTROLS)
    found = _CANONICAL_VERTEX_LINES.findall("\n".join(keys))
    if len(found) != len(keys):
        return None
    zyx = list(map(_Once(int).__getitem__, chain.from_iterable(found)))
    if max(zyx, default=0) >= cells:
        return None
    vertices = map(tuple.__new__, repeat(QuantizedVertex), zip(zyx[2::3], zyx[1::3], zyx[0::3]))
    table = dict(zip(keys, map(tuple.__new__, repeat(PredictorAnswer), zip(repeat(VERTEX), vertices))))
    table.update(_TEXT_CONTROLS)
    return list(map(table.__getitem__, body))


def _parse_lines(body: list[str], cells: int) -> list[PredictorAnswer]:
    """The answers of ``body``, the lines after the header, without its
    blank lines; FormatError naming the first bad line."""
    # A whitespace-only line that holds a line break is parsed, so that
    # ``_text_object`` refuses it.
    return [
        _parse_answer(line, f"line {i}", cells)
        for i, line in enumerate(body, 2)
        if line.strip() or _LINE_BREAK.search(line)
    ]


def write_text_stream(seq: TokenSequence, path: Union[str, Path]) -> SequenceStats:
    """Write the text stream; return the stats of the walk that checked it."""
    stats = sequence_stats(seq)
    header = json.dumps(
        {"magic": "TMTS", "bits": seq.bits, "order": seq.order}, separators=(",", ":")
    )
    line = _Once(_answer_line)
    text = "\n".join([header, *map(line.__getitem__, seq.outputs)]) + "\n"
    Path(path).write_text(text, encoding="utf-8")
    return stats


# --- point clouds ------------------------------------------------------------


def write_pointcloud(points: np.ndarray, path: Union[str, Path], fmt: str = "xyz") -> None:
    """Plain-text XYZ (9 significant digits) or binary little-endian PLY, whose
    float32 coordinates must be finite (else OutOfRangeError, nothing written)."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if len(points) == 0:
        raise ValueError("refusing to write an empty point set")
    path = Path(path)
    if fmt == "xyz":
        path.write_text(_fill("{:.9g} {:.9g} {:.9g}\n", len(points), points.ravel().tolist()), encoding="utf-8")
    elif fmt == "ply":
        header = (
            "ply\n"
            "format binary_little_endian 1.0\n"
            f"element vertex {len(points)}\n"
            "property float x\n"
            "property float y\n"
            "property float z\n"
            "end_header\n"
        )
        with np.errstate(over="ignore"):
            body = points.astype("<f4")
        if not np.isfinite(body).all():
            raise OutOfRangeError("coordinates too large for a float32 PLY (limit 3.4028235e+38)")
        path.write_bytes(header.encode("ascii") + body.tobytes())
    else:
        raise ValueError(f"unknown point cloud format {fmt!r}")
