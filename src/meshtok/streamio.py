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
return its ``SequenceStats``. ``read_stream_answers`` returns the header
fields and the outputs: exactly one EOS is allowed and it must be last;
trailing bytes, out-of-range coordinates and text that is not UTF-8 are
rejected with FormatError. Whether the outputs form a transcript the
machine can replay is for ``generator.replay_outputs`` to decide; that replay
is strict, keeps every recorded face and adjusts no answer.

Token stream (text): one JSON object per line, same information as binary.
    {"magic":"TMTS","bits":7,"order":"dfs"}
    {"op":"v","z":Z,"y":Y,"x":X} | {"op":"stop"} | {"op":"eos"}

Both forms convert losslessly into each other. The pipe protocol for
external predictors (``generator.PipePredictor``) answers with the same
records.

A mesh repeats few distinct records: each vertex appears once as a VERTEX
output, and a grid has few distinct coordinates. So the stream parsers parse
each distinct text line, or each distinct 6 coordinate bytes, once and look
their repeats up; ``write_text_stream`` formats each distinct answer once, and
``write_obj`` each distinct grid coordinate and face index. ``read_obj``
streams the file line by line into flat lists, checks each line as it reads
it and parses each distinct vertex line of an unwelded file once. Every
error still names the first bad line or record, exactly as a
record-by-record reader would.
"""

from __future__ import annotations

import json
import math
import struct
from itertools import chain
from pathlib import Path
from typing import Union

import numpy as np

from .core import (
    MeshReal,
    QuantizedMesh,
    QuantizedVertex,
    dequantize_coord,
    valid_bits,
)
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


# --- Wavefront OBJ -----------------------------------------------------------


# Vertex lines read before ``read_obj`` stops looking for repeats when none
# of them repeats an earlier one.
_MEMO_TRIAL = 1024


def read_obj(path: Union[str, Path]) -> MeshReal:
    """Parse `v` and `f` lines (1-based indices, `a/b/c` references allowed);
    everything else is ignored. Polygons are fan-triangulated.

    The file is read as UTF-8, a leading byte-order mark skipped, line by
    line into flat lists of coordinates and 1-based indices, and each line is
    checked as it is read. A vertex line that repeats an earlier one, as
    every shared corner of an unwelded file does, reuses that line's checked
    coordinates; when the first _MEMO_TRIAL vertex lines are all distinct,
    the file is taken as welded and lines are no longer looked up. Lines of
    three or four plain indices, all at least 1, take a fast path; any other
    face line is parsed token by token. A face that references a missing
    vertex is reported once the whole file is read.
    """
    coords: list[float] = []
    corners: list[int] = []  # 1-based indices, three per triangle
    face_lines: list[int] = []  # line of each triangle
    # Vertex line -> its coordinates; None once the first _MEMO_TRIAL vertex
    # lines turned out all distinct.
    seen: dict[str, tuple[float, float, float]] | None = {}
    isfinite = math.isfinite
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().removeprefix("\ufeff")  # skip a byte-order mark
        for lineno, raw in enumerate(chain((first,), fh), 1):
            if seen is not None:
                xyz = seen.get(raw)
                if xyz is not None:
                    coords += xyz
                    continue
            parts = raw.split()
            if not parts:
                continue
            kw = parts[0]
            if kw == "v":
                if len(parts) < 4:
                    raise ObjParseError("vertex needs three coordinates", lineno)
                try:
                    x, y, z = float(parts[1]), float(parts[2]), float(parts[3])
                except ValueError:
                    raise ObjParseError("bad vertex coordinate", lineno) from None
                if not (isfinite(x) and isfinite(y) and isfinite(z)):
                    raise ObjParseError("non-finite vertex coordinate", lineno)
                xyz = x, y, z
                coords += xyz
                if seen is not None:
                    seen[raw] = xyz
                    if len(seen) == _MEMO_TRIAL and len(coords) == 3 * _MEMO_TRIAL:
                        seen = None  # a welded file: its lines do not repeat
            elif kw == "f":
                n = len(parts)
                if (n == 4 or n == 5) and "/" not in raw:
                    try:
                        if n == 4:
                            a, b, c = int(parts[1]), int(parts[2]), int(parts[3])
                            if a > 0 and b > 0 and c > 0:
                                corners += (a, b, c)
                                face_lines.append(lineno)
                                continue
                        else:
                            a, b, c, d = map(int, parts[1:])
                            if a > 0 and b > 0 and c > 0 and d > 0:
                                corners += (a, b, c, a, c, d)
                                face_lines += (lineno, lineno)
                                continue
                    except ValueError:
                        pass  # the token-by-token parse names the bad token
                idx = _face_indices(parts, lineno)
                for k in range(1, len(idx) - 1):
                    corners += (idx[0], idx[k], idx[k + 1])
                    face_lines.append(lineno)
    n_verts = len(coords) // 3
    if corners and max(corners) > n_verts:
        first = next(i for i, q in enumerate(corners) if q > n_verts)
        raise ObjParseError("face references a missing vertex", face_lines[first // 3])
    xyz = np.array(coords, dtype=np.float64).reshape(-1, 3)
    return MeshReal(xyz, (np.array(corners, dtype=np.int64) - 1).reshape(-1, 3))


def _face_indices(parts: list[str], lineno: int) -> list[int]:
    """The 1-based indices of one `f` line, checked token by token."""
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
    return idx


def write_obj(mesh: Union[QuantizedMesh, MeshReal], path: Union[str, Path]) -> None:
    """Write vertices and faces; quantized meshes are written at their grid
    cell centers, so reading back and re-quantizing reproduces them exactly."""
    if isinstance(mesh, QuantizedMesh):
        if not mesh.vertices or not mesh.faces:
            raise EmptyMeshError("refusing to write a mesh without vertices or faces")
        bits = mesh.bits
        coord = _Once(lambda q: f"{dequantize_coord(q, bits):.9g}")
        lines = [f"v {coord[x]} {coord[y]} {coord[z]}" for x, y, z in mesh.vertices]
        index = _Once(lambda i: str(i + 1))
        lines.extend(f"f {index[a]} {index[b]} {index[c]}" for a, b, c in mesh.faces)
    else:
        if len(mesh.vertices) == 0 or len(mesh.faces) == 0:
            raise EmptyMeshError("refusing to write a mesh without vertices or faces")
        lines = [f"v {float(x):.9g} {float(y):.9g} {float(z):.9g}" for x, y, z in mesh.vertices]
        lines.extend(f"f {int(a) + 1} {int(b) + 1} {int(c) + 1}" for a, b, c in mesh.faces)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
                answer = vertices[key] = answer_vertex(QuantizedVertex(x, y, z))
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
    _require_single_terminal_eos(answers)
    return bits, order, answers


def _require_single_terminal_eos(answers: list[PredictorAnswer]) -> None:
    # The parsers give every EOS as the ANSWER_EOS record.
    if not answers or answers[-1] != ANSWER_EOS or answers.count(ANSWER_EOS) != 1:
        raise FormatError("stream must contain exactly one EOS, as its last record")


def read_stream_answers(path: Union[str, Path]) -> tuple[int, str, list[PredictorAnswer]]:
    """Header fields plus raw outputs, auto-detecting binary vs text form."""
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
        v = a.vertex
        return f'{{"op":"v","z":{v.z},"y":{v.y},"x":{v.x}}}'
    return '{"op":"stop"}' if a.kind == STOP else '{"op":"eos"}'


def _text_object(line: str, where: str) -> dict:
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


def _parse_answer(line: str, where: str, cells: int = 1 << 16) -> PredictorAnswer:
    """One text-stream record; FormatError, naming ``where``, unless it is a
    STOP, an EOS or a vertex with integer coordinates in [0, cells)."""
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
    """Header fields plus outputs; every malformed line is a FormatError
    naming its line number (counting blank lines). Each distinct record line
    is parsed once; its repeats are looked up."""
    lines = text.splitlines()
    start = next((i for i, ln in enumerate(lines) if ln.strip()), None)
    if start is None:
        raise FormatError("empty text stream")
    header_line = start + 1
    header = _text_object(lines[start], f"line {header_line}")
    if header.get("magic") != "TMTS":
        raise FormatError(f"bad magic in text header on line {header_line}")
    bits = header.get("bits")
    if not valid_bits(bits):
        raise FormatError(f"bits {bits!r} on line {header_line} is not an integer in [1, 16]")
    order = header.get("order")
    if order not in (DFS, BFS):
        raise FormatError(f"unknown order {order!r} on line {header_line}")
    cells = 1 << bits
    answers: list[PredictorAnswer] = []
    append = answers.append
    parsed: dict[str, PredictorAnswer] = {}
    get = parsed.get
    for i, line in enumerate(lines[header_line:], header_line + 1):
        answer = get(line)
        if answer is None:
            if not line.strip():
                continue
            answer = parsed[line] = _parse_answer(line, f"line {i}", cells)
        append(answer)
    _require_single_terminal_eos(answers)
    return bits, order, answers


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
    """Plain-text XYZ (9 significant digits) or binary little-endian PLY."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if len(points) == 0:
        raise ValueError("refusing to write an empty point set")
    path = Path(path)
    if fmt == "xyz":
        lines = [f"{x:.9g} {y:.9g} {z:.9g}" for x, y, z in points]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
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
        body = points.astype("<f4").tobytes()
        path.write_bytes(header.encode("ascii") + body)
    else:
        raise ValueError(f"unknown point cloud format {fmt!r}")
