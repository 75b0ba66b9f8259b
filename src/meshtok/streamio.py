"""Bit-exact file formats.

Token stream (binary, extension .tmts):
    header (11 bytes): magic b"TMTS" | version u8 = 1 | bits u8 | flags u8
                       (bit0: 0 = DFS, 1 = BFS, rest zero) | record count u32 LE
    records: opcode u8 (0 = VERTEX, 1 = STOP, 2 = EOS); VERTEX is followed by
             z, y, x as three u16 LE grid coordinates.

Only step outputs are stored, exactly what a ``TokenSequence`` holds; the
decoder's stack machine re-derives every input on replay, which is what
makes two tokens per face real at the file level. The writers check the
sequence with ``check_well_formed`` first. ``read_stream_answers`` returns
the header fields and the outputs: exactly one EOS is allowed and it must be
last; trailing bytes, out-of-range coordinates and text that is not UTF-8
are rejected with FormatError. Whether the outputs form a transcript the
machine can replay is for ``generator.replay_outputs`` to decide.

Token stream (text): one JSON object per line, same information as binary.
    {"magic":"TMTS","bits":7,"order":"dfs"}
    {"op":"v","z":Z,"y":Y,"x":X} | {"op":"stop"} | {"op":"eos"}

Both forms convert losslessly into each other. The pipe protocol for
external predictors (``generator.PipePredictor``) answers with the same
records.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path
from typing import Union

import numpy as np

from .core import (
    Face,
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
    EOS,
    STOP,
    VERTEX,
    PredictorAnswer,
    TokenSequence,
    answer_vertex,
    check_well_formed,
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


class NonTriangleError(ObjParseError):
    pass


class EmptyMeshError(ValueError):
    pass


# --- Wavefront OBJ -----------------------------------------------------------


def read_obj(path: Union[str, Path], fan_triangulate: bool = True) -> MeshReal:
    """Parse `v` and `f` lines (1-based indices, `a/b/c` references allowed);
    everything else is ignored. Polygons are fan-triangulated unless disabled."""
    verts: list[tuple[float, float, float]] = []
    faces: list[tuple[int, int, int]] = []
    face_lines: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            kw = parts[0]
            if kw == "v":
                if len(parts) < 4:
                    raise ObjParseError("vertex needs three coordinates", lineno)
                try:
                    xyz = (float(parts[1]), float(parts[2]), float(parts[3]))
                except ValueError:
                    raise ObjParseError("bad vertex coordinate", lineno) from None
                if not all(map(math.isfinite, xyz)):
                    raise ObjParseError("non-finite vertex coordinate", lineno)
                verts.append(xyz)
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
                    idx.append(value - 1)
                if len(idx) < 3:
                    raise ObjParseError("face needs at least three vertices", lineno)
                if len(idx) > 3 and not fan_triangulate:
                    raise NonTriangleError(
                        f"{len(idx)}-gon with fan triangulation disabled", lineno
                    )
                for k in range(1, len(idx) - 1):
                    faces.append((idx[0], idx[k], idx[k + 1]))
                    face_lines.append(lineno)
    for (fa, fb, fc), lineno in zip(faces, face_lines):
        if max(fa, fb, fc) >= len(verts):
            raise ObjParseError("face references a missing vertex", lineno)
    return MeshReal(
        np.asarray(verts, dtype=np.float64).reshape(-1, 3),
        np.asarray(faces, dtype=np.int64).reshape(-1, 3),
    )


def write_obj(mesh: Union[QuantizedMesh, MeshReal], path: Union[str, Path]) -> None:
    """Write vertices and faces; quantized meshes are written at their grid
    cell centers, so reading back and re-quantizing reproduces them exactly."""
    if isinstance(mesh, QuantizedMesh):
        if not mesh.vertices or not mesh.faces:
            raise EmptyMeshError("refusing to write a mesh without vertices or faces")
        rows = (
            (
                dequantize_coord(v.x, mesh.bits),
                dequantize_coord(v.y, mesh.bits),
                dequantize_coord(v.z, mesh.bits),
            )
            for v in mesh.vertices
        )
        faces = mesh.faces
    else:
        if len(mesh.vertices) == 0 or len(mesh.faces) == 0:
            raise EmptyMeshError("refusing to write a mesh without vertices or faces")
        rows = ((float(x), float(y), float(z)) for x, y, z in mesh.vertices)
        faces = [Face(int(a), int(b), int(c)) for a, b, c in mesh.faces]
    lines = [f"v {x:.9g} {y:.9g} {z:.9g}" for x, y, z in rows]
    lines.extend(f"f {f.a + 1} {f.b + 1} {f.c + 1}" for f in faces)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# --- token streams -----------------------------------------------------------


def write_stream(seq: TokenSequence, path: Union[str, Path]) -> None:
    check_well_formed(seq)
    flags = 0 if seq.order == DFS else 1
    out = bytearray()
    out += MAGIC
    out += struct.pack("<BBBI", VERSION, seq.bits, flags, len(seq.outputs))
    for kind, v in seq.outputs:
        if kind == VERTEX:
            out += struct.pack("<BHHH", _OP_VERTEX, v.z, v.y, v.x)
        elif kind == STOP:
            out.append(_OP_STOP)
        else:
            out.append(_OP_EOS)
    Path(path).write_bytes(bytes(out))


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
    pos = 11
    for _ in range(count):
        if pos >= len(data):
            raise FormatError("truncated record", pos)
        op = data[pos]
        if op == _OP_VERTEX:
            if pos + 7 > len(data):
                raise FormatError("truncated vertex record", pos)
            z, y, x = struct.unpack_from("<HHH", data, pos + 1)
            if max(x, y, z) >= cells:
                raise FormatError(
                    f"coordinate out of range for {bits}-bit grid", pos + 1
                )
            answers.append(answer_vertex(QuantizedVertex(x, y, z)))
            pos += 7
        elif op == _OP_STOP:
            answers.append(ANSWER_STOP)
            pos += 1
        elif op == _OP_EOS:
            answers.append(ANSWER_EOS)
            pos += 1
        else:
            raise FormatError(f"unknown opcode {op}", pos)
    if pos != len(data):
        raise FormatError(f"{len(data) - pos} trailing bytes", pos)
    _require_single_terminal_eos(answers)
    return bits, order, answers


def _require_single_terminal_eos(answers: list[PredictorAnswer]) -> None:
    eos_positions = [i for i, a in enumerate(answers) if a.kind == EOS]
    if not answers or eos_positions != [len(answers) - 1]:
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


def dumps_text_stream(seq: TokenSequence) -> str:
    check_well_formed(seq)
    header = json.dumps(
        {"magic": "TMTS", "bits": seq.bits, "order": seq.order}, separators=(",", ":")
    )
    return "\n".join([header, *map(_answer_line, seq.outputs)]) + "\n"


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
    xyz = obj.get("x"), obj.get("y"), obj.get("z")
    if not all(type(q) is int and 0 <= q < cells for q in xyz):  # bool is no coordinate
        raise FormatError(f"vertex on {where} needs integer x, y, z in [0, {cells}), got {xyz}")
    return QuantizedVertex(*xyz)


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
    naming its line number (counting blank lines)."""
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise FormatError("empty text stream")
    header_line, header_text = lines[0]
    header = _text_object(header_text, f"line {header_line}")
    if header.get("magic") != "TMTS":
        raise FormatError(f"bad magic in text header on line {header_line}")
    bits = header.get("bits")
    if type(bits) is not int or not valid_bits(bits):  # bool is not a bit count
        raise FormatError(f"bits {bits!r} on line {header_line} is not an integer in [1, 16]")
    order = header.get("order")
    if order not in (DFS, BFS):
        raise FormatError(f"unknown order {order!r} on line {header_line}")
    cells = 1 << bits
    answers = [_parse_answer(line, f"line {i}", cells) for i, line in lines[1:]]
    _require_single_terminal_eos(answers)
    return bits, order, answers


def write_text_stream(seq: TokenSequence, path: Union[str, Path]) -> None:
    Path(path).write_text(dumps_text_stream(seq), encoding="utf-8")


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
