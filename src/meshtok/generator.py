"""Predictor-driven stack machine: replays or generates token sequences and
assembles the resulting mesh.

The machine owns all traversal state (pending edges, emitted faces, vertex
interning) and takes one answer per step through ``_Machine.answer``.
Feeding it recorded outputs inverts the tokenizer; ``run`` asks a predictor
callback for each answer and generates. Vertices are identified by quantized
position: positions already seen are merged during assembly, and the output
mesh is every emitted face over the union of seen vertices.

The machine is strict and has one behaviour: a vertex that is not three
integers on the ``2**bits`` grid, or an answer whose vertex does not fit its
kind, is an illegal answer, a vertex that repeats an endpoint of its edge is
a DesyncError naming its step, and a repeated face is emitted as recorded.
Only ``run``, which answers a sampler, adjusts proposals the way inference
does: it turns into STOP a face that repeats a vertex and, when
``GeneratorConfig.duplicate_check`` is set, one that reuses a directed edge
(``validate_manifold``'s rule) or flips an emitted face. Its transcripts
record the STOP, so they replay cleanly.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, TextIO

from .core import Face, QuantizedMesh, QuantizedVertex, require_valid_bits
from .sequencer import (
    ANSWER_EOS,
    ANSWER_STOP,
    BFS,
    DFS,
    EDGE,
    EOS,
    SOS,
    SOS2,
    STOP,
    VERTEX,
    EdgePositions,
    PredictorAnswer,
    TokenSequence,
    answer_vertex,
    check_well_formed,
)
from .streamio import FormatError, _answer_line, _parse_answer, _parse_vertex, _text_object

HALT_EOS = "eos"
HALT_BUDGET = "budget"


class IllegalAnswerError(ValueError):
    """The predictor answered a kind the query does not admit."""


class DesyncError(ValueError):
    """Recorded stream and machine-derived state disagree (corrupt stream)."""


@dataclass(frozen=True)
class PredictorQuery:
    step: int
    kind: str  # sos | sos2 | edge
    component: int
    stack_depth: int
    v1: Optional[QuantizedVertex] = None  # set for sos2
    edge: Optional[EdgePositions] = None  # set for edge


Predictor = Callable[[PredictorQuery], PredictorAnswer]


@dataclass
class GeneratorConfig:
    bits: int = 7
    order: str = DFS
    duplicate_check: bool = True  # stop faces that reuse a directed edge or flip a face
    max_steps: int = 10000


@dataclass
class RunResult:
    mesh: QuantizedMesh
    transcript: TokenSequence
    halt: str  # HALT_EOS | HALT_BUDGET


class _Machine:
    """Single-run mutable traversal state.

    ``mode`` is the kind of the input the next answer must answer: SOS, SOS2,
    EDGE (``edge`` then holds the popped edge as vertex indices) or EOS once
    the run has ended. Pending edges hold vertex indices, so a face costs one
    interning lookup, for its new vertex.
    """

    def __init__(self, bits: int, order: str):
        if order not in (DFS, BFS):
            raise ValueError(f"unknown traversal order: {order!r}")
        require_valid_bits(bits)
        self.bits = bits
        self.order = order
        self.pending: deque[tuple[int, int]] = deque()
        self.take = self.pending.pop if order == DFS else self.pending.popleft
        self.vert_index: dict[QuantizedVertex, int] = {}
        self.verts: list[QuantizedVertex] = []
        self.faces: list[Face] = []
        self.cells = 1 << bits
        self.outputs: list[PredictorAnswer] = []
        self.component = 0
        self.step = 0
        self.mode = SOS
        self.v1 = 0
        self.edge = (0, 0)

    @property
    def done(self) -> bool:
        return self.mode == EOS

    def input_edge(self) -> Optional[EdgePositions]:
        """The popped edge as positions while an EDGE answer is due, else None."""
        if self.mode != EDGE:
            return None
        a, b = self.edge
        return self.verts[a], self.verts[b]

    def intern(self, v: QuantizedVertex) -> int:
        idx = self.vert_index.get(v)
        if idx is None:
            idx = len(self.verts)
            self.vert_index[v] = idx
            self.verts.append(v)
        return idx

    def answer(self, ans: PredictorAnswer) -> None:
        """Take one answer: record it and advance."""
        kind, v = ans
        if kind == VERTEX:
            if v is None:
                raise IllegalAnswerError(f"step {self.step}: a vertex answer carries no vertex")
            # _legal_vertex, inlined on the replay path
            try:
                x, y, z = v
            except (TypeError, ValueError):
                raise IllegalAnswerError(
                    f"step {self.step}: vertex {v!r} is not three integers"
                ) from None
            if not (type(x) is int and type(y) is int and type(z) is int):  # bool is no coordinate
                raise IllegalAnswerError(f"step {self.step}: vertex {tuple(v)} is not three integers")
            cells = self.cells
            if not (0 <= x < cells and 0 <= y < cells and 0 <= z < cells):
                raise IllegalAnswerError(
                    f"step {self.step}: vertex {tuple(v)} outside the {self.bits}-bit grid"
                )
        elif v is not None:
            raise IllegalAnswerError(f"step {self.step}: a {kind} answer carries a vertex")
        mode = self.mode
        if mode == EDGE:
            if kind == VERTEX:
                self._face(v)
            elif kind != STOP:
                raise IllegalAnswerError(f"step {self.step}: {kind} answers EDGE")
            if self.pending:
                self.edge = self.take()
            else:
                self.mode = SOS
                self.component += 1
        elif mode == SOS:
            if kind == VERTEX:
                self.v1 = self.intern(v)
                self.mode = SOS2
            elif kind == EOS:
                self.mode = EOS
            else:
                raise IllegalAnswerError(f"step {self.step}: {kind} answers SOS")
        elif mode == SOS2:
            if kind != VERTEX:
                raise IllegalAnswerError(f"step {self.step}: {kind} answers SOS2")
            v1, v2 = self.v1, self.intern(v)
            self.pending.append((v2, v1))  # twin below the start edge
            self.pending.append((v1, v2))
            self.edge = self.take()
            self.mode = EDGE
        else:
            raise DesyncError(f"step {self.step}: answer after the terminal EOS")
        self.outputs.append(ans)
        self.step += 1

    def _face(self, c: QuantizedVertex) -> None:
        """Emit the face of the current edge and the vertex ``c``."""
        ia, ib = self.edge
        ic = self.vert_index.get(c)
        if ia == ib or ic == ia or ic == ib:
            raise DesyncError(f"step {self.step}: recorded vertex repeats an edge endpoint")
        if ic is None:
            ic = self.intern(c)
        self.faces.append(Face(ia, ib, ic))
        self.pending.append((ia, ic))
        self.pending.append((ic, ib))

    def result(self, halt: str) -> RunResult:
        mesh = QuantizedMesh(self.verts, self.faces, self.bits)
        transcript = TokenSequence(
            self.bits, self.order, self.outputs, truncated=(halt == HALT_BUDGET)
        )
        return RunResult(mesh, transcript, halt)


def run(predictor: Predictor, cfg: Optional[GeneratorConfig] = None) -> RunResult:
    """Generate a mesh by querying the predictor at most ``cfg.max_steps`` times."""
    cfg = cfg or GeneratorConfig()
    if cfg.max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    m = _Machine(cfg.bits, cfg.order)
    edges: Optional[dict[int, int]] = {} if cfg.duplicate_check else None
    for _ in range(cfg.max_steps):
        v1 = m.verts[m.v1] if m.mode == SOS2 else None
        query = PredictorQuery(m.step, m.mode, m.component, len(m.pending), v1, m.input_edge())
        ans = predictor(query)
        if m.mode == EDGE and ans.kind == VERTEX:
            ans = _adjust(m, ans, edges)
        m.answer(ans)
        if m.done:
            return m.result(HALT_EOS)
    return m.result(HALT_BUDGET)


def _adjust(m: _Machine, ans: PredictorAnswer, edges: Optional[dict]) -> PredictorAnswer:
    """``ans``, a VERTEX answering EDGE, or STOP if its face (a, b, c) repeats a vertex
    or, with ``edges`` (emitted directed edge -> third vertex), reuses one or flips a face."""
    if not _legal_vertex(ans.vertex, m.cells):
        return ans  # the machine refuses it
    a, b = m.edge
    n = len(m.verts)  # a new vertex gets index n and has no edges yet
    c = m.vert_index.get(ans.vertex, n)
    if a == b or c == a or c == b:
        return ANSWER_STOP
    if edges is not None:
        s = 3 * m.bits  # an index is below 2**s, the number of grid positions
        ab, bc, ca = a << s | b, b << s | c, c << s | a
        if ab in edges or c < n and (bc in edges or ca in edges or edges.get(b << s | a) == c):
            return ANSWER_STOP
        edges[ab], edges[bc], edges[ca] = c, a, b
    return ans


def _legal_vertex(v, cells: int) -> bool:
    """Whether ``v`` is three ints in ``[0, cells)``, the only vertex that
    ``_Machine.answer`` takes; a bool or a float is no coordinate."""
    try:
        x, y, z = v
    except (TypeError, ValueError):
        return False
    return (
        type(x) is int and type(y) is int and type(z) is int
        and 0 <= x < cells and 0 <= y < cells and 0 <= z < cells
    )


def decode(seq: TokenSequence) -> QuantizedMesh:
    """Strict replay: recover exactly the faces the sequence's VERTEX outputs
    emit after an edge.

    Raises MalformedSequenceError when the outputs break the sequence grammar
    (``check_well_formed``), DesyncError when a well-formed sequence still
    cannot be replayed, because a vertex repeats an endpoint of its edge.
    """
    check_well_formed(seq)
    return replay_outputs(seq.outputs, seq.bits, seq.order).mesh


def replay_outputs(answers: list[PredictorAnswer], bits: int, order: str = DFS) -> RunResult:
    """Drive the machine with recorded outputs alone, deriving all inputs.

    This is how output-only streams are given structure again; every face a
    VERTEX output emits is kept as recorded, repeats included. Raises
    DesyncError when the machine halts before consuming every answer, runs
    out of answers before reaching EOS, or takes a vertex that repeats an
    endpoint of its edge; IllegalAnswerError when an answer does not fit the
    input the machine derived for it.
    """
    machine = _Machine(bits, order)
    answer = machine.answer
    for a in answers:
        answer(a)
    if not machine.done:
        raise DesyncError("output stream has no terminal EOS")
    return machine.result(HALT_EOS)


def fuzz_predictor(seed: int, bits: int = 7) -> Predictor:
    """Random but always-legal predictor, deterministic per seed.

    STOP outweighs VERTEX on edge queries so components stay subcritical and
    runs terminate well inside usual budgets; EOS ends the mesh with
    probability 1/4 at each component boundary.
    """
    require_valid_bits(bits)
    rng = random.Random(seed)
    cells = 1 << bits

    def random_vertex() -> QuantizedVertex:
        return QuantizedVertex(
            rng.randrange(cells), rng.randrange(cells), rng.randrange(cells)
        )

    def predict(query: PredictorQuery) -> PredictorAnswer:
        if query.kind == SOS:
            if rng.random() < 0.25:
                return ANSWER_EOS
            return answer_vertex(random_vertex())
        if query.kind == SOS2:
            return answer_vertex(random_vertex())
        if rng.random() < 0.6:
            return ANSWER_STOP
        return answer_vertex(random_vertex())

    return predict


# --- line-delimited JSON protocol for external predictors -------------------
#
# One request per line on the way out, one answer per line back:
#   request: {"step":N,"kind":"sos","component":K,"stack_depth":D}
#            {"step":N,"kind":"sos2",...,"v1":{"z":Z,"y":Y,"x":X}}
#            {"step":N,"kind":"edge",...,"a":{...},"b":{...}}
#   answer:  {"op":"v","z":Z,"y":Y,"x":X} | {"op":"stop"} | {"op":"eos"}
# Answers use the same record shape as the text token-stream form.


def _vertex_obj(v: QuantizedVertex) -> dict:
    return {"z": v.z, "y": v.y, "x": v.x}


def query_to_json(query: PredictorQuery) -> str:
    obj: dict = {
        "step": query.step,
        "kind": query.kind,
        "component": query.component,
        "stack_depth": query.stack_depth,
    }
    if query.kind == SOS2:
        assert query.v1 is not None
        obj["v1"] = _vertex_obj(query.v1)
    elif query.kind == EDGE:
        assert query.edge is not None
        obj["a"] = _vertex_obj(query.edge[0])
        obj["b"] = _vertex_obj(query.edge[1])
    return json.dumps(obj, separators=(",", ":"))


def query_from_json(line: str) -> PredictorQuery:
    """Parse one request line; FormatError unless it is a JSON object with a
    known kind, non-negative integer step, component and stack_depth, and the
    vertices its kind carries (``v1``, or ``a`` and ``b``) with integer x, y,
    z in [0, 2**16)."""
    where = "query line"
    obj = _text_object(line, where)
    kind = obj.get("kind")
    if kind not in (SOS, SOS2, EDGE):
        raise FormatError(f"unknown kind {kind!r} on {where}")
    step, component, depth = obj.get("step"), obj.get("component"), obj.get("stack_depth")
    if not all(type(n) is int and n >= 0 for n in (step, component, depth)):  # bool is no count
        raise FormatError(
            f"step, component and stack_depth on {where} need non-negative integers, "
            f"got {(step, component, depth)}"
        )
    v1 = _parse_vertex(obj.get("v1"), where) if kind == SOS2 else None
    edge = None
    if kind == EDGE:
        edge = (_parse_vertex(obj.get("a"), where), _parse_vertex(obj.get("b"), where))
    return PredictorQuery(
        step=step, kind=kind, component=component, stack_depth=depth, v1=v1, edge=edge
    )


def answer_to_json(answer: PredictorAnswer) -> str:
    return _answer_line(answer)


def answer_from_json(line: str) -> PredictorAnswer:
    """Parse one answer line with the text-stream record parser: FormatError
    on anything but a STOP, an EOS or a vertex with integer coordinates in
    [0, 2**16). The machine checks the run's grid."""
    return _parse_answer(line, "answer line")


class PipePredictor:
    """Predictor backed by an external process over a line-delimited pipe."""

    def __init__(self, requests: TextIO, responses: TextIO):
        self.requests = requests
        self.responses = responses

    def __call__(self, query: PredictorQuery) -> PredictorAnswer:
        self.requests.write(query_to_json(query) + "\n")
        self.requests.flush()
        line = self.responses.readline()
        if not line:
            raise DesyncError("external predictor closed the pipe")
        return answer_from_json(line)
