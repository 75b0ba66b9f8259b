"""Predictor-driven stack machine: replays or generates token sequences and
assembles the resulting mesh.

The machine owns all traversal state (pending edges, emitted faces, vertex
interning) and asks a predictor callback for one answer per step. Driving it
with recorded outputs inverts the tokenizer; driving it with a sampler
generates. Vertices are identified by quantized position: positions already
seen are merged during assembly, and the output mesh is every emitted face
over the union of seen vertices.

Answers that would emit a face with a repeated vertex position are coerced
to STOP, as are duplicate faces when the duplicate check is on. Coercions
record STOP in the transcript, so transcripts always replay cleanly. A vertex
outside the ``2**bits`` grid is an illegal answer.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, TextIO

from .core import Face, QuantizedMesh, QuantizedVertex
from .sequencer import (
    DFS,
    EDGE,
    EOS,
    SOS,
    SOS2,
    STOP,
    VERTEX,
    EdgePositions,
    StepRecord,
    TokenSequence,
    check_well_formed,
)

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


@dataclass(frozen=True)
class PredictorAnswer:
    kind: str  # vertex | stop | eos
    vertex: Optional[QuantizedVertex] = None


ANSWER_STOP = PredictorAnswer(STOP)
ANSWER_EOS = PredictorAnswer(EOS)


def answer_vertex(v: QuantizedVertex) -> PredictorAnswer:
    return PredictorAnswer(VERTEX, v)


Predictor = Callable[[PredictorQuery], PredictorAnswer]


@dataclass
class GeneratorConfig:
    bits: int = 7
    order: str = DFS
    duplicate_check: bool = True
    max_steps: int = 10000


@dataclass
class RunResult:
    mesh: QuantizedMesh
    transcript: TokenSequence
    halt: str  # HALT_EOS | HALT_BUDGET


class _Machine:
    """Single-run mutable traversal state."""

    def __init__(self, cfg: GeneratorConfig, coerce_degenerate: bool):
        self.cfg = cfg
        self.coerce_degenerate = coerce_degenerate
        self.pending: deque[EdgePositions] = deque()
        self.take = self.pending.pop if cfg.order == DFS else self.pending.popleft
        self.vert_index: dict[QuantizedVertex, int] = {}
        self.verts: list[QuantizedVertex] = []
        self.faces: list[Face] = []
        self.canonical: set[frozenset[int]] = set()
        self.cells = 1 << cfg.bits
        self.records: list[StepRecord] = []
        self.component = 0
        self.step = 0
        self.mode = SOS
        self.v1: Optional[QuantizedVertex] = None
        self.current_edge: Optional[EdgePositions] = None
        self.done = False

    def intern(self, v: QuantizedVertex) -> int:
        idx = self.vert_index.get(v)
        if idx is None:
            idx = len(self.verts)
            self.vert_index[v] = idx
            self.verts.append(v)
        return idx

    def next_query(self) -> PredictorQuery:
        if self.mode == SOS:
            return PredictorQuery(self.step, SOS, self.component, 0)
        if self.mode == SOS2:
            return PredictorQuery(self.step, SOS2, self.component, 0, v1=self.v1)
        self.current_edge = self.take()
        return PredictorQuery(
            self.step, EDGE, self.component, len(self.pending), edge=self.current_edge
        )

    def apply(self, query: PredictorQuery, answer: PredictorAnswer) -> None:
        kind = query.kind
        v = answer.vertex
        if answer.kind == VERTEX:
            assert v is not None
            cells = self.cells
            if not (0 <= v.x < cells and 0 <= v.y < cells and 0 <= v.z < cells):
                raise IllegalAnswerError(
                    f"step {query.step}: vertex {tuple(v)} outside the "
                    f"{self.cfg.bits}-bit grid"
                )
        if kind == SOS:
            if answer.kind == EOS:
                self.records.append(StepRecord(SOS, None, EOS, None))
                self.done = True
            elif answer.kind == VERTEX:
                self.intern(v)
                self.records.append(StepRecord(SOS, None, VERTEX, v))
                self.v1 = v
                self.mode = SOS2
            else:
                raise IllegalAnswerError(f"step {query.step}: {answer.kind} answers SOS")
        elif kind == SOS2:
            if answer.kind != VERTEX:
                raise IllegalAnswerError(f"step {query.step}: {answer.kind} answers SOS2")
            assert self.v1 is not None
            self.intern(v)
            self.records.append(StepRecord(SOS2, None, VERTEX, v))
            self.pending.append((v, self.v1))  # twin below the start edge
            self.pending.append((self.v1, v))
            self.mode = EDGE
        else:
            edge = query.edge
            assert edge is not None
            if answer.kind == STOP:
                self.records.append(StepRecord(EDGE, edge, STOP, None))
            elif answer.kind == VERTEX:
                self._apply_vertex(edge, v, query.step)
            else:
                raise IllegalAnswerError(f"step {query.step}: {answer.kind} answers EDGE")
        self.step += 1

    def _apply_vertex(self, edge: EdgePositions, c: QuantizedVertex, step: int) -> None:
        a, b = edge
        if len({a, b, c}) != 3:
            if not self.coerce_degenerate:
                raise DesyncError(
                    f"step {step}: recorded vertex repeats an edge endpoint"
                )
            self.records.append(StepRecord(EDGE, edge, STOP, None))
            return
        ia, ib = self.intern(a), self.intern(b)
        ic = self.intern(c)
        key = frozenset((ia, ib, ic))
        if self.cfg.duplicate_check and key in self.canonical:
            self.records.append(StepRecord(EDGE, edge, STOP, None))
            return
        self.faces.append(Face(ia, ib, ic))
        self.canonical.add(key)
        self.records.append(StepRecord(EDGE, edge, VERTEX, c))
        self.pending.append((a, c))
        self.pending.append((c, b))

    def component_finished(self) -> bool:
        return self.mode == EDGE and not self.pending

    def result(self, halt: str) -> RunResult:
        mesh = QuantizedMesh(list(self.verts), list(self.faces), self.cfg.bits)
        transcript = TokenSequence(
            bits=self.cfg.bits,
            order=self.cfg.order,
            records=self.records,
            truncated=(halt == HALT_BUDGET),
        )
        return RunResult(mesh, transcript, halt)


def _drive(
    predictor: Predictor, cfg: GeneratorConfig, coerce_degenerate: bool
) -> RunResult:
    if cfg.max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    machine = _Machine(cfg, coerce_degenerate)
    for _ in range(cfg.max_steps):
        query = machine.next_query()
        answer = predictor(query)
        machine.apply(query, answer)
        if machine.done:
            return machine.result(HALT_EOS)
        if machine.component_finished():
            machine.component += 1
            machine.mode = SOS
    return machine.result(HALT_BUDGET)


def run(predictor: Predictor, cfg: Optional[GeneratorConfig] = None) -> RunResult:
    """Generate a mesh by querying the predictor at most ``cfg.max_steps`` times."""
    return _drive(predictor, cfg or GeneratorConfig(), coerce_degenerate=True)


def decode(seq: TokenSequence) -> QuantizedMesh:
    """Strict replay: recover exactly the faces of the EDGE->VERTEX records.

    Replays the recorded outputs and requires the transcript the machine
    derives to equal the recorded one. Raises DesyncError when the recorded
    inputs disagree with the machine's derived state, MalformedSequenceError
    when the sequence itself is structurally broken.
    """
    check_well_formed(seq)
    answers = [PredictorAnswer(r.output_kind, r.output_vertex) for r in seq.records]
    try:
        derived = replay_outputs(answers, seq.bits, seq.order)
    except IllegalAnswerError as exc:
        # Every record pairs its input with a legal output, so an answer the
        # machine rejects was recorded against a different input, or lies
        # outside the sequence's grid.
        raise DesyncError(f"recorded stream disagrees with the machine: {exc}") from exc
    for i, (got, rec) in enumerate(zip(derived.transcript.records, seq.records)):
        if got != rec:
            raise DesyncError(
                f"step {i}: recorded input {rec.input_kind} {rec.input_edge}, "
                f"machine derived {got.input_kind} {got.input_edge}"
            )
    return derived.mesh


def replay_outputs(
    answers: list[PredictorAnswer],
    bits: int,
    order: str = DFS,
    duplicate_check: bool = False,
    coerce_degenerate: bool = False,
) -> RunResult:
    """Drive the machine with recorded outputs alone, deriving all inputs.

    This is how output-only streams are given structure again. Raises
    DesyncError when the machine halts before consuming every answer or runs
    out of answers before reaching EOS.
    """
    if not answers:
        raise DesyncError("output stream has no terminal EOS")
    feed = iter(answers)
    cfg = GeneratorConfig(
        bits=bits, order=order, duplicate_check=duplicate_check, max_steps=len(answers)
    )
    result = _drive(lambda query: next(feed), cfg, coerce_degenerate=coerce_degenerate)
    if result.halt != HALT_EOS:
        raise DesyncError("output stream has no terminal EOS")
    consumed = len(result.transcript.records)
    if consumed != len(answers):
        raise DesyncError(
            f"{len(answers) - consumed} trailing records after the machine halted"
        )
    return result


def fuzz_predictor(seed: int, bits: int = 7) -> Predictor:
    """Random but always-legal predictor, deterministic per seed.

    STOP outweighs VERTEX on edge queries so components stay subcritical and
    runs terminate well inside usual budgets; EOS ends the mesh with
    probability 1/4 at each component boundary.
    """
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


def _vertex_from_obj(obj: dict) -> QuantizedVertex:
    return QuantizedVertex(int(obj["x"]), int(obj["y"]), int(obj["z"]))


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
    obj = json.loads(line)
    kind = obj["kind"]
    v1 = _vertex_from_obj(obj["v1"]) if kind == SOS2 else None
    edge = None
    if kind == EDGE:
        edge = (_vertex_from_obj(obj["a"]), _vertex_from_obj(obj["b"]))
    return PredictorQuery(
        step=int(obj["step"]),
        kind=kind,
        component=int(obj["component"]),
        stack_depth=int(obj["stack_depth"]),
        v1=v1,
        edge=edge,
    )


def answer_to_json(answer: PredictorAnswer) -> str:
    if answer.kind == VERTEX:
        assert answer.vertex is not None
        obj = {"op": "v", **_vertex_obj(answer.vertex)}
    elif answer.kind == STOP:
        obj = {"op": "stop"}
    else:
        obj = {"op": "eos"}
    return json.dumps(obj, separators=(",", ":"))


def answer_from_json(line: str) -> PredictorAnswer:
    obj = json.loads(line)
    op = obj.get("op")
    if op == "v":
        return answer_vertex(_vertex_from_obj(obj))
    if op == "stop":
        return ANSWER_STOP
    if op == "eos":
        return ANSWER_EOS
    raise ValueError(f"unknown answer op: {op!r}")


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
