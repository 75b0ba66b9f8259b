from __future__ import annotations

import io
import json
import os
import re
import threading
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from meshtok.core import Face, QuantizedMesh, QuantizedVertex, validate_manifold
from meshtok.preprocess import quantize
from meshtok.procgen import big_torus
from meshtok.sequencer import (
    EDGE,
    EOS,
    SOS,
    SOS2,
    STOP,
    VERTEX,
    StepRecord,
    TokenSequence,
    check_well_formed,
    encode,
    sequence_stats,
)
from meshtok.generator import (
    ANSWER_EOS,
    ANSWER_STOP,
    DesyncError,
    GeneratorConfig,
    IllegalAnswerError,
    PipePredictor,
    PredictorAnswer,
    PredictorQuery,
    answer_from_json,
    answer_to_json,
    answer_vertex,
    decode,
    fuzz_predictor,
    query_from_json,
    replay_outputs,
    run,
)
from meshtok import streamio
from meshtok.streamio import FormatError
from helpers import canonical_faces, reference_run, reusing_predictor

V1 = QuantizedVertex(0, 0, 0)
V2 = QuantizedVertex(10, 0, 0)
C = QuantizedVertex(0, 10, 0)
D = QuantizedVertex(5, 5, 9)
E = QuantizedVertex(3, 7, 11)


def _script(*answers):
    done = list(answers)
    i = [0]

    def predict(query):
        ans = done[i[0]]
        i[0] += 1
        return ans

    return predict


def _faces_then_stop(*edge_answers):
    """Start at V1, V2, answer the EDGE queries with ``edge_answers`` in turn,
    then STOP every further edge and end with EOS."""
    rest = iter(edge_answers)

    def predict(query):
        if query.kind == SOS:
            return ANSWER_EOS if query.step else answer_vertex(V1)
        if query.kind == SOS2:
            return answer_vertex(V2)
        return next(rest, ANSWER_STOP)

    return predict


class TestDecode:
    def test_roundtrip_tetrahedron(self, tetra):
        for order in ("dfs", "bfs"):
            out = decode(encode(tetra, order))
            assert canonical_faces(out) == canonical_faces(tetra)

    def test_roundtrip_single_triangle(self, triangle):
        out = decode(encode(triangle))
        assert len(out.faces) == 1
        assert canonical_faces(out) == canonical_faces(triangle)

    def test_opposite_winding_double_face_survives(self):
        # Two faces over the same unordered vertex set, opposite windings:
        # valid under the directed-edge rule, and decode must keep both.
        verts = [V1, V2, C]
        pillow = QuantizedMesh(verts, [Face(0, 1, 2), Face(0, 2, 1)], 7)
        out = decode(encode(pillow))
        assert len(out.faces) == 2
        assert canonical_faces(out) == canonical_faces(pillow)

    def test_vertex_on_an_edge_endpoint_desyncs(self, tetra, corpus7):
        # The grammar holds, so only replay can tell: the face would repeat
        # a vertex.
        for mesh in (tetra, dict(corpus7)["torus_12x8"]):
            seq = encode(mesh)
            faces = [
                i
                for i, r in enumerate(seq.records)
                if r.input_kind == EDGE and r.output_kind == VERTEX
            ]
            assert len(faces) == len(mesh.faces)
            for i in faces:
                for endpoint in seq.records[i].input_edge:
                    bad = TokenSequence(seq.bits, seq.order, list(seq.outputs))
                    bad.outputs[i] = answer_vertex(endpoint)
                    check_well_formed(bad)
                    with pytest.raises(DesyncError, match=f"step {i}: "):
                        decode(bad)

    def test_vertices_dedup_by_position(self, tetra):
        out = decode(encode(tetra))
        assert len(set(out.vertices)) == len(out.vertices)


class TestRunCoercions:
    def test_duplicate_face_coerced_to_stop(self):
        script = _script(
            answer_vertex(V1), answer_vertex(V2), answer_vertex(C),
            answer_vertex(V1),  # re-proposes {V1, V2, C}
            ANSWER_STOP, ANSWER_STOP, ANSWER_EOS,
        )
        result = run(script, GeneratorConfig(duplicate_check=True))
        assert result.halt == "eos"
        assert len(result.mesh.faces) == 1
        assert result.transcript.records[3].output_kind == STOP
        check_well_formed(result.transcript)

    def test_duplicate_face_kept_when_check_off(self):
        script = _script(
            answer_vertex(V1), answer_vertex(V2), answer_vertex(C),
            answer_vertex(V1),
            ANSWER_STOP, ANSWER_STOP, ANSWER_STOP, ANSWER_STOP, ANSWER_EOS,
        )
        result = run(script, GeneratorConfig(duplicate_check=False))
        assert len(result.mesh.faces) == 2

    def test_degenerate_vertex_coerced_to_stop(self):
        script = _script(
            answer_vertex(V1), answer_vertex(V2),
            answer_vertex(V1),  # would repeat an edge endpoint
            ANSWER_STOP, ANSWER_EOS,
        )
        result = run(script, GeneratorConfig(duplicate_check=False))
        assert result.halt == "eos"
        assert len(result.mesh.faces) == 0
        assert result.transcript.records[2].output_kind == STOP

    def test_off_grid_vertex_is_illegal_before_any_coercion(self):
        # The start edge repeats its vertex, so an on-grid face answer is
        # coerced to STOP, but an off-grid one is still an illegal answer.
        start = [answer_vertex(V1), answer_vertex(V1)]
        result = run(_script(*start, answer_vertex(C), ANSWER_STOP, ANSWER_EOS))
        assert result.transcript.outputs == [*start, ANSWER_STOP, ANSWER_STOP, ANSWER_EOS]
        assert result.mesh.faces == []
        with pytest.raises(IllegalAnswerError, match="step 2: .*7-bit grid"):
            run(_script(*start, answer_vertex(QuantizedVertex(0, 0, 128))))

    def test_replay_keeps_what_run_coerces(self):
        # The same answers replayed: the duplicate face is kept as recorded,
        # the degenerate one fails at its step.
        dup = [
            answer_vertex(V1), answer_vertex(V2), answer_vertex(C), answer_vertex(V1),
            ANSWER_STOP, ANSWER_STOP, ANSWER_STOP, ANSWER_STOP, ANSWER_EOS,
        ]
        assert len(replay_outputs(dup, 7).mesh.faces) == 2
        for degenerate in ([V1, V2, V1], [V1, V1, C]):
            answers = [*map(answer_vertex, degenerate), ANSWER_STOP, ANSWER_EOS]
            with pytest.raises(DesyncError, match="step 2: recorded vertex repeats an edge endpoint"):
                replay_outputs(answers, 7)

    def test_edge_conflict_allowed_when_disabled(self):
        answers = [
            answer_vertex(V1), answer_vertex(V2), answer_vertex(C),
            answer_vertex(D), answer_vertex(C),
            ANSWER_STOP, ANSWER_STOP, ANSWER_STOP, ANSWER_STOP, ANSWER_STOP,
            ANSWER_EOS,
        ]
        result = run(_script(*answers), GeneratorConfig(duplicate_check=False))
        assert len(result.mesh.faces) == 3

    def test_face_reusing_a_directed_edge_over_a_new_vertex_set_stops(self):
        # (E, V2, C) would reuse the directed edge (V2, C) of the first face,
        # though no face so far has the vertex set {E, V2, C}.
        script = _faces_then_stop(*map(answer_vertex, (C, D, E, C)))
        result = run(script, GeneratorConfig(duplicate_check=True))
        assert result.transcript.records[5].output_kind == STOP
        assert len(result.mesh.faces) == 3
        assert validate_manifold(result.mesh).ok

    def test_face_over_a_new_vertex_reusing_the_start_edge_stops(self):
        # (D, V2, V1) hands the start edge (V1, V2) back to the stack, so a
        # face on it over the new vertex E would reuse that directed edge.
        script = _faces_then_stop(*map(answer_vertex, (C, D, V1, E)))
        result = run(script, GeneratorConfig(duplicate_check=True))
        assert result.transcript.records[5].output_kind == STOP
        assert len(result.mesh.faces) == 3
        assert validate_manifold(result.mesh).ok

    @pytest.mark.parametrize("order", ["dfs", "bfs"])
    def test_encoded_transcripts_pass_unchanged(self, order, corpus7, corpus9):
        for name, mesh in [*corpus7, *corpus9, ("big_torus", quantize(big_torus(), 7))]:
            seq = encode(mesh, order)
            cfg = GeneratorConfig(bits=mesh.bits, order=order, max_steps=len(seq.outputs))
            result = run(_script(*seq.outputs), cfg)
            assert result.transcript.outputs == seq.outputs, name
            assert result.mesh == decode(seq), name


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    bits=st.integers(1, 16),
    order=st.sampled_from(["dfs", "bfs"]),
    make=st.sampled_from([fuzz_predictor, reusing_predictor]),
)
def test_run_keeps_the_directed_edge_rule(seed, bits, order, make):
    on = GeneratorConfig(bits=bits, order=order)
    result, ref = run(make(seed, bits), on), reference_run(make(seed, bits), on)
    mesh = result.mesh
    if mesh.faces:
        assert validate_manifold(mesh).ok
        assert canonical_faces(decode(encode(mesh))) == canonical_faces(mesh)
    assert len({frozenset(f) for f in mesh.faces}) == len(mesh.faces)
    # The old vertex-set rule agrees wherever its mesh keeps the edge rule.
    ref_keeps_rule = not ref.mesh.faces or validate_manifold(ref.mesh).ok
    assert (result.transcript == ref.transcript) == ref_keeps_rule
    off = GeneratorConfig(bits=bits, order=order, duplicate_check=False)
    assert run(make(seed, bits), off).transcript == reference_run(make(seed, bits), off).transcript


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    bits=st.sampled_from([1, 2, 3, 7]),
    order=st.sampled_from(["dfs", "bfs"]),
    max_steps=st.sampled_from([1, 2, 3, 5, 40, 10000]),
)
def test_run_stats_equal_a_recount_of_the_records(seed, bits, order, max_steps):
    cfg = GeneratorConfig(bits=bits, order=order, max_steps=max_steps)
    result = run(reusing_predictor(seed, bits), cfg)
    records = result.transcript.records
    stats = result.stats
    assert stats.length == len(records)
    assert stats.n_faces == len(result.mesh.faces)
    assert stats.n_components == sum(r.input_kind == SOS and r.output_kind == VERTEX for r in records)
    assert stats.n_stops == sum(r.output_kind == STOP for r in records)
    if result.halt == "eos":
        assert stats == sequence_stats(result.transcript)


class TestRunHalts:
    def test_eos_to_first_query_yields_empty_mesh(self):
        result = run(_script(ANSWER_EOS))
        assert result.halt == "eos"
        assert result.mesh.faces == [] and result.mesh.vertices == []
        assert result.transcript.records == [StepRecord(SOS, None, EOS, None)]

    def test_component_without_faces_still_records_seen_vertices(self):
        script = _script(
            answer_vertex(V1), answer_vertex(V2), ANSWER_STOP, ANSWER_STOP, ANSWER_EOS
        )
        result = run(script)
        assert result.mesh.faces == []
        assert result.mesh.vertices == [V1, V2]

    def test_budget_halt_marks_truncated(self):
        counter = [0]

        def greedy(query):
            if query.kind in (SOS, "sos2"):
                counter[0] += 1
                return answer_vertex(QuantizedVertex(counter[0] % 128, 0, 1))
            counter[0] += 1
            return answer_vertex(
                QuantizedVertex(counter[0] % 128, (counter[0] // 128) % 128, 2)
            )

        result = run(greedy, GeneratorConfig(max_steps=10))
        assert result.halt == "budget"
        assert result.transcript.truncated
        assert len(result.transcript.records) == 10

    @pytest.mark.parametrize("order", ["dfs", "bfs"])
    def test_budget_halted_transcript_derives_the_queries(self, order):
        # On a 2-bit grid the fuzzer's answers get coerced to STOP; the
        # records pair each query with the output after coercion.
        seen, given = [], []
        fuzz = fuzz_predictor(0, bits=2)

        def spy(query):
            seen.append(query)
            given.append(fuzz(query))
            return given[-1]

        result = run(spy, GeneratorConfig(bits=2, order=order, max_steps=60))
        assert result.halt == "budget"
        assert given != result.transcript.outputs
        records = result.transcript.records
        assert [(r.input_kind, r.input_edge) for r in records] == [
            (q.kind, q.edge) for q in seen
        ]
        assert [(r.output_kind, r.output_vertex) for r in records] == result.transcript.outputs

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError, match="unknown traversal order"):
            run(fuzz_predictor(0), GeneratorConfig(order="xyz"))
        with pytest.raises(ValueError, match="unknown traversal order"):
            replay_outputs([ANSWER_EOS], 7, "xyz")

    @pytest.mark.parametrize("bits", [0, 17, -1, True, False])  # a bool is not a bit count
    def test_unsupported_bits_rejected(self, bits):
        message = r"bits must be in \[1, 16\]"
        with pytest.raises(ValueError, match=message):
            fuzz_predictor(0, bits)
        with pytest.raises(ValueError, match=message):
            run(fuzz_predictor(0), GeneratorConfig(bits=bits))
        with pytest.raises(ValueError, match=message):
            replay_outputs([ANSWER_EOS], bits)

    def test_illegal_answers_abort(self):
        with pytest.raises(IllegalAnswerError):
            run(_script(ANSWER_STOP))  # STOP answering SOS
        with pytest.raises(IllegalAnswerError):
            run(_script(answer_vertex(V1), ANSWER_EOS))  # EOS answering SOS2
        with pytest.raises(IllegalAnswerError):
            run(_script(answer_vertex(V1), answer_vertex(V2), ANSWER_EOS))

    @pytest.mark.parametrize(
        "outside",
        [QuantizedVertex(500, 0, 0), QuantizedVertex(0, -3, 0), QuantizedVertex(0, 0, 128)],
    )
    def test_vertex_outside_the_grid_aborts_at_its_step(self, outside):
        for prefix in ([], [answer_vertex(V1)], [answer_vertex(V1), answer_vertex(V2)]):
            script = _script(*prefix, answer_vertex(outside))
            with pytest.raises(IllegalAnswerError, match=f"step {len(prefix)}: .*7-bit grid"):
                run(script, GeneratorConfig(bits=7))


class TestRefusedAnswers:
    """An answer whose vertex does not fit its kind is illegal at its step,
    in generation and in replay alike: no stream can hold it."""

    @pytest.mark.parametrize("prefix", [[], [V1], [V1, V2]])
    def test_vertex_answer_without_a_vertex(self, prefix):
        answers = [*map(answer_vertex, prefix), PredictorAnswer(VERTEX)]
        message = f"step {len(prefix)}: a vertex answer carries no vertex"
        with pytest.raises(IllegalAnswerError, match=message):
            run(_script(*answers))
        with pytest.raises(IllegalAnswerError, match=message):
            replay_outputs(answers, 7)

    @pytest.mark.parametrize("prefix", [[], [V1], [V1, V2]])
    @pytest.mark.parametrize(
        "vertex",
        [
            QuantizedVertex(1.5, 0, 0),  # within the grid, but no integer
            QuantizedVertex(0, 1.0, 0),
            QuantizedVertex(True, 0, 0),  # a bool is no coordinate
            (1, 2),
            (1, 2, 3, 4),
            "abc",
            7,
        ],
    )
    def test_vertex_that_is_not_three_integers(self, prefix, vertex):
        # Each SOS, SOS2 and EDGE step refuses it by name; run does not emit
        # a mesh or transcript that a writer then fails on.
        answers = [*map(answer_vertex, prefix), PredictorAnswer(VERTEX, vertex), ANSWER_STOP]
        message = rf"step {len(prefix)}: vertex .* is not three integers"
        with pytest.raises(IllegalAnswerError, match=message):
            run(_script(*answers, ANSWER_STOP, ANSWER_EOS))
        with pytest.raises(IllegalAnswerError, match=message):
            replay_outputs(answers, 7)

    @pytest.mark.parametrize(
        "prefix,kind", [([], EOS), ([V1, V2], STOP), ([V1, V2], EOS)]
    )
    def test_stop_or_eos_carrying_a_vertex(self, prefix, kind):
        answers = [*map(answer_vertex, prefix), PredictorAnswer(kind, C), ANSWER_STOP, ANSWER_EOS]
        message = f"step {len(prefix)}: a {kind} answer carries a vertex"
        with pytest.raises(IllegalAnswerError, match=message):
            run(_script(*answers))
        with pytest.raises(IllegalAnswerError, match=message):
            replay_outputs(answers, 7)


class TestReplayOutputs:
    def test_rebuilds_the_encoded_sequence(self, tetra):
        seq = encode(tetra)
        rebuilt = replay_outputs(list(seq.outputs), seq.bits, seq.order).transcript
        assert rebuilt == seq
        assert rebuilt.records == seq.records

    def test_trailing_outputs_rejected(self):
        with pytest.raises(DesyncError):
            replay_outputs([ANSWER_EOS, ANSWER_EOS], 7)

    def test_missing_eos_rejected(self):
        with pytest.raises(DesyncError):
            replay_outputs([answer_vertex(V1), answer_vertex(V2), ANSWER_STOP], 7)
        with pytest.raises(DesyncError):
            replay_outputs([], 7)

    def test_degenerate_record_rejected_when_strict(self):
        answers = [
            answer_vertex(V1), answer_vertex(V2), answer_vertex(V1),
            ANSWER_STOP, ANSWER_EOS,
        ]
        with pytest.raises(DesyncError, match="step 2: recorded vertex repeats an edge endpoint"):
            replay_outputs(answers, 7)


class TestFuzzPredictor:
    def test_deterministic_per_seed(self):
        cfg = GeneratorConfig(max_steps=10000)
        r1 = run(fuzz_predictor(11), cfg)
        r2 = run(fuzz_predictor(11), cfg)
        assert r1.transcript == r2.transcript
        assert r1.mesh == r2.mesh

    @pytest.mark.parametrize("seed", range(10))
    def test_runs_are_legal_and_halt(self, seed):
        result = run(fuzz_predictor(seed), GeneratorConfig(max_steps=10000))
        assert result.halt in ("eos", "budget")
        if result.halt == "eos":
            check_well_formed(result.transcript)
        for f in result.mesh.faces:
            positions = {
                result.mesh.vertices[f.a],
                result.mesh.vertices[f.b],
                result.mesh.vertices[f.c],
            }
            assert len(positions) == 3

    def test_no_duplicate_faces_with_check_on(self):
        for seed in range(10):
            result = run(
                fuzz_predictor(seed, bits=3),
                GeneratorConfig(bits=3, duplicate_check=True, max_steps=10000),
            )
            keys = [frozenset(f) for f in result.mesh.faces]
            assert len(keys) == len(set(keys))


class TestPipeProtocol:
    def test_external_predictor_over_pipe_matches_direct_run(self):
        seed = 7
        cfg = GeneratorConfig(max_steps=500)
        direct = run(fuzz_predictor(seed), cfg)

        req_r, req_w = os.pipe()
        resp_r, resp_w = os.pipe()

        def serve():
            inner = fuzz_predictor(seed)
            with os.fdopen(req_r, "r") as rf, os.fdopen(resp_w, "w") as wf:
                for line in rf:
                    answer = inner(query_from_json(line))
                    wf.write(answer_to_json(answer) + "\n")
                    wf.flush()

        server = threading.Thread(target=serve)
        server.start()
        try:
            with os.fdopen(req_w, "w") as requests, os.fdopen(resp_r, "r") as responses:
                piped = run(PipePredictor(requests, responses), cfg)
        finally:
            server.join(timeout=10)
        assert piped.transcript == direct.transcript
        assert piped.mesh == direct.mesh

    def test_canonical_answers_skip_the_json_decoder(self, monkeypatch):
        # A sampler's answers, written as answer_to_json writes them, end in a
        # newline; the predictor reads them without the JSON decoder.
        answers = [answer_vertex(QuantizedVertex(1, 2, 3)), ANSWER_STOP, ANSWER_EOS]
        responses = io.StringIO("".join(answer_to_json(a) + "\n" for a in answers))
        predictor = PipePredictor(io.StringIO(), responses)
        query = PredictorQuery(step=0, kind=SOS, component=0, stack_depth=0)
        loads = mock.Mock(wraps=json.loads)
        monkeypatch.setattr(streamio.json, "loads", loads)
        assert [predictor(query) for _ in answers] == answers
        loads.assert_not_called()

    def test_crlf_answers_read_like_lf_ones(self):
        # A "\r" before the "\n" belongs to the line end, as in a text stream.
        answers = [answer_vertex(QuantizedVertex(1, 2, 3)), ANSWER_STOP, ANSWER_STOP, ANSWER_EOS]
        lines = [*map(answer_to_json, answers[:2]), '{"op": "stop"}', '{ "op":"eos" }']
        predictor = PipePredictor(io.StringIO(), io.StringIO("".join(line + "\r\n" for line in lines)))
        query = PredictorQuery(step=0, kind=SOS, component=0, stack_depth=0)
        assert [predictor(query) for _ in answers] == answers

    @pytest.mark.parametrize(
        "parse, line, brk",
        [
            (answer_from_json, '{"op":\r"eos"}', "\r"),
            (answer_from_json, '{"op":"v","z":1,"y":2,"x":3,"note":"a\u2028b"}', "\u2028"),
            (answer_from_json, '{"op":"stop"}\x0c', "\x0c"),
            (query_from_json, '{"step":0,"kind":"sos",\u2029"component":0,"stack_depth":0}', "\u2029"),
        ],
        ids=["answer_carriage_return", "answer_line_separator_in_a_string", "answer_form_feed", "query"],
    )
    def test_line_break_inside_a_line_is_a_format_error(self, parse, line, brk):
        # The pipe's lines follow the text stream's line rule.
        where = "answer line" if parse is answer_from_json else "query line"
        with pytest.raises(FormatError, match=re.escape(f"line break {brk!r} inside {where}")):
            parse(line)

    def test_blank_answer_is_a_format_error(self):
        predictor = PipePredictor(io.StringIO(), io.StringIO("\n"))
        query = PredictorQuery(step=0, kind=SOS, component=0, stack_depth=0)
        with pytest.raises(FormatError, match=r"answer line: .*line 1 column 1 \(char 0\)"):
            predictor(query)

    def test_wire_forms_roundtrip(self):
        answers = [answer_vertex(QuantizedVertex(1, 2, 3)), ANSWER_STOP, ANSWER_EOS]
        lines = [answer_to_json(a) for a in answers]
        assert lines[0] == '{"op":"v","z":3,"y":2,"x":1}'
        assert lines[1] == '{"op":"stop"}'
        assert lines[2] == '{"op":"eos"}'

    @pytest.mark.parametrize(
        "line",
        [
            "[1]",
            '{"op":"v","z":1}',
            '{"op":"v","z":1.9,"y":2.7,"x":true}',
            '{"op":"v","z":1,"y":2,"x":-1}',
            '{"op":"v","z":1,"y":2,',
            '{"op":"face"}',
        ],
        ids=[
            "not_an_object",
            "missing_coordinate",
            "fractional_and_bool",
            "negative",
            "bad_json",
            "unknown_op",
        ],
    )
    def test_malformed_answer_is_a_format_error(self, line):
        with pytest.raises(FormatError, match="answer line"):
            answer_from_json(line)

    @pytest.mark.parametrize(
        "line",
        [
            "[1]",
            '{"step":1,"kind":"sos",',
            '{"step":1,"kind":"face","component":0,"stack_depth":0}',
            '{"kind":"edge"}',
            '{"step":1.9,"kind":"sos","component":true,"stack_depth":0}',
            '{"step":-1,"kind":"sos","component":0,"stack_depth":0}',
            '{"step":1,"kind":"sos2","component":0,"stack_depth":0}',
            '{"step":1,"kind":"sos2","component":0,"stack_depth":0,"v1":[1,2,3]}',
            '{"step":2,"kind":"edge","component":0,"stack_depth":1,'
            '"a":{"z":1,"y":2,"x":3},"b":{"z":1,"y":2.5,"x":3}}',
            '{"step":2,"kind":"edge","component":0,"stack_depth":1,'
            '"a":{"z":1,"y":2,"x":3},"b":{"z":1,"y":2,"x":true}}',
        ],
        ids=[
            "not_an_object",
            "bad_json",
            "unknown_kind",
            "missing_fields",
            "fractional_and_bool_counts",
            "negative_step",
            "missing_v1",
            "v1_not_an_object",
            "fractional_coordinate",
            "bool_coordinate",
        ],
    )
    def test_malformed_query_is_a_format_error(self, line):
        with pytest.raises(FormatError, match="query line"):
            query_from_json(line)

    def test_answer_json_roundtrips(self):
        for answer in (answer_vertex(QuantizedVertex(1, 2, 3)), ANSWER_STOP, ANSWER_EOS):
            assert answer_from_json(answer_to_json(answer)) == answer

    def test_query_json_shapes(self, triangle):
        seen = []

        def spy(query):
            seen.append(query_from_json(json_line(query)))
            return replay[len(seen) - 1]

        from meshtok.generator import query_to_json as json_line

        seq = encode(triangle)
        replay = seq.outputs
        run(spy, GeneratorConfig(max_steps=len(replay)))
        assert [q.kind for q in seen] == [r.input_kind for r in seq.records]
        assert seen[2].edge == seq.records[2].input_edge
