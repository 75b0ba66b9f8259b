"""``meshbench/tracing.py`` still reads this program. The tracer skips a
missing function, and its layer then reads zero instead of failing; a count
whose layer call changed shape is dropped the same way. So a rename or a new
signature would go unnoticed there."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from meshtok.cli import main
from meshtok.procgen import torus
from meshtok.streamio import write_obj

TRACING = Path(__file__).resolve().parent.parent / "meshbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("meshbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_is_a_program_function():
    layers = _tracing().LAYERS
    assert len(layers) == 15
    for name in layers:
        module, attr = name.split(".")
        assert callable(getattr(importlib.import_module(f"meshtok.{module}"), attr, None)), name


def test_every_count_is_read_from_a_real_call(tmp_path):
    # The commands call every counted layer: quantize, encode, both stream
    # writers, replay_outputs and closest_faces. Each command is one job, and
    # the tracer reads its counts from the arguments and results it saw.
    tracing = _tracing()
    obj, stream, text = tmp_path / "t.obj", tmp_path / "t.tmts", tmp_path / "t.jsonl"
    write_obj(torus(8, 6), obj)
    commands = [
        ["tokenize", str(obj), "-o", str(stream)],
        ["tokenize", str(obj), "-o", str(text), "--text"],
        ["detokenize", str(stream), "-o", str(tmp_path / "back.obj")],
        ["metrics", str(obj), str(tmp_path / "back.obj"), "--samples", "64"],
    ]
    timed = {f"{name}_ms" for name in tracing.LAYERS} | {"cli.self_ms"}
    counts: dict[str, float] = {}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for job, argv in enumerate(commands):
            tracer.job = job
            assert main(argv) == 0, argv
            out = tracer.close_job(job, 1.0, 1.0)
            counts.update((key, value) for key, value in out.items() if key not in timed)
    finally:
        tracer.uninstall()
    assert set(counts) == set(tracing.COUNTS)
    assert counts["sequencer.records"] == counts["generator.steps"] > 0
    assert counts["streamio.stream_bytes"] > 0 and counts["metrics.query_points"] > 0
