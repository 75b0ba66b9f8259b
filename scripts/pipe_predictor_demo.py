#!/usr/bin/env python3
"""Cross-process demo of the line-delimited predictor protocol.

The parent tokenizes a fixture mesh, hands the stream file to a child
process, and regenerates the mesh by querying the child over stdin/stdout:
one JSON request per line out, one JSON answer per line back. The child
replays the stream's recorded outputs, standing in for a real sampler.

Usage: python scripts/pipe_predictor_demo.py
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
from pathlib import Path

from meshtok.generator import (
    GeneratorConfig,
    PipePredictor,
    answer_to_json,
    decode,
    query_from_json,
    run,
)
from meshtok.preprocess import quantize
from meshtok.procgen import torus
from meshtok.sequencer import encode
from meshtok.streamio import read_stream_answers, write_stream


def serve(stream_path: str) -> None:
    """Child side: answer each query with the next recorded output."""
    _, _, answers = read_stream_answers(stream_path)
    feed = iter(answers)
    for line in sys.stdin:
        query_from_json(line)  # parse for validation; a sampler would use it
        print(answer_to_json(next(feed)), flush=True)


def main() -> None:
    if len(sys.argv) == 3 and sys.argv[1] == "--serve":
        serve(sys.argv[2])
        return

    mesh = quantize(torus(10, 8), 7)
    seq = encode(mesh)
    with tempfile.TemporaryDirectory() as tmp:
        stream_path = Path(tmp) / "mesh.tmts"
        write_stream(seq, stream_path)
        child = subprocess.Popen(
            [sys.executable, __file__, "--serve", str(stream_path)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            predictor = PipePredictor(child.stdin, child.stdout)
            result = run(predictor, GeneratorConfig(max_steps=len(seq.outputs)))
        finally:
            child.stdin.close()
            child.wait(timeout=30)

    direct = decode(seq)
    assert result.mesh == direct, "piped regeneration diverged from direct decode"
    print(
        f"regenerated {len(result.mesh.faces)} faces / "
        f"{len(result.mesh.vertices)} vertices over the pipe; matches direct decode"
    )


if __name__ == "__main__":
    main()
