"""Batch command line: tokenize | detokenize | validate | preprocess | stats |
metrics | sample-pc | augment | fuzz.

Exit codes: 0 success, 1 validation rejection, 2 usage or format error.
Every command is deterministic given its flags; all randomness flows from
explicit seeds. ``tokenize`` and ``validate`` expect coordinates already
inside [-0.5, 0.5]; run ``preprocess`` first for raw inputs.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional

from .core import MAX_BITS, connected_components, valid_bits
from .generator import (
    DesyncError,
    GeneratorConfig,
    IllegalAnswerError,
    fuzz_predictor,
    replay_outputs,
    run,
)
from .metrics import EmptySurfaceError, evaluate, sample_surface
from .preprocess import (
    DegenerateExtentError,
    OutOfRangeError,
    PreprocessConfig,
    augment,
    quantize,
    run_preprocess,
)
from .sequencer import InvalidMeshError, MalformedSequenceError, encode
from . import streamio
from .streamio import (
    EmptyMeshError,
    FormatError,
    ObjParseError,
    read_obj,
    write_obj,
    write_pointcloud,
)


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _cmd_tokenize(args: argparse.Namespace) -> int:
    mesh = quantize(read_obj(args.input), args.bits)
    try:
        seq = encode(mesh, args.order)
    except InvalidMeshError as exc:
        violations = exc.report.violations
        _fail(f"mesh fails validation ({len(violations)} violations)")
        for v in violations[:10]:
            print(f"  {v.code}: {v.message}", file=sys.stderr)
        return 1
    write = streamio.write_text_stream if args.text else streamio.write_stream
    st = write(seq, args.output)
    print(
        f"wrote {args.output}: length={st.length} faces={st.n_faces} "
        f"components={st.n_components}"
    )
    return 0


def _cmd_detokenize(args: argparse.Namespace) -> int:
    bits, order, answers = streamio.read_stream_answers(args.input)
    result = replay_outputs(answers, bits, order)
    write_obj(result.mesh, args.output)
    print(
        f"wrote {args.output}: vertices={len(result.mesh.vertices)} "
        f"faces={len(result.mesh.faces)}"
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    mesh = quantize(read_obj(args.input), args.bits)
    try:
        comps = connected_components(mesh)
    except InvalidMeshError as exc:
        violations = exc.report.violations
        print(f"invalid: {len(violations)} violations")
        for v in violations:
            print(f"  {v.code}: {v.message}")
        return 1
    print(
        f"ok: {len(mesh.vertices)} vertices, {len(mesh.faces)} faces, "
        f"{len(comps)} components"
    )
    return 0


def _cmd_preprocess(args: argparse.Namespace) -> int:
    cfg = PreprocessConfig(
        bits=args.bits,
        max_faces=args.max_faces,
        proj_grid=args.proj_grid,
        proj_min_area=args.proj_min_area,
    )
    mesh, decision = run_preprocess(read_obj(args.input), cfg)
    if not decision.accept:
        print("rejected: " + " ".join(decision.reasons))
        return 1
    write_obj(mesh, args.output)
    print(
        f"wrote {args.output}: vertices={len(mesh.vertices)} faces={len(mesh.faces)}"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    bits, order, answers = streamio.read_stream_answers(args.input)
    st = replay_outputs(answers, bits, order).stats
    ratio = f"{st.ratio:.4f}" if st.ratio is not None else "n/a"
    print(
        f"length={st.length} faces={st.n_faces} components={st.n_components} "
        f"stops={st.n_stops} ratio={ratio}"
    )
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    src = read_obj(args.source)
    ref = read_obj(args.reference)
    report = evaluate(src, ref, samples=args.samples, seed=args.seed)
    if args.json:
        import dataclasses
        import json

        print(json.dumps(dataclasses.asdict(report), separators=(",", ":")))
    else:
        print(f"cd={report.cd:g} nc={report.nc:g} abs_nc={report.abs_nc:g}")
    return 0


def _cmd_sample_pc(args: argparse.Namespace) -> int:
    mesh = read_obj(args.input)
    points = sample_surface(mesh, args.count, args.seed)
    write_pointcloud(points, args.output, args.format)
    print(f"wrote {args.output}: {len(points)} points")
    return 0


def _cmd_augment(args: argparse.Namespace) -> int:
    cfg = PreprocessConfig(
        scale_low=args.scale_low,
        scale_high=args.scale_high,
        flip_prob=args.flip_prob,
        z_rot_max_degrees=args.z_rot_max,
    )
    mesh = augment(read_obj(args.input), cfg, args.seed)
    write_obj(mesh, args.output)
    print(f"wrote {args.output}: vertices={len(mesh.vertices)} faces={len(mesh.faces)}")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    predictor = fuzz_predictor(args.seed, args.bits)
    cfg = GeneratorConfig(bits=args.bits, order=args.order, max_steps=args.max_steps)
    result = run(predictor, cfg)
    st = result.stats
    print(
        f"halt={result.halt} steps={st.length} "
        f"faces={st.n_faces} components={st.n_components} stops={st.n_stops}"
    )
    return 0


def _int_at_least(low: int):
    """An argparse type for an integer >= ``low``, whose error names the flag."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value

    return parse


# Sample counts and step budgets; numpy's seeded generators take only seeds
# >= 0 (``fuzz`` seeds ``random.Random``, which takes any int).
_count = _int_at_least(1)
_seed = _int_at_least(0)


def _bits(text: str) -> int:
    """An argparse type for a grid depth that ``valid_bits`` accepts."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if not valid_bits(value):
        raise argparse.ArgumentTypeError(f"must be an integer in [1, {MAX_BITS}], got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meshtok",
        description="Mesh tokenizer, detokenizer, preprocessing, and metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tokenize", help="OBJ to token stream")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--bits", type=_bits, default=7)
    p.add_argument("--order", choices=["dfs", "bfs"], default="dfs")
    p.add_argument("--text", action="store_true", help="write the JSON-lines form")
    p.set_defaults(func=_cmd_tokenize)

    p = sub.add_parser("detokenize", help="token stream to OBJ")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_detokenize)

    p = sub.add_parser("validate", help="check the half-edge traversal requirement")
    p.add_argument("input")
    p.add_argument("--bits", type=_bits, default=7)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("preprocess", help="normalize, quantize, and screen a mesh")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--bits", type=_bits, default=7)
    p.add_argument("--max-faces", type=int, default=5500)
    p.add_argument("--proj-grid", type=int, default=256)
    p.add_argument("--proj-min-area", type=float, default=0.005)
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("stats", help="token stream accounting")
    p.add_argument("input")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("metrics", help="Chamfer distance and normal consistency")
    p.add_argument("source")
    p.add_argument("reference")
    p.add_argument("--samples", type=_count, default=10000)
    p.add_argument("--seed", type=_seed, default=42)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("sample-pc", help="area-weighted surface point samples")
    p.add_argument("input")
    p.add_argument("-n", "--count", type=_count, default=8192)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--format", choices=["xyz", "ply"], default="xyz")
    p.set_defaults(func=_cmd_sample_pc)

    p = sub.add_parser("augment", help="seeded scale and rotation augmentation")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--scale-low", type=float, default=0.75)
    p.add_argument("--scale-high", type=float, default=0.95)
    p.add_argument("--flip-prob", type=float, default=0.3)
    p.add_argument("--z-rot-max", type=float, default=180.0)
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("fuzz", help="seeded random-predictor robustness run")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-steps", type=_count, default=10000)
    p.add_argument("--bits", type=_bits, default=7)
    p.add_argument("--order", choices=["dfs", "bfs"], default="dfs")
    p.set_defaults(func=_cmd_fuzz)

    return parser


# Parsing leaves a parser unchanged, so every ``main`` call in a process
# reuses the one parser it builds.
_parser = functools.cache(build_parser)


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        OutOfRangeError,
        InvalidMeshError,
        DegenerateExtentError,
        EmptySurfaceError,
    ) as exc:
        _fail(str(exc))
        return 1
    except (
        FormatError,
        ObjParseError,
        MalformedSequenceError,
        DesyncError,
        IllegalAnswerError,
        EmptyMeshError,
        ValueError,
    ) as exc:
        _fail(str(exc))
        return 2
    except OSError as exc:
        _fail(str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
