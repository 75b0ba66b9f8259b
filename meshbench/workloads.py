"""Workload inputs, the CLI jobs that consume them, and the checks of every
job's output.

A job is one input taken through the `meshtok` commands a user would run
on it; its rate is counted in the faces it was given. Each run builds a small
pool of inputs from its seed, then repeats whole rounds of the same jobs.
Every check compares the program's files against `oracles`, never against
stored output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

DAMAGE_KINDS = ("drop-face", "flip-byte", "negate-normal")


@dataclass
class Job:
    label: str
    faces: int  # input faces the job is credited with
    commands: list[list[str]]
    check: Callable[[list[str]], list[str]]  # stdouts -> failure messages
    stream: Path | None = None  # written token stream, if any
    stream_faces: int = 0
    obj_out: Path | None = None  # final mesh the job writes, if any
    metrics_out: list[int] = field(default_factory=list)  # stdouts holding a metrics report


@dataclass
class Plan:
    jobs: list[Job]  # one round
    extra: list[Job]  # run once per run after the timed rounds
    probe: list[list[str]]  # tiny first job for the set-up probes


def seeded(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# --- geometry helpers --------------------------------------------------------


def _rotation(rng: np.random.Generator) -> np.ndarray:
    w, x, y, z = (q := rng.normal(size=4)) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


_PHI = (1 + math.sqrt(5)) / 2
SOLIDS = {  # outward-wound unit solids
    "tetrahedron": (
        [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)],
        [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)],
    ),
    "octahedron": (
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
        [(0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4), (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5)],
    ),
    "cube": (
        [(-1, -1, -1), (1, -1, -1), (-1, 1, -1), (1, 1, -1),
         (-1, -1, 1), (1, -1, 1), (-1, 1, 1), (1, 1, 1)],
        [(0, 2, 3), (0, 3, 1), (4, 5, 7), (4, 7, 6), (0, 1, 5), (0, 5, 4),
         (2, 6, 7), (2, 7, 3), (0, 4, 6), (0, 6, 2), (1, 3, 7), (1, 7, 5)],
    ),
    "icosahedron": (
        [(-1, _PHI, 0), (1, _PHI, 0), (-1, -_PHI, 0), (1, -_PHI, 0),
         (0, -1, _PHI), (0, 1, _PHI), (0, -1, -_PHI), (0, 1, -_PHI),
         (_PHI, 0, -1), (_PHI, 0, 1), (-_PHI, 0, -1), (-_PHI, 0, 1)],
        [(0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11), (1, 5, 9),
         (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8), (3, 9, 4), (3, 4, 2),
         (3, 2, 6), (3, 6, 8), (3, 8, 9), (4, 9, 5), (2, 4, 11), (6, 2, 10),
         (8, 6, 7), (9, 8, 1)],
    ),
}


def _write_obj(path: Path, verts: np.ndarray, polys) -> None:
    lines = [f"v {x!r} {y!r} {z!r}" for x, y, z in verts.tolist()]
    lines += ["f " + " ".join(str(i + 1) for i in poly) for poly in np.asarray(polys).tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _on_grid(rng, verts: np.ndarray, faces: np.ndarray, bits: int):
    """Snap to the grid; None if two distinct vertices share a cell. The
    written coordinates sit within 0.3 cell of their cell centre, so the
    snap is the same however a reader rounds."""
    cells = oracles.snap(verts, bits)
    if len({tuple(c) for c in cells.tolist()}) < len(verts):
        return None
    jitter = rng.uniform(-0.3, 0.3, size=verts.shape)
    coords = (cells + 0.5 + jitter) / (1 << bits) - 0.5
    return coords, oracles.weld(cells, faces)


def _outputs(path: Path) -> str:
    return path.read_text(encoding="utf-8") if path.exists() else ""


# --- codec checks ------------------------------------------------------------


@dataclass
class Expected:
    """What a job's outputs must hold, computed once from its input."""

    faces: list
    bits: int
    order: str

    def __post_init__(self) -> None:
        self.multiset = oracles.face_multiset(self.faces)
        self.cells = {p for f in self.faces for p in f}
        self.components = oracles.component_count(self.faces)


def _stream_failures(stream: Path, text: bool, want: Expected) -> list[str]:
    if not stream.exists():
        return [f"{stream.name}: not written"]
    data = stream.read_bytes()
    try:
        if text:
            s_bits, s_order, records = oracles.parse_text_stream(data.decode("utf-8"))
        else:
            s_bits, s_order, records = oracles.parse_binary_stream(data)
        faces = oracles.replay(records, s_order)
    except (oracles.OracleError, UnicodeDecodeError) as exc:
        return [f"{stream.name}: {exc}"]
    fails = []
    if (s_bits, s_order) != (want.bits, want.order):
        fails.append(f"{stream.name}: header says {s_bits} bits {s_order}")
    n_records = oracles.expected_records(len(want.faces), want.components)
    if len(records) != n_records:
        fails.append(f"{stream.name}: {len(records)} records, expected {n_records}")
    size = oracles.expected_binary_size(len(want.faces), want.components)
    if not text and len(data) != size:
        fails.append(f"{stream.name}: {len(data)} bytes, expected {size}")
    if oracles.face_multiset(faces) != want.multiset:
        fails.append(f"{stream.name}: decoded faces differ from the snapped input")
    return fails


def _mesh_failures(obj: Path, want: Expected) -> list[str]:
    try:
        verts, faces = oracles.read_obj_faces(_outputs(obj), want.bits)
    except (oracles.OracleError, ValueError) as exc:
        return [f"{obj.name}: {exc}"]
    fails = []
    if oracles.face_multiset(faces) != want.multiset:
        fails.append(f"{obj.name}: faces differ from the snapped input")
    if verts != want.cells:
        fails.append(f"{obj.name}: vertex cells differ from the snapped input")
    return fails


def _codec_job(work: Path, label: str, expected: list, bits: int, order: str,
               text: bool) -> Job:
    src = work / f"{label}.obj"
    stream = work / f"{label}.{'jsonl' if text else 'tmts'}"
    back = work / f"{label}.back.obj"
    want = Expected(expected, bits, order)
    tok = ["tokenize", str(src), "-o", str(stream), "--bits", str(bits), "--order", order]

    def check(_stdouts):
        return _stream_failures(stream, text, want) + _mesh_failures(back, want)

    return Job(label, len(expected), [tok + (["--text"] if text else []),
                                      ["detokenize", str(stream), "-o", str(back)]],
               check, stream=stream, stream_faces=len(expected), obj_out=back)


# --- workloads ---------------------------------------------------------------


def _torus_on_grid(rng, n_major, n_minor, bits):
    while True:
        major, minor = rng.uniform(0.30, 0.33), rng.uniform(0.13, 0.15)
        verts, faces = oracles.torus_mesh(major, minor, n_major, n_minor,
                                          rng.random(), rng.random())
        placed = _on_grid(rng, verts @ _rotation(rng).T, faces, bits)
        if placed is not None:
            return placed, faces


def codec_solid(work: Path, rng: np.random.Generator) -> Plan:
    """Three closed single-component tori of 5,500 faces, 7-bit, DFS, binary."""
    jobs = []
    for k, (n_major, n_minor) in enumerate(((55, 50), (50, 55), (55, 50))):
        (coords, expected), faces = _torus_on_grid(rng, n_major, n_minor, 7)
        _write_obj(work / f"solid{k}.obj", coords, faces)
        jobs.append(_codec_job(work, f"solid{k}", expected, 7, "dfs", text=False))
    return Plan(jobs, [], _probe_codec(work, 7, "dfs", text=False))


SCENE_SOLIDS = ("tetrahedron", "octahedron", "cube", "icosahedron")
SCENE_EACH = 50  # solids of each kind per scene: 200 components, 2,200 faces


def _scene(rng, bits):
    slots = 7  # a 7x7x7 lattice of slots, one solid per chosen slot
    chosen = rng.choice(slots ** 3, size=len(SCENE_SOLIDS) * SCENE_EACH, replace=False)
    kinds = rng.permutation(np.repeat(np.arange(len(SCENE_SOLIDS)), SCENE_EACH))
    verts, faces, base = [], [], 0
    for slot, kind in zip(chosen.tolist(), kinds.tolist()):
        v, f = SOLIDS[SCENE_SOLIDS[kind]]
        v = np.asarray(v, dtype=float)
        v = v / np.linalg.norm(v, axis=1).max() * rng.uniform(0.3, 0.4) / slots
        centre = (np.array(np.unravel_index(slot, (slots,) * 3)) + 0.5) / slots - 0.5
        verts.append(v @ _rotation(rng).T + centre)
        faces.append(np.asarray(f) + base)
        base += len(v)
    verts, faces = np.concatenate(verts), np.concatenate(faces)
    return _on_grid(rng, verts, faces, bits), faces


def codec_scene(work: Path, rng: np.random.Generator) -> Plan:
    """Two scenes of 200 small disjoint solids, 9-bit, BFS, JSON-lines."""
    jobs = []
    for k in range(2):
        while True:
            placed, faces = _scene(rng, 9)
            if placed is not None:
                break
        _write_obj(work / f"scene{k}.obj", placed[0], faces)
        jobs.append(_codec_job(work, f"scene{k}", placed[1], 9, "bfs", text=True))
    return Plan(jobs, [], _probe_codec(work, 9, "bfs", text=True))


def _raw_quads(rng, n_major, n_minor):
    """Unwelded quad torus at arbitrary scale, offset and rotation: every
    quad lists its own four corners."""
    verts, _ = oracles.torus_mesh(rng.uniform(0.30, 0.33), rng.uniform(0.13, 0.15),
                                  n_major, n_minor, rng.random(), rng.random())
    scale = 10.0 ** rng.uniform(-1, 2)
    raw = scale * (verts @ _rotation(rng).T) + scale * rng.uniform(-3, 3, size=3)
    i, j = np.meshgrid(np.arange(n_major), np.arange(n_minor), indexing="ij")
    quads = np.stack([i * n_minor + j, ((i + 1) % n_major) * n_minor + j,
                      ((i + 1) % n_major) * n_minor + (j + 1) % n_minor,
                      i * n_minor + (j + 1) % n_minor], -1).reshape(-1, 4)
    return raw[quads.reshape(-1)], np.arange(4 * len(quads)).reshape(-1, 4)


def intake(work: Path, rng: np.random.Generator) -> Plan:
    """Three raw unwelded quad tori of 5,400 triangles: preprocess, then
    tokenize the cleaned mesh (7-bit, DFS, binary)."""
    bits, jobs = 7, []
    for k in range(3):
        while True:
            raw, quads = _raw_quads(rng, 54, 50)
            norm = oracles.normalize(raw)
            cells = oracles.snap(norm, bits)
            tris = np.concatenate([quads[:, [0, 1, 2]], quads[:, [0, 2, 3]]])
            expected = oracles.weld(cells, tris)
            # Reject inputs whose snap hangs on rounding, or whose welded
            # surface collapses cells (distinct torus vertices in one cell).
            if (oracles.snap_margin(norm, bits) > 1e-6
                    and len({tuple(c) for c in cells.tolist()}) == 54 * 50):
                break
        raw_obj, clean, stream = (work / f"raw{k}.obj", work / f"clean{k}.obj",
                                  work / f"clean{k}.tmts")
        _write_obj(raw_obj, raw, quads)

        def check(_stdouts, clean=clean, stream=stream, want=Expected(expected, bits, "dfs")):
            return _mesh_failures(clean, want) + _stream_failures(stream, False, want)

        jobs.append(Job(f"raw{k}", len(tris), [
            ["preprocess", str(raw_obj), "-o", str(clean), "--bits", str(bits)],
            ["tokenize", str(clean), "-o", str(stream), "--bits", str(bits)],
        ], check, stream=stream, stream_faces=len(expected), obj_out=clean))
    return Plan(jobs, [], _probe_intake(work))


EVAL_BITS = 10
EVAL_SAMPLES = 10000


def _metrics_report(stdout: str) -> dict:
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {}


def eval_(work: Path, rng: np.random.Generator) -> Plan:
    """One torus surface in two tessellations of 600 faces each: the first is
    taken through the codec at 10 bits, and `metrics` compares the decoded
    mesh with the second. Once per run, an 80- and an 84-face pair are
    compared with the scalar oracle, and one mesh with itself and with its
    flipped winding."""
    major, minor = rng.uniform(0.28, 0.32), rng.uniform(0.12, 0.15)
    while True:
        va, fa = oracles.torus_mesh(major, minor, 30, 10, rng.random(), rng.random())
        placed = _on_grid(rng, va, fa, EVAL_BITS)
        if placed is not None:
            break
    vb, fb = oracles.torus_mesh(major, minor, 25, 12, rng.random(), rng.random())
    src, ref = work / "src.obj", work / "ref.obj"
    _write_obj(src, placed[0], fa)
    _write_obj(ref, vb, fb)
    job = _codec_job(work, "src", placed[1], EVAL_BITS, "dfs", text=False)

    cell = 1.0 / (1 << EVAL_BITS)
    decoded = (oracles.snap(placed[0], EVAL_BITS) + 0.5) * cell - 0.5
    sag_a, ang_a = oracles.torus_deviation(decoded, fa, major, minor)
    sag_b, ang_b = oracles.torus_deviation(vb, fb, major, minor)
    # A centroid of one mesh lies within 2(sag_a + sag_b) of the other mesh,
    # and over that distance the surface normal turns by at most 1/minor per
    # unit length; 1.25 covers the lattice estimate of each maximum.
    gap = 2 * (sag_a + sag_b)
    nc_min = math.cos(1.25 * (ang_a + ang_b + 2 * gap / minor))
    spacing = math.sqrt(oracles.surface_area(vb, fb) / EVAL_SAMPLES)
    cd_range = (0.1 * spacing, 1.25 * gap + 2 * spacing)

    def check_pair(stdouts, base=job.check):
        fails = base(stdouts)
        rep = _metrics_report(stdouts[2])
        cd, nc, abs_nc = rep.get("cd", math.nan), rep.get("nc", math.nan), rep.get("abs_nc", math.nan)
        if not cd_range[0] <= cd <= cd_range[1]:
            fails.append(f"cd={cd} outside [{cd_range[0]:.4g}, {cd_range[1]:.4g}]")
        if not nc_min <= nc <= abs_nc + 1e-12 <= 1 + 2e-12:
            fails.append(f"nc={nc} abs_nc={abs_nc}: expected {nc_min:.4g} <= nc <= abs_nc <= 1")
        return fails

    job.faces = len(fa) + len(fb)
    job.check = check_pair
    job.commands.append(["metrics", str(job.obj_out), str(ref), "--json",
                         "--samples", str(EVAL_SAMPLES)])
    job.metrics_out = [2]
    return Plan([job], _eval_extra(work, rng), _probe_eval(work))


def _eval_extra(work: Path, rng) -> list[Job]:
    major, minor = rng.uniform(0.28, 0.32), rng.uniform(0.12, 0.15)
    va, fa = oracles.torus_mesh(major, minor, 8, 5, rng.random(), rng.random())
    vb, fb = oracles.torus_mesh(major, minor, 7, 6, rng.random(), rng.random())
    a, b, flipped = work / "small_a.obj", work / "small_b.obj", work / "small_a_flip.obj"
    _write_obj(a, va, fa)
    _write_obj(b, vb, fb)
    _write_obj(flipped, va, fa[:, ::-1])
    nc, abs_nc = oracles.normal_consistency(va[fa].tolist(), vb[fb].tolist())

    def expect(label, want_cd, want_nc, want_abs):
        def check(stdouts):
            rep = _metrics_report(stdouts[0])
            got = (rep.get("cd"), rep.get("nc"), rep.get("abs_nc"))
            ok = all(w is None or (g is not None and abs(g - w) <= 1e-9)
                     for g, w in zip(got, (want_cd, want_nc, want_abs)))
            return [] if ok else [f"{label}: got cd,nc,abs_nc={got}, expected "
                                  f"{(want_cd, want_nc, want_abs)} (None: any)"]
        return check

    def metrics(x, y):
        return [["metrics", str(x), str(y), "--json", "--samples", "2000"]]

    return [
        Job("oracle-pair", len(fa) + len(fb), metrics(a, b),
            expect("all-pairs oracle", None, nc, abs_nc), metrics_out=[0]),
        Job("self", 2 * len(fa), metrics(a, a), expect("self", 0.0, 1.0, 1.0), metrics_out=[0]),
        Job("flipped", 2 * len(fa), metrics(a, flipped),
            expect("flipped winding", None, -1.0, 1.0), metrics_out=[0]),
    ]


# --- set-up probes: the same commands on a tiny input -------------------------


def _probe_codec(work: Path, bits: int, order: str, text: bool) -> list[list[str]]:
    v, f = SOLIDS["octahedron"]
    src, stream, back = work / "probe.obj", work / "probe.tok", work / "probe.back.obj"
    _write_obj(src, np.asarray(v, dtype=float) * 0.4, f)
    return [["tokenize", str(src), "-o", str(stream), "--bits", str(bits), "--order", order]
            + (["--text"] if text else []), ["detokenize", str(stream), "-o", str(back)]]


def _probe_intake(work: Path) -> list[list[str]]:
    v, f = SOLIDS["cube"]
    raw, clean, stream = work / "probe.raw.obj", work / "probe.obj", work / "probe.tmts"
    _write_obj(raw, np.asarray(v, dtype=float) * 3.0 + 10.0, f)
    return [["preprocess", str(raw), "-o", str(clean)], ["tokenize", str(clean), "-o", str(stream)]]


def _probe_eval(work: Path) -> list[list[str]]:
    cmds = _probe_codec(work, EVAL_BITS, "dfs", text=False)
    return cmds + [["metrics", cmds[1][3], cmds[0][1], "--json", "--samples", "200"]]


WORKLOADS: dict[str, Callable[[Path, np.random.Generator], Plan]] = {
    "codec-solid": codec_solid,
    "codec-scene": codec_scene,
    "intake": intake,
    "eval": eval_,
}


# --- damage: corrupt a job's outputs so its checks must fail ------------------


def damage(job: Job, kind: str, stdouts: list[str]) -> bool:
    """Corrupt one output of ``job`` in place; False when the job has no
    output of that kind."""
    if kind == "negate-normal" and job.metrics_out:
        for i in job.metrics_out:
            rep = _metrics_report(stdouts[i])
            rep["nc"] = -rep.get("nc", 0.0)
            stdouts[i] = json.dumps(rep)
        return True
    if kind in ("drop-face", "negate-normal") and job.obj_out is not None:
        lines = job.obj_out.read_text(encoding="utf-8").splitlines()
        first = next(i for i, ln in enumerate(lines) if ln.startswith("f "))
        if kind == "drop-face":
            del lines[first]
        else:
            f = lines[first].split()
            lines[first] = " ".join([f[0], f[1], f[3], f[2]])
        job.obj_out.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return True
    if kind == "flip-byte" and job.stream is not None:
        data = bytearray(job.stream.read_bytes())
        # The low byte of the first vertex's z: opcode at 11 in the binary
        # form; the first digit after the header line in the text form.
        at = 12 if data[:4] == b"TMTS" else next(
            i for i in range(data.index(b"\n"), len(data)) if chr(data[i]).isdigit())
        data[at] ^= 0x01
        job.stream.write_bytes(bytes(data))
        return True
    return False
