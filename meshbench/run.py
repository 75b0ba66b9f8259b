"""Run one benchmark workload through ``meshtok.cli.main`` and print its metrics.

    python3 meshbench/run.py --workload codec-solid --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory, in this single-threaded process. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the per-layer ones from a traced run. Times are in reference
seconds (see refclock.py and README.md). A run summary with the raw wall
times and loop timings, and in traced runs every span, is written under
``meshbench/out/``.
"""

from __future__ import annotations

import os

# One thread everywhere: set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import refclock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7  # timed set-up probes per untraced run, after one untimed one

PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import meshtok.cli
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[2]):
        if meshtok.cli.main(argv) != 0:
            sys.exit(1)
"""


def import_program():
    """meshtok.cli from this checkout's src/; exits with an error otherwise."""
    if not (SRC / "meshtok" / "cli.py").is_file():
        sys.exit(f"error: no program source at {SRC / 'meshtok'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import meshtok.cli

    if Path(meshtok.cli.__file__).resolve().parent != (SRC / "meshtok").resolve():
        sys.exit(f"error: meshtok imported from {meshtok.cli.__file__}, not from {SRC}")
    return meshtok.cli


def run_commands(cli, job):
    """Run a job's commands in order inside one timed interval; stop at the
    first that fails. Returns (interval, exit code, captured stdouts)."""
    stdouts: list[str] = []

    def body() -> int:
        err = io.StringIO()
        for argv in job.commands:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            stdouts.append(out.getvalue())
            if code != 0:
                return code
        return 0

    interval, code = refclock.timed(body)
    return interval, code, stdouts


def run_job(cli, job):
    """Run a job, then check its outputs. Returns (interval, exit code,
    messages): failed checks when the exit code is 0, otherwise what failed."""
    try:
        interval, code, stdouts = run_commands(cli, job)
    except Exception:  # a traceback out of main() is a failed operation
        return None, -1, [f"{job.label}: {traceback.format_exc(limit=3)}"]
    if code != 0:
        return interval, code, [f"{job.label}: exit {code} from {job.commands[len(stdouts) - 1][0]}"]
    return interval, 0, [f"{job.label}: {msg}" for msg in job.check(stdouts)]


def probe_setup(probe: list[list[str]]) -> tuple[refclock.Interval, bool]:
    """Time a fresh interpreter from its start until meshtok.cli is imported
    and a tiny first job has run; (interval, whether it exited 0)."""
    cmd = [sys.executable, "-c", PROBE, str(SRC), json.dumps(probe)]
    interval, proc = refclock.timed(
        lambda: subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL))
    return interval, proc.returncode == 0


def stream_size(job) -> tuple[int, int]:
    """(records, bytes) of the job's written token stream."""
    data = job.stream.read_bytes()
    if data[:4] == b"TMTS":
        return int.from_bytes(data[7:11], "little"), len(data)
    return sum(1 for ln in data.splitlines() if ln.strip()) - 1, len(data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_program()

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        plan = workloads.WORKLOADS[args.workload](work, workloads.seeded(args.seed))
        attempted, failed, failures, errors = 0, 0, [], []
        summary: dict = {"workload": args.workload, "seed": args.seed,
                         "nominal_loop_s": refclock.NOMINAL_S, "jobs": []}

        probes: list[refclock.Interval] = []

        def setup_probe(timed: bool) -> float:
            nonlocal attempted, failed
            interval, ok = probe_setup(plan.probe)
            attempted += 1
            failed += not ok
            if timed:
                probes.append(interval)
            return interval.wall_s

        def record(job, interval, code, fails, traced=None):
            nonlocal attempted, failed
            attempted += 1
            failed += code != 0
            (failures if code == 0 else errors).extend(fails)
            entry = {"job": job.label, "faces": job.faces, "traced": traced is not None}
            if interval is not None:
                entry.update(wall_s=interval.wall_s, loop_before_s=interval.loop_before_s,
                             loop_after_s=interval.loop_after_s, ref_s=interval.ref_s)
            if traced is not None:
                entry["layers"] = traced
            summary["jobs"].append(entry)
            return entry

        tracer = tracing.Tracer()
        # The set-up probes are spread over the run, between rounds, so that
        # their median sees the same machine as the jobs. The first one may
        # compile bytecode, which users pay once, so it is not counted.
        n_probes = 0 if args.trace else SETUP_PROBES
        if n_probes:
            setup_probe(timed=False)
        # One untimed job lets caches and lazy imports settle.
        record(plan.jobs[0], *run_job(cli, plan.jobs[0]))
        untraced, traced = [], []
        started, probe_wall, rounds = time.perf_counter(), 0.0, 0
        while True:
            elapsed = time.perf_counter() - started - probe_wall
            if len(probes) < n_probes and elapsed >= len(probes) * args.seconds / n_probes:
                probe_wall += setup_probe(timed=True)
            if rounds >= (2 if args.trace else 1) and elapsed >= args.seconds:
                break
            trace_round = args.trace and rounds % 2 == 1
            if trace_round:
                tracer.install()
            try:
                for job in plan.jobs:
                    job_id = len(summary["jobs"])
                    tracer.job = job_id
                    interval, code, fails = run_job(cli, job)
                    layers = None
                    if trace_round and interval is not None:
                        layers = tracer.close_job(job_id, interval.wall_s, interval.scale)
                    entry = record(job, interval, code, fails, layers)
                    if code == 0 and interval is not None:
                        (traced if trace_round else untraced).append(entry)
            finally:
                tracer.uninstall()
            rounds += 1
        while len(probes) < n_probes:
            setup_probe(timed=True)
        summary["setup_probes"] = [vars(i) for i in probes]
        for job in plan.extra:
            record(job, *run_job(cli, job))

        if args.trace:
            metrics = {}
            for name in tracing.PER_LAYER[:-1]:
                unit = "ms" if name.endswith("_ms") else "count"
                value = statistics.median(e["layers"].get(name, 0.0) for e in traced)
                metrics[name] = {"value": value, "unit": unit}
            overhead = (statistics.median(e["ref_s"] for e in traced)
                        / statistics.median(e["ref_s"] for e in untraced))
            metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
            summary["spans"] = tracer.spans
        else:
            sizes = [stream_size(job) for job in plan.jobs]
            metrics = {
                "faces_per_s": {"value": statistics.median(e["faces"] / e["ref_s"] for e in untraced),
                                "unit": "faces/s"},
                "setup_s": {"value": statistics.median(i.ref_s for i in probes), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "unit": "MB"},
                "tokens_per_face": {"value": statistics.median(
                    r / job.stream_faces for (r, _), job in zip(sizes, plan.jobs)), "unit": "tokens/face"},
                "stream_bytes_per_face": {"value": statistics.median(
                    b / job.stream_faces for (_, b), job in zip(sizes, plan.jobs)), "unit": "B/face"},
            }
        summary["metrics"] = metrics
        summary["failures"] = failures
        summary["errors"] = errors
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (OUT / f"{name}.json").write_text(json.dumps(summary), encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for msg in errors[:20]:
        print(f"operation failed: {msg}", file=sys.stderr)
    for msg in failures[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
