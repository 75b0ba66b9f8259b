"""Run one workload on several seeds, one run at a time, and report the
spread of each end-to-end metric.

    python3 meshbench/spread.py --workload codec-solid --seeds 1-10

For each metric it prints the median, the quartiles (``statistics.quantiles``
with n=4) and the quartile spread (Q3 - Q1) / median, beside the metric's
bound from BENCHMARK.json. Results are also written to
``meshbench/out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    report = {}
    print(f"\n{'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        report[name] = {"values": values, "median": med, "q1": q1, "q3": q3,
                        "spread": spread, "bound": metric["bound"]}
        print(f"{name:24} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} {metric['bound']:6.2f}")
    failed = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"failed share per run: {failed}; all correct: {all(r['correct'] for r in runs)}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.workload}.json").write_text(
        json.dumps({"workload": args.workload, "seconds": args.seconds, "runs": runs,
                    "metrics": report}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
