"""Show that the checks catch damaged output.

    python3 meshbench/damage.py [--seed 0] [--workload NAME ...]

For each workload it runs one job of each kind on clean inputs and requires
every check to pass; then, for each damage kind, it runs the job again,
corrupts the output (drops a face, flips one stream byte, or negates a normal;
for a metrics report, negates its normal consistency) and requires the checks
to fail. Prints one line per (job, damage) with the first failed check, and
exits 1 if clean output fails or damaged output passes.
"""

from __future__ import annotations

import argparse
import shutil
import sys

import run
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    cli = run.import_program()
    ok = True
    run.OUT.mkdir(exist_ok=True)
    for name in args.workload or list(workloads.WORKLOADS):
        work = run.OUT / f"damage-{name}-{args.seed}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        try:
            plan = workloads.WORKLOADS[name](work, workloads.seeded(args.seed))
            for job in plan.jobs[:1] + plan.extra:
                _, code, fails = run.run_job(cli, job)
                if code != 0 or fails:
                    ok = False
                    print(f"{name:12} {job.label:12} {'clean':14} FAILED: {fails[:2]}")
                    continue
                print(f"{name:12} {job.label:12} {'clean':14} passes")
                for kind in workloads.DAMAGE_KINDS:
                    _, code, stdouts = run.run_commands(cli, job)
                    if code != 0:
                        ok = False
                        print(f"{name:12} {job.label:12} {kind:14} exit {code}")
                        continue
                    if not workloads.damage(job, kind, stdouts):
                        print(f"{name:12} {job.label:12} {kind:14} (no such output)")
                        continue
                    fails = job.check(stdouts)
                    ok &= bool(fails)
                    verdict = f"caught: {fails[0]}" if fails else "NOT CAUGHT"
                    print(f"{name:12} {job.label:12} {kind:14} {verdict}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    print("every damage caught" if ok else "FAILED: see above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
