"""Run one workload of the exsim benchmark and print its metrics.

    python3 perfbench/run.py --workload cold-1k --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout. It builds the workload's bank from
``src/`` in a scratch directory under ``.perfbench/``, serves the workload's
stream for ``--seconds`` and prints two JSON lines: a report (sample counts,
served digest, traffic properties) and, last, the result object
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run and
writes its spans under ``.perfbench/``. A checkout without ``src/exsim``
makes it exit with code 2 and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "exsim" / "__init__.py").is_file():
        print(f"no exsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import Run
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, workdir)
    try:
        if args.trace:
            result = run.traced(out_dir / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        else:
            result = run.untraced()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = result.pop("metrics")
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "samples": {k: v[2] for k, v in metrics.items()}, **result}
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
