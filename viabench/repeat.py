"""Run the benchmark over several seeds and summarise each metric.

    python3 viabench/repeat.py --workload offline_2d --seeds 1 10 --trace 0 \
        --out viabench/runs.json

Runs the command of BENCHMARK.json once per seed with its run_seconds, and
prints, per metric, the median, the quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median, next to the metric's bound. With --out it
also writes the summary and every run's result, digest and machine facts as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, nargs=2, default=(1, 10),
                        metavar=("FIRST", "LAST"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {}
    for workload in args.workload:
        runs = []
        for seed in range(args.seeds[0], args.seeds[1] + 1):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            result["seed"], result["wall_s"] = seed, wall
            for line in lines:
                key, _, rest = line.partition(" ")
                if key == "digest":
                    result["digest"] = rest.split()[-1]
                elif key == "machine":
                    result["machine"] = json.loads(rest)
            runs.append(result)
            print(f"{workload} seed {seed}: {wall:.1f} s, "
                  + ", ".join(f"{k}={v['value']:.4g}"
                              for k, v in result["metrics"].items()
                              if k in bounds), flush=True)
        names = runs[0]["metrics"]
        summary = {k: summarise([r["metrics"][k]["value"] for r in runs]) for k in names}
        report[workload] = {"summary": summary, "runs": runs}
        for k, s in summary.items():
            bound = bounds.get(k)
            flag = "" if bound is None or s["spread"] <= bound / 3 else "  > bound/3"
            print(f"  {workload:11s} {k:44s} median {s['median']:12.6g}  "
                  f"spread {s['spread']:8.4f}  bound {bound}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
