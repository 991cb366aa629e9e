"""viaplan benchmark: one workload per run, end-to-end or traced.

    python3 viabench/run.py --workload offline_2d --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from `src/`.

--trace 0 times whole ops with nothing wrapped and prints the end-to-end
metrics. An op is one `planner.solve` (offline_2d, timeopt_1d) or one
optimizing warm-start/explore step of `mpc.run_closed_loop` (mpc_2d). The run
takes the workload's inputs in order until --seconds have passed and at least
its first `quality_inputs` have run; the quality metrics and the digest come
from those first inputs only, so they do not depend on the machine's speed.
Input 0 runs once more right after them, and its digest must match.

After each input, the fixed reference loop of machine.py runs for a twentieth
of that input's time. `op_ms_p50` and `gen_ms` are the wall times scaled by
REF_BURST_MS over the mean reference burst of the run: milliseconds on a
machine whose reference burst takes REF_BURST_MS. On a shared 2-vCPU host the
same code ran up to 1.3x faster or slower from one run to the next, and the
reference loop moved with it; scaling cut the spread of these two metrics
over seeds about threefold. The unscaled wall times are printed as well.

--trace 1 runs each of the first inputs of the same list twice in a row: once
unwrapped (for the output checks and the tracing overhead) and once with
spans around each layer, and prints the per-layer metrics. Counts there come from that fixed
input set, so they repeat exactly from run to run.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The lines before it give the metrics as
a table, the values that are not compared between runs (tail latency,
failure fraction, direct steps), the workload digest and the machine facts.
Exit code 0 when every check passed, 1 when an output check, a digest or the
tracing self-test failed, 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads. With OpenBLAS's default of one
# thread per core, the planner's small matmuls keep a second thread spinning,
# and on a host where that core is shared the solves ran up to 3x slower
# (time per generation 4 ms alone, 13 ms beside one busy process; one thread
# gave 4 ms in both cases). Timing would then measure the host's scheduler.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import machine  # noqa: E402  (after the BLAS setting)
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 5
REF_SHARE = 0.05      # reference-loop time after each input, per second of input
REF_BURST_MS = 2.75   # mean reference burst on the baseline machine (README)
MAX_RUN_S = 150.0   # stop taking new inputs after this, whatever --seconds says
TAIL_LADDER = (99, 95, 90, 80, 75)

IMPORT_PROBE = ("import time; t = time.perf_counter(); import viaplan, viaplan.cli; "
                "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Time a fresh interpreter takes to import viaplan and its CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def measure_setup(workload) -> float:
    """Median over SETUP_REPS of import + construction + one warm-up op."""
    totals = []
    for _ in range(SETUP_REPS):
        t_import = import_seconds()
        t0 = time.perf_counter()
        workload.build()
        workload.warmup()
        totals.append(t_import + time.perf_counter() - t0)
    return statistics.median(totals)


def tail(values):
    """(percentile, value) of the highest ladder percentile with at least ten
    samples beyond it, or None."""
    n = len(values)
    for p in TAIL_LADDER:
        if n * (100 - p) / 100 >= 10:
            return p, percentile(values, p)
    return None


def percentile(values, p):
    s = sorted(values)
    k = (len(s) - 1) * p / 100
    lo, hi = math.floor(k), math.ceil(k)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


class Run:
    """Runs inputs, keeps their outcomes and checks repeats against each other."""

    def __init__(self, workload, digests=None):
        self.workload = workload
        self.digests = {} if digests is None else digests
        self.outcomes = []
        self.errors = []
        self.wall = 0.0
        self.cpu = 0.0

    def run(self, inp) -> float:
        """Runs one input and returns its wall seconds."""
        c0, t0 = time.process_time(), time.perf_counter()
        out = self.workload.run(inp)
        wall = time.perf_counter() - t0
        self.wall += wall
        self.cpu += time.process_time() - c0
        first = self.digests.setdefault(repr(inp), out.digest)
        if first != out.digest:
            self.errors.append(f"input {inp!r}: digest {out.digest} differs from "
                               f"its earlier run {first}")
        self.errors.extend(out.errors)
        self.outcomes.append(out)
        return wall

    def ops(self, attr):
        return [v for o in self.outcomes for v in getattr(o, attr)]


def end_to_end(run, setup_s, n_quality, ref):
    op_s = run.ops("op_seconds")
    gens = run.ops("op_generations")
    ref_ms = 1e3 * statistics.fmean(ref)
    scale = REF_BURST_MS / ref_ms
    op_ms = 1e3 * statistics.median(op_s)
    gen_ms = 1e3 * statistics.median(s / g for s, g in zip(op_s, gens) if g)
    quality = run.outcomes[:n_quality]
    durations = [d for o in quality for d in o.plan_durations] or [float("nan")]
    valid = run.ops("op_valid")
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_ms_p50": (scale * op_ms, "ms"),
        "gen_ms": (scale * gen_ms, "ms"),
        "cpu_per_wall": (run.cpu / run.wall, "1"),
        "T_mean_s": (statistics.fmean(durations), "s"),
        "goal_time_s": (statistics.fmean(o.goal_time for o in quality), "s"),
    }
    extra = {"fail_frac": (valid.count(False) / len(valid), "1"),
             "op_ms_p50 wall": (op_ms, "ms"),
             "gen_ms wall": (gen_ms, "ms"),
             f"ref_burst_ms (mean of {len(ref)})": (ref_ms, "ms")}
    t = tail(op_s)
    if t is None:
        extra[f"op_ms_tail (n={len(op_s)}, no percentile has 10 beyond)"] = (None, "ms")
    else:
        extra[f"op_ms_tail (p{t[0]}, n={len(op_s)})"] = (scale * 1e3 * t[1], "ms")
    direct = run.ops("direct_seconds")
    if direct:
        extra[f"direct_step_ms_p50 (n={len(direct)})"] = (
            scale * 1e3 * statistics.median(direct), "ms")
    return metrics, extra


def self_test(tracer, run) -> list[str]:
    """Wrapped call counts must match the structure of the traced ops."""
    outs = run.outcomes
    if any(o.expected_synthesize is None for o in outs):
        return ["tracing self-test: an op raised, so call counts cannot be predicted"]
    errors = []
    want = sum(o.expected_synthesize for o in outs)
    got = tracer.calls("timing.synthesize")
    if got != want:
        errors.append(f"tracing self-test: timing.synthesize ran {got} times, "
                      f"the ops imply {want}")
    want = sum(o.expected_generations for o in outs)
    got = tracer.calls("planner.evaluate_candidates")
    if got != want:
        errors.append(f"tracing self-test: planner.evaluate_candidates ran {got} "
                      f"times, the ops imply {want} generations")
    return errors


def timed_run(workload, inputs, seconds, setup_s):
    """Untraced ops until `seconds` have passed and the quality inputs ran.

    Input 0 runs again right after the quality inputs, so that every run has
    a repeat whose digest must match; it is timed like any other op.
    """
    run = Run(workload)
    n = workload.quality_inputs
    sequence = inputs[:n] + inputs[:1] + inputs[n:]
    ref = []
    t_start = time.perf_counter()
    with workload.checking():
        for inp in sequence:
            elapsed = time.perf_counter() - t_start
            if elapsed >= MAX_RUN_S or (elapsed >= seconds and len(run.outcomes) > n):
                break
            ref += machine.ref_bursts(REF_SHARE * run.run(inp))
    metrics, extra = end_to_end(run, setup_s, n, ref)
    errors = []
    if math.isnan(metrics["T_mean_s"][0]):
        errors.append(f"no valid plan among the first {n} inputs")
    return run, inputs[:n], metrics, extra, errors


def traced_run(workload, inputs):
    """Each of the first `trace_ops` inputs unwrapped with checks, then traced.

    Alternating per input keeps both runs of an input in the same machine
    state, so their difference is the tracing overhead and not drift.
    """
    run = Run(workload)
    traced = Run(workload, run.digests)
    tracer = tracing.Tracer()
    first = inputs[:workload.trace_ops]
    errors = []
    for inp in first:
        with workload.checking():
            run.run(inp)
        errors += [f"wrapped after an untraced op: {name}"
                   for name in tracing.wrapped_objects()]
        with tracing.Patcher() as patcher:
            tracer.install(patcher)
            traced.run(inp)
    untraced_s = sum(sum(o.op_seconds) + sum(o.direct_seconds) for o in run.outcomes)
    errors += traced.errors + self_test(tracer, traced)
    metrics = {k: (v, tracing.unit(k))
               for k, v in tracer.layer_metrics(untraced_s).items()}
    return run, first, metrics, {}, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "viaplan" / "__init__.py").is_file():
        print(f"viabench: no viaplan package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"viabench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](ROOT)
    setup_s = measure_setup(workload)
    facts = machine.facts()
    facts["ref_ms_start"] = machine.ref_ms()
    inputs = workload.inputs(args.seed)
    errors = [f"wrapped before the run: {name}" for name in tracing.wrapped_objects()]

    t_start = time.perf_counter()
    if args.trace:
        run, first, metrics, extra, run_errors = traced_run(workload, inputs)
    else:
        run, first, metrics, extra, run_errors = timed_run(workload, inputs,
                                                           args.seconds, setup_s)
    errors += run_errors + run.errors
    errors += [f"wrapped after the run: {name}" for name in tracing.wrapped_objects()]
    facts["ref_ms_end"] = machine.ref_ms()
    facts["run_s"] = time.perf_counter() - t_start
    ok = run.ops("op_ok")
    attempted, failed = len(ok), ok.count(False)

    digest = hashlib.sha256("".join(o.digest for o in run.outcomes[:len(first)])
                            .encode()).hexdigest()[:16]
    print(f"viabench {args.workload} seed={args.seed} trace={args.trace} "
          f"inputs={len(run.outcomes)} attempted={attempted} failed={failed}")
    for name, (value, unit) in {**metrics, **extra}.items():
        shown = "undefined" if value is None else f"{value:.6g}"
        print(f"  {name:44s} {shown:>14s} {unit}")
    print(f"digest {args.workload} first {len(first)} inputs {digest}")
    print("machine " + json.dumps(facts, sort_keys=True))
    for e in errors:
        print(f"ERROR {e}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
