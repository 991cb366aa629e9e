"""Spans around viaplan's public functions, installed from outside the program.

`Patcher` swaps a function or method for a wrapper in every viaplan module
that holds it: `planner` and `mpc` import `synthesize`, `evaluate_total` and
`evaluate_candidates` by name, so patching only the defining module would
miss those call sites. `restore` puts every original back, and
`wrapped_objects` lists any wrapper still reachable from a viaplan module.

`Tracer` times each wrapped call with one `perf_counter` pair and keeps, per
span name, the call count, the total time and the self time (the span minus
its child spans). Nothing is written into the program's state, so tracing
cannot change what the planner computes. The op (`planner.solve` or
`mpc.mpc_step`) is the root span; its self time is the unattributed
remainder, so the module self times plus that remainder sum to the op time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

MARK = "_viabench_wrapper"

MODULES = ("planner", "mpc", "timing", "spline", "costs", "worlds", "optimizer")

# (module, function or Class.method, is the op root)
SPANS = (
    ("planner", "solve", True),
    ("planner", "evaluate_candidates", False),
    ("mpc", "mpc_step", True),
    ("mpc", "warm_start", False),
    ("mpc", "extract_reference", False),
    ("timing", "synthesize", False),
    ("timing", "min_duration", False),
    ("timing", "Trajectory.sample_grid", False),
    ("timing", "Trajectory.at_time", False),
    ("spline", "SplineBasis.eval_matrix", False),
    ("spline", "smoothness_cost", False),
    ("costs", "evaluate_total", False),
    ("costs", "cost_jla", False),
    ("costs", "cost_collision", False),
    ("worlds", "World2D.colliding_mask", False),
    ("optimizer", "build_prior", False),
    ("optimizer", "EvolutionStrategy.sample", False),
    ("optimizer", "EvolutionStrategy.update", False),
)


def _viaplan_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "viaplan" or name.startswith("viaplan."))]


class Patcher:
    """Replaces viaplan functions and methods, and restores them."""

    def __init__(self):
        self._undo = []

    def patch(self, module: str, target: str, make_wrapper) -> None:
        mod = sys.modules[f"viaplan.{module}"]
        if "." in target:
            cls_name, attr = target.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[attr]
            wrapper = _mark(make_wrapper(original), original)
            setattr(cls, attr, wrapper)
            self._undo.append((cls, attr, original))
            return
        original = getattr(mod, target)
        wrapper = _mark(make_wrapper(original), original)
        for holder in _viaplan_modules():
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, wrapper)
                    self._undo.append((holder, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def _mark(wrapper, original):
    functools.update_wrapper(wrapper, original)
    setattr(wrapper, MARK, True)
    return wrapper


def wrapped_objects() -> list[str]:
    """Names of benchmark wrappers still reachable from viaplan modules."""
    found = []
    for mod in _viaplan_modules():
        for name, value in vars(mod).items():
            if getattr(value, MARK, False):
                found.append(f"{mod.__name__}.{name}")
            if isinstance(value, type) and value.__module__.startswith("viaplan"):
                for attr, member in vars(value).items():
                    if getattr(member, MARK, False):
                        found.append(f"{mod.__name__}.{name}.{attr}")
    return sorted(set(found))


# -- counts taken from results at the span boundary -------------------------


def _observe_candidates(counts, result):
    _, reports, _ = result
    counts["candidates"] += len(reports)
    counts["valid"] += sum(r is not None and r.valid for r in reports)
    counts["infeasible"] += sum(r is None for r in reports)


def _observe_points(counts, result):
    counts["points"] += len(result)


def _observe_step(counts, result):
    counts["steps"] += 1
    counts[f"mode.{result.mode}"] += 1
    counts["invalid_steps"] += not result.valid


OBSERVERS = {
    "planner.evaluate_candidates": _observe_candidates,
    "worlds.colliding_mask": _observe_points,
    "mpc.mpc_step": _observe_step,
}


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if metric.endswith("_us") or metric.endswith(".us_per_gen"):
        return "us"
    if "_ms" in metric or metric.endswith(".ms_per_step"):
        return "ms"
    if metric.endswith(".calls") or metric.endswith("invalid_steps"):
        return "count"
    return "1"


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}       # name -> [calls, total_s, self_s]
        self.counts: defaultdict = defaultdict(float)
        self.module_self: defaultdict = defaultdict(float)
        self.op_seconds: list[float] = []
        self.unattributed = 0.0
        self._stack: list[float] = []          # child time of each open span
        self._in_op = False

    def install(self, patcher: Patcher) -> None:
        for module, target, root in SPANS:
            name = f"{module}.{target.split('.')[-1]}"
            patcher.patch(module, target,
                          lambda fn, n=name, m=module, r=root: self._wrap(fn, n, m, r))

    def _wrap(self, fn, name, module, root):
        stack = self._stack
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        counts = self.counts
        module_self = self.module_self
        observe = OBSERVERS.get(name)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if root:
                tracer._in_op = True
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                own = dur - stack.pop()
                stat[0] += 1
                stat[1] += dur
                stat[2] += own
                if stack:
                    stack[-1] += dur
                if root:
                    tracer._in_op = False
                    tracer.op_seconds.append(dur)
                    tracer.unattributed += own
                elif tracer._in_op:
                    module_self[module] += own
            if observe is not None:
                observe(counts, result)
            return result

        return traced

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def layer_metrics(self, untraced_op_seconds: float) -> dict:
        """Per-layer metrics over everything traced so far."""
        c = self.counts

        def total(name):
            return self.stats.get(name, [0, 0.0, 0.0])[1]

        def own(name):
            return self.stats.get(name, [0, 0.0, 0.0])[2]

        def per(x, n):
            return x / n if n else 0.0

        def self_us(name):
            return 1e6 * per(own(name), self.calls(name))

        gens = self.calls("planner.evaluate_candidates")
        cands = c["candidates"]
        steps = c["steps"]
        op_total = sum(self.op_seconds)
        m = {
            "planner.evaluate_candidates.calls": gens,
            "planner.evaluate_candidates.self_ms_per_gen":
                1e3 * per(own("planner.evaluate_candidates"), gens),
            "planner.candidates_per_gen": per(cands, gens),
            "planner.valid_frac": per(c["valid"], cands),
            "planner.infeasible_frac": per(c["infeasible"], cands),
            "timing.synthesize.calls": self.calls("timing.synthesize"),
            "timing.min_duration.self_us": self_us("timing.min_duration"),
            "timing.sample_grid.calls_per_candidate":
                per(self.calls("timing.sample_grid"), cands),
            "timing.sample_grid.self_us": self_us("timing.sample_grid"),
            "timing.at_time.calls_per_step": per(self.calls("timing.at_time"), steps),
            "timing.at_time.self_us": self_us("timing.at_time"),
            "spline.eval_matrix.calls": self.calls("spline.eval_matrix"),
            "spline.smoothness_cost.self_us": self_us("spline.smoothness_cost"),
            "mpc.extract_reference.ms_per_step":
                1e3 * per(total("mpc.extract_reference"), steps),
            "mpc.mpc_step.self_ms": 1e3 * per(own("mpc.mpc_step"), steps),
            "mpc.mode_share.direct": per(c["mode.direct"], steps),
            "mpc.mode_share.warmstart": per(c["mode.warmstart"], steps),
            "mpc.mode_share.explore": per(c["mode.explore"], steps),
            "mpc.invalid_steps": c["invalid_steps"],
            "costs.evaluate_total.self_us": self_us("costs.evaluate_total"),
            "costs.cost_jla.self_us": self_us("costs.cost_jla"),
            "costs.cost_collision.self_us": self_us("costs.cost_collision"),
            "worlds.colliding_mask.self_us": self_us("worlds.colliding_mask"),
            "worlds.colliding_mask.points_per_call":
                per(c["points"], self.calls("worlds.colliding_mask")),
            "optimizer.sample.us_per_gen": 1e6 * per(total("optimizer.sample"), gens),
            "optimizer.update.us_per_gen": 1e6 * per(total("optimizer.update"), gens),
        }
        for module in MODULES:
            m[f"{module}.self_share"] = per(self.module_self[module], op_total)
        m["unattributed.self_share"] = per(self.unattributed, op_total)
        m["trace.overhead"] = per(op_total, untraced_op_seconds) - 1.0
        return m
