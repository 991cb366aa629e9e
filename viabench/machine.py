"""Machine facts and a fixed numpy reference loop.

The reference loop does the same kind of work as the planner's hot path
(small matmuls, masked elementwise maths, reductions) on fixed data. It is
timed at the start and the end of every run, so that a change in the speed of
the machine can be told apart from a change in the program. Short bursts of
it also run between the inputs of a timed run, and the op timings are scaled
by their mean (see run.py).
"""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import time

import numpy as np


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads(blas_name: str):
    """Thread count reported by the loaded OpenBLAS, or None if unknown."""
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def facts() -> dict:
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    name = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": name,
        "blas_threads": _blas_threads(name),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


_RNG = np.random.default_rng(0)
_E = _RNG.standard_normal((51, 10))
_U = _RNG.standard_normal((10, 2))
_COSTS = _RNG.standard_normal(32)


def ref_burst(inner: int = 200) -> float:
    """Wall seconds of `inner` passes of the fixed numpy loop."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(inner):
        a = _E @ _U
        b = np.where(a > 0.0, np.sqrt(np.abs(a)), -a)
        acc += float(np.min(b)) + float(np.argsort(_COSTS, kind="stable")[0])
    return time.perf_counter() - t0


def ref_bursts(seconds: float) -> list[float]:
    """Bursts of the loop until `seconds` have passed; at least one."""
    times = [ref_burst()]
    while sum(times) < seconds:
        times.append(ref_burst())
    return times


def ref_ms(reps: int = 7, inner: int = 1500) -> float:
    """Median wall time in ms of a fixed numpy loop."""
    return 1e3 * statistics.median(ref_burst(inner) for _ in range(reps))
