"""Machine record, machine-speed tracking and speed-of-light references.

:class:`Speedometer` times a fixed reference task between the steps of a
run, so each timing can be scaled to a fixed nominal machine speed (see its
docstring).  The speed-of-light references are measured in the traced run
on the same machine as the layers they normalise: dense GEMV bandwidth (memory bound, on an array at
least four times the last-level cache), BLAS-3 GEMM rate and kernel entries
per second from ``ExponentialKernel.evaluate``.  Byte counts are computed from
array sizes, not read from hardware counters.
"""

from __future__ import annotations

import bisect
import concurrent.futures
import ctypes
import glob
import math
import os
import platform
import statistics
import time

import numpy as np

GIB = 2**30
#: Upper bound on the GEMV array, so the reference never takes more memory
#: than a shared machine can spare.
GEMV_MAX_BYTES = 2 * GIB


def last_level_cache_bytes() -> int:
    """Largest CPU cache reported by sysfs (0 when it cannot be read)."""
    sizes = []
    for path in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*/size"):
        try:
            with open(path) as handle:
                text = handle.read().strip()
        except OSError:
            continue
        scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(text[-1:], 1)
        digits = text.rstrip("KMG")
        if digits.isdigit():
            sizes.append(int(digits) * scale)
    return max(sizes, default=0)


def blas_record() -> dict:
    """BLAS library name/version and the thread count it runs with."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name, version = blas.get("name", "?"), blas.get("version", "?")
    except Exception:
        name, version = "?", "?"
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = int(getattr(lib, symbol)())
                break
    return {"blas": f"{name} {version}", "blas_threads": threads}


def record() -> dict:
    """Everything a reader needs to compare results across machines."""
    import repro

    return {
        "nproc": os.cpu_count(),
        **blas_record(),
        "llc_bytes": last_level_cache_bytes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro": getattr(repro, "__version__", "?"),
    }


def _median_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def speed_of_light() -> dict:
    """GEMV GB/s, GEMM GFLOP/s and kernel entries/s on this machine."""
    from repro import ExponentialKernel

    llc = last_level_cache_bytes()
    gemv_bytes = min(max(4 * llc, 256 * 2**20), GEMV_MAX_BYTES)
    cols = 4096
    rows = gemv_bytes // (8 * cols)
    a = np.full((rows, cols), 0.5)
    x = np.ones(cols)
    a @ x  # fault the pages in before timing
    gemv_s = _median_seconds(lambda: a @ x, 5)
    gemv_array_bytes = a.nbytes
    del a

    n = 2048
    b = np.random.default_rng(0).standard_normal((n, n))
    b @ b
    gemm_s = _median_seconds(lambda: b @ b, 5)

    points = np.random.default_rng(1).random((4096, 2))
    kernel = ExponentialKernel(0.2)
    rows_pts = points[:1024]
    kernel.evaluate(rows_pts, points)
    kernel_s = _median_seconds(lambda: kernel.evaluate(rows_pts, points), 5)

    return {
        "sol.gemv_gbs": gemv_array_bytes / gemv_s / 1e9,
        "sol.gemm_gflops": 2.0 * n**3 / gemm_s / 1e9,
        "sol.kernel_entries_per_s": rows_pts.shape[0] * points.shape[0] / kernel_s,
        "sol.gemv_array_bytes": gemv_array_bytes,
        "sol.llc_bytes": llc,
    }


#: Value of a :class:`Speedometer` tick at nominal speed: about its median
#: on the 2-vCPU machine the benchmark was tuned on.  A constant, so scaled
#: timings compare across runs and commits.
NOMINAL_SECONDS = 1.2e-3
#: Bytes the memory part of the reference task reads: more than the largest
#: operator the benchmark applies (22 MB), so it leaves the shared
#: last-level cache no later than they do when neighbours crowd it.
STREAM_BYTES = 64 * 2**20
#: Repetitions of each part of the reference task in one tick; a tick keeps
#: each part's fastest repetition.
TICK_REPEATS = 3


class Speedometer:
    """Tracks how fast the machine runs while a benchmark runs on it.

    The machine the benchmark was tuned on is two vCPUs of a shared host.
    Its speed drifts by 1.3-2x for seconds to minutes at a time, and a fresh
    process can run interpreted code up to 1.4x slower than the one before
    it; runs of the same code then differ by more than any bound a metric
    may have.  Most of that drift hits all work together, so a *tick* times
    a fixed reference task with three kinds of work, each weighted a third:
    numerical (GEMM, cached GEMV, NumPy element-wise), interpreter (a Python
    loop, thread hand-offs) and memory (reading ``STREAM_BYTES``).  Its
    value, the geometric mean of the parts' times, says how slow the
    machine is at that moment; ``NOMINAL_SECONDS`` is its value at nominal
    speed.

    :meth:`factor` turns the ticks around a step into the factor that
    scales the step's seconds to nominal speed.  The reference task uses
    NumPy only, never the program under test, so a change to the program
    moves the scaled times as much as the raw ones.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._square = rng.standard_normal((256, 256))
        self._vector = rng.standard_normal(256)
        self._distances = rng.random((128, 512))
        self._stream = np.ones(STREAM_BYTES // 8)
        self._pool = concurrent.futures.ThreadPoolExecutor(1)
        self._kinds = ((self._gemm, self._gemv, self._elementwise),
                       (self._interpreter, self._hand_off),
                       (self._memory,))
        #: ``(perf_counter time, value)`` of every tick, in order.
        self.log: list = []
        self.tick()

    def _gemm(self) -> None:
        self._square @ self._square

    def _gemv(self) -> None:
        for _ in range(50):
            self._square @ self._vector

    def _elementwise(self) -> None:
        np.exp(-np.sqrt(self._distances * self._distances) / 0.2)

    def _interpreter(self) -> None:
        total = 0
        for i in range(10000):
            total += i * i

    def _hand_off(self) -> None:
        for _ in range(30):
            self._pool.submit(int).result()

    def _memory(self) -> None:
        self._stream.sum()

    def tick(self) -> float:
        """Time the reference task now; log and return its value in seconds."""
        kinds = []
        for parts in self._kinds:
            logs = []
            for part in parts:
                times = []
                for _ in range(TICK_REPEATS):
                    start = time.perf_counter()
                    part()
                    times.append(time.perf_counter() - start)
                logs.append(math.log(min(times)))
            kinds.append(sum(logs) / len(logs))
        value = math.exp(sum(kinds) / len(kinds))
        self.log.append((time.perf_counter(), value))
        return value

    def factor(self, t0: float, t1: float) -> float:
        """Nominal over actual speed for a step from ``t0`` to ``t1``: from
        the geometric mean of the last tick before ``t0`` and the first after
        ``t1`` (the nearest ticks when there is none on a side)."""
        times = [t for t, _ in self.log]
        before = max(bisect.bisect_right(times, t0) - 1, 0)
        after = min(bisect.bisect_left(times, t1), len(times) - 1)
        return NOMINAL_SECONDS / math.sqrt(self.log[before][1] * self.log[after][1])

    def close(self) -> None:
        """Stop the hand-off thread and wait for it."""
        self._pool.shutdown(wait=True)
