"""Benchmark of the ``repro`` H2 library: four seeded 2D workloads.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload kernel-compress-2d --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload once untraced and once with outside-in layer
wrappers and reports the per-layer metrics.  Human-readable report lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The server runs its numerical work on two worker threads; one BLAS thread
# per caller keeps the process at no more compute threads than cores.  This
# must be set before numpy is first imported.  With the BLAS default of one
# thread per core, the server's workers oversubscribe the cores and factor,
# GP and served-solve times are several times slower; the benchmark measures
# the pinned configuration only, and says so in its report.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: The library's own settings (artifact cache directory, construction path,
#: fault injection, recovery mode, backend) would change what is measured,
#: e.g. time a cache load instead of a construction; they are removed.
CLEARED = sorted(k for k in os.environ if k.startswith("REPRO_"))
ENVIRONMENT = {
    "blas_threads_forced": "1 (was " + ", ".join(
        f"{v}={os.environ.get(v, 'unset')}" for v in BLAS_THREAD_VARS) + ")",
    "cleared_env": " ".join(CLEARED) or "none",
}
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
for _var in CLEARED:
    del os.environ[_var]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The program under test is the checkout's own source tree.
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, HERE]
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: repro was imported from {repro.__file__}, not from "
              f"this checkout's {src}", file=sys.stderr)
        return 2

    import measure
    from oracle import Oracle
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run = measure.traced if args.trace else measure.untraced
    # The oracle process is forked first, before the process holds any
    # threads or large arrays.
    with Oracle() as ref:
        outcome = run(workload, args.seed, args.seconds, ref, ENVIRONMENT)
    for line in outcome.report:
        print(line)
    print(json.dumps(outcome.summary()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
