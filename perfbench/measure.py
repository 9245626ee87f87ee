"""Timed driving of a workload: the untraced run and the traced run.

The untraced run repeats rounds of construct -> finish -> applies -> serving
for ``--seconds`` (at least the workload's ``min_rounds``) and reports the
median round.  The traced run does the same construction once untraced and
once through the wrappers of :mod:`layers`, checks that both produce bit-identical operators, and reports
the per-layer metrics, including the speed-of-light references they are
normalised by.  Oracle checks run outside every timed region, and the
reference values that need dense or exact kernel arrays are computed in the
child process of :class:`~oracle.Oracle`, so ``peak_rss_mb`` counts only the
library's memory and the benchmark's inputs.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import machine
import serving
from layers import LayerClock
from repro import ClusterTree, HODLRFactorization, apply_report, build_block_partition, convert
from repro.serve import InferenceServer
from repro.sketching import DenseOperator, KernelMatVecOperator
from repro.tree import WeakAdmissibility
from workloads import LEAF, NOISE, POOL, rel_err

MAX_ROUNDS = 12
#: Open-loop requests of a run, split evenly over the workload's minimum
#: number of rounds; the pooled p95 has at least ten samples beyond it.
OPEN_REQUESTS = 210
#: Latency limit on the open-loop p95; a failed request counts as over it.
P95_LIMIT_MS = 250.0
#: Set-up is repeated at least SETUP_SAMPLES times, and while it has taken
#: less than SETUP_SECONDS; ``setup_s`` is the median.
SETUP_SAMPLES = 3
SETUP_SECONDS = 1.0
MAX_SETUP_SAMPLES = 15
MATVEC_CHUNK = 6
#: Chunks of applies at each of the five sampling points of a round.
APPLY_CHUNKS = 3
#: ``matvec_ms`` is this percentile of the chunks' fastest applies.  Even
#: scaled, the apply of a 48 MB operator jittered by up to 2x within
#: seconds, and a run's median fell on either side of that jitter: over ten
#: seeds the median spread 0.14-0.19 and moved 21% between two sets, while
#: the fastest chunk spread about 0.1 and moved 1%.
MATVEC_PERCENTILE = 10
#: A tick younger than this still gives the machine speed at a step's start.
FRESH_TICK_S = 0.02
WARM_N = 512

#: Timings sampled in every round of an untraced run; ``open_ms`` holds the
#: open-loop latencies.  RATES are per-second figures, scaled inversely.
SAMPLED = ("setup_s", "register_s", "compress_s", "first_result_s",
           "matvec_ms", "serve_rps", "open_ms")
RATES = ("serve_rps",)

E2E = {
    "setup_s": "s",
    "compress_s": "s",
    "first_result_s": "s",
    "operator_mb": "MB",
    "matvec_ms": "ms",
    "serve_rps": "1/s",
    "serve_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Layers timed by the wrappers that are children of a construction.
CHILDREN = (
    "linalg.norm_estimate",
    "sketching.bind",
    "sketching.sample",
    "sketching.entries",
    "batched.row_id",
    "batched.gemm",
    "batched.convergence",
)

PER_LAYER = {
    "tree.build.s": "s",
    "tree.partition.s": "s",
    "linalg.norm_estimate.s": "s",
    "linalg.norm_estimate.applies": "count",
    "sketching.bind.s": "s",
    "sketching.sample.s": "s",
    "sketching.sample.applies": "count",
    "sketching.sample.columns": "count",
    "sketching.sample.sol_frac": "ratio",
    "sketching.entries.s": "s",
    "sketching.entries.count": "count",
    "sketching.entries.useful_ratio": "ratio",
    "batched.row_id.s": "s",
    "batched.row_id.calls": "count",
    "batched.gemm.s": "s",
    "batched.gemm.calls": "count",
    "batched.convergence.s": "s",
    "batched.convergence.calls": "count",
    "batched.launches": "count",
    "core.samples": "count",
    "core.sample_rounds": "count",
    "core.rank_max": "count",
    "core.sample_yield": "ratio",
    "core.self.s": "s",
    "core.covered_frac": "ratio",
    "core.applies_gap": "count",
    "apply.compile.s": "s",
    "apply.gflops": "GFLOP/s",
    "apply.launches": "count",
    "apply.bytes": "B",
    "apply.sol_frac": "ratio",
    "api.convert.s": "s",
    "solvers.factor.s": "s",
    "solvers.cg.iterations": "count",
    "solvers.cg.s": "s",
    "gp.points": "count",
    "gp.construct.s": "s",
    "gp.factor.s": "s",
    "gp.solve.s": "s",
    "gp.plan_reused": "count",
    "serve.p95_ms": "ms",
    "serve.batch_size.mean": "count",
    "serve.batched_frac": "ratio",
    "serve.server_ms.p50": "ms",
    "serve.client_overhead_ms.p50": "ms",
    "serve.generator_lag_ms.max": "ms",
    "sol.gemv_gbs": "GB/s",
    "sol.gemm_gflops": "GFLOP/s",
    "sol.kernel_entries_per_s": "1/s",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Outcome:
    """Metrics, report lines and operation accounting of one run."""

    units: dict
    metrics: dict = field(default_factory=dict)
    report: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    worst: dict = field(default_factory=dict)

    def check(self, checks) -> None:
        """Account ``(label, value, ok)`` oracle checks, one operation each."""
        for label, value, ok in checks:
            self.attempted += 1
            self.failed += 0 if ok else 1
            self.worst[label] = max(self.worst.get(label, 0.0), float(value))
            if not ok:
                self.report.append(f"FAILED check {label} = {value:.3e}")

    def line(self, text: str) -> None:
        self.report.append(text)

    def summary(self) -> dict:
        """The result line.  A non-finite value (a percentile over failed
        requests) reads -1, so the line stays strict JSON; the failures
        themselves show in ``failed``."""
        metrics = {}
        for name, unit in self.units.items():
            value = float(self.metrics[name])
            metrics[name] = {"value": value if math.isfinite(value) else -1.0,
                             "unit": unit}
        return {
            "correct": self.failed == 0,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": metrics,
        }


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def warm(workload, seed: int) -> None:
    """Run the whole pipeline once at a small size: imports, BLAS threads,
    allocator pools and code paths are warm before anything is timed."""
    inp = workload.inputs(seed, n=WARM_N)
    state = workload.setup(inp)
    product = workload.construct(inp, state)
    workload.finish(inp, state, product)
    workload.operator(state, product) @ inp["pool"][0]


def machine_lines(out: Outcome, environment: dict) -> None:
    record = {**machine.record(), **environment}
    out.line("machine: " + ", ".join(f"{k}={v}" for k, v in record.items()))


def counts_line(out: Outcome, label: str, counts: dict) -> None:
    out.line(f"counts {label}: " + ", ".join(f"{k}={v}" for k, v in counts.items()))


def serve(out: Outcome, workload, inp, state, product, server, seed: int,
          count: int, between=lambda: None):
    """Drive a serving segment on ``server``, where the operator is
    registered, with an open loop of ``count`` requests (see
    ``serving.drive``).  Returns the stats."""
    reference = workload.serve_reference(inp, state, product)

    def check(i: int, response) -> bool:
        value = workload.response_value(response)
        return rel_err(value, reference[i % POOL]) <= workload.serve_tol

    stats = serving.drive(
        server, lambda i: workload.request(inp, i), check,
        clients=workload.clients, per_client=workload.per_client,
        rate=workload.rate, count=count, seed=seed, between=between,
    )
    out.attempted += stats.attempted
    out.failed += stats.failed
    return stats


def matvec_chunk(operator, x) -> list:
    """Seconds of each of a short chunk of steady single-vector applies."""
    return [timed(operator.__matmul__, x)[1] for _ in range(MATVEC_CHUNK)]


def untraced(workload, seed: int, seconds: float, ref, environment: dict) -> Outcome:
    """Set up, then run rounds of the whole user pipeline for ``--seconds``.

    A round is construct -> finish, the oracle checks, a server registration
    and a serving segment (closed loop, an even share of OPEN_REQUESTS
    open-loop requests, closed loop).  Chunks of steady applies are sampled
    between those steps, so they spread over the whole run.

    The machine this was tuned on drifts in speed by 1.3-2x for seconds to
    minutes at a time, which no length of run averages out.  So a
    :class:`~machine.Speedometer` ticks between all those steps, and every
    timing is scaled to nominal machine speed by the ticks around it (raw
    timings are printed in the report lines).  Each scaled timing is sampled
    in every round and reported as the median of its samples; the open-loop
    percentiles pool the scaled latencies of all rounds.  ``ref`` is the
    :class:`~oracle.Oracle` the reference values are computed in.
    """
    out = Outcome(E2E)
    out.line(f"workload {workload.name}: n={workload.n} seed={seed} trace=0")
    machine_lines(out, environment)
    inp = workload.inputs(seed)
    workload.references(inp, ref)
    warm(workload, seed)
    speed = machine.Speedometer()
    try:
        spans, extras, counts, operator_mb = _rounds(out, workload, inp, seed,
                                                     seconds, ref, speed)
    finally:
        speed.close()
    out.check([("counts_repeat", 0.0, all(c == counts[0] for c in counts))])

    raw = {name: [v for v, _, _ in samples] for name, samples in spans.items()}
    scaled = {name: [v * speed.factor(t0, t1) ** (-1 if name in RATES else 1)
                     for v, t0, t1 in samples]
              for name, samples in spans.items()}
    out.metrics = {
        "setup_s": median(scaled["setup_s"]) + median(scaled["register_s"]),
        "compress_s": median(scaled["compress_s"]),
        "first_result_s": median(scaled["first_result_s"]),
        "operator_mb": operator_mb,
        "matvec_ms": float(np.percentile(scaled["matvec_ms"], MATVEC_PERCENTILE)),
        "serve_rps": median(scaled["serve_rps"]),
        "serve_p50_ms": serving.percentile(scaled["open_ms"], 50),
        "peak_rss_mb": peak_rss_mb(),
    }
    # The open-loop p95 is reported but carries no bound: even scaled, its
    # spread over five seeds reached 0.30 in a noisy period, above the
    # largest bound allowed.
    p95 = serving.percentile(scaled["open_ms"], 95)

    ticks = [v for _, v in speed.log]
    out.line(f"rounds: {len(raw['compress_s'])}, set-up samples: {len(raw['setup_s'])}, "
             f"open-loop requests: {len(raw['open_ms'])}, speed ticks: {len(ticks)} "
             f"(value min {min(ticks) * 1e3:.4g}, median {median(ticks) * 1e3:.4g}, "
             f"max {max(ticks) * 1e3:.4g} ms; nominal "
             f"{machine.NOMINAL_SECONDS * 1e3:.4g} ms)")
    for name in ("setup_s", "register_s", "compress_s", "first_result_s",
                 "matvec_ms", "serve_rps"):
        for label, values in (("raw", raw[name]), ("scaled", scaled[name])):
            out.line(f"  {label:<6} {name:<15}: {len(values)} samples, "
                     f"min {min(values):.6g}, median {median(values):.6g}, "
                     f"max {max(values):.6g}")
    out.line(f"  raw    serve_p50_ms   : {serving.percentile(raw['open_ms'], 50):.6g}, "
             f"p95 {serving.percentile(raw['open_ms'], 95):.6g}")
    for name, unit in E2E.items():
        out.line(f"  {name:<16} {out.metrics[name]:12.6g} {unit}")
    for key in sorted({k for extra in extras for k in extra}):
        out.line(f"  {key:<16} {median(e[key] for e in extras):12.6g} s (raw)")
    out.line(f"  {'failed_frac':<16} {out.failed / max(1, out.attempted):12.6g} "
             f"({out.failed} of {out.attempted} operations)")
    out.line(f"  {'serve_p95_ms':<16} {p95:12.6g} ms")
    out.line(f"open loop at {workload.rate:g} requests/s: p95 "
             f"{'meets' if p95 <= P95_LIMIT_MS else 'misses'} the "
             f"{P95_LIMIT_MS:g} ms limit ({len(raw['open_ms'])} requests)")
    counts_line(out, "per construction", counts[0])
    out.line("checks (worst): " + ", ".join(
        f"{k}={v:.3e}" for k, v in out.worst.items()))
    return out


def _rounds(out: Outcome, workload, inp, seed: int, seconds: float, ref, speed):
    """The timed part of :func:`untraced`, ticking ``speed`` between steps.

    Returns (spans, extras, counts, operator MB): ``spans`` maps each timing
    to its ``(value, start, end)`` samples, with perf_counter start and end
    times; ``extras`` and ``counts`` hold each round's workload-specific
    figures and exact counts.
    """
    spans = {name: [] for name in SAMPLED}
    extras, counts = [], []

    def timed_step(fn, *args):
        # A tick taken just before (the previous step's closing one) serves.
        if time.perf_counter() - speed.log[-1][0] > FRESH_TICK_S:
            speed.tick()
        start = time.perf_counter()
        value = fn(*args)
        stop = time.perf_counter()
        speed.tick()
        return value, (stop - start, start, stop)

    def set_up():
        state, span = timed_step(workload.setup, inp)
        spans["setup_s"].append(span)
        return state

    while len(spans["setup_s"]) < SETUP_SAMPLES or (
        sum(v for v, _, _ in spans["setup_s"]) < SETUP_SECONDS
        and len(spans["setup_s"]) < MAX_SETUP_SAMPLES
    ):
        state = set_up()
    deadline = time.perf_counter() + seconds
    open_per_round = -(-OPEN_REQUESTS // workload.min_rounds)
    rounds = 0
    while rounds < workload.min_rounds or (
        time.perf_counter() < deadline and rounds < MAX_ROUNDS
    ):
        # Drop the previous round's operator first, so peak memory does not
        # depend on how many rounds fit.
        product = None
        gc.collect()
        if workload.setup_per_construct and rounds:
            state = set_up()
        product, (construct_s, start, built) = timed_step(workload.construct, inp, state)
        extra, (finish_s, _, stop) = timed_step(workload.finish, inp, state, product)
        spans["compress_s"].append(
            (workload.compress_seconds(product, construct_s), start, built))
        spans["first_result_s"].append((construct_s + finish_s, start, stop))
        extras.append(extra)
        operator = workload.operator(state, product)
        x = inp["pool"][0]

        def sample_applies() -> None:
            # One sample per chunk: its fastest apply.
            for _ in range(APPLY_CHUNKS):
                applies, (_, start, stop) = timed_step(matvec_chunk, operator, x)
                spans["matvec_ms"].append((min(applies) * 1e3, start, stop))

        sample_applies()
        out.check(workload.check(inp, state, product, ref))
        out.check(workload.loaded(product))
        counts.append(workload.counts(product))
        sample_applies()
        server = InferenceServer()
        _, span = timed_step(workload.register, server, state, product)
        spans["register_s"].append(span)
        speed.tick()
        stats = serve(out, workload, inp, state, product, server,
                      seed * 1000 + rounds + 1, open_per_round, between=sample_applies)
        speed.tick()
        sample_applies()
        for rps, (start, stop) in zip(stats.closed_rps, stats.closed_spans):
            spans["serve_rps"].append((rps, start, stop))
        start, stop = stats.open_span
        spans["open_ms"] += [(ms, start, stop) for ms in stats.open_latency_ms]
        rounds += 1
    return spans, extras, counts, operator.memory_bytes()["total"] / 1e6


def _construction_layers(clock: LayerClock) -> list:
    """Child-layer seconds of each construction, split at the bind marks."""
    if not clock.marks:
        return [sum(clock.seconds.get(c, 0.0) for c in CHILDREN)]
    bounds = clock.marks[1:] + [clock.snapshot()]
    children = []
    for start, stop in zip(clock.marks, bounds):
        seconds = {k: v - start[0].get(k, 0.0) for k, v in stop[0].items()}
        children.append(sum(seconds.get(c, 0.0) for c in CHILDREN))
    return children


def traced(workload, seed: int, seconds: float, ref, environment: dict) -> Outcome:
    out = Outcome(PER_LAYER)
    out.line(f"workload {workload.name}: n={workload.n} seed={seed} trace=1")
    machine_lines(out, environment)
    inp = workload.inputs(seed)
    workload.references(inp, ref)
    warm(workload, seed)
    m = dict.fromkeys(PER_LAYER, 0.0)

    tree, m["tree.build.s"] = timed(ClusterTree.build, inp["points"], leaf_size=LEAF)
    _, m["tree.partition.s"] = timed(
        build_block_partition, tree, workload.admissibility()
    )

    plain_state = workload.setup(inp)
    plain, untraced_s = timed(workload.construct, inp, plain_state)
    clock = LayerClock()
    state = workload.setup(inp, clock)
    product, traced_s = timed(workload.construct, inp, state, clock)
    identical = workload.identical(plain, product)
    out.check([("traced_differs", 0.0 if identical else 1.0, identical)])
    m["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    seconds_by_layer, calls_by_layer = clock.snapshot()
    for layer in CHILDREN:
        m[f"{layer}.s"] = seconds_by_layer.get(layer, 0.0)
    for layer in ("batched.row_id", "batched.gemm", "batched.convergence"):
        m[f"{layer}.calls"] = calls_by_layer.get(layer, 0)

    wrapped = product.get("wrapped", [])
    operators = [op for op, _ in wrapped]
    extractors = [ex for _, ex in wrapped]
    m["linalg.norm_estimate.applies"] = sum(op.norm_applies for op in operators)
    m["sketching.sample.applies"] = sum(op.applications for op in operators)
    m["sketching.sample.columns"] = sum(op.sample_columns for op in operators)
    m["sketching.entries.count"] = sum(ex.entries_evaluated for ex in extractors)
    m["sketching.entries.useful_ratio"] = m["sketching.entries.count"] / max(
        1, sum(ex.returned_entries for ex in extractors)
    )

    if "result" in product:
        result = product["result"]
        m["batched.launches"] = result.total_kernel_launches
        m["core.samples"] = result.total_samples
        m["core.sample_rounds"] = result.operator_applications
        m["core.rank_max"] = result.rank_range[1]
        walls = [traced_s]
        library_applies = result.operator_applications
    else:
        reports = product["reports"]
        m["batched.launches"] = sum(r.construction_launches for r in reports)
        m["core.samples"] = sum(r.construction_samples for r in reports)
        m["core.sample_rounds"] = m["sketching.sample.applies"]
        m["core.rank_max"] = max(r.rank_range[1] for r in reports)
        walls = [r.construction_seconds for r in reports]
        library_applies = m["sketching.sample.applies"]
    m["core.sample_yield"] = m["core.rank_max"] / max(1, m["core.samples"])
    children = _construction_layers(clock)
    m["core.self.s"] = sum(walls) - sum(children)
    m["core.covered_frac"] = sum(children) / sum(walls)
    m["core.applies_gap"] = (
        m["sketching.sample.applies"] + m["linalg.norm_estimate.applies"]
        - library_applies
    )

    # Apply layer: first apply of the operator, then a measured report.
    if not workload.exports_operator:
        _, m["apply.compile.s"] = timed(
            workload.operator(state, product).__matmul__, inp["pool"][0]
        )
    extra = workload.finish(inp, state, product)
    counts = workload.counts(product)
    operator = workload.operator(state, product)
    if workload.exports_operator:
        _, m["apply.compile.s"] = timed(operator.__matmul__, inp["pool"][0])
    report = apply_report(operator, k=1, repeats=5)
    m["apply.gflops"] = report.gflops
    m["apply.launches"] = report.launches_per_apply
    m["apply.bytes"] = report.operand_bytes
    apply_gbs = report.bandwidth_gb_s

    if "solutions" in product:
        m["solvers.cg.iterations"] = sum(s.iterations for s in product["solutions"])
        m["solvers.cg.s"] = extra["solve_total_s"]
    if "reports" in product:
        reports = product["reports"]
        m["gp.points"] = len(reports)
        m["gp.construct.s"] = sum(r.construction_seconds for r in reports)
        m["gp.factor.s"] = sum(r.factorization_seconds for r in reports)
        m["gp.solve.s"] = sum(r.solve_seconds for r in reports)
        m["gp.plan_reused"] = sum(bool(r.plan_reused) for r in reports)
        m["solvers.cg.iterations"] = sum(r.cg_iterations for r in reports)
        m["solvers.cg.s"] = m["gp.solve.s"]
    if isinstance(workload.admissibility(), WeakAdmissibility):
        # Session.factor = convert to HODLR + HODLRFactorization; time the two
        # public calls separately on the same operator.
        hodlr, m["api.convert.s"] = timed(convert, operator, "hodlr")
        _, m["solvers.factor.s"] = timed(HODLRFactorization, hodlr, shift=NOISE)

    out.check(workload.check(inp, state, product, ref))
    out.check(workload.loaded(product))

    server = InferenceServer()
    workload.register(server, state, product)
    stats = serve(out, workload, inp, state, product, server, seed, OPEN_REQUESTS)
    sizes = stats.batch_sizes
    m["serve.batch_size.mean"] = float(np.mean(sizes)) if sizes else 0.0
    m["serve.batched_frac"] = float(np.mean([s > 1 for s in sizes])) if sizes else 0.0
    m["serve.p95_ms"] = serving.percentile(stats.open_latency_ms, 95)
    m["serve.server_ms.p50"] = serving.percentile(stats.server_ms, 50)
    m["serve.client_overhead_ms.p50"] = serving.percentile(stats.client_overhead_ms, 50)
    m["serve.generator_lag_ms.max"] = max(stats.generator_lag_ms, default=0.0)

    sol = machine.speed_of_light()
    for key in ("sol.gemv_gbs", "sol.gemm_gflops", "sol.kernel_entries_per_s"):
        m[key] = sol[key]
    m["apply.sol_frac"] = apply_gbs / sol["sol.gemv_gbs"]
    m["sketching.sample.sol_frac"] = _sample_sol_frac(operators, m, sol)

    out.metrics = m
    out.line(
        f"speed of light: GEMV on {sol['sol.gemv_array_bytes'] / 2**20:.0f} MiB "
        f"(LLC {sol['sol.llc_bytes'] / 2**20:.0f} MiB), GEMM 2048^3, "
        "ExponentialKernel.evaluate 1024x4096; byte counts are computed"
    )
    out.line("covered per construction: " + ", ".join(
        f"{c / w:.3f}" for c, w in zip(children, walls)))
    counts_line(out, "library", counts)
    counts_line(out, "wrapper", {
        "sample_applies": m["sketching.sample.applies"],
        "sample_columns": m["sketching.sample.columns"],
        "norm_estimate_applies": m["linalg.norm_estimate.applies"],
        "applies_gap": m["core.applies_gap"],
    })
    out.line(f"untraced {untraced_s:.4f} s, traced {traced_s:.4f} s, "
             f"bit-identical={identical}")
    for name, unit in PER_LAYER.items():
        out.line(f"  {workload.name} {name:<32} {out.metrics[name]:14.6g} {unit}")
    return out


def _sample_sol_frac(operators, m: dict, sol: dict) -> float:
    """Sampler throughput as a share of its roofline.

    A kernel black-box is bounded by kernel entries/s; a dense (cached
    kernel values) black-box by GEMM.  Other samplers (an H2 apply) are
    covered by ``apply.sol_frac``; 0 marks the metric as not applicable.
    """
    if not operators or m["sketching.sample.s"] <= 0:
        return 0.0
    inner = operators[0].inner
    n = inner.n
    columns = m["sketching.sample.columns"]
    if isinstance(inner, KernelMatVecOperator):
        rate = m["sketching.sample.applies"] * n * n / m["sketching.sample.s"]
        return rate / sol["sol.kernel_entries_per_s"]
    if isinstance(inner, DenseOperator):
        gflops = 2.0 * n * n * columns / m["sketching.sample.s"] / 1e9
        return gflops / sol["sol.gemm_gflops"]
    return 0.0
