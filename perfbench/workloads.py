"""The benchmark workloads, each driven through the public ``repro`` API.

A workload is split into the steps a user runs:

``inputs``        seeded points, probe blocks and request pools (untimed);
``references``    oracle values known from the inputs alone, computed in the
                  child process of :class:`~oracle.Oracle` (untimed);
``setup``         geometry / base operator the timed step needs (``setup_s``);
``construct``     the construction call (``compress_s``);
``finish``        what turns the construction into a first answer: the first
                  (plan-compiling) apply, or factor + solve (``first_result_s``);
``check``         oracle checks, outside every timed region; whatever needs
                  dense or exact kernel arrays runs in the oracle process;
``register``      server registration (and factorization) for serving.

``construct`` and ``setup`` take an optional :class:`~layers.LayerClock`;
with one, the public extension points are replaced by the timing wrappers of
:mod:`layers` for the traced run.
"""

from __future__ import annotations

import time

import numpy as np

import repro
from repro import (
    ClusterTree,
    ExecutionPolicy,
    ExponentialKernel,
    Session,
    build_block_partition,
)
from repro.serve import InferenceServer, MatvecRequest, PredictRequest, SolveRequest
from repro.sketching import KernelEntryExtractor, KernelMatVecOperator
from repro.tree import GeneralAdmissibility, WeakAdmissibility

import oracle
from layers import TimedBackend, TimedExtractor, TimedOperator, bitwise_equal, wrap_bind

TOL = 1e-6
LEAF = 64
ETA = 0.7
PROBE_COLUMNS = 8
POOL = 16
NOISE = 1e-2


def rel_err(approx: np.ndarray, exact: np.ndarray) -> float:
    return float(np.linalg.norm(approx - exact) / np.linalg.norm(exact))


def points_2d(n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` uniform points in the unit square."""
    return rng.random((n, 2))


class Workload:
    """Shared plumbing; subclasses fill in the steps."""

    name = ""
    n = 0
    #: Serving: closed loops of ``clients`` x ``per_client`` requests around
    #: open-loop Poisson arrivals at ``rate`` requests/s.  Each rate is a
    #: fifth to a third of the open-loop rate at which that workload's
    #: latency starts to grow (the measured curve is in the README).
    clients, per_client, rate = 32, 8, 40.0
    #: Rounds a run makes even when ``--seconds`` has run out.
    min_rounds = 5
    #: Relative tolerance of a served answer against its reference.
    serve_tol = 1e-10

    #: Whether the served operator exists only after ``finish``.
    exports_operator = False
    #: Whether every construction needs a fresh set-up (a Session caches the
    #: result of an identical construction).
    setup_per_construct = False

    def admissibility(self):
        return GeneralAdmissibility(eta=ETA)

    def compress_seconds(self, product, elapsed: float) -> float:
        """Construction seconds of one ``construct`` call taking ``elapsed``."""
        return elapsed

    def identical(self, a, b) -> bool:
        """Whether two ``construct`` products hold bit-identical operators."""
        return bitwise_equal(a["result"].matrix, b["result"].matrix)

    def references(self, inp, ref) -> None:
        """Add the oracle values that follow from the inputs alone to ``inp``."""

    def loaded(self, product) -> list:
        """``(label, value, ok)`` checks that the construction was built, not
        loaded from an artifact cache."""
        result = product.get("result")
        if result is None:
            return []
        built = result.construction_path != "cache"
        return [("loaded_from_cache", 0.0 if built else 1.0, built)]

    def counts(self, product) -> dict:
        result = product["result"]
        return {
            "samples": int(result.total_samples),
            "sample_rounds": int(result.operator_applications),
            "launches": int(result.total_kernel_launches),
            "entries": int(result.entries_evaluated),
        }

    def operator(self, state, product):
        return product["result"].matrix

    def register(self, server: InferenceServer, state, product) -> None:
        server.register("m", operator=self.operator(state, product))

    def request(self, inp, i: int):
        return MatvecRequest(model="m", x=inp["pool"][i % POOL])

    def serve_reference(self, inp, state, product) -> np.ndarray:
        return (self.operator(state, product) @ inp["pool"].T).T

    def response_value(self, response) -> np.ndarray:
        return response.y


class KernelCompress(Workload):
    """``repro.compress`` of an exponential kernel on 2D points (strong, eta=0.7)."""

    name = "kernel-compress-2d"
    #: At n=4096 the operator held 48 MB, and its apply slowed by up to 1.3x
    #: more than the machine's speed reference whenever neighbours crowded
    #: the shared cache; at n=2048 it holds 22 MB, like the other workloads'.
    n = 2048

    def inputs(self, seed: int, n: int | None = None) -> dict:
        n = n or self.n
        rng = np.random.default_rng(seed)
        points = points_2d(n, rng)
        probe = rng.standard_normal((n, PROBE_COLUMNS))
        kernel = ExponentialKernel(0.2)
        return {
            "points": points,
            "kernel": kernel,
            "seed": seed,
            "probe": probe,
            "pool": rng.standard_normal((POOL, n)),
        }

    def references(self, inp, ref) -> None:
        inp["exact"] = ref(oracle.kernel_apply, inp["kernel"], inp["points"], inp["probe"])

    def setup(self, inp, clock=None):
        tree = ClusterTree.build(inp["points"], leaf_size=LEAF)
        return {"partition": build_block_partition(tree, GeneralAdmissibility(eta=ETA))}

    def construct(self, inp, state, clock=None):
        partition, kernel = state["partition"], inp["kernel"]
        kwargs = dict(partition=partition, tol=TOL, seed=inp["seed"], full_result=True)
        if clock is None:
            return {"result": repro.compress(kernel=kernel, **kwargs)}
        points = partition.tree.points
        operator = TimedOperator(KernelMatVecOperator(kernel, points), clock)
        extractor = TimedExtractor(KernelEntryExtractor(kernel, points), clock)
        result = repro.compress(
            operator=operator,
            extractor=extractor,
            policy=ExecutionPolicy(backend=TimedBackend(clock)),
            **kwargs,
        )
        return {"result": result, "wrapped": [(operator, extractor)]}

    def finish(self, inp, state, product) -> dict:
        product["result"].matrix @ inp["pool"][0]
        return {}

    def check(self, inp, state, product, ref) -> list:
        err = rel_err(product["result"].matrix @ inp["probe"], inp["exact"])
        return [("probe_rel_err", err, err <= TOL)]


class SessionWorkload(Workload):
    """Shared geometry of the two ``Session`` workloads (weak admissibility)."""

    setup_per_construct = True
    serve_tol = 1e-6

    def admissibility(self):
        return WeakAdmissibility()

    def _points(self, seed: int, n: int | None):
        rng = np.random.default_rng(seed)
        return rng, points_2d(n or self.n, rng)

    def setup(self, inp, clock=None):
        if clock is None:
            return {"session": Session(inp["points"], seed=inp["seed"])}
        session = Session(
            inp["points"], seed=inp["seed"],
            policy=ExecutionPolicy(backend=TimedBackend(clock)),
        )
        wrapped: list = []
        wrap_bind(session.context, clock, wrapped)
        return {"session": session, "wrapped": wrapped}


class SolveServe(SessionWorkload):
    """``Session`` compress -> factor -> solve, then served direct solves."""

    name = "solve-serve-2d"
    n = 4096
    rate = 20.0
    solves = 4

    def inputs(self, seed: int, n: int | None = None) -> dict:
        rng, points = self._points(seed, n)
        return {
            "points": points,
            "kernel": ExponentialKernel(0.2),
            "seed": seed,
            "rhs": rng.standard_normal((self.solves, points.shape[0])),
            "pool": rng.standard_normal((POOL, points.shape[0])),
        }

    def references(self, inp, ref) -> None:
        inp["norm"] = ref(oracle.shifted_norm, inp["kernel"], inp["points"], NOISE)

    def construct(self, inp, state, clock=None):
        session = state["session"]
        session.compress(inp["kernel"], tol=TOL)
        return {"result": session.result, "wrapped": state.get("wrapped", [])}

    def finish(self, inp, state, product) -> dict:
        session = state["session"]
        start = time.perf_counter()
        session.factor(noise=NOISE)
        factor_s = time.perf_counter() - start
        solve_times, solutions = [], []
        for b in inp["rhs"]:
            start = time.perf_counter()
            solutions.append(session.solve(b, tol=1e-8))
            solve_times.append(time.perf_counter() - start)
        product["solutions"] = solutions
        return {"factor_s": factor_s, "solve_s": float(np.median(solve_times)),
                "solve_total_s": float(sum(solve_times))}

    def counts(self, product) -> dict:
        counts = super().counts(product)
        counts["cg_iterations"] = sum(s.iterations for s in product["solutions"])
        return counts

    def check(self, inp, state, product, ref) -> list:
        """Residual against the exact (uncompressed) ``K + noise I``.

        A solve of the compressed system leaves a dense residual of at most
        ``||K - H|| ||x|| / ||b||`` plus the solve tolerance; the construction
        targets ``||K - H|| <= tol ||K||``, so that is the bound checked.
        """
        x = np.stack([s.x for s in product["solutions"]], axis=1)
        residuals = ref(oracle.shifted_residual_norms, inp["kernel"], inp["points"],
                        NOISE, x, inp["rhs"].T)
        checks = []
        for j, (b, solution) in enumerate(zip(inp["rhs"], product["solutions"])):
            residual = float(residuals[j] / np.linalg.norm(b))
            bound = TOL * inp["norm"] * np.linalg.norm(solution.x) / np.linalg.norm(b) + 1e-8
            checks.append(("dense_residual_over_bound", residual / bound,
                           bool(solution.converged) and residual <= bound))
        return checks

    def operator(self, state, product):
        return state["session"].operator

    def register(self, server: InferenceServer, state, product) -> None:
        server.register("m", operator=state["session"].operator, noise=NOISE, warm=True)

    def request(self, inp, i: int):
        return SolveRequest(model="m", b=inp["pool"][i % POOL])

    def serve_reference(self, inp, state, product) -> np.ndarray:
        session = state["session"]
        return np.stack([session.solve(b, tol=1e-8).x for b in inp["pool"]])

    def response_value(self, response) -> np.ndarray:
        return response.x


class GPSweep(SessionWorkload):
    """``Session.gp(...).fit`` over three length scales, then served predictions."""

    name = "gp-sweep-2d"
    n = 2048
    rate = 20.0
    length_scales = (0.15, 0.2, 0.3)
    exports_operator = True

    def inputs(self, seed: int, n: int | None = None) -> dict:
        rng, points = self._points(seed, n)
        y = np.sin(6.0 * points[:, 0]) * np.cos(4.0 * points[:, 1])
        y = y + 0.1 * rng.standard_normal(points.shape[0])
        return {
            "points": points,
            "kernel": ExponentialKernel(0.2),
            "seed": seed,
            "y": y,
            "pool": y[None, :] + 0.1 * rng.standard_normal((POOL, points.shape[0])),
        }

    def references(self, inp, ref) -> None:
        inp["dense"] = ref(oracle.gp_references, inp["points"], self.length_scales,
                           NOISE, inp["pool"])

    def construct(self, inp, state, clock=None):
        gp = state["session"].gp(inp["kernel"], noise=NOISE)
        start = time.perf_counter()
        gp.fit(inp["y"], length_scales=list(self.length_scales))
        return {"gp": gp, "reports": list(gp.fit_reports_),
                "fit_s": time.perf_counter() - start,
                "wrapped": state.get("wrapped", [])}

    def compress_seconds(self, product, elapsed: float) -> float:
        return sum(r.construction_seconds for r in product["reports"])

    def identical(self, a, b) -> bool:
        same_alpha = a["gp"].alpha_.tobytes() == b["gp"].alpha_.tobytes()
        logdets = [[r.log_determinant for r in p["reports"]] for p in (a, b)]
        return same_alpha and logdets[0] == logdets[1]

    def finish(self, inp, state, product) -> dict:
        # Export the selected model: its covariance operator, compressed over
        # the session geometry (the operator that is then applied and served).
        gp = product["gp"]
        session = state["session"]
        session.compress(gp.kernel, tol=gp.tolerance)
        product["operator"] = session.operator
        return {"gp_fit_s": product["fit_s"]}

    def counts(self, product) -> dict:
        reports = product["reports"]
        return {
            "samples": sum(r.construction_samples for r in reports),
            "launches": sum(r.construction_launches for r in reports),
            "cg_iterations": sum(r.cg_iterations for r in reports),
            "points": len(reports),
        }

    def check(self, inp, state, product, ref) -> list:
        checks = []
        for report in product["reports"]:
            sign, logdet, _ = inp["dense"][float(report.params["length_scale"])]
            err = abs(report.log_determinant - logdet) / abs(logdet)
            ok = sign > 0 and report.noise == NOISE and err <= 1e-6
            checks.append(("logdet_rel_err", err, ok))
        return checks

    def operator(self, state, product):
        return product["operator"]

    def register(self, server: InferenceServer, state, product) -> None:
        server.register("m", operator=product["operator"],
                        noise=product["gp"].noise, warm=True)

    def request(self, inp, i: int):
        return PredictRequest(model="m", y=inp["pool"][i % POOL])

    def serve_reference(self, inp, state, product) -> np.ndarray:
        gp = product["gp"]
        if gp.noise != NOISE:
            raise ValueError(f"the fit changed the noise to {gp.noise}")
        return inp["dense"][float(gp.kernel.length_scale)][2]

    def response_value(self, response) -> np.ndarray:
        return response.mean


WORKLOADS = {w.name: w for w in (KernelCompress(), SolveServe(), GPSweep())}
