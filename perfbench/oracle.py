"""Exact and dense reference values, computed in a child process.

``peak_rss_mb`` is the benchmark process's own ``ru_maxrss``, so the
oracles' arrays (dense ``K`` matrices, their factorizations, blocked exact
kernel applies) must never live in it.  :class:`Oracle` forks one worker
before anything is timed and runs every reference computation there; only
the inputs and the resulting scalars and vectors cross the process boundary.
"""

from __future__ import annotations

import multiprocessing

import numpy as np

from repro import ExponentialKernel
from repro.sketching import KernelMatVecOperator

ROW_BLOCK = 256


class Oracle:
    """One forked worker process that evaluates the reference functions below.

    Calls go over a pipe, so no shared-memory semaphore is needed.  Use as a
    context manager; leaving it stops the worker and waits for it.
    """

    def __init__(self) -> None:
        context = multiprocessing.get_context("fork")
        self._conn, child = context.Pipe()
        self._process = context.Process(target=_serve, args=(child,), daemon=True)
        self._process.start()
        child.close()

    def __call__(self, fn, *args):
        self._conn.send((fn, args))
        ok, value = self._conn.recv()
        if not ok:
            raise value
        return value

    def __enter__(self) -> "Oracle":
        return self

    def __exit__(self, *exc) -> None:
        try:
            self._conn.send(None)
        finally:
            self._conn.close()
            self._process.join(timeout=30)
            if self._process.is_alive():
                self._process.kill()
                self._process.join()


def _serve(conn) -> None:
    """Worker loop: run each ``(fn, args)`` received until ``None`` arrives."""
    while True:
        task = conn.recv()
        if task is None:
            return
        fn, args = task
        try:
            conn.send((True, fn(*args)))
        except Exception as exc:
            conn.send((False, exc))


def kernel_apply(kernel, points: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``K x`` with the exact kernel, in row blocks."""
    return KernelMatVecOperator(kernel, points, row_block=ROW_BLOCK).matvec(x)


def shifted_norm(kernel, points: np.ndarray, noise: float, iterations: int = 8) -> float:
    """Power-iteration estimate of ``||K + noise I||_2`` with the exact kernel."""
    exact = KernelMatVecOperator(kernel, points, row_block=ROW_BLOCK)
    v = np.full(points.shape[0], 1.0 / np.sqrt(points.shape[0]))
    for _ in range(iterations):
        w = exact.matvec(v)
        v = w / np.linalg.norm(w)
    return float(np.linalg.norm(exact.matvec(v))) + noise


def shifted_residual_norms(kernel, points: np.ndarray, noise: float,
                           x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Column norms of ``(K + noise I) x - rhs`` with the exact kernel."""
    residual = kernel_apply(kernel, points, x) + noise * x - rhs
    return np.linalg.norm(residual, axis=0)


def gp_references(points: np.ndarray, length_scales, noise: float,
                  pool: np.ndarray) -> dict:
    """Dense references of an exponential-kernel GP at each length scale.

    Returns ``{length_scale: (sign, logdet, means)}``: ``slogdet(K + noise I)``
    and the posterior means ``K (K + noise I)^{-1} y`` of each row ``y`` of
    ``pool``.
    """
    out = {}
    eye = noise * np.eye(points.shape[0])
    for length_scale in length_scales:
        k = ExponentialKernel(length_scale).evaluate(points, points)
        shifted = k + eye
        sign, logdet = np.linalg.slogdet(shifted)
        means = (k @ np.linalg.solve(shifted, pool.T)).T
        out[float(length_scale)] = (float(sign), float(logdet), means)
    return out
