"""Load generators for ``repro.serve.InferenceServer``.

Both loops run in one asyncio event loop in this process.  Every request
carries a vector drawn from a fixed pool, so each response can be checked
against a reference answer computed outside the timed region.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np


@dataclass
class ServeStats:
    #: Throughput of each closed loop, and its (start, end) perf_counter times.
    closed_rps: List[float] = field(default_factory=list)
    closed_spans: List[tuple] = field(default_factory=list)
    open_latency_ms: List[float] = field(default_factory=list)
    #: (start, end) perf_counter times of the open loop.
    open_span: tuple = (0.0, 0.0)
    server_ms: List[float] = field(default_factory=list)
    client_overhead_ms: List[float] = field(default_factory=list)
    batch_sizes: List[int] = field(default_factory=list)
    generator_lag_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def percentile(values, q: float) -> float:
    """``q``-th percentile; a failed request is an infinite latency."""
    if not values:
        return math.inf
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


async def _one(server, i: int, make, check, stats: ServeStats, due: float,
               record: bool) -> float:
    """Send one request; return its latency from ``due`` in ms (inf on failure).

    ``record`` keeps the per-request telemetry (open loop only)."""
    stats.attempted += 1
    sent = time.perf_counter()
    try:
        response = await server.handle(make(i))
    except Exception:
        stats.failed += 1
        return math.inf
    done = time.perf_counter()
    if not check(i, response):
        stats.failed += 1
        return math.inf
    if not record:
        return (done - due) * 1e3
    stats.server_ms.append(response.latency_ms)
    stats.client_overhead_ms.append((done - sent) * 1e3 - response.latency_ms)
    stats.batch_sizes.append(response.batch_size)
    return (done - due) * 1e3


async def _closed_loop(server, make, check, stats, clients, per_client):
    async def client(c: int) -> None:
        for r in range(per_client):
            await _one(server, c * per_client + r, make, check, stats,
                       time.perf_counter(), record=False)

    start = time.perf_counter()
    await asyncio.gather(*(client(c) for c in range(clients)))
    stop = time.perf_counter()
    stats.closed_rps.append(clients * per_client / (stop - start))
    stats.closed_spans.append((start, stop))


async def _open_loop(server, make, check, stats, rate, count, rng):
    gaps = rng.exponential(1.0 / rate, size=count)
    start = time.perf_counter()
    due_times = start + np.cumsum(gaps)
    tasks = []
    for i, due in enumerate(due_times):
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        stats.generator_lag_ms.append(max(0.0, (time.perf_counter() - due) * 1e3))
        tasks.append(asyncio.ensure_future(
            _one(server, i, make, check, stats, float(due), record=True)
        ))
    stats.open_latency_ms = list(await asyncio.gather(*tasks))
    stats.open_span = (start, time.perf_counter())


def drive(
    server,
    make: Callable[[int], object],
    check: Callable[[int, object], bool],
    *,
    clients: int,
    per_client: int,
    rate: float,
    count: int,
    seed: int,
    between: Callable[[], object] = lambda: None,
) -> ServeStats:
    """A closed loop of ``clients`` x ``per_client`` requests, an open loop of
    ``count`` seeded Poisson arrivals at ``rate`` requests/s, and a second
    closed loop.

    ``make(i)`` builds request ``i``; ``check(i, response)`` validates it.
    ``between()`` runs between the phases, while no request is in flight.
    Open-loop latency runs from each request's due time, so generator lag
    and queueing both count."""
    stats = ServeStats()

    async def main() -> None:
        try:
            await _closed_loop(server, make, check, stats, clients, per_client)
            between()
            await _open_loop(server, make, check, stats, rate, count,
                             np.random.default_rng(seed))
            between()
            await _closed_loop(server, make, check, stats, clients, per_client)
        finally:
            await server.aclose()

    asyncio.run(main())
    return stats
