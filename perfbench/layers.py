"""Outside-in timing of the library's layers for the traced run.

Nothing here reaches into ``repro`` internals: every wrapper is a subclass of
a public extension point that the library already accepts from callers.

* :class:`TimedOperator` wraps a ``SketchingOperator``.  ``multiply`` is the
  black-box sampler (one call per sample round); ``matvec`` is what the
  power-method norm estimate calls, which the library does not count.
* :class:`TimedExtractor` wraps an ``EntryExtractor`` (batched entry
  generation).
* :class:`TimedBackend` is a ``VectorizedBackend`` whose batched primitives
  are timed (row ID, GEMM family, convergence test).

All three delegate the arithmetic unchanged, so a traced construction is
bitwise identical to an untraced one; :func:`operator_arrays` lets the caller
check that.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from repro import VectorizedBackend
from repro.sketching import EntryExtractor, SketchingOperator


class LayerClock:
    """Accumulated seconds and call counts per layer name."""

    def __init__(self) -> None:
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        #: Snapshots taken at the start of each construction (see wrap_bind).
        self.marks: list = []
        self._depth = 0

    @contextmanager
    def time(self, layer: str):
        # Only the outermost timed call counts, so a primitive that calls
        # another timed primitive is not counted twice.
        outer = self._depth == 0
        self._depth += 1
        start = time.perf_counter()
        try:
            yield
        finally:
            self._depth -= 1
            if outer:
                self.seconds[layer] += time.perf_counter() - start
                self.calls[layer] += 1

    def snapshot(self) -> tuple:
        return dict(self.seconds), dict(self.calls)


class TimedOperator(SketchingOperator):
    """A sketching operator whose sampler and norm-estimate applies are timed."""

    def __init__(self, inner: SketchingOperator, clock: LayerClock):
        super().__init__()
        self.inner = inner
        self.clock = clock
        #: Sample columns drawn through ``multiply`` (the sampler).
        self.sample_columns = 0
        #: Single-vector applies through ``matvec`` (the norm estimate).
        self.norm_applies = 0

    @property
    def n(self) -> int:
        return self.inner.n

    def _multiply(self, omega: np.ndarray) -> np.ndarray:
        return self.inner._multiply(omega)

    def multiply(self, omega: np.ndarray) -> np.ndarray:
        with self.clock.time("sketching.sample"):
            y = super().multiply(omega)
        self.sample_columns += y.shape[1]
        return y

    def matvec(self, x: np.ndarray) -> np.ndarray:
        with self.clock.time("linalg.norm_estimate"):
            y = super().matvec(x)
        self.norm_applies += 1
        return y


class TimedExtractor(EntryExtractor):
    """An entry extractor whose batched generation calls are timed."""

    def __init__(self, inner: EntryExtractor, clock: LayerClock):
        # The inner extractor keeps the entry statistics; this wrapper only
        # forwards, so the base-class counter is not initialised here.
        self.inner = inner
        self.clock = clock
        #: Entries in the arrays handed back, zero padding included.
        self.returned_entries = 0

    @property
    def supports_stacked(self) -> bool:  # type: ignore[override]
        return self.inner.supports_stacked

    @property
    def entries_evaluated(self) -> int:  # type: ignore[override]
        return self.inner.entries_evaluated

    @entries_evaluated.setter
    def entries_evaluated(self, value: int) -> None:
        self.inner.entries_evaluated = value

    @property
    def n(self) -> int:
        return self.inner.n

    def _extract(self, rows, cols):
        return self.inner._extract(rows, cols)

    def _extract_stacked(self, rows, cols):
        return self.inner._extract_stacked(rows, cols)

    def extract(self, rows, cols):
        with self.clock.time("sketching.entries"):
            block = self.inner.extract(rows, cols)
        self.returned_entries += block.size
        return block

    def extract_blocks(self, requests, counter=None):
        with self.clock.time("sketching.entries"):
            blocks = self.inner.extract_blocks(requests, counter=counter)
        self.returned_entries += sum(block.size for block in blocks)
        return blocks

    def extract_blocks_padded(self, *args, **kwargs):
        with self.clock.time("sketching.entries"):
            stack = self.inner.extract_blocks_padded(*args, **kwargs)
        self.returned_entries += stack.size
        return stack


class TimedBackend(VectorizedBackend):
    """The vectorized backend with its construction primitives timed."""

    def __init__(self, clock: LayerClock, counter=None):
        super().__init__(counter=counter)
        self.clock = clock

    def batched_row_id(self, *args, **kwargs):
        with self.clock.time("batched.row_id"):
            return super().batched_row_id(*args, **kwargs)

    def batched_min_r_diag(self, *args, **kwargs):
        with self.clock.time("batched.convergence"):
            return super().batched_min_r_diag(*args, **kwargs)

    def batched_gemm(self, *args, **kwargs):
        with self.clock.time("batched.gemm"):
            return super().batched_gemm(*args, **kwargs)

    def batched_gemm_accumulate(self, *args, **kwargs):
        with self.clock.time("batched.gemm"):
            return super().batched_gemm_accumulate(*args, **kwargs)

    def batched_gemm_scatter(self, *args, operation="batched_scatter_gemm", **kwargs):
        # The same backend also runs the compiled apply plans of the operators
        # it built; only the construction sweep's launches are construction.
        layer = "batched.gemm" if operation.startswith("construct") else "apply.gemm"
        with self.clock.time(layer):
            return super().batched_gemm_scatter(*args, operation=operation, **kwargs)


def wrap_bind(context, clock: LayerClock, wrapped: list):
    """Time a ``GeometryContext``'s evaluators from outside.

    ``GeometryContext.bind`` hands the construction its operator/extractor
    pair (materialising the kernel values first when distances are cached).
    The instance's ``bind`` is replaced by one that times the call and wraps
    the pair; each wrapped pair is appended to ``wrapped``.  A call to
    ``bind`` starts a construction, so each call also snapshots the clock
    into ``clock.marks``.
    """
    original = context.bind

    def bind(kernel):
        clock.marks.append(clock.snapshot())
        with clock.time("sketching.bind"):
            operator, extractor = original(kernel)
        pair = TimedOperator(operator, clock), TimedExtractor(extractor, clock)
        wrapped.append(pair)
        return pair

    context.bind = bind


def operator_arrays(h2) -> dict:
    """Every numeric buffer of an H2 matrix, keyed by role and node."""
    arrays = {}
    for role, blocks in (
        ("leaf_basis", h2.basis.leaf_bases),
        ("transfer", h2.basis.transfers),
        ("coupling", h2.coupling),
        ("dense", h2.dense),
    ):
        for key, value in blocks.items():
            arrays[(role, key)] = np.asarray(value)
    return arrays


def bitwise_equal(a, b) -> bool:
    """Whether two H2 matrices hold identical buffers, bit for bit."""
    arrays_a, arrays_b = operator_arrays(a), operator_arrays(b)
    if arrays_a.keys() != arrays_b.keys():
        return False
    return all(
        x.dtype == arrays_b[k].dtype
        and x.shape == arrays_b[k].shape
        and x.tobytes() == arrays_b[k].tobytes()
        for k, x in arrays_a.items()
    )
