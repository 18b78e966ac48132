"""A fixed reference computation that measures how fast the host runs right now.

On a shared VM the speed of interpreter-bound code drifts by tens of
percent over minutes, whichever process runs, so raw times from two runs
minutes apart differ by more than any change worth detecting.  The
kernel below never changes and does the same kind of work as freqlens:
a Python-level loop of small array operations that allocate an object
per op, plus an einsum.  Sampling it between operations gives the host's
current speed, and each timed call is scaled by the speed sampled
around it.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np

# median kernel duration on the 2-vCPU VM the benchmark's bounds were set on;
# scaled times read as seconds on that VM at this speed
NOMINAL_S = 0.55e-3
PERIOD_S = 0.05  # least time between samples taken after operations
REPEATS = 2  # kernel runs per sample


class _Node:
    __slots__ = ("data", "parents")

    def __init__(self, data, parents=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.parents = parents


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.normal(size=(4, 96, 2))
        self._w1 = rng.normal(size=(2, 16))
        self._w2 = rng.normal(size=(16, 16))
        self._bases = rng.normal(size=(8, 96))
        self.samples: list[float] = []
        self._last = -float("inf")

    def _kernel(self) -> list[_Node]:
        x = _Node(self._x)
        outs = []
        for _ in range(6):
            a = _Node(x.data @ self._w1, (x,))
            b = _Node(np.maximum(a.data, 0.0), (a,))
            c = _Node(b.data @ self._w2, (b,))
            d = _Node(np.einsum("bld,nl->bnd", c.data, self._bases), (c,))
            e = _Node(np.tanh(d.data).sum(axis=1), (d,))
            outs.append(_Node(e.data / (np.sqrt((e.data ** 2).sum(axis=1, keepdims=True)) + 1e-9), (e,)))
        return outs

    def sample(self) -> None:
        # a collection the last operation left due is not the host's speed
        gc.disable()
        try:
            for _ in range(REPEATS):
                t0 = perf_counter()
                self._kernel()
                self.samples.append(perf_counter() - t0)
        finally:
            gc.enable()
        self._last = perf_counter()

    def maybe_sample(self) -> None:
        """Sample when at least ``PERIOD_S`` passed since the last sample."""
        if perf_counter() - self._last >= PERIOD_S:
            self.sample()

    def speeds(self, marks: list[int]) -> np.ndarray:
        """Host speed around each timed call, above 1 when the host runs fast.

        ``marks[j]`` is the number of samples taken before call j began.
        Its speed is nominal over the median of the samples taken just
        before and just after it, so a phase of the host that changes
        within a run is scaled out call by call.
        """
        samples = np.asarray(self.samples)
        around = {k: NOMINAL_S / np.median(samples[max(0, k - REPEATS):k + REPEATS]) for k in set(marks)}
        return np.array([around[k] for k in marks])
