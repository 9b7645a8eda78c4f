"""Host-speed calibration: a fixed reference kernel timed next to the workload.

The CPU of a shared host runs faster or slower over seconds to minutes: on a
2-vCPU Xeon VM a fixed pure-Python, numpy or scipy-sparse kernel took 2.6 ms
in one 6 s window and 3.8 ms in the next, and identical benchmark runs moved
by as much.  Pure-Python, numpy, scipy-sparse and random-gather kernels moved
together (over two minutes their ratios stayed within about 10% while the raw
times moved by up to 3x); a product with a sparse matrix of the workloads'
size and building a CSR matrix from coordinates tracked the GEER calls best.
So the benchmark times a fixed mix of them in short slices between its
operations and reports every timing scaled to a reference speed::

    reported = raw * REFERENCE_S / c(t)

where ``c(t)`` is the mean wall time of the slices taken within ``WINDOW_S``
of the sample (at least ``MIN_SLICES`` of the nearest ones).  A program that
gets faster or slower moves ``raw`` and not ``c``; a host that gets faster or
slower moves both.  Slices are timed in wall time, so time the CPU gives to
other tenants slows them as it slows the program, and a mean, not a median,
counts the slices such a tenant interrupted.  They are taken only while the
program is idle: between closed-loop calls, or in the open loop while no
request is in flight.  The kernel draws from its own seeded generator and
touches no program state.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
import scipy.sparse

#: Slice time that defines the reference speed (about the slice's time on the
#: 2-vCPU Xeon VM the benchmark was written on, at its faster state).
REFERENCE_S = 2.5e-3
#: Slices are taken at most this often.
PERIOD_S = 0.2
#: A sample is scaled by the slices within this many seconds of it ...
WINDOW_S = 1.0
#: ... or by this many nearest slices, whichever are more.
MIN_SLICES = 7


class SpeedTrack:
    """Calibration slices of one process, and the scale factors they give."""

    def __init__(self) -> None:
        rng = np.random.default_rng(7919)
        self._vector = rng.random(4096)
        # A 4096-node matrix of about 42k entries (about 500 KiB, the size of
        # the workloads' graphs) and the coordinates of a 2000-node one that
        # each slice turns into a CSR matrix, as scipy-heavy code does.
        self._matrix = scipy.sparse.random(
            4096, 4096, density=0.0025, format="csr", random_state=7919)
        self._x = rng.random(4096)
        self._coo = (rng.random(16000), (rng.integers(0, 2000, 16000),
                                         rng.integers(0, 2000, 16000)))
        self._y = rng.random(2000)
        self._table = rng.random(1 << 20)  # 8 MiB, beyond the L2 cache
        self._index = rng.integers(0, 1 << 20, size=20000)
        for _ in range(3):  # first calls fault pages in and fill caches
            self._kernel()
        self.at: list[float] = []  # perf_counter time at the slice's middle
        self.wall_s: list[float] = []
        self._last = float("-inf")

    def _kernel(self) -> float:
        total = 0
        for i in range(1500):
            total += i * i % 7
        acc = 0.0
        for _ in range(10):
            acc += float(np.sum(np.sqrt(self._vector * 1.5 + 0.25)))
        for _ in range(8):
            acc += float((self._matrix @ self._x)[0])
        built = scipy.sparse.coo_matrix(self._coo, shape=(2000, 2000)).tocsr()
        acc += float((built.T.tocsr() @ (built @ self._y))[0])
        acc += float(self._table[self._index].sum())
        return total + acc

    def slice(self) -> None:
        """Time one kernel slice now."""
        began = time.perf_counter()
        self._kernel()
        ended = time.perf_counter()
        self.at.append((began + ended) / 2)
        self.wall_s.append(ended - began)
        self._last = began

    def maybe_slice(self) -> None:
        """Time a slice if ``PERIOD_S`` has passed since the last one."""
        if time.perf_counter() - self._last >= PERIOD_S:
            self.slice()

    def slices(self, count: int) -> None:
        for _ in range(count):
            self.slice()

    def factor(self, at: float) -> float:
        """``REFERENCE_S / c(at)``: multiply a raw time taken at ``at`` by this."""
        if not self.wall_s:
            raise RuntimeError("no calibration slice was taken")
        lo = bisect.bisect_left(self.at, at - WINDOW_S)
        hi = bisect.bisect_right(self.at, at + WINDOW_S)
        while hi - lo < min(MIN_SLICES, len(self.at)):
            # Widen towards whichever neighbour lies closer to ``at``.
            if lo > 0 and (hi >= len(self.at) or at - self.at[lo - 1] <= self.at[hi] - at):
                lo -= 1
            else:
                hi += 1
        return REFERENCE_S / statistics.fmean(self.wall_s[lo:hi])

    def scale(self, seconds: float, at: float) -> float:
        return seconds * self.factor(at)

    def _within(self, start: float, end: float) -> slice:
        return slice(bisect.bisect_left(self.at, start), bisect.bisect_right(self.at, end))

    def phase_factor(self, start: float, end: float) -> float:
        """One factor for a whole phase: from the mean slice taken inside it."""
        inside = self.wall_s[self._within(start, end)]
        if not inside:
            return self.factor((start + end) / 2)
        return REFERENCE_S / statistics.fmean(inside)

    def busy(self, start: float, end: float) -> float:
        """Wall seconds spent in slices between ``start`` and ``end``."""
        return sum(self.wall_s[self._within(start, end)])

    def summary(self) -> dict:
        """Diagnostics for the record line."""
        if not self.wall_s:
            return {"slices": 0}
        ms = np.asarray(self.wall_s) * 1e3
        return {"slices": len(ms), "slice_ms_mean": float(ms.mean()),
                "slice_ms_min": float(ms.min()), "slice_ms_max": float(ms.max())}
