"""Timing of a unit's measured segments, calibrated against host speed.

The hosts this benchmark runs on are shared: for a second or more at a
time a neighbour can slow the CPU by half, and CPU time rises as much as
wall time, so neither clock alone is steady. While a unit runs, a timer
signal therefore interrupts it every SAMPLE_EVERY_S and times a fixed
pure-Python kernel (heap, dict, small objects and bytes, the mix meowsim
spends its time on) in the thread's CPU time. Between two samples, the
process CPU time of a measured segment is scaled by CALIBRATION_REF_NS over
the mean of the two kernel times. Waiting (wall minus process CPU, for
example on a socket) is not scaled, and the samples' own time is left out.
Reported host times so read as on a host that runs the kernel in exactly
CALIBRATION_REF_NS; run.py prints the raw times beside them.
"""

from __future__ import annotations

import bisect
import contextlib
import heapq
import signal
import statistics
import time

CALIBRATION_REF_NS = 400_000
SAMPLE_EVERY_S = 0.02
_KERNEL_EVENTS = 300

_wall = time.perf_counter_ns
_cpu = time.process_time_ns
_thread_cpu = time.thread_time_ns


class _Event:
    __slots__ = ("t", "kind", "payload")

    def __init__(self, t, kind, payload):
        self.t = t
        self.kind = kind
        self.payload = payload


def _kernel() -> dict:
    heap, totals = [], {}
    for i in range(_KERNEL_EVENTS):
        event = _Event((i * 7919) % 10007, i % 7, {"segment": i % 4, "word": bytes(2)})
        heapq.heappush(heap, (event.t, i, event))
        if len(heap) > 64:
            _, _, done = heapq.heappop(heap)
            key = (done.kind, done.payload["segment"])
            totals[key] = totals.get(key, 0) + int.from_bytes(done.payload["word"], "little") + 1
    return totals


def _kernel_ns() -> int:
    t0 = _thread_cpu()
    _kernel()
    return _thread_cpu() - t0


class Meter:
    """Measured segments of one unit of work, plus the host-speed samples."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.segments: list[tuple] = []  # (wall0, cpu0, wall1, cpu1, ops)
        # per sample: wall and process CPU at its start and end, kernel CPU ns
        self.samples: list[tuple[int, int, int, int, int]] = []

    # -- while the unit runs -------------------------------------------------

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def _sample(self) -> None:
        w0, c0 = _wall(), _cpu()
        kernel_ns = _kernel_ns()
        w1, c1 = _wall(), _cpu()
        self.samples.append((w0, w1, c0, c1, kernel_ns))
        if self.tracer is not None and self.tracer.active:
            # count the sample as a child of the open span, so it stays out
            # of that span's self time
            self.tracer.add_child_ns(w1 - w0)

    @contextlib.contextmanager
    def timed(self, ops: int = 0):
        """Measure the block; ops > 0 marks it as that many operations."""
        span = self.tracer.op() if ops and self.tracer is not None \
            else contextlib.nullcontext()
        with span:
            w0, c0 = _wall(), _cpu()
            try:
                yield
            finally:
                self.segments.append((w0, c0, _wall(), _cpu(), ops))

    def paused(self):
        """Untimed work inside a unit that traced runs must not record."""
        return self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()

    def finish(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        self.factor = CALIBRATION_REF_NS / statistics.median(s[4] for s in self.samples)
        # Calibrated process CPU time as a piecewise-linear function of the
        # raw one: flat across each sample, and between two samples a slope
        # of the reference over their mean kernel time.
        self._cpu_at, self._calibrated_at = [], []
        value = 0.0
        for i, (_, _, c0, c1, kernel_ns) in enumerate(self.samples):
            if i:
                _, _, _, prev_c1, prev_kernel_ns = self.samples[i - 1]
                value += (c0 - prev_c1) * 2 * CALIBRATION_REF_NS / (prev_kernel_ns + kernel_ns)
            self._cpu_at += [c0, c1]
            self._calibrated_at += [value, value]
        self._sample_starts = [s[0] for s in self.samples]
        self.calibrated = [self._segment(*seg[:4]) for seg in self.segments]

    # -- after the unit ------------------------------------------------------

    def _calibrated_cpu(self, c: int) -> float:
        i = bisect.bisect_right(self._cpu_at, c)
        if i == len(self._cpu_at):  # after the last sample
            return self._calibrated_at[-1] + (c - self._cpu_at[-1]) * self.factor
        if i == 0:  # before the first sample
            return self._calibrated_at[0] - (self._cpu_at[0] - c) * self.factor
        lo, hi = self._cpu_at[i - 1], self._cpu_at[i]
        v_lo, v_hi = self._calibrated_at[i - 1], self._calibrated_at[i]
        return v_lo + (v_hi - v_lo) * (c - lo) / (hi - lo) if hi > lo else v_lo

    def _segment(self, w0, c0, w1, c1) -> tuple[float, int]:
        """(calibrated ns, raw ns) of one segment, samples inside it left out."""
        first = bisect.bisect_left(self._sample_starts, w0)
        last = bisect.bisect_right(self._sample_starts, w1)
        inside = self.samples[first:last]
        wall = w1 - w0 - sum(s[1] - s[0] for s in inside)
        cpu = c1 - c0 - sum(s[3] - s[2] for s in inside)
        waiting = max(wall - cpu, 0)
        return waiting + self._calibrated_cpu(c1) - self._calibrated_cpu(c0), wall

    @property
    def raw_ns(self) -> int:
        return sum(raw for _, raw in self.calibrated)

    @property
    def timed_ns(self) -> float:
        return sum(ns for ns, _ in self.calibrated)

    @property
    def ops(self) -> list[tuple[float, int]]:
        """(calibrated ns per operation, operation count) per segment."""
        return [(ns / seg[4], seg[4])
                for (ns, _), seg in zip(self.calibrated, self.segments) if seg[4]]

    @property
    def round_trips_ns(self) -> list[int]:
        """Raw wall ns of each single-operation segment."""
        return [raw for (_, raw), seg in zip(self.calibrated, self.segments) if seg[4] == 1]
