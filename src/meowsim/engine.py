"""Deterministic discrete-event core: virtual clock, event queue, seeded RNG.

One engine instance is strictly single-threaded. Independent instances can
run side by side (parameter sweeps); they share nothing.
"""

from __future__ import annotations

import heapq
from enum import Enum

from .errors import SchedulingInPast

_U64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # splitmix64's state increment


class EventKind(Enum):
    """Event kinds in same-instant run order.

    Southbound arrivals run before frame emissions, so that a write staged
    on a boundary rides it, and a caller stopped at the slot (instant,
    SouthboundArrived) can still hand in a request that rides the frame of
    that instant. Neither a latch nor a completion is an event: the
    controller records both when it builds the frame.
    """

    SOUTHBOUND_ARRIVED = "SouthboundArrived"
    MASTER_EMIT = "MasterEmit"


for _rank, _kind in enumerate(EventKind):
    _kind.rank = _rank  # position in the same-instant run order


class SplitMix64:
    """splitmix64 generator; chosen for portable pure-integer semantics.

    state' = (state + 0x9E3779B97F4A7C15) mod 2^64
    z = state'; z = (z ^ z>>30) * 0xBF58476D1FE4E1B4 mod 2^64
    z = (z ^ z>>27) * 0x94D049BB133111EB mod 2^64
    output = z ^ z>>31

    Any implementation of these steps reproduces the same sequence for the
    same seed; golden draws are frozen under tests/data/.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _U64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _U64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1FE4E1B4) & _U64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
        return z ^ (z >> 31)

    def uniform_draw(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]; always consumes exactly one step.

        Plain modulo reduction: the bias is span/2^64 and irrelevant here;
        what matters is that the mapping is fixed forever. A one-value span
        only steps the state: its output, mod 1, would be discarded.
        """
        if lo == hi:
            self.state = (self.state + _GOLDEN) & _U64
            return lo
        if lo > hi:
            raise ValueError(f"uniform_draw needs lo <= hi, got [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)


class Engine:
    """Virtual-time event loop.

    Events at one instant run in EventKind order; events of one kind at
    one instant run in the order they were scheduled, or by ascending
    `order` when they were scheduled with one. Each queued event carries
    its kind's rank, which both orders the heap and indexes the handler
    list, so dispatch never hashes the EventKind.

    A run-order cursor holds the latest slot (time, kind, order) run past:
    step moves it to each event, run_until to its end slot but never back,
    and rewind back below now.
    """

    def __init__(self, seed: int = 0):
        self.rng = SplitMix64(seed)
        self._heap: list[tuple] = []  # (time_ns, rank, seq or order, args)
        self._seq = 0
        self._clock = 0
        self._handlers: list = [None] * len(EventKind)  # indexed by rank
        self._ran: tuple = ()  # the run-order cursor; () sorts before every slot

    @property
    def now(self) -> int:
        return self._clock

    def on(self, kind: EventKind, handler) -> None:
        """Register the single handler for an event kind; it gets the args.

        A later registration replaces the earlier one. An event of a kind
        with no handler still runs: it moves the clock and does nothing.
        """
        self._handlers[kind.rank] = handler

    def schedule(self, time_ns: int, kind: EventKind, *args, order: int | None = None) -> None:
        """Queue an event; with order, it runs among its kind's events at
        that instant by ascending order, which must then be unique there."""
        if time_ns < self._clock:
            raise SchedulingInPast(
                f"cannot schedule {kind.value} at {time_ns}, clock is {self._clock}"
            )
        if order is None:
            order = self._seq
            self._seq += 1
        heapq.heappush(self._heap, (time_ns, kind.rank, order, args))

    def run_until(self, t_end: int, before: EventKind | None = None) -> int:
        """Process every event before the slot (t_end, before), by default past every kind.

        The clock ends at t_end, the cursor at the slot or past it. Returns the event count.
        """
        if t_end < self._clock:
            raise SchedulingInPast(f"cannot run to {t_end}, clock is {self._clock}")
        slot = (t_end, len(EventKind) if before is None else before.rank)
        heap = self._heap
        processed = 0
        while heap and heap[0] < slot:
            self.step()
            processed += 1
        self._clock, self._ran = t_end, slot if slot > self._ran else self._ran
        return processed

    def step(self) -> None:
        """Process the earliest queued event; the clock and cursor move to it."""
        event = heapq.heappop(self._heap)
        if event > self._ran:  # an event queued at now may sort before its queuer's
            self._ran = event
        self._clock, rank, _, args = event
        handler = self._handlers[rank]
        if handler is not None:
            handler(*args)

    def has_run(self, time_ns: int, kind: EventKind, order: int) -> bool:
        """Whether the engine has run past the slot (time_ns, kind, order)."""
        return (time_ns, kind.rank, order) <= self._ran

    def rewind(self) -> None:
        """Count no slot at or after now as run, even where run_until ran through now."""
        self._ran = min(self._ran, (self._clock,))

    def next_time_ns(self) -> int | None:
        """Time of the earliest queued event; None when nothing is queued."""
        return self._heap[0][0] if self._heap else None
