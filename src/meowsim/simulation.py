"""Cyclic EtherCAT machinery: PDO boundaries, master/device state, latency oracle.

The event-driven path (driven by the device controller) and the closed-form
oracle in analytic_latency are two independent routes to the same number;
tests hold them to exact integer equality.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from .topology import TimingParams


def next_pdo_boundary(t: int, phase_ns: int, cycle_ns: int) -> int:
    """First PDO boundary strictly after t.

    Boundaries are phase_ns + k*cycle_ns for integer k >= 0. Data staged
    exactly at a boundary therefore maps to the following boundary.
    """
    if cycle_ns <= 0:
        raise ValueError(f"cycle_ns must be positive, got {cycle_ns}")
    if t < phase_ns:
        return phase_ns
    k = (t - phase_ns) // cycle_ns + 1
    return phase_ns + k * cycle_ns


def boundary_at_or_after(t: int, phase_ns: int, cycle_ns: int) -> int:
    """First PDO boundary at or after t.

    This is the pickup rule for staged output data: writes landing exactly
    on a boundary ride that boundary's frame.
    """
    return next_pdo_boundary(t - 1, phase_ns, cycle_ns)


def analytic_latency(
    timing: TimingParams,
    n_segments: int,
    device_rank: int,
    wait_ns: int,
    jitter_ns: int = 0,
) -> int:
    """Closed-form configuration time; the oracle the event path must match.

    device_rank is the 1-based chain position of the measured device,
    wait_ns the PDO-boundary wait of its segment, jitter_ns the drawn
    dispatch jitter of its segment. The multi-master dispatch overhead
    d_mm_ns is charged only when the controller drives several segments.
    """
    if n_segments < 1:
        raise ValueError(f"n_segments must be >= 1, got {n_segments}")
    if device_rank < 1:
        raise ValueError(f"device_rank is 1-based, got {device_rank}")
    if not 0 <= wait_ns < timing.pdo_cycle_ns:
        raise ValueError(f"wait_ns must be in [0, {timing.pdo_cycle_ns}), got {wait_ns}")
    if not 0 <= jitter_ns <= timing.d_jitter_max_ns:
        raise ValueError(
            f"jitter_ns must be in [0, {timing.d_jitter_max_ns}], got {jitter_ns}"
        )
    multi = timing.d_mm_ns if n_segments > 1 else 0
    return (
        timing.d_sb_ns
        + multi
        + jitter_ns
        + wait_ns
        + timing.d_frame_head_ns
        + device_rank * timing.d_hop_ns
        + timing.d_latch_ns
    )


def structural_worst_latency(timing: TimingParams, n_segments: int, device_rank: int,
                             phase_grid_ns: int) -> int:
    """Largest configuration time reachable by any arrival phase on the grid.

    The PDO wait can reach cycle - grid (arrival phases are drawn on the
    grid), and dispatch jitter can add its full bound on top. Assumes
    grid-aligned timing constants, which all shipped presets satisfy.
    """
    worst_wait = timing.pdo_cycle_ns - phase_grid_ns
    return analytic_latency(
        timing, n_segments, device_rank, worst_wait, timing.d_jitter_max_ns
    )


class Frame(NamedTuple):
    """What one cycle's frame does: the requests it carries, the words it changes."""

    riders: tuple  # request ids, in staging order
    changed: tuple  # ((device, new word), ...) in ascending device order


class MasterState:
    """One EtherCAT master: its chain's output words and the writes staged for them.

    Writes are keyed by the boundary whose frame picks them up and folded
    into the words when that frame is built (last writer wins per word, in
    staging-time order), so requests staged within one cycle coalesce into
    the same cyclic frame. The master emits only at boundaries with writes
    due; a frame at any other boundary would carry and change nothing.
    """

    def __init__(self, phase_ns: int, cycle_ns: int, device_count: int):
        self.phase_ns = phase_ns
        self.cycle_ns = cycle_ns
        self.words = [0] * device_count
        # {pickup_ns: [(stage_ns, request_id, ((device, word), ...)), ...]}
        self.staged: dict[int, list[tuple]] = {}

    def stage(self, stage_ns: int, request_id: int, writes: tuple,
              built: bool = False) -> int | None:
        """Stage ((device, word), ...) on the frame that picks them up.

        With built, a frame at stage_ns is already on the wire, so they ride
        the next. Returns the pickup boundary when these are the first
        writes due there (the master must emit at it), else None.
        """
        for device, _ in writes:
            if not 0 <= device < len(self.words):
                raise ValueError(f"write to device {device} outside segment")
        pickup = boundary_at_or_after(stage_ns + built, self.phase_ns, self.cycle_ns)
        due = self.staged.get(pickup)
        if due is None:
            self.staged[pickup] = [(stage_ns, request_id, writes)]
            return pickup
        due.append((stage_ns, request_id, writes))
        return None

    def build_frame(self, boundary_ns: int) -> Frame:
        """Fold the writes due at this boundary into the words.

        A boundary with nothing due builds an empty frame.
        """
        due = self.staged.pop(boundary_ns, ())
        if self.staged and min(self.staged) <= boundary_ns:
            raise AssertionError("staged write missed its boundary")
        latest = {}
        for _, _, writes in sorted(due, key=itemgetter(0)):
            latest.update(writes)
        changed = []
        for device in sorted(latest):
            word = latest[device]
            if word != self.words[device]:
                self.words[device] = word
                changed.append((device, word))
        return Frame(riders=tuple(rid for _, rid, _ in due), changed=tuple(changed))


class DeviceState:
    """One slave: the output words it latched, and when.

    The controller keeps no DeviceState while it runs: it logs each frame
    that changes words once, when it builds the frame, and
    DeviceController.devices replays that log into DeviceStates on read.
    The history can therefore hold latches still ahead of the clock.
    """

    def __init__(self, segment: int, position: int):
        self.segment = segment
        self.position = position
        self.latches: list[tuple[int, int]] = []  # (latch time, new word), in time order

    def latch(self, word: int, t_ns: int) -> None:
        self.latches.append((t_ns, word))

    @property
    def activation_log(self) -> list[tuple[int, int]]:
        """(bit index, assert time) of every rising bit, in latch order."""
        log, previous = [], 0
        for t_ns, word in self.latches:
            log.extend((b, t_ns) for b in range(16) if (word & ~previous) >> b & 1)
            previous = word
        return log
