"""Cyclic EtherCAT machinery: PDO boundaries, master/device state, latency oracle.

The event-driven path (driven by the device controller) and the closed-form
oracle in analytic_latency are two independent routes to the same number;
tests hold them to exact integer equality.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codec import EcatCmd, EcatDatagram, EcatFrame
from .topology import OUTPUT_WORD_BYTES, TimingParams


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
    on a boundary ride that boundary's frame. Masters self-schedule with
    next_pdo_boundary instead, which is strictly after.
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


@dataclass(frozen=True)
class StagedWrite:
    """One request's pending writes for one master, awaiting frame pickup."""

    stage_ns: int
    order: int  # controller-wide arrival order, the FIFO tie-break
    request_id: int
    writes: tuple  # ((byte offset, little-endian word bytes), ...)
    pickup_ns: int  # the boundary whose frame carries these writes


@dataclass
class EmissionRecord:
    """One cyclic frame: the image it carries and the requests riding it."""

    segment: int
    boundary_ns: int
    frame: EcatFrame
    wkc: int = 0  # set when the frame is emitted: one per device it passes
    riders: tuple = ()  # request ids whose writes this frame carries


class MasterState:
    """One EtherCAT master: staged output image plus pending writes.

    Writes are buffered in arrival order and folded into the image when a
    boundary's frame is built (last writer wins per output word), so
    requests arriving between staging and emission coalesce into the same
    cyclic frame.
    """

    def __init__(self, segment: int, phase_ns: int, cycle_ns: int, device_count: int):
        self.segment = segment
        self.phase_ns = phase_ns
        self.cycle_ns = cycle_ns
        self.device_count = device_count
        self.image = bytearray(device_count * OUTPUT_WORD_BYTES)
        self.pending: list[StagedWrite] = []
        self.riders_by_boundary: dict[int, list[int]] = {}
        self.emit_count = 0
        self.last_emission: EmissionRecord | None = None

    def stage(self, staged: StagedWrite) -> None:
        for offset, word_bytes in staged.writes:
            if not 0 <= offset <= len(self.image) - len(word_bytes):
                raise ValueError(f"write at offset {offset} outside segment image")
        self.pending.append(staged)
        self.riders_by_boundary.setdefault(staged.pickup_ns, []).append(
            staged.request_id
        )

    def build_frame(self, boundary_ns: int) -> EmissionRecord:
        """Fold due writes into the image and snapshot the cycle's frame."""
        due = sorted(
            (s for s in self.pending if s.stage_ns <= boundary_ns),
            key=lambda s: (s.stage_ns, s.order),
        )
        if due:
            self.pending = [s for s in self.pending if s.stage_ns > boundary_ns]
        for staged in due:
            assert staged.pickup_ns == boundary_ns, "staged write missed its boundary"
            for offset, word_bytes in staged.writes:
                self.image[offset:offset + len(word_bytes)] = word_bytes
        riders = tuple(self.riders_by_boundary.pop(boundary_ns, ()))
        assert all(b > boundary_ns for b in self.riders_by_boundary), \
            "rider left behind a past boundary"
        frame = EcatFrame((
            EcatDatagram(cmd=EcatCmd.LWR, idx=self.emit_count % 256, data=bytes(self.image)),
        ))
        self.emit_count += 1
        record = EmissionRecord(
            segment=self.segment, boundary_ns=boundary_ns, frame=frame, riders=riders
        )
        self.last_emission = record
        return record


class DeviceState:
    """One slave: its 16-bit output word and the bit activation log."""

    def __init__(self, segment: int, position: int):
        self.segment = segment
        self.position = position
        self.word = 0
        self.activation_log: list[tuple[int, int]] = []  # (bit index, assert time)

    def latch(self, new_word: int, t_ns: int) -> list[int]:
        """Apply a word at latch time; log rising bits; return them."""
        risen = new_word & ~self.word
        self.word = new_word
        bits = [b for b in range(16) if risen & (1 << b)]
        for b in bits:
            self.activation_log.append((b, t_ns))
        return bits
