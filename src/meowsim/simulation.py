"""Cyclic EtherCAT machinery: PDO boundaries, master/device state, latency oracle.

Each master holds its chain's output words as one packed process image, an
int with device p's word at bits 16p..16p+15 (the byte layout of the
chain's LWR datagram payload), and folds staged (mask, value) writes into
it a frame at a time.

The event-driven path (driven by the device controller) and the closed-form
oracle in analytic_latency are two independent routes to the same number;
tests hold them to exact integer equality.
"""

from __future__ import annotations

from operator import itemgetter

from .topology import TimingParams


def boundary_at_or_after(t: int, phase_ns: int, cycle_ns: int) -> int:
    """First PDO boundary at or after t.

    Boundaries are phase_ns + k*cycle_ns for integer k >= 0. This is the
    pickup rule for staged output data: writes landing exactly on a
    boundary ride that boundary's frame.
    """
    if cycle_ns <= 0:
        raise ValueError(f"cycle_ns must be positive, got {cycle_ns}")
    if t <= phase_ns:
        return phase_ns
    k = (t - 1 - phase_ns) // cycle_ns + 1
    return phase_ns + k * cycle_ns


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

    Arrival phases and PDO boundaries lie on the grid, so a write staged
    d = d_sb_ns + [d_mm_ns] + jitter after its request's arrival phase
    waits at most cycle - grid + (-d mod grid). Jitter plus that wait only
    grows with the jitter, so the worst draws the full jitter bound.
    """
    jitter = timing.d_jitter_max_ns
    multi = timing.d_mm_ns if n_segments > 1 else 0
    offset = -(timing.d_sb_ns + multi + jitter) % phase_grid_ns
    worst_wait = timing.pdo_cycle_ns - phase_grid_ns + offset
    return analytic_latency(timing, n_segments, device_rank, worst_wait, jitter)


def repeated_image(word: int, device_count: int) -> int:
    """The image with word at each of device_count devices; word 0xFFFF gives their mask.

    ((1 << 16n) - 1) // 0xFFFF is the image with 1 at each device.
    """
    return word * (((1 << 16 * device_count) - 1) // 0xFFFF)


def word_positions(image: int):
    """Positions of the nonzero words of a packed image, in ascending order.

    Device p's word sits at bits 16p..16p+15 of an image.
    """
    while image:
        p = ((image & -image).bit_length() - 1) // 16
        yield p
        image &= ~(0xFFFF << 16 * p)


class MasterState:
    """One EtherCAT master: its chain's process image and the writes staged for it.

    The image is one int with device p's output word at bits 16p..16p+15;
    read as little-endian bytes, it is the payload of the chain's LWR
    datagram. A write is a (mask, value) pair of images: mask holds 0xFFFF
    in each written word, value the new words, so value lies inside mask.
    Writes are keyed by the boundary whose frame picks them up and folded
    into the image as image ^ (image ^ value) & mask when that frame is
    built (last writer wins per word, in staging-time order), so
    requests staged within one cycle coalesce into the same cyclic frame.
    The master emits only at boundaries with writes due; a frame at any
    other boundary would carry and change nothing.
    """

    def __init__(self, phase_ns: int, cycle_ns: int):
        self.phase_ns = phase_ns
        self.cycle_ns = cycle_ns
        self.image = 0
        # {pickup_ns: [(stage_ns, request_id, mask, value), ...]}
        self.staged: dict[int, list[tuple]] = {}

    def stage(self, stage_ns: int, request_id: int, mask: int, value: int,
              built: bool = False) -> int | None:
        """Stage a (mask, value) write on the frame that picks it up.

        The caller keeps the write inside the image, and value inside mask
        (value & ~mask == 0, as pack and repeated_image build them): the
        fold image ^ (image ^ value) & mask equals image & ~mask | value
        only then, and nothing checks it per write. With built, a frame at
        stage_ns is already on the wire, so the write rides the next.
        Returns the pickup boundary when this is the first write due there
        (the master must emit at it), else None.
        """
        pickup = boundary_at_or_after(stage_ns + built, self.phase_ns, self.cycle_ns)
        write = (stage_ns, request_id, mask, value)
        due = self.staged.get(pickup)
        if due is None:
            self.staged[pickup] = [write]
            return pickup
        due.append(write)
        return None

    def build_frame(self, boundary_ns: int) -> tuple:
        """Fold the writes due at this boundary into the image.

        Returns the request ids the frame carries in the order their
        writes reached stage (arrival order); only the fold is sorted, by
        staging time. The image it writes down the chain is then
        self.image. A boundary with nothing due builds an empty frame.
        """
        due = self.staged.pop(boundary_ns, ())
        if self.staged and min(self.staged) <= boundary_ns:
            raise AssertionError("staged write missed its boundary")
        if len(due) == 1:  # a batch run's every frame: nothing to order
            ((_, rid, mask, value),) = due
            self.image ^= (self.image ^ value) & mask
            return (rid,)
        image = self.image
        for _, _, mask, value in sorted(due, key=itemgetter(0)):
            image ^= (image ^ value) & mask
        self.image = image
        return tuple(rid for _, rid, _, _ in due)


class DeviceState:
    """One slave: the output words it latched, and when.

    The controller keeps no device history, so nothing in it builds one. A
    caller that wants latch histories records them around
    MasterState.build_frame: each device p whose word a frame changes
    latches the new word at the frame's boundary + d_frame_head_ns +
    (p+1)*d_hop_ns + d_latch_ns, which can lie ahead of the clock.
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
