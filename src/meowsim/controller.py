"""Device controller: southbound configure requests fanned out to the masters.

One controller drives up to six masters over a single event engine. The
life of a request:

  t_generated_ns     generated at the network controller (marker 1);
                     submit, the one public intake, makes every check:
                     pack checks the (segment, device, word) triples in
                     the pass that packs each segment's writes into a
                     (mask, value) pair of process images, then submit
                     checks the id and the time; only then is the trace
                     recorded (a batch run builds each of its patterns'
                     pairs once, in closed form, and hands every request
                     its pattern's pairs to the private, unchecked half)
  SouthboundArrived  +d_sb_ns at the device controller; each segment's pair
                     is staged at +d_mm_ns (+drawn jitter) on its master
  MasterEmit         next PDO boundary of each targeted master (marker 2),
                     scheduled by the first write staged for it; the
                     frame's pass down the chain is resolved here and
                     kept only in its riders' traces: a rider's target p
                     latches when the frame passes it, at +d_frame_head_ns
                     + (p+1)*d_hop_ns + d_latch_ns (marker 3), whether or
                     not its word changes, and each rider's trace counts
                     down its segments still to emit and keeps its latest
                     target latch
  completion         at the last target's latch, known and checked when the
                     rider's last segment emits: the slot (last latch,
                     SouthboundArrived), read from the trace, never an event

A master emits only at boundaries with writes due: a frame at any other
boundary carries and changes nothing, so it is no event. At one instant,
arrivals run before emissions, and emissions in segment order (EventKind
order). One rule decides which frame a staged write rides: a master's
frame at boundary B is on the wire once the engine has run past that
frame's slot (B, MasterEmit, segment), whether or not it emitted there.
A write staged at or before B rides B's frame unless that slot has run.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .engine import Engine, EventKind
from .errors import (
    DuplicateRequestId,
    NotYetComplete,
    SchedulingInPast,
    UnknownRequest,
)
from .simulation import MasterState, analytic_latency
from .topology import Topology, require_int

# EventKind.X is slow to look up (EnumType defines __getattr__); per-request paths use these
_ARRIVED, _EMIT = EventKind.SOUTHBOUND_ARRIVED, EventKind.MASTER_EMIT


@dataclass(slots=True)
class SegmentTrace:
    staged_ns: int
    jitter_ns: int
    emit_ns: int | None = None
    first_latch_ns: int | None = None  # device 0's latch time for the emitted frame


@dataclass(slots=True)
class RequestTrace:
    """The one record of a request; the markers 1/2/3 of the trace format.

    writes may be shared with other requests (a batch run hands every
    request of a pattern the same dict), so nothing mutates it. A target's
    latch time is latch_ns(segment, device); nothing scans the masks for it.
    """

    request_id: int
    t_generated_ns: int
    writes: dict[int, tuple[int, int]]  # {segment: (mask, value)}, ascending segments
    hop_ns: int
    segments: dict[int, SegmentTrace] = field(default_factory=dict)
    config_time_ns: int | None = None  # set when the last frame leaves: last latch - generation
    pending: int = 0  # targeted segments whose frame has not left yet
    last_latch_ns: int = 0  # the latest target latch of the frames that left

    @property
    def complete(self) -> bool:
        """Every frame has left; the request completes at last_latch_ns, maybe ahead of now."""
        return self.config_time_ns is not None

    @property
    def t_master_emit_ns(self) -> dict[int, int]:
        return {s: st.emit_ns for s, st in self.segments.items()}

    def latch_ns(self, segment: int, device: int) -> int:
        """When the frame carrying this request reaches and latches the device."""
        return self.segments[segment].first_latch_ns + device * self.hop_ns

    def check_ordering(self) -> None:
        for seg, st in self.segments.items():
            if st.emit_ns is None:
                raise AssertionError(f"segment {seg} never emitted")
            if not self.t_generated_ns <= st.emit_ns <= st.first_latch_ns:
                raise AssertionError(
                    f"segment {seg}: generated {self.t_generated_ns}, emitted "
                    f"{st.emit_ns}, first latch {st.first_latch_ns} out of order"
                )


class DeviceController:
    """Accepts configure requests and drives the masters' cyclic emission."""

    def __init__(self, engine: Engine, topology: Topology):
        self.engine = engine
        self.topology = topology
        self.timing = topology.timing
        self.masters = [MasterState(seg.phase_ns, topology.timing.pdo_cycle_ns)
                        for seg in topology.segments]
        self._device_counts = tuple(seg.device_count for seg in topology.segments)
        # one little-endian word per device: packs a segment's word list into image bytes
        self._image_structs = tuple(struct.Struct(f"<{n}H") for n in self._device_counts)
        self.traces: dict[int, RequestTrace] = {}
        self._started = False
        # the topology is immutable, so the bound and the event path's
        # offsets are worked out once
        timing = topology.timing
        self._multi_ns = timing.d_mm_ns if topology.segment_count > 1 else 0
        self._first_latch_offset_ns = timing.d_frame_head_ns + timing.d_hop_ns + timing.d_latch_ns
        self._request_span_ns = (
            analytic_latency(timing, topology.segment_count, max(self._device_counts), 0,
                             timing.d_jitter_max_ns)
            + timing.pdo_cycle_ns
            + max(seg.phase_ns for seg in topology.segments)
        )

        engine.on(EventKind.SOUTHBOUND_ARRIVED, self._stage)
        engine.on(EventKind.MASTER_EMIT, self._on_master_emit)

    # -- submission ------------------------------------------------------

    def start(self) -> None:
        """Begin cyclic emission at each master's first boundary at or after now.

        This schedules nothing, since a master emits only where writes are
        due. It rewinds the engine's cursor below now, so no frame from now
        on counts as on the wire even where run_until ran through now. The
        first arrival calls it.
        """
        if self._started:
            return
        self._started = True
        self.engine.rewind()

    def pack(self, targets) -> dict[int, tuple[int, int]]:
        """Check a request's (segment, device, word) triples and pack its writes.

        The one check of a target, in one pass: each field an int, each word
        16 bits, each (segment, device) in the topology and named once. The
        first bad target in list order raises; an empty list raises after
        the loop. Returns {segment: (mask, value)} in ascending segments,
        each pair a segment's images.
        """
        counts = self._device_counts
        lanes = {}  # {segment: (mask words, value words)}
        seg = None
        for segment, device, word in targets:
            # one cheap test passes plain ints; require_int names any other field
            if not (type(segment) is int and type(device) is int and type(word) is int):
                require_int("segment", segment)
                require_int("device", device)
                require_int("word", word)
            if not 0 <= word <= 0xFFFF:
                raise ValueError(f"output word must fit 16 bits, got {hex(word):.200}")
            if segment != seg:  # targets mostly come in runs of one segment
                seg = segment
                words = lanes.get(seg)
                if words is None:
                    count = counts[seg] if 0 <= seg < len(counts) else 0
                    words = lanes[seg] = ([0] * count, [0] * count)
                mask_words, value_words = words
                count = len(mask_words)
            if not 0 <= device < count:
                self.topology.validate_target(segment, device)  # raises UnknownTarget
            if mask_words[device]:
                raise ValueError("duplicate (segment, device) in one request")
            mask_words[device] = 0xFFFF
            value_words[device] = word
        if not lanes:
            raise ValueError("request needs at least one target")
        writes = {}
        for seg in sorted(lanes):
            pack = self._image_structs[seg].pack
            mask_words, value_words = lanes[seg]
            writes[seg] = (int.from_bytes(pack(*mask_words), "little"),
                           int.from_bytes(pack(*value_words), "little"))
        return writes

    def submit(self, request_id: int, targets, t_generated_ns: int) -> None:
        """Check, pack and send a request generated at t_generated_ns.

        targets is an iterable of (segment, device, word) triples. pack's
        checks run first, so a request with several faults gets the error
        of its first bad target, then of an empty list, then of the id's
        type, a used id, the time's type and the clock. Nothing is recorded
        or scheduled when this raises.
        """
        writes = self.pack(targets)
        require_int("request_id", request_id)
        if request_id in self.traces:
            raise DuplicateRequestId(f"request {request_id!s:.200} already submitted")
        require_int("t_generated_ns", t_generated_ns)
        if t_generated_ns < self.engine.now:
            raise SchedulingInPast(
                f"cannot generate a request at {t_generated_ns}, clock is {self.engine.now}"
            )
        self._submit_packed(request_id, writes, t_generated_ns)

    def _submit_packed(self, request_id: int, writes: dict[int, tuple[int, int]],
                       t_generated_ns: int) -> None:
        """Record a checked request's trace and schedule its southbound arrival.

        writes is kept, not copied, and never mutated. The caller vouches
        for everything: writes as pack would return them, an unused id and
        a time not before the clock.
        """
        trace = RequestTrace(request_id, t_generated_ns, writes, self.timing.d_hop_ns,
                             pending=len(writes))
        self.traces[request_id] = trace
        t_arrival_ns = t_generated_ns + self.timing.d_sb_ns
        self.engine.schedule(t_arrival_ns, _ARRIVED, trace, t_arrival_ns)

    # -- event handlers ---------------------------------------------------

    def _stage(self, trace: RequestTrace, t_arrival_ns: int) -> None:
        """Stage a recorded request's writes on its masters (SouthboundArrived)."""
        if not self._started:
            self.start()
        engine = self.engine
        draw = engine.rng.uniform_draw
        jitter_max = self.timing.d_jitter_max_ns
        t_dispatch = t_arrival_ns + self._multi_ns
        masters = self.masters
        segments = trace.segments
        request_id = trace.request_id
        # dispatch order is fixed: lowest segment first
        for seg, (mask, value) in trace.writes.items():
            jitter = draw(0, jitter_max)
            stage_ns = t_dispatch + jitter
            built = engine.has_run(stage_ns, _EMIT, seg)
            pickup = masters[seg].stage(stage_ns, request_id, mask, value, built)
            if pickup is not None:
                engine.schedule(pickup, _EMIT, seg, order=seg)
            segments[seg] = SegmentTrace(stage_ns, jitter)

    def _on_master_emit(self, seg: int) -> None:
        boundary = self.engine.now
        riders = self.masters[seg].build_frame(boundary)
        first_latch = boundary + self._first_latch_offset_ns
        traces = self.traces
        hop = self.timing.d_hop_ns
        for rid in riders:
            trace = traces[rid]
            seg_trace = trace.segments[seg]
            if seg_trace.emit_ns is not None:
                raise AssertionError(f"request {rid} emitted twice on segment {seg}")
            seg_trace.emit_ns = boundary
            seg_trace.first_latch_ns = first_latch
            # the mask's highest set lane is the deepest targeted device
            latch = first_latch + (trace.writes[seg][0].bit_length() - 1) // 16 * hop
            if latch > trace.last_latch_ns:
                trace.last_latch_ns = latch
            trace.pending -= 1
            if not trace.pending:
                trace.config_time_ns = trace.last_latch_ns - trace.t_generated_ns
                trace.check_ordering()

    # -- reporting ---------------------------------------------------------

    def completion_report(self, request_id: int) -> RequestTrace:
        """The trace of a finished request."""
        trace = self.traces.get(request_id)
        if trace is None:
            raise UnknownRequest(f"no request {request_id}")
        if not trace.complete or self.engine.now < trace.last_latch_ns:
            raise NotYetComplete(f"request {request_id} still in flight")
        return trace

    def request_span_ns(self) -> int:
        """Upper bound on one request's life from generation to completion."""
        return self._request_span_ns

    def run_until_complete(self, request_id: int) -> RequestTrace:
        """Step until the request's last frame leaves, then run to its completion slot.

        The engine stops at (last latch, SouthboundArrived), before that
        instant's arrivals and frames, so a request handed in next there
        still rides a frame emitted there; a zero-latency completion stops
        where its last frame left. A request that finished earlier returns
        its trace with the clock unmoved. An id that was never
        submitted raises UnknownRequest before any event runs.
        """
        trace = self.traces.get(request_id)
        if trace is None:
            raise UnknownRequest(f"no request {request_id}")
        engine = self.engine
        # request_span_ns bounds its life from its generation, which may lie ahead of now
        deadline = trace.t_generated_ns + self.request_span_ns()
        while trace.pending:
            t = engine.next_time_ns()
            if t is None or t > deadline:
                raise NotYetComplete(f"request {request_id} missed its latency bound")
            engine.step()
        if trace.last_latch_ns >= engine.now:  # else its slot is long past
            engine.run_until(trace.last_latch_ns, _ARRIVED)
        return trace
