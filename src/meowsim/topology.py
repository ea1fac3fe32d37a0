"""Topology and timing model for a multi-segment EtherCAT control plane.

A control plane is one controller host driving up to six EtherCAT masters.
Each master owns one segment: a daisy chain of switch-port devices hanging
off a 100 Mbps link. All timing is integer nanoseconds.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, fields

from .codec import MAX_DATA_LEN, OUTPUT_WORD_BYTES
from .errors import (
    EmptySegment,
    NegativeTiming,
    SegmentCountExceeded,
    SegmentTooLong,
    UnknownTarget,
    WrongType,
)

MAX_SEGMENTS = 6
# each cycle's one LWR datagram carries the whole chain's output image
MAX_SEGMENT_DEVICES = MAX_DATA_LEN // OUTPUT_WORD_BYTES
MAX_PDO_CYCLE_NS = 100_000


def require_int(name: str, value) -> None:
    """Reject anything but a real int (bools and floats included)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise WrongType(f"{name} must be an integer, got {value!r:.200}")


def require_dict(name: str, value) -> None:
    if not isinstance(value, dict):
        raise WrongType(f"{name} must be an object, got {value!r:.200}")


def require_keys(name: str, value, allowed, required=()) -> None:
    """Require an object whose keys are all allowed, the required ones present."""
    require_dict(name, value)
    unknown = set(value) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {name} keys: {sorted(unknown)!s:.200}")
    for key in required:
        if key not in value:
            raise ValueError(f"{name} needs {key!r}")


@dataclass(frozen=True)
class TimingParams:
    """Calibrated delay model, all fields in nanoseconds.

    pdo_cycle_ns      cyclic process-data period of every master
    d_sb_ns           southbound delivery, network controller -> device controller
    d_mm_ns           per-request multi-master dispatch overhead (charged only
                      when the controller drives more than one segment)
    d_jitter_max_ns   upper bound of the uniform dispatch jitter draw
    d_frame_head_ns   frame serialization head: first bytes on the wire after
                      the PDO boundary
    d_hop_ns          round-trip cascade cost per device hop
    d_latch_ns        device-local latch delay from frame arrival to output pins
    """

    pdo_cycle_ns: int
    d_sb_ns: int = 70_000
    d_mm_ns: int = 0
    d_jitter_max_ns: int = 0
    d_frame_head_ns: int = 12_000
    d_hop_ns: int = 900
    d_latch_ns: int = 800

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            require_int(field.name, value)
            if value < 0:
                raise NegativeTiming(f"{field.name} must be >= 0, got {value!s:.200}")
        if not 0 < self.pdo_cycle_ns <= MAX_PDO_CYCLE_NS:
            raise ValueError(f"pdo_cycle_ns must be in (0, {MAX_PDO_CYCLE_NS}], "
                             f"got {self.pdo_cycle_ns!s:.200}")


@dataclass(frozen=True)
class SegmentSpec:
    """One EtherCAT segment: a chain of device_count slaves behind one master."""

    device_count: int
    phase_ns: int = 0  # PDO boundary phase offset of this segment's master

    def __post_init__(self):
        require_int("device_count", self.device_count)
        if self.device_count < 1:
            raise EmptySegment(
                f"segment needs at least one device, got {self.device_count!s:.200}"
            )
        if self.device_count > MAX_SEGMENT_DEVICES:
            raise SegmentTooLong(
                f"at most {MAX_SEGMENT_DEVICES} devices per segment, "
                f"got {self.device_count!s:.200}"
            )
        require_int("phase_ns", self.phase_ns)
        if self.phase_ns < 0:
            raise NegativeTiming(f"phase_ns must be >= 0, got {self.phase_ns!s:.200}")


@dataclass(frozen=True)
class Topology:
    """Immutable control-plane shape: segments plus the shared timing model."""

    segments: tuple[SegmentSpec, ...]
    timing: TimingParams

    def __post_init__(self):
        segments = tuple(self.segments)
        object.__setattr__(self, "segments", segments)
        if len(segments) == 0:
            raise ValueError("topology needs at least one segment")
        if len(segments) > MAX_SEGMENTS:
            raise SegmentCountExceeded(
                f"at most {MAX_SEGMENTS} segments per controller, got {len(segments)}"
            )
        for i, seg in enumerate(segments):
            if seg.phase_ns >= self.timing.pdo_cycle_ns:
                raise ValueError(
                    f"segment {i} phase_ns must be below pdo_cycle_ns "
                    f"{self.timing.pdo_cycle_ns}, got {seg.phase_ns!s:.200}"
                )

    @property
    def segment_count(self) -> int:
        return len(self.segments)

    def validate_target(self, segment: int, device: int) -> None:
        if not (0 <= segment < len(self.segments)
                and 0 <= device < self.segments[segment].device_count):
            raise UnknownTarget(f"target segment {segment!s:.200} device {device!s:.200} "
                                "not in topology")

    def device_rank(self, segment: int, device: int) -> int:
        """1-based chain position used by the latency model (1 = nearest)."""
        self.validate_target(segment, device)
        return device + 1

    def all_targets(self):
        """Yield every (segment, device) pair in chain order."""
        for s, seg in enumerate(self.segments):
            for d in range(seg.device_count):
                yield s, d

    def to_dict(self) -> dict:
        return {
            "segments": [asdict(seg) for seg in self.segments],
            "timing": asdict(self.timing),
        }


def _from_fields(cls, name: str, raw):
    """cls(**raw), raw's keys checked against cls's own dataclass fields."""
    own = fields(cls)
    require_keys(name, raw, [f.name for f in own],
                 [f.name for f in own if f.default is MISSING])
    return cls(**raw)


def build_topology(spec: dict) -> Topology:
    """Build a Topology from its plain-dict form (as found in scenario files).

    Unknown keys are rejected so config typos fail loudly.
    """
    require_keys("topology", spec, ("segments", "timing"), ("segments", "timing"))
    if not isinstance(spec["segments"], list):
        raise WrongType(f"segments must be a list, got {spec['segments']!r:.200}")
    segments = tuple(_from_fields(SegmentSpec, f"segment {i}", raw)
                     for i, raw in enumerate(spec["segments"]))
    return Topology(segments, _from_fields(TimingParams, "timing", spec["timing"]))
