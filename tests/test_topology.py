"""Topology and timing-model validation."""

import pytest

from meowsim.controller import DeviceController
from meowsim.engine import Engine
from meowsim.errors import (
    EmptySegment,
    MeowError,
    NegativeTiming,
    SegmentCountExceeded,
    UnknownTarget,
    WrongType,
)
from meowsim.simulation import analytic_latency
from meowsim.topology import (
    MAX_SEGMENTS,
    SegmentSpec,
    TimingParams,
    Topology,
    build_topology,
)


def timing(cycle=32_000, **kwargs):
    return TimingParams(pdo_cycle_ns=cycle, **kwargs)


class TestTimingParams:
    def test_defaults(self):
        t = timing()
        assert t.d_sb_ns == 70_000
        assert t.d_frame_head_ns == 12_000
        assert t.d_hop_ns == 900
        assert t.d_latch_ns == 800
        assert t.d_mm_ns == 0
        assert t.d_jitter_max_ns == 0

    def test_fixed_overhead_sum_single_segment(self):
        # d_sb + d_frame_head + d_latch = calibrated overhead before hops
        t = timing()
        assert t.d_sb_ns + t.d_frame_head_ns + t.d_latch_ns == 82_800

    def test_negative_rejected(self):
        with pytest.raises(NegativeTiming):
            timing(d_hop_ns=-1)
        with pytest.raises(NegativeTiming):
            timing(d_sb_ns=-70_000)

    def test_cycle_bounds(self):
        with pytest.raises(ValueError):
            TimingParams(pdo_cycle_ns=0)
        with pytest.raises(ValueError):
            TimingParams(pdo_cycle_ns=100_001)
        assert TimingParams(pdo_cycle_ns=100_000).pdo_cycle_ns == 100_000

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            TimingParams(pdo_cycle_ns=32_000.0)


class TestSegmentSpec:
    def test_empty_segment(self):
        with pytest.raises(EmptySegment):
            SegmentSpec(device_count=0)

    def test_negative_phase(self):
        with pytest.raises(NegativeTiming):
            SegmentSpec(device_count=1, phase_ns=-1)

    def test_longest_chain_one_datagram_carries(self):
        # 743 two-byte words fill the 1486-byte datagram data limit
        topo = build_topology({
            "segments": [{"device_count": 743}],
            "timing": {"pdo_cycle_ns": 32_000},
        })
        engine = Engine()
        ctrl = DeviceController(engine, topo)
        ctrl.submit(1, [(0, 742, 1)], t_generated_ns=0)
        report = ctrl.run_until_complete(1)
        assert report.config_time_ns == analytic_latency(topo.timing, 1, 743, 26_000)

    def test_chain_past_datagram_limit_rejected_at_load(self):
        with pytest.raises(MeowError, match="743"):
            build_topology({
                "segments": [{"device_count": 744}],
                "timing": {"pdo_cycle_ns": 32_000},
            })


class TestTopology:
    def test_segment_count_cap(self):
        segs = tuple(SegmentSpec(device_count=1) for _ in range(MAX_SEGMENTS + 1))
        with pytest.raises(SegmentCountExceeded):
            Topology(segments=segs, timing=timing())

    def test_at_cap_is_fine(self):
        segs = tuple(SegmentSpec(device_count=1) for _ in range(MAX_SEGMENTS))
        assert Topology(segments=segs, timing=timing()).segment_count == 6

    def test_no_segments(self):
        with pytest.raises(ValueError):
            Topology(segments=(), timing=timing())

    def test_counts_and_offsets(self):
        topo = Topology(
            segments=(SegmentSpec(device_count=8), SegmentSpec(device_count=2)),
            timing=timing(),
        )
        assert topo.device_rank(0, 7) == 8
        assert list(topo.all_targets())[:3] == [(0, 0), (0, 1), (0, 2)]

    def test_target_validation(self):
        topo = Topology(segments=(SegmentSpec(device_count=8),), timing=timing())
        with pytest.raises(UnknownTarget, match=r"^target segment 0 device 8 not in topology$"):
            topo.validate_target(0, 8)
        with pytest.raises(UnknownTarget):
            topo.validate_target(1, 0)
        with pytest.raises(UnknownTarget):
            topo.validate_target(-1, 0)


class TestBuildTopology:
    def spec(self):
        return {
            "segments": [{"device_count": 8, "phase_ns": 0}],
            "timing": {"pdo_cycle_ns": 32_000},
        }

    def test_roundtrip(self):
        topo = build_topology(self.spec())
        assert topo.segments[0].device_count == 8
        assert topo.timing.pdo_cycle_ns == 32_000
        again = build_topology(topo.to_dict())
        assert again == topo

    def test_unknown_keys_rejected(self):
        bad = self.spec()
        bad["timing"]["pdo_cycle"] = 32_000  # typo'd key
        with pytest.raises(ValueError, match="pdo_cycle"):
            build_topology(bad)

    def test_unknown_segment_key(self):
        bad = self.spec()
        bad["segments"][0]["devices"] = 8
        with pytest.raises(ValueError, match="devices"):
            build_topology(bad)

    def test_unknown_key_quoted_to_200_characters(self):
        key = "k" * 100_000
        bad = self.spec()
        bad["segments"][0][key] = 8
        with pytest.raises(ValueError) as info:
            build_topology(bad)
        assert str(info.value) == "unknown segment 0 keys: " + str([key])[:200]

    def test_segments_not_a_list_quoted_to_200_characters(self):
        bad = self.spec()
        bad["segments"] = "s" * 100_000
        with pytest.raises(WrongType) as info:
            build_topology(bad)
        assert str(info.value) == "segments must be a list, got " + repr(bad["segments"])[:200]

    @pytest.mark.parametrize("phase_ns", [32_000, 200_000])
    def test_phase_of_a_cycle_or_more_rejected(self, phase_ns):
        bad = self.spec()
        bad["segments"][0]["phase_ns"] = phase_ns
        with pytest.raises(ValueError, match="phase_ns"):
            build_topology(bad)

    def test_missing_parts(self):
        with pytest.raises(ValueError):
            build_topology({"segments": []})
