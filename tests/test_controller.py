"""Device controller pipeline: exact event times, coalescing, error paths."""

import pytest

from meowsim.controller import DeviceController
from meowsim.engine import Engine, EventKind, SplitMix64
from meowsim.errors import (
    DuplicateRequestId,
    NotYetComplete,
    SchedulingInPast,
    UnknownRequest,
    UnknownTarget,
    WrongType,
)
from meowsim.scenario import load_preset
from meowsim.simulation import analytic_latency
from meowsim.topology import SegmentSpec, TimingParams, Topology

from conftest import LatchRecorder, latched, master_words


def chain_topology(devices=8, cycle_ns=32_000, phase_ns=0, **timing):
    return Topology(
        segments=(SegmentSpec(device_count=devices, phase_ns=phase_ns),),
        timing=TimingParams(pdo_cycle_ns=cycle_ns, **timing),
    )


def quad_topology(jitter_ns=0):
    return Topology(
        segments=tuple(SegmentSpec(device_count=2) for _ in range(4)),
        timing=TimingParams(
            pdo_cycle_ns=80_000, d_mm_ns=15_400, d_jitter_max_ns=jitter_ns
        ),
    )


def make(topology, seed=0):
    engine = Engine(seed=seed)
    return engine, DeviceController(engine, topology)


class TestSingleSegmentPipeline:
    def test_exact_event_times_last_device(self):
        engine, ctrl = make(chain_topology())
        ctrl.submit(1, [(0, 7, 0x0001)], t_generated_ns=0)
        report = ctrl.run_until_complete(1)
        # gen 0 -> arrive 70000 -> stage 70000 -> boundary 96000
        assert report.t_master_emit_ns == {0: 96_000}
        assert latched(report) == {(0, 7): 96_000 + 12_000 + 8 * 900 + 800}
        assert report.config_time_ns == 116_000

    def test_single_device_on_boundary_rides(self):
        engine, ctrl = make(chain_topology(devices=1))
        # handed over exactly at a boundary with the frame not yet built
        ctrl.submit(1, [(0, 0, 0x0001)], t_generated_ns=26_000)  # arrives at 96000
        report = ctrl.run_until_complete(1)
        assert report.segments[0].staged_ns == 96_000
        assert report.t_master_emit_ns == {0: 96_000}  # zero boundary wait
        assert report.config_time_ns == 83_700

    def test_whole_chain_latch_cascade(self):
        engine, ctrl = make(chain_topology())
        ctrl.submit(1, [(0, d, 0xFFFF) for d in range(8)], t_generated_ns=0)
        report = ctrl.run_until_complete(1)
        latches = [latched(report)[(0, d)] for d in range(8)]
        assert latches[0] == 109_700
        assert [b - a for a, b in zip(latches, latches[1:])] == [900] * 7
        assert report.config_time_ns == latches[-1] == 116_000

    def test_emission_is_periodic(self, dispatches):
        # a write due at each of ten consecutive boundaries: one frame a cycle
        engine, ctrl = make(chain_topology())
        ctrl.start()
        for k in range(10):
            ctrl.submit(k, [(0, 0, k % 2)], t_generated_ns=k * 32_000)
        engine.run_until(20 * 32_000)
        emits = [t for t, kind, _ in dispatches if kind is EventKind.MASTER_EMIT]
        assert emits == [96_000 + k * 32_000 for k in range(10)]

    def test_emission_phase_offset(self, dispatches):
        engine, ctrl = make(chain_topology(devices=1, phase_ns=16_000, d_sb_ns=0))
        ctrl.start()
        for k in range(3):
            ctrl.submit(k, [(0, 0, 1)], t_generated_ns=k * 32_000)
        engine.run_until(200_000)  # the boundaries after 80_000 have nothing due
        emits = [t for t, kind, _ in dispatches if kind is EventKind.MASTER_EMIT]
        assert emits == [16_000, 48_000, 80_000]

    def test_frame_wkc_counts_every_device(self):
        engine, ctrl = make(chain_topology())
        devices = LatchRecorder(ctrl).devices
        ctrl.submit(1, [(0, d, 0xFFFF) for d in range(8)], t_generated_ns=0)
        engine.run_until(116_000)  # past the carrying frame's last device visit
        assert ctrl.traces[1].t_master_emit_ns == {0: 96_000}
        # one latch per written device, as the frame's working counter counts
        latched = [devices[(0, d)].latches for d in range(8)]
        assert latched == [[(109_700 + d * 900, 0xFFFF)] for d in range(8)]
        assert master_words(ctrl) == [[0xFFFF] * 8]


class TestCoalescing:
    def test_two_requests_share_one_frame(self):
        engine, ctrl = make(chain_topology())
        ctrl.submit(1, [(0, 0, 0x00FF)], t_generated_ns=0)
        ctrl.submit(2, [(0, 1, 0xFF00)], t_generated_ns=1_000)
        r2 = ctrl.run_until_complete(2)
        r1 = ctrl.completion_report(1)
        assert r1.t_master_emit_ns == r2.t_master_emit_ns == {0: 96_000}
        assert latched(r1)[(0, 0)] == 109_700
        assert latched(r2)[(0, 1)] == 110_600
        assert r1.config_time_ns == 109_700
        assert r2.config_time_ns == 109_600

    def test_same_word_last_writer_wins(self):
        engine, ctrl = make(chain_topology())
        devices = LatchRecorder(ctrl).devices
        ctrl.submit(1, [(0, 0, 0x000F)], t_generated_ns=0)
        ctrl.submit(2, [(0, 0, 0x00F0)], t_generated_ns=1_000)
        ctrl.run_until_complete(2)
        dev = devices[(0, 0)]
        assert dev.latches[-1][1] == 0x00F0  # staged later, lands on top
        assert [bit for bit, _ in dev.activation_log] == [4, 5, 6, 7]
        assert ctrl.traces[1].complete  # still completes on its ridden frame

    def test_resend_of_same_word_latches_nothing(self):
        engine, ctrl = make(chain_topology())
        devices = LatchRecorder(ctrl).devices
        ctrl.submit(1, [(0, 0, 0x0001)], t_generated_ns=0)
        ctrl.run_until_complete(1)
        log_before = list(devices[(0, 0)].activation_log)
        ctrl.submit(2, [(0, 0, 0x0001)], t_generated_ns=200_000)
        report = ctrl.run_until_complete(2)
        assert report.config_time_ns == 101_700
        assert devices[(0, 0)].activation_log == log_before

    def test_bit_activation_times_strictly_increase(self):
        engine, ctrl = make(chain_topology())
        devices = LatchRecorder(ctrl).devices
        for rid, word, gen in ((1, 0x0001, 0), (2, 0x0000, 200_000), (3, 0x0001, 400_000)):
            ctrl.submit(rid, [(0, 0, word)], t_generated_ns=gen)
            ctrl.run_until_complete(rid)
        times = [t for bit, t in devices[(0, 0)].activation_log if bit == 0]
        assert len(times) == 2
        assert times[0] < times[1]

    def test_pulse_survives_latch_longer_than_cycle(self):
        # each frame latches the word the frame before it carried, even
        # while that frame's latch is still pending at the device
        engine, ctrl = make(chain_topology(devices=1, d_latch_ns=40_000))
        devices = LatchRecorder(ctrl).devices
        for rid, word, gen in ((1, 1, 0), (2, 0, 32_000), (3, 1, 64_000)):
            ctrl.submit(rid, [(0, 0, word)], t_generated_ns=gen)
        ctrl.run_until_complete(3)
        assert devices[(0, 0)].activation_log == [(0, 148_900), (0, 212_900)]


class TestMultiSegment:
    def test_exact_times_without_jitter(self):
        engine, ctrl = make(quad_topology(jitter_ns=0))
        ctrl.submit(1, [(3, 1, 0x0002)], t_generated_ns=0)
        report = ctrl.run_until_complete(1)
        # arrive 70000, +15400 dispatch -> stage 85400 -> boundary 160000
        assert report.t_master_emit_ns == {3: 160_000}
        assert latched(report) == {(3, 1): 160_000 + 12_000 + 2 * 900 + 800}
        assert report.config_time_ns == 174_600

    def test_fanout_completes_at_slowest_target(self):
        engine, ctrl = make(quad_topology(jitter_ns=0))
        ctrl.submit(1, [(0, 0, 1), (2, 1, 2), (3, 0, 3)], t_generated_ns=0)
        report = ctrl.run_until_complete(1)
        assert sorted(report.t_master_emit_ns) == [0, 2, 3]
        assert latched(report)[(0, 0)] == 173_700
        assert latched(report)[(2, 1)] == 174_600
        assert latched(report)[(3, 0)] == 173_700
        assert report.config_time_ns == 174_600

    def test_jitter_drawn_per_segment_ascending(self):
        engine, ctrl = make(quad_topology(jitter_ns=7_000), seed=42)
        expected_rng = SplitMix64(42)
        expected = [expected_rng.uniform_draw(0, 7_000) for _ in range(3)]
        ctrl.submit(1, [(3, 0, 1), (0, 0, 2), (2, 0, 3)], t_generated_ns=0)
        engine.run_until(70_000)  # southbound arrived and staged
        trace = ctrl.traces[1]
        drawn = [trace.segments[s].jitter_ns for s in (0, 2, 3)]
        assert drawn == expected
        for s in (0, 2, 3):
            assert trace.segments[s].staged_ns == 70_000 + 15_400 + trace.segments[s].jitter_ns

    def test_dispatch_overhead_charged_even_for_one_target(self):
        engine, ctrl = make(quad_topology(jitter_ns=0))
        ctrl.submit(1, [(1, 0, 1)], t_generated_ns=0)
        engine.run_until(70_000)  # southbound arrived and staged
        assert ctrl.traces[1].segments[1].staged_ns == 85_400


class TestBoundaryCoincidence:
    """Staging at the very instant of a boundary: ride if the frame has not
    been built yet, otherwise wait a full extra cycle. Queued arrivals at one
    instant run before its emissions, so a queued arrival always rides."""

    def topology(self):
        # cycle longer than the southbound delay so arrival can tie with
        # an already-scheduled emission at the same timestamp
        return chain_topology(devices=1, cycle_ns=80_000)

    def test_rides_when_frame_not_yet_built(self):
        engine, ctrl = make(self.topology())
        ctrl.submit(1, [(0, 0, 1)], t_generated_ns=10_000)  # arrives at 80000
        report = ctrl.run_until_complete(1)
        assert report.t_master_emit_ns == {0: 80_000}
        assert report.config_time_ns == 70_000 + 0 + 12_000 + 900 + 800

    def test_rides_when_emission_scheduled_first(self):
        engine, ctrl = make(self.topology())
        ctrl.start()  # the 80000 emission is queued before the arrival
        ctrl.submit(1, [(0, 0, 1)], t_generated_ns=10_000)
        report = ctrl.run_until_complete(1)
        assert report.t_master_emit_ns == {0: 80_000}
        assert report.config_time_ns == 70_000 + 0 + 12_000 + 900 + 800

    def test_waits_full_cycle_when_frame_already_built(self):
        # no southbound delay, so the request arrives at the instant it is handed in
        engine, ctrl = make(chain_topology(devices=1, cycle_ns=80_000, d_sb_ns=0))
        ctrl.start()
        engine.run_until(80_000)  # the 80000 frame is built and on the wire
        ctrl.submit(1, [(0, 0, 1)], t_generated_ns=80_000)
        report = ctrl.run_until_complete(1)
        assert report.t_master_emit_ns == {0: 160_000}
        assert report.config_time_ns == 160_000 + 12_000 + 900 + 800 - 80_000

    def test_waits_when_lower_segment_already_emitted(self):
        # zero latency: segment 0's frame completes request 1 before segment
        # 1's frame runs, so run_until_complete stops between the two
        engine, ctrl = make(self.zero_latency_pair())
        ctrl.submit(1, [(0, 0, 1)], t_generated_ns=80_000)
        ctrl.submit(2, [(1, 0, 1)], t_generated_ns=80_000)
        ctrl.run_until_complete(1)
        ctrl.submit(3, [(0, 0, 2), (1, 0, 2)], t_generated_ns=80_000)
        assert ctrl.run_until_complete(3).t_master_emit_ns == {0: 160_000, 1: 80_000}

    def test_waits_when_higher_segment_already_emitted(self):
        # segment 0 had nothing due at 80_000, but its frame there would have
        # gone before segment 1's, so a write handed in after it waits
        engine, ctrl = make(self.zero_latency_pair())
        ctrl.submit(1, [(1, 0, 1)], t_generated_ns=80_000)
        ctrl.run_until_complete(1)
        ctrl.submit(2, [(0, 0, 1)], t_generated_ns=80_000)
        assert ctrl.run_until_complete(2).t_master_emit_ns == {0: 160_000}

    def test_same_instant_frames_run_in_segment_order(self, dispatches):
        engine, ctrl = make(quad_topology())
        ctrl.submit(1, [(3, 0, 1)], t_generated_ns=0)  # staged first
        ctrl.submit(2, [(0, 0, 1)], t_generated_ns=0)
        engine.run_until(300_000)
        assert ctrl.traces[1].config_time_ns == ctrl.traces[2].config_time_ns
        emits = [(t, args) for t, kind, args in dispatches if kind is EventKind.MASTER_EMIT]
        assert emits == [(160_000, (0,)), (160_000, (3,))]

    @staticmethod
    def zero_latency_pair():
        return Topology(
            segments=(SegmentSpec(device_count=1), SegmentSpec(device_count=1)),
            timing=TimingParams(pdo_cycle_ns=80_000, d_sb_ns=0, d_frame_head_ns=0,
                                d_hop_ns=0, d_latch_ns=0),
        )


class TestValidationAndErrors:
    def test_unknown_device(self):
        engine, ctrl = make(chain_topology())
        with pytest.raises(UnknownTarget):
            ctrl.submit(1, [(0, 8, 1)], t_generated_ns=0)

    def test_unknown_segment(self):
        engine, ctrl = make(chain_topology())
        with pytest.raises(UnknownTarget):
            ctrl.submit(1, [(1, 0, 1)], t_generated_ns=0)

    @pytest.mark.parametrize("segment, device", [(0, -1), (-1, 0)])
    def test_negative_index_unknown(self, segment, device):
        engine, ctrl = make(chain_topology())
        with pytest.raises(UnknownTarget):
            ctrl.submit(1, [(segment, device, 1)], t_generated_ns=0)

    def test_seven_segments_name_the_first_unknown_target(self):
        # a topology has at most six segments, so a seventh is never in it
        engine, ctrl = make(chain_topology())
        wide = [(s, 0, 1) for s in range(7)]
        with pytest.raises(UnknownTarget, match=r"segment 1 device 0 not"):
            ctrl.submit(1, wide, t_generated_ns=0)
        assert ctrl.traces == {}

    def test_seven_segments_led_by_an_unknown_target_name_it(self):
        engine, ctrl = make(quad_topology())
        wide = [(9, 0, 1), *[(s, 0, 1) for s in range(6)]]  # 7 segments
        with pytest.raises(UnknownTarget, match=r"segment 9 device 0 not"):
            ctrl.pack(wide)
        with pytest.raises(UnknownTarget, match=r"segment 9 device 0 not"):
            ctrl.submit(1, wide, t_generated_ns=0)

    def test_unknown_target_names_the_first_bad_target(self):
        engine, ctrl = make(quad_topology())
        bad = [(0, 1, 1), (1, 2, 1), (5, 0, 1), (0, 3, 1)]
        with pytest.raises(UnknownTarget, match=r"segment 1 device 2 not"):
            ctrl.pack(bad)

    def test_submit_packed_rejects_used_id_and_past_time(self, dispatches):
        engine, ctrl = make(chain_topology())
        targets = [(0, 0, 1)]
        ctrl.submit(1, targets, t_generated_ns=0)
        first = ctrl.traces[1]
        with pytest.raises(DuplicateRequestId):
            ctrl.submit(1, targets, t_generated_ns=100)
        engine.run_until(50_000)
        with pytest.raises(SchedulingInPast):
            ctrl.submit(2, targets, t_generated_ns=49_999)
        # neither rejected call recorded or scheduled anything
        assert ctrl.traces == {1: first}
        engine.run_until(300_000)
        arrivals = [t for t, kind, _ in dispatches if kind is EventKind.SOUTHBOUND_ARRIVED]
        assert arrivals == [70_000]
        assert first.config_time_ns == analytic_latency(ctrl.timing, 1, 1, 26_000)

    def test_pack_of_every_target_at_deployment_scale(self):
        topology = Topology(segments=(SegmentSpec(device_count=250),) * 4,
                            timing=TimingParams(pdo_cycle_ns=80_000, d_mm_ns=15_400))
        engine, ctrl = make(topology)
        writes = ctrl.pack((s, d, 0x5555) for s, d in topology.all_targets())
        assert list(writes) == [0, 1, 2, 3]
        for mask, value in writes.values():
            assert mask == (1 << 4000) - 1
            assert value == int("5555" * 250, 16)

    def test_duplicate_after_completion_rejected_at_submit(self):
        engine, ctrl = make(chain_topology())
        ctrl.submit(1, [(0, 0, 1)], t_generated_ns=0)
        ctrl.run_until_complete(1)
        with pytest.raises(DuplicateRequestId):
            ctrl.submit(1, [(0, 1, 1)], t_generated_ns=500_000)

    def test_duplicate_in_flight_rejected_at_submit(self, dispatches):
        engine, ctrl = make(chain_topology())
        ctrl.submit(1, [(0, 0, 1)], t_generated_ns=0)
        with pytest.raises(DuplicateRequestId):
            ctrl.submit(1, [(0, 1, 1)], t_generated_ns=100)
        report = ctrl.run_until_complete(1)
        engine.run_until(300_000)
        # the rejected submit scheduled nothing
        arrivals = [t for t, kind, _ in dispatches if kind is EventKind.SOUTHBOUND_ARRIVED]
        assert arrivals == [70_000]
        # arrive 70000, boundary 96000: the first request keeps its latency
        assert latched(report) == {(0, 0): 109_700}
        assert report.config_time_ns == analytic_latency(ctrl.timing, 1, 1, 26_000)

    def test_report_for_unknown_request(self):
        engine, ctrl = make(chain_topology())
        with pytest.raises(UnknownRequest):
            ctrl.completion_report(99)

    def test_report_while_in_flight(self):
        engine, ctrl = make(chain_topology())
        ctrl.submit(1, [(0, 0, 1)], t_generated_ns=0)
        engine.run_until(70_000)  # southbound arrived, outputs not latched
        with pytest.raises(NotYetComplete):
            ctrl.completion_report(1)

    def test_run_until_complete_unknown_request(self):
        engine, ctrl = make(chain_topology())
        with pytest.raises(UnknownRequest):
            ctrl.run_until_complete(7)

    def test_run_until_complete_unknown_request_runs_nothing(self, dispatches):
        engine, ctrl = make(chain_topology())
        ctrl.start()
        ctrl.submit(1, [(0, 0, 1)], t_generated_ns=0)
        before = (engine.now, engine.next_time_ns())
        with pytest.raises(UnknownRequest):
            ctrl.run_until_complete(7)
        assert (engine.now, engine.next_time_ns()) == before
        assert dispatches == []
        # the known request still rides its first boundary (arrive 70000, emit 96000)
        report = ctrl.run_until_complete(1)
        assert report.config_time_ns == analytic_latency(ctrl.timing, 1, 1, 26_000)

    @pytest.mark.parametrize("t_gen", [1_000_000, 10_000_000])
    def test_run_until_complete_bounds_a_request_from_its_generation(self, t_gen):
        # generated ahead of the clock: the bound counts from t_gen, not from now
        scenario = load_preset("exp1")
        engine, ctrl = make(scenario.topology, seed=scenario.seed)
        ctrl.submit(1, [(0, 7, 0xBEEF)], t_generated_ns=t_gen)
        trace = ctrl.run_until_complete(1)
        seg = trace.segments[0]
        assert trace.config_time_ns == analytic_latency(
            ctrl.timing, 1, scenario.topology.device_rank(0, 7),
            seg.emit_ns - seg.staged_ns, seg.jitter_ns)
        assert trace.config_time_ns <= ctrl.request_span_ns()

    def test_target_word_must_fit_16_bits(self):
        engine, ctrl = make(chain_topology())
        for word, shown in ((0x10000, "0x10000"), (-1, "-0x1")):
            with pytest.raises(ValueError, match=f"^output word must fit 16 bits, got {shown}$"):
                ctrl.pack([(0, 0, word)])

    def test_request_needs_targets(self):
        engine, ctrl = make(chain_topology())
        for targets in ([], iter(())):
            with pytest.raises(ValueError, match=r"^request needs at least one target$"):
                ctrl.pack(targets)

    def test_request_rejects_duplicate_targets(self):
        engine, ctrl = make(quad_topology())
        for targets in ([(0, 0, 1), (0, 0, 2)],
                        [(0, 0, 1), (1, 1, 1), (0, 1, 1), (0, 0, 1)]):  # back after a run
            with pytest.raises(ValueError,
                               match=r"^duplicate \(segment, device\) in one request$"):
                ctrl.pack(targets)

    @pytest.mark.parametrize("field", [0, 1, 2], ids=["segment", "device", "word"])
    @pytest.mark.parametrize("value", [1.0, True, "1", None])
    def test_pack_rejects_a_field_that_is_not_an_int(self, field, value):
        engine, ctrl = make(chain_topology())
        target = [0, 1, 1]
        target[field] = value
        name = ("segment", "device", "word")[field]
        with pytest.raises(WrongType, match=f"^{name} must be an integer, got "):
            ctrl.pack([tuple(target)])

    @pytest.mark.parametrize("request_id", [True, "7", None, 1.0])
    def test_submit_packed_rejects_an_id_that_is_not_an_int(self, request_id):
        engine, ctrl = make(chain_topology())
        with pytest.raises(WrongType, match=r"^request_id must be an integer, got "):
            ctrl.submit(request_id, [(0, 0, 1)], t_generated_ns=0)
        assert ctrl.traces == {}
        assert engine.next_time_ns() is None

    @pytest.mark.parametrize("t_generated_ns", [0.5, True, "0"])
    def test_submit_packed_rejects_a_time_that_is_not_an_int(self, t_generated_ns):
        # a float would carry into every later time, and True would count as 1
        engine, ctrl = make(chain_topology())
        with pytest.raises(WrongType, match=r"^t_generated_ns must be an integer, got "):
            ctrl.submit(1, [(0, 0, 1)], t_generated_ns=t_generated_ns)
        assert ctrl.traces == {}
        assert engine.next_time_ns() is None

    # images that skip pack's checks would leave a request that never
    # completes, drive master 3 for segment -1, fail inside an event handler
    # or report a latency for no target; submit refuses each as pack does
    @pytest.mark.parametrize("targets, error, message", [
        ([], ValueError, r"^request needs at least one target$"),
        ([(-1, 0, 1)], UnknownTarget, r"^target segment -1 device 0 not in topology$"),
        ([(9, 0, 1)], UnknownTarget, r"^target segment 9 device 0 not in topology$"),
        ([(0, 2, 1)], UnknownTarget, r"^target segment 0 device 2 not in topology$"),
    ], ids=["no-targets", "segment-minus-1", "segment-9", "device-past-the-chain"])
    def test_submit_refuses_what_pack_refuses(self, targets, error, message):
        engine, ctrl = make(load_preset("exp2").topology)
        with pytest.raises(error, match=message):
            ctrl.submit(1, targets, t_generated_ns=0)
        assert ctrl.traces == {}
        assert engine.next_time_ns() is None
        ctrl.submit(1, [(3, 1, 1)], t_generated_ns=0)  # the id is still free
        assert ctrl.run_until_complete(1).complete

    def test_submit_is_the_one_public_intake(self):
        public = {name for name in dir(DeviceController) if not name.startswith("_")}
        assert public == {"completion_report", "pack", "request_span_ns",
                          "run_until_complete", "start", "submit"}

    def test_several_faults_raise_in_a_fixed_order(self):
        # the first bad target in list order, then an empty list, then the
        # id's type, a used id, the time's type and the clock
        engine, ctrl = make(chain_topology())
        ctrl.submit(1, [(0, 0, 1)], t_generated_ns=0)
        engine.run_until(10)
        bad_word, unknown, dup = (0, 1, 0x10000), (0, 99, 1), [(0, 2, 1), (0, 2, 1)]
        with pytest.raises(UnknownTarget, match="device 99"):
            ctrl.submit("x", [unknown, bad_word, *dup], t_generated_ns=0)
        with pytest.raises(ValueError, match="16 bits"):
            ctrl.submit("x", [bad_word, unknown, *dup], t_generated_ns=0)
        with pytest.raises(ValueError, match="duplicate"):
            ctrl.submit("x", [*dup, unknown, bad_word], t_generated_ns=0)
        with pytest.raises(ValueError, match="at least one target"):
            ctrl.submit("x", [], t_generated_ns=0)
        with pytest.raises(WrongType, match="request_id"):
            ctrl.submit("x", [(0, 1, 1)], t_generated_ns=0)
        with pytest.raises(DuplicateRequestId):
            ctrl.submit(1, [(0, 1, 1)], t_generated_ns=0.5)
        with pytest.raises(WrongType, match="t_generated_ns"):
            ctrl.submit(2, [(0, 1, 1)], t_generated_ns=0.5)
        with pytest.raises(SchedulingInPast):
            ctrl.submit(2, [(0, 1, 1)], t_generated_ns=0)
        assert list(ctrl.traces) == [1]

    # every intake fault, as (request id, targets, t_generated_ns, error),
    # submitted at 50000 ns, while request 0 waits to arrive at 70000
    INTAKE_FAULTS = {
        "field-type": (1, [(0, 1.0, 1)], 50_000, WrongType),
        "word-range": (1, [(0, 1, 0x10000)], 50_000, ValueError),
        "unknown-device": (1, [(0, 99, 1)], 50_000, UnknownTarget),
        "unknown-segment": (1, [(1, 0, 1)], 50_000, UnknownTarget),
        "duplicate-pair": (1, [(0, 1, 1), (0, 2, 1), (0, 1, 2)], 50_000, ValueError),
        "no-targets": (1, [], 50_000, ValueError),
        "id-type": ("1", [(0, 1, 1)], 50_000, WrongType),
        "used-id": (0, [(0, 1, 1)], 50_000, DuplicateRequestId),
        "time-type": (1, [(0, 1, 1)], 50_000.0, WrongType),
        "past-clock": (1, [(0, 1, 1)], 49_999, SchedulingInPast),
    }

    def test_failed_validation_stages_nothing(self, dispatches):
        for name, (request_id, targets, t_gen, error) in self.INTAKE_FAULTS.items():
            engine, ctrl = make(chain_topology())
            ctrl.submit(0, [(0, 0, 1)], t_generated_ns=0)
            engine.run_until(50_000)
            first = ctrl.traces[0]
            dispatches.clear()
            with pytest.raises(error):
                ctrl.submit(request_id, targets, t_generated_ns=t_gen)
            assert ctrl.traces == {0: first}, name
            assert ctrl.masters[0].staged == {}, name
            # id 1 is still free, and only the two accepted requests arrive
            ctrl.submit(1, [(0, 1, 1)], t_generated_ns=50_000)
            ctrl.run_until_complete(1)
            engine.run_until(500_000)
            arrivals = [t for t, kind, _ in dispatches if kind is EventKind.SOUTHBOUND_ARRIVED]
            assert arrivals == [70_000, 120_000], name
            assert first.complete and ctrl.traces[1].complete, name

    def test_rider_emitted_twice_on_one_segment_raises(self):
        engine, ctrl = make(chain_topology())
        ctrl.submit(1, [(0, 3, 1)], t_generated_ns=0)
        ctrl.run_until_complete(1)
        # the same request staged again: its segment's frame has already left
        pickup = ctrl.masters[0].stage(engine.now, 1, 0xFFFF, 1)
        engine.schedule(pickup, EventKind.MASTER_EMIT, 0, order=0)
        with pytest.raises(AssertionError, match="request 1 emitted twice on segment 0"):
            engine.run_until(pickup)


class TestReporting:
    def test_completion_callback_fires(self):
        # completion is read from the trace run_until_complete returns
        engine, ctrl = make(chain_topology())
        ctrl.submit(1, [(0, 7, 1)], t_generated_ns=0)
        trace = ctrl.run_until_complete(1)
        assert trace.complete
        assert trace.request_id == 1
        assert trace.config_time_ns == 116_000

    def test_request_span_bounds_observed_latency(self):
        engine, ctrl = make(chain_topology())
        span = ctrl.request_span_ns()
        ctrl.submit(1, [(0, d, 0xFFFF) for d in range(8)], t_generated_ns=0)
        report = ctrl.run_until_complete(1)
        assert report.config_time_ns <= span

    def test_request_that_outlives_its_bound_raises(self):
        # a bound below the request's true life stands in for a broken one
        engine, ctrl = make(chain_topology())
        ctrl._request_span_ns = 69_999  # the request arrives at 70000
        ctrl.submit(1, [(0, 0, 1)], t_generated_ns=0)
        with pytest.raises(NotYetComplete, match=r"^request 1 missed its latency bound$"):
            ctrl.run_until_complete(1)
        assert engine.now == 0 and ctrl.traces[1].pending == 1

    @pytest.mark.parametrize("name", ["exp1", "exp2", "4x250"])
    def test_request_span_is_the_formula_worked_out_once(self, name, monkeypatch):
        if name == "4x250":
            topology = Topology(segments=(SegmentSpec(device_count=250),) * 4,
                                timing=load_preset("exp2").topology.timing)
        else:
            topology = load_preset(name).topology
        t = topology.timing
        engine, ctrl = make(topology)
        # nothing after construction works the bound out again
        monkeypatch.setattr("meowsim.controller.analytic_latency", None)
        multi = t.d_mm_ns if topology.segment_count > 1 else 0
        worst_chain = max(seg.device_count for seg in topology.segments)
        assert ctrl.request_span_ns() == (
            t.d_sb_ns + multi + t.d_jitter_max_ns + t.d_frame_head_ns
            + worst_chain * t.d_hop_ns + t.d_latch_ns
            + t.pdo_cycle_ns + max(seg.phase_ns for seg in topology.segments)
        )
        ctrl.submit(1, [(0, 0, 1)], t_generated_ns=0)
        assert ctrl.run_until_complete(1).config_time_ns <= ctrl.request_span_ns()

    def test_one_record_per_request(self):
        engine, ctrl = make(chain_topology())
        ctrl.submit(1, [(0, 7, 1)], t_generated_ns=0)
        trace = ctrl.traces[1]
        assert ctrl.run_until_complete(1) is trace
        assert ctrl.completion_report(1) is trace

    def test_in_flight_after_every_segment_emitted(self):
        engine, ctrl = make(quad_topology(jitter_ns=0))
        ctrl.submit(1, [(0, 0, 1), (2, 1, 2), (3, 0, 3)], t_generated_ns=0)
        engine.run_until(174_599)  # every frame left at 160000; (2, 1) latches at 174600
        trace = ctrl.traces[1]
        assert trace.t_master_emit_ns == {0: 160_000, 2: 160_000, 3: 160_000}
        # the last frame has left, so the completion time is known, but the
        # request is in flight until the clock reaches its last latch
        assert trace.complete and trace.config_time_ns == 174_600
        with pytest.raises(NotYetComplete):
            ctrl.completion_report(1)
        engine.run_until(174_600)
        assert ctrl.completion_report(1) is trace

    def test_unchanged_word_is_in_trace_but_not_latched(self):
        engine, ctrl = make(chain_topology())
        devices = LatchRecorder(ctrl).devices
        ctrl.submit(1, [(0, 0, 0x0001)], t_generated_ns=0)
        ctrl.run_until_complete(1)
        latches_before = list(devices[(0, 0)].latches)
        ctrl.submit(2, [(0, 0, 0x0001)], t_generated_ns=200_000)
        trace = ctrl.run_until_complete(2)
        # arrive 270000, boundary 288000
        assert latched(trace) == {(0, 0): 288_000 + 12_000 + 900 + 800}
        assert devices[(0, 0)].latches == latches_before

    def test_latch_recorder_attaches_only_before_the_first_frame(self):
        engine, ctrl = make(chain_topology())
        ctrl.submit(1, [(0, 0, 0x0001)], t_generated_ns=0)
        LatchRecorder(ctrl)  # submitted, not yet emitted
        ctrl.run_until_complete(1)
        with pytest.raises(RuntimeError, match="before the controller's first frame"):
            LatchRecorder(ctrl)

    def test_completes_at_deepest_device_not_last_listed(self):
        engine, ctrl = make(chain_topology())
        ctrl.submit(1, [(0, 7, 1), (0, 0, 1)], t_generated_ns=0)
        trace = ctrl.run_until_complete(1)
        assert latched(trace) == {(0, 7): 116_000, (0, 0): 109_700}
        assert trace.config_time_ns == 116_000
        assert engine.now == 116_000
