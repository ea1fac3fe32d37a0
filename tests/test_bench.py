"""Benchmark runner: exports, sweeps, extrapolation, PDO-cycle analysis."""

import gc
import json
import math
import re
import types
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meowsim import bench
from meowsim import controller as controller_module
from meowsim.bench import (
    CSV_COLUMNS,
    MIN_SPACING_CYCLES,
    WORD_PATTERNS,
    SweepPoint,
    default_worst_base_ns,
    export_csv,
    export_trace,
    extrapolate_worst,
    pdo_reduction_analysis,
    racks_to_devices_per_segment,
    request_spacing_ns,
    run_scenario,
    structural_worst_ns,
    sweep_devices,
    with_pdo_cycle,
)
from meowsim.controller import DeviceController
from meowsim.engine import Engine, EventKind, SplitMix64
from meowsim.errors import EmptySegment, IoFailure, MeowError, SegmentTooLong
from meowsim.scenario import ARRIVAL_GRID_NS, Scenario, arrival_phase_ns, load_preset
from meowsim.simulation import repeated_image
from meowsim.stats import compute_stats
from meowsim.topology import (
    MAX_PDO_CYCLE_NS,
    MAX_SEGMENT_DEVICES,
    MAX_SEGMENTS,
    SegmentSpec,
    TimingParams,
    Topology,
    require_int,
)

from conftest import format_trace_line, latched, read_csv_rows, us_str_to_ns


def exp1_small(n=40, **changes):
    return load_preset("exp1").with_changes(num_requests=n, outputs=None, **changes)


def exp2_small(n=25, **changes):
    return load_preset("exp2").with_changes(num_requests=n, outputs=None, **changes)


def deployment(masters, devices, **changes):
    """exp2's timing and seed on masters x devices, measured at segment 0's last device."""
    exp2 = load_preset("exp2")
    topology = Topology(segments=(SegmentSpec(device_count=devices),) * masters,
                        timing=exp2.topology.timing)
    return exp2.with_changes(topology=topology, measurement=(0, devices - 1),
                             outputs=None, **changes)


def config_times(result) -> list:
    """Each request's configuration time at the run's measured device."""
    seg, dev = result.scenario.measurement
    return [latched(trace)[seg, dev] - trace.t_generated_ns for trace in result.traces]


def reachable_objects(controller) -> int:
    """How many objects gc.get_referents reaches from a controller, past its traces.

    The traces, topology and timing are not entered. Classes, functions and
    modules are counted but not entered either, since they reach the whole
    program.
    """
    skip = {id(controller.traces), id(controller.topology), id(controller.timing)}
    opaque = (type, types.FunctionType, types.BuiltinFunctionType, types.ModuleType)
    seen, stack = set(), [controller]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or id(obj) in skip:
            continue
        seen.add(id(obj))
        if not isinstance(obj, opaque):
            stack.extend(gc.get_referents(obj))
    return len(seen)


class TestRunScenario:
    def test_rows_are_self_consistent(self, tmp_path):
        run_scenario(exp1_small().with_changes(outputs={"csv": "r.csv"}), out_dir=str(tmp_path))
        rows = read_csv_rows(str(tmp_path / "r.csv"))
        assert len(rows) == 40
        for row in rows:
            t_gen, t_emit, t_complete, config = map(us_str_to_ns, row[1:5])
            assert config == t_complete - t_gen
            assert t_gen < t_emit < t_complete
            assert (row[5], row[6]) == ("0", "7")
        assert [int(row[0]) for row in rows] == list(range(40))

    def test_oracle_holds_on_both_presets(self):
        # run_scenario raises if any simulated time deviates from the
        # closed-form latency model; passing is the assertion
        run_scenario(exp1_small(), check_oracle=True)
        run_scenario(exp2_small(), check_oracle=True)
        # the longest legal cycle: arrivals tie with boundaries, and each
        # such write rides its boundary (zero wait), never a cycle late
        run_scenario(with_pdo_cycle(exp1_small(400), 100_000), check_oracle=True)

    # each check below guards against a broken program, simulated here
    def test_request_unfinished_at_the_horizon_raises(self, monkeypatch):
        # a zero bound puts the horizon at the last request's generation
        monkeypatch.setattr(DeviceController, "request_span_ns", lambda self: 0)
        with pytest.raises(AssertionError, match=r"^request 4 did not finish by the horizon$"):
            run_scenario(exp1_small(5))

    def test_emit_off_a_boundary_raises(self):
        scenario = exp1_small(3)
        traces = run_scenario(scenario).traces
        traces[1].segments[0].emit_ns += 1
        t_emit = traces[1].segments[0].emit_ns
        with pytest.raises(AssertionError,
                           match=f"^request 1: emit {t_emit} is not a PDO boundary$"):
            bench._config_times(scenario.topology, traces, scenario.measurement, True)

    def test_oracle_mismatch_raises(self, monkeypatch):
        config = config_times(run_scenario(exp1_small(3)))[0]
        oracle = bench.analytic_latency
        monkeypatch.setattr(bench, "analytic_latency", lambda *args: oracle(*args) + 1)
        with pytest.raises(AssertionError, match=f"^request 0: simulated {config} ns "
                                                 f"!= oracle {config + 1} ns$"):
            run_scenario(exp1_small(3))

    @pytest.mark.parametrize("preset, expected", [
        ("exp1", {"SouthboundArrived": 1000, "MasterEmit": 1000}),
        ("exp2", {"SouthboundArrived": 1000, "MasterEmit": 4000}),
    ])
    def test_event_counts_by_kind(self, dispatches, preset, expected):
        # one MasterEmit per frame with riders, latches and completions
        # recorded as the frame is built: no idle frames, no per-device
        # fan-out and no marker-only or relay events
        scenario = load_preset(preset).with_changes(outputs=None)
        result = run_scenario(scenario)
        counts = Counter(kind.value for _, kind, _ in dispatches)
        assert dict(counts) == expected
        assert set(counts) == {kind.value for kind in EventKind}
        assert sum(counts.values()) == {"exp1": 2_000, "exp2": 5_000}[preset]
        # every emission carries a rider, and every rider's emission is one
        emits = [(t, args) for t, kind, args in dispatches if kind is EventKind.MASTER_EMIT]
        ridden = {(st.emit_ns, (s,)) for trace in result.traces
                  for s, st in trace.segments.items()}
        assert len(set(emits)) == len(emits) and set(emits) == ridden

    @pytest.mark.parametrize("scenario, peak", [
        (load_preset("exp1").with_changes(outputs=None), 1),
        (load_preset("exp2").with_changes(outputs=None), 4),
        (deployment(4, 250, num_requests=20), 4),
    ], ids=["exp1", "exp2", "4x250"])
    def test_queue_holds_one_request(self, monkeypatch, scenario, peak):
        # each request is handed in at its generation, after the one before
        # it has finished: its arrival, then one frame per targeted segment
        schedule = Engine.schedule
        depths = []

        def measured_schedule(engine, *args, **kwargs):
            schedule(engine, *args, **kwargs)
            depths.append(len(engine._heap))

        monkeypatch.setattr(Engine, "schedule", measured_schedule)
        run_scenario(scenario)
        assert max(depths) == peak

    @pytest.mark.parametrize("scenario", [
        exp1_small, exp2_small, lambda n: deployment(4, 250, num_requests=n),
    ], ids=["exp1", "exp2", "4x250"])
    def test_controller_state_does_not_grow_with_requests(self, monkeypatch, scenario):
        # one trace per request and nothing per frame or device: past its
        # traces, the controller holds as many objects after 100 requests as
        # after 10 (a count, not bytes, so it holds on every Python version)
        controllers = []
        init = DeviceController.__init__

        def capturing_init(controller, *args):
            init(controller, *args)
            controllers.append(controller)

        monkeypatch.setattr(DeviceController, "__init__", capturing_init)
        for requests in (10, 100):
            run_scenario(scenario(requests))
        small, large = controllers
        assert len(large.traces) == 100
        assert reachable_objects(small) == reachable_objects(large)

    def test_oracle_check_can_be_skipped(self):
        a = run_scenario(exp1_small(10), check_oracle=True)
        b = run_scenario(exp1_small(10), check_oracle=False)
        assert a.traces == b.traces
        assert a.stats == b.stats

    def test_same_seed_same_rows(self):
        a = run_scenario(exp1_small())
        b = run_scenario(exp1_small())
        assert a.traces == b.traces
        assert a.stats == b.stats

    def test_different_seed_different_waits(self):
        a = run_scenario(exp1_small())
        b = run_scenario(exp1_small(seed=12345))
        assert config_times(a) != config_times(b)

    def test_single_request_has_zero_jitter(self):
        result = run_scenario(exp1_small(1))
        assert result.stats.count == 1
        assert result.stats.jitter_ns == 0

    def test_spacing_keeps_pipelines_apart(self):
        engine = Engine()
        scenario = exp1_small()
        ctrl = DeviceController(engine, scenario.topology)
        spacing = request_spacing_ns(ctrl)
        assert spacing == 5 * 32_000
        assert spacing >= MIN_SPACING_CYCLES * 32_000
        assert spacing >= ctrl.request_span_ns()

    def test_config_times_bounded_by_structural_worst(self):
        result = run_scenario(exp1_small())
        assert result.stats.min_ns >= 83_700  # rank-8 floor minus chain wait
        assert result.stats.max_ns <= 121_900

    @pytest.mark.parametrize("d_sb_ns", [70_050, 70_099])
    def test_off_grid_delay_run_reaches_structural_worst(self, d_sb_ns):
        # the pickup wait rounds an off-grid arrival up to the next grid step
        exp1 = load_preset("exp1")
        topology = replace(exp1.topology, timing=replace(exp1.topology.timing, d_sb_ns=d_sb_ns))
        scenario = exp1.with_changes(topology=topology, outputs=None)
        assert run_scenario(scenario).stats.max_ns == structural_worst_ns(scenario) == 122_000


@st.composite
def small_scenarios(draw, max_segments=MAX_SEGMENTS):
    """Scenarios whose delays may each be zero, on segments that share one
    phase or draw one each; arrivals then often land on a boundary."""
    cycle = ARRIVAL_GRID_NS * draw(st.integers(1, MAX_PDO_CYCLE_NS // ARRIVAL_GRID_NS))

    def delay(hi):
        return draw(st.one_of(st.just(0), st.integers(1, hi)))

    timing = TimingParams(pdo_cycle_ns=cycle, d_sb_ns=delay(200_000), d_mm_ns=delay(50_000),
                          d_jitter_max_ns=delay(20_000), d_frame_head_ns=delay(20_000),
                          d_hop_ns=delay(2_000), d_latch_ns=delay(2_000))
    counts = draw(st.lists(st.integers(1, 8), min_size=1, max_size=max_segments))
    phase = st.integers(0, cycle // ARRIVAL_GRID_NS - 1).map(ARRIVAL_GRID_NS.__mul__)
    if draw(st.booleans()):
        phases = [draw(phase)] * len(counts)
    else:
        phases = [draw(phase) for _ in counts]
    topology = Topology(segments=tuple(SegmentSpec(n, p) for n, p in zip(counts, phases)),
                        timing=timing)
    seg = draw(st.integers(0, len(counts) - 1))
    return Scenario(topology=topology, num_requests=draw(st.integers(1, 12)),
                    seed=draw(st.integers(-(1 << 64), 1 << 65)),
                    measurement=(seg, draw(st.integers(0, counts[seg] - 1))))


class TestGenerationTimes:
    @pytest.mark.parametrize("scenario", [
        load_preset("exp1").with_changes(outputs=None),
        load_preset("exp2").with_changes(outputs=None),
        deployment(4, 250, num_requests=20),
    ], ids=["exp1", "exp2", "4x250"])
    def test_request_k_is_generated_at_k_spacings_plus_its_phase(self, monkeypatch, scenario):
        # every phase comes from the arrival law, all N of them before the
        # first jitter: they are a fresh generator's first N law draws
        cycles = []

        def law(rng, cycle_ns):
            cycles.append(cycle_ns)
            return arrival_phase_ns(rng, cycle_ns)

        monkeypatch.setattr(bench, "arrival_phase_ns", law)
        traces = run_scenario(scenario).traces
        n, cycle = scenario.num_requests, scenario.topology.timing.pdo_cycle_ns
        assert cycles == [cycle] * n
        rng = SplitMix64(scenario.seed)
        phases = [arrival_phase_ns(rng, cycle) for _ in range(n)]
        spacing = request_spacing_ns(DeviceController(Engine(), scenario.topology))
        assert [t.t_generated_ns for t in traces] == [k * spacing + phases[k] for k in range(n)]


class TestBatchPathEqualsPerRequestPath:
    """run_scenario builds each pattern's pairs once and hands them to every
    request; submitting each request whole, as its target triples, must give
    the same run."""

    @staticmethod
    def pattern_targets(topology):
        return [[(s, d, word) for s, d in topology.all_targets()]
                for word in WORD_PATTERNS]

    def replay(self, scenario):
        """run_scenario's draws, but every request submitted whole, through submit,
        before one run_until."""
        topology = scenario.topology
        engine = Engine(seed=scenario.seed)
        ctrl = DeviceController(engine, topology)
        cycle = topology.timing.pdo_cycle_ns
        spacing = request_spacing_ns(ctrl)
        patterns = self.pattern_targets(topology)
        for k in range(scenario.num_requests):
            phase = arrival_phase_ns(engine.rng, cycle)
            ctrl.submit(k, patterns[k % len(patterns)], k * spacing + phase)
        engine.run_until((scenario.num_requests - 1) * spacing + ctrl.request_span_ns()
                         + 4 * cycle)
        return [ctrl.traces[k] for k in range(scenario.num_requests)]

    @pytest.mark.parametrize("scenario", [
        exp1_small(20), exp2_small(20), deployment(4, 250, num_requests=20),
    ], ids=["exp1", "exp2", "4x250"])
    def test_same_traces_and_rows(self, scenario):
        result = run_scenario(scenario)
        traces = self.replay(scenario)
        assert len(result.traces) == len(traces) == 20
        for batch, whole in zip(result.traces, traces):
            assert batch.complete and batch.pending == whole.pending == 0
            assert batch.segments == whole.segments  # staged, jitter, emit, first latch
            assert latched(batch) == latched(whole)
            assert batch.config_time_ns == whole.config_time_ns
            assert batch == whole  # and every other field
        # a pattern's requests share one writes dict, which the run left as packed
        fresh = DeviceController(Engine(), scenario.topology)
        for k, targets in enumerate(self.pattern_targets(scenario.topology)):
            shared = result.traces[k].writes
            assert all(t.writes is shared for t in result.traces[k::len(WORD_PATTERNS)])
            assert shared == fresh.pack(targets)

    @settings(max_examples=150, deadline=None)
    @given(small_scenarios())
    def test_hand_in_loop_equals_submitting_every_request_first(self, scenario):
        # run_scenario hands each request in at its generation, stopped short
        # of that instant's arrivals; a write that arrives on a boundary must
        # still ride that boundary's frame, as when every request was queued
        result = run_scenario(scenario)
        traces = self.replay(scenario)
        assert result.traces == traces
        assert result.stats == compute_stats(
            [latched(t)[scenario.measurement] - t.t_generated_ns for t in traces])

    def test_zero_delays_ride_the_frame_of_their_own_instant(self):
        # a 100 ns cycle puts every generation on a boundary of every segment
        timing = TimingParams(pdo_cycle_ns=ARRIVAL_GRID_NS, d_sb_ns=0, d_mm_ns=0,
                              d_jitter_max_ns=0, d_frame_head_ns=0, d_hop_ns=0, d_latch_ns=0)
        topology = Topology(segments=(SegmentSpec(3), SegmentSpec(2)), timing=timing)
        scenario = Scenario(topology=topology, num_requests=30, seed=5, measurement=(1, 1))
        result = run_scenario(scenario)
        assert all(t.segments[1].emit_ns == t.t_generated_ns for t in result.traces)
        assert config_times(result) == [0] * 30
        assert result.traces == self.replay(scenario)

    @pytest.mark.parametrize("scenario", [exp2_small(20), deployment(4, 250, num_requests=20)],
                             ids=["4x2", "4x250"])
    def test_intake_checks_per_request_not_per_target(self, monkeypatch, scenario):
        # submit makes every intake check; the batch path makes none, since
        # its ids, times and images are its own
        calls = Counter()

        def counting_require_int(name, value):
            calls[name] += 1
            return require_int(name, value)

        monkeypatch.setattr(controller_module, "require_int", counting_require_int)
        run_scenario(scenario)
        assert calls == {}


class TestClosedFormPatterns:
    """A batch pattern's images, built in closed form, equal pack of every target."""

    @settings(max_examples=60, deadline=None)
    @given(lengths=st.lists(st.integers(1, MAX_SEGMENT_DEVICES), min_size=1, max_size=3),
           picks=st.lists(st.integers(0, 2), min_size=1, max_size=MAX_SEGMENTS),
           word=st.integers(0, 0xFFFF))
    def test_repeated_image_equals_pack(self, lengths, picks, word):
        # segments drawn from at most three lengths, so lengths repeat often
        counts = [lengths[i % len(lengths)] for i in picks]
        topology = Topology(segments=tuple(SegmentSpec(device_count=n) for n in counts),
                            timing=TimingParams(pdo_cycle_ns=80_000))
        controller = DeviceController(Engine(), topology)
        packed = controller.pack((s, d, word) for s, d in topology.all_targets())
        closed = {s: (repeated_image(0xFFFF, n), repeated_image(word, n))
                  for s, n in enumerate(counts)}
        assert list(packed.items()) == list(closed.items())
        # a batch run's patterns, one per request: within a pattern, segments
        # of one length share one pair, and it still equals a fresh pack
        scenario = Scenario(topology=topology, num_requests=len(WORD_PATTERNS), seed=3,
                            measurement=(0, 0))
        for trace, pattern in zip(run_scenario(scenario).traces, WORD_PATTERNS):
            fresh = controller.pack((s, d, pattern) for s, d in topology.all_targets())
            assert list(trace.writes.items()) == list(fresh.items())
            for s, n in enumerate(counts):
                assert trace.writes[s] is trace.writes[counts.index(n)]

    def test_duplicate_last_device_of_a_full_chain_still_raises(self):
        topology = Topology(segments=(SegmentSpec(device_count=MAX_SEGMENT_DEVICES),),
                            timing=TimingParams(pdo_cycle_ns=80_000))
        targets = [(0, d, 0x5555) for d in range(MAX_SEGMENT_DEVICES)]
        with pytest.raises(ValueError, match="^duplicate"):
            DeviceController(Engine(), topology).pack([*targets, (0, MAX_SEGMENT_DEVICES - 1, 1)])


class TestExports:
    def test_written_files_and_csv_roundtrip(self, tmp_path):
        scenario = exp1_small().with_changes(
            outputs={"csv": "r.csv", "trace": "r.trace", "stats": "r.json"}
        )
        result = run_scenario(scenario, out_dir=str(tmp_path))
        assert set(result.written) == {"csv", "trace", "stats"}

        parsed = read_csv_rows(str(tmp_path / "r.csv"))
        assert len(parsed) == len(result.traces)
        for text_row, trace, config in zip(parsed, result.traces, config_times(result)):
            assert int(text_row[0]) == trace.request_id
            assert us_str_to_ns(text_row[1]) == trace.t_generated_ns
            assert us_str_to_ns(text_row[2]) == trace.segments[0].emit_ns
            assert us_str_to_ns(text_row[3]) == latched(trace)[0, 7]
            assert us_str_to_ns(text_row[4]) == config
            assert us_str_to_ns(text_row[4]) == latched(trace)[0, 7] - trace.t_generated_ns
            assert (int(text_row[5]), int(text_row[6])) == (0, 7)

    @pytest.mark.parametrize("outputs, kinds", [
        ({"csv": "same.out", "trace": "./same.out", "stats": "same.out"}, "csv and trace"),
        ({"csv": "a.csv", "trace": "sub/../same.out", "stats": "same.out"}, "trace and stats"),
    ], ids=["dot-slash", "dot-dot"])
    def test_exports_naming_one_file_rejected_before_the_run(self, tmp_path, outputs, kinds):
        (tmp_path / "sub").mkdir()
        scenario = exp1_small().with_changes(outputs=outputs)
        with pytest.raises(ValueError, match=f"^outputs {kinds} name one file "):
            run_scenario(scenario, out_dir=str(tmp_path))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]

    def test_stats_recomputed_from_csv_match(self, tmp_path):
        scenario = exp1_small().with_changes(outputs={"csv": "r.csv"})
        result = run_scenario(scenario, out_dir=str(tmp_path))
        parsed = read_csv_rows(str(tmp_path / "r.csv"))
        reread = compute_stats([us_str_to_ns(row[4]) for row in parsed])
        assert reread == result.stats

    def test_trace_file_format(self, tmp_path):
        scenario = exp1_small(5).with_changes(outputs={"trace": "r.trace"})
        result = run_scenario(scenario, out_dir=str(tmp_path))
        lines = (tmp_path / "r.trace").read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("#")
        assert lines[-1].startswith("# ④ jitter max-min")
        body = lines[1:-1]
        assert len(body) == 5
        pattern = re.compile(
            r"^req \d{6} ① \d+ \| seg 0: x \d+ staged \d+ ② \d+"
            r" \| ③ (\d+/\d+ \d+(, )?)+ \| config \d+$"
        )
        for line in body:
            assert pattern.match(line), line
        assert body[0] == format_trace_line(result.traces[0])

    def test_trace_line_contents(self):
        result = run_scenario(exp2_small(2))
        line = format_trace_line(result.traces[0])
        trace = result.traces[0]
        assert f"req {trace.request_id:06d} ① {trace.t_generated_ns}" in line
        for seg in sorted(trace.segments):
            st = trace.segments[seg]
            assert f"seg {seg}: x {st.jitter_ns} staged {st.staged_ns} ② {st.emit_ns}" in line
        assert line.endswith(f"config {trace.config_time_ns}")

    def test_stats_json(self, tmp_path):
        scenario = exp1_small(8).with_changes(outputs={"stats": "s.json"})
        result = run_scenario(scenario, out_dir=str(tmp_path))
        doc = json.loads((tmp_path / "s.json").read_text(encoding="utf-8"))
        assert doc == result.stats.to_dict()

    def test_csv_write_failure(self):
        with pytest.raises(IoFailure):
            export_csv([], (0, 0), "/nonexistent-dir/out.csv")

    def test_csv_read_failure(self, tmp_path):
        with pytest.raises(IoFailure):
            read_csv_rows(str(tmp_path / "missing.csv"))

    def test_csv_header_is_checked(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            read_csv_rows(str(bad))

    def test_csv_column_names(self):
        assert CSV_COLUMNS == (
            "request_id", "t_gen_us", "t_emit_us", "t_complete_us",
            "config_time_us", "segment", "device",
        )

    def test_deployment_exports_line_by_line(self, tmp_path):
        # every line holds 1,000 latches: one per device of the 4x250 fabric
        scenario = deployment(4, 250, num_requests=3).with_changes(
            outputs={"csv": "d.csv", "trace": "d.trace", "stats": "d.json"})
        result = run_scenario(scenario, out_dir=str(tmp_path))
        lines = (tmp_path / "d.trace").read_text(encoding="utf-8").splitlines()
        assert lines[1:-1] == [expected_trace_line(t) for t in result.traces]
        seg, dev = scenario.measurement
        rows = read_csv_rows(str(tmp_path / "d.csv"))
        assert len(rows) == len(result.traces)
        for row, trace in zip(rows, result.traces):
            t_gen, t_latch = trace.t_generated_ns, latched(trace)[seg, dev]
            assert [int(row[0]), *map(us_str_to_ns, row[1:5]), int(row[5]), int(row[6])] == [
                trace.request_id, t_gen, trace.segments[seg].emit_ns, t_latch, t_latch - t_gen,
                seg, dev]
        doc = json.loads((tmp_path / "d.json").read_text(encoding="utf-8"))
        assert doc == result.stats.to_dict()

    @pytest.mark.parametrize("preset, distinct", [("exp1", 1), ("exp2", 4)])
    def test_word_positions_at_most_once_per_segment_and_mask(self, monkeypatch, tmp_path,
                                                              preset, distinct):
        result = run_scenario(load_preset(preset).with_changes(outputs=None))
        assert len({(s, t.writes[s][0]) for t in result.traces for s in t.writes}) == distinct
        calls = []
        positions = bench.word_positions

        def counted(mask):
            calls.append(mask)
            return positions(mask)

        monkeypatch.setattr(bench, "word_positions", counted)
        export_trace(result.traces, result.stats, str(tmp_path / "t.trace"))
        assert 1 <= len(calls) <= distinct


def expected_trace_line(trace) -> str:
    """A trace line built from latched(trace), apart from format_trace_line's own route."""
    segments = " | ".join(
        f"seg {s}: x {st.jitter_ns} staged {st.staged_ns} ② {st.emit_ns}"
        for s, st in sorted(trace.segments.items())
    )
    latches = ", ".join(f"{s}/{d} {t}" for (s, d), t in sorted(latched(trace).items()))
    head = f"req {trace.request_id:06d} ① {trace.t_generated_ns}"
    return " | ".join(p for p in (head, segments, f"③ {latches}",
                                  f"config {trace.config_time_ns}") if p)


class TestSparseTraceLines:
    """Trace lines of sparse, multi-segment requests, which the golden exports never hold."""

    REQUESTS = (  # (request id, generated at, targets as (segment, device))
        (0, 0, ((0, 1), (0, 5), (2, 0))),
        (1, 0, ((0, 2), (1, 7), (2, 0), (2, 3))),
        (2, 40_000, ((0, 1), (0, 5), (2, 0))),  # request 0's masks, packed again
    )

    def controller(self):
        topology = Topology(
            segments=tuple(SegmentSpec(device_count=8, phase_ns=p) for p in (0, 8_000, 16_000)),
            timing=TimingParams(pdo_cycle_ns=32_000, d_mm_ns=5_000, d_jitter_max_ns=7_000),
        )
        ctrl = DeviceController(Engine(seed=19), topology)
        for rid, t_gen, targets in self.REQUESTS:
            ctrl.submit(rid, [(s, d, 0x0F0F) for s, d in targets], t_gen)
        return ctrl

    def test_every_line_at_every_event(self):
        ctrl = self.controller()
        traces = list(ctrl.traces.values())
        partial = False
        while ctrl.engine.next_time_ns() is not None:
            ctrl.engine.step()
            for trace in traces:
                assert format_trace_line(trace) == expected_trace_line(trace)
                emitted = {st.emit_ns is not None for st in trace.segments.values()}
                partial |= emitted == {True, False}
        assert partial  # some line showed a request with only part of its frames gone
        assert all(t.complete for t in traces)
        assert {rid: sorted(latched(ctrl.traces[rid])) for rid, _, _ in self.REQUESTS} == {
            rid: sorted(targets) for rid, _, targets in self.REQUESTS}

    def test_export_holds_two_masks_per_segment(self, tmp_path):
        ctrl = self.controller()
        ctrl.engine.run_until(400_000)
        traces = list(ctrl.traces.values())
        assert traces[0].writes[0][0] != traces[1].writes[0][0]
        assert traces[0].writes is not traces[2].writes
        assert traces[0].writes == traces[2].writes
        stats = compute_stats([t.config_time_ns for t in traces])
        path = tmp_path / "sparse.trace"
        export_trace(traces, stats, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[1:-1] == [expected_trace_line(t) for t in traces]

    def test_export_while_part_of_the_frames_are_gone(self, tmp_path):
        # requests 0 and 2 write equal masks; the export holds request 0 with
        # every frame gone and request 2 with only part of them, so a latch
        # list cached for one line must not reach the other
        ctrl = self.controller()
        traces = list(ctrl.traces.values())

        def gone(trace):
            return {st.emit_ns is not None for st in trace.segments.values()}

        while gone(traces[2]) != {True, False}:
            ctrl.engine.step()
        assert gone(traces[0]) == {True}
        assert traces[0].writes == traces[2].writes
        stats = compute_stats([t.config_time_ns for t in traces if t.complete])
        path = tmp_path / "partial.trace"
        export_trace(traces, stats, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[1:-1] == [expected_trace_line(t) for t in traces]


class TestDeploymentScale:
    """The paper's 1000-rack deployments, simulated event by event.

    exp2's timing, seed and 1000 requests, measured at the last device of
    segment 0, with the oracle checking every request. The worst run stays
    under the structural worst case, which the published extrapolation
    (criterion 04) overcounts.
    """

    @pytest.mark.parametrize("masters, devices, best, worst, mean, structural", [
        (4, 250, 323_200, 409_200, 366_609.2, 410_100),
        (6, 167, 249_200, 335_000, 292_149.2, 335_400),
        (6, 743, 767_600, 853_400, 810_549.2, 853_800),  # the largest legal topology
    ])
    def test_pinned_run(self, masters, devices, best, worst, mean, structural):
        scenario = deployment(masters, devices)
        assert (scenario.seed, scenario.num_requests) == (8446, 1000)
        stats = run_scenario(scenario).stats
        assert (stats.min_ns, stats.max_ns, stats.mean_ns) == (best, worst, mean)
        assert structural_worst_ns(scenario) == structural
        assert stats.max_ns <= structural

    @pytest.mark.parametrize("masters, devices, requests", [
        (4, 250, 1000), (6, 743, 1000), (6, 743, 7),
    ])
    def test_images_end_on_the_last_pattern(self, monkeypatch, masters, devices, requests):
        # every request writes every device, so after N requests each
        # master's image is request N - 1's pattern on its whole chain
        controllers = []
        original = bench.DeviceController

        def recorded(*args):
            controllers.append(original(*args))
            return controllers[-1]

        monkeypatch.setattr(bench, "DeviceController", recorded)
        run_scenario(deployment(masters, devices, num_requests=requests))
        (controller,) = controllers
        last = repeated_image(WORD_PATTERNS[(requests - 1) % 2], devices)
        assert [master.image for master in controller.masters] == [last] * masters


def per_length_points(base, counts):
    """The sweep's points from a run per chain length, each measured at its last device."""
    phase = base.topology.segments[0].phase_ns
    points = []
    for n in counts:
        topology = Topology(segments=(SegmentSpec(device_count=n, phase_ns=phase),),
                            timing=base.topology.timing)
        stats = run_scenario(base.with_changes(topology=topology, measurement=(0, n - 1),
                                               outputs=None)).stats
        points.append(SweepPoint(n, stats.min_ns, stats.max_ns))
    return tuple(points)


def chain_spacing_ns(base, n):
    topology = Topology(segments=(SegmentSpec(n),), timing=base.topology.timing)
    return request_spacing_ns(DeviceController(Engine(), topology))


class TestSweep:
    @settings(max_examples=100, deadline=None)
    @given(small_scenarios(max_segments=1),
           st.lists(st.integers(1, 40), min_size=2, max_size=6)
           .filter(lambda counts: len(set(counts)) > 1))
    def test_one_run_equals_a_run_per_length(self, base, counts):
        # unsorted, repeated and gapped counts; zero and non-zero delays,
        # cycles from 100 ns, so the spacing often differs between lengths
        assert sweep_devices(base, counts).points == per_length_points(base, counts)

    def test_one_run_equals_a_run_per_length_across_spacings(self):
        # an 8 us cycle spaces requests further apart on the longer chain; the
        # phases, waits and jitters must still be those of a run per length
        base = exp1_small(30).with_changes(
            topology=Topology(segments=(SegmentSpec(8, 3_000),),
                              timing=TimingParams(pdo_cycle_ns=8_000, d_sb_ns=70_000,
                                                  d_jitter_max_ns=5_000, d_frame_head_ns=12_000,
                                                  d_hop_ns=900, d_latch_ns=800)))
        counts = (40, 1, 13, 8)
        assert chain_spacing_ns(base, 1) != chain_spacing_ns(base, 40)
        points = sweep_devices(base, counts).points
        assert points == per_length_points(base, counts)
        assert len({p.worst_ns - p.best_ns for p in points}) == 1
        assert points[0].best_ns - points[1].best_ns == 39 * 900

    def test_one_run_for_the_whole_sweep(self, monkeypatch):
        calls = []
        original = bench.run_scenario

        def counted(*args, **kwargs):
            calls.append(args[0].topology.segments[0].device_count)
            return original(*args, **kwargs)

        monkeypatch.setattr(bench, "run_scenario", counted)
        sweep_devices(load_preset("exp1").with_changes(outputs=None), range(1, 9))
        assert calls == [8]

    def test_oracle_checked_at_every_position_read(self, monkeypatch):
        checks = {}  # {rank: [(wait, jitter) of each request checked there]}
        original = bench.analytic_latency

        def recorded(timing, n_segments, rank, wait_ns, jitter_ns=0):
            checks.setdefault(rank, []).append((wait_ns, jitter_ns))
            return original(timing, n_segments, rank, wait_ns, jitter_ns)

        monkeypatch.setattr(bench, "analytic_latency", recorded)
        base = exp2_small(30).with_changes(
            topology=Topology(segments=(SegmentSpec(8),), timing=exp2_small().topology.timing))
        sweep_devices(base, (1, 3, 8))
        assert set(checks) == {1, 3, 8}
        assert checks[1] == checks[3] == checks[8]  # each request, once at each rank
        assert len(checks[1]) == 30
        assert len(set(checks[1])) > 1

    @pytest.mark.parametrize("counts, error", [
        ((1, 0), EmptySegment),
        ((1, 744), SegmentTooLong),
        (range(1, 10**15), SegmentTooLong),  # stops at 744, with no list of every count
    ], ids=["empty", "too-long", "long-range"])
    def test_every_count_checked_before_the_run(self, no_simulation, counts, error):
        with pytest.raises(error):
            sweep_devices(exp1_small(), counts)

    def test_slope_is_exactly_the_hop_cost(self):
        result = sweep_devices(exp1_small(), range(1, 9))
        assert result.slope_ns_per_device == 900.0
        assert [p.device_count for p in result.points] == list(range(1, 9))
        # same seed, same waits: best case moves exactly with chain length
        best = [p.best_ns for p in result.points]
        assert [b - a for a, b in zip(best, best[1:])] == [900] * 7
        assert result.predict_best_ns(8) == best[-1]

    def test_fit_is_exact_on_every_version(self):
        # float sums fit 900.0000000000001 or 899.9999999999999 here, by Python version
        result = sweep_devices(exp1_small(20), (1, 2, 4))
        assert result.slope_ns_per_device == 900.0
        assert result.intercept_ns == 84_200.0

    def test_zero_hop_cost_flattens_the_fit(self):
        timing = TimingParams(pdo_cycle_ns=32_000, d_hop_ns=0)
        base = Scenario(
            topology=Topology(segments=(SegmentSpec(8),), timing=timing),
            num_requests=20,
            seed=3,
            measurement=(0, 7),
        )
        result = sweep_devices(base, range(1, 5))
        assert result.slope_ns_per_device == 0.0

    def test_worst_tracks_best(self):
        result = sweep_devices(exp1_small(), (1, 8))
        deltas = [p.worst_ns - p.best_ns for p in result.points]
        assert deltas[0] == deltas[1]  # same wait spread at both lengths

    def test_needs_single_segment(self):
        with pytest.raises(ValueError, match="single-segment"):
            sweep_devices(exp2_small())

    def test_needs_counts(self):
        with pytest.raises(ValueError, match="counts"):
            sweep_devices(exp1_small(), ())

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="two points"):
            sweep_devices(exp1_small(5), (4,))


class TestExtrapolation:
    def test_reference_fabric_sizes(self):
        assert racks_to_devices_per_segment(1_000, 4) == 250
        assert racks_to_devices_per_segment(1_000, 6) == 167
        assert extrapolate_worst(187_000, 900.0, 250) == 412_000
        assert extrapolate_worst(187_000, 900.0, 167) == 337_300

    def test_integer_results_stay_integers(self):
        assert isinstance(extrapolate_worst(187_000, 900.0, 250), int)
        assert extrapolate_worst(187_000, 900.25, 2) == 188_800.5

    def test_zero_slope(self):
        assert extrapolate_worst(187_000, 0.0, 1_000) == 187_000

    def test_validation(self):
        with pytest.raises(ValueError):
            racks_to_devices_per_segment(0, 4)
        with pytest.raises(ValueError):
            racks_to_devices_per_segment(10, 0)
        with pytest.raises(ValueError):
            extrapolate_worst(-1, 900.0, 10)
        with pytest.raises(ValueError):
            extrapolate_worst(187_000, -1.0, 10)
        with pytest.raises(ValueError):
            extrapolate_worst(187_000, 900.0, 0)

    def test_devices_are_the_integer_ceiling(self):
        # no float division: it equals math.ceil where a float is exact, and
        # racks past a float's range fail at the chain length, not in division
        for racks in range(1, 4_500):
            for masters in range(1, MAX_SEGMENTS + 1):
                if math.ceil(racks / masters) <= MAX_SEGMENT_DEVICES:
                    assert racks_to_devices_per_segment(racks, masters) == math.ceil(
                        racks / masters)
        with pytest.raises(SegmentTooLong, match=f"got {'2' + '5' + '0' * 198}$"):
            racks_to_devices_per_segment(10 ** 400, 4)

    def test_fabric_must_be_one_controller_can_drive(self):
        assert racks_to_devices_per_segment(743, 1) == 743
        with pytest.raises(MeowError, match="743"):
            racks_to_devices_per_segment(744, 1)
        with pytest.raises(MeowError, match="masters"):
            racks_to_devices_per_segment(1_000, 7)

    def test_default_worst_base(self):
        assert default_worst_base_ns() == 187_000


class TestPdoReduction:
    def test_structural_delta_is_the_cycle_difference(self):
        hi = exp2_small()
        lo = with_pdo_cycle(hi, 32_000)
        cmp = pdo_reduction_analysis(hi, lo, run_empirical=False)
        assert cmp.structural_worst_hi_ns == 186_900
        assert cmp.structural_worst_lo_ns == 138_900
        assert cmp.structural_delta_ns == 48_000
        assert cmp.empirical_delta_ns is None

    def test_structural_delta_is_seed_independent(self):
        deltas = set()
        for seed in (1, 2, 3):
            hi = exp2_small(seed=seed)
            cmp = pdo_reduction_analysis(
                hi, with_pdo_cycle(hi, 32_000), run_empirical=False
            )
            deltas.add(cmp.structural_delta_ns)
        assert deltas == {48_000}

    def test_empirical_bounded_by_structural(self):
        hi = exp2_small()
        cmp = pdo_reduction_analysis(hi, with_pdo_cycle(hi, 32_000))
        assert cmp.empirical_worst_hi_ns <= cmp.structural_worst_hi_ns
        assert cmp.empirical_worst_lo_ns <= cmp.structural_worst_lo_ns

    def test_equal_cycles_give_zero_delta(self):
        hi = exp2_small()
        cmp = pdo_reduction_analysis(hi, with_pdo_cycle(hi, 80_000),
                                     run_empirical=False)
        assert cmp.structural_delta_ns == 0

    def test_scenarios_must_match_apart_from_cycle(self):
        hi = exp2_small()
        with pytest.raises(ValueError, match="identical"):
            pdo_reduction_analysis(hi, with_pdo_cycle(hi, 32_000).with_changes(seed=9))

    def test_with_pdo_cycle_only_touches_the_cycle(self):
        hi = exp2_small()
        lo = with_pdo_cycle(hi, 32_000)
        assert lo.topology.timing.pdo_cycle_ns == 32_000
        assert lo.seed == hi.seed
        assert lo.topology.segments == hi.topology.segments
        assert lo.topology.timing.d_mm_ns == hi.topology.timing.d_mm_ns
