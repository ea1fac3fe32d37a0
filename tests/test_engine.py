"""Event engine: ordering, clock, determinism, seeded RNG."""

import ast
import inspect
import json
import os
import re

import pytest

from meowsim import engine as engine_module
from meowsim.engine import Engine, EventKind, SplitMix64
from meowsim.errors import SchedulingInPast

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "rng_golden.json")
README_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
HEX64 = re.compile(r"0x[0-9A-Fa-f]{16}")


class TestScheduleAndRun:
    def test_empty_queue_advances_clock(self):
        engine = Engine()
        assert engine.run_until(1000) == 0
        assert engine.now == 1000

    def test_time_order(self):
        engine = Engine()
        seen = []
        engine.on(EventKind.MASTER_EMIT, lambda: seen.append(engine.now))
        for t in (30, 10, 20):
            engine.schedule(t, EventKind.MASTER_EMIT)
        assert engine.run_until(20) == 2
        assert seen == [10, 20]
        assert engine.next_time_ns() == 30

    def test_fifo_within_timestamp(self):
        engine = Engine()
        seen = []
        engine.on(EventKind.MASTER_EMIT, lambda *args: seen.append(args))
        engine.schedule(100, EventKind.MASTER_EMIT, "A", 1)
        engine.schedule(100, EventKind.MASTER_EMIT, "B", 2)
        engine.run_until(100)
        assert seen == [("A", 1), ("B", 2)]

    def test_order_ranks_one_kind_within_timestamp(self):
        engine = Engine()
        seen = []
        engine.on(EventKind.MASTER_EMIT, seen.append)
        for segment in (3, 0, 2):
            engine.schedule(100, EventKind.MASTER_EMIT, segment, order=segment)
        engine.schedule(50, EventKind.MASTER_EMIT, 9, order=9)
        engine.run_until(100)
        assert seen == [9, 0, 2, 3]

    def test_cursor_follows_step_and_run_until(self):
        engine = Engine()
        arrive, emit = EventKind.SOUTHBOUND_ARRIVED, EventKind.MASTER_EMIT
        assert not engine.has_run(0, arrive, 0)

        def emit_then_arrive(segment):
            # an arrival queued at now sorts before the emission running
            engine.schedule(engine.now, arrive)

        engine.on(emit, emit_then_arrive)
        engine.schedule(10, emit, 1, order=1)
        engine.schedule(10, emit, 2, order=2)
        engine.step()
        assert engine.has_run(10, emit, 1) and not engine.has_run(10, emit, 2)
        engine.step()  # the arrival queued by segment 1 moves nothing back
        assert engine.now == 10
        assert engine.has_run(10, emit, 1) and not engine.has_run(10, emit, 2)
        engine.step()
        assert engine.has_run(10, emit, 2) and not engine.has_run(11, arrive, 0)
        assert engine.run_until(25) == 1  # segment 2's arrival
        assert engine.has_run(25, emit, 99) and not engine.has_run(26, arrive, 0)
        engine.rewind()
        assert engine.has_run(24, emit, 99) and not engine.has_run(25, arrive, 0)

    def test_same_instant_runs_in_lifecycle_order(self):
        engine = Engine()
        seen = []
        for kind in EventKind:
            engine.on(kind, lambda kind=kind: seen.append(kind))
        for kind in reversed(EventKind):
            engine.schedule(100, kind)
        engine.schedule(99, EventKind.MASTER_EMIT)
        assert engine.run_until(100) == 3
        assert seen == [EventKind.MASTER_EMIT, *EventKind]

    def test_run_until_a_slot_stops_before_its_kind(self):
        engine = Engine()
        seen = []
        for kind in EventKind:
            engine.on(kind, lambda kind=kind: seen.append(kind))
        for kind in reversed(EventKind):  # the arrival gets order 1
            engine.schedule(100, kind)
        engine.schedule(100, EventKind.MASTER_EMIT)  # order 2
        assert engine.run_until(100, EventKind.SOUTHBOUND_ARRIVED) == 0
        assert seen == [] and engine.now == 100
        assert not engine.has_run(100, EventKind.SOUTHBOUND_ARRIVED, 0)
        assert engine.run_until(100, EventKind.MASTER_EMIT) == 1
        assert seen == [EventKind.SOUTHBOUND_ARRIVED]
        assert not engine.has_run(100, EventKind.MASTER_EMIT, 0)
        # a step past the slot is never undone by running to it again
        engine.step()
        assert engine.run_until(100, EventKind.MASTER_EMIT) == 0
        assert engine.has_run(100, EventKind.MASTER_EMIT, 0)
        assert engine.run_until(100) == 1
        assert seen == [*EventKind, EventKind.MASTER_EMIT]

    def test_step_runs_one_event_and_can_stop_mid_instant(self):
        engine = Engine()
        seen = []
        engine.on(EventKind.SOUTHBOUND_ARRIVED, lambda: seen.append("arrival"))
        engine.on(EventKind.MASTER_EMIT, seen.append)
        engine.schedule(100, EventKind.MASTER_EMIT, 1, order=1)
        engine.schedule(100, EventKind.MASTER_EMIT, 0, order=0)
        engine.step()
        assert seen == [0]
        assert (engine.now, engine.next_time_ns()) == (100, 100)
        # an arrival handed in now still runs before the queued emission
        engine.schedule(100, EventKind.SOUTHBOUND_ARRIVED)
        assert engine.run_until(100) == 2
        assert seen[1:] == ["arrival", 1]

    def test_schedule_at_now_runs_after_queued(self):
        engine = Engine()
        seen = []

        def first():
            seen.append("first")
            engine.schedule(engine.now, EventKind.SOUTHBOUND_ARRIVED)

        engine.on(EventKind.MASTER_EMIT, first)
        engine.on(EventKind.SOUTHBOUND_ARRIVED, lambda: seen.append("second"))
        engine.schedule(50, EventKind.MASTER_EMIT)
        engine.run_until(50)
        assert seen == ["first", "second"]

    def test_scheduling_in_past(self):
        engine = Engine()
        engine.run_until(100)
        with pytest.raises(SchedulingInPast):
            engine.schedule(99, EventKind.MASTER_EMIT)

    def test_run_until_into_the_past_raises(self):
        engine = Engine()
        engine.run_until(100)
        with pytest.raises(SchedulingInPast, match=r"^cannot run to 99, clock is 100$"):
            engine.run_until(99)
        assert engine.now == 100

    def test_clock_monotone_over_processing(self):
        engine = Engine()
        times = []
        engine.on(EventKind.MASTER_EMIT, lambda: times.append(engine.now))
        for t in (5, 1, 9, 9, 2):
            engine.schedule(t, EventKind.MASTER_EMIT)
        engine.run_until(10)
        assert times == sorted(times)

    def test_event_without_handler_is_consumed(self):
        engine = Engine()
        engine.schedule(40, EventKind.SOUTHBOUND_ARRIVED, "no one listens")
        engine.step()
        assert (engine.now, engine.next_time_ns()) == (40, None)
        engine.schedule(70, EventKind.MASTER_EMIT)
        assert engine.run_until(100) == 1
        assert (engine.now, engine.next_time_ns()) == (100, None)

    def test_second_registration_replaces_first(self):
        engine = Engine()
        seen = []
        engine.on(EventKind.MASTER_EMIT, lambda: seen.append("first"))
        engine.on(EventKind.MASTER_EMIT, lambda: seen.append("second"))
        engine.schedule(10, EventKind.MASTER_EMIT)
        assert engine.run_until(10) == 1
        assert seen == ["second"]


class TestSplitMix64:
    def golden(self):
        with open(GOLDEN_PATH) as fh:
            return json.load(fh)

    def test_raw_stream_matches_golden(self):
        golden = self.golden()
        for seed_text, expected in golden["raw_u64"].items():
            rng = SplitMix64(int(seed_text))
            assert [rng.next_u64() for _ in range(len(expected))] == expected

    def test_uniform_draws_match_golden(self):
        golden = self.golden()
        for seed_text, rows in golden["uniform_draws"].items():
            rng = SplitMix64(int(seed_text))
            for lo, hi, expected in rows:
                assert rng.uniform_draw(lo, hi) == expected

    def test_readme_constants_are_the_code_constants(self):
        with open(README_PATH, encoding="utf-8") as fh:
            readme = fh.read()
        determinism = readme.split("## Determinism", 1)[1].split("\n## ", 1)[0]
        documented = {int(text, 16) for text in HEX64.findall(determinism)}
        # every 64-bit int literal in the engine's code, docstrings aside
        tree = ast.parse(inspect.getsource(engine_module))
        in_code = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
                   and type(node.value) is int and node.value > 0xFFFFFFFF}
        assert len(documented) == 3
        assert documented == in_code

    def test_lo_equals_hi(self):
        rng = SplitMix64(42)
        before = rng.state
        assert rng.uniform_draw(7, 7) == 7
        assert rng.state != before  # degenerate draw still consumes a step
        stepped = SplitMix64(42)
        stepped.next_u64()
        assert rng.state == stepped.state  # exactly one

    def test_lo_above_hi(self):
        with pytest.raises(ValueError):
            SplitMix64(0).uniform_draw(1, 0)

    def test_mean_within_three_sigma(self):
        c = 32_000
        n = 100_000
        rng = SplitMix64(20260825)
        total = sum(rng.uniform_draw(0, c - 1) for _ in range(n))
        mean = total / n
        sigma_mean = ((c * c - 1) / 12) ** 0.5 / n**0.5
        assert abs(mean - (c - 1) / 2) < 3 * sigma_mean

    def test_determinism_same_seed(self):
        a = SplitMix64(123)
        b = SplitMix64(123)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]
