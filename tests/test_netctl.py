"""Network controller: flow detection, OCS words, path lifecycle."""

import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from meowsim.controller import DeviceController
from meowsim.engine import Engine
from meowsim.errors import DuplicateRequestId, NoCapacity, UnknownPath, WrongState, WrongType
from meowsim.netctl import (
    FlowStats,
    NetworkController,
    OcsResourceModel,
    OpticalPathEntry,
    PathState,
    ProactiveRule,
)
from meowsim.scenario import load_preset
from meowsim.topology import MAX_SEGMENTS, MAX_SEGMENT_DEVICES, SegmentSpec, TimingParams, Topology


def mini_topology(devices=2):
    return Topology(
        segments=(SegmentSpec(device_count=devices),),
        timing=TimingParams(pdo_cycle_ns=32_000),
    )


def network_controller(topology=None, words_per_device=16):
    """A NetworkController on its own DeviceController and engine."""
    topology = topology or mini_topology()
    return NetworkController(OcsResourceModel(topology, words_per_device),
                             DeviceController(Engine(seed=0), topology))


# -- reference matchers: the per-flow definition detect_flows must equal ------

def matches(rule: ProactiveRule, flow: FlowStats) -> bool:
    """Whether the rule matches the flow; a None field in the rule matches anything."""
    return (
        (rule.src_tor is None or rule.src_tor == flow.src_tor)
        and (rule.dst_tor is None or rule.dst_tor == flow.dst_tor)
        and (rule.service_tag is None or rule.service_tag == flow.service_tag)
    )


def detect_large_flow_reactive(stats, threshold_bps: int):
    """Flows at or above the rate threshold, in input order (>= convention)."""
    if threshold_bps <= 0:
        raise ValueError(f"threshold_bps must be positive, got {threshold_bps}")
    return [f.flow_id for f in stats if f.rate_bps >= threshold_bps]


def match_proactive_rules(flow: FlowStats, rules):
    """Rule id of the highest-priority matching rule, or None.

    Priorities must be unique; ties are a configuration error.
    """
    rules = list(rules)
    priorities = [r.priority for r in rules]
    if len(set(priorities)) != len(priorities):
        raise ValueError("rule priorities must be unique")
    matching = [r for r in rules if matches(r, flow)]
    if not matching:
        return None
    return max(matching, key=lambda r: r.priority).rule_id


def flows():
    return [
        FlowStats("f1", "tor1", "tor2", 900_000_000),
        FlowStats("f2", "tor1", "tor3", 40_000_000),
        FlowStats("f3", "tor2", "tor3", 100_000_000, service_tag="storage"),
    ]


class TestFlowDetection:
    def test_reactive_threshold_is_inclusive(self):
        assert detect_large_flow_reactive(flows(), 100_000_000) == ["f1", "f3"]
        assert detect_large_flow_reactive(flows(), 100_000_001) == ["f1"]

    def test_reactive_needs_positive_threshold(self):
        with pytest.raises(ValueError):
            detect_large_flow_reactive(flows(), 0)

    def test_proactive_highest_priority_wins(self):
        rules = [
            ProactiveRule("any-tor1", priority=1, src_tor="tor1"),
            ProactiveRule("tor1-tor2", priority=5, src_tor="tor1", dst_tor="tor2"),
        ]
        assert match_proactive_rules(flows()[0], rules) == "tor1-tor2"
        assert match_proactive_rules(flows()[1], rules) == "any-tor1"
        assert match_proactive_rules(flows()[2], rules) is None

    def test_wildcard_fields(self):
        rule = ProactiveRule("storage", priority=1, service_tag="storage")
        assert matches(rule, flows()[2])
        assert not matches(rule, flows()[0])

    def test_duplicate_priorities_rejected(self):
        rules = [ProactiveRule("a", 1), ProactiveRule("b", 1)]
        with pytest.raises(ValueError, match="unique"):
            match_proactive_rules(flows()[0], rules)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            FlowStats("f", "a", "b", -1)

    def test_controller_report_prefers_proactive(self):
        nc = network_controller()
        nc.add_rule(ProactiveRule("storage", priority=2, service_tag="storage"))
        report = nc.detect_flows(flows(), threshold_bps=100_000_000)
        assert report == [
            {"flow_id": "f1", "mode": "reactive", "rule_id": None},
            {"flow_id": "f3", "mode": "proactive", "rule_id": "storage"},
        ]

    @settings(max_examples=300, deadline=None)
    @given(
        # priorities in random insertion order; few field values, so that
        # several rules share one shape (the fields they constrain) and key
        rules=st.lists(
            st.tuples(st.integers(0, 30), st.sampled_from([None, "t1", "t2"]),
                      st.sampled_from([None, "t1", "t2"]),
                      st.sampled_from([None, "storage", "web"])),
            max_size=12, unique_by=lambda r: r[0]),
        flows=st.lists(
            st.tuples(st.sampled_from(["t1", "t2", "t3"]), st.sampled_from(["t1", "t2", "t3"]),
                      st.integers(0, 10), st.sampled_from([None, "storage", "web"])),
            max_size=40),
        threshold=st.integers(1, 10),
    )
    def test_report_equals_per_flow_match(self, rules, flows, threshold):
        nc = network_controller()
        for i, (priority, src, dst, tag) in enumerate(rules):
            nc.add_rule(ProactiveRule(f"r{i}", priority, src, dst, tag))
        stats = [FlowStats(f"f{i}", src, dst, rate, tag)
                 for i, (src, dst, rate, tag) in enumerate(flows)]
        reactive = detect_large_flow_reactive(stats, threshold)
        expected = []
        for flow in stats:
            rule_id = match_proactive_rules(flow, nc.rules.values())
            if rule_id is not None:
                expected.append({"flow_id": flow.flow_id, "mode": "proactive",
                                 "rule_id": rule_id})
            elif flow.flow_id in reactive:
                expected.append({"flow_id": flow.flow_id, "mode": "reactive",
                                 "rule_id": None})
        assert nc.detect_flows(stats, threshold) == expected
        assert nc.detect_flows(iter(stats), threshold) == expected

    def test_iterator_input_reports_as_list(self):
        nc = network_controller()
        nc.add_rule(ProactiveRule("storage", priority=2, service_tag="storage"))
        stats = flows() + [FlowStats("a", "t1", "t2", 50)]
        report = nc.detect_flows(stats, threshold_bps=10)
        assert [r["flow_id"] for r in report] == ["f1", "f2", "f3", "a"]
        assert nc.detect_flows(iter(stats), threshold_bps=10) == report
        assert nc.detect_flows(iter([FlowStats("a", "t1", "t2", 50)]), 10) == [
            {"flow_id": "a", "mode": "reactive", "rule_id": None}]

    @pytest.mark.parametrize("threshold", [0, -1])
    def test_threshold_checked_before_any_flow_is_read(self, threshold):
        nc = network_controller()
        nc.add_rule(ProactiveRule("any", priority=1))
        nc.add_rule(ProactiveRule("storage", priority=2, service_tag="storage"))
        read = []

        def stats():
            for flow in flows():
                read.append(flow)
                yield flow

        with pytest.raises(ValueError, match=f"threshold_bps must be positive, got {threshold}"):
            nc.detect_flows(stats(), threshold)
        assert read == []

    def test_range_errors_quote_200_characters_of_an_integer(self):
        huge = -10 ** 4000
        with pytest.raises(ValueError) as info:
            FlowStats("f", "tor1", "tor2", rate_bps=huge)
        assert str(info.value) == "rate_bps must be >= 0, got " + str(huge)[:200]
        with pytest.raises(ValueError) as info:
            network_controller().detect_flows([], huge)
        assert str(info.value) == "threshold_bps must be positive, got " + str(huge)[:200]

    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0), (1, 2, 0)])
    def test_same_shape_and_key_highest_priority_wins(self, order):
        rules = [ProactiveRule("low", 1, src_tor="tor1", dst_tor="tor2"),
                 ProactiveRule("high", 9, src_tor="tor1", dst_tor="tor2"),
                 ProactiveRule("mid", 5, src_tor="tor1", dst_tor="tor2")]
        nc = network_controller()
        for i in order:
            nc.add_rule(rules[i])
        assert nc.detect_flows(flows(), threshold_bps=10**12) == [
            {"flow_id": "f1", "mode": "proactive", "rule_id": "high"}]

    def test_match_all_rule_loses_to_higher_priority_only(self):
        nc = network_controller()
        nc.add_rule(ProactiveRule("any", priority=3))
        nc.add_rule(ProactiveRule("tor1", priority=5, src_tor="tor1"))
        nc.add_rule(ProactiveRule("storage", priority=1, service_tag="storage"))
        assert [r["rule_id"] for r in nc.detect_flows(flows(), 10**12)] == [
            "tor1", "tor1", "any"]

    def test_each_flow_judged_by_its_own_rate(self):
        # a repeated flow id does not carry one flow's rate over to another
        nc = network_controller()
        stats = [FlowStats("x", "a", "b", 5), FlowStats("x", "a", "b", 50)]
        assert nc.detect_flows(stats, threshold_bps=10) == [
            {"flow_id": "x", "mode": "reactive", "rule_id": None}]

    def test_add_rule_uniqueness(self):
        nc = network_controller()
        nc.add_rule(ProactiveRule("a", 1))
        with pytest.raises(ValueError, match="id"):
            nc.add_rule(ProactiveRule("a", 2))
        with pytest.raises(ValueError, match="priority"):
            nc.add_rule(ProactiveRule("b", 1))


class TestResourceModel:
    def test_first_fit_order(self):
        res = OcsResourceModel(mini_topology(), words_per_device=2)
        assert res.first_fit() == (0, 0, 1)
        res.take(0, 0, 1)
        assert res.first_fit() == (0, 0, 2)
        res.take(0, 0, 2)
        assert res.first_fit() == (0, 1, 1)

    def test_word_zero_is_never_allocatable(self):
        res = OcsResourceModel(mini_topology(), words_per_device=16)
        hops = []
        while (hop := res.first_fit()) is not None:
            res.take(*hop)
            hops.append(hop)
        assert hops == [(0, d, w) for d in range(2) for w in range(1, 17)]
        fresh = OcsResourceModel(mini_topology(), words_per_device=16)
        for word in (0, 17):  # outside 1 .. words_per_device
            with pytest.raises(KeyError):
                fresh.take(0, 0, word)
        assert fresh.held == {(0, 0): set(), (0, 1): set()}

    def test_double_free_caught(self):
        res = OcsResourceModel(mini_topology(), words_per_device=1)
        res.take(0, 0, 1)
        res.give_back(0, 0, 1)
        with pytest.raises(AssertionError, match="^double free$"):
            res.give_back(0, 0, 1)

    def test_give_back_of_a_word_never_taken_caught(self):
        res = OcsResourceModel(load_preset("exp1").topology)
        for word in (99, 5):  # beyond words_per_device, and in range but free
            with pytest.raises(AssertionError, match="^double free$"):
                res.give_back(0, 0, word)
        assert not any(res.held.values())

    def test_take_of_a_held_word_refused(self):
        res = OcsResourceModel(mini_topology(), words_per_device=4)
        res.take(0, 1, 3)
        with pytest.raises(KeyError):
            res.take(0, 1, 3)
        assert res.held == {(0, 0): set(), (0, 1): {3}}

    def test_words_per_device_bounds(self):
        with pytest.raises(ValueError):
            OcsResourceModel(mini_topology(), words_per_device=0)
        with pytest.raises(ValueError):
            OcsResourceModel(mini_topology(), words_per_device=0x10000)

    @pytest.mark.parametrize("words", [True, 16.0, "16", None])
    def test_words_per_device_must_be_an_int(self, words):
        with pytest.raises(WrongType, match=r"^words_per_device must be an integer, got "):
            OcsResourceModel(mini_topology(), words_per_device=words)


class TestHeldWordCount:
    """The model records the words it holds: state grows with live paths, not capacity."""

    @staticmethod
    def largest_topology():
        return Topology(
            segments=(SegmentSpec(device_count=MAX_SEGMENT_DEVICES),) * MAX_SEGMENTS,
            timing=TimingParams(pdo_cycle_ns=32_000),
        )

    @pytest.mark.parametrize("words", [1, 0xFFFF])
    def test_a_new_model_holds_no_word(self, words):
        res = OcsResourceModel(self.largest_topology(), words_per_device=words)
        assert len(res.held) == 6 * 743
        assert sum(map(len, res.held.values())) == 0

    @pytest.mark.parametrize("words", [1, 0xFFFF])
    def test_held_words_equal_live_paths(self, words):
        topology = self.largest_topology()
        nc = NetworkController(OcsResourceModel(topology, words),
                               DeviceController(Engine(seed=0), topology))
        rng = random.Random(33)
        live = []
        for _ in range(2_000):
            if rng.random() < 0.6 or not live:
                entry = nc.allocate("a", "b")
                entry.state = PathState.ACTIVE  # skip the simulated configure
                live.append(entry.path_id)
            else:
                nc.release(live.pop(rng.randrange(len(live))))
            assert sum(map(len, nc.resources.held.values())) == len(live)
        assert 0 < len(live) < 2_000
        nc.check_conservation()


class TestPathFunctions:
    """The path lifecycle through NetworkController, without running a configure."""

    def test_allocate_reserves_first_fit(self):
        nc = network_controller(words_per_device=2)
        a = nc.allocate("tor1", "tor2")
        b = nc.allocate("tor1", "tor3")
        assert a.hops == ((0, 0, 1),)
        assert b.hops == ((0, 0, 2),)
        assert a.state is b.state is PathState.RESERVED

    def test_allocate_requires_distinct_tors(self):
        with pytest.raises(ValueError):
            network_controller().allocate("t", "t")

    def test_no_capacity(self):
        nc = network_controller(words_per_device=1)
        nc.allocate("a", "b")
        nc.allocate("a", "c")
        with pytest.raises(NoCapacity):
            nc.allocate("a", "d")

    def test_failed_allocate_uses_no_path_id(self):
        nc = network_controller(words_per_device=1)
        nc.allocate("a", "b")
        with pytest.raises(ValueError):
            nc.allocate("c", "c")
        assert nc.allocate("a", "c").path_id == 2
        with pytest.raises(NoCapacity):
            nc.allocate("a", "d")
        nc.table[1].state = PathState.ACTIVE  # as if configured
        nc.release(1)
        assert nc.allocate("a", "d").path_id == 3
        assert sorted(nc.table) == [1, 2, 3]

    def test_released_word_is_reused(self):
        nc = network_controller(words_per_device=1)
        entry = nc.allocate("a", "b")
        entry.state = PathState.ACTIVE  # as if configured
        nc.release(1)
        again = nc.allocate("a", "c")
        assert again.hops == entry.hops

    def test_release_needs_active(self):
        nc = network_controller()
        nc.allocate("a", "b")
        with pytest.raises(WrongState):
            nc.release(1)  # still Reserved

    def test_unknown_path(self):
        with pytest.raises(UnknownPath):
            network_controller().release(42)

    def test_entry_needs_hops(self):
        with pytest.raises(ValueError):
            OpticalPathEntry(path_id=1, src_tor="a", dst_tor="b", hops=())


class TestLifecycleWithSimulation:
    def make(self):
        engine = Engine(seed=0)
        topo = mini_topology()
        dc = DeviceController(engine, topo)
        nc = NetworkController(OcsResourceModel(topo, words_per_device=4), dc)
        return engine, dc, nc

    def test_full_lifecycle(self):
        engine, dc, nc = self.make()
        entry = nc.allocate("tor1", "tor2")
        assert entry.state is PathState.RESERVED
        nc.activate(entry.path_id)
        assert entry.state is PathState.CONFIGURING
        assert nc.wait(entry.path_id) is entry
        assert entry.state is PathState.ACTIVE
        # submitted at engine time 0: stage 70000, boundary 96000, rank 1
        assert entry.config_time_ns == 109_700
        nc.release(entry.path_id)
        assert entry.state is PathState.RELEASED
        nc.check_conservation()

    def test_activate_and_wait(self):
        engine, dc, nc = self.make()
        entry = nc.allocate("tor1", "tor2")
        same = nc.activate_and_wait(entry.path_id)
        assert same is entry
        assert entry.state is PathState.ACTIVE
        assert entry.config_time_ns is not None

    def test_double_activate_rejected(self):
        engine, dc, nc = self.make()
        entry = nc.allocate("tor1", "tor2")
        nc.activate_and_wait(entry.path_id)
        with pytest.raises(WrongState):
            nc.activate(entry.path_id)

    def test_double_release_rejected(self):
        engine, dc, nc = self.make()
        entry = nc.allocate("tor1", "tor2")
        nc.activate_and_wait(entry.path_id)
        nc.release(entry.path_id)
        with pytest.raises(WrongState):
            nc.release(entry.path_id)

    def test_failed_activate_leaves_the_entry_reserved(self):
        engine, dc, nc = self.make()
        # request id 1, the one the network controller hands out first, is taken
        dc.submit(1, [(0, 1, 7)], 0)
        entry = nc.allocate("tor1", "tor2")
        with pytest.raises(DuplicateRequestId):
            nc.activate(entry.path_id)
        assert entry.state is PathState.RESERVED
        assert entry.request_id is None
        dc.run_until_complete(1)  # not this path's request: the path stays Reserved
        assert entry.state is PathState.RESERVED
        assert entry.config_time_ns is None
        assert list(dc.traces) == [1]  # the failed activate recorded nothing

    def test_dump_table(self):
        engine, dc, nc = self.make()
        nc.allocate("tor1", "tor2")
        e2 = nc.allocate("tor2", "tor3")
        nc.activate_and_wait(e2.path_id)
        dump = nc.dump_table()
        assert [row["path_id"] for row in dump] == [1, 2]
        assert dump[0]["state"] == "Reserved"
        assert dump[1]["state"] == "Active"
        assert dump[1]["hops"] == [[0, 0, 2]]
        assert dump[1]["config_time_ns"] == e2.config_time_ns

    def test_conservation_over_many_paths(self):
        engine, dc, nc = self.make()
        active = []
        for k in range(8):  # capacity is 2 devices x 4 words
            entry = nc.allocate("a", f"b{k}")
            nc.activate_and_wait(entry.path_id)
            active.append(entry.path_id)
        with pytest.raises(NoCapacity):
            nc.allocate("a", "z")
        for pid in active[:4]:
            nc.release(pid)
        nc.check_conservation()
        refill = nc.allocate("a", "again")
        assert refill.hops == ((0, 0, 1),)  # lowest word came back
        nc.check_conservation()

    # each corruption stands in for a bookkeeping bug the ledger must catch
    def test_word_held_by_two_paths_caught(self):
        engine, dc, nc = self.make()
        first, second = nc.allocate("a", "b"), nc.allocate("a", "c")
        second.hops = first.hops
        with pytest.raises(AssertionError, match=r"^word 1 on \(0,0\) held twice$"):
            nc.check_conservation()

    def test_word_both_free_and_held_caught(self):
        engine, dc, nc = self.make()
        entry = nc.allocate("a", "b")
        nc.resources.held[(0, 0)].discard(entry.hops[0][2])
        with pytest.raises(AssertionError, match=r"^\(0, 0\): words both free and held$"):
            nc.check_conservation()

    def test_leaked_word_caught(self):
        engine, dc, nc = self.make()
        nc.allocate("a", "b")
        nc.resources.held[(0, 1)].add(3)
        with pytest.raises(AssertionError, match=r"^\(0, 1\): words leaked \(\[3\]\)$"):
            nc.check_conservation()

    def test_corrupted_ledger_caught_under_optimize(self):
        # -O strips assert statements; the ledger check must still raise
        script = """if __debug__:
    raise SystemExit("not running under -O")
from meowsim.controller import DeviceController
from meowsim.engine import Engine
from meowsim.netctl import NetworkController, OcsResourceModel
from meowsim.topology import SegmentSpec, TimingParams, Topology
topo = Topology(segments=(SegmentSpec(device_count=2),),
                timing=TimingParams(pdo_cycle_ns=32_000))
nc = NetworkController(OcsResourceModel(topo, words_per_device=4),
                       DeviceController(Engine(seed=0), topo))
entry = nc.allocate("tor1", "tor2")
nc.resources.held[(0, 0)].discard(entry.hops[0][2])  # a path's word, free in the model
nc.check_conservation()
"""
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert "AssertionError: (0, 0): words both free and held" in proc.stderr

    def test_wait_reads_each_path_from_its_own_trace(self):
        nc = network_controller(words_per_device=1)  # the two paths on two devices
        dc = nc.device_controller
        first, second = nc.allocate("tor1", "tor2"), nc.allocate("tor1", "tor3")
        nc.activate(first.path_id)
        nc.activate(second.path_id)
        nc.wait(second.path_id)
        clock = dc.engine.now
        assert first.state is PathState.CONFIGURING  # finished, but not yet waited on
        # path 1's request finished while the engine ran for path 2's
        nc.wait(first.path_id)
        assert dc.engine.now == clock
        assert first.state is second.state is PathState.ACTIVE
        assert first.config_time_ns == dc.traces[first.request_id].config_time_ns == 109_700
        assert second.config_time_ns == dc.traces[second.request_id].config_time_ns == 110_600

    def test_wait_needs_a_configuring_path(self):
        nc = network_controller(words_per_device=4)
        entry = nc.allocate("tor1", "tor2")
        with pytest.raises(WrongState, match="path 1 is Reserved, not Configuring"):
            nc.wait(entry.path_id)
        nc.activate_and_wait(entry.path_id)
        clock = nc.device_controller.engine.now
        with pytest.raises(WrongState, match="path 1 is Active, not Configuring"):
            nc.wait(entry.path_id)
        with pytest.raises(UnknownPath):
            nc.wait(42)
        assert nc.device_controller.engine.now == clock

    def test_path_state_checked_under_optimize(self):
        # -O strips assert statements; wait must still configure the path
        # and its state check must still raise
        script = """if __debug__:
    raise SystemExit("not running under -O")
from meowsim.controller import DeviceController
from meowsim.engine import Engine
from meowsim.netctl import NetworkController, OcsResourceModel
from meowsim.topology import SegmentSpec, TimingParams, Topology
topo = Topology(segments=(SegmentSpec(device_count=2),),
                timing=TimingParams(pdo_cycle_ns=32_000))
nc = NetworkController(OcsResourceModel(topo, words_per_device=4),
                       DeviceController(Engine(seed=0), topo))
entry = nc.allocate("tor1", "tor2")
nc.activate(entry.path_id)
print(nc.wait(entry.path_id).state.value, entry.config_time_ns)
nc.wait(entry.path_id)
"""
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stdout == "Active 109700\n"
        assert "WrongState: path 1 is Active, not Configuring" in proc.stderr


class BookkeeperReference:
    """Brute-force free-word ledger used to cross-check the resource model."""

    def __init__(self, devices, words):
        self.free = {(0, d): set(range(1, words + 1)) for d in range(devices)}

    def first_fit(self):
        for key in sorted(self.free):
            if self.free[key]:
                return key + (min(self.free[key]),)
        return None

    def take(self, hop):
        self.free[hop[:2]].discard(hop[2])

    def give(self, hop):
        self.free[hop[:2]].add(hop[2])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["alloc", "release"]), min_size=1, max_size=60),
       st.randoms(use_true_random=False))
def test_random_alloc_release_matches_reference(ops, rng):
    devices, words = 2, 3
    topo = mini_topology(devices)
    nc = network_controller(topo, words)
    ref = BookkeeperReference(devices, words)
    every_word = frozenset(range(1, words + 1))  # held is the complement of ref.free
    live = []
    for op in ops:
        if op == "alloc":
            expect = ref.first_fit()
            if expect is None:
                with pytest.raises(NoCapacity):
                    nc.allocate("a", "b")
                continue
            entry = nc.allocate("a", "b")
            assert entry.hops == (expect,)
            ref.take(expect)
            entry.state = PathState.ACTIVE  # skip the simulated configure
            live.append(entry.path_id)
        elif live:
            pid = live.pop(rng.randrange(len(live)))
            hop = nc.table[pid].hops[0]
            nc.release(pid)
            ref.give(hop)
        snapshot = {k: frozenset(v) for k, v in nc.resources.held.items()}
        assert snapshot == {k: every_word - v for k, v in ref.free.items()}
        nc.check_conservation()
