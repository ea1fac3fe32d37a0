"""Acceptance gate: ten pinned criteria, one printed PASS/FAIL line each.

 1 single-chain latency    min == 90000 ns; max in [118800, 122800];
                           spread in [28800, 32800]
 2 multi-master latency    min == 100000 ns; max in [177650, 196350]
 3 per-device scaling      best-case slope in [891, 909] ns/device
 4 thousand-rack worst     4 masters == 412000 ns; 6 masters in [332500, 367500]
 5 pdo-cycle reduction     structural delta == 48000 ns, within 3000 of 50000
 6 closed-form agreement   every simulated config time equals the analytic
                           oracle, zero tolerance
 7 wire-format conformance pinned byte vectors; 10^4 random frames survive
                           encode/decode; working counters 8 (LWR) / 24 (LRW)
 8 bit-exact reruns        both presets write byte-identical CSV, trace and
                           stats files when run twice, equal to the golden
                           files under tests/data/golden/
 9 resource bookkeeping    10^4 allocate/release ops match a brute-force
                           free-word ledger, words conserved after each op
10 cyclic emission         with a write due at each of 20 boundaries, every
                           master emits once a cycle; every emission on a PDO
                           boundary; PDO waits inside [0, cycle) and uniform
                           by KS at the 1% level
"""

import os
import random

import pytest

from meowsim.bench import (
    default_worst_base_ns,
    extrapolate_worst,
    pdo_reduction_analysis,
    racks_to_devices_per_segment,
    run_scenario,
    sweep_devices,
    with_pdo_cycle,
)
from meowsim.codec import (
    EcatCmd,
    EcatDatagram,
    EcatFrame,
    apply_datagram,
    decode_frame,
    encode_frame,
)
from meowsim.controller import DeviceController
from meowsim.engine import Engine, EventKind
from meowsim.errors import NoCapacity
from meowsim.netctl import NetworkController, OcsResourceModel, PathState
from meowsim.scenario import PRESET_NAMES, load_preset
from meowsim.simulation import analytic_latency
from meowsim.topology import SegmentSpec, TimingParams, Topology

from conftest import ks_critical_value, ks_statistic_uniform

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data", "golden")

# -- shared runs --------------------------------------------------------------

@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Each preset simulated twice, exports kept for the rerun comparison."""
    out = {}
    for name in PRESET_NAMES:
        scenario = load_preset(name)
        first = run_scenario(
            scenario, out_dir=str(tmp_path_factory.mktemp(f"{name}_first"))
        )
        second = run_scenario(
            scenario, out_dir=str(tmp_path_factory.mktemp(f"{name}_second"))
        )
        out[name] = (first, second)
    return out


@pytest.fixture(scope="module")
def sweep():
    base = load_preset("exp1").with_changes(num_requests=200, outputs=None)
    return sweep_devices(base, range(1, 9))


def record(criterion, number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number:02d} {name:<26s} {status}  {detail}"
    criterion(line)
    assert ok, line


# -- criteria ------------------------------------------------------------------

def test_criterion_01_single_chain_latency(runs, criterion):
    stats = runs["exp1"][0].stats
    ok = (
        stats.min_ns == 90_000
        and 118_800 <= stats.max_ns <= 122_800
        and 28_800 <= stats.jitter_ns <= 32_800
    )
    record(
        criterion, 1, "single-chain latency", ok,
        f"min {stats.min_ns} max {stats.max_ns} spread {stats.jitter_ns} ns "
        f"over {stats.count} requests",
    )


def test_criterion_02_multi_master_latency(runs, criterion):
    stats = runs["exp2"][0].stats
    ok = stats.min_ns == 100_000 and 177_650 <= stats.max_ns <= 196_350
    record(
        criterion, 2, "multi-master latency", ok,
        f"min {stats.min_ns} max {stats.max_ns} ns over {stats.count} requests",
    )


def test_criterion_03_per_device_scaling(sweep, criterion):
    slope = sweep.slope_ns_per_device
    ok = 891.0 <= slope <= 909.0
    best = {p.device_count: p.best_ns for p in sweep.points}
    record(
        criterion, 3, "per-device scaling", ok,
        f"slope {slope:.1f} ns/device, best {best[1]}..{best[8]} ns for 1..8",
    )


def test_criterion_04_thousand_rack_worst(sweep, criterion):
    base = default_worst_base_ns()
    slope = sweep.slope_ns_per_device
    four = extrapolate_worst(base, slope, racks_to_devices_per_segment(1_000, 4))
    six = extrapolate_worst(base, slope, racks_to_devices_per_segment(1_000, 6))
    ok = four == 412_000 and 332_500 <= six <= 367_500
    record(
        criterion, 4, "thousand-rack worst case", ok,
        f"base {base} ns, 4 masters {four} ns, 6 masters {six} ns",
    )


def test_criterion_05_pdo_cycle_reduction(criterion):
    hi = load_preset("exp2").with_changes(outputs=None)
    comparison = pdo_reduction_analysis(
        hi, with_pdo_cycle(hi, 32_000), run_empirical=False
    )
    delta = comparison.structural_delta_ns
    ok = delta == 48_000 and abs(delta - 50_000) <= 3_000
    record(
        criterion, 5, "pdo-cycle reduction", ok,
        f"worst {comparison.structural_worst_hi_ns} -> "
        f"{comparison.structural_worst_lo_ns} ns, delta {delta} ns",
    )


def test_criterion_06_closed_form_agreement(runs, criterion):
    checked = mismatches = 0
    for name in PRESET_NAMES:
        result = runs[name][0]
        scenario = result.scenario
        timing = scenario.topology.timing
        seg_m, dev_m = scenario.measurement
        rank = scenario.topology.device_rank(seg_m, dev_m)
        for trace in result.traces:
            seg_trace = trace.segments[seg_m]
            wait = seg_trace.emit_ns - seg_trace.staged_ns
            expected = analytic_latency(
                timing, scenario.topology.segment_count, rank, wait,
                seg_trace.jitter_ns,
            )
            checked += 1
            if expected != trace.latch_ns(seg_m, dev_m) - trace.t_generated_ns:
                mismatches += 1
    ok = mismatches == 0 and checked == 2_000
    record(
        criterion, 6, "closed-form agreement", ok,
        f"{checked} requests cross-checked, {mismatches} mismatches",
    )


def test_criterion_07_wire_format_conformance(criterion):
    # pinned vectors, frozen independently of the codec module
    nop = EcatFrame((EcatDatagram(cmd=EcatCmd.NOP),))
    pinned_ok = encode_frame(nop) == bytes.fromhex("0c10" + "00" * 12)
    lwr = EcatFrame((EcatDatagram(cmd=EcatCmd.LWR, data=b"\xEF\xBE"),))
    lwr_raw = bytes.fromhex("0e100b000000000002000000efbe0000")
    pinned_ok = pinned_ok and encode_frame(lwr) == lwr_raw
    pinned_ok = pinned_ok and decode_frame(lwr_raw) == lwr

    rng = random.Random(0xACCE97)
    commands = list(EcatCmd)
    roundtrips = failures = 0
    for _ in range(10_000):
        datagrams = [
            EcatDatagram(
                cmd=rng.choice(commands),
                idx=rng.randrange(256),
                address=rng.randrange(1 << 32),
                data=rng.randbytes(rng.randrange(33)),
                circulating=rng.random() < 0.1,
                irq=rng.randrange(1 << 16),
                wkc=rng.randrange(1 << 16),
            )
            for _ in range(rng.randint(1, 3))
        ]
        frame = EcatFrame(datagrams)
        raw = encode_frame(frame)
        decoded = decode_frame(raw)
        roundtrips += 1
        if decoded != frame or encode_frame(decoded) != raw:
            failures += 1

    def walk_wkc(cmd):
        dgram = EcatDatagram(cmd=cmd, data=bytes(16))
        total = 0
        for position in range(8):
            word, data, inc = apply_datagram(0x1234, dgram, 2 * position)
            dgram = EcatDatagram(cmd=cmd, data=data)
            total += inc
        return total

    wkc_ok = walk_wkc(EcatCmd.LWR) == 8 and walk_wkc(EcatCmd.LRW) == 24
    ok = pinned_ok and failures == 0 and roundtrips == 10_000 and wkc_ok
    record(
        criterion, 7, "wire-format conformance", ok,
        f"pinned vectors {'ok' if pinned_ok else 'BAD'}, "
        f"{roundtrips} roundtrips with {failures} failures, "
        f"wkc LWR {walk_wkc(EcatCmd.LWR)} LRW {walk_wkc(EcatCmd.LRW)}",
    )


def test_criterion_08_bit_exact_reruns(runs, criterion):
    compared = 0
    identical = True
    golden_mismatches = []
    for name in PRESET_NAMES:
        first, second = runs[name]
        for kind in ("csv", "trace", "stats"):
            with open(first.written[kind], "rb") as fh:
                a = fh.read()
            with open(second.written[kind], "rb") as fh:
                b = fh.read()
            filename = os.path.basename(first.written[kind])
            with open(os.path.join(GOLDEN_DIR, filename), "rb") as fh:
                golden = fh.read()
            if a != golden:
                golden_mismatches.append(filename)
            compared += 1
            identical = identical and a == b and len(a) > 0
    ok = identical and compared == 6 and not golden_mismatches
    record(
        criterion, 8, "bit-exact reruns", ok,
        f"{compared} export files compared across reruns of both presets; "
        f"golden mismatches: {', '.join(golden_mismatches) or 'none'}",
    )


def test_criterion_09_resource_bookkeeping(criterion):
    topology = Topology(
        segments=(SegmentSpec(device_count=2),),
        timing=TimingParams(pdo_cycle_ns=32_000),
    )
    words = 16

    def reference_first_fit(free):
        for key in sorted(free):
            if free[key]:
                return key + (min(free[key]),)
        return None

    ops = mismatches = 0
    for sequence in range(25):
        rng = random.Random(1_000 + sequence)
        controller = NetworkController(OcsResourceModel(topology, words),
                                       DeviceController(Engine(seed=0), topology))
        free = {(0, d): set(range(1, words + 1)) for d in range(2)}
        every_word = frozenset(range(1, words + 1))
        live = []
        for _ in range(400):
            ops += 1
            if rng.random() < 0.55 or not live:
                expect = reference_first_fit(free)
                if expect is None:
                    try:
                        controller.allocate("a", "b")
                        mismatches += 1
                    except NoCapacity:
                        pass
                else:
                    entry = controller.allocate("a", "b")
                    if entry.hops != (expect,):
                        mismatches += 1
                    free[expect[:2]].discard(expect[2])
                    entry.state = PathState.ACTIVE
                    live.append(entry.path_id)
            else:
                path_id = live.pop(rng.randrange(len(live)))
                hop = controller.table[path_id].hops[0]
                controller.release(path_id)
                free[hop[:2]].add(hop[2])
            # the model records the words held: the complement of the free sets
            snapshot = {k: frozenset(v) for k, v in controller.resources.held.items()}
            if snapshot != {k: every_word - v for k, v in free.items()}:
                mismatches += 1
            controller.check_conservation()
    ok = mismatches == 0 and ops == 10_000
    record(
        criterion, 9, "resource bookkeeping", ok,
        f"{ops} ops across 25 sequences, {mismatches} ledger mismatches",
    )


def test_criterion_10_cyclic_emission(runs, criterion, dispatches):
    periodic = True
    for name in PRESET_NAMES:
        topology = load_preset(name).topology
        dispatches.clear()
        engine = Engine(seed=0)
        controller = DeviceController(engine, topology)
        cycle = topology.timing.pdo_cycle_ns
        # masters emit only where writes are due: put one on every master at
        # each of 20 consecutive boundaries (each stages within one cycle)
        heads = [(s, 0, 1) for s in range(topology.segment_count)]
        for k in range(20):
            controller.submit(k, heads, k * cycle)
        engine.run_until(40 * cycle)
        for segment in range(topology.segment_count):
            times = [
                t for t, kind, args in dispatches
                if kind is EventKind.MASTER_EMIT and args == (segment,)
            ]
            periodic = periodic and len(times) >= 19
            periodic = periodic and all(
                b - a == cycle for a, b in zip(times, times[1:])
            )

    for result, _ in runs.values():
        topology = result.scenario.topology
        for trace in result.traces:
            for s, seg_trace in trace.segments.items():
                phase = topology.segments[s].phase_ns
                periodic = periodic and (
                    (seg_trace.emit_ns - phase) % topology.timing.pdo_cycle_ns == 0)

    exp1 = runs["exp1"][0]
    cycle1 = exp1.scenario.topology.timing.pdo_cycle_ns
    waits = [
        t.segments[0].emit_ns - t.segments[0].staged_ns for t in exp1.traces
    ]
    bounds_ok = all(0 <= w < cycle1 for w in waits)
    ks = ks_statistic_uniform(waits, 0, cycle1)
    ks_bound = ks_critical_value(len(waits))

    exp2 = runs["exp2"][0]
    cycle2 = exp2.scenario.topology.timing.pdo_cycle_ns
    for trace in exp2.traces:
        for seg_trace in trace.segments.values():
            bounds_ok = bounds_ok and 0 <= seg_trace.emit_ns - seg_trace.staged_ns < cycle2

    ok = periodic and bounds_ok and ks < ks_bound
    record(
        criterion, 10, "cyclic emission", ok,
        f"boundaries periodic, waits in [0, cycle), "
        f"KS {ks:.4f} < {ks_bound:.4f} (n={len(waits)})",
    )
