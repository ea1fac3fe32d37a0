"""Seeded differential pin of the event path's emission behaviour.

Each case draws a random topology: 1-4 segments with shared or distinct
phases, a PDO cycle from 1 ns to 32 us, and zero or non-zero southbound,
dispatch, jitter, head, hop and latch delays. It then drives the controller
with a random mix of operations: submit at the current instant or later,
run_until to a boundary or to the current instant, run_until_complete, and
start() called early, late or never. Everything the run produces is hashed
per case and compared with tests/data/emission_pin.txt: every request's
trace, every device's latch history, the masters' words, the error of each
rejected operation and the clock after each operation. The controller
keeps no device history, so the latch histories are recorded beside it by
conftest's LatchRecorder. A second test reruns every case with no
recorder attached and requires all but the latch histories to be equal.

The cases exercise two rules that batch runs never reach:

- a write handed in after the engine has run an instant's emissions waits
  for the next boundary, also when nothing else rides that instant's frame,
  and also when a zero-latency completion stopped run_until_complete
  partway through the instant;
- emissions at one instant run in segment order, so the completions of
  one instant keep their order.

Regenerate the pin with `PYTHONPATH=src python tests/test_emission_pin.py`
only when a change to the timing model is intended.
"""

import hashlib
import json
import os

from meowsim.controller import DeviceController
from meowsim.engine import Engine, SplitMix64
from meowsim.errors import MeowError
from meowsim.simulation import boundary_at_or_after
from meowsim.topology import SegmentSpec, TimingParams, Topology

from conftest import LatchRecorder, master_words

PIN_PATH = os.path.join(os.path.dirname(__file__), "data", "emission_pin.txt")
CASES = 3_000
CYCLES = (1, 2, 3, 5, 8, 100, 999, 32_000)  # plus one random cycle in [1, 32 us]
WORDS = (0x0000, 0x0001, 0x8001, 0xFFFF)


def draw_topology(draw) -> Topology:
    pick = draw(0, len(CYCLES))
    cycle = CYCLES[pick] if pick < len(CYCLES) else draw(1, 32_000)
    n_segments = draw(1, 4)
    layout = draw(0, 2)
    if layout == 0:  # one shared phase
        phases = [draw(0, cycle - 1)] * n_segments
    elif layout == 1:  # a phase per segment (equal only by chance)
        phases = [draw(0, cycle - 1) for _ in range(n_segments)]
    else:  # two phase groups
        pool = (draw(0, cycle - 1), draw(0, cycle - 1))
        phases = [pool[draw(0, 1)] for _ in range(n_segments)]

    def delay() -> int:
        return draw(1, 2 * cycle) if draw(0, 1) else 0

    timing = TimingParams(
        pdo_cycle_ns=cycle, d_sb_ns=delay(), d_mm_ns=delay(),
        d_jitter_max_ns=delay(), d_frame_head_ns=delay(), d_hop_ns=delay(),
        d_latch_ns=delay(),
    )
    return Topology(
        segments=tuple(SegmentSpec(device_count=draw(1, 4), phase_ns=p) for p in phases),
        timing=timing,
    )


def draw_targets(draw, topology: Topology) -> list[tuple[int, int, int]]:
    devices = list(topology.all_targets())
    picks = []
    for _ in range(draw(1, min(4, len(devices)))):
        pick = devices[draw(0, len(devices) - 1)]
        if pick not in picks:
            picks.append(pick)
    if draw(0, 19) == 0:  # a device past the end of its chain
        s, _ = picks[0]
        picks[0] = (s, topology.segments[s].device_count)
    return [
        (s, d, WORDS[draw(0, len(WORDS) - 1)] if draw(0, 3) else draw(0, 0xFFFF))
        for s, d in picks
    ]


def run_case(case: int, record: bool = True) -> dict:
    draw = SplitMix64(case).uniform_draw
    topology = draw_topology(draw)
    cycle = topology.timing.pdo_cycle_ns
    engine = Engine(seed=case)
    ctrl = DeviceController(engine, topology)
    recorder = LatchRecorder(ctrl) if record else None

    n_ops = draw(4, 16)
    start_at = (0, draw(1, n_ops), None)[draw(0, 2)]  # early, late or never
    ops, rids, last_gen = [], [], 0
    for i in range(n_ops):
        if i == start_at:
            ctrl.start()
        op = draw(0, 9)
        error = None
        try:
            if op <= 4:
                now = engine.now
                if op == 4:
                    t_gen = now + draw(0, 2 * cycle)
                elif now and draw(0, 19) == 0:
                    t_gen = now - 1  # in the past
                else:
                    t_gen = now
                rid = rids[draw(0, len(rids) - 1)] if rids and draw(0, 9) == 0 else len(rids)
                targets = draw_targets(draw, topology)
                if rid == len(rids):
                    rids.append(rid)
                last_gen = max(last_gen, t_gen)
                ctrl.submit(rid, targets, t_gen)
            elif op <= 6:
                seg = topology.segments[draw(0, topology.segment_count - 1)]
                boundary = boundary_at_or_after(engine.now, seg.phase_ns, cycle)
                engine.run_until(boundary + draw(0, 2) * cycle)
            elif op == 7:
                engine.run_until(engine.now + (draw(0, cycle) if draw(0, 1) else 0))
            else:
                ctrl.run_until_complete(draw(0, len(rids)))  # one id past the last
        except MeowError as exc:
            error = type(exc).__name__
        ops.append([op, error, engine.now])
    engine.run_until(max(engine.now, last_gen) + ctrl.request_span_ns() + 4 * cycle)

    return {
        "ops": ops,
        "traces": [
            [rid, trace.t_generated_ns, trace.config_time_ns,
             [[s, st.staged_ns, st.jitter_ns, st.emit_ns, st.first_latch_ns]
              for s, st in sorted(trace.segments.items())]]
            for rid, trace in sorted(ctrl.traces.items())
        ],
        "latches": [[s, d, dev.latches] for (s, d), dev in sorted(recorder.devices.items())]
                   if record else None,
        "words": master_words(ctrl),
    }


def case_digest(case: int) -> str:
    blob = json.dumps(run_case(case), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def test_emission_matches_pin():
    with open(PIN_PATH, encoding="utf-8") as fh:
        pinned = fh.read().split()
    assert len(pinned) == CASES
    mismatched = [case for case in range(CASES) if case_digest(case) != pinned[case]]
    assert mismatched == [], f"{len(mismatched)} cases differ, first {mismatched[:10]}"


def test_emission_does_not_depend_on_the_recorder():
    # the pin records latches; without the recorder, every operation,
    # error, clock, trace and word must be the same
    for case in range(CASES):
        recorded, unrecorded = run_case(case), run_case(case, record=False)
        assert unrecorded.pop("latches") is None
        recorded.pop("latches")
        assert recorded == unrecorded, case


if __name__ == "__main__":
    with open(PIN_PATH, "w", encoding="utf-8") as fh:
        for case in range(CASES):
            fh.write(case_digest(case) + "\n")
