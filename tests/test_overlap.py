"""Overlapping requests on the event path, pinned by a golden file.

Batch exports space requests MIN_SPACING_CYCLES apart, so they never put two
requests in one frame. These runs do: seeded requests are generated a few
microseconds apart (some at the same instant), each is handed to submit
while the engine is driven with run_until, and several requests target the
same device in one cycle. That covers frame sharing, last-writer-wins per
output word, equal staging times (staging order breaks the tie), deferral
to the next boundary (d_sb_ns = 0 hands a request in after that instant's
frame was built) and latches longer than the PDO cycle.

Regenerate the golden file with `PYTHONPATH=src python tests/test_overlap.py`
only when a change to the timing model is intended.
"""

import json
import os

import pytest

from meowsim.controller import DeviceController
from meowsim.engine import Engine, SplitMix64
from meowsim.scenario import load_preset
from meowsim.topology import SegmentSpec, TimingParams, Topology

from conftest import LatchRecorder, latched

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden", "overlap.jsonl")
REQUESTS = 100
SEEDS = (1, 2)
# a small pool so that requests often write the same word, or no change
WORDS = (0x0000, 0x0001, 0x8001, 0x00FF, 0xFFFF)


def topologies() -> dict:
    return {
        "exp1": load_preset("exp1").topology,
        "exp2": load_preset("exp2").topology,
        "long-latch": Topology(
            segments=(SegmentSpec(device_count=1),),
            timing=TimingParams(pdo_cycle_ns=32_000, d_sb_ns=0, d_latch_ns=50_000),
        ),
    }


def overlap_run(topology: Topology, seed: int) -> list:
    engine = Engine(seed=seed)
    ctrl = DeviceController(engine, topology)
    recorder = LatchRecorder(ctrl)
    draw = SplitMix64(seed ^ 0x5EED).uniform_draw
    devices = list(topology.all_targets())
    step = topology.timing.pdo_cycle_ns // 8  # gaps land on boundaries too
    t = 0
    for rid in range(REQUESTS):
        if draw(0, 3):  # one request in four shares the previous instant
            t += step * draw(1, 6)
        picks = []
        for _ in range(draw(1, min(4, len(devices)))):
            pick = devices[draw(0, len(devices) - 1)]
            if pick not in picks:
                picks.append(pick)
        targets = []
        for s, d in picks:
            word = WORDS[draw(0, len(WORDS) - 1)] if draw(0, 4) else draw(0, 0xFFFF)
            targets.append((s, d, word))
        engine.run_until(t)
        ctrl.submit(rid, targets, t)
    engine.run_until(t + ctrl.request_span_ns() + 4 * topology.timing.pdo_cycle_ns)

    records = []
    for rid, trace in sorted(ctrl.traces.items()):
        assert trace.complete, f"request {rid} never completed"
        records.append({
            "request_id": rid,
            "t_generated_ns": trace.t_generated_ns,
            "segments": {
                str(s): [st.staged_ns, st.jitter_ns, st.emit_ns]
                for s, st in sorted(trace.segments.items())
            },
            "t_latched_ns": {
                f"{s}/{d}": t for (s, d), t in sorted(latched(trace).items())
            },
            "config_time_ns": trace.config_time_ns,
        })
    for (s, d), dev in sorted(recorder.devices.items()):
        records.append({
            "device": f"{s}/{d}",
            "activation_log": [list(entry) for entry in dev.activation_log],
        })
    return records


def run_names():
    return [f"{name}/seed{seed}" for name in topologies() for seed in SEEDS]


def overlap_run_named(run: str) -> list:
    name, seed = run.split("/seed")
    return overlap_run(topologies()[name], int(seed))


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


@pytest.mark.parametrize("run", run_names())
def test_overlapping_requests_match_golden(golden, run):
    expected = [{k: v for k, v in rec.items() if k != "run"}
                for rec in golden if rec["run"] == run]
    assert overlap_run_named(run) == expected


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        for run in run_names():
            for record in overlap_run_named(run):
                fh.write(json.dumps({"run": run, **record}, sort_keys=True) + "\n")
