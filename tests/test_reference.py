"""An independent reference model of the batch event path, held to it by Hypothesis.

The model below restates the timing rules from scratch, with no engine, no
event queue and no code from meowsim beyond its public constructors:

- every request arrives southbound at t_generated + d_sb_ns, and arrivals
  run in (arrival time, submission order);
- an arrival draws one jitter per targeted segment, lowest segment first,
  from its own splitmix64 stream, and stages that segment's writes at
  arrival + d_mm_ns (several segments only) + jitter;
- staged writes ride the first boundary phase + k*cycle at or after their
  staging time; with every request submitted before the engine runs, no
  frame is ever built before a write due on it is staged;
- a boundary's writes fold in (staging time, arrival order), the last
  writer of a word winning, and the frame changes each word that differs
  from the one the chain already holds;
- device p latches a changed word at boundary + d_frame_head_ns +
  (p+1)*d_hop_ns + d_latch_ns, and a request completes when its deepest
  target on its last-emitted segment latches.

Each generated case submits every request, runs the engine to the model's
last completion, and compares config times, emit and staging times,
jitter, the masters' words and every device's latches and activation log,
the latches recorded beside the controller by conftest's LatchRecorder.
A second test submits every request and then calls run_until_complete on
each in a drawn order, and holds the clock, the requests still in flight
and the arrivals run after each call to the model's completion times.

RefRng is held to the engine's SplitMix64 on its own, one-value spans
included: those skip the output mix but must still step the state.
"""

import pytest
from hypothesis import given, settings, strategies as st

from meowsim import DeviceController, Engine, SegmentSpec, TimingParams, Topology
from meowsim.engine import SplitMix64
from meowsim.errors import NotYetComplete

from conftest import LatchRecorder, master_words

U64 = (1 << 64) - 1
# a small pool, so that requests often rewrite a word or leave it unchanged
WORDS = (0x0000, 0x0001, 0x0003, 0x8000, 0xFFFF)


class RefRng:
    """splitmix64, restated; uniform draws by plain modulo reduction."""

    def __init__(self, seed: int):
        self.state = seed & U64

    def draw(self, lo: int, hi: int) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & U64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1FE4E1B4) & U64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & U64
        return lo + (z ^ (z >> 31)) % (hi - lo + 1)


def pickup_boundary(t: int, phase: int, cycle: int) -> int:
    """First boundary phase + k*cycle (k >= 0) at or after t."""
    return phase + max(0, -(-(t - phase) // cycle)) * cycle


def rising_bits(latches):
    log, previous = [], 0
    for t, word in latches:
        log.extend((bit, t) for bit in range(16) if word & ~previous & (1 << bit))
        previous = word
    return log


def reference(case) -> dict:
    seed, counts, phases, timing, requests = case
    cycle, d_sb, d_mm, jitter_max, head, hop, latch = timing
    multi = d_mm if len(counts) > 1 else 0
    rng = RefRng(seed)
    # {(segment, boundary): [(stage time, arrival rank, rid, writes), ...]}
    due = {}
    staged = {}  # {rid: {segment: (stage time, jitter)}}
    arrivals = sorted(range(len(requests)), key=lambda i: (requests[i][0] + d_sb, i))
    for rank, i in enumerate(arrivals):
        t_gen, targets = requests[i]
        staged[i] = {}
        for seg in sorted({s for s, _, _ in targets}):
            jitter = rng.draw(0, jitter_max)
            stage = t_gen + d_sb + multi + jitter
            writes = [(d, w) for s, d, w in targets if s == seg]
            boundary = pickup_boundary(stage, phases[seg], cycle)
            due.setdefault((seg, boundary), []).append((stage, rank, i, writes))
            staged[i][seg] = (stage, jitter)

    words = [[0] * n for n in counts]
    latches = {(s, d): [] for s, n in enumerate(counts) for d in range(n)}
    emit = {}  # {(rid, segment): boundary}
    for seg, boundary in sorted(due):
        latest = {}
        for _, _, i, writes in sorted(due[(seg, boundary)]):
            latest.update(writes)
            emit[(i, seg)] = boundary
        first_latch = boundary + head + hop + latch
        for d in sorted(latest):
            if latest[d] != words[seg][d]:
                words[seg][d] = latest[d]
                latches[(seg, d)].append((first_latch + d * hop, latest[d]))

    traces = {}
    for i, (t_gen, targets) in enumerate(requests):
        done = max(emit[(i, s)] + head + (d + 1) * hop + latch for s, d, _ in targets)
        traces[i] = {
            "config": done - t_gen,
            "segments": {s: (stage, jitter, emit[(i, s)], emit[(i, s)] + head + hop + latch)
                         for s, (stage, jitter) in staged[i].items()},
        }
    return {"traces": traces, "words": words, "latches": latches,
            "horizon": max(t["config"] + requests[i][0] for i, t in traces.items())}


@st.composite
def cases(draw):
    cycle = draw(st.one_of(st.integers(1, 16), st.integers(1, 100_000)))
    counts = draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    phases = [draw(st.integers(0, cycle - 1)) for _ in counts]
    small = st.integers(0, 2 * cycle)
    timing = (
        cycle,
        draw(st.one_of(st.just(0), small)),  # d_sb_ns
        draw(small),  # d_mm_ns
        draw(st.integers(0, 3 * cycle)),  # d_jitter_max_ns
        draw(small),  # d_frame_head_ns
        draw(st.integers(0, cycle)),  # d_hop_ns
        draw(st.integers(0, 3 * cycle)),  # d_latch_ns
    )
    slots = [(s, d) for s, n in enumerate(counts) for d in range(n)]
    # instants shared by several requests, plus instants of their own; the
    # submission order is not the time order
    instants = draw(st.lists(st.integers(0, 6 * cycle), min_size=1, max_size=3))
    requests = []
    for _ in range(draw(st.integers(1, 10))):
        t_gen = draw(st.one_of(st.sampled_from(instants), st.integers(0, 6 * cycle)))
        picks = draw(st.lists(st.sampled_from(slots), min_size=1, max_size=len(slots),
                              unique=True))
        requests.append((t_gen, [(s, d, draw(st.sampled_from(WORDS))) for s, d in picks]))
    return draw(st.integers(0, U64)), counts, phases, timing, requests


def submit_all(case):
    """A controller on the case's topology, every request submitted."""
    seed, counts, phases, timing, requests = case
    cycle, d_sb, d_mm, jitter_max, head, hop, latch = timing
    topology = Topology(
        segments=tuple(SegmentSpec(device_count=n, phase_ns=p) for n, p in zip(counts, phases)),
        timing=TimingParams(pdo_cycle_ns=cycle, d_sb_ns=d_sb, d_mm_ns=d_mm,
                            d_jitter_max_ns=jitter_max, d_frame_head_ns=head,
                            d_hop_ns=hop, d_latch_ns=latch),
    )
    engine = Engine(seed=seed)
    ctrl = DeviceController(engine, topology)
    for rid, (t_gen, targets) in enumerate(requests):
        ctrl.submit(rid, targets, t_generated_ns=t_gen)
    return engine, ctrl


@settings(max_examples=300, deadline=None)
@given(cases())
def test_batch_event_path_matches_reference(case):
    engine, ctrl = submit_all(case)
    devices = LatchRecorder(ctrl).devices
    ref = reference(case)
    engine.run_until(ref["horizon"])

    for rid, expected in ref["traces"].items():
        trace = ctrl.traces[rid]
        assert trace.config_time_ns == expected["config"], rid
        got = {s: (st_.staged_ns, st_.jitter_ns, st_.emit_ns, st_.first_latch_ns)
               for s, st_ in trace.segments.items()}
        assert got == expected["segments"], rid
    assert master_words(ctrl) == ref["words"]
    assert set(devices) == set(ref["latches"])
    for key, latches in ref["latches"].items():
        assert devices[key].latches == latches, key
        assert devices[key].activation_log == rising_bits(latches), key


@settings(max_examples=300, deadline=None)
@given(cases(), st.data())
def test_run_until_complete_stops_at_the_model_completion(case, data):
    # run_until_complete stops at the slot (completion, SouthboundArrived):
    # every event of an earlier instant has run, but not that instant's
    # arrivals and emissions. A zero-latency completion stops at its own
    # last frame, so frames of that instant in later segments stay unsent
    engine, ctrl = submit_all(case)
    d_sb, requests = case[3][1], case[4]
    traces = reference(case)["traces"]
    done = {rid: requests[rid][0] + t["config"] for rid, t in traces.items()}
    # each request's last frame as its (boundary, segment) emission slot
    last_frame = {rid: max((seg[2], s) for s, seg in t["segments"].items())
                  for rid, t in traces.items()}
    sent = (-1, -1)  # the latest emission slot a call has needed
    for rid in data.draw(st.permutations(range(len(requests)))):
        before = engine.now
        ctrl.run_until_complete(rid)
        assert engine.now == max(before, done[rid])
        sent = max(sent, last_frame[rid])
        clock = engine.now
        in_flight = {q for q in done if done[q] > clock
                     or (last_frame[q][0] == clock and last_frame[q] > sent)}
        # the instant's arrivals have run only where one of its frames has
        arrived = {q for q, (t_gen, _) in enumerate(requests)
                   if t_gen + d_sb < clock or t_gen + d_sb == clock == sent[0]}
        assert {q for q, trace in ctrl.traces.items() if trace.segments} == arrived
        for q in done:
            if q in in_flight:
                with pytest.raises(NotYetComplete):
                    ctrl.completion_report(q)
            else:
                assert ctrl.completion_report(q).config_time_ns == traces[q]["config"]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(-(1 << 80), -1), st.integers(0, U64), st.integers(U64 + 1, 1 << 80)),
       st.lists(st.tuples(st.integers(-(1 << 64), 1 << 64), st.integers(0, 1 << 65),
                          st.booleans()), max_size=40))
def test_rng_matches_reference_with_one_value_spans(seed, spans):
    rng, ref = SplitMix64(seed), RefRng(seed)
    assert rng.state == ref.state
    for lo, width, one_value in spans:
        hi = lo if one_value else lo + width
        assert rng.uniform_draw(lo, hi) == ref.draw(lo, hi)
        assert rng.state == ref.state
