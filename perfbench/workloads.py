"""The four benchmark workloads, their seeded inputs and their checks.

Each workload drives meowsim only through public functions. It has three
steps:

  setup(root, seed)             what a user pays before the first request:
                                imports, scenario and topology build,
                                controller or server start (timed: setup_s)
  make_inputs(state, seed)      the seeded inputs, built before timing
  run_unit(state, inputs, meter)
                                one fixed amount of work, timed through the
                                meter (wall_s), with every output checked

All load comes from this one process: at most two threads (the client and,
for southbound-tcp, the server's connection handler) and one connection.
"""

from __future__ import annotations

import hashlib
import json
import random
import socket
import threading
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from meowsim import bench
from meowsim.controller import DeviceController
from meowsim.engine import Engine
from meowsim.netctl import (
    FlowStats,
    NetworkController,
    OcsResourceModel,
    PathState,
    ProactiveRule,
)
from meowsim.scenario import ARRIVAL_GRID_NS, load_preset
from meowsim.simulation import analytic_latency, structural_worst_latency
from meowsim.southbound import SouthboundServer
from meowsim.topology import SegmentSpec, Topology


@dataclass
class UnitResult:
    """What one unit of work did and how its outputs checked out."""

    requests: int = 0  # configure requests completed
    attempted: int = 0  # operations and output checks attempted
    failed: int = 0
    sim_worst_ns: int = 0  # simulated: worst config time of the measured device
    ref_error_ns: int | None = None  # simulated: largest error against the paper
    errors: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


# -- paper-figures ------------------------------------------------------------

# The paper's published figures, in ns: exp1 and exp2 best/worst, the sweep
# slope, the PDO-cycle delta, and the two 1000-rack projections.
PUBLISHED_NS = {
    "exp1 best": 90_000,
    "exp1 worst": 121_900,
    "exp2 best": 100_000,
    "exp2 worst": 186_000,
    "sweep slope": 900,
    "pdo-compare delta": 48_000,
    "extrapolate 4x250": 412_000,
    "extrapolate 6x167": 337_300,
}
# Each `run` export by kind, with the suffix of its pinned file name.
EXPORTS = (("csv", ".csv"), ("trace", ".trace"), ("stats", ".stats.json"))


class PaperFigures:
    """Regenerate every figure the paper reports, as `meowsim` does.

    Why: this is the researcher's end-to-end task. `run exp1` and `run exp2`
    with CSV, trace and stats exports, `sweep 1..8`, empirical `pdo-compare`
    at 80 and 32 us, and `extrapolate` for 4x250 and 6x167. Chains are
    short (at most 8 devices) and 8 of 10 frames are idle, so the exports,
    `stats` and the oracle weigh more here than anywhere else. The presets
    keep their own pinned seeds, because the check is against the published
    numbers; --seed does not change this workload's inputs. An operation is
    one simulated configure request, costed at its run_scenario call's
    host time divided by that call's request count.
    """

    name = "paper-figures"
    presets = ("exp1", "exp2")

    def setup(self, root: Path, seed: int):
        out_dir = root / ".perfbench-out" / self.name
        out_dir.mkdir(parents=True, exist_ok=True)
        digests = json.loads(
            (root / "perfbench" / "export_digests.json").read_text(encoding="utf-8"))
        return {
            "presets": {name: load_preset(name) for name in self.presets},
            "out_dir": out_dir,
            "digests": digests,
        }

    def make_inputs(self, state, seed: int):
        return None

    def teardown(self, state) -> None:
        pass

    def run_unit(self, state, inputs, meter) -> UnitResult:
        presets, out_dir = state["presets"], state["out_dir"]
        res = UnitResult()
        figures = {}

        def timed(requests, fn, *args, **kwargs):
            with meter.timed(ops=requests):
                try:
                    value = fn(*args, **kwargs)
                except Exception as exc:  # a wrong result must not stop the run
                    value = exc
            res.attempted += requests
            if isinstance(value, Exception):
                res.failed += requests
                res.errors.append(f"{requests} requests: {value!r}")
                return None
            res.requests += requests
            return value

        for name in ("exp1", "exp2"):
            result = timed(1000, bench.run_scenario, presets[name], out_dir=str(out_dir))
            if result is None:
                continue
            figures[f"{name} best"] = result.stats.min_ns
            figures[f"{name} worst"] = result.stats.max_ns
            res.sim_worst_ns = max(res.sim_worst_ns, result.stats.max_ns)
            for kind, suffix in EXPORTS:
                pinned = f"{name}{suffix}"
                written = result.written.get(kind)
                path = Path(written) if written else None
                digest = (hashlib.sha256(path.read_bytes()).hexdigest()
                          if path is not None and path.is_file() else None)
                res.check(path is not None and path.name == pinned
                          and digest == state["digests"][pinned],
                          f"export {pinned}: written as {written}, digest {digest}, "
                          f"pinned {state['digests'][pinned]}")

        sweep = timed(8000, bench.sweep_devices, presets["exp1"], range(1, 9))
        if sweep is not None:
            figures["sweep slope"] = sweep.slope_ns_per_device

        def pdo_compare():
            hi = bench.with_pdo_cycle(presets["exp2"], 80_000)
            lo = bench.with_pdo_cycle(hi, 32_000)
            return bench.pdo_reduction_analysis(hi, lo, run_empirical=True)

        pdo = timed(2000, pdo_compare)
        if pdo is not None:
            figures["pdo-compare delta"] = pdo.structural_delta_ns
            res.sim_worst_ns = max(res.sim_worst_ns, pdo.empirical_worst_hi_ns)

        for racks, masters in ((1000, 4), (1000, 6)):
            with meter.timed():
                devices = bench.racks_to_devices_per_segment(racks, masters)
                predicted = bench.extrapolate_worst(bench.default_worst_base_ns(), 900.0,
                                                    devices)
            figures[f"extrapolate {masters}x{devices}"] = round(predicted)

        errors = []
        for key, published in PUBLISHED_NS.items():
            got = figures.get(key)
            error = abs(got - published) if got is not None else float("inf")
            errors.append(error)
            res.check(error == 0, f"{key}: got {got}, published {published}")
        res.ref_error_ns = max(errors)
        return res


# -- deploy-4x250 -------------------------------------------------------------

DEPLOY_SEGMENTS = 4
DEPLOY_DEVICES = 250
DEPLOY_BATCH = 20  # requests per run_scenario call: one unit of work


class Deploy4x250:
    """Batch run_scenario on 4 segments x 250 devices with exp2 timing.

    Why: the paper's headline 412 us deployment. Every request targets all
    1000 devices with the oracle check on, so engine.schedule, the
    controller's frame-arrival dispatch and codec.apply_datagram do nearly
    all the work (about 7,000 FrameAtDevice events per request, most of
    which change nothing), and Engine.run_until's list of processed events
    makes it the memory-heavy workload. --seed is the arrival seed. An
    operation is one simulated request, costed at its batch's host time
    divided by the batch size.
    """

    name = "deploy-4x250"
    presets = ("exp2",)

    def setup(self, root: Path, seed: int):
        exp2 = load_preset("exp2")
        topology = Topology(
            segments=tuple(SegmentSpec(device_count=DEPLOY_DEVICES, phase_ns=0)
                           for _ in range(DEPLOY_SEGMENTS)),
            timing=exp2.topology.timing,
        )
        return {"base": exp2.with_changes(
            topology=topology, num_requests=DEPLOY_BATCH,
            measurement=(0, DEPLOY_DEVICES - 1), outputs=None)}

    def make_inputs(self, state, seed: int):
        scenario = state["base"].with_changes(seed=seed)
        timing = scenario.topology.timing
        rank = scenario.topology.device_rank(*scenario.measurement)
        return {
            "scenario": scenario,
            "best_ns": analytic_latency(timing, DEPLOY_SEGMENTS, rank, 0, 0),
            "worst_ns": structural_worst_latency(timing, DEPLOY_SEGMENTS, rank,
                                                 ARRIVAL_GRID_NS),
        }

    def teardown(self, state) -> None:
        pass

    def run_unit(self, state, inputs, meter) -> UnitResult:
        res = UnitResult()
        with meter.timed(ops=DEPLOY_BATCH):
            try:
                result = bench.run_scenario(inputs["scenario"], check_oracle=True)
            except Exception as exc:  # oracle mismatch or unfinished request
                result = exc
        res.attempted += DEPLOY_BATCH
        if isinstance(result, Exception):
            res.failed += DEPLOY_BATCH
            res.errors.append(f"run_scenario: {result!r}")
            return res
        res.requests = DEPLOY_BATCH
        res.sim_worst_ns = result.stats.max_ns
        res.check(inputs["best_ns"] <= result.stats.min_ns
                  and result.stats.max_ns <= inputs["worst_ns"],
                  f"config times {result.stats.min_ns}..{result.stats.max_ns} ns outside "
                  f"the oracle's {inputs['best_ns']}..{inputs['worst_ns']} ns")
        return res


# -- southbound-tcp -----------------------------------------------------------

SOUTHBOUND_SESSION = 100  # requests per connection: one unit of work
SOUTHBOUND_TIMEOUT_S = 10.0


class _Session:
    """A SouthboundServer on loopback with one connected client."""

    def __init__(self, topology: Topology, seed: int):
        self.server = SouthboundServer(("127.0.0.1", 0), topology, seed=seed)
        self.sock = socket.create_connection(self.server.bound_address,
                                             timeout=SOUTHBOUND_TIMEOUT_S)
        # accept the one connection here, so that the server's connection
        # handler is the only thread besides this one
        self.server.handle_request()
        self.rfile = self.sock.makefile("rb")

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()
        self.server.server_close()
        # the connection handler thread ends once it reads end-of-stream
        for thread in threading.enumerate():
            if thread is not threading.main_thread():
                thread.join(SOUTHBOUND_TIMEOUT_S)


class SouthboundTcp:
    """One closed-loop client against `meowsim serve` on loopback.

    Why: this is how a network controller drives the device controller.
    Each request carries 1 to 8 seeded targets across exp2's 4x2 topology.
    Transport, JSON handling and run_until_complete stepping dominate and
    the engine does little; today the Nagle algorithm and delayed ACKs hold
    each reply for tens of ms, a cap a fix should lift about 85-fold, so
    each unit is a fixed number of requests on a fresh session and memory
    does not grow with the request rate. An operation is one round trip.
    """

    name = "southbound-tcp"
    presets = ("exp2",)

    def setup(self, root: Path, seed: int):
        topology = load_preset("exp2").topology
        return {"topology": topology, "seed": seed, "spare": _Session(topology, seed)}

    def make_inputs(self, state, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        timing = state["topology"].timing
        slots = list(state["topology"].all_targets())
        requests = []
        for request_id in range(1, SOUTHBOUND_SESSION + 1):
            targets = sorted(rng.sample(slots, rng.randint(1, len(slots))))
            message = {
                "type": "configure",
                "request_id": request_id,
                "targets": [{"segment": s, "device": d,
                             "outputs": f"0x{rng.randrange(0x10000):04X}"}
                            for s, d in targets],
            }
            # emission-to-latch time of each target, from the timing model
            expected = {
                f"{s}/{d}": (s, timing.d_frame_head_ns + (d + 1) * timing.d_hop_ns
                             + timing.d_latch_ns)
                for s, d in targets
            }
            line = (json.dumps(message) + "\n").encode("utf-8")
            requests.append((request_id, line, expected))
        return requests

    def teardown(self, state) -> None:
        if state["spare"] is not None:
            state["spare"].close()

    def run_unit(self, state, inputs, meter) -> UnitResult:
        res = UnitResult()
        with meter.paused():
            session = state["spare"] or _Session(state["topology"], state["seed"])
            state["spare"] = None
        try:
            for request_id, line, expected in inputs:
                with meter.timed(ops=1):
                    try:
                        session.sock.sendall(line)
                        replies = [session.rfile.readline()]
                        if b'"ack"' in replies[0]:
                            replies.append(session.rfile.readline())
                    except OSError as exc:
                        replies = [repr(exc).encode()]
                res.attempted += 1
                problem, config_ns = _check_reply(request_id, replies, expected)
                if problem:
                    # the stream may be out of step: end the unit and its session
                    res.failed += 1
                    res.errors.append(f"request {request_id}: {problem}")
                    break
                res.requests += 1
                res.sim_worst_ns = max(res.sim_worst_ns, config_ns)
        finally:
            with meter.paused():
                session.close()
        return res


def _check_reply(request_id: int, replies, expected) -> tuple[str | None, int]:
    """(what is wrong with the replies or None, simulated config time ns)."""
    try:
        ack, complete = (json.loads(raw) for raw in replies)
        if (ack["type"], ack["request_id"]) != ("ack", request_id) or \
                (complete["type"], complete["request_id"]) != ("complete", request_id):
            return f"expected ack and complete, got {replies!r}", 0
        trace = complete["trace"]
        if set(trace["t_latched_ns"]) != set(expected):
            return f"latched {sorted(trace['t_latched_ns'])}, targeted {sorted(expected)}", 0
        for key, (segment, emit_to_latch_ns) in expected.items():
            got = trace["t_latched_ns"][key] - trace["t_master_emit_ns"][str(segment)]
            if got != emit_to_latch_ns:
                return f"{key}: emit-to-latch {got} ns, timing model {emit_to_latch_ns} ns", 0
        return None, trace["config_time_ns"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed replies {replies!r}: {exc!r}", 0


# -- netctl-churn -------------------------------------------------------------

NETCTL_STEPS = 50  # flow tables per unit of work
NETCTL_FLOWS = 500  # flows per table
NETCTL_REACTIVE = 5  # flows per table at or above the rate threshold
NETCTL_PROACTIVE = 3  # flows per table that a proactive rule matches
NETCTL_LIVE = 64  # live paths kept; the oldest beyond this are released
NETCTL_WORDS = 16  # cross-connect words per device: 128 on exp1's 8 devices
NETCTL_TORS = 32
NETCTL_THRESHOLD_BPS = 10_000_000_000
NETCTL_TAGS = ("ml-train", "storage-sync", "video-ingest")


@dataclass(frozen=True)
class _NetctlInputs:
    rules: tuple  # ProactiveRule
    steps: tuple  # (flows tuple, {flow_id: flow}) per table


class NetctlChurn:
    """A NetworkController on exp1's 1x8 topology in a closed loop.

    Why: netctl does little work in any other workload. Each step feeds a
    seeded table of 500 flows; detect_flows finds 8 large ones (rule
    matches and rate-threshold hits), and each is allocated and activated
    with activate_and_wait; the oldest paths beyond 64 live ones are
    released. netctl's own calls (detect_flows, first-fit allocate,
    release) take about a seventh of the host time, and the engine stepping
    inside activate_and_wait the rest. Each unit starts a fresh controller
    so memory does not grow with the set-up rate, and ends with
    check_conservation. An operation is one path set-up: allocate, then
    activate_and_wait. A unit is 50 tables (400 set-ups), so its tail
    (p97.5) stays clear of the host's rarest hiccups.
    """

    name = "netctl-churn"
    presets = ("exp1",)

    def setup(self, root: Path, seed: int):
        topology = load_preset("exp1").topology
        state = {"topology": topology, "seed": seed}
        state["spare"] = self._controller(state)
        return state

    def _controller(self, state) -> NetworkController:
        engine = Engine(seed=state["seed"])
        device_controller = DeviceController(engine, state["topology"])
        device_controller.start()
        resources = OcsResourceModel(state["topology"], words_per_device=NETCTL_WORDS)
        return NetworkController(resources, device_controller)

    def make_inputs(self, state, seed: int) -> _NetctlInputs:
        rng = random.Random(f"{self.name}/{seed}")
        tors = [f"tor{i:02d}" for i in range(NETCTL_TORS)]
        priorities = rng.sample(range(1, 100), len(NETCTL_TAGS) + 1)
        pair = tuple(rng.sample(tors, 2))
        rules = tuple(
            ProactiveRule(rule_id=f"tag-{tag}", priority=p, service_tag=tag)
            for tag, p in zip(NETCTL_TAGS, priorities)
        ) + (ProactiveRule(rule_id="pair", priority=priorities[-1],
                           src_tor=pair[0], dst_tor=pair[1]),)

        def tor_pair(allow_rule_pair: bool):
            while True:
                src, dst = rng.sample(tors, 2)
                if allow_rule_pair or (src, dst) != pair:
                    return src, dst

        steps = []
        for step in range(NETCTL_STEPS):
            large = rng.sample(range(NETCTL_FLOWS), NETCTL_REACTIVE + NETCTL_PROACTIVE)
            proactive = set(large[:NETCTL_PROACTIVE])
            flows = []
            for i in range(NETCTL_FLOWS):
                flow_id = f"s{step:03d}f{i:03d}"
                if i in proactive:
                    kind = rng.randrange(len(NETCTL_TAGS) + 1)
                    src, dst = pair if kind == len(NETCTL_TAGS) else tor_pair(False)
                    tag = NETCTL_TAGS[kind] if kind < len(NETCTL_TAGS) else None
                    rate = rng.randrange(1, NETCTL_THRESHOLD_BPS)
                elif i in large:
                    src, dst = tor_pair(False)
                    tag = "bulk"
                    rate = rng.randrange(NETCTL_THRESHOLD_BPS, 4 * NETCTL_THRESHOLD_BPS)
                else:
                    src, dst = tor_pair(False)
                    tag = rng.choice(("web", "bulk", None))
                    rate = rng.randrange(1, NETCTL_THRESHOLD_BPS)
                flows.append(FlowStats(flow_id=flow_id, src_tor=src, dst_tor=dst,
                                       rate_bps=rate, service_tag=tag))
            steps.append((tuple(flows), {f.flow_id: f for f in flows}))
        return _NetctlInputs(rules=rules, steps=tuple(steps))

    def teardown(self, state) -> None:
        pass

    def run_unit(self, state, inputs: _NetctlInputs, meter) -> UnitResult:
        res = UnitResult()
        with meter.paused():
            controller = state["spare"] or self._controller(state)
            state["spare"] = None
            for rule in inputs.rules:
                controller.add_rule(rule)
        live: deque = deque()
        expected = NETCTL_REACTIVE + NETCTL_PROACTIVE
        for flows, by_id in inputs.steps:
            with meter.timed():
                detected = controller.detect_flows(flows, NETCTL_THRESHOLD_BPS)
            res.check(len(detected) == expected,
                      f"detected {len(detected)} large flows, expected {expected}")
            for report in detected:
                flow = by_id[report["flow_id"]]
                with meter.timed(ops=1):
                    try:
                        entry = controller.allocate(flow.src_tor, flow.dst_tor)
                        entry = controller.activate_and_wait(entry.path_id)
                    except Exception as exc:  # not Active: a failed set-up
                        entry = exc
                res.attempted += 1
                if isinstance(entry, Exception) or entry.state is not PathState.ACTIVE:
                    res.failed += 1
                    res.errors.append(f"flow {flow.flow_id}: path not Active ({entry!r})")
                    continue
                res.requests += 1
                res.sim_worst_ns = max(res.sim_worst_ns, entry.config_time_ns)
                live.append(entry.path_id)
                with meter.timed():
                    while len(live) > NETCTL_LIVE:
                        controller.release(live.popleft())
        try:
            controller.check_conservation()
            conserved = True
        except AssertionError:
            conserved = False
        res.check(conserved, "cross-connect words not conserved")
        return res


WORKLOADS = {w.name: w for w in (PaperFigures(), Deploy4x250(), SouthboundTcp(),
                                 NetctlChurn())}
