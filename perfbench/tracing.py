"""In-memory spans and counters recorded around meowsim's public calls.

Nothing here edits meowsim: the tracer swaps public functions and methods
for timing wrappers while a traced unit runs and puts the originals back
afterwards. A span is (name, start_ns, end_ns, parent); the name's prefix
up to the first dot is the layer (the meowsim module) the call belongs to.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import csv
import inspect
import threading
import time
from collections import Counter, defaultdict

# Every span name starts with one of these layers; "workload" is the
# benchmark's own code around each operation.
LAYERS = (
    "engine", "controller", "simulation", "codec", "bench", "stats",
    "scenario", "topology", "southbound", "netctl",
)

# Span names whose per-call durations are kept in call order.
KEEP_DURATIONS = frozenset({"southbound.handle_line"})
# Spans kept in memory; later ones count in the aggregates only.
SPAN_CAP = 100_000

_now = time.perf_counter_ns


class Tracer:
    """Spans (up to SPAN_CAP of them) plus exact per-name aggregates."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.dropped = 0
        self.root = -1  # span index of the current operation
        self.missing: list[str] = []
        self._local = threading.local()
        self._patches: list[tuple] = []
        self.reset_aggregates()

    def reset_aggregates(self) -> None:
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.durations: dict[str, list[int]] = defaultdict(list)

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1][3] if stack else self.root
        index = -1
        start = _now()
        if len(self.spans) < SPAN_CAP:
            index = len(self.spans)
            self.spans.append([name, start, 0, parent])
        else:
            self.dropped += 1
        frame = [name, start, 0, index]  # name, start, child ns, span index
        stack.append(frame)
        return frame

    def _exit(self, frame: list) -> int:
        end = _now()
        stack = self._local.stack
        stack.pop()
        name, start, child_ns, index = frame
        duration = end - start
        self.calls[name] += 1
        self.total_ns[name] += duration
        self.self_ns[name] += duration - child_ns
        if name in KEEP_DURATIONS:
            self.durations[name].append(duration)
        if stack:
            stack[-1][2] += duration
        if index >= 0:
            self.spans[index][2] = end
        return duration

    def add_child_ns(self, ns: int) -> None:
        """Count ns as child time of this thread's open span (time not its own)."""
        stack = getattr(self._local, "stack", None)
        if stack:
            stack[-1][2] += ns

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self._enter(name)
        try:
            yield frame
        finally:
            self._exit(frame)

    @contextlib.contextmanager
    def op(self):
        """Span of one benchmark operation; spans in other threads hang off it."""
        with self.span("workload.op") as frame:
            self.root = frame[3]
            try:
                yield
            finally:
                self.root = -1

    def traced(self, name: str, fn, observe=None):
        """fn wrapped in a span while the tracer is active."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapper

    # -- installing the wrappers -------------------------------------------

    def patch(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace owner.attr (function, method or classmethod) with a traced one."""
        try:
            static = inspect.getattr_static(owner, attr)
        except AttributeError:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        if isinstance(static, classmethod):
            replacement = classmethod(self.traced(name, static.__func__, observe))
        else:
            replacement = self.traced(name, static, observe)
        self._patches.append((owner, attr, static))
        setattr(owner, attr, replacement)

    def patch_engine_on(self, engine_cls) -> None:
        """Wrap each handler registered through Engine.on in a dispatch span."""
        original = engine_cls.on
        tracer = self

        def on(engine, kind, handler):
            kind_name = getattr(kind, "value", str(kind))
            original(engine, kind,
                     tracer.traced(f"controller.dispatch.{kind_name}", handler))

        self._patches.append((engine_cls, "on", inspect.getattr_static(engine_cls, "on")))
        engine_cls.on = on

    def install(self) -> None:
        if self._patches:
            return
        from meowsim import bench, controller, netctl, scenario, simulation, southbound
        from meowsim.codec import EcatFrame
        from meowsim.engine import Engine

        self.patch_engine_on(Engine)
        self.patch(Engine, "schedule", "engine.schedule")
        self.patch(Engine, "run_until", "engine.run_until")
        self.patch(simulation.MasterState, "build_frame", "simulation.build_frame",
                   _observe_frame)
        self.patch(simulation.DeviceState, "latch", "simulation.latch")
        self.patch(EcatFrame, "from_datagrams", "codec.frame_build")
        self.patch(controller, "apply_datagram", "codec.apply_datagram", _observe_arrival)
        for method in ("submit", "handle_configure", "run_until_complete"):
            self.patch(controller.DeviceController, method, f"controller.{method}")
        for fn in ("export_csv", "export_trace", "export_stats"):
            self.patch(bench, fn, "bench.export")
        for fn in ("run_scenario", "sweep_devices", "pdo_reduction_analysis",
                   "with_pdo_cycle", "extrapolate_worst", "default_worst_base_ns",
                   "racks_to_devices_per_segment"):
            self.patch(bench, fn, f"bench.{fn}")
        self.patch(bench, "compute_stats", "stats.compute_stats")
        self.patch(bench, "analytic_latency", "simulation.oracle")
        self.patch(bench, "structural_worst_latency", "simulation.oracle")
        self.patch(scenario.Scenario, "from_dict", "scenario.load")
        self.patch(scenario, "build_topology", "topology.build")
        self.patch(southbound.SouthboundSession, "handle_line", "southbound.handle_line")
        for method in ("detect_flows", "allocate", "activate_and_wait", "release"):
            self.patch(netctl.NetworkController, method, f"netctl.{method}")
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def paused(self):
        """Keep the wrappers but record nothing (untimed set-up inside a unit)."""
        was_active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was_active

    # -- reading it out ----------------------------------------------------

    def layer_self_ns(self) -> dict[str, int]:
        out = dict.fromkeys(LAYERS, 0)
        for name, ns in self.self_ns.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += ns
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("index", "name", "start_ns", "end_ns", "parent"))
            for index, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow((index, name, start, end, parent))


def _observe_frame(tracer: Tracer, args, record) -> None:
    # a frame with no riders carries no request: an idle frame
    if not getattr(record, "riders", ()):
        tracer.counts["idle_frames"] += 1


def _observe_arrival(tracer: Tracer, args, result) -> None:
    # apply_datagram(word, dgram, mapping) -> (new word, data, wkc increment)
    if result[0] == args[0]:
        tracer.counts["noop_arrivals"] += 1
