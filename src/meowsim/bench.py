"""Benchmark runner: scenario execution, sweeps, extrapolation, exports.

Reproduces the two reference experiments (presets exp1 and exp2), sweeps
chain length, extrapolates the worst case to 1000-rack fabrics, and writes
per-request CSV, marker traces and summary statistics. A batch run builds
its two word patterns' images once per chain length, in closed form, and
makes no intake check: its targets, fresh ids and rising times are its
own. It draws every arrival phase first, then hands the requests in one at
a time, each at its generation instant, so the event queue holds only one
request's events. A sweep is one batch run on its longest chain, read at
the position of every requested length, with the oracle checked at each.

A request's RequestTrace is its one record: the statistics, the sweep and
every export read it, and every latch time through RequestTrace.latch_ns.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass

from .controller import DeviceController, RequestTrace
from .engine import Engine, EventKind
from .errors import IoFailure, SegmentCountExceeded
from .scenario import ARRIVAL_GRID_NS, Scenario, arrival_phase_ns, load_preset
from .simulation import analytic_latency, repeated_image, structural_worst_latency, word_positions
from .stats import RunStats, compute_stats, ns_to_us_str
from .topology import MAX_SEGMENTS, SegmentSpec, Topology

# Requests are spaced far enough apart that their pipelines never overlap;
# each one still lands on an uncontrolled (seeded) phase within its cycle.
MIN_SPACING_CYCLES = 4

# Each request flips every device's outputs between these two patterns, so
# every frame carrying a request changes every targeted word.
WORD_PATTERNS = (0x5555, 0xAAAA)


@dataclass
class RunResult:
    scenario: Scenario
    stats: RunStats
    traces: list  # RequestTrace in request order
    written: dict


def request_spacing_ns(controller: DeviceController) -> int:
    cycle = controller.timing.pdo_cycle_ns
    span = controller.request_span_ns()
    return cycle * max(MIN_SPACING_CYCLES, span // cycle + 2)


def _config_times(topology: Topology, traces, target, check_oracle: bool) -> list:
    """Each trace's configuration time at target (segment, device).

    With check_oracle each configuration time is compared against the
    closed-form latency oracle (exact integer equality), with the PDO wait
    and dispatch jitter read back from the trace.
    """
    seg_m, dev_m = target
    timing = topology.timing
    cycle = timing.pdo_cycle_ns
    rank = topology.device_rank(seg_m, dev_m)
    phase_m = topology.segments[seg_m].phase_ns
    configs = []
    for trace in traces:
        request_id = trace.request_id
        if not trace.complete:
            raise AssertionError(f"request {request_id} did not finish by the horizon")
        config = trace.latch_ns(seg_m, dev_m) - trace.t_generated_ns
        if check_oracle:
            seg_trace = trace.segments[seg_m]
            t_emit = seg_trace.emit_ns
            if (t_emit - phase_m) % cycle:
                raise AssertionError(f"request {request_id}: emit {t_emit} is not a PDO boundary")
            wait = t_emit - seg_trace.staged_ns
            expected = analytic_latency(
                timing, topology.segment_count, rank, wait, seg_trace.jitter_ns
            )
            if config != expected:
                raise AssertionError(
                    f"request {request_id}: simulated {config} ns != oracle {expected} ns"
                )
        configs.append(config)
    return configs


def run_scenario(scenario: Scenario, out_dir: str | None = None,
                 check_oracle: bool = True) -> RunResult:
    """Simulate the scenario's request batch and summarize the measurement.

    With check_oracle every request's configuration time at the measured
    device is checked against the latency oracle (see _config_times).
    """
    paths = _export_paths(scenario, out_dir)  # checked before the work, not after it
    topology = scenario.topology
    engine = Engine(seed=scenario.seed)
    controller = DeviceController(engine, topology)

    cycle = topology.timing.pdo_cycle_ns
    spacing = request_spacing_ns(controller)

    # a pattern writes its word to every device; its requests share its
    # images, and its segments of one chain length share one (mask, value)
    counts = [seg.device_count for seg in topology.segments]
    by_length = [{n: (repeated_image(0xFFFF, n), repeated_image(word, n)) for n in set(counts)}
                 for word in WORD_PATTERNS]
    patterns = [{s: pairs[n] for s, n in enumerate(counts)} for pairs in by_length]
    phases = [arrival_phase_ns(engine.rng, cycle) for _ in range(scenario.num_requests)]
    # stop short of the generation instant's arrivals and frames, so a
    # zero-delay write still rides the frame emitted at that instant; the
    # ids are fresh and the times rise, so nothing here needs submit's checks
    arrived = EventKind.SOUTHBOUND_ARRIVED
    for k, phase in enumerate(phases):
        t_gen = k * spacing + phase
        engine.run_until(t_gen, arrived)
        controller._submit_packed(k, patterns[k % len(patterns)], t_gen)
    traces = [controller.traces[k] for k in range(scenario.num_requests)]

    # the last request is generated last, and request_span_ns bounds its life
    engine.run_until(traces[-1].t_generated_ns + controller.request_span_ns())

    stats = compute_stats(_config_times(topology, traces, scenario.measurement, check_oracle))
    written = {}
    if "csv" in paths:
        export_csv(traces, scenario.measurement, paths["csv"])
        written["csv"] = paths["csv"]
    if "trace" in paths:
        export_trace(traces, stats, paths["trace"])
        written["trace"] = paths["trace"]
    if "stats" in paths:
        export_stats(stats, paths["stats"])
        written["stats"] = paths["stats"]
    return RunResult(scenario=scenario, stats=stats, traces=traces, written=written)


# -- exports ---------------------------------------------------------------

def require_file_path(path: str, what: str) -> None:
    """Raise IoFailure unless path can name a file: not a directory, in one that exists."""
    if not os.path.basename(path) or os.path.isdir(path):  # "", "sub/", "." or "sub"
        raise IoFailure(f"cannot write {what} {path}: it names a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise IoFailure(f"cannot write {what} {path}: {parent} is not a directory")


@contextmanager
def open_export(path: str, what: str):
    """The text file every export is written through: UTF-8, and newline=""
    so that a "\\n" is written as is, on every platform.

    An OSError while opening, writing or closing it raises
    IoFailure("cannot write {what} {path}: ...").
    """
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise IoFailure(f"cannot write {what} {path}: {exc}") from exc


def _export_paths(scenario: Scenario, out_dir: str | None) -> dict:
    """{kind: path} of the scenario's exports: distinct files that require_file_path passes."""
    paths = {kind: os.path.join(out_dir or ".", rel)
             for kind, rel in (scenario.outputs or {}).items()}
    kinds = {}  # {normalised path: first kind that names it}
    for kind, path in paths.items():
        other = kinds.setdefault(os.path.normpath(path), kind)
        if other != kind:
            raise ValueError(f"outputs {other} and {kind} name one file {path}")
        require_file_path(path, kind)
    return paths


CSV_COLUMNS = (
    "request_id", "t_gen_us", "t_emit_us", "t_complete_us",
    "config_time_us", "segment", "device",
)


def export_csv(traces, target, path: str) -> None:
    """Per-request results at target (segment, device), times in us with one exact decimal."""
    seg, dev = target
    with open_export(path, "CSV") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for trace in traces:  # no field holds a comma, a quote or a newline
            t_gen, t_complete = trace.t_generated_ns, trace.latch_ns(seg, dev)
            fh.write(f"{trace.request_id},{ns_to_us_str(t_gen)},"
                     f"{ns_to_us_str(trace.segments[seg].emit_ns)},{ns_to_us_str(t_complete)},"
                     f"{ns_to_us_str(t_complete - t_gen)},{seg},{dev}\n")


def _trace_line(trace: RequestTrace, templates: dict) -> str:
    """One trace line; templates caches {shape: (%-format, latch segments, latch devices)}.

    A shape is the line's segments, ascending, each with its write mask, or None while
    its frame has not left, as t_latched_ns. Lines of one shape differ only in their ints.
    """
    segments, writes = trace.segments, trace.writes
    shape, values = [], [trace.request_id, trace.t_generated_ns]
    for seg in sorted(segments):
        st = segments[seg]
        shape.append((seg, None if st.emit_ns is None else writes[seg][0]))
        values += (st.jitter_ns, st.staged_ns, st.emit_ns)
    shape = tuple(shape)
    entry = templates.get(shape)
    if entry is None:  # a new shape: its literal pieces and latch keys, once
        heads, segs, devs = [], [], []
        for seg, mask in shape:
            heads.append(f"seg {seg}: x %s staged %s ② %s")
            for d in (() if mask is None else word_positions(mask)):
                segs.append(seg)
                devs.append(d)
        latches = ", ".join(f"{s}/{d} %s" for s, d in zip(segs, devs))
        entry = templates[shape] = (
            " | ".join(("req %06d ① %s", *heads, f"③ {latches}", "config %s")), segs, devs)
    template, segs, devs = entry
    values += map(trace.latch_ns, segs, devs)
    values.append(trace.config_time_ns)
    return template % tuple(values)


def export_trace(traces, stats: RunStats, path: str) -> None:
    """Marker trace: one line per request, integer ns, jitter footer."""
    templates = {}
    with open_export(path, "trace") as fh:
        fh.write("# request traces, times in integer ns\n")
        for trace in traces:
            fh.write(_trace_line(trace, templates) + "\n")
        fh.write(f"# ④ jitter max-min {stats.jitter_ns} ns "
                 f"(min {stats.min_ns}, max {stats.max_ns})\n")


def export_stats(stats: RunStats, path: str) -> None:
    with open_export(path, "stats") as fh:
        fh.write(json.dumps(stats.to_dict(), indent=2, sort_keys=True) + "\n")


# -- sweep and extrapolation -------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    device_count: int
    best_ns: int
    worst_ns: int


@dataclass(frozen=True)
class SweepResult:
    points: tuple[SweepPoint, ...]
    slope_ns_per_device: float
    intercept_ns: float

    def predict_best_ns(self, device_count: int) -> float:
        return self.intercept_ns + self.slope_ns_per_device * device_count


def sweep_devices(base: Scenario, device_counts=range(1, 9)) -> SweepResult:
    """Measure several chain lengths in one run; fit best vs count.

    One run on a chain of the longest requested length is read at each
    count n, at position n - 1, with the oracle checked there. This gives
    what a run per length would: a device's configuration time depends only
    on its rank, its PDO wait and its jitter, none of which the devices
    behind it change. Request spacing is a whole number of cycles at every
    length, so each request keeps its phase, and its draws come in the same
    order: every phase first, then one jitter per request.
    """
    if base.topology.segment_count != 1:
        raise ValueError("device sweep needs a single-segment scenario")
    # every count must be a valid chain before the run; a range stops at its
    # first bad count, however long it is
    counts = []
    for n in device_counts:
        SegmentSpec(device_count=n)
        counts.append(n)
    if len(set(counts)) < 2:
        raise ValueError(f"need at least two points to fit: two distinct device counts, "
                         f"got {counts!s:.200}")
    phase = base.topology.segments[0].phase_ns
    longest = max(counts)
    topology = Topology(segments=(SegmentSpec(device_count=longest, phase_ns=phase),),
                        timing=base.topology.timing)
    scenario = base.with_changes(topology=topology, measurement=(0, longest - 1),
                                 outputs=None)
    traces = run_scenario(scenario, check_oracle=False).traces
    points = []
    for n in counts:
        configs = _config_times(topology, traces, (0, n - 1), True)
        points.append(SweepPoint(n, min(configs), max(configs)))
    slope, intercept = _least_squares([(p.device_count, p.best_ns) for p in points])
    return SweepResult(points=tuple(points), slope_ns_per_device=slope,
                       intercept_ns=intercept)


def _least_squares(pairs):
    """Slope and intercept of the fit; pairs hold at least two distinct x.

    The pairs are integers, so every sum is exact and each result is one
    correctly rounded int / int division, the same on every Python version.
    """
    n = len(pairs)
    sx = sum(x for x, _ in pairs)
    sy = sum(y for _, y in pairs)
    sxx = sum(x * x for x, _ in pairs)
    sxy = sum(x * y for x, y in pairs)
    det = n * sxx - sx * sx
    return (n * sxy - sx * sy) / det, (sy * sxx - sx * sxy) / det


def racks_to_devices_per_segment(racks: int, masters: int) -> int:
    """Devices each master must chain to cover the racks (one OCS port per rack)."""
    if racks < 1 or masters < 1:
        raise ValueError("racks and masters must be positive")
    if masters > MAX_SEGMENTS:
        raise SegmentCountExceeded(
            f"at most {MAX_SEGMENTS} masters per controller, got {masters!s:.200}"
        )
    devices = -(-racks // masters)  # integer ceiling: exact for racks of any size
    SegmentSpec(device_count=devices)  # raises if one datagram cannot carry the chain
    return devices


def extrapolate_worst(worst_base_ns: int, slope_ns: float, devices_per_segment: int):
    """Predicted worst configuration time for longer chains.

    Reference arithmetic: measured worst plus slope times the full chain
    length (not the chain-length increase); kept because the published
    1000-rack figures follow exactly this form.
    """
    if worst_base_ns < 0 or slope_ns < 0:
        raise ValueError("worst_base_ns and slope_ns must be >= 0")
    if devices_per_segment < 1:
        raise ValueError("devices_per_segment must be >= 1")
    value = worst_base_ns + slope_ns * devices_per_segment
    return int(value) if float(value).is_integer() else value


def structural_worst_ns(scenario: Scenario) -> int:
    """Structural worst configuration time of the scenario's measured device."""
    topology = scenario.topology
    return structural_worst_latency(
        topology.timing,
        topology.segment_count,
        topology.device_rank(*scenario.measurement),
        ARRIVAL_GRID_NS,
    )


def default_worst_base_ns() -> int:
    """Structural worst of the multi-master preset, rounded to whole us."""
    worst = structural_worst_ns(load_preset("exp2"))
    return ((worst + 500) // 1_000) * 1_000


# -- PDO cycle comparison ----------------------------------------------------

@dataclass(frozen=True)
class PdoComparison:
    cycle_hi_ns: int
    cycle_lo_ns: int
    structural_worst_hi_ns: int
    structural_worst_lo_ns: int
    structural_delta_ns: int
    empirical_worst_hi_ns: int | None = None
    empirical_worst_lo_ns: int | None = None
    empirical_delta_ns: int | None = None


def pdo_reduction_analysis(scenario_hi: Scenario, scenario_lo: Scenario,
                           run_empirical: bool = True) -> PdoComparison:
    """Worst-case gain from shortening the PDO cycle.

    The two scenarios must be identical except for pdo_cycle_ns. The
    structural delta comes from the analytic worst-case bound and is
    seed-independent; the empirical worsts from the seeded runs are
    reported alongside.
    """
    def strip(s: Scenario) -> dict:
        doc = s.to_dict()
        doc.pop("outputs", None)
        doc["topology"]["timing"].pop("pdo_cycle_ns")
        return doc

    if strip(scenario_hi) != strip(scenario_lo):
        raise ValueError("scenarios must be identical except for pdo_cycle_ns")

    hi_struct = structural_worst_ns(scenario_hi)
    lo_struct = structural_worst_ns(scenario_lo)
    empirical_hi = empirical_lo = empirical_delta = None
    if run_empirical:
        empirical_hi = run_scenario(
            scenario_hi.with_changes(outputs=None)).stats.max_ns
        empirical_lo = run_scenario(
            scenario_lo.with_changes(outputs=None)).stats.max_ns
        empirical_delta = empirical_hi - empirical_lo
    return PdoComparison(
        cycle_hi_ns=scenario_hi.topology.timing.pdo_cycle_ns,
        cycle_lo_ns=scenario_lo.topology.timing.pdo_cycle_ns,
        structural_worst_hi_ns=hi_struct,
        structural_worst_lo_ns=lo_struct,
        structural_delta_ns=hi_struct - lo_struct,
        empirical_worst_hi_ns=empirical_hi,
        empirical_worst_lo_ns=empirical_lo,
        empirical_delta_ns=empirical_delta,
    )


def with_pdo_cycle(scenario: Scenario, cycle_ns: int) -> Scenario:
    """Clone a scenario with a different PDO cycle, all else identical."""
    doc = scenario.to_dict()
    doc["topology"]["timing"]["pdo_cycle_ns"] = cycle_ns
    return Scenario.from_dict(doc)
