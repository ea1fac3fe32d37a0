"""Shared pytest wiring.

Acceptance-criterion lines survive output capture: each acceptance test
records exactly one PASS/FAIL line. The lines are printed immediately
(visible with -s or on failure) and repeated in the terminal summary,
which pytest never captures.

The dispatches fixture observes every event any engine runs; the
no_simulation fixture fails a test whose code starts a run. The helpers
below serve only the tests: reading a master's words, a trace's latches
and a trace line, recording each device's latch history, reading exports
back, a Kolmogorov-Smirnov test against the uniform distribution, and
serving TCP on a background thread.
"""

import csv
import math
import threading

import pytest

from meowsim import bench
from meowsim.bench import CSV_COLUMNS, _trace_line
from meowsim.engine import Engine
from meowsim.errors import IoFailure
from meowsim.simulation import DeviceState, word_positions

ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def criterion():
    def _record(line: str) -> None:
        ACCEPTANCE_LINES.append(line)
        print(line)
    return _record


@pytest.fixture
def no_simulation(monkeypatch):
    """Fail the test if a run starts: bad flags and paths are caught before it."""
    def started(*args, **kwargs):
        raise AssertionError("a simulation started")
    monkeypatch.setattr(bench, "Engine", started)


@pytest.fixture
def dispatches(monkeypatch):
    """Every event dispatched while the test runs, as (time_ns, kind, args).

    Each handler is wrapped when it is registered through Engine.on, so
    only engines built inside the test are observed.
    """
    seen = []
    register = Engine.on

    def recording_on(engine, kind, handler):
        def record(*args):
            seen.append((engine.now, kind, args))
            handler(*args)
        register(engine, kind, record)

    monkeypatch.setattr(Engine, "on", recording_on)
    return seen


def image_words(image: int, device_count: int) -> list[int]:
    """The output word of each of device_count devices in a packed image, in chain order."""
    return [image >> 16 * p & 0xFFFF for p in range(device_count)]


def master_words(controller) -> list[list[int]]:
    """Each master's words, in segment order, each in chain order."""
    return [image_words(master.image, seg.device_count)
            for master, seg in zip(controller.masters, controller.topology.segments)]


def latched(trace) -> dict[tuple[int, int], int]:
    """{(segment, device): latch time} of every target whose frame has left.

    A naive scan of each segment's mask, one word at a time, apart from the
    routes src/ takes to the same times.
    """
    latches = {}
    for seg, st in trace.segments.items():
        if st.first_latch_ns is not None:
            mask = trace.writes[seg][0]
            for device in range((mask.bit_length() + 15) // 16):
                if mask >> 16 * device & 0xFFFF:
                    latches[seg, device] = st.first_latch_ns + device * trace.hop_ns
    return latches


def changed_words(before: int, after: int) -> tuple:
    """((device, new word), ...) of the words that differ between two images."""
    return tuple((p, after >> 16 * p & 0xFFFF) for p in word_positions(before ^ after))


class LatchRecorder:
    """Each device's latch history, recorded beside a controller that keeps none.

    Attach it before the controller builds its first frame. It wraps each
    master's build_frame on the instance and reads the image before and
    after: a frame at boundary B first latches at B + d_frame_head_ns +
    d_hop_ns + d_latch_ns, and device p latches its changed word p *
    d_hop_ns later. devices maps (segment, device) to a DeviceState, for
    every device of the topology; latches can lie ahead of the clock.
    """

    def __init__(self, controller):
        if any(st.emit_ns is not None
               for trace in controller.traces.values() for st in trace.segments.values()):
            raise RuntimeError("attach a LatchRecorder before the controller's first frame")
        timing = controller.timing
        hop = timing.d_hop_ns
        offset = timing.d_frame_head_ns + hop + timing.d_latch_ns
        self.devices = {(s, d): DeviceState(s, d) for s, d in controller.topology.all_targets()}

        def record(seg, master):
            build = master.build_frame

            def build_and_record(boundary_ns):
                before = master.image
                riders = build(boundary_ns)
                first_latch = boundary_ns + offset
                for p, word in changed_words(before, master.image):
                    self.devices[(seg, p)].latch(word, first_latch + p * hop)
                return riders

            master.build_frame = build_and_record

        for seg, master in enumerate(controller.masters):
            record(seg, master)


def format_trace_line(trace) -> str:
    """The line export_trace writes for one trace."""
    return _trace_line(trace, {})


def read_csv_rows(path: str):
    """Parse an exported CSV back into its textual rows."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = tuple(next(reader))
            if header != CSV_COLUMNS:
                raise ValueError(f"unexpected CSV header {header}")
            return [tuple(line) for line in reader]
    except OSError as exc:
        raise IoFailure(f"cannot read CSV {path}: {exc}") from exc


def us_str_to_ns(text: str) -> int:
    """Inverse of stats.ns_to_us_str on its one-decimal output."""
    whole, _, frac = text.partition(".")
    if len(frac) != 1:
        raise ValueError(f"expected one decimal digit: {text!r}")
    return int(whole) * 1_000 + int(frac) * 100


def ks_statistic_uniform(values, lo: int, hi: int) -> float:
    """One-sample two-sided KS statistic against uniform on [lo, hi).

    Continuous-uniform reference; with a discrete grid the statistic is
    conservative (never understates the distance).
    """
    if hi <= lo:
        raise ValueError("need hi > lo")
    values = sorted(values)
    n = len(values)
    if n == 0:
        raise ValueError("no values")
    width = hi - lo
    d = 0.0
    for i, v in enumerate(values):
        cdf = min(max((v - lo) / width, 0.0), 1.0)
        d = max(d, abs((i + 1) / n - cdf), abs(cdf - i / n))
    return d


def ks_critical_value(n: int, alpha: float = 0.01) -> float:
    """Asymptotic two-sided KS critical value c(alpha)/sqrt(n)."""
    # c(alpha) = sqrt(-ln(alpha/2)/2); 1.62762 at the 1% level
    return math.sqrt(-math.log(alpha / 2.0) / 2.0) / math.sqrt(n)


def serve_background(server) -> threading.Thread:
    """Run a SouthboundServer's serve_forever on a daemon thread."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
