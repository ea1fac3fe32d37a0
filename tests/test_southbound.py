"""Line protocol: acks, completion replies, error codes, TCP front-end."""

import contextlib
import json
import math
import os
import socket
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from meowsim.scenario import load_preset
from meowsim.simulation import analytic_latency
from meowsim.southbound import (
    MAX_LINE_BYTES,
    SouthboundServer,
    SouthboundSession,
    _parse_outputs,
)
from meowsim.stats import ns_to_us_str
from meowsim.topology import MAX_SEGMENT_DEVICES, MAX_SEGMENTS, SegmentSpec, TimingParams, Topology

from conftest import latched, serve_background

# one request line per intake fault on exp2's 4x2, and the session's replies
SINGLE_FAULTS = os.path.join(os.path.dirname(__file__), "data", "golden", "southbound_errors")
# seeded requests of 1-8 targets on exp2's 4x2, then the replies to them and
# to one request for every device of WIDE_SEGMENTS
COMPLETES = os.path.join(os.path.dirname(__file__), "data", "golden", "southbound_complete")
# (device count, phase) of each segment: unequal chains, most past ten devices,
# so the reply's "s/d" keys sort as strings ("0/10" before "0/2"), not as numbers
WIDE_SEGMENTS = ((250, 0), (1, 8_000), (40, 16_000), (8, 0), (100, 24_000), (17, 4_000))

def topology():
    return Topology(
        segments=(SegmentSpec(device_count=8),),
        timing=TimingParams(pdo_cycle_ns=32_000),
    )


def configure_line(rid, targets):
    return json.dumps({
        "type": "configure",
        "request_id": rid,
        "targets": [
            {"segment": s, "device": d, "outputs": w} for s, d, w in targets
        ],
    })


def strict_json(reply: str):
    """Parse a reply as strict JSON: the bare tokens NaN and Infinity fail."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(reply, parse_constant=reject)


def assert_completes_at_oracle_latency(session, rid):
    """A configure on the session completes at the oracle's latency."""
    ack, done = (json.loads(r) for r in
                 session.handle_line(configure_line(rid, [(0, 7, 1)])))
    assert ack == {"type": "ack", "request_id": rid}
    trace = done["trace"]
    timing = session.controller.timing
    wait = trace["t_master_emit_ns"]["0"] - (trace["t_generated_ns"] + timing.d_sb_ns)
    assert 0 <= wait < timing.pdo_cycle_ns
    assert trace["config_time_ns"] == analytic_latency(timing, 1, 8, wait)


class TestParseOutputs:
    def test_accepted_forms(self):
        assert _parse_outputs("0xBEEF") == 0xBEEF
        assert _parse_outputs("0Xbeef") == 0xBEEF
        assert _parse_outputs("123") == 123
        assert _parse_outputs(42) == 42

    def test_rejected_forms(self):
        with pytest.raises(ValueError):
            _parse_outputs(True)
        with pytest.raises(ValueError):
            _parse_outputs(1.5)
        with pytest.raises(ValueError):
            _parse_outputs("zz")
        # int() alone would take each of these: underscores, padding, a sign
        # and non-ASCII digits (Arabic-Indic three, fullwidth seven)
        session = SouthboundSession(topology())
        for rid, text in enumerate(("1_0", "\u0663", "\uff17", "0x\u0661", "0x_F", " 7 ", "+5",
                                    "-1", "0x", "")):
            with pytest.raises(ValueError):
                _parse_outputs(text)
            (reply,) = session.handle_line(configure_line(rid, [(0, 0, text)]))
            err = json.loads(reply)
            assert (err["code"], err["request_id"]) == ("BadMessage", rid), text
        assert session.controller.traces == {}


class TestSession:
    def test_ack_then_complete(self):
        session = SouthboundSession(topology())
        replies = [json.loads(r) for r in
                   session.handle_line(configure_line(1, [(0, 7, "0x0001")]))]
        assert [r["type"] for r in replies] == ["ack", "complete"]
        assert replies[0] == {"type": "ack", "request_id": 1}
        done = replies[1]
        # submitted at engine time 0: stage 70000, boundary 96000, rank 8
        assert done["config_time_us"] == 116.0
        assert done["trace"]["t_generated_ns"] == 0
        assert done["trace"]["t_master_emit_ns"] == {"0": 96_000}
        assert done["trace"]["t_latched_ns"] == {"0/7": 116_000}
        assert done["trace"]["config_time_ns"] == 116_000

    def test_config_time_us_matches_ns_exactly(self):
        session = SouthboundSession(topology())
        for rid, dev in enumerate([0, 3, 7]):
            replies = [json.loads(r) for r in
                       session.handle_line(configure_line(rid, [(0, dev, 0xAAAA)]))]
            done = replies[1]
            assert done["config_time_us"] * 1_000 == pytest.approx(
                round(done["trace"]["config_time_ns"], -2)
            )

    def test_same_seed_same_replies(self):
        a = SouthboundSession(topology(), seed=9)
        b = SouthboundSession(topology(), seed=9)
        line = configure_line(5, [(0, 2, "0xFFFF")])
        assert a.handle_line(line) == b.handle_line(line)

    def test_unknown_target_error(self):
        session = SouthboundSession(topology())
        (reply,) = session.handle_line(configure_line(1, [(0, 99, 1)]))
        err = json.loads(reply)
        assert err["type"] == "error"
        assert err["code"] == "UnknownTarget"
        assert err["request_id"] == 1

    def test_duplicate_request_error(self):
        session = SouthboundSession(topology())
        session.handle_line(configure_line(1, [(0, 0, 1)]))
        (reply,) = session.handle_line(configure_line(1, [(0, 1, 1)]))
        assert json.loads(reply)["code"] == "DuplicateRequestId"

    def test_bad_json(self):
        session = SouthboundSession(topology())
        (reply,) = session.handle_line("{nope")
        err = json.loads(reply)
        assert err["code"] == "BadMessage"
        assert err["request_id"] is None

    def test_non_object_message(self):
        session = SouthboundSession(topology())
        (reply,) = session.handle_line("[1, 2]")
        assert json.loads(reply)["code"] == "BadMessage"

    def test_wrong_type_field(self):
        session = SouthboundSession(topology())
        (reply,) = session.handle_line(json.dumps({"type": "reset", "request_id": 2}))
        err = json.loads(reply)
        assert err["code"] == "BadMessage"
        assert err["request_id"] == 2

    def test_malformed_target(self):
        session = SouthboundSession(topology())
        line = json.dumps({
            "type": "configure", "request_id": 3,
            "targets": [{"segment": 0, "outputs": 1}],  # device missing
        })
        (reply,) = session.handle_line(line)
        assert json.loads(reply)["code"] == "BadMessage"

    def test_bad_outputs_value(self):
        session = SouthboundSession(topology())
        (reply,) = session.handle_line(configure_line(4, [(0, 0, "0x10000")]))
        assert json.loads(reply)["code"] == "BadMessage"

    @pytest.mark.parametrize("line, echoed_id", [
        (json.dumps({"type": "configure", "request_id": 5,
                     "targets": [{"segment": 0, "device": 0.5, "outputs": 1}]}), 5),
        (json.dumps({"type": "configure", "request_id": 5,
                     "targets": [{"segment": 0, "device": True, "outputs": 1}]}), 5),
        (json.dumps({"type": "configure", "request_id": 5,
                     "targets": [{"segment": 0.0, "device": 0, "outputs": 1}]}), 5),
        (json.dumps({"type": "configure", "request_id": [1],
                     "targets": [{"segment": 0, "device": 0, "outputs": 1}]}), None),
        (json.dumps({"type": "configure",
                     "targets": [{"segment": 0, "device": 0, "outputs": 1}]}), None),
        ("[" * 100_000, None),
        ("1" * 5_000, None),
        ('{"type": "configure", "request_id": ' + "9" * 5_000 + ', "targets": []}', None),
        ('{"type": "configure", "request_id": 1e400, "targets": []}', None),
        ('{"type": "configure", "request_id": NaN, "targets": []}', None),
    ], ids=["fractional-device", "bool-device", "float-segment",
            "list-request-id", "missing-request-id", "deeply-nested",
            "long-integer-literal", "long-request-id",
            "nonfinite-request-id-1e400", "nonfinite-request-id-nan"])
    def test_bad_field_types_rejected_and_session_survives(self, line, echoed_id):
        session = SouthboundSession(topology())
        (reply,) = session.handle_line(line)
        err = strict_json(reply)
        # only an int request_id is echoed, so the reply stays strict JSON
        assert (err["code"], err["request_id"]) == ("BadMessage", echoed_id)
        # the shared simulation keeps running: a valid request still
        # completes at the oracle's latency for its boundary wait
        assert_completes_at_oracle_latency(session, 6)

    LONG_TEXT = "x" * 100_000
    LONG_WORDS = "x " * 50_000  # not alphanumeric, so _parse_outputs' own message
    LONG_LIST = list(range(50_000))
    LONG_HEX = "0x" + "F" * 100_000
    LONG_INT = int("9" * 4_000)  # json.loads converts up to 4300 digits

    @pytest.mark.parametrize("field, value, code, message", [
        ("segment", LONG_TEXT, "BadMessage",
         f"segment must be an integer, got {LONG_TEXT!r:.200}"),
        ("device", LONG_TEXT, "BadMessage",
         f"device must be an integer, got {LONG_TEXT!r:.200}"),
        ("outputs", LONG_LIST, "BadMessage",
         f"outputs must be an integer or hex string, got {LONG_LIST!r:.200}"),
        ("outputs", LONG_WORDS, "BadMessage",
         f"outputs must be decimal or 0x-prefixed hex digits, got {LONG_WORDS!r:.200}"),
        ("outputs", LONG_HEX, "BadMessage",
         f"output word must fit 16 bits, got {LONG_HEX.lower():.200}"),
        ("request_id", LONG_LIST, "BadMessage",
         f"request_id must be an integer, got {LONG_LIST!r:.200}"),
        ("type", LONG_TEXT, "BadMessage", f"unknown message type {LONG_TEXT!r:.200}"),
        ("segment", LONG_INT, "UnknownTarget",
         f"target segment {LONG_INT!s:.200} device 0 not in topology"),
    ], ids=["segment", "device", "outputs-list", "outputs-text", "outputs-hex",
            "request-id", "type", "segment-int"])
    def test_error_quotes_at_most_200_characters_of_a_client_value(self, field, value, code,
                                                                   message):
        target = {"segment": 0, "device": 0, "outputs": 1}
        request = {"type": "configure", "request_id": 3, "targets": [target]}
        (target if field in target else request)[field] = value
        session = SouthboundSession(topology())
        (reply,) = session.handle_line(json.dumps(request))
        err = json.loads(reply)
        assert (err["type"], err["code"], err["message"]) == ("error", code, message)
        assert len(reply) < 400
        assert session.controller.traces == {}

    def test_duplicate_id_quotes_at_most_200_digits(self):
        session = SouthboundSession(topology())
        line = configure_line(self.LONG_INT, [(0, 0, 1)])
        session.handle_line(line)
        (reply,) = session.handle_line(line)
        err = json.loads(reply)
        # the id itself is echoed whole: it is the reply's key, not a quote
        assert (err["code"], err["request_id"]) == ("DuplicateRequestId", self.LONG_INT)
        assert err["message"] == f"request {self.LONG_INT!s:.200} already submitted"

    def test_unexpected_failure_replies_internal_error(self, monkeypatch, caplog):
        session = SouthboundSession(topology())

        def broken(request_id):
            raise RuntimeError("boom")

        with monkeypatch.context() as patch:
            patch.setattr(session.controller, "run_until_complete", broken)
            (reply,) = session.handle_line(configure_line(1, [(0, 7, 1)]))
        err = json.loads(reply)
        assert (err["type"], err["code"]) == ("error", "InternalError")
        assert "boom" in err["message"]
        assert "RuntimeError: boom" in caplog.text  # the traceback is logged
        # the request was staged before the failure; it still runs to
        # completion alongside the next one
        assert_completes_at_oracle_latency(session, 2)
        assert session.controller.traces[1].complete

    def test_zero_southbound_delay_waits_under_one_cycle(self):
        # each request is generated where the previous one completed; with
        # d_sb_ns = 0 it is handed in at once and must ride the next frame.
        # On the 1x1 chain, head + hop + latch is one cycle: every request
        # completes exactly on a boundary, whose frame the next one rides.
        for devices, d_latch_ns in ((2, 800), (1, 19_100)):
            timing = TimingParams(pdo_cycle_ns=32_000, d_sb_ns=0, d_latch_ns=d_latch_ns)
            session = SouthboundSession(
                Topology(segments=(SegmentSpec(device_count=devices),), timing=timing)
            )
            for rid in range(20):
                _, done = (json.loads(r) for r in session.handle_line(
                    configure_line(rid, [(0, devices - 1, rid % 2)])))
                trace = done["trace"]
                wait = trace["t_master_emit_ns"]["0"] - trace["t_generated_ns"]
                assert 0 <= wait < timing.pdo_cycle_ns
                assert trace["config_time_ns"] == analytic_latency(timing, 1, devices, wait)

    def test_single_fault_replies_are_pinned(self):
        scenario = load_preset("exp2")
        session = SouthboundSession(scenario.topology, seed=scenario.seed)
        with open(SINGLE_FAULTS + ".jsonl", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        with open(SINGLE_FAULTS + ".replies", encoding="utf-8") as fh:
            expected = fh.read()
        replies = [reply for line in lines for reply in session.handle_line(line)]
        assert "".join(reply + "\n" for reply in replies) == expected

    def test_ack_and_complete_replies_are_pinned(self):
        scenario = load_preset("exp2")
        session = SouthboundSession(scenario.topology, seed=scenario.seed)
        with open(COMPLETES + ".jsonl", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        with open(COMPLETES + ".replies", encoding="utf-8") as fh:
            expected = fh.read()
        replies = [reply for line in lines for reply in session.handle_line(line)]
        wide = Topology(
            segments=tuple(SegmentSpec(device_count=n, phase_ns=p) for n, p in WIDE_SEGMENTS),
            timing=scenario.topology.timing,
        )
        every_device = [(s, d, (s << 12 | d) & 0xFFFF) for s, d in wide.all_targets()]
        replies += SouthboundSession(wide, seed=scenario.seed).handle_line(
            configure_line(7, every_device))
        assert [json.loads(r)["type"] for r in replies] == ["ack", "complete"] * 41
        assert "".join(reply + "\n" for reply in replies) == expected

    def test_simulated_clock_advances_across_requests(self):
        session = SouthboundSession(topology())
        session.handle_line(configure_line(1, [(0, 0, 1)]))
        t1 = session.engine.now
        session.handle_line(configure_line(2, [(0, 0, 2)]))
        assert session.engine.now > t1


@contextlib.contextmanager
def serving(topo=None):
    """A SouthboundServer on loopback; yields a function that connects.

    Each connection is accepted with handle_request, so no serve_forever
    loop has to be shut down (its poll interval is half a second); the two
    tests above cover serve_forever.
    """
    server = SouthboundServer(("127.0.0.1", 0), topo or topology(), seed=0)

    def connect():
        sock = socket.create_connection(server.bound_address, timeout=5)
        server.handle_request()
        return sock

    try:
        yield connect
    finally:
        server.server_close()


class TestTcpServer:
    def roundtrip(self, sock_file, sock, line):
        sock.sendall(line.encode("utf-8") + b"\n")
        return [json.loads(sock_file.readline()) for _ in range(2)]

    def test_over_real_socket(self):
        server = SouthboundServer(("127.0.0.1", 0), topology(), seed=0)
        thread = serve_background(server)
        try:
            host, port = server.bound_address
            with socket.create_connection((host, port), timeout=5) as sock:
                fh = sock.makefile("rb")
                replies = self.roundtrip(fh, sock, configure_line(1, [(0, 7, 1)]))
                assert replies[0]["type"] == "ack"
                assert replies[1]["type"] == "complete"
                assert replies[1]["config_time_us"] == 116.0

                sock.sendall(configure_line(2, [(9, 0, 1)]).encode() + b"\n")
                err = json.loads(fh.readline())
                assert err["code"] == "UnknownTarget"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_two_connections_share_one_simulation(self):
        server = SouthboundServer(("127.0.0.1", 0), topology(), seed=0)
        thread = serve_background(server)
        try:
            host, port = server.bound_address
            with socket.create_connection((host, port), timeout=5) as s1:
                f1 = s1.makefile("rb")
                self.roundtrip(f1, s1, configure_line(1, [(0, 0, 1)]))
            with socket.create_connection((host, port), timeout=5) as s2:
                f2 = s2.makefile("rb")
                s2.sendall(configure_line(1, [(0, 1, 1)]).encode() + b"\n")
                err = json.loads(f2.readline())
                assert err["code"] == "DuplicateRequestId"  # same engine behind both
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_sequential_round_trips_are_not_held_by_delayed_ack(self):
        # with the ack and the completion in two segments and Nagle on, each
        # round trip waited ~40 ms for the client's delayed ACK
        with serving() as connect, connect() as sock:
            fh = sock.makefile("rb")
            start = time.perf_counter()
            for rid in range(30):
                replies = self.roundtrip(fh, sock, configure_line(rid, [(0, rid % 8, rid)]))
                assert [r["type"] for r in replies] == ["ack", "complete"]
            assert time.perf_counter() - start < 0.5

    def test_pipelined_lines_replied_in_order(self):
        lines = [configure_line(rid, [(0, rid % 8, rid), (0, (rid + 3) % 8, 0xFFFF)])
                 for rid in range(30)]
        reference = SouthboundSession(topology(), seed=0)
        expected = [(reply + "\n").encode("utf-8")
                    for line in lines for reply in reference.handle_line(line)]
        assert len(expected) == 60
        with serving() as connect, connect() as sock:
            fh = sock.makefile("rb")
            sock.sendall(b"".join(line.encode("utf-8") + b"\n" for line in lines))
            assert [fh.readline() for _ in expected] == expected

    def test_invalid_utf8_line_gets_bad_message(self):
        with serving() as connect, connect() as sock:
            fh = sock.makefile("rb")
            sock.sendall(b"\xff\xfe\n")
            err = json.loads(fh.readline())
            assert (err["code"], err["request_id"]) == ("BadMessage", None)
            # the connection stays open
            replies = self.roundtrip(fh, sock, configure_line(1, [(0, 7, 1)]))
            assert replies[1]["config_time_us"] == 116.0

    def test_request_for_every_device_of_a_full_topology_fits_a_line(self):
        full = Topology(
            segments=tuple(SegmentSpec(device_count=MAX_SEGMENT_DEVICES)
                           for _ in range(MAX_SEGMENTS)),
            timing=TimingParams(pdo_cycle_ns=80_000),
        )
        targets = [(s, d, "0xFFFF") for s in range(MAX_SEGMENTS)
                   for d in range(MAX_SEGMENT_DEVICES)]
        line = configure_line(2**63, targets)
        assert 200_000 < len(line) < MAX_LINE_BYTES
        with serving(full) as connect, connect() as sock:
            replies = self.roundtrip(sock.makefile("rb"), sock, line)
            assert [r["type"] for r in replies] == ["ack", "complete"]
            assert len(replies[1]["trace"]["t_latched_ns"]) == len(targets)

    def test_overlong_line_gets_bad_message_and_is_closed(self):
        with serving() as connect:
            with connect() as sock:
                fh = sock.makefile("rb")
                sock.sendall(b" " * (MAX_LINE_BYTES + 1) + b"\n")
                err = json.loads(fh.readline())
                assert (err["code"], err["request_id"]) == ("BadMessage", None)
                assert str(MAX_LINE_BYTES) in err["message"]
                try:
                    rest = fh.readline()
                except ConnectionResetError:  # the unread newline may turn the close into a reset
                    rest = b""
                assert rest == b""
            # the server goes on serving other connections
            with connect() as sock:
                replies = self.roundtrip(sock.makefile("rb"), sock,
                                         configure_line(1, [(0, 7, 1)]))
                assert replies[1]["config_time_us"] == 116.0

    def test_line_of_exactly_the_limit_is_read(self):
        line = configure_line(1, [(0, 7, 1)]).encode("utf-8")
        padded = line + b" " * (MAX_LINE_BYTES - len(line) - 1) + b"\n"
        assert len(padded) == MAX_LINE_BYTES
        with serving() as connect, connect() as sock:
            fh = sock.makefile("rb")
            sock.sendall(padded)
            assert [json.loads(fh.readline())["type"] for _ in range(2)] == ["ack", "complete"]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=10,
)
# non-finite numbers are drawn on purpose: an echoed one would make a
# reply that strict JSON parsers reject
NONFINITE = st.sampled_from((math.inf, -math.inf, math.nan))
FIELDS = st.integers(-2, 9) | NONFINITE | JSON_VALUES
CONFIGURES = st.fixed_dictionaries(
    {"type": st.just("configure"), "request_id": FIELDS},
    optional={
        "targets": st.lists(
            st.fixed_dictionaries(
                {},
                optional={"segment": FIELDS, "device": FIELDS,
                          "outputs": st.integers(-1, 0x10000) | FIELDS},
            ),
            max_size=3,
        ) | JSON_VALUES,
    },
)
LINES = st.text() | JSON_VALUES.map(json.dumps) | CONFIGURES.map(json.dumps)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(LINES, max_size=6))
def test_any_lines_leave_the_session_serving(lines):
    """After any lines, valid or not, a valid configure still completes at
    the oracle's latency."""
    session = SouthboundSession(topology())
    for line in lines:
        for reply in map(strict_json, session.handle_line(line)):
            assert reply["type"] in ("ack", "complete", "error")
            assert reply.get("code") != "InternalError"
    traces = session.controller.traces
    assert all(trace.complete for trace in traces.values())
    assert_completes_at_oracle_latency(session, max(traces, default=0) + 1)


@st.composite
def requests_on_chains(draw):
    """A topology of 1-6 segments of up to 20 devices, and 1-3 requests on it.

    Each request names a random subset of the devices in random list order,
    each word as a JSON int, decimal digits or 0x hex. Chains past ten
    devices put "0/10" before "0/2" in sorted keys.
    """
    timing = load_preset("exp2").topology.timing
    chains = draw(st.lists(st.tuples(st.integers(1, 20),
                                     st.integers(0, timing.pdo_cycle_ns - 1)),
                           min_size=1, max_size=MAX_SEGMENTS))
    topo = Topology(segments=tuple(SegmentSpec(n, phase) for n, phase in chains), timing=timing)
    devices = list(topo.all_targets())
    word_forms = st.sampled_from((lambda w: w, str, lambda w: f"0x{w:X}"))
    requests = []
    for rid in range(draw(st.integers(1, 3))):
        targets = draw(st.lists(st.sampled_from(devices), min_size=1, unique=True))
        requests.append((rid, [(s, d, draw(word_forms)(draw(st.integers(0, 0xFFFF))))
                               for s, d in targets]))
    return topo, requests


@settings(max_examples=100, deadline=None)
@given(requests_on_chains())
def test_complete_reply_equals_a_naive_scan_of_the_trace(case):
    """Each complete reply is, byte for byte, json.dumps with sorted keys of a
    reply whose t_latched_ns scans the trace's masks word by word; it holds
    exactly the request's targets."""
    topo, requests = case
    session = SouthboundSession(topo, seed=1)
    for rid, targets in requests:
        ack, complete = session.handle_line(configure_line(rid, targets))
        trace = session.controller.traces[rid]
        latches = latched(trace)
        assert sorted(latches) == sorted((s, d) for s, d, _ in targets)
        expected = {
            "type": "complete",
            "request_id": rid,
            "config_time_us": float(ns_to_us_str(trace.config_time_ns)),
            "trace": {
                "t_generated_ns": trace.t_generated_ns,
                "t_master_emit_ns": {str(s): seg.emit_ns for s, seg in trace.segments.items()},
                "t_latched_ns": {f"{s}/{d}": t for (s, d), t in latches.items()},
                "config_time_ns": trace.config_time_ns,
            },
        }
        assert ack == json.dumps({"type": "ack", "request_id": rid}, sort_keys=True)
        assert complete == json.dumps(expected, sort_keys=True)
