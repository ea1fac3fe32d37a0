"""Southbound wire protocol: newline-delimited JSON over a byte stream.

Request:  {"type":"configure","request_id":N,
           "targets":[{"segment":s,"device":d,"outputs":"0xHHHH"}]}
Replies:  {"type":"ack","request_id":N}
          {"type":"complete","request_id":N,"config_time_us":X.Y,"trace":{...}}
Errors:   {"type":"error","request_id":N,"code":"UnknownTarget","message":...}

outputs is a JSON int, ASCII decimal digits or 0x and ASCII hex digits. A
request with several faults is answered for its first bad target, then an
empty list, then the id's type, then a used id. An error message quotes at
most 200 characters of a client value. The complete reply's t_latched_ns
holds exactly the request's targets.

The same handler runs in-process (SouthboundSession.handle_line) or behind
a TCP listener. Concurrent connections are serialized onto the single
event engine; observable behavior equals some serial arrival order. Over
TCP the replies to one line leave in one write, so a client may pipeline
lines and reads the replies back in line order. A TCP line longer than
MAX_LINE_BYTES gets one BadMessage reply and its connection is closed.
"""

from __future__ import annotations

import json
import socketserver
import threading

from .controller import DeviceController, RequestTrace
from .engine import Engine
from .errors import MeowError
from .stats import ns_to_us_str
from .topology import Topology

# the one encoder of every reply (json.dumps builds one per call given
# sort_keys); a reply is a tree of fresh dicts, so no cycle check
_encode = json.JSONEncoder(sort_keys=True, check_circular=False).encode

# the longest TCP line read, newline included: a request for every device of
# a full 6x743 topology is ~231 KB in json.dumps's default form
MAX_LINE_BYTES = 1 << 20


def _parse_outputs(value) -> int:
    if isinstance(value, str):
        # int() alone would also take "1_0", " 7 ", "+5" and non-ASCII digits
        if not (value.isascii() and value.isalnum()):
            raise ValueError(f"outputs must be decimal or 0x-prefixed hex digits, "
                             f"got {value!r:.200}")
        return int(value, 16 if value[:2] in ("0x", "0X") else 10)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"outputs must be an integer or hex string, got {value!r:.200}")


class SouthboundSession:
    """One controller + engine behind the line protocol."""

    def __init__(self, topology: Topology, seed: int = 0):
        self.engine = Engine(seed=seed)
        self.controller = DeviceController(self.engine, topology)
        self._lock = threading.Lock()
        self._latch_keys = [[f"{s}/{d}" for d in range(seg.device_count)]  # formatted once
                            for s, seg in enumerate(topology.segments)]

    def handle_line(self, line: str) -> list[str]:
        """Process one request line; returns the reply lines in order.

        Never raises: a failure the protocol has no code for is logged and
        answered with an InternalError reply.
        """
        with self._lock:
            try:
                return list(map(_encode, self._handle(line)))
            except Exception as exc:  # one client's line must not stop the server
                import logging  # here, not at the top: it adds ~9 ms to start-up

                logging.getLogger(__name__).exception("southbound line failed: %.200r", line)
                return [_encode(self._error(None, "InternalError", repr(exc)))]

    @classmethod
    def bad_message(cls, reason: str) -> list[str]:
        """The reply lines to a line that could not be read as text."""
        return [_encode(cls._error(None, "BadMessage", reason))]

    def _handle(self, line: str):
        try:
            message = json.loads(line)
        except (ValueError, RecursionError) as exc:
            # ValueError also covers integer literals too long to convert
            return [self._error(None, "BadMessage", f"not valid JSON: {exc}")]
        if not isinstance(message, dict):
            return [self._error(None, "BadMessage", "message must be an object")]
        request_id = message.get("request_id")
        if message.get("type") != "configure":
            return [self._error(request_id, "BadMessage",
                                f"unknown message type {message.get('type')!r:.200}")]
        try:
            targets = ((raw["segment"], raw["device"], _parse_outputs(raw["outputs"]))
                       for raw in message["targets"])
            self.controller.submit(request_id, targets, self.engine.now)
        except (KeyError, TypeError, ValueError) as exc:
            # before MeowError: a WrongType field is a TypeError, so a BadMessage
            return [self._error(request_id, "BadMessage", str(exc))]
        except MeowError as exc:
            return [self._error(request_id, type(exc).__name__, str(exc))]

        trace = self.controller.run_until_complete(request_id)
        return [{"type": "ack", "request_id": request_id}, {
            "type": "complete",
            "request_id": request_id,
            "config_time_us": float(ns_to_us_str(trace.config_time_ns)),
            "trace": self._trace_dict(trace, message["targets"]),
        }]

    def _trace_dict(self, trace: RequestTrace, targets: list) -> dict:
        """The complete reply's trace; submit accepted targets, so each names
        a device of the topology once and t_latched_ns holds exactly them."""
        keys, latch_ns = self._latch_keys, trace.latch_ns
        return {
            "t_generated_ns": trace.t_generated_ns,
            "t_master_emit_ns": trace.t_master_emit_ns,  # int keys: JSON writes them as strings
            "t_latched_ns": {keys[raw["segment"]][raw["device"]]:
                             latch_ns(raw["segment"], raw["device"]) for raw in targets},
            "config_time_ns": trace.config_time_ns,
        }

    @staticmethod
    def _error(request_id, code: str, message: str) -> dict:
        if not isinstance(request_id, int) or isinstance(request_id, bool):
            request_id = None  # 1e400 or NaN would go out as non-standard JSON
        return {
            "type": "error",
            "request_id": request_id,
            "code": code,
            "message": message,
        }


class _LineHandler(socketserver.StreamRequestHandler):
    # TCP_NODELAY: a reply must not wait for the client's delayed ACK of the
    # previous one (Nagle, RFC 896)
    disable_nagle_algorithm = True

    def handle(self):
        session = self.server.session
        while raw := self.rfile.readline(MAX_LINE_BYTES + 1):
            if len(raw) > MAX_LINE_BYTES:
                self.reply(session.bad_message(f"line longer than {MAX_LINE_BYTES} bytes"))
                return  # the rest of the line is never read
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                replies = session.bad_message(f"not valid UTF-8: {exc}")
            else:
                if not line:
                    continue
                replies = session.handle_line(line)
            self.reply(replies)

    def reply(self, replies: list[str]) -> None:
        # one send per line: separate sends would leave as separate segments
        self.connection.sendall(("\n".join(replies) + "\n").encode())


class SouthboundServer(socketserver.ThreadingTCPServer):
    """TCP front-end for the line protocol; one shared simulator session."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, topology: Topology, seed: int = 0):
        super().__init__(address, _LineHandler)
        self.session = SouthboundSession(topology, seed=seed)

    @property
    def bound_address(self):
        return self.server_address
