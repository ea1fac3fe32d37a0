"""Network controller: path table, large-flow detection, OCS allocation.

Mirrors the experiment's simple network controller: it watches flows,
promotes large ones to the optical network, allocates a cross-connect
word on a switch device, and asks the device controller to configure it.
NetworkController is the one entry point; it owns the path table and
runs every step of a path's life.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import attrgetter

from .controller import DeviceController
from .errors import NoCapacity, UnknownPath, WrongState
from .topology import Topology, require_int


class PathState(Enum):
    RESERVED = "Reserved"
    CONFIGURING = "Configuring"
    ACTIVE = "Active"
    RELEASED = "Released"


@dataclass(frozen=True)
class FlowStats:
    flow_id: str
    src_tor: str
    dst_tor: str
    rate_bps: int
    service_tag: str | None = None

    def __post_init__(self):
        if self.rate_bps < 0:
            raise ValueError(f"rate_bps must be >= 0, got {self.rate_bps!s:.200}")


@dataclass(frozen=True)
class ProactiveRule:
    """Predefined large-flow rule; None fields match anything."""

    rule_id: str
    priority: int
    src_tor: str | None = None
    dst_tor: str | None = None
    service_tag: str | None = None


# the flow fields a ProactiveRule can constrain; None in a rule matches anything
_RULE_FIELDS = ("src_tor", "dst_tor", "service_tag")


@dataclass
class OpticalPathEntry:
    path_id: int
    src_tor: str
    dst_tor: str
    hops: tuple  # ((segment, device, output word), ...)
    state: PathState = PathState.RESERVED
    config_time_ns: int | None = None
    request_id: int | None = None

    def __post_init__(self):
        if not self.hops:
            raise ValueError("path needs at least one hop")


class OcsResourceModel:
    """The words taken on each switch device, in chain order; word 0 stays idle."""

    def __init__(self, topology: Topology, words_per_device: int = 16):
        require_int("words_per_device", words_per_device)
        if not 1 <= words_per_device <= 0xFFFF:
            raise ValueError("words_per_device must be in [1, 65535]")
        self.words_per_device = words_per_device
        self.held: dict[tuple[int, int], set[int]] = {k: set() for k in topology.all_targets()}

    def first_fit(self):
        """Lowest free (segment, device, word), or None."""
        for (segment, device), words in self.held.items():
            if len(words) < self.words_per_device:
                word = 1  # one of 1 .. len(words) + 1 is free
                while word in words:
                    word += 1
                return segment, device, word
        return None

    def take(self, segment: int, device: int, word: int) -> None:
        if word in self.held[(segment, device)] or not 1 <= word <= self.words_per_device:
            raise KeyError(word)
        self.held[(segment, device)].add(word)

    def give_back(self, segment: int, device: int, word: int) -> None:
        if word not in self.held[(segment, device)]:
            raise AssertionError("double free")
        self.held[(segment, device)].remove(word)


class NetworkController:
    """Ties the path table and resource model to one device controller."""

    def __init__(self, resources: OcsResourceModel, device_controller: DeviceController):
        self.resources = resources
        self.device_controller = device_controller
        self.table: dict[int, OpticalPathEntry] = {}
        self.rules: dict[str, ProactiveRule] = {}
        self._next_path_id = 1
        self._next_request_id = 1

    # -- flow detection ----------------------------------------------------

    def add_rule(self, rule: ProactiveRule) -> None:
        if rule.rule_id in self.rules:
            raise ValueError(f"duplicate rule id {rule.rule_id!r:.200}")
        if any(r.priority == rule.priority for r in self.rules.values()):
            raise ValueError(f"duplicate rule priority {rule.priority}")
        self.rules[rule.rule_id] = rule

    def detect_flows(self, stats, threshold_bps: int):
        """Classify flows in one pass: proactive rule match first, rate threshold second.

        The rules are indexed by shape, the fields a rule constrains, and
        within a shape by the values it requires, so each flow costs one
        dict lookup per shape. Each key keeps the rule that comes first in
        descending priority, and a flow takes the first among its hits;
        add_rule keeps priorities unique, so that is the highest-priority
        rule that matches the flow. stats may be a one-shot iterator.
        """
        if threshold_bps <= 0:
            raise ValueError(f"threshold_bps must be positive, got {threshold_bps!s:.200}")
        ordered = sorted(self.rules.values(), key=attrgetter("priority"), reverse=True)
        no_match = len(ordered)
        match_all = no_match  # rank in ordered of the first rule constraining nothing
        index: dict[tuple, dict] = {}  # shape -> {required values: rank in ordered}
        for rank, rule in enumerate(ordered):
            shape = tuple(f for f in _RULE_FIELDS if getattr(rule, f) is not None)
            if shape:
                index.setdefault(shape, {}).setdefault(attrgetter(*shape)(rule), rank)
            else:
                match_all = min(match_all, rank)
        lookups = [(attrgetter(*shape), ranks) for shape, ranks in index.items()]
        report = []
        for flow in stats:
            best = match_all
            for values_of, ranks in lookups:
                rank = ranks.get(values_of(flow), no_match)
                if rank < best:
                    best = rank
            if best < no_match:
                report.append({"flow_id": flow.flow_id, "mode": "proactive",
                               "rule_id": ordered[best].rule_id})
            elif flow.rate_bps >= threshold_bps:
                report.append({"flow_id": flow.flow_id, "mode": "reactive",
                               "rule_id": None})
        return report

    # -- path lifecycle ------------------------------------------------------

    def _entry(self, path_id: int, state: PathState) -> OpticalPathEntry:
        """The path's entry, which must be in the given state."""
        entry = self.table.get(path_id)
        if entry is None:
            raise UnknownPath(f"no path {path_id}")
        if entry.state is not state:
            raise WrongState(f"path {path_id} is {entry.state.value}, not {state.value}")
        return entry

    def allocate(self, src_tor: str, dst_tor: str) -> OpticalPathEntry:
        """First-fit allocation of one cross-connect word; entry starts Reserved."""
        if src_tor == dst_tor:
            raise ValueError(f"src and dst must differ, both {src_tor!r:.200}")
        hop = self.resources.first_fit()
        if hop is None:
            raise NoCapacity("no free cross-connect word on any device")
        self.resources.take(*hop)
        path_id = self._next_path_id
        self._next_path_id += 1
        entry = OpticalPathEntry(path_id=path_id, src_tor=src_tor, dst_tor=dst_tor,
                                 hops=(hop,))
        self.table[path_id] = entry
        return entry

    def activate(self, path_id: int) -> int:
        """Reserved -> Configuring; returns the configure request id.

        wait flips the path Active. If the submit fails, the entry stays
        Reserved and no request id is used up.
        """
        entry = self._entry(path_id, PathState.RESERVED)
        request_id = self._next_request_id
        dc = self.device_controller
        dc.submit(request_id, entry.hops, dc.engine.now)
        self._next_request_id += 1
        entry.state = PathState.CONFIGURING
        entry.request_id = request_id
        return request_id

    def wait(self, path_id: int) -> OpticalPathEntry:
        """Configuring -> Active: run until the path's configure request completes.

        The config time is read from the request's trace. A request that
        finished while the engine ran for another leaves the clock unmoved.
        """
        entry = self._entry(path_id, PathState.CONFIGURING)
        trace = self.device_controller.run_until_complete(entry.request_id)
        entry.state = PathState.ACTIVE
        entry.config_time_ns = trace.config_time_ns
        return entry

    def activate_and_wait(self, path_id: int) -> OpticalPathEntry:
        self.activate(path_id)
        return self.wait(path_id)

    def release(self, path_id: int) -> None:
        """Active -> Released; the hops' words are no longer held.

        No configure request is sent, so each device keeps its last word.
        """
        entry = self._entry(path_id, PathState.ACTIVE)
        for hop in entry.hops:
            self.resources.give_back(*hop)
        entry.state = PathState.RELEASED

    # -- introspection -------------------------------------------------------

    def dump_table(self):
        return [
            {
                "path_id": e.path_id,
                "src_tor": e.src_tor,
                "dst_tor": e.dst_tor,
                "hops": [list(h) for h in e.hops],
                "state": e.state.value,
                "config_time_ns": e.config_time_ns,
            }
            for _, e in sorted(self.table.items())
        ]

    def check_conservation(self) -> None:
        """The words non-Released entries hold are exactly the words the model holds."""
        held: dict[tuple[int, int], set[int]] = {}
        for entry in self.table.values():
            if entry.state is not PathState.RELEASED:
                for s, d, w in entry.hops:
                    if w in held.setdefault((s, d), set()):
                        raise AssertionError(f"word {w} on ({s},{d}) held twice")
                    held[(s, d)].add(w)
        for key, taken in self.resources.held.items():
            if not held.get(key, set()) <= taken:
                raise AssertionError(f"{key}: words both free and held")
            if leaked := taken - held.get(key, set()):
                raise AssertionError(f"{key}: words leaked ({sorted(leaked)})")
