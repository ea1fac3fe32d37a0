"""Scenario files: the JSON description of one benchmark run.

A scenario pins topology, workload (request count and seed), the
measurement target and, optionally, the export paths. A file holds only
what the simulator reads: every object's keys are checked by one rule,
require_keys, so an unknown key (a typo, or a field an older format had)
is a ValueError naming it. The two shipped presets, exp1 and exp2, are the
calibration ledger: their timing constants and seeds reproduce the
reference configuration-latency figures exactly. The module also holds the
arrival law, arrival_phase_ns, and the grid it draws on, which a Scenario
checks its cycle and phases against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from importlib import resources

from .errors import IoFailure, WrongType
from .topology import Topology, build_topology, require_int, require_keys

# Arrival phases are drawn on this grid so every exported tenth-of-us value
# is exact and the calibrated best-case times are reachable by seeded runs.
ARRIVAL_GRID_NS = 100


def arrival_phase_ns(rng, cycle_ns: int) -> int:
    """The arrival law: one request's phase within its PDO cycle, in ns.

    The phase is one of the cycle's grid slots 0, ARRIVAL_GRID_NS, ...,
    cycle_ns - ARRIVAL_GRID_NS, each equally likely, and takes exactly one
    uniform_draw of rng. A Scenario's cycle is a multiple of the grid (it
    checks this), so the slots tile the cycle and every phase lies in it.
    """
    return ARRIVAL_GRID_NS * rng.uniform_draw(0, cycle_ns // ARRIVAL_GRID_NS - 1)


PRESET_NAMES = ("exp1", "exp2")


@dataclass(frozen=True)
class Scenario:
    topology: Topology
    num_requests: int
    seed: int
    measurement: tuple[int, int]  # (segment, device) whose latch time is measured
    outputs: dict | None = None  # optional {"csv":..., "trace":..., "stats":...}

    def __post_init__(self):
        require_int("num_requests", self.num_requests)
        if self.num_requests < 1:
            raise ValueError(f"num_requests must be >= 1, got {self.num_requests!s:.200}")
        require_int("seed", self.seed)
        seg, dev = self.measurement
        require_int("measurement segment", seg)
        require_int("measurement device", dev)
        self.topology.validate_target(seg, dev)
        object.__setattr__(self, "measurement", (seg, dev))
        timing = self.topology.timing
        if timing.pdo_cycle_ns % ARRIVAL_GRID_NS:
            raise ValueError(
                f"pdo_cycle_ns must be a multiple of {ARRIVAL_GRID_NS} ns "
                f"(arrival-phase grid), got {timing.pdo_cycle_ns}"
            )
        for i, seg_spec in enumerate(self.topology.segments):
            if seg_spec.phase_ns % ARRIVAL_GRID_NS:
                raise ValueError(
                    f"segment {i} phase_ns must be a multiple of {ARRIVAL_GRID_NS}"
                )
        if self.outputs is not None:
            require_keys("outputs", self.outputs, ("csv", "trace", "stats"))
            for kind, path in self.outputs.items():
                if not isinstance(path, str):
                    raise WrongType(f"output {kind} must be a path string, got {path!r:.200}")
            object.__setattr__(self, "outputs", dict(self.outputs))

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        doc = {
            "topology": self.topology.to_dict(),
            "workload": {
                "num_requests": self.num_requests,
                "seed": self.seed,
            },
            "measurement": {
                "segment": self.measurement[0],
                "device": self.measurement[1],
            },
        }
        if self.outputs:
            doc["outputs"] = dict(self.outputs)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "Scenario":
        parts = ("topology", "workload", "measurement")
        require_keys("scenario", doc, parts + ("outputs",), parts)
        workload, measurement = doc["workload"], doc["measurement"]
        require_keys("workload", workload, ("num_requests", "seed"), ("seed",))
        require_keys("measurement", measurement, ("segment", "device"), ("segment", "device"))
        return cls(
            topology=build_topology(doc["topology"]),
            num_requests=workload.get("num_requests", 1000),
            seed=workload["seed"],
            measurement=(measurement["segment"], measurement["device"]),
            outputs=doc.get("outputs"),
        )

    def with_changes(self, **kwargs) -> "Scenario":
        return replace(self, **kwargs)


def load_scenario_text(text: str) -> Scenario:
    return Scenario.from_dict(json.loads(text))


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise IoFailure(f"cannot read scenario {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid scenario JSON in {path}: {exc}") from exc
    return Scenario.from_dict(doc)


def load_preset(name: str) -> Scenario:
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}, have {PRESET_NAMES}")
    preset = resources.files("meowsim") / "data" / "presets" / f"{name}.json"
    try:
        text = preset.read_text(encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot read preset {name}: {exc}") from exc
    return load_scenario_text(text)


def resolve_scenario(name_or_path: str) -> Scenario:
    """Accept a preset name or a path to a scenario JSON file."""
    if name_or_path in PRESET_NAMES:
        return load_preset(name_or_path)
    return load_scenario(name_or_path)
