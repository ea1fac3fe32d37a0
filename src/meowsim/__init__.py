"""meowsim: deterministic simulator for a multi-master EtherCAT control plane
driving optical circuit switches.

The package models one controller host running up to six EtherCAT masters,
each owning a daisy chain of switch-port devices, and reproduces the
configuration-latency behavior of such a control plane: PDO-boundary
waiting, cascade traversal, device latching, and the resulting jitter.
"""

from .bench import (
    PdoComparison,
    RunResult,
    SweepResult,
    extrapolate_worst,
    pdo_reduction_analysis,
    run_scenario,
    sweep_devices,
)
from .codec import (
    EcatCmd,
    EcatDatagram,
    EcatFrame,
    apply_datagram,
    decode_frame,
    encode_frame,
)
from .controller import DeviceController, RequestTrace
from .engine import Engine, EventKind, SplitMix64
from .netctl import (
    FlowStats,
    NetworkController,
    OcsResourceModel,
    OpticalPathEntry,
    PathState,
    ProactiveRule,
)
from .scenario import Scenario, load_preset, load_scenario, resolve_scenario
from .simulation import (
    MasterState,
    analytic_latency,
    boundary_at_or_after,
)
from .southbound import SouthboundServer, SouthboundSession
from .stats import RunStats, compute_stats
from .topology import SegmentSpec, TimingParams, Topology, build_topology

__version__ = "0.1.0"

__all__ = [
    "DeviceController",
    "EcatCmd",
    "EcatDatagram",
    "EcatFrame",
    "Engine",
    "EventKind",
    "FlowStats",
    "MasterState",
    "NetworkController",
    "OcsResourceModel",
    "OpticalPathEntry",
    "PathState",
    "PdoComparison",
    "ProactiveRule",
    "RequestTrace",
    "RunResult",
    "RunStats",
    "Scenario",
    "SegmentSpec",
    "SouthboundServer",
    "SouthboundSession",
    "SplitMix64",
    "SweepResult",
    "TimingParams",
    "Topology",
    "analytic_latency",
    "apply_datagram",
    "boundary_at_or_after",
    "build_topology",
    "compute_stats",
    "decode_frame",
    "encode_frame",
    "extrapolate_worst",
    "load_preset",
    "load_scenario",
    "pdo_reduction_analysis",
    "resolve_scenario",
    "run_scenario",
    "sweep_devices",
]
