"""meowsim benchmark: run one workload (or all of them) and print its metrics.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --seed N --seconds S

NAME is paper-figures, deploy-4x250, southbound-tcp or netctl-churn (see
workloads.py for what each does and why). A run sets the workload up,
builds its seeded inputs, then repeats the workload's unit of work until
the next unit would end after S seconds, checking every output. With
--trace 0 it prints the end-to-end metrics of BENCHMARK.json; with
--trace 1 it alternates untraced and traced units and prints the
per-layer metrics, including trace.overhead_frac. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

--workload all runs every workload in a fresh interpreter, untraced and
traced, prints every run's output and then each workload's end-to-end
metrics beside its trace.overhead_frac, and writes
.perfbench-out/results.json with the machine, nproc and Python version.

The program under test is imported from src/ of the checkout, never from
an installed copy; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 9
SCENARIO_LOAD_ROUNDS = 21
EVENT_KINDS = (
    "RequestGenerated", "SouthboundArrived", "OutputsStaged", "MasterEmit",
    "FrameAtDevice", "DeviceLatched", "RequestComplete",
)
# Metrics that count what the simulator did: taken from the first traced
# unit, so they repeat exactly for a given seed.
COUNT_PREFIXES = ("engine.events_per_req", "simulation.frames",
                  "codec.apply_datagram_calls", "controller.idle_frame_frac",
                  "controller.noop_arrival_frac")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def machine() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
    }


def load_spec() -> dict:
    """This checkout's BENCHMARK.json; exits 2 if the checkout has no meowsim source."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    if not (ROOT / "src" / "meowsim" / "__init__.py").is_file():
        fail(f"no meowsim source under {ROOT / 'src'}; run from a meowsim checkout")
    return spec


# -- statistics -----------------------------------------------------------------

def weighted_at(samples, index: int) -> float:
    """The index-th smallest value of (value, count) samples, counts expanded."""
    seen = 0
    for value, count in samples:
        seen += count
        if index < seen:
            return value
    raise IndexError(index)


def p50_of(samples) -> float:
    samples = sorted(samples)
    n = sum(count for _, count in samples)
    return (weighted_at(samples, (n - 1) // 2) + weighted_at(samples, n // 2)) / 2


def tail_of(samples) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with ten samples beyond it."""
    samples = sorted(samples)
    n = sum(count for _, count in samples)
    if n <= 10:
        return samples[-1][0], 100.0, n
    return weighted_at(samples, n - 11), 100.0 * (n - 10) / n, n


# -- one workload -----------------------------------------------------------------

def layer_metrics(tracer, res, meter) -> dict:
    """Per-layer numbers of one traced unit (times in s per unit of work).

    Host times are scaled by the unit's calibration factor, like the
    end-to-end ones.
    """
    factor = meter.factor
    calls, counts = tracer.calls, tracer.counts
    total = Counter({k: v * factor / 1e9 for k, v in tracer.total_ns.items()})
    self_s = Counter({k: v * factor / 1e9 for k, v in tracer.self_ns.items()})
    requests = max(res.requests, 1)
    dispatched = sum(v for k, v in calls.items() if k.startswith("controller.dispatch."))
    frames = calls["simulation.build_frame"]
    arrivals = calls["codec.apply_datagram"]
    m = {"engine.events_per_req": dispatched / requests}
    for kind in EVENT_KINDS:
        m[f"engine.events_per_req.{kind}"] = calls[f"controller.dispatch.{kind}"] / requests
    m["engine.schedule_ns"] = (total["engine.schedule"] * 1e9 / calls["engine.schedule"]
                               if calls["engine.schedule"] else 0.0)
    m["engine.loop_self_s"] = self_s["engine.run_until"]
    for kind in EVENT_KINDS:
        m[f"controller.dispatch_self_s.{kind}"] = self_s[f"controller.dispatch.{kind}"]
    m["controller.idle_frame_frac"] = counts["idle_frames"] / frames if frames else 0.0
    m["controller.noop_arrival_frac"] = counts["noop_arrivals"] / arrivals if arrivals else 0.0
    m["controller.handle_configure_s"] = total["controller.handle_configure"]
    m["controller.run_until_complete_s"] = total["controller.run_until_complete"]
    m["simulation.build_frame_s"] = total["simulation.build_frame"]
    m["simulation.frames"] = frames
    m["simulation.latch_s"] = total["simulation.latch"]
    m["simulation.oracle_s"] = total["simulation.oracle"]
    m["codec.apply_datagram_s"] = total["codec.apply_datagram"]
    m["codec.apply_datagram_calls"] = arrivals
    m["codec.frame_build_s"] = total["codec.frame_build"]
    m["bench.export_s"] = total["bench.export"]
    m["bench.run_scenario_self_s"] = self_s["bench.run_scenario"]
    m["stats.compute_stats_s"] = total["stats.compute_stats"]
    for method, metric in (("detect_flows", "detect_flows_s"), ("allocate", "allocate_s"),
                           ("activate_and_wait", "activate_wait_s"), ("release", "release_s")):
        m[f"netctl.{metric}"] = total[f"netctl.{method}"]
    for layer, ns in tracer.layer_self_ns().items():
        m[f"self_s.{layer}"] = ns * factor / 1e9
    # transport wait: each round trip minus its handle_line call
    handle_ns = tracer.durations["southbound.handle_line"]
    round_trips = meter.round_trips_ns
    waits = [rt - h for rt, h in zip(round_trips, handle_ns)] \
        if handle_ns and len(handle_ns) == len(round_trips) else []
    m["southbound.handle_line_p50_ms"] = (
        statistics.median(handle_ns) * factor / 1e6 if handle_ns else 0.0)
    m["southbound.transport_wait_p50_ms"] = statistics.median(waits) / 1e6 if waits else 0.0
    return m


def scenario_load_s(tracer, presets) -> float:
    """Median traced host time to load the workload's presets once, calibrated."""
    from meowsim.scenario import load_preset
    from meter import Meter

    meter = Meter(tracer)
    per_round = []
    with tracer.installed():
        meter.start()
        for _ in range(SCENARIO_LOAD_ROUNDS):
            tracer.reset_aggregates()
            for name in presets:
                load_preset(name)
            per_round.append(tracer.total_ns["scenario.load"])
        meter.finish()
    return statistics.median(per_round) * meter.factor / 1e9


def setup_probe(name: str, seed: int) -> float:
    """Calibrated seconds of one set-up, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), name, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        fail(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


@dataclass
class Unit:
    """What a run keeps of one unit: a fixed amount, however many units run."""

    res: object  # workloads.UnitResult
    timed_ns: float  # calibrated
    raw_ns: int
    factor: float  # host speed over the reference speed
    p50_ns: float
    tail: tuple  # (ns, percentile, operations)
    layers: dict | None = None  # per-layer metrics of a traced unit


def summarize(res, meter, layers=None) -> Unit:
    ops = meter.ops
    return Unit(res, meter.timed_ns, meter.raw_ns, meter.factor, p50_of(ops), tail_of(ops),
                layers)


def run_workload(name: str, seed: int, seconds: int, trace: bool, spec: dict) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import meowsim
    import workloads
    from meter import Meter
    from tracing import Tracer

    if Path(meowsim.__file__).resolve().parent != ROOT / "src" / "meowsim":
        fail(f"imported meowsim from {meowsim.__file__}, not from this checkout")
    workload = workloads.WORKLOADS[name]
    state = workload.setup(ROOT, seed)
    inputs = workload.make_inputs(state, seed)
    tracer = Tracer() if trace else None
    # The inputs and set-up state live all run: keep the collector off
    # them, and collect each unit's cyclic garbage before the next unit, so
    # neither the benchmark's own objects nor earlier units' leftovers show
    # in a unit's time or in peak_rss_mb.
    gc.collect()
    gc.freeze()

    # With --trace 1, every second unit is traced.
    plain, traced = [], []
    setups = []
    units_s = 0.0  # time in units; the set-up probes between them left out
    try:
        while True:
            unit_start = time.perf_counter()
            if trace and len(plain) > len(traced):
                tracer.reset_aggregates()
                meter = Meter(tracer)
                with tracer.installed():
                    meter.start()
                    res = workload.run_unit(state, inputs, meter)
                    meter.finish()
                traced.append(summarize(res, meter, layer_metrics(tracer, res, meter)))
            else:
                meter = Meter()
                meter.start()
                res = workload.run_unit(state, inputs, meter)
                meter.finish()
                plain.append(summarize(res, meter))
            gc.collect()
            unit_s = time.perf_counter() - unit_start
            units_s += unit_s
            # Untraced runs spread their set-up probes over the run, so the
            # probes meet the host in as many states as the units do.
            while not trace and len(setups) < min(SETUP_PROBES,
                                                  SETUP_PROBES * units_s / seconds):
                setups.append(setup_probe(name, seed))
            if len(traced) >= trace and units_s + unit_s > seconds:
                break
    finally:
        workload.teardown(state)

    units = plain + traced
    attempted = sum(u.res.attempted for u in units)
    failed = sum(u.res.failed for u in units)
    wall_s = statistics.median(u.timed_ns for u in plain) / 1e9
    print(f"# perfbench {name} seed={seed} seconds={seconds} trace={int(trace)}")
    print("# machine: " + json.dumps(machine(), sort_keys=True))
    print(f"# units: {len(plain)} untraced, {len(traced)} traced, "
          f"{units_s:.2f} s measured")
    print(f"# calibration: host at {statistics.median(u.factor for u in units):.4f}"
          f" x the reference speed; raw untraced wall_s "
          f"{statistics.median(u.raw_ns for u in plain) / 1e9:.6f} s")

    if trace:
        metrics = traced_metrics(traced, wall_s)
        metrics["scenario.load_s"] = scenario_load_s(tracer, workload.presets)
        section = "per_layer"
        print(f"# untraced wall_s {wall_s:.6f} s, "
              f"trace.overhead_frac {metrics['trace.overhead_frac']:.4f}")
        if tracer.missing:
            print(f"# trace hooks not found: {', '.join(tracer.missing)}")
        spans_path = ROOT / ".perfbench-out" / f"spans-{name}-seed{seed}.csv"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(spans_path)
        print(f"# spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}, "
              f"{tracer.dropped} more counted but not kept")
    else:
        setups += [setup_probe(name, seed) for _ in range(SETUP_PROBES - len(setups))]
        # Latencies are taken per unit, where the operation count is fixed,
        # and their medians reported: over a whole run the count grows with
        # speed and the tail would drift into rarer host hiccups.
        _, tail_pct, n_ops = plain[0].tail
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall_s,
            "requests_per_s": sum(u.res.requests for u in plain)
            / sum(u.timed_ns for u in plain) * 1e9,
            "op_p50_ms": statistics.median(u.p50_ns for u in plain) / 1e6,
            "op_tail_ms": statistics.median(u.tail[0] for u in plain) / 1e6,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        section = "end_to_end"
        print(f"# setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
        print(f"# op_tail_ms is the median over {len(plain)} units of each unit's "
              f"p{tail_pct:.3f} of {n_ops} operations")

    units_of = {m["name"]: m["unit"] for m in spec[section]}
    if sorted(metrics) != sorted(units_of):
        fail(f"metrics {sorted(set(metrics) ^ set(units_of))} disagree with BENCHMARK.json")
    for key, unit in units_of.items():
        print(f"{key:44s} {metrics[key]:.6g} {unit}")
    print(f"{'fail_frac':44s} {failed / attempted:.6g} ({failed} of {attempted})")
    sim_worst = max(u.res.sim_worst_ns for u in units)
    print(f"{'sim_worst_us':44s} {sim_worst / 1000:.1f} us (simulated)")
    ref_errors = [u.res.ref_error_ns for u in units if u.res.ref_error_ns is not None]
    if ref_errors:
        print(f"{'ref_error_us':44s} {max(ref_errors) / 1000:.1f} us (simulated)")
    for error in [e for u in units for e in u.res.errors][:10]:
        print(f"perfbench: FAILED {error}", file=sys.stderr)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units_of.items()},
    }))
    return 0


def traced_metrics(traced: list, untraced_wall_s: float) -> dict:
    """Per-layer metrics over the traced units of a run."""
    first = traced[0].layers
    metrics = {
        key: first[key] if key.startswith(COUNT_PREFIXES)
        else statistics.median(u.layers[key] for u in traced)
        for key in first
    }
    traced_wall_s = statistics.median(u.timed_ns for u in traced) / 1e9
    metrics["trace.overhead_frac"] = traced_wall_s / untraced_wall_s - 1
    return metrics


# -- every workload -------------------------------------------------------------

def run_all(seed: int, seconds: int, spec: dict) -> int:
    results = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                fail(f"{name} --trace {trace} exited with {proc.returncode}")
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            results[f"{name}/trace{trace}"] = json.loads(lines[-1])

    print("\n# end-to-end metrics of the untraced runs, and each traced run's overhead")
    for workload in spec["workloads"]:
        name = workload["name"]
        plain = results[f"{name}/trace0"]["metrics"]
        traced = results[f"{name}/trace1"]["metrics"]
        for key, value in plain.items():
            print(f"{name:16s}  {key:44s} {value['value']:.6g} {value['unit']}")
        print(f"{name:16s}  {'trace.overhead_frac':44s} "
              f"{traced['trace.overhead_frac']['value']:.4f} (traced wall / untraced - 1)")

    out = ROOT / ".perfbench-out" / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"machine": machine(), "seed": seed, "seconds": seconds,
                               "results": results}, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"# wrote {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{k}/{m}": v for k, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, spec)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)


if __name__ == "__main__":
    sys.exit(main())
