"""Command-line front-end.

Verbs: run, sweep, extrapolate, pdo-compare, codec, serve, netctl.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
from fractions import Fraction
from importlib import resources

from . import bench
from .codec import check_conformance_vectors
from .engine import Engine
from .controller import DeviceController
from .errors import IoFailure, MeowError, WrongType
from .netctl import FlowStats, NetworkController, OcsResourceModel, ProactiveRule
from .scenario import resolve_scenario
from .southbound import SouthboundServer
from .stats import ns_to_us_str
from .topology import require_dict

# extrapolate's --worst-base-us (us) and --slope-ns (ns) stop here: no
# deployment comes near it, and below it every prediction fits a float
EXTRAPOLATE_FLAG_MAX = 1e12


def _print_stats(stats) -> None:
    print(f"requests        {stats.count}")
    print(f"best   config   {ns_to_us_str(stats.min_ns)} us")
    print(f"worst  config   {ns_to_us_str(stats.max_ns)} us")
    print(f"mean   config   {stats.mean_ns / 1000:.3f} us")
    print(f"stddev          {stats.stddev_ns / 1000:.3f} us")
    print(f"p50             {ns_to_us_str(stats.p50_ns)} us")
    print(f"p99             {ns_to_us_str(stats.p99_ns)} us")
    print(f"jitter max-min  {ns_to_us_str(stats.jitter_ns)} us")


def _cmd_run(args) -> int:
    scenario = resolve_scenario(args.scenario)
    result = bench.run_scenario(
        scenario, out_dir=args.out_dir, check_oracle=not args.no_oracle_check
    )
    _print_stats(result.stats)
    for kind, path in sorted(result.written.items()):
        print(f"wrote {kind:6s} {path}")
    return 0


def _flag_ints(flag: str, parts, form: str, count: int | None = None) -> list[int]:
    """parts of a flag value as integers, count of them if given.

    Anything else raises a ValueError that names the flag and its form.
    """
    try:
        values = [int(part) for part in parts]
    except ValueError:
        values = None
    if values is None or count is not None and len(values) != count:
        raise ValueError(f"{flag} must be {form}")
    return values


def _number(kind):
    """A flag's type= for kind (int or float).

    argparse's own message for a bad value quotes it whole; this one is the
    same, with the quote cut to 200 characters.
    """
    def parse(text: str):
        try:
            return kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r:.200}") from None
    return parse


class _Parser(argparse.ArgumentParser):
    """argparse's parser, with the quote in a choices error cut to 200 characters.

    argparse words that error differently from version to version, and
    quotes the value whole; only the quote is cut, so a short value's error
    is argparse's own. Subparsers are built as this class too.
    """

    def _check_value(self, action, value):
        try:
            super()._check_value(action, value)
        except argparse.ArgumentError as exc:
            quote = repr(value)
            raise argparse.ArgumentError(
                action, exc.message.replace(quote, f"{quote:.200}", 1)) from None


def _parse_counts(text: str):
    """--devices as chain lengths: a range for LO..HI, else a list.

    sweep_devices checks each count before its run, and stops a range at its
    first bad count, however long the range is.
    """
    form = f"LO..HI or a comma list of integers, got {text!r:.200}"
    if ".." in text:
        lo, hi = _flag_ints("--devices", text.split(".."), form, count=2)
        return range(lo, hi + 1)
    return _flag_ints("--devices", (part for part in text.split(",") if part), form)


def _cmd_sweep(args) -> int:
    base = resolve_scenario(args.scenario)
    counts = _parse_counts(args.devices)
    if args.csv:
        bench.require_file_path(args.csv, "sweep CSV")
    result = bench.sweep_devices(base, counts)
    print("devices,best_us,worst_us")
    for point in result.points:
        print(
            f"{point.device_count},{ns_to_us_str(point.best_ns)},"
            f"{ns_to_us_str(point.worst_ns)}"
        )
    print(f"slope {result.slope_ns_per_device:.1f} ns/device")
    print(f"fit at N=8: {result.predict_best_ns(8):.1f} ns")
    if args.csv:
        with bench.open_export(args.csv, "sweep CSV") as fh:
            fh.write("devices,best_ns,worst_ns\n")
            for point in result.points:
                fh.write(f"{point.device_count},{point.best_ns},{point.worst_ns}\n")
        print(f"wrote sweep  {args.csv}")
    return 0


def _exact(value: float) -> Fraction:
    """A flag's value as the decimal it was written as (0.15 is 3/20, not the float below it).

    extrapolate computes with these and rounds once, in ns_to_us_str.
    """
    return Fraction(repr(value))


def _cmd_extrapolate(args) -> int:
    for flag, value in (("--worst-base-us", args.worst_base_us), ("--slope-ns", args.slope_ns)):
        if value is not None and not abs(value) <= EXTRAPOLATE_FLAG_MAX:  # NaN fails too
            raise ValueError(
                f"{flag} must be a finite number of at most {EXTRAPOLATE_FLAG_MAX:g}, got {value}"
            )
    devices = bench.racks_to_devices_per_segment(args.racks, args.masters)
    if args.worst_base_us is not None:
        base_ns = _exact(args.worst_base_us) * 1000
    else:
        base_ns = bench.default_worst_base_ns()
    predicted = bench.extrapolate_worst(base_ns, _exact(args.slope_ns), devices)
    print(f"racks            {args.racks}")
    print(f"masters          {args.masters}")
    print(f"devices/segment  {devices}")
    print(f"worst base       {ns_to_us_str(base_ns)} us")
    print(f"slope            {args.slope_ns:.1f} ns/device")
    print(f"predicted worst  {ns_to_us_str(predicted)} us")
    return 0


def _cmd_pdo_compare(args) -> int:
    form = f"two integers HI,LO in ns with HI >= LO, got {args.cycles!r:.200}"
    cycle_hi, cycle_lo = _flag_ints("--cycles", args.cycles.split(","), form, count=2)
    if cycle_hi < cycle_lo:
        raise ValueError(f"--cycles must be {form}")
    hi = resolve_scenario(args.scenario)
    hi = bench.with_pdo_cycle(hi, cycle_hi)
    lo = bench.with_pdo_cycle(hi, cycle_lo)
    comparison = bench.pdo_reduction_analysis(hi, lo, run_empirical=not args.no_empirical)
    print(f"cycle hi         {ns_to_us_str(comparison.cycle_hi_ns)} us")
    print(f"cycle lo         {ns_to_us_str(comparison.cycle_lo_ns)} us")
    print(f"structural worst {ns_to_us_str(comparison.structural_worst_hi_ns)} / "
          f"{ns_to_us_str(comparison.structural_worst_lo_ns)} us")
    print(f"structural delta {ns_to_us_str(comparison.structural_delta_ns)} us")
    if comparison.empirical_delta_ns is not None:
        print(f"empirical worst  {ns_to_us_str(comparison.empirical_worst_hi_ns)} / "
              f"{ns_to_us_str(comparison.empirical_worst_lo_ns)} us")
        print(f"empirical delta  {ns_to_us_str(comparison.empirical_delta_ns)} us")
    return 0


def _cmd_codec(args) -> int:
    text = (
        resources.files("meowsim")
        .joinpath("data").joinpath("conformance_vectors.txt")
        .read_text(encoding="utf-8")
    )
    count = check_conformance_vectors(text)
    print(f"ok: {count} conformance vectors decoded, summarized and re-encoded")
    return 0


def _parse_address(text: str) -> tuple[str, int]:
    """HOST:PORT as a listen address; an empty host means 127.0.0.1."""
    host, _, port = text.rpartition(":")
    # int() refuses more than 4,300 digits, so the length is checked first
    number = port.lstrip("0") or "0"
    if not (port.isascii() and port.isdigit() and len(number) <= 5 and int(number) <= 0xFFFF):
        raise ValueError(f"--southbound port must be an integer in 0..65535, got {port!r:.200}")
    if host.replace(".", "").isdigit():
        # a dotted number is an IPv4 address or nothing: check it here, by
        # the resolver's own rules, rather than let it go out as a DNS query
        try:
            socket.inet_aton(host)
        except OSError:
            raise ValueError(f"--southbound host {host!r:.200} is not an IPv4 address") from None
    return host or "127.0.0.1", int(number)


def _cmd_serve(args) -> int:
    scenario = resolve_scenario(args.scenario)
    address = _parse_address(args.southbound)
    seed = args.seed if args.seed is not None else scenario.seed
    try:
        server = SouthboundServer(address, scenario.topology, seed=seed)
    except OSError as exc:  # an unknown host name, or a port in use
        raise IoFailure(f"cannot listen on {args.southbound}: {exc}") from exc
    bound = server.bound_address
    print(f"southbound listening on {bound[0]}:{bound[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
    return 0


# JSON type of each command-file field
_NETCTL_FIELDS = {"rule_id": str, "flow_id": str, "priority": int, "threshold_bps": int,
                  "rate_bps": int, "path_id": int, "flows": list,
                  **dict.fromkeys(("src_tor", "dst_tor", "service_tag"), (str, type(None)))}


def _checked(name: str, raw) -> dict:
    """raw, once it is an object whose known fields have their JSON types."""
    require_dict(name, raw)
    for key, value in raw.items():
        kind = _NETCTL_FIELDS.get(key, object)
        if not isinstance(value, kind) or kind is int and isinstance(value, bool):
            raise WrongType(f"{key} has the wrong type: {value!r:.200}")
    return raw


def _netctl_execute(controller: NetworkController, command: dict) -> dict:
    verb = _checked("command", command).get("verb")
    if verb == "add-rule":
        controller.add_rule(
            ProactiveRule(
                rule_id=command["rule_id"],
                priority=command["priority"],
                src_tor=command.get("src_tor"),
                dst_tor=command.get("dst_tor"),
                service_tag=command.get("service_tag"),
            )
        )
        return {"rule_id": command["rule_id"]}
    if verb == "inject-flows":
        flows = [
            FlowStats(
                flow_id=raw["flow_id"],
                src_tor=raw["src_tor"],
                dst_tor=raw["dst_tor"],
                rate_bps=raw["rate_bps"],
                service_tag=raw.get("service_tag"),
            )
            for raw in (_checked("flow", f) for f in command["flows"])
        ]
        return {"detected": controller.detect_flows(flows, command["threshold_bps"])}
    if verb == "allocate":
        entry = controller.allocate(command["src_tor"], command["dst_tor"])
        return {"path_id": entry.path_id, "hops": [list(h) for h in entry.hops]}
    if verb == "activate":
        entry = controller.activate_and_wait(command["path_id"])
        return {
            "path_id": entry.path_id,
            "state": entry.state.value,
            "config_time_us": ns_to_us_str(entry.config_time_ns),
        }
    if verb == "release":
        controller.release(command["path_id"])
        return {"path_id": command["path_id"], "state": "Released"}
    if verb == "dump-table":
        return {"table": controller.dump_table()}
    raise ValueError(f"unknown verb {verb!r:.200}")


def _cmd_netctl(args) -> int:
    scenario = resolve_scenario(args.scenario)
    engine = Engine(seed=scenario.seed)
    device_controller = DeviceController(engine, scenario.topology)
    resources_model = OcsResourceModel(scenario.topology,
                                       words_per_device=args.words_per_device)
    controller = NetworkController(resources_model, device_controller)
    failures = 0
    try:
        with open(args.commands, "rb") as fh:
            # bytes, split as text mode would (\n, \r\n or \r), so that a
            # line that is not UTF-8 fails alone when it is decoded below
            lines = fh.read().splitlines()
    except OSError as exc:
        raise IoFailure(f"cannot read commands {args.commands}: {exc}") from exc
    for line in lines:
        verb = None
        try:
            line = line.decode("utf-8").strip()  # a line that is not UTF-8 fails alone
            if not line or line.startswith("#"):
                continue
            command = json.loads(line)  # so does a line that is not JSON
            verb = command.get("verb") if isinstance(command, dict) else None
            # echoed as a message quotes a value: at most 200 characters, and
            # only a string (any other verb is unknown, and its error quotes it)
            verb = verb[:200] if isinstance(verb, str) else None
            result = _netctl_execute(controller, command)
            print(json.dumps({"ok": True, "verb": verb, **result}, sort_keys=True))
        except (MeowError, ValueError, KeyError, RecursionError) as exc:
            failures += 1
            print(json.dumps({
                "ok": False,
                "verb": verb,
                "error": type(exc).__name__,
                "message": str(exc),
            }, sort_keys=True))
    controller.check_conservation()
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="meowsim",
        description="Deterministic simulator for a multi-master EtherCAT "
                    "control plane driving optical circuit switches",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a scenario (preset name or JSON path)")
    p.add_argument("scenario")
    p.add_argument("--out-dir", default=".", help="directory for output files")
    p.add_argument("--no-oracle-check", action="store_true",
                   help="skip the per-request analytic cross-check")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="sweep chain length, fit best-case slope")
    p.add_argument("--scenario", default="exp1")
    p.add_argument("--devices", default="1..8", help="e.g. 1..8 or 2,4,8")
    p.add_argument("--csv", help="optional sweep CSV output path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("extrapolate", help="predict worst case for 1000-rack fabrics")
    p.add_argument("--racks", type=_number(int), required=True)
    p.add_argument("--masters", type=_number(int), required=True)
    p.add_argument("--worst-base-us", type=_number(float), default=None,
                   help="override the measured worst-case base (us)")
    p.add_argument("--slope-ns", type=_number(float), default=900.0,
                   help="per-device slope in ns (default: calibrated hop cost)")
    p.set_defaults(func=_cmd_extrapolate)

    p = sub.add_parser("pdo-compare", help="worst-case delta between two PDO cycles")
    p.add_argument("--scenario", default="exp2")
    p.add_argument("--cycles", default="80000,32000", help="hi,lo in ns")
    p.add_argument("--no-empirical", action="store_true",
                   help="skip the seeded runs, report the structural bound only")
    p.set_defaults(func=_cmd_pdo_compare)

    p = sub.add_parser("codec", help="wire-format tools")
    p.add_argument("codec_cmd", choices=["selftest"])
    p.set_defaults(func=_cmd_codec)

    p = sub.add_parser("serve", help="expose the southbound protocol over TCP")
    p.add_argument("--southbound", required=True, metavar="HOST:PORT")
    p.add_argument("--scenario", default="exp1",
                   help="scenario/preset supplying topology and timing")
    p.add_argument("--seed", type=_number(int), default=None)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("netctl", help="run northbound command file against a fresh sim")
    p.add_argument("scenario", help="scenario/preset supplying the topology")
    p.add_argument("commands", help="JSONL northbound command file")
    p.add_argument("--words-per-device", type=_number(int), default=16,
                   help="cross-connect words per switch device, 1..65535 (default: 16)")
    p.set_defaults(func=_cmd_netctl)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MeowError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
