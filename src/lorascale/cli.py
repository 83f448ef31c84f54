"""Command-line entry point.

Subcommands: ``airtime`` (time-on-air), ``scale`` (experiment sizing),
``simulate`` (Monte-Carlo PDR or packet-log generation), ``serve``
(mock network server), ``run-experiment`` (orchestration) and
``analyze`` (SF-mix bounds curve).  Long experiment definitions can
live in a ``key = value`` config file; explicit flags win on conflict.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import airtime as airtime_mod
from . import analysis, controller, netserver, scaling, simulator
from .controller import (
    ExperimentSettings,
    OrchestrationError,
    Operator,
    ScriptedOperator,
    SimulatedOperator,
    RealClock,
    TurnOn,
    VirtualClock,
    load_roster,
    run_experiment,
    write_output,
)


def load_config(path) -> dict[str, str]:
    """Parse a line-oriented ``key = value`` config file."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _setting(args, config: dict[str, str], key: str, cast, default=None):
    """Flag value if given, else config value, else default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config:
        return cast(config[key])
    return default


class InteractiveOperator:
    """Terminal prompt loop; one y/n answer per device toggle."""

    def prompt(self, action) -> bool:
        kind = "ON" if isinstance(action, TurnOn) else "OFF"
        while True:
            try:
                reply = input(f"turn {kind} device {action.device_id}? [y/n] ")
            except EOFError:
                raise OrchestrationError("operator input ended before all prompts were answered")
            answer = reply.strip().lower()
            if answer in ("y", "yes"):
                return True
            if answer in ("n", "no", "s", "skip"):
                return False
            print("please answer y or n", file=sys.stderr)


def load_operator_script(path) -> list[bool]:
    replies = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip().lower()
            if not line or line.startswith("#"):
                continue
            if line in ("y", "yes", "confirm"):
                replies.append(True)
            elif line in ("n", "no", "skip"):
                replies.append(False)
            else:
                raise ValueError(f"unrecognized operator reply {line!r}")
    return replies


# --- subcommands -------------------------------------------------------------

def _cmd_airtime(args) -> int:
    ldro = None if args.ldro == "auto" else args.ldro == "on"
    config = airtime_mod.RadioConfig(
        spreading_factor=args.sf,
        bandwidth=args.bw,
        coding_rate_index=args.cr - 4,
        preamble_symbols=args.preamble,
        explicit_header=not args.implicit_header,
        crc_enabled=not args.no_crc,
        low_data_rate_optimize=ldro,
    )
    print(f"{airtime_mod.time_on_air(config, args.payload):.6f}")
    return 0


def _cmd_scale(args) -> int:
    real = scaling.TrafficProfile(args.real_n, args.real_period, args.real_airtime)
    load = scaling.channel_load(real)
    experiment = scaling.derive_equivalent(real, args.exp_period, args.exp_airtime)
    exp_load = scaling.channel_load(experiment)
    ratio = scaling.device_ratio_per_thousand(real, experiment)
    lower, upper = scaling.success_bounds(load)
    print(f"real load = {load.load:.6f}")
    print(f"experiment devices = {experiment.num_devices}")
    print(f"experiment load = {exp_load.load:.6f}")
    print(f"device ratio = {ratio:.1f} per 1000")
    print(f"success bounds lower = {lower:.6f} upper = {upper:.6f}")
    return 0


def _model_from(args, config: dict[str, str]):
    model = _setting(args, config, "model", str, "any")
    if model in ("any", "any-overlap"):
        return simulator.AnyOverlap()
    if model == "window":
        factor = _setting(args, config, "window_factor", float, 1.0)
        return simulator.VulnerabilityWindow(factor)
    raise ValueError(f"unknown collision model {model!r}")


def _synthetic_fleet(n_sf7: int, period: float, airtime_sf7: float, sf7: int,
                     n_sf8: int, airtime_sf8: float | None) -> list[simulator.DeviceSpec]:
    specs = []
    for i in range(n_sf7 + n_sf8):
        on_sf8 = i >= n_sf7
        specs.append(simulator.DeviceSpec(
            device_id=f"dev{i + 1:03d}",
            dev_eui=f"{i + 1:016x}",
            sf=8 if on_sf8 else sf7,
            period=period,
            airtime=airtime_sf8 if on_sf8 else airtime_sf7,
        ))
    return specs


def device_period(base: float, index: int, total: int, spread: float) -> float:
    """Per-device period with a deterministic linear spread.

    Models the slightly different clock rates of real devices: device
    periods range linearly over ``base * (1 +/- spread/2)``.  With a
    zero spread every device shares the base period, in which case
    phase alignments never change over a run.
    """
    if total < 2 or spread == 0.0:
        return base
    return base * (1.0 + spread * (index / (total - 1) - 0.5))


def _scheduled_fleet(config: dict[str, str], seed: int):
    """Roster-driven fleet with staggered activations, from a config file."""
    matrix = load_roster(config["roster"], config["mapping"])
    period = float(config["period"])
    spread = float(config.get("period_spread", "0"))
    airtime_sf7 = float(config["airtime_sf7"])
    sf8_count = int(config.get("sf8_count", "0"))
    airtime_sf8 = float(config["airtime_sf8"]) if sf8_count else None
    step = float(config.get("turnon_step", "1"))
    probe = float(config.get("probe_window", str(3 * period)))
    duration = float(config["duration"])
    n = len(matrix)
    horizon = n * step + probe + duration
    specs = []
    for k, entry in enumerate(matrix):
        on_sf8 = k >= n - sf8_count
        specs.append(simulator.DeviceSpec(
            device_id=entry.device_id,
            dev_eui=entry.dev_eui,
            sf=8 if on_sf8 else 7,
            period=device_period(period, k, n, spread),
            airtime=airtime_sf8 if on_sf8 else airtime_sf7,
            active_from=k * step,
            active_until=horizon,
        ))
    return specs, horizon


def _cmd_simulate(args) -> int:
    config = load_config(args.config) if args.config else {}
    seed = _setting(args, config, "seed", int, 0)
    model = _model_from(args, config)

    if args.out and config.get("roster"):
        specs, horizon = _scheduled_fleet(config, seed)
        result = simulator.run(specs, horizon, model=model, seed=seed)
        n = simulator.write_packet_log(result, args.out)
        print(f"wrote {n} packet records to {args.out}")
        return 0

    devices = _setting(args, config, "devices", int)
    period = _setting(args, config, "period", float)
    t_sf7 = _setting(args, config, "airtime", float)
    if devices is None or period is None or t_sf7 is None:
        raise ValueError("simulate needs --devices, --period and --airtime (or a config file)")
    # the default duration and the round count are derived from the period
    if not (math.isfinite(period) and period > 0):
        raise ValueError(f"period must be finite and positive, got {period}")
    duration = _setting(args, config, "duration", float, 10_000 * period)
    if not math.isfinite(duration):
        raise ValueError(f"duration must be finite, got {duration}")
    sf8_devices = _setting(args, config, "sf8_devices", int, 0)
    t_sf8 = _setting(args, config, "sf8_airtime", float)
    if sf8_devices and t_sf8 is None:
        raise ValueError("--sf8-devices needs --sf8-airtime")

    if args.out:
        specs = _synthetic_fleet(devices - sf8_devices, period, t_sf7, args.sf,
                                 sf8_devices, t_sf8)
        result = simulator.run(specs, duration, model=model, seed=seed)
        n = simulator.write_packet_log(result, args.out)
        print(f"wrote {n} packet records to {args.out}")
        print(f"pdr {result.network_pdr:.6f}")
        return 0

    rounds = max(1, int(duration / period))
    groups = [simulator.SfGroup(args.sf, devices - sf8_devices, t_sf7)]
    if sf8_devices:
        groups.append(simulator.SfGroup(8, sf8_devices, t_sf8))
    estimate = simulator.estimate_pdr(groups, period, rounds, model=model, seed=seed)
    print(f"pdr {estimate.pdr:.6f}")
    print(f"stderr {estimate.stderr:.6f}")
    print(f"sent {estimate.sent} delivered {estimate.delivered}")
    return 0


def _cmd_serve(args) -> int:
    host, _, port = args.bind.rpartition(":")
    store = netserver.PacketStore()
    if args.log:
        ingested, skipped = store.ingest_file(args.log)
        print(f"ingested {ingested} records from {args.log} ({skipped} malformed lines skipped)")
    server = netserver.PacketServer((host or "127.0.0.1", int(port)), store, args.token)
    print(f"serving on {server.bound_address[0]}:{server.bound_address[1]}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _cmd_run_experiment(args) -> int:
    config = load_config(args.config) if args.config else {}
    roster = _setting(args, config, "roster", str)
    mapping = _setting(args, config, "mapping", str)
    if not roster or not mapping:
        raise ValueError("run-experiment needs --roster and --mapping (or a config file)")
    matrix = load_roster(roster, mapping)

    period = _setting(args, config, "period", float)
    duration = _setting(args, config, "duration", float)
    if duration is None:
        raise ValueError("run-experiment needs --duration")
    default_window = 3 * period if period else 0.0
    settings = ExperimentSettings(
        name=_setting(args, config, "name", str, "experiment"),
        duration=duration,
        probe_window=_setting(args, config, "probe_window", float, default_window),
        recheck_window=_setting(args, config, "recheck_window", float, default_window),
        turnon_step=_setting(args, config, "turnon_step", float, 0.0),
    )

    operator: Operator
    auto = _setting(args, config, "auto_operator", str)
    if auto is None:
        operator = InteractiveOperator()
        clock = RealClock()
    elif auto == "sim":
        operator = SimulatedOperator()
        clock = VirtualClock(0.0)
    else:
        operator = ScriptedOperator(load_operator_script(auto))
        clock = VirtualClock(0.0)

    server_addr = _setting(args, config, "server", str)
    token = _setting(args, config, "token", str)
    if not server_addr or not token:
        raise ValueError("run-experiment needs --server and --token")
    host, _, port = server_addr.rpartition(":")

    report_path = _setting(args, config, "report", str, "report.txt")
    ts_path = _setting(args, config, "timestamps", str, "timestamps.txt")

    with netserver.NetClient((host or "127.0.0.1", int(port)), token) as client:
        result = run_experiment(matrix, operator, client, clock, settings)
    write_output(result, report_path, ts_path)
    total_sent = sum(r.sent for r in result.reports.values())
    total_delivered = sum(r.delivered for r in result.reports.values())
    print(f"report written to {report_path}")
    print(f"timestamps written to {ts_path}")
    if total_sent:
        print(f"network pdr {total_delivered / total_sent:.6f} "
              f"({total_delivered}/{total_sent})")
    else:
        print("network pdr undefined (no packets)")
    return 0


def _cmd_analyze(args) -> int:
    t_sf7 = args.airtime_sf7
    if args.airtime_sf8 is not None:
        t_sf8 = args.airtime_sf8
    elif args.sf8_factor is not None:
        t_sf8 = args.sf8_factor * t_sf7
    else:
        t_sf8 = analysis.sf8_airtime_for(t_sf7)
    curve = analysis.bounds_curve(args.total, args.period, t_sf7, t_sf8, args.step)

    empirical: dict[int, float] = {}
    for spec in args.point or []:
        moved_s, _, path = spec.partition(":")
        parsed = controller.parse_report(path)
        network, _ = analysis.pdr_aggregate(parsed.reports.values())
        empirical[int(moved_s)] = network

    for n_moved, lower, upper in curve.points:
        line = f"{n_moved} {lower:.6f} {upper:.6f}"
        if n_moved in empirical:
            line += f" {empirical.pop(n_moved):.6f}"
        print(line)
    for n_moved, value in sorted(empirical.items()):
        mix = analysis.SfMixConfig(args.total - n_moved, n_moved, args.period, t_sf7, t_sf8)
        lower, upper = analysis.network_bounds(mix)
        print(f"{n_moved} {lower:.6f} {upper:.6f} {value:.6f}")
    return 0


# --- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorascale",
        description="Scaled LoRaWAN packet-delivery-ratio experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("airtime", help="LoRa time-on-air for a radio config")
    p.add_argument("--sf", type=int, required=True)
    p.add_argument("--bw", type=float, default=125_000.0, help="bandwidth in Hz")
    p.add_argument("--payload", type=int, required=True, help="payload bytes")
    p.add_argument("--cr", type=int, default=5, choices=(5, 6, 7, 8),
                   help="coding rate denominator (4/x)")
    p.add_argument("--preamble", type=int, default=8)
    p.add_argument("--implicit-header", action="store_true")
    p.add_argument("--no-crc", action="store_true")
    p.add_argument("--ldro", choices=("auto", "on", "off"), default="auto")
    p.set_defaults(func=_cmd_airtime)

    p = sub.add_parser("scale", help="size the equivalent small experiment")
    p.add_argument("--real-n", type=int, required=True)
    p.add_argument("--real-period", type=float, required=True)
    p.add_argument("--real-airtime", type=float, required=True)
    p.add_argument("--exp-period", type=float, required=True)
    p.add_argument("--exp-airtime", type=float, required=True)
    p.set_defaults(func=_cmd_scale)

    p = sub.add_parser("simulate", help="Monte-Carlo PDR or packet-log generation")
    p.add_argument("--devices", type=int)
    p.add_argument("--period", type=float)
    p.add_argument("--airtime", type=float)
    p.add_argument("--sf", type=int, default=7)
    p.add_argument("--duration", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--model", choices=("any", "any-overlap", "window"))
    p.add_argument("--window-factor", type=float, dest="window_factor")
    p.add_argument("--sf8-devices", type=int, dest="sf8_devices")
    p.add_argument("--sf8-airtime", type=float, dest="sf8_airtime")
    p.add_argument("--out", help="write a packet log from a full timeline run")
    p.add_argument("--config", help="key = value experiment definition")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("serve", help="run the mock network server")
    p.add_argument("--bind", default="127.0.0.1:8700", help="host:port")
    p.add_argument("--token", required=True)
    p.add_argument("--log", help="packet log replayed at startup")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("run-experiment", help="orchestrate a full experiment")
    p.add_argument("--roster")
    p.add_argument("--mapping")
    p.add_argument("--duration", type=float)
    p.add_argument("--server", help="network server host:port")
    p.add_argument("--token")
    p.add_argument("--auto-operator", dest="auto_operator",
                   help="'sim' or a path to a scripted reply file")
    p.add_argument("--name")
    p.add_argument("--period", type=float, help="device period, sets default windows")
    p.add_argument("--turnon-step", type=float, dest="turnon_step")
    p.add_argument("--probe-window", type=float, dest="probe_window")
    p.add_argument("--recheck-window", type=float, dest="recheck_window")
    p.add_argument("--report")
    p.add_argument("--timestamps")
    p.add_argument("--config", help="key = value experiment definition")
    p.set_defaults(func=_cmd_run_experiment)

    p = sub.add_parser("analyze", help="SF7/SF8 mix bounds curve")
    p.add_argument("--total", type=int, required=True)
    p.add_argument("--period", type=float, required=True)
    p.add_argument("--airtime-sf7", type=float, dest="airtime_sf7", required=True)
    p.add_argument("--airtime-sf8", type=float, dest="airtime_sf8")
    p.add_argument("--sf8-factor", type=float, dest="sf8_factor",
                   help="idealized airtime scaling, e.g. 2.0")
    p.add_argument("--step", type=int, default=1)
    p.add_argument("--point", action="append", metavar="N_MOVED:REPORT",
                   help="overlay an experiment report as an empirical point")
    p.set_defaults(func=_cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OrchestrationError, netserver.ProtocolError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
