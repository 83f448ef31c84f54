"""Command-line entry point.

Subcommands: ``airtime`` (time-on-air), ``scale`` (experiment sizing),
``simulate`` (Monte-Carlo PDR or packet-log generation), ``serve``
(mock network server), ``run-experiment`` (orchestration) and
``analyze`` (SF-mix bounds curve).  :data:`SETTINGS` gives each experiment
setting's type and static default; the ``key = value`` config, the setting
flags and the merge (flag over config over default) all read it.  Only the
subcommands that simulate import NumPy, so ``serve`` starts without it.
"""

from __future__ import annotations

import argparse
import math
import os
import select
import sys

from . import airtime as airtime_mod
from . import analysis, controller, netserver, scaling
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


class OneOf(tuple):
    """Reader of a setting that names one of a few choices."""

    def __call__(self, text: str) -> str:
        if text not in self:
            raise ValueError(f"expected one of {', '.join(self)}, got {text!r}")
        return text


def spread(text: str) -> float:
    """Reader of ``period_spread``, in [0, 2) so that every :func:`device_period` is positive."""
    if not 0.0 <= (value := float(text)) < 2.0:
        raise ValueError(f"expected a spread in [0, 2), got {text!r}")
    return value


# Every experiment setting, the one place that names it: the reader of its config
# text and flag, and its static default (None: none, or one computed from ``period``).
SETTINGS = {
    "devices": (int, None), "roster": (str, None), "mapping": (str, None),
    "period": (float, None), "period_spread": (spread, 0.0), "airtime": (float, None),
    "sf8_devices": (int, 0), "sf8_airtime": (float, None), "duration": (float, None),
    "seed": (int, 0), "model": (OneOf(("any", "any-overlap", "window")), "any"),
    "window_factor": (float, 1.0), "name": (str, "experiment"), "turnon_step": (float, 0.0),
    "probe_window": (float, None), "recheck_window": (float, None), "server": (str, None),
    "token": (str, None), "auto_operator": (str, None), "report": (str, "report.txt"),
    "timestamps": (str, "timestamps.txt"),
}

# The settings that each command also takes as flags.
FLAGS = {
    "simulate": "devices period airtime duration seed model window_factor sf8_devices "
                "sf8_airtime".split(),
    "run-experiment": "roster mapping duration server token auto_operator name period "
                      "turnon_step probe_window recheck_window report timestamps".split(),
}


# The config keys that name an input file, which is read relative to the config's
# own directory; a flag, and an output path such as ``report``, is read as given.
CONFIG_INPUTS = ("roster", "mapping")


def load_config(path) -> dict:
    """Parse a line-oriented ``key = value`` config file, each key one
    of :data:`SETTINGS`, given once and read as its row reads it.  Each
    :data:`CONFIG_INPUTS` file is resolved against the config's directory
    and must open."""
    values = {}
    for number, line in controller.numbered_lines(path):
        key, eq, value = map(str.strip, line.partition("="))
        if not eq:
            raise ValueError(f"{path}:{number}: expected 'key = value'")
        if key not in SETTINGS:
            raise ValueError(f"{path}:{number}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"{path}:{number}: key {key!r} is given twice")
        try:
            values[key] = SETTINGS[key][0](value)
            if key in CONFIG_INPUTS and value:
                values[key] = os.path.join(os.path.dirname(path), value)
                open(values[key], "rb").close()
        except (ValueError, OSError) as exc:
            raise ValueError(f"{path}:{number}: {key}: {exc}") from None
    return values


class Settings(dict):
    """A command's experiment settings: each static default, replaced by the config's
    value, replaced by a flag that was given.  A key with no value is absent."""

    def __init__(self, args, config: dict):
        super().__init__({k: d for k, (_, d) in SETTINGS.items() if d is not None}, **config)
        self.command = args.command
        self.update((key, getattr(args, key)) for key in FLAGS[self.command]
                    if getattr(args, key) is not None)

    def required(self, key: str):
        """The value of ``key``; an error if neither flag nor config gives it."""
        if self.get(key) in (None, ""):
            where = (f"--{key.replace('_', '-')}" if key in FLAGS[self.command]
                     else f"'{key}' in the config")
            raise ValueError(f"{self.command} needs {where}")
        return self[key]


# An operator's answers, at the terminal prompt and in a reply script alike.
ANSWERS = {"y": True, "yes": True, "confirm": True, "n": False, "no": False, "s": False,
           "skip": False}


class InteractiveOperator:
    """Terminal prompt loop; one y/n answer per device toggle."""

    def prompt(self, action) -> bool:
        kind = "ON" if isinstance(action, TurnOn) else "OFF"
        while True:
            try:
                reply = input(f"turn {kind} device {action.device_id}? [y/n] ")
            except EOFError:
                raise OrchestrationError("operator input ended before all prompts were answered")
            answer = ANSWERS.get(reply.strip().lower())
            if answer is not None:
                return answer
            print("please answer y or n", file=sys.stderr)


def load_operator_script(path) -> list[bool]:
    """One :data:`ANSWERS` reply per data line."""
    replies = []
    for number, line in controller.numbered_lines(path):
        reply = ANSWERS.get(line.lower())
        if reply is None:
            raise ValueError(f"{path}:{number}: unrecognized operator reply {line!r}")
        replies.append(reply)
    return replies


def address(text: str) -> tuple[str, int]:
    """A ``HOST:PORT`` socket address; an empty host is 127.0.0.1."""
    host, colon, port = text.rpartition(":")
    if not (colon and port.isascii() and port.isdigit() and int(port) <= 65535):
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    return host or "127.0.0.1", int(port)


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
    print(f"real load = {load:.6f}")
    print(f"experiment devices = {experiment.num_devices}")
    print(f"experiment load = {exp_load:.6f}")
    print(f"device ratio = {ratio:.1f} per 1000")
    print(f"success bounds lower = {lower:.6f} upper = {upper:.6f}")
    print(f"experiment duty cycle = {experiment.airtime / experiment.period:.6f}")
    return 0


def _model_from(settings: Settings):
    from . import simulator

    if settings["model"] == "window":
        return simulator.VulnerabilityWindow(settings["window_factor"])
    return simulator.AnyOverlap()


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


def _experiment(settings: Settings):
    """Device matrix and settings of the roster experiment that flags and
    config define; ``simulate --out`` and ``run-experiment`` both read
    it here, so the traffic simulated is the traffic orchestrated."""
    matrix = load_roster(settings.required("roster"), settings.required("mapping"))
    period = settings.get("period")
    if period is not None:
        scaling.check_period(period)
    window = 3 * period if period else 0.0
    return matrix, ExperimentSettings(
        name=settings["name"], duration=settings.required("duration"),
        probe_window=settings.get("probe_window", window),
        recheck_window=settings.get("recheck_window", window),
        turnon_step=settings["turnon_step"])


def _traffic(settings: Settings, devices: int, sf: int):
    """The fleet that flags and config keys share: period, duration, and the
    :class:`~lorascale.scaling.SfGroup` list of ``devices`` on SF ``sf`` save the
    last ``sf8_devices`` on SF8, checked by :func:`~lorascale.scaling.sf_channels`.
    Both ``simulate`` modes take that list."""
    period = settings.required("period")
    scaling.check_period(period)
    # the default duration, and with it the estimator's round count, follows the period
    duration = settings.get("duration", 10_000 * period)
    if not (math.isfinite(duration) and duration > 0):
        raise ValueError(f"duration must be finite and positive, got {duration}")
    if devices < 1:
        raise ValueError(f"devices must be at least 1, got {devices}")
    sf8_devices = settings["sf8_devices"]
    if not 0 <= sf8_devices <= devices:
        raise ValueError(f"sf8_devices must lie between 0 and the fleet size {devices}, "
                         f"got {sf8_devices}")
    sf8_airtime = settings.required("sf8_airtime") if sf8_devices else None
    groups = [scaling.SfGroup(sf, devices - sf8_devices, settings.required("airtime"))]
    if sf8_devices:
        groups.append(scaling.SfGroup(8, sf8_devices, sf8_airtime))
    return period, duration, scaling.sf_channels(groups, period)


def _fleet(settings: Settings, sf: int):
    """Devices and horizon of a ``simulate --out`` run, the k-th device in the k-th
    slot of :func:`_traffic`'s groups.  A roster experiment switches its devices on
    ``turnon_step`` seconds apart and keeps them on through the probe and experiment
    windows and one longest airtime past the window's end, so the log holds every
    attempt that a live device starts by then; an attempt that starts later hits no
    packet that ends inside the window.  Without a roster, ``devices`` devices run
    from 0 to ``duration``."""
    from . import simulator

    if settings.get("roster"):
        if "devices" in settings:
            raise ValueError("--devices or 'devices' does not apply to a roster experiment, "
                             "whose devices are the 'roster' entries")
        matrix, experiment = _experiment(settings)
        entries, step = matrix.entries, experiment.turnon_step
        period, duration, groups = _traffic(settings, len(entries), sf)
        horizon = (len(entries) * step + experiment.probe_window + duration
                   + max(group.airtime for group in groups))
    else:
        devices = settings.required("devices")
        period, duration, groups = _traffic(settings, devices, sf)
        entries = [controller.RosterEntry(f"dev{i:03d}", f"{i:016x}")
                   for i in range(1, devices + 1)]
        step, horizon = 0.0, duration
    slots = [g for g in groups for _ in range(g.count)]
    return [simulator.DeviceSpec(entry.device_id, entry.dev_eui, group.sf,
                                 device_period(period, k, len(entries), settings["period_spread"]),
                                 group.airtime, active_from=k * step, active_until=horizon)
            for k, (entry, group) in enumerate(zip(entries, slots))], horizon


def _cmd_simulate(args) -> int:
    from . import simulator

    settings = Settings(args, load_config(args.config) if args.config else {})
    seed, model = settings["seed"], _model_from(settings)
    if args.out:
        specs, horizon = _fleet(settings, args.sf)
        # streamed block by block: no whole-run arrays
        timeline = simulator.Timeline(specs, horizon, model=model, seed=seed)
        roster = bool(settings.get("roster"))
        if not roster and not timeline.counts.any():
            raise ValueError("no transmissions in this run")
        n = simulator.write_packet_log(timeline, args.out)
        print(f"wrote {n} packet records to {args.out}")
        if not roster:
            print(f"pdr {n / int(timeline.counts.sum()):.6f}")
        return 0

    period, duration, groups = _traffic(settings, settings.required("devices"), args.sf)
    rounds = max(1, int(duration / period))
    estimate = simulator.estimate_pdr(groups, period, rounds, model=model, seed=seed)
    print(f"pdr {estimate.pdr:.6f}")
    print(f"stderr {estimate.stderr:.6f}")
    print(f"sent {estimate.sent} delivered {estimate.delivered}")
    return 0


def _cmd_serve(args) -> int:
    store = netserver.PacketStore()
    if args.log:
        ingested, skipped = store.ingest_file(args.log)
        print(f"ingested {ingested} records from {args.log} ({skipped} malformed lines skipped)")
    server = netserver.PacketServer(address(args.bind), store, args.token)
    # flushed, so a script that reads the port from a pipe or file sees it
    print(f"serving on {server.server_address[0]}:{server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _cmd_run_experiment(args) -> int:
    settings = Settings(args, load_config(args.config) if args.config else {})
    matrix, experiment = _experiment(settings)

    operator: Operator
    auto = settings.get("auto_operator")
    if auto is None:
        operator = InteractiveOperator()
    elif auto == "sim":
        operator = SimulatedOperator()
    else:
        operator = ScriptedOperator(load_operator_script(auto))
    clock = RealClock() if auto is None else VirtualClock(0.0)

    report_path, ts_path = settings["report"], settings["timestamps"]
    with netserver.NetClient(address(settings.required("server")),
                             settings.required("token")) as client:
        result = run_experiment(matrix, operator, client, clock, experiment)
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
    # a failed query is reported as such, not as a device that never delivered
    silent = sum(1 for device_id, report in result.reports.items()
                 if not report.sent and device_id not in result.query_failures)
    if silent:
        print(f"warning: {silent} of {len(result.reports)} switched-on devices never delivered")
        if "period" in settings:
            # no device's period lies below the low end of device_period's range, so
            # none made more attempts in the window than one at that period.  Every
            # device counts them: a delivering one's sent misses its edge losses.
            low = settings["period"] * (1 - settings["period_spread"] / 2)
            attempts = math.ceil(experiment.duration / low)
            sent = sum(max(report.sent, attempts) for device_id, report in result.reports.items()
                       if device_id not in result.query_failures)
            print(f"pdr lower bound {total_delivered / sent:.6f} ({total_delivered}/{sent}), "
                  f"counting {attempts} attempts for each device")
    if result.query_failures:
        print(f"query failed for {len(result.query_failures)} devices (see report)")
    unconfirmed = sum(1 for r in result.shutdown_log if not r.confirmed)
    if unconfirmed:
        print(f"{unconfirmed} devices not confirmed off (see report)")
    if result.turn_off_aborted:
        print(f"error: turn-off aborted after {len(result.shutdown_log)} shutdowns: "
              f"{result.turn_off_aborted}", file=sys.stderr)
        return 1
    return 0


def _cmd_analyze(args) -> int:
    t_sf7, t_sf8 = args.airtime_sf7, args.airtime_sf8
    if t_sf8 is None:
        t_sf8 = analysis.sf8_airtime_for(t_sf7)
    curve = analysis.bounds_curve(args.total, args.period, t_sf7, t_sf8, args.step)

    reports: dict[int, str] = {}
    for spec in args.point or []:
        n_moved, colon, path = spec.partition(":")
        if not (colon and path and n_moved.isdecimal()):
            raise ValueError(f"--point takes N_MOVED:REPORT, got {spec!r}")
        n_moved = int(n_moved)
        if n_moved > args.total:
            raise ValueError(f"--point {spec!r} moves more than --total {args.total} devices")
        if n_moved in reports:
            raise ValueError(f"--point gives N_MOVED {n_moved} twice: {reports[n_moved]} and {path}")
        reports[n_moved] = path
    empirical = {}
    for n_moved, path in reports.items():
        devices = controller.parse_report(path).values()
        try:
            empirical[n_moved] = analysis.pdr_aggregate(devices)[0]
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    for n_moved, lower, upper in curve:
        line = f"{n_moved} {lower:.6f} {upper:.6f}"
        if n_moved in empirical:
            line += f" {empirical.pop(n_moved):.6f}"
        print(line)
    for n_moved, value in sorted(empirical.items()):
        mix = analysis.sf8_mix(args.total, n_moved, t_sf7, t_sf8)
        lower, upper = analysis.network_bounds(mix, args.period)
        print(f"{n_moved} {lower:.6f} {upper:.6f} {value:.6f}")
    return 0


# --- parser -------------------------------------------------------------------

def _add_setting_flags(parser, command: str, **help_texts) -> None:
    """A flag for each of ``FLAGS[command]``, read as its config value is."""
    for key in FLAGS[command]:
        read = SETTINGS[key][0]
        kind = {"choices": read} if isinstance(read, OneOf) else {"type": read}
        parser.add_argument(f"--{key.replace('_', '-')}", help=help_texts.get(key), **kind)


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
    _add_setting_flags(p, "simulate")
    p.add_argument("--sf", type=int, default=7)
    p.add_argument("--out", help="write a packet log from a full timeline run")
    p.add_argument("--config", help="key = value experiment definition")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("serve", help="run the mock network server")
    p.add_argument("--bind", default="127.0.0.1:8700", help="host:port")
    p.add_argument("--token", required=True)
    p.add_argument("--log", help="packet log replayed at startup")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("run-experiment", help="orchestrate a full experiment")
    _add_setting_flags(p, "run-experiment", server="network server host:port",
                       auto_operator="'sim' or a path to a scripted reply file",
                       period="device period, sets default windows")
    p.add_argument("--config", help="key = value experiment definition")
    p.set_defaults(func=_cmd_run_experiment)

    p = sub.add_parser("analyze", help="SF7/SF8 mix bounds curve")
    p.add_argument("--total", type=int, required=True)
    p.add_argument("--period", type=float, required=True)
    p.add_argument("--airtime-sf7", type=float, dest="airtime_sf7", required=True)
    p.add_argument("--airtime-sf8", type=float, dest="airtime_sf8")
    p.add_argument("--step", type=int, default=1)
    p.add_argument("--point", action="append", metavar="N_MOVED:REPORT",
                   help="overlay an experiment report as an empirical point")
    p.set_defaults(func=_cmd_analyze)

    return parser


# The status a shell reports for a command that SIGPIPE ended (128 + 13).
_CLOSED_STDOUT_STATUS = 141


def _stdout_closed() -> bool:
    """Whether stdout is a pipe or socket whose reader has gone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # none, or not a file, as when captured
        return False
    poller = select.poll()
    poller.register(fd, select.POLLOUT)
    return any(events & (select.POLLERR | select.POLLHUP) for _, events in poller.poll(0))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        if sys.stdout is not None:  # None when the process started without one
            sys.stdout.flush()  # a closed stdout fails here, not at exit
        return status
    except (ValueError, OrchestrationError, netserver.ProtocolError, OSError) as exc:
        if isinstance(exc, BrokenPipeError) and _stdout_closed():
            # the reader took what it wanted, as `| head` does: stop quietly,
            # and send the unwritten rest nowhere so that exit has nothing to flush
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return _CLOSED_STDOUT_STATUS
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}".removesuffix(": "), file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
