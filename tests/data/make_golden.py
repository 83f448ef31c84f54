"""Regenerate the golden end-to-end fixture.

Searches for a seed where every device's first and last experiment-window
attempts are delivered (so frame-counter gap arithmetic recovers the sent
count exactly), with real interior losses, then freezes the roster, config,
packet log, report and timestamp files.  Run from the repository root:

    python tests/data/make_golden.py
"""

import pathlib
import sys

sys.path.insert(0, "src")

from lorascale import cli, netserver, simulator  # noqa: E402

DATA = pathlib.Path(__file__).parent
N_DEVICES = 8

CONFIG = {
    "name": "golden",
    "period": "5",
    "period_spread": "0.06",
    "airtime": "0.05",
    "duration": "200",
    "turnon_step": "1",
    "probe_window": "15",
    "recheck_window": "15",
}


def write_rosters() -> None:
    with open(DATA / "roster8.csv", "w") as fh:
        fh.write("# golden run devices\n")
        for i in range(1, N_DEVICES + 1):
            fh.write(f"g{i:02d}\n")
    with open(DATA / "mapping8.csv", "w") as fh:
        fh.write("# id,eui\n")
        for i in range(1, N_DEVICES + 1):
            fh.write(f"g{i:02d},{0xfeed0000 + i:016x}\n")


def candidate(seed: int):
    config = {key: cli.SETTINGS[key][0](value) for key, value in CONFIG.items()}
    config["roster"] = str(DATA / "roster8.csv")
    config["mapping"] = str(DATA / "mapping8.csv")
    args = cli.build_parser().parse_args(["simulate"])
    specs, horizon = cli._fleet(cli.Settings(args, config), args.sf)
    result = simulator.run(specs, horizon, seed=seed)
    n = len(specs)
    w0 = n * 1.0 + 15.0
    w1 = w0 + 200.0
    probe_ok, boundary_ok, losses = True, True, 0
    for idx, spec in enumerate(specs):
        mask = result.dev == idx
        in_probe = mask & (result.end <= w0)
        if not result.delivered[in_probe].any():
            probe_ok = False
        in_window = mask & (result.end >= w0) & (result.end <= w1)
        flags = result.delivered[in_window]
        if flags.size == 0 or not flags[0] or not flags[-1]:
            boundary_ok = False
        losses += int(flags.size - flags.sum())
    return probe_ok and boundary_ok and losses >= 5, losses, result


def main() -> None:
    write_rosters()
    for seed in range(500):
        ok, losses, result = candidate(seed)
        if ok:
            print(f"seed {seed}: {losses} interior losses")
            break
    else:
        raise SystemExit("no suitable seed found")

    CONFIG["seed"] = str(seed)
    CONFIG["roster"] = "tests/data/roster8.csv"
    CONFIG["mapping"] = "tests/data/mapping8.csv"
    with open(DATA / "golden.cfg", "w") as fh:
        fh.write("# golden end-to-end run definition\n")
        for key, value in CONFIG.items():
            fh.write(f"{key} = {value}\n")

    n = simulator.write_packet_log(result, DATA / "golden.log")
    print(f"packet log: {n} records")

    store = netserver.PacketStore()
    store.ingest_file(DATA / "golden.log")
    server, thread = netserver.start_server(store, "golden-token")
    host, port = server.server_address
    try:
        rc = cli.main([
            "run-experiment",
            "--config", str(DATA / "golden.cfg"),
            "--roster", str(DATA / "roster8.csv"),
            "--mapping", str(DATA / "mapping8.csv"),
            "--server", f"{host}:{port}",
            "--token", "golden-token",
            "--auto-operator", "sim",
            "--report", str(DATA / "golden_report.txt"),
            "--timestamps", str(DATA / "golden_timestamps.txt"),
        ])
        assert rc == 0
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    print((DATA / "golden_report.txt").read_text())


if __name__ == "__main__":
    main()
