import pathlib
import subprocess
import sys

import pytest

from lorascale import cli, netserver
from lorascale.controller import OrchestrationError, TurnOff, TurnOn

DATA = pathlib.Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_airtime_subcommand(capsys):
    rc, out = run_cli(capsys, "airtime", "--sf", "7", "--bw", "125000",
                      "--payload", "51", "--cr", "5")
    assert rc == 0
    assert out.strip() == "0.102656"


def test_airtime_sf8(capsys):
    rc, out = run_cli(capsys, "airtime", "--sf", "8", "--payload", "51")
    assert rc == 0
    assert out.strip() == "0.184832"


def test_scale_subcommand_reports_published_sizing(capsys):
    rc, out = run_cli(capsys, "scale", "--real-n", "10000", "--real-period", "600",
                      "--real-airtime", "0.04122", "--exp-period", "7",
                      "--exp-airtime", "0.11729")
    assert rc == 0
    assert "experiment devices = 41" in out
    assert "device ratio = 4.1 per 1000" in out
    assert "real load = 0.687000" in out


def test_simulate_estimator_output(capsys):
    rc, out = run_cli(capsys, "simulate", "--devices", "41", "--period", "7",
                      "--airtime", "0.11729", "--sf", "7", "--duration", "70000",
                      "--seed", "1")
    assert rc == 0
    pdr = float(out.splitlines()[0].split()[1])
    assert pdr == pytest.approx(0.2557, abs=0.01)
    # same seed reproduces bit-exactly; another seed differs
    _, again = run_cli(capsys, "simulate", "--devices", "41", "--period", "7",
                       "--airtime", "0.11729", "--sf", "7", "--duration", "70000",
                       "--seed", "1")
    assert again == out
    _, other = run_cli(capsys, "simulate", "--devices", "41", "--period", "7",
                       "--airtime", "0.11729", "--sf", "7", "--duration", "70000",
                       "--seed", "2")
    assert other != out


def test_simulate_log_mode_feeds_server(tmp_path, capsys):
    log = tmp_path / "run.log"
    rc, out = run_cli(capsys, "simulate", "--devices", "3", "--period", "5",
                      "--airtime", "0.05", "--duration", "100", "--seed", "4",
                      "--out", str(log))
    assert rc == 0
    store = netserver.PacketStore()
    ingested, skipped = store.ingest_file(log)
    assert skipped == 0
    assert ingested == int(out.splitlines()[0].split()[1])


def test_config_file_with_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("devices = 2\nperiod = 5\nairtime = 0.05\nduration = 500\nseed = 9\n")
    rc, out = run_cli(capsys, "simulate", "--config", str(cfg))
    assert rc == 0
    assert "sent 200" in out  # 100 rounds x 2 devices
    # flag overrides the config value
    rc, out = run_cli(capsys, "simulate", "--config", str(cfg), "--devices", "4")
    assert rc == 0
    assert "sent 400" in out


def test_config_file_syntax_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("devices 2\n")
    rc = cli.main(["simulate", "--config", str(cfg)])
    assert rc == 1


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code != 0


def test_runtime_error_nonzero_exit(capsys):
    rc = cli.main(["simulate", "--devices", "2", "--period", "5", "--airtime", "9",
                   "--duration", "10"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--period", "inf"), ("--period", "-inf"),
                                         ("--duration", "inf")])
def test_simulate_non_finite_setting_exits_cleanly(capsys, flag, value):
    settings = {"--period": "7", "--duration": "70", flag: value}
    rc = cli.main(["simulate", "--devices", "41", "--airtime", "0.11729",
                   *[f"{key}={v}" for key, v in settings.items()]])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err


@pytest.mark.parametrize("value", ["0", "-7", "nan"])
def test_simulate_rejects_bad_period_by_name(capsys, value):
    rc = cli.main(["simulate", "--devices", "41", "--airtime", "0.11729",
                   f"--period={value}"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: period must be finite and positive")


def test_analyze_curve_endpoints_and_points(tmp_path, capsys):
    rc, out = run_cli(capsys, "analyze", "--total", "100", "--period", "600",
                      "--airtime-sf7", "0.04122", "--sf8-factor", "2.0",
                      "--step", "25")
    assert rc == 0
    rows = [line.split() for line in out.splitlines()]
    assert [r[0] for r in rows] == ["0", "25", "50", "75", "100"]
    from lorascale.scaling import success_bounds
    lo, up = success_bounds(100 * 0.04122 / 600)
    assert float(rows[0][1]) == pytest.approx(lo, abs=1e-6)
    assert float(rows[0][2]) == pytest.approx(up, abs=1e-6)

    rc, out = run_cli(capsys, "analyze", "--total", "8", "--period", "5",
                      "--airtime-sf7", "0.05", "--sf8-factor", "2.0", "--step", "4",
                      "--point", f"0:{DATA / 'golden_report.txt'}")
    assert rc == 0
    first = out.splitlines()[0].split()
    assert len(first) == 4  # empirical value appended at n_moved=0
    assert float(first[3]) == pytest.approx(279 / 320, abs=1e-6)


def test_analyze_default_sf8_airtime(capsys):
    rc, out = run_cli(capsys, "analyze", "--total", "10", "--period", "600",
                      "--airtime-sf7", "0.04122", "--step", "5")
    assert rc == 0
    assert len(out.splitlines()) == 3


def test_interactive_operator_parses_answers(monkeypatch):
    answers = iter(["y", "maybe", "n"])
    monkeypatch.setattr("builtins.input", lambda prompt: next(answers))
    operator = cli.InteractiveOperator()
    assert operator.prompt(TurnOn("d1")) is True
    assert operator.prompt(TurnOff("d1")) is False  # after one re-ask


def test_interactive_operator_eof_is_orchestration_error(monkeypatch):
    def no_input(prompt):
        raise EOFError
    monkeypatch.setattr("builtins.input", no_input)
    with pytest.raises(OrchestrationError):
        cli.InteractiveOperator().prompt(TurnOn("d1"))


def test_operator_script_parsing(tmp_path):
    script = tmp_path / "replies.txt"
    script.write_text("# replies\ny\nconfirm\nskip\nno\n")
    assert cli.load_operator_script(script) == [True, True, False, False]
    script.write_text("hmm\n")
    with pytest.raises(ValueError):
        cli.load_operator_script(script)


def golden_pipeline(tmp_path, operator_arg, report_name):
    store = netserver.PacketStore()
    store.ingest_file(DATA / "golden.log")
    server, thread = netserver.start_server(store, "golden-token")
    host, port = server.bound_address
    report = tmp_path / report_name
    try:
        rc = cli.main([
            "run-experiment",
            "--config", str(DATA / "golden.cfg"),
            "--roster", str(DATA / "roster8.csv"),
            "--mapping", str(DATA / "mapping8.csv"),
            "--server", f"{host}:{port}",
            "--token", "golden-token",
            "--auto-operator", operator_arg,
            "--report", str(report),
            "--timestamps", str(tmp_path / (report_name + ".ts")),
        ])
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert rc == 0
    return report.read_bytes()


def test_scripted_replay_equals_simulated_operator(tmp_path):
    script = tmp_path / "all_yes.txt"
    script.write_text("y\n" * 16)  # 8 turn-on + 8 turn-off prompts
    via_sim = golden_pipeline(tmp_path, "sim", "sim.txt")
    via_script = golden_pipeline(tmp_path, str(script), "script.txt")
    assert via_sim == via_script
    assert via_sim == (DATA / "golden_report.txt").read_bytes()


def test_serve_subcommand_over_subprocess(tmp_path):
    import socket
    import time as time_mod

    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()

    proc = subprocess.Popen(
        [sys.executable, "-c",
         "import sys; from lorascale.cli import main; sys.exit(main(sys.argv[1:]))",
         "serve", "--bind", f"127.0.0.1:{port}", "--token", "tok",
         "--log", str(DATA / "golden.log")],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        deadline = time_mod.time() + 10
        client = None
        while time_mod.time() < deadline:
            try:
                client = netserver.NetClient(("127.0.0.1", port), "tok", timeout=2)
                break
            except OSError:
                time_mod.sleep(0.1)
        assert client is not None, "server did not come up"
        records = client.query(f"{0xfeed0001:016x}", 0.0, 1e9)
        client.close()
        assert len(records) > 0
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()
