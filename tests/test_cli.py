import argparse
import hashlib
import pathlib
import re
import subprocess
import sys

import pytest

from lorascale import analysis, cli, controller, netserver, simulator
from lorascale.controller import OrchestrationError, TurnOff, TurnOn
from batch_adapter import batch_query

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


@pytest.mark.parametrize("exp_period, devices, duty", [("7", 41, "0.016756"),
                                                       ("12", 70, "0.009774")])
def test_scale_ends_with_the_experiment_duty_cycle(capsys, exp_period, devices, duty):
    rc, out = run_cli(capsys, "scale", "--real-n", "10000", "--real-period", "600",
                      "--real-airtime", "0.04122", "--exp-period", exp_period,
                      "--exp-airtime", "0.11729")
    assert rc == 0
    lines = out.splitlines()
    assert f"experiment devices = {devices}" in lines
    assert lines[-1] == f"experiment duty cycle = {duty}"


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


# the README's paper-experiment line under each collision model
@pytest.mark.parametrize("model, first_line", [
    ((), "pdr 0.256188"),
    (("--model", "window", "--window-factor", "1"), "pdr 0.508722"),
], ids=["any", "window"])
def test_simulate_pins_the_paper_estimate(capsys, model, first_line):
    rc, out = run_cli(capsys, "simulate", "--devices", "41", "--period", "7",
                      "--airtime", "0.11729", "--sf", "7", "--duration", "70000",
                      "--seed", "1", *model)
    assert rc == 0
    assert out.splitlines()[0] == first_line


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


NON_FINITE_BASE = {
    "simulate": {"--devices": "41", "--period": "7", "--duration": "70",
                 "--airtime": "0.11729", "--sf8-devices": "3", "--sf8-airtime": "0.20582"},
    "analyze": {"--total": "10", "--period": "7", "--airtime-sf7": "0.04",
                "--airtime-sf8": "0.08"},
    "scale": {"--real-n": "10000", "--real-period": "600", "--real-airtime": "0.04122",
              "--exp-period": "7", "--exp-airtime": "0.11729"},
    # windows of their own, so that a bad period cannot be caught as a bad window
    "run-experiment": {"--roster": str(DATA / "roster8.csv"),
                       "--mapping": str(DATA / "mapping8.csv"), "--duration": "200",
                       "--probe-window": "15", "--recheck-window": "15",
                       "--server": "127.0.0.1:9", "--token": "t"},
}


@pytest.mark.parametrize("command, flag, value", [
    ("simulate", "--period", "inf"), ("simulate", "--period", "-inf"),
    ("simulate", "--duration", "inf"), ("simulate", "--airtime", "nan"),
    ("simulate", "--sf8-airtime", "nan"),
    ("analyze", "--period", "nan"), ("analyze", "--period", "inf"),
    ("analyze", "--airtime-sf7", "inf"), ("analyze", "--airtime-sf8", "nan"),
    ("scale", "--real-period", "nan"), ("scale", "--real-airtime", "nan"),
    ("scale", "--exp-period", "nan"), ("scale", "--exp-period", "inf"),
    ("run-experiment", "--period", "0"), ("run-experiment", "--period", "-5"),
    ("run-experiment", "--period", "nan"),
])
def test_non_finite_setting_exits_cleanly(capsys, command, flag, value):
    settings = {**NON_FINITE_BASE[command], flag: value}
    rc = cli.main([command, *[f"{key}={v}" for key, v in settings.items()]])
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


@pytest.mark.parametrize("out", [False, True])
def test_simulate_rejects_non_positive_duration(tmp_path, capsys, out):
    rc = cli.main(["simulate", "--devices", "3", "--period", "5", "--airtime", "0.05",
                   "--duration", "-5", *(["--out", str(tmp_path / "x.log")] if out else [])])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: duration must be finite and positive")


def roster_config(tmp_path, name="experiment.cfg", drop=(), source=DATA / "golden.cfg",
                  **values):
    """The golden run definition, or the one in ``source``, with
    absolute roster paths, some keys dropped and some replaced."""
    config = cli.load_config(source)
    config.update(roster=str(DATA / "roster8.csv"), mapping=str(DATA / "mapping8.csv"))
    config.update(values)
    path = tmp_path / name
    path.write_text("".join(f"{key} = {value}\n" for key, value in config.items()
                            if key not in drop))
    return path


def simulate_log(tmp_path, config, *flags):
    log = tmp_path / f"{config.stem}{''.join(flags)}.log"
    rc = cli.main(["simulate", "--config", str(config), "--out", str(log), *flags])
    assert rc == 0
    return log.read_bytes()


def test_roster_simulate_reproduces_golden_log(tmp_path, capsys):
    assert simulate_log(tmp_path, roster_config(tmp_path)) == (DATA / "golden.log").read_bytes()
    assert capsys.readouterr().out == "wrote 307 packet records to " \
        f"{tmp_path / 'experiment.log'}\n"


def test_roster_simulate_flags_win_over_config(tmp_path):
    flagged = simulate_log(tmp_path, roster_config(tmp_path), "--period", "6")
    assert flagged == simulate_log(tmp_path, roster_config(tmp_path, "p6.cfg", period=6))
    assert flagged != (DATA / "golden.log").read_bytes()


def test_roster_turnon_step_defaults_to_zero_in_simulate(tmp_path):
    unset = simulate_log(tmp_path, roster_config(tmp_path, "unset.cfg", drop=("turnon_step",)))
    assert unset == simulate_log(tmp_path, roster_config(tmp_path, "zero.cfg", turnon_step=0))


@pytest.mark.parametrize("key, message, flag", [
    ("duration", "simulate needs --duration", ("--duration", "200")),
    ("period", "simulate needs --period", ("--period", "5")),
    ("airtime", "simulate needs --airtime", ("--airtime", "0.05")),
])
def test_roster_simulate_missing_setting_is_an_error(tmp_path, capsys, key, message, flag):
    config = roster_config(tmp_path, drop=(key,))
    rc = cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "x.log")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    if flag:  # the flag supplies what the config lacks
        assert simulate_log(tmp_path, config, *flag) == (DATA / "golden.log").read_bytes()


# the roster lists the devices; every other fleet flag applies to a roster too
@pytest.mark.parametrize("flag, value, key", [("--devices", "8", "roster")])
def test_roster_simulate_rejects_synthetic_fleet_flags(tmp_path, capsys, flag, value, key):
    rc = cli.main(["simulate", "--config", str(roster_config(tmp_path)),
                   "--out", str(tmp_path / "x.log"), flag, value])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err and f"'{key}'" in err


def test_roster_simulate_rejects_devices_key(tmp_path, capsys):
    log = tmp_path / "x.log"
    rc = cli.main(["simulate", "--config", str(roster_config(tmp_path, devices=8)),
                   "--out", str(log)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'devices'" in err and "'roster'" in err
    assert not log.exists()


@pytest.mark.parametrize("flag, value, key, base", [
    ("--airtime", "0.06", "airtime", {}),
    ("--sf8-devices", "2", "sf8_devices", {"sf8_airtime": 0.09}),
    ("--sf8-airtime", "0.1", "sf8_airtime", {"sf8_devices": 2, "sf8_airtime": 0.09}),
], ids=["airtime", "sf8_devices", "sf8_airtime"])
def test_roster_simulate_fleet_flags_win_over_config(tmp_path, flag, value, key, base):
    flagged = simulate_log(tmp_path, roster_config(tmp_path, "base.cfg", **base), flag, value)
    assert flagged == simulate_log(tmp_path, roster_config(tmp_path, "set.cfg",
                                                           **{**base, key: value}))
    assert flagged != simulate_log(tmp_path, roster_config(tmp_path, "base.cfg", **base))


@pytest.mark.parametrize("count", ["-1", "9", "20"])
def test_roster_simulate_rejects_sf8_count_outside_roster(tmp_path, capsys, count):
    log = tmp_path / "x.log"
    config = roster_config(tmp_path, sf8_devices=count, sf8_airtime=0.09)
    rc = cli.main(["simulate", "--config", str(config), "--out", str(log)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sf8_devices") and count in err
    assert not log.exists()
    # the whole roster of 8 may move to SF8
    simulate_log(tmp_path, roster_config(tmp_path, "all8.cfg", sf8_devices=8, sf8_airtime=0.09))


@pytest.mark.parametrize("line, fault", [
    ("period_sprad = 0.06", "unknown key 'period_sprad'"),
    ("airtime_sf7 = 0.05", "unknown key 'airtime_sf7'"),
    ("sf8_count = 1", "unknown key 'sf8_count'"),
    ("airtime_sf8 = 0.09", "unknown key 'airtime_sf8'"),
    ("period = 6", "key 'period' is given twice"),
    # a value that does not read as its key's type
    ("period = abc", "period: could not convert string to float: 'abc'"),
    ("devices = 2.5", "devices: invalid literal for int() with base 10: '2.5'"),
    ("model = bogus", "model: expected one of any, any-overlap, window, got 'bogus'"),
    # a spread that leaves some device period at or below zero, or that is negative
    ("period_spread = 3", "period_spread: expected a spread in [0, 2), got '3'"),
    ("period_spread = 2", "period_spread: expected a spread in [0, 2), got '2'"),
    ("period_spread = -0.5", "period_spread: expected a spread in [0, 2), got '-0.5'"),
])
def test_config_refuses_unknown_and_repeated_keys(tmp_path, capsys, line, fault):
    # the line takes the place of the config's own line for its key, but in the repeat case
    key = line.partition(" = ")[0]
    config = roster_config(tmp_path, drop=() if fault.endswith("twice") else (key,))
    text = config.read_text() + f"# a comment\n{line}\n"
    config.write_text(text)
    log = tmp_path / "x.log"
    rc = cli.main(["simulate", "--config", str(config), "--out", str(log)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {config}:{text.count(chr(10))}: {fault}\n"
    assert not log.exists()
    with pytest.raises(ValueError, match=re.escape(fault)):
        cli.load_config(config)


@pytest.mark.parametrize("where", ["config", "roster", "mapping"])
def test_simulate_names_the_line_that_is_not_utf8(tmp_path, capsys, where):
    config = roster_config(tmp_path)
    bad = {"config": config, "roster": tmp_path / "roster.csv",
           "mapping": tmp_path / "mapping.csv"}[where]
    if where != "config":
        bad.write_bytes((DATA / f"{where}8.csv").read_bytes())
        config = roster_config(tmp_path, **{where: bad})
    lines = bad.read_bytes().count(b"\n")
    with bad.open("ab") as fh:
        fh.write({"config": b"name = x\xff\n", "roster": b"g09\xff\n",
                  "mapping": b"g09\xff,00000000feed0009\n"}[where])
    log = tmp_path / "x.log"
    rc = cli.main(["simulate", "--config", str(config), "--out", str(log)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {bad}:{lines + 1}: not UTF-8 text\n"
    assert not log.exists()


def test_analyze_names_the_report_line_that_is_not_utf8(tmp_path, capsys):
    report = tmp_path / "report.txt"
    report.write_bytes(b"# experiment x start 0 end 1 duration 1\nd0 1 2\n# \xc3(\n")
    rc = cli.main(["analyze", "--total", "10", "--period", "7", "--airtime-sf7", "0.04",
                   "--point", f"0:{report}"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {report}:3: not UTF-8 text\n"


def test_simulate_names_a_repeated_roster_id(tmp_path, capsys):
    roster = tmp_path / "roster.csv"
    roster.write_text("# golden run devices\ng01\ng02\ng01\n")
    config = roster_config(tmp_path, roster=roster)
    rc = cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "x.log")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {roster}:4: duplicate device id g01\n"


def test_config_keys_are_the_keys_the_cli_reads():
    source = pathlib.Path(cli.__file__).read_text(encoding="utf-8")
    read = set(re.findall(r'settings(?:\[|\.get\(|\.required\()"(\w+)"', source))
    assert read == set(cli.SETTINGS)
    assert len(read) == 21
    # every setting flag is generated from a table key
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for command, keys in cli.FLAGS.items():
        flags = {a.dest for a in commands[command]._actions} - {"help", "sf", "out", "config"}
        assert flags == set(keys) <= set(cli.SETTINGS)


def test_readme_experiment_config_reproduces_golden_log(tmp_path):
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = tmp_path / "readme.cfg"
    block.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
    config = roster_config(tmp_path, source=block)
    assert simulate_log(tmp_path, config) == (DATA / "golden.log").read_bytes()


@pytest.mark.parametrize("count", ["-1", "4"])
@pytest.mark.parametrize("out", [False, True])
def test_simulate_rejects_sf8_devices_outside_fleet(tmp_path, capsys, count, out):
    rc = cli.main(["simulate", "--devices", "3", "--period", "5", "--airtime", "0.05",
                   "--duration", "50", "--sf8-devices", count, "--sf8-airtime", "0.09",
                   *(["--out", str(tmp_path / "x.log")] if out else [])])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sf8_devices") and count in err


@pytest.mark.parametrize("count", ["0", "-3"])
@pytest.mark.parametrize("out", [False, True])
def test_simulate_rejects_a_fleet_without_devices(tmp_path, capsys, count, out):
    log = tmp_path / "x.log"
    rc = cli.main(["simulate", "--devices", count, "--period", "5", "--airtime", "0.05",
                   "--duration", "50", *(["--out", str(log)] if out else [])])
    assert rc == 1
    assert capsys.readouterr().err == f"error: devices must be at least 1, got {count}\n"
    assert not log.exists()


@pytest.mark.parametrize("point",["foo", "x:report.txt", "1.5:report.txt", ":report.txt", "3:"])
def test_analyze_rejects_bad_point_syntax(capsys, point):
    rc = cli.main(["analyze", "--total", "10", "--period", "7", "--airtime-sf7", "0.04",
                   "--point", point])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --point") and repr(point) in err


def test_analyze_curve_endpoints_and_points(tmp_path, capsys):
    rc, out = run_cli(capsys, "analyze", "--total", "100", "--period", "600",
                      "--airtime-sf7", "0.04122", "--airtime-sf8", "0.08244",
                      "--step", "25")
    assert rc == 0
    rows = [line.split() for line in out.splitlines()]
    assert [r[0] for r in rows] == ["0", "25", "50", "75", "100"]
    from lorascale.scaling import success_bounds
    lo, up = success_bounds(100 * 0.04122 / 600)
    assert float(rows[0][1]) == pytest.approx(lo, abs=1e-6)
    assert float(rows[0][2]) == pytest.approx(up, abs=1e-6)

    rc, out = run_cli(capsys, "analyze", "--total", "8", "--period", "5",
                      "--airtime-sf7", "0.05", "--airtime-sf8", "0.1", "--step", "4",
                      "--point", f"0:{DATA / 'golden_report.txt'}")
    assert rc == 0
    first = out.splitlines()[0].split()
    assert len(first) == 4  # empirical value appended at n_moved=0
    assert float(first[3]) == pytest.approx(279 / 320, abs=1e-6)


@pytest.mark.parametrize("line", ["d1 5", "d 1 5 6", "d1 x 5", "d1 6 5", "d0 4 4"])
def test_analyze_names_a_malformed_report_line(tmp_path, capsys, line):
    report = tmp_path / "report.txt"
    report.write_text(f"# experiment x start 0 end 1 duration 1\nd0 1 2\n{line}\n")
    rc = cli.main(["analyze", "--total", "10", "--period", "7", "--airtime-sf7", "0.04",
                   "--point", f"0:{report}"])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {report}:3: ")


README_ANALYZE = "analyze --total 8835 --period 600 --airtime-sf7 0.04122 --step 250"


def test_readme_analyze_example_output_is_pinned(capsys):
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    assert f"lorascale {README_ANALYZE}\n" in readme
    rc, out = run_cli(capsys, *README_ANALYZE.split())
    assert rc == 0
    assert out.splitlines()[12] == "3000 0.445139 0.667177"  # interior maximum of the lower bound
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == (
        "d1844fff33f4e1d256d67fc54472438092d748f2a6f17941b7963c775854af3d")


ANALYZE_8 = ["analyze", "--total", "8", "--period", "5", "--airtime-sf7", "0.05",
             "--airtime-sf8", "0.1", "--step", "4"]


def test_analyze_prints_off_grid_points_after_the_grid(tmp_path, capsys):
    other = tmp_path / "other.txt"
    other.write_text("# experiment x start 0 end 1 duration 1\nd0 1 4\n")
    rc, out = run_cli(capsys, *ANALYZE_8, "--point", f"3:{DATA / 'golden_report.txt'}",
                      "--point", f"1:{other}", "--point", f"4:{other}")
    assert rc == 0
    rows = [line.split() for line in out.splitlines()]
    assert [r[0] for r in rows] == ["0", "4", "8", "1", "3"]
    assert [len(r) for r in rows] == [3, 4, 3, 4, 4]
    assert rows[3][3] == "0.250000" and rows[4][3] == f"{279 / 320:.6f}"


def test_analyze_refuses_a_repeated_point(tmp_path, capsys):
    golden, other = DATA / "golden_report.txt", tmp_path / "other.txt"
    other.write_text("# experiment x start 0 end 1 duration 1\nd0 1 4\n")
    rc = cli.main([*ANALYZE_8, "--point", f"0:{golden}", "--point", f"0:{other}"])
    assert rc == 1
    assert capsys.readouterr() == (
        "", f"error: --point gives N_MOVED 0 twice: {golden} and {other}\n")


@pytest.mark.parametrize("moved", ["9", "100"])
def test_analyze_refuses_a_point_beyond_the_fleet_before_printing(capsys, moved):
    spec = f"{moved}:{DATA / 'golden_report.txt'}"
    rc = cli.main([*ANALYZE_8, "--point", spec])
    assert rc == 1
    assert capsys.readouterr() == (
        "", f"error: --point {spec!r} moves more than --total 8 devices\n")


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


OPERATOR_WORDS = ["y", "Yes", "confirm", "n", "NO", "s", "skip"]
OPERATOR_REPLIES = [True, True, True, False, False, False, False]


def test_script_and_prompt_take_the_same_answers(tmp_path, monkeypatch):
    script = tmp_path / "replies.txt"
    script.write_text("".join(f"  {word}\n" for word in OPERATOR_WORDS))
    assert cli.load_operator_script(script) == OPERATOR_REPLIES
    answers = iter(OPERATOR_WORDS)
    monkeypatch.setattr("builtins.input", lambda prompt: next(answers))
    operator = cli.InteractiveOperator()
    assert [operator.prompt(TurnOn("d1")) for _ in OPERATOR_WORDS] == OPERATOR_REPLIES


def test_operator_script_names_a_bad_line(tmp_path):
    script = tmp_path / "replies.txt"
    script.write_text("y\n\n# then\nmaybe\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(script))}:4: .*'maybe'"):
        cli.load_operator_script(script)


@pytest.mark.parametrize("text, host, port", [
    (":8700", "127.0.0.1", 8700), ("127.0.0.1:0", "127.0.0.1", 0),
    ("example.org:65535", "example.org", 65535),
])
def test_address_reads_host_port(text, host, port):
    assert cli.address(text) == (host, port)


@pytest.mark.parametrize("text", ["localhost", "localhost:", "host:port", "host:65536",
                                  "host:-1", "host: 80", "host:8O", "host:\u00b2"])
def test_address_refuses_what_is_no_host_port(text):
    with pytest.raises(ValueError, match="expected HOST:PORT"):
        cli.address(text)


def test_serve_and_run_experiment_name_a_bad_address(tmp_path, capsys):
    assert cli.main(["serve", "--bind", "localhost", "--token", "t"]) == 1
    assert capsys.readouterr().err == "error: expected HOST:PORT, got 'localhost'\n"
    rc = cli.main(["run-experiment", "--config", str(roster_config(tmp_path)),
                   "--server", "localhost", "--token", "t", "--auto-operator", "sim",
                   "--report", str(tmp_path / "report.txt")])
    assert rc == 1
    assert capsys.readouterr().err == "error: expected HOST:PORT, got 'localhost'\n"
    assert not (tmp_path / "report.txt").exists()


def run_golden(report, operator_arg="sim", mapping=DATA / "mapping8.csv",
               log=DATA / "golden.log"):
    store = netserver.PacketStore()
    store.ingest_file(log)
    server, thread = netserver.start_server(store, "golden-token")
    host, port = server.server_address
    try:
        return cli.main([
            "run-experiment",
            "--config", str(DATA / "golden.cfg"),
            "--roster", str(DATA / "roster8.csv"),
            "--mapping", str(mapping),
            "--server", f"{host}:{port}",
            "--token", "golden-token",
            "--auto-operator", operator_arg,
            "--report", str(report),
            "--timestamps", str(report) + ".ts",
        ])
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def golden_pipeline(tmp_path, operator_arg, report_name):
    report = tmp_path / report_name
    assert run_golden(report, operator_arg) == 0
    return report.read_bytes()


def test_scripted_replay_equals_simulated_operator(tmp_path, capsys):
    script = tmp_path / "all_yes.txt"
    script.write_text("y\n" * 16)  # 8 turn-on + 8 turn-off prompts
    via_sim = golden_pipeline(tmp_path, "sim", "sim.txt")
    # the sum of golden_report.txt's counts
    assert capsys.readouterr().out.splitlines()[-1] == "network pdr 0.871875 (279/320)"
    via_script = golden_pipeline(tmp_path, str(script), "script.txt")
    assert via_sim == via_script
    assert via_sim == (DATA / "golden_report.txt").read_bytes()


def test_run_experiment_reports_unconfirmed_shutdowns(tmp_path, capsys):
    script = tmp_path / "decline_g03_off.txt"
    # 8 turn-on prompts, then g01..g08 off with g03 declined, then g03 again
    script.write_text("y\n" * 10 + "n\n" + "y\n" * 5 + "n\n")
    report = tmp_path / "report.txt"
    assert run_golden(report, str(script)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].startswith("network pdr ")
    assert lines[-1] == "1 devices not confirmed off (see report)"
    golden = (DATA / "golden_report.txt").read_text().splitlines()
    assert report.read_text().splitlines() == golden + ["# shutdown-unconfirmed g03"]


def test_upper_case_mapping_reads_the_lower_case_log(tmp_path, capsys):
    """The store finds each device whatever the case of its EUI, and the
    timestamp file keeps the case the mapping gave."""
    mapping = tmp_path / "mapping8.csv"
    mapping.write_text(re.sub(r",(\w+)", lambda m: "," + m[1].upper(),
                              (DATA / "mapping8.csv").read_text()))
    assert "FEED0001" in mapping.read_text()
    report = tmp_path / "report.txt"
    assert run_golden(report, mapping=mapping) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "network pdr 0.871875 (279/320)"
    assert report.read_bytes() == (DATA / "golden_report.txt").read_bytes()
    stamps = (tmp_path / "report.txt.ts").read_text()
    assert stamps == (DATA / "golden_timestamps.txt").read_text().upper()


def golden_trailer(reason, unconfirmed):
    return [f"# turn-off-aborted {reason}", *(f"# shutdown-unconfirmed {d}" for d in unconfirmed)]


def assert_report_kept(capsys, report, trailer):
    """``report`` holds the golden counts and then ``trailer``; the
    timestamps are the golden ones, and the report reads as a point."""
    golden = (DATA / "golden_report.txt").read_text().splitlines()
    assert report.read_text().splitlines() == golden + trailer
    assert pathlib.Path(f"{report}.ts").read_bytes() == (
        DATA / "golden_timestamps.txt").read_bytes()
    rc, out = run_cli(capsys, "analyze", "--total", "8", "--period", "5", "--airtime-sf7",
                      "0.05", "--point", f"8:{report}")
    assert rc == 0 and out.splitlines()[-1].endswith(" 0.871875")


def test_run_experiment_keeps_the_report_when_the_script_runs_out(tmp_path, capsys):
    script = tmp_path / "ten.txt"
    script.write_text("y\n" * 10)  # 8 turn-ons and 2 of the 8 turn-offs
    report = tmp_path / "report.txt"
    assert run_golden(report, str(script)) == 1
    reason = ("operator script exhausted after 10 replies, "
              "but TurnOff(device_id='g03') still needs an answer")
    captured = capsys.readouterr()
    assert captured.err == f"error: turn-off aborted after 2 shutdowns: {reason}\n"
    assert captured.out.splitlines()[-1] == "network pdr 0.871875 (279/320)"
    unconfirmed = [f"g0{i}" for i in range(3, 9)]
    assert_report_kept(capsys, report, golden_trailer(reason, unconfirmed))


def test_run_experiment_keeps_the_report_on_an_interrupt(tmp_path, capsys, monkeypatch):
    class Interrupted(cli.SimulatedOperator):
        def prompt(self, action):
            if isinstance(action, TurnOff):
                raise KeyboardInterrupt
            return super().prompt(action)

    monkeypatch.setattr(cli, "SimulatedOperator", Interrupted)
    report = tmp_path / "report.txt"
    assert run_golden(report) == 1
    assert capsys.readouterr().err == "error: turn-off aborted after 0 shutdowns: interrupted\n"
    unconfirmed = [f"g0{i}" for i in range(1, 9)]
    assert_report_kept(capsys, report, golden_trailer("interrupted", unconfirmed))


def test_run_experiment_interrupted_at_a_turn_on_prompt_writes_nothing(tmp_path, capsys,
                                                                       monkeypatch):
    """A Ctrl-C before collect is one error line and exit 130, with no file
    written; the interrupt does not escape ``cli.main``."""
    class Interrupted(cli.SimulatedOperator):
        def prompt(self, action):
            if action == TurnOn("g03"):
                raise KeyboardInterrupt
            return super().prompt(action)

    monkeypatch.setattr(cli, "SimulatedOperator", Interrupted)
    assert run_golden(tmp_path / "report.txt") == 130
    assert capsys.readouterr().err == "error: interrupted\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 7.28 TiB for an array", "error: out of memory: Unable to allocate "
                                                 "7.28 TiB for an array\n"),
    ("", "error: out of memory\n"),
])
def test_memory_error_is_one_error_line(tmp_path, capsys, monkeypatch, message, line):
    def exhausted(*args):
        raise MemoryError(message)

    monkeypatch.setattr(analysis, "bounds_curve", exhausted)
    rc = cli.main(["analyze", "--total", "1000000000000", "--period", "600",
                   "--airtime-sf7", "0.04122"])
    assert rc == 1 and capsys.readouterr().err == line
    monkeypatch.setattr(simulator, "lattice_events", exhausted)
    rc = cli.main(["simulate", "--devices", "3", "--period", "5", "--airtime", "0.05",
                   "--out", str(tmp_path / "x.log")])
    assert rc == 1 and capsys.readouterr().err == line


GOLDEN_EUI_G03 = "00000000feed0003"


def fail_query(monkeypatch, dev_eui, answered):
    """Make ``NetClient.query`` fail ``dev_eui`` once its first
    ``answered`` queries have been served."""
    original = netserver.NetClient.query
    served = []

    def query(self, eui, from_ts, to_ts):
        if eui == dev_eui:
            served.append(eui)
            if len(served) > answered:
                raise netserver.ProtocolError("no such window")
        got, = original(self, [eui], from_ts, to_ts)
        return got

    monkeypatch.setattr(netserver.NetClient, "query", batch_query(query))


def test_run_experiment_probe_failure_is_one_error_line(tmp_path, capsys, monkeypatch):
    fail_query(monkeypatch, GOLDEN_EUI_G03, answered=0)
    report = tmp_path / "report.txt"
    assert run_golden(report) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: server unreachable during turn-on probe: "
                            "no such window\n")
    assert not report.exists()


def test_run_experiment_summary_counts_failed_queries(tmp_path, capsys, monkeypatch):
    fail_query(monkeypatch, GOLDEN_EUI_G03, answered=1)  # the probe only
    report = tmp_path / "report.txt"
    assert run_golden(report) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].startswith("network pdr ")
    assert lines[-1] == "query failed for 1 devices (see report)"
    assert report.read_text().splitlines()[-1] == "# query-failed g03 no such window"
    assert "\ng03 0 0\n" in report.read_text()


def test_run_experiment_warns_of_devices_that_never_delivered(tmp_path, capsys):
    """A device the store holds no packet of reads ``0 0`` in the report
    without a query failure, and the summary counts it against the roster."""
    log = tmp_path / "golden-without-g03.log"
    with open(DATA / "golden.log", encoding="ascii") as fh:
        log.write_text("".join(line for line in fh if GOLDEN_EUI_G03 not in line))
    report = tmp_path / "report.txt"
    assert run_golden(report, log=log) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3].startswith("network pdr ")
    assert lines[-2] == "warning: 1 of 8 switched-on devices never delivered"
    # no golden period (5 s, spread 0.06) is below 4.85 s, so no device made more
    # than ceil(200 / 4.85) = 42 attempts in the 200 s window
    delivered = sum(c.delivered for c in controller.parse_report(report).values())
    assert lines[-1] == (f"pdr lower bound {delivered / 336:.6f} ({delivered}/336), "
                         "counting 42 attempts for each device")
    assert "\ng03 0 0\n" in report.read_text()
    assert "# query-failed" not in report.read_text()


def test_cli_imports_no_numpy():
    # the server process runs only the CLI and netserver; NumPy would cost
    # it start-up time and memory for nothing
    code = ("import sys; from lorascale import cli; cli.build_parser(); "
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'); "
            "assert not loaded, loaded")
    subprocess.run([sys.executable, "-c", code], check=True)


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
        (ts, _), = client.query([f"{0xfeed0001:016x}"], 0.0, 1e9)
        client.close()
        assert len(ts) > 0
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()
