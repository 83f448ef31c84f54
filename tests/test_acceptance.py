"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All randomized checks use frozen seeds, so the suite is deterministic.
"""

import json
import pathlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorascale import cli, netserver, simulator
from lorascale.analysis import (
    bounds_curve,
    network_bounds,
    scale_mix,
    sf8_airtime_for,
)
from lorascale.controller import (
    DeviceMatrix,
    DeviceReport,
    RosterEntry,
    SimulatedOperator,
    VirtualClock,
    compute_counts,
    turn_off_sequence,
)
from lorascale.netserver import NetClient, PacketRecord, PacketStore, start_server
from batch_adapter import Batched
from lorascale.scaling import (
    TrafficProfile,
    channel_load,
    derive_equivalent,
    device_ratio_per_thousand,
    success_bounds,
    success_exact_periodic,
)
from lorascale.simulator import AnyOverlap, SfGroup, VulnerabilityWindow, estimate_pdr
from record_oracle import columns, ingest_records, packets_message, records_of, served_line

DATA = pathlib.Path(__file__).parent / "data"


def ok(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_c1_scaling_reproduction():
    """Published real system maps to a 41-device experiment, 4.1 per 1000."""
    real = TrafficProfile(10_000, 600.0, 0.04122)
    assert channel_load(real) == pytest.approx(0.687, abs=1e-12)
    experiment = derive_equivalent(real, 7.0, 0.11729)
    assert experiment.num_devices == 41
    ratio = device_ratio_per_thousand(real, experiment)
    assert f"{ratio:.1f}" == "4.1"
    ok("1 scaling-reproduction", f"N_exp={experiment.num_devices}, ratio={ratio:.1f}/1000")


@pytest.mark.parametrize("n", [2, 5, 41])
def test_c2_oracle_equivalence(n):
    """Monte-Carlo PDR over 10,000 periods matches the closed-form law."""
    period, airtime = 7.0, 0.11729
    details = []
    for model, factor in ((AnyOverlap(), 2.0), (VulnerabilityWindow(1.0), 1.0)):
        est = estimate_pdr([SfGroup(7, n, airtime)], period, rounds=10_000,
                           model=model, seed=2000 + n)
        expected = success_exact_periodic(
            TrafficProfile(n, period, airtime), window_factor=factor
        )
        if n == 41 and factor == 2.0:
            assert expected == pytest.approx(0.2557, abs=1e-4)
        assert abs(est.pdr - expected) <= 3 * est.stderr
        details.append(f"w={factor}: {est.pdr:.4f}~{expected:.4f}")
    ok(f"2 oracle-equivalence N={n}", "; ".join(details))


def test_c3_bounds_sandwich_on_random_grid():
    """Empirical PDR sits between exp(-2L) and exp(-L) on 20 random profiles."""
    rng = np.random.default_rng(777)
    for i in range(20):
        n = int(rng.integers(5, 121))
        load = float(rng.uniform(0.1, 0.8))
        period = float(rng.uniform(1.0, 600.0))
        airtime = load * period / n
        rounds = max(1500, int(80_000 / n))
        est = estimate_pdr([SfGroup(7, n, airtime)], period, rounds=rounds, seed=3000 + i)
        lower, upper = success_bounds(load)
        assert lower - 3 * est.stderr <= est.pdr <= upper + 3 * est.stderr, (
            f"point {i}: n={n}, L={load:.3f}, pdr={est.pdr:.4f} "
            f"outside [{lower:.4f}, {upper:.4f}] +/- 3*{est.stderr:.4f}"
        )
    ok("3 bounds-sandwich", "20/20 grid points inside the band")


def test_c4_end_to_end_pipeline_exactness(tmp_path):
    """simulate -> log -> server -> orchestration reproduces ground truth."""
    config = cli.load_config(DATA / "golden.cfg")
    config["roster"] = str(DATA / "roster8.csv")
    config["mapping"] = str(DATA / "mapping8.csv")
    seed = int(config["seed"])

    # simulate and export
    args = cli.build_parser().parse_args(["simulate"])
    specs, horizon = cli._fleet(cli.Settings(args, config), args.sf)
    sim = simulator.run(specs, horizon, seed=seed)
    log_path = tmp_path / "pipeline.log"
    simulator.write_packet_log(sim, log_path)
    assert log_path.read_bytes() == (DATA / "golden.log").read_bytes()

    # ground truth: per-device counts over the experiment window
    n = len(specs)
    w0 = n * float(config["turnon_step"]) + float(config["probe_window"])
    w1 = w0 + float(config["duration"])
    truth = {}
    for idx, spec in enumerate(specs):
        in_window = (sim.dev == idx) & (sim.end >= w0) & (sim.end <= w1)
        flags = sim.delivered[in_window]
        truth[spec.device_id] = (int(flags.sum()), int(flags.size))

    # ingest into the server and run the orchestration against it
    store = PacketStore()
    ingested, skipped = store.ingest_file(log_path)
    assert skipped == 0 and ingested == int(np.count_nonzero(sim.delivered))
    server, thread = start_server(store, "golden-token")
    host, port = server.server_address
    report_path = tmp_path / "report.txt"
    try:
        rc = cli.main([
            "run-experiment", "--config", str(DATA / "golden.cfg"),
            "--roster", str(DATA / "roster8.csv"),
            "--mapping", str(DATA / "mapping8.csv"),
            "--server", f"{host}:{port}", "--token", "golden-token",
            "--auto-operator", "sim",
            "--report", str(report_path),
            "--timestamps", str(tmp_path / "ts.txt"),
        ])
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert rc == 0

    from lorascale.controller import parse_report
    parsed = parse_report(report_path)
    for device_id, (delivered, sent) in truth.items():
        got = parsed[device_id]
        assert (got.delivered, got.sent) == (delivered, sent), device_id
    losses = sum(s - d for d, s in truth.values())
    assert losses > 0  # the run really exercises counter gaps

    assert report_path.read_bytes() == (DATA / "golden_report.txt").read_bytes()
    assert (tmp_path / "ts.txt").read_bytes() == (DATA / "golden_timestamps.txt").read_bytes()
    ok("4 end-to-end-exactness",
       f"8 devices exact, {losses} interior losses, report byte-identical")


# The paper41 roster at zero period spread, where many devices lose every
# packet to the same neighbours for the whole run.
ZERO_SPREAD_41 = {"name": "zero-spread", "roster": DATA / "roster41.csv",
                  "mapping": DATA / "mapping41.csv", "period": 7, "period_spread": 0,
                  "airtime": 0.11729, "duration": 700, "turnon_step": 1,
                  "probe_window": 21, "recheck_window": 21}


def zero_spread_run(tmp_path, capsys, seed):
    """Simulate, serve and orchestrate the zero-spread roster; return the
    run's summary lines and the true (delivered, sent) over its window."""
    config = tmp_path / "run.cfg"
    config.write_text("".join(f"{key} = {value}\n" for key, value
                              in {**ZERO_SPREAD_41, "seed": seed}.items()))
    log, report = tmp_path / "run.log", tmp_path / "report.txt"
    assert cli.main(["simulate", "--config", str(config), "--out", str(log)]) == 0
    store = PacketStore()
    store.ingest_file(log)
    server, thread = start_server(store, "tok")
    host, port = server.server_address
    try:
        rc = cli.main(["run-experiment", "--config", str(config), "--server", f"{host}:{port}",
                       "--token", "tok", "--auto-operator", "sim", "--report", str(report),
                       "--timestamps", str(tmp_path / "ts.txt")])
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert rc == 0
    # after simulate's line and the two "written to" lines
    summary = capsys.readouterr().out.splitlines()[3:]

    args = cli.build_parser().parse_args(["simulate"])
    specs, horizon = cli._fleet(cli.Settings(args, cli.load_config(config)), args.sf)
    sim = simulator.run(specs, horizon, seed=seed)
    header = report.read_text().split("\n", 1)[0].split()
    start, end = float(header[4]), float(header[6])
    in_window = (sim.end >= start) & (sim.end <= end)
    return summary, (int(sim.delivered[in_window].sum()), int(in_window.sum()))


def counts_of(line):
    """The ``(delivered, sent)`` that a summary line gives as ``(d/s)``."""
    delivered, sent = line.split("(", 1)[1].split(")", 1)[0].split("/")
    return int(delivered), int(sent)


@pytest.mark.parametrize("seed", [4601, 4602, 4603])
def test_silent_device_bound_brackets_the_ground_truth(tmp_path, capsys, seed):
    """With devices that never deliver, the truth lies between the lower
    bound and the network PDR, within one attempt per silent device."""
    summary, (delivered, sent) = zero_spread_run(tmp_path, capsys, seed)
    network, warning, bound = summary
    silent = int(warning.split()[1])
    assert warning == f"warning: {silent} of 41 switched-on devices never delivered"
    assert silent > 0
    assert bound.startswith("pdr lower bound ")
    assert bound.endswith(", counting 100 attempts for each device")
    assert network.startswith("network pdr ")
    (main_delivered, main_sent), (bound_delivered, bound_sent) = counts_of(network), counts_of(bound)
    assert main_delivered == bound_delivered == delivered
    assert bound_sent == 41 * 100
    assert main_sent <= sent <= bound_sent + silent
    ok("silent-device bound", f"seed {seed}: {delivered}/{bound_sent} <= {delivered}/{sent} "
                              f"<= {delivered}/{main_sent}, {silent} silent")


def test_c5_counter_gap_arithmetic():
    """The three reference counter sequences resolve exactly."""
    def recs(fcnts):
        return columns(PacketRecord("00000000000000aa", f, float(i))
                       for i, f in enumerate(fcnts))

    assert compute_counts(recs([0, 1, 2, 3])) == (4, 4)
    assert compute_counts(recs([5, 6, 9, 10])) == (4, 6)
    assert compute_counts(recs([10, 11, 0, 1])) == (4, 4)
    ok("5 counter-gap-arithmetic", "[0-3]->(4,4), [5,6,9,10]->(4,6), reset->(4,4)")


PRIORITY_RANK = {"high": 0, "middle": 1, "low": 2}
ACC_EUIS = {f"d{i}": f"{0xdd00 + i:016x}" for i in range(8)}


class _WakeClient:
    def __init__(self, wake):
        self.wake = wake

    def query(self, dev_eui, lo, hi):
        return columns(PacketRecord(dev_eui, 0, ts)
                       for ts in self.wake.get(dev_eui, []) if lo <= ts <= hi)


@given(
    n=st.integers(2, 8),
    responded_bits=st.lists(st.booleans(), min_size=8, max_size=8),
    wake_rules=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7), st.floats(0.1, 0.9)),
        max_size=5,
    ),
)
@settings(max_examples=150, deadline=None)
def test_c6_turn_off_ordering_property(n, responded_bits, wake_rules):
    """Shutdown log: roster permutation, high < middle < low, middles are late responders."""
    ids = [f"d{i}" for i in range(n)]
    matrix = DeviceMatrix([RosterEntry(d, ACC_EUIS[d]) for d in ids])
    responded = {d for d, bit in zip(ids, responded_bits) if bit}
    reports = {
        d: DeviceReport(d, 3 if d in responded else 0, 3 if d in responded else 0)
        for d in ids
    }
    recheck = 10.0
    wake = {}
    for i, k, frac in wake_rules:
        if i < n and ids[i] not in responded:
            wake.setdefault(ACC_EUIS[ids[i]], []).append((k + frac) * recheck)

    log, late, _ = turn_off_sequence(matrix, reports, SimulatedOperator(),
                                     Batched(_WakeClient(wake)), VirtualClock(0.0), recheck)

    assert sorted(r.device_id for r in log) == sorted(ids)
    ranks = [PRIORITY_RANK[r.priority] for r in log]
    assert ranks == sorted(ranks)
    position = {r.device_id: i for i, r in enumerate(log)}
    for r in log:
        if r.priority == "middle":
            assert position[late[r.device_id]] < position[r.device_id]


def test_c6_summary_line():
    ok("6 turn-off-ordering", "150 randomized patterns: permutation, "
       "tier order and middle-tier late responders hold")


def test_c7_sf_mix_qualitative_reproduction():
    """Interior optimum of the lower bound; simulated mixes inside the band."""
    t7_real = 0.04122
    t8_real = sf8_airtime_for(t7_real)
    curve = bounds_curve(8835, 600.0, t7_real, t8_real, step=5)
    lowers = [lower for _, lower, _ in curve]
    best = max(range(len(lowers)), key=lowers.__getitem__)
    assert 0 < best < len(lowers) - 1
    assert lowers[best] > lowers[0]  # moving devices to SF8 helps
    assert lowers[best] > lowers[-1]

    # the five published mixes, run at experiment scale with matched loads
    ratio = 8835 / 36
    scale = (7.0 / 600.0) * ratio
    t7_exp, t8_exp = t7_real * scale, t8_real * scale
    pairs = [
        ((36, 0), (8835, 0)),
        ((31, 5), (7608, 1227)),
        ((22, 7), (5399, 1718)),
        ((14, 14), (3436, 3436)),
        ((7, 22), (1718, 5399)),
    ]
    for k, ((e7, e8), (r7, r8)) in enumerate(pairs):
        groups = [g for g in (SfGroup(7, e7, t7_exp), SfGroup(8, e8, t8_exp)) if g.count]
        est = estimate_pdr(groups, 7.0, rounds=3000, seed=7000 + k)
        lower, upper = network_bounds([SfGroup(7, r7, t7_real), SfGroup(8, r8, t8_real)], 600.0)
        assert lower - 3 * est.stderr <= est.pdr <= upper + 3 * est.stderr, (
            f"mix {e7}/{e8}: pdr={est.pdr:.4f} outside [{lower:.4f}, {upper:.4f}]"
        )
    ok("7 sf-mix-reproduction",
       f"interior optimum at {curve[best][0]} moved devices; 5/5 mixes in band")


def test_c8_table_consistency():
    """Experiment/real device mixes map across the published ratio."""
    ratio = 8835 / 36
    assert scale_mix(36, 0, ratio) == (8835, 0)
    assert scale_mix(31, 5, ratio) == (7608, 1227)
    back7, back8 = scale_mix(7608, 1227, 1 / ratio)
    assert abs(back7 - 31) <= 1 and abs(back8 - 5) <= 1
    assert scale_mix(8835, 0, 1 / ratio) == (36, 0)
    ok("8 table-consistency", "(36,0)<->(8835,0), (31,5)<->(7608,1227)")


def test_c9_protocol_conformance():
    """Auth gating, windowing vs a linear-scan oracle, message round-trips."""
    store = PacketStore()
    rnd = random.Random(424242)
    euis = [f"{i:016x}" for i in range(8)]
    records = [
        PacketRecord(rnd.choice(euis), rnd.randrange(400),
                     round(rnd.uniform(0.0, 100.0), 6))
        for _ in range(1000)
    ]
    ingest_records(store, records)
    stored, seen = [], set()
    for rec in records:
        key = (rec.dev_eui, rec.fcnt, rec.received_ts)
        if key not in seen:
            seen.add(key)
            stored.append(rec)

    server, thread = start_server(store, "acceptance-token")
    try:
        # auth must precede queries
        import socket
        sock = socket.create_connection(server.server_address, timeout=5)
        rfile = sock.makefile("rb")
        sock.sendall((json.dumps(
            {"type": "query", "dev_euis": [euis[0]], "from": 0, "to": 1}) + "\n").encode())
        reply = json.loads(rfile.readline())
        assert reply["type"] == "error"
        assert rfile.readline() == b""
        sock.close()

        with pytest.raises(netserver.AuthError):
            NetClient(server.server_address, "wrong-token")

        # windowing against the linear-scan oracle, one EUI and a whole
        # batch (with an unknown EUI) per window
        def oracle(eui, a, b):
            return sorted((r for r in stored if r.dev_eui == eui and a <= r.received_ts <= b),
                          key=lambda r: (r.received_ts, r.fcnt))

        batch = [*euis, "00000000000000ff"]
        with NetClient(server.server_address, "acceptance-token") as client:
            for _ in range(60):
                eui = rnd.choice(euis)
                a, b = sorted((rnd.uniform(0, 100), rnd.uniform(0, 100)))
                assert [records_of(eui, got) for got in client.query([eui], a, b)] == [
                    oracle(eui, a, b)]
                assert [records_of(e, got) for e, got in zip(batch, client.query(batch, a, b))
                        ] == [oracle(e, a, b) for e in batch]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    # serialize -> parse identity on randomized messages
    for _ in range(300):
        kind = rnd.choice(["auth", "auth_ok", "auth_fail", "query", "packets", "error"])
        if kind == "auth":
            msg = {"type": "auth", "token": str(rnd.random())}
        elif kind == "auth_ok":
            msg = {"type": "auth_ok"}
        elif kind == "auth_fail":
            msg = {"type": "auth_fail", "reason": "r" * rnd.randrange(20)}
        elif kind == "query":
            msg = {"type": "query", "dev_euis": rnd.sample(euis, rnd.randrange(1, 9)),
                   "from": rnd.uniform(-1e9, 1e9), "to": rnd.uniform(-1e9, 1e9)}
        elif kind == "packets":
            # each device's records in the order the store keeps them
            devices = [(eui, sorted([PacketRecord(eui, rnd.randrange(1000), rnd.uniform(0, 1e6))
                                     for _ in range(rnd.randrange(5))],
                                    key=lambda r: (r.received_ts, r.fcnt)))
                       for eui in rnd.sample(euis, rnd.randrange(1, 9))]
            msg = packets_message(devices)
            assert served_line(devices) == (json.dumps(msg) + "\n").encode()
        else:
            msg = {"type": "error", "reason": "x" * rnd.randrange(30)}
        assert json.loads(json.dumps(msg)) == msg
    ok("9 protocol-conformance",
       "auth gate enforced; 60 windows match oracle over 1000 records, "
       "as one-EUI and 9-EUI batches; "
       "300 message round-trips")
