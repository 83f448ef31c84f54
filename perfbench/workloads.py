"""The benchmark's workloads: inputs made from the seed, one unit of work, output checks.

Every workload generates all of its inputs from ``--seed`` in its
constructor; the lorascale code only ever receives those inputs.  A
workload's :meth:`unit` runs one unit of work (one estimate, one whole
pipeline, one live experiment), times it from outside, then checks the
outputs against an independent reference.  A failed check is recorded
on the :class:`Unit`; it never stops the run.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lorascale import cli, controller, netserver, scaling, simulator, world

HERE = Path(__file__).resolve().parent
TOKEN = "perfbench"

# The paper's experiment: 41 devices, SF7, 7 s period, 0.11729 s airtime.
PAPER_DEVICES, PAPER_PERIOD, PAPER_AIRTIME = 41, 7.0, 0.11729

# A per-estimate limit of 3 binomial standard errors fires by chance on
# 0.27% of correct AnyOverlap estimates (measured sd of the z-score over
# 300 seeds: 0.99), i.e. in about every second session of 25 twenty-second
# runs.  4.5 standard errors keeps chance failures below 1 in 10^5
# estimates and still flags a 1.2% relative bias in one estimate.
MC_SIGMAS = 4.5


@dataclass
class Unit:
    """What one unit of work produced, as the benchmark measured it."""

    wall_s: float | None
    failures: list[str] = field(default_factory=list)
    # CPU seconds of every process of the unit, probe samples left out
    cpu_s: float | None = None
    tx: int = 0
    rtt_ns: list[int] = field(default_factory=list)
    # (report delivered, report sent, ground-truth delivered, ground-truth sent)
    pdr: tuple[int, int, int, int] | None = None
    server_hwm_mb: float | None = None
    ready_s: float | None = None
    ingested: int = 0
    skipped: int = 0
    attempts_finalized: int = 0
    # median probe CPU time around and during the unit (see SpeedProbe)
    probe_s: float | None = None


class SpeedProbe:
    """Times a fixed task, in CPU time, to track how fast the host runs now.

    On a shared host the same code needs up to 1.7x more CPU time from one
    ten-second stretch to the next, far more than the spread a benchmark
    bound can absorb.  A unit's CPU time divided by the probe times taken
    around and during it, times :attr:`REFERENCE_S`, is its CPU time at a
    fixed host speed.  Each workload names the probe whose task slows
    down the way its own work does.  Probe code never changes with
    lorascale.
    """

    REFERENCE_S: float

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> float:
        elapsed = self._run()
        self.samples.append(elapsed)
        return elapsed


class InterpreterProbe(SpeedProbe):
    """Set lookups over a list of ids, like the controller's loops, plus a
    small NumPy sort."""

    REFERENCE_S = 0.0025

    def __init__(self) -> None:
        super().__init__()
        self._ids = [f"dev{k:05d}" for k in range(10_000)]
        self._keys = frozenset(self._ids[:5])
        self._data = np.random.default_rng(0).uniform(size=50_000)

    def _run(self) -> float:
        t0 = time.process_time()
        for _ in range(4):
            for key in self._ids:
                if key in self._keys:
                    continue
        np.sort(self._data)
        return time.process_time() - t0


class MemoryProbe(SpeedProbe):
    """Two streaming passes over 32 MB arrays, the size of the Monte-Carlo
    estimator's per-round arrays.  The arrays are made and touched
    untimed for each sample, between units, so they do not raise the
    workload's peak RSS."""

    REFERENCE_S = 0.011

    def _run(self) -> float:
        src = np.full(4_000_000, 1.5)
        dst = np.empty_like(src)
        dst.fill(0.0)
        t0 = time.process_time()
        np.multiply(src, 1.0001, out=dst)
        np.add(dst, src, out=dst)
        return time.process_time() - t0


def unit_seed(seed: int, index: int) -> int:
    """Seed of unit ``index`` of a run; unit 0 is the warm-up."""
    return seed * 100_000 + index


def unique_euis(rng: np.random.Generator, n: int) -> list[str]:
    values = rng.integers(1, 2**63, size=n, dtype=np.int64)
    while np.unique(values).size < n:
        values = rng.integers(1, 2**63, size=n, dtype=np.int64)
    return [f"{v:016x}" for v in values.tolist()]


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail(values) -> tuple[float, float]:
    """(percentile, value): the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - q) / 100.0 >= 10:
            return q, percentile(values, q)
    return 50.0, percentile(values, 50.0)


def pooled_pdr_error(units: list[Unit]) -> float:
    """|report PDR - ground-truth PDR|, each pooled over every device and unit."""
    rep_del, rep_sent, true_del, true_sent = (sum(col) for col in zip(*(u.pdr for u in units)))
    return abs(rep_del / rep_sent - true_del / true_sent)


def check_counts(failures: list[str], reports, truth: dict[str, int]) -> None:
    for device_id, report in reports.items():
        expected = truth.get(device_id, 0)
        if report.delivered != expected:
            failures.append(f"{device_id}: reported delivered {report.delivered}, "
                            f"ground truth {expected}")


def check_failures_cover(failures: list[str], silent, turn_on_failures) -> None:
    missing = sorted(set(silent) - set(turn_on_failures))
    if missing:
        failures.append(f"silent devices not flagged as turn-on failures: {missing}")


# --- mc-paper41 ----------------------------------------------------------------

class MonteCarlo:
    """Series of 100k-round ``estimate_pdr`` calls on the paper's experiment,
    alternating AnyOverlap and VulnerabilityWindow(1.0)."""

    name = "mc-paper41"
    # memory-bound: normalizing by the interpreter probe widened the spread of
    # 8-unit medians from 10% to 16%, by the memory probe it cut it to 6%
    probe = MemoryProbe

    def __init__(self, seed: int, toy: bool, outdir: Path, inject: bool, probe: SpeedProbe):
        self.seed = seed
        self.rounds = 2_000 if toy else 100_000
        self.inject = inject
        self.groups = [simulator.SfGroup(7, PAPER_DEVICES, PAPER_AIRTIME)]
        profile = scaling.TrafficProfile(PAPER_DEVICES, PAPER_PERIOD, PAPER_AIRTIME)
        self.models = [
            (simulator.AnyOverlap(), scaling.success_exact_periodic(profile, 2.0)),
            (simulator.VulnerabilityWindow(1.0), scaling.success_exact_periodic(profile, 1.0)),
        ]

    def unit(self, index: int, traced: bool = False) -> Unit:
        # pairs of units alternate, so traced (even) and untraced (odd) units
        # each see both models
        model, exact = self.models[index // 2 % 2]
        t0, c0 = time.perf_counter(), time.process_time()
        est = simulator.estimate_pdr(self.groups, PAPER_PERIOD, self.rounds, model=model,
                                     seed=unit_seed(self.seed, index))
        unit = Unit(time.perf_counter() - t0, cpu_s=time.process_time() - c0, tx=est.sent)
        if self.inject:
            exact += 0.5
        if abs(est.pdr - exact) > MC_SIGMAS * est.stderr:
            unit.failures.append(f"{type(model).__name__} estimate {est.pdr:.6f} is more than "
                                 f"{MC_SIGMAS} stderr ({est.stderr:.6f}) from {exact:.6f}")
        return unit

    warm_up = unit

    @staticmethod
    def report(units: list[Unit]) -> dict:
        wall = sum(u.wall_s for u in units)
        return {"mc_tx_per_s": (sum(u.tx for u in units) / wall, "tx/s", len(units))}


# --- fleet10k-pipeline -----------------------------------------------------------

FLEET_PERIOD, FLEET_AIRTIME, FLEET_SPREAD = 600.0, 0.04122, 0.06
FLEET_STEP, FLEET_WINDOW, FLEET_PERIODS = 1.0, 1800.0, 40
_INGESTED = re.compile(r"ingested (\d+) records from .* \((\d+) malformed lines skipped\)")


@dataclass
class FleetInputs:
    matrix: controller.DeviceMatrix
    specs: list[simulator.DeviceSpec]
    dead: list[str]
    horizon: float
    settings: controller.ExperimentSettings


def fleet_inputs(rng: np.random.Generator, n: int, n_dead: int, directory: Path) -> FleetInputs:
    """Roster and mapping files for ``n`` devices, ``n_dead`` of which never transmit."""
    ids = [f"dev{k:05d}" for k in range(n)]
    euis = unique_euis(rng, n)
    dead = set(rng.choice(n, size=n_dead, replace=False).tolist())
    roster, mapping = directory / "roster.csv", directory / "mapping.csv"
    roster.write_text("".join(f"{i}\n" for i in ids), encoding="utf-8")
    mapping.write_text("".join(f"{i},{e}\n" for i, e in zip(ids, euis)), encoding="utf-8")
    matrix = controller.load_roster(roster, mapping)
    settings = controller.ExperimentSettings(
        name="fleet10k", duration=FLEET_PERIODS * FLEET_PERIOD, probe_window=FLEET_WINDOW,
        recheck_window=FLEET_WINDOW, turnon_step=FLEET_STEP,
    )
    horizon = n * FLEET_STEP + FLEET_WINDOW + settings.duration
    specs = [
        simulator.DeviceSpec(
            device_id=ids[k], dev_eui=euis[k], sf=7,
            period=cli.device_period(FLEET_PERIOD, k, n, FLEET_SPREAD),
            airtime=FLEET_AIRTIME, active_from=k * FLEET_STEP, active_until=horizon,
        )
        for k in range(n) if k not in dead
    ]
    return FleetInputs(matrix, specs, [ids[k] for k in sorted(dead)], horizon, settings)


def window_truth(result: simulator.SimResult, lo: float, hi: float
                 ) -> tuple[dict[str, int], int, int]:
    """Per-device delivered counts, and pooled (delivered, sent), over the
    closed window [lo, hi] on the packet log's 6-decimal receive times."""
    end = result.end
    idx = np.flatnonzero((end > lo - 1e-3) & (end < hi + 1e-3))
    ts = end[idx].copy()
    edge = (np.abs(ts - lo) < 1e-3) | (np.abs(ts - hi) < 1e-3)
    ts[edge] = [float(f"{x:.6f}") for x in ts[edge]]
    inside = idx[(ts >= lo) & (ts <= hi)]
    good = inside[result.delivered[inside]]
    got = np.bincount(result.dev[good], minlength=len(result.devices))
    per_device = {d.device_id: int(got[k]) for k, d in enumerate(result.devices)}
    return per_device, int(good.size), int(inside.size)


class TimedClient:
    """Passes queries to a NetClient and records each round trip as the
    controller sees it.  Every PROBE_EVERY queries it also samples the
    speed probe, if given, and adds up the wall and CPU time the probe
    took."""

    PROBE_EVERY = 1000

    def __init__(self, inner: netserver.NetClient, probe: SpeedProbe | None):
        self._inner = inner
        self._probe = probe
        self.rtt_ns: list[int] = []
        self.failed = 0
        self.probe_wall_s = self.probe_cpu_s = 0.0

    def query(self, dev_eui: str, from_ts: float, to_ts: float):
        if self._probe and len(self.rtt_ns) % self.PROBE_EVERY == self.PROBE_EVERY - 1:
            t0, c0 = time.perf_counter(), time.process_time()
            self._probe.sample()
            self.probe_wall_s += time.perf_counter() - t0
            self.probe_cpu_s += time.process_time() - c0
        t0 = time.perf_counter_ns()
        try:
            return self._inner.query(dev_eui, from_ts, to_ts)
        except (netserver.ProtocolError, OSError):
            self.failed += 1
            raise
        finally:
            self.rtt_ns.append(time.perf_counter_ns() - t0)


class ServerProcess:
    """``lorascale serve`` as a child process, replaying one packet log."""

    def __init__(self, log: Path, spans_file: Path | None):
        serve_args = ["--bind", "127.0.0.1:0", "--token", TOKEN, "--log", str(log)]
        if spans_file is None:
            cmd = [sys.executable, "-u", "-m", "lorascale.cli", "serve", *serve_args]
        else:
            cmd = [sys.executable, "-u", str(HERE / "serve_traced.py"), str(spans_file), "--",
                   *serve_args]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            self.ingested, self.skipped, self.address = self._await_ready()
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - t0

    def _await_ready(self):
        ingested = skipped = None
        for line in self.proc.stdout:
            match = _INGESTED.match(line)
            if match:
                ingested, skipped = int(match.group(1)), int(match.group(2))
            elif line.startswith("serving on ") and ingested is not None:
                host, _, port = line.split()[-1].rpartition(":")
                return ingested, skipped, (host, int(port))
        raise RuntimeError(f"server exited with code {self.proc.wait()} before serving")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def cpu_s(self) -> float:
        """User plus system CPU time the server has used so far."""
        with open(f"/proc/{self.proc.pid}/stat", "r", encoding="ascii") as fh:
            fields = fh.read().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class FleetPipeline:
    """The 10,000-device deployment run once through simulate -> log ->
    server process -> orchestration -> report."""

    name = "fleet10k-pipeline"
    probe = InterpreterProbe

    def __init__(self, seed: int, toy: bool, outdir: Path, inject: bool, probe: SpeedProbe):
        self.seed = seed
        self.outdir = outdir
        self.inject = inject
        self.probe = probe
        rng = np.random.default_rng([seed, 1])
        n, n_dead = (60, 2) if toy else (10_000, 5)
        self.inputs = fleet_inputs(rng, n, n_dead, self._dir("inputs"))
        # the warm-up runs every stage, server start included, at 2% size
        self.warm_inputs = fleet_inputs(rng, max(20, n // 50), n_dead, self._dir("warm-up"))

    def _dir(self, name: str) -> Path:
        path = self.outdir / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    def warm_up(self, index: int) -> Unit:
        return self._pipeline(self.warm_inputs, index, None)

    def unit(self, index: int, traced: bool = False) -> Unit:
        spans_file = self.outdir / f"server-spans-{index}.jsonl" if traced else None
        return self._pipeline(self.inputs, index, spans_file)

    def _pipeline(self, inputs: FleetInputs, index: int, spans_file: Path | None) -> Unit:
        work = self._dir("pipeline")
        log, report, stamps = work / "packets.log", work / "report.txt", work / "timestamps.txt"
        t0, c0 = time.perf_counter(), time.process_time()
        result = simulator.run(inputs.specs, inputs.horizon, model=simulator.AnyOverlap(),
                               seed=unit_seed(self.seed, index))
        simulator.write_packet_log(result, log)
        server = ServerProcess(log, spans_file)
        try:
            with netserver.NetClient(server.address, TOKEN) as net:
                # no probe inside traced units: its time would land in the spans
                client = TimedClient(net, self.probe if spans_file is None else None)
                exp = controller.run_experiment(inputs.matrix, controller.SimulatedOperator(),
                                                client, controller.VirtualClock(0.0),
                                                inputs.settings)
            controller.write_output(exp, report, stamps)
            wall = time.perf_counter() - t0 - client.probe_wall_s
            cpu = time.process_time() - c0 - client.probe_cpu_s + server.cpu_s()
            hwm = server.peak_rss_mb()
        finally:
            server.stop()

        truth, true_del, true_sent = window_truth(result, exp.start_ts, exp.end_ts)
        if self.inject:
            truth[inputs.specs[0].device_id] += 1
        unit = Unit(wall, cpu_s=cpu, rtt_ns=client.rtt_ns, server_hwm_mb=hwm,
                    ready_s=server.ready_s, ingested=server.ingested, skipped=server.skipped)
        unit.pdr = (sum(r.delivered for r in exp.reports.values()),
                    sum(r.sent for r in exp.reports.values()), true_del, true_sent)
        delivered_events = int(np.count_nonzero(result.delivered))
        if server.ingested != delivered_events or server.skipped != 0:
            unit.failures.append(f"server ingested {server.ingested} and skipped {server.skipped}"
                                 f" of {delivered_events} delivered events")
        if client.failed:
            unit.failures.append(f"{client.failed} queries failed")
        check_counts(unit.failures, exp.reports, truth)
        check_failures_cover(unit.failures, inputs.dead, exp.turn_on_failures)
        return unit

    @staticmethod
    def report(units: list[Unit]) -> dict:
        rtt_us = [ns / 1e3 for u in units for ns in u.rtt_ns]
        return {
            "pipeline_s": (percentile([u.wall_s for u in units], 50), "s", len(units)),
            "query_p50_us": (percentile(rtt_us, 50), "us", len(rtt_us)),
            "query_p99_us": (percentile(rtt_us, 99), "us", len(rtt_us)),
            "pdr_abs_err": (pooled_pdr_error(units), "1", len(units)),
            "server_peak_rss_mb": (max(u.server_hwm_mb for u in units), "MB", len(units)),
        }


# --- world-paper41 ---------------------------------------------------------------

WORLD_SPREAD, WORLD_WINDOW, WORLD_STEP = 0.06, 21.0, 1.0
# Roster ids the operator never switches on, so the silence probe and the
# turn-off rechecks have silent devices to find.
DECLINED = ("dev11", "dev31")


class DecliningOperator(controller.SimulatedOperator):
    """A SimulatedOperator that declines to switch on a fixed set of devices."""

    def __init__(self, sim_world: world.SimWorld, declined):
        super().__init__(sim_world)
        self._declined = frozenset(declined)

    def prompt(self, action) -> bool:
        if isinstance(action, controller.TurnOn) and action.device_id in self._declined:
            self.transcript.append((action, False))
            return False
        return super().prompt(action)


class LiveWorld:
    """The paper's 41-device experiment run live against SimWorld, one
    fresh experiment per consecutive seed."""

    name = "world-paper41"
    probe = InterpreterProbe

    def __init__(self, seed: int, toy: bool, outdir: Path, inject: bool, probe: SpeedProbe):
        self.seed = seed
        self.inject = inject
        self.report_path, self.stamps_path = outdir / "report.txt", outdir / "timestamps.txt"
        rng = np.random.default_rng([seed, 2])
        ids = [f"dev{k + 1:02d}" for k in range(PAPER_DEVICES)]
        euis = unique_euis(rng, PAPER_DEVICES)
        self.specs = [
            simulator.DeviceSpec(ids[k], euis[k], 7,
                                 cli.device_period(PAPER_PERIOD, k, PAPER_DEVICES, WORLD_SPREAD),
                                 PAPER_AIRTIME)
            for k in range(PAPER_DEVICES)
        ]
        self.matrix = controller.DeviceMatrix(
            controller.RosterEntry(i, e) for i, e in zip(ids, euis))
        self.settings = controller.ExperimentSettings(
            name="paper41", duration=(10 if toy else 100) * PAPER_PERIOD,
            probe_window=WORLD_WINDOW, recheck_window=WORLD_WINDOW, turnon_step=WORLD_STEP,
        )

    def unit(self, index: int, traced: bool = False) -> Unit:
        sim = world.SimWorld(self.specs, simulator.AnyOverlap(), seed=unit_seed(self.seed, index))
        operator = DecliningOperator(sim, DECLINED)
        t0, c0 = time.perf_counter(), time.process_time()
        exp = controller.run_experiment(self.matrix, operator, sim, controller.WorldClock(sim),
                                        self.settings)
        controller.write_output(exp, self.report_path, self.stamps_path)
        truth = sim.ground_truth(exp.start_ts, exp.end_ts)
        unit = Unit(time.perf_counter() - t0, cpu_s=time.process_time() - c0)
        unit.attempts_finalized = sum(sim.attempt_counts().values())
        unit.pdr = (sum(r.delivered for r in exp.reports.values()),
                    sum(r.sent for r in exp.reports.values()),
                    sum(got for got, _ in truth.values()), sum(tried for _, tried in truth.values()))
        delivered = {device_id: got for device_id, (got, _) in truth.items()}
        if self.inject:
            delivered[self.specs[0].device_id] += 1
        check_counts(unit.failures, exp.reports, delivered)
        check_failures_cover(unit.failures, DECLINED, exp.turn_on_failures)
        return unit

    warm_up = unit

    @staticmethod
    def report(units: list[Unit]) -> dict:
        wall_ms = [u.wall_s * 1e3 for u in units]
        q, value = tail(wall_ms)
        return {
            "experiment_p50_ms": (percentile(wall_ms, 50), "ms", len(units)),
            "experiment_tail_ms": (value, "ms", len(units), f"p{q:g}"),
            "pdr_abs_err": (pooled_pdr_error(units), "1", len(units)),
        }


WORKLOADS = {w.name: w for w in (MonteCarlo, FleetPipeline, LiveWorld)}
