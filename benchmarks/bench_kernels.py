#!/usr/bin/env python3
"""Benchmark the NumPy collision kernels, the simulators built on them and
the packet server's layers.

Generates event sets at a realistic channel load and times both marking
kernels (best-of CPU time; 65,536 events is the Monte-Carlo estimator's
chunk size), each on its fast path and its slow one: ``mark_any_overlap``
on one airtime and on two mixed airtimes, whose decreasing ends take the
running maximum, and ``mark_window`` at factor 1.0 and at 0.5, which
sends some events through the search fallback.  Then full simulator
runs for context (41 devices, and the 10,000 devices of the fleet10k log
below, on its one airtime and on three mixed ones, in best-of CPU time and
tracemalloc peak), the paper's 100,000-round Monte-Carlo
estimate under any-overlap and under vulnerability windows of factor 1.0
and 0.5 (CPU time and tracemalloc peak), and a live SimWorld
series (41 devices, growing numbers of 7 s advances, each series ended
by one ``attempt_counts`` call, which generates and resolves every
attempt the advances passed over: the advances themselves only move
the clock).  Its time per advance stays flat because one resolution is
linear in the attempts it finalizes.

The log and server rows use the fleet10k log: 10,000 devices, period
600 s with a 6% spread, airtime 0.04122 s, switched on 1 s apart, about
144k delivered records.  They time ``write_packet_log`` of the run that
makes the log and ``PacketStore.ingest_file`` of it (best-of CPU time,
also per record and per line), once as written and once with one
malformed line opening each 4,096 lines, a fixed spacing that is the
store's parse block when written, so that every block of the parse has
a line to skip.  They give the bytes the
loaded store holds per record (tracemalloc), time ``PacketStore.window``
(the column slices the server's replies are formatted from) on the
loaded 10k-EUI store, and time batch ``NetClient.query`` round trips
over local TCP to a server thread in the same process (CPU of both
ends) in the pipeline's three kinds of poll, each as best-of CPU time
per round trip and per device, every sample timing as many polls as
take at least 0.2 s, with the bytes of the server's reply line per
round trip.

    python benchmarks/bench_kernels.py [--sizes 10000 65536 100000 500000]
                                       [--advances 100 200 400 800]
"""

import argparse
import random
import tempfile
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np

from lorascale import kernels, netserver
from lorascale.cli import device_period
from lorascale.simulator import (AnyOverlap, DeviceSpec, SfGroup, VulnerabilityWindow,
                                 estimate_pdr, run, write_packet_log)
from lorascale.world import SimWorld


def make_events(n_events: int, load: float = 0.687, seed: int = 0,
                airtimes: tuple[float, ...] = (0.11729,)):
    """Sorted start/end arrays resembling a busy single-SF channel, each
    event drawing one of ``airtimes``."""
    rng = np.random.default_rng(seed)
    # event density fixed by the load: n_events over the matching horizon
    horizon = n_events * float(np.mean(airtimes)) / load
    starts = np.sort(rng.uniform(0.0, horizon, n_events))
    return starts, starts + rng.choice(airtimes, n_events)


def best_of(fn, repeats: int = 5, clock=time.perf_counter) -> float:
    times = []
    for _ in range(repeats):
        t0 = clock()
        fn()
        times.append(clock() - t0)
    return min(times)


def traced_peak(fn) -> int:
    """Peak bytes allocated while ``fn`` runs, as tracemalloc sees it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_size(fn) -> int:
    """Bytes that ``fn`` allocated and still holds when it returns."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def per_call(fn, repeats: int, min_s: float = 0.2) -> float:
    """Best-of-``repeats`` CPU time of one ``fn()`` call, each sample timing
    as many calls as take at least ``min_s`` (found by doubling)."""
    calls = 1
    while best_of(lambda: [fn() for _ in range(calls)], 1, time.process_time) < min_s:
        calls *= 2
    return best_of(lambda: [fn() for _ in range(calls)], repeats, time.process_time) / calls


def fleet10k(n: int = 10_000) -> tuple[list[DeviceSpec], float]:
    """The fleet10k devices, all with random phases, and their horizon."""
    period, spread, airtime, step = 600.0, 0.06, 0.04122, 1.0
    horizon = n * step + 1_800.0 + 40 * period
    fleet = [DeviceSpec(f"dev{k:05d}", f"{0x1000_0000 + 7919 * k:016x}", 7,
                        device_period(period, k, n, spread), airtime,
                        active_from=k * step, active_until=horizon)
             for k in range(n)]
    return fleet, horizon


def server_rows(repeats: int) -> None:
    fleet, horizon = fleet10k()
    euis = [d.dev_eui for d in fleet]
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "packets.log"
        result = run(fleet, horizon, seed=1)
        records = write_packet_log(result, log)
        t = best_of(lambda: write_packet_log(result, log), repeats, clock=time.process_time)
        del result
        print(f"write_packet_log: fleet10k run, {records:,} records: {t * 1e3:7.1f} ms CPU"
              f" ({t / records * 1e6:4.2f} us per record)")
        with log.open() as fh:
            lines = fh.readlines()
        # the same records with one malformed line opening each 4,096 lines;
        # fixed here, so that the input stays the same when the store's parse
        # block changes
        block = 4_096
        bad = []
        for start in range(0, len(lines), block - 1):
            bad += ["this is not a log line\n", *lines[start:start + block - 1]]
        bad_log = Path(tmp) / "packets-bad.log"
        bad_log.write_text("".join(bad))
        logs = (("", log, len(lines)),
                (f", one malformed line per {block:,} lines", bad_log, len(bad)))
        del lines, bad
        store = netserver.PacketStore()

        def ingest(path=log):
            nonlocal store
            store = netserver.PacketStore()
            store.ingest_file(path)

        for name, path, n in logs:
            t = best_of(lambda: ingest(path), repeats=3, clock=time.process_time)
            print(f"PacketStore.ingest_file{name}: {n:,} lines: {t * 1e3:7.1f} ms CPU"
                  f" ({t / n * 1e6:4.2f} us per line)")
        held = traced_size(ingest)
        print(f"PacketStore: {len(store):,} records held in {held / 2**20:5.1f} MB"
              f" ({held / len(store):5.1f} bytes per record, tracemalloc)")

    # the fleet pipeline's polls at a tenth of their count: one collect batch
    # of 1,000 known EUIs (24,000 s), one probe batch of 1,000 known EUIs
    # (1,800 s), and 1,000 recheck batches (1,800 s) of the 5 devices that
    # never transmitted
    rnd = random.Random(1)
    lo = rnd.uniform(0.0, 11_800.0)
    collect = (rnd.sample(euis, 1_000), lo, lo + 24_000.0)
    lo = rnd.uniform(0.0, 11_800.0)
    probe = (rnd.sample(euis, 1_000), lo, lo + 1_800.0)
    dead = [f"{k:016x}" for k in range(5)]
    rechecks = [(dead, lo, lo + 1_800.0)
                for lo in (rnd.uniform(0.0, 11_800.0) for _ in range(1_000))]

    def windows():
        for batch, lo, hi in (collect, probe):
            for eui in batch:
                store.window(eui, lo, hi)

    t = best_of(windows, repeats, clock=time.process_time)
    print(f"PacketStore.window: 10k-EUI store, the collect and probe batches' 2,000"
          f" windows of a known EUI: {t / 2_000 * 1e6:5.2f} us CPU per call")

    server, thread = netserver.start_server(store, "bench")
    try:
        with netserver.NetClient(server.server_address, "bench") as client:
            for name, polls in (("collect", [collect]), ("probe", [probe]),
                                ("recheck", rechecks)):
                def round_trips():
                    for batch, lo, hi in polls:
                        client.query(batch, lo, hi)

                t = per_call(round_trips, repeats)
                devices = sum(len(batch) for batch, _, _ in polls)
                reply = sum(len(netserver._answer(store, {"dev_euis": b, "from": lo, "to": hi}))
                            for b, lo, hi in polls)
                batches = f"{len(polls):,} batch" + ("es" if len(polls) > 1 else "")
                print(f"NetClient.query {name}: {batches} of {len(polls[0][0]):,} EUIs"
                      f" over local TCP, both ends in one process:"
                      f" {t / len(polls) * 1e6:8.1f} us CPU per round trip,"
                      f" {t / devices * 1e6:5.2f} us per device,"
                      f" {reply / len(polls):,.0f} reply bytes per round trip")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[10_000, 65_536, 100_000, 500_000])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--advances", type=int, nargs="+", default=[100, 200, 400, 800])
    args = parser.parse_args()

    header = f"{'kernel (CPU)':<24}{'events':>10}{'time':>12}"
    print(header)
    print("-" * len(header))

    for n in args.sizes:
        starts, ends = make_events(n)
        mixed = make_events(n, airtimes=(0.04122, 0.11729))
        for name, call in (
            ("any-overlap", lambda: kernels.mark_any_overlap(starts, ends)),
            ("any-overlap, 2 airtimes", lambda: kernels.mark_any_overlap(*mixed)),
            ("window(1.0)", lambda: kernels.mark_window(starts, ends, 1.0)),
            ("window(0.5)", lambda: kernels.mark_window(starts, ends, 0.5)),
        ):
            t = best_of(call, args.repeats, clock=time.process_time)
            print(f"{name:<24}{n:>10}{t * 1e3:>10.2f}ms")

    # whole-run context: 41 devices for 10,000 periods
    fleet = [DeviceSpec(f"dev{i:03d}", f"{i + 1:016x}", 7, 7.0, 0.11729)
             for i in range(41)]
    print()
    t = best_of(lambda: run(fleet, 70_000.0, seed=1), repeats=3)
    print(f"run(): 41 devices x 10,000 periods: {t * 1e3:7.1f} ms")
    # the fleet10k log's run, where every device draws its random phase, and
    # the same devices on mixed airtimes: a third each on SF7 at 0.04122 s,
    # SF7 at 0.0741 s and SF8 at 0.21 s
    big, horizon = fleet10k()
    mixed = [replace(d, sf=(7, 7, 8)[k % 3], airtime=(0.04122, 0.0741, 0.21)[k % 3])
             for k, d in enumerate(big)]
    for name, devices in (("10,000 devices", big), ("mixed airtimes", mixed)):
        def whole_run():
            run(devices, horizon, seed=1)

        t = best_of(whole_run, args.repeats, clock=time.process_time)
        peak = traced_peak(whole_run)
        print(f"run(): fleet10k, {name}: {t * 1e3:7.1f} ms CPU, {peak / 2**20:6.1f} MB peak")

    # Monte-Carlo estimate: the paper's 41 devices for 100,000 rounds
    print()
    groups = [SfGroup(7, 41, 0.11729)]
    for model in (AnyOverlap(), VulnerabilityWindow(1.0), VulnerabilityWindow(0.5)):
        def estimate():
            estimate_pdr(groups, 7.0, 100_000, model=model, seed=1)

        cpu = best_of(estimate, repeats=3, clock=time.process_time)
        peak = traced_peak(estimate)
        print(f"estimate_pdr: 41 devices x 100,000 rounds, {model!s:<33}"
              f" {cpu * 1e3:7.1f} ms CPU, {peak / 2**20:6.1f} MB peak")

    # live world: all 41 devices on, the clock moved one period at a time,
    # then one call that generates and resolves what the advances passed
    print()
    for n in args.advances:
        def live():
            world = SimWorld(fleet, seed=1)
            for d in fleet:
                world.set_active(d.device_id, True)
            for _ in range(n):
                world.advance(7.0)
            world.attempt_counts()

        t = best_of(live, repeats=3)
        print(f"SimWorld: 41 devices, {n:>5} advances of 7 s, then attempt_counts:"
              f" {t * 1e3:8.1f} ms"
              f" ({t / n * 1e6:6.0f} us per advance)")

    print()
    server_rows(args.repeats)


if __name__ == "__main__":
    main()
