"""One measured benchmark process: set up, warm up, run units until time is up.

Started by ``run.py``; prints one JSON object as its last stdout line.

    python3 worker.py --workload NAME --seed N --seconds S --trace 0|1
                      --outdir DIR [--setup-only] [--toy] [--inject-failure]

Set-up time is the CPU time this process and its finished child
processes have used when the warm-up unit ends: interpreter start,
imports, input generation and the warm-up.  With ``--trace 1`` the
units alternate untraced and traced, starting untraced, and the traced
ones feed the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def cpu_ref_ms(unit, probe) -> float:
    """The unit's CPU time at the probe's reference host speed, in ms."""
    return unit.cpu_s * probe.REFERENCE_S / unit.probe_s * 1e3


def cpu_seconds() -> float:
    """CPU time of this process and of its children that have been waited for."""
    own, children = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(
        resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def layer_metrics(spans_, server_spans, traced, plain, probe) -> dict[str, float]:
    """Per-layer metrics, per traced unit, from the spans of the traced units."""
    import spans as sp

    n = len(traced)
    own = sp.self_times(spans_)
    by_id = {s[sp.ID]: s for s in spans_}
    busy, self_s, calls, count = (defaultdict(float) for _ in range(4))
    for s in spans_:
        name = s[sp.NAME]
        busy[name] += (s[sp.END] - s[sp.START]) / 1e9
        self_s[name] += own[s[sp.ID]] / 1e9
        calls[name] += 1
        count[name] += s[sp.COUNT]

    def parent_name(s):
        return by_id[s[sp.PARENT]][sp.NAME] if s[sp.PARENT] is not None else None

    query_names = ("netserver.client_query", "world.query")
    queries = [s for s in spans_ if s[sp.NAME] in query_names]
    client = [s for s in spans_ if s[sp.NAME] == "netserver.client_query"]
    off_polls = [s for s in queries if parent_name(s) == "controller.turn_off"]
    reworked = sum(s[sp.COUNT] for s in spans_
                   if s[sp.NAME].startswith("kernels.") and parent_name(s) == "world.advance")
    attempts = sum(u.attempts_finalized for u in traced)
    kernel_busy = busy["kernels.any_overlap"] + busy["kernels.window"]
    kernel_events = count["kernels.any_overlap"] + count["kernels.window"]
    store = [(s[sp.END] - s[sp.START]) / 1e3 for s in server_spans
             if s[sp.NAME] == "netserver.store_query"]
    server_units = [u for u in traced if u.ready_s is not None]

    def ratio(a, b):
        return a / b if b else 0.0

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    traced_ms = statistics.median(cpu_ref_ms(u, probe) for u in traced)
    plain_ms = statistics.median(cpu_ref_ms(u, probe) for u in plain)
    return {
        "kernels.any_overlap.busy_s": busy["kernels.any_overlap"] / n,
        "kernels.window.busy_s": busy["kernels.window"] / n,
        "kernels.events": kernel_events / n,
        "kernels.events_per_s": ratio(kernel_events, kernel_busy),
        "simulator.estimate_pdr.self_s": self_s["simulator.estimate_pdr"] / n,
        "simulator.run.busy_s": busy["simulator.run"] / n,
        "simulator.run.events": count["simulator.run"] / n,
        "simulator.write_packet_log.busy_s": busy["simulator.write_packet_log"] / n,
        "simulator.write_packet_log.records": count["simulator.write_packet_log"] / n,
        "netserver.ready_s": mean([u.ready_s for u in server_units]),
        "netserver.ingested": mean([u.ingested for u in server_units]),
        "netserver.skipped": mean([u.skipped for u in server_units]),
        "netserver.store_query.busy_s": sum(store) / 1e6 / n,
        "netserver.store_query.p50_us": statistics.median(store) if store else 0.0,
        "netserver.wire.self_s": (busy["netserver.client_query"] - sum(store) / 1e6) / n,
        "netserver.client_query.count": calls["netserver.client_query"] / n,
        "netserver.client_query.empty": sum(
            1 for s in client if s[sp.ERROR] is None and s[sp.COUNT] == 0) / n,
        "netserver.client_query.packets": count["netserver.client_query"] / n,
        "netserver.client_query.failed": sum(1 for s in client if s[sp.ERROR]) / n,
        "world.advance.calls": calls["world.advance"] / n,
        "world.advance.self_s": self_s["world.advance"] / n,
        "world.rework_ratio": ratio(reworked, attempts),
        "world.query.busy_s": busy["world.query"] / n,
        "world.ground_truth.busy_s": busy["world.ground_truth"] / n,
        "controller.turn_on.self_s": self_s["controller.turn_on"] / n,
        "controller.turn_on.queries": sum(
            1 for s in queries if parent_name(s) == "controller.turn_on") / n,
        "controller.collect.self_s": self_s["controller.collect"] / n,
        "controller.turn_off.self_s": self_s["controller.turn_off"] / n,
        "controller.turn_off.queries": len(off_polls) / n,
        "controller.turn_off.useful_ratio": ratio(
            sum(1 for s in off_polls if s[sp.COUNT] > 0), len(off_polls)),
        "controller.turn_on_failures": count["controller.turn_on"] / n,
        "controller.compute_counts.busy_s": busy["controller.compute_counts"] / n,
        "controller.write_output.busy_s": busy["controller.write_output"] / n,
        "trace.overhead_ms": traced_ms - plain_ms,
    }


def self_time_check(spans_, server_spans, traced) -> dict:
    """Totals the self-test compares: self times must be >= 0 and sum to at
    most the traced wall time (per process)."""
    import spans as sp

    own = list(sp.self_times(spans_).values())
    server_own = list(sp.self_times(server_spans).values())
    return {
        "traced_wall_s": sum(u.wall_s for u in traced),
        "driver_self_sum_s": sum(own) / 1e9,
        "driver_self_min_s": min(own, default=0) / 1e9,
        "server_self_sum_s": sum(server_own) / 1e9,
        "server_self_min_s": min(server_own, default=0) / 1e9,
        "spans": len(own) + len(server_own),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--outdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--inject-failure", action="store_true")
    args = parser.parse_args(argv)

    import numpy
    import lorascale
    from lorascale import kernels

    if Path(lorascale.__file__).resolve().parent != SRC / "lorascale":
        raise SystemExit(f"lorascale imported from {lorascale.__file__}, not from {SRC}")

    import spans
    from workloads import WORKLOADS, Unit, unit_seed

    workload_cls = WORKLOADS[args.workload]
    probe = workload_cls.probe()
    workload = workload_cls(args.seed, args.toy, args.outdir, args.inject_failure, probe)
    units = []

    def run_unit(index: int, traced: bool, warm: bool = False):
        first = len(probe.samples)
        probe.sample()
        try:
            unit = workload.warm_up(index) if warm else workload.unit(index, traced)
        except Exception:
            traceback.print_exc()
            unit = Unit(None, [traceback.format_exc(limit=1).strip()])
        probe.sample()
        unit.probe_s = statistics.median(probe.samples[first:])
        units.append((unit, traced, warm))

    run_unit(0, False, warm=True)
    setup_s = cpu_seconds()
    if not args.setup_only:
        tracer = spans.Tracer() if args.trace else None
        n_plain = n_traced = 0
        deadline = time.perf_counter() + args.seconds
        index = 1
        while True:
            traced = tracer is not None and n_traced < n_plain
            if traced:
                tracer.run_id = index
                tracer.install(spans.driver_targets())
            try:
                run_unit(index, traced)
            finally:
                if traced:
                    tracer.uninstall()
            n_traced += traced
            n_plain += not traced
            index += 1
            if time.perf_counter() >= deadline and (tracer is None or n_traced):
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ok = [(u, traced) for u, traced, warm in units if not warm and u.wall_s is not None]
    plain = [u for u, traced in ok if not traced]
    failures = [f for u, _, _ in units for f in u.failures]
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "probe_p50_ms": statistics.median(probe.samples) * 1e3,
        "attempted": len(units),
        "failed": sum(1 for u, _, _ in units if u.failures),
        "failures": failures[:20],
        "unit_seed_range": [unit_seed(args.seed, 0), unit_seed(args.seed, len(units) - 1)],
        "numpy": numpy.__version__,
        "kernels_active": kernels.active_backend(),
        "kernels_available": list(kernels.available_backends()),
    }
    if plain:
        result["unit_cpu_p50_ms"] = statistics.median(cpu_ref_ms(u, probe) for u in plain)
        result["report"] = {k: list(v) for k, v in workload.report(plain).items()}
    if args.trace and not args.setup_only:
        traced_units = [u for u, traced in ok if traced]
        server_spans = []
        for path in sorted(args.outdir.glob("server-spans-*.jsonl")):
            server_spans += spans.load(path)
        tracer.dump(args.outdir / "driver-spans.jsonl")
        if traced_units and plain:
            result["layers"] = layer_metrics(tracer.spans, server_spans, traced_units, plain, probe)
            result["self_time_check"] = self_time_check(tracer.spans, server_spans, traced_units)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
