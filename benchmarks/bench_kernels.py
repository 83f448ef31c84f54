#!/usr/bin/env python3
"""Benchmark the compiled collision kernels against the NumPy fallback.

Generates event sets at a realistic channel load and times both marking
kernels on each built backend (best-of CPU time; 65,536 events is the
Monte-Carlo estimator's chunk size), plus a full simulator run for
context, the paper's 100,000-round Monte-Carlo estimate under both
collision models (CPU time and tracemalloc peak), and a live SimWorld
series (41 devices, growing numbers of 7 s advances) whose time per
advance stays flat when the world resolves incrementally.

    python benchmarks/bench_kernels.py [--sizes 10000 65536 100000 500000]
                                       [--advances 100 200 400 800]
"""

import argparse
import time
import tracemalloc

import numpy as np

from lorascale import kernels
from lorascale.simulator import (AnyOverlap, DeviceSpec, SfGroup, VulnerabilityWindow,
                                 estimate_pdr, run)
from lorascale.world import SimWorld


def make_events(n_events: int, load: float = 0.687, seed: int = 0):
    """Sorted start/end arrays resembling a busy single-SF channel."""
    rng = np.random.default_rng(seed)
    airtime = 0.11729
    # event density fixed by the load: n_events over the matching horizon
    horizon = n_events * airtime / load
    starts = np.sort(rng.uniform(0.0, horizon, n_events))
    return starts, starts + airtime


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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[10_000, 65_536, 100_000, 500_000])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--advances", type=int, nargs="+", default=[100, 200, 400, 800])
    args = parser.parse_args()

    backends = kernels.available_backends()
    print(f"built backends: {', '.join(backends)}")
    if len(backends) < 2:
        print("note: compiled backend missing, timing the fallback only")

    header = f"{'kernel (CPU)':<14}{'events':>10}" + "".join(f"{b:>12}" for b in backends)
    if len(backends) == 2:
        header += f"{'speedup':>10}"
    print(header)
    print("-" * len(header))

    for n in args.sizes:
        starts, ends = make_events(n)
        for name, call in (
            ("any-overlap", lambda: kernels.mark_any_overlap(starts, ends)),
            ("window(1.0)", lambda: kernels.mark_window(starts, ends, 1.0)),
        ):
            times = {}
            for backend in backends:
                kernels.use_backend(backend)
                times[backend] = best_of(call, args.repeats, clock=time.process_time)
            row = f"{name:<14}{n:>10}" + "".join(
                f"{times[b] * 1e3:>10.2f}ms" for b in backends
            )
            if len(backends) == 2:
                row += f"{times['python'] / times['c']:>9.1f}x"
            print(row)

    # whole-run context: 41 devices for 10,000 periods
    fleet = [DeviceSpec(f"dev{i:03d}", f"{i + 1:016x}", 7, 7.0, 0.11729)
             for i in range(41)]
    print()
    for backend in backends:
        kernels.use_backend(backend)
        t = best_of(lambda: run(fleet, 70_000.0, seed=1), repeats=3)
        print(f"run(): 41 devices x 10,000 periods, {backend:>6} backend: {t * 1e3:7.1f} ms")

    # Monte-Carlo estimate: the paper's 41 devices for 100,000 rounds
    print()
    groups = [SfGroup(7, 41, 0.11729)]
    for backend in backends:
        kernels.use_backend(backend)
        for model in (AnyOverlap(), VulnerabilityWindow(1.0)):
            def estimate():
                estimate_pdr(groups, 7.0, 100_000, model=model, seed=1)

            cpu = best_of(estimate, repeats=3, clock=time.process_time)
            peak = traced_peak(estimate)
            print(f"estimate_pdr: 41 devices x 100,000 rounds, {model!s:<33} {backend:>6}"
                  f" backend: {cpu * 1e3:7.1f} ms CPU, {peak / 2**20:6.1f} MB peak")

    # live world: all 41 devices on, the clock moved one period at a time
    print()
    for n in args.advances:
        def live():
            world = SimWorld(fleet, seed=1)
            for d in fleet:
                world.set_active(d.device_id, True)
            for _ in range(n):
                world.advance(7.0)

        t = best_of(live, repeats=3)
        print(f"SimWorld: 41 devices, {n:>5} advances of 7 s: {t * 1e3:8.1f} ms"
              f" ({t / n * 1e6:6.0f} us per advance)")


if __name__ == "__main__":
    main()
