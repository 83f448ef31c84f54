#!/usr/bin/env python3
"""Self-test of the benchmark harness at toy sizes.

    python3 perfbench/selftest.py

Runs every workload with tiny inputs and checks that:

1. every metric named in BENCHMARK.json, and every workload metric of
   the report, is emitted with its unit, untraced and traced;
2. traced self times are non-negative and, per process, sum to no more
   than the traced wall time;
3. an injected failing output check raises ``error_rate`` and makes the
   command exit non-zero;
4. without the lorascale sources the command exits non-zero and prints
   no result.

Exits non-zero and lists the problems if any check fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7

# The report's metrics per workload, with their units.
REPORT = {
    "mc-paper41": {"mc_tx_per_s": "tx/s"},
    "fleet10k-pipeline": {"pipeline_s": "s", "query_p50_us": "us", "query_p99_us": "us",
                          "pdr_abs_err": "1", "server_peak_rss_mb": "MB"},
    "world-paper41": {"experiment_p50_ms": "ms", "experiment_tail_ms": "ms", "pdr_abs_err": "1"},
}
COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "probe_p50_ms": "ms", "error_rate": "1"}


def bench(cwd: Path, workload: str, trace: int, *extra: str):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--toy", *extra],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            where = f"{workload} trace {trace}"
            proc, last = bench(ROOT, workload, trace)
            if proc.returncode != 0 or last is None:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            expect(last["correct"] and last["failed"] == 0, f"{where}: not correct")
            named = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            emitted = {k: v["unit"] for k, v in last["metrics"].items()}
            expect(emitted == named, f"{where}: metrics {emitted} differ from {named}")
            expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                       for v in last["metrics"].values()), f"{where}: non-finite value")
            full = json.loads((HERE / "out" / f"{workload}-seed{SEED}-trace{trace}"
                               / "result.json").read_text(encoding="utf-8"))
            report = {k: v[1] for k, v in full["report"].items()}
            expect(report == {**COMMON, **REPORT[workload]},
                   f"{where}: report metrics {report}")
            if trace:
                check = full["self_time_check"]
                for side in ("driver", "server"):
                    expect(check[f"{side}_self_min_s"] >= 0, f"{where}: negative {side} self time")
                    expect(check[f"{side}_self_sum_s"] <= check["traced_wall_s"],
                           f"{where}: {side} self times exceed the traced wall time")

        proc, last = bench(ROOT, workload, 0, "--inject-failure")
        where = f"{workload} with an injected failure"
        expect(proc.returncode != 0, f"{where}: exit code 0")
        expect(last is not None and not last["correct"] and last["failed"] > 0,
               f"{where}: result {last}")
        full = json.loads((HERE / "out" / f"{workload}-seed{SEED}-trace0"
                           / "result.json").read_text(encoding="utf-8"))
        expect(full["report"]["error_rate"][0] > 0, f"{where}: error_rate is 0")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc, last = bench(bare, spec["workloads"][0]["name"], 0)
    expect(proc.returncode != 0 and last is None,
           f"without sources: exit {proc.returncode}, result {last}")
    shutil.rmtree(bare)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
