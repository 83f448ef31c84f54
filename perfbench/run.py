#!/usr/bin/env python3
"""Whole-workflow benchmark of lorascale.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json, or ``all`` to run each in
turn.  A run starts SETUP_SAMPLES worker processes one after another.
Each starts the interpreter, imports, generates the inputs from the seed
and runs one untimed warm-up unit; ``setup_s`` is the median of their
set-up CPU times.  The last worker then runs units of work for S seconds.
With ``--trace 1`` only that worker runs; it alternates untraced and
traced units and reports the per-layer metrics instead of the
end-to-end ones.

Prints the provenance, every metric of the workload by name, unit and
sample count, and as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Results also go to
``perfbench/out/``.  Exits non-zero when any output check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
BUDGET_S = 170.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "lorascale").rglob("*")):
        if path.suffix in (".py", ".pyx"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance() -> dict:
    return {
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
    }


def run_worker(args, outdir: Path, setup_only: bool, deadline: float) -> dict:
    """Start one worker process, wait for it, return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--outdir", str(outdir)]
    cmd += ["--setup-only"] * setup_only + ["--toy"] * args.toy
    cmd += ["--inject-failure"] * args.inject_failure
    # own process group, so a timeout also stops the worker's server process
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker exceeded the {BUDGET_S:.0f} s budget")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(args, spec: dict) -> tuple[dict, dict]:
    """One workload: (contract metrics, full result)."""
    deadline = time.monotonic() + BUDGET_S
    outdir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    prov = provenance()
    # a traced run reports no setup_s, so it needs no extra set-up samples
    extra = 0 if args.trace else SETUP_SAMPLES - 1
    setups = [run_worker(args, outdir, True, deadline) for _ in range(extra)]
    result = run_worker(args, outdir, False, deadline)
    setups.append(result)

    attempted = sum(r["attempted"] for r in setups)
    failed = sum(r["failed"] for r in setups)
    setup_s = statistics.median(r["setup_s"] for r in setups)
    report = {"setup_s": [setup_s, "s", len(setups)]}
    report.update(result.get("report", {}))
    report["peak_rss_mb"] = [result["peak_rss_mb"], "MB", 1]
    report["probe_p50_ms"] = [result["probe_p50_ms"], "ms", 1]
    report["error_rate"] = [failed / attempted, "1", attempted]

    if args.trace:
        wanted, values = spec["per_layer"], result.get("layers", {})
    else:
        wanted = spec["end_to_end"]
        values = {"setup_s": setup_s, "unit_cpu_p50_ms": result.get("unit_cpu_p50_ms"),
                  "peak_rss_mb": result["peak_rss_mb"]}
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        raise RuntimeError(f"no value for {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    prov.update(numpy=result["numpy"], kernels_active=result["kernels_active"],
                kernels_available=result["kernels_available"], seed=args.seed,
                unit_seed_range=result["unit_seed_range"])
    full = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
            "provenance": prov, "report": report, "metrics": metrics,
            "attempted": attempted, "failed": failed,
            "failures": [f for r in setups for f in r["failures"]][:20],
            "self_time_check": result.get("self_time_check")}
    (outdir / "result.json").write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")
    return metrics, full


def print_result(full: dict) -> None:
    print(f"== {full['workload']}  seed {full['provenance']['seed']}  trace {full['trace']}")
    print("provenance " + json.dumps(full["provenance"]))
    for name, (value, unit, samples, *note) in full["report"].items():
        extra = f"  ({note[0]})" if note else ""
        print(f"  {name:<22}{value:>16.6g} {unit:<5} {samples:>7} samples{extra}")
    if full["trace"]:
        for name, m in full["metrics"].items():
            print(f"  {name:<36}{m['value']:>16.6g} {m['unit']}")
    for failure in full["failures"]:
        print(f"  FAILED CHECK: {failure}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the harness self-test")
    parser.add_argument("--inject-failure", action="store_true",
                        help="corrupt one expected value, for the harness self-test")
    args = parser.parse_args(argv)
    if not (SRC / "lorascale" / "__init__.py").is_file():
        print(f"error: no lorascale sources under {SRC}", file=sys.stderr)
        return 2

    runs = []
    for name in names if args.workload == "all" else [args.workload]:
        try:
            metrics, full = run_workload(argparse.Namespace(**{**vars(args), "workload": name}),
                                         spec)
        except (RuntimeError, OSError, ValueError, KeyError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print_result(full)
        runs.append((name, metrics, full))

    if len(runs) == 1:
        metrics = runs[0][1]
    else:
        metrics = {f"{name}.{k}": v for name, m, _ in runs for k, v in m.items()}
    attempted = sum(full["attempted"] for _, _, full in runs)
    failed = sum(full["failed"] for _, _, full in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
