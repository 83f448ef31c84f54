#!/usr/bin/env bash
# Every CI check, one step per name; the workflow runs one step at a time.
#
#     ci/checks.sh [STEP...]
#
# With no STEP every step runs, in order, and the first failure stops the
# run.  Steps: pins, tier1, perfbench-selftest, bench-smoke.  A step stays
# only for what pytest cannot do: tier1 also checks the golden generator, and
# fails on a leaked socket, pipe or file through the pyproject.toml filters.
#
# The pins step runs every pinned command and compares its outputs with the
# manifest tests/data/pins.txt, one `NAME VALUE` line per pinned output: an
# md5, an exact output line, or a golden fixture under tests/data/ whose md5
# the output must have.  It prints every pin that moved, by name, before it
# fails.  To move a pin on purpose, edit its one line there.
#
# LORASCALE_CLI is the command the CLI steps run, by default the installed
# `lorascale` console script.  To check a checkout that is not installed:
#
#     LORASCALE_CLI="python -m lorascale.cli" ci/checks.sh
set -eo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"
read -r -a cli <<< "${LORASCALE_CLI:-lorascale}"

lorascale() { command "${cli[@]}" "$@"; }

md5() { md5sum < "$1" | cut -c-32; }

# pin NAME VALUE: one computed pin, a `NAME VALUE` line as in the manifest
pin() { printf '%s %s\n' "$1" "$2"; }

# pin_md5 FILE: the md5 of FILE, pinned under the file's name
pin_md5() { pin "$1" "$(md5 "$1")"; }

# pin_line NAME:N: line N of the saved output NAME
pin_line() { pin "$1" "$(sed -n "${1##*:}p" "${1%:*}")"; }

# pin_lines NAME: every line of the saved output NAME, line N as the pin NAME:N
pin_lines() { awk -v name="$1" '{ print name ":" NR " " $0 }' "$1"; }

# refused NAME ARGS...: `lorascale ARGS` must exit 1; its stderr is saved as
# NAME and pinned line by line
refused() {
  local rc=0
  lorascale "${@:2}" 2> "$1" > /dev/null || rc=$?
  test "$rc" = 1 || { echo "$1: exit status $rc, expected 1" >&2; return 1; }
  pin_lines "$1"
}

# check_pins: compare the computed `NAME VALUE` pins on stdin with the manifest
# tests/data/pins.txt, where a VALUE `tests/data/FILE` stands for that
# fixture's md5.  Print each pin that moved, that only one side has or that is
# given twice, and only then fail.
check_pins() {
  local -A pinned got
  local -a names
  local name value want shown bad=0
  while read -r name value; do
    [[ -z $name || $name == '#'* ]] && continue
    if [[ -v pinned[$name] ]]; then
      echo "$name: listed twice in the manifest"; bad=1
    else
      names+=("$name")
    fi
    pinned[$name]=$value
  done < tests/data/pins.txt
  while IFS= read -r value; do
    name=${value%% *} value=${value#* }
    if [[ -v got[$name] ]]; then echo "$name: computed twice"; bad=1; fi
    got[$name]=$value
    if [[ ! -v pinned[$name] ]]; then
      echo "$name: not in the manifest, got $value"; bad=1; continue
    fi
    shown=${pinned[$name]} want=${pinned[$name]}
    if [[ $want == tests/data/* ]]; then want=$(md5 "$want") shown="$shown (md5 $want)"; fi
    if [[ $want != "$value" ]]; then echo "$name: pinned $shown, got $value"; bad=1; fi
  done
  for name in "${names[@]}"; do
    [[ -v got[$name] ]] || { echo "$name: pinned ${pinned[$name]}, not computed"; bad=1; }
  done
  return "$bad"
}

# Every pinned output, computed in a temporary directory and checked at once.
# A subshell, so that its EXIT trap stops the server and the benchmark units
# and removes the files however the step ends.  Job control gives each of them
# its own process group, which is stopped whole, wrapper processes included.
step_pins() (
  set -m
  repo=$PWD out=$(mktemp -d) server= units=
  trap 'for job in $server $units; do kill -- "-$job" 2>/dev/null || true; done
        wait; rm -rf "$out"' EXIT
  # serve LOG: start a server that replays LOG, its output in LOG.serve and
  # its stderr in LOG.serve.err, and wait until it serves; sets addr
  serve() {
    "${cli[@]}" serve --bind 127.0.0.1:0 --token golden-token --log "$1" \
        > "$1.serve" 2> "$1.serve.err" &
    server=$!
    for _ in $(seq 100); do
      grep -qs '^serving on ' "$1.serve" && break
      sleep 0.1
    done
    addr=$(sed -n 's/^serving on //p' "$1.serve")
    test -n "$addr"
  }
  stop() {
    kill -- "-$server"
    wait "$server" || true
    server=
  }
  cd "$out"
  # unit 1 of the benchmark's fleet10k-pipeline and world-paper41 workloads at
  # seed 777, each required to pass its own checks, runs while the CLI does
  python - "$repo/perfbench" <<'PY' &
import signal
import sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
from workloads import FleetPipeline, LiveWorld

# a job started in the background inherits SIGINT as ignored, and so would the
# server child, which the fleet unit stops with SIGINT
signal.signal(signal.SIGINT, signal.default_int_handler)
Path("world").mkdir()
for workload in (FleetPipeline(777, False, Path("fleet"), False, None),
                 LiveWorld(777, False, Path("world"), False, None)):
    unit = workload.unit(1)
    assert unit.failures == [], (workload.name, unit.failures)
PY
  units=$!
  {
    lorascale airtime --sf 7 --bw 125000 --payload 51 --cr 5 > airtime
    pin_lines airtime
    lorascale scale --real-n 10000 --real-period 600 --real-airtime 0.04122 \
        --exp-period 7 --exp-airtime 0.11729 > scale
    pin_line scale:2
    lorascale simulate --devices 41 --period 7 --airtime 0.11729 --sf 7 \
        --duration 70000 --seed 1 > simulate
    pin_line simulate:1
    lorascale simulate --devices 41 --period 7 --airtime 0.11729 --sf 7 \
        --duration 70000 --seed 1 --model window --window-factor 1 > simulate-window
    pin_line simulate-window:1
    lorascale analyze --total 8835 --period 600 --airtime-sf7 0.04122 --step 250 > analyze
    pin_line analyze:13

    # seed-1 packet logs that a run writes, and the server reads, in many
    # blocks; mixed.log has SF8 lines too
    lorascale simulate --devices 41 --period 7 --airtime 0.11729 --sf 7 \
        --duration 70000 --seed 1 --out any.log > simulate-any
    pin_lines simulate-any
    pin_md5 any.log
    serve any.log
    stop
    pin_line any.log.serve:1
    lorascale simulate --devices 41 --period 7 --airtime 0.11729 --sf 7 \
        --duration 70000 --seed 1 --sf8-devices 10 --sf8-airtime 0.21094 --model window \
        --window-factor 0.5 --out mixed.log > simulate-mixed
    pin_lines simulate-mixed
    pin_md5 mixed.log
    serve mixed.log
    stop
    pin_line mixed.log.serve:1

    # the golden run across two processes; the config's roster and mapping
    # are read from its own directory, whatever the working directory
    (cd "$repo" && lorascale simulate --config tests/data/golden.cfg \
        --out "$out/golden-in-repo.log") > /dev/null
    pin_md5 golden-in-repo.log
    lorascale simulate --config "$repo/tests/data/golden.cfg" --out golden.log > /dev/null
    pin_md5 golden.log
    # two malformed lines, one a golden device's inside the experiment window
    # with a counter past int64, and a blank line: the server skips the two,
    # ignores the blank and serves the golden packets unchanged
    printf 'this is not a log line\n100.000000\t00000000feed0001\t9223372036854775808\t7\n\n' \
        >> golden.log
    serve golden.log
    pin_line golden.log.serve:1
    lorascale run-experiment --config "$repo/tests/data/golden.cfg" --auto-operator sim \
        --server "$addr" --token golden-token \
        --report golden-report.txt --timestamps golden-timestamps.txt > run-experiment
    stop
    pin_line run-experiment:3
    pin_md5 golden-report.txt
    pin_md5 golden-timestamps.txt
    # a server that wrote to stderr, such as a traceback, fails the step
    for err in *.serve.err; do
      test ! -s "$err" || { cat "$err" >&2; exit 1; }
    done

    # a config value that does not read as its key's type, a period spread
    # outside [0, 2) and a missing input file are named by path and line
    echo "period = abc" > period.cfg
    refused refused-period simulate --config period.cfg
    echo "period_spread = 3" > spread.cfg
    refused refused-spread simulate --config spread.cfg
    echo "roster = missing.csv" > roster.cfg
    refused refused-roster simulate --config roster.cfg --out roster.log
    test ! -e roster.log
    # an airtime not below the period is refused by analyze, as by scale and simulate
    refused refused-airtime analyze --total 4 --period 600 --airtime-sf7 0.04 \
        --airtime-sf8 700
    # simulate --out holds its fleet to the estimate's rule, and writes no log
    refused refused-sf8 simulate --devices 3 --period 7 --airtime 0.1 --duration 70 --sf 8 \
        --sf8-devices 1 --sf8-airtime 0.2 --out sf8.log
    test ! -e sf8.log

    wait "$units"
    units=
    for file in fleet/pipeline/{packets.log,report.txt,timestamps.txt} \
        world/{report.txt,timestamps.txt}; do
      pin_md5 "$file"
    done
  } > pins.got
  cd "$repo"
  check_pins < "$out/pins.got"
)

step_tier1() {
  python -m pytest -q --continue-on-collection-errors
}

step_perfbench_selftest() {
  python3 perfbench/selftest.py
}

step_bench_smoke() {
  python benchmarks/bench_kernels.py --sizes 1000 --repeats 1 --advances 10
}

steps=(pins tier1 perfbench-selftest bench-smoke)
if [ $# -eq 0 ]; then
  set -- "${steps[@]}"
fi
for step in "$@"; do
  case " ${steps[*]} " in
    *" $step "*) ;;
    *) echo "unknown step '$step'; steps: ${steps[*]}" >&2; exit 2 ;;
  esac
  echo "== $step"
  "step_${step//-/_}"
done
