#!/usr/bin/env bash
# Every CI check, one step per name; the workflow runs one step at a time.
#
#     ci/checks.sh [STEP...]
#
# With no STEP every step runs, in order, and the first failure stops the
# run.  Steps: console, golden-run, golden-sync, tier1, socket-dev,
# perfbench-selftest, bench-smoke.
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

# A subshell, so that its EXIT trap removes the logs however the step ends.
step_console() (
  out=$(mktemp -d)
  trap 'rm -rf "$out"' EXIT
  test "$(lorascale airtime --sf 7 --bw 125000 --payload 51 --cr 5)" = "0.102656"
  lorascale scale --real-n 10000 --real-period 600 --real-airtime 0.04122 \
      --exp-period 7 --exp-airtime 0.11729 | grep -qx "experiment devices = 41"
  test "$(lorascale simulate --devices 41 --period 7 --airtime 0.11729 --sf 7 \
      --duration 70000 --seed 1 | head -n 1)" = "pdr 0.256188"
  test "$(lorascale simulate --devices 41 --period 7 --airtime 0.11729 --sf 7 \
      --duration 70000 --seed 1 --model window --window-factor 1 | head -n 1)" \
      = "pdr 0.508722"
  test "$(lorascale analyze --total 8835 --period 600 --airtime-sf7 0.04122 --step 250 \
      | sed -n 13p)" = "3000 0.445139 0.667177"
  # packet logs that a run writes in many blocks
  test "$(lorascale simulate --devices 41 --period 7 --airtime 0.11729 --sf 7 \
      --duration 70000 --seed 1 --out "$out/any.log")" \
      = "$(printf 'wrote 90000 packet records to %s\npdr 0.219512' "$out/any.log")"
  test "$(md5sum < "$out/any.log")" = "9cefe43880445b6142c50750bb39eff7  -"
  test "$(lorascale simulate --devices 41 --period 7 --airtime 0.11729 --sf 7 \
      --duration 70000 --seed 1 --sf8-devices 10 --sf8-airtime 0.21094 --model window \
      --window-factor 0.5 --out "$out/mixed.log")" \
      = "$(printf 'wrote 320000 packet records to %s\npdr 0.780488' "$out/mixed.log")"
  test "$(md5sum < "$out/mixed.log")" = "4d3372c665a12b989915b3400f190f44  -"
  # a config value that does not read as its key's type is named by path and line
  echo "period = abc" > "$out/bad.cfg"
  rc=0
  err=$(lorascale simulate --config "$out/bad.cfg" 2>&1 > /dev/null) || rc=$?
  test "$rc" = 1
  test "$err" = "error: $out/bad.cfg:1: period: could not convert string to float: 'abc'"
  # a period spread outside [0, 2) is refused where the config gives it
  echo "period_spread = 3" > "$out/spread.cfg"
  rc=0
  err=$(lorascale simulate --config "$out/spread.cfg" 2>&1 > /dev/null) || rc=$?
  test "$rc" = 1
  test "$err" = "error: $out/spread.cfg:1: period_spread: expected a spread in [0, 2), got '3'"
)

# A subshell, so that its EXIT trap stops the server and removes the
# files however the step ends.  Job control gives each server its own
# process group, which is stopped whole, wrapper processes included.
step_golden_run() (
  set -m
  out=$(mktemp -d)
  server=
  trap 'test -z "$server" || kill -- "-$server" 2>/dev/null; rm -rf "$out"' EXIT
  # serve LOG: start a server that replays LOG, its output in LOG.serve
  # and its stderr in LOG.serve.err, and wait until it serves; sets addr
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
  # the seed-1 log whose md5 the console step pins, which the server reads
  # in many blocks
  lorascale simulate --devices 41 --period 7 --airtime 0.11729 --sf 7 \
      --duration 70000 --seed 1 --out "$out/any.log" > /dev/null
  serve "$out/any.log"
  grep -qxF "ingested 90000 records from $out/any.log (0 malformed lines skipped)" \
      "$out/any.log.serve"
  kill -- "-$server"
  wait "$server" || true
  server=
  lorascale simulate --config tests/data/golden.cfg --out "$out/packets.log"
  cmp "$out/packets.log" tests/data/golden.log
  # two malformed lines, one a golden device's inside the experiment window
  # with a counter past int64, and a blank line: the server skips the two,
  # ignores the blank and serves the golden packets unchanged
  printf 'this is not a log line\n100.000000\t00000000feed0001\t9223372036854775808\t7\n\n' \
      >> "$out/packets.log"
  serve "$out/packets.log"
  grep -qxF "ingested 307 records from $out/packets.log (2 malformed lines skipped)" \
      "$out/packets.log.serve"
  lorascale run-experiment --config tests/data/golden.cfg --auto-operator sim \
      --server "$addr" --token golden-token \
      --report "$out/report.txt" --timestamps "$out/timestamps.txt" > "$out/run.txt"
  grep -qxF "network pdr 0.871875 (279/320)" "$out/run.txt"
  cmp "$out/report.txt" tests/data/golden_report.txt
  cmp "$out/timestamps.txt" tests/data/golden_timestamps.txt
  kill -- "-$server"
  wait "$server" || true
  server=
  # a server that wrote to stderr, such as a traceback, fails the step
  for err in "$out"/*.serve.err; do
    test ! -s "$err" || { cat "$err" >&2; exit 1; }
  done
)

step_golden_sync() {
  python tests/data/make_golden.py
  git diff --exit-code -- tests/data
}

step_tier1() {
  python -m pytest -q --continue-on-collection-errors
}

step_socket_dev() {
  python -X dev -W error::ResourceWarning -m pytest -q \
      -W error::ResourceWarning -W error::pytest.PytestUnraisableExceptionWarning \
      tests/test_netserver.py tests/test_cli.py tests/test_acceptance.py
}

step_perfbench_selftest() {
  python3 perfbench/selftest.py
}

step_bench_smoke() {
  python benchmarks/bench_kernels.py --sizes 1000 --repeats 1 --advances 10
}

steps=(console golden-run golden-sync tier1 socket-dev perfbench-selftest bench-smoke)
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
